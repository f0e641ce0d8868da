"""Single-stream transformer blocks.

A block is two sublayers (joint attention, gated-SiLU FFN), each wrapped as

    x + gate * Norm_post(Sublayer(Norm_pre(x) * (1 + scale) + shift))

with scale/shift/gate projected from the timestep embedding (adaLN). The
projection is zero-initialized, so a fresh block is exactly the identity.
Text-processor blocks run without timestep conditioning: scale = shift = 0,
gate = 1, a plain sandwich block.

Everything operates on batched [B, L, dim] activations; a single sequence is
a batch of one. The rotary tables are shared across the batch.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import UsageError
from ..numerics import Tensor, matmul, rms_norm, sinusoid, softmax_lastdim, split
from .params import ParamStore
from .rope import apply_mrope

TIMESTEP_SCALE = 1000.0  # t in [0,1] is spread over [0,1000] before the sinusoid


def timestep_embedding_batch(ts, store: ParamStore) -> Tensor:
    """[B, dim] conditioning embeddings for a vector of timesteps."""
    cfg = store.config
    dtype = store["t_embed.fc1.w"].dtype
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    feats = sinusoid(ts * TIMESTEP_SCALE, cfg.t_embed_dim, dtype=dtype)
    h = (matmul(feats, store["t_embed.fc1.w"]) + store["t_embed.fc1.b"]).silu()
    return matmul(h, store["t_embed.fc2.w"]) + store["t_embed.fc2.b"]


def timestep_embedding(t: float, store: ParamStore) -> Tensor:
    """256-dim sinusoid of the scaled timestep through a 2-layer SiLU MLP."""
    return timestep_embedding_batch([t], store).reshape(store.config.dim)


def attention_batch(x: Tensor, rope, store: ParamStore, prefix: str) -> Tensor:
    """Joint attention over [B, L, dim]; ``rope`` is the (cos, sin) pair of
    [L, head_dim] rotary tables, shared across the batch.

    Queries and keys are RMS-normalized per head (learned gains) before the
    rotary rotation; KV heads are shared across query-head groups.
    """
    cfg = store.config
    B, L, _ = x.shape
    if L == 0:
        raise UsageError("attention over an empty sequence")
    H, KV, hd = cfg.heads, cfg.kv_heads, cfg.head_dim
    groups = H // KV

    q = matmul(x, store[f"{prefix}.attn.wq"]).reshape(B, L, H, hd)
    k = matmul(x, store[f"{prefix}.attn.wk"]).reshape(B, L, KV, hd)
    v = matmul(x, store[f"{prefix}.attn.wv"]).reshape(B, L, KV, hd)

    q = rms_norm(q, store[f"{prefix}.attn.qn"], cfg.rmsnorm_eps)
    k = rms_norm(k, store[f"{prefix}.attn.kn"], cfg.rmsnorm_eps)
    q = apply_mrope(q, rope)
    k = apply_mrope(k, rope)

    # scale q instead of the [L, L] score matrix; same product, smaller array
    qg = (q * (1.0 / math.sqrt(hd))).transpose(0, 2, 1, 3).reshape(B, KV, groups, L, hd)
    kt = k.transpose(0, 2, 3, 1).reshape(B, KV, 1, hd, L)
    attn = softmax_lastdim(matmul(qg, kt))
    vg = v.transpose(0, 2, 1, 3).reshape(B, KV, 1, L, hd)
    out = matmul(attn, vg)  # [B, KV, groups, L, hd]
    out = out.reshape(B, H, L, hd).transpose(0, 2, 1, 3).reshape(B, L, H * hd)
    return matmul(out, store[f"{prefix}.attn.wo"])


def _ffn(x: Tensor, store: ParamStore, prefix: str) -> Tensor:
    gate = matmul(x, store[f"{prefix}.ffn.wg"]).silu()
    up = matmul(x, store[f"{prefix}.ffn.wu"])
    return matmul(gate * up, store[f"{prefix}.ffn.wd"])


def _modulation(t_emb: Tensor, store: ParamStore, name: str, parts: int):
    """adaLN projection: [B, dim] -> ``parts`` tensors of [B, 1, dim]."""
    B = t_emb.shape[0]
    dim = store.config.dim
    mod = matmul(t_emb.silu(), store[f"{name}.w"]) + store[f"{name}.b"]
    return [m.reshape(B, 1, dim) for m in split(mod, [dim] * parts, axis=1)]


def block_batch(
    x: Tensor, rope, store: ParamStore, prefix: str, t_emb: Tensor | None
) -> Tensor:
    """One block over [B, L, dim]; rope as in ``attention_batch``; t_emb is
    [B, dim] or None."""
    cfg = store.config
    eps = cfg.rmsnorm_eps
    if t_emb is not None:
        shift1, scale1, gate1, shift2, scale2, gate2 = _modulation(
            t_emb, store, f"{prefix}.ada", 6
        )

    h = rms_norm(x, store[f"{prefix}.norm1.g"], eps)
    if t_emb is not None:
        h = h * (scale1 + 1.0) + shift1
    a = attention_batch(h, rope, store, prefix)
    a = rms_norm(a, store[f"{prefix}.norm1_post.g"], eps)
    if t_emb is not None:
        a = a * gate1
    x = x + a

    h = rms_norm(x, store[f"{prefix}.norm2.g"], eps)
    if t_emb is not None:
        h = h * (scale2 + 1.0) + shift2
    f = _ffn(h, store, prefix)
    f = rms_norm(f, store[f"{prefix}.norm2_post.g"], eps)
    if t_emb is not None:
        f = f * gate2
    return x + f
