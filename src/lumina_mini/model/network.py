"""The full network: token/patch embedding, processors, joint blocks, output head.

forward_batch() maps (text tokens, images, timesteps) to a velocity field with
the same shape as the images. Text goes through the token table and
text-processor blocks (no timestep conditioning); the image is patchified,
embedded and run through image-processor blocks; the two are concatenated
into one sequence for the joint blocks; the image positions are projected
back to patch pixels.

Every sample in a batch runs through each layer at once; a single sample is
a batch of one. All prompts in a batch must share one length (callers pad with
the dedicated pad token), so no attention mask is needed and the rotary tables
are shared batch-wide.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError, ShapeError, UsageError
from ..numerics import Tensor, concat, embedding, matmul, ones, rms_norm
from .blocks import block_batch, timestep_embedding_batch, _modulation
from .params import ParamStore
from .rope import assign_coords, rope_tables


def patchify(images: Tensor, p: int) -> Tensor:
    """[B, c, H, W] -> [B, (H/p)(W/p), c*p*p] with row-major patch ordering."""
    b, c, h, w = images.shape
    if h % p or w % p:
        raise ShapeError(f"image extents ({h},{w}) not divisible by patch size {p}")
    x = images.reshape(b, c, h // p, p, w // p, p)
    x = x.transpose(0, 2, 4, 1, 3, 5)  # [b, rows, cols, c, p, p]
    return x.reshape(b, (h // p) * (w // p), c * p * p)


def unpatchify(tokens: Tensor, c: int, h: int, w: int, p: int) -> Tensor:
    """Exact inverse of patchify: [B, (H/p)(W/p), c*p*p] -> [B, c, H, W]."""
    b = tokens.shape[0]
    x = tokens.reshape(b, h // p, w // p, c, p, p)
    x = x.transpose(0, 3, 1, 4, 2, 5)  # [b, c, rows, p, cols, p]
    return x.reshape(b, c, h, w)


def forward_batch(
    token_rows,
    images: Tensor,
    ts,
    store: ParamStore,
    t_emb: Tensor | None = None,
) -> Tensor:
    """Velocity predictions for a batch. token_rows must share one length."""
    cfg = store.config
    rows_list = [list(r) for r in token_rows]
    if not isinstance(images, Tensor):
        images = Tensor(np.asarray(images), "f32")
    b, c, h, w = images.shape
    if len(rows_list) != b:
        raise UsageError(f"{len(rows_list)} prompts for a batch of {b} images")
    text_len = len(rows_list[0])
    if any(len(r) != text_len for r in rows_list):
        raise UsageError("all prompts in a batch must share one padded length")
    for r in rows_list:
        if any(tok < 0 or tok >= cfg.vocab_size for tok in r):
            raise DataError(f"token id outside vocabulary of size {cfg.vocab_size}: {r}")
    if c != cfg.channels:
        raise ShapeError(f"expected {cfg.channels} channels, got {c}")
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    if ts.size != b:
        raise UsageError(f"{ts.size} timesteps for a batch of {b} images")
    if ts.min() < 0.0 or ts.max() > 1.0:
        raise UsageError(f"timestep outside [0, 1]: {ts}")
    p = cfg.patch_size
    prows, pcols = h // p, w // p

    if t_emb is None:
        t_emb = timestep_embedding_batch(ts, store)
    # one set of rotary tables per forward; rows follow the coordinates, so the
    # text and image paths take row slices of the joint tables
    rope = rope_tables(assign_coords(text_len, prows, pcols), cfg.axes_split,
                       dtype=images.data.dtype, base=cfg.rope_base)
    text_rope = tuple(t[:text_len] for t in rope)
    image_rope = tuple(t[text_len:] for t in rope)

    # Text path: token table then plain sandwich blocks, no timestep.
    txt = None
    if text_len:
        txt = embedding(store["tok_emb.w"], np.asarray(rows_list, dtype=np.int64))
        for i in range(cfg.text_processor_layers):
            txt = block_batch(txt, text_rope, store, f"text_proc.{i}", None)

    # Image path: patch embedding then timestep-conditioned blocks.
    img = matmul(patchify(images, p), store["patch_emb.w"]) + store["patch_emb.b"]
    for i in range(cfg.image_processor_layers):
        img = block_batch(img, image_rope, store, f"img_proc.{i}", t_emb)

    # Joint single-stream blocks over the concatenated sequence.
    x = concat([txt, img], axis=1) if txt is not None else img
    for i in range(cfg.layers):
        x = block_batch(x, rope, store, f"blocks.{i}", t_emb)

    # Output head: modulated norm then linear back to patch pixels.
    x_img = x.narrow(1, text_len, prows * pcols)
    shift, scale = _modulation(t_emb, store, "final.ada", 2)
    gain = ones(cfg.dim, dtype=x_img.dtype)
    hidden = rms_norm(x_img, gain, cfg.rmsnorm_eps) * (scale + 1.0) + shift
    patches = matmul(hidden, store["final.proj.w"]) + store["final.proj.b"]
    return unpatchify(patches, c, h, w, p)

