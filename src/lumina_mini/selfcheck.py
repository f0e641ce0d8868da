"""Fast invariant battery behind ``lumina-mini selfcheck``.

Every check is one named invariant with a measured deviation; the whole
battery is built to finish well under a minute.
"""

from __future__ import annotations

import io
import math

import numpy as np

from . import numerics as nm
from .errors import CheckpointError
from .flow import aux_loss
from .model import (
    ModelConfig,
    assign_coords,
    attention_as_ffn,
    cross_attention_direct,
    init_params,
    load_checkpoint,
    save_checkpoint,
    timestep_embedding_batch,
)
from .model.blocks import block_batch
from .model.rope import rope_tables
from .numerics import Tensor, apply_rotary
from .sampler import (
    FdpmRecord,
    GuidanceConfig,
    SamplerConfig,
    cfg_combine,
    euler_step,
    midpoint_step,
    sample,
    x0_prediction,
)


def _tiny_config(**kw):
    base = dict(
        dim=16,
        heads=2,
        kv_heads=1,
        layers=1,
        text_processor_layers=1,
        image_processor_layers=1,
        patch_size=2,
        vocab_size=16,
        axes_split=(4, 2, 2),
    )
    base.update(kw)
    return ModelConfig(**base)


def _fd_check(f, arrs, which, h=1e-6):
    """Max relative error of backward vs central differences, f64."""
    leaves = [Tensor(a, "f64", requires_grad=True) for a in arrs]
    f(*leaves).backward()
    ad = leaves[which].grad.data.copy()
    base = [a.copy() for a in arrs]
    fd = np.zeros_like(base[which])
    flat, out = base[which].reshape(-1), fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f(*[Tensor(a, "f64") for a in base]).item()
        flat[i] = orig - h
        lo = f(*[Tensor(a, "f64") for a in base]).item()
        flat[i] = orig
        out[i] = (hi - lo) / (2 * h)
    denom = max(np.linalg.norm(fd.reshape(-1)), 1e-12)
    return float(np.linalg.norm((ad - fd).reshape(-1)) / denom)


def run_selfcheck(verbose: bool = True) -> list:
    """Returns [(name, ok, detail)]; prints one line per check when verbose."""
    rng = np.random.default_rng(2024)
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))
        if verbose:
            print(f"  {'PASS' if ok else 'FAIL'}  {name:34s} {detail}")

    # gradient spot checks
    a, b = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
    err = _fd_check(lambda x, y: nm.matmul(x, y).sum(), [a, b], 0)
    check("grad.matmul", err < 1e-5, f"rel err {err:.2e}")
    x = rng.standard_normal((3, 8))
    err = _fd_check(lambda t: nm.rms_norm(t, nm.ones(8, "f64"), 1e-5).sum(), [x], 0)
    check("grad.rms_norm", err < 1e-5, f"rel err {err:.2e}")
    w = rng.standard_normal((3, 6))
    err = _fd_check(lambda t: (nm.softmax_lastdim(t) * Tensor(w, "f64")).sum(),
                    [rng.standard_normal((3, 6))], 0)
    check("grad.softmax", err < 1e-5, f"rel err {err:.2e}")
    err = _fd_check(lambda t: (nm.avg_pool2d(t, 2) ** 2).sum(), [rng.standard_normal((2, 4, 4))], 0)
    check("grad.avg_pool2d", err < 1e-5, f"rel err {err:.2e}")

    # softmax algebra
    sm = nm.softmax_lastdim(Tensor(rng.standard_normal((5, 7)), "f64"))
    dev = float(np.abs(sm.data.sum(-1) - 1).max())
    check("softmax.rows_sum_to_one", dev < 1e-6, f"dev {dev:.2e}")

    # rotary position invariants
    q = Tensor(rng.standard_normal((8, 2, 8)), "f64")
    coords = rng.integers(0, 16, size=(8, 3))
    from .model import apply_mrope

    rq = apply_mrope(q, coords, (4, 2, 2))
    dev = float(
        np.abs(np.linalg.norm(rq.data, axis=-1) - np.linalg.norm(q.data, axis=-1)).max()
    )
    check("rope.isometry", dev < 1e-5, f"dev {dev:.2e}")
    worst = 0.0
    qv, kv = rng.standard_normal(8), rng.standard_normal(8)
    for _ in range(10):
        ca, cb = rng.integers(0, 12, 3), rng.integers(0, 12, 3)
        shift = rng.integers(0, 8, 3)

        def ip(c1, c2):
            cos1, sin1 = rope_tables(c1[None, :], (4, 2, 2))
            cos2, sin2 = rope_tables(c2[None, :], (4, 2, 2))
            r1 = apply_rotary(Tensor(qv[None, :], "f64"), cos1, sin1).data[0]
            r2 = apply_rotary(Tensor(kv[None, :], "f64"), cos2, sin2).data[0]
            return float(r1 @ r2)

        worst = max(worst, abs(ip(ca, cb) - ip(ca + shift, cb + shift)))
    check("rope.relative_positions", worst < 1e-5, f"dev {worst:.2e}")

    # block identity at init
    cfg = _tiny_config()
    store = init_params(cfg, seed=0)
    xin = Tensor(rng.standard_normal((1, 6, cfg.dim)).astype(np.float32))
    out = block_batch(xin, assign_coords(2, 2, 2), store, "blocks.0",
                      timestep_embedding_batch([0.4], store))
    dev = float(np.abs(out.data - xin.data).max())
    check("block.identity_at_init", dev == 0.0, f"dev {dev:.2e}")

    # FFN-equivalence sweep
    worst = 0.0
    for _ in range(20):
        li, lt, d = int(rng.integers(1, 9)), int(rng.integers(1, 9)), 8
        xs = Tensor(rng.standard_normal((li, d)), "f64")
        ys = Tensor(rng.standard_normal((lt, d)), "f64")
        wq, wk, wv = (Tensor(rng.standard_normal((d, d)), "f64") for _ in range(3))
        ffn = attention_as_ffn(xs, ys, wq, wk, wv).data
        direct = cross_attention_direct(xs, ys, wq, wk, wv).data
        worst = max(worst, float(np.abs(ffn - direct).max()))
    check("ffn.equivalence", worst < 1e-9, f"max dev {worst:.2e}")

    # CFG algebra
    vu, vc = rng.standard_normal((3, 4, 4)), rng.standard_normal((3, 4, 4))
    w1 = cfg_combine(vu, vc, GuidanceConfig(w=1.0, trunc_alpha=1.0), 0.1)
    w0 = cfg_combine(vu, None, GuidanceConfig(w=0.0, trunc_alpha=1.0), 0.1)
    check("cfg.w1_is_conditional", (w1 == vc).all(), "exact")
    check("cfg.w0_is_unconditional", (w0 == vu).all(), "exact")
    ren = cfg_combine(vu, vc, GuidanceConfig(w=6.0, renorm=True, trunc_alpha=1.0), 0.1)
    dev = abs(np.linalg.norm(ren) - np.linalg.norm(vc)) / np.linalg.norm(vc)
    check("cfg.renorm_norm_matches", dev < 1e-6, f"rel dev {dev:.2e}")
    _, rep = sample(store, [1, 2], GuidanceConfig(w=4.0, trunc_alpha=0.6),
                    SamplerConfig(steps=20), 0, resolution=8)
    check("cfg.trunc_nfe_20pct", rep.total == 32 and rep.conditional == 12,
          f"nfe {rep.total} cond {rep.conditional}")

    # solver orders on v(x,t) = x
    def euler_err(n):
        xv = np.array([1.0])
        for i in range(n):
            xv = euler_step(xv, xv, 1.0 / n)
        return abs(float(xv[0]) - math.e)

    ratio = euler_err(64) / euler_err(128)
    check("solver.euler_order1", 1.6 < ratio < 2.4, f"ratio {ratio:.2f}")

    def mid_err(n):
        xv = np.array([1.0])
        for i in range(n):
            xv = midpoint_step(xv, i / n, 1.0 / n, lambda y, t: y)
        return abs(float(xv[0]) - math.e)

    ratio = mid_err(32) / mid_err(64)
    check("solver.midpoint_order2", 3.2 < ratio < 4.8, f"ratio {ratio:.2f}")

    xc, ep = rng.standard_normal(6), rng.standard_normal(6)
    worst = max(
        float(np.abs(x0_prediction(t * xc + (1 - t) * ep, xc - ep, t) - xc).max())
        for t in (0.0, 0.4, 0.9)
    )
    check("fdpm.x0_identity", worst < 1e-12, f"dev {worst:.2e}")

    # teacache no-op at delta 0
    base_img, _ = sample(store, [1], GuidanceConfig(w=2.0), SamplerConfig(steps=4), 1, resolution=8)
    cached_img, crep = sample(store, [1], GuidanceConfig(w=2.0),
                              SamplerConfig(steps=4, teacache_delta=0.0), 1, resolution=8)
    check("teacache.delta0_noop", (base_img.data == cached_img.data).all() and crep.skipped == 0,
          "bit-identical")

    # checkpoint round trip and magic validation
    buf_path = "/tmp/lumina_selfcheck.lmck"
    save_checkpoint(buf_path, store)
    back, _, _ = load_checkpoint(buf_path)
    ok = all((back[n].data == store[n].data).all() for n in store.names())
    check("checkpoint.roundtrip", ok, "bit-identical")
    try:
        nm.read_tensor(io.BytesIO(b"BAD!" + b"\x00" * 8))
        check("checkpoint.magic_detected", False, "no error raised")
    except CheckpointError:
        check("checkpoint.magic_detected", True, "CheckpointError raised")

    # auxiliary-loss nullspace
    u = rng.standard_normal((3, 8, 8))
    v = rng.standard_normal((3, 8, 8))
    pert = rng.standard_normal((3, 8, 8))
    blocks = pert.reshape(3, 2, 4, 2, 4)
    pert = (blocks - blocks.mean(axis=(2, 4), keepdims=True)).reshape(3, 8, 8)
    base = aux_loss(Tensor(v, "f64"), Tensor(u, "f64"), 4).item()
    shifted = aux_loss(Tensor(v + pert, "f64"), Tensor(u, "f64"), 4).item()
    check("aux.blockwise_nullspace", abs(base - shifted) < 1e-6, f"dev {abs(base - shifted):.2e}")

    return results
