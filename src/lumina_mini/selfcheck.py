"""The check catalogue: ``lumina-mini selfcheck`` and the acceptance tests.

``CHECKS`` is an ordered table of named, deterministic invariants. Each entry
takes no arguments and returns ``(ok, detail)``, where ``detail`` carries the
measured value. The acceptance criteria run here at their test size and
bound; ``tests/test_acceptance.py`` looks each one up by name, so there is one
implementation of every criterion. The few entries in ``SELFCHECK_ONLY`` have
no acceptance test of their own. What stays in the test file alone is timing
or trains for minutes: criterion 6's wall-time half and criteria 10 and 11.
"""

from __future__ import annotations

import math
import os
import tempfile
import time

import numpy as np

from . import numerics as nm
from .errors import CheckpointError
from .evalharness import ffn_equivalence_suite
from .flow import aux_loss
from .model import (
    ModelConfig,
    apply_mrope,
    assign_coords,
    dynamic_ffn_weights,
    init_params,
    load_checkpoint,
    timestep_embedding,
)
from .model.blocks import block_batch
from .model.rope import rope_tables
from .numerics import Tensor, apply_rotary
from .sampler import STEPS, GuidanceConfig, SamplerConfig, cfg_combine, sample, x0_prediction
from .synthdata import build_hierarchical_dataset
from .trainer import StagePlan, fresh_state, load_state, run_stage, save_state

# -- finite-difference gradient helpers ----------------------------------------


def finite_diff_grad(f, xs, which, h=1e-6):
    """Central finite differences of scalar f(*xs) w.r.t. xs[which] (f64 arrays)."""
    base = [np.array(x, dtype=np.float64) for x in xs]
    g = np.zeros_like(base[which])
    flat = base[which].reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f(*base))
        flat[i] = orig - h
        lo = float(f(*base))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * h)
    return g


def autodiff_grad(f, xs, which):
    """Gradient of scalar f(*tensors) via backward, inputs as f64 leaves."""
    leaves = [Tensor(np.array(x, dtype=np.float64), "f64", requires_grad=True) for x in xs]
    out = f(*leaves)
    out.backward()
    return leaves[which].grad.data.copy()


def rel_err(a, b):
    scale = max(np.linalg.norm(b.reshape(-1)), 1e-12)
    return np.linalg.norm((a - b).reshape(-1)) / scale


# -- 1. autodiff soundness ----------------------------------------------------


def _square_sum(y):
    return (y * y).sum()


def _cube_sum(y):
    # a rotation keeps sum(y ** 2) fixed, so only an odd power sees the angle
    return (y * y * y).sum()


GRAD_CASES = {
    "matmul": lambda t, c: nm.matmul(t, c.transpose(1, 0)).sum(),
    # a 2-D right operand runs as one flat GEMM; both operands depend on t so
    # the flat input gradient and the batched weight gradient are both checked
    "matmul_3d_2d": lambda t, c: (
        nm.matmul(t.reshape(2, 2, 6), t.transpose(1, 0)) * c.narrow(1, 0, 4).reshape(2, 2, 4)
    ).sum(),
    "matmul_3d_2d_transposed": lambda t, c: _square_sum(
        nm.matmul(t.reshape(2, 2, 6).transpose(0, 2, 1), t.narrow(0, 0, 2))
    ),
    "add": lambda t, c: (t + c).sum(),
    "sub": lambda t, c: (t - c).sum(),
    "mul": lambda t, c: (t * c).sum(),
    "silu": lambda t, c: t.silu().sum(),
    "sum": lambda t, c: (t.sum(axis=0) * c.narrow(0, 0, 1).reshape(c.shape[1])).sum(),
    "mean": lambda t, c: (t.mean(axis=1, keepdims=True) * c.narrow(1, 0, 1)).sum(),
    "softmax": lambda t, c: (nm.softmax_lastdim(t) * c).sum(),
    "rms_norm": lambda t, c: (nm.rms_norm(t, nm.ones(t.shape[-1], "f64"), 1e-5) * c).sum(),
    "avg_pool2d": lambda t, c: _square_sum(nm.avg_pool2d(t, 2)),
    "concat": lambda t, c: _square_sum(nm.concat([t, c], axis=0)),
    "split": lambda t, c: (nm.split(t, [1, t.shape[0] - 1], axis=0)[1] * 2.0).sum(),
    "transpose": lambda t, c: (t.transpose(1, 0) * c.transpose(1, 0)).sum(),
    "reshape": lambda t, c: _square_sum(t.reshape(t.size)),
}


def criterion_01_autodiff_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    errs = {}
    for name, f in GRAD_CASES.items():
        for _ in range(20):
            x = rng.standard_normal((4, 6))
            c = np.abs(rng.standard_normal((4, 6))) + 1.0
            ct = Tensor(c, "f64")

            ad = autodiff_grad(lambda t: f(t, ct), [x], 0)
            fd = finite_diff_grad(lambda a: f(Tensor(a, "f64"), ct).item(), [x], 0)
            errs[name] = max(errs.get(name, 0.0), rel_err(ad, fd))

    # ops with structural input constraints, their own 20 points each
    for _ in range(20):
        table = rng.standard_normal((7, 5))
        ids = rng.integers(0, 7, size=6)
        ad = autodiff_grad(lambda t: _square_sum(nm.embedding(t, ids)), [table], 0)
        fd = finite_diff_grad(lambda a: float((a[ids] ** 2).sum()), [table], 0)
        errs["embedding"] = max(errs.get("embedding", 0.0), rel_err(ad, fd))

        x = rng.standard_normal((3, 8))
        theta = rng.standard_normal((3, 4))
        cos = np.repeat(np.cos(theta), 2, axis=-1)
        sin = np.repeat(np.sin(theta), 2, axis=-1)
        ad = autodiff_grad(lambda t: _cube_sum(apply_rotary(t, cos, sin)), [x], 0)

        def np_rot(a):
            ar = a.reshape(3, 4, 2)
            rot = np.stack([-ar[..., 1], ar[..., 0]], axis=-1).reshape(3, 8)
            return float(((a * cos + rot * sin) ** 3).sum())

        fd = finite_diff_grad(np_rot, [x], 0)
        errs["apply_rotary"] = max(errs.get("apply_rotary", 0.0), rel_err(ad, fd))

    elapsed = time.perf_counter() - started
    worst_op = max(errs, key=errs.get)
    ok = errs[worst_op] < 1e-5 and elapsed < 30.0
    return ok, (f"{len(errs)} ops x 20 points, worst rel err {errs[worst_op]:.2e} "
                f"({worst_op}), {elapsed:.1f}s")


# -- 2. dynamic-FFN identity --------------------------------------------------


def criterion_02_dynamic_ffn_identity():
    started = time.perf_counter()
    report = ffn_equivalence_suite(trials=100, seed=7)
    rng = np.random.default_rng(0)
    widths_ok = True
    for l_text in (1, 3, 9):
        y = Tensor(rng.standard_normal((l_text, 8)), "f64")
        w = Tensor(rng.standard_normal((8, 8)), "f64")
        w1, w2 = dynamic_ffn_weights(y, w, w, w)
        widths_ok &= w1.shape[1] == l_text and w2.shape[0] == l_text
    elapsed = time.perf_counter() - started
    dev = report["max_abs_deviation"]
    ok = dev < 1e-9 and widths_ok and elapsed < 10.0
    return ok, (f"100 trials, max abs dev {dev:.2e}, hidden width = text length "
                f"{widths_ok}, {elapsed:.1f}s")


# -- 3. M-RoPE ------------------------------------------------------------------


def criterion_03_mrope_isometry_and_relativity():
    rng = np.random.default_rng(3)
    split = (8, 4, 4)
    x = Tensor(rng.standard_normal((40, 4, 16)), "f64")
    coords = rng.integers(0, 64, size=(40, 3))
    out = apply_mrope(x, rope_tables(coords, split))
    iso_dev = float(
        np.abs(np.linalg.norm(out.data, axis=-1) - np.linalg.norm(x.data, axis=-1)).max()
    )

    q, k = rng.standard_normal(16), rng.standard_normal(16)

    def ip(c1, c2):
        cos1, sin1 = rope_tables(c1[None, :], split)
        cos2, sin2 = rope_tables(c2[None, :], split)
        a = apply_rotary(Tensor(q[None, :], "f64"), cos1, sin1).data[0]
        b = apply_rotary(Tensor(k[None, :], "f64"), cos2, sin2).data[0]
        return float(a @ b)

    rel_dev = 0.0
    for _ in range(50):
        ca, cb = rng.integers(0, 32, 3), rng.integers(0, 32, 3)
        shift = rng.integers(0, 16, 3)
        rel_dev = max(rel_dev, abs(ip(ca, cb) - ip(ca + shift, cb + shift)))
    ok = iso_dev < 1e-5 and rel_dev < 1e-5
    return ok, f"isometry dev {iso_dev:.2e}, relative-position dev {rel_dev:.2e} over 50 shifts"


# -- 4. identity at init ------------------------------------------------------


def criterion_04_identity_at_init():
    rng = np.random.default_rng(4)
    cfg = ModelConfig()
    store = init_params(cfg, seed=11)
    x = Tensor(rng.standard_normal((70, cfg.dim)).astype(np.float32))
    rope = rope_tables(assign_coords(6, 8, 8), cfg.axes_split, dtype=np.float32,
                       base=cfg.rope_base)
    t_emb = timestep_embedding(0.37, store)
    prefixes = [f"img_proc.{i}" for i in range(cfg.image_processor_layers)] + [
        f"blocks.{i}" for i in range(cfg.layers)
    ]
    moved = []
    for prefix in prefixes:
        out = block_batch(x.reshape(1, *x.shape), rope, store, prefix,
                          t_emb.reshape(1, cfg.dim)).reshape(x.shape)
        if not (out.data == x.data).all():
            moved.append(prefix)
    if moved:
        return False, f"not an exact identity: {', '.join(moved)}"
    return True, f"{len(prefixes)} freshly initialized conditioned blocks are exact identities"


# -- 5. CFG algebra -------------------------------------------------------------


def criterion_05_cfg_algebra():
    rng = np.random.default_rng(5)
    v_u = rng.standard_normal((3, 16, 16))
    v_c = rng.standard_normal((3, 16, 16))

    w1_exact = (cfg_combine(v_u, v_c, GuidanceConfig(w=1.0, trunc_alpha=1.0), 0.2) == v_c).all()
    w0_exact = (cfg_combine(v_u, None, GuidanceConfig(w=0.0, trunc_alpha=1.0), 0.2) == v_u).all()
    ren = cfg_combine(v_u, v_c, GuidanceConfig(w=6.0, renorm=True, trunc_alpha=1.0), 0.2)
    norm_dev = abs(np.linalg.norm(ren) - np.linalg.norm(v_c)) / np.linalg.norm(v_c)
    trunc = cfg_combine(v_u, None, GuidanceConfig(w=6.0, trunc_alpha=0.6), 0.75)
    trunc_exact = (trunc == v_u).all()

    # the conditional branch is truly never evaluated outside the window
    cfg = ModelConfig(
        dim=16, heads=2, kv_heads=1, layers=1, text_processor_layers=1,
        image_processor_layers=1, vocab_size=16, axes_split=(4, 2, 2),
    )
    store = init_params(cfg, seed=0)
    _, rep = sample(store, [1, 2], GuidanceConfig(w=5.0, trunc_alpha=0.0),
                    SamplerConfig(steps=8), 0, resolution=8)
    ok = (w1_exact and w0_exact and norm_dev < 1e-6 and trunc_exact
          and rep.conditional == 0 and rep.unconditional == 8)
    return ok, (f"w=1 exact {w1_exact}, w=0 exact {w0_exact}, renorm norm dev "
                f"{norm_dev:.2e}, truncated exact {trunc_exact}, truncated cond evals "
                f"{rep.conditional} of {rep.total}")


# -- 6. CFG-Trunc acceleration, NFE half -------------------------------------------


def criterion_06_cfg_trunc_nfe():
    # NFE counts depend only on the step grid and alpha, not on the resolution;
    # the wall-time half in the test file samples the same model at 32 px
    store = init_params(ModelConfig(), seed=6)
    sc = SamplerConfig(solver="euler", steps=20)
    full, trunc = (
        sample(store, [8, 9, 10, 11], GuidanceConfig(w=4.0, trunc_alpha=alpha), sc,
               seed=1, resolution=8)[1]
        for alpha in (1.0, 0.6)
    )
    ok = (full.total == 40 and trunc.total == 32
          and trunc.conditional == 12 and trunc.unconditional == 20)
    return ok, (f"NFE {trunc.total} vs {full.total}, truncated {trunc.conditional} "
                f"conditional + {trunc.unconditional} unconditional")


# -- 7. solver orders -----------------------------------------------------------


def gaussian_flow_field(mu, gamma):
    """Marginal velocity field of the straight flow from N(0,I) to N(mu, gamma^2 I).

    Closed-form trajectories: x(t) = t*mu + sigma_t * x0 with
    sigma_t = sqrt((1-t)^2 + (t*gamma)^2).
    """

    def field(x, t):
        s2 = (1.0 - t) ** 2 + (t * gamma) ** 2
        return mu + ((t * gamma * gamma - (1.0 - t)) / s2) * (x - t * mu)

    def exact(x0, t):
        return t * mu + math.sqrt((1.0 - t) ** 2 + (t * gamma) ** 2) * x0

    return field, exact


def integrate(solver, field, x, steps):
    """Run ``STEPS[solver]`` from t = 0 to 1 over a uniform grid of ``steps``."""
    grid = np.linspace(0.0, 1.0, steps + 1)
    history = []
    for t, t_next in zip(grid[:-1], grid[1:]):
        x, _ = STEPS[solver](x, float(t), float(t_next), field, history)
    return x


def growth_err(solver, n):
    """Error at t = 1 of ``n`` steps on x' = x from x(0) = 1 (exactly e)."""
    return abs(float(integrate(solver, lambda y, t: y, np.array([1.0]), n)[0]) - math.e)


def criterion_07_solver_orders():
    started = time.perf_counter()
    euler_ratio = growth_err("euler", 64) / growth_err("euler", 128)
    mid_ratio = growth_err("midpoint", 32) / growth_err("midpoint", 64)

    field, exact = gaussian_flow_field(mu=2.0, gamma=0.3)
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(64)
    truth = exact(x0, 1.0)
    err_e = np.abs(integrate("euler", field, x0, 50) - truth).max()
    err_f = np.abs(integrate("fdpm", field, x0, 16) - truth).max()
    elapsed = time.perf_counter() - started
    ok = (1.6 <= euler_ratio <= 2.4 and 3.2 <= mid_ratio <= 4.8 and err_f <= err_e
          and elapsed < 60.0)
    return ok, (f"euler ratio {euler_ratio:.2f}, midpoint ratio {mid_ratio:.2f}, "
                f"fdpm16 {err_f:.2e} <= euler50 {err_e:.2e}")


# -- 8. TeaCache contract ---------------------------------------------------------


def criterion_08_teacache_contract():
    cfg = ModelConfig(
        dim=32, heads=4, kv_heads=2, layers=2, text_processor_layers=1,
        image_processor_layers=1, vocab_size=64, axes_split=(4, 2, 2),
    )
    # briefly trained so velocities are nonzero and skipping shows real error
    ds = build_hierarchical_dataset(300, tier_fractions=(0.8, 0.1, 0.05), seed=8)
    state = fresh_state(cfg, seed=8)
    run_stage(state, StagePlan(name="warm", resolution=16, tier=1, steps=30,
                               batch_size=4, warmup_steps=10), ds.tier(1))
    store = state.params
    g = GuidanceConfig(w=3.0, trunc_alpha=0.6)
    tokens = [1, 2, 3]

    def run(delta):
        sc = SamplerConfig(solver="euler", steps=12, teacache_delta=delta)
        return sample(store, tokens, g, sc, seed=3, resolution=16)

    base, _ = run(None)
    results = {delta: run(delta) for delta in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6)}
    img0, rep0 = results[0.0]
    noop = bool((base.data == img0.data).all()) and rep0.skipped == 0
    skips = [rep.skipped for _, rep in results.values()]
    monotone = skips == sorted(skips)
    # the smallest delta in the sweep that saves at least 15% of the evaluations
    chosen = next(
        (delta for delta, (_, rep) in results.items()
         if rep.skipped / (rep.total + rep.skipped) >= 0.15),
        None,
    )
    if chosen is None:
        return False, f"no delta in the sweep reached a 15% NFE reduction, skips {skips}"
    img, rep = results[chosen]
    mse = float(((img.data - base.data) ** 2).mean())
    ok = noop and monotone and math.isfinite(mse)
    return ok, (f"delta=0 bit-identical {noop}, skips {skips}, smallest delta {chosen} "
                f"saves {rep.skipped}/{rep.total + rep.skipped} evals, mse {mse:.3e}")


# -- 9. auxiliary-loss nullspace ---------------------------------------------------


def criterion_09_aux_loss_nullspace():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((3, 16, 16))
    v = rng.standard_normal((3, 16, 16))
    base = aux_loss(Tensor(v, "f64"), Tensor(u, "f64"), 4).item()
    worst = 0.0
    for _ in range(25):
        pert = rng.standard_normal((3, 16, 16)) * rng.uniform(0.1, 10.0)
        blocks = pert.reshape(3, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4)
        blocks = blocks - blocks.mean(axis=(-2, -1), keepdims=True)
        pert = blocks.transpose(0, 1, 3, 2, 4).reshape(3, 16, 16)
        shifted = aux_loss(Tensor(v + pert, "f64"), Tensor(u, "f64"), 4).item()
        worst = max(worst, abs(shifted - base))
    return worst < 1e-6, (f"25 random per-block zero-mean perturbations, "
                          f"max loss change {worst:.2e}")


# -- 12. determinism and resumability -----------------------------------------------


def criterion_12_determinism_and_resumability():
    cfg = ModelConfig(
        dim=64, heads=4, kv_heads=2, layers=2, text_processor_layers=1,
        image_processor_layers=1, vocab_size=64, axes_split=(8, 4, 4),
    )
    scenes = build_hierarchical_dataset(500, tier_fractions=(0.8, 0.1, 0.02), seed=12).tier(1)

    def plan(name, steps):
        return StagePlan(name=name, resolution=16, tier=1, steps=steps, batch_size=4,
                         warmup_steps=3)

    seqs = [run_stage(fresh_state(cfg, seed=99), plan("low_res", 6), scenes)
            for _ in range(2)]
    repeatable = seqs[0] == seqs[1]

    # mid-stage checkpoint: 3 steps, save, resume 5 more == uninterrupted 3+5
    state_a = fresh_state(cfg, seed=99)
    run_stage(state_a, plan("low_res", 3), scenes)
    follow_a = run_stage(state_a, plan("x", 5), scenes)

    state_b = fresh_state(cfg, seed=99)
    run_stage(state_b, plan("low_res", 3), scenes)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mid.lmck")
        save_state(path, state_b)
        resumed = load_state(path)
    follow_b = run_stage(resumed, plan("x", 5), scenes)
    resume_exact = follow_a == follow_b
    return repeatable and resume_exact, (
        f"two seeded runs identical over 6 steps {repeatable}; "
        f"resume bit-exact over 5 {resume_exact}"
    )


# -- invariants with no acceptance test of their own -------------------------------


def softmax_rows_sum_to_one():
    rng = np.random.default_rng(2024)
    sm = nm.softmax_lastdim(Tensor(rng.standard_normal((5, 7)), "f64"))
    dev = float(np.abs(sm.data.sum(-1) - 1).max())
    return dev < 1e-6, f"dev {dev:.2e}"


def x0_prediction_identity():
    rng = np.random.default_rng(2024)
    xc, ep = rng.standard_normal(6), rng.standard_normal(6)
    worst = max(
        float(np.abs(x0_prediction(t * xc + (1 - t) * ep, xc - ep, t) - xc).max())
        for t in (0.0, 0.4, 0.9)
    )
    return worst < 1e-12, f"dev {worst:.2e}"


def checkpoint_bad_magic_rejected():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "junk.lmck")
        with open(path, "wb") as f:
            f.write(b"BAD!" + b"\x00" * 8)
        try:
            load_checkpoint(path)
        except CheckpointError:
            return True, "CheckpointError raised"
    return False, "no error raised"


SELFCHECK_ONLY = (softmax_rows_sum_to_one, x0_prediction_identity, checkpoint_bad_magic_rejected)

CHECKS = {
    f.__name__: f
    for f in (
        criterion_01_autodiff_soundness,
        criterion_02_dynamic_ffn_identity,
        criterion_03_mrope_isometry_and_relativity,
        criterion_04_identity_at_init,
        criterion_05_cfg_algebra,
        criterion_06_cfg_trunc_nfe,
        criterion_07_solver_orders,
        criterion_08_teacache_contract,
        criterion_09_aux_loss_nullspace,
        criterion_12_determinism_and_resumability,
    )
    + SELFCHECK_ONLY
}


def run_selfcheck(verbose: bool = True) -> list:
    """Run every entry of ``CHECKS`` in order; returns [(name, ok, detail)].

    A check that raises counts as failed, with the exception as its detail.
    Prints one line per check when verbose.
    """
    results = []
    for name, check in CHECKS.items():
        started = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as e:  # a broken invariant is a failed check, not a crash
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        results.append((name, bool(ok), detail))
        if verbose:
            elapsed = time.perf_counter() - started
            print(f"  {'PASS' if ok else 'FAIL'}  {name:44s} {elapsed:5.2f}s  {detail}")
    return results
