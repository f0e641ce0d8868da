"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured value.

The fast, deterministic criteria live in the check catalogue
(``lumina_mini.selfcheck.CHECKS``), which ``lumina-mini selfcheck`` runs as a
whole; each test here runs its catalogue entry. Criterion 6's wall-time half
and the two training criteria (10, 11), which dominate the suite's runtime,
are implemented here only.
"""

import inspect
import time

import numpy as np
import pytest

from lumina_mini.configio import default_config
from lumina_mini.evalharness import adherence_eval, caption_length_experiment
from lumina_mini.model import ModelConfig, init_params
from lumina_mini.sampler import GuidanceConfig, SamplerConfig, sample
from lumina_mini.selfcheck import CHECKS, SELFCHECK_ONLY
from lumina_mini.synthdata import build_hierarchical_dataset
from lumina_mini.trainer import StagePlan, fresh_state, run_pipeline


def announce(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def run_criterion(criterion, name):
    """Run one catalogue entry, assert it holds and print its PASS line."""
    ok, detail = CHECKS[name]()
    assert ok, detail
    announce(criterion, detail)


def test_criterion_01_autodiff_soundness():
    run_criterion(1, "criterion_01_autodiff_soundness")


def test_criterion_02_dynamic_ffn_identity():
    run_criterion(2, "criterion_02_dynamic_ffn_identity")


def test_criterion_03_mrope_isometry_and_relativity():
    run_criterion(3, "criterion_03_mrope_isometry_and_relativity")


def test_criterion_04_identity_at_init():
    run_criterion(4, "criterion_04_identity_at_init")


def test_criterion_05_cfg_algebra():
    run_criterion(5, "criterion_05_cfg_algebra")


# -- 6. CFG-Trunc acceleration ---------------------------------------------------


def test_criterion_06_cfg_trunc_acceleration():
    ok, detail = CHECKS["criterion_06_cfg_trunc_nfe"]()
    assert ok, detail

    store = init_params(ModelConfig(), seed=6)
    sc = SamplerConfig(solver="euler", steps=20)
    tokens = [8, 9, 10, 11]

    # five alternating (full, truncated) pairs, so machine drift hits both
    # arms alike; the median of each arm ignores a stray slow run
    runs = {1.0: [], 0.6: []}
    for _ in range(5):
        for alpha in runs:
            _, rep = sample(store, tokens, GuidanceConfig(w=4.0, trunc_alpha=alpha),
                            sc, seed=1, resolution=32)
            runs[alpha].append(rep)
    for full, trunc in zip(runs[1.0], runs[0.6]):
        assert full.total == 40 and trunc.total == 32
        assert trunc.conditional == 12 and trunc.unconditional == 20
    full_ms = float(np.median([r.wall_ms for r in runs[1.0]]))
    trunc_ms = float(np.median([r.wall_ms for r in runs[0.6]]))
    reduction = 1.0 - trunc_ms / full_ms
    assert reduction >= 0.15, f"wall-time reduction {reduction:.1%}"
    announce(6, f"NFE 32 vs 40 (exact 20%), median wall-time reduction {reduction:.1%}")


# -- 7. solver orders, 8. TeaCache contract, 9. auxiliary-loss nullspace ----------


def test_criterion_07_solver_orders():
    run_criterion(7, "criterion_07_solver_orders")


def test_criterion_08_teacache_contract():
    run_criterion(8, "criterion_08_teacache_contract")


def test_criterion_09_aux_loss_nullspace():
    run_criterion(9, "criterion_09_aux_loss_nullspace")


# -- 10. caption-length convergence ------------------------------------------------


@pytest.mark.slow
def test_criterion_10_caption_length_convergence():
    started = time.perf_counter()
    out = caption_length_experiment(steps=2000, seed=10, batch_size=4, n_scenes=4000)
    tags = out["summary"]["tags"]["final_window_mean"]
    detailed = out["summary"]["detailed"]["final_window_mean"]
    assert out["curves"]["tags"][0] == out["curves"]["detailed"][0]  # shared init
    assert len(out["curves"]["tags"]) == 2000
    assert detailed < tags, (
        f"detailed-caption run should converge lower: {detailed:.4f} vs {tags:.4f}"
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"caption-length experiment took {elapsed:.0f}s"
    announce(
        10,
        f"final-window smoothed loss: detailed {detailed:.4f} < tags {tags:.4f}, "
        f"{elapsed/60:.1f} min",
    )


# -- 11. staged training end to end -------------------------------------------------


# the shipped defaults of the three stages; not tuned here
_DEFAULTS = default_config()
PIPELINE_STEPS = tuple(
    _DEFAULTS[f"stages.{name}"]["steps"] for name in ("low_res", "high_res", "hq_tune")
)
PIPELINE_LR = _DEFAULTS["stages.low_res"]["lr"]


@pytest.mark.slow
def test_criterion_11_staged_training_end_to_end():
    started = time.perf_counter()
    dataset = build_hierarchical_dataset(100_000, seed=7)
    sizes = [len(dataset.tier(k)) for k in (1, 2, 3)]
    assert sizes == [90_000, 9_000, 1_000]

    state = fresh_state(ModelConfig(), seed=0)
    plans = [
        StagePlan(name="low_res", resolution=16, tier=1, steps=PIPELINE_STEPS[0],
                  batch_size=8, lr=PIPELINE_LR, lambda_aux=0.0, template="A"),
        StagePlan(name="high_res", resolution=32, tier=2, steps=PIPELINE_STEPS[1],
                  batch_size=8, lr=PIPELINE_LR, lambda_aux=1.0, template="A"),
        StagePlan(name="hq_tune", resolution=32, tier=3, steps=PIPELINE_STEPS[2],
                  batch_size=8, lr=PIPELINE_LR, lambda_aux=1.0, template="B"),
    ]
    results = run_pipeline(state, plans, dataset.tiers)
    train_s = time.perf_counter() - started

    report = adherence_eval(
        state.params,
        n=500,
        seed=123,
        resolution=32,
        granularity="short",
        template="B",
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 7200.0, f"pipeline took {elapsed:.0f}s"
    assert report.color_acc >= 0.80, f"color accuracy {report.color_acc:.3f} < 0.80"
    assert report.cell_acc >= 0.60, f"cell accuracy {report.cell_acc:.3f} < 0.60"
    assert report.shape_acc >= 0.50, f"shape accuracy {report.shape_acc:.3f} < 0.50"
    announce(
        11,
        f"tiers {sizes}, color {report.color_acc:.3f} shape {report.shape_acc:.3f} "
        f"cell {report.cell_acc:.3f} joint {report.joint_acc:.3f}, "
        f"train {train_s/60:.1f} min, total {elapsed/60:.1f} min",
    )


# -- 12. determinism and resumability -----------------------------------------------


def test_criterion_12_determinism_and_resumability():
    run_criterion(12, "criterion_12_determinism_and_resumability")


def test_every_catalogue_entry_is_run_by_a_criterion_or_selfcheck_only():
    """Each catalogue entry is either named by a test_criterion_NN body or is
    one of the selfcheck-only invariants, never both and never neither."""
    bodies = [inspect.getsource(f) for name, f in globals().items()
              if name.startswith("test_criterion_")]
    only = {f.__name__ for f in SELFCHECK_ONLY}
    for name in CHECKS:
        run_by_test = any(f'"{name}"' in body for body in bodies)
        assert run_by_test != (name in only), name
