import json
import math

import numpy as np
import pytest

from conftest import live_params
from lumina_mini.errors import ConfigError, UsageError
from lumina_mini.model import ModelConfig, init_params
from lumina_mini.sampler import (
    STEPS,
    CacheState,
    GuidanceConfig,
    SamplerConfig,
    cfg_combine,
    eval_times,
    sample,
    sample_batch,
    teacache_gate,
    write_ppm,
    x0_prediction,
)
from lumina_mini.selfcheck import gaussian_flow_field, growth_err, integrate


def micro_config():
    return ModelConfig(
        dim=16,
        heads=2,
        kv_heads=1,
        layers=1,
        text_processor_layers=1,
        image_processor_layers=1,
        patch_size=2,
        vocab_size=8,
        axes_split=(4, 2, 2),
    )


def micro_store(seed=0):
    return init_params(micro_config(), seed=seed)


class TestGuidanceConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GuidanceConfig(w=-1.0)
        with pytest.raises(ConfigError):
            GuidanceConfig(trunc_alpha=1.5)

    def test_sampler_config_validation(self):
        with pytest.raises(ConfigError):
            SamplerConfig(solver="rk4")
        with pytest.raises(ConfigError):
            SamplerConfig(steps=0)
        with pytest.raises(ConfigError):
            SamplerConfig(time_grid=[0.0, 0.5, 0.4, 1.0]).grid()


class TestCfgCombine:
    def test_w1_is_exactly_conditional(self, rng):
        v_u = rng.standard_normal((3, 4, 4))
        v_c = rng.standard_normal((3, 4, 4))
        g = GuidanceConfig(w=1.0, renorm=False, trunc_alpha=1.0)
        out = cfg_combine(v_u, v_c, g, 0.2)
        assert (out == v_c).all()

    def test_w0_is_exactly_unconditional(self, rng):
        v_u = rng.standard_normal((3, 4, 4))
        g = GuidanceConfig(w=0.0, trunc_alpha=1.0)
        out = cfg_combine(v_u, None, g, 0.2)
        assert (out == v_u).all()

    def test_renorm_output_norm_equals_conditional(self, rng):
        v_u = rng.standard_normal((3, 8, 8))
        v_c = rng.standard_normal((3, 8, 8))
        g = GuidanceConfig(w=6.0, renorm=True, trunc_alpha=1.0)
        out = cfg_combine(v_u, v_c, g, 0.1)
        assert abs(np.linalg.norm(out) - np.linalg.norm(v_c)) < 1e-6 * np.linalg.norm(v_c)

    def test_truncated_step_returns_unconditional(self, rng):
        v_u = rng.standard_normal((3, 4, 4))
        g = GuidanceConfig(w=6.0, trunc_alpha=0.6)
        out = cfg_combine(v_u, None, g, 0.7)
        assert (out == v_u).all()

    def test_active_window_requires_conditional(self, rng):
        g = GuidanceConfig(w=2.0, trunc_alpha=0.6)
        with pytest.raises(UsageError):
            cfg_combine(rng.standard_normal((2, 2)), None, g, 0.1)

    def test_per_token_renorm_scope(self, rng):
        v_u = rng.standard_normal((3, 4, 4))
        v_c = rng.standard_normal((3, 4, 4))
        g = GuidanceConfig(w=5.0, renorm=True, trunc_alpha=1.0, renorm_scope="token")
        out = cfg_combine(v_u, v_c, g, 0.0)
        np.testing.assert_allclose(
            np.sqrt((out**2).sum(0)), np.sqrt((v_c**2).sum(0)), rtol=1e-6
        )


class TestSolverSteps:
    def test_euler_zero_velocity(self, rng):
        x = rng.standard_normal((3, 4, 4))
        out, _ = STEPS["euler"](x, 0.0, 0.1, lambda y, t: np.zeros_like(y), [])
        assert (out == x).all()

    def test_euler_constant_field_exact(self, rng):
        x0 = rng.standard_normal(8)
        u = rng.standard_normal(8)
        np.testing.assert_allclose(integrate("euler", lambda y, t: u, x0, 10), x0 + u, rtol=1e-12)

    @pytest.mark.parametrize("solver", list(STEPS))
    def test_rejects_nonpositive_dt(self, solver):
        with pytest.raises(UsageError):
            STEPS[solver](np.zeros(3), 0.5, 0.5, lambda y, t: y, [])

    def test_euler_first_order_on_exponential(self):
        # v(x,t) = x has closed form x0 * e^t; halving dt halves the error.
        ratio = growth_err("euler", 64) / growth_err("euler", 128)
        assert 1.6 < ratio < 2.4

    def test_midpoint_constant_field_matches_euler(self, rng):
        x = rng.standard_normal(5)
        u = rng.standard_normal(5)
        out, _ = STEPS["midpoint"](x, 0.0, 0.25, lambda y, t: u, [])
        euler, _ = STEPS["euler"](x, 0.0, 0.25, lambda y, t: u, [])
        np.testing.assert_allclose(out, euler, rtol=1e-12)

    def test_midpoint_second_order_on_exponential(self):
        ratio = growth_err("midpoint", 32) / growth_err("midpoint", 64)
        assert 3.2 < ratio < 4.8

    def test_midpoint_two_evals_per_step(self):
        calls = []

        def field(y, t):
            calls.append(t)
            return y

        STEPS["midpoint"](np.ones(2), 0.0, 0.5, field, [])
        assert len(calls) == 2

    @pytest.mark.parametrize("solver", list(STEPS))
    def test_eval_times_are_the_field_calls(self, solver):
        # eval_times is what a TeaCache hold counts as skipped; v is the
        # velocity the hold reuses: the last one the step evaluated
        calls = []

        def field(y, t):
            calls.append(t)
            return np.full_like(y, t)

        _, v = STEPS[solver](np.ones(2), 0.2, 0.6, field, [])
        assert calls == eval_times(solver, 0.2, 0.6)
        assert (v == calls[-1]).all()


class TestFdpm:
    def test_history_keeps_latest_two(self, rng):
        history = []
        x = rng.standard_normal(4)
        for t, t_next in ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75)):
            x, _ = STEPS["fdpm"](x, t, t_next, lambda y, s: -y, history)
        assert [rec.t for rec in history] == [0.25, 0.5]

    def test_x0_recovery_identity(self, rng):
        # exact v = x - eps recovers the clean sample at every t
        x_clean = rng.standard_normal((3, 4))
        eps = rng.standard_normal((3, 4))
        for t in (0.0, 0.3, 0.7, 0.99):
            x_t = t * x_clean + (1 - t) * eps
            v = x_clean - eps
            np.testing.assert_allclose(x0_prediction(x_t, v, t), x_clean, atol=1e-12)

    def test_first_step_is_first_order(self, rng):
        # with an empty history the update must match Euler on the same velocity
        x = rng.standard_normal(6)
        v = rng.standard_normal(6)
        out, _ = STEPS["fdpm"](x, 0.0, 0.25, lambda y, t: v, [])
        np.testing.assert_allclose(out, x + 0.25 * v, atol=1e-12)

    def test_16_step_fdpm_beats_50_step_euler(self, rng):
        field, exact = gaussian_flow_field(mu=2.0, gamma=0.3)
        x0 = rng.standard_normal(64)
        truth = exact(x0, 1.0)
        err_euler = np.abs(integrate("euler", field, x0, 50) - truth).max()
        err_fdpm = np.abs(integrate("fdpm", field, x0, 16) - truth).max()
        assert err_fdpm <= err_euler


class TestTeaCacheGate:
    def test_first_call_computes(self):
        state = CacheState()
        assert teacache_gate(state, np.ones(4), 10.0) == "compute"

    def test_delta_zero_never_skips(self, rng):
        state = CacheState()
        for i in range(10):
            sig = rng.standard_normal(8)
            assert teacache_gate(state, sig, 0.0) == "compute"

    def test_delta_inf_computes_once(self, rng):
        state = CacheState()
        decisions = [teacache_gate(state, rng.standard_normal(8), math.inf) for _ in range(8)]
        assert decisions[0] == "compute"
        assert all(d == "skip" for d in decisions[1:])

    def test_skip_count_monotone_in_delta(self, rng):
        signals = [rng.standard_normal(16) for _ in range(30)]
        skips = []
        for delta in (0.0, 0.05, 0.1, 0.5, 2.0, math.inf):
            state = CacheState()
            n = sum(1 for s in signals if teacache_gate(state, s, delta) == "skip")
            skips.append(n)
        assert skips == sorted(skips)


class TestSampleOrchestration:
    def test_nfe_counts_with_truncation(self):
        store = micro_store()
        g = GuidanceConfig(w=4.0, trunc_alpha=0.6)
        sc = SamplerConfig(solver="euler", steps=20)
        _, report = sample(store, [1, 2], g, sc, seed=0, resolution=8)
        assert report.unconditional == 20
        assert report.conditional == 12  # t = 0, 0.05, ..., 0.55
        assert report.total == 32

    def test_untruncated_nfe(self):
        store = micro_store()
        g = GuidanceConfig(w=4.0, trunc_alpha=1.0)
        sc = SamplerConfig(solver="euler", steps=20)
        _, report = sample(store, [1, 2], g, sc, seed=0, resolution=8)
        assert report.total == 40

    def test_w0_never_evaluates_conditional(self):
        store = micro_store()
        g = GuidanceConfig(w=0.0, trunc_alpha=1.0)
        sc = SamplerConfig(solver="euler", steps=5)
        _, report = sample(store, [1, 2], g, sc, seed=0, resolution=8)
        assert report.conditional == 0

    def test_truncation_keeps_unconditional_count(self):
        store = micro_store()
        sc = SamplerConfig(solver="euler", steps=10)
        reports = []
        for alpha in (1.0, 0.5, 0.0):
            _, r = sample(
                store, [1], GuidanceConfig(w=3.0, trunc_alpha=alpha), sc, 0, resolution=8
            )
            reports.append(r)
        assert all(r.unconditional == 10 for r in reports)
        assert reports[0].conditional > reports[1].conditional > reports[2].conditional

    def test_fixed_seed_bit_identical(self):
        store = micro_store()
        g = GuidanceConfig(w=2.0, trunc_alpha=0.6)
        sc = SamplerConfig(solver="euler", steps=4)
        img1, _ = sample(store, [1, 2], g, sc, seed=7, resolution=8)
        img2, _ = sample(store, [1, 2], g, sc, seed=7, resolution=8)
        assert (img1.data == img2.data).all()

    def test_midpoint_nfe_accounting(self):
        store = micro_store()
        g = GuidanceConfig(w=0.0)
        sc = SamplerConfig(solver="midpoint", steps=6)
        _, report = sample(store, [1], g, sc, seed=0, resolution=8)
        assert report.unconditional == 12  # 2 per step

    def test_fdpm_nfe_accounting(self):
        store = micro_store()
        g = GuidanceConfig(w=0.0)
        sc = SamplerConfig(solver="fdpm", steps=6)
        _, report = sample(store, [1], g, sc, seed=0, resolution=8)
        assert report.unconditional == 6  # 1 per step

    def test_teacache_delta_zero_bit_identical(self):
        store = micro_store()
        g = GuidanceConfig(w=2.0, trunc_alpha=0.6)
        base, r0 = sample(
            store, [1, 2], g, SamplerConfig(solver="euler", steps=6), 0, resolution=8
        )
        cached, r1 = sample(
            store,
            [1, 2],
            g,
            SamplerConfig(solver="euler", steps=6, teacache_delta=0.0),
            0,
            resolution=8,
        )
        assert (base.data == cached.data).all()
        assert r1.skipped == 0 and r1.total == r0.total

    def test_teacache_skips_reduce_nfe(self):
        store = micro_store()
        g = GuidanceConfig(w=2.0, trunc_alpha=1.0)
        sc = SamplerConfig(solver="euler", steps=8, teacache_delta=math.inf)
        _, report = sample(store, [1], g, sc, seed=0, resolution=8)
        assert report.skipped == 14  # only step 0 computes: 7 steps x 2 branches
        assert report.total == 2

    def test_strategy_composability_all_16_combinations(self):
        store = micro_store()
        for renorm in (False, True):
            for trunc in (1.0, 0.6):
                for solver in ("euler", "fdpm"):
                    for delta in (None, 0.2):
                        g = GuidanceConfig(w=3.0, renorm=renorm, trunc_alpha=trunc)
                        sc = SamplerConfig(solver=solver, steps=4, teacache_delta=delta)
                        img, report = sample(store, [1, 2], g, sc, 1, resolution=8)
                        assert np.isfinite(img.data).all()
                        assert report.total + report.skipped > 0

    def test_nfe_json_fields(self):
        store = micro_store()
        _, report = sample(
            store, [1], GuidanceConfig(w=1.0), SamplerConfig(steps=2), 0, resolution=8
        )
        parsed = json.loads(report.to_json())
        assert parsed["total"] == parsed["conditional"] + parsed["unconditional"]
        assert "wall_ms" in parsed and "skipped" in parsed


class TestSampleBatch:
    PROMPTS = [[1, 2, 3, 0], [4, 5, 6, 0], [7, 1, 2, 3]]
    SEEDS = [3, 4, 5]
    UNCOND = [1, 2, 0, 0]

    @pytest.mark.parametrize(
        "guidance, sconf",
        [
            (GuidanceConfig(w=3.0, renorm=True, trunc_alpha=0.6),
             SamplerConfig(solver="euler", steps=6)),
            (GuidanceConfig(w=3.0, renorm=True, renorm_scope="token", trunc_alpha=0.6),
             SamplerConfig(solver="fdpm", steps=6, teacache_delta=0.8)),
            (GuidanceConfig(w=3.0, trunc_alpha=1.0),
             SamplerConfig(solver="midpoint", steps=6, teacache_delta=0.8)),
        ],
        ids=["euler-renorm", "fdpm-token-renorm-teacache", "midpoint-teacache"],
    )
    def test_rows_match_single_sample(self, guidance, sconf):
        store = live_params(micro_config())
        images, report = sample_batch(store, self.PROMPTS, guidance, sconf, self.SEEDS,
                                      resolution=8, uncond_tokens=self.UNCOND)
        counts = (report.conditional, report.unconditional, report.skipped)
        for tokens, seed, image in zip(self.PROMPTS, self.SEEDS, images):
            one, one_report = sample(store, tokens, guidance, sconf, seed, resolution=8,
                                     uncond_tokens=self.UNCOND)
            np.testing.assert_allclose(image.data, one.data, rtol=0, atol=1e-5)
            assert (one_report.conditional, one_report.unconditional,
                    one_report.skipped) == counts
        if sconf.teacache_delta is not None:
            assert 0 < report.skipped < report.total + report.skipped

    def test_seed_count_must_match_prompts(self):
        store = micro_store()
        with pytest.raises(UsageError):
            sample_batch(store, self.PROMPTS, GuidanceConfig(w=2.0), SamplerConfig(steps=2),
                         self.SEEDS[:2], resolution=8, uncond_tokens=self.UNCOND)


def test_write_ppm(tmp_path, rng):
    from lumina_mini.numerics import Tensor

    img = Tensor(rng.uniform(-1, 1, size=(3, 4, 6)).astype(np.float32))
    path = tmp_path / "out.ppm"
    write_ppm(path, img)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n6 4\n255\n")
    assert len(raw) == len(b"P6\n6 4\n255\n") + 4 * 6 * 3


def test_custom_time_grid_used():
    store = micro_store()
    g = GuidanceConfig(w=0.0)
    sc = SamplerConfig(solver="euler", steps=3, time_grid=[0.0, 0.5, 0.9, 1.0])
    img, report = sample(store, [1], g, sc, seed=0, resolution=8)
    assert report.unconditional == 3
    assert np.isfinite(img.data).all()
