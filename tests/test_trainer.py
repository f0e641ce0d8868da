import numpy as np
import pytest

from lumina_mini.errors import CheckpointError, ConfigError, UsageError
from lumina_mini.model import ModelConfig, save_checkpoint
from lumina_mini.numerics import Tensor
from lumina_mini.synthdata import build_hierarchical_dataset, build_vocabulary
from lumina_mini.trainer import (
    MetricsLog,
    StagePlan,
    clip_grad_norm,
    fresh_state,
    load_state,
    run_pipeline,
    run_stage,
    save_state,
    transfer_checkpoint,
)


def small_config():
    return ModelConfig(
        dim=32,
        heads=4,
        kv_heads=2,
        layers=1,
        text_processor_layers=1,
        image_processor_layers=1,
        patch_size=2,
        vocab_size=64,
        axes_split=(4, 2, 2),
    )


@pytest.fixture(scope="module")
def tiny_dataset():
    return build_hierarchical_dataset(300, tier_fractions=(0.8, 0.1, 0.05), seed=11)


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary()


def quick_plan(**kw):
    base = dict(name="low_res", resolution=16, tier=1, steps=3, batch_size=2, warmup_steps=2)
    base.update(kw)
    return StagePlan(**base)


class TestRunStage:
    def test_zero_step_stage_only_bumps_stage_index(self, tiny_dataset, vocab):
        state = fresh_state(small_config(), seed=0)
        before = {name: t.data.copy() for name, t in state.params.items()}
        losses = run_stage(state, quick_plan(steps=0), tiny_dataset.tier(1), vocab)
        assert losses == [] and state.stage_index == 0
        for name, t in state.params.items():
            assert (t.data == before[name]).all()

    def test_fixed_seed_bit_identical_losses(self, tiny_dataset, vocab):
        runs = []
        for _ in range(2):
            state = fresh_state(small_config(), seed=3)
            runs.append(run_stage(state, quick_plan(steps=4), tiny_dataset.tier(1), vocab))
        assert runs[0] == runs[1]

    def test_losses_finite_and_parameters_move(self, tiny_dataset, vocab):
        state = fresh_state(small_config(), seed=4)
        before = state.params["blocks.0.attn.wq"].data.copy()
        losses = run_stage(state, quick_plan(steps=3), tiny_dataset.tier(1), vocab)
        assert all(np.isfinite(l) for l in losses)
        assert not (state.params["blocks.0.attn.wq"].data == before).all()

    def test_aux_loss_used_when_requested(self, tiny_dataset, vocab, tmp_path):
        state = fresh_state(small_config(), seed=5)
        metrics = MetricsLog(tmp_path / "m.csv")
        run_stage(
            state,
            quick_plan(steps=2, lambda_aux=1.0),
            tiny_dataset.tier(1),
            vocab,
            metrics=metrics,
        )
        assert all(r.aux_loss > 0 for r in metrics.rows)

    def test_bad_resolution_rejected(self, tiny_dataset, vocab):
        state = fresh_state(small_config(), seed=6)
        with pytest.raises(ConfigError):
            run_stage(state, quick_plan(resolution=15), tiny_dataset.tier(1), vocab)


class TestClipGradNorm:
    def test_scales_to_max_norm(self):
        store = fresh_state(small_config(), seed=2).params
        store.grad[...] = 1.0
        norm = clip_grad_norm(store, 0.5)
        assert norm == pytest.approx(np.sqrt(store.grad.size))
        assert np.sqrt(np.square(store.grad, dtype=np.float64).sum()) == pytest.approx(0.5)

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, float("nan")])
    def test_nonpositive_max_norm_rejected(self, max_norm):
        store = fresh_state(small_config(), seed=2).params
        store.grad[...] = 1.0
        with pytest.raises(UsageError, match="max_norm"):
            clip_grad_norm(store, max_norm)
        assert np.all(store.grad == 1.0)


class TestTransfer:
    def test_parameters_bit_identical(self, tiny_dataset, vocab):
        state = fresh_state(small_config(), seed=7)
        run_stage(state, quick_plan(steps=2), tiny_dataset.tier(1), vocab)
        before = {name: t.data.copy() for name, t in state.params.items()}
        transfer_checkpoint(state, 32)
        for name, t in state.params.items():
            assert (t.data == before[name]).all()

    def test_moments_reset(self, tiny_dataset, vocab):
        state = fresh_state(small_config(), seed=8)
        run_stage(state, quick_plan(steps=2), tiny_dataset.tier(1), vocab)
        assert (state.opt.m != 0).any()
        transfer_checkpoint(state, 32)
        assert (state.opt.m == 0).all()
        assert state.opt.t == 0

    def test_forward_works_at_new_resolution(self, tiny_dataset, vocab):
        from lumina_mini.model import forward_batch
        from lumina_mini.numerics import Tensor

        state = fresh_state(small_config(), seed=9)
        run_stage(state, quick_plan(steps=1), tiny_dataset.tier(1), vocab)
        transfer_checkpoint(state, 32)
        img = Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32))
        out = forward_batch([[1, 2]], img, [0.5], state.params)
        assert out.shape == (1, 3, 32, 32)

    def test_indivisible_resolution_rejected(self):
        state = fresh_state(small_config(), seed=10)
        with pytest.raises(ConfigError):
            transfer_checkpoint(state, 17)


class TestResumability:
    def test_save_load_reproduces_losses_bit_exactly(self, tiny_dataset, vocab, tmp_path):
        # uninterrupted: 2 + 4 steps
        state_a = fresh_state(small_config(), seed=12)
        plan = quick_plan(steps=2)
        run_stage(state_a, plan, tiny_dataset.tier(1), vocab)
        follow_a = run_stage(state_a, quick_plan(steps=4), tiny_dataset.tier(1), vocab)

        # interrupted: 2 steps, save, load, 4 steps
        state_b = fresh_state(small_config(), seed=12)
        run_stage(state_b, plan, tiny_dataset.tier(1), vocab)
        path = tmp_path / "mid.lmck"
        save_state(path, state_b)
        resumed = load_state(path)
        follow_b = run_stage(resumed, quick_plan(steps=4), tiny_dataset.tier(1), vocab)

        assert follow_a == follow_b

    def test_state_roundtrip_preserves_counters(self, tiny_dataset, vocab, tmp_path):
        state = fresh_state(small_config(), seed=13)
        run_stage(state, quick_plan(steps=3), tiny_dataset.tier(1), vocab)
        path = tmp_path / "state.lmck"
        save_state(path, state)
        back = load_state(path)
        assert back.params.step == state.params.step
        assert back.stage_index == state.stage_index
        assert back.opt.t == state.opt.t
        assert (back.opt.m == state.opt.m).all()
        assert (back.opt.v == state.opt.v).all()

    @pytest.mark.parametrize("damage", ["missing", "misshapen"])
    def test_bad_moment_entry_rejected(self, tiny_dataset, vocab, tmp_path, damage):
        state = fresh_state(small_config(), seed=16)
        run_stage(state, quick_plan(steps=1), tiny_dataset.tier(1), vocab)
        extra = state.opt.state_tensors()
        if damage == "missing":
            del extra["opt.v.final.proj.b"]
        else:  # one row of a (vocab, dim) moment would broadcast into the slot
            extra["opt.m.tok_emb.w"] = Tensor(extra["opt.m.tok_emb.w"].data[:1])
        path = tmp_path / f"{damage}.lmck"
        save_checkpoint(path, state.params, extra=extra, meta={"opt_t": state.opt.t})
        with pytest.raises(CheckpointError, match="opt"):
            load_state(path)


class TestPipeline:
    def test_three_stage_pipeline(self, tiny_dataset, vocab, tmp_path):
        state = fresh_state(small_config(), seed=14)
        plans = [
            quick_plan(name="low_res", resolution=16, tier=1, steps=2),
            quick_plan(name="high_res", resolution=32, tier=2, steps=2, lambda_aux=1.0),
            quick_plan(name="hq_tune", resolution=32, tier=3, steps=2, lambda_aux=1.0, template="B"),
        ]
        metrics = MetricsLog(tmp_path / "metrics.csv")
        results = run_pipeline(
            state, plans, tiny_dataset.tiers, vocab, metrics=metrics, ckpt_dir=str(tmp_path)
        )
        assert set(results) == {"low_res", "high_res", "hq_tune"}
        assert state.stage_index == 2 and state.params.step == 6

        # three checkpoints with strictly increasing step counters
        from lumina_mini.model import load_checkpoint

        steps = []
        for k, name in enumerate(["low_res", "high_res", "hq_tune"]):
            store, _, meta = load_checkpoint(tmp_path / f"stage{k}_{name}.lmck")
            steps.append(store.step)
        assert steps == sorted(steps) and len(set(steps)) == 3

    def test_metrics_row_count_and_parse(self, tiny_dataset, vocab, tmp_path):
        state = fresh_state(small_config(), seed=15)
        metrics = MetricsLog(tmp_path / "metrics.csv")
        run_stage(state, quick_plan(steps=5), tiny_dataset.tier(1), vocab, metrics=metrics)
        assert len(metrics.rows) == 5
        parsed = MetricsLog.parse(tmp_path / "metrics.csv")
        assert parsed == metrics.rows
        assert all(np.isfinite(r.loss) for r in parsed)


class TestSpecExamples:
    def test_text_conditioning_nondegenerate_after_training(self, tiny_dataset, vocab):
        # after ~120 steps, changing a text token moves the output
        from lumina_mini.model import forward_batch
        from lumina_mini.numerics import Tensor

        state = fresh_state(small_config(), seed=21)
        plan = quick_plan(steps=120, batch_size=4, lr=8e-4, warmup_steps=20)
        run_stage(state, plan, tiny_dataset.tier(1), vocab)
        img = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))
        base = forward_batch([vocab.encode(["red", "circle", "cell_0"])], img, [0.5], state.params)
        alt = forward_batch([vocab.encode(["blue", "circle", "cell_0"])], img, [0.5], state.params)
        delta = float(np.linalg.norm(base.data - alt.data))
        assert delta > 1e-3, f"text conditioning looks degenerate: L2 delta {delta}"

    def test_transfer_loss_finite_and_recovers(self, tiny_dataset, vocab):
        # loss right after a 16->32 transfer is finite and drops with training
        state = fresh_state(small_config(), seed=22)
        run_stage(state, quick_plan(steps=60, batch_size=4, lr=8e-4), tiny_dataset.tier(1), vocab)
        transfer_checkpoint(state, 32)
        plan32 = quick_plan(name="high", resolution=32, steps=90, batch_size=4, lr=8e-4,
                            warmup_steps=10)
        losses = run_stage(state, plan32, tiny_dataset.tier(1), vocab)
        assert all(np.isfinite(l) for l in losses)
        at_transfer = np.mean(losses[:5])
        settled = np.mean(losses[-10:])
        assert settled < at_transfer, f"loss did not recover: {settled:.4f} vs {at_transfer:.4f}"

    def test_stage_monotonicity_median_loss(self, tiny_dataset, vocab):
        state = fresh_state(small_config(), seed=23)
        losses = run_stage(
            state, quick_plan(steps=200, batch_size=4, lr=8e-4, warmup_steps=20),
            tiny_dataset.tier(1), vocab,
        )
        head = np.median(losses[: len(losses) // 10])
        tail = np.median(losses[-len(losses) // 10:])
        assert tail < head

    def test_nan_loss_aborts_with_batch_seed(self, tiny_dataset, vocab):
        from lumina_mini.errors import NanLossError

        state = fresh_state(small_config(), seed=24)
        state.params["blocks.0.attn.wq"].data[0, 0] = np.nan
        with pytest.raises(NanLossError) as exc:
            run_stage(state, quick_plan(steps=1), tiny_dataset.tier(1), vocab)
        assert exc.value.batch_seed is not None

    def test_metrics_sink_failure_surfaces(self, tiny_dataset, vocab, tmp_path):
        bad_path = tmp_path / "missing_dir" / "metrics.csv"
        with pytest.raises(OSError):
            MetricsLog(bad_path)
