import json

import numpy as np
import pytest

from conftest import live_params, raw_store
from lumina_mini.cli import main
from lumina_mini.configio import (
    apply_overrides,
    build_stage_plans,
    default_config,
    format_config,
    parse_config,
)
from lumina_mini.errors import ConfigError
from lumina_mini.model import ModelConfig, init_params, save_checkpoint
from lumina_mini.numerics import load_tensor
from lumina_mini.sampler import GuidanceConfig, SamplerConfig, sample_batch
from lumina_mini.synthdata import (
    apply_system_prompt,
    build_vocabulary,
    pad_prompt,
    unconditional_tokens,
)


TINY_MODEL_OVERRIDES = [
    "model.dim=32",
    "model.heads=4",
    "model.kv_heads=2",
    "model.layers=1",
    "model.text_processor_layers=1",
    "model.image_processor_layers=1",
    "model.axes_split=4,2,2",
    "data.n_total=300",
    "data.tier_fractions=0.8,0.1,0.05",
    "stages.low_res.steps=2",
    "stages.low_res.batch_size=2",
    "stages.high_res.steps=2",
    "stages.high_res.batch_size=2",
    "stages.hq_tune.steps=2",
    "stages.hq_tune.batch_size=2",
]


TINY_MODEL = ModelConfig(
    dim=32,
    heads=4,
    kv_heads=2,
    layers=1,
    text_processor_layers=1,
    image_processor_layers=1,
    vocab_size=64,
    axes_split=(4, 2, 2),
)


def tiny_ckpt(tmp_path, store=None):
    store = init_params(TINY_MODEL, seed=0) if store is None else store
    path = tmp_path / "tiny.lmck"
    save_checkpoint(path, store)
    return path


class TestConfigIO:
    def test_parse_and_override(self):
        cfg = parse_config("[stages.low_res]\nsteps = 7\n")
        assert cfg["stages.low_res"]["steps"] == 7
        apply_overrides(cfg, ["stages.low_res.steps=0"])
        assert cfg["stages.low_res"]["steps"] == 0

    def test_unknown_section_and_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nope]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config("[model]\nnot_a_key = 1\n")

    def test_types_coerced(self):
        cfg = parse_config(
            "[stages.hq_tune]\ntemplate = C\nlr = 2.5\n"
            "[data]\ntier_fractions = 0.5, 0.3, 0.2\n"
        )
        assert cfg["stages.hq_tune"]["template"] == "C"
        assert cfg["stages.hq_tune"]["lr"] == 2.5
        assert cfg["data"]["tier_fractions"] == (0.5, 0.3, 0.2)

    @pytest.mark.parametrize("override", [
        "stages.low_res.steps=abc",
        "stages.low_res.lr=fast",
        "model.axes_split=4,x,2",
        "guidance.w=2",
    ])
    def test_bad_value_or_dead_section_exit_2(self, tmp_path, override):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), [override])
        assert main(["train", "--out", str(tmp_path), f"--{override}"]) == 2

    def test_snapshot_roundtrip(self):
        cfg = default_config()
        apply_overrides(cfg, ["stages.low_res.steps=11", "stages.hq_tune.lr=3.5e-4"])
        text = format_config(cfg)
        back = parse_config(text)
        assert back == cfg

    def test_stage_plans_built_in_order(self):
        plans = build_stage_plans(default_config())
        assert [p.name for p in plans] == ["low_res", "high_res", "hq_tune"]
        assert plans[0].resolution < plans[1].resolution == plans[2].resolution
        assert plans[0].tier < plans[1].tier < plans[2].tier


class TestTrainCommand:
    def test_missing_config_exit_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.txt")]) == 2

    def test_zero_step_override_and_artifacts(self, tmp_path):
        code = main(
            ["train", "--out", str(tmp_path), "--run-id", "t1"]
            + TINY_MODEL_OVERRIDES
            + ["--stages.low_res.steps=0"]
        )
        assert code == 0
        run_dir = tmp_path / "t1"
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "resolved-config.txt").exists()
        ckpts = sorted(p.name for p in run_dir.glob("stage*.lmck"))
        assert len(ckpts) == 3
        assert (run_dir / "state_final.lmck").exists()

    @pytest.mark.parametrize("overrides", [
        ["model.heads=0"],
        ["model.kv_heads=0"],
        ["stages.low_res.tier=5"],
        ["stages.low_res.aux_factor=0", "stages.low_res.lambda_aux=1.0"],
        ["stages.high_res.lambda_aux=-1"],
    ], ids=["heads", "kv_heads", "tier", "aux_factor", "lambda_aux"])
    def test_bad_model_or_stage_value_exit_2(self, tmp_path, overrides):
        argv = ["train", "--out", str(tmp_path)] + TINY_MODEL_OVERRIDES
        assert main(argv + [f"--{o}" for o in overrides]) == 2

    @pytest.mark.parametrize("override", [
        "stages.low_res.lr=-1",
        "stages.low_res.cond_dropout=2",
        "model.t_embed_dim=0",
    ], ids=["negative_lr", "cond_dropout", "t_embed_dim"])
    def test_degenerate_training_value_exit_2(self, tmp_path, override):
        argv = ["train", "--out", str(tmp_path)] + TINY_MODEL_OVERRIDES
        assert main(argv + [f"--{override}"]) == 2

    def test_resolved_config_reproduces_run(self, tmp_path):
        assert (
            main(["train", "--out", str(tmp_path), "--run-id", "a"] + TINY_MODEL_OVERRIDES)
            == 0
        )
        snapshot = tmp_path / "a" / "resolved-config.txt"
        assert (
            main(
                ["train", "--config", str(snapshot), "--out", str(tmp_path), "--run-id", "b"]
            )
            == 0
        )
        m1 = (tmp_path / "a" / "metrics.csv").read_text()
        m2 = (tmp_path / "b" / "metrics.csv").read_text()
        # identical loss trajectories modulo wall-clock column
        strip = lambda text: [",".join(line.split(",")[:5]) for line in text.splitlines()]
        assert strip(m1) == strip(m2)


class TestSampleCommand:
    def test_default_flags_write_outputs(self, tmp_path):
        ckpt = tiny_ckpt(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "sample",
                "--ckpt",
                str(ckpt),
                "--prompt",
                "red circle cell_4",
                "--steps",
                "2",
                "--resolution",
                "32",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "image.ppm").read_bytes().startswith(b"P6\n32 32\n255\n")
        assert (out / "image.lmt").exists()
        nfe = json.loads((out / "nfe.json").read_text())
        assert nfe["total"] == nfe["conditional"] + nfe["unconditional"]

    def test_trunc_alpha_one_untruncated_nfe(self, tmp_path):
        ckpt = tiny_ckpt(tmp_path)
        out = tmp_path / "o2"
        code = main(
            ["sample", "--ckpt", str(ckpt), "--steps", "4", "--trunc-alpha", "1.0",
             "--out", str(out)]
        )
        assert code == 0
        nfe = json.loads((out / "nfe.json").read_text())
        assert nfe["conditional"] == nfe["unconditional"] == 4

    @pytest.mark.parametrize("damage", ["junk", "missing", "cut_header", "cut_payload",
                                        "no_final_proj"])
    def test_bad_checkpoint_exit_2(self, tmp_path, damage):
        good = tiny_ckpt(tmp_path).read_bytes()
        bad = tmp_path / "bad.lmck"
        if damage == "junk":
            bad.write_bytes(b"JUNKJUNKJUNK")
        elif damage == "cut_header":
            bad.write_bytes(good[:20])
        elif damage == "cut_payload":
            bad.write_bytes(good[: len(good) // 2])
        elif damage == "no_final_proj":
            full = init_params(TINY_MODEL, seed=0)
            entries = [(name, t) for name, t in full.items() if name != "final.proj.w"]
            save_checkpoint(bad, raw_store(TINY_MODEL, entries))
        assert main(["sample", "--ckpt", str(bad), "--out", str(tmp_path)]) == 2

    def test_same_seed_byte_identical(self, tmp_path):
        ckpt = tiny_ckpt(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            main(["sample", "--ckpt", str(ckpt), "--steps", "2", "--seed", "5",
                  "--out", str(out)])
            outs.append((out / "image.ppm").read_bytes())
        assert outs[0] == outs[1]


    def test_cli_image_equals_padded_eval_path(self, tmp_path):
        store = live_params(TINY_MODEL)
        ckpt = tiny_ckpt(tmp_path, store)
        out = tmp_path / "pad"
        code = main(["sample", "--ckpt", str(ckpt), "--prompt", "red circle cell_4",
                     "--steps", "3", "--renorm", "--seed", "5", "--resolution", "16",
                     "--out", str(out)])
        assert code == 0
        vocab = build_vocabulary()
        padded = pad_prompt(
            apply_system_prompt(vocab.encode(["red", "circle", "cell_4"]), "B", vocab), vocab
        )
        images, _ = sample_batch(
            store, [padded], GuidanceConfig(w=4.0, renorm=True, trunc_alpha=0.6),
            SamplerConfig(solver="euler", steps=3), [5], resolution=16,
            uncond_tokens=pad_prompt(unconditional_tokens("B", vocab), vocab),
        )
        assert (load_tensor(out / "image.lmt").data == images[0].data).all()

    def test_nan_weight_exit_3(self, tmp_path):
        store = init_params(TINY_MODEL, seed=0)
        store["blocks.0.attn.wq"].data[0, 0] = np.nan
        ckpt = tiny_ckpt(tmp_path, store)
        code = main(["sample", "--ckpt", str(ckpt), "--steps", "2", "--resolution", "16",
                     "--out", str(tmp_path / "nan")])
        assert code == 3


class TestEvalAndBench:
    def test_eval_writes_report(self, tmp_path):
        ckpt = tiny_ckpt(tmp_path)
        out = tmp_path / "ev"
        code = main(
            ["eval", "--ckpt", str(ckpt), "--n", "4", "--steps", "2",
             "--resolution", "16", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "adherence.json").read_text())
        assert report["n"] == 4
        assert 0 <= report["joint_acc"] <= min(
            report["color_acc"], report["shape_acc"], report["cell_acc"]
        )

    def test_bench_runs_grid(self, tmp_path, capsys):
        ckpt = tiny_ckpt(tmp_path)
        code = main(
            ["bench", "--ckpt", str(ckpt), "--steps", "4", "--resolution", "16",
             "--out", str(tmp_path)]
        )
        assert code == 0
        text = (tmp_path / "ablation.csv").read_text()
        assert text.splitlines()[0].startswith("strategies,")
        assert "renorm+trunc" in text

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2


BAD_INPUTS = {
    "sample_seed": ["sample", "--seed", "-1"],
    "scene_seed": ["sample", "--scene-seed", "-1"],
    "sample_resolution": ["sample", "--resolution", "-2"],
    "eval_seed": ["eval", "--seed", "-1"],
    "eval_n_zero": ["eval", "--n", "0"],
    "eval_n_negative": ["eval", "--n", "-3"],
    "train_seed": ["train", "--train.seed=-1"],
    "data_seed": ["train", "--data.seed=-1"],
    "mix_three_entries": ["train", "--stages.low_res.granularity_mix=0.5,0.25,0.25"],
    "mix_negative": ["train", "--stages.low_res.granularity_mix=1.5,-0.5,0,0"],
    "rope_base_negative": ["train", "--model.rope_base=-1"],
    "ffn_hidden_negative": ["train", "--model.ffn_hidden=-1"],
    "layers_negative": ["train", "--model.layers=-1"],
    "text_layers_negative": ["train", "--model.text_processor_layers=-1"],
    "image_layers_negative": ["train", "--model.image_processor_layers=-1"],
    "grad_clip_negative": ["train", "--stages.low_res.grad_clip=-1"],
    "grad_clip_zero": ["train", "--stages.low_res.grad_clip=0"],
    "warmup_negative": ["train", "--stages.low_res.warmup_steps=-1"],
    "config_directory": ["train", "--config", "{tmp}"],
    "config_not_utf8": ["train", "--config", "{tmp}/binary.txt"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_seed_size_or_input_exit_2(tmp_path, argv):
    (tmp_path / "binary.txt").write_bytes(b"[model]\ndim = \xff\xfe\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out")]
    if argv[0] == "train":  # the case's own override comes last and wins
        argv[1:1] = [f"--{o}" for o in TINY_MODEL_OVERRIDES]
    else:
        argv += ["--ckpt", str(tiny_ckpt(tmp_path)), "--steps", "1"]
    assert main(argv) == 2


def test_selfcheck_passes():
    assert main(["selfcheck"]) == 0


def _raises():
    raise ZeroDivisionError("division by zero")


@pytest.mark.parametrize("broken", [lambda: (False, "dev 1.0"), _raises])
def test_selfcheck_failed_or_raising_check_exit_1(monkeypatch, capsys, broken):
    import lumina_mini.selfcheck as selfcheck

    monkeypatch.setattr(selfcheck, "CHECKS", {"holds": lambda: (True, ""), "broken": broken})
    assert main(["selfcheck"]) == 1
    captured = capsys.readouterr()
    assert "FAILED: broken" in captured.err and "holds" not in captured.err
    assert "PASS  holds" in captured.out


def test_train_nan_abort_exit_3(tmp_path, monkeypatch):
    import lumina_mini.cli as cli
    from lumina_mini.errors import NanLossError

    def boom(*a, **kw):
        raise NanLossError("non-finite loss", stage=0, step=3, batch_seed=(0, 0, 3))

    monkeypatch.setattr(cli, "run_pipeline", boom)
    code = cli.main(
        ["train", "--out", str(tmp_path), "--run-id", "nan"]
        + TINY_MODEL_OVERRIDES
    )
    assert code == 3
