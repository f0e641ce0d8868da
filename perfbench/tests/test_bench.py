"""Tests of the benchmark itself: span arithmetic, binding coverage, output
checks and failure accounting, and a minimum-length smoke run per workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from lmbench import runner, tracing, workloads  # noqa: E402

import lumina_mini  # noqa: E402
from lumina_mini import sampler, trainer  # noqa: E402
from lumina_mini.numerics import Tensor  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


# -- span arithmetic -------------------------------------------------------------


def test_self_time_is_duration_minus_covered_child_time():
    # root [0,10] has children a [1,4], b [3,6] (overlapping a) and c [8,12]
    # (running past root); a has one child g [2,3].
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    got = tracing.self_times(starts, ends, parents)
    # root: 10 - |[1,6] u [8,10]| = 10 - 5 - 2
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])


def test_span_log_nests_and_totals_by_parent():
    log = tracing.SpanLog()
    log.op = 7
    outer = log.open("outer")
    inner = log.open("inner")
    log.close(inner)
    log.close(outer)
    tail = log.open("inner")
    log.close(tail)
    assert log.parents == [-1, 0, -1]
    assert log.ops == [7, 7, 7]
    tot = tracing.Totals(log)
    assert tot.calls("inner") == 2
    assert tot.calls("inner", parent="outer") == 1
    outer_ms = tot.ms("outer")
    assert tot.self_ms("outer") == pytest.approx(outer_ms - tot.ms("inner", parent="outer"))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert runner.tail_percentile(list(range(10))) is None
    p, q = runner.tail_percentile(list(range(1, 101)))
    assert p == 90
    assert sum(x > q for x in range(1, 101)) >= 10


# -- traced-run coverage -----------------------------------------------------------


def _is_traced(fn):
    return getattr(fn, "__wrapped__", None) is not None


def test_every_binding_of_a_wrapped_name_is_replaced():
    from lumina_mini.evalharness import adherence
    from lumina_mini.model import blocks, network
    from lumina_mini.numerics import tensor
    from lumina_mini.sampler import run as sampler_run
    from lumina_mini.trainer import stages

    originals = {
        (tensor, "matmul"): tensor.matmul,
        (network, "forward_batch"): network.forward_batch,
        (blocks, "timestep_embedding_batch"): blocks.timestep_embedding_batch,
    }
    log = tracing.SpanLog()
    patch = tracing.install(log)
    try:
        for mod in (tensor, blocks, network):
            assert _is_traced(mod.matmul), mod.__name__
        for mod in (network, sampler_run, stages):
            assert _is_traced(mod.forward_batch), mod.__name__
        for mod in (blocks, network, sampler_run):
            assert _is_traced(mod.timestep_embedding_batch), mod.__name__
        assert _is_traced(adherence.classify_image)
        assert _is_traced(Tensor.backward)
        assert _is_traced(trainer.AdamW.step)
        assert patch.absent == []
    finally:
        patch.restore()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert not _is_traced(Tensor.backward)


def test_removed_target_is_reported_absent():
    log = tracing.SpanLog()
    gone = ("model.gone", "lumina_mini.model", "no_such_function", None)
    gone_module = ("model.gone_module", "lumina_mini.no_such_module", "f", None)
    patch = tracing.install(log, targets=(gone, gone_module))
    patch.restore()
    assert patch.absent == ["model.gone", "model.gone_module"]


# -- output checks -------------------------------------------------------------------


def test_image_checks_reject_nan_and_wrong_shape():
    good = np.zeros((3, 32, 32), dtype=np.float32)
    assert workloads.image_problems(good) == []
    bad = good.copy()
    bad[1, 2, 3] = np.nan
    assert workloads.image_problems(bad) == ["non-finite pixels"]
    assert workloads.image_problems(good[:, :16]) != []


def test_nfe_and_adherence_checks():
    want = sampler.NfeReport(conditional=7, unconditional=12, skipped=13)
    assert workloads.nfe_problems(sampler.NfeReport(7, 12, 13), want) == []
    assert workloads.nfe_problems(sampler.NfeReport(7, 12, 12), want) != []

    from lumina_mini.evalharness import AdherenceReport

    ok = AdherenceReport(n=2, color_acc=0.5, shape_acc=1.0, cell_acc=0.5, joint_acc=0.5,
                         confusion={"color": {"red": {"red": 1, "blue": 1}}})
    assert workloads.adherence_problems(ok, 2) == []
    assert workloads.adherence_problems(ok, 3) != []
    odd = AdherenceReport(n=2, color_acc=0.3, shape_acc=1.0, cell_acc=0.5, joint_acc=0.6)
    problems = workloads.adherence_problems(odd, 2)
    assert any("color accuracy" in p for p in problems)
    assert any("joint accuracy" in p for p in problems)


# -- runs ----------------------------------------------------------------------------


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Minimum sizes, so one run of each workload takes seconds."""
    monkeypatch.setattr(workloads, "TRAIN_STAGES", tuple(
        dict(stage, steps=1) for stage in workloads.TRAIN_STAGES))
    monkeypatch.setattr(workloads, "DATASET_SCENES", 200)
    monkeypatch.setattr(workloads, "SAMPLE_SOLVER", dict(workloads.SAMPLE_SOLVER, steps=4))
    monkeypatch.setattr(workloads, "REFERENCE_SOLVER", dict(workloads.REFERENCE_SOLVER, steps=4))
    monkeypatch.setattr(workloads, "REFERENCE_REQUESTS", 2)
    monkeypatch.setattr(workloads, "EVAL_BATCH", 2)
    monkeypatch.setattr(workloads, "EVAL_SOLVER", dict(workloads.EVAL_SOLVER, steps=2))
    return str(tmp_path)


def _run(workload, trace, out_dir, seed=3):
    return runner.run(workload, seed, 0.0, trace, ROOT, out_dir, import_s=0.1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train", "sample", "eval"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, small, monkeypatch,
                                                     capsys):
    monkeypatch.setattr(run, "HERE", small)  # outputs go to the temporary directory
    monkeypatch.setattr(os, "environ", dict(os.environ))
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().split("\n")
    result = json.loads(lines[-1])
    assert code == 0, json.loads(lines[-2])["errors"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in ("setup_s", "op_ms_p50",
                                                               "images_per_s"))


def test_injected_nan_image_counts_as_failed(small, monkeypatch):
    original = sampler.sample
    suite_calls = []

    def sample_nan_once(store, tokens, guidance, sconf, seed, **kwargs):
        image, report = original(store, tokens, guidance, sconf, seed, **kwargs)
        if guidance.renorm:  # the timed suite, not the references
            suite_calls.append(seed)
            if len(suite_calls) == 2:  # the first request after the warm-up
                image = Tensor(np.full(image.shape, np.nan, dtype=np.float32))
        return image, report

    monkeypatch.setattr(lumina_mini.sampler, "sample", sample_nan_once)
    result, record = _run("sample", False, small)
    assert len(suite_calls) == 3
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert not result["correct"]
    assert "non-finite pixels" in record["errors"][0]


def test_injected_nan_loss_counts_as_failed(small, monkeypatch):
    original = trainer.train_step
    calls = []

    def step_nan_on_third_call(*args, **kwargs):
        loss, aux, lr = original(*args, **kwargs)
        calls.append(loss)
        return (math.nan if len(calls) == 3 else loss), aux, lr

    monkeypatch.setattr(lumina_mini.trainer, "train_step", step_nan_on_third_call)
    result, record = _run("train", False, small)
    # two warm-up steps, then two steps and two checkpoint writes
    assert result["attempted"] == 4
    assert result["failed"] == 1
    assert "non-finite loss" in record["errors"][0]


def test_directory_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert run.check_metrics({"metrics": {}}, SPEC, False) != []
