"""One benchmark run: set-up, oracle, warm-up, timed closed loop, checks,
metrics and provenance.

An untraced run (``trace=False``) reports the end-to-end metrics. A traced
run times one untraced half and one traced half of the same loop; the traced
half gives the per-layer metrics and the difference of the two halves'
operation medians gives the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import time

import numpy as np

from . import tracing
from .workloads import WORKLOADS, make_weights

SETUP_REPEATS = 3


def tail_percentile(values, beyond: int = 10):
    """(percentile, value) of the highest integer percentile with at least
    ``beyond`` samples above it, or None when the sample is too small."""
    xs = np.asarray(values, dtype=np.float64)
    for p in range(99, -1, -1):
        q = float(np.percentile(xs, p))
        if int((xs > q).sum()) >= beyond:
            return p, q
    return None


def _git_commit(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, root: str, strict_env) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "LUMINA_MINI_STRICT": "unset" if strict_env is None
        else f"unset for the run (was {strict_env!r})",
        "git_commit": _git_commit(root),
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def end_to_end(wl, phase, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "op_ms_p50": (_median(phase.op_ms), "ms"),
        "images_per_s": (phase.images / phase.wall_s if phase.wall_s else math.nan, "1/s"),
        "output_error": (wl.output_error(phase), "1"),
    }


def per_layer(tot: tracing.Totals, log: tracing.SpanLog, phase, overhead_pct: float,
              repeat_share: float) -> dict:
    ops = max(phase.ops, 1)
    c = log.counters

    def per_op(x):
        return x / ops

    def per_call(name):
        n = tot.calls(name)
        return tot.ms(name) / n if n else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    fwd_calls = tot.calls("model.forward")
    fwd_ms = tot.ms("model.forward")
    images = c.get("sampler.images", 0.0)
    nfe = {k: c.get(f"sampler.nfe.{k}", 0.0) for k in ("conditional", "unconditional", "skipped")}
    ckpt_files = tot.calls("model.checkpoint.load") + tot.calls("model.checkpoint.save")
    ckpt_bytes = c.get("model.checkpoint.load.bytes", 0.0) + c.get("model.checkpoint.save.bytes", 0.0)
    return {
        "numerics.softmax.calls": (per_op(tot.calls("numerics.softmax")), "calls/op"),
        "numerics.softmax.self_ms": (per_op(tot.self_ms("numerics.softmax")), "ms/op"),
        "numerics.softmax.mb_moved": (per_op(c.get("numerics.softmax.bytes", 0.0)) / 1e6, "MB/op"),
        "numerics.matmul.calls": (per_op(tot.calls("numerics.matmul")), "calls/op"),
        "numerics.matmul.self_ms": (per_op(tot.self_ms("numerics.matmul")), "ms/op"),
        "numerics.matmul.gflop": (per_op(c.get("numerics.matmul.flop", 0.0)) / 1e9, "GFLOP/op"),
        "numerics.matmul.mb_moved": (per_op(c.get("numerics.matmul.bytes", 0.0)) / 1e6, "MB/op"),
        "numerics.rms_norm.calls": (per_op(tot.calls("numerics.rms_norm")), "calls/op"),
        "numerics.rms_norm.self_ms": (per_op(tot.self_ms("numerics.rms_norm")), "ms/op"),
        "numerics.rotary.calls": (per_op(tot.calls("numerics.rotary")), "calls/op"),
        "numerics.rotary.self_ms": (per_op(tot.self_ms("numerics.rotary")), "ms/op"),
        "numerics.backward.calls": (per_op(tot.calls("numerics.backward")), "calls/op"),
        "numerics.backward.self_ms": (per_op(tot.self_ms("numerics.backward")), "ms/op"),
        "model.attention.calls": (per_op(tot.calls("model.attention")), "calls/op"),
        "model.attention.self_ms": (per_op(tot.self_ms("model.attention")), "ms/op"),
        "model.rope.calls": (per_op(tot.calls("model.rope")), "calls/op"),
        "model.rope.self_ms": (per_op(tot.self_ms("model.rope")), "ms/op"),
        "model.block.self_ms": (per_op(tot.self_ms("model.block")), "ms/op"),
        "model.forward.calls": (per_op(fwd_calls), "calls/op"),
        "model.forward.samples": (per_op(c.get("model.forward.samples", 0.0)), "samples/op"),
        "model.forward.ms": (per_op(fwd_ms), "ms/op"),
        "model.forward.ms_per_sample": (ratio(fwd_ms, c.get("model.forward.samples", 0.0)), "ms"),
        "model.ms_per_nfe": (ratio(fwd_ms, fwd_calls), "ms"),
        "model.t_embed.calls": (per_op(tot.calls("model.t_embed")), "calls/op"),
        "model.t_embed.ms": (per_op(tot.ms("model.t_embed")), "ms/op"),
        "model.checkpoint.load_ms": (per_call("model.checkpoint.load"), "ms/call"),
        "model.checkpoint.save_ms": (per_call("model.checkpoint.save"), "ms/call"),
        "model.checkpoint.mb": (ratio(ckpt_bytes, ckpt_files) / 1e6, "MB/file"),
        "trainer.data_ms": (per_op(tot.ms("trainer.data")), "ms/op"),
        "trainer.forward_ms": (per_op(tot.ms("model.forward", parent="trainer.step")), "ms/op"),
        "trainer.backward_ms": (per_op(tot.ms("numerics.backward", parent="trainer.step")),
                                "ms/op"),
        "trainer.optimizer_ms": (per_op(tot.ms("trainer.optimizer")), "ms/op"),
        "trainer.clip_ms": (per_op(tot.ms("trainer.clip")), "ms/op"),
        "trainer.save_state_ms": (per_call("trainer.save_state"), "ms/call"),
        "flow.loss_ms": (per_op(tot.ms("flow.fm_loss") + tot.ms("flow.aux_loss")), "ms/op"),
        "synthdata.render.calls": (per_op(tot.calls("synthdata.render")), "calls/op"),
        "synthdata.render.ms": (per_op(tot.ms("synthdata.render")), "ms/op"),
        "synthdata.dataset_build_ms": (per_call("synthdata.dataset_build"), "ms/call"),
        "sampler.nfe.conditional": (ratio(nfe["conditional"], images), "count/image"),
        "sampler.nfe.unconditional": (ratio(nfe["unconditional"], images), "count/image"),
        "sampler.nfe.skipped": (ratio(nfe["skipped"], images), "count/image"),
        "sampler.skip_share": (ratio(nfe["skipped"], sum(nfe.values())), "ratio"),
        "sampler.teacache_ms": (per_op(tot.ms("sampler.teacache")), "ms/op"),
        "sampler.self_ms": (per_op(tot.self_ms("sampler.sample")
                                   + tot.self_ms("sampler.sample_batch")), "ms/op"),
        "sampler.prompt_repeat_share": (repeat_share, "ratio"),
        "evalharness.classify.calls": (per_op(tot.calls("evalharness.classify")), "calls/op"),
        "evalharness.classify.ms": (per_op(tot.ms("evalharness.classify")), "ms/op"),
        "tracing.overhead_pct": (overhead_pct, "%"),
    }


def _timed_setups(wl, log):
    times = []
    for _ in range(SETUP_REPEATS):
        patch = tracing.install(log) if log is not None else None
        try:
            t0 = time.perf_counter()
            wl.setup()
            times.append(time.perf_counter() - t0)
        finally:
            if patch is not None:
                patch.restore()
    return times


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, out_dir: str,
        import_s: float, strict_env=None):
    """Returns (result, record): the result line and the full record."""
    work = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    wl = None
    try:
        ckpt = os.path.join(work, "weights.lmck")
        make_weights(ckpt)
        wl = WORKLOADS[workload](seed, ckpt, work)
        log = tracing.SpanLog() if trace else None
        if log is not None:
            log.op = -1  # set-up spans belong to no operation
        setup_times = _timed_setups(wl, log)
        wl.prepare(trace)
        wl.warmup()
        record = {
            "workload": workload,
            "trace": int(trace),
            "seconds": seconds,
            "provenance": provenance(seed, root, strict_env),
            "setup": {"import_s": import_s, "repeats_s": setup_times},
        }
        if trace:
            base = wl.run(seconds / 2)
            wl.log = log
            patch = tracing.install(log)
            try:
                phase = wl.run(seconds / 2)
            finally:
                patch.restore()
                wl.log = None
            tot = tracing.Totals(log)
            base_p50, traced_p50 = _median(base.op_ms), _median(phase.op_ms)
            repeats = phase.extra.get("repeats", [])
            metrics = per_layer(tot, log, phase, 100.0 * (traced_p50 - base_p50) / base_p50,
                                sum(repeats) / len(repeats) if repeats else 0.0)
            problems = [
                f"span {name} recorded no calls"
                for name in wl.expected_spans
                if name not in patch.absent and tot.calls(name) == 0
            ]
            record["absent_targets"] = patch.absent
            record["bindings"] = patch.bound
            record["op_ms_p50"] = {"untraced": base_p50, "traced": traced_p50}
            phases = [base, phase]
            spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.csv")
            log.write_csv(spans_path)
            record["spans_csv"] = os.path.relpath(spans_path, root)
        else:
            phase = wl.run(seconds)
            metrics = end_to_end(wl, phase, import_s + statistics.median(setup_times))
            problems = []
            phases = [phase]
        record.update(_summary(phase))
        record.update(wl.facts())
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        errors = [e for p in phases for e in p.errors] + problems
        record["failed_share"] = failed / attempted if attempted else 1.0
        record["errors"] = errors
        bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
        if bad:
            errors.append(f"non-finite metrics: {bad}")
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                k: {"value": float(v) if math.isfinite(v) else 0.0, "unit": u}
                for k, (v, u) in metrics.items()
            },
        }
        record["result"] = result
        with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
        return result, record
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)


def _summary(phase) -> dict:
    """Figures kept beside the metrics: per-resolution step medians and the
    latency tail with its percentile and sample count."""
    out = {"ops": phase.ops, "images": phase.images, "wall_s": phase.wall_s}
    for key in ("step_ms_16px", "step_ms_32px"):
        if key in phase.extra:
            out[f"{key}_p50"] = _median(phase.extra[key])
    tail = tail_percentile(phase.op_ms)
    out["op_ms_tail"] = (
        {"percentile": tail[0], "value_ms": tail[1], "samples": len(phase.op_ms)}
        if tail else {"percentile": None, "samples": len(phase.op_ms)}
    )
    return out
