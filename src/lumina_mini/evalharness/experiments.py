"""Experiment runners: FFN-equivalence sweep, caption-length convergence,
and the inference-strategy ablation bench."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ..model import (
    ModelConfig,
    attention_as_ffn,
    cross_attention_direct,
    dynamic_ffn_weights,
)
from ..model.params import ParamStore
from ..numerics import Tensor
from ..sampler import GuidanceConfig, NfeReport, SamplerConfig, sample
from ..synthdata import build_hierarchical_dataset, build_vocabulary
from ..trainer import MetricsLog, StagePlan, fresh_state, run_stage


def ffn_equivalence_suite(trials: int = 100, seed: int = 0) -> dict:
    """attention_as_ffn vs direct cross-attention over random shapes, f64.

    Also asserts the structural claim: the generated first matrix has exactly
    one column per text token (the dynamic hidden size).
    """
    rng = np.random.default_rng([0xFF9, seed])
    max_dev = 0.0
    for _ in range(trials):
        l_img = int(rng.integers(1, 17))
        l_text = int(rng.integers(1, 17))
        d = int(rng.choice([8, 16]))
        d_k = d
        x = Tensor(rng.standard_normal((l_img, d)), "f64")
        y = Tensor(rng.standard_normal((l_text, d)), "f64")
        w_q = Tensor(rng.standard_normal((d, d_k)), "f64")
        w_k = Tensor(rng.standard_normal((d, d_k)), "f64")
        w_v = Tensor(rng.standard_normal((d, d)), "f64")

        w1, _ = dynamic_ffn_weights(y, w_q, w_k, w_v)
        assert w1.shape[1] == l_text, "dynamic hidden size must equal the text length"

        a = attention_as_ffn(x, y, w_q, w_k, w_v).data
        b = cross_attention_direct(x, y, w_q, w_k, w_v).data
        max_dev = max(max_dev, float(np.abs(a - b).max()))
    return {"trials": trials, "max_abs_deviation": max_dev}


def caption_length_experiment(
    *,
    steps: int = 2000,
    seed: int = 0,
    config: ModelConfig | None = None,
    batch_size: int = 4,
    lr: float = 8e-4,
    resolution: int = 16,
    n_scenes: int = 4000,
    out_dir=None,
) -> dict:
    """Two trainings from one init seed differing only in caption granularity
    (tags-only vs detailed-only). Returns both loss curves plus smoothed
    summaries; asserts nothing itself.
    """
    config = config or ModelConfig()
    dataset = build_hierarchical_dataset(max(n_scenes, 300), seed=seed)
    vocab = build_vocabulary()
    curves = {}
    for label, mix in (("tags", (1.0, 0.0, 0.0, 0.0)), ("detailed", (0.0, 0.0, 0.0, 1.0))):
        state = fresh_state(config, seed=seed, lr=lr)
        plan = StagePlan(
            name=f"caplen_{label}",
            resolution=resolution,
            tier=1,
            steps=steps,
            batch_size=batch_size,
            lr=lr,
            lambda_aux=0.0,
            granularity_mix=mix,
        )
        metrics = MetricsLog(None if out_dir is None else f"{out_dir}/caplen_{label}.csv")
        curves[label] = run_stage(state, plan, dataset.tier(1), vocab, metrics=metrics)
    summary = {}
    for label, curve in curves.items():
        smoothed = _smooth(curve, window=max(1, steps // 20))
        tail = smoothed[-max(1, steps // 10):]
        summary[label] = {
            "final_window_mean": float(np.mean(tail)),
            "smoothed_auc": float(np.mean(smoothed)),
        }
    return {"curves": curves, "summary": summary, "steps": steps}


def _smooth(values, window: int):
    arr = np.asarray(values, dtype=np.float64)
    if window <= 1:
        return arr
    kernel = np.ones(window) / window
    return np.convolve(arr, kernel, mode="valid")


@dataclass
class AblationRow:
    strategies: tuple
    nfe: NfeReport
    wall_ms: float
    mse_vs_reference: float

    def label(self) -> str:
        return "+".join(self.strategies) if self.strategies else "reference"


DEFAULT_GRID = (
    (),
    ("renorm",),
    ("trunc",),
    ("renorm", "trunc"),
    ("fdpm",),
    ("teacache",),
    ("renorm", "trunc", "fdpm"),
    ("renorm", "trunc", "teacache"),
    ("renorm", "trunc", "fdpm", "teacache"),
)


def _configs_for(strategies, *, w, steps, trunc_alpha, teacache_delta):
    g = GuidanceConfig(
        w=w,
        renorm="renorm" in strategies,
        trunc_alpha=trunc_alpha if "trunc" in strategies else 1.0,
    )
    sc = SamplerConfig(
        solver="fdpm" if "fdpm" in strategies else "euler",
        steps=steps,
        teacache_delta=teacache_delta if "teacache" in strategies else None,
    )
    return g, sc


def inference_ablation(
    store: ParamStore,
    seed: int = 0,
    *,
    grid=DEFAULT_GRID,
    prompts=None,
    uncond_tokens=(),
    w: float = 4.0,
    steps: int = 20,
    trunc_alpha: float = 0.6,
    teacache_delta: float = 0.3,
    resolution: int = 32,
    csv_path=None,
) -> list:
    """Run each strategy set on a fixed prompt list; report NFE, wall time and
    MSE against the plain full-CFG Euler reference at the same seed."""
    if prompts is None:
        from ..synthdata import caption_scene, encode_prompt, generate_scene

        vocab = build_vocabulary()
        prompts = [
            encode_prompt(caption_scene(generate_scene(1000 + i), "short", vocab).tokens,
                          "B", vocab)
            for i in range(2)
        ]

    references = []
    g_ref, sc_ref = _configs_for((), w=w, steps=steps, trunc_alpha=trunc_alpha,
                                 teacache_delta=teacache_delta)
    for i, tokens in enumerate(prompts):
        img, _ = sample(store, tokens, g_ref, sc_ref, seed=seed + i,
                        resolution=resolution, uncond_tokens=uncond_tokens)
        references.append(img.data)

    rows = []
    for strategies in grid:
        g, sc = _configs_for(strategies, w=w, steps=steps, trunc_alpha=trunc_alpha,
                             teacache_delta=teacache_delta)
        total = NfeReport()
        wall = 0.0
        mse = 0.0
        for i, tokens in enumerate(prompts):
            img, report = sample(store, tokens, g, sc, seed=seed + i,
                                 resolution=resolution, uncond_tokens=uncond_tokens)
            total.conditional += report.conditional
            total.unconditional += report.unconditional
            total.skipped += report.skipped
            wall += report.wall_ms
            mse += float(((img.data - references[i]) ** 2).mean())
        rows.append(
            AblationRow(
                strategies=tuple(strategies),
                nfe=total,
                wall_ms=wall,
                mse_vs_reference=mse / len(prompts),
            )
        )
    if csv_path is not None:
        write_ablation_csv(csv_path, rows)
    return rows


def write_ablation_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["strategies", "conditional", "unconditional", "total", "skipped", "wall_ms", "mse_vs_reference"]
        )
        for row in rows:
            writer.writerow(
                [
                    row.label(),
                    row.nfe.conditional,
                    row.nfe.unconditional,
                    row.nfe.total,
                    row.nfe.skipped,
                    f"{row.wall_ms:.3f}",
                    f"{row.mse_vs_reference:.9g}",
                ]
            )
