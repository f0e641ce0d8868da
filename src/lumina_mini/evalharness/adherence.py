"""Prompt-adherence evaluation: generate, classify, aggregate."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..model.params import ParamStore
from ..sampler import GuidanceConfig, SamplerConfig, sample_batch
from ..synthdata import build_vocabulary, caption_scene, encode_prompt, generate_scene
from .classify import classify_image

ADHERENCE_STREAM = 0xADE


@dataclass
class AdherenceReport:
    n: int
    color_acc: float
    shape_acc: float
    cell_acc: float
    joint_acc: float
    confusion: dict = field(default_factory=dict)  # attr -> true -> pred -> count

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "color_acc": self.color_acc,
                "shape_acc": self.shape_acc,
                "cell_acc": self.cell_acc,
                "joint_acc": self.joint_acc,
                "confusion": self.confusion,
            }
        )


def adherence_eval(
    store: ParamStore,
    n: int,
    seed: int,
    *,
    guidance: GuidanceConfig | None = None,
    sconf: SamplerConfig | None = None,
    resolution: int = 32,
    granularity: str = "short",
    template: str = "B",
    batch_size: int = 10,
) -> AdherenceReport:
    """Sample n prompts uniformly over scene classes, generate and classify."""
    if n < 1 or seed < 0:
        raise ConfigError(f"need n >= 1 and seed >= 0, got n={n}, seed={seed}")
    vocab = build_vocabulary()
    guidance = guidance or GuidanceConfig(w=4.0, renorm=True, trunc_alpha=0.6)
    sconf = sconf or SamplerConfig(solver="euler", steps=10)
    uncond = encode_prompt([], template, vocab)

    scenes = [generate_scene((ADHERENCE_STREAM << 40) + (seed << 20) + i) for i in range(n)]
    prompts = [encode_prompt(caption_scene(s, granularity, vocab).tokens, template, vocab)
               for s in scenes]

    confusion = {attr: {} for attr in ("color", "shape", "cell")}
    hits = {"color": 0, "shape": 0, "cell": 0, "joint": 0}
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        images, _ = sample_batch(
            store,
            prompts[lo:hi],
            guidance,
            sconf,
            seeds=[(seed << 24) + i for i in range(lo, hi)],
            resolution=resolution,
            uncond_tokens=uncond,
        )
        for scene, img in zip(scenes[lo:hi], images):
            color, shape, cell = classify_image(img)
            truth = {"color": scene.color, "shape": scene.shape, "cell": str(scene.cell)}
            pred = {"color": color, "shape": shape, "cell": str(cell)}
            ok = True
            for attr in confusion:
                confusion[attr].setdefault(truth[attr], {})
                confusion[attr][truth[attr]][pred[attr]] = (
                    confusion[attr][truth[attr]].get(pred[attr], 0) + 1
                )
                if pred[attr] == truth[attr]:
                    hits[attr] += 1
                else:
                    ok = False
            hits["joint"] += ok
    return AdherenceReport(
        n=n,
        color_acc=hits["color"] / n,
        shape_acc=hits["shape"] / n,
        cell_acc=hits["cell"] / n,
        joint_acc=hits["joint"] / n,
        confusion=confusion,
    )


def binomial_ci(p: float, n: int, z: float = 2.576) -> tuple:
    """Normal-approximation confidence interval for a binomial proportion."""
    half = z * np.sqrt(p * (1 - p) / n)
    return (max(0.0, p - half), min(1.0, p + half))
