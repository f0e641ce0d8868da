"""Hierarchical quality tiers and the dataset manifest.

Tiers are nested top-quality subsets: tier k holds the best fraction_k of all
generated scenes by quality score, so tier 3 is contained in tier 2 is
contained in tier 1, and minimum tier quality rises with the tier index.
Images are never stored; scenes regenerate from their seeds on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import ConfigError
from .captions import GRANULARITIES, caption_scene
from .scene import Scene, generate_scene
from .vocab import Vocabulary, build_vocabulary

DEFAULT_TIER_FRACTIONS = (0.90, 0.09, 0.01)


@dataclass
class HierarchicalDataset:
    seed: int
    scenes: list  # all generated scenes, generation order
    tiers: dict  # tier index (1-based) -> list of Scene, quality-sorted descending

    def tier(self, k: int) -> list:
        return self.tiers[k]


def scene_seed(dataset_seed: int, index: int) -> int:
    return (dataset_seed << 32) + index


def build_hierarchical_dataset(
    n_total: int,
    tier_fractions=DEFAULT_TIER_FRACTIONS,
    seed: int = 0,
) -> HierarchicalDataset:
    if seed < 0:
        raise ConfigError(f"dataset seed must be >= 0, got {seed}")
    fractions = tuple(float(f) for f in tier_fractions)
    if sum(fractions) > 1.0 + 1e-9:
        raise ConfigError(f"tier fractions {fractions} sum beyond 1")
    if any(f <= 0 for f in fractions):
        raise ConfigError(f"tier fractions must be positive, got {fractions}")
    sizes = [int(n_total * f) for f in fractions]
    if min(sizes) < 1:
        raise ConfigError(
            f"n_total={n_total} too small: smallest tier would be empty ({sizes})"
        )
    scenes = [generate_scene(scene_seed(seed, i)) for i in range(n_total)]
    order = sorted(range(n_total), key=lambda i: (-scenes[i].quality, i))
    tiers = {k + 1: [scenes[i] for i in order[:size]] for k, size in enumerate(sizes)}
    return HierarchicalDataset(seed=seed, scenes=scenes, tiers=tiers)


def highest_tier(ds: HierarchicalDataset, scene: Scene) -> int:
    """Largest tier index whose quality threshold the scene clears."""
    best = 0
    for k in sorted(ds.tiers):
        if ds.tiers[k] and scene.quality >= ds.tiers[k][-1].quality:
            best = k
    return best


def write_manifest(path, ds: HierarchicalDataset, vocab: Vocabulary | None = None) -> None:
    """JSON-lines manifest; one record per generated sample."""
    vocab = vocab or build_vocabulary()
    with open(path, "w", encoding="utf-8") as f:
        for scene in ds.scenes:
            rec = {
                "seed": scene.seed,
                "shape": scene.shape,
                "color": scene.color,
                "cell": scene.cell,
                "quality": round(scene.quality, 6),
                "tier": highest_tier(ds, scene),
                "captions": {
                    g: caption_scene(scene, g, vocab).tokens for g in GRANULARITIES
                },
            }
            f.write(json.dumps(rec) + "\n")


def read_manifest(path) -> list:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]
