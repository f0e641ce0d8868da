"""Inference run specification and evaluation accounting."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .solvers import STEPS


@dataclass
class GuidanceConfig:
    """Classifier-free guidance: scale, renormalization, truncation window.

    trunc_alpha is the fraction of the trajectory, measured from the noise
    end, during which the conditional branch is evaluated. 1 means CFG on
    every step; 0 means unconditional-only after step 0.
    """

    w: float = 4.0
    renorm: bool = False
    trunc_alpha: float = 0.6
    renorm_scope: str = "sample"  # or "token": per spatial position

    def __post_init__(self):
        if self.w < 0:
            raise ConfigError(f"cfg scale must be >= 0, got {self.w}")
        if not 0.0 <= self.trunc_alpha <= 1.0:
            raise ConfigError(f"trunc_alpha must lie in [0, 1], got {self.trunc_alpha}")
        if self.renorm_scope not in ("sample", "token"):
            raise ConfigError(f"unknown renorm scope {self.renorm_scope!r}")


@dataclass
class SamplerConfig:
    solver: str = "euler"
    steps: int = 20
    time_grid: list | None = None  # default: uniform 0 -> 1
    teacache_delta: float | None = None

    def __post_init__(self):
        if self.solver not in STEPS:
            raise ConfigError(f"unknown solver {self.solver!r}, expected one of {tuple(STEPS)}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.teacache_delta is not None and self.teacache_delta < 0:
            raise ConfigError("teacache delta must be >= 0")

    def grid(self) -> np.ndarray:
        if self.time_grid is None:
            return np.linspace(0.0, 1.0, self.steps + 1)
        g = np.asarray(self.time_grid, dtype=np.float64)
        if g[0] != 0.0 or g[-1] != 1.0 or (np.diff(g) <= 0).any():
            raise ConfigError("time_grid must start at 0, end at 1, strictly increasing")
        return g


@dataclass
class CacheState:
    """Timestep-embedding cache: last real output plus the accumulated signal drift."""

    last_output: np.ndarray | None = None
    accumulated: float = 0.0
    last_mod_signal: np.ndarray | None = None


@dataclass
class NfeReport:
    conditional: int = 0
    unconditional: int = 0
    skipped: int = 0
    wall_ms: float = 0.0

    @property
    def total(self) -> int:
        return self.conditional + self.unconditional

    def to_json(self) -> str:
        return json.dumps(
            {
                "conditional": self.conditional,
                "unconditional": self.unconditional,
                "total": self.total,
                "skipped": self.skipped,
                "wall_ms": round(self.wall_ms, 3),
            }
        )
