"""Compositional scenes and their renderings.

A scene is one of 3 shapes x 6 colors x 9 grid cells = 162 classes, plus
size and luminance jitter. Quality is a deterministic function of the jitter
magnitudes: less jitter means higher quality. Rendering is anti-aliased
(subpixel coverage) on a neutral gray background with pixel values in [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .vocab import COLOR_NAMES, SHAPE_NAMES

SCENE_STREAM = 0xC1A55
RESOLUTIONS = (16, 32)
N_CLASSES = len(SHAPE_NAMES) * len(COLOR_NAMES) * 9

# channel values in [-1, 1]
COLOR_RGB = {
    "red": (1.0, -1.0, -1.0),
    "green": (-1.0, 1.0, -1.0),
    "blue": (-1.0, -1.0, 1.0),
    "yellow": (1.0, 1.0, -1.0),
    "cyan": (-1.0, 1.0, 1.0),
    "magenta": (1.0, -1.0, 1.0),
}
BACKGROUND = 0.0
FOREGROUND_GAIN = 0.85  # keeps luminance jitter visible in both directions before clipping
SIZE_JITTER_MAX = 0.25
LUM_JITTER_MAX = 0.2
SUPERSAMPLE = 4


@dataclass(frozen=True)
class Scene:
    shape: str
    color: str
    cell: int  # 0..8 on the 3x3 grid, row-major
    size_jitter: float
    luminance_jitter: float
    quality: float
    seed: int

    @property
    def class_index(self) -> int:
        return (
            SHAPE_NAMES.index(self.shape) * len(COLOR_NAMES) + COLOR_NAMES.index(self.color)
        ) * 9 + self.cell


def quality_score(size_jitter: float, luminance_jitter: float) -> float:
    """1 at zero jitter, 0 at maximal jitter on both axes."""
    s = abs(size_jitter) / SIZE_JITTER_MAX
    l = abs(luminance_jitter) / LUM_JITTER_MAX
    return float(np.clip(1.0 - 0.5 * (s + l), 0.0, 1.0))


def generate_scene(seed: int) -> Scene:
    """Deterministic in seed; uniform over the 162 classes before jitter."""
    if seed < 0:
        raise ConfigError(f"scene seed must be >= 0, got {seed}")
    rng = np.random.default_rng([SCENE_STREAM, seed])
    cls = int(rng.integers(N_CLASSES))
    cell = cls % 9
    color = COLOR_NAMES[(cls // 9) % len(COLOR_NAMES)]
    shape = SHAPE_NAMES[cls // (9 * len(COLOR_NAMES))]
    size_jitter = float(rng.uniform(-SIZE_JITTER_MAX, SIZE_JITTER_MAX))
    lum_jitter = float(rng.uniform(-LUM_JITTER_MAX, LUM_JITTER_MAX))
    return Scene(
        shape=shape,
        color=color,
        cell=cell,
        size_jitter=size_jitter,
        luminance_jitter=lum_jitter,
        quality=quality_score(size_jitter, lum_jitter),
        seed=seed,
    )


def _coverage(scene: Scene, resolution: int) -> np.ndarray:
    """Fraction of each pixel inside the shape, via a subpixel grid."""
    n = resolution * SUPERSAMPLE
    # subpixel centers in unit-square coordinates, x right, y down
    c = (np.arange(n) + 0.5) / n
    xs, ys = np.meshgrid(c, c)

    row, col = divmod(scene.cell, 3)
    cx, cy = (col + 0.5) / 3.0, (row + 0.5) / 3.0
    half = (1.0 / 6.0) * 0.80 * (1.0 + scene.size_jitter)

    dx, dy = xs - cx, ys - cy
    if scene.shape == "circle":
        inside = dx * dx + dy * dy <= half * half
    elif scene.shape == "square":
        inside = np.maximum(np.abs(dx), np.abs(dy)) <= half
    else:  # triangle: apex up, base at the bottom of the bounding box
        # edges from (0, -half) to (+-half, +half)
        inside = (dy <= half) & (dy >= -half) & (np.abs(dx) <= (dy + half) / 2.0)
    inside = inside.astype(np.float64)
    inside = inside.reshape(resolution, SUPERSAMPLE, resolution, SUPERSAMPLE)
    return inside.mean(axis=(1, 3))


def render_scene(scene: Scene, resolution: int) -> np.ndarray:
    """[3, R, R] float32 in [-1, 1]; deterministic per (scene, resolution)."""
    if resolution not in RESOLUTIONS:
        raise ConfigError(f"unsupported resolution {resolution}, expected one of {RESOLUTIONS}")
    cov = _coverage(scene, resolution)
    rgb = np.array(COLOR_RGB[scene.color]) * FOREGROUND_GAIN * (1.0 + scene.luminance_jitter)
    rgb = np.clip(rgb, -1.0, 1.0)
    img = BACKGROUND + cov[None, :, :] * (rgb[:, None, None] - BACKGROUND)
    return np.clip(img, -1.0, 1.0).astype(np.float32)
