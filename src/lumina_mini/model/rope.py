"""Rotary positions over three coordinate axes.

Each token carries an integer coordinate triple. The per-head dimension is
split into three bands (one per axis); within a band, adjacent dim pairs are
rotated by angle coord * base^(-2j/band). Text tokens use (i, i, i); image
tokens use (text_len, row, col), so attention sees relative offsets along
sequence, height and width independently.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..numerics import Tensor, apply_rotary

ROPE_BASE = 128.0  # default matched to desk-scale coordinate ranges


def assign_coords(text_len: int, rows: int, cols: int) -> np.ndarray:
    """Coordinate triples for a joint sequence: text first, then image patches
    in row-major order."""
    if min(text_len, rows, cols) < 0:
        raise ConfigError("coordinate extents must be nonnegative")
    coords = np.zeros((text_len + rows * cols, 3), dtype=np.int64)
    for i in range(text_len):
        coords[i] = (i, i, i)
    idx = text_len
    for r in range(rows):
        for c in range(cols):
            coords[idx] = (text_len, r, c)
            idx += 1
    return coords


def rope_tables(coords: np.ndarray, axes_split, dtype=np.float64, base: float = ROPE_BASE):
    """cos/sin tables of shape [L, head_dim] for the banded three-axis rotation.

    Row i depends on coords[i] alone, so the tables of a slice of the
    coordinates are the same slice of the tables.
    """
    if len(axes_split) != 3 or any(a % 2 for a in axes_split):
        raise ConfigError(
            f"axes_split {tuple(axes_split)} invalid: need three even extents"
        )
    head_dim = sum(axes_split)
    coords = np.asarray(coords)
    L = coords.shape[0]
    cos = np.empty((L, head_dim), dtype=dtype)
    sin = np.empty((L, head_dim), dtype=dtype)
    offset = 0
    for axis, band in enumerate(axes_split):
        half = band // 2
        inv_freq = base ** (-2.0 * np.arange(half) / band)
        angles = coords[:, axis].astype(np.float64)[:, None] * inv_freq[None, :]
        cos[:, offset:offset + band] = np.repeat(np.cos(angles), 2, axis=-1)
        sin[:, offset:offset + band] = np.repeat(np.sin(angles), 2, axis=-1)
        offset += band
    return cos, sin


def apply_mrope(x: Tensor, rope) -> Tensor:
    """Rotate [..., L, heads, head_dim] queries or keys by ``rope``, the
    (cos, sin) pair of [L, head_dim] tables from ``rope_tables``."""
    cos, sin = rope
    if cos.shape[-1] != x.shape[-1]:
        raise ConfigError(
            f"rotary tables are {cos.shape[-1]} wide but head_dim is {x.shape[-1]}"
        )
    return apply_rotary(x, cos[:, None, :], sin[:, None, :])
