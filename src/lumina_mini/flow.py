"""Rectified-flow training objectives.

Straight-line interpolation between noise and data, with t = 0 at pure noise
and t = 1 at clean data:

    x_t = t * x + (1 - t) * eps
    u   = x - eps            (the constant target velocity of the path)

The main loss is the mean squared error between the predicted and target
velocity. The auxiliary loss applies the same objective to block-averaged
velocities (factor 4 by default), which ignores any zero-mean perturbation
inside a pooling block and therefore constrains only the low-frequency
content of the prediction.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError
from .numerics import Tensor, avg_pool2d


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def interpolate(x, eps, t):
    """(x_t, u) for clean data x, noise eps, and t scalar or per-sample array.

    Leading batch dims are supported by broadcasting t over trailing axes.
    """
    x = _as_tensor(x)
    eps = _as_tensor(eps)
    t_arr = np.asarray(t, dtype=x.data.dtype)
    if t_arr.min() < 0.0 or t_arr.max() > 1.0:
        raise UsageError(f"t must lie in [0, 1], got range [{t_arr.min()}, {t_arr.max()}]")
    if x.shape != eps.shape:
        raise UsageError(f"shape mismatch: x {x.shape} vs eps {eps.shape}")
    if t_arr.ndim > 0:
        t_arr = t_arr.reshape(t_arr.shape + (1,) * (x.ndim - t_arr.ndim))
    t_t = Tensor(t_arr, x.dtype)
    x_t = t_t * x + (1.0 - t_t) * eps
    u = x - eps
    return x_t, u


def fm_loss(v_pred: Tensor, u) -> Tensor:
    """Mean squared error over every element."""
    u = _as_tensor(u)
    if v_pred.shape != u.shape:
        raise UsageError(f"shape mismatch: v_pred {v_pred.shape} vs u {u.shape}")
    diff = v_pred - u.detach()
    return (diff * diff).mean()


def aux_loss(v_pred: Tensor, u, factor: int = 4) -> Tensor:
    """MSE between factor-pooled predicted and target velocities."""
    u = _as_tensor(u)
    diff = avg_pool2d(v_pred, factor) - avg_pool2d(u.detach(), factor)
    return (diff * diff).mean()

