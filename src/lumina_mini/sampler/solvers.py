"""ODE integration steps for the straight flow path (t: 0 noise -> 1 data).

Every step has one signature, ``step(x, t, t_next, field, history)``, and
returns ``(x_next, v)``: ``field(x, s)`` gives the (guided) velocity at time
s, and ``v`` is the last velocity the step evaluated, the one a TeaCache hold
reuses. ``STEPS`` maps each solver name to its step; generation, the hold and
the solver-order checks all run these entries.

Euler and midpoint act on the velocity directly. The multistep data-prediction
solver converts each velocity into a clean-sample prediction

    x0 = x_t + (1 - t) * v        (exact under the linear interpolation path)

and integrates the half-linear structure of the path in log-SNR time
lambda(t) = log(t / (1 - t)), where a first-order update reproduces Euler and
the second-order update extrapolates x0 linearly from the two latest
evaluations. The first step has no history and the final step lands exactly
on the data prediction, so both run first order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import UsageError


def _dt(t: float, t_next: float) -> float:
    dt = t_next - t
    if dt <= 0:
        raise UsageError(f"dt must be positive, got {dt}")
    return dt


def euler(x, t, t_next, field, history):
    """First order; 1 NFE per step."""
    dt = _dt(t, t_next)
    v = field(x, t)
    return x + dt * v, v


def midpoint(x, t, t_next, field, history):
    """Second order; evaluates the field twice (2 NFE per step)."""
    dt = _dt(t, t_next)
    k1 = field(x, t)
    v = field(x + 0.5 * dt * k1, t + 0.5 * dt)
    return x + dt * v, v


def x0_prediction(x: np.ndarray, v: np.ndarray, t: float) -> np.ndarray:
    """Clean-sample prediction implied by a velocity at time t."""
    return x + (1.0 - t) * v


@dataclass
class FdpmRecord:
    x: np.ndarray
    x0: np.ndarray
    t: float


def _lam(t: float) -> float:
    if t <= 0.0:
        return -math.inf
    if t >= 1.0:
        return math.inf
    return math.log(t / (1.0 - t))


def fdpm(x, t, t_next, field, history):
    """Multistep data prediction (1 NFE per step).

    ``history`` is the caller's list of FdpmRecord entries in time order; the
    step appends the current evaluation and keeps the latest two. Clearing it
    restarts the solver at first order.
    """
    _dt(t, t_next)
    v = field(x, t)
    history.append(FdpmRecord(x=x, x0=x0_prediction(x, v, t), t=t))
    del history[:-2]
    d = history[-1].x0
    h = _lam(t_next) - _lam(t)
    sigma, sigma_n, alpha_n = 1.0 - t, 1.0 - t_next, t_next
    d_tilde = d
    if len(history) == 2 and t_next < 1.0:
        prev = history[0]
        h_prev = _lam(t) - _lam(prev.t)
        if math.isfinite(h_prev):
            r = h_prev / h
            d_tilde = d + (1.0 / (2.0 * r)) * (d - prev.x0)
    decay = math.exp(-h) if math.isfinite(h) else 0.0
    return (sigma_n / sigma) * x + alpha_n * (1.0 - decay) * d_tilde, v


STEPS = {"euler": euler, "midpoint": midpoint, "fdpm": fdpm}

# Where each step evaluates its field, as fractions of [t, t_next].
_NODES = {"euler": (0.0,), "midpoint": (0.0, 0.5), "fdpm": (0.0,)}


def eval_times(solver: str, t: float, t_next: float) -> list:
    """The times at which ``STEPS[solver]`` evaluates its field on [t, t_next]:
    the evaluations a TeaCache hold skips."""
    return [t + c * (t_next - t) for c in _NODES[solver]]
