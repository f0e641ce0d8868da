"""Combining conditional and unconditional velocity predictions."""

from __future__ import annotations

import numpy as np

from ..errors import UsageError
from .config import GuidanceConfig

EPS_DIV = 1e-12


def cfg_active(g: GuidanceConfig, step_fraction: float) -> bool:
    """Whether the conditional branch participates at this point of the
    trajectory. The orchestrator must not evaluate it otherwise."""
    return g.w != 0.0 and step_fraction < g.trunc_alpha


def cfg_combine(
    v_u: np.ndarray,
    v_c: np.ndarray | None,
    g: GuidanceConfig,
    step_fraction: float,
) -> np.ndarray:
    """Guided velocity for one evaluation point, over [..., c, H, W].

    Inside the truncation window: v_u + w (v_c - v_u), renormalized to the
    conditional magnitude when requested. Outside it: v_u unchanged, and v_c
    must not have been evaluated. Renorm norms are taken per image (scope
    "sample") or per spatial position over channels (scope "token"); leading
    batch axes never mix.
    """
    if not 0.0 <= step_fraction <= 1.0:
        raise UsageError(f"step_fraction {step_fraction} outside [0, 1]")
    v_u = np.asarray(v_u)
    if not cfg_active(g, step_fraction):
        return v_u
    if v_c is None:
        raise UsageError("CFG window active but conditional velocity missing")
    v_c = np.asarray(v_c)
    # w == 1 is exactly the conditional prediction; avoid roundoff there.
    v = v_c if g.w == 1.0 else v_u + g.w * (v_c - v_u)
    if g.renorm:
        axes = (-3, -2, -1) if g.renorm_scope == "sample" else (-3,)
        target = np.sqrt((v_c * v_c).sum(axis=axes, keepdims=True))
        norm = np.sqrt((v * v).sum(axis=axes, keepdims=True))
        v = v * (target / np.maximum(norm, EPS_DIV))
    return v
