"""Generation orchestrator: noise to image with exact evaluation accounting.

Truncation is enforced here, not inside cfg_combine: outside the CFG window
the conditional forward pass simply never runs, which is where the speedup
comes from. TeaCache gating happens once per solver step using the timestep
embedding at the step start; a skipped step reuses the last computed velocity
as a first-order hold.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ConfigError, UsageError
from ..model.network import forward_batch
from ..model.blocks import timestep_embedding_batch
from ..model.params import ParamStore
from ..numerics import Tensor, no_grad
from .config import CacheState, GuidanceConfig, NfeReport, SamplerConfig
from .guidance import cfg_active, cfg_combine
from .solvers import STEPS, eval_times
from .teacache import COMPUTE, teacache_gate

NOISE_STREAM = 0x5EED


def sample(
    store: ParamStore,
    text_tokens,
    guidance: GuidanceConfig,
    sconf: SamplerConfig,
    seed: int,
    *,
    resolution: int = 32,
    uncond_tokens=(),
):
    """Generate one image as a batch of one through ``sample_batch``.
    Returns (image Tensor [c,R,R], NfeReport)."""
    images, report = sample_batch(
        store, [text_tokens], guidance, sconf, [seed],
        resolution=resolution, uncond_tokens=uncond_tokens,
    )
    return images[0], report


def sample_batch(
    store: ParamStore,
    token_rows,
    guidance: GuidanceConfig,
    sconf: SamplerConfig,
    seeds,
    *,
    resolution: int = 32,
    uncond_tokens=(),
):
    """Generate one image per (prompt, seed) pair in lockstep.

    All prompts must share one padded length. Each sample's noise depends
    only on its own seed, so a row equals ``sample`` for the same prompt and
    seed up to batched-GEMM roundoff. The returned NfeReport counts
    evaluations per sample (every sample sees the same schedule).
    """
    cfg = store.config
    token_rows = [list(r) for r in token_rows]
    seeds = [int(s) for s in seeds]
    b = len(token_rows)
    if len(seeds) != b:
        raise UsageError(f"{len(seeds)} seeds for {b} prompts")
    if min(seeds, default=0) < 0:
        raise ConfigError(f"seeds must be >= 0, got {seeds}")
    if resolution < 1:
        raise ConfigError(f"resolution must be >= 1, got {resolution}")
    x = np.stack(
        [
            np.random.default_rng([NOISE_STREAM, s])
            .standard_normal((cfg.channels, resolution, resolution))
            .astype(np.float32)
            for s in seeds
        ]
    )
    uncond_rows = [list(uncond_tokens)] * b
    grid = sconf.grid()
    report = NfeReport()
    cache = CacheState() if sconf.teacache_delta is not None else None
    step = STEPS[sconf.solver]
    history: list = []

    def field(x_cur, s):
        # t and t_emb belong to the current step (set by the loop below); the
        # step's first evaluation reuses the embedding the gate read
        ts = [s] * b
        emb = t_emb if s == t else timestep_embedding_batch(ts, store)
        v_u = forward_batch(uncond_rows, Tensor(x_cur), ts, store, t_emb=emb).data
        report.unconditional += 1
        v_c = None
        if cfg_active(guidance, s):
            v_c = forward_batch(token_rows, Tensor(x_cur), ts, store, t_emb=emb).data
            report.conditional += 1
        return cfg_combine(v_u, v_c, guidance, s)

    def evals_at(s):
        return 1 + (1 if cfg_active(guidance, s) else 0)

    start = time.perf_counter()
    with no_grad():
        for i in range(len(grid) - 1):
            t, t_next = float(grid[i]), float(grid[i + 1])
            t_emb = timestep_embedding_batch([t] * b, store)
            if cache is not None and (
                teacache_gate(cache, t_emb.data[0], sconf.teacache_delta) != COMPUTE
            ):
                report.skipped += sum(map(evals_at, eval_times(sconf.solver, t, t_next)))
                history.clear()  # multistep assumptions break across a hold
                x, _ = STEPS["euler"](x, t, t_next, lambda *_: cache.last_output, history)
                continue
            x, v = step(x, t, t_next, field, history)
            if cache is not None:
                cache.last_output = v
    report.wall_ms = (time.perf_counter() - start) * 1000.0
    return [Tensor(xi.astype(np.float32)) for xi in x], report


def write_ppm(path, image: Tensor) -> None:
    """Binary PPM (P6); values mapped from [-1, 1] to [0, 255]."""
    data = image.data if isinstance(image, Tensor) else np.asarray(image)
    c, h, w = data.shape
    rgb = np.clip((data + 1.0) * 127.5, 0, 255).astype(np.uint8)
    if c == 1:
        rgb = np.repeat(rgb, 3, axis=0)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.transpose(1, 2, 0).tobytes())
