"""Multi-stage progressive training.

Every random draw derives statelessly from (master_seed, stage_index, step),
so a fixed seed yields a bit-identical loss trajectory and a checkpoint
resumed mid-stage continues exactly where it left off. Stages raise
resolution and data quality; parameters transfer unchanged between
resolutions (rotary positions are computed, not learned) while optimizer
moments reset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, NanLossError, NumericError
from ..flow import aux_loss, fm_loss, interpolate
from ..model import save_checkpoint, load_checkpoint
from ..model.network import forward_batch
from ..model.params import ParamStore, init_params
from ..synthdata import (
    Vocabulary,
    build_vocabulary,
    caption_scene,
    encode_prompt,
    render_scene,
)
from ..synthdata.captions import GRANULARITIES
from .metrics import MetricRow, MetricsLog
from .optim import AdamW, clip_grad_norm


@dataclass
class StagePlan:
    name: str = "low_res"
    resolution: int = 16
    tier: int = 1
    steps: int = 1000
    batch_size: int = 4
    lr: float = 2e-4
    lambda_aux: float = 0.0
    template: str = "A"
    granularity_mix: tuple = (0.25, 0.25, 0.25, 0.25)
    cond_dropout: float = 0.1
    aux_factor: int = 4
    warmup_steps: int = 100
    grad_clip: float = 1.0

    def __post_init__(self):
        mix = self.granularity_mix
        if len(mix) != len(GRANULARITIES) or min(mix) < 0 or abs(sum(mix) - 1.0) > 1e-9:
            raise ConfigError(
                f"granularity_mix needs {len(GRANULARITIES)} non-negative entries summing "
                f"to 1, got {mix}"
            )
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if self.lambda_aux < 0 or self.aux_factor < 1:
            raise ConfigError("lambda_aux must be >= 0 and aux_factor >= 1")
        if not self.lr > 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.cond_dropout <= 1.0:
            raise ConfigError(f"cond_dropout must lie in [0, 1], got {self.cond_dropout}")
        if not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be > 0, got {self.grad_clip}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")


@dataclass
class TrainState:
    params: ParamStore
    opt: AdamW
    stage_index: int = -1

    @property
    def step(self) -> int:
        return self.params.step


def fresh_state(cfg, seed: int, lr: float = 2e-4) -> TrainState:
    params = init_params(cfg, seed)
    return TrainState(params=params, opt=AdamW(params, lr=lr))


def draw_batch(plan: StagePlan, scenes, vocab: Vocabulary, rng) -> list:
    """Batch of (tokens, image, t, eps); one rng stream in a fixed draw order.
    Prompts come back padded to the fixed length."""
    batch = []
    mix = np.asarray(plan.granularity_mix, dtype=np.float64)
    for _ in range(plan.batch_size):
        scene = scenes[int(rng.integers(len(scenes)))]
        granularity = GRANULARITIES[int(rng.choice(len(GRANULARITIES), p=mix))]
        dropped = bool(rng.uniform() < plan.cond_dropout)
        t = float(rng.uniform())
        image = render_scene(scene, plan.resolution)
        eps = rng.standard_normal(image.shape).astype(np.float32)
        caption = [] if dropped else caption_scene(scene, granularity, vocab).tokens
        batch.append((encode_prompt(caption, plan.template, vocab), image, t, eps))
    return batch


def train_step(state: TrainState, plan: StagePlan, scenes, vocab: Vocabulary):
    """One optimizer step; returns (loss, aux) batch means."""
    params = state.params
    rng = np.random.default_rng([params.master_seed, state.stage_index, params.step])
    batch = draw_batch(plan, scenes, vocab, rng)
    params.zero_grad()
    tokens = [b[0] for b in batch]
    ts = np.array([b[2] for b in batch])
    x_t, u = interpolate(np.stack([b[1] for b in batch]), np.stack([b[3] for b in batch]), ts)
    try:
        v_pred = forward_batch(tokens, x_t, ts, params)
        main = fm_loss(v_pred, u)
        total = main
        aux_sum = 0.0
        if plan.lambda_aux > 0:
            aux = aux_loss(v_pred, u, plan.aux_factor)
            total = main + plan.lambda_aux * aux
            aux_sum = aux.item()
        total.backward()
        loss_sum = main.item()
        blew_up = not np.isfinite(loss_sum)
    except NumericError:
        blew_up = True
    if blew_up:
        raise NanLossError(
            f"non-finite loss at stage {state.stage_index} step {params.step}",
            stage=state.stage_index,
            step=params.step,
            batch_seed=(params.master_seed, state.stage_index, params.step),
        )
    clip_grad_norm(params, plan.grad_clip)
    # linear warmup tied to the optimizer counter, which resets on resolution transfer
    lr = plan.lr * min(1.0, (state.opt.t + 1) / max(plan.warmup_steps, 1))
    state.opt.step(lr)
    params.step += 1
    return loss_sum, aux_sum, lr


def run_stage(
    state: TrainState,
    plan: StagePlan,
    scenes,
    vocab: Vocabulary | None = None,
    metrics: MetricsLog | None = None,
    ckpt_path=None,
) -> list:
    """Execute one stage; returns the per-step loss list and optionally saves
    a stage-end checkpoint."""
    if plan.resolution % state.params.config.patch_size:
        raise ConfigError(
            f"resolution {plan.resolution} not divisible by patch size "
            f"{state.params.config.patch_size}"
        )
    vocab = vocab or build_vocabulary()
    state.stage_index += 1
    losses = []
    for _ in range(plan.steps):
        started = time.perf_counter()
        loss, aux, lr = train_step(state, plan, scenes, vocab)
        wall_ms = (time.perf_counter() - started) * 1000.0
        losses.append(loss)
        if metrics is not None:
            metrics.append(
                MetricRow(state.params.step - 1, state.stage_index, loss, aux, lr, wall_ms)
            )
    if ckpt_path is not None:
        save_state(ckpt_path, state)
    return losses


def transfer_checkpoint(state: TrainState, new_resolution: int) -> TrainState:
    """Carry parameters to a new resolution unchanged; rotary positions are
    computed per forward pass, so only the data pipeline changes. Optimizer
    moments reset."""
    if new_resolution % state.params.config.patch_size:
        raise ConfigError(
            f"resolution {new_resolution} not divisible by patch size "
            f"{state.params.config.patch_size}"
        )
    state.opt.reset_moments()
    return state


def save_state(path, state: TrainState) -> None:
    save_checkpoint(
        path,
        state.params,
        extra=state.opt.state_tensors(),
        meta={"stage_index": state.stage_index, "opt_t": state.opt.t},
    )


def load_state(path, lr: float = 2e-4) -> TrainState:
    params, extra, meta = load_checkpoint(path)
    opt = AdamW(params, lr=lr)
    if extra:
        opt.load_state_tensors(extra, meta.get("opt_t", 0))
    return TrainState(params=params, opt=opt, stage_index=meta.get("stage_index", -1))


def run_pipeline(
    state: TrainState,
    plans,
    tiers: dict,
    vocab: Vocabulary | None = None,
    metrics: MetricsLog | None = None,
    ckpt_dir=None,
):
    """Run all stages in order, transferring between resolution changes.
    Returns {stage name: loss list}."""
    unknown = [plan.tier for plan in plans if plan.tier not in tiers]
    if unknown:
        raise ConfigError(f"stage tiers {unknown} not among the dataset's {sorted(tiers)}")
    vocab = vocab or build_vocabulary()
    results = {}
    current_res = None
    for plan in plans:
        if current_res is not None and plan.resolution != current_res:
            transfer_checkpoint(state, plan.resolution)
        current_res = plan.resolution
        ckpt_path = None
        if ckpt_dir is not None:
            ckpt_path = f"{ckpt_dir}/stage{state.stage_index + 1}_{plan.name}.lmck"
        results[plan.name] = run_stage(
            state, plan, tiers[plan.tier], vocab, metrics=metrics, ckpt_path=ckpt_path
        )
    return results
