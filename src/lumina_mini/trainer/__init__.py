from .metrics import COLUMNS, MetricRow, MetricsLog
from .optim import AdamW, clip_grad_norm
from .stages import (
    StagePlan,
    TrainState,
    draw_batch,
    fresh_state,
    load_state,
    run_pipeline,
    run_stage,
    save_state,
    train_step,
    transfer_checkpoint,
)

__all__ = [
    "AdamW",
    "COLUMNS",
    "MetricRow",
    "MetricsLog",
    "StagePlan",
    "TrainState",
    "clip_grad_norm",
    "draw_batch",
    "fresh_state",
    "load_state",
    "run_pipeline",
    "run_stage",
    "save_state",
    "train_step",
    "transfer_checkpoint",
]
