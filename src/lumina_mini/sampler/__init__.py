from .config import CacheState, GuidanceConfig, NfeReport, SamplerConfig
from .guidance import cfg_active, cfg_combine
from .run import sample, sample_batch, write_ppm
from .solvers import STEPS, FdpmRecord, eval_times, x0_prediction
from .teacache import COMPUTE, SKIP, teacache_gate

__all__ = [
    "CacheState",
    "COMPUTE",
    "FdpmRecord",
    "GuidanceConfig",
    "NfeReport",
    "SKIP",
    "STEPS",
    "SamplerConfig",
    "cfg_active",
    "cfg_combine",
    "eval_times",
    "sample",
    "sample_batch",
    "teacache_gate",
    "write_ppm",
    "x0_prediction",
]
