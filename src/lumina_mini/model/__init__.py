from .blocks import timestep_embedding, timestep_embedding_batch
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig, count_params, param_shapes, reference_config
from .ffn_view import attention_as_ffn, cross_attention_direct, dynamic_ffn_weights
from .network import forward_batch, patchify, unpatchify
from .params import ParamStore, init_params
from .rope import apply_mrope, assign_coords, rope_tables

__all__ = [
    "ModelConfig",
    "ParamStore",
    "apply_mrope",
    "assign_coords",
    "attention_as_ffn",
    "count_params",
    "cross_attention_direct",
    "dynamic_ffn_weights",
    "forward_batch",
    "init_params",
    "load_checkpoint",
    "param_shapes",
    "patchify",
    "reference_config",
    "rope_tables",
    "save_checkpoint",
    "timestep_embedding",
    "timestep_embedding_batch",
    "unpatchify",
]
