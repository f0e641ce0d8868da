from .tensor import (
    Tensor,
    apply_rotary,
    avg_pool2d,
    concat,
    embedding,
    matmul,
    no_grad,
    ones,
    rms_norm,
    sinusoid,
    softmax_lastdim,
    split,
)
from .serialize import load_tensor, read_tensor, save_tensor, write_tensor

__all__ = [
    "Tensor",
    "apply_rotary",
    "avg_pool2d",
    "concat",
    "embedding",
    "matmul",
    "no_grad",
    "ones",
    "rms_norm",
    "sinusoid",
    "softmax_lastdim",
    "split",
    "load_tensor",
    "read_tensor",
    "save_tensor",
    "write_tensor",
]
