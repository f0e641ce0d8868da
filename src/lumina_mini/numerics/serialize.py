"""Flat binary tensor blobs.

Layout: magic "LMT1", u8 dtype tag (0=f32, 1=f64), u8 rank, rank little-endian
u32 extents, then the raw little-endian values in row-major order.
"""

from __future__ import annotations

import struct
import sys

import numpy as np

from ..errors import CheckpointError
from .tensor import DTYPES, Tensor

MAGIC = b"LMT1"
_TAG_OF = {"f32": 0, "f64": 1}
_DTYPE_OF = {0: "<f4", 1: "<f8"}
_NAME_OF = {0: "f32", 1: "f64"}


def write_tensor(f, t: Tensor) -> None:
    f.write(MAGIC)
    f.write(struct.pack("<BB", _TAG_OF[t.dtype], t.ndim))
    f.write(struct.pack(f"<{t.ndim}I", *t.shape))
    f.write(np.ascontiguousarray(t.data, dtype=_DTYPE_OF[_TAG_OF[t.dtype]]).tobytes())


def read_tensor_header(f) -> tuple:
    """(dtype name, shape) of the blob at ``f``, which is left at its payload."""
    magic = f.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad tensor magic {magic!r}, expected {MAGIC!r}")
    head = f.read(2)
    if len(head) != 2:
        raise CheckpointError("truncated tensor header")
    tag, rank = struct.unpack("<BB", head)
    if tag not in _DTYPE_OF:
        raise CheckpointError(f"unknown dtype tag {tag}")
    raw = f.read(4 * rank)
    if len(raw) != 4 * rank:
        raise CheckpointError("truncated tensor extents")
    return _NAME_OF[tag], struct.unpack(f"<{rank}I", raw)


def read_payload_into(f, out: np.ndarray) -> None:
    """Fill the C-contiguous native-endian ``out`` with the payload at ``f``,
    read straight into its memory."""
    if f.readinto(out) != out.nbytes:
        raise CheckpointError("truncated tensor payload")
    if sys.byteorder == "big":  # payloads are little-endian
        out.byteswap(inplace=True)


def read_tensor(f) -> Tensor:
    dtype, shape = read_tensor_header(f)
    data = np.empty(shape, dtype=DTYPES[dtype])
    read_payload_into(f, data)
    return Tensor(data, dtype)


def save_tensor(path, t: Tensor) -> None:
    with open(path, "wb") as f:
        write_tensor(f, t)


def load_tensor(path) -> Tensor:
    with open(path, "rb") as f:
        return read_tensor(f)
