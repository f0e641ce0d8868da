"""Checkpoint files.

Layout, little-endian throughout: magic "LMCK", u16 version, u32 JSON header
length, UTF-8 JSON header (config, step, master_seed, free-form meta), u32
entry count, then per entry a u32 name length, the UTF-8 name, and an LMT1
tensor blob. Optimizer state rides along under the reserved "opt." prefix.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict

from ..errors import CheckpointError, ConfigError
from ..numerics import Tensor, read_tensor, write_tensor
from ..numerics.serialize import read_payload_into, read_tensor_header
from .config import ModelConfig
from .params import ParamStore

MAGIC = b"LMCK"
VERSION = 1
OPT_PREFIX = "opt."


def save_checkpoint(
    path,
    store: ParamStore,
    extra: dict | None = None,
    meta: dict | None = None,
) -> None:
    """Write params (and optional extra tensors, e.g. optimizer moments).

    The file is written under a temporary name in the same directory and
    then renamed over ``path``, so a reader never sees a partial checkpoint.
    """
    entries = list(store.items()) + list((extra or {}).items())
    header = {
        "config": asdict(store.config),
        "step": store.step,
        "master_seed": store.master_seed,
        "meta": meta or {},
    }
    blob = json.dumps(header).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<H", VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", len(entries)))
            for name, tensor in entries:
                nb = name.encode("utf-8")
                f.write(struct.pack("<I", len(nb)))
                f.write(nb)
                write_tensor(f, tensor)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (ParamStore, extra tensors dict, meta dict).

    Raises CheckpointError when the file cannot be read or is cut short, and
    when its parameter entries are not exactly the slots that ``param_shapes``
    lists for its config: a name that is unknown, repeated or missing, a
    shape that differs, or a dtype other than the first parameter's.
    """
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {os.fspath(path)!r}: {e}") from e


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(data)}")
    return data


def _read_checkpoint(f):
    magic = f.read(4)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}, expected {MAGIC!r}")
    (version,) = struct.unpack("<H", _read_exact(f, 2))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (hlen,) = struct.unpack("<I", _read_exact(f, 4))
    try:
        header = json.loads(_read_exact(f, hlen).decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        step, master_seed, meta = header["step"], header["master_seed"], header["meta"]
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        raise CheckpointError(f"bad checkpoint header: {e}") from e
    # the arena is allocated at the first parameter entry, in that entry's dtype
    store = None
    loaded = set()
    extra: dict[str, Tensor] = {}
    (count,) = struct.unpack("<I", _read_exact(f, 4))
    for _ in range(count):
        (nlen,) = struct.unpack("<I", _read_exact(f, 4))
        try:
            name = _read_exact(f, nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"bad entry name: {e}") from e
        if name.startswith(OPT_PREFIX):
            extra[name] = read_tensor(f)
            continue
        # a parameter is checked against its slot from the header alone, then
        # its payload is read straight into the slot
        dtype, shape = read_tensor_header(f)
        if store is None:
            store = ParamStore(cfg, step, master_seed, dtype)
        if name not in store:
            raise CheckpointError(f"unexpected parameter {name!r} for this config")
        if name in loaded:
            raise CheckpointError(f"duplicate parameter {name!r}")
        slot = store[name]
        if (dtype, shape) != (store.dtype, slot.shape):
            raise CheckpointError(
                f"parameter {name!r} is {dtype} {shape}, expected {store.dtype} {slot.shape}"
            )
        read_payload_into(f, slot.data)
        loaded.add(name)
    if store is None:
        raise CheckpointError("checkpoint holds no parameters")
    missing = [name for name in store.names() if name not in loaded]
    if missing:
        raise CheckpointError(f"parameters missing from checkpoint: {missing}")
    return store, extra, meta
