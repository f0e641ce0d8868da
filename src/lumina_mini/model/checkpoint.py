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

from ..errors import CheckpointError, ConfigError
from ..numerics import Tensor, read_tensor, write_tensor
from .config import ModelConfig, param_shapes
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
        "config": store.config.to_dict(),
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

    Raises CheckpointError when the file cannot be read, is cut short, or does
    not hold exactly the parameters, by name and shape, that ``param_shapes``
    lists for its config.
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
        cfg = ModelConfig.from_dict(header["config"])
        store = ParamStore(cfg, step=header["step"], master_seed=header["master_seed"])
        meta = header["meta"]
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        raise CheckpointError(f"bad checkpoint header: {e}") from e
    extra: dict[str, Tensor] = {}
    (count,) = struct.unpack("<I", _read_exact(f, 4))
    for _ in range(count):
        (nlen,) = struct.unpack("<I", _read_exact(f, 4))
        try:
            name = _read_exact(f, nlen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"bad entry name: {e}") from e
        tensor = read_tensor(f)
        if name.startswith(OPT_PREFIX):
            extra[name] = tensor
        elif name in store:
            raise CheckpointError(f"duplicate parameter {name!r}")
        else:
            tensor.requires_grad = True
            tensor.grad = Tensor(tensor.data * 0, tensor.dtype)
            store.add(name, tensor)
    _check_manifest(store)
    return store, extra, meta


def _check_manifest(store: ParamStore) -> None:
    expected = dict(param_shapes(store.config))
    found = {name: t.shape for name, t in store.items()}
    if found != expected:
        missing = [n for n in expected if n not in found]
        unexpected = [n for n in found if n not in expected]
        misshapen = [n for n in found if n in expected and found[n] != expected[n]]
        raise CheckpointError(
            f"parameters do not match the config: missing {missing}, "
            f"unexpected {unexpected}, wrong shape {misshapen}"
        )
