"""The parameter arena: every parameter and gradient of a model in two flat buffers."""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, UsageError
from ..numerics import Tensor
from ..numerics.tensor import DTYPES
from .config import ModelConfig, param_shapes


class ParamStore:
    """Ordered name -> Tensor map plus (config, step, master_seed) metadata.

    ``data`` and ``grad`` are flat buffers laid out in ``param_shapes`` order
    with no padding; each leaf's ``.data`` and ``.grad.data`` are views of its
    slot, so backward accumulates straight into ``grad``.

    Names are unique and stable across save/load. ``master_seed`` is the full
    RNG state: every random draw in training is derived statelessly from
    (master_seed, stage, step), so seed + counters reproduce any run point.
    """

    def __init__(self, config: ModelConfig, step: int = 0, master_seed: int = 0,
                 dtype: str = "f32"):
        self.config = config
        self.step = step
        self.master_seed = master_seed
        if dtype not in DTYPES:
            raise UsageError(f"unknown dtype {dtype!r}; expected one of {sorted(DTYPES)}")
        self.dtype = dtype
        self._slots: dict[str, tuple[slice, tuple]] = {}
        offset = 0
        for name, shape in param_shapes(config):
            size = math.prod(shape)
            self._slots[name] = (slice(offset, offset + size), shape)
            offset += size
        self.data = np.zeros(offset, dtype=DTYPES[dtype])
        self.grad = np.zeros(offset, dtype=DTYPES[dtype])
        self._params: dict[str, Tensor] = {}
        for name in self._slots:
            leaf = Tensor(self.view(self.data, name), dtype)
            leaf.requires_grad = True
            leaf.grad = Tensor(self.view(self.grad, name), dtype)
            self._params[name] = leaf

    def view(self, flat: np.ndarray, name: str) -> np.ndarray:
        """The slot of parameter ``name`` in ``flat``, an array laid out like ``data``."""
        where, shape = self._slots[name]
        return flat[where].reshape(shape)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def clone(self) -> "ParamStore":
        out = ParamStore(self.config, self.step, self.master_seed, self.dtype)
        out.data[...] = self.data
        return out


def init_params(cfg: ModelConfig, seed: int, dtype: str = "f32") -> ParamStore:
    """Fresh parameters: zero-init adaLN and final projection, unit norm gains,
    normal(0, 0.02) everywhere else. Zero adaLN gates make every block an
    identity map at initialization."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng([0x1A17, seed])
    store = ParamStore(cfg, step=0, master_seed=seed, dtype=dtype)
    for name, shape in param_shapes(cfg):
        if name.endswith((".ada.w", ".ada.b", "final.proj.w", "final.proj.b")):
            continue
        if name.endswith((".g", ".qn", ".kn")):
            store[name].data[...] = 1
        elif not name.endswith(".b"):
            store[name].data[...] = rng.standard_normal(shape) * 0.02
    return store
