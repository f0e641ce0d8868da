"""AdamW with decoupled weight decay and global gradient-norm clipping."""

from __future__ import annotations

import math

import numpy as np

from ..errors import CheckpointError, UsageError
from ..model.params import ParamStore
from ..numerics import Tensor


# Elements per pass of AdamW.step, small enough that its inputs and two
# temporaries stay in cache: whole-buffer passes were 40 ms per step, not 24.
CHUNK = 1 << 16


class AdamW:
    """Moments are two flat buffers laid out like the parameter arena, in its
    dtype, so checkpoints round-trip bit-exactly. Weight decay applies to
    matrices only; gains and biases (1-D parameters) are exempt."""

    def __init__(
        self,
        store: ParamStore,
        lr: float = 2e-4,
        betas=(0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        self.store = store
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = np.zeros_like(store.data)
        self.v = np.zeros_like(store.data)
        self._decayed = np.zeros(store.data.size, dtype=bool)
        for name, p in store.items():
            store.view(self._decayed, name)[...] = p.ndim > 1
        self._scratch = np.empty(2 * min(CHUNK, store.data.size), dtype=store.data.dtype)

    def step(self, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for lo in range(0, self.m.size, CHUNK):
            part = slice(lo, lo + CHUNK)
            p, g, m, v = self.store.data[part], self.store.grad[part], self.m[part], self.v[part]
            a, b = self._scratch[: p.size], self._scratch[p.size : 2 * p.size]
            # each line rounds as written; reordering them would move every later loss
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=a)
            m += a
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            np.divide(m, c1, out=a)
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            if self.weight_decay:
                decayed = self._decayed[part]
                np.multiply(p, self.weight_decay, out=b, where=decayed)
                np.add(a, b, out=a, where=decayed)
            a *= lr
            p -= a

    def reset_moments(self) -> None:
        self.m.fill(0)
        self.v.fill(0)
        self.t = 0

    def state_tensors(self) -> dict:
        """Per-parameter views of the moments under the reserved checkpoint prefix."""
        out = {}
        for name in self.store.names():
            out[f"opt.m.{name}"] = Tensor(self.store.view(self.m, name), self.store.dtype)
            out[f"opt.v.{name}"] = Tensor(self.store.view(self.v, name), self.store.dtype)
        return out

    def load_state_tensors(self, extra: dict, t: int) -> None:
        for key, target in self.state_tensors().items():
            entry = extra.get(key)
            if entry is None or (entry.dtype, entry.shape) != (target.dtype, target.shape):
                raise CheckpointError(
                    f"optimizer entry {key!r} is missing or not {target.dtype} {target.shape}"
                )
            target.data[...] = entry.data
        self.t = t


def clip_grad_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so the global norm is at most max_norm; returns
    the pre-clip norm. The squares are summed in f64 per parameter and the
    sums added in manifest order: one dot over the whole buffer rounds
    differently in the last place, which would move every later loss."""
    if not max_norm > 0:
        raise UsageError(f"max_norm must be > 0, got {max_norm}")
    norm = math.sqrt(
        sum(float(np.square(p.grad.data, dtype=np.float64).sum()) for _, p in store.items())
    )
    if norm > max_norm:
        store.grad *= max_norm / norm
    return norm
