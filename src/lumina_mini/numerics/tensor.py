"""Dense tensors with reverse-mode automatic differentiation.

The operator set is closed: exactly the operations training and sampling
run, each with a hand-written backward. Those are ``add``, ``sub``, ``mul``,
``silu``, ``mean``, ``reshape``, ``transpose``, ``narrow`` (also behind
``split``), ``matmul``, ``softmax_lastdim``, ``rms_norm``, ``avg_pool2d``,
``concat``, ``embedding`` and ``apply_rotary``. The one more is ``sum``: the
scalar reduction every finite-difference gradient check is built on. No
general broadcasting beyond leading batch dims plus the usual
trailing-gain/vector cases, which keeps every backward auditable. f32 is the
training default; f64 exists so finite-difference gradient oracles are
trustworthy.

Tensors are immutable after construction except for gradient accumulation
into leaf ``.grad`` buffers. Graphs are built through closures: every op
records its parents and a function mapping the output gradient to parent
gradients. ``backward`` does one deterministic reverse-topological sweep.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DataError, NumericError, ShapeError, UsageError

DTYPES = {"f32": np.float32, "f64": np.float64}
_NP_TO_NAME = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}

_grad_enabled = True


class no_grad:
    """Context manager that disables graph construction (used during sampling)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to ``shape`` by summing broadcast axes."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


class Tensor:
    """n-dimensional array with optional gradient tracking."""

    __slots__ = ("data", "requires_grad", "grad", "_op", "_parents", "_backward")

    def __init__(self, data, dtype: str = "f32", requires_grad: bool = False):
        if dtype not in DTYPES:
            raise UsageError(f"unknown dtype {dtype!r}; expected one of {sorted(DTYPES)}")
        self.data = np.asarray(data, dtype=DTYPES[dtype])
        self.requires_grad = bool(requires_grad)
        # Leaves get an eagerly zeroed grad buffer so unused leaves report zero.
        self.grad = Tensor(np.zeros_like(self.data), dtype) if self.requires_grad else None
        self._op = None
        self._parents = ()
        self._backward = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple, op: str, backward) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = data
        t.grad = None
        tracked = _grad_enabled and any(p.requires_grad for p in parents)
        t.requires_grad = tracked
        t._op = op if tracked else None
        t._parents = parents if tracked else ()
        t._backward = backward if tracked else None
        return t

    # -- basic properties --------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> str:
        return _NP_TO_NAME[self.data.dtype]

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.grad = None
        t.requires_grad = False
        t._op = None
        t._parents = ()
        t._backward = None
        return t

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            if other.data.dtype != self.data.dtype:
                raise UsageError(f"dtype mismatch: {self.dtype} vs {other.dtype}")
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype), self.dtype)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

        return Tensor._from_op(a.data + b.data, (a, b), "add", bwd)

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

        return Tensor._from_op(a.data - b.data, (a, b), "sub", bwd)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def bwd(g):
            return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

        return Tensor._from_op(a.data * b.data, (a, b), "mul", bwd)

    __rmul__ = __mul__

    # -- unary elementwise ---------------------------------------------------

    def silu(self):
        a = self
        # the sigmoid built in one buffer: 1 / (1 + exp(-x))
        s = np.negative(a.data)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)

        def bwd(g):
            return (g * s * (1.0 + a.data * (1.0 - s)),)

        return Tensor._from_op(a.data * s, (a,), "silu", bwd)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.shape).copy(),)

        return Tensor._from_op(np.asarray(out, dtype=a.data.dtype), (a,), "sum", bwd)

    def mean(self, axis=None, keepdims: bool = False):
        a = self
        out = a.data.mean(axis=axis, keepdims=keepdims)
        count = a.data.size if axis is None else a.data.size // out.size

        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g / count, a.shape).copy(),)

        return Tensor._from_op(np.asarray(out, dtype=a.data.dtype), (a,), "mean", bwd)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        src = a.shape
        return Tensor._from_op(
            a.data.reshape(shape), (a,), "reshape", lambda g: (g.reshape(src),)
        )

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inv = np.argsort(axes)
        return Tensor._from_op(
            np.transpose(a.data, axes), (a,), "transpose", lambda g: (np.transpose(g, inv),)
        )

    def narrow(self, axis: int, start: int, length: int):
        a = self
        idx = [slice(None)] * a.ndim
        idx[axis] = slice(start, start + length)
        idx = tuple(idx)

        def bwd(g):
            full = np.zeros(a.shape, dtype=a.data.dtype)
            full[idx] = g
            return (full,)

        return Tensor._from_op(a.data[idx].copy(), (a,), "narrow", bwd)

    # -- autodiff ------------------------------------------------------------

    def backward(self) -> None:
        """Populate ``.grad`` of every reachable leaf with dSelf/dLeaf.

        Requires a scalar (single-element) tensor. Accumulates: clear the
        leaves' gradients (``ParamStore.zero_grad``) between independent passes.
        """
        if self.data.size != 1:
            raise UsageError(f"backward requires a scalar loss, got shape {self.shape}")
        order = _toposort(self)
        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._op is None:
                if node.requires_grad:
                    node.grad.data += g.reshape(node.shape)
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


def _toposort(root: Tensor) -> list:
    out = []
    visited = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            out.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._op is not None or p.requires_grad:
                stack.append((p, False))
    return out


# -- free functions ----------------------------------------------------------


def ones(shape, dtype: str = "f32", requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=DTYPES[dtype]), dtype, requires_grad)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two dims; leading dims broadcast.

    A 2-D right operand (a weight) multiplies all leading dims of ``a`` as one
    flat [rows, k] GEMM, forward and for the input gradient. The weight
    gradient stays a batched product summed over the batch: a flat one would
    add the rows in another order and change every training loss.
    """
    if not isinstance(b, Tensor):
        b = a._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    if a.data.dtype != b.data.dtype:
        raise UsageError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    flat = b.ndim == 2
    if flat:
        rows = math.prod(a.shape[:-1])
        out = np.matmul(a.data.reshape(rows, a.shape[-1]), b.data)
        out = out.reshape(*a.shape[:-1], b.shape[-1])
    else:
        out = np.matmul(a.data, b.data)

    def bwd(g):
        if flat:
            ga = np.matmul(g.reshape(rows, b.shape[-1]), b.data.T).reshape(a.shape)
        else:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
        return ga, gb

    return Tensor._from_op(out, (a, b), "matmul", bwd)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last dim. Rejects NaN/Inf inputs."""
    if x.shape[-1] < 1:
        raise ShapeError("softmax needs a non-empty last extent")
    # NaN and +Inf propagate into the row max the shift needs anyway; -Inf is
    # caught by the row min. Cheaper than isfinite over the full array.
    hi = x.data.max(axis=-1, keepdims=True)
    if not np.isfinite(hi).all() or not np.isfinite(x.data.min()):
        raise NumericError("softmax input contains NaN or Inf")
    # one allocation: the output holds the shift, then exp, then the quotient
    out = np.subtract(x.data, hi)
    np.exp(out, out=out)
    np.divide(out, out.sum(axis=-1, keepdims=True), out=out)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - dot) * out,)

    return Tensor._from_op(out, (x,), "softmax", bwd)


def rms_norm(x: Tensor, gain: Tensor, eps: float) -> Tensor:
    """y = x / sqrt(mean(x^2, last) + eps) * gain, gain broadcast over leading dims."""
    if eps <= 0:
        raise UsageError(f"rms_norm eps must be positive, got {eps}")
    gain = x._coerce(gain)
    if gain.shape[-1] != x.shape[-1]:
        raise ShapeError(
            f"gain last extent {gain.shape} does not match input last extent {x.shape}"
        )
    sq = x.data * x.data
    r = 1.0 / np.sqrt(sq.mean(axis=-1, keepdims=True) + eps)
    xhat = np.multiply(x.data, r, out=sq)  # the squares are spent; reuse their buffer
    out = xhat * gain.data

    def bwd(g):
        gx_hat = g * gain.data
        dx = r * (gx_hat - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True))
        ggain = _unbroadcast(g * xhat, gain.shape)
        return dx, ggain

    return Tensor._from_op(out, (x, gain), "rms_norm", bwd)


def avg_pool2d(x: Tensor, factor: int) -> Tensor:
    """Mean over non-overlapping factor x factor blocks of the last two dims."""
    if factor == 1:
        return x
    h, w = x.shape[-2], x.shape[-1]
    if h % factor or w % factor:
        raise ShapeError(f"extents ({h},{w}) not divisible by pool factor {factor}")
    lead = x.shape[:-2]
    blocked = x.data.reshape(*lead, h // factor, factor, w // factor, factor)
    out = blocked.mean(axis=(-3, -1))

    def bwd(g):
        gb = g[..., :, None, :, None] / (factor * factor)
        gb = np.broadcast_to(gb, (*lead, h // factor, factor, w // factor, factor))
        return (gb.reshape(x.shape).copy(),)

    return Tensor._from_op(out, (x,), "avg_pool2d", bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise UsageError("concat of zero tensors")
    dt = tensors[0].data.dtype
    for t in tensors:
        if t.data.dtype != dt:
            raise UsageError("concat dtype mismatch")
    sizes = [t.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        pieces = []
        start = 0
        for s in sizes:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(start, start + s)
            pieces.append(g[tuple(idx)])
            start += s
        return tuple(pieces)

    return Tensor._from_op(out, tuple(tensors), "concat", bwd)


def split(x: Tensor, sizes, axis: int = 0) -> list:
    if sum(sizes) != x.shape[axis]:
        raise ShapeError(f"split sizes {sizes} do not cover extent {x.shape[axis]}")
    outs = []
    start = 0
    for s in sizes:
        outs.append(x.narrow(axis, start, s))
        start += s
    return outs


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: out[i] = table[ids[i]]. Scatter-add on backward."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise DataError(
            f"embedding id out of range [0, {table.shape[0]}): {ids.min()}..{ids.max()}"
        )

    def bwd(g):
        full = np.zeros(table.shape, dtype=table.data.dtype)
        np.add.at(full, ids, g)
        return (full,)

    return Tensor._from_op(table.data[ids], (table,), "embedding", bwd)


def _rotate_pairs(a: np.ndarray) -> np.ndarray:
    ar = a.reshape(*a.shape[:-1], -1, 2)
    out = np.empty_like(ar)
    out[..., 0] = -ar[..., 1]
    out[..., 1] = ar[..., 0]
    return out.reshape(a.shape)


def apply_rotary(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    """Rotate adjacent dim pairs of x by per-position angles given as cos/sin tables.

    The backward of a rotation is the rotation by the negated angle.
    """
    if x.shape[-1] % 2:
        raise ShapeError(f"rotary needs an even last extent, got {x.shape}")
    cos = np.asarray(cos, dtype=x.data.dtype)
    sin = np.asarray(sin, dtype=x.data.dtype)
    out = x.data * cos + _rotate_pairs(x.data) * sin

    def bwd(g):
        return (g * cos + _rotate_pairs(g) * (-sin),)

    return Tensor._from_op(out, (x,), "rotary", bwd)


def sinusoid(positions, dim: int, dtype: str = "f32", max_period: float = 10000.0) -> Tensor:
    """Sinusoidal feature table: [len(positions), dim], first half sin, second half cos."""
    if dim % 2:
        raise ShapeError(f"sinusoid dim must be even, got {dim}")
    pos = np.asarray(positions, dtype=np.float64).reshape(-1)
    half = dim // 2
    freqs = np.exp(-math.log(max_period) * np.arange(half) / half)
    args = pos[:, None] * freqs[None, :]
    table = np.concatenate([np.sin(args), np.cos(args)], axis=-1)
    return Tensor(table.astype(DTYPES[dtype]), dtype)
