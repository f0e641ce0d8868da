"""Outside-in span tracing for the traced benchmark run.

The program has no tracing hooks of its own, so the traced run wraps public
functions of its layers from here. A function bound into several modules by
``from ... import`` has one binding per module; every binding of the original
object inside ``lumina_mini`` is replaced, otherwise a caller that reaches
the function through another module's name records nothing (sampling reaches
``timestep_embedding_batch`` through ``model.blocks``, not ``model.network``).
Methods (``Tensor.backward``, ``AdamW.step``) are patched on their class.

Spans (name, start, end, parent, op id) are appended to flat lists in memory
and written out once, when the run ends. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time

PACKAGE = "lumina_mini"


class SpanLog:
    """In-memory span store plus named counters computed from call shapes."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.counters: dict = {}
        self.op = 0
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            f.write("index,op,name,start_s,end_s,parent\n")
            for i, name in enumerate(self.names):
                f.write(
                    f"{i},{self.ops[i]},{name},{self.starts[i]!r},{self.ends[i]!r},"
                    f"{self.parents[i]}\n"
                )


def self_times(starts, ends, parents) -> list:
    """Per span: duration minus the union of its children's intervals, each
    child clipped to its parent."""
    children: dict = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], s), min(ends[c], e)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((e - s) - covered)
    return out


# -- computed costs, from shapes only ------------------------------------------


def _nbytes(x) -> float:
    return float(getattr(getattr(x, "data", x), "nbytes", 0))


def _matmul_cost(log, name, args, kwargs, result):
    a, b = args[0], args[1]
    out = result.data
    log.add(f"{name}.flop", 2.0 * out.size * a.shape[-1])
    log.add(f"{name}.bytes", _nbytes(a) + _nbytes(b) + out.nbytes)


def _softmax_cost(log, name, args, kwargs, result):
    log.add(f"{name}.bytes", _nbytes(args[0]) + _nbytes(result))


def _forward_samples(log, name, args, kwargs, result):
    log.add(f"{name}.samples", float(result.shape[0]))


def _file_size(log, name, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    log.add(f"{name}.bytes", float(os.path.getsize(path)))


def _nfe(log, name, args, kwargs, result):
    images, report = result
    n = len(images) if isinstance(images, list) else 1
    log.add("sampler.images", float(n))
    log.add("sampler.nfe.conditional", float(report.conditional * n))
    log.add("sampler.nfe.unconditional", float(report.unconditional * n))
    log.add("sampler.nfe.skipped", float(report.skipped * n))


# (span name, module, attribute or Class.method, cost hook)
TARGETS = (
    ("numerics.matmul", "lumina_mini.numerics.tensor", "matmul", _matmul_cost),
    ("numerics.softmax", "lumina_mini.numerics.tensor", "softmax_lastdim", _softmax_cost),
    ("numerics.rms_norm", "lumina_mini.numerics.tensor", "rms_norm", None),
    ("numerics.rotary", "lumina_mini.numerics.tensor", "apply_rotary", None),
    ("numerics.backward", "lumina_mini.numerics.tensor", "Tensor.backward", None),
    ("model.forward", "lumina_mini.model.network", "forward_batch", _forward_samples),
    ("model.block", "lumina_mini.model.blocks", "block_batch", None),
    ("model.attention", "lumina_mini.model.blocks", "attention_batch", None),
    ("model.rope", "lumina_mini.model.rope", "apply_mrope", None),
    ("model.t_embed", "lumina_mini.model.blocks", "timestep_embedding_batch", None),
    ("model.checkpoint.load", "lumina_mini.model.checkpoint", "load_checkpoint", _file_size),
    ("model.checkpoint.save", "lumina_mini.model.checkpoint", "save_checkpoint", _file_size),
    ("flow.fm_loss", "lumina_mini.flow", "fm_loss", None),
    ("flow.aux_loss", "lumina_mini.flow", "aux_loss", None),
    ("trainer.step", "lumina_mini.trainer.stages", "train_step", None),
    ("trainer.data", "lumina_mini.trainer.stages", "draw_batch", None),
    ("trainer.clip", "lumina_mini.trainer.optim", "clip_grad_norm", None),
    ("trainer.optimizer", "lumina_mini.trainer.optim", "AdamW.step", None),
    ("trainer.save_state", "lumina_mini.trainer.stages", "save_state", None),
    ("synthdata.render", "lumina_mini.synthdata.scene", "render_scene", None),
    ("synthdata.dataset_build", "lumina_mini.synthdata.dataset", "build_hierarchical_dataset",
     None),
    ("sampler.sample", "lumina_mini.sampler.run", "sample", _nfe),
    ("sampler.sample_batch", "lumina_mini.sampler.run", "sample_batch", _nfe),
    ("sampler.teacache", "lumina_mini.sampler.teacache", "teacache_gate", None),
    ("evalharness.adherence", "lumina_mini.evalharness.adherence", "adherence_eval", None),
    ("evalharness.classify", "lumina_mini.evalharness.classify", "classify_image", None),
)


def _traced(log: SpanLog, name: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = log.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            log.close(idx)
        if hook is not None:
            hook(log, name, args, kwargs, result)
        return result

    return traced


def module_bindings(original):
    """(module, attribute) for every module of the package that binds ``original``."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, attr))
    return out


class Patch:
    """Replaces bindings and restores them on ``restore``; reports targets
    that no longer exist instead of failing on them."""

    def __init__(self):
        self.saved: list = []  # (owner, attribute, original)
        self.absent: list = []
        self.bound: dict = {}  # span name -> ["module.attr", ...]

    def wrap(self, name: str, module: str, attr: str, make) -> None:
        try:
            owner = importlib.import_module(module)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, meth)
        except (ImportError, AttributeError):
            self.absent.append(name)
            return
        wrapper = make(original)
        sites = [(owner, meth)] if cls_name else module_bindings(original)
        for site, site_attr in sites:
            self.saved.append((site, site_attr, original))
            setattr(site, site_attr, wrapper)
        self.bound[name] = [f"{getattr(s, '__name__', s)}.{a}" for s, a in sites]

    def restore(self) -> None:
        for site, attr, original in reversed(self.saved):
            setattr(site, attr, original)
        self.saved.clear()


def install(log: SpanLog, targets=TARGETS) -> Patch:
    patch = Patch()
    for name, module, attr, hook in targets:
        patch.wrap(name, module, attr, lambda fn, n=name, h=hook: _traced(log, n, fn, h))
    return patch


# -- aggregation ----------------------------------------------------------------


class Totals:
    """Per span name: calls, total ms and self ms; optionally only spans whose
    parent has a given name."""

    def __init__(self, log: SpanLog):
        self.log = log
        self.self_s = self_times(log.starts, log.ends, log.parents)
        self.by_name: dict = {}
        for i, n in enumerate(log.names):
            self.by_name.setdefault(n, []).append(i)

    def _rows(self, name, parent=None):
        log = self.log
        for i in self.by_name.get(name, ()):
            p = log.parents[i]
            if parent is None or (p >= 0 and log.names[p] == parent):
                yield i

    def calls(self, name, parent=None) -> int:
        return sum(1 for _ in self._rows(name, parent))

    def ms(self, name, parent=None) -> float:
        log = self.log
        return 1000.0 * sum(log.ends[i] - log.starts[i] for i in self._rows(name, parent))

    def self_ms(self, name) -> float:
        return 1000.0 * sum(self.self_s[i] for i in self._rows(name))
