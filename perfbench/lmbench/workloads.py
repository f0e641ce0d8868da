"""The three benchmark workloads, each a single-process closed loop.

Every workload is driven only through public entry points of the program
(``train_step``/``save_state``/``transfer_checkpoint``, ``sample``,
``adherence_eval``, ``load_checkpoint``) and checks every output it gets:
an operation that raises, gives non-finite pixels or loss, or returns an
inconsistent report is counted as failed, and the loop goes on.

Prompts, noise, training batches and eval scenes derive from the workload
seed. The weights do not: they are ``init_params(WEIGHT_SEED)`` with the
zero-initialised ``*.ada.w`` and ``final.proj.w`` redrawn from N(0, 0.02),
because a zero-init model predicts exactly zero velocity, which makes
guidance, renorm, the reference error and the classifier degenerate. They
are the same for every seed because the TeaCache gate reads the timestep
embedding, whose weights alone decide how many steps it skips: over weight
seeds 1 to 15 the forward passes per image ranged from 19 to 25, which moved
image latency by more than the run-to-run noise. The weights reach the
program as an LMCK file read by ``load_checkpoint``.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from lumina_mini import evalharness, model, numerics, sampler, synthdata, trainer

from .tracing import Patch

WEIGHT_SEED = 0
WEIGHT_STREAM = 0xBE4C
REQUEST_STREAM = 0x5A3
EVAL_STREAM = 0xE7A1
TEMPLATE = "B"

# Two stages per pipeline repetition, as run_pipeline runs them; the 16 px
# stage is about as long as the 32 px one, so both shape the throughput.
TRAIN_STAGES = (
    dict(name="low_res", resolution=16, tier=1, steps=8, lambda_aux=0.0),
    dict(name="high_res", resolution=32, tier=2, steps=4, lambda_aux=1.0),
)
TRAIN_BATCH = 8
TRAIN_LR = 8e-4
DATASET_SCENES = 1000  # tier 2 keeps 9%: 90 scenes

# The paper's inference suite. On these weights delta 0.3 and 0.6 skip no
# step of 20; delta 1.0 skips 9, so the gate is exercised.
SAMPLE_GUIDANCE = dict(w=4.0, renorm=True, trunc_alpha=0.6)
SAMPLE_SOLVER = dict(solver="fdpm", steps=20, teacache_delta=1.0)
REFERENCE_GUIDANCE = dict(w=4.0, renorm=False, trunc_alpha=1.0)
REFERENCE_SOLVER = dict(solver="euler", steps=20)
REFERENCE_REQUESTS = 8
# One caption granularity, as the CLI and adherence_eval use: the reference
# error grows with caption length (about 1.7e-4 for tags, 4.7e-4 for
# detailed captions), so mixing granularities would dominate its spread.
GRANULARITY = "short"
REQUEST_POOL = 256
RESOLUTION = 32

EVAL_BATCH = 10
EVAL_GUIDANCE = dict(w=4.0, renorm=True, trunc_alpha=0.6)
EVAL_SOLVER = dict(solver="euler", steps=10)


def make_weights(path) -> None:
    store = model.init_params(model.ModelConfig(), WEIGHT_SEED)
    rng = np.random.default_rng([WEIGHT_STREAM, WEIGHT_SEED])
    for name, t in store.items():
        if name.endswith((".ada.w", "final.proj.w")):
            t.data[...] = rng.standard_normal(t.shape) * 0.02
    model.save_checkpoint(path, store)


@dataclass
class Phase:
    """One timed closed loop: operation latencies, work done, failures."""

    op_ms: list = field(default_factory=list)  # the workload's primary operation
    ops: int = 0
    images: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def record(self, what: str, problems: list) -> None:
        """Count one attempted operation; failed if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {'; '.join(problems)}")


def call(fn):
    """(result, problems): an exception is a failed operation, not a crash."""
    try:
        return fn(), []
    except Exception as e:  # the loop must count the failure and keep running
        return None, [f"raised {type(e).__name__}: {e}"]


def image_problems(data, resolution: int = RESOLUTION) -> list:
    data = np.asarray(data)
    if data.shape != (3, resolution, resolution):
        return [f"image shape {data.shape}"]
    if not np.isfinite(data).all():
        return ["non-finite pixels"]
    return []


def nfe_problems(report, expected) -> list:
    got = (report.conditional, report.unconditional, report.skipped)
    want = (expected.conditional, expected.unconditional, expected.skipped)
    return [] if got == want else [f"NfeReport (cond, uncond, skipped) {got} != derived {want}"]


def adherence_problems(report, n: int) -> list:
    problems = []
    if report.n != n:
        problems.append(f"report n {report.n} != {n}")
    accs = {
        "color": report.color_acc,
        "shape": report.shape_acc,
        "cell": report.cell_acc,
        "joint": report.joint_acc,
    }
    for key, acc in accs.items():
        if not (0.0 <= acc <= 1.0) or abs(acc * n - round(acc * n)) > 1e-9:
            problems.append(f"{key} accuracy {acc} is not a share of {n}")
    if accs["joint"] > min(accs["color"], accs["shape"], accs["cell"]) + 1e-12:
        problems.append("joint accuracy above an attribute accuracy")
    for attr, table in report.confusion.items():
        total = sum(sum(row.values()) for row in table.values())
        if total != n:
            problems.append(f"{attr} confusion counts {total} != {n}")
    return problems


class Workload:
    name = ""
    # spans the traced run must see at least once
    expected_spans: tuple = ()

    def __init__(self, seed: int, ckpt_path: str, workdir: str):
        self.seed = seed
        self.ckpt_path = ckpt_path
        self.workdir = workdir
        self.log = None  # SpanLog during the traced phase
        self.next_op = 0

    def begin_op(self) -> None:
        self.next_op += 1
        if self.log is not None:
            self.log.op = self.next_op

    def run(self, seconds: float) -> Phase:
        """Closed loop: one round after another for at least ``seconds`` and
        at least ``min_rounds`` rounds."""
        phase = Phase()
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < self.min_rounds() or time.perf_counter() < deadline:
            self.round(phase)
            rounds += 1
        return phase

    def min_rounds(self) -> int:
        return 1

    def prepare(self, trace: bool) -> None:
        """Untimed oracle work after set-up; ``trace`` runs need no references."""

    def facts(self) -> dict:
        """Workload-specific figures for the run record."""
        return {}

    def close(self) -> None:
        pass


FORWARD_SPANS = (
    "numerics.matmul",
    "numerics.softmax",
    "numerics.rms_norm",
    "numerics.rotary",
    "model.forward",
    "model.block",
    "model.attention",
    "model.rope",
    "model.t_embed",
    "model.checkpoint.load",
)


class Train(Workload):
    """Progressive training: a 16 px stage, a resolution transfer and a 32 px
    stage, each ending in a ``save_state`` write. One round is one whole
    pipeline from the same weights, so every round repeats the same losses."""

    name = "train"
    expected_spans = FORWARD_SPANS + (
        "numerics.backward",
        "model.checkpoint.save",
        "flow.fm_loss",
        "flow.aux_loss",
        "trainer.step",
        "trainer.data",
        "trainer.clip",
        "trainer.optimizer",
        "trainer.save_state",
        "synthdata.render",
        "synthdata.dataset_build",
    )

    def setup(self) -> None:
        self.store, _, _ = model.load_checkpoint(self.ckpt_path)
        dataset = synthdata.build_hierarchical_dataset(DATASET_SCENES, seed=self.seed)
        self.tiers = dataset.tiers
        self.vocab = synthdata.build_vocabulary()
        self.plans = [
            trainer.StagePlan(batch_size=TRAIN_BATCH, lr=TRAIN_LR, template="A",
                              granularity_mix=(0.10, 0.40, 0.25, 0.25), **stage)
            for stage in TRAIN_STAGES
        ]
        self.losses = None  # the first round's losses; later rounds must repeat them

    def _fresh_state(self):
        params = self.store.clone()
        return trainer.TrainState(params=params, opt=trainer.AdamW(params, lr=TRAIN_LR))

    def warmup(self) -> None:
        state = self._fresh_state()
        for plan in self.plans:
            state.stage_index += 1
            trainer.train_step(state, plan, self.tiers[plan.tier], self.vocab)

    def round(self, phase: Phase) -> None:
        state = self._fresh_state()
        losses = []
        started = time.perf_counter()
        for k, plan in enumerate(self.plans):
            if k and plan.resolution != self.plans[k - 1].resolution:
                trainer.transfer_checkpoint(state, plan.resolution)
            state.stage_index += 1
            scenes = self.tiers[plan.tier]
            for _ in range(plan.steps):
                self.begin_op()
                t0 = time.perf_counter()
                out, problems = call(lambda: trainer.train_step(state, plan, scenes, self.vocab))
                ms = (time.perf_counter() - t0) * 1000.0
                loss = math.nan if out is None else out[0]
                if out is not None and not np.isfinite(loss):
                    problems.append(f"non-finite loss {loss}")
                pos = len(losses)
                losses.append(loss)
                if self.losses is not None and out is not None and loss != self.losses[pos]:
                    problems.append(f"loss {loss!r} differs from the first round's "
                                    f"{self.losses[pos]!r}")
                phase.record(f"train step {plan.resolution}px", problems)
                phase.extra.setdefault(f"step_ms_{plan.resolution}px", []).append(ms)
                if k == len(self.plans) - 1:
                    phase.op_ms.append(ms)
                phase.ops += 1
                phase.images += plan.batch_size
            path = os.path.join(self.workdir, f"stage{k}_{plan.name}.lmck")
            _, problems = call(lambda: trainer.save_state(path, state))
            phase.record("save_state", problems)
        phase.wall_s += time.perf_counter() - started
        if self.losses is None:
            self.losses = losses

    def facts(self) -> dict:
        return {"losses": self.losses}

    def output_error(self, phase: Phase) -> float:
        """Mean main loss over the last stage's steps of the first round."""
        last = self.plans[-1].steps
        tail = [x for x in self.losses[-last:] if np.isfinite(x)]
        return float(np.mean(tail)) if tail else math.nan


class Sample(Workload):
    """Interactive generation: one client, batch 1, 32 px; each request has a
    fresh noise seed and a prompt drawn from the scene generator."""

    name = "sample"
    expected_spans = FORWARD_SPANS + ("sampler.sample", "sampler.teacache")

    def setup(self) -> None:
        self.store, _, _ = model.load_checkpoint(self.ckpt_path)
        vocab = synthdata.build_vocabulary()
        self.uncond = synthdata.pad_prompt(synthdata.unconditional_tokens(TEMPLATE, vocab), vocab)
        rng = np.random.default_rng([REQUEST_STREAM, self.seed])
        self.requests = []
        for _ in range(REQUEST_POOL):
            scene = synthdata.generate_scene(int(rng.integers(2**40)))
            caption = synthdata.caption_scene(scene, GRANULARITY, vocab).tokens
            tokens = synthdata.pad_prompt(
                synthdata.apply_system_prompt(caption, TEMPLATE, vocab), vocab
            )
            self.requests.append((tokens, int(rng.integers(2**31))))
        self.guidance = sampler.GuidanceConfig(**SAMPLE_GUIDANCE)
        self.sconf = sampler.SamplerConfig(**SAMPLE_SOLVER)
        self.served = 0
        self.seen_prompts: set = set()

    def prepare(self, trace: bool) -> None:
        self.expected = self._derived_nfe()
        self.references = []
        if trace:
            return
        g = sampler.GuidanceConfig(**REFERENCE_GUIDANCE)
        sc = sampler.SamplerConfig(**REFERENCE_SOLVER)
        for tokens, seed in self.requests[:REFERENCE_REQUESTS]:
            image, _ = sampler.sample(self.store, tokens, g, sc, seed=seed,
                                      resolution=RESOLUTION, uncond_tokens=self.uncond)
            self.references.append(image.data.copy())

    def _derived_nfe(self):
        """NFE counts from the grid, the guidance window and the gate decisions.
        The gate reads only timestep embeddings, so its decisions are the same
        for every request and can be replayed without sampling."""
        expected = sampler.NfeReport()
        cache = sampler.CacheState()
        grid = self.sconf.grid()
        with numerics.no_grad():
            for i in range(len(grid) - 1):
                t = float(grid[i])
                evals = 1 + int(sampler.cfg_active(self.guidance, t))
                emb = model.timestep_embedding(t, self.store).data
                if sampler.teacache_gate(cache, emb, self.sconf.teacache_delta) == sampler.COMPUTE:
                    expected.unconditional += 1
                    expected.conditional += evals - 1
                else:
                    expected.skipped += evals
        return expected

    def facts(self) -> dict:
        e = self.expected
        return {
            "nfe_per_image": {"conditional": e.conditional, "unconditional": e.unconditional,
                              "skipped": e.skipped},
            "skip_share": e.skipped / (e.skipped + e.total),
        }

    def _generate(self, tokens, seed):
        return sampler.sample(self.store, tokens, self.guidance, self.sconf, seed=seed,
                              resolution=RESOLUTION, uncond_tokens=self.uncond)

    def warmup(self) -> None:
        tokens, seed = self.requests[-1]
        self._generate(tokens, seed)

    def round(self, phase: Phase) -> None:
        index = self.served
        self.served += 1
        tokens, seed = self.requests[index % (REQUEST_POOL - 1)]
        self.begin_op()
        t0 = time.perf_counter()
        out, problems = call(lambda: self._generate(tokens, seed))
        ms = (time.perf_counter() - t0) * 1000.0
        phase.wall_s += ms / 1000.0
        if out is not None:
            image, report = out
            problems += image_problems(image.data) + nfe_problems(report, self.expected)
            if not problems and index < len(self.references):
                mse = float(((image.data - self.references[index]) ** 2).mean())
                phase.extra.setdefault("mse", []).append(mse)
            phase.images += 1
        key = tuple(tokens)
        phase.extra.setdefault("repeats", []).append(key in self.seen_prompts)
        self.seen_prompts.add(key)
        phase.record(f"request {index}", problems)
        phase.op_ms.append(ms)
        phase.ops += 1

    def min_rounds(self) -> int:
        # every request that has a reference is served, so the error is defined
        return max(1, len(self.references))

    def output_error(self, phase: Phase) -> float:
        mse = phase.extra.get("mse", [])
        return float(np.mean(mse)) if mse else math.nan


class Eval(Workload):
    """Offline batch scoring: ``adherence_eval`` over one batch of 10 per call,
    euler 10 steps with renorm and truncation, no TeaCache."""

    name = "eval"
    expected_spans = FORWARD_SPANS + (
        "sampler.sample_batch",
        "evalharness.adherence",
        "evalharness.classify",
    )

    def setup(self) -> None:
        self.store, _, _ = model.load_checkpoint(self.ckpt_path)
        self.guidance = sampler.GuidanceConfig(**EVAL_GUIDANCE)
        self.sconf = sampler.SamplerConfig(**EVAL_SOLVER)
        self.rng = np.random.default_rng([EVAL_STREAM, self.seed])

    def prepare(self, trace: bool) -> None:
        # The report carries no images, so the classifier's input is checked
        # where adherence_eval hands it over.
        self.seen: list = []
        self.probe = Patch()

        def checked(fn):
            def classify_checked(img, *args, **kwargs):
                self.seen.append(image_problems(getattr(img, "data", img)))
                return fn(img, *args, **kwargs)

            return classify_checked

        self.probe.wrap("evalharness.classify", "lumina_mini.evalharness.classify",
                        "classify_image", checked)

    def _score(self, seed: int, sconf):
        return evalharness.adherence_eval(
            self.store, EVAL_BATCH, seed, guidance=self.guidance, sconf=sconf,
            resolution=RESOLUTION, batch_size=EVAL_BATCH,
        )

    def warmup(self) -> None:
        self._score(0, sampler.SamplerConfig(solver="euler", steps=1))

    def round(self, phase: Phase) -> None:
        seed = int(self.rng.integers(1, 2**16))
        self.seen.clear()
        self.begin_op()
        t0 = time.perf_counter()
        report, problems = call(lambda: self._score(seed, self.sconf))
        ms = (time.perf_counter() - t0) * 1000.0
        phase.wall_s += ms / 1000.0
        if report is not None:
            problems += adherence_problems(report, EVAL_BATCH)
            if len(self.seen) != EVAL_BATCH:
                problems.append(f"classified {len(self.seen)} images, expected {EVAL_BATCH}")
            problems += sorted({p for image in self.seen for p in image})
            if not problems:
                phase.extra.setdefault("joint_hits", []).append(report.joint_acc * report.n)
            phase.images += len(self.seen)
        phase.record(f"adherence_eval seed {seed}", problems)
        phase.op_ms.append(ms)
        phase.ops += 1

    def output_error(self, phase: Phase) -> float:
        """Share of scored images whose colour, shape or cell is wrong."""
        hits = phase.extra.get("joint_hits", [])
        return 1.0 - sum(hits) / (EVAL_BATCH * len(hits)) if hits else math.nan

    def close(self) -> None:
        if hasattr(self, "probe"):
            self.probe.restore()


WORKLOADS = {cls.name: cls for cls in (Train, Sample, Eval)}
