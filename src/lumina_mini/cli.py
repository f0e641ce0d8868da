"""Command-line entry point.

Subcommands: train | sample | eval | bench | selfcheck. Exit codes are a
stable contract: 0 success, 1 check failure, 2 usage/config error, 3 numeric
abort (non-finite loss in training, NaN/Inf activations while sampling). A
fixed seed gives bit-identical outputs; there is no mode switch for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .configio import (
    apply_overrides,
    build_model_config,
    build_stage_plans,
    default_config,
    format_config,
    parse_config,
)
from .errors import LuminaError, NanLossError, NumericError
from .evalharness import adherence_eval, inference_ablation
from .model import load_checkpoint
from .numerics import save_tensor
from .sampler import STEPS, GuidanceConfig, SamplerConfig, sample, write_ppm
from .synthdata import (
    build_hierarchical_dataset,
    build_vocabulary,
    caption_scene,
    encode_prompt,
    generate_scene,
)
from .trainer import MetricsLog, fresh_state, run_pipeline, save_state

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _split_overrides(args):
    """Peel dotted-path overrides (--section.key=value) out of an arg list."""
    overrides, rest = [], []
    for a in args:
        stripped = a.lstrip("-")
        if "=" in stripped and "." in stripped.split("=", 1)[0]:
            overrides.append(stripped)
        else:
            rest.append(a)
    return overrides, rest


def cmd_train(argv) -> int:
    parser = argparse.ArgumentParser(prog="lumina-mini train")
    parser.add_argument("--config", default=None, help="plain-text config file")
    parser.add_argument("--out", default="runs", help="output root directory")
    parser.add_argument("--run-id", default=None)
    overrides, rest = _split_overrides(argv)
    opts = parser.parse_args(rest)

    cfg = default_config()
    if opts.config is not None:
        try:
            with open(opts.config, encoding="utf-8") as f:
                text = f.read()
        except (OSError, UnicodeDecodeError) as e:
            print(f"error: cannot read config file {opts.config}: {e}", file=sys.stderr)
            return EXIT_CONFIG
        cfg = parse_config(text, cfg)
    apply_overrides(cfg, overrides)

    run_id = opts.run_id or time.strftime("%Y%m%d-%H%M%S")
    run_dir = os.path.join(opts.out, run_id)
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "resolved-config.txt"), "w") as f:
        f.write(format_config(cfg))

    model_cfg = build_model_config(cfg)
    plans = build_stage_plans(cfg)
    data = cfg["data"]
    print(f"building dataset: {data['n_total']} scenes, tiers {data['tier_fractions']}")
    dataset = build_hierarchical_dataset(
        data["n_total"], data["tier_fractions"], seed=data["seed"]
    )
    state = fresh_state(model_cfg, seed=cfg["train"]["seed"])
    metrics = MetricsLog(os.path.join(run_dir, "metrics.csv"))
    print(f"training {len(plans)} stages -> {run_dir}")
    try:
        results = run_pipeline(state, plans, dataset.tiers, metrics=metrics, ckpt_dir=run_dir)
    except NanLossError as e:
        print(f"numeric abort: {e} (replay batch seed {e.batch_seed})", file=sys.stderr)
        return EXIT_NUMERIC
    save_state(os.path.join(run_dir, "state_final.lmck"), state)
    for name, losses in results.items():
        if losses:
            print(f"  stage {name}: {len(losses)} steps, last loss {losses[-1]:.4f}")
    print(f"done at step {state.params.step}")
    return EXIT_OK


def _resolve_prompt(opts, vocab):
    if opts.prompt is not None:
        return vocab.encode(opts.prompt.split())
    scene = generate_scene(opts.scene_seed)
    return caption_scene(scene, opts.granularity, vocab).tokens


def cmd_sample(argv) -> int:
    parser = argparse.ArgumentParser(prog="lumina-mini sample")
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--prompt", default=None, help="caption words, space separated")
    parser.add_argument("--scene-seed", type=int, default=0)
    parser.add_argument("--granularity", default="short")
    parser.add_argument("--template", default="B", choices=["A", "B", "C"])
    parser.add_argument("--solver", default="euler", choices=list(STEPS))
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--cfg-w", type=float, default=4.0)
    parser.add_argument("--renorm", action="store_true")
    parser.add_argument("--trunc-alpha", type=float, default=0.6)
    parser.add_argument("--teacache-delta", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--out", default=".")
    opts = parser.parse_args(argv)

    store, _, _ = load_checkpoint(opts.ckpt)
    vocab = build_vocabulary()
    tokens = encode_prompt(_resolve_prompt(opts, vocab), opts.template, vocab)
    guidance = GuidanceConfig(w=opts.cfg_w, renorm=opts.renorm, trunc_alpha=opts.trunc_alpha)
    sconf = SamplerConfig(
        solver=opts.solver, steps=opts.steps, teacache_delta=opts.teacache_delta
    )
    image, report = sample(
        store,
        tokens,
        guidance,
        sconf,
        seed=opts.seed,
        resolution=opts.resolution,
        uncond_tokens=encode_prompt([], opts.template, vocab),
    )
    os.makedirs(opts.out, exist_ok=True)
    write_ppm(os.path.join(opts.out, "image.ppm"), image)
    save_tensor(os.path.join(opts.out, "image.lmt"), image)
    with open(os.path.join(opts.out, "nfe.json"), "w") as f:
        f.write(report.to_json() + "\n")
    print(report.to_json())
    return EXIT_OK


def cmd_eval(argv) -> int:
    parser = argparse.ArgumentParser(prog="lumina-mini eval")
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--cfg-w", type=float, default=4.0)
    parser.add_argument("--granularity", default="short")
    parser.add_argument("--template", default="B", choices=["A", "B", "C"])
    parser.add_argument("--out", default=None)
    opts = parser.parse_args(argv)

    store, _, _ = load_checkpoint(opts.ckpt)
    report = adherence_eval(
        store,
        n=opts.n,
        seed=opts.seed,
        guidance=GuidanceConfig(w=opts.cfg_w, renorm=True, trunc_alpha=0.6),
        sconf=SamplerConfig(solver="euler", steps=opts.steps),
        resolution=opts.resolution,
        granularity=opts.granularity,
        template=opts.template,
    )
    print(
        f"n={report.n} color={report.color_acc:.3f} shape={report.shape_acc:.3f} "
        f"cell={report.cell_acc:.3f} joint={report.joint_acc:.3f}"
    )
    if opts.out:
        os.makedirs(opts.out, exist_ok=True)
        with open(os.path.join(opts.out, "adherence.json"), "w") as f:
            f.write(report.to_json() + "\n")
    return EXIT_OK


def cmd_bench(argv) -> int:
    parser = argparse.ArgumentParser(prog="lumina-mini bench")
    parser.add_argument("--ckpt", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--teacache-delta", type=float, default=0.3)
    parser.add_argument("--out", default=None)
    opts = parser.parse_args(argv)

    store, _, _ = load_checkpoint(opts.ckpt)
    vocab = build_vocabulary()
    rows = inference_ablation(
        store,
        seed=opts.seed,
        steps=opts.steps,
        resolution=opts.resolution,
        teacache_delta=opts.teacache_delta,
        uncond_tokens=encode_prompt([], "B", vocab),
        csv_path=None if opts.out is None else os.path.join(opts.out, "ablation.csv"),
    )
    print(f"{'strategies':34s} {'nfe':>5s} {'skip':>5s} {'wall_ms':>9s} {'mse_vs_ref':>12s}")
    for row in rows:
        print(
            f"{row.label():34s} {row.nfe.total:5d} {row.nfe.skipped:5d} "
            f"{row.wall_ms:9.1f} {row.mse_vs_reference:12.6g}"
        )
    return EXIT_OK


def cmd_selfcheck(argv) -> int:
    parser = argparse.ArgumentParser(prog="lumina-mini selfcheck")
    parser.parse_args(argv)
    from .selfcheck import run_selfcheck

    print("running the check catalogue:")
    started = time.perf_counter()
    results = run_selfcheck(verbose=True)
    elapsed = time.perf_counter() - started
    failures = [name for name, ok, _ in results if not ok]
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    print(f"all {len(results)} checks passed in {elapsed:.1f}s")
    return EXIT_OK


COMMANDS = {
    "train": cmd_train,
    "sample": cmd_sample,
    "eval": cmd_eval,
    "bench": cmd_bench,
    "selfcheck": cmd_selfcheck,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: lumina-mini {train|sample|eval|bench|selfcheck} [options]")
        print(__doc__)
        return EXIT_OK if argv else EXIT_CONFIG
    cmd, rest = argv[0], argv[1:]
    if cmd not in COMMANDS:
        print(f"unknown command {cmd!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return COMMANDS[cmd](rest)
    except (NanLossError, NumericError) as e:
        print(f"numeric abort: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except LuminaError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
