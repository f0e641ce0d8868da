"""Repository benchmark for lumina-mini.

    python3 perfbench/run.py --workload {train,sample,eval} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, never from an installed copy. One run is a
single process and a closed loop with one client. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run. The
line before it holds the full record (provenance, per-resolution step
medians, latency tail, errors), which is also written to
``perfbench/out/``. Exit codes: 0 when every output checked correct, 1 when
an operation failed, 2 when the program or ``BENCHMARK.json`` is missing,
3 when the metrics printed do not match ``BENCHMARK.json``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STRICT_ENV = "LUMINA_MINI_STRICT"
THREAD_ENVS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _limit_threads() -> None:
    """At most one BLAS thread per available core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_ENVS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def check_metrics(result: dict, spec: dict, trace: bool) -> list:
    """Names and units printed against the list in BENCHMARK.json."""
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing metric {k}" for k in want if k not in got]
    problems += [f"metric {k} not in BENCHMARK.json" for k in got if k not in want]
    problems += [f"metric {k} unit {got[k]} != {want[k]}" for k in want if k in got
                 and got[k] != want[k]]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "sample", "eval"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lumina_mini", "__init__.py")):
        print(f"error: no program sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2

    _limit_threads()
    strict_env = os.environ.pop(STRICT_ENV, None)
    sys.path[:0] = [SRC, HERE]
    import lumina_mini

    if os.path.dirname(os.path.abspath(lumina_mini.__file__)) != os.path.join(SRC, "lumina_mini"):
        print(f"error: imported lumina_mini from {lumina_mini.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from lmbench import runner

    import_s = time.perf_counter() - T0
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result, record = runner.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                ROOT, out_dir, import_s, strict_env)
    problems = check_metrics(result, spec, bool(args.trace))
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 3
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
