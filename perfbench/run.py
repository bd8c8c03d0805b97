"""critwin benchmark: one workload in one fresh process.

    python3 perfbench/run.py --workload verify-continuum --seed 3 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``, so
nothing is installed.  The workload's seed is passed to every suite and
command as ``seed=`` / ``--seed``.

A run first times set-up, importing ``critwin`` and ``critwin.cli``: once in
this process and twice more in fresh interpreters, reporting the median.
It then makes whole passes of the workload's operations until at least
``--seconds`` have been measured (one pass takes 20-50 s at the pinned sizes
on 2 cores, so that is one pass today) and reports medians over passes.

With ``--trace 0`` the result carries the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` the same passes run with every traced
function wrapped (see tracing.py) and the result carries the per-layer
metrics.  The untraced and traced figures come from separate runs; a traced
run reports its overhead against the untraced record of the same workload
and seed when one exists in ``perfbench/out/runs``.

Every line before the last is detail: metadata, each operation's time with
its statistic, tolerance and verdict, failures and their errors.  The last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts operations that raised, exited non-zero, or produced an
output that failed its check; ``correct`` is false when any operation
produced such a wrong output.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS, operation_figures, run_pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
UNITS = {"peak_rss_mb": "MiB", "fail_frac": "ratio"}  # every other figure is in s
_TIMED_IMPORT = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import critwin, critwin.cli; print(time.perf_counter() - t)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="measure whole passes until at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> list:
    """Import times: this process first, then fresh interpreters."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import critwin  # noqa: F401
    import critwin.cli  # noqa: F401

    samples = [perf_counter() - start]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, "-c", _TIMED_IMPORT, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout))
    return samples


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads": 1,
    }


def _wall(record: Path) -> float:
    return json.loads(record.read_text())["figures"]["wall_s"]["value"]


def untraced_wall(workload: str, seed: int) -> tuple:
    """(wall_s, basis) of the untraced record to compare a traced run against."""
    same = OUT / "runs" / f"{workload}-seed{seed}-trace0.json"
    if same.is_file():
        return _wall(same), f"untraced run, seed {seed}"
    walls = [_wall(p)
             for p in sorted((OUT / "runs").glob(f"{workload}-seed*-trace0.json"))]
    if walls:
        return statistics.median(walls), f"median of {len(walls)} untraced runs, other seeds"
    return None, "no untraced run recorded"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "critwin" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'critwin'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup_samples = measure_setup()
    meta = metadata(args)

    tracer = Tracer() if args.trace else None
    passes = []
    measured = 0.0
    with tracer or nullcontext():
        while not passes or measured < args.seconds:
            start = perf_counter()
            ops = run_pass(args.workload, args.seed, OUT / "tmp")
            wall = perf_counter() - start
            measured += wall
            passes.append({"wall_s": wall, "operations": ops})

    ops = [op for p in passes for op in p["operations"]]
    failed = sum(not op["ok"] for op in ops)
    wrong = [op for op in ops if op.get("wrong")]
    figures = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / len(ops),
    }
    for m in operation_figures(args.workload):
        figures[m] = statistics.median(
            sum(op["seconds"] for op in p["operations"] if op["figure"] == m) for p in passes)
    detail = {
        "metadata": meta,
        "figures": {name: {"value": v, "unit": UNITS.get(name, "s")}
                    for name, v in figures.items()},
        "setup_samples_s": setup_samples,
        "passes": passes,
    }
    if tracer:
        base, basis = untraced_wall(args.workload, args.seed)
        detail["trace_overhead"] = {
            "traced_wall_s": figures["wall_s"],
            "untraced_wall_s": base,
            "overhead_s": None if base is None else figures["wall_s"] - base,
            "basis": basis,
        }
        figures = detail["layers"] = tracer.metrics()
        section = "per_layer"
    else:
        section = "end_to_end"

    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    record = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    if tracer:
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(tracer.spans), encoding="utf-8")
    print(json.dumps(detail))

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in declared[section]}
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
