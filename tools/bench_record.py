"""Record perfbench runs of one or more checkouts as BENCH_<short-sha>.json.

    python3 tools/bench_record.py PARENT_CHECKOUT CHANGE_CHECKOUT

Each checkout must be a git clone whose HEAD is the commit to measure.  For
every seed 1-10 and every workload in BENCHMARK.json, ``perfbench/run.py`` runs
unchanged, once per checkout, in a fresh process; the checkout that goes first
alternates from seed to seed, so neither side always runs on a warmer box.
Each run's two output lines (detail and result) are kept.  One record per
checkout is written to the current directory, with the median and the
interquartile range, per workload, of each end-to-end metric, of each other
figure of the detail line (``figures``: per-suite or per-command seconds such
as ``lamperti_s``) and of the number of passes a run made (``passes``).

Given exactly two checkouts, the first the parent and the second the change,
it also prints to stderr, for each workload and end-to-end metric, the two
medians with their IQRs, the seeds at which the change reads lower, and
whether a claimed gain would hold: lower in at least 9 of 10 pairs, and the
medians apart by more than the parent's IQR.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = list(range(1, 11))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    detail, result = done.stdout.splitlines()[-2:]
    return {"workload": workload, "seed": seed,
            "detail": json.loads(detail), "result": json.loads(result)}


def _stats(values: list) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1, "values": values}


def _summary(runs: list, workloads: list) -> dict:
    out = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        results = [r["result"] for r in mine]
        details = [r["detail"] for r in mine]
        out[workload] = {"runs": len(results),
                         "failed": sum(r["failed"] for r in results),
                         "attempted": sum(r["attempted"] for r in results)}
        for name in results[0]["metrics"]:
            out[workload][name] = _stats([r["metrics"][name]["value"] for r in results])
        out[workload]["figures"] = {
            name: _stats([d["figures"][name]["value"] for d in details])
            for name in details[0]["figures"] if name not in results[0]["metrics"]}
        out[workload]["passes"] = _stats([len(d["passes"]) for d in details])
    return out


def _compare(parent: list, change: list, metrics: list) -> list:
    """The comparison lines for two checkouts' runs, paired by workload and seed."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in parent):
        for name in metrics:
            before, after = ({r["seed"]: r["result"]["metrics"][name]["value"]
                              for r in runs if r["workload"] == workload}
                             for runs in (parent, change))
            lower = sum(after[seed] < value for seed, value in before.items())
            b, a = _stats(list(before.values())), _stats(list(after.values()))
            holds = 10 * lower >= 9 * len(before) and b["median"] - a["median"] > b["iqr"]
            lines.append(f"{workload} {name}: {b['median']:.4g} (IQR {b['iqr']:.3g}) -> "
                         f"{a['median']:.4g} (IQR {a['iqr']:.3g}), lower in "
                         f"{lower}/{len(before)}; a claimed gain {'holds' if holds else 'fails'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=Path)
    args = parser.parse_args(argv)
    declared = json.loads((args.checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    runs = {c: [] for c in args.checkouts}
    for k, seed in enumerate(SEEDS):
        shift = k % len(args.checkouts)
        order = args.checkouts[shift:] + args.checkouts[:shift]
        for workload in workloads:
            for checkout in order:
                runs[checkout].append(_run(checkout, workload, seed, declared["run_seconds"]))
                print(f"seed {seed} {workload} {checkout}", file=sys.stderr)
    for checkout, done in runs.items():
        sha = done[0]["detail"]["metadata"]["git_sha"]
        record = {"git_sha": sha, "seeds": SEEDS,
                  "command": "python3 perfbench/run.py --workload W --seed S "
                             f"--seconds {declared['run_seconds']}",
                  "summary": _summary(done, workloads), "runs": done}
        Path(f"BENCH_{sha[:7]}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                 encoding="utf-8")
    if len(runs) == 2:
        metrics = [m["name"] for m in declared["end_to_end"]]
        print("\n".join(_compare(*runs.values(), metrics)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
