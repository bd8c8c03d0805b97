"""What one pass of each workload runs, and how each operation is checked.

An operation is one verify suite called through ``run_suite(name, seed=...)``
or one CLI command called in-process through ``critwin.cli.main``.  Suites
keep their pinned sizes and tolerances: their statistics are correctness
outputs.  Every CLI command runs with ``--threads 1`` and writes into a fresh
directory that is removed once its manifest has been checked.

An operation fails when it raises, when a suite's ``passed`` is not True,
when a command exits non-zero, or when a manifest's digests or file count do
not match the files written.  Failures are counted, never retried.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

# Each entry: (figure the operation's time adds to, suite name).
VERIFY = {
    "verify-continuum": (
        ("lamperti_s", "lamperti"),
        ("zlimit_s", "zlimit"),
        ("selfsim_s", "selfsim"),
        ("deterministic_s", "deterministic"),
    ),
    "verify-discrete": (
        ("conjecture_s", "conjecture"),
        ("small_suites_s", "kernel"),
        ("small_suites_s", "identities"),
        ("small_suites_s", "moments"),
        ("small_suites_s", "cousin"),
        ("small_suites_s", "klimit"),
        ("small_suites_s", "components"),
    ),
}

_CHAIN = ["--n", "1000000", "--x", "1", "--lambda", "0"]
_PATHS = ["--x", "1", "--lambda", "0", "--dt", "1e-4"]

# Each entry: (figure the operation's time adds to, operation name,
# argv without --seed/--threads/--out, number of files the manifest must list).
CLI = (
    ("simulate_graph_s", "simulate-graph",
     ["simulate-graph", *_CHAIN, "--replicates", "8"], 16),
    ("simulate_chain_s", "simulate-chain",
     ["simulate-chain", *_CHAIN, "--replicates", "2000"], 2000),
    ("continuum_paths_s", "continuum-sde",
     ["continuum", "--kind", "sde", *_PATHS, "--t-max", "2", "--replicates", "8"], 8),
    ("continuum_paths_s", "continuum-lamperti",
     ["continuum", "--kind", "lamperti", *_PATHS, "--t-max", "2", "--replicates", "8"], 8),
    ("hitting_cli_s", "continuum-hitting",
     ["continuum", "--kind", "hitting", *_PATHS, "--t-max", "12", "--replicates", "4"], 1),
)

WORKLOADS = ("verify-continuum", "verify-discrete", "simulate-cli")


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def suite_op(figure: str, name: str, seed: int) -> dict:
    """Run one suite; its statistic, tolerance and verdict sit beside its time."""
    from critwin.verify import run_suite

    rec = {"op": name, "figure": figure}
    start = perf_counter()
    try:
        report = run_suite(name, seed=seed)
    except Exception as exc:  # a raising suite is a failed operation
        rec["seconds"] = perf_counter() - start
        rec.update(ok=False, error=_error(exc))
        return rec
    rec["seconds"] = perf_counter() - start
    # suites may return numpy scalars; None means the suite gave no verdict
    verdict = None if report.passed is None else bool(report.passed)
    rec.update(
        statistic=float(report.statistic),
        tolerance=None if report.tolerance is None else float(report.tolerance),
        **{"pass": verdict},
    )
    for key in ("grid_truncated", "hitting_truncated"):
        if key in report.details:
            rec[key] = int(report.details[key])
    rec["ok"] = verdict is True
    if not rec["ok"]:
        rec.update(wrong=True, error="suite did not pass")
    return rec


def check_manifest(out: Path, expected_files: int) -> tuple[str | None, str]:
    """(problem or None, digest of the manifest's outputs table)."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    outputs = manifest["outputs"]
    table = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    if len(outputs) != expected_files or set(outputs) != on_disk:
        return (f"manifest lists {len(outputs)} files, expected {expected_files}; "
                f"{len(on_disk)} on disk"), table
    for name, digest in outputs.items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            return f"digest mismatch for {name}", table
    return None, table


def cli_op(figure: str, name: str, argv: list, expected_files: int, seed: int,
           scratch: Path) -> dict:
    """Run one CLI command in-process; check its exit code and manifest."""
    from critwin import cli

    rec = {"op": name, "figure": figure}
    scratch.mkdir(parents=True, exist_ok=True)
    out = Path(tempfile.mkdtemp(dir=scratch))
    try:
        full = [*argv, "--seed", str(seed), "--threads", "1", "--out", str(out)]
        stderr = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(full)
        except Exception as exc:  # an escaping exception is a failed operation
            rec["seconds"] = perf_counter() - start
            rec.update(ok=False, error=_error(exc))
            return rec
        rec["seconds"] = perf_counter() - start
        rec["exit_code"] = code
        if code != 0:
            rec.update(ok=False, error=f"exit code {code}: {stderr.getvalue().strip()}")
            return rec
        try:
            problem, rec["outputs_sha256"] = check_manifest(out, expected_files)
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable manifest: {_error(exc)}"
        rec["ok"] = problem is None
        if problem:
            rec.update(wrong=True, error=problem)
        return rec
    finally:
        shutil.rmtree(out, ignore_errors=True)


def run_pass(workload: str, seed: int, scratch: Path) -> list:
    """One pass of the workload's operations, in order; one record each."""
    if workload in VERIFY:
        return [suite_op(figure, name, seed) for figure, name in VERIFY[workload]]
    return [cli_op(figure, name, argv, files, seed, scratch)
            for figure, name, argv, files in CLI]


def operation_figures(workload: str) -> list:
    """Names of the per-operation time figures, in workload order."""
    ops = VERIFY[workload] if workload in VERIFY else CLI
    return list(dict.fromkeys(op[0] for op in ops))
