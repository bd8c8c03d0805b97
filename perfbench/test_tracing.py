"""Tracing must not change what the program computes, and must leave no trace.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import critwin  # noqa: E402
import critwin.cli  # noqa: E402
import critwin.verify  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import cli_op, suite_op  # noqa: E402

SEED = 11
SUITES = ("cousin", "selfsim", "identities")
_SMALL = ["--x", "1", "--lambda", "0", "--dt", "1e-3"]
COMMANDS = (
    (["simulate-graph", "--n", "20000", "--x", "1", "--replicates", "2"], 4),
    (["simulate-chain", "--n", "20000", "--x", "1", "--replicates", "20"], 20),
    (["continuum", "--kind", "sde", *_SMALL, "--t-max", "0.5", "--replicates", "2"], 2),
    (["continuum", "--kind", "lamperti", *_SMALL, "--t-max", "0.5", "--replicates", "2"], 2),
    (["continuum", "--kind", "hitting", *_SMALL, "--t-max", "2", "--replicates", "2"], 1),
)


def _outcomes(scratch: Path) -> list:
    """What each operation computed, with the timings left out."""
    recs = [suite_op("suite", name, SEED) for name in SUITES]
    recs += [cli_op("cli", argv[0], argv, files, SEED, scratch) for argv, files in COMMANDS]
    return [{k: v for k, v in rec.items() if k != "seconds"} for rec in recs]


def _references() -> dict:
    """Every function and dict entry the package's modules hold, by identity."""
    refs = {}
    for name, mod in sys.modules.items():
        if name == "critwin" or name.startswith("critwin."):
            for attr, value in vars(mod).items():
                refs[(name, attr)] = id(value)
                if isinstance(value, dict):
                    for key, item in value.items():
                        refs[(name, attr, key)] = id(item)
    return refs


def test_tracing_changes_no_statistic_or_digest(tmp_path):
    untraced = _outcomes(tmp_path)
    tracer = Tracer()
    with tracer:
        traced = _outcomes(tmp_path)
    assert traced == untraced
    assert all(rec["ok"] for rec in untraced[len(SUITES):])
    m = tracer.metrics()
    assert m["cli.calls"] == len(COMMANDS)
    assert m["verify.suite_cousin.calls"] == 1  # reached through verify.SUITES
    assert m["chain.simulate_trace.calls"] >= 20  # reached through cli.simulate_trace
    assert m["continuum.sde_ensemble.calls"] >= 1
    assert m["artifacts.files"] == sum(files + 1 for _, files in COMMANDS)


def test_wrappers_cover_imports_by_name_and_are_removed():
    originals = (critwin.verify.sde_ensemble, critwin.cli.simulate_trace,
                 critwin.verify.SUITES["kernel"])
    before = _references()
    with Tracer():
        patched = (critwin.verify.sde_ensemble, critwin.cli.simulate_trace,
                   critwin.verify.SUITES["kernel"])
        assert all(p is not o and p.__wrapped__ is o for p, o in zip(patched, originals))
        assert critwin.continuum.sde_ensemble is critwin.verify.sde_ensemble
        assert critwin.sde_ensemble is critwin.verify.sde_ensemble
    assert _references() == before


def test_spans_nest_and_survive_exceptions():
    tracer = Tracer()
    with tracer:
        try:
            critwin.graph.sample_graph(0, 0.5, critwin.make_stream(1, 0, "x"))
        except ValueError:
            pass
        critwin.verify.run_suite("moments", seed=1)
    m = tracer.metrics()
    assert m["graph.sample_graph.calls"] == 1
    assert m["verify.suite_moments.calls"] == 1
    assert m["moments.bound_sweep.calls"] == 1
    assert m["verify.suite_moments.s"] >= m["moments.bound_sweep.s"]
    assert abs(m["verify.suite_moments.self_s"]
               - (m["verify.suite_moments.s"] - m["moments.bound_sweep.s"])) < 1e-9
    assert all(parent < i for i, (_, _, _, parent) in enumerate(tracer.spans))
