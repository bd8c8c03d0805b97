import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import critwin
from critwin import cli
from critwin.cli import main
from critwin import AldousWindow, GeneralWindow, RunConfig, make_stream, simulate_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_chain_writes_artifacts_and_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys,
        "simulate-chain",
        "--n", "500", "--x", "1.0", "--lambda", "0.5",
        "--seed", "3", "--replicates", "3",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload["outputs"]) == {"trace_0000.csv", "trace_0001.csv", "trace_0002.csv"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n"] == 500
    assert manifest["config"]["k"] == 7
    # trace contents match the library run with the same stream
    cfg = RunConfig(n=500, x=1.0, window=AldousWindow(0.5))
    trace = simulate_trace(cfg, rng=make_stream(3, 1, "chain"))
    lines = (out / "trace_0001.csv").read_text().splitlines()
    assert lines[0] == "h,Z,C"
    assert lines[1] == f"0,{trace.Z[0]},{trace.C[0]}"
    assert len(lines) == trace.Z.size + 1


def test_replay_reproduces_identical_digests(tmp_path, capsys):
    args = (
        "simulate-chain", "--n", "300", "--x", "1.0",
        "--seed", "11", "--replicates", "2",
    )
    code1, out1, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    code2, out2, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    assert json.loads(out1)["outputs"] == json.loads(out2)["outputs"]


def test_simulate_chain_threads_match_serial(tmp_path, capsys):
    base = ("simulate-chain", "--n", "300", "--x", "1.0", "--seed", "5",
            "--replicates", "4")
    _, out1, _ = run_cli(capsys, *base, "--threads", "1", "--out", str(tmp_path / "s"))
    _, out2, _ = run_cli(capsys, *base, "--threads", "3", "--out", str(tmp_path / "t"))
    assert json.loads(out1)["outputs"] == json.loads(out2)["outputs"]


def test_simulate_graph_outputs_consistent_series(tmp_path, capsys):
    out = tmp_path / "g"
    code, stdout, _ = run_cli(
        capsys,
        "simulate-graph",
        "--n", "60", "--x", "1.0", "--lambda", "1.0",
        "--seed", "2", "--replicates", "1",
        "--out", str(out),
    )
    assert code == 0
    trace = np.loadtxt(out / "trace_0000.csv", delimiter=",", skiprows=1, ndmin=2, dtype=np.int64)
    cousin = np.loadtxt(out / "cousin_0000.csv", delimiter=",", skiprows=1, ndmin=2, dtype=np.int64)
    z, c = trace[:, 1], trace[:, 2]
    assert np.array_equal(np.cumsum(z), c)
    # K column telescopes the csn column
    csn, K = cousin[:, 1], cousin[:, 2]
    assert K[0] == 0
    assert np.array_equal(K[1:], np.cumsum(csn)[:-1])
    assert c[-1] == csn.size


def test_simulate_graph_walk_flag(tmp_path, capsys):
    out = tmp_path / "w"
    code, stdout, _ = run_cli(
        capsys,
        "simulate-graph",
        "--n", "40", "--x", "1.0", "--seed", "8", "--replicates", "1",
        "--walk", "--out", str(out),
    )
    assert code == 0
    assert "walk_0000.csv" in json.loads(stdout)["outputs"]
    lines = (out / "walk_0000.csv").read_text().splitlines()
    assert lines[0] == "i,X"
    assert lines[1] == "0,0"
    assert len(lines) == 42  # header + X(0..n)
    # full exploration ends at -(number of components)
    assert int(lines[-1].split(",")[1]) < 0


def test_simulate_graph_prints_its_outputs_sorted_as_the_manifest(tmp_path, capsys):
    out = tmp_path / "w"
    code, stdout, _ = run_cli(
        capsys,
        "simulate-graph", "--n", "40", "--x", "1.0", "--seed", "8", "--replicates", "2",
        "--walk", "--out", str(out),
    )
    assert code == 0
    printed = list(json.loads(stdout)["outputs"].items())
    assert len(printed) == 6
    assert printed == sorted(printed)
    assert printed == list(json.loads((out / "manifest.json").read_text())["outputs"].items())


def test_verify_out_writes_report_and_sweep(tmp_path, capsys):
    out = tmp_path / "v"
    code, stdout, _ = run_cli(
        capsys, "verify", "--suite", "moments", "--out", str(out)
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert "duration_s" not in report
    sweep_lines = (out / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "n,quantity,sup_value"
    assert len(sweep_lines) == 1 + 3 * 4  # three quantities, four n values
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == {"report.json", "sweep.csv"}
    assert manifest["config"]["seed"] == report["seed"] == 20260810


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_tool_digests_the_bytes_verify_writes(tmp_path, capsys, monkeypatch):
    # tools/reports.py restates report.json's byte format; it must hash what
    # `verify --out` writes
    monkeypatch.delenv("CW_SEED", raising=False)
    reports = _tool("reports")
    out = tmp_path / "v"
    code, _, _ = run_cli(capsys, "verify", "--suite", "kernel", "--out", str(out))
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert reports._entry("kernel", None)["sha256"] == manifest["outputs"]["report.json"]


def test_bench_record_compares_two_checkouts_seed_by_seed():
    # the change reads lower at 9 of 10 seeds in peak_rss_mb, 4 MiB apart
    # against a parent IQR of 0.45: a gain claim holds; in wall_s the medians
    # are 0.05 s apart against an IQR of 0.045, but it reads lower at only 8
    def runs(values):
        return [{"workload": "w", "seed": seed,
                 "result": {"metrics": {name: {"value": v[seed - 1]}
                                        for name, v in values.items()}}}
                for seed in range(1, 11)]

    parent = runs({"peak_rss_mb": [50 + s / 10 for s in range(10)],
                   "wall_s": [5.0 + s / 100 for s in range(10)]})
    change = runs({"peak_rss_mb": [46 + s / 10 for s in range(9)] + [60],
                   "wall_s": [4.95 + s / 100 for s in range(8)] + [9, 9]})
    lines = _tool("bench_record")._compare(parent, change, ["peak_rss_mb", "wall_s"])
    assert lines == [
        "w peak_rss_mb: 50.45 (IQR 0.45) -> 46.45 (IQR 0.45), lower in 9/10; "
        "a claimed gain holds",
        "w wall_s: 5.045 (IQR 0.045) -> 4.995 (IQR 0.045), lower in 8/10; "
        "a claimed gain fails",
    ]


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CW_SEED", "77")
    out = tmp_path / "o"
    code, _, _ = run_cli(
        capsys, "simulate-chain", "--n", "100", "--x", "1.0", "--out", str(out)
    )
    assert code == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["seed"] == 77


def test_bad_config_exits_one(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "simulate-chain", "--n", "0", "--x", "1.0", "--out", str(tmp_path / "o")
    )
    assert code == 1
    assert "error" in err


def test_replicates_zero_exits_one(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "simulate-chain", "--n", "10", "--x", "1.0", "--replicates", "0",
        "--out", str(tmp_path / "o"),
    )
    assert code == 1


def test_simulate_chain_max_steps_below_one_exits_one_before_any_work(tmp_path, capsys):
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys,
        "simulate-chain", "--n", "100", "--x", "1", "--max-steps", "0", "--out", str(out),
    )
    assert code == 1
    assert "--max-steps" in err
    assert stdout == ""
    assert not out.exists()


def test_unwritable_out_dir_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a dir")
    code, _, err = run_cli(
        capsys,
        "simulate-chain", "--n", "10", "--x", "1.0",
        "--out", str(blocker / "sub"),
    )
    assert code == 2
    assert "i/o" in err.lower()


def test_verify_makes_out_before_the_suite_runs(tmp_path, capsys, monkeypatch):
    ran = []

    def suite(seed):
        ran.append(seed)
        return critwin.ComparisonReport(test_name="stub", statistic=0.0, passed=True)

    monkeypatch.setitem(critwin.verify.SUITES, "moments", suite)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a dir")
    code, stdout, err = run_cli(
        capsys, "verify", "--suite", "moments", "--out", str(blocker / "sub")
    )
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("i/o error: ")
    assert ran == []


def test_continuum_deterministic_emits_closed_form(tmp_path, capsys):
    out = tmp_path / "d"
    code, _, _ = run_cli(
        capsys,
        "continuum", "--kind", "deterministic",
        "--x", "0.5", "--lambda", "0", "--dt", "0.5", "--t-max", "2",
        "--out", str(out),
    )
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config == {"kind": "deterministic", "x": 0.5, "lambda": 0.0, "dt": 0.5, "t_max": 2.0}
    rows = (out / "deterministic.csv").read_text().splitlines()
    assert rows[0] == "t,f,c,z,K"
    last = rows[-1].split(",")
    assert float(last[0]) == 2.0
    assert float(last[2]) == pytest.approx(0.761594, abs=1e-6)
    assert float(last[2]) == pytest.approx(math.tanh(1.0), abs=1e-12)


# SHA-256 of the curve CSV of the README run and of a run with lambda != 0,
# the only CLI kind no other digest pins.
DETERMINISTIC_GOLDEN = {
    ("0.5", "0", "0.01", "4"): "1cf6977e00056a8690d6c996ac8a45c3771dd2d3e270b8d57e03cb080a17b37a",
    ("1.3", "-0.7", "0.05", "3"): "930af41867c76b758ddbc6b50e0d76096d1ebed3b89d6d0796299a732cf72357",
}


@pytest.mark.parametrize("key", sorted(DETERMINISTIC_GOLDEN))
def test_continuum_deterministic_digests_are_golden(tmp_path, capsys, key):
    x, lam, dt, t_max = key
    code, stdout, _ = run_cli(
        capsys,
        "continuum", "--kind", "deterministic", "--x", x, "--lambda", lam, "--dt", dt,
        "--t-max", t_max, "--out", str(tmp_path / "d"),
    )
    assert code == 0
    assert json.loads(stdout)["outputs"] == {"deterministic.csv": DETERMINISTIC_GOLDEN[key]}


def test_continuum_deterministic_rejects_replicates_before_any_work(tmp_path, capsys):
    out = tmp_path / "d"
    code, stdout, err = run_cli(
        capsys, "continuum", "--kind", "deterministic", "--replicates", "5", "--out", str(out)
    )
    assert code == 1
    assert "--replicates" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seed", "5"], ["--seed", "0"], ["--threads", "2"]])
def test_continuum_deterministic_rejects_seed_and_threads_before_any_work(
    tmp_path, capsys, flags
):
    out = tmp_path / "d"
    code, stdout, err = run_cli(
        capsys, "continuum", "--kind", "deterministic", *flags, "--out", str(out)
    )
    assert code == 1
    assert "--kind deterministic" in err
    assert stdout == ""
    assert not out.exists()


def test_continuum_deterministic_does_not_read_cw_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CW_SEED", "not-an-integer")
    out = tmp_path / "d"
    code, _, _ = run_cli(
        capsys, "continuum", "--kind", "deterministic", "--threads", "1", "--out", str(out)
    )
    assert code == 0
    assert "seed" not in json.loads((out / "manifest.json").read_text())["config"]


def test_simulate_chain_manifest_records_max_steps_only_when_given(tmp_path, capsys):
    base = ("simulate-chain", "--n", "300", "--x", "1.0", "--seed", "2", "--replicates", "2")
    code, _, _ = run_cli(capsys, *base, "--out", str(tmp_path / "a"))
    assert code == 0
    code, _, _ = run_cli(capsys, *base, "--max-steps", "3", "--out", str(tmp_path / "b"))
    assert code == 0
    plain = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
    capped = json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]
    assert "max_steps" not in plain
    assert capped == {**plain, "max_steps": 3}


def test_simulate_chain_records_regime_ok_when_epsilon_cubed_overflows(tmp_path, capsys):
    # k = floor(1e220 * 100 * 1e-220) = 100 and p = 0.01 are fine; eps**3 overflows
    out = tmp_path / "d"
    code, _, err = run_cli(
        capsys,
        "simulate-chain", "--n", "100", "--x", "1e-220",
        "--epsilon", "1e110", "--out", str(out),
    )
    assert code == 0, err
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["regime_ok"] is True
    assert config["k"] == 100


def test_epsilon_alone_selects_the_drifting_window(tmp_path, capsys):
    out = tmp_path / "o"
    code, _, err = run_cli(
        capsys,
        "simulate-chain", "--n", "1000", "--x", "1", "--epsilon", "0.3", "--out", str(out),
    )
    assert code == 0, err
    config = json.loads((out / "manifest.json").read_text())["config"]
    expected = GeneralWindow(0.0, 0.3).describe(1000)
    assert set(expected) == {"window", "lambda", "epsilon", "theta", "regime_ok"}
    assert {key: config[key] for key in expected} == expected


def test_continuum_sde_and_hitting(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "continuum", "--kind", "sde", "--x", "1", "--dt", "0.001",
        "--t-max", "0.5", "--seed", "4", "--replicates", "2",
        "--out", str(tmp_path / "s"),
    )
    assert code == 0
    assert set(json.loads(stdout)["outputs"]) == {"sde_0000.csv", "sde_0001.csv"}
    code, stdout, _ = run_cli(
        capsys,
        "continuum", "--kind", "hitting", "--x", "1", "--dt", "0.001",
        "--t-max", "6", "--seed", "4", "--replicates", "3",
        "--out", str(tmp_path / "h"),
    )
    assert code == 0
    lines = (tmp_path / "h" / "hitting.csv").read_text().splitlines()
    assert lines[0] == "replicate,T,truncated"
    assert len(lines) == 4


# SHA-256 of every CSV of two small single-path runs, recorded before these
# routes were rebuilt on the ensemble kernels (`sde_ensemble` in record mode,
# the blockwise Brownian generator without a crossing test).
GOLDEN = {
    ("sde", "0.5", "2"): {
        "sde_0000.csv": "c2588b360dc6bea344ddcfb30dd2a4f38c35bcd24b7c61a8395cde705928c4ea",
        "sde_0001.csv": "f7e67f12014ae16bed485c39d15747c02846394926937eccad648c50d557c063",
        "sde_0002.csv": "50dcb4e4f0d3d3bc70e4e04d8bc14435561f5f1e9aee49f365141e37ba246aaf",
    },
    ("parabolic", "1", "1"): {
        "parabolic_0000.csv": "6b301e2e2c323f2bd14e8fe06532cc06ac7f6e7a0a370f27a87f7b6d7e819acc",
        "parabolic_0001.csv": "f7956afedc2e4ec6f213aa0c93b66987cc4a421e84ace6071c885b27bda968d9",
    },
    # recorded when the route's clock became the exact time change
    ("lamperti", "1", "1"): {
        "lamperti_0000.csv": "306501cd09bcee05a57bbd4283af8f9e27d75d074874485aa5902c4580e41d7e",
        "lamperti_0001.csv": "34ec0fb209646a956325b907ba166cb57934fe667cd277179d2b4c7bbef606d5",
    },
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_continuum_single_path_digests_are_golden(tmp_path, capsys, key):
    kind, x, t_max = key
    code, stdout, _ = run_cli(
        capsys,
        "continuum", "--kind", kind, "--x", x, "--lambda", "0.5", "--dt", "1e-3",
        "--t-max", t_max, "--seed", "7", "--replicates", str(len(GOLDEN[key])),
        "--out", str(tmp_path / "o"),
    )
    assert code == 0
    assert json.loads(stdout)["outputs"] == GOLDEN[key]


# SHA-256 of every CSV of a graph run with the walk and of a chain run, in each
# window: the Aldous runs recorded before `GraphSample` and `EpidemicTrace`
# dropped their unread fields, the drifting-window runs when `--window general`
# still had to go beside `--epsilon`.
SIMULATE_GOLDEN = {
    ("simulate-graph", "--n", "20000", "--x", "1", "--walk"): {
        "cousin_0000.csv": "a2a09cddec5eef3f3f5292f47170b97c30d217c5f1055ea94cc2ccd585cc4ea5",
        "trace_0000.csv": "35030d76a7b28ab835fa5a223561f06c1d3e593358ce44926ab5bee18941dd4e",
        "walk_0000.csv": "bd2f2f5d0e0aeb281114bc661b6468170d2b2c21f44df15346a598b01581efa6",
    },
    ("simulate-chain", "--n", "100000", "--x", "1", "--replicates", "3"): {
        "trace_0000.csv": "86734e0a76516756665def7d103c2e6ca2a6fc38660137768939bfe15ed822b3",
        "trace_0001.csv": "2652884ab67a36f2cc83d812c238894c3f83838335a91ae26d1a755b995d59d3",
        "trace_0002.csv": "c9f3a1c14575b74173c2a18d0f61d8804a68ef2d50b7f5fac5c8b97f16cfdc1f",
    },
    ("simulate-graph", "--n", "20000", "--x", "1", "--epsilon", "0.1", "--walk"): {
        "cousin_0000.csv": "1516dbc21b350e9378163d9c63dfec036e351b5960bf89390c07ba0b81317f9f",
        "trace_0000.csv": "ceb8e4dfc692b7eaa03e0fc0699f00f18f83ba39f59f88552fd01b512dc8fbe4",
        "walk_0000.csv": "bd2f2f5d0e0aeb281114bc661b6468170d2b2c21f44df15346a598b01581efa6",
    },
    ("simulate-chain", "--n", "100000", "--x", "1", "--lambda", "0.5", "--epsilon", "0.05",
     "--replicates", "3"): {
        "trace_0000.csv": "485c377a1ef4b3b8606f216bc4163d03b98ad3d5df697861bc99374c80f85a93",
        "trace_0001.csv": "59c37b43d1a2b7236fb17290482b6d76aebd0a9cef8e208dc73d9149abe735f5",
        "trace_0002.csv": "9e1114b3517aba67f947403c5c70379588196c4d8ea261ae80ef4f5f6bf010c3",
    },
}


@pytest.mark.parametrize("argv", sorted(SIMULATE_GOLDEN))
def test_simulate_digests_are_golden(tmp_path, capsys, argv):
    code, stdout, _ = run_cli(capsys, *argv, "--seed", "7", "--out", str(tmp_path / "o"))
    assert code == 0
    assert json.loads(stdout)["outputs"] == SIMULATE_GOLDEN[argv]


@pytest.mark.parametrize("command", [
    ("simulate-graph", "--n", "50", "--x", "1.0"),
    ("simulate-chain", "--n", "50", "--x", "1.0"),
    ("continuum", "--kind", "sde"),
])
def test_threads_below_one_exits_one_before_any_work(tmp_path, capsys, command):
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, *command, "--threads", "0", "--out", str(out))
    assert code == 1
    assert "--threads" in err
    assert stdout == ""
    assert not out.exists()


def test_thread_pool_capped_by_replicates_and_cpus(tmp_path, capsys, monkeypatch):
    requested = []

    class RecordingPool:  # runs serially; no thread is started
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    for threads, replicates in (("64", "3"), ("64", "6"), ("2", "6"), ("3", "1")):
        code, _, _ = run_cli(
            capsys,
            "simulate-chain", "--n", "50", "--x", "1.0", "--replicates", replicates,
            "--threads", threads, "--out", str(tmp_path / f"{threads}-{replicates}"),
        )
        assert code == 0
    assert requested == [3, 4, 2]  # a single worker runs serially without a pool


_SDE = ("continuum", "--kind", "sde")
BAD_INPUT = {
    # p or k out of range: n < 2, k = 0, p >= 1, p = nan; epsilon not > 0; then the run
    # flags, which the CLI checks itself
    **{f"{cmd}{flags[0]}-{flags[1]}": ((cmd, "--n", "100", "--x", "1", *flags), {})
       for cmd in ("simulate-graph", "simulate-chain")
       for flags in (("--n", "1"), ("--x", "0.01"), ("--lambda", "1000"), ("--lambda", "nan"),
                     ("--epsilon", "0"), ("--epsilon", "nan"),
                     ("--replicates", "0"), ("--seed", "-1"), ("--threads", "0"))},
    "chain-missing-n": (("simulate-chain", "--x", "1"), {}),
    # int32 adjacency holds at most 2**31 - 1 vertices
    "graph-n-beyond-int32": (("simulate-graph", "--n", str(2**31), "--x", "1"), {}),
    "continuum-seed-flag": ((*_SDE, "--seed", "-1"), {}),
    "continuum-seed-env": (_SDE, {"CW_SEED": "-3"}),
    "continuum-dt-nan": ((*_SDE, "--dt", "nan"), {}),
    "continuum-t-max-nan": ((*_SDE, "--t-max", "nan"), {}),
    "continuum-x-nan": ((*_SDE, "--x", "nan"), {}),
    "continuum-x-inf": ((*_SDE, "--x", "inf"), {}),
    "continuum-lambda-nan": ((*_SDE, "--lambda", "nan"), {}),
    "hitting-t-max-inf": (("continuum", "--kind", "hitting", "--t-max", "inf"), {}),
    # t_max / dt overflows: the grid would have infinitely many steps
    "continuum-grid-overflow": ((*_SDE, "--dt", "1e-300", "--t-max", "1e300"), {}),
    "deterministic-grid-overflow": (
        ("continuum", "--kind", "deterministic", "--dt", "1e-300", "--t-max", "1e300"), {}
    ),
    # lambda**2 overflows, so the Lamperti route's X grid spans 3 t0 + 8 = inf
    "lamperti-lambda-huge": (("continuum", "--kind", "lamperti", "--lambda", "1e155"), {}),
    # the route's X grid spans 3 t0 + 8 < dt
    "lamperti-span-below-dt": (
        ("continuum", "--kind", "lamperti", "--dt", "100", "--t-max", "200"), {}
    ),
    "chain-epsilon-overflow": (
        ("simulate-chain", "--n", "100", "--x", "1", "--epsilon", "1e200"), {}
    ),
    "deterministic-lambda-nan": (
        ("continuum", "--kind", "deterministic", "--lambda", "nan"), {}
    ),
    # sqrt(2x + lambda**2) rounds to |lambda|: c(t) would take atanh(-1)
    "deterministic-x-tiny": (
        ("continuum", "--kind", "deterministic", "--x", "1e-20", "--lambda", "1",
         "--dt", "0.5", "--t-max", "1"), {}
    ),
    # sqrt(2x + lambda**2) overflows
    "deterministic-x-huge": (
        ("continuum", "--kind", "deterministic", "--x", "1e308", "--lambda", "0",
         "--dt", "0.5", "--t-max", "1"), {}
    ),
    "deterministic-lambda-huge": (
        ("continuum", "--kind", "deterministic", "--lambda", "1e200"), {}
    ),
    # s is finite, but K(t) overflows on the grid
    "deterministic-k-overflow": (
        ("continuum", "--kind", "deterministic", "--x", "1e300", "--lambda", "1e150",
         "--dt", "1e99", "--t-max", "1e100"), {}
    ),
    # f(t) overflows on the grid
    "deterministic-f-overflow": (
        ("continuum", "--kind", "deterministic", "--dt", "1e199", "--t-max", "1e200"), {}
    ),
    # f and K are finite, but z = f(c) overflows once c nears t0
    "deterministic-z-overflow": (
        ("continuum", "--kind", "deterministic", "--x", "1e300", "--lambda", "1e154",
         "--dt", "0.5", "--t-max", "1"), {}
    ),
    "deterministic-t-max-below-dt": (
        ("continuum", "--kind", "deterministic", "--dt", "0.5", "--t-max", "0.1"), {}
    ),
    "verify-seed-env": (("verify", "--suite", "kernel"), {"CW_SEED": "-3"}),
    "verify-seed-flag": (("verify", "--suite", "moments", "--seed", "-5"), {}),
    "verify-unknown-suite": (("verify", "--suite", "bogus"), {}),
}
# What the one error line must name, where the failing value is not itself a flag
BAD_INPUT_NAMES = {
    "lamperti-lambda-huge": ("--x", "--lambda", "3 t0 + 8"),
    "lamperti-span-below-dt": ("--dt", "3 t0 + 8"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_one_before_out_exists(tmp_path, capsys, monkeypatch, case):
    argv, env = BAD_INPUT[case]
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert all(word in err for word in BAD_INPUT_NAMES.get(case, ()))
    assert not out.exists()


def test_continuum_bad_dt_exits_one(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "continuum", "--kind", "sde", "--dt", "0", "--out", str(tmp_path / "o"),
    )
    assert code == 1


def test_lamperti_runs_where_the_deterministic_curve_is_undefined(tmp_path, capsys):
    # the Lamperti route reads only t0 of the deterministic limit
    code, _, _ = run_cli(
        capsys,
        "continuum", "--kind", "lamperti", "--x", "1e-20", "--lambda", "1",
        "--dt", "0.5", "--t-max", "1", "--out", str(tmp_path / "o"),
    )
    assert code == 0


def test_continuum_unknown_kind_exits_one(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "continuum", "--kind", "warp", "--out", str(tmp_path / "o"),
    )
    assert code == 1


def test_verify_unknown_suite_exits_one(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1
    assert "unknown suite" in err


def test_run_suite_rejects_unknown_suite_and_negative_seed():
    with pytest.raises(critwin.ConfigError, match="unknown suite"):
        critwin.run_suite("bogus")
    for suite in ("kernel", "moments", "identities", "cousin"):
        with pytest.raises(critwin.ConfigError, match="non-negative"):
            critwin.run_suite(suite, seed=-1)


def test_verify_identities_passes_with_json_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "--suite", "identities", "--seed", "1")
    assert code == 0
    lines = [line for line in stdout.splitlines() if line.strip()]
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["pass"] is True
    assert payload["suite"] == "identities"
    assert payload["tolerance"] == 0.0


def _strict_json(line):
    """json.loads that rejects NaN and infinities, which are not valid JSON."""
    def reject(token):
        raise ValueError(f"not valid JSON: {token}")

    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize(
    "suite", ["kernel", "identities", "moments", "cousin", "klimit", "components"]
)
def test_fast_suites_print_one_json_line(capsys, suite):
    code, stdout, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 1
    payload = _strict_json(lines[0])
    assert payload["suite"] == suite
    assert payload["pass"] is True
    assert payload["seed"] == 20260810


def test_verify_takes_no_config_file(tmp_path, capsys):
    # every suite is a function of its seed alone, so verify reads no file
    cfg = tmp_path / "v.cfg"
    cfg.write_text("seed = 3\n")
    out = tmp_path / "d"
    code, stdout, err = run_cli(
        capsys, "verify", "--suite", "kernel", "--config", str(cfg), "--out", str(out)
    )
    assert code == 1
    assert stdout == ""
    assert "--config" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--window"])
@pytest.mark.parametrize("command", ["simulate-graph", "simulate-chain"])
def test_simulate_takes_no_config_file_or_window_flag(tmp_path, capsys, command, flag):
    # the flags give the whole run, and --epsilon alone selects the window
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 100\nx = 1\nwindow = general\nepsilon = 0.5\n")
    value = {"--config": str(cfg), "--window": "general"}[flag]
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys,
        command, "--n", "100", "--x", "1", "--epsilon", "0.5", flag, value, "--out", str(out),
    )
    assert code == 1
    assert stdout == ""
    assert flag in err
    assert not out.exists()


def test_run_suite_takes_only_name_and_seed():
    with pytest.raises(TypeError):
        critwin.run_suite("conjecture", replicates=3)


# Recorded when `--kind hitting` still ran its own serial loop.
HITTING_GOLDEN = "3bd4e9fd8e648f12050e6e4e4cc39f1d089405534b4459abb74475894dbac6a0"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_continuum_hitting_is_golden_at_any_thread_count(tmp_path, capsys, threads):
    code, stdout, _ = run_cli(
        capsys,
        "continuum", "--kind", "hitting", "--x", "1", "--lambda", "0.5", "--dt", "1e-3",
        "--t-max", "6", "--seed", "7", "--replicates", "3", "--threads", threads,
        "--out", str(tmp_path / "h"),
    )
    assert code == 0
    assert json.loads(stdout)["outputs"] == {"hitting.csv": HITTING_GOLDEN}


@pytest.mark.parametrize("kind", ["hitting", "sde", "deterministic"])
def test_continuum_replicates_below_one_exits_one_before_any_work(tmp_path, capsys, kind):
    out = tmp_path / "o"
    code, stdout, err = run_cli(
        capsys, "continuum", "--kind", kind, "--replicates", "0", "--out", str(out)
    )
    assert code == 1
    assert "--replicates" in err
    assert stdout == ""
    assert not out.exists()


def test_importing_the_cli_does_not_load_scipy():
    src = Path(critwin.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, critwin, critwin.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_package_and_fast_suites_run_without_scipy():
    src = Path(critwin.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
import critwin, critwin.cli
for suite in ("kernel", "identities", "moments"):
    assert critwin.run_suite(suite).passed, suite
"""
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_scipy_is_a_test_only_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    groups = {"dependencies": project["dependencies"], **project["optional-dependencies"]}
    assert [name for name, reqs in groups.items() if any(r.startswith("scipy") for r in reqs)] == [
        "test"
    ]
