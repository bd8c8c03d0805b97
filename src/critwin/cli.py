"""Command-line surface: simulate graphs/chains/continuum paths, run suites.

stdout carries only JSON reports; everything diagnostic goes to stderr.
Exit codes: 0 success/pass, 1 usage or config error, 2 I/O error,
3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import artifacts
from .analysis import ComparisonReport
from .chain import simulate_trace
from .continuum import (
    DeterministicLimit,
    lamperti_route,
    sample_hitting_time,
    sample_parabolic_bm,
    simulate_sde,
)
from .core import (
    ConfigError,
    CritwinError,
    RunConfig,
    config_from_mapping,
    edge_probability,
    make_stream,
    parse_config_file,
)
from .graph import breadth_first_walk, cousin_series, explore, sample_graph
from .verify import SUITES, moments_sweep, run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VERIFY = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critwin",
        description="Critical-window epidemic/random-graph simulator and verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--config", type=Path, help="key = value config file")
        p.add_argument("--n", type=int)
        p.add_argument("--x", type=float)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--window", choices=("aldous", "general"))
        p.add_argument("--seed", type=int)
        p.add_argument("--replicates", type=int)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p_graph = sub.add_parser("simulate-graph", help="sample graphs and explore them")
    add_run_flags(p_graph)
    p_graph.add_argument(
        "--walk",
        action="store_true",
        help="also emit the all-components breadth-first walk CSV per replicate",
    )

    p_chain = sub.add_parser("simulate-chain", help="simulate the height-profile chain")
    add_run_flags(p_chain)
    p_chain.add_argument("--max-steps", type=int)

    p_cont = sub.add_parser("continuum", help="simulate continuum limit objects")
    p_cont.add_argument(
        "--kind",
        required=True,
        choices=("sde", "parabolic", "lamperti", "hitting", "deterministic"),
    )
    p_cont.add_argument("--x", type=float, default=1.0)
    p_cont.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_cont.add_argument("--dt", type=float, default=1e-4)
    p_cont.add_argument("--t-max", type=float, default=2.0)
    p_cont.add_argument("--seed", type=int)
    p_cont.add_argument("--replicates", type=int, default=1)
    p_cont.add_argument("--threads", type=int, default=1)
    p_cont.add_argument("--out", type=Path, required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--config", type=Path)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", type=Path, help="also write report/artifact files")
    return parser


def _env_seed() -> int | None:
    raw = os.environ.get("CW_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"CW_SEED must be an integer, got {raw!r}") from exc


def _resolve_config(args) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    overrides = {
        "n": args.n,
        "x": args.x,
        "lambda": args.lam,
        "epsilon": args.epsilon,
        "window": args.window,
        "seed": args.seed,
        "replicates": args.replicates,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if values.get("seed") is None:
        env = _env_seed()
        if env is not None:
            values["seed"] = env
    return config_from_mapping(values)


def _ensure_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".writable"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory {path} is not writable: {exc}") from exc


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")


def _run_replicates(replicates: int, threads: int, fn):
    """Run fn(replicate) for each replicate, results ordered by index.

    The pool holds at most min(threads, replicates, cpu count) workers.
    """
    workers = min(threads, replicates, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(r) for r in range(replicates)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(replicates)))


def _report_run(out_dir: Path, command: str, config: dict, outputs, t_start: float) -> dict:
    manifest_path = artifacts.write_manifest(
        out_dir, command, config, outputs, time.monotonic() - t_start
    )
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    return {
        "command": command,
        "out_dir": str(out_dir),
        "outputs": manifest["outputs"],
    }


def cmd_simulate_graph(args) -> int:
    _check_threads(args.threads)
    config = _resolve_config(args)
    _ensure_out_dir(args.out)
    t_start = time.monotonic()
    p = edge_probability(config.window, config.n)
    k = config.k

    def one(r: int):
        g = sample_graph(config.n, p, make_stream(config.seed, r, "graph"))
        expl = explore(g, k, make_stream(config.seed, r, "roots"))
        series = cousin_series(expl)
        trace_path = args.out / f"trace_{r:04d}.csv"
        cousin_path = args.out / f"cousin_{r:04d}.csv"
        artifacts.write_trace_csv(trace_path, series.Z, series.C)
        artifacts.write_cousin_csv(cousin_path, series.csn, series.K)
        paths = [trace_path, cousin_path]
        if args.walk:
            walk = breadth_first_walk(g, make_stream(config.seed, r, "walk"))
            walk_path = args.out / f"walk_{r:04d}.csv"
            artifacts.write_walk_csv(walk_path, walk.X)
            paths.append(walk_path)
        return paths

    outputs = [
        path
        for paths in _run_replicates(config.replicates, args.threads, one)
        for path in paths
    ]
    print(json.dumps(_report_run(args.out, "simulate-graph", config.describe(), outputs, t_start)))
    return EXIT_OK


def cmd_simulate_chain(args) -> int:
    _check_threads(args.threads)
    if args.max_steps is not None and args.max_steps < 1:
        raise ConfigError(f"--max-steps must be >= 1, got {args.max_steps}")
    config = _resolve_config(args)
    _ensure_out_dir(args.out)
    t_start = time.monotonic()

    def one(r: int):
        trace = simulate_trace(
            config, max_steps=args.max_steps, rng=make_stream(config.seed, r, "chain")
        )
        path = args.out / f"trace_{r:04d}.csv"
        artifacts.write_trace_csv(path, trace.Z, trace.C)
        return [path]

    outputs = [
        path
        for paths in _run_replicates(config.replicates, args.threads, one)
        for path in paths
    ]
    described = config.describe()
    if args.max_steps is not None:
        described["max_steps"] = args.max_steps
    print(json.dumps(_report_run(args.out, "simulate-chain", described, outputs, t_start)))
    return EXIT_OK


def cmd_continuum(args) -> int:
    _check_threads(args.threads)
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be >= 1, got {args.replicates}")
    if args.dt <= 0:
        raise ConfigError(f"--dt must be > 0, got {args.dt}")
    if args.t_max < args.dt:
        raise ConfigError(f"--t-max must be >= dt, got {args.t_max}")
    if args.x <= 0:
        raise ConfigError(f"--x must be > 0, got {args.x}")
    params = {
        "kind": args.kind,
        "x": args.x,
        "lambda": args.lam,
        "dt": args.dt,
        "t_max": args.t_max,
    }
    if args.kind == "deterministic":
        # one curve, no randomness: the manifest records only what it used
        if args.replicates != 1 or args.seed is not None or args.threads != 1:
            raise ConfigError(
                "--kind deterministic draws one curve: it takes no --seed, and no "
                "--replicates or --threads other than 1"
            )
    else:
        seed = args.seed if args.seed is not None else (_env_seed() or 0)
        params.update(seed=seed, replicates=args.replicates)
    _ensure_out_dir(args.out)
    t_start = time.monotonic()
    outputs = []
    if args.kind == "deterministic":
        limit = DeterministicLimit(x=args.x, lam=args.lam)
        grid = np.arange(int(round(args.t_max / args.dt)) + 1) * args.dt
        path = args.out / "deterministic.csv"
        artifacts.write_deterministic_csv(path, grid, limit)
        outputs.append(path)
    elif args.kind == "hitting":
        samples = _run_replicates(
            args.replicates,
            args.threads,
            lambda r: sample_hitting_time(
                args.x, args.lam, args.dt, args.t_max, make_stream(seed, r, "hitting")
            ),
        )
        path = args.out / "hitting.csv"
        artifacts.write_hitting_csv(
            path, [s.T for s in samples], [s.truncated for s in samples]
        )
        outputs.append(path)
    else:

        def one(r: int):
            rng = make_stream(seed, r, args.kind)
            if args.kind == "sde":
                sim = simulate_sde(args.x, args.lam, args.dt, args.t_max, rng)
            elif args.kind == "lamperti":
                sim = lamperti_route(args.x, args.lam, args.dt, args.t_max, rng)
            else:  # parabolic: write the path against an empty C column
                pb = sample_parabolic_bm(args.lam, args.x, args.dt, args.t_max, rng)
                path = args.out / f"parabolic_{r:04d}.csv"
                artifacts.write_path_csv(path, args.dt, pb.values, np.zeros_like(pb.values))
                return [path]
            path = args.out / f"{args.kind}_{r:04d}.csv"
            artifacts.write_path_csv(path, args.dt, sim.z, sim.c)
            return [path]

        outputs = [
            path
            for paths in _run_replicates(args.replicates, args.threads, one)
            for path in paths
        ]
    print(json.dumps(_report_run(args.out, f"continuum-{args.kind}", params, outputs, t_start)))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(
            f"unknown suite {args.suite!r}; choose from {', '.join(sorted(SUITES))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    seed = args.seed
    kwargs = {}
    if args.config:
        values = parse_config_file(args.config)
        extra = sorted(set(values) - {"seed", "replicates"})
        if extra:
            raise ConfigError(
                f"verify --config takes only seed and replicates, got {', '.join(extra)}"
            )
        if seed is None:
            seed = values.get("seed")
        if "replicates" in values:
            kwargs["replicates"] = values["replicates"]
    if seed is None:
        seed = _env_seed()
    t_start = time.monotonic()
    report: ComparisonReport = run_suite(args.suite, seed=seed, **kwargs)
    payload = report.to_json()
    payload["suite"] = args.suite
    payload["duration_s"] = time.monotonic() - t_start
    print(json.dumps(payload))
    if args.out is not None:
        _ensure_out_dir(args.out)
        outputs = []
        report_path = args.out / "report.json"
        on_disk = {key: val for key, val in payload.items() if key != "duration_s"}
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(on_disk, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(report_path)
        if args.suite == "moments":
            sweep_path = args.out / "sweep.csv"
            artifacts.write_sweep_csv(sweep_path, moments_sweep())
            outputs.append(sweep_path)
        artifacts.write_manifest(
            args.out,
            f"verify-{args.suite}",
            {"suite": args.suite, "seed": report.seed},
            outputs,
            time.monotonic() - t_start,
        )
    return EXIT_OK if report.passed else EXIT_VERIFY


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "simulate-graph":
            return cmd_simulate_graph(args)
        if args.command == "simulate-chain":
            return cmd_simulate_chain(args)
        if args.command == "continuum":
            return cmd_continuum(args)
        if args.command == "verify":
            return cmd_verify(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, CritwinError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
