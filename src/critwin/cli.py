"""Command-line surface: simulate graphs/chains/continuum paths, run suites.

stdout carries only JSON reports; everything diagnostic goes to stderr.
Exit codes: 0 success/pass, 1 usage or config error, 2 I/O error,
3 verification failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import artifacts
from .chain import simulate_trace
from .continuum import (
    DeterministicLimit,
    _grid_steps,
    hitting_ensemble,
    lamperti_route,
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
from .moments import bound_sweep
from .verify import _checked_suite

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
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", type=Path, help="also write report/artifact files")
    return parser


def _seed(given: int | None, default: int | None = 0) -> int | None:
    """The seed from the flag or config file, else CW_SEED, else ``default``.

    A negative seed, from any of the three, is a ConfigError.
    """
    if given is None:
        raw = os.environ.get("CW_SEED")
        try:
            given = default if raw is None else int(raw)
        except ValueError as exc:
            raise ConfigError(f"CW_SEED must be an integer, got {raw!r}") from exc
    if given is not None and given < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {given}")
    return given


def _resolve_config(args) -> tuple[RunConfig, float, dict]:
    """The run config, its edge probability and its manifest block, all checked."""
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
    values["seed"] = _seed(values.get("seed"))
    config = config_from_mapping(values)
    # describe() derives k, so a window giving k = 0 fails here too
    return config, edge_probability(config.window, config.n), config.describe()


def _ensure_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".writable"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory {path} is not writable: {exc}") from exc


def _run(args, command: str, config: dict, replicates: int, one, gather=None) -> int:
    """Check --threads, make --out, run one(r) for every replicate, write the
    manifest and print the report.

    one(r) returns the paths it wrote or, with ``gather``, a result;
    gather(results) then writes them and returns the paths.  Replicates run
    on a pool of at most min(threads, replicates, cpu count) workers, or
    serially with one worker; results keep replicate order.
    """
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    _ensure_out_dir(args.out)
    t_start = time.monotonic()
    workers = min(args.threads, replicates, os.cpu_count() or 1)
    if workers <= 1:
        results = [one(r) for r in range(replicates)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one, range(replicates)))
    outputs = gather(results) if gather else [path for paths in results for path in paths]
    manifest_path = artifacts.write_manifest(
        args.out, command, config, outputs, time.monotonic() - t_start
    )
    with open(manifest_path, "r", encoding="utf-8") as fh:
        digests = json.load(fh)["outputs"]
    print(json.dumps({"command": command, "out_dir": str(args.out), "outputs": digests}))
    return EXIT_OK


def cmd_simulate_graph(args) -> int:
    config, p, described = _resolve_config(args)
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

    return _run(args, "simulate-graph", described, config.replicates, one)


def cmd_simulate_chain(args) -> int:
    if args.max_steps is not None and args.max_steps < 1:
        raise ConfigError(f"--max-steps must be >= 1, got {args.max_steps}")
    config, _, described = _resolve_config(args)
    if args.max_steps is not None:
        described["max_steps"] = args.max_steps

    def one(r: int):
        trace = simulate_trace(
            config, max_steps=args.max_steps, rng=make_stream(config.seed, r, "chain")
        )
        path = args.out / f"trace_{r:04d}.csv"
        artifacts.write_trace_csv(path, trace.Z, trace.C)
        return [path]

    return _run(args, "simulate-chain", described, config.replicates, one)


def cmd_continuum(args) -> int:
    x, lam, dt, t_max = args.x, args.lam, args.dt, args.t_max
    for name, val in (("--x", x), ("--lambda", lam), ("--dt", dt), ("--t-max", t_max)):
        if not math.isfinite(val):
            raise ConfigError(f"{name} must be finite, got {val}")
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be >= 1, got {args.replicates}")
    steps = _grid_steps(dt, t_max)
    if x <= 0:
        raise ConfigError(f"--x must be > 0, got {x}")
    command = f"continuum-{args.kind}"
    params = {"kind": args.kind, "x": x, "lambda": lam, "dt": dt, "t_max": t_max}
    if args.kind == "deterministic":
        # one curve, no randomness: the manifest records only what it used
        if args.replicates != 1 or args.seed is not None or args.threads != 1:
            raise ConfigError(
                "--kind deterministic draws one curve: it takes no --seed, and no "
                "--replicates or --threads other than 1"
            )
        limit = DeterministicLimit(x=x, lam=lam)
        if not abs(lam) < limit.s:  # c(t) takes atanh(-lam / s)
            raise ConfigError(
                f"--x {x} is too small beside --lambda {lam}: sqrt(2x + lambda**2) "
                "rounds to |lambda|, so the curve c(t) is undefined"
            )

        def curve(r: int):
            path = args.out / "deterministic.csv"
            artifacts.write_deterministic_csv(path, np.arange(steps + 1) * dt, limit)
            return [path]

        return _run(args, command, params, 1, curve)
    seed = _seed(args.seed)
    params.update(seed=seed, replicates=args.replicates)
    if args.kind == "hitting":  # one path per replicate, one CSV for them all

        def hit(r: int):
            return hitting_ensemble(x, lam, dt, t_max, 1, make_stream(seed, r, "hitting"))

        def write(samples):
            path = args.out / "hitting.csv"
            times, truncated = (np.concatenate(column) for column in zip(*samples))
            artifacts.write_hitting_csv(path, times, truncated)
            return [path]

        return _run(args, command, params, args.replicates, hit, write)

    def one(r: int):
        rng = make_stream(seed, r, args.kind)
        if args.kind == "parabolic":  # the path against an empty C column
            z = sample_parabolic_bm(lam, x, dt, t_max, rng)
            c = np.zeros_like(z)
        else:
            route = simulate_sde if args.kind == "sde" else lamperti_route
            sim = route(x, lam, dt, t_max, rng)
            z, c = sim.z, sim.c
        path = args.out / f"{args.kind}_{r:04d}.csv"
        artifacts.write_path_csv(path, dt, z, c)
        return [path]

    return _run(args, command, params, args.replicates, one)


def cmd_verify(args) -> int:
    suite = _checked_suite(args.suite, _seed(args.seed, default=None))
    if args.out is not None:
        _ensure_out_dir(args.out)
    t_start = time.monotonic()
    report = suite()
    payload = report.to_json()
    payload["suite"] = args.suite
    payload["duration_s"] = time.monotonic() - t_start
    print(json.dumps(payload))
    if args.out is not None:
        report_path = args.out / "report.json"
        on_disk = {key: val for key, val in payload.items() if key != "duration_s"}
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(on_disk, fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs = [report_path]
        if args.suite == "moments":
            sweep_path = args.out / "sweep.csv"
            artifacts.write_sweep_csv(sweep_path, bound_sweep())
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
        command = {
            "simulate-graph": cmd_simulate_graph,
            "simulate-chain": cmd_simulate_chain,
            "continuum": cmd_continuum,
            "verify": cmd_verify,
        }[args.command]
        return command(args)
    except (ConfigError, CritwinError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
