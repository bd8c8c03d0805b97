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
from .chain import simulate_trace
from .continuum import (
    DeterministicLimit,
    _checked_start,
    _default_grid_span,
    _grid_steps,
    hitting_ensemble,
    lamperti_route,
    sample_parabolic_bm,
    simulate_sde,
)
from .core import (
    AldousWindow,
    ConfigError,
    CritwinError,
    GeneralWindow,
    RunConfig,
    _checked_seed,
    edge_probability,
    make_stream,
)
from .graph import _checked_order, breadth_first_walk, cousin_series, explore, sample_graph
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
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)
        p.add_argument("--seed", type=int)
        p.add_argument("--replicates", type=int, default=1)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    def add_model_flags(p):
        p.add_argument("--n", type=int)
        p.add_argument("--x", type=float)
        p.add_argument("--epsilon", type=float, help="drifting window p = (1 + lambda eps)/n")
        add_run_flags(p)

    p_graph = sub.add_parser("simulate-graph", help="sample graphs and explore them")
    add_model_flags(p_graph)
    p_graph.add_argument(
        "--walk",
        action="store_true",
        help="also emit the all-components breadth-first walk CSV per replicate",
    )

    p_chain = sub.add_parser("simulate-chain", help="simulate the height-profile chain")
    add_model_flags(p_chain)
    p_chain.add_argument("--max-steps", type=int)

    p_cont = sub.add_parser("continuum", help="simulate continuum limit objects")
    p_cont.add_argument(
        "--kind",
        required=True,
        choices=("sde", "parabolic", "lamperti", "hitting", "deterministic"),
    )
    p_cont.add_argument("--x", type=float, default=1.0)
    p_cont.add_argument("--dt", type=float, default=1e-4)
    p_cont.add_argument("--t-max", type=float, default=2.0)
    add_run_flags(p_cont)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--out", type=Path, help="also write report/artifact files")
    return parser


def _seed(given: int | None, default: int | None = 0) -> int | None:
    """The seed from the --seed flag, else CW_SEED, else ``default``; its
    caller checks it with `_checked_seed`, or `_checked_suite` for verify.
    """
    if given is None:
        raw = os.environ.get("CW_SEED")
        try:
            given = default if raw is None else int(raw)
        except ValueError as exc:
            raise ConfigError(f"CW_SEED must hold an integer, got {raw!r}") from exc
    return given


def _resolve_config(args) -> tuple[RunConfig, float, int, dict]:
    """The model, its edge probability, the seed and the manifest block, all checked.

    --epsilon selects the drifting window; without it the run is in Aldous's.
    """
    missing = [flag for flag, val in (("--n", args.n), ("--x", args.x)) if val is None]
    if missing:  # not argparse-required, which would print a usage block
        raise ConfigError(f"missing required flags: {', '.join(missing)}")
    if args.epsilon is None:
        window = AldousWindow(args.lam)
    else:
        window = GeneralWindow(args.lam, args.epsilon)
    seed = _checked_seed(_seed(args.seed))
    config = RunConfig(args.n, args.x, window)
    p = edge_probability(window, config.n)
    # describe() derives k, so a window giving k = 0 fails here too
    described = {**config.describe(), "seed": seed, "replicates": args.replicates}
    return config, p, seed, described


def _ensure_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
        probe = path / ".writable"
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise IOError(f"output directory {path} is not writable: {exc}") from exc


def _write(out: Path, name: str, writer, *data) -> dict:
    """Write file ``name`` in ``out`` with an artifacts writer: {name: its digest}."""
    return {name: writer(out / name, *data)}


def _run(args, command: str, config: dict, one, gather=None) -> int:
    """Check --replicates and --threads, make --out, run one(r) for every
    replicate, write the manifest and print the report.

    one(r) returns the {name: digest} of the files it wrote or, with
    ``gather``, a result; gather(results) then writes them and returns their
    {name: digest}.  Replicates run on a pool of at most min(threads,
    replicates, cpu count) workers, or serially with one worker; results keep
    replicate order.
    """
    replicates = args.replicates
    if replicates < 1:
        raise ConfigError(f"--replicates must be >= 1, got {replicates}")
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
    outputs = gather(results) if gather else {k: v for out in results for k, v in out.items()}
    artifacts.write_manifest(args.out, command, config, outputs, time.monotonic() - t_start)
    report = {"command": command, "out_dir": str(args.out), "outputs": outputs}
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK


def cmd_simulate_graph(args) -> int:
    config, p, seed, described = _resolve_config(args)
    _checked_order(config.n)  # before _run makes --out
    k = config.k

    def one(r: int):
        g = sample_graph(config.n, p, make_stream(seed, r, "graph"))
        expl = explore(g, k, make_stream(seed, r, "roots"))
        series = cousin_series(expl)
        written = _write(args.out, f"trace_{r:04d}.csv", artifacts.write_trace_csv,
                         series.Z, series.C)
        written.update(_write(args.out, f"cousin_{r:04d}.csv", artifacts.write_cousin_csv,
                              series.csn, series.K))
        if args.walk:
            walk = breadth_first_walk(g, make_stream(seed, r, "walk"))
            written.update(_write(args.out, f"walk_{r:04d}.csv", artifacts.write_walk_csv, walk.X))
        return written

    return _run(args, "simulate-graph", described, one)


def cmd_simulate_chain(args) -> int:
    if args.max_steps is not None and args.max_steps < 1:
        raise ConfigError(f"--max-steps must be >= 1, got {args.max_steps}")
    config, _, seed, described = _resolve_config(args)
    if args.max_steps is not None:
        described["max_steps"] = args.max_steps

    def one(r: int):
        trace = simulate_trace(config, max_steps=args.max_steps, rng=make_stream(seed, r, "chain"))
        return _write(args.out, f"trace_{r:04d}.csv", artifacts.write_trace_csv, trace.Z, trace.C)

    return _run(args, "simulate-chain", described, one)


def cmd_continuum(args) -> int:
    x, lam, dt, t_max = args.x, args.lam, args.dt, args.t_max
    _checked_start(x, lam)
    steps = _grid_steps(dt, t_max)
    if args.kind == "lamperti":  # the route's own X grid spans 3 t0 + 8, not t_max
        span = _default_grid_span(x, lam)
        try:
            _grid_steps(dt, span)
        except ValueError as exc:
            raise ConfigError(
                f"--x {x}, --lambda {lam} and --dt {dt} give the Lamperti X grid span "
                f"3 t0 + 8 = {span}, which needs a finite step count >= 1"
            ) from exc
    command = f"continuum-{args.kind}"
    params = {"kind": args.kind, "x": x, "lambda": lam, "dt": dt, "t_max": t_max}
    if args.kind == "deterministic":
        # one curve, no randomness: the manifest records only what it used
        if args.replicates != 1 or args.seed is not None or args.threads != 1:
            raise ConfigError(
                "--kind deterministic draws one curve: it takes no --seed, and no "
                "--replicates or --threads other than 1"
            )
        lim = DeterministicLimit(x=x, lam=lam)
        t_grid = np.arange(steps + 1) * dt
        with np.errstate(over="ignore", invalid="ignore"):
            curves = [[float(g(t)) for t in t_grid] for g in (lim.f, lim.c, lim.z, lim.k_limit)]
        if not np.isfinite(curves).all():
            raise ConfigError(
                f"the curves overflow on the grid up to t = {t_grid[-1]}: x = {x}, lambda = {lam}"
            )

        def curve(r: int):
            return _write(args.out, "deterministic.csv", artifacts.write_deterministic_csv,
                          t_grid, *curves)

        return _run(args, command, params, curve)
    seed = _checked_seed(_seed(args.seed))
    params.update(seed=seed, replicates=args.replicates)
    if args.kind == "hitting":  # one path per replicate, one CSV for them all

        def hit(r: int):
            return hitting_ensemble(x, lam, dt, t_max, 1, make_stream(seed, r, "hitting"))

        def write(samples):
            times, truncated = (np.concatenate(column) for column in zip(*samples))
            return _write(args.out, "hitting.csv", artifacts.write_hitting_csv, times, truncated)

        return _run(args, command, params, hit, write)

    def one(r: int):
        rng = make_stream(seed, r, args.kind)
        if args.kind == "parabolic":  # the path against an empty C column
            z = sample_parabolic_bm(lam, x, dt, t_max, rng)
            c = np.zeros_like(z)
        else:
            route = simulate_sde if args.kind == "sde" else lamperti_route
            sim = route(x, lam, dt, t_max, rng)
            z, c = sim.z, sim.c
        return _write(args.out, f"{args.kind}_{r:04d}.csv", artifacts.write_path_csv, dt, z, c)

    return _run(args, command, params, one)


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
        on_disk = {key: val for key, val in payload.items() if key != "duration_s"}
        outputs = _write(args.out, "report.json", artifacts.write_json, on_disk)
        if args.suite == "moments":
            outputs.update(_write(args.out, "sweep.csv", artifacts.write_sweep_csv, bound_sweep()))
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
