"""Span tracer that times calls into critwin's modules from outside the package.

Each traced function is replaced by a wrapper wherever the package holds a
reference to it: in its defining module, in every critwin module that
imported it by name (``critwin.verify.sde_ensemble``,
``critwin.cli.simulate_trace``, ...) and in module-level dicts such as
``critwin.verify.SUITES``.  Patching only the defining module would let those
calls bypass the wrapper.  `Tracer.remove` puts every original back.

Spans are kept in memory.  A span's self time is its duration minus the time
covered by its direct child spans.  Counters are computed from each call's
arguments and return value only.  The tracer keeps one span stack, so calls
must arrive on one thread; every workload runs its commands with
``--threads 1``.
"""
from __future__ import annotations

import inspect
import math
import os
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

LAYERS = (
    "core", "graph", "chain", "moments", "continuum",
    "analysis", "artifacts", "verify", "cli",
)


def _lamperti_waste(a, r):
    # The X grid spans grid_t_max, by default 3 t0 + 8 with
    # t0 = lam + sqrt(lam**2 + 2x); only the part before the crossing is used.
    dt = a["dt"]
    grid = a["grid_t_max"]
    if grid is None:
        lam = a["lam"]
        grid = 3.0 * (lam + math.sqrt(lam * lam + 2.0 * a["x"])) + 8.0
    span = round(grid / dt) * dt
    t_cross = r[2]
    return {
        "continuum.lamperti_marginals.used": float(t_cross.clip(max=span).sum()),
        "continuum.lamperti_marginals.drawn": a["n_paths"] * span,
    }


def _hitting(a, r):
    t_hit, truncated = r
    return {
        "continuum.hitting_ensemble.used": float(t_hit.sum()),
        "continuum.hitting_ensemble.drawn": a["n_paths"] * a["t_max"],
        "continuum.hitting_ensemble.truncated": int(truncated.sum()),
    }


def _sde(a, r):
    absorbed_at = r[2]
    dead = absorbed_at >= 0
    return {
        "continuum.sde_ensemble.path_steps":
            int(absorbed_at[dead].sum()) + a["n_steps"] * int((~dead).sum()),
        "continuum.sde_ensemble.absorbed": int(dead.sum()),
    }


def _trace(a, r):
    steps = r.absorbed_at if r.absorbed_at is not None else r.Z.size - 1
    return {
        "chain.simulate_trace.generations": steps,
        "chain.simulate_trace.truncated": int(r.truncated),
    }


def _csv(a, r):
    return {"artifacts.files": 1, "artifacts.bytes": os.path.getsize(a["path"])}


def _manifest(a, r):
    return {"artifacts.files": 1, "artifacts.bytes": os.path.getsize(r)}


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``counter(arguments, result)`` returns increments of named counters;
    ``arguments`` maps every parameter name to its value, defaults included.
    ``key`` groups several functions under one span name.
    """

    module: str
    name: str
    key: str = ""
    counter: Callable | None = None
    counts: tuple = ()

    @property
    def span(self) -> str:
        return self.key or f"{self.module}.{self.name}"


_CSV_WRITERS = (
    "write_trace_csv", "write_cousin_csv", "write_walk_csv", "write_path_csv",
    "write_hitting_csv", "write_deterministic_csv", "write_sweep_csv",
)
_SUITES = (
    "kernel", "identities", "moments", "zlimit", "lamperti", "cousin",
    "klimit", "deterministic", "selfsim", "components", "conjecture",
)
_ARTIFACT_COUNTS = ("artifacts.files", "artifacts.bytes")

TARGETS = (
    Target("core", "make_stream"),
    Target("graph", "sample_graph",
           counter=lambda a, r: {"graph.sample_graph.edges": r.edge_count},
           counts=("graph.sample_graph.edges",)),
    Target("graph", "graph_from_edges",
           counter=lambda a, r: {"graph.graph_from_edges.entries": 2 * len(a["u"])},
           counts=("graph.graph_from_edges.entries",)),
    Target("graph", "explore_from_roots",
           counter=lambda a, r: {"graph.explore_from_roots.vertices": r.a_total},
           counts=("graph.explore_from_roots.vertices",)),
    Target("graph", "cousin_series"),
    Target("graph", "breadth_first_walk",
           counter=lambda a, r: {"graph.breadth_first_walk.steps": r.X.size - 1},
           counts=("graph.breadth_first_walk.steps",)),
    Target("chain", "simulate_trace", counter=_trace,
           counts=("chain.simulate_trace.generations", "chain.simulate_trace.truncated")),
    Target("chain", "exact_profile_distribution"),
    Target("moments", "bound_sweep"),
    Target("continuum", "_parabolic_matrix",
           counter=lambda a, r: {"continuum._parabolic_matrix.draws": a["n_paths"] * a["m"]},
           counts=("continuum._parabolic_matrix.draws",)),
    Target("continuum", "_first_crossing"),
    Target("continuum", "_time_change"),
    Target("continuum", "lamperti_marginals", counter=_lamperti_waste,
           counts=("continuum.lamperti_marginals.used", "continuum.lamperti_marginals.drawn")),
    Target("continuum", "lamperti_route"),
    Target("continuum", "hitting_ensemble", counter=_hitting,
           counts=("continuum.hitting_ensemble.used", "continuum.hitting_ensemble.drawn",
                   "continuum.hitting_ensemble.truncated")),
    Target("continuum", "sample_hitting_time"),
    Target("continuum", "sde_ensemble", counter=_sde,
           counts=("continuum.sde_ensemble.path_steps", "continuum.sde_ensemble.absorbed")),
    Target("continuum", "simulate_sde"),
    Target("continuum", "self_similarity_test"),
    Target("analysis", "ks_statistic"),
    *(Target("artifacts", w, key="artifacts.write_csv", counter=_csv, counts=_ARTIFACT_COUNTS)
      for w in _CSV_WRITERS),
    Target("artifacts", "sha256_file"),
    Target("artifacts", "write_manifest", counter=_manifest, counts=_ARTIFACT_COUNTS),
    Target("verify", "rk4_curve_max_error"),
    Target("verify", "exhaustive_profile_distribution"),
    *(Target("verify", f"suite_{s}") for s in _SUITES),
    Target("cli", "cmd_simulate_graph"),
    Target("cli", "cmd_simulate_chain"),
    Target("cli", "cmd_continuum"),
)

# name -> (numerator counter, denominator counter)
RATIOS = {
    "continuum.lamperti_marginals.useful_frac":
        ("continuum.lamperti_marginals.used", "continuum.lamperti_marginals.drawn"),
    "continuum.hitting_ensemble.useful_frac":
        ("continuum.hitting_ensemble.used", "continuum.hitting_ensemble.drawn"),
}


@dataclass
class _Stats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Install with `install`, run the workload, `remove`, then read `metrics`."""

    def __init__(self):
        self.spans = []  # (span, start, end, parent index)
        self._stats = {t.span: _Stats() for t in TARGETS}
        self._counts = {name: 0 for t in TARGETS for name in t.counts}
        self._stack = []  # [span index, child time] per open span
        self._patches = []  # (namespace, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def install(self) -> None:
        namespaces = [vars(m) for name, m in sorted(sys.modules.items())
                      if name == "critwin" or name.startswith("critwin.")]
        namespaces += [v for ns in namespaces for v in ns.values() if isinstance(v, dict)]
        for t in TARGETS:
            original = getattr(sys.modules.get(f"critwin.{t.module}"), t.name, None)
            if original is None:
                continue  # not in this version of the package: its metrics read zero
            wrapper = self._wrap(t, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper

    def remove(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    def _wrap(self, target: Target, original):
        stats = self._stats[target.span]
        signature = inspect.signature(original) if target.counter else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                spans[frame[0]] = (target.span, start, end, parent)
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if target.counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, inc in target.counter(bound.arguments, result).items():
                    self._counts[name] += inc
            return result

        traced.__wrapped__ = original
        return traced

    def metrics(self) -> dict:
        """Every per-layer figure by name; functions never called read zero."""
        out = {f"{layer}.calls": 0 for layer in LAYERS}
        for span, st in self._stats.items():
            out[span.split(".")[0] + ".calls"] += st.calls
            out[f"{span}.calls"] = st.calls
            out[f"{span}.s"] = st.total
            out[f"{span}.self_s"] = st.self_time
        out.update(self._counts)
        for name, (num, den) in RATIOS.items():
            out[name] = self._counts[num] / self._counts[den] if self._counts[den] else 0.0
        return out
