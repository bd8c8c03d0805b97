"""Verification suites: each turns one acceptance check into a ComparisonReport.

Suite map (name -> what is checked, tolerances pinned here):

  kernel        exact chain law == exhaustive graph enumeration (TV <= 1e-10)
  identities    csn(j) = Z(hgt(w_j)), K(C(h)) = sum Z**2, exact on random graphs
  zlimit        rescaled chain Z at t=1 vs SDE Z(1) (KS), and total infected
                mass vs barrier hitting time (3 combined SEs)
  lamperti      SDE route vs time-change route marginals at t=1 (KS)
  moments       decay slopes of the kernel-moment deviation sups
  cousin        drifting-window mean rescaled cousin path vs x + lam t - t**2/2
  klimit        drifting-window mean rescaled cumulative path vs the cubic
  deterministic closed-form c(t) vs RK4, and the tanh special case
  selfsim       restart test for the SDE pair
  components    rescaled total infected exceeds the deterministic lower bound
  conjecture    (exploratory, never gates) rescaled all-components walk,
                sampled graph-free by `walk_chain`, vs lam t - t**2/2, and
                (reported) vs its first-order correction in eps

Every suite is a function of its seed alone: its sizes and tolerances are
literals in its body.  `run_suite` resolves the seed.

Only this module and the tests hold expected values; library modules never
grade themselves.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial

import numpy as np

from .analysis import ComparisonReport, ks_statistic
from .chain import (
    K_at_indices,
    csn_at_indices,
    exact_profile_distribution,
    simulate_trace,
)
from .continuum import (
    DeterministicLimit,
    _grid_steps,
    hitting_ensemble,
    lamperti_marginals,
    sde_ensemble,
)
from .core import (
    AldousWindow,
    ConfigError,
    CritwinError,
    GeneralWindow,
    InvalidWindowError,
    RunConfig,
    _checked_probability,
    _checked_roots,
    _checked_seed,
    edge_probability,
    make_stream,
)
from .graph import (
    cousin_series,
    explore,
    explore_from_roots,
    graph_from_edges,
    sample_graph,
    walk_chain,
)
from .moments import bound_sweep

__all__ = [
    "DEFAULT_SEED",
    "SUITES",
    "InsufficientSampleError",
    "run_suite",
    "exhaustive_profile_distribution",
    "total_variation",
    "rk4_curve_max_error",
]

DEFAULT_SEED = 20260810


class InsufficientSampleError(CritwinError):
    """Too few paths survived to the comparison time."""


def total_variation(dist_a: dict, dist_b: dict) -> float:
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


def _noise_floor(N: int) -> float:
    """The two-sample KS statistic's 95% critical value for two samples of N."""
    return 1.36 * math.sqrt(2.0 / N)


# n = 7 would mean 2**21 graphs times up to 35 root sets.
_ENUMERATION_N_LIMIT = 6


@lru_cache(maxsize=None)
def _profile_table(n: int, k: int):
    """Profile of every (edge set, root set) pair on n labeled vertices.

    Returns a list of (edge_count, profile) with one entry per pair; the
    heights come from the production breadth-first exploration.  Equal
    entries are one shared tuple, since the table is cached for the process.
    """
    pairs = list(itertools.combinations(range(n), 2))
    rootsets = list(itertools.combinations(range(n), k))
    table = []
    seen: dict = {}
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        u = [e[0] for e in chosen]
        v = [e[1] for e in chosen]
        g = graph_from_edges(n, u, v)
        edge_count = len(chosen)
        for roots in rootsets:
            expl = explore_from_roots(g, np.asarray(roots, dtype=np.int64))
            series = cousin_series(expl)
            profile = tuple(int(z) for z in series.Z) + (0,)
            entry = (edge_count, profile)
            table.append(seen.setdefault(entry, entry))
    return table


def exhaustive_profile_distribution(n: int, k: int, p: float) -> dict:
    """Exact profile law by enumerating all graphs and root subsets.

    Needs n <= 6 (ConfigError), integers n and k (TypeError), 1 <= k <= n
    and 0 <= p <= 1 (ValueError), all checked before any enumeration.
    """
    if n > _ENUMERATION_N_LIMIT:
        raise ConfigError(
            f"graph enumeration is limited to n <= {_ENUMERATION_N_LIMIT} "
            f"(got n={n}); use exact_profile_distribution instead"
        )
    k = _checked_roots(k, n)
    _checked_probability(p)
    m = n * (n - 1) // 2
    n_rootsets = math.comb(n, k)
    out: dict = {}
    for edge_count, profile in _profile_table(n, k):
        weight = p**edge_count * (1.0 - p) ** (m - edge_count) / n_rootsets
        out[profile] = out.get(profile, 0.0) + weight
    return out


def suite_kernel(seed: int) -> ComparisonReport:
    """Chain kernel vs exhaustive graph enumeration, small n, exact."""
    worst = 0.0
    combos = []
    for n in (3, 4, 5):
        for k in (1, 2):
            for p in (0.2, 0.5):
                tv = total_variation(
                    exact_profile_distribution(n, k, p),
                    exhaustive_profile_distribution(n, k, p),
                )
                combos.append({"n": n, "k": k, "p": p, "tv": tv})
                worst = max(worst, tv)
    tol = 1e-10
    return ComparisonReport(
        test_name="kernel-vs-graph-enumeration",
        statistic=worst,
        tolerance=tol,
        passed=worst <= tol,
        seed=seed,
        details={"combos": combos},
    )


def suite_identities(seed: int) -> ComparisonReport:
    """Combinatorial identities, exact, on random explorations (both windows)."""
    samples = 1000
    rng = make_stream(seed, 0, "identities")
    failures = 0
    for i in range(samples):
        while True:  # redraw the few (n, window) pairs whose p falls outside (0, 1)
            n = int(rng.integers(2, 201))
            k = int(rng.integers(1, n + 1))
            lam = float(rng.uniform(-1.0, 2.0))
            if i % 2 == 0:
                window = AldousWindow(lam=lam)
            else:
                window = GeneralWindow(lam=lam, epsilon=float(rng.uniform(0.02, 0.5)))
            try:
                p = edge_probability(window, n)
                break
            except InvalidWindowError:
                pass
        g = sample_graph(n, p, rng)
        expl = explore(g, k, rng)
        series = cousin_series(expl)
        h_ord = expl.heights
        # brute-force cousin counts, independent of the bincount route
        brute_csn = (h_ord[None, :] == h_ord[:, None]).sum(axis=1)
        ok = (
            np.array_equal(series.csn, brute_csn)
            and np.array_equal(series.csn, series.Z[h_ord])
            and np.array_equal(
                series.K[series.C], np.cumsum(series.Z.astype(np.int64) ** 2)
            )
            and int(series.C[-1]) == expl.a_total == int(series.Z.sum())
            and bool(np.all(np.diff(h_ord) >= 0))
            and np.array_equal(expl.order[:k], expl.roots)
        )
        failures += 0 if ok else 1
    return ComparisonReport(
        test_name="exploration-identities",
        statistic=float(failures),
        tolerance=0.0,
        passed=failures == 0,
        N=samples,
        seed=seed,
    )


def suite_moments(seed: int) -> ComparisonReport:
    """Decay slopes of the moment-deviation sups across four decades of n."""
    sweep = bound_sweep()
    slope_mu, se_mu = sweep.slopes["mu_dev"]
    slope_s2, se_s2 = sweep.slopes["sigma2_dev"]
    slope_k, se_k = sweep.slopes["kappa_abs"]
    margin = max(slope_mu + 0.25, slope_s2 + 0.25, abs(slope_k - 2.0 / 3.0) - 0.15)
    return ComparisonReport(
        test_name="moment-bound-slopes",
        statistic=margin,
        tolerance=0.0,
        passed=margin <= 0.0,
        seed=seed,
        details={
            "mu_dev_slope": slope_mu,
            "mu_dev_stderr": se_mu,
            "sigma2_dev_slope": slope_s2,
            "sigma2_dev_stderr": se_s2,
            "kappa_abs_slope": slope_k,
            "kappa_abs_stderr": se_k,
            "sups": {q: list(v) for q, v in sweep.sups.items()},
        },
    )


def suite_zlimit(seed: int) -> ComparisonReport:
    """Height-profile limit at t=1 (KS <= 0.06) and total mass vs hitting time."""
    n, x, lam, N, dt = 10**6, 1.0, 0.0, 2000, 1e-4
    window = AldousWindow(lam)
    space_z, time_z = window.scales("Z", n)
    space_c, _ = window.scales("C", n)
    # per-replicate chain Z at rescaled time 1 and the total infected count
    h_at_t1 = int(round(1.0 / time_z))
    chain_z1 = np.empty(N)
    chain_total = np.empty(N)
    for r, tr in enumerate(_chain_traces(seed, window, n, x, N)):
        chain_z1[r] = tr.Z[h_at_t1] if h_at_t1 < tr.Z.size else 0
        chain_total[r] = tr.C[-1]
    sde_z1, _, _ = sde_ensemble(
        np.full(N, x), lam, dt, _grid_steps(dt, 1.0), make_stream(seed, 0, "sde")
    )
    ks = ks_statistic(chain_z1 * space_z, sde_z1)
    t_hit, trunc = hitting_ensemble(x, lam, dt, 12.0, N, make_stream(seed, 0, "hitting"))
    mass = chain_total * space_c
    delta = abs(float(mass.mean() - t_hit.mean()))
    se = math.sqrt(mass.var(ddof=1) / N + t_hit.var(ddof=1) / N)
    ks_tol = 0.06
    passed = ks <= ks_tol and delta <= 3.0 * se
    return ComparisonReport(
        test_name="height-profile-limit",
        statistic=ks,
        tolerance=ks_tol,
        passed=passed,
        n=n,
        N=N,
        seed=seed,
        details={
            "noise_floor_95": _noise_floor(N),
            "discretization_allowance": ks_tol - _noise_floor(N),
            "total_mass_mean": float(mass.mean()),
            "hitting_mean": float(t_hit.mean()),
            "mean_delta": delta,
            "combined_se": se,
            "delta_limit_3se": 3.0 * se,
            "hitting_truncated": int(trunc.sum()),
        },
    )


def suite_lamperti(seed: int) -> ComparisonReport:
    """Marginal at t=1 of the Euler SDE route vs the time-change route (KS)."""
    x, lam, N, dt, t_at = 1.0, 0.0, 5000, 1e-4, 1.0
    steps = _grid_steps(dt, t_at)
    sde_z, _, _ = sde_ensemble(np.full(N, x), lam, dt, steps, make_stream(seed, 0, "sde"))
    tc_z, _, _, trunc = lamperti_marginals(
        x, lam, dt, t_at, N, make_stream(seed, 0, "lamperti")
    )
    ks = ks_statistic(sde_z, tc_z)
    tol = 0.05
    return ComparisonReport(
        test_name="lamperti-route-equivalence",
        statistic=ks,
        tolerance=tol,
        passed=ks <= tol,
        N=N,
        seed=seed,
        details={
            "noise_floor_95": _noise_floor(N),
            "discretization_allowance": tol - _noise_floor(N),
            "grid_truncated": int(trunc.sum()),
        },
    )


def _chain_traces(seed: int, window, n: int, x: float, replicates: int):
    """Chain traces of replicates 0, 1, ..., each on its own "chain" stream."""
    cfg = RunConfig(n, x, window)
    for r in range(replicates):
        yield simulate_trace(cfg, rng=make_stream(seed, r, "chain"))


def _drifting_window_sup(
    test_name: str, seed: int, kind: str, at_indices, reference
) -> ComparisonReport:
    """Sup distance of the mean rescaled ``kind`` path from ``reference(lim, t)``.

    ``at_indices(Z, C, js)`` reads the path off each chain trace on 50 points
    of [0, 0.9 t0].
    """
    n, x, lam, replicates = 10**7, 1.0, 0.0, 200
    window = GeneralWindow(lam=lam, epsilon=float(n) ** (-0.2))
    lim = DeterministicLimit(x=x, lam=lam)
    grid = np.linspace(0.0, 0.9 * lim.t0, 50)
    space, time_scale = window.scales(kind, n)
    js = np.floor(grid / time_scale).astype(np.int64)
    acc = np.zeros(grid.size)
    for tr in _chain_traces(seed, window, n, x, replicates):
        acc += at_indices(tr.Z, tr.C, js) * space
    mean_path = acc / replicates
    sup = float(np.max(np.abs(mean_path - reference(lim, grid))))
    tol = 0.05
    return ComparisonReport(
        test_name=test_name,
        statistic=sup,
        tolerance=tol,
        passed=sup <= tol,
        n=n,
        N=replicates,
        seed=seed,
        details={"epsilon": window.epsilon, "t0": lim.t0, "grid_points": grid.size},
    )


def suite_cousin(seed: int) -> ComparisonReport:
    """Mean rescaled cousin path vs (x + lam t - t**2/2)+ on [0, 0.9 t0]."""
    return _drifting_window_sup(
        "drifting-window-cousin-limit", seed, "csn", csn_at_indices,
        lambda lim, t: np.maximum(lim.f(t), 0.0),
    )


def suite_klimit(seed: int) -> ComparisonReport:
    """Mean rescaled cumulative cousin path vs the frozen cubic on [0, 0.9 t0]."""
    return _drifting_window_sup(
        "drifting-window-cumulative-limit", seed, "K", K_at_indices,
        lambda lim, t: lim.k_limit(t),
    )


_RK4_BLOCK = 4096  # steps whose closed form and error are taken at once


def rk4_curve_max_error(xs, lams, t_max: float = 10.0, h: float = 1e-4) -> float:
    """Max |`DeterministicLimit.c` - RK4 of c' = f(c)| over the grid, across cases.

    Each step works in preallocated buffers, operation for operation as the
    classical formulas in the comments, so it rounds as they do; its scalar
    operands are arrays and its ufuncs are bound locally with ``out`` passed
    by position, which trims numpy's per-call overhead on these small
    arrays.  The closed form and the running maximum are taken once per
    `_RK4_BLOCK` steps, the error in place of the block's c, once its last
    row has become the next block's first.
    """
    x = np.asarray(xs, dtype=np.float64)
    lam = np.asarray(lams, dtype=np.float64)
    limits = [DeterministicLimit(a, b) for a, b in zip(x.tolist(), lam.tolist())]
    k1, k2, k3, k4, arg, tmp = (np.empty_like(x) for _ in range(6))
    half, two, sixth_h, half_h, full_h = (
        np.full_like(x, v) for v in (0.5, 2.0, h / 6.0, 0.5 * h, h)
    )
    add, sub, mul = np.add, np.subtract, np.multiply

    def f(cv, out):  # x + lam * cv - 0.5 * cv * cv
        mul(lam, cv, out)
        add(out, x, out)
        mul(half, cv, tmp)
        mul(tmp, cv, tmp)
        sub(out, tmp, out)

    stages = ((k2, k1, half_h), (k3, k2, half_h), (k4, k3, full_h))
    maxerr = np.zeros_like(x)
    c = np.zeros((_RK4_BLOCK + 1, x.size))  # row 0: c before the block's first step
    steps = int(round(t_max / h))
    for first in range(1, steps + 1, _RK4_BLOCK):
        n = min(_RK4_BLOCK, steps + 1 - first)
        for r in range(n):
            cv = c[r]
            f(cv, k1)
            for k, prev, w in stages:  # k = f(c + w * prev)
                mul(prev, w, arg)
                add(arg, cv, arg)
                f(arg, k)
            mul(k2, two, arg)  # c + (h / 6) * (k1 + 2 k2 + 2 k3 + k4)
            add(arg, k1, arg)
            mul(k3, two, tmp)
            add(arg, tmp, arg)
            add(arg, k4, arg)
            mul(arg, sixth_h, arg)
            add(cv, arg, c[r + 1])
        c[0] = c[n]
        t = np.arange(first, first + n) * h
        err = c[1 : n + 1]  # c, then its error, in place
        for i, lim in enumerate(limits):
            err[:, i] -= lim.c(t)
        np.abs(err, out=err)
        np.maximum(maxerr, err.max(axis=0), out=maxerr)
    return float(maxerr.max())


def suite_deterministic(seed: int) -> ComparisonReport:
    """Closed-form c(t) vs RK4 (<= 1e-8) and the lam=0, x=1/2 tanh form (1e-12)."""
    cases = 100
    rng = make_stream(seed, 0, "curves")
    xs = 0.1 + 4.9 * rng.random(cases)
    lams = -3.0 + 6.0 * rng.random(cases)
    rk4_err = rk4_curve_max_error(xs, lams)
    t = np.linspace(0.0, 10.0, 1001)
    lim = DeterministicLimit(x=0.5, lam=0.0)
    tanh_err = float(np.max(np.abs(lim.c(t) - np.tanh(0.5 * t))))
    tol = 1e-8
    passed = rk4_err <= tol and tanh_err <= 1e-12
    return ComparisonReport(
        test_name="deterministic-curve-closed-form",
        statistic=rk4_err,
        tolerance=tol,
        passed=passed,
        N=cases,
        seed=seed,
        details={"tanh_case_error": tanh_err, "tanh_tolerance": 1e-12},
    )


def suite_selfsim(seed: int) -> ComparisonReport:
    """Restart test for the SDE pair at x=1, lam=0, t0=s=0.25; KS <= 0.05.

    For each path alive at t0 with state (z, mu) = (Z(t0), C(t0)), the
    continued value Z(t0 + s) and an independent restart from z with drift
    parameter lam - mu run for s carry the same law; the suite compares the
    two populations (KS distance, first-moment delta).
    """
    x, lam, t0, s, N, dt = 1.0, 0.0, 0.25, 0.25, 5000, 1e-4
    rng = make_stream(seed, 0, "selfsim")
    z1, c1, ab1 = sde_ensemble(np.full(N, x), lam, dt, _grid_steps(dt, t0), rng)
    alive = ab1 < 0
    n_alive = int(alive.sum())
    if n_alive < N / 10:
        raise InsufficientSampleError(
            f"only {n_alive} of {N} paths alive at t0={t0}; need at least N/10"
        )
    steps = _grid_steps(dt, s)
    continued, _, _ = sde_ensemble(z1[alive], lam, dt, steps, rng, c0=c1[alive])
    restarted, _, _ = sde_ensemble(z1[alive], lam - c1[alive], dt, steps, rng)
    ks = ks_statistic(continued, restarted)
    se = math.sqrt(continued.var(ddof=1) / n_alive + restarted.var(ddof=1) / n_alive)
    tol = 0.05
    return ComparisonReport(
        test_name="self-similarity-restart",
        statistic=ks,
        tolerance=tol,
        passed=ks <= tol,
        N=N,
        seed=seed,
        details={
            "paths_alive_at_t0": n_alive,
            "mean_delta": float(continued.mean() - restarted.mean()),
            "mean_delta_se": se,
            "noise_floor_95": _noise_floor(n_alive),
        },
    )


def suite_components(seed: int) -> ComparisonReport:
    """Rescaled total infected exceeds t0 - eta with frequency >= 0.95."""
    n, x, lam, eta, replicates = 10**7, 0.5, 0.0, 0.2, 200
    window = GeneralWindow(lam=lam, epsilon=float(n) ** (-0.2))
    lim = DeterministicLimit(x=x, lam=lam)
    threshold = lim.t0 - eta
    totals = [tr.C[-1] for tr in _chain_traces(seed, window, n, x, replicates)]
    rescaled = np.asarray(totals) * window.scales("C", n)[0]
    freq = float(np.mean(rescaled > threshold))
    return ComparisonReport(
        test_name="component-mass-lower-bound",
        statistic=freq,
        tolerance=0.95,
        passed=freq >= 0.95,
        n=n,
        N=replicates,
        seed=seed,
        details={
            "epsilon": window.epsilon,
            "threshold": threshold,
            "rescaled_mean": float(rescaled.mean()),
        },
    )


def suite_conjecture(seed: int) -> ComparisonReport:
    """Exploratory: mean rescaled walk vs lam t - t**2/2 on [0, 2].

    Reported, never gating: ``passed`` is always True.  ``components_opened``
    in the details sums the walks' restarts over replicates, and
    ``first_order_sup`` is the sup of the mean path against the first-order
    curve lam t - t**2/2 - eps (lam t**2 - t**3/6).

    The walks run on two threads, in a pool that ends with the call.  Every
    replicate's stream is made on the calling thread first, and each walk
    hands back only its sampled points, so at most two full walks are held
    at once.  The points are summed in replicate order, so the float sum is
    the same as one thread's.
    """
    n, lam, t_max, replicates = 10**6, 1.0, 2.0, 40
    window = GeneralWindow(lam=lam, epsilon=float(n) ** (-0.2))
    p = edge_probability(window, n)
    space, time_scale = window.scales("walk", n)
    max_index = int(round(t_max / time_scale))
    js = np.unique(np.round(np.linspace(0, max_index, 201)).astype(np.int64))

    def walk(rng):
        path = walk_chain(n, p, max_index, rng)
        return path.X[js], path.components_opened

    streams = [make_stream(seed, r, "walk") for r in range(replicates)]
    acc = np.zeros(js.size)
    components = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for x, opened in pool.map(walk, streams):  # in replicate order
            acc += x * space
            components += opened
    mean_path = acc / replicates
    t = js * time_scale
    ref = lam * t - 0.5 * t * t
    sup = float(np.max(np.abs(mean_path - ref)))
    # the step drift expanded to first order in epsilon
    first_order = ref - window.epsilon * (lam * t * t - t**3 / 6.0)
    return ComparisonReport(
        test_name="drifting-window-walk-conjecture",
        statistic=sup,
        tolerance=0.1,
        passed=True,
        n=n,
        N=replicates,
        seed=seed,
        details={
            "exploratory": True,
            "within_tolerance": sup <= 0.1,
            "epsilon": window.epsilon,
            "components_opened": components,
            "first_order_sup": float(np.max(np.abs(mean_path - first_order))),
        },
    )


SUITES = {
    "kernel": suite_kernel,
    "identities": suite_identities,
    "moments": suite_moments,
    "zlimit": suite_zlimit,
    "lamperti": suite_lamperti,
    "cousin": suite_cousin,
    "klimit": suite_klimit,
    "deterministic": suite_deterministic,
    "selfsim": suite_selfsim,
    "components": suite_components,
    "conjecture": suite_conjecture,
}


def _checked_suite(name: str, seed: int | None):
    """The call that `run_suite` makes, once its arguments are checked."""
    if name not in SUITES:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    return partial(SUITES[name], seed=DEFAULT_SEED if seed is None else _checked_seed(seed))


def run_suite(name: str, seed: int | None = None) -> ComparisonReport:
    """Run suite ``name`` at ``seed`` (DEFAULT_SEED when None).

    An unknown suite or a negative seed raises ConfigError before the suite
    starts.
    """
    return _checked_suite(name, seed)()
