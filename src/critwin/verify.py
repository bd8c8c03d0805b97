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
  conjecture    (exploratory, never gates) rescaled all-components walk vs
                lam t - t**2/2

Only this module and the tests hold expected values; library modules never
grade themselves.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .analysis import ComparisonReport, ks_statistic, scale_pair
from .chain import (
    K_at_indices,
    csn_at_indices,
    exact_profile_distribution,
    simulate_trace,
)
from .continuum import (
    DeterministicLimit,
    hitting_ensemble,
    lamperti_marginals,
    sde_ensemble,
    self_similarity_test,
)
from .core import (
    AldousWindow,
    GeneralWindow,
    InvalidWindowError,
    RunConfig,
    edge_probability,
    make_stream,
)
from .graph import (
    breadth_first_walk,
    cousin_series,
    explore,
    explore_from_roots,
    graph_from_edges,
    infected_total,
    sample_graph,
)
from .moments import bound_sweep

__all__ = [
    "DEFAULT_SEED",
    "SUITES",
    "run_suite",
    "exhaustive_profile_distribution",
    "total_variation",
    "rk4_curve_max_error",
]

DEFAULT_SEED = 20260810


def total_variation(dist_a: dict, dist_b: dict) -> float:
    keys = set(dist_a) | set(dist_b)
    return 0.5 * sum(abs(dist_a.get(k, 0.0) - dist_b.get(k, 0.0)) for k in keys)


@lru_cache(maxsize=None)
def _profile_table(n: int, k: int):
    """Profile of every (edge set, root set) pair on n labeled vertices.

    Returns a list of (edge_count, profile) with one entry per pair; the
    heights come from the production breadth-first exploration.
    """
    pairs = list(itertools.combinations(range(n), 2))
    rootsets = list(itertools.combinations(range(n), k))
    table = []
    for mask in range(1 << len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        u = [e[0] for e in chosen]
        v = [e[1] for e in chosen]
        g = graph_from_edges(n, 0.0, u, v)
        edge_count = len(chosen)
        for roots in rootsets:
            expl = explore_from_roots(g, np.asarray(roots, dtype=np.int64))
            series = cousin_series(expl)
            profile = tuple(int(z) for z in series.Z) + (0,)
            table.append((edge_count, profile))
    return table


def exhaustive_profile_distribution(n: int, k: int, p: float) -> dict:
    """Exact profile law by enumerating all graphs and root subsets."""
    m = n * (n - 1) // 2
    n_rootsets = math.comb(n, k)
    out: dict = {}
    for edge_count, profile in _profile_table(n, k):
        weight = p**edge_count * (1.0 - p) ** (m - edge_count) / n_rootsets
        out[profile] = out.get(profile, 0.0) + weight
    return out


def suite_kernel(seed: int | None = None, **_) -> ComparisonReport:
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


def suite_identities(seed: int | None = None, samples: int = 1000, **_) -> ComparisonReport:
    """Combinatorial identities, exact, on random explorations (both windows)."""
    seed = DEFAULT_SEED if seed is None else seed
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
        h_ord = expl.height[expl.order]
        # brute-force cousin counts, independent of the bincount route
        brute_csn = (h_ord[None, :] == h_ord[:, None]).sum(axis=1)
        ok = (
            np.array_equal(series.csn, brute_csn)
            and np.array_equal(series.csn, series.Z[h_ord])
            and np.array_equal(
                series.K[series.C], np.cumsum(series.Z.astype(np.int64) ** 2)
            )
            and int(series.C[-1]) == infected_total(expl) == int(series.Z.sum())
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


def moments_sweep():
    """The pinned sweep graded by `suite_moments` (also exported to CSV)."""
    return bound_sweep(
        n_list=(10**3, 10**4, 10**5, 10**6), r=1.0, T=1.0, window_family=AldousWindow(1.0)
    )


def suite_moments(seed: int | None = None, **_) -> ComparisonReport:
    """Decay slopes of the moment-deviation sups across four decades of n."""
    sweep = moments_sweep()
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


def _aldous_chain_stats(seed: int, n: int, x: float, lam: float, reps: int):
    """Per-replicate chain Z at rescaled time 1 and the total infected count."""
    cfg = RunConfig(n=n, x=x, window=AldousWindow(lam), seed=seed, replicates=reps)
    _, time_scale = scale_pair("aldous", "Z", n)
    h_at_t1 = int(round(1.0 / time_scale))
    z_at = np.empty(reps)
    total = np.empty(reps)
    for r in range(reps):
        tr = simulate_trace(cfg, rng=make_stream(seed, r, "chain"))
        z_at[r] = tr.Z[h_at_t1] if h_at_t1 < tr.Z.size else 0
        total[r] = tr.C[-1]
    return z_at, total


def suite_zlimit(
    seed: int | None = None,
    n: int = 10**6,
    x: float = 1.0,
    lam: float = 0.0,
    N: int = 2000,
    dt: float = 1e-4,
    **_,
) -> ComparisonReport:
    """Height-profile limit at t=1 (KS <= 0.06) and total mass vs hitting time."""
    seed = DEFAULT_SEED if seed is None else seed
    space_z, _ = scale_pair("aldous", "Z", n)
    space_c, _ = scale_pair("aldous", "C", n)
    chain_z1, chain_total = _aldous_chain_stats(seed, n, x, lam, N)
    sde_z1, _, _ = sde_ensemble(
        np.full(N, x), lam, dt, int(round(1.0 / dt)), make_stream(seed, 0, "sde")
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
            "noise_floor_95": 1.36 * math.sqrt(2.0 / N),
            "discretization_allowance": ks_tol - 1.36 * math.sqrt(2.0 / N),
            "total_mass_mean": float(mass.mean()),
            "hitting_mean": float(t_hit.mean()),
            "mean_delta": delta,
            "combined_se": se,
            "delta_limit_3se": 3.0 * se,
            "hitting_truncated": int(trunc.sum()),
        },
    )


def suite_lamperti(
    seed: int | None = None,
    x: float = 1.0,
    lam: float = 0.0,
    N: int = 5000,
    dt: float = 1e-4,
    t_at: float = 1.0,
    **_,
) -> ComparisonReport:
    """Marginal at t=1 of the Euler SDE route vs the time-change route (KS)."""
    seed = DEFAULT_SEED if seed is None else seed
    steps = int(round(t_at / dt))
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
            "noise_floor_95": 1.36 * math.sqrt(2.0 / N),
            "discretization_allowance": tol - 1.36 * math.sqrt(2.0 / N),
            "grid_truncated": int(trunc.sum()),
        },
    )


def _general_traces(seed: int, n: int, x: float, lam: float, replicates: int):
    eps = float(n) ** (-0.2)
    window = GeneralWindow(lam=lam, epsilon=eps)
    cfg = RunConfig(n=n, x=x, window=window, seed=seed, replicates=replicates)
    traces = [
        simulate_trace(cfg, rng=make_stream(seed, r, "chain")) for r in range(replicates)
    ]
    return eps, traces


def suite_cousin(
    seed: int | None = None,
    n: int = 10**7,
    x: float = 1.0,
    lam: float = 0.0,
    replicates: int = 200,
    **_,
) -> ComparisonReport:
    """Mean rescaled cousin path vs (x + lam t - t**2/2)+ on [0, 0.9 t0]."""
    seed = DEFAULT_SEED if seed is None else seed
    eps, traces = _general_traces(seed, n, x, lam, replicates)
    lim = DeterministicLimit(x=x, lam=lam)
    grid = np.linspace(0.0, 0.9 * lim.t0, 50)
    space, time_scale = scale_pair("general", "csn", n, eps)
    js = np.floor(grid / time_scale).astype(np.int64)
    acc = np.zeros(grid.size)
    for tr in traces:
        acc += csn_at_indices(tr.Z, tr.C, js) * space
    mean_path = acc / replicates
    ref = np.maximum(lim.f(grid), 0.0)
    sup = float(np.max(np.abs(mean_path - ref)))
    tol = 0.05
    return ComparisonReport(
        test_name="drifting-window-cousin-limit",
        statistic=sup,
        tolerance=tol,
        passed=sup <= tol,
        n=n,
        N=replicates,
        seed=seed,
        details={"epsilon": eps, "t0": lim.t0, "grid_points": grid.size},
    )


def suite_klimit(
    seed: int | None = None,
    n: int = 10**7,
    x: float = 1.0,
    lam: float = 0.0,
    replicates: int = 200,
    **_,
) -> ComparisonReport:
    """Mean rescaled cumulative cousin path vs the frozen cubic on [0, 0.9 t0]."""
    seed = DEFAULT_SEED if seed is None else seed
    eps, traces = _general_traces(seed, n, x, lam, replicates)
    lim = DeterministicLimit(x=x, lam=lam)
    grid = np.linspace(0.0, 0.9 * lim.t0, 50)
    space, time_scale = scale_pair("general", "K", n, eps)
    js = np.floor(grid / time_scale).astype(np.int64)
    acc = np.zeros(grid.size)
    for tr in traces:
        acc += K_at_indices(tr.Z, tr.C, js) * space
    mean_path = acc / replicates
    ref = lim.k_limit(grid)
    sup = float(np.max(np.abs(mean_path - ref)))
    tol = 0.05
    return ComparisonReport(
        test_name="drifting-window-cumulative-limit",
        statistic=sup,
        tolerance=tol,
        passed=sup <= tol,
        n=n,
        N=replicates,
        seed=seed,
        details={"epsilon": eps, "t0": lim.t0, "grid_points": grid.size},
    )


def rk4_curve_max_error(xs, lams, t_max: float = 10.0, h: float = 1e-4) -> float:
    """Max |closed-form c - RK4 of c' = f(c)| over the grid, across cases."""
    x = np.asarray(xs, dtype=np.float64)
    lam = np.asarray(lams, dtype=np.float64)
    s = np.sqrt(2.0 * x + lam * lam)
    phase0 = np.arctanh(-lam / s)

    def f(cv):
        return x + lam * cv - 0.5 * cv * cv

    c = np.zeros_like(x)
    maxerr = np.zeros_like(x)
    steps = int(round(t_max / h))
    for i in range(1, steps + 1):
        k1 = f(c)
        k2 = f(c + 0.5 * h * k1)
        k3 = f(c + 0.5 * h * k2)
        k4 = f(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        closed = lam + s * np.tanh(0.5 * s * (i * h) + phase0)
        np.maximum(maxerr, np.abs(c - closed), out=maxerr)
    return float(maxerr.max())


def suite_deterministic(seed: int | None = None, cases: int = 100, **_) -> ComparisonReport:
    """Closed-form c(t) vs RK4 (<= 1e-8) and the lam=0, x=1/2 tanh form (1e-12)."""
    seed = DEFAULT_SEED if seed is None else seed
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


def suite_selfsim(
    seed: int | None = None,
    x: float = 1.0,
    lam: float = 0.0,
    t0: float = 0.25,
    s: float = 0.25,
    N: int = 5000,
    dt: float = 1e-4,
    **_,
) -> ComparisonReport:
    """Restart test for the SDE pair; KS <= 0.05."""
    seed = DEFAULT_SEED if seed is None else seed
    report = self_similarity_test(x, lam, t0, s, N, dt, make_stream(seed, 0, "selfsim"))
    return ComparisonReport(
        test_name=report.test_name,
        statistic=report.statistic,
        tolerance=report.tolerance,
        passed=report.passed,
        N=report.N,
        seed=seed,
        details=report.details,
    )


def suite_components(
    seed: int | None = None,
    n: int = 10**7,
    x: float = 0.5,
    lam: float = 0.0,
    eta: float = 0.2,
    replicates: int = 200,
    **_,
) -> ComparisonReport:
    """Rescaled total infected exceeds t0 - eta with frequency >= 0.95."""
    seed = DEFAULT_SEED if seed is None else seed
    eps, traces = _general_traces(seed, n, x, lam, replicates)
    lim = DeterministicLimit(x=x, lam=lam)
    threshold = lim.t0 - eta
    rescaled = np.asarray([tr.C[-1] for tr in traces]) * eps / float(np.cbrt(float(n)))
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
            "epsilon": eps,
            "threshold": threshold,
            "rescaled_mean": float(rescaled.mean()),
        },
    )


def suite_conjecture(
    seed: int | None = None,
    n: int = 10**6,
    lam: float = 1.0,
    replicates: int = 40,
    t_max: float = 2.0,
    **_,
) -> ComparisonReport:
    """Exploratory: mean rescaled walk vs lam t - t**2/2 on [0, t_max].

    Reported, never gating: ``passed`` is always True.
    """
    seed = DEFAULT_SEED if seed is None else seed
    eps = float(n) ** (-0.2)
    window = GeneralWindow(lam=lam, epsilon=eps)
    p = edge_probability(window, n)
    space, time_scale = scale_pair("general", "walk", n, eps)
    max_index = int(round(t_max / time_scale))
    js = np.unique(np.round(np.linspace(0, max_index, 201)).astype(np.int64))
    acc = np.zeros(js.size)
    for r in range(replicates):
        g = sample_graph(n, p, make_stream(seed, r, "graph"))
        walk = breadth_first_walk(g, make_stream(seed, r, "walk"), max_steps=max_index)
        acc += walk.X[js] * space
    mean_path = acc / replicates
    t = js * time_scale
    ref = lam * t - 0.5 * t * t
    sup = float(np.max(np.abs(mean_path - ref)))
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
            "epsilon": eps,
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


def run_suite(name: str, seed: int | None = None, **kwargs) -> ComparisonReport:
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        )
    return SUITES[name](seed=seed, **kwargs)
