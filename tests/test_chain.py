import math

import numpy as np
import pytest
from scipy.stats import binom

from critwin import (
    AldousWindow,
    ConfigError,
    GeneralWindow,
    RunConfig,
    exact_profile_distribution,
    make_stream,
    simulate_trace,
)
from critwin.chain import K_at_indices, csn_at_indices
from critwin.graph import cousin_series, explore, sample_graph
from critwin.verify import exhaustive_profile_distribution, total_variation


def test_simulate_trace_all_infected_at_start():
    # k = n: no susceptibles, absorbed at the first generation
    cfg = RunConfig(n=4, x=4 ** (2.0 / 3.0), window=AldousWindow(0.0))
    assert cfg.k == 4
    rng = make_stream(3, 0, "c")
    tr = simulate_trace(cfg, rng=rng)
    assert tr.Z.tolist() == [4]
    assert tr.C.tolist() == [4]
    assert tr.absorbed_at == 1
    assert not tr.truncated
    # the Binomial(0, q) draw that absorbed it took no variate from the stream
    assert rng.random() == make_stream(3, 0, "c").random()


def test_simulate_trace_structure_and_absorption():
    cfg = RunConfig(n=500, x=1.0, window=AldousWindow(0.5))
    for rep in range(50):
        tr = simulate_trace(cfg, rng=make_stream(9, rep, "c"))
        assert tr.Z[0] == tr.C[0] == cfg.k
        assert np.all(tr.Z > 0)
        assert np.array_equal(np.cumsum(tr.Z), tr.C)
        assert tr.C[-1] <= cfg.n
        if tr.truncated:
            assert tr.absorbed_at is None
        else:
            assert tr.absorbed_at == tr.Z.size


def test_simulate_trace_mean_first_generation():
    # E[Z(1)] = (n-k) * (1 - (1-p)**k) for n=100, k=5, lam=0
    cfg = RunConfig(n=100, x=5.0 / float(np.cbrt(100.0)), window=AldousWindow(0.0))
    assert cfg.k == 5
    expected = 95.0 * (1.0 - 0.99**5)
    reps = 10**5
    rng = make_stream(4, 0, "c")
    total = 0
    for _ in range(reps):
        tr = simulate_trace(cfg, max_steps=1, rng=rng)
        total += tr.Z[1] if tr.Z.size > 1 else 0
    se = math.sqrt(95 * 0.049 / reps)  # binomial variance upper bound
    assert total / reps == pytest.approx(expected, abs=4.5 * se)


def test_simulate_trace_truncation_flag():
    cfg = RunConfig(n=10**4, x=2.0, window=AldousWindow(1.0))
    tr = simulate_trace(cfg, max_steps=1, rng=make_stream(6, 0, "c"))
    # with k = 43 infectives the first generation is essentially never empty
    assert tr.truncated
    assert tr.absorbed_at is None


def test_default_max_steps():
    assert AldousWindow(0.0).max_steps(1000) == 500
    assert GeneralWindow(lam=0.0, epsilon=0.05).max_steps(10**6) == 1000


def test_exact_profile_single_edge():
    dist = exact_profile_distribution(2, 1, 0.5)
    assert dist[(1, 0)] == pytest.approx(0.5, abs=1e-12)
    assert dist[(1, 1, 0)] == pytest.approx(0.5, abs=1e-12)
    assert len(dist) == 2


def test_exact_profile_everyone_infected():
    dist = exact_profile_distribution(3, 3, 0.7)
    assert dist == {(3, 0): pytest.approx(1.0)}


def test_exact_profile_first_generation_mass():
    dist = exact_profile_distribution(3, 1, 0.5)
    mass = sum(v for path, v in dist.items() if len(path) > 1 and path[1] == 2)
    assert mass == pytest.approx(0.25, abs=1e-12)


def test_exact_profile_masses_sum_to_one():
    for n, k, p in [(5, 1, 0.3), (6, 2, 0.5), (8, 3, 0.15)]:
        dist = exact_profile_distribution(n, k, p)
        assert abs(sum(dist.values()) - 1.0) < 1e-10


def test_exact_profile_guards_large_n():
    with pytest.raises(ConfigError, match="simulate_trace"):
        exact_profile_distribution(13, 1, 0.5)


@pytest.mark.parametrize("n,k,p", [(3, 1, 0.2), (3, 2, 0.5), (4, 1, 0.5), (4, 2, 0.2)])
def test_kernel_matches_graph_enumeration(n, k, p):
    tv = total_variation(
        exact_profile_distribution(n, k, p), exhaustive_profile_distribution(n, k, p)
    )
    assert tv <= 1e-10


def test_total_infected_monotone_in_p_with_shared_uniforms():
    """E[C(inf)] grows with p; chains coupled through common uniforms."""
    n, k, reps, horizon = 60, 2, 2000, 80
    rng = make_stream(12, 0, "coupling")
    u = rng.random((horizon, reps))
    means = []
    for p in (0.01, 0.03, 0.05):
        z = np.full(reps, k, dtype=np.int64)
        c = np.full(reps, k, dtype=np.int64)
        for h in range(horizon):
            alive = (z > 0) & (c < n)
            if not alive.any():
                break
            q = np.where(alive, -np.expm1(z * math.log1p(-p)), 0.0)
            draw = binom.ppf(u[h], n - c, q).astype(np.int64)
            draw[~alive] = 0
            z = draw
            c = c + draw
        means.append(c.mean())
    assert means[0] < means[1] < means[2]


def test_trace_series_evaluators_match_graph_series():
    """csn/K evaluated from a (Z, C) trace equal the per-vertex graph series."""
    rng = make_stream(15, 0, "series")
    for _ in range(40):
        n = int(rng.integers(3, 150))
        g = sample_graph(n, float(rng.uniform(0, 2.5 / max(n, 3))), rng)
        k = int(rng.integers(1, min(n, 8) + 1))
        series = cousin_series(explore(g, k, rng))
        a_total = series.csn.size
        js = np.arange(a_total + 3)
        got_csn = csn_at_indices(series.Z, series.C, js)
        got_K = K_at_indices(series.Z, series.C, js)
        assert np.array_equal(got_csn[:a_total], series.csn)
        assert np.all(got_csn[a_total:] == 0)
        assert np.array_equal(got_K[: a_total + 1], series.K)
        assert np.all(got_K[a_total + 1 :] == series.K[-1])
