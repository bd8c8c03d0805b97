import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from critwin import (
    fit_loglog_slope,
    ks_statistic,
    ks_two_sample,
    rescale,
    scale_pair,
    sup_distance,
)


def test_rescale_aldous_cousin_example():
    # csn = 100 at index 10**4 with n = 10**6: t = 10**4 * n**(-2/3) = 1.0,
    # y = 100 * n**(-1/3) = 1.0
    n = 10**6
    series = np.zeros(10**4 + 1, dtype=np.int64)
    series[10**4] = 100
    path = rescale(series, "aldous", "csn", n)
    assert path.t[10**4] == pytest.approx(1.0, rel=1e-12)
    assert path.values[10**4] == pytest.approx(1.0, rel=1e-12)


def test_rescale_identity_at_n_one():
    series = np.array([3, 1, 4, 1, 5], dtype=np.int64)
    path = rescale(series, "aldous", "Z", 1)
    assert np.array_equal(path.values, series.astype(float))
    assert np.array_equal(path.t, np.arange(5.0))


def test_rescale_general_K_example():
    # K = 10**7 at index 10**5 with n = 10**6, eps = 0.1 maps to (1.0, 0.01)
    n, eps = 10**6, 0.1
    series = np.zeros(10**5 + 1, dtype=np.int64)
    series[10**5] = 10**7
    path = rescale(series, "general", "K", n, epsilon=eps)
    assert path.t[10**5] == pytest.approx(1.0, rel=1e-12)
    assert path.values[10**5] == pytest.approx(0.01, rel=1e-12)


def test_rescale_unscale_roundtrip_exact():
    rng = np.random.default_rng(3)
    series = rng.integers(0, 10**6, size=257)
    path = rescale(series, "general", "csn", 10**7, epsilon=0.02)
    # the raw integer series rides along unchanged
    assert path.raw.dtype == series.dtype
    assert np.array_equal(path.raw, series)
    assert np.array_equal(path.values, series * path.space_scale)


def test_rescale_accepts_trace_and_series_objects():
    from critwin import AldousWindow, RunConfig, cousin_series, explore, make_stream
    from critwin import sample_graph, simulate_trace

    cfg = RunConfig(n=200, x=1.0, window=AldousWindow(0.0), seed=13)
    trace = simulate_trace(cfg, rng=make_stream(13, 0, "chain"))
    path = rescale(trace, "aldous", "Z", cfg.n)
    assert np.array_equal(path.raw, trace.Z)
    g = sample_graph(50, 0.03, make_stream(13, 0, "g"))
    series = cousin_series(explore(g, 2, make_stream(13, 0, "r")))
    path = rescale(series, "aldous", "csn", 50)
    assert np.array_equal(path.raw, series.csn)
    with pytest.raises(ValueError, match="has no"):
        rescale(trace, "aldous", "csn", cfg.n)


def test_rescale_errors():
    with pytest.raises(ValueError, match="epsilon"):
        rescale([1, 2], "general", "Z", 100)
    with pytest.raises(ValueError, match="kind"):
        rescale([1, 2], "aldous", "bogus", 100)
    with pytest.raises(ValueError, match="regime"):
        scale_pair("subcritical", "Z", 100)


def test_ks_identical_samples():
    a = np.array([0.3, 1.0, 2.5])
    assert ks_statistic(a, a) == 0.0


def test_ks_disjoint_points():
    assert ks_statistic([0.0], [1.0]) == 1.0


def test_ks_hand_example():
    assert ks_statistic([1.0, 2.0, 3.0], [1.5, 2.5]) == pytest.approx(1.0 / 3.0)


def test_ks_symmetric_and_matches_scipy():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = rng.normal(size=int(rng.integers(5, 400)))
        b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(5, 400)))
        got = ks_statistic(a, b)
        assert got == pytest.approx(ks_statistic(b, a), abs=1e-15)
        assert got == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)


def test_ks_handles_ties_against_scipy():
    rng = np.random.default_rng(9)
    a = rng.integers(0, 5, size=200).astype(float)
    b = rng.integers(0, 5, size=150).astype(float)
    assert ks_statistic(a, b) == pytest.approx(ks_2samp(a, b).statistic, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=60),
    st.lists(st.floats(-5, 5), min_size=1, max_size=60),
    st.sampled_from([np.exp, np.tanh, lambda v: v**3, lambda v: 2 * v + 1]),
)
def test_ks_invariant_under_monotone_transforms(a, b, transform):
    # round to a lattice so every transform stays injective in float64
    a = np.round(np.asarray(a), 3)
    b = np.round(np.asarray(b), 3)
    before = ks_statistic(a, b)
    after = ks_statistic(transform(a), transform(b))
    assert after == pytest.approx(before, abs=1e-12)


def test_ks_two_sample_report():
    report = ks_two_sample([1.0, 2.0, 3.0], [1.5, 2.5], tolerance=0.5, test_name="demo")
    assert report.passed
    assert report.statistic == pytest.approx(1.0 / 3.0)
    payload = report.to_json()
    assert set(payload) == {
        "test_name",
        "statistic",
        "tolerance",
        "n",
        "N",
        "seed",
        "pass",
        "details",
    }
    assert payload["details"]["noise_floor_95"] > 0


def test_sup_distance_examples():
    zero = rescale(np.zeros(5, dtype=np.int64), "aldous", "Z", 1)
    assert sup_distance(zero, lambda t: np.zeros_like(t)) == 0.0
    ones = rescale(np.ones(5, dtype=np.int64), "aldous", "Z", 1)
    assert sup_distance(ones, lambda t: np.zeros_like(t), t_range=(0, 4)) == 1.0


def test_sup_distance_step_vs_linear():
    # step path 0 -> 0, 0.5 -> 1 against reference t on [0, 1)
    path = rescale(np.array([0, 1], dtype=np.int64), "aldous", "Z", 1)
    scaled = type(path)(
        t=np.array([0.0, 0.5]),
        values=path.values,
        raw=path.raw,
        space_scale=1.0,
        time_scale=0.5,
        regime="aldous",
        kind="Z",
    )
    assert sup_distance(scaled, lambda t: t) == pytest.approx(0.5)


def test_fit_loglog_exact_power_law():
    ns = [10, 100, 1000, 10**4]
    slope, stderr = fit_loglog_slope([(n, n ** (-1.0 / 3.0)) for n in ns])
    assert slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert stderr < 1e-12


def test_fit_loglog_constant():
    slope, _ = fit_loglog_slope([(10, 2.0), (100, 2.0), (1000, 2.0)])
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_fit_loglog_two_points():
    slope, stderr = fit_loglog_slope([(10, 1.0), (100, 0.1)])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert stderr == 0.0


def test_fit_loglog_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_loglog_slope([(10, 1.0), (100, 0.0)])
