import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from critwin import (
    AldousWindow,
    ComparisonReport,
    GeneralWindow,
    fit_loglog_slope,
    ks_statistic,
)

_KINDS = ("Z", "C", "csn", "K", "walk")


def test_rescale_aldous_cousin_example():
    # csn = 100 at index 10**4 with n = 10**6: t = 10**4 * n**(-2/3) = 1.0,
    # y = 100 * n**(-1/3) = 1.0
    space, time = AldousWindow(0.0).scales("csn", 10**6)
    assert 10**4 * time == pytest.approx(1.0, rel=1e-12)
    assert 100 * space == pytest.approx(1.0, rel=1e-12)


def test_rescale_identity_at_n_one():
    series = np.array([3, 1, 4, 1, 5], dtype=np.int64)
    for window in (AldousWindow(0.0), GeneralWindow(0.0, 1.0)):
        for kind in _KINDS:
            space, time = window.scales(kind, 1)
            assert np.array_equal(series * space, series.astype(float))
            assert np.array_equal(np.arange(series.size) * time, np.arange(5.0))


def test_rescale_general_K_example():
    # K = 10**7 at index 10**5 with n = 10**6, eps = 0.1 maps to (1.0, 0.01)
    space, time = GeneralWindow(lam=0.0, epsilon=0.1).scales("K", 10**6)
    assert 10**5 * time == pytest.approx(1.0, rel=1e-12)
    assert 10**7 * space == pytest.approx(0.01, rel=1e-12)


_EPS7 = float(10**7) ** (-0.2)

# (window, n) -> kind -> (space_scale, time_scale), recorded bit for bit from
# the table the windows replaced
_SCALES = [
    (AldousWindow(0.0), 1, {kind: (1.0, 1.0) for kind in _KINDS}),
    (GeneralWindow(0.0, 1.0), 1, {kind: (1.0, 1.0) for kind in _KINDS}),
    (AldousWindow(0.0), 10**6, {
        "Z": (0.01, 0.01),
        "C": (0.0001, 0.01),
        "csn": (0.01, 0.0001),
        "K": (1e-06, 0.0001),
        "walk": (0.01, 0.0001),
    }),
    (GeneralWindow(0.0, _EPS7), 10**7, {
        "Z": (6.309573444801935e-05, 0.03981071705534972),
        "C": (2.51188643150958e-06, 0.03981071705534972),
        "csn": (6.309573444801935e-05, 2.51188643150958e-06),
        "K": (1.584893192461114e-10, 2.51188643150958e-06),
        "walk": (6.309573444801935e-05, 2.5118864315095806e-06),
    }),
    (GeneralWindow(0.0, 0.1), 10**6, {
        "Z": (9.999999999999998e-05, 0.1),
        "C": (1e-05, 0.1),
        "csn": (9.999999999999998e-05, 1e-05),
        "K": (9.999999999999999e-10, 1e-05),
        "walk": (0.0001, 1e-05),
    }),
]


@pytest.mark.parametrize(
    "window, n, kind, expected",
    [
        pytest.param(w, n, kind, pair, id=f"{w.describe(n)['window']}-{n}-{kind}")
        for w, n, table in _SCALES
        for kind, pair in table.items()
    ],
)
def test_window_scales_are_pinned(window, n, kind, expected):
    assert window.scales(kind, n) == expected


def test_rescale_errors():
    for window in (AldousWindow(0.0), GeneralWindow(0.0, 0.1)):
        with pytest.raises(ValueError, match="kind"):
            window.scales("bogus", 100)


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


def test_comparison_report_json_keys():
    report = ComparisonReport(test_name="demo", statistic=1.0 / 3.0, tolerance=0.5, passed=True)
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
    assert payload["pass"] is True
    assert payload["details"] == {}


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
