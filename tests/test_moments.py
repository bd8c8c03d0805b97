import math

import numpy as np
import pytest
from scipy.stats import binom

from critwin import (
    AldousWindow,
    GeneralWindow,
    bound_sweep,
    edge_probability,
)
from critwin.moments import _moment_arrays


def moment_triple(n, z, c, window):
    """(mu, sigma2, kappa) of one kernel transition, as Python floats."""
    mu, sigma2, kappa = _moment_arrays(n, z, c, edge_probability(window, n))
    return float(mu), float(sigma2), float(kappa)


def kappa_oracle(n, z, c, window):
    """Fourth moment about z by direct summation of the binomial pmf.

    Independent of the closed-form route in `_moment_arrays`; restricted to
    n - c <= 2000 terms.  The pmf is evaluated in log space.
    """
    m = n - c
    if m > 2000:
        raise ValueError(f"kappa_oracle needs n - c <= 2000, got {m}")
    if z == 0:
        return 0.0
    q = -math.expm1(z * math.log1p(-edge_probability(window, n)))
    support = np.arange(m + 1)
    return float(np.sum((support - z) ** 4 * np.exp(binom.logpmf(support, m, q))))


def test_moment_triple_zero_infectives():
    assert moment_triple(100, 0, 30, AldousWindow(1.0)) == (0.0, 0.0, 0.0)


def test_moment_triple_mean_example():
    mu, _, _ = moment_triple(100, 1, 50, AldousWindow(0.0))
    assert mu == pytest.approx(0.5, rel=1e-12)


def test_moment_triple_variance_example():
    _, sigma2, _ = moment_triple(100, 1, 0, AldousWindow(0.0))
    assert sigma2 == pytest.approx(100 * 0.01 * 0.99, rel=1e-12)


def test_kappa_oracle_zero():
    assert kappa_oracle(100, 0, 10, AldousWindow(0.5)) == 0.0


@pytest.mark.parametrize(
    "n,z,c,window",
    [
        (10, 1, 0, AldousWindow(0.0)),
        (50, 2, 25, AldousWindow(1.0)),
        (200, 7, 60, GeneralWindow(lam=1.5, epsilon=0.2)),
    ],
)
def test_kappa_matches_oracle_examples(n, z, c, window):
    _, _, closed = moment_triple(n, z, c, window)
    assert closed == pytest.approx(kappa_oracle(n, z, c, window), rel=1e-9)


def test_kappa_matches_oracle_random_tuples():
    rng = np.random.default_rng(77)
    for _ in range(1000):
        n = int(rng.integers(5, 2000))
        c = int(rng.integers(0, n))
        z = int(rng.integers(0, n + 1))
        if rng.random() < 0.5:
            window = AldousWindow(float(rng.uniform(-0.5, 2.0)))
        else:
            window = GeneralWindow(
                lam=float(rng.uniform(-0.5, 2.0)), epsilon=float(rng.uniform(0.01, 0.5))
            )
        _, sigma2, kappa = moment_triple(n, z, c, window)
        assert sigma2 >= 0.0
        assert kappa >= 0.0
        direct = kappa_oracle(n, z, c, window)
        assert kappa == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_kappa_oracle_guards_wide_support():
    with pytest.raises(ValueError, match="2000"):
        kappa_oracle(5000, 1, 0, AldousWindow(0.0))


def test_bound_sweep_deterministic_and_exports():
    a = bound_sweep()
    b = bound_sweep()
    assert a.n_list == (10**3, 10**4, 10**5, 10**6)
    assert a.sups == b.sups
    assert a.slopes == b.slopes
    rows = list(a.rows())
    assert len(rows) == 3 * len(a.n_list)
    assert all(len(r) == 3 for r in rows)
