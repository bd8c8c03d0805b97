"""Closed-form binomial statistics and the decay-rate sweep over the state box.

For beta ~ Binomial(n - c, q(n, z)) we need its mean, variance, and the
fourth moment about z.  The last is assembled from binomial central moments,

    kappa = kappa4 + 4*kappa3 + 6*kappa2 + kappa0,
    kappa4 = sigma2 * (1 + 3*(n-c-2)*(q - q**2)),
    kappa3 = sigma2 * (1 - 2q) * (mu - z),
    kappa2 = sigma2 * (mu - z)**2,
    kappa0 = (mu - z)**4.

`bound_sweep` measures, per n, the sup over a lattice of at most 64 x 64
points covering the box {0 <= z <= n**(1/3), 0 <= c <= n**(2/3)} of the
drift/variance deviations
|mu - z - n**(-1/3) z (lam - n**(-2/3) c)| and of |kappa|, then fits the
log-log decay slope across n.  The sup is over the grid only; the grid
always contains the box corners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import fit_loglog_slope
from .core import AldousWindow, edge_probability

__all__ = ["BoundSweep", "bound_sweep", "SWEEP_QUANTITIES"]

SWEEP_QUANTITIES = ("mu_dev", "sigma2_dev", "kappa_abs")

_N_LIST = (10**3, 10**4, 10**5, 10**6)  # populations, four decades
_LAM = 1.0  # Aldous-window lambda
_GRID_POINTS = 64  # lattice points per axis, before rounding merges any


def _moment_arrays(n: int, z, c, p: float):
    """Vectorized (mu, sigma2, kappa) over integer arrays z, c."""
    z = np.asarray(z, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    q = -np.expm1(z * math.log1p(-p))
    m = n - c
    mu = m * q
    sigma2 = m * q * (1.0 - q)
    d = mu - z
    kappa4 = sigma2 * (1.0 + 3.0 * (m - 2.0) * (q - q * q))
    kappa3 = sigma2 * (1.0 - 2.0 * q) * d
    kappa2 = sigma2 * d * d
    kappa0 = d**4
    return mu, sigma2, kappa4 + 4.0 * kappa3 + 6.0 * kappa2 + kappa0


@dataclass(frozen=True)
class BoundSweep:
    """Per-n grid suprema of the deviation quantities and their decay slopes."""

    n_list: tuple
    sups: dict
    slopes: dict

    def rows(self):
        """Iterate (n, quantity, sup_value) rows for CSV export."""
        for quantity in SWEEP_QUANTITIES:
            for n, sup in zip(self.n_list, self.sups[quantity]):
                yield n, quantity, sup


def _grid(limit: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0.0, limit, _GRID_POINTS)).astype(np.int64))


def bound_sweep() -> BoundSweep:
    """Sup of the three deviation quantities over the state box, for each n.

    Deterministic: no RNG anywhere.
    """
    window = AldousWindow(_LAM)
    sups = {quantity: [] for quantity in SWEEP_QUANTITIES}
    for n in _N_LIST:
        p = edge_probability(window, n)
        cbrt_n = float(np.cbrt(float(n)))
        zs = _grid(int(cbrt_n))
        cs = _grid(min(int(cbrt_n**2), n))
        zg, cg = np.meshgrid(zs, cs, indexing="ij")
        mu, sigma2, kappa = _moment_arrays(n, zg, cg, p)
        ref = zg + zg * (window.lam - cg / cbrt_n**2) / cbrt_n
        sups["mu_dev"].append(float(np.abs(mu - ref).max()))
        sups["sigma2_dev"].append(float(np.abs(sigma2 - ref).max()))
        sups["kappa_abs"].append(float(np.abs(kappa).max()))
    return BoundSweep(
        n_list=_N_LIST,
        sups={quantity: tuple(vals) for quantity, vals in sups.items()},
        slopes={
            quantity: fit_loglog_slope(list(zip(_N_LIST, sups[quantity])))
            for quantity in SWEEP_QUANTITIES
        },
    )
