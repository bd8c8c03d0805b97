"""Closed-form binomial statistics and decay-rate sweeps over the state box.

For beta ~ Binomial(n - c, q(n, z)) we need its mean, variance, and the
fourth moment about z.  The last is assembled from binomial central moments,

    kappa = kappa4 + 4*kappa3 + 6*kappa2 + kappa0,
    kappa4 = sigma2 * (1 + 3*(n-c-2)*(q - q**2)),
    kappa3 = sigma2 * (1 - 2q) * (mu - z),
    kappa2 = sigma2 * (mu - z)**2,
    kappa0 = (mu - z)**4,

with an independent direct-summation oracle (`kappa_oracle`) for testing.

`bound_sweep` measures, per n, the sup over a lattice covering the box
{0 <= z <= n**(1/3) r, 0 <= c <= n**(2/3) T r} of the drift/variance
deviations |mu - z - n**(-1/3) z (lam - n**(-2/3) c)| and of |kappa|, then
fits the log-log decay slope across n.  The sup is over the grid only; the
grid always contains the box corners.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import CriticalWindow, GeneralWindow, edge_probability

__all__ = [
    "MomentTriple",
    "BoundSweep",
    "moment_triple",
    "kappa_oracle",
    "bound_sweep",
    "SWEEP_QUANTITIES",
]

SWEEP_QUANTITIES = ("mu_dev", "sigma2_dev", "kappa_abs")


@dataclass(frozen=True)
class MomentTriple:
    mu: float
    sigma2: float
    kappa: float


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


def moment_triple(n: int, z: int, c: int, window: CriticalWindow) -> MomentTriple:
    """Mean, variance, and fourth moment about z of one kernel transition."""
    if not (0 <= c <= n and 0 <= z <= n):
        raise ValueError(f"need 0 <= z, c <= n; got z={z}, c={c}, n={n}")
    p = edge_probability(window, n)
    mu, sigma2, kappa = _moment_arrays(n, z, c, p)
    return MomentTriple(mu=float(mu), sigma2=float(sigma2), kappa=float(kappa))


def kappa_oracle(n: int, z: int, c: int, window: CriticalWindow) -> float:
    """Fourth moment about z by direct summation of the binomial pmf.

    Independent of the closed-form route in `moment_triple`; restricted to
    n - c <= 2000 terms.  The pmf is evaluated in log space.
    """
    m = n - c
    if m > 2000:
        raise ValueError(f"kappa_oracle needs n - c <= 2000, got {m}")
    if not (0 <= c <= n and 0 <= z <= n):
        raise ValueError(f"need 0 <= z, c <= n; got z={z}, c={c}, n={n}")
    if z == 0:
        return 0.0
    from scipy.stats import binom

    p = edge_probability(window, n)
    q = -math.expm1(z * math.log1p(-p))
    support = np.arange(m + 1)
    logpmf = binom.logpmf(support, m, q)
    return float(np.sum((support - z) ** 4 * np.exp(logpmf)))


@dataclass(frozen=True)
class BoundSweep:
    """Per-n grid suprema of the deviation quantities and their decay slopes."""

    n_list: tuple
    r: float
    T: float
    grid_density: int
    window_label: str
    sups: dict
    slopes: dict
    argmax: dict
    argmax_on_boundary: dict = field(default_factory=dict)

    def rows(self):
        """Iterate (n, quantity, sup_value) rows for CSV export."""
        for quantity in SWEEP_QUANTITIES:
            for n, sup in zip(self.n_list, self.sups[quantity]):
                yield n, quantity, sup


def _grid(limit: int, density: int) -> np.ndarray:
    pts = np.unique(np.round(np.linspace(0.0, limit, density)).astype(np.int64))
    return pts


def _window_at(window_family, n: int) -> CriticalWindow:
    if callable(window_family):
        return window_family(n)
    return window_family


def bound_sweep(n_list, r: float, T: float, window_family, grid_density: int = 64) -> BoundSweep:
    """Sup of the three deviation quantities over the state box, for each n.

    ``window_family`` is a window applied at every n, or a callable n -> window
    (for schedules like epsilon = n**-a).  For a general window the box is
    {z <= n**(1/3) theta**2 r, c <= n**(2/3) theta r T} and the drift reference
    uses lam * theta in place of lam.  Deterministic: no RNG anywhere.
    """
    if grid_density < 8:
        raise ValueError(f"grid_density must be >= 8, got {grid_density}")
    from .analysis import fit_loglog_slope

    n_list = tuple(int(n) for n in n_list)
    sups = {quantity: [] for quantity in SWEEP_QUANTITIES}
    argmax = {quantity: [] for quantity in SWEEP_QUANTITIES}
    on_boundary = {quantity: [] for quantity in SWEEP_QUANTITIES}
    label = None
    for n in n_list:
        window = _window_at(window_family, n)
        label = label or window.describe()["window"]
        p = edge_probability(window, n)
        cbrt_n = float(np.cbrt(float(n)))
        if isinstance(window, GeneralWindow):
            theta = window.theta(n)
            zmax = int(cbrt_n * theta**2 * r)
            cmax = int(cbrt_n**2 * theta * r * T)
            drift_lam = window.lam * theta
        else:
            theta = 1.0
            zmax = int(cbrt_n * r)
            cmax = int(cbrt_n**2 * T * r)
            drift_lam = window.lam
        zs = _grid(zmax, grid_density)
        cs = _grid(min(cmax, n), grid_density)
        zg, cg = np.meshgrid(zs, cs, indexing="ij")
        mu, sigma2, kappa = _moment_arrays(n, zg, cg, p)
        ref = zg + zg * (drift_lam - cg / cbrt_n**2) / cbrt_n
        for quantity, dev in (
            ("mu_dev", np.abs(mu - ref)),
            ("sigma2_dev", np.abs(sigma2 - ref)),
            ("kappa_abs", np.abs(kappa)),
        ):
            flat = int(np.argmax(dev))
            zi, ci = np.unravel_index(flat, dev.shape)
            sups[quantity].append(float(dev[zi, ci]))
            zstar, cstar = int(zg[zi, ci]), int(cg[zi, ci])
            argmax[quantity].append((zstar, cstar))
            on_boundary[quantity].append(
                zstar in (0, int(zs[-1])) or cstar in (0, int(cs[-1]))
            )
    slopes = {}
    for quantity in SWEEP_QUANTITIES:
        slopes[quantity] = fit_loglog_slope(list(zip(n_list, sups[quantity])))
    return BoundSweep(
        n_list=n_list,
        r=r,
        T=T,
        grid_density=grid_density,
        window_label=label or "aldous",
        sups={quantity: tuple(vals) for quantity, vals in sups.items()},
        slopes=slopes,
        argmax={quantity: tuple(vals) for quantity, vals in argmax.items()},
        argmax_on_boundary={quantity: tuple(vals) for quantity, vals in on_boundary.items()},
    )
