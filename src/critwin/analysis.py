"""Rescaling operators and the statistics that grade ensembles against limits.

A raw integer series (height profile, cousin statistic, cumulative cousin
sum, walk) becomes a right-continuous step path on a real time grid by
multiplying values by a space scale and indices by a time scale; the scale
pair depends on the window regime and on which series it is:

    regime   series  space scale          time scale
    aldous   Z       n**(-1/3)            n**(-1/3)
    aldous   C       n**(-2/3)            n**(-1/3)
    aldous   csn     n**(-1/3)            n**(-2/3)
    aldous   K       n**(-1)              n**(-2/3)
    general  Z       1/(n eps**2)         eps             (theta**-2 n**-1/3)
    general  C       1/(n eps)            eps
    general  csn     1/(n eps**2)         1/(n eps)
    general  K       1/(n**2 eps**3)      1/(n eps)

The applied scales are recorded on the path and the raw series is kept
alongside, as ``raw``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RescaledPath",
    "ComparisonReport",
    "scale_pair",
    "rescale",
    "ks_statistic",
    "ks_two_sample",
    "sup_distance",
    "fit_loglog_slope",
]

_SERIES_KINDS = ("Z", "C", "csn", "K", "walk")


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one statistical comparison, with its tolerance on record."""

    test_name: str
    statistic: float
    tolerance: float | None = None
    passed: bool | None = None
    n: int | None = None
    N: int | None = None
    seed: int | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "test_name": self.test_name,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "n": self.n,
            "N": self.N,
            "seed": self.seed,
            "pass": self.passed,
            "details": self.details,
        }


@dataclass(frozen=True)
class RescaledPath:
    """Step path on a real grid, plus the scales that produced it."""

    t: np.ndarray
    values: np.ndarray
    raw: np.ndarray
    space_scale: float
    time_scale: float
    regime: str
    kind: str


def scale_pair(regime: str, kind: str, n: int, epsilon: float | None = None):
    """(space_scale, time_scale) for the given regime and series kind."""
    if kind not in _SERIES_KINDS:
        raise ValueError(f"unknown series kind {kind!r}; expected one of {_SERIES_KINDS}")
    nf = float(n)
    if regime == "aldous":
        cbrt = float(np.cbrt(nf))
        table = {
            "Z": (1.0 / cbrt, 1.0 / cbrt),
            "C": (1.0 / cbrt**2, 1.0 / cbrt),
            "csn": (1.0 / cbrt, 1.0 / cbrt**2),
            "K": (1.0 / nf, 1.0 / cbrt**2),
            "walk": (1.0 / cbrt, 1.0 / cbrt**2),
        }
        return table[kind]
    if regime == "general":
        if epsilon is None:
            raise ValueError("general regime rescaling requires epsilon")
        eps = float(epsilon)
        cbrt = float(np.cbrt(nf))
        theta = eps * cbrt
        table = {
            "Z": (1.0 / (nf * eps**2), eps),
            "C": (1.0 / (nf * eps), eps),
            "csn": (1.0 / (nf * eps**2), 1.0 / (nf * eps)),
            "K": (1.0 / (nf**2 * eps**3), 1.0 / (nf * eps)),
            "walk": (1.0 / (cbrt * theta**2), 1.0 / (cbrt**2 * theta)),
        }
        return table[kind]
    raise ValueError(f"unknown regime {regime!r}; expected aldous|general")


def rescale(
    series, regime: str, kind: str, n: int, epsilon: float | None = None
) -> RescaledPath:
    """Turn a raw integer series into a rescaled step path.

    ``series`` may be an array, or a trace/series object (EpidemicTrace,
    CousinSeries, WalkPath) whose field matching ``kind`` is used.
    """
    if not isinstance(series, (np.ndarray, list, tuple)):
        attr = "X" if kind == "walk" else kind
        if not hasattr(series, attr):
            raise ValueError(f"{type(series).__name__} has no {kind!r} series")
        series = getattr(series, attr)
    raw = np.asarray(series)
    space, time = scale_pair(regime, kind, n, epsilon)
    t = np.arange(raw.size) * time
    return RescaledPath(
        t=t,
        values=raw * space,
        raw=raw,
        space_scale=space,
        time_scale=time,
        regime=regime,
        kind=kind,
    )


def ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic via a sorted merge; tie-safe."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / a.size
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_two_sample(a, b, tolerance: float | None = None, test_name: str = "ks-two-sample") -> ComparisonReport:
    """KS comparison wrapped in a report; pass/fail only if a tolerance is given."""
    stat = ks_statistic(a, b)
    na, nb = len(a), len(b)
    return ComparisonReport(
        test_name=test_name,
        statistic=stat,
        tolerance=tolerance,
        passed=None if tolerance is None else stat <= tolerance,
        N=min(na, nb),
        details={
            "n_a": na,
            "n_b": nb,
            "noise_floor_95": 1.36 * math.sqrt((na + nb) / (na * nb)),
        },
    )


def sup_distance(path: RescaledPath, reference, t_range=None) -> float:
    """Max over grid points of |path value - reference(t)|, on t_range."""
    t = path.t
    vals = path.values
    if t_range is not None:
        lo, hi = t_range
        mask = (t >= lo) & (t <= hi)
        t, vals = t[mask], vals[mask]
    if t.size == 0:
        raise ValueError("no grid points in the requested range")
    ref = np.asarray(reference(t), dtype=np.float64)
    return float(np.max(np.abs(vals - ref)))


def fit_loglog_slope(pairs):
    """Least-squares slope of log(value) against log(n); (slope, stderr).

    All values must be strictly positive (a vanishing sup is reported as
    exact elsewhere, not fed through the fit).  Two points give an exact
    fit with zero residual.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two (n, value) pairs")
    ns = np.asarray([p[0] for p in pairs], dtype=np.float64)
    vals = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if np.any(vals <= 0) or np.any(ns <= 0):
        raise ValueError("log-log fit needs strictly positive n and values")
    lx = np.log(ns)
    ly = np.log(vals)
    lxc = lx - lx.mean()
    sxx = float(np.dot(lxc, lxc))
    slope = float(np.dot(lxc, ly) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (intercept + slope * lx)
    dof = len(pairs) - 2
    stderr = math.sqrt(float(np.dot(resid, resid)) / dof / sxx) if dof > 0 else 0.0
    return slope, stderr
