"""The statistics that grade ensembles against limits, and their report type.

The space and time scales that turn a raw series into a path on a real grid
belong to the window: see `AldousWindow.scales` and `GeneralWindow.scales`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ComparisonReport",
    "ks_statistic",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one statistical comparison, with its tolerance on record."""

    test_name: str
    statistic: float
    tolerance: float | None = None
    n: int | None = None
    N: int | None = None
    seed: int | None = None
    passed: bool | None = None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """The fields in declaration order, ``passed`` under the key "pass"."""
        return {"pass" if key == "passed" else key: val for key, val in vars(self).items()}


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
