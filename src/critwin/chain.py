"""The height-profile Markov chain (Z, C), simulated straight from its kernel.

One generation maps (z, c) to (z', c + z') with z' ~ Binomial(n - c, q(n, z)),
q(n, z) = 1 - (1 - p)**z, while z > 0 and c < n; otherwise z' = 0 (the chain
is absorbed).  This is the chain-binomial epidemic with z infectives and
n - c susceptibles, and it has the same law as the height profile of a
breadth-first exploration of G(n, p) from k uniform roots -- the exactness
of that equivalence is what the `kernel` verification suite checks.

Binomial variates come from numpy's Generator (inversion for small mean,
exact accept/reject otherwise); no normal approximation anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    ConfigError,
    RngStream,
    RunConfig,
    _checked_count,
    _checked_probability,
    _checked_roots,
    edge_probability,
)

__all__ = [
    "EpidemicTrace",
    "simulate_trace",
    "exact_profile_distribution",
    "csn_at_indices",
    "K_at_indices",
]


@dataclass(frozen=True)
class EpidemicTrace:
    """Recorded chain path, one entry per generation while Z stays positive.

    Z[0] = C[0] = k.  ``absorbed_at`` is the generation at which the chain
    first hits zero (== len(Z) for absorbed traces, since only positive
    generations are stored); None if the run hit max_steps first, in which
    case ``truncated`` is set.
    """

    Z: np.ndarray
    C: np.ndarray
    absorbed_at: int | None
    truncated: bool


def simulate_trace(
    config: RunConfig, max_steps: int | None = None, *, rng: RngStream
) -> EpidemicTrace:
    """Run the chain from (k, k) until absorption or max_steps generations.

    max_steps, an integer >= 1, defaults to the window's generation cap.  Non-absorption
    within max_steps flags the trace truncated; it is not an error.
    """
    if max_steps is None:
        max_steps = config.window.max_steps(config.n)
    max_steps = _checked_count("max_steps", max_steps, 1)
    n = config.n
    k = config.k
    log_keep = math.log1p(-edge_probability(config.window, n))
    Z = [k]
    C = [k]
    z, c = k, k
    absorbed_at: int | None = None
    for h in range(1, max_steps + 1):
        # z >= 1 here; at c == n the draw is Binomial(0, q) = 0 and takes no variate
        z2 = int(rng.binomial(n - c, -math.expm1(z * log_keep)))  # q = 1 - (1 - p)**z
        if z2 == 0:
            absorbed_at = h
            break
        c += z2
        z = z2
        Z.append(z2)
        C.append(c)
    return EpidemicTrace(
        Z=np.asarray(Z, dtype=np.int64),
        C=np.asarray(C, dtype=np.int64),
        absorbed_at=absorbed_at,
        truncated=absorbed_at is None,
    )


_EXACT_N_LIMIT = 12


def exact_profile_distribution(n: int, k: int, p: float) -> dict:
    """Exact law of the profile path (Z(0), ..., 0) by forward enumeration.

    Paths are zero-terminated at absorption, which every path reaches within
    n generations.  Masses sum to one up to float rounding.  Needs n <= 12
    (ConfigError), integers n and k (TypeError), 1 <= k <= n and 0 <= p <= 1
    (ValueError), all checked before any enumeration.
    """
    if n > _EXACT_N_LIMIT:
        raise ConfigError(
            f"exact profile distribution is limited to n <= {_EXACT_N_LIMIT} "
            f"(got n={n}); sample with simulate_trace instead"
        )
    k = _checked_roots(k, n)
    _checked_probability(p)

    @lru_cache(maxsize=None)
    def pmf_row(m: int, z: int) -> tuple:
        q = -math.expm1(z * math.log1p(-p))  # 1 - (1 - p)**z, z >= 1
        return tuple(math.comb(m, j) * q**j * (1.0 - q) ** (m - j) for j in range(m + 1))

    out: dict = {}
    stack = [((k,), k, k, 1.0)]
    while stack:
        path, z, c, prob = stack.pop()
        if z == 0 or c >= n:
            done = path + (0,)
            out[done] = out.get(done, 0.0) + prob
            continue
        for z2, w in enumerate(pmf_row(n - c, z)):
            if w == 0.0:
                continue
            if z2 == 0:
                done = path + (0,)
                out[done] = out.get(done, 0.0) + prob * w
            else:
                stack.append((path + (z2,), z2, c + z2, prob * w))
    return out


def csn_at_indices(Z: np.ndarray, C: np.ndarray, js) -> np.ndarray:
    """Cousin statistic at breadth-first indices js, read off a (Z, C) trace.

    Index j belongs to height h iff C(h-1) <= j < C(h), and every vertex at
    height h has cousin statistic Z(h); indices at or beyond the total
    explored count give 0.
    """
    js = np.asarray(js, dtype=np.int64)
    h = np.searchsorted(C, js, side="right")
    inside = js < C[-1]
    vals = np.zeros(js.shape, dtype=np.int64)
    vals[inside] = Z[h[inside]]
    return vals


def K_at_indices(Z: np.ndarray, C: np.ndarray, js) -> np.ndarray:
    """Cumulative cousin process at indices js from a (Z, C) trace.

    Within height h the sum grows linearly: K(j) = K(C(h-1)) + (j - C(h-1)) Z(h),
    and K(C(h)) telescopes to the sum of Z(l)**2 over l <= h.  Beyond the
    explored range K is constant.
    """
    js = np.asarray(js, dtype=np.int64)
    zsq = Z.astype(np.int64) ** 2
    k_at_layer = np.zeros(Z.size + 1, dtype=np.int64)
    np.cumsum(zsq, out=k_at_layer[1:])
    h = np.searchsorted(C, js, side="right")
    inside = js < C[-1]
    vals = np.full(js.shape, k_at_layer[-1], dtype=np.int64)
    hi = h[inside]
    c_prev = np.where(hi > 0, C[hi - 1], 0)
    vals[inside] = k_at_layer[hi] + (js[inside] - c_prev) * Z[hi]
    return vals
