"""Continuum limit objects: parabolic-drift Brownian motion, the absorbed
square-root SDE pair (Z, C), its time-change construction, barrier hitting
times, and the deterministic curves of the drifting-window regime.

Two independent simulation routes exist for the same law and are compared
statistically by the verification suites:

* `sde_ensemble` (one recorded path: `simulate_sde`) -- full-truncation
  Euler-Maruyama for
      dZ = sqrt(Z) dW + (lam - C) Z dt,  dC = Z dt,  Z(0) = x,
  absorbed at zero;
* `lamperti_marginals` (one recorded path: `lamperti_route`) -- simulate
  X(t) = B(t) + lam*t - t**2/2 on its own grid, then integrate the time
  change dC/dt = x + X(C) and read Z = x + X(C), stopping when C reaches the
  first time x + X hits zero.

X is generated in one place, `_first_passage`, which also finds the first
passage of x + X to zero for the Lamperti route and the hitting times.  One
crossing convention holds throughout: a crossing seen on the grid is placed
by linear interpolation inside its cell, and a crossing between grid points
detected by the Brownian-bridge test (probability exp(-2ab/dt) for a cell
with positive endpoints a, b) is placed at the cell midpoint.

Drift is always applied analytically on the grid; only the Brownian part is
sampled.  Ensemble variants are vectorized across paths and draw from a
single stream, which keeps them deterministic given (seed, label).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RngStream

__all__ = [
    "SdePath",
    "DeterministicLimit",
    "sample_parabolic_bm",
    "simulate_sde",
    "sde_ensemble",
    "lamperti_route",
    "lamperti_marginals",
    "hitting_ensemble",
]


@dataclass(frozen=True)
class SdePath:
    """Grid path of (Z, C); Z is identically zero from ``absorbed_at`` on."""

    z: np.ndarray
    c: np.ndarray
    absorbed_at: int | None


def _drift(lam: float, t: np.ndarray) -> np.ndarray:
    return lam * t - 0.5 * t * t


def _grid_steps(dt: float, t_max: float) -> int:
    """Steps of the grid 0, dt, ..., ~t_max; ValueError unless dt > 0 and t_max >= dt."""
    if not (dt > 0 and t_max >= dt):
        raise ValueError(f"need dt > 0 and t_max >= dt, got dt={dt}, t_max={t_max}")
    return int(round(t_max / dt))


_BLOCK = 2_000_000  # standard normals drawn per block, across live paths
_CHUNK = 256  # paths per X buffer fill in `lamperti_marginals`


def _first_passage(x, lam: float, dt: float, m: int, n_paths: int, rng: RngStream,
                   bridge: bool = True, out: np.ndarray | None = None):
    """X on the grid 0, dt, ..., m*dt, one block of columns at a time, and the
    first passage of x + X to zero; (t_cross, truncated, last).

    Each block draws a (live paths, columns) array of standard normals and,
    when ``x`` is given, a same-shaped array of bridge uniforms; the running
    sum of the normals is carried across block edges.  A path retires after
    the block in which x + X reaches zero on the grid, so the live set and
    the draws are the same whether ``bridge`` is on or off.  The earliest
    event is kept: a grid crossing placed by linear interpolation inside its
    cell or, with ``bridge``, a cell with positive endpoints a, b crossing
    with probability exp(-2ab/dt), placed at the cell midpoint; the bridge
    test removes the O(sqrt(dt)) late bias of grid-only detection.  Paths
    with no event are truncated at m*dt.

    A given ``x`` must be > 0 (ValueError before any draw).  With
    ``x=None`` there is no crossing test: no uniforms are drawn and every
    path runs to m.  ``last`` is the last generated column.  With
    ``out``, an array of at least (n_paths, m + 1), X is written into
    ``out[:n_paths, :last + 1]``; cells of a retired path after its last
    block keep whatever they held, so one buffer serves many calls.
    """
    if x is not None and not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    sq = math.sqrt(dt)
    t_cross = np.full(n_paths, np.inf)
    walk_end = np.zeros(n_paths)  # sum of the normals at the block's left edge
    s_end = np.full(n_paths, np.nan if x is None else float(x))  # x + X there
    if out is not None:
        out[:n_paths, 0] = 0.0
    live = np.arange(n_paths)
    hi = 0
    while hi < m and live.size:
        lo, hi = hi, min(m, hi + max(1, _BLOCK // live.size))
        walk = np.empty((live.size, hi - lo + 1))
        walk[:, 0] = walk_end[live]
        walk[:, 1:] = rng.standard_normal((live.size, hi - lo))
        np.cumsum(walk, axis=1, out=walk)
        walk_end[live] = walk[:, -1]
        xb = walk[:, 1:]  # in place: X on the block's columns
        xb *= sq
        xb += _drift(lam, np.arange(lo + 1, hi + 1) * dt)
        if out is not None:
            out[live, lo + 1 : hi + 1] = xb
        if x is None:
            continue
        u = rng.random(xb.shape)
        s = walk  # reused: x + X on the block's columns, left edge included
        s[:, 0] = s_end[live]
        xb += x
        s_end[live] = s[:, -1]
        t_new = np.full(live.size, np.inf)
        neg = s[:, 1:] <= 0.0
        crossed = neg.any(axis=1)
        r = np.flatnonzero(crossed)
        j = np.argmax(neg[r], axis=1)
        a, b = s[r, j], s[r, j + 1]
        t_new[r] = (lo + j + a / (a - b)) * dt
        if bridge:
            left, right = s[:, :-1], s[:, 1:]
            prob = np.multiply(left, right)  # -> exp(-2 max(ab, 0) / dt)
            np.clip(prob, 0.0, None, out=prob)
            prob *= -2.0
            prob /= dt
            np.exp(prob, out=prob)
            fired = np.less(u, prob, out=neg)
            fired &= left > 0.0
            fired &= right > 0.0
            r = np.flatnonzero(fired.any(axis=1))
            t_fire = (lo + np.argmax(fired[r], axis=1) + 0.5) * dt
            t_new[r] = np.minimum(t_new[r], t_fire)
        t_cross[live] = np.minimum(t_cross[live], t_new)
        live = live[~crossed]
    truncated = np.isinf(t_cross)
    t_cross[truncated] = m * dt
    return t_cross, truncated, hi


def sample_parabolic_bm(
    lam: float, x_offset: float, dt: float, t_max: float, rng: RngStream
) -> np.ndarray:
    """x_offset + X on the grid 0, dt, ..., ~t_max via exact Gaussian increments."""
    m = _grid_steps(dt, t_max)
    path = np.empty((1, m + 1))
    _first_passage(None, lam, dt, m, 1, rng, out=path)
    return path[0] + x_offset


def simulate_sde(x: float, lam: float, dt: float, t_max: float, rng: RngStream) -> SdePath:
    """One recorded `sde_ensemble` path of (Z, C) on the grid 0, dt, ..., ~t_max."""
    _, _, absorbed_at, z, c = sde_ensemble(x, lam, dt, _grid_steps(dt, t_max), rng, record=True)
    ab = int(absorbed_at[0])
    return SdePath(z=z[0], c=c[0], absorbed_at=None if ab < 0 else ab)


def sde_ensemble(
    z0,
    lam,
    dt: float,
    n_steps: int,
    rng: RngStream,
    c0=0.0,
    record: bool = False,
):
    """Full-truncation Euler-Maruyama for (Z, C), vectorized over paths.

    Z[i+1] = Z[i] + sqrt(Z[i]) sqrt(dt) N + (lam - C[i]) Z[i] dt and
    C[i+1] = C[i] + Z[i] dt; at the first Z[i+1] <= 0 a path is absorbed
    (Z set to 0, C frozen) and drops out of the update loop.  ``z0``,
    ``lam``, ``c0`` broadcast across paths (per-path drift parameters are
    what the self-similarity restart needs).  Returns (z_final, c_final,
    absorbed_at) with absorbed_at = -1 for paths alive at the horizon; with
    ``record``, also the (paths, n_steps + 1) grids of Z and C.
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=np.float64))
    n = z0.size
    if not np.all(z0 > 0):
        raise ValueError("all starting values must be > 0")
    lam_v = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,)).copy()
    c_v = np.broadcast_to(np.asarray(c0, dtype=np.float64), (n,)).copy()
    z_final = np.zeros(n)
    c_final = np.zeros(n)
    absorbed_at = np.full(n, -1, dtype=np.int64)
    if record:
        z_path = np.zeros((n, n_steps + 1))
        c_path = np.zeros((n, n_steps + 1))
        z_path[:, 0] = z0
        c_path[:, 0] = c_v
    alive = np.arange(n)
    za, ca, la = z0.copy(), c_v, lam_v
    sq = math.sqrt(dt)
    for i in range(1, n_steps + 1):
        noise = rng.standard_normal(za.size)
        znext = za + np.sqrt(za) * sq * noise + (la - ca) * za * dt
        ca = ca + za * dt
        za = znext
        dead = za <= 0.0
        if dead.any():
            idx = alive[dead]
            c_final[idx] = ca[dead]
            absorbed_at[idx] = i
            if record:
                c_path[idx, i:] = ca[dead, None]
            keep = ~dead
            za, ca, la, alive = za[keep], ca[keep], la[keep], alive[keep]
            if za.size == 0:
                break
        if record:
            z_path[alive, i] = za
            c_path[alive, i] = ca
    z_final[alive] = za
    c_final[alive] = ca
    if record:
        return z_final, c_final, absorbed_at, z_path, c_path
    return z_final, c_final, absorbed_at


def _time_change(x, dt, n_steps, xbuf, last, t_cross, record=False):
    """Euler integration of dC/dt = x + X(C) with linear interpolation, for
    the paths whose X `_first_passage` wrote into the rows of ``xbuf`` up to
    column ``last``.

    A path is stopped (Z = 0, C frozen) once C comes within one grid cell of
    its crossing time, or once Z falls to one step's worth of mass (<= dt).
    Past that resolution the piecewise-linear interpolant only crawls toward
    a crossing it cannot resolve, while the rough continuum path would absorb
    within O(sqrt(dt)) extra time.  Since t_cross is at or before a path's
    first grid crossing, C stays clear of the cells `_first_passage` leaves
    stale, which all lie past that crossing.
    """
    cn = t_cross.size
    width = xbuf.shape[1]
    flat = xbuf.reshape(-1)
    z_final = np.zeros(cn)
    c_final = np.zeros(cn)
    absorbed_at = np.full(cn, -1, dtype=np.int64)
    z_path = c_path = None
    if record:
        z_path = np.zeros((cn, n_steps + 1))
        c_path = np.zeros((cn, n_steps + 1))
        z_path[:, 0] = x
    za = np.full(cn, float(x))
    ca = np.zeros(cn)
    ra, ta = np.arange(cn), t_cross  # live rows and their crossing times
    inv_dt = 1.0 / dt
    for i in range(1, n_steps + 1):
        stopping = (ta - ca <= dt) | (za <= dt)
        if stopping.any():
            idx = ra[stopping]
            # final-approach stops sit within a couple of cells of the
            # crossing; report that crossing time as the frozen C
            near = ta[stopping] - ca[stopping] <= 2.0 * dt
            c_final[idx] = np.where(near, ta[stopping], ca[stopping])
            absorbed_at[idx] = i
            if record:
                c_path[idx, i:] = c_final[idx, None]
            keep = ~stopping
            za, ca, ra, ta = za[keep], ca[keep], ra[keep], ta[keep]
            if ra.size == 0:
                break
        ca = ca + za * dt
        pos = ca * inv_dt
        i0 = np.minimum(pos.astype(np.int64), last - 1)
        frac = pos - i0
        at = ra * width + i0
        xc = flat.take(at) * (1.0 - frac) + flat.take(at + 1) * frac
        za = np.maximum(x + xc, 0.0)
        if record:
            z_path[ra, i] = za
            c_path[ra, i] = ca
    z_final[ra] = za
    c_final[ra] = ca
    if record:
        return z_final, c_final, absorbed_at, z_path, c_path
    return z_final, c_final, absorbed_at


def _default_grid_span(x: float, lam: float) -> float:
    return 3.0 * DeterministicLimit(x, lam).t0 + 8.0


def lamperti_route(x: float, lam: float, dt: float, t_max: float, rng: RngStream) -> SdePath:
    """Single (Z, C) path built by time-changing a parabolic-drift path.

    The X grid spans `_default_grid_span` (generously past the hitting time)
    with the same step dt as the time-change integration.
    """
    n_steps = _grid_steps(dt, t_max)
    m = _grid_steps(dt, _default_grid_span(x, lam))
    xbuf = np.empty((1, m + 1))
    t_cross, _, last = _first_passage(x, lam, dt, m, 1, rng, out=xbuf)
    _, _, absorbed_at, z_path, c_path = _time_change(
        x, dt, n_steps, xbuf, last, t_cross, record=True
    )
    ab = int(absorbed_at[0])
    return SdePath(z=z_path[0], c=c_path[0], absorbed_at=None if ab < 0 else ab)


def lamperti_marginals(
    x: float,
    lam: float,
    dt: float,
    t_max: float,
    n_paths: int,
    rng: RngStream,
    grid_t_max: float | None = None,
):
    """Time-change route marginals at t_max for an ensemble of paths.

    Returns (z, c, t_cross, truncated); paths are processed in chunks of
    ``_CHUNK`` that share one X buffer, which bounds the stored X-grid memory.
    """
    n_steps = _grid_steps(dt, t_max)
    if grid_t_max is None:
        grid_t_max = _default_grid_span(x, lam)
    m = _grid_steps(dt, grid_t_max)
    z_out = np.empty(n_paths)
    c_out = np.empty(n_paths)
    t_out = np.empty(n_paths)
    trunc_out = np.zeros(n_paths, dtype=bool)
    xbuf = np.empty((min(_CHUNK, n_paths), m + 1))
    for lo in range(0, n_paths, _CHUNK):
        sl = slice(lo, min(lo + _CHUNK, n_paths))
        t_cross, truncated, last = _first_passage(x, lam, dt, m, sl.stop - lo, rng, out=xbuf)
        z_out[sl], c_out[sl], _ = _time_change(x, dt, n_steps, xbuf, last, t_cross)
        t_out[sl], trunc_out[sl] = t_cross, truncated
    return z_out, c_out, t_out, trunc_out


def hitting_ensemble(
    x: float,
    lam: float,
    dt: float,
    t_max: float,
    n_paths: int,
    rng: RngStream,
):
    """First passage of x + X to zero for an ensemble; (T, truncated).

    See `_first_passage` for the crossing rule.
    """
    t_hit, truncated, _ = _first_passage(x, lam, dt, _grid_steps(dt, t_max), n_paths, rng)
    return t_hit, truncated


@dataclass(frozen=True)
class DeterministicLimit:
    """Closed-form curves of the drifting-window limit.

    f(t) = x + lam*t - t**2/2 with largest root t0 = lam + sqrt(lam**2 + 2x);
    c solves c' = f(c), c(0) = 0, in closed hyperbolic-tangent form;
    z = f(c); the cumulative limit is the cubic integral of f frozen at t0.
    """

    x: float
    lam: float

    def __post_init__(self):
        if not self.x > 0:
            raise ValueError(f"need x > 0, got {self.x}")

    @property
    def s(self) -> float:
        return math.sqrt(2.0 * self.x + self.lam * self.lam)

    @property
    def t0(self) -> float:
        return self.lam + self.s

    def f(self, t):
        t = np.asarray(t, dtype=np.float64)
        return self.x + self.lam * t - 0.5 * t * t

    def c(self, t):
        t = np.asarray(t, dtype=np.float64)
        s = self.s
        phase = 0.5 * s * t + math.atanh(-self.lam / s)
        return self.lam + s * np.tanh(phase)

    def z(self, t):
        return np.maximum(self.f(self.c(t)), 0.0)

    def k_limit(self, t):
        tm = np.minimum(np.asarray(t, dtype=np.float64), self.t0)
        return self.x * tm + 0.5 * self.lam * tm * tm - tm**3 / 6.0
