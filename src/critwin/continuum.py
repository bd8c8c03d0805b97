"""Continuum limit objects: parabolic-drift Brownian motion, the absorbed
square-root SDE pair (Z, C), its time-change construction, barrier hitting
times, and the deterministic curves of the drifting-window regime.

Two independent simulation routes exist for the same law and are compared
statistically by the verification suites:

* `sde_ensemble` (one recorded path: `simulate_sde`, the same
  `_euler_step` on scalars) -- full-truncation Euler-Maruyama for
      dZ = sqrt(Z) dW + (lam - C) Z dt,  dC = Z dt,  Z(0) = x,
  absorbed at zero;
* `lamperti_marginals` (one recorded path: `lamperti_route`) -- simulate
  X(t) = B(t) + lam*t - t**2/2 on its own grid and solve the time change
  dC/dt = x + X(C), Z = x + X(C), in closed form on the piecewise-linear
  interpolant of the grid, cell by cell as the grid is drawn; a path is
  absorbed where the interpolant falls to dt or at a bridge crossing.

`_first_passage` draws X a block at a time, finds the first passage of x + X to
zero for the hitting times and runs the Lamperti clock, so no X grid is stored.
`sample_parabolic_bm` draws the same X directly, as one recorded path; a test
holds the two equal on the same normals.  A `_first_passage` call runs its
paths as two shards on two streams, one on a thread that calls nothing
`perfbench/tracing.py` wraps, so that tracer's one-thread span stack holds.

One crossing convention holds throughout: a crossing seen on the grid is
placed by linear interpolation inside its cell, and a crossing between grid
points detected by the Brownian-bridge test (probability exp(-2ab/dt) for a
cell with positive endpoints a, b) is placed at the cell midpoint.

Drift is always applied analytically on the grid; only the Brownian part is
sampled.  Ensemble variants are vectorized across paths and draw from one
stream (or its jumped copy), which keeps them deterministic given (seed, label).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


_BLOCK = 500_000  # normals per block over one shard's live paths: the lamperti suite peaks
# at 91 MiB RSS with it, at 158 MiB with 1_000_000, and unsharded at 124 MiB with 2_000_000


def _ratio(num, y):
    """num / y in place, and 1 where y == 0: the limit of each ratio used here."""
    np.divide(num, y, out=num, where=y != 0)
    num[y == 0] = 1.0
    return num


def _cell_time(a, b, w):
    """Time the time change takes to cross a cell of width w on which x + X
    runs linearly from a to b (both > 0): w (ln b - ln a) / (b - a)."""
    r = b / a  # ln(r) / (r - 1) stays accurate for b near a and for b << a
    t = _ratio(np.log(r), np.subtract(r, 1.0, out=r))
    t *= w
    t /= a
    return t


def _first_passage(x: float, lam: float, dt: float, m: int, n_paths: int, rng: RngStream,
                   bridge: bool = True, t_at: np.ndarray | None = None):
    """The first passage of x + X to zero on the grid 0, dt, ..., m*dt, as
    `_shard` gives it, over two shards of the paths joined in path order.

    Paths [0, ceil(n_paths/2)) draw from ``rng``, the rest from
    ``Generator(rng.bit_generator.jumped())``, whose end state ``rng`` then
    takes, so later draws pass both shards'.  The shard count is fixed, so the
    bytes do not depend on the cores.  Under two paths the first shard runs
    alone, with no thread; else the second runs on a thread that ends with the
    call and hands its exception to the caller.  A caller's `np.errstate` does
    not reach that thread.  ``x`` must be > 0 (ValueError before any draw).
    """
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    if n_paths < 2:
        return _shard(x, lam, dt, m, n_paths, rng, bridge, t_at)
    upper = np.random.Generator(rng.bit_generator.jumped())
    with ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(_shard, x, lam, dt, m, n_paths // 2, upper, bridge, t_at)
        first = _shard(x, lam, dt, m, n_paths - n_paths // 2, rng, bridge, t_at)
        out = tuple(np.concatenate(pair) for pair in zip(first, second.result()))
    rng.bit_generator.state = upper.bit_generator.state
    return out


def _shard(x, lam, dt, m, n_paths, rng, bridge, t_at):
    """One shard of `_first_passage`: ``n_paths`` paths, all drawn from ``rng``.
    Each block draws a (live paths, columns) array of standard normals, then
    a same-shaped array of bridge uniforms, and turns the running sum of the
    normals, carried across block edges, into x + X over its columns in
    place.  A path retires after the block in which x + X reaches zero on
    the grid, so the live set and the draws are the same whether ``bridge``
    is on or off.  The earliest event is kept: a grid crossing placed by
    linear interpolation inside its cell or, with ``bridge``, a cell with
    positive endpoints a, b crossing with probability exp(-2ab/dt), placed
    at the cell midpoint; the bridge test removes the O(sqrt(dt)) late bias
    of grid-only detection.  Paths with no event are truncated at m*dt.

    With ``t_at`` (sorted times >= 0), C solves dC/dt = x + X(C) exactly on
    the piecewise-linear interpolant: a cell from a to b takes `_cell_time`,
    and s into it Z = a exp((b - a) s / dt), with C the integral of Z.  A
    path is absorbed (Z = 0, C frozen) where the interpolant first falls to
    dt, below which it only crawls towards a crossing it cannot resolve, or
    at a bridge midpoint, whichever comes first.  Returns (t_cross,
    truncated, z, c), z and c of shape (n_paths, t_at.size); a path whose
    grid ends before a time reads the grid's end there.
    """
    sq = math.sqrt(dt)
    t_cross = np.full(n_paths, np.inf)
    walk_end = np.zeros(n_paths)  # sum of the normals at the block's left edge
    if t_at is not None:
        z_at = np.zeros((n_paths, t_at.size))
        c_at = np.zeros((n_paths, t_at.size))
        clock = np.zeros(n_paths)  # time-change clock at the block's left edge
        done = np.zeros(n_paths, dtype=np.int64)  # entries of t_at filled
    live = np.arange(n_paths)
    hi = 0
    while hi < m and live.size:
        lo, hi = hi, min(m, hi + max(1, _BLOCK // live.size))
        s = np.empty((live.size, hi - lo + 1))
        s[:, 0] = walk_end[live]
        s[:, 1:] = rng.standard_normal((live.size, hi - lo))
        np.cumsum(s, axis=1, out=s)
        walk_end[live] = s[:, -1]
        s *= sq  # in place: x + X on the block's columns, left edge included
        s += _drift(lam, np.arange(lo, hi + 1) * dt)
        s += x
        u = rng.random((live.size, hi - lo))
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
            fired = np.less(u, prob, out=neg)  # into neg's buffer: neg is spent
            del prob
            fired &= left > 0.0
            fired &= right > 0.0
            r = np.flatnonzero(fired.any(axis=1))
            t_fire = (lo + np.argmax(fired[r], axis=1) + 0.5) * dt
            t_new[r] = np.minimum(t_new[r], t_fire)
        t_cross[live] = np.minimum(t_cross[live], t_new)
        del u  # spent, as is prob: their blocks go before the clock's temporaries
        if t_at is not None:
            own = np.flatnonzero(done[live] < t_at.size)  # rows still owing values
            p, sv = live[own], s[own]
            np.maximum(sv, dt, out=sv)  # unchanged before the absorbing cell
            stop = sv[:, 1:] <= dt  # the interpolant falls to dt in the cell
            stop[:, 0] |= sv[:, 0] <= dt  # a start at or below dt (x <= dt)
            if bridge:
                stop |= fired[own]
            hit = np.flatnonzero(stop.any(axis=1))
            k = np.argmax(stop[hit], axis=1)  # the absorbing cell
            a, b = s[own[hit], k], s[own[hit], k + 1]
            f = (a > dt).astype(np.float64)  # share of it run before absorption
            np.divide(a - dt, a - b, out=f, where=(a > dt) & (b <= dt))
            if bridge:
                np.minimum(f, 0.5, out=f, where=fired[own[hit], k])
            tick = _cell_time(sv[:, :-1], sv[:, 1:], dt)
            tick[hit] *= np.arange(tick.shape[1]) < k[:, None]
            tick[hit, k] = _cell_time(a, a + f * (b - a), f * dt)
            sv[hit, k], sv[hit, k + 1] = a, b  # its slope, for the closed form
            start = clock[p]
            np.cumsum(tick, axis=1, out=tick)
            tick += start[:, None]  # the clock at each cell's right end
            clock[p] = tick[:, -1]
            due = np.searchsorted(t_at, clock[p], side="right")
            for i in np.flatnonzero(due > done[p]):
                n = np.arange(done[p[i]], due[i])
                j = np.searchsorted(tick[i], t_at[n])  # the cell holding each time
                spent = t_at[n] - np.where(j > 0, tick[i, j - 1], start[i])
                a0 = sv[i, j]
                y = (sv[i, j + 1] - a0) / dt * spent
                z_at[p[i], n] = a0 * np.exp(y)
                c_at[p[i], n] = (lo + j) * dt + a0 * spent * _ratio(np.expm1(y), y)
            done[p] = due
            after = np.arange(t_at.size) >= due[hit, None]  # absorbed by then
            c_at[p[hit]] = np.where(after, ((lo + k + f) * dt)[:, None], c_at[p[hit]])
            done[p[hit]] = t_at.size
        live = live[~crossed]
    truncated = np.isinf(t_cross)
    t_cross[truncated] = m * dt
    if t_at is None:
        return t_cross, truncated
    short = np.arange(t_at.size) >= done[:, None]  # past the end of the grid
    s_end = walk_end * sq + _drift(lam, m * dt) + x  # x + X at the grid's end
    return (t_cross, truncated,
            np.where(short, s_end[:, None], z_at), np.where(short, m * dt, c_at))


def sample_parabolic_bm(
    lam: float, x_offset: float, dt: float, t_max: float, rng: RngStream
) -> np.ndarray:
    """x_offset + X on the grid 0, dt, ..., ~t_max via exact Gaussian increments."""
    m = _grid_steps(dt, t_max)
    path = np.zeros(m + 1)
    rng.standard_normal(out=path[1:])
    np.cumsum(path, out=path)
    path *= math.sqrt(dt)
    path += _drift(lam, np.arange(m + 1) * dt)
    path += x_offset
    return path


def _euler_step(z, c, lam, noise, sq: float, dt: float):
    """One full-truncation Euler-Maruyama step of (Z, C), on arrays or scalars."""
    return z + np.sqrt(z) * sq * noise + (lam - c) * z * dt, c + z * dt


_SDE_BLOCK = 65_536  # normals drawn at a time for one path


def simulate_sde(x: float, lam: float, dt: float, t_max: float, rng: RngStream) -> SdePath:
    """One path of `sde_ensemble`'s scheme on the grid 0, dt, ..., ~t_max,
    stepped on float64 scalars.

    The normals come in blocks of at most `_SDE_BLOCK`, the same values one
    draw per step gives; after an early absorption the stream has advanced
    to the end of the block.
    """
    n_steps = _grid_steps(dt, t_max)
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    z_path = np.zeros(n_steps + 1)
    c_path = np.zeros(n_steps + 1)
    z, c, lam = np.float64(x), np.float64(0.0), np.float64(lam)
    z_path[0] = z
    sq = math.sqrt(dt)
    for lo in range(0, n_steps, _SDE_BLOCK):
        noises = rng.standard_normal(min(_SDE_BLOCK, n_steps - lo)).tolist()
        for i, noise in enumerate(noises, lo + 1):
            z, c = _euler_step(z, c, lam, noise, sq, dt)
            if z <= 0.0:
                c_path[i:] = c
                return SdePath(z=z_path, c=c_path, absorbed_at=i)
            z_path[i], c_path[i] = z, c
    return SdePath(z=z_path, c=c_path, absorbed_at=None)


def sde_ensemble(
    z0,
    lam,
    dt: float,
    n_steps: int,
    rng: RngStream,
    c0=0.0,
):
    """Full-truncation Euler-Maruyama for (Z, C), vectorized over paths.

    Z[i+1] = Z[i] + sqrt(Z[i]) sqrt(dt) N + (lam - C[i]) Z[i] dt and
    C[i+1] = C[i] + Z[i] dt (`_euler_step`); at the first Z[i+1] <= 0 a path
    is absorbed (Z set to 0, C frozen) and drops out of the update loop.
    ``z0``, ``lam``, ``c0`` broadcast across paths (per-path drift
    parameters are what the self-similarity restart needs).  Returns
    (z_final, c_final, absorbed_at) with absorbed_at = -1 for paths alive at
    the horizon.
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
    alive = np.arange(n)
    za, ca, la = z0.copy(), c_v, lam_v
    sq = math.sqrt(dt)
    for i in range(1, n_steps + 1):
        za, ca = _euler_step(za, ca, la, rng.standard_normal(za.size), sq, dt)
        dead = za <= 0.0
        if dead.any():
            idx = alive[dead]
            c_final[idx] = ca[dead]
            absorbed_at[idx] = i
            keep = ~dead
            za, ca, la, alive = za[keep], ca[keep], la[keep], alive[keep]
            if za.size == 0:
                break
    z_final[alive] = za
    c_final[alive] = ca
    return z_final, c_final, absorbed_at


def _default_grid_span(x: float, lam: float) -> float:
    return 3.0 * DeterministicLimit(x, lam).t0 + 8.0


def lamperti_route(x: float, lam: float, dt: float, t_max: float, rng: RngStream) -> SdePath:
    """Single (Z, C) path on the grid 0, dt, ..., ~t_max, built by time-changing
    a parabolic-drift path whose grid spans `_default_grid_span` with step dt.
    """
    t_at = np.arange(_grid_steps(dt, t_max) + 1) * dt
    m = _grid_steps(dt, _default_grid_span(x, lam))
    _, _, z, c = _first_passage(x, lam, dt, m, 1, rng, t_at=t_at)
    zero = np.flatnonzero(z[0] == 0.0)
    return SdePath(z=z[0], c=c[0], absorbed_at=int(zero[0]) if zero.size else None)


def lamperti_marginals(
    x: float,
    lam: float,
    dt: float,
    t_max: float,
    n_paths: int,
    rng: RngStream,
    grid_t_max: float | None = None,
):
    """Time-change route marginals at t_max for an ensemble of paths;
    (z, c, t_cross, truncated), from one `_first_passage` call over all paths.
    """
    t_at = np.array([_grid_steps(dt, t_max) * dt])
    if grid_t_max is None:
        grid_t_max = _default_grid_span(x, lam)
    t_cross, truncated, z, c = _first_passage(
        x, lam, dt, _grid_steps(dt, grid_t_max), n_paths, rng, t_at=t_at
    )
    return z[:, 0], c[:, 0], t_cross, truncated


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
    return _first_passage(x, lam, dt, _grid_steps(dt, t_max), n_paths, rng)


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
