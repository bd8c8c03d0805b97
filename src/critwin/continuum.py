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
zero and runs the Lamperti clock on the paths still owing a time, so no X grid
is stored; a hitting ensemble asks for no times and runs no clock.  The bridge
test always runs, and its uniforms are always drawn.  Each block is worked in
row chunks of about `_CHUNK` cells, in two passes, one over its normals and one
over its uniforms, so its draws come in the order of two whole-block draws.
Each owing row's clock runs once a block: in the normals pass where no bridge
can fire on the row, else in the uniforms pass, with its fired cells, and only
those rows keep x + X between the passes.  They reach below sqrt(373 dt): 0.19
at dt = 1e-4, so few are kept there, but 0.61 at dt = 1e-3.
`sample_parabolic_bm` draws the same X directly, as one recorded path; a test
holds the two equal on the same normals.  A `_first_passage` call runs its
paths as two shards on two streams, one on a thread that calls nothing
`perfbench/tracing.py` wraps, so that tracer's one-thread span stack holds.

One crossing convention holds throughout: a crossing seen on the grid is
placed by linear interpolation inside its cell, and a crossing between grid
points detected by the Brownian-bridge test (probability exp(-2ab/dt) for a
cell with positive endpoints a, b) is placed at the cell midpoint.  The test
takes `exp` only on cells with ab < 373 dt (`_bridge_test`): beyond, the
probability is exactly 0.0 in float64.

`sde_ensemble` steps its paths on the calling thread while a `_DrawAhead`
helper thread draws the next buffer of normals from the same stream, in the
same order; the values and the stream's end state are those of one draw per
step, so this is not a split of the stream.  The helper calls only the
stream's `standard_normal` and `bit_generator.state`, nothing the tracer wraps.

Drift is always applied analytically on the grid; only the Brownian part is
sampled.  Ensemble variants are vectorized across paths and draw from one
stream (or its jumped copy), which keeps them deterministic given (seed, label).
"""
from __future__ import annotations

import math
import operator
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
    """Steps of the grid 0, dt, ..., ~t_max; ValueError unless that is a finite count >= 1."""
    if not (dt > 0 and t_max >= dt and math.isfinite(t_max / dt)):
        raise ValueError(f"need dt > 0 and t_max >= dt, with t_max / dt finite, "
                         f"got dt={dt}, t_max={t_max}")
    return int(round(t_max / dt))


_BLOCK = 500_000  # normals per block over one shard's live paths; between its two passes a
# block keeps its gathered bridge cells, and x + X on the owing rows whose bridge may fire
_CHUNK = 1 << 17  # cells per row chunk of a block: 1 MiB per float array, under a core's 2 MiB
# L2; at 32_768 the many small numpy calls pass the GIL between the two shards' threads, and
# two-shard calls at the suites' sizes ran about 15 % slower on two cores


def _ratio(num, y):
    """num / y in place, and 1 where y == 0: the limit of each ratio used here."""
    np.divide(num, y, out=num, where=y != 0)
    num[y == 0] = 1.0
    return num


def _cell_time(a, b, w, out=None):
    """Time the time change takes to cross a cell of width w on which x + X
    runs linearly from a to b (both > 0): w (ln b - ln a) / (b - a), in
    ``out`` if given."""
    r = np.divide(b, a)  # ln(r) / (r - 1) stays accurate for b near a and for b << a
    t = _ratio(np.log(r, out=out), np.subtract(r, 1.0, out=r))
    t *= w
    t /= a
    return t


_BRIDGE_REACH = 373  # exp(-2ab/dt) is exactly 0.0 in float64 wherever ab >= 373 dt


def _bridge_test(left, right, dt: float, out=None):
    """The bridge test on the (rows, cells) running from ``left`` to
    ``right``: (may_fire, fired), the bool array of the rows that hold a
    gathered cell, and the function of the cells' uniforms u, drawn later,
    that returns the bool array of the cells whose bridge crosses, where both
    endpoints are > 0 and u < exp(-2ab/dt) with ab = left * right, formed in
    ``out`` if given.

    Past ab >= `_BRIDGE_REACH` dt the exponent is <= -746, beyond float64's
    underflow to 0.0 near -745.13, and no u >= 0 fires, so only the cells
    below that are gathered, with `exp` taken on them alone; there it rounds
    as on all the cells.
    """
    ab = np.multiply(left, right, out=out)
    near = ab < _BRIDGE_REACH * dt
    near &= left > 0.0
    near &= right > 0.0
    may_fire = near.any(axis=-1)
    cells = np.flatnonzero(near)
    prob = ab.ravel()[cells]
    prob *= -2.0
    prob /= dt
    np.exp(prob, out=prob)

    def fired(u):
        out = np.zeros(u.shape, dtype=bool)
        out.ravel()[cells] = u.ravel()[cells] < prob
        return out

    return may_fire, fired


def _checked_start(x, lam) -> None:
    """ValueError unless every start ``x`` is finite and > 0 and every drift
    ``lam`` is finite; either may be a scalar or an array."""
    if not (np.all(np.greater(x, 0)) and np.isfinite(x).all() and np.isfinite(lam).all()):
        raise ValueError(f"need x > 0, with x and lam finite, got x={x}, lam={lam}")


def _first_passage(x: float, lam: float, dt: float, m: int, n_paths: int, rng: RngStream,
                   t_at: np.ndarray):
    """The first passage of x + X to zero on the grid 0, dt, ..., m*dt, and
    the time change read at the sorted times ``t_at``, as `_shard` gives
    them, over two shards of the paths joined in path order.

    Paths [0, ceil(n_paths/2)) draw from ``rng``, the rest from
    ``Generator(rng.bit_generator.jumped())``, whose end state ``rng`` then
    takes, so later draws pass both shards'.  The shard count is fixed, so the
    bytes do not depend on the cores.  Under two paths the first shard runs
    alone, with no thread; else the second runs on a thread that ends with the
    call and hands its exception to the caller.  A caller's `np.errstate` does
    not reach that thread.  ``x`` and ``lam`` must pass `_checked_start` and
    ``n_paths`` must be an integer >= 0, checked before any draw.
    """
    _checked_start(x, lam)
    try:
        n_paths = operator.index(n_paths)
    except TypeError:
        raise TypeError(f"n_paths must be an integer, got {n_paths!r}") from None
    if n_paths < 0:
        raise ValueError(f"need n_paths >= 0, got {n_paths}")
    if n_paths < 2:
        return _shard(x, lam, dt, m, n_paths, rng, t_at)
    upper = np.random.Generator(rng.bit_generator.jumped())
    with ThreadPoolExecutor(max_workers=1) as pool:
        second = pool.submit(_shard, x, lam, dt, m, n_paths // 2, upper, t_at)
        first = _shard(x, lam, dt, m, n_paths - n_paths // 2, rng, t_at)
        out = tuple(np.concatenate(pair) for pair in zip(first, second.result()))
    rng.bit_generator.state = upper.bit_generator.state
    return out


def _shard(x, lam, dt, m, n_paths, rng, t_at):
    """One shard of `_first_passage`: ``n_paths`` paths, all drawn from ``rng``.
    Each block takes a (live paths, columns) array of standard normals, then
    a same-shaped array of bridge uniforms, and works in chunks of rows of
    about `_CHUNK` cells, at least one row, in two passes.  The first draws
    each chunk's normals, turns their running sum, carried across block
    edges, into x + X over the block's columns in place, places its grid
    crossings, gathers its cells for `_bridge_test` and runs the clock on its
    owing rows that hold no gathered cell, which fire none; the second draws
    each chunk's uniforms, fires its gathered cells and runs the clock on the
    other owing rows, with their fired cells.  So the normals and the
    uniforms come row by row, in the order of two whole-block draws, and the
    chunk size changes no value.  Each owing row's clock runs once a block,
    and only the rows whose clock waits for the uniforms keep x + X between
    the passes; the clock works row by row, so where it runs changes no
    byte.  The cells are gathered where ab < 373 dt, so the rows kept are few
    at small dt: an end must lie below sqrt(373 dt), 0.19 at dt = 1e-4 but
    0.61 at dt = 1e-3.  The clock's cell times go into the pass's spent draw
    array, and its ratios into one of the call's own.  A path retires after
    the block in which x + X reaches zero on the grid, so the live set and the
    draws do not depend on the bridge test's outcome.  The earliest event is
    kept: a grid crossing placed by linear interpolation inside its cell, or
    a cell with positive endpoints a, b crossing with probability
    exp(-2ab/dt), placed at the cell midpoint; the bridge test removes the
    O(sqrt(dt)) late bias of grid-only detection.  Paths with no event are
    truncated at m*dt.

    At the sorted times ``t_at`` >= 0, C solves dC/dt = x + X(C) exactly on
    the piecewise-linear interpolant: a cell from a to b takes `_cell_time`,
    and s into it Z = a exp((b - a) s / dt), with C the integral of Z.  A
    path is absorbed (Z = 0, C frozen) where the interpolant first falls to
    dt, below which it only crawls towards a crossing it cannot resolve, or
    at a bridge midpoint, whichever comes first.  The clock runs on the rows
    still owing a value and draws nothing; with an empty ``t_at`` (a hitting
    ensemble) it never runs and no x + X is kept.  Returns (t_cross,
    truncated, z, c), z and c of shape (n_paths, t_at.size); a path whose
    grid ends before a time reads the grid's end there.
    """
    sq = math.sqrt(dt)
    t_cross = np.full(n_paths, np.inf)
    walk_end = np.zeros(n_paths)  # sum of the normals at the block's left edge
    z_at = np.zeros((n_paths, t_at.size))
    c_at = np.zeros((n_paths, t_at.size))
    clock = np.zeros(n_paths)  # time-change clock at the block's left edge
    done = np.zeros(n_paths, dtype=np.int64)  # entries of t_at filled

    def run_clock(p, sv, fired, lo, work):
        """The clock over paths ``p``, from their x + X ``sv`` on the block's
        columns lo.. (changed in place) and their fired cells (None: none);
        their cell times go into the rows of ``work``, a spent draw array.
        Each step works row by row, so a path's values do not depend on
        which rows share the call."""
        stop = sv[:, 1:] <= dt  # the interpolant falls to dt in the cell
        stop[:, 0] |= sv[:, 0] <= dt  # a start at or below dt (x <= dt)
        if fired is not None:
            stop |= fired
        hit = np.flatnonzero(stop.any(axis=1))
        k = np.argmax(stop[hit], axis=1)  # the absorbing cell
        a, b = sv[hit, k], sv[hit, k + 1]
        np.maximum(sv, dt, out=sv)  # unchanged before the absorbing cell
        f = (a > dt).astype(np.float64)  # share of it run before absorption
        np.divide(a - dt, a - b, out=f, where=(a > dt) & (b <= dt))
        if fired is not None:
            np.minimum(f, 0.5, out=f, where=fired[hit, k])
        tick = work[: p.size]
        _cell_time(sv[:, :-1], sv[:, 1:], dt, tick)
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

    live = np.arange(n_paths)
    hi = 0
    while hi < m and live.size:
        lo, hi = hi, min(m, hi + max(1, _BLOCK // live.size))
        rows = max(1, _CHUNK // (hi - lo))
        drift = _drift(lam, np.arange(lo, hi + 1) * dt)
        chunks = [live[i : i + rows] for i in range(0, live.size, rows)]
        crossed, kept = [], []
        for p in chunks:  # the block's normals
            g = rng.standard_normal((p.size, hi - lo))
            s = np.empty((p.size, hi - lo + 1))
            s[:, 0] = walk_end[p]
            s[:, 1:] = g
            np.cumsum(s, axis=1, out=s)
            walk_end[p] = s[:, -1]
            s *= sq  # in place: x + X on the block's columns, left edge included
            s += drift
            s += x
            neg = s[:, 1:] <= 0.0
            crossed.append(neg.any(axis=1))
            r = np.flatnonzero(crossed[-1])
            j = np.argmax(neg[r], axis=1)
            a, b = s[r, j], s[r, j + 1]
            t_cross[p[r]] = np.minimum(t_cross[p[r]], (lo + j + a / (a - b)) * dt)
            may_fire, bridge = _bridge_test(s[:, :-1], s[:, 1:], dt, out=g)
            owing = done[p] < t_at.size
            wait = np.flatnonzero(owing & may_fire)  # rows whose clock needs their fired cells
            kept.append((bridge, wait, s[wait]))
            now = np.flatnonzero(owing & ~may_fire)  # rows no bridge can fire on
            if now.size < p.size:
                s = s[now]  # and the chunk's x + X is freed
            if now.size:
                run_clock(p[now], s, None, lo, g)
            del s, g  # spent
        for p in chunks:  # then its uniforms
            bridge, wait, sv = kept.pop(0)  # each chunk's rows go once its clock has run
            u = rng.random((p.size, hi - lo))
            fired = bridge(u)
            r = np.flatnonzero(fired.any(axis=1))
            t_fire = (lo + np.argmax(fired[r], axis=1) + 0.5) * dt
            t_cross[p[r]] = np.minimum(t_cross[p[r]], t_fire)
            if wait.size:
                run_clock(p[wait], sv, fired[wait], lo, u)
            del u  # spent
        live = live[~np.concatenate(crossed)]
    truncated = np.isinf(t_cross)
    t_cross[truncated] = m * dt
    short = np.arange(t_at.size) >= done[:, None]  # past the end of the grid
    s_end = walk_end * sq + _drift(lam, m * dt) + x  # x + X at the grid's end
    return (t_cross, truncated,
            np.where(short, s_end[:, None], z_at), np.where(short, m * dt, c_at))


def sample_parabolic_bm(
    lam: float, x_offset: float, dt: float, t_max: float, rng: RngStream
) -> np.ndarray:
    """x_offset + X on the grid 0, dt, ..., ~t_max via exact Gaussian increments.
    ValueError before any draw unless ``lam`` and ``x_offset`` (which may be 0)
    are finite."""
    if not (math.isfinite(lam) and math.isfinite(x_offset)):
        raise ValueError(f"need lam and x_offset finite, got lam={lam}, x_offset={x_offset}")
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
_AHEAD = 1 << 17  # normals in each of `_DrawAhead`'s two buffers


class _DrawAhead:
    """The next ``total`` normals of ``rng``, drawn a buffer ahead on a helper thread.

    Two buffers of at most `_AHEAD` normals are allocated once, here; while
    `take` reads one, the helper fills the other, which `take` hands over
    only once it has copied out what it needed of it.  In the ``with``
    block nothing else may draw from ``rng``.  On leaving it the helper has
    ended, a fill's exception has reached the caller, and ``rng`` stands
    where drawing the normals at each `take` would have left it.
    """

    def __init__(self, rng: RngStream, total: int):
        self._rng, self._left = rng, total  # normals not yet handed to a fill
        self._bufs = [np.empty(min(_AHEAD, total)) for _ in range(2)]  # [filling, read]
        self._buf, self._pos = self._bufs[1][:0], 0
        self._state = None  # the stream's state before the buffer being read

    def __enter__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._fill = self._submit()
        return self

    def __exit__(self, exc_type, *exc):
        self._pool.shutdown(wait=True)
        if exc_type is None:
            if self._fill is not None:
                self._fill.result()
            if self._state is not None:  # back past only what was taken of this buffer
                self._rng.bit_generator.state = self._state
                self._rng.standard_normal(out=self._buf[: self._pos])

    def _draw(self, out):  # on the helper thread, which calls nothing the tracer wraps
        state = self._rng.bit_generator.state
        self._rng.standard_normal(out=out)
        return state, out

    def _submit(self):
        k = min(self._bufs[0].size, self._left)
        self._left -= k
        return self._pool.submit(self._draw, self._bufs[0][:k]) if k else None

    def take(self, m: int) -> np.ndarray:
        """The next m normals: a view of one buffer, or a copy where they straddle two."""
        end = self._pos + m
        if end <= self._buf.size:
            self._pos = end
            return self._buf[end - m : end]
        out = np.empty(m)
        got = 0
        while True:
            k = min(m - got, self._buf.size - self._pos)
            out[got : got + k] = self._buf[self._pos : self._pos + k]
            got, self._pos = got + k, self._pos + k
            if got == m:
                return out
            self._state, self._buf = self._fill.result()
            self._pos = 0
            self._bufs.reverse()  # the one read is copied out, so it may be refilled
            self._fill = self._submit()


def simulate_sde(x: float, lam: float, dt: float, t_max: float, rng: RngStream) -> SdePath:
    """One path of `sde_ensemble`'s scheme on the grid 0, dt, ..., ~t_max,
    stepped on float64 scalars.

    The normals come in blocks of at most `_SDE_BLOCK`, the same values one
    draw per step gives; after an early absorption the stream has advanced
    to the end of the block.
    """
    n_steps = _grid_steps(dt, t_max)
    _checked_start(x, lam)
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
    the horizon.  Needs 0 < dt < inf and an integer ``n_steps`` >= 0, checked
    before any draw, as are ``z0`` and ``lam`` (`_checked_start`) and a
    finite ``c0``.  Step i takes the
    next za.size normals from a `_DrawAhead`: the values, and the end state
    of ``rng``, of one draw per step.
    """
    n_steps = operator.index(n_steps)
    if not (0.0 < dt < math.inf and n_steps >= 0):
        raise ValueError(f"need 0 < dt < inf and n_steps >= 0, got dt={dt}, n_steps={n_steps}")
    z0 = np.atleast_1d(np.asarray(z0, dtype=np.float64))
    n = z0.size
    lam_v = np.broadcast_to(np.asarray(lam, dtype=np.float64), (n,)).copy()
    c_v = np.broadcast_to(np.asarray(c0, dtype=np.float64), (n,)).copy()
    _checked_start(z0, lam_v)
    if not np.isfinite(c_v).all():
        raise ValueError(f"need c0 finite, got c0={c0}")
    z_final = np.zeros(n)
    c_final = np.zeros(n)
    absorbed_at = np.full(n, -1, dtype=np.int64)
    alive = np.arange(n)
    za, ca, la = z0.copy(), c_v, lam_v
    sq = math.sqrt(dt)
    with _DrawAhead(rng, n * n_steps) as normals:
        for i in range(1, n_steps + 1):
            za, ca = _euler_step(za, ca, la, normals.take(za.size), sq, dt)
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
    _, _, z, c = _first_passage(x, lam, dt, m, 1, rng, t_at)
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
        x, lam, dt, _grid_steps(dt, grid_t_max), n_paths, rng, t_at
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

    See `_first_passage` for the crossing rule; no time is read, so no clock runs.
    """
    return _first_passage(x, lam, dt, _grid_steps(dt, t_max), n_paths, rng, np.empty(0))[:2]


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
        _checked_start(self.x, self.lam)

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
        """ValueError where sqrt(2x + lam**2) is not finite or rounds to |lam|,
        since c takes atanh(-lam / s)."""
        t = np.asarray(t, dtype=np.float64)
        s = self.s
        if not abs(self.lam) < s < math.inf:
            raise ValueError(f"sqrt(2x + lam**2) must be finite and above |lam|, got "
                             f"x = {self.x}, lam = {self.lam}: the curve c(t) is undefined")
        phase = 0.5 * s * t + math.atanh(-self.lam / s)
        return self.lam + s * np.tanh(phase)

    def z(self, t):
        return np.maximum(self.f(self.c(t)), 0.0)

    def k_limit(self, t):
        tm = np.minimum(np.asarray(t, dtype=np.float64), self.t0)
        return self.x * tm + 0.5 * self.lam * tm * tm - tm**3 / 6.0
