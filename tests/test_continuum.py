import hashlib
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from critwin import (
    DeterministicLimit,
    hitting_ensemble,
    ks_statistic,
    lamperti_marginals,
    lamperti_route,
    make_stream,
    sample_parabolic_bm,
    sde_ensemble,
    simulate_sde,
)
from critwin import continuum, verify
from critwin.continuum import _cell_time, _first_passage, _shard
from critwin.verify import InsufficientSampleError, rk4_curve_max_error, run_suite


def _parabolic_terminal_sample(lam, reps, dt=0.01, t_max=1.0, seed=101):
    rng = make_stream(seed, 0, "pb")
    out = np.empty(reps)
    for r in range(reps):
        out[r] = sample_parabolic_bm(lam, 0.0, dt, t_max, rng)[-1]
    return out


def test_parabolic_bm_mean_lambda_zero():
    vals = _parabolic_terminal_sample(0.0, 10**5)
    assert vals.mean() == pytest.approx(-0.5, abs=0.01)


def test_parabolic_bm_variance():
    vals = _parabolic_terminal_sample(0.0, 10**5, seed=102)
    assert vals.var() == pytest.approx(1.0, abs=0.02)


def test_parabolic_bm_mean_lambda_two():
    vals = _parabolic_terminal_sample(2.0, 10**5, seed=103)
    assert vals.mean() == pytest.approx(1.5, abs=0.01)


def test_parabolic_bm_offset_and_grid():
    path = sample_parabolic_bm(1.0, 3.0, 0.25, 1.0, make_stream(1, 0, "pb"))
    assert path[0] == 3.0
    assert path.shape == (5,)  # t = 0, 0.25, 0.5, 0.75, 1


def test_simulate_sde_starts_at_x_and_c_monotone():
    for rep in range(10):
        path = simulate_sde(1.0, 0.0, 1e-3, 2.0, make_stream(7, rep, "sde"))
        assert path.z[0] == 1.0
        assert np.all(np.diff(path.c) >= 0)
        if path.absorbed_at is not None:
            assert np.all(path.z[path.absorbed_at :] == 0.0)
            assert np.all(path.c[path.absorbed_at :] == path.c[path.absorbed_at])


def test_sde_absorbs_almost_surely():
    # P[absorbed before t_max = 20] >= 0.999 over 1e4 paths
    _, _, absorbed_at = sde_ensemble(
        np.full(10**4, 1.0), 0.0, 1e-4, 200_000, make_stream(5, 0, "sde")
    )
    assert (absorbed_at > 0).mean() >= 0.999


def test_sde_terminal_c_matches_hitting_time_law():
    # total accumulated mass vs barrier first-passage: KS <= 0.05 at N = 5000
    N = 5000
    _, c_final, _ = sde_ensemble(
        np.full(N, 1.0), 0.0, 1e-4, 150_000, make_stream(6, 0, "sde")
    )
    t_hit, truncated = hitting_ensemble(1.0, 0.0, 1e-4, 12.0, N, make_stream(6, 0, "hit"))
    assert truncated.sum() == 0
    assert ks_statistic(c_final, t_hit) <= 0.05


def _one_path_ensemble(x, lam, dt, n_steps, rng):
    """Grids of Z and C that a one-path `sde_ensemble` run steps through,
    read from its Euler steps, with its absorbed_at."""
    steps = []
    euler = continuum._euler_step

    def recording(*args):
        z, c = euler(*args)
        steps.append((z[0], c[0]))
        return z, c

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuum, "_euler_step", recording)
        z_final, c_final, absorbed_at = sde_ensemble(np.array([x]), lam, dt, n_steps, rng)
    z, c = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    z[0] = x
    z[1 : len(steps) + 1], c[1 : len(steps) + 1] = np.array(steps).T
    ab = int(absorbed_at[0])
    if ab >= 0:
        z[ab], c[ab:] = 0.0, c[ab]
    assert (z[-1], c[-1]) == (z_final[0], c_final[0])
    return z, c, None if ab < 0 else ab


# (seed, x, lam, dt, t_max, absorbed_at)
SDE_CASES = {
    "absorbed-at-step-1": (2, 1e-9, 0.0, 1e-2, 1.0, 1),
    "absorbed-at-step-3": (5, 1e-9, 0.0, 1e-2, 1.0, 3),
    "alive-at-horizon": (8, 1.0, 0.5, 1e-3, 1.0, None),
    "absorbed-mid-run": (4, 0.3, -1.0, 1e-3, 3.0, 2048),
    "alive-across-a-block-edge": (0, 2.0, 1.0, 1e-5, 1.0, None),
}


@pytest.mark.parametrize("case", SDE_CASES.values(), ids=SDE_CASES.keys())
def test_sde_ensemble_matches_single_path_scheme(case):
    # simulate_sde's whole path equals the one a one-path ensemble steps through
    seed, x, lam, dt, t_max, absorbed_at = case
    path = simulate_sde(x, lam, dt, t_max, make_stream(seed, 0, "sde"))
    z, c, ab = _one_path_ensemble(
        x, lam, dt, round(t_max / dt), make_stream(seed, 0, "sde")
    )
    assert path.absorbed_at == ab == absorbed_at
    assert np.array_equal(path.z, z) and np.array_equal(path.c, c)


def test_simulate_sde_draws_the_same_normals_in_any_block_size(monkeypatch):
    args = (0.3, -1.0, 1e-3, 3.0)
    whole = simulate_sde(*args, make_stream(4, 0, "sde"))
    monkeypatch.setattr(continuum, "_SDE_BLOCK", 7)
    blocks = simulate_sde(*args, make_stream(4, 0, "sde"))
    assert whole.absorbed_at == blocks.absorbed_at == 2048
    assert np.array_equal(whole.z, blocks.z) and np.array_equal(whole.c, blocks.c)


class _SplitRng:
    """Normals and uniforms from two generators, so that how the draws are cut
    into blocks does not change their values."""

    def __init__(self, seed):
        self._normal, self._uniform = (make_stream(seed, 0, label) for label in ("n", "u"))

    def standard_normal(self, size):
        return self._normal.standard_normal(size)

    def random(self, size):
        return self._uniform.random(size)


def test_blockwise_generation_carries_the_walk(monkeypatch):
    # one path takes its normals in the same order at any block size, and
    # their running sum carries across block edges, so blocks of 7 columns
    # change no crossing
    for seed in range(6):
        whole = hitting_ensemble(0.5, 1.0, 1e-3, 4.0, 1, _SplitRng(seed))
        monkeypatch.setattr(continuum, "_BLOCK", 7)
        blocks = hitting_ensemble(0.5, 1.0, 1e-3, 4.0, 1, _SplitRng(seed))
        monkeypatch.undo()
        assert not whole[1].any()
        assert np.array_equal(whole[0], blocks[0]) and np.array_equal(whole[1], blocks[1])


def test_grid_crossings_interpolate_across_block_edges(monkeypatch):
    # blocks of 7 columns put crossings in a block's first cell, whose left
    # end is the carried walk; each must be the interpolated root in the
    # first cell where x + X reaches zero on the path that
    # `sample_parabolic_bm` draws from the same normals
    monkeypatch.setattr(continuum, "_BLOCK", 7)
    x, dt = 1.0, 1e-2
    first_cells = 0
    for seed in range(16):
        (t,), (truncated,) = _first_passage(x, 0.0, dt, 1200, 1, _SplitRng(seed), bridge=False)
        path = sample_parabolic_bm(0.0, x, dt, 12.0, make_stream(seed, 0, "n"))
        assert not truncated
        j = np.argmax(path[1:] <= 0.0)  # the crossing cell runs from j to j + 1
        a, b = path[j], path[j + 1]
        assert t == (j + a / (a - b)) * dt
        first_cells += j % 7 == 0
    assert first_cells > 0


@pytest.mark.parametrize("a,b", [
    (0.3, 0.7), (1.0, 1.0), (1.0, 1.0 + 1e-12), (0.5, 0.5 * (1 - 1e-9)),
    (1e-3, 2.0), (2.0, 1e-3), (1.0, 1e-6),
], ids=["rising", "flat", "b-near-a-above", "b-near-a-below", "b-far-above",
        "b-far-below", "b-much-below"])
def test_cell_time_matches_quadrature(a, b):
    from scipy.integrate import quad

    # the clock's time across one cell of the interpolant: the integral of
    # 1 / (x + X) over it, written from the cell's right end so that the
    # integrand keeps its precision where it is largest
    w = 1e-3
    exact, _ = quad(lambda u: 1.0 / (b + (a - b) * (w - u) / w), 0.0, w, epsabs=0,
                    epsrel=1e-12, limit=200, points=[w - w * 10.0**-k for k in range(1, 7)])
    assert _cell_time(np.array([a]), np.array([b]), w)[0] == pytest.approx(exact, rel=1e-10)


def test_lamperti_route_ends_where_the_marginals_do():
    # one path on the same stream: the route's last grid point is the
    # marginal at t_max, bit for bit, absorbed or not
    for seed in range(6):
        for t_max in (0.5, 3.0):
            path = lamperti_route(1.0, 0.5, 1e-3, t_max, make_stream(seed, 0, "one"))
            z, c, _, _ = lamperti_marginals(1.0, 0.5, 1e-3, t_max, 1, make_stream(seed, 0, "one"))
            assert path.z[-1] == z[0] and path.c[-1] == c[0]


def test_lamperti_marginals_cross_where_hitting_ensemble_does():
    # the clock reads the draws without changing them or the crossing rule
    span = continuum._default_grid_span(1.0, 0.5)
    _, _, t_cross, truncated = lamperti_marginals(1.0, 0.5, 1e-3, 1.0, 300, make_stream(4, 0, "q"))
    t_hit, hit_truncated = hitting_ensemble(1.0, 0.5, 1e-3, span, 300, make_stream(4, 0, "q"))
    assert np.array_equal(t_cross, t_hit) and np.array_equal(truncated, hit_truncated)


def test_lamperti_route_is_block_invariant(monkeypatch):
    # the clock and the times still owed carry across block edges
    for seed in range(4):
        whole = lamperti_route(1.0, 0.0, 1e-3, 3.0, _SplitRng(seed))
        monkeypatch.setattr(continuum, "_BLOCK", 97)
        blocks = lamperti_route(1.0, 0.0, 1e-3, 3.0, _SplitRng(seed))
        monkeypatch.undo()
        assert whole.absorbed_at == blocks.absorbed_at
        assert np.allclose(whole.z, blocks.z, rtol=1e-12, atol=0)
        assert np.allclose(whole.c, blocks.c, rtol=1e-12, atol=0)


def test_lamperti_route_c_is_the_integral_of_z():
    # dC/dt = Z: each grid step of C matches the trapezoid rule on Z up to
    # the rule's error, which is O(dt**1.5) per step rather than O(dt**3)
    # because Z's slope jumps, by O(1/sqrt(dt)), at every cell of X
    for dt in (1e-3, 2.5e-4):
        for seed in range(3):
            path = lamperti_route(1.0, 0.0, dt, 2.0, make_stream(seed, 0, "int"))
            end = path.absorbed_at or path.z.size
            z, c = path.z[:end], path.c[:end]
            assert np.max(np.abs(np.diff(c) - 0.5 * dt * (z[1:] + z[:-1]))) <= 2.0 * dt**1.5


@pytest.mark.parametrize("x,lam", [(1e-4, 0.0), (1e-3, 0.0), (1.0, -3.0), (0.05, -5.0)])
def test_lamperti_route_edge_cases(x, lam):
    # a start at or below dt, and a steep fall: absorbed after the first point
    path = lamperti_route(x, lam, 1e-3, 3.0, make_stream(30, 0, "edge"))
    assert path.z[0] == x and path.c[0] == 0.0
    assert np.all(np.diff(path.c) >= 0)
    assert path.absorbed_at is not None and path.absorbed_at >= 1
    assert np.all(path.z[path.absorbed_at :] == 0.0)
    assert np.all(path.c[path.absorbed_at :] == path.c[path.absorbed_at])


def test_lamperti_start_at_or_below_dt_is_absorbed_at_once():
    for x in (1e-4, 1e-3):
        z, c, _, _ = lamperti_marginals(x, 0.0, 1e-3, 0.5, 300, make_stream(33, 0, "edge"))
        assert not z.any() and not c.any()


def test_lamperti_atom_at_zero_matches_sde():
    # the share of paths absorbed by t = 1 agrees with the SDE's even at a
    # coarse step, where a clock that lags the interpolant shows as an excess
    N, dt = 4000, 1e-3
    tc_z, _, _, _ = lamperti_marginals(1.0, 0.0, dt, 1.0, N, make_stream(3, 0, "lamperti"))
    sde_z, _, _ = sde_ensemble(np.full(N, 1.0), 0.0, dt, 1000, make_stream(3, 0, "sde"))
    p_tc, p_sde = (tc_z == 0).mean(), (sde_z == 0).mean()
    se = math.sqrt(p_tc * (1 - p_tc) / N + p_sde * (1 - p_sde) / N)
    assert abs(p_tc - p_sde) <= 3 * se


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_lamperti_marginals_bytes_pinned():
    # one `_first_passage` call over all 700 paths, in two shards of 350
    out = lamperti_marginals(1.0, -1.0, 1e-3, 2.0, 700, make_stream(31, 0, "pin"))
    assert _digest(*out) == "e34519a561f5990ba2db9d1aed321d3055325037a02d0229c902c274f3fe76d1"


def test_hitting_ensemble_bytes_pinned():
    out = hitting_ensemble(1.0, 0.0, 1e-3, 8.0, 500, make_stream(32, 0, "pin"))
    assert _digest(*out) == "8a062cb1181e731dfaa010c2b8f65ef4198c69f560f78936458ae30a651c05b9"


class _RowRecorder:
    """A stream that records the rows of each block of normals it gives."""

    def __init__(self, rng):
        self._rng, self.rows = rng, []

    def standard_normal(self, size):
        self.rows.append(size[0])
        return self._rng.standard_normal(size)

    def random(self, size):
        return self._rng.random(size)

    @property
    def bit_generator(self):  # the upper shard's stream is a jump of this one
        return self._rng.bit_generator


_SPLIT_PINS = {  # (stream seed, call, digest) at the shard split's edge sizes
    "lamperti-2": (31, lambda rng: lamperti_marginals(1.0, -1.0, 1e-3, 2.0, 2, rng),
                   "b8ee8b0e9d17e47fc40e674330c680c523c82e02afb7265b61ce4f3e7bfebd16"),
    "lamperti-3": (31, lambda rng: lamperti_marginals(1.0, -1.0, 1e-3, 2.0, 3, rng),
                   "d856375fad8460acecead8561b8d22a9eb5a2fc5633be198a225124a110c7ab8"),
    "hitting-2": (32, lambda rng: hitting_ensemble(1.0, 0.0, 1e-3, 8.0, 2, rng),
                  "781d562a144f00466f0c5e7848a21472704f10450d45e06d0d9c2e52ec8146a1"),
    "hitting-3": (32, lambda rng: hitting_ensemble(1.0, 0.0, 1e-3, 8.0, 3, rng),
                  "82d59e39cbff7e044f01210fee3d1d8e085abef80669c135ef603b3cae7260e8"),
    "no-bridge-clock-40": (
        33, lambda rng: _first_passage(1.0, 0.5, 1e-3, 6000, 40, rng, bridge=False,
                                       t_at=np.array([0.25, 1.0, 2.0])),
        "093a4e3e3262c4b7e5ab607bceef19161847b58a2705e9b41830d61ac3a6cc1f"),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_PINS))
def test_split_edge_sizes_bytes_pinned(case):
    seed, call, digest = _SPLIT_PINS[case]
    assert _digest(*call(make_stream(seed, 0, "pin"))) == digest


@pytest.mark.parametrize("case,digest", [
    ("lamperti", "b00216143328692407d1d6e0fafa75ce62ed92ecc2cdf1e275339963185328fd"),
    ("hitting", "72842ed0fb9b163e3cf9ab0f5917bfcfed256d8c600d7b2880a19bf4367034d3"),
], ids=["lamperti", "hitting"])  # not the digests, so that a re-pin keeps the names
def test_small_blocks_bytes_pinned(monkeypatch, case, digest):
    # blocks of 97 cells hold one column while 97 or more of a shard's paths
    # live, and the first shard's live set shrinks through odd sizes down to a
    # single row
    monkeypatch.setattr(continuum, "_BLOCK", 97)
    if case == "lamperti":
        rng = _RowRecorder(make_stream(31, 0, "pin"))
        out = lamperti_marginals(1.0, 0.0, 1e-2, 2.0, 301, rng)
    else:
        rng = _RowRecorder(make_stream(32, 0, "pin"))
        out = hitting_ensemble(1.0, 0.0, 1e-2, 8.0, 301, rng)
    assert _digest(*out) == digest
    assert 1 in rng.rows and any(r % 2 for r in rng.rows if r > 1)


class _Boom(Exception):
    pass


class _UniformThreads(_RowRecorder):
    """A stream that records the thread drawing each block's uniforms."""

    def __init__(self, rng):
        super().__init__(rng)
        self.threads = []

    def random(self, size):
        self.threads.append(threading.current_thread())
        return super().random(size)


def _raised_in_time(call):
    """The exception ``call`` raises, or None, from a thread given 60 s."""
    caught = []

    def run():
        try:
            call()
        except Exception as exc:  # handed to the test that called
            caught.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    return caught[0] if caught else None


@pytest.mark.parametrize("bridge", [True, False], ids=["bridge", "grid"])
@pytest.mark.parametrize("t_at", [None, np.array([0.25, 1.0, 2.0])], ids=["hitting", "clock"])
@pytest.mark.parametrize("n_paths", [2, 3, 40, 301])
def test_the_shards_are_two_serial_runs_on_two_streams(n_paths, t_at, bridge):
    # the layout, run here on one thread: the first ceil(N/2) paths are a
    # shard on the caller's stream, the rest a shard on its jump, and the
    # caller's stream ends where the second shard leaves the jump
    args = (1.0, 0.5, 1e-2, 600)
    rng, ref = make_stream(36, 0, "layout"), make_stream(36, 0, "layout")
    out = _first_passage(*args, n_paths, rng, bridge=bridge, t_at=t_at)
    upper = np.random.Generator(ref.bit_generator.jumped())
    first = _shard(*args, n_paths - n_paths // 2, ref, bridge, t_at)
    second = _shard(*args, n_paths // 2, upper, bridge, t_at)
    assert len(out) == len(first) == (2 if t_at is None else 4)
    for got, lower, higher in zip(out, first, second):
        assert np.array_equal(got, np.concatenate([lower, higher]))
    assert repr(rng.bit_generator.state) == repr(upper.bit_generator.state)


_SPLIT_CALLS = {
    "lamperti_marginals":
        lambda rng: lamperti_marginals(1.0, 0.0, 1e-3, 1.0, 50, rng),
    "hitting_ensemble": lambda rng: hitting_ensemble(1.0, 0.0, 1e-3, 4.0, 50, rng),
}


@pytest.mark.parametrize("fail", [False, True], ids=["drawn", "raising"])
@pytest.mark.parametrize("entry", sorted(_SPLIT_CALLS))
def test_the_helper_thread_ends_with_the_call(monkeypatch, entry, fail):
    # the upper shard runs on one thread of the call's own, which is gone
    # when the call returns or raises; an upper shard that raises reaches
    # the caller
    callers, shards = [], []

    def shard(*args):
        shards.append(threading.current_thread())
        if fail and shards[-1] is not callers[0]:
            raise _Boom("upper shard")
        return _shard(*args)

    def call():
        callers.append(threading.current_thread())
        _SPLIT_CALLS[entry](make_stream(34, 0, "t"))

    monkeypatch.setattr(continuum, "_shard", shard)
    threads = threading.active_count()
    exc = _raised_in_time(call)
    assert isinstance(exc, _Boom) if fail else exc is None
    helpers = set(shards) - set(callers)
    assert len(shards) == 2 and len(helpers) == 1 and not helpers.pop().is_alive()
    assert threading.active_count() == threads


class _DrawRecorder(_RowRecorder):
    """A stream that keeps every normal and uniform it gives, in ``drawn``."""

    def __init__(self, rng, drawn):
        super().__init__(rng)
        self.drawn = drawn

    def standard_normal(self, size):
        self.drawn.append(super().standard_normal(size).ravel())
        return self.drawn[-1].reshape(size)

    def random(self, size):
        self.drawn.append(super().random(size).ravel())
        return self.drawn[-1].reshape(size)


@pytest.mark.parametrize("entry", sorted(_SPLIT_CALLS))
def test_successive_calls_on_one_stream_share_no_draws(monkeypatch, entry):
    # each call's upper shard draws from a jump of the stream as the call
    # finds it, so a stream left where its first shard ends would hand the
    # next call's upper shard the tail of this call's upper draws; small
    # blocks make the shards' draw counts differ, as path lifetimes do
    monkeypatch.setattr(continuum, "_BLOCK", 997)
    calls = []

    def shard(x, lam, dt, m, n_paths, rng, bridge, t_at):
        return _shard(x, lam, dt, m, n_paths, _DrawRecorder(rng, calls[-1]), bridge, t_at)

    monkeypatch.setattr(continuum, "_shard", shard)
    rng = make_stream(37, 0, "t")
    for _ in range(4):
        calls.append([])
        _SPLIT_CALLS[entry](rng)
    drawn = np.concatenate([np.concatenate(c) for c in calls])
    assert np.unique(drawn).size == drawn.size


def test_one_path_runs_on_the_calling_thread():
    threads = threading.active_count()
    for entry in (lambda rng: hitting_ensemble(1.0, 0.0, 1e-3, 4.0, 1, rng),
                  lambda rng: lamperti_route(1.0, 0.0, 1e-3, 1.0, rng)):
        rng = _UniformThreads(make_stream(34, 0, "t"))
        entry(rng)
        assert set(rng.threads) == {threading.current_thread()}
    assert threading.active_count() == threads


def test_concurrent_calls_keep_their_bytes(monkeypatch):
    # four calls at once, each with its own shard thread, over more threads
    # than cores and a 1 us switch interval: a lost write to a path's entries
    # would show as an output that differs from a lone call's
    monkeypatch.setattr(continuum, "_BLOCK", 997)

    def call():
        return _digest(*lamperti_marginals(1.0, 0.0, 1e-2, 1.0, 101, make_stream(35, 0, "t")))

    lone = call()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            calls = [pool.submit(call) for _ in range(4)]
            digests = [c.result(timeout=120) for c in calls]
    finally:
        sys.setswitchinterval(interval)
    assert digests == [lone] * 4


def test_a_failing_clock_on_the_shard_thread_reaches_the_caller(monkeypatch):
    # the upper shard's clock raises mid-call; the caller's shard does not
    callers = []

    def call():
        callers.append(threading.current_thread())
        lamperti_marginals(1.0, 0.0, 1e-3, 1.0, 50, make_stream(34, 0, "t"))

    def cell_time(a, b, w):
        if threading.current_thread() is not callers[0]:
            raise _Boom("upper shard")
        return _cell_time(a, b, w)

    monkeypatch.setattr(continuum, "_cell_time", cell_time)
    threads = threading.active_count()
    exc = _raised_in_time(call)
    assert isinstance(exc, _Boom) and str(exc) == "upper shard"
    assert threading.active_count() == threads


def test_lamperti_marginals_stores_no_x_grid():
    # at the suite's dt, the block temporaries of the clock stay far below
    # one 256-path X grid, the buffer the ensemble once filled chunk by chunk
    x, lam, dt = 1.0, 0.0, 1e-4
    m = int(round(continuum._default_grid_span(x, lam) / dt))
    x_chunk = 256 * (m + 1) * 8
    tracemalloc.start()
    try:
        lamperti_marginals(x, lam, dt, 1.0, 768, make_stream(27, 0, "mem"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.4 * x_chunk


@pytest.mark.parametrize("x,lam", [(1e-6, 0.0), (1.0, -3.0), (0.05, -5.0)])
def test_lamperti_marginals_edge_cases(x, lam):
    # tiny x and very negative lambda: the crossing comes within a few cells
    dt = 1e-3
    z, c, t_cross, truncated = lamperti_marginals(
        x, lam, dt, 2.0, 300, make_stream(29, 0, "edge")
    )
    assert np.isfinite(z).all() and np.isfinite(c).all()
    assert (z >= 0.0).all()
    assert not truncated.any()
    assert (c <= t_cross + 2 * dt).all()


class _NoDraws:
    """An rng that fails the test if anything is drawn from it."""

    def standard_normal(self, *args, **kwargs):
        raise AssertionError("drew normals")

    def random(self, *args, **kwargs):
        raise AssertionError("drew uniforms")


@pytest.mark.parametrize("x", [-0.1, 0.0, math.nan])
def test_lamperti_marginals_rejects_nonpositive_x(x):
    with pytest.raises(ValueError, match="need x > 0"):
        lamperti_marginals(x, 1.0, 1e-3, 1.0, 5, _NoDraws())


@pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("entry", [
    lambda x, rng: hitting_ensemble(x, 0.0, 1e-3, 1.0, 3, rng),
    lambda x, rng: lamperti_route(x, 0.0, 1e-3, 1.0, rng),
    lambda x, rng: simulate_sde(x, 0.0, 1e-3, 1.0, rng),
], ids=["hitting_ensemble", "lamperti_route", "simulate_sde"])
def test_nonpositive_x_is_rejected_before_any_draw(entry, x):
    with pytest.raises(ValueError, match="need x > 0"):
        entry(x, _NoDraws())


def test_lamperti_marginals_rejects_a_grid_shorter_than_dt():
    # a grid_t_max below dt once gave an X grid of no steps: z = c = 0 for every path
    with pytest.raises(ValueError, match="need dt > 0 and t_max >= dt"):
        lamperti_marginals(1.0, 0.0, 1e-3, 0.5, 10, make_stream(22, 0, "v"), grid_t_max=1e-4)


def test_lamperti_route_starts_at_x():
    path = lamperti_route(1.0, 0.0, 1e-3, 1.0, make_stream(9, 0, "tc"))
    assert path.z[0] == 1.0
    assert np.all(np.diff(path.c) >= 0)


def test_lamperti_terminal_c_equals_crossing_time():
    # run far past absorption; frozen C must sit within 2 dt of that path's
    # barrier-crossing time
    dt = 1e-3
    z, c, t_cross, truncated = lamperti_marginals(
        1.0, 0.0, dt, 20.0, 200, make_stream(10, 0, "tc")
    )
    assert truncated.sum() == 0
    assert (z == 0.0).all()
    assert np.max(np.abs(c - t_cross)) <= 2 * dt


def test_lamperti_vs_sde_marginal_smoke():
    # acceptance runs N=5000 at dt=1e-4; this is the quick version
    N, dt = 800, 1e-3
    sde_z, _, _ = sde_ensemble(np.full(N, 1.0), 0.0, dt, 1000, make_stream(11, 0, "a"))
    tc_z, _, _, _ = lamperti_marginals(1.0, 0.0, dt, 1.0, N, make_stream(11, 0, "b"))
    assert ks_statistic(sde_z, tc_z) <= 0.12


def test_halving_dt_keeps_route_agreement_within_noise():
    N = 800
    floor = 1.36 * math.sqrt(2.0 / N)
    stats = []
    for dt in (2e-3, 1e-3):
        sde_z, _, _ = sde_ensemble(
            np.full(N, 1.0), 0.0, dt, int(round(1.0 / dt)), make_stream(12, 0, "a")
        )
        tc_z, _, _, _ = lamperti_marginals(1.0, 0.0, dt, 1.0, N, make_stream(12, 0, "b"))
        stats.append(ks_statistic(sde_z, tc_z))
    assert abs(stats[0] - stats[1]) <= floor


def test_hitting_time_positive_and_bridge_orders_pathwise():
    # the same draws are consumed with the bridge test on or off, so the two
    # runs couple pathwise under a common stream
    T_bridge, _ = hitting_ensemble(1.0, 0.0, 1e-3, 8.0, 500, make_stream(13, 0, "h"))
    T_grid, _ = _first_passage(
        1.0, 0.0, 1e-3, 8000, 500, make_stream(13, 0, "h"), bridge=False
    )
    assert np.all(T_bridge > 0)
    assert np.all(T_bridge <= T_grid)
    assert 0 < (T_grid - T_bridge).mean() < 0.2


def test_hitting_single_sample_and_truncation():
    T, truncated = hitting_ensemble(1.0, 0.0, 1e-3, 8.0, 1, make_stream(14, 0, "h"))
    assert T[0] > 0 and not truncated[0]
    # an absurdly short horizon truncates
    T, truncated = hitting_ensemble(5.0, 0.0, 1e-3, 0.01, 1, make_stream(14, 0, "h"))
    assert truncated[0]


def test_hitting_mean_matches_sde_total_mass():
    N = 3000
    _, c_final, _ = sde_ensemble(
        np.full(N, 1.0), 0.0, 2e-4, 75_000, make_stream(15, 0, "sde")
    )
    t_hit, _ = hitting_ensemble(1.0, 0.0, 2e-4, 12.0, N, make_stream(15, 0, "h"))
    se = math.sqrt(c_final.var(ddof=1) / N + t_hit.var(ddof=1) / N)
    assert abs(c_final.mean() - t_hit.mean()) <= 3 * se


def test_eval_deterministic_at_zero():
    lim = DeterministicLimit(x=0.7, lam=1.3)
    assert float(lim.c(0.0)) == 0.0
    assert float(lim.z(0.0)) == pytest.approx(0.7, rel=1e-14)
    assert float(lim.k_limit(0.0)) == 0.0
    assert float(lim.f(0.0)) == pytest.approx(0.7, rel=1e-14)


def test_eval_deterministic_tanh_case():
    # lam = 0, x = 1/2: c(t) = tanh(t/2)
    lim = DeterministicLimit(x=0.5, lam=0.0)
    assert float(lim.c(2.0)) == pytest.approx(math.tanh(1.0), abs=1e-12)
    t = np.linspace(0.0, 10.0, 501)
    assert np.max(np.abs(lim.c(t) - np.tanh(t / 2))) <= 1e-12
    # cumulative limit at t0 = 1 equals 1/2 - 1/6
    assert lim.k_limit(1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert lim.k_limit(3.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_deterministic_root_and_monotonicity():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        lim = DeterministicLimit(x=float(rng.uniform(0.05, 5)), lam=float(rng.uniform(-3, 3)))
        assert abs(lim.f(lim.t0)) <= 1e-12 * max(1.0, lim.t0**2)
        t = np.linspace(0.0, 8.0, 33)
        c = lim.c(t)
        assert np.all(np.diff(c) > 0)
        assert c[0] == pytest.approx(0.0, abs=1e-14)
        assert np.all(c < lim.t0 + 1e-12)


def test_deterministic_derivative_identity():
    # d/dt c(t) = f(c(t)) via central differences
    rng = np.random.default_rng(17)
    h = 1e-6
    t = np.linspace(h, 6.0, 601)
    for _ in range(25):
        lim = DeterministicLimit(x=float(rng.uniform(0.1, 5)), lam=float(rng.uniform(-3, 3)))
        deriv = (lim.c(t + h) - lim.c(t - h)) / (2 * h)
        assert np.max(np.abs(deriv - lim.f(lim.c(t)))) <= 1e-6


def test_rk4_agreement_small():
    rng = np.random.default_rng(18)
    xs = rng.uniform(0.1, 5.0, size=10)
    lams = rng.uniform(-3.0, 3.0, size=10)
    assert rk4_curve_max_error(xs, lams, t_max=5.0, h=1e-3) <= 1e-8


def test_self_similarity_insufficient_sample(monkeypatch):
    def absorb_all(z0, lam, dt, n_steps, rng, c0=0.0):
        n = np.size(z0)
        return np.zeros(n), np.zeros(n), np.ones(n, dtype=np.int64)

    monkeypatch.setattr(verify, "sde_ensemble", absorb_all)
    with pytest.raises(InsufficientSampleError, match="0 of 5000"):
        run_suite("selfsim")


def test_input_validation():
    rng = make_stream(22, 0, "v")
    with pytest.raises(ValueError):
        simulate_sde(0.0, 0.0, 1e-3, 1.0, rng)
    with pytest.raises(ValueError):
        sample_parabolic_bm(0.0, 0.0, -1e-3, 1.0, rng)
    with pytest.raises(ValueError):
        sde_ensemble(np.array([1.0, -1.0]), 0.0, 1e-3, 10, rng)
    with pytest.raises(ValueError):
        hitting_ensemble(-1.0, 0.0, 1e-3, 1.0, 1, rng)


_ENTRY_POINTS = {
    "sample_parabolic_bm": lambda dt, t_max, rng: sample_parabolic_bm(0.0, 1.0, dt, t_max, rng),
    "simulate_sde": lambda dt, t_max, rng: simulate_sde(1.0, 0.0, dt, t_max, rng),
    "lamperti_route": lambda dt, t_max, rng: lamperti_route(1.0, 0.0, dt, t_max, rng),
    "lamperti_marginals":
        lambda dt, t_max, rng: lamperti_marginals(1.0, 0.0, dt, t_max, 3, rng),
    "hitting_ensemble": lambda dt, t_max, rng: hitting_ensemble(1.0, 0.0, dt, t_max, 3, rng),
}


@pytest.mark.parametrize("dt, t_max", [(1e-3, -1.0), (0.0, 1.0), (-1e-3, 1.0),
                                       (0.1, 0.05), (math.nan, 1.0), (1e-3, math.nan)])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_continuum_entry_points_reject_a_bad_grid(entry, dt, t_max):
    # a negative horizon once gave T = -1 for every path, and dt = 0 a
    # ZeroDivisionError
    with pytest.raises(ValueError, match="need dt > 0 and t_max >= dt"):
        _ENTRY_POINTS[entry](dt, t_max, make_stream(22, 0, "v"))
