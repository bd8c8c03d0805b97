import hashlib
import math
import tracemalloc

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
from critwin.continuum import _first_passage, _time_change
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


def test_sde_ensemble_matches_single_path_scheme():
    # one path driven by the same stream gives the same terminal state
    rng1 = make_stream(8, 0, "sde")
    z1, c1, ab1 = sde_ensemble(np.asarray([1.0]), 0.5, 1e-3, 1000, rng1)
    rng2 = make_stream(8, 0, "sde")
    path = simulate_sde(1.0, 0.5, 1e-3, 1.0, rng2)
    assert z1[0] == pytest.approx(path.z[-1], rel=1e-12)
    assert c1[0] == pytest.approx(path.c[-1], rel=1e-12)


def test_sde_record_mode_matches_final_state():
    z0 = np.array([0.05, 0.5, 1.0, 2.0])
    zf, cf, ab = sde_ensemble(z0, 0.0, 1e-3, 2000, make_stream(25, 0, "sde"))
    zr, cr, abr, z, c = sde_ensemble(z0, 0.0, 1e-3, 2000, make_stream(25, 0, "sde"), record=True)
    assert np.array_equal(zf, zr) and np.array_equal(cf, cr) and np.array_equal(ab, abr)
    assert np.array_equal(z[:, 0], z0) and np.array_equal(z[:, -1], zf)
    assert np.array_equal(c[:, -1], cf)
    for row, at in enumerate(ab):
        if at >= 0:
            assert np.all(z[row, at:] == 0.0) and np.all(c[row, at:] == cf[row])


def test_blockwise_generation_carries_the_walk(monkeypatch):
    args = (0.5, 1.0, 1e-3, 1.0)
    whole = sample_parabolic_bm(*args, make_stream(24, 0, "pb"))
    monkeypatch.setattr(continuum, "_BLOCK", 7)
    blocks = sample_parabolic_bm(*args, make_stream(24, 0, "pb"))
    assert np.array_equal(whole, blocks)


def test_grid_crossings_interpolate_across_block_edges(monkeypatch):
    # small blocks put many crossings near block edges; each must be the
    # interpolated root in the first cell where x + X reaches zero
    monkeypatch.setattr(continuum, "_BLOCK", 64)
    x, dt = 1.0, 1e-2
    grid = np.empty((16, 1201))
    t, truncated, last = _first_passage(
        x, 0.0, dt, 1200, 16, make_stream(26, 0, "h"), bridge=False, out=grid
    )
    assert not truncated.any()
    # a row is written up to the end of the block holding its first grid
    # crossing; scan each row only that far
    j = np.ones(16, dtype=np.int64)
    for r in range(16):
        while x + grid[r, j[r]] > 0.0:
            j[r] += 1
    rows = np.arange(16)
    a, b = x + grid[rows, j - 1], x + grid[rows, j]
    assert np.allclose(t, (j - 1 + a / (a - b)) * dt, rtol=0, atol=1e-12)


def test_time_change_reads_only_generated_segment():
    # two chunks share one buffer that starts NaN-filled, as in
    # `lamperti_marginals`; poison every cell after each path's first grid
    # crossing, which covers the cells left unset or stale after the path
    # retired; run far past absorption
    x, dt, m = 1.0, 1e-3, 12_000
    buf = np.full((200, m + 1), np.nan)
    rng = make_stream(23, 0, "tc")
    for n_paths in (200, 150):
        t_cross, truncated, last = _first_passage(x, 0.0, dt, m, n_paths, rng, out=buf)
        assert not truncated.any()
        grid = buf[:n_paths, : last + 1]
        first = np.argmax(x + grid <= 0.0, axis=1)
        buf[:n_paths][np.arange(m + 1) > first[:, None]] = np.nan
        z, c, _ = _time_change(x, dt, int(round(20.0 / dt)), buf, last, t_cross)
        assert not np.isnan(z).any()
        assert not np.isnan(c).any()


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_lamperti_marginals_bytes_pinned():
    # 700 paths fill two whole chunks and one partial one
    out = lamperti_marginals(1.0, -1.0, 1e-3, 2.0, 700, make_stream(31, 0, "pin"))
    assert _digest(*out) == "7a08a5e4fcf731f18490ff997465c75a825c157564ee9f6575a4c644a424496b"


def test_hitting_ensemble_bytes_pinned():
    out = hitting_ensemble(1.0, 0.0, 1e-3, 8.0, 500, make_stream(32, 0, "pin"))
    assert _digest(*out) == "17e84691d6a387c9476f1022d60c3e467553c912a5962f60bfeb05c10b824ac5"


def test_lamperti_marginals_holds_one_x_buffer():
    # three chunks at the suite's dt: the chunks take turns in one buffer,
    # and the block temporaries stay well under a second one
    x, lam, dt = 1.0, 0.0, 1e-4
    m = int(round(continuum._default_grid_span(x, lam) / dt))
    one_buffer = continuum._CHUNK * (m + 1) * 8
    tracemalloc.start()
    try:
        lamperti_marginals(x, lam, dt, 0.01, 3 * continuum._CHUNK, make_stream(27, 0, "mem"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * one_buffer


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
], ids=["hitting_ensemble", "lamperti_route"])
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
    T_grid, _, _ = _first_passage(
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
