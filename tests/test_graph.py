import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from critwin import (
    ConfigError,
    GeneralWindow,
    InvalidWindowError,
    breadth_first_walk,
    cousin_series,
    edge_probability,
    exact_profile_distribution,
    explore,
    explore_from_roots,
    ks_statistic,
    make_stream,
    sample_graph,
    walk_chain,
)
from critwin import graph, verify
from critwin.graph import _pairs_from_linear, graph_from_edges
from critwin.verify import (
    DEFAULT_SEED,
    _profile_table,
    exhaustive_profile_distribution,
    run_suite,
    total_variation,
)


def path_graph():
    return graph_from_edges(3, [0, 1], [1, 2])


def _neighbors(g, v):
    return g.indices[g.indptr[v] : g.indptr[v + 1]].tolist()


def test_sample_graph_p_zero_and_one():
    g0 = sample_graph(5, 0.0, make_stream(1, 0, "g"))
    assert g0.edge_count == 0
    g1 = sample_graph(5, 1.0, make_stream(1, 0, "g"))
    assert g1.edge_count == 10
    # geometric skipping draws gaps of exactly 1 at p = 1, at every size
    g2 = sample_graph(100, 1.0, make_stream(1, 0, "g"))
    assert g2.edge_count == 4950
    assert all(_neighbors(g2, v) == [w for w in range(100) if w != v] for v in range(100))


def _assert_valid_adjacency(g):
    seen = set()
    for v in range(g.n):
        nbrs = _neighbors(g, v)
        assert nbrs == sorted(nbrs)
        assert len(nbrs) == len(set(nbrs))
        assert v not in nbrs
        for w in nbrs:
            seen.add((v, w))
    assert all((w, v) in seen for v, w in seen)


@pytest.mark.parametrize("n,p", [(7, 0.4), (40, 0.1), (3000, 6e-4), (5000, 1e-3)])
def test_sample_graph_adjacency_valid(n, p):
    g = sample_graph(n, p, make_stream(3, 0, "g"))
    _assert_valid_adjacency(g)


def _lexsort_csr(n, u, v):
    """CSR of the edge list by a lexsort on (source, target), as a reference."""
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.lexsort((dst, src))]


@pytest.mark.parametrize("n,p", [(1, 0.0), (2, 1.0), (50, 0.2), (1000, 0.004), (10_000, 3e-4)])
def test_graph_from_edges_matches_lexsort_for_any_edge_order(n, p):
    rng = np.random.default_rng(n)
    g = sample_graph(n, p, make_stream(4, 0, "g"))
    src = np.repeat(np.arange(n), np.diff(g.indptr))
    lo = src[src < g.indices]
    hi = g.indices[src < g.indices]
    flip = rng.random(lo.size) < 0.5  # mirrored entries: u > v
    u, v = np.where(flip, hi, lo), np.where(flip, lo, hi)
    order = rng.permutation(lo.size)
    u, v = u[order], v[order]
    built = graph_from_edges(n, u, v)
    assert built.indptr.dtype == built.indices.dtype == np.int32
    indptr, indices = _lexsort_csr(n, u, v)
    assert np.array_equal(built.indptr, indptr)
    assert np.array_equal(built.indices, indices)
    assert np.array_equal(built.indptr, g.indptr) and np.array_equal(built.indices, g.indices)


def test_graph_from_edges_without_edges():
    for n in (1, 5):
        g = graph_from_edges(n, [], [])
        assert g.indptr.tolist() == [0] * (n + 1) and g.indices.size == 0


@pytest.mark.parametrize("u,v", [([0, 3], [1, 2]), ([0, -1], [1, 2]), ([0, 1], [5, 2])])
def test_graph_from_edges_rejects_endpoints_outside_the_vertices(u, v):
    # with n = 3, (0, 3) would otherwise fold into vertex 1's row as key 1 * 3 + 0
    with pytest.raises(ValueError, match="endpoints"):
        graph_from_edges(3, u, v)


def test_graph_from_edges_rejects_more_entries_than_int32_indexes():
    # a broadcast view holds 2**30 edges in one element each: the bound is met
    # by the length alone, before any scan or allocation
    u = np.broadcast_to(np.int64(0), 2**30)
    v = np.broadcast_to(np.int64(1), 2**30)
    with pytest.raises(ValueError, match="edges"):
        graph_from_edges(3, u, v)


def test_graph_from_edges_rejects_n_beyond_int32():
    with pytest.raises(ValueError, match="int32"):
        graph_from_edges(2**31, [], [])


class _NoDraws:
    """Stands in for `sample_graph`'s stream: fails on any draw."""

    def geometric(self, p, size):
        raise AssertionError("sample_graph drew before checking its input")


def test_sample_graph_rejects_n_beyond_int32_before_any_draw():
    with pytest.raises(ValueError, match="int32"):
        sample_graph(2**31, 2**-31, _NoDraws())


def test_sample_graph_refuses_too_many_expected_entries_before_any_draw(monkeypatch):
    # 19 900 pairs at p = 1/2 give 9 950 +- 71 edges, far past a bound of 500
    monkeypatch.setattr(graph, "_INDEX_MAX", 1000)
    with pytest.raises(ValueError, match="edges"):
        sample_graph(200, 0.5, _NoDraws())
    # 4 950 pairs at p = 0.05 give 248 +- 15: sampled, and checked exactly
    g = sample_graph(100, 0.05, make_stream(0, 0, "int32-bound"))
    assert 0 < 2 * g.edge_count <= 1000
    _assert_valid_adjacency(g)


class _FixedGaps:
    """Stands in for `sample_graph`'s stream: every geometric gap is 1, so
    each chunk lands on consecutive pairs and the loop must keep drawing."""

    calls = 0

    def geometric(self, p, size):
        self.calls += 1
        return np.ones(size, dtype=np.int64)


def test_sample_graph_draws_chunks_until_one_passes_the_last_pair():
    # n = 300 has m = 44850 pairs; at p = 1e-3 each request is sized for the
    # expected ~45 edges left, so all-one gaps need hundreds of chunks
    rng = _FixedGaps()
    g = sample_graph(300, 1e-3, rng)
    assert rng.calls > 1
    assert g.edge_count == 44_850
    _assert_valid_adjacency(g)


def _pair_offset(n, i):
    """Linear index of the first pair (i, i + 1) of row i."""
    return i * n - i * (i + 1) // 2


@pytest.mark.parametrize("n", [2, 3, 7, 1000, 10**6, 5 * 10**7, 10**9, 2**31 - 1, 2**31])
def test_pairs_from_linear_exact_at_row_boundaries(n):
    # The pairs on either side of each probed row start, and the last pair of
    # the row; near the last rows the float discriminant is least accurate.
    rows = {0, 1, n // 3, n // 2} | {n - 2 - k for k in range(12)}
    lin, want = [], []
    for i in sorted(r for r in rows if 0 <= r <= n - 2):
        off = _pair_offset(n, i)
        probes = [(off, (i, i + 1)), (off + n - 2 - i, (i, n - 1))]
        if i >= 1:
            probes.append((off - 1, (i - 1, n - 1)))
        if i + 2 <= n - 1:
            probes.append((off + 1, (i, i + 2)))
        for idx, pair in probes:
            lin.append(idx)
            want.append(pair)
    u, v = _pairs_from_linear(n, np.asarray(lin, dtype=np.int64))
    assert list(zip(u.tolist(), v.tolist())) == want


# (n, p, seed) -> SHA-256 of indptr and indices as int64, then the stream's next
# random(), at sizes beyond the simulate goldens' n = 20 000
CSR_PINS = [
    (10**6, 1e-6, 1,
     "1686decd32f204c49e3f7b01a10fa5ec039369b7795ebce8440643dd02d4b180", 0.17450505850433895),
    (200_000, (1 + 200_000**-0.2) / 200_000, 2,
     "19e8eeb193ef48e627fcbf4c01b2cb5ad3147f51c073a8afb20de58c1be43d2b", 0.2317082765348819),
]


@pytest.mark.parametrize("n,p,seed,digest,after", CSR_PINS)
def test_sample_graph_csr_bytes_pinned(n, p, seed, digest, after):
    rng = make_stream(seed, 0, "graph")
    g = sample_graph(n, p, rng)
    values = g.indptr.astype(np.int64).tobytes() + g.indices.astype(np.int64).tobytes()
    assert hashlib.sha256(values).hexdigest() == digest
    assert rng.random() == after


def test_sample_graph_peak_memory_is_below_1_4_int64_csrs():
    # 8 (n + 1 + 2E) bytes is the CSR held as int64; the int32 CSR is half that
    n = 200_000
    tracemalloc.start()
    try:
        g = sample_graph(n, 1 / n, make_stream(1, 0, "graph"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * 8 * (n + 1 + 2 * g.edge_count)


@pytest.mark.parametrize("n,p", [(4, 0.5), (100, 0.02)])
def test_sample_graph_edge_count_mean(n, p):
    # the edge count is Binomial(m, p)
    rng = make_stream(12, 0, "edges")
    reps = 20000
    m = n * (n - 1) // 2
    counts = np.array([sample_graph(n, p, rng).edge_count for _ in range(reps)])
    se = np.sqrt(m * p * (1 - p) / reps)
    assert abs(counts.mean() - m * p) < 4 * se
    assert counts.var() == pytest.approx(m * p * (1 - p), rel=0.1)


def test_explore_path_graph_from_middle():
    expl = explore_from_roots(path_graph(), [1])
    assert expl.order.tolist() == [1, 0, 2]
    assert expl.heights.tolist() == [0, 1, 1]
    assert expl.a_total == 3


def test_explore_empty_graph_all_roots():
    g = sample_graph(3, 0.0, make_stream(1, 0, "g"))
    expl = explore_from_roots(g, [0, 1, 2])
    assert expl.a_total == 3
    assert expl.heights.tolist() == [0, 0, 0]


def test_explore_complete_graph_single_root():
    g = sample_graph(4, 1.0, make_stream(1, 0, "g"))
    expl = explore_from_roots(g, [2])
    series = cousin_series(expl)
    assert series.Z.tolist() == [1, 3]
    assert expl.a_total == 4


def test_explore_rejects_duplicate_roots():
    g = sample_graph(4, 1.0, make_stream(1, 0, "g"))
    with pytest.raises(ValueError, match="distinct"):
        explore_from_roots(g, [2, 0, 2])


@pytest.mark.parametrize("roots,order,heights", [(2, [2, 1, 0], [0, 1, 2]),
                                                   ([[0, 1]], [0, 1, 2], [0, 0, 1])])
def test_explore_reads_roots_of_any_shape_flattened(roots, order, heights):
    expl = explore_from_roots(graph_from_edges(4, [0, 1], [1, 2]), roots)
    assert expl.order.tolist() == order
    assert expl.heights.tolist() == heights


def test_explore_working_memory_is_that_of_the_explored_vertices():
    # 2000 of 10**6 vertices are reached; no array of length n may be made
    n = 10**6
    g = graph_from_edges(n, np.arange(1999), np.arange(1, 2000))
    tracemalloc.start()
    try:
        expl = explore_from_roots(g, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expl.order.tolist() == list(range(2000))
    assert expl.heights.tolist() == list(range(2000))
    assert peak < 2**20


@pytest.mark.parametrize("roots", [[-1], [2, -3], [4], [0, 7]])
def test_explore_rejects_roots_outside_the_vertices(roots):
    # unchecked, -1 would index from the end and 7 past it
    with pytest.raises(ValueError, match=r"lie in \[0, 4\)"):
        explore_from_roots(graph_from_edges(4, [0, 1], [1, 2]), roots)


def test_explore_roots_uniform_without_replacement():
    g = sample_graph(6, 0.0, make_stream(1, 0, "g"))
    counts = np.zeros(6)
    reps = 4000
    rng = make_stream(17, 0, "roots")
    for _ in range(reps):
        expl = explore(g, 2, rng)
        assert len(set(expl.roots.tolist())) == 2
        counts[expl.roots] += 1
    # each vertex appears in the pair w.p. 1/3
    freq = counts / (2 * reps)
    assert np.all(np.abs(freq - 1 / 6) < 4 * np.sqrt((1 / 6) * (5 / 6) / (2 * reps)))


def _choose_roots_reference(n, k, rng):
    """`graph._choose_roots` as one scalar draw per root: the oracle for its
    single array draw, which must give the same roots and leave ``rng`` in
    the same state.  The swaps are kept on a dict so that huge n fits."""
    ids = {}
    roots = []
    for t in range(k):
        j = int(rng.integers(t, n))
        ids[t], ids[j] = ids.get(j, j), ids.get(t, t)
        roots.append(ids[t])
    return roots


@pytest.mark.parametrize("n", [1, 2, 5, 200, 10**6, 2**33])
def test_choose_roots_equals_the_scalar_draws(n):
    for k in sorted({1, min(n, 100)} | ({n} if n <= 200 else set())):
        for seed in range(3):
            rng, ref_rng = make_stream(seed, k, "roots"), make_stream(seed, k, "roots")
            roots = graph._choose_roots(n, k, rng)
            assert roots.dtype == np.int64
            assert roots.tolist() == _choose_roots_reference(n, k, ref_rng)
            assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
            assert len(set(roots.tolist())) == k


def test_cousin_series_path_graph():
    series = cousin_series(explore_from_roots(path_graph(), [1]))
    assert series.csn.tolist() == [1, 2, 2]
    assert series.K.tolist() == [0, 1, 3, 5]
    assert series.Z.tolist() == [1, 2]
    assert series.C.tolist() == [1, 3]
    # K(C(1)) = 1**2 + 2**2
    assert series.K[series.C[1]] == 5


def test_cousin_series_empty_graph_all_roots():
    g = sample_graph(3, 0.0, make_stream(1, 0, "g"))
    series = cousin_series(explore_from_roots(g, [0, 1, 2]))
    assert series.csn.tolist() == [3, 3, 3]
    assert series.Z.tolist() == [3]


def test_cousin_series_star_center_root():
    g = graph_from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4])
    series = cousin_series(explore_from_roots(g, [0]))
    assert series.csn.tolist() == [1, 4, 4, 4, 4]
    assert series.Z.tolist() == [1, 4]


def test_infected_total_examples():
    assert explore_from_roots(path_graph(), [1]).a_total == 3
    g = sample_graph(5, 0.0, make_stream(1, 0, "g"))
    assert explore_from_roots(g, [0, 3]).a_total == 2
    gc = sample_graph(4, 1.0, make_stream(1, 0, "g"))
    assert explore_from_roots(gc, [1]).a_total == 4


def test_walk_empty_graph():
    g = sample_graph(3, 0.0, make_stream(1, 0, "g"))
    walk = breadth_first_walk(g, make_stream(1, 0, "w"))
    assert walk.X.tolist() == [0, -1, -2, -3]
    assert walk.components_opened == 3


def test_walk_complete_graph():
    g = sample_graph(3, 1.0, make_stream(1, 0, "g"))
    walk = breadth_first_walk(g, make_stream(1, 0, "w"))
    assert walk.X.tolist() == [0, 1, 0, -1]


def test_walk_path_graph_single_component():
    for rep in range(5):
        walk = breadth_first_walk(path_graph(), make_stream(rep, 0, "w"))
        assert walk.X[-1] == -1
        assert walk.components_opened == 1


def test_walk_invariants_random_graphs():
    rng = make_stream(23, 0, "walks")
    for _ in range(50):
        n = int(rng.integers(2, 60))
        g = sample_graph(n, float(rng.uniform(0, 0.2)), rng)
        walk = breadth_first_walk(g, rng)
        inc = np.diff(walk.X)
        assert inc.min() >= -1
        assert walk.X[-1] == -walk.components_opened
        # components end exactly when a -1 step leaves the running minimum
        past_min = np.minimum.accumulate(walk.X)
        ends = int(np.sum((walk.X[:-1] == past_min[:-1]) & (inc == -1)))
        assert ends == walk.components_opened


def test_walk_max_steps_truncation():
    g = sample_graph(50, 0.05, make_stream(4, 0, "g"))
    walk = breadth_first_walk(g, make_stream(4, 0, "w"), max_steps=10)
    assert walk.X.size == 11


def test_walk_queue_takes_the_csr_index_dtype():
    # beyond the int64 restart order and the seen flags, the int32 queue is
    # the walk's only n-length array: 13 bytes per vertex (17 with an int64 queue)
    n = 200_000
    g = graph_from_edges(n, [], [])
    tracemalloc.start()
    try:
        breadth_first_walk(g, make_stream(1, 0, "w"), max_steps=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 14 * n


class _FixedPermutation:
    """Stands in for the stream of `breadth_first_walk`: one given restart order."""

    def __init__(self, perm):
        self.perm = perm

    def permutation(self, n):
        return np.asarray(self.perm, dtype=np.int64)


class _ScriptedBinomial:
    """Stands in for the stream of `walk_chain`: answers an array of draws with
    the next given child counts and records how many unseen vertices each draw
    was over.  Its ``bit_generator.state`` is the number of draws made, and
    setting it rewinds the script and the record to that draw."""

    def __init__(self, children):
        self.children = list(children)
        self.trials = []
        self.bit_generator = self

    @property
    def state(self):
        return len(self.trials)

    @state.setter
    def state(self, position):
        del self.trials[position:]

    def binomial(self, trials, p):
        start = len(self.trials)
        self.trials.extend(np.asarray(trials).tolist())
        return np.array(self.children[start : len(self.trials)], dtype=np.int64)


def _graph_walk_law(n, p):
    """Exact law of the full walk: every graph times every restart order."""
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    m = len(pairs)
    law = {}
    for mask in range(1 << m):
        chosen = [pairs[i] for i in range(m) if mask >> i & 1]
        g = graph_from_edges(n, [e[0] for e in chosen], [e[1] for e in chosen])
        weight = p ** len(chosen) * (1 - p) ** (m - len(chosen)) / len(perms)
        for perm in perms:
            walk = breadth_first_walk(g, _FixedPermutation(perm))
            key = (tuple(walk.X.tolist()), walk.components_opened)
            law[key] = law.get(key, 0.0) + weight
    return law


def _chain_walk_law(n, p):
    """Exact law of `walk_chain`: every sequence of child counts, each weighted
    by the product of the Binomial(unseen, p) pmfs of the draws it answers."""
    law = {}
    for children in itertools.product(range(n), repeat=n):
        rng = _ScriptedBinomial(children)
        walk = walk_chain(n, p, n, rng)
        if any(c > k for k, c in zip(rng.trials, children)):
            continue
        weight = math.prod(
            math.comb(k, c) * p**c * (1 - p) ** (k - c) for k, c in zip(rng.trials, children)
        )
        key = (tuple(walk.X.tolist()), walk.components_opened)
        law[key] = law.get(key, 0.0) + weight
    return law


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [0.3, 0.6])
def test_walk_chain_law_equals_graph_walk_law(n, p):
    assert total_variation(_graph_walk_law(n, p), _chain_walk_law(n, p)) <= 1e-12


def test_walk_chain_empty_and_complete_graph():
    empty = walk_chain(3, 0.0, 3, make_stream(1, 0, "w"))
    assert empty.X.tolist() == [0, -1, -2, -3]
    assert empty.components_opened == 3
    complete = walk_chain(3, 1.0, 3, make_stream(1, 0, "w"))
    assert complete.X.tolist() == [0, 1, 0, -1]
    assert complete.components_opened == 1


def test_walk_chain_steps_capped_at_n():
    assert walk_chain(5, 0.5, 10, make_stream(2, 0, "w")).X.size == 6
    assert walk_chain(5, 0.5, 0, make_stream(2, 0, "w")).X.tolist() == [0]


@pytest.mark.parametrize("n,p,steps", [
    (0, 0.5, 1), (3, -0.1, 1), (3, 1.5, 1), (3, float("nan"), 1), (3, 0.5, -1),
])
def test_walk_chain_rejects_bad_arguments(n, p, steps):
    with pytest.raises(ValueError):
        walk_chain(n, p, steps, make_stream(1, 0, "w"))


def _walk_chain_reference(n, p, steps, rng):
    """`walk_chain` as one scalar binomial draw per step: the oracle for its
    blocked draws, which must give the same walk and leave ``rng`` in the
    same state."""
    limit = min(steps, n)
    X = [0] * (limit + 1)
    x = queue = seen = components = 0
    for i in range(1, limit + 1):
        if queue == 0:
            seen += 1
            queue = 1
            components += 1
        children = rng.binomial(n - seen, p)
        seen += children
        queue += children - 1
        x += children - 1
        X[i] = x
    return X, components


def _assert_walk_chain_is_the_scalar_loop(n, p, steps, seed):
    rng, ref_rng = make_stream(seed, 0, "w"), make_stream(seed, 0, "w")
    walk = walk_chain(n, p, steps, rng)
    X, components = _walk_chain_reference(n, p, steps, ref_rng)
    assert walk.X.tolist() == X
    assert walk.components_opened == components
    assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)
    return walk


@pytest.mark.parametrize("n,p,steps", [
    (50, 0.0, 50),
    (50, 1.0, 50),
    (2000, 0.5, 2000),
    (10**4, 1e-2, 10**4),
    (10**5, 1e-5, 10**5),  # p = 1/n: about 25 blocks, restarts throughout
    (10**5, 1e-5, 0),
    (40, 0.05, 1000),  # steps > n
    (10**5, 1e-5, 1000),  # below one block
])
def test_walk_chain_equals_the_scalar_loop(n, p, steps):
    for seed in range(3):
        _assert_walk_chain_is_the_scalar_loop(n, p, steps, seed)


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("n,p", [(50, 0.0), (50, 1.0), (2000, 0.5), (3000, 1 / 3000)])
def test_walk_chain_equals_the_scalar_loop_across_small_blocks(monkeypatch, block, n, p):
    monkeypatch.setattr(graph, "_WALK_BLOCK", block)
    for seed in range(3):
        walk = _assert_walk_chain_is_the_scalar_loop(n, p, n, seed)
        if p == 1 / 3000:
            # restarts land inside blocks, so the running minimum crosses edges
            assert walk.components_opened > 10


# SHA-256 of X for replicates 0-2 of the conjecture suite's walks at its own
# (n, p, max_index) and DEFAULT_SEED, taken from one scalar draw per step
CONJECTURE_WALK_SHA256 = [
    "1aa75b0999aa24293ae864eaa6c1a973d78cc1f2b4503a5e4e850f02f03c3dc5",
    "c00512824922780586ca12f3c575a219b7db93e840b5677d081c6d5cb8b4256c",
    "3010f33ae6871bda3d5e810221fc870eafbd9876c949b6b04aa91f002895e4dc",
]


def test_walk_chain_conjecture_walks_bytes_pinned():
    n = 10**6
    window = GeneralWindow(lam=1.0, epsilon=float(n) ** (-0.2))
    p = edge_probability(window, n)
    max_index = int(round(2.0 / window.scales("walk", n)[1]))
    assert max_index == 126191
    for r, digest in enumerate(CONJECTURE_WALK_SHA256):
        walk = walk_chain(n, p, max_index, make_stream(DEFAULT_SEED, r, "walk"))
        assert walk.X.dtype == np.int64
        assert hashlib.sha256(walk.X.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("n,steps", [(10, 2.5), (10.5, 3), (10, 2.0)])
def test_walk_chain_rejects_non_integer_counts(n, steps):
    rng = make_stream(1, 0, "w")
    before = repr(rng.bit_generator.state)
    with pytest.raises(TypeError):
        walk_chain(n, 0.3, steps, rng)
    assert repr(rng.bit_generator.state) == before


def test_walk_chain_takes_numpy_integers():
    walk = walk_chain(np.int64(10), 0.3, np.int32(4), make_stream(1, 0, "w"))
    assert walk.X.size == 5


@pytest.mark.parametrize("max_steps,error", [
    (-1, ValueError), (-5, ValueError), (2.5, TypeError),
])
def test_breadth_first_walk_rejects_bad_max_steps(max_steps, error):
    g = sample_graph(10, 0.3, make_stream(1, 0, "g"))
    rng = make_stream(1, 0, "w")
    before = repr(rng.bit_generator.state)
    with pytest.raises(error):
        breadth_first_walk(g, rng, max_steps=max_steps)
    assert repr(rng.bit_generator.state) == before


def test_walk_chain_matches_graph_walk_at_scale():
    # X at the critical time scale n**(2/3) of the walk of G(1e5, 1/n); the
    # bound is the 0.1% two-sample KS critical value for these sample sizes
    n, index, graphs, chains = 10**5, 2000, 80, 400
    p = 1.0 / n
    on_graphs = [
        breadth_first_walk(
            sample_graph(n, p, make_stream(47, r, "graph")),
            make_stream(47, r, "walk"),
            max_steps=index,
        ).X[index]
        for r in range(graphs)
    ]
    on_chain = [walk_chain(n, p, index, make_stream(53, r, "walk")).X[index] for r in range(chains)]
    bound = 1.95 * math.sqrt((graphs + chains) / (graphs * chains))
    assert ks_statistic(on_graphs, on_chain) <= bound


def _single_source_heights(g, root):
    """Plain per-root BFS oracle, independent of the production exploration."""
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in _neighbors(g, v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_multisource_heights_match_min_over_roots():
    rng = make_stream(31, 0, "bfs")
    for _ in range(40):
        n = int(rng.integers(2, 51))
        g = sample_graph(n, float(rng.uniform(0, 0.3)), rng)
        k = int(rng.integers(1, n + 1))
        expl = explore(g, k, rng)
        per_root = [_single_source_heights(g, int(r)) for r in expl.roots]
        got = dict(zip(expl.order.tolist(), expl.heights.tolist()))
        assert len(got) == expl.a_total
        for v in range(n):
            best = min((d.get(v, np.inf) for d in per_root), default=np.inf)
            # v is absent from the order exactly when no root reaches it
            assert got.get(v, np.inf) == best


@pytest.mark.parametrize("seed", [2, 7, 8])
def test_identities_suite_skips_windows_with_p_out_of_range(monkeypatch, seed):
    # these seeds draw n=2 with lam > 1.26 in the Aldous window (p > 1)
    rejected = []

    def counting(window, n):
        try:
            return edge_probability(window, n)
        except InvalidWindowError:
            rejected.append((window, n))
            raise

    monkeypatch.setattr(verify, "edge_probability", counting)
    report = run_suite("identities", seed=seed)
    assert rejected
    assert report.passed and report.statistic == 0.0


def test_exploration_identities_random_graphs():
    rng = make_stream(37, 0, "ident")
    for _ in range(60):
        n = int(rng.integers(2, 120))
        g = sample_graph(n, float(rng.uniform(0, 3.0 / max(n, 3))), rng)
        k = int(rng.integers(1, n + 1))
        expl = explore(g, k, rng)
        series = cousin_series(expl)
        h_ord = expl.heights
        assert np.all(np.diff(h_ord) >= 0)
        assert np.array_equal(series.csn, series.Z[h_ord])
        assert np.array_equal(
            series.K[series.C], np.cumsum(series.Z.astype(np.int64) ** 2)
        )
        assert int(series.Z.sum()) == expl.a_total
        assert series.C[-1] == expl.a_total


def _triple_key(profile, n):
    z = (tuple(profile) + (0, 0, 0))[:3]
    return (z[0] * (n + 1) + z[1]) * (n + 1) + z[2]


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 1), (4, 2)])
@pytest.mark.parametrize("p", [0.3, 0.6])
def test_profile_distribution_matches_enumeration(n, k, p):
    """Empirical law of (Z(0), Z(1), Z(2)) over 1e6 samples vs exhaustive law.

    The (graph, root set) -> profile map is deterministic given the fixed
    tie-break rule, so it is tabulated once with the production exploration
    and the 1e6 sampled pairs are pushed through the table; the sampling of
    pairs is exact (one uniform per vertex pair, uniform root subset).
    """
    pairs = list(itertools.combinations(range(n), 2))
    rootsets = list(itertools.combinations(range(n), k))
    m, n_rs = len(pairs), len(rootsets)
    profiles = []
    for mask in range(1 << m):
        chosen = [pairs[i] for i in range(m) if mask >> i & 1]
        g = graph_from_edges(n, [e[0] for e in chosen], [e[1] for e in chosen])
        for roots in rootsets:
            expl = explore_from_roots(g, np.asarray(roots))
            profiles.append(tuple(int(z) for z in cousin_series(expl).Z) + (0,))
    keys = np.asarray([_triple_key(prof, n) for prof in profiles])

    exact = np.zeros((n + 1) ** 3)
    for (prof, weight) in exhaustive_profile_distribution(n, k, p).items():
        exact[_triple_key(prof, n)] += weight

    reps = 10**6
    rng = make_stream(41, 0, f"tv-{n}-{k}-{p}")
    bits = rng.random((reps, m)) < p
    masks = bits @ (1 << np.arange(m, dtype=np.int64))
    rs = rng.integers(0, n_rs, size=reps)
    counts = np.bincount(keys[masks * n_rs + rs], minlength=(n + 1) ** 3)
    tv = 0.5 * np.abs(counts / reps - exact).sum()
    assert tv <= 0.005


def test_profile_table_matches_direct_pipeline():
    """Spot-check that tabulated profiles equal fresh explorations."""
    n, k = 4, 2
    pairs = list(itertools.combinations(range(n), 2))
    rng = make_stream(43, 0, "spot")
    for _ in range(200):
        mask = int(rng.integers(0, 1 << len(pairs)))
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = graph_from_edges(n, [e[0] for e in chosen], [e[1] for e in chosen])
        roots = sorted(rng.choice(n, size=k, replace=False).tolist())
        expl = explore_from_roots(g, np.asarray(roots))
        series = cousin_series(expl)
        # rebuild from scratch and compare
        expl2 = explore_from_roots(g, np.asarray(roots))
        assert np.array_equal(series.Z, cousin_series(expl2).Z)


@pytest.mark.parametrize("n,k,p", [(3, 4, 0.5), (3, 0, 0.5), (3, 1, 1.5), (3, 1, -0.1)])
def test_exhaustive_profile_distribution_rejects_bad_arguments(n, k, p):
    # the chain's exact law takes the same arguments and the same checks
    for law in (exhaustive_profile_distribution, exact_profile_distribution):
        with pytest.raises(ValueError):
            law(n, k, p)


def test_exhaustive_profile_distribution_refuses_n_above_six():
    with pytest.raises(ConfigError, match="exact_profile_distribution"):
        exhaustive_profile_distribution(7, 1, 0.5)


def test_profile_table_entries_are_shared():
    table = _profile_table(4, 2)
    distinct = set(table)
    assert len({id(entry) for entry in table}) == len(distinct) < len(table)


def test_total_variation_helper():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
