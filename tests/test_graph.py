import itertools
import math

import numpy as np
import pytest

from critwin import (
    breadth_first_walk,
    cousin_series,
    explore,
    explore_from_roots,
    ks_statistic,
    make_stream,
    sample_graph,
    walk_chain,
)
from critwin.graph import _pairs_from_linear, graph_from_edges
from critwin.verify import exhaustive_profile_distribution, run_suite, total_variation


def path_graph():
    return graph_from_edges(3, [0, 1], [1, 2])


def test_sample_graph_p_zero_and_one():
    g0 = sample_graph(5, 0.0, make_stream(1, 0, "g"))
    assert g0.edge_count == 0
    g1 = sample_graph(5, 1.0, make_stream(1, 0, "g"))
    assert g1.edge_count == 10
    # m = 4950 pairs takes the geometric-skip path, whose gaps are all 1 at p = 1
    g2 = sample_graph(100, 1.0, make_stream(1, 0, "g"))
    assert g2.edge_count == 4950
    assert all(g2.neighbors(v).tolist() == [w for w in range(100) if w != v] for v in range(100))


def _assert_valid_adjacency(g):
    seen = set()
    for v in range(g.n):
        nbrs = g.neighbors(v).tolist()
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


class _FixedUniforms:
    """Stands in for the stream of `sample_graph`'s dense branch: one uniform
    per vertex pair, in row-major pair order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def test_sample_graph_edge_count_mean():
    # Dense branch, n = 4, p = 1/2: a pair is an edge exactly when its uniform
    # is below p.  Each of the 2**6 patterns has probability 2**-6, so the
    # edge count over all of them is exactly Binomial(6, 1/2), mean 3.
    pairs = list(itertools.combinations(range(4), 2))
    below, at = np.nextafter(0.5, 0.0), 0.5
    counts = []
    for mask in range(1 << len(pairs)):
        bits = [mask >> b & 1 for b in range(len(pairs))]
        g = sample_graph(4, 0.5, _FixedUniforms([below if bit else at for bit in bits]))
        edges = {(v, int(w)) for v in range(4) for w in g.neighbors(v) if v < w}
        assert edges == {pair for pair, bit in zip(pairs, bits) if bit}
        counts.append(g.edge_count)
    assert [counts.count(e) for e in range(7)] == [math.comb(6, e) for e in range(7)]
    assert sum(counts) / len(counts) == 3.0


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


def test_sample_graph_sparse_path_edge_count_mean():
    # n large enough to exercise geometric skipping; Binomial(m, p) mean
    rng = make_stream(12, 0, "edges")
    n, p, reps = 100, 0.02, 20000
    m = n * (n - 1) // 2
    counts = np.array([sample_graph(n, p, rng).edge_count for _ in range(reps)])
    se = np.sqrt(m * p * (1 - p) / reps)
    assert abs(counts.mean() - m * p) < 4 * se
    assert counts.var() == pytest.approx(m * p * (1 - p), rel=0.1)


def test_explore_path_graph_from_middle():
    expl = explore_from_roots(path_graph(), [1])
    assert expl.height.tolist() == [1, 0, 1]
    assert expl.a_total == 3
    assert expl.order.tolist() == [1, 0, 2]


def test_explore_empty_graph_all_roots():
    g = sample_graph(3, 0.0, make_stream(1, 0, "g"))
    expl = explore_from_roots(g, [0, 1, 2])
    assert expl.a_total == 3
    assert all(h == 0 for h in expl.height.tolist())


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


class _FixedPermutation:
    """Stands in for the stream of `breadth_first_walk`: one given restart order."""

    def __init__(self, perm):
        self.perm = perm

    def permutation(self, n):
        return np.asarray(self.perm, dtype=np.int64)


class _ScriptedBinomial:
    """Stands in for the stream of `walk_chain`: returns the given child counts
    and records how many unseen vertices each draw was over."""

    def __init__(self, children):
        self.children = iter(children)
        self.trials = []

    def binomial(self, trials, p):
        self.trials.append(trials)
        return next(self.children)


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
            for w in g.neighbors(v).tolist():
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
        for v in range(n):
            best = min((d.get(v, np.inf) for d in per_root), default=np.inf)
            got = expl.height[v]
            assert (got == -1 and best == np.inf) or got == best


@pytest.mark.parametrize("seed", [4, 6, 7])
def test_identities_suite_skips_windows_with_p_out_of_range(seed):
    # these seeds draw n=2 with lam > 1.26 in the Aldous window (p > 1)
    report = run_suite("identities", seed=seed)
    assert report.passed and report.statistic == 0.0


def test_exploration_identities_random_graphs():
    rng = make_stream(37, 0, "ident")
    for _ in range(60):
        n = int(rng.integers(2, 120))
        g = sample_graph(n, float(rng.uniform(0, 3.0 / max(n, 3))), rng)
        k = int(rng.integers(1, n + 1))
        expl = explore(g, k, rng)
        series = cousin_series(expl)
        h_ord = expl.height[expl.order]
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


def test_total_variation_helper():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
