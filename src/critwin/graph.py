"""ER graph sampling, multi-root breadth-first exploration, and derived series.

The exploration orders the vertices reachable from k uniformly chosen roots so
that the height (= graph distance from the nearest root) is non-decreasing
along the order, roots first.  From it we read off:

* ``Z(h)``   -- number of vertices at height exactly h (the height profile),
* ``C(h)``   -- number of vertices at height <= h,
* ``csn(j)`` -- how many explored vertices share the j-th vertex's height,
* ``K(j)``   -- running sum of csn along the order.

``breadth_first_walk`` is the classic all-components walk whose increments are
(number of newly seen neighbors) - 1, restarting at a uniform unexplored
vertex whenever the queue drains.  ``walk_chain`` samples the same walk, in
law, from its (queue, seen) counts alone, without building the graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RngStream

__all__ = [
    "GraphSample",
    "Exploration",
    "CousinSeries",
    "WalkPath",
    "sample_graph",
    "graph_from_edges",
    "explore",
    "explore_from_roots",
    "cousin_series",
    "breadth_first_walk",
    "walk_chain",
]

# Below this many vertex pairs we sample one uniform per pair instead of
# geometric skipping; both are exact, the dense path just has less overhead.
_DENSE_PAIR_LIMIT = 2048


@dataclass(frozen=True)
class GraphSample:
    """An undirected simple graph in CSR form with sorted neighbor lists."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2


@dataclass(frozen=True)
class Exploration:
    """Breadth-first exploration from k roots.

    ``order`` lists the A explored vertices, roots first (in root order), then
    by non-decreasing height with ties broken by ascending vertex id within
    each parent's neighbor scan.  ``height[v]`` is -1 for unexplored v.
    """

    roots: np.ndarray
    order: np.ndarray
    height: np.ndarray

    @property
    def a_total(self) -> int:
        return int(self.order.size)


@dataclass(frozen=True)
class CousinSeries:
    """Cousin statistic along the order plus the height profile.

    csn[j] = #{explored w : hgt(w) = hgt(order[j])}, j = 0..A-1
    K[j]   = sum of csn[:j]                         (length A+1, K[0] = 0)
    Z[h]   = #{v : hgt(v) = h}                      (length maxh+1)
    C[h]   = Z[0] + ... + Z[h]
    """

    csn: np.ndarray
    K: np.ndarray
    Z: np.ndarray
    C: np.ndarray


@dataclass(frozen=True)
class WalkPath:
    """Walk encoding of an all-components breadth-first exploration.

    X[0] = 0 and X[i+1] = X[i] + (children of i-th explored vertex) - 1.
    Over a full exploration X ends at -(number of components).
    """

    X: np.ndarray
    components_opened: int


def graph_from_edges(n: int, u, v) -> GraphSample:
    """Assemble CSR adjacency from endpoint arrays (each edge listed once)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    indices = np.ascontiguousarray(dst[order])
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return GraphSample(n=n, indptr=indptr, indices=indices)


def _pairs_from_linear(n: int, lin: np.ndarray):
    """Invert the row-major upper-triangle enumeration of vertex pairs.

    Every entry of ``lin`` must lie in [0, n(n-1)/2).
    """
    lin = lin.astype(np.int64)
    twon = 2.0 * n - 1.0
    disc = twon * twon - 8.0 * lin.astype(np.float64)
    i = ((twon - np.sqrt(disc)) * 0.5).astype(np.int64)
    np.clip(i, 0, n - 2, out=i)
    off = i * n - (i * (i + 1)) // 2
    # Float rounding of the discriminant puts i off by up to about n / 2**25
    # rows near the last row.  Row i holds lin in [off, off + n - 1 - i);
    # nudge each entry outside its row by one row until none is left.
    wrong = np.flatnonzero((off > lin) | (off + (n - 1 - i) <= lin))
    while wrong.size:
        iw, lw = i[wrong], lin[wrong]
        iw += np.where(off[wrong] > lw, -1, 1)
        ow = iw * n - (iw * (iw + 1)) // 2
        i[wrong], off[wrong] = iw, ow
        wrong = wrong[(ow > lw) | (ow + (n - 1 - iw) <= lw)]
    j = lin - off + i + 1
    return i, j


def sample_graph(n: int, p: float, rng: RngStream) -> GraphSample:
    """Sample G(n, p): every unordered pair present independently with prob p.

    Sparse graphs use geometric skipping over the pair enumeration (expected
    O(n + edges) work); tiny graphs use one uniform per pair.  Both are exact.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    m = n * (n - 1) // 2
    if m == 0 or p == 0.0:
        return graph_from_edges(n, [], [])
    if m <= _DENSE_PAIR_LIMIT:
        lin = np.nonzero(rng.random(m) < p)[0]
    else:
        chunks = []
        pos = -1
        while True:
            want = int((m - pos) * p * 1.2) + 64
            gaps = rng.geometric(p, size=min(want, 8_000_000))
            cand = pos + np.cumsum(gaps)
            inside = cand < m
            if inside.all():
                chunks.append(cand)
                pos = int(cand[-1])
                continue
            chunks.append(cand[: int(np.argmin(inside))])
            break
        lin = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
    u, v = _pairs_from_linear(n, lin)
    return graph_from_edges(n, u, v)


def explore_from_roots(graph: GraphSample, roots) -> Exploration:
    """Breadth-first exploration from the given (distinct) root vertices."""
    roots = np.asarray(roots, dtype=np.int64)
    k = roots.size
    if k < 1 or k > graph.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={graph.n}")
    if np.unique(roots).size != k:
        raise ValueError("roots must be distinct")
    n = graph.n
    height = np.full(n, -1, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    height[roots] = 0
    order[:k] = roots
    indptr = graph.indptr
    indices = graph.indices
    head, tail = 0, k
    while head < tail:
        v = order[head]
        head += 1
        hv1 = height[v] + 1
        for w in indices[indptr[v] : indptr[v + 1]].tolist():
            if height[w] < 0:
                height[w] = hv1
                order[tail] = w
                tail += 1
    return Exploration(roots=roots, order=order[:tail].copy(), height=height)


def _choose_roots(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Uniform k-subset, in draw order, via a partial Fisher-Yates shuffle."""
    ids = np.arange(n, dtype=np.int64)
    for t in range(k):
        j = int(rng.integers(t, n))
        ids[t], ids[j] = ids[j], ids[t]
    return ids[:k].copy()


def explore(graph: GraphSample, k: int, rng: RngStream) -> Exploration:
    """Explore from k uniformly chosen roots (without replacement)."""
    if not 1 <= k <= graph.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={graph.n}")
    return explore_from_roots(graph, _choose_roots(graph.n, k, rng))


def cousin_series(expl: Exploration) -> CousinSeries:
    """All four series in O(A) from the exploration's heights and order."""
    h_ord = expl.height[expl.order]
    Z = np.bincount(h_ord)
    csn = Z[h_ord]
    K = np.zeros(csn.size + 1, dtype=np.int64)
    np.cumsum(csn, out=K[1:])
    C = np.cumsum(Z)
    return CousinSeries(csn=csn, K=K, Z=Z, C=C)


def breadth_first_walk(
    graph: GraphSample, rng: RngStream, max_steps: int | None = None
) -> WalkPath:
    """Walk over an all-components exploration started at a uniform vertex.

    Children of the i-th explored vertex are its previously unseen neighbors,
    enqueued in ascending id order; a fresh component opens at a uniform
    unexplored vertex whenever the queue drains.  ``max_steps`` truncates the
    walk after that many explored vertices (default: all n).
    """
    n = graph.n
    limit = n if max_steps is None else min(int(max_steps), n)
    perm = rng.permutation(n)
    seen = np.zeros(n, dtype=bool)
    queue = np.empty(n, dtype=np.int64)
    X = np.empty(limit + 1, dtype=np.int64)
    X[0] = 0
    indptr = graph.indptr
    indices = graph.indices
    head = tail = 0
    pptr = 0
    components = 0
    for i in range(limit):
        if head == tail:
            while seen[perm[pptr]]:
                pptr += 1
            v0 = perm[pptr]
            seen[v0] = True
            queue[tail] = v0
            tail += 1
            components += 1
        v = queue[head]
        head += 1
        children = 0
        for w in indices[indptr[v] : indptr[v + 1]].tolist():
            if not seen[w]:
                seen[w] = True
                queue[tail] = w
                tail += 1
                children += 1
        X[i + 1] = X[i] + children - 1
    return WalkPath(X=X, components_opened=components)


def walk_chain(n: int, p: float, steps: int, rng: RngStream) -> WalkPath:
    """The walk of ``breadth_first_walk`` on G(n, p), sampled without a graph.

    The edges from the i-th explored vertex to the n - seen unseen vertices
    have never been examined, so given the history its number of children is
    Binomial(n - seen, p).  A drained queue reopens at one unseen vertex, and
    which one does not matter.  So the walk is a Markov chain in (queue,
    seen), equal in law to ``breadth_first_walk(sample_graph(n, p, ...), ...,
    max_steps=steps)``, at one binomial draw per step.  ``steps`` is capped
    at n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    limit = min(int(steps), n)
    binomial = rng.binomial
    X = [0] * (limit + 1)
    x = queue = seen = components = 0
    for i in range(1, limit + 1):
        if queue == 0:
            seen += 1
            queue = 1
            components += 1
        children = binomial(n - seen, p)
        seen += children
        queue += children - 1
        x += children - 1
        X[i] = x
    return WalkPath(X=np.array(X, dtype=np.int64), components_opened=components)
