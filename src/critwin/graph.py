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
law, from its (queue, seen) counts alone, without building the graph.  It
draws a block of steps per numpy call and redraws the block from its saved
stream state until the draws agree with the counts they imply, so it returns
the same bytes, and leaves the stream in the same state, as one scalar draw
per step; a test holds it to that scalar loop.
"""
from __future__ import annotations

import operator
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

# Steps per block of `walk_chain`: one numpy binomial call per pass over it.
_WALK_BLOCK = 4096

# The largest vertex count, and entry count, that int32 adjacency can index.
_INDEX_MAX = np.iinfo(np.int32).max


@dataclass(frozen=True)
class GraphSample:
    """An undirected simple graph in CSR form with sorted neighbor lists."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.indices.size) // 2


@dataclass(frozen=True)
class Exploration:
    """Breadth-first exploration from k roots.

    ``order`` lists the A explored vertices, roots first (in root order), then
    by non-decreasing height with ties broken by ascending vertex id within
    each parent's neighbor scan.  ``heights[j]`` is the height of ``order[j]``;
    a vertex absent from ``order`` was not reached.
    """

    roots: np.ndarray
    order: np.ndarray
    heights: np.ndarray

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
    """Assemble CSR adjacency from endpoint arrays (each edge listed once).

    Every endpoint must lie in [0, n) (ValueError otherwise).  ``indptr`` and
    ``indices`` are int32, so n and twice the edge count may each be at most
    2**31 - 1; both bounds are checked before anything is allocated.  Int64
    ``u`` and ``v`` are not copied; see `_csr` for the working memory.
    """
    return _csr(n, [np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)])


def _checked_order(n: int) -> None:
    if n > _INDEX_MAX:
        raise ValueError(f"n must be <= {_INDEX_MAX} for int32 adjacency, got {n}")


def _csr(n: int, ends: list) -> GraphSample:
    """The CSR of the edges in ``ends`` = [u, v], int64 endpoint arrays.

    The list is emptied, so once the key is formed the builder holds no
    reference to ``u`` or ``v``: a caller that keeps none frees them before
    the sort.  Beyond the returned int32 CSR the working memory is one
    n-length endpoint count at a time, added into ``indptr``, and the int64
    key src * n + dst of every entry, which is sorted, reduced mod n into
    ``indices`` and then freed.
    """
    u, v = ends
    e = u.size
    if 2 * e > _INDEX_MAX:
        raise ValueError(f"2 * edges must be <= {_INDEX_MAX} for int32 adjacency, got {2 * e}")
    _checked_order(n)
    if e and not (0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n):
        raise ValueError(f"edge endpoints must lie in [0, {n})")
    indptr = np.zeros(n + 1, dtype=np.int32)
    indptr[1:] = np.bincount(u, minlength=n)
    np.add(indptr[1:], np.bincount(v, minlength=n), out=indptr[1:], casting="unsafe")
    np.cumsum(indptr, dtype=np.int32, out=indptr)
    key = np.empty(2 * e, dtype=np.int64)
    np.multiply(u, n, out=key[:e])
    key[:e] += v
    np.multiply(v, n, out=key[e:])
    key[e:] += u
    ends.clear()
    del u, v
    key.sort()
    indices = np.remainder(key, n, out=np.empty(2 * e, dtype=np.int32), casting="unsafe")
    del key
    return GraphSample(n=n, indptr=indptr, indices=indices)


def _pairs_from_linear(n: int, lin: np.ndarray):
    """Invert the row-major upper-triangle enumeration of vertex pairs.

    Every entry of ``lin`` must lie in [0, n(n-1)/2).  An int64 ``lin`` is not
    copied; the working memory is one float and two int64 arrays of its
    length, and the last two are the returned rows i and columns j.
    """
    lin = np.asarray(lin, dtype=np.int64)
    twon = 2.0 * n - 1.0
    disc = lin.astype(np.float64)
    disc *= 8.0
    np.subtract(twon * twon, disc, out=disc)
    np.sqrt(disc, out=disc)
    np.subtract(twon, disc, out=disc)
    disc *= 0.5
    i = disc.astype(np.int64)
    del disc
    np.clip(i, 0, n - 2, out=i)
    # Row i starts at off = i * n - i(i+1)/2 = i(2n-1-i)/2 and holds the
    # columns j = lin - off + i + 1 in (i, n).
    j = np.subtract(2 * n - 1, i)
    j *= i
    j //= 2
    np.subtract(lin, j, out=j)
    j += i
    j += 1
    # Float rounding of the discriminant puts i off by up to about n / 2**25
    # rows near the last row; nudge each entry whose column falls outside
    # (i, n) by one row until none is left.
    wrong = np.flatnonzero((j <= i) | (j >= n))
    while wrong.size:
        iw, jw = i[wrong], j[wrong]
        iw += np.where(jw <= iw, -1, 1)
        jw = lin[wrong] - (iw * (2 * n - 1 - iw)) // 2 + iw + 1
        i[wrong], j[wrong] = iw, jw
        wrong = wrong[(jw <= iw) | (jw >= n)]
    return i, j


def sample_graph(n: int, p: float, rng: RngStream) -> GraphSample:
    """Sample G(n, p): every unordered pair present independently with prob p.

    The gaps between successive edges in the row-major pair enumeration are
    Geometric(p) (Batagelj and Brandes 2005): exact, expected O(n + edges) work.
    Each chunk of gaps is summed in place and the chunks are freed before the
    pair inversion, and the endpoint arrays before the CSR's sort, so the peak
    traced memory is about 20 bytes per vertex at p = 1/n.  n must be at most
    2**31 - 1, checked before any draw; so is twice the edge count, which is
    refused before any draw where its mean less 10 standard deviations
    already passes the bound, and by `_csr` otherwise.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _checked_order(n)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    m = n * (n - 1) // 2
    if m == 0 or p == 0.0:
        return graph_from_edges(n, [], [])
    mean = m * p  # of the edge count, Binomial(m, p)
    if mean - 10.0 * (mean * (1.0 - p)) ** 0.5 > _INDEX_MAX // 2:
        raise ValueError(f"2 * edges must be <= {_INDEX_MAX} for int32 adjacency, "
                         f"got G({n}, {p}) with {mean:.4g} edges expected")
    chunks, pos = [], -1  # pos: the last pair index drawn
    while pos < m:
        cand = rng.geometric(p, size=min(int((m - pos) * p * 1.2) + 64, 8_000_000))
        np.cumsum(cand, out=cand)
        cand += pos
        chunks.append(cand[: np.searchsorted(cand, m)])
        pos = int(cand[-1])
    lin = np.concatenate(chunks)
    del chunks, cand
    ends = list(_pairs_from_linear(n, lin))
    del lin
    return _csr(n, ends)


def explore_from_roots(graph: GraphSample, roots) -> Exploration:
    """Breadth-first exploration from distinct roots in [0, n), read flattened.

    One insertion-ordered dict, vertex -> height, is the visited set and the
    order, so the working memory is O(explored vertices), not O(n).
    """
    roots = np.asarray(roots, dtype=np.int64).ravel()
    k = roots.size
    n = graph.n
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    queue = roots.tolist()
    height = dict.fromkeys(queue, 0)
    if len(height) != k:
        raise ValueError("roots must be distinct")
    if min(queue) < 0 or max(queue) >= n:
        raise ValueError(f"roots must lie in [0, {n})")
    indptr = graph.indptr
    indices = graph.indices
    for v in queue:  # the queue grows as it is walked, and ends as the order
        hv1 = height[v] + 1
        for w in indices[indptr[v] : indptr[v + 1]].tolist():
            if w not in height:
                height[w] = hv1
                queue.append(w)
    heights = np.fromiter(height.values(), dtype=np.int64, count=len(queue))
    return Exploration(roots=roots, order=np.array(queue, dtype=np.int64), heights=heights)


def _choose_roots(n: int, k: int, rng: RngStream) -> np.ndarray:
    """Uniform k-subset, in draw order, via a partial Fisher-Yates shuffle.

    The k picks j_t in [t, n) are drawn in one ``rng.integers(arange(k), n)``
    call, which gives the same values, and leaves the stream in the same
    state, as k scalar ``rng.integers(t, n)`` calls.  The swaps are kept on a
    dict of the positions they touch, so the cost is O(k), not O(n).
    """
    moved: dict = {}  # position -> id swapped there; other positions hold their own id
    roots = np.empty(k, dtype=np.int64)
    for t, j in enumerate(rng.integers(np.arange(k), n).tolist()):
        roots[t] = moved.get(j, j)
        moved[j] = moved.get(t, t)
    return roots


def explore(graph: GraphSample, k: int, rng: RngStream) -> Exploration:
    """Explore from k uniformly chosen roots (without replacement)."""
    if not 1 <= k <= graph.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={graph.n}")
    return explore_from_roots(graph, _choose_roots(graph.n, k, rng))


def cousin_series(expl: Exploration) -> CousinSeries:
    """All four series in O(A) from the heights along the exploration order."""
    Z = np.bincount(expl.heights)
    csn = Z[expl.heights]
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
    walk after that many explored vertices (default: all n); it must be an
    integer >= 0, checked before any draw.
    """
    n = graph.n
    if max_steps is None:
        limit = n
    else:
        max_steps = operator.index(max_steps)
        if max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        limit = min(max_steps, n)
    perm = rng.permutation(n)
    seen = np.zeros(n, dtype=bool)
    queue = np.empty(n, dtype=graph.indices.dtype)
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


def _block_trials(children, n, drawn, x0, low):
    """Trials n - seen of each step in a block of `walk_chain`, given its children.

    ``drawn`` counts the children drawn before the block, ``x0`` is X at its
    start and ``low`` the minimum of X before it.  A count below 0 can only
    follow a wrong guess, which a later pass replaces, so it is clipped to 0.
    """
    before = np.cumsum(children)
    before -= children
    x = before - np.arange(children.size)
    x += x0
    # seen = drawn + before + (1 - min(X up to the step)), so trials = n - seen
    np.minimum.accumulate(x, out=x)
    np.minimum(x, low, out=x)
    x -= before
    x += n - drawn - 1
    return np.maximum(x, 0, out=x)


def walk_chain(n: int, p: float, steps: int, rng: RngStream) -> WalkPath:
    """The walk of ``breadth_first_walk`` on G(n, p), sampled without a graph.

    The edges from the i-th explored vertex to the n - seen unseen vertices
    have never been examined, so given the history its number of children is
    Binomial(n - seen, p).  A drained queue reopens at one unseen vertex, and
    which one does not matter.  So the walk is a Markov chain in (queue,
    seen), equal in law to ``breadth_first_walk(sample_graph(n, p, ...), ...,
    max_steps=steps)``, at one binomial draw per step.  ``steps`` is capped
    at n; ``n`` and ``steps`` must be integers, and a bad argument raises
    before any draw.

    The draws are made ``_WALK_BLOCK`` steps at a time.  The components
    opened before step i are 1 - min(X[0..i-1]), and seen = the children
    drawn before i plus those, so every step's trials n - seen follow from
    the children before it.  A block guesses one child per step, takes the
    trials that the guess implies, and draws all of them in one
    ``rng.binomial`` call from the stream state saved at the block's start.
    It then takes the trials that the drawn children imply, and draws again
    from the saved state until the two agree.  The array call runs the
    scalar call's sampler on each element in turn, on the same stream, and
    trial i depends only on the children before i, so each pass fixes at
    least one more leading step.  The accepted draws, and the state the
    stream is left in, are therefore exactly those of one scalar draw per
    step.
    """
    n = operator.index(n)
    steps = operator.index(steps)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0,1], got {p}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    limit = min(steps, n)
    bit_generator = rng.bit_generator
    X = np.zeros(limit + 1, dtype=np.int64)
    drawn = low = 0  # children drawn before the block; min of X before it
    for lo in range(0, limit, _WALK_BLOCK):
        hi = min(lo + _WALK_BLOCK, limit)
        start = bit_generator.state
        # the trials of the all-ones guess, in closed form
        used = n - drawn - 1 + min(int(X[lo]), low) - np.arange(hi - lo)
        np.maximum(used, 0, out=used)
        while True:
            bit_generator.state = start
            children = rng.binomial(used, p)
            implied = _block_trials(children, n, drawn, X[lo], low)
            if np.array_equal(implied, used):
                break
            used = implied
        X[lo + 1 : hi + 1] = X[lo] + np.cumsum(children - 1)
        drawn += int(children.sum())
        low = min(low, int(X[lo:hi].min()))
    return WalkPath(X=X, components_opened=1 - low if limit else 0)
