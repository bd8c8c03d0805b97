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

from dataclasses import dataclass

import numpy as np

from .core import RngStream, _checked_count, _checked_probability, _checked_roots

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

# Pairs per block of the G(n, p) pair inversion and of the CSR's row fill.
_PAIR_BLOCK = 1 << 15


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
    """Assemble CSR adjacency from a simple graph's edge list.

    ``u`` and ``v`` must be 1-D, of equal length and of an integer dtype
    (or empty), and they list each edge once, in any order and either
    orientation.  Every endpoint must lie in [0, n), and a self-loop or a
    repeated edge is refused (ValueError for each).  ``indptr`` and
    ``indices`` are int32, so n and twice the edge count may each be at most
    2**31 - 1; the dtypes, the shapes and both bounds are checked before the
    CSR is allocated.  The edges are sorted as (min, max)
    pairs and handed to `_csr`.
    """
    u = _vertex_ids("u", u)
    v = _vertex_ids("v", v)
    if u.ndim != 1 or u.shape != v.shape:
        raise ValueError(f"u and v must be 1-D and of equal length, got {u.shape} and {v.shape}")
    _checked_order(n, 2 * u.size)
    if u.size and not (0 <= min(u.min(), v.min()) and max(u.max(), v.max()) < n):
        raise ValueError(f"edge endpoints must lie in [0, {n})")
    if np.any(u == v):
        raise ValueError("the edges must not hold a self-loop")
    key = np.minimum(u, v)
    key <<= 32
    key |= np.maximum(u, v)
    key.sort()
    if np.any(key[1:] == key[:-1]):
        raise ValueError("the edges must not repeat an edge")
    pairs = np.empty((key.size, 2), dtype=np.int32)
    np.right_shift(key, 32, out=pairs[:, 0], casting="unsafe")
    np.bitwise_and(key, 0xFFFFFFFF, out=pairs[:, 1], casting="unsafe")
    return _csr(n, pairs)


def _vertex_ids(name: str, ids) -> np.ndarray:
    """``ids`` as int64; ValueError unless empty or integer, so no fraction is truncated."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer vertex ids, got dtype {ids.dtype}")
    return ids.astype(np.int64, copy=False)


def _checked_order(n: int, entries: int = 0) -> None:
    if entries > _INDEX_MAX:
        raise ValueError(f"2 * edges must be <= {_INDEX_MAX} for int32 adjacency, got {entries}")
    if n > _INDEX_MAX:
        raise ValueError(f"n must be <= {_INDEX_MAX} for int32 adjacency, got {n}")


def _csr(n: int, pairs: np.ndarray) -> GraphSample:
    """The CSR of the simple graph whose edges are the rows (i, j) of ``pairs``.

    ``pairs`` is a C-contiguous (E, 2) int32 array, i < j in every row and the
    rows ascending; it is spent.  The degrees are counted with ``np.add.at``.
    Row v lists its lower neighbours, then its upper ones, so it comes out
    sorted.  v's upper neighbours are one run of the pairs; each block, once
    placed, is overwritten by its int64 keys j << 32 | i, and after one
    in-place sort v's lower neighbours are one run of the keys.  A run's slots
    are its positions plus a shift that never falls from one row to the next,
    so an upper pair at t goes to t plus the least end[row] - 1 - t' over
    t' >= t, and a lower key at s to s plus the greatest start[row] - s' over
    s' <= s: one running minimum (from the last block back) or maximum per
    pass, carried across blocks of ``_PAIR_BLOCK``.  Beyond the returned CSR
    and ``pairs``, the working memory is that of one block.
    """
    e = pairs.shape[0]
    _checked_order(n, 2 * e)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.add.at(indptr[1:], pairs.ravel(), np.int32(1))
    np.cumsum(indptr, dtype=np.int32, out=indptr)
    indices = np.empty(2 * e, dtype=np.int32)
    keys = pairs.view(np.int64).reshape(e)
    ends = indptr[1:]
    shift = 2 * e  # above every upper shift
    for lo in reversed(range(0, e, _PAIR_BLOCK)):
        i, j = pairs[lo : lo + _PAIR_BLOCK].T
        t = np.arange(lo + 1, lo + 1 + i.size, dtype=np.int32)
        slot = ends[i]
        slot -= t
        np.minimum.accumulate(slot[::-1], out=slot[::-1])
        np.minimum(slot, shift, out=slot)
        shift = slot[0]
        slot += t
        slot -= 1
        indices[slot] = j
        np.bitwise_or(np.left_shift(j, 32, dtype=np.int64), i, out=keys[lo : lo + _PAIR_BLOCK])
    keys.sort()
    shift = 0  # below no lower shift
    for lo in range(0, e, _PAIR_BLOCK):
        key = keys[lo : lo + _PAIR_BLOCK]
        t = np.arange(lo, lo + key.size, dtype=np.int32)
        slot = indptr[key >> 32]
        slot -= t
        np.maximum.accumulate(slot, out=slot)
        np.maximum(slot, shift, out=slot)
        shift = slot[-1]
        slot += t
        indices[slot] = key & 0xFFFFFFFF
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
    Each chunk of gaps is summed in place into pair indices, and the chunks
    are freed once joined.  The indices are inverted ``_PAIR_BLOCK`` at a
    time, each block's int32 (i, j) written over the bytes its indices held,
    and `_csr` builds the CSR in that buffer; so no int64 endpoint array is
    made, and the peak traced memory is about 13 bytes per vertex at p = 1/n.
    n must be an integer in [1, 2**31 - 1] and p must lie in [0, 1], checked
    before any draw; so is twice the edge count, which is refused before any
    draw where its mean less 10 standard deviations already passes the
    bound, and by `_csr` otherwise.
    """
    n = _checked_count("n", n, 1)
    _checked_order(n)
    _checked_probability(p)
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
    pairs = lin.view(np.int32).reshape(lin.size, 2)
    for lo in range(0, lin.size, _PAIR_BLOCK):
        block = pairs[lo : lo + _PAIR_BLOCK]
        block[:, 0], block[:, 1] = _pairs_from_linear(n, lin[lo : lo + _PAIR_BLOCK])
    del lin
    return _csr(n, pairs)


def explore_from_roots(graph: GraphSample, roots) -> Exploration:
    """Breadth-first exploration from 1 to n distinct integer roots in [0, n), read flattened.

    One insertion-ordered dict, vertex -> height, is the visited set and the
    order, so the working memory is O(explored vertices), not O(n).
    """
    roots = _vertex_ids("roots", roots).ravel()
    k = _checked_roots(roots.size, graph.n)
    n = graph.n
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
    """Explore from k uniformly chosen roots (without replacement), checked before any draw."""
    k = _checked_roots(k, graph.n)
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
    limit = n if max_steps is None else min(_checked_count("max_steps", max_steps, 0), n)
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
    x = before + np.arange(x0, x0 - children.size, -1)  # X at each step
    # seen = drawn + before + (1 - min(X up to the step)), so trials = n - seen
    if x.min() < low:  # else min(low, X up to the step) is low at every step
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
    at n; ``n`` >= 1 and ``steps`` >= 0 must be integers and p must lie in
    [0, 1], all checked before any draw.

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
    n = _checked_count("n", n, 1)
    steps = _checked_count("steps", steps, 0)
    _checked_probability(p)
    limit = min(steps, n)
    bit_generator = rng.bit_generator
    X = np.zeros(limit + 1, dtype=np.int64)
    drawn = low = 0  # children drawn before the block; min of X before it
    for lo in range(0, limit, _WALK_BLOCK):
        hi = min(lo + _WALK_BLOCK, limit)
        start = bit_generator.state
        used = _block_trials(np.ones(hi - lo, dtype=np.int64), n, drawn, X[lo], low)
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
