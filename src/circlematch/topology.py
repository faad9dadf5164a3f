"""Shortest-path structure and summary metrics for generated graphs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .netgen import Graph

UNREACHABLE = -1

# Graphs up to this many nodes always take the bit-parallel path.
_SMALL_N = 128
# A graph whose double-sweep depth bound exceeds this many levels takes the
# deep path: the bit-parallel pass costs O(levels * n^2 / 64) words, while
# the deep path costs O(roots * (n + m)) for scipy's traversal from the roots
# plus, for each layer of the pendant forest, its width times the histogram
# width (the longest root histogram plus the number of layers).
_LEVEL_BUDGET = 64
# scipy sources per call, so the float64 rows scipy returns never take more
# than this many at a time.
_ROWS = 128
_WORD = np.dtype("<u8")  # bitset word; little-endian so bit b of a row is byte b // 8


def _checked(ids, n: int) -> np.ndarray:
    """``ids`` as an array; raises ValueError naming the first outside 0..n-1."""
    ids = np.asarray(ids)
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise ValueError(f"node id {ids[outside][0]} outside 0..{n - 1}")
    return ids


def _bit(packed: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bit ``cols[i]`` of packed bitset row ``rows[i]`` for every i, as booleans."""
    return (packed[rows, cols >> 6] >> (cols & 63).astype(_WORD) & np.uint64(1)).astype(bool)


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Boolean form of packed bitset rows of n bits: column b is bit b % 64 of word b // 64."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n,
                         bitorder="little").view(bool)


@dataclass(frozen=True, eq=False)
class SocialCircle:
    """Mutual-recognition predicate: pairs within ``dep`` hops know each other.

    ``bits`` packs the circle row by row: row a holds bit b % 64 of word
    b // 64 for every node b within ``dep`` hops of a, a itself included.
    It is read-only.
    """

    n: int
    dep: int
    bits: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.bits.flags.writeable = False

    def contains(self, a: int, b: int) -> bool:
        for v in (a, b):
            if not 0 <= v < self.n:
                raise ValueError(f"node id {v} outside 0..{self.n - 1}")
        return bool(self.bits[a, b >> 6] >> np.uint64(b & 63) & np.uint64(1))

    def mask(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``contains`` for every (row, col) node pair, as a boolean array;
        unpacks only the requested rows."""
        rows, cols = _checked(rows, self.n), _checked(cols, self.n)
        return _unpack(self.bits[rows], self.n)[:, cols]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop distances of one graph, summarized at one depth.

    ``levels[d - 1]`` is the number of ordered node pairs at hop distance d,
    for d = 1..D with D the largest finite distance. ``circle`` is the
    social circle at the depth the summary was built for, one read-only
    bitset of n x n bits; a summary holds no other array. The hop count of
    a pair inside the circle is searched from ``graph`` when it is asked
    for, and ``_rebuild(graph)`` recomputes the dense matrix from it.
    """

    n: int
    levels: tuple[int, ...]
    circle: SocialCircle
    graph: Graph = field(repr=False)
    _rebuild: Callable[[Graph], np.ndarray] = field(repr=False)

    @property
    def dist(self) -> np.ndarray:
        """The dense n x n int32 hop counts, UNREACHABLE between components;
        recomputed on every access and never kept."""
        return self._rebuild(self.graph)

    def distances(self, a, b) -> np.ndarray:
        """Hop distance of every pair (a[i], b[i]), from one breadth-first search
        seeded with the distinct nodes of ``a`` only, which stops once every pair
        is reached, at level ``dep`` at most; ValueError for a pair farther apart
        or a node id outside 0..n-1."""
        a, b = _checked(a, self.n).reshape(-1), _checked(b, self.n).reshape(-1)
        if a.shape != b.shape:
            raise ValueError("distances needs as many nodes b as nodes a")
        sources, column = np.unique(a, return_inverse=True)
        hops = np.zeros(len(a), dtype=np.intp)
        pending = np.arange(len(a))
        for d, (reached, _, _) in enumerate(_bfs_levels(self.graph, sources)):
            hit = _bit(reached, b[pending], column[pending])
            hops[pending[hit]] = d
            pending = pending[~hit]
            if not pending.size or d == self.circle.dep:
                break
        if pending.size:
            raise ValueError(f"nodes {a[pending[0]]} and {b[pending[0]]} are more than "
                             f"{self.circle.dep} hops apart")
        return hops

    def diameter(self) -> Optional[int]:
        """Largest finite distance between distinct nodes, or None if every
        pair is disconnected (or there are no pairs at all)."""
        return len(self.levels) or None


def _csgraph(graph: Graph):
    from scipy.sparse import csr_matrix  # loaded on first use: only the deep path needs scipy
    indptr, indices = graph.csr
    return csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                      shape=(graph.n, graph.n))


def _too_deep(graph: Graph) -> bool:
    """Whether a double sweep (Magnien, Latapy & Habib, "Fast computation of
    empirically tight bounds for the diameter of massive graphs", JEA 2009)
    proves some shortest path longer than the level budget. In every
    component at once, a first BFS runs from the component's smallest node
    and a second from the largest id among the nodes farthest from it; the
    second's depth is a lower bound on the component's diameter. Either
    sweep stops once it passes the budget, since the first's depth bounds
    the second's from below. Each round is one pass over the edges of all
    components together, so the cost does not grow with their number."""
    n = graph.n
    if n <= _SMALL_N:
        return False
    indptr, indices = graph.csr
    source = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))  # each CSR entry's row
    # After round r each node holds the smallest id within r hops, so the
    # last round that changes a node's label is its distance from its
    # component's smallest node.
    label = np.arange(n, dtype=np.int32)
    depth = np.zeros(n, dtype=np.int32)
    for r in range(1, _LEVEL_BUDGET + 2):
        nearer = label.copy()
        np.minimum.at(nearer, indices, label[source])
        changed = nearer != label
        if not changed.any():
            break
        if r > _LEVEL_BUDGET:
            return True
        depth[changed] = r
        label = nearer
    # the farthest node of each component comes last in (label, depth) order
    order = np.lexsort((depth, label))
    far = order[np.append(np.flatnonzero(np.diff(label[order])), n - 1)]
    frontier = np.zeros(n, dtype=bool)
    frontier[far] = True
    unseen = ~frontier
    for _ in range(_LEVEL_BUDGET + 1):
        reached = np.zeros(n, dtype=bool)
        reached[indices[frontier[source]]] = True
        frontier = reached & unseen
        if not frontier.any():
            return False
        unseen &= ~frontier
    return True


def _bfs_levels(graph: Graph, sources: Optional[np.ndarray] = None):
    """Breadth-first search from every node of ``sources`` (all nodes by
    default) at once over packed bitsets (Then et al., "The More the
    Merrier: Efficient Multi-Source Graph Traversal", VLDB 2014): bit i of
    row v of the frontier is set when ``sources[i]`` reached v at the last
    level, and one OR over each node's neighbour rows gives the next level.
    Yields, for d = 0 up to the largest finite distance, the packed pairs at
    distance d, their number and the packed pairs farther apart than d,
    unreachable ones included. No yielded array changes afterwards."""
    n = graph.n
    sources = np.arange(n) if sources is None else sources
    indptr, indices = graph.csr
    # reduceat mis-handles empty segments, so an isolated node gathers its own
    # row as its one neighbour: a row that holds only the node itself at the
    # start, which unseen masks out, and nothing after. Every level is then
    # one gather and one reduceat.
    gather, starts = indices, indptr[:-1]
    isolated = np.flatnonzero(indptr[:-1] == indptr[1:])
    if isolated.size:
        gather = np.insert(indices, indptr[isolated], isolated)
        starts = starts + np.searchsorted(isolated, np.arange(n))
    reached = np.zeros((n, -(-len(sources) // 64)), dtype=_WORD)
    bits = np.arange(len(sources))
    reached.view(np.uint8)[sources, bits >> 3] = 1 << (bits & 7)  # each source itself
    unseen = ~reached
    count, pairs = len(sources), n * len(sources)
    while count:
        yield reached, count, unseen
        pairs -= count
        if not pairs:
            return  # every pair is reached and the next level is empty
        reached = np.bitwise_or.reduceat(reached[gather], starts, axis=0)
        reached &= unseen
        count = int(np.bitwise_count(reached).sum())
        unseen = unseen ^ reached


def _circle(bfs, n: int, dep: int):
    """Reads levels 0..``dep`` of a ``_bfs_levels`` generator and returns
    their pair counts and the circle, every pair not beyond level ``dep``
    (or the last level, if sooner). Later levels are left unread."""
    counts = []
    for d, (_, count, unseen) in enumerate(bfs):
        counts.append(count)
        if d == dep:
            break
    return counts, SocialCircle(n, dep, ~unseen)


def _bit_parallel(graph: Graph, dep: int) -> DistanceMatrix:
    """Summary from the multi-source BFS: the levels up to ``dep`` give the
    circle, and a popcount per level gives the histogram."""
    bfs = _bfs_levels(graph)
    counts, circle = _circle(bfs, graph.n, dep)
    counts += [count for _, count, _ in bfs]
    return DistanceMatrix(graph.n, tuple(counts[1:]), circle, graph, _bit_parallel_dist)


def _bit_parallel_dist(graph: Graph) -> np.ndarray:
    n = graph.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
    for d, (reached, _, _) in enumerate(_bfs_levels(graph)):
        dist[_unpack(reached, n)] = d
    return dist


def _pendant_forest(graph: Graph):
    """Peels nodes of degree <= 1 until none is left. A peeled node's
    parent is the one neighbour it still had, so the peeled nodes form trees
    hanging from the roots: the nodes of the 2-core, and the last node
    peeled in each tree component. Returns each node's parent (-1 for a
    root) and its depth below its root, as arrays."""
    n = graph.n
    indptr, indices = (a.tolist() for a in graph.csr)
    degree = graph.degrees()
    parent = [-1] * n
    peel = [v for v in range(n) if degree[v] <= 1]
    for v in peel:  # grows while it is read: a node left with one neighbour peels later
        degree[v] = -1
        for u in indices[indptr[v]:indptr[v + 1]]:
            if degree[u] >= 0:
                parent[v] = u
                degree[u] -= 1
                if degree[u] == 1:
                    peel.append(u)
    depth = [0] * n
    for v in reversed(peel):  # a parent peels after its children
        if parent[v] >= 0:
            depth[v] = depth[parent[v]] + 1
    return np.array(parent), np.array(depth)


def _deep_paths(graph: Graph, dep: int) -> DistanceMatrix:
    """Summary for deep graphs: the circle from the first ``dep`` levels of
    the multi-source BFS, whose generator then stops, and the histogram from
    ``_pendant_forest``, one layer of equal depth at a time. scipy's
    traversal counts each root's distances. Every path out of a pendant node
    v's subtree runs through v's parent p, so with S_v[d] the number of nodes
    d levels below v, v's histogram is p's shifted by one, less S_v shifted
    by two (v's subtree as p counts it), plus S_v."""
    from scipy.sparse.csgraph import dijkstra
    n = graph.n
    _, circle = _circle(_bfs_levels(graph), n, dep)
    parent, depth = _pendant_forest(graph)
    layers = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])
    roots = layers[0]
    has_children = np.zeros(n, dtype=bool)
    has_children[parent[parent >= 0]] = True
    layers[0] = roots[has_children[roots]]
    at = np.empty(n, dtype=np.intp)  # each node's row in its layer's arrays
    for layer in layers:
        at[layer] = np.arange(len(layer))
    # bottom-up: row i of below[t] counts the subtree of layers[t][i] by level
    below = [None] * len(layers)
    for t in range(len(layers) - 1, 0, -1):
        below[t] = np.zeros((len(layers[t]), len(layers) - t), dtype=np.int32)
        below[t][:, 0] = 1
        if t + 1 < len(layers):
            np.add.at(below[t][:, 1:], at[parent[layers[t + 1]]], below[t + 1])
    total = np.zeros(n + len(layers), dtype=np.int64)  # wide enough for every histogram
    kept = []
    adj = _csgraph(graph)
    for lo in range(0, len(roots), _ROWS):
        sources = roots[lo:lo + _ROWS]
        for root, row in zip(sources, dijkstra(adj, indices=sources, unweighted=True)):
            counts = np.bincount(row[np.isfinite(row)].astype(np.intp))
            total[:len(counts)] += counts
            if has_children[root]:
                kept.append(counts)
    # a node t layers deep sees at most t levels farther than its root does
    width = len(np.trim_zeros(total, "b")) + len(layers)
    hist = np.zeros((len(kept), width), dtype=np.int32)
    for row, counts in zip(hist, kept):
        row[:len(counts)] = counts
    # top-down: each layer's histograms from its parents', which then go
    for t in range(1, len(layers)):
        above = hist[at[parent[layers[t]]], :-1]
        hist = np.zeros((len(above), width), dtype=np.int32)
        hist[:, 1:] = above
        size = below[t].shape[1]
        hist[:, :size] += below[t]
        hist[:, 2:size + 2] -= below[t]
        below[t] = None
        total[:width] += hist.sum(axis=0)
    levels = tuple(np.trim_zeros(total[1:], "b").tolist())
    return DistanceMatrix(n, levels, circle, graph, _scipy_dist)


def _scipy_dist(graph: Graph) -> np.ndarray:
    """The dense matrix from scipy's per-source traversal, a block of
    ``_ROWS`` sources at a time, so the float64 distances scipy returns
    never take more than a block."""
    from scipy.sparse.csgraph import shortest_path
    adj = _csgraph(graph)
    n = graph.n
    dist = np.empty((n, n), dtype=np.int32)
    for lo in range(0, n, _ROWS):
        raw = shortest_path(adj, indices=np.arange(lo, min(lo + _ROWS, n)), unweighted=True)
        raw[np.isinf(raw)] = UNREACHABLE
        dist[lo:lo + _ROWS] = raw
    return dist


def all_pairs_shortest(graph: Graph, dep: int) -> DistanceMatrix:
    """Minimum hop count between every node pair, summarized in one pass:
    the level histogram and the social circle of pairs within ``dep`` hops.

    Graphs whose depth bound fits the level budget go through one
    bit-parallel multi-source BFS. Deeper graphs take the circle from the
    first ``dep`` levels of that BFS and the histogram from the pendant
    forest: scipy's traversal from the roots (the 2-core and one node per
    tree component), and each pendant node's histogram derived from its
    parent's, one layer of equal depth at a time. That costs roots x (n + m)
    plus, per layer, its width x the histogram width. Neither path holds an
    n x n matrix. Both give the same summary, and pairs in different
    components count as UNREACHABLE. The choice between them is a numpy
    double sweep, so scipy is loaded only for a graph that takes the deep
    path.
    """
    if dep < 1:
        raise ValueError(f"recognition depth must be >= 1, got {dep}")
    return (_deep_paths if _too_deep(graph) else _bit_parallel)(graph, dep)


def average_degree(graph: Graph) -> float:
    """Mean node degree, 2M/N."""
    return 2.0 * graph.m / graph.n


def degree_distribution(graph: Graph) -> dict[int, int]:
    """Histogram mapping degree value to the number of nodes holding it."""
    return dict(Counter(graph.degrees()))


def reachable_pairs(dm: DistanceMatrix) -> int:
    """Number of unordered node pairs connected by some path."""
    return sum(dm.levels) // 2


def average_path_length(dm: DistanceMatrix) -> Optional[float]:
    """Mean hop distance over reachable unordered pairs.

    Pairs in different components are excluded from both numerator and
    denominator. Returns None when no pair is reachable, which callers
    should treat as undefined rather than zero.
    """
    pairs = reachable_pairs(dm)
    if pairs == 0:
        return None
    # An exact integer sum over a count: the float numpy's mean of the
    # int32 distances gives.
    return sum(d * count for d, count in enumerate(dm.levels, 1)) // 2 / pairs


def connectivity(dm: DistanceMatrix, dep: int) -> float:
    """Fraction of unordered pairs within distance ``dep`` of each other."""
    if dep < 1:
        raise ValueError(f"recognition depth must be >= 1, got {dep}")
    if dm.n < 2:
        raise ValueError("connectivity needs at least 2 nodes")
    return sum(dm.levels[:dep]) // 2 / (dm.n * (dm.n - 1) // 2)


def poisson_connectivity(lam: float, dep: int) -> float:
    """Connectivity predicted when path lengths were Poisson with mean ``lam``:
    the probability mass on 1..dep.

    Not monotone in ``lam``: the derivative is exp(-lam) * (1 - lam**dep / dep!),
    so the mass rises up to the peak at ``lam = (dep!) ** (1 / dep)`` (about
    1.817 at dep=3) and strictly decays past it."""
    if lam <= 0:
        raise ValueError(f"mean path length must be positive, got {lam}")
    if dep < 1:
        raise ValueError(f"recognition depth must be >= 1, got {dep}")
    return sum(lam ** l * math.exp(-lam) / math.factorial(l) for l in range(1, dep + 1))


@dataclass(frozen=True)
class TopologyReport:
    """Metric bundle for one graph at one recognition depth."""

    n: int
    m: int
    average_degree: float
    degree_histogram: dict[int, int]
    apl: Optional[float]
    reachable_pairs: int
    connectivity: Optional[float]
    dep: int

    def to_dict(self) -> dict:
        return asdict(self)


def analyze(graph: Graph, dep: int = 3) -> TopologyReport:
    """Compute the full metric bundle for one graph. A 1-node graph has no
    pairs, so its path length and connectivity are None."""
    dm = all_pairs_shortest(graph, dep)
    return TopologyReport(
        n=graph.n,
        m=graph.m,
        average_degree=average_degree(graph),
        degree_histogram=degree_distribution(graph),
        apl=average_path_length(dm),
        reachable_pairs=reachable_pairs(dm),
        connectivity=connectivity(dm, dep) if graph.n >= 2 else None,
        dep=dep,
    )
