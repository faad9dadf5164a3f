"""Shortest-path structure and summary metrics for generated graphs."""

from __future__ import annotations

import functools
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
# plus O(n) per pendant node, whatever the depth.
_LEVEL_BUDGET = 64
# Rows per block on the deep path: scipy sources per call, and rows per
# histogram update.
_ROWS = 128
_WORD = np.dtype("<u8")  # bitset word; little-endian so bit b of a row is byte b // 8


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
        return bool(self.bits[a, b >> 6] >> np.uint64(b & 63) & np.uint64(1))

    def mask(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``contains`` for every (row, col) node pair, as a boolean array;
        unpacks only the requested rows."""
        return _unpack(self.bits[rows], self.n)[:, cols]


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop distances of one graph, summarized at one depth.

    ``levels[d - 1]`` is the number of ordered node pairs at hop distance d,
    for d = 1..D with D the largest finite distance. ``circle`` is the
    social circle at the depth the summary was built for. The hop counts of
    the pairs inside the circle are kept bit-sliced: ``_planes[p]`` packs,
    like the circle, bit p of each such pair's distance. A summary thus
    holds 1 + min(dep, n - 1).bit_length() bitsets of n x n bits (three at
    dep=3) and no n x n matrix, and every array in it is read-only.
    ``_rebuild`` recomputes the dense matrix from the graph.
    """

    n: int
    levels: tuple[int, ...]
    circle: SocialCircle
    _planes: np.ndarray = field(repr=False)
    _rebuild: Callable[[], np.ndarray] = field(repr=False)

    def __post_init__(self):
        self._planes.flags.writeable = False

    @property
    def dist(self) -> np.ndarray:
        """The dense n x n int32 hop counts, UNREACHABLE between components;
        recomputed on every access and never kept."""
        return self._rebuild()

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two nodes of one circle, read from the bit
        planes; raises ValueError for a pair more than ``dep`` hops apart."""
        if not self.circle.contains(a, b):
            raise ValueError(f"nodes {a} and {b} are more than {self.circle.dep} hops apart")
        shift = int(b) & 63
        return sum((word >> shift & 1) << p
                   for p, word in enumerate(self._planes[:, a, b >> 6].tolist()))

    def diameter(self) -> Optional[int]:
        """Largest finite distance between distinct nodes, or None if every
        pair is disconnected (or there are no pairs at all)."""
        return len(self.levels) or None


def _csgraph(graph: Graph):
    from scipy.sparse import csr_matrix  # loaded on first use: small graphs never need scipy
    indptr, indices = graph.csr
    return csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                      shape=(graph.n, graph.n))


def _too_deep(graph: Graph) -> bool:
    """Whether a double sweep proves some shortest path longer than the
    level budget. In every component at once, the sweep runs one BFS from
    some node and a second from the node farthest from it; the second's
    depth is a lower bound on that component's diameter."""
    n = graph.n
    if n <= _SMALL_N:
        return False
    from scipy.sparse.csgraph import connected_components, dijkstra
    adj = _csgraph(graph)
    _, component = connected_components(adj, directed=False)
    _, first = np.unique(component, return_index=True)
    depth = dijkstra(adj, indices=first, unweighted=True, min_only=True)
    # the farthest node of each component comes last in (component, depth) order
    order = np.lexsort((depth, component))
    far = order[np.append(np.flatnonzero(np.diff(component[order])), n - 1)]
    return dijkstra(adj, indices=far, unweighted=True, min_only=True).max() > _LEVEL_BUDGET


def _plane_count(n: int, dep: int) -> int:
    """Bits in the largest distance a circle at ``dep`` can hold."""
    return min(dep, n - 1).bit_length()


def _bfs_levels(graph: Graph):
    """Breadth-first search from every node at once over packed bitsets
    (Then et al., "The More the Merrier: Efficient Multi-Source Graph
    Traversal", VLDB 2014): row v of the frontier holds the sources that
    reached v at the last level, and one OR over each node's neighbour rows
    gives the next level. Yields, for d = 0 up to the largest finite
    distance, the packed pairs at distance d, their number and the packed
    pairs farther apart than d, unreachable ones included. No yielded
    array changes afterwards."""
    n = graph.n
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
    reached = np.zeros((n, -(-n // 64)), dtype=_WORD)
    nodes = np.arange(n)
    reached.view(np.uint8)[nodes, nodes >> 3] = 1 << (nodes & 7)  # the identity
    unseen = ~reached
    count, pairs = n, n * n
    while count:
        yield reached, count, unseen
        pairs -= count
        if not pairs:
            return  # every pair is reached and the next level is empty
        reached = np.bitwise_or.reduceat(reached[gather], starts, axis=0)
        reached &= unseen
        count = int(np.bitwise_count(reached).sum())
        unseen = unseen ^ reached


def _circle_and_planes(bfs, n: int, dep: int):
    """Reads levels 0..``dep`` of a ``_bfs_levels`` generator and returns
    their pair counts, the circle, every pair not beyond level ``dep`` (or
    the last level, if sooner), and the bit planes of the distances in it.
    Later levels are left unread."""
    planes = np.zeros((_plane_count(n, dep), n, -(-n // 64)), dtype=_WORD)
    counts = []
    for d, (reached, count, unseen) in enumerate(bfs):
        counts.append(count)
        for p in range(d.bit_length()):
            if d >> p & 1:
                planes[p] |= reached
        if d == dep:
            break
    return counts, SocialCircle(n, dep, ~unseen), planes


def _bit_parallel(graph: Graph, dep: int) -> DistanceMatrix:
    """Summary from the multi-source BFS: the levels up to ``dep`` give the
    circle and the planes, and a popcount per level gives the histogram."""
    bfs = _bfs_levels(graph)
    counts, circle, planes = _circle_and_planes(bfs, graph.n, dep)
    counts += [count for _, count, _ in bfs]
    return DistanceMatrix(graph.n, tuple(counts[1:]), circle, planes,
                          functools.partial(_bit_parallel_dist, graph))


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
    peeled in each tree component. Lays the trees out in preorder, root by
    root, with each node's heaviest child after its lighter subtrees, and
    returns, by position in that order: the node there, its parent's
    position (-1 for a root) and the end of its subtree, which is one
    contiguous slice of positions."""
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
    # a child peels before its parent, so peel order completes every subtree size
    size = [1] * n
    for v in peel:
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    children = [[] for _ in range(n)]
    for v in sorted(peel, key=size.__getitem__, reverse=True):
        if parent[v] >= 0:
            children[parent[v]].append(v)
    order, up, stop = [], [], []
    for root in range(n):
        if parent[root] < 0:
            stack = [(root, -1)]  # heaviest child pushed first, so visited last
            while stack:
                v, above = stack.pop()
                here = len(order)
                order.append(v)
                up.append(above)
                stop.append(here + size[v])
                stack += [(child, here) for child in children[v]]
    return order, up, stop


def _forest_rows(graph: Graph):
    """Hop counts from every source, in blocks of up to ``_ROWS`` rows, with
    the columns laid out as ``_pendant_forest`` orders the nodes; a column
    the row's source cannot reach holds n or more. scipy's traversal gives
    the roots' rows. A pendant node's row is its parent's plus 1, minus 2 on
    the node's own subtree, since every path out of the subtree runs through
    the parent. A row outlives its block, as a copy, only while children of
    its node are still to come; with the heaviest child last, that is
    O(log n) rows at a time."""
    from scipy.sparse.csgraph import dijkstra
    n = graph.n
    order, up, stop = _pendant_forest(graph)
    roots = [i for i, above in enumerate(up) if above < 0]
    waiting = [0] * n  # children still to come, by position
    for above in up:
        if above >= 0:
            waiting[above] += 1
    pending = {}  # position -> row of a node with children still to come
    block, filled = np.empty((_ROWS, n), dtype=np.int32), 0
    adj = _csgraph(graph)
    for lo in range(0, len(roots), _ROWS):
        sources = roots[lo:lo + _ROWS]
        raw = dijkstra(adj, indices=[order[i] for i in sources], unweighted=True)
        raw[np.isinf(raw)] = n
        rooted = raw.astype(np.int32)[:, order]
        del raw
        yield rooted
        for root, row in zip(sources, rooted):
            if waiting[root]:
                pending[root] = row.copy()
            for i in range(root + 1, stop[root]):
                above = up[i]
                row = block[filled]
                np.add(pending[above], 1, out=row)
                row[i:stop[i]] -= 2
                waiting[above] -= 1
                if not waiting[above]:
                    del pending[above]
                if waiting[i]:
                    pending[i] = row.copy()
                filled += 1
                if filled == _ROWS:
                    yield block
                    filled = 0
    yield block[:filled]


def _deep_paths(graph: Graph, dep: int) -> DistanceMatrix:
    """Summary for deep graphs: the circle and the planes from the first
    ``dep`` levels of the multi-source BFS, whose generator then stops, and
    the histogram from ``_forest_rows``, one block of rows at a time."""
    n = graph.n
    _, circle, planes = _circle_and_planes(_bfs_levels(graph), n, dep)
    # a row's unreachable columns hold n plus its depth below its root: below 2n
    counts = np.zeros(2 * n, dtype=np.int64)
    for rows in _forest_rows(graph):
        counts += np.bincount(rows.ravel(), minlength=2 * n)
    levels = tuple(np.trim_zeros(counts[1:n], "b").tolist())
    return DistanceMatrix(n, levels, circle, planes, functools.partial(_scipy_dist, graph))


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
    the level histogram, the social circle of pairs within ``dep`` hops and
    the distances inside it.

    Graphs whose depth bound fits the level budget go through one
    bit-parallel multi-source BFS. Deeper graphs take the circle from the
    first ``dep`` levels of that BFS and the histogram from per-source rows:
    scipy's traversal from the roots (the 2-core and one node per tree
    component), and each pendant node's row derived from its parent's.
    That costs roots x (n + m) plus pendant nodes x n. Neither path holds an
    n x n matrix. Both give the same summary, and pairs in different
    components count as UNREACHABLE.
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
