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
# scipy path: the bit-parallel pass costs O(levels * n^2 / 64) words, while
# scipy's per-source traversal costs O(n * (n + m)) whatever the depth.
_LEVEL_BUDGET = 64
# Sources per scipy call on the scipy path.
_ROWS = 128
_WORD = np.dtype("<u8")  # bitset word; little-endian so bit b of a row is byte b // 8


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """Boolean form of packed bitset rows of n bits: column b is bit b % 64 of word b // 64."""
    return np.unpackbits(packed.view(np.uint8), axis=-1, count=n,
                         bitorder="little").view(bool)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Inverse of ``_unpack``: boolean rows as rows of 64-bit words."""
    n = bits.shape[1]
    packed = np.zeros((bits.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(_WORD)


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
    reached = _pack(np.eye(n, dtype=bool))
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


def _bit_parallel(graph: Graph, dep: int) -> DistanceMatrix:
    """Summary from the multi-source BFS: a popcount per level gives the
    histogram, the levels up to ``dep`` give the planes, and the circle is
    every pair not beyond level ``dep`` (or the last level, if sooner)."""
    n = graph.n
    planes = np.zeros((_plane_count(n, dep), n, -(-n // 64)), dtype=_WORD)
    levels = []
    for d, (reached, count, unseen) in enumerate(_bfs_levels(graph)):
        levels.append(count)
        if d <= dep:
            beyond = unseen
            for p in range(d.bit_length()):
                if d >> p & 1:
                    planes[p] |= reached
    return DistanceMatrix(n, tuple(levels[1:]), SocialCircle(n, dep, ~beyond), planes,
                          functools.partial(_bit_parallel_dist, graph))


def _bit_parallel_dist(graph: Graph) -> np.ndarray:
    n = graph.n
    dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
    for d, (reached, _, _) in enumerate(_bfs_levels(graph)):
        dist[_unpack(reached, n)] = d
    return dist


def _scipy_rows(graph: Graph):
    """Per-source traversal in scipy's compiled routines, for deep graphs.
    Yields the first source and the int32 hop counts of each block of
    source rows, so the float64 distances scipy returns never take more
    than a block."""
    from scipy.sparse.csgraph import shortest_path
    adj = _csgraph(graph)
    n = graph.n
    for lo in range(0, n, _ROWS):
        raw = shortest_path(adj, indices=np.arange(lo, min(lo + _ROWS, n)), unweighted=True)
        raw[np.isinf(raw)] = UNREACHABLE
        yield lo, raw.astype(np.int32)


def _scipy_paths(graph: Graph, dep: int) -> DistanceMatrix:
    """Summary from scipy's rows, block by block: each block adds to the
    histogram and fills its rows of the circle and the planes."""
    n = graph.n
    counts = np.zeros(n + 1, dtype=np.int64)
    circle = np.empty((n, -(-n // 64)), dtype=_WORD)
    planes = np.empty((_plane_count(n, dep), *circle.shape), dtype=_WORD)
    for lo, rows in _scipy_rows(graph):
        block = slice(lo, lo + len(rows))
        # Shifted by one, UNREACHABLE counts in bin 0 and the diagonal in bin 1.
        counts += np.bincount(rows.ravel() + 1, minlength=n + 1)
        # UNREACHABLE wraps to the largest uint32, beyond any depth.
        circle[block] = _pack(rows.view(np.uint32) <= dep)
        for p, plane in enumerate(planes):
            # bit p of every hop count, UNREACHABLE's too, then masked to the circle
            plane[block] = _pack(rows & 1 << p != 0) & circle[block]
    levels = tuple(np.trim_zeros(counts[2:], "b").tolist())
    return DistanceMatrix(n, levels, SocialCircle(n, dep, circle), planes,
                          functools.partial(_scipy_dist, graph))


def _scipy_dist(graph: Graph) -> np.ndarray:
    dist = np.empty((graph.n, graph.n), dtype=np.int32)
    for lo, rows in _scipy_rows(graph):
        dist[lo:lo + len(rows)] = rows
    return dist


def all_pairs_shortest(graph: Graph, dep: int) -> DistanceMatrix:
    """Minimum hop count between every node pair, summarized in one pass:
    the level histogram, the social circle of pairs within ``dep`` hops and
    the distances inside it.

    Graphs whose depth bound fits the level budget go through one
    bit-parallel multi-source BFS; deeper graphs go through scipy's
    per-source traversal, a block of rows at a time. Neither holds an
    n x n matrix. Both give the same summary, and pairs in different
    components count as UNREACHABLE.
    """
    if dep < 1:
        raise ValueError(f"recognition depth must be >= 1, got {dep}")
    return (_scipy_paths if _too_deep(graph) else _bit_parallel)(graph, dep)


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
