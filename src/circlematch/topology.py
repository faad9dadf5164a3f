"""Shortest-path structure and summary metrics for generated graphs."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .netgen import Graph

UNREACHABLE = -1

# Graphs up to this many nodes always take the bit-parallel path. A larger
# graph takes the deep path when its 2-core is disjoint cycles (or empty):
# the bit-parallel pass costs O(levels * n^2 / 64) words, while the deep
# path costs the pendant-forest peel, one closed-form count per cycle and,
# for each layer of the forest, its width times the histogram width.
_SMALL_N = 128
# Cycle nodes per block of the deep path, so that its hop offsets never
# take more than this many rows of n entries at a time.
_SOURCES = 256
# The BFS ORs neighbour rows by columns when its highest degree times this
# many words is below the words of all neighbour rows: a column costs a few
# numpy calls, about what reduceat spends on that many words. Measured with
# both branches gathering by ``take``, on er, ba, ncn and ws at n = 60-2000
# and k = 2-24: the column path's time over reduceat's has a geometric mean
# of 1.51 where the neighbour words over the highest degree are 500-1000,
# 1.00 at 1000-1500, 0.90 at 1500-2500 and 0.64 at 2500-5000, with single
# graphs from 0.4 to 1.7 on either side of this constant. The neighbour rows
# hold at most n times the highest degree rows, so a search whose n times
# words per row is at most this never crosses it: no search from all nodes
# of a graph of 300 nodes or fewer, the preset grids among them.
_COLUMN_WORDS = 1500
_WORD = np.dtype("<u8")  # bitset word; little-endian so bit b of a row is byte b // 8
_ONE = _WORD.type(1)


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


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """All-pairs hop distances of one graph, summarized at one depth.

    ``levels[d - 1]`` is the number of ordered node pairs at hop distance d,
    for d = 1..D with D the largest finite distance. ``circle`` is the
    social circle at the depth the summary was built for, one read-only
    bitset of n x n bits; a summary holds no other array. The hop count of
    a pair inside the circle is searched from ``graph`` when it is asked
    for, and so is the dense matrix.
    """

    n: int
    levels: tuple[int, ...]
    circle: SocialCircle
    graph: Graph = field(repr=False)

    @property
    def dist(self) -> np.ndarray:
        """The dense n x n int32 hop counts, UNREACHABLE between components,
        from one multi-source BFS over ``graph``; recomputed on every access
        and never kept."""
        dist = np.full((self.n, self.n), UNREACHABLE, dtype=np.int32)
        return _write_levels(dist, _bfs_levels(self.graph))

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


def _bfs_levels(graph: Graph, sources: Optional[np.ndarray] = None):
    """Breadth-first search from every node of ``sources`` (all nodes by
    default) at once over packed bitsets (Then et al., "The More the
    Merrier: Efficient Multi-Source Graph Traversal", VLDB 2014): bit i of
    row v of the frontier is set when ``sources[i]`` reached v at the last
    level, and one OR over each node's neighbour rows gives the next level.
    Wide rows take that OR from ``_column_or``, narrow ones from one
    ``reduceat``, whose cost grows with the words of every neighbour row.
    Both gather the neighbour rows by ``ndarray.take``, which skips numpy's
    general index path: on a 100-node graph a 200-row gather takes about a
    quarter of the time fancy indexing does. Yields, for d = 0 up to the
    largest finite distance, the packed pairs at distance d, their number
    and the packed pairs farther apart than d, unreachable ones included.
    No yielded array changes afterwards."""
    n = graph.n
    sources = np.arange(n) if sources is None else sources
    indptr, indices = graph.csr
    # reduceat mis-handles empty segments, so an isolated node gathers its own
    # row as its one neighbour: a row that holds only the node itself at the
    # start, which unseen masks out, and nothing after. Every node then has
    # a neighbour row, and no level needs a scatter.
    gather, starts = indices, indptr[:-1]
    isolated = np.flatnonzero(indptr[:-1] == indptr[1:])
    if isolated.size:
        gather = np.insert(indices, indptr[isolated], isolated)
        starts = starts + np.searchsorted(isolated, np.arange(n))
    width = -(-len(sources) // 64)
    degree = np.diff(starts, append=len(gather))
    if degree.max() * _COLUMN_WORDS < len(gather) * width:
        neighbours = _column_or(gather, starts, degree)
    else:
        def neighbours(rows):
            return np.bitwise_or.reduceat(rows.take(gather, axis=0), starts, axis=0)
    reached = np.zeros((n, width), dtype=_WORD)
    bits = np.arange(len(sources))
    reached.view(np.uint8)[sources, bits >> 3] = 1 << (bits & 7)  # each source itself
    unseen = ~reached
    count, pairs = len(sources), n * len(sources)
    while count:
        yield reached, count, unseen
        pairs -= count
        if not pairs:
            return  # every pair is reached and the next level is empty
        reached = neighbours(reached)
        reached &= unseen
        count = int(np.bitwise_count(reached).sum())
        unseen = unseen ^ reached


def _column_or(gather: np.ndarray, starts: np.ndarray, degree: np.ndarray):
    """The function from packed rows to the OR of each node's neighbour rows
    (node v's are ``gather[starts[v]:starts[v] + degree[v]]``), one column
    of neighbours at a time: column j holds the j-th neighbour of every node
    with more than j. With the nodes in falling degree order each column is
    a prefix, so it costs one gather and one in-place OR."""
    n = len(degree)
    order = np.argsort(-degree, kind="stable")
    first = starts[order]
    heads = n - np.cumsum(np.bincount(degree))[:-1]  # nodes with more than j neighbours
    columns = [gather[first[:head] + j] for j, head in enumerate(heads)]
    inverse = None if (order == np.arange(n)).all() else np.argsort(order)

    def neighbours(rows):
        out = rows.take(columns[0], axis=0)
        for column in columns[1:]:
            out[:len(column)] |= rows.take(column, axis=0)
        return out if inverse is None else out[inverse]
    return neighbours


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
    return DistanceMatrix(graph.n, tuple(counts[1:]), circle, graph)


def _write_levels(out: np.ndarray, bfs) -> np.ndarray:
    """Writes level d of a ``_bfs_levels`` generator into ``out[v, i]`` for
    every pair it newly reached, node v from source i, and returns ``out``.
    Each round takes the lowest set bit of every nonzero word left, so a
    level costs its nonzero words plus one round per bit of its fullest
    word, and holds no array larger than its nonzero words."""
    for d, (reached, _, _) in enumerate(bfs):
        width = reached.shape[1]
        packed = reached.ravel()
        at = np.flatnonzero(packed)
        words = packed[at]
        while at.size:
            low = words & (~words + _ONE)
            words ^= low
            out[at // width, at % width * 64 + np.bitwise_count(low - _ONE)] = d
            left = words != 0
            at, words = at[left], words[left]
    return out


def _pendant_forest(graph: Graph):
    """Peels nodes of degree <= 1 until none is left. A peeled node's
    parent is the one neighbour it still had, so the peeled nodes form trees
    hanging from the roots: the nodes of the 2-core, and the last node
    peeled in each tree component. Returns, as arrays, each node's parent
    (-1 for a root), its depth below its root, its root, and its degree in
    the 2-core (-1 for a peeled node)."""
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
    depth, root = [0] * n, list(range(n))
    for v in reversed(peel):  # a parent peels after its children
        if parent[v] >= 0:
            depth[v] = depth[parent[v]] + 1
            root[v] = root[parent[v]]
    return np.array(parent), np.array(depth), np.array(root), np.array(degree)


def _core_cycles(graph: Graph, degree: np.ndarray) -> list[np.ndarray]:
    """The components of a 2-core that is disjoint cycles, each as its nodes
    in cycle order; ``degree`` is each node's degree in the 2-core: 2 on it,
    -1 off it. Each walk goes round one cycle back to its start."""
    indptr, indices = (a.tolist() for a in graph.csr)
    degree = degree.tolist()
    walked = [False] * graph.n
    cycles = []
    for start in range(graph.n):
        if degree[start] < 0 or walked[start]:
            continue
        walk, prev, node = [], -1, start
        while not walk or node != start:
            walk.append(node)
            walked[node] = True
            node, prev = next(u for u in indices[indptr[node]:indptr[node + 1]]
                              if degree[u] >= 0 and u != prev), node
        cycles.append(np.array(walk))
    return cycles


def _count_rows(hops: np.ndarray, width: int) -> np.ndarray:
    """Row i counts the values of ``hops[i]``, each in 0..width-1, by one
    offset ``bincount`` for all rows. Overwrites ``hops``."""
    rows = len(hops)
    hops += np.arange(0, rows * width, width)[:, None]
    return np.bincount(hops.ravel(), minlength=rows * width).reshape(rows, width)


def _root_histograms(graph: Graph, depth: np.ndarray, root: np.ndarray,
                     degree: np.ndarray, has_children: np.ndarray):
    """Yields blocks (roots, hist) of pendant-forest roots and their
    histograms, row i counting the nodes by hop distance from ``roots[i]``;
    every root of the 2-core, which must be disjoint cycles, and every tree
    component's root with children comes once. A shortest path between two
    2-core nodes never enters a pendant tree, which it could leave only
    through the node it entered by, so a 2-core root r is
    d_core(r, root(v)) + depth(v) hops from each node v of its component,
    with d_core the distance in the 2-core:

    - a tree component's root sees its tree by depth;
    - on a cycle of C nodes, d_core of the nodes at positions i and j is
      min(|i - j|, C - |i - j|), counted ``_SOURCES`` roots at a time."""
    n = graph.n
    tree_roots = np.flatnonzero((depth == 0) & (degree < 0) & has_children)
    if tree_roots.size:
        slot = np.full(n, -1)
        slot[tree_roots] = np.arange(len(tree_roots))
        nodes = np.flatnonzero(slot[root] >= 0)
        width = int(depth[nodes].max()) + 1
        yield tree_roots, np.bincount(slot[root[nodes]] * width + depth[nodes],
                                      minlength=len(tree_roots) * width).reshape(-1, width)
    cycles = _core_cycles(graph, degree)
    ring, place = np.full(n, -1), np.zeros(n, dtype=np.intp)  # cycle and position on it
    for index, cycle in enumerate(cycles):
        ring[cycle], place[cycle] = index, np.arange(len(cycle))
    # the nodes grouped by the cycle their root is on, off-cycle nodes first
    on = ring[root]
    groups = np.split(np.argsort(on, kind="stable"),
                      np.cumsum(np.bincount(on + 1, minlength=len(cycles) + 1))[:-1])
    for cycle, nodes in zip(cycles, groups[1:]):
        size = len(cycle)
        at, below = place[root[nodes]], depth[nodes]
        for lo in range(0, size, _SOURCES):
            hops = np.abs(np.arange(lo, min(lo + _SOURCES, size))[:, None] - at)
            np.minimum(hops, size - hops, out=hops)
            hops += below
            yield cycle[lo:lo + _SOURCES], _count_rows(hops, size // 2 + int(below.max()) + 1)


def _deep_paths(graph: Graph, dep: int) -> Optional[DistanceMatrix]:
    """Summary for a graph whose 2-core is disjoint cycles or empty, or
    None when some 2-core node has three or more 2-core neighbours: then
    ``_root_histograms`` could not count the 2-core, and the bit-parallel
    path pays. The circle comes from the first ``dep`` levels of the
    multi-source BFS, whose generator then stops, and the histogram from
    ``_pendant_forest``, one layer of equal depth at a time, starting from
    the roots' histograms of ``_root_histograms``. Every path out of a
    pendant node v's subtree runs through v's parent p, so with S_v[d] the
    number of nodes d levels below v, v's histogram is p's shifted by one,
    less S_v shifted by two (v's subtree as p counts it), plus S_v."""
    n = graph.n
    parent, depth, root, degree = _pendant_forest(graph)
    if (degree > 2).any():
        return None
    _, circle = _circle(_bfs_levels(graph), n, dep)
    layers = np.split(np.argsort(depth, kind="stable"), np.cumsum(np.bincount(depth))[:-1])
    has_children = np.zeros(n, dtype=bool)
    has_children[parent[parent >= 0]] = True
    layers[0] = layers[0][has_children[layers[0]]]
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
    for roots, counts in _root_histograms(graph, depth, root, degree, has_children):
        total[:counts.shape[1]] += counts.sum(axis=0)
        keep = has_children[roots]
        if keep.any():
            kept.append((roots[keep], counts[keep]))
    # a node t layers deep sees at most t levels farther than its root does
    width = len(np.trim_zeros(total, "b")) + len(layers)
    hist = np.zeros((len(layers[0]), width), dtype=np.int32)
    for roots, counts in kept:
        counts = counts[:, :width]
        hist[at[roots], :counts.shape[1]] = counts
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
    return DistanceMatrix(n, levels, circle, graph)


def summary_bytes(n: int, m: int, isolated: int = 0) -> int:
    """Estimated peak bytes of ``all_pairs_shortest`` on a graph of n nodes,
    m edges and ``isolated`` isolated nodes, in bitset rows of n bits: the
    neighbour rows the search gathers, one per edge end and isolated node,
    and n rows for each of five n x n bitsets (reached, unseen, the next
    level, the level the reader still holds, and the circle). An upper bound
    on either kernel: at n=2000 it is 1.3-1.7x the traced peak on er, ws,
    ba and ncn at k <= 4, a star and a graph with no edges, and up to 4.6x
    on dense graphs (ncn k=20), whose search gathers one column of
    neighbour rows at a time."""
    return (2 * m + isolated + 5 * n) * -(-n // 64) * _WORD.itemsize


def all_pairs_shortest(graph: Graph, dep: int) -> DistanceMatrix:
    """Minimum hop count between every node pair, summarized in one pass:
    the level histogram and the social circle of pairs within ``dep`` hops.

    A graph of more than ``_SMALL_N`` nodes whose 2-core is disjoint cycles,
    or empty, takes the deep path: the circle from the first ``dep`` levels
    of the bit-parallel multi-source BFS and the histogram from the pendant
    forest, the roots' histograms (each cycle node's in closed form, and
    one per tree component) as offset counts of their distances to the
    roots plus each node's depth below its root, then each pendant node's
    histogram derived from its parent's, one layer of equal depth at a
    time. Every other graph goes through that BFS alone. Neither path holds
    an n x n matrix; both are numpy alone. Both give the same summary, and
    pairs in different components count as UNREACHABLE.
    """
    if dep < 1:
        raise ValueError(f"recognition depth must be >= 1, got {dep}")
    deep = _deep_paths(graph, dep) if graph.n > _SMALL_N else None
    return deep or _bit_parallel(graph, dep)


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
