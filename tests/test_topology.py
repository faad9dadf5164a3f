"""Distance computation and topology metrics, cross-checked against a
naive per-source BFS, networkx, and scipy.stats for the Poisson series."""

import math
import os
import random
import subprocess
import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

import circlematch
from circlematch import topology
from circlematch.netgen import Graph, generate, generate_ba, generate_er, generate_ncn
from circlematch.topology import (
    UNREACHABLE,
    all_pairs_shortest,
    analyze,
    average_degree,
    average_path_length,
    connectivity,
    degree_distribution,
    poisson_connectivity,
    reachable_pairs,
)

from refimpl import naive_distances, random_instance, summary_from_dense


CYCLE6 = generate_ncn(6, 2)


# ------------------------------------------------------------------ distances

@given(st.integers(0, 500))
def test_shortest_paths_match_naive_bfs(seed):
    inst = random_instance(seed)
    fast = all_pairs_shortest(inst.graph, inst.dep)
    assert np.array_equal(fast.dist, naive_distances(inst.graph))


def test_disconnected_pairs_marked():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    dist = all_pairs_shortest(g, 3).dist
    assert dist[0, 1] == 1
    assert dist[0, 2] == UNREACHABLE
    assert dist[4, 0] == UNREACHABLE
    assert dist[3, 2] == 1


def test_cycle_distances_frozen():
    dm = all_pairs_shortest(CYCLE6, 3)
    assert dm.dist[0, 3] == 3
    assert dm.dist[1, 5] == 2
    assert dm.diameter() == 3
    assert dm.levels == (12, 12, 6)


def distance_or_none(dm, a, b):
    try:
        return dm.distance(a, b)
    except ValueError:
        return None


def assert_summary_matches(summarize, dist, deps):
    """Every summary ``summarize(dep)`` builds, one per depth in ``deps``,
    equals the value derived from the dense reference ``dist``: the
    distances, the histogram, the metrics, each circle bit and the
    reference summary's bit planes."""
    n = len(dist)
    finite = dist[(dist != UNREACHABLE) & ~np.eye(n, dtype=bool)]
    diameter = int(finite.max()) if finite.size else None
    upper = dist[np.triu_indices(n, k=1)]
    reach = upper[upper != UNREACHABLE]
    nodes = np.arange(n)
    for dep in deps:
        dm = summarize(dep)
        within = (dist != UNREACHABLE) & (dist <= dep)
        # distance() reads the bit planes, and answers for circle pairs only
        assert [[distance_or_none(dm, a, b) for b in range(n)] for a in range(n)] == \
            np.where(within, dist, None).tolist()
        assert np.array_equal(dm._planes, summary_from_dense(dist, dep)._planes)
        assert np.array_equal(dm.dist, dist)
        assert dm.levels == tuple(int((finite == d).sum())
                                  for d in range(1, (diameter or 0) + 1))
        assert dm.diameter() == diameter
        assert reachable_pairs(dm) == reach.size
        # exact: the histogram gives the same float as numpy's mean
        assert average_path_length(dm) == (float(reach.mean()) if reach.size else None)
        if n >= 2:
            assert connectivity(dm, dep) == float((reach <= dep).sum()) / (n * (n - 1) // 2)
        circle = dm.circle
        assert (circle.n, circle.dep) == (n, dep)
        assert np.array_equal(topology._unpack(circle.bits, n), within)
        assert np.array_equal(circle.mask(nodes, nodes), within)
        assert [circle.contains(a, b) for a in range(n) for b in range(n)] == within.ravel().tolist()


@given(st.integers(0, 300))
def test_summary_matches_naive_bfs_on_both_paths(seed):
    inst = random_instance(seed)
    slow = naive_distances(inst.graph)
    assert inst.dm.circle.dep == inst.dep
    for summarize in (lambda dep: all_pairs_shortest(inst.graph, dep),
                      lambda dep: topology._bit_parallel(inst.graph, dep),
                      lambda dep: topology._deep_paths(inst.graph, dep)):
        assert_summary_matches(summarize, slow, (1, 2, 3, 4))


def networkx_distances(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges.tolist())
    dist = np.full((graph.n, graph.n), UNREACHABLE, dtype=np.int32)
    for a, lengths in nx.all_pairs_shortest_path_length(g):
        for b, d in lengths.items():
            dist[a, b] = d
    return dist


def sparse_evens(n):
    """A random graph on the even nodes of 0..n-1: every odd node is isolated."""
    g = generate_er(n // 2, n, random.Random(3))
    return Graph.from_edges(n, [(2 * u, 2 * v) for u, v in g.edges.tolist()])


def ring_beside_clump():
    """A 200-node ring (diameter 100) beside a dense 100-node random graph
    that holds every node of top degree."""
    clump = generate_er(100, 2000, random.Random(4))
    return Graph.from_edges(300, generate_ncn(200, 2).edges.tolist()
                            + [(200 + u, 200 + v) for u, v in clump.edges.tolist()])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def caterpillar(n, spine_first):
    """A path of n/2 spine nodes with one leaf on each: spine node i has id
    i and its leaf n/2 + i, or the other way round."""
    half = n // 2
    spine, leaf = (0, half) if spine_first else (half, 0)
    return Graph.from_edges(n, [(spine + i, spine + i + 1) for i in range(half - 1)]
                            + [(spine + i, leaf + i) for i in range(half)])


def ring_with_pendant_paths():
    """A 200-node ring with a 10-node path hanging from every 20th node."""
    edges = generate_ncn(200, 2).edges.tolist()
    for t in range(10):
        tail = list(range(200 + 10 * t, 210 + 10 * t))
        edges += [(20 * t, tail[0])] + list(zip(tail, tail[1:]))
    return Graph.from_edges(300, edges)


def tree_beside_a_ring():
    """A random 140-node tree, a 150-node ring and 10 isolated nodes, with
    the ids shuffled."""
    rng = random.Random(5)
    label = list(range(300))
    rng.shuffle(label)
    tree = [(v, rng.randrange(v)) for v in range(1, 140)]
    ring = [(140 + i, 140 + (i + 1) % 150) for i in range(150)]
    return Graph.from_edges(300, [(label[u], label[v]) for u, v in tree + ring])


@pytest.mark.parametrize("name, graph, deep", [
    ("ncn ring", generate_ncn(300, 2), True),
    ("ring beside a clump", ring_beside_clump(), True),
    ("er", generate_er(300, 600, random.Random(1)), False),
    ("ba", generate_ba(300, 2, random.Random(2)), False),
    ("isolated nodes", sparse_evens(300), False),
    ("edgeless", Graph.from_edges(300, []), False),
    ("path", path(300), True),
    ("caterpillar, spine ids first", caterpillar(300, True), True),
    ("caterpillar, leaf ids first", caterpillar(300, False), True),
    ("ring with pendant paths", ring_with_pendant_paths(), True),
    ("tree beside a ring and isolated nodes", tree_beside_a_ring(), True),
])
def test_both_paths_match_networkx_at_n300(name, graph, deep):
    assert topology._too_deep(graph) == deep
    dist = networkx_distances(graph)
    diameter = int(dist.max())
    deps = sorted({1, 3, max(diameter, 1), diameter + 2})
    assert_summary_matches(lambda dep: all_pairs_shortest(graph, dep), dist, deps)


@pytest.mark.parametrize("seed", [8000, 8001])
def test_deep_path_matches_bit_parallel_on_ws_at_n2000(seed):
    # a rewired k=2 ring: a small 2-core with trees hanging from it
    graph = generate("ws", 2000, 2, rng=random.Random(seed))
    assert topology._too_deep(graph)
    deep, flat = topology._deep_paths(graph, 3), topology._bit_parallel(graph, 3)
    assert deep.levels == flat.levels
    assert np.array_equal(deep.circle.bits, flat.circle.bits)
    assert np.array_equal(deep._planes, flat._planes)


@pytest.mark.parametrize("spine_first", [True, False], ids=["spine ids first", "leaf ids first"])
def test_deep_path_keeps_few_rows_past_their_block(spine_first):
    # The caterpillar is one tree rooted mid-spine, and every spine node has
    # its spine child and its leaf as children. Visiting the leaf last would
    # keep the row of every spine node of an arm, about 500 rows of 8 kB, to
    # the arm's end: 8.9 MB in all. Visiting the heavier spine child last
    # keeps O(log n) rows; the peak, 4.9 MB, is then the circle, the planes
    # and a few blocks of rows.
    graph = caterpillar(2000, spine_first)
    topology._deep_paths(graph, 3)  # scipy imported and the CSR cached outside the trace
    tracemalloc.start()
    try:
        topology._deep_paths(graph, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7_000_000


def test_distance_raises_past_the_circle():
    dm = all_pairs_shortest(CYCLE6, 2)
    assert [dm.distance(0, b) for b in (0, 1, 2, 4, 5)] == [0, 1, 2, 2, 1]
    with pytest.raises(ValueError, match="more than 2 hops"):
        dm.distance(0, 3)
    with pytest.raises(ValueError):
        all_pairs_shortest(Graph.from_edges(4, [(0, 1)]), 3).distance(0, 2)
    # numpy node ids, on a word whose top bit is set in every plane
    ring = all_pairs_shortest(generate_ncn(200, 2), 100)
    assert ring.distance(np.int64(0), np.int64(63)) == ring.distance(0, 63) == 63


@pytest.mark.parametrize("graph", [generate_ncn(40, 2), generate_ncn(300, 2)],
                         ids=["bit-parallel", "scipy"])
def test_dense_matrix_is_rebuilt_on_every_read(graph):
    dm = all_pairs_shortest(graph, 3)
    first, second = dm.dist, dm.dist
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, naive_distances(graph))
    first[0, 1] = 7
    assert dm.dist[0, 1] == 1


def test_summary_holds_read_only_packed_bits_only():
    n = 300
    for graph in (generate_ncn(n, 2), generate_er(n, 600, random.Random(1))):
        dm = all_pairs_shortest(graph, 3)
        arrays = (dm.circle.bits, dm._planes)
        assert [a.dtype for a in arrays] == [np.uint64] * 2
        assert dm._planes.shape == (2, n, -(-n // 64))  # bits 0 and 1 of distances 1..3
        assert not any(a.flags.writeable for a in arrays)


def test_reading_dist_on_a_small_ring_never_loads_scipy():
    # the bit-parallel path rebuilds the matrix by its own pass, not through scipy
    src = os.path.dirname(os.path.dirname(circlematch.__file__))
    code = ("import sys; from circlematch import generate_ncn, all_pairs_shortest; "
            "dist = all_pairs_shortest(generate_ncn(100, 2), 3).dist; "
            "print(int(dist.max()), 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["50", "False"]


def test_diameter_of_edgeless_graph_is_none():
    assert all_pairs_shortest(Graph.from_edges(4, []), 3).diameter() is None


# ------------------------------------------------------------------- metrics

def test_cycle_metrics_frozen():
    dm = all_pairs_shortest(CYCLE6, 3)
    assert average_degree(CYCLE6) == 2.0
    assert degree_distribution(CYCLE6) == {2: 6}
    assert reachable_pairs(dm) == 15
    assert average_path_length(dm) == pytest.approx(1.8)
    assert connectivity(dm, 1) == pytest.approx(0.4)
    assert connectivity(dm, 2) == pytest.approx(0.8)
    assert connectivity(dm, 3) == pytest.approx(1.0)
    assert connectivity(dm, 99) == pytest.approx(1.0)


def test_two_triangles_metrics():
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    dm = all_pairs_shortest(g, 3)
    assert reachable_pairs(dm) == 6
    assert average_path_length(dm) == pytest.approx(1.0)
    assert connectivity(dm, 3) == pytest.approx(6 / 15)
    assert dm.diameter() == 1


def test_edgeless_graph_metrics():
    dm = all_pairs_shortest(Graph.from_edges(4, []), 3)
    assert average_path_length(dm) is None
    assert reachable_pairs(dm) == 0
    assert connectivity(dm, 3) == 0.0


@given(st.integers(0, 300))
def test_connectivity_monotone_in_dep(seed):
    inst = random_instance(seed)
    values = [connectivity(inst.dm, dep) for dep in (1, 2, 3, 5, 10)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert 0.0 <= values[0] and values[-1] <= 1.0


def test_connectivity_validation():
    dm = all_pairs_shortest(CYCLE6, 3)
    with pytest.raises(ValueError):
        connectivity(dm, 0)
    with pytest.raises(ValueError):
        connectivity(all_pairs_shortest(Graph.from_edges(1, []), 3), 3)


# ------------------------------------------------------------------- poisson

def test_poisson_connectivity_frozen_value():
    expected = math.exp(-1) * (1 + 0.5 + 1 / 6)
    assert poisson_connectivity(1, 3) == pytest.approx(expected, abs=1e-12)
    assert poisson_connectivity(1, 3) == pytest.approx(0.6131324019524039)


def test_poisson_connectivity_tiny_lambda():
    assert poisson_connectivity(1e-6, 1) == pytest.approx(1e-6, rel=1e-3)


@given(st.floats(0.05, 20.0), st.integers(1, 12))
def test_poisson_connectivity_matches_scipy(lam, dep):
    expected = scipy.stats.poisson.cdf(dep, lam) - scipy.stats.poisson.pmf(0, lam)
    assert poisson_connectivity(lam, dep) == pytest.approx(expected, abs=1e-12)


@example(0.0625, 9)  # the added term, about 2e-19, is below half an ulp of the sum
@given(st.floats(0.05, 20.0), st.integers(1, 11))
def test_poisson_connectivity_increasing_in_dep(lam, dep):
    """One more term never lowers the sum, and raises it whenever the term
    is large enough to move a float sum: above half an ulp of it."""
    smaller, larger = poisson_connectivity(lam, dep), poisson_connectivity(lam, dep + 1)
    assert larger >= smaller
    term = lam ** (dep + 1) * math.exp(-lam) / math.factorial(dep + 1)
    if term > math.ulp(smaller) / 2:
        assert larger > smaller


def test_poisson_series_peaks_then_decays():
    """The truncated series rises with lambda until the last retained term
    stops dominating, peaking at (dep!)^(1/dep), and decays after that.
    For dep=3 the peak sits at 6**(1/3) ~ 1.817."""
    grid = [0.5 * i for i in range(1, 11)]
    values = [poisson_connectivity(lam, 3) for lam in grid]
    peak = grid[values.index(max(values))]
    assert peak == pytest.approx(2.0)
    assert values[0] < values[1] < values[2]          # rising flank
    assert all(a > b for a, b in zip(values[3:], values[4:]))  # decaying flank
    assert poisson_connectivity(2, 3) > poisson_connectivity(1, 3)


def test_poisson_connectivity_validation():
    with pytest.raises(ValueError):
        poisson_connectivity(0, 3)
    with pytest.raises(ValueError):
        poisson_connectivity(-1, 3)
    with pytest.raises(ValueError):
        poisson_connectivity(1, 0)


# ------------------------------------------------------------------- report

def test_analyze_cycle_report():
    report = analyze(CYCLE6, dep=2)
    d = report.to_dict()
    assert d["n"] == 6
    assert d["m"] == 6
    assert d["average_degree"] == 2.0
    assert d["degree_histogram"] == {2: 6}
    assert d["apl"] == pytest.approx(1.8)
    assert d["connectivity"] == pytest.approx(0.8)
    assert d["dep"] == 2
    assert d["reachable_pairs"] == 15


def test_analyze_matches_parts():
    g = generate_er(40, 80, random.Random(6))
    report = analyze(g, dep=3)
    dm = all_pairs_shortest(g, 3)
    assert report.apl == average_path_length(dm)
    assert report.connectivity == connectivity(dm, 3)
