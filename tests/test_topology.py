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
from circlematch.netgen import MODELS, Graph, generate, generate_ba, generate_er, generate_ncn
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
    summary_bytes,
)

from refimpl import mask, naive_distances, random_instance


CYCLE6 = generate_ncn(6, 2)


# ------------------------------------------------------------------ distances

@given(st.integers(0, 500))
def test_shortest_paths_match_naive_bfs(seed):
    inst = random_instance(seed)
    fast = all_pairs_shortest(inst.graph, inst.dep)
    assert np.array_equal(fast.dist, naive_distances(inst.graph))


def test_disconnected_pairs_marked():
    g = Graph(5, [(0, 1), (2, 3)])
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


def distance(dm, a, b):
    """The hop distance of one pair, one search of ``dm.distances``."""
    return int(dm.distances([a], [b])[0])


def assert_summary_matches(summarize, dist, deps):
    """Every summary ``summarize(dep)`` builds, one per depth in ``deps``,
    equals the value derived from the dense reference ``dist``: the
    distances of every pair inside the circle, the histogram, the metrics
    and each circle bit."""
    n = len(dist)
    finite = dist[(dist != UNREACHABLE) & ~np.eye(n, dtype=bool)]
    diameter = int(finite.max()) if finite.size else None
    upper = dist[np.triu_indices(n, k=1)]
    reach = upper[upper != UNREACHABLE]
    nodes = np.arange(n)
    for dep in deps:
        dm = summarize(dep)
        within = (dist != UNREACHABLE) & (dist <= dep)
        # distances() answers every circle pair in one search, and one pair
        # at a time for 20 pairs spread over the circle
        a, b = np.nonzero(within)
        assert np.array_equal(dm.distances(a, b), dist[a, b])
        step = -(-len(a) // 20)
        assert [distance(dm, a, b) for a, b in zip(a[::step], b[::step])] == \
            dist[a[::step], b[::step]].tolist()
        # it refuses the pairs past the circle, naming the first of them, and
        # each of 20 such pairs spread over them asked alone
        a, b = np.nonzero(~within)
        if a.size:
            with pytest.raises(ValueError, match=rf"^nodes {a[0]} and {b[0]} are more than"):
                dm.distances(a, b)
            step = -(-len(a) // 20)
            for a, b in zip(a[::step], b[::step]):
                with pytest.raises(ValueError, match=rf"more than {dep} hops apart$"):
                    dm.distances([a], [b])
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
        assert np.array_equal(mask(circle, nodes, nodes), within)
        assert [circle.contains(a, b) for a in range(n) for b in range(n)] == within.ravel().tolist()


def functional_graph(targets, isolated=0):
    """Node v joined to node ``targets[v]`` for every v, repeated pairs
    dropped, and ``isolated`` more nodes with no edge: each component is a
    cycle with trees hanging from it, or a tree where two nodes chose each
    other, so every graph of this kind is one the deep path accepts."""
    return Graph(len(targets) + isolated,
                 sorted({(min(v, t), max(v, t)) for v, t in enumerate(targets)}))


def random_functional_graph(seed):
    """A functional graph of 4-40 nodes, each joined to a random other node,
    and up to 4 isolated nodes."""
    rng = random.Random(seed)
    n = rng.randrange(4, 41)
    return functional_graph([(v + rng.randrange(1, n)) % n for v in range(n)], rng.randrange(5))


@given(st.integers(0, 300))
def test_summary_matches_naive_bfs_on_both_paths(seed):
    inst = random_instance(seed)
    slow = naive_distances(inst.graph)
    assert inst.dm.circle.dep == inst.dep
    for summarize in (lambda dep: all_pairs_shortest(inst.graph, dep),
                      lambda dep: topology._bit_parallel(inst.graph, dep)):
        assert_summary_matches(summarize, slow, (1, 2, 3, 4))
    graph = random_functional_graph(seed)
    assert_summary_matches(lambda dep: topology._deep_paths(graph, dep),
                           naive_distances(graph), (1, 2, 3, 4))


def path_taken(graph, dep=3):
    """The path ``all_pairs_shortest(graph, dep)`` takes, "deep" or
    "bit-parallel", as spies on ``_deep_paths`` and ``_bit_parallel`` see
    it: the one whose summary it returned."""
    taken = []

    def spy(name, real):
        def summarize(graph, dep):
            dm = real(graph, dep)
            if dm is not None:
                taken.append((name, dm))
            return dm
        return summarize
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, attr in (("deep", "_deep_paths"), ("bit-parallel", "_bit_parallel")):
            monkeypatch.setattr(topology, attr, spy(name, getattr(topology, attr)))
        dm = all_pairs_shortest(graph, dep)
    assert len(taken) == 1 and taken[0][1] is dm
    return taken[0][0]


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
    return Graph(n, [(2 * u, 2 * v) for u, v in g.edges.tolist()])


def ring_beside_clump():
    """A 200-node ring (diameter 100) beside a dense 100-node random graph
    that holds every node of top degree."""
    clump = generate_er(100, 2000, random.Random(4))
    return Graph(300, generate_ncn(200, 2).edges.tolist()
                 + [(200 + u, 200 + v) for u, v in clump.edges.tolist()])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def caterpillar(n, spine_first):
    """A path of n/2 spine nodes with one leaf on each: spine node i has id
    i and its leaf n/2 + i, or the other way round."""
    half = n // 2
    spine, leaf = (0, half) if spine_first else (half, 0)
    return Graph(n, [(spine + i, spine + i + 1) for i in range(half - 1)]
                 + [(spine + i, leaf + i) for i in range(half)])


def ring_with_pendant_paths():
    """A 200-node ring with a 10-node path hanging from every 20th node."""
    edges = generate_ncn(200, 2).edges.tolist()
    for t in range(10):
        tail = list(range(200 + 10 * t, 210 + 10 * t))
        edges += [(20 * t, tail[0])] + list(zip(tail, tail[1:]))
    return Graph(300, edges)


def tree_beside_a_ring():
    """A random 140-node tree, a 150-node ring and 10 isolated nodes, with
    the ids shuffled."""
    rng = random.Random(5)
    label = list(range(300))
    rng.shuffle(label)
    tree = [(v, rng.randrange(v)) for v in range(1, 140)]
    ring = [(140 + i, 140 + (i + 1) % 150) for i in range(150)]
    return Graph(300, [(label[u], label[v]) for u, v in tree + ring])


def broom():
    """A 200-node path with 100 leaves on its last node: one wide layer deep
    in the forest."""
    return Graph(300, [(i, i + 1) for i in range(199)] + [(199, 200 + j) for j in range(100)])


def spider():
    """A 100-node ring with arms of 1, 3, 7, 15, 31, 63 and 80 nodes off
    ring nodes 0, 10, ..., 60: one forest layer mixes children of different
    parents."""
    edges, end = generate_ncn(100, 2).edges.tolist(), 100
    for t, arm in enumerate((1, 3, 7, 15, 31, 63, 80)):
        chain = [10 * t] + list(range(end, end + arm))
        edges += list(zip(chain, chain[1:]))
        end += arm
    return Graph(end, edges)


@pytest.mark.parametrize("name, graph, deep", [
    ("ncn ring", generate_ncn(300, 2), True),
    ("ring beside a clump", ring_beside_clump(), False),
    ("er", generate_er(300, 600, random.Random(1)), False),
    ("ba", generate_ba(300, 2, random.Random(2)), False),
    ("isolated nodes", sparse_evens(300), False),
    ("edgeless", Graph(300, []), True),
    ("path", path(300), True),
    ("caterpillar, spine ids first", caterpillar(300, True), True),
    ("caterpillar, leaf ids first", caterpillar(300, False), True),
    ("ring with pendant paths", ring_with_pendant_paths(), True),
    ("tree beside a ring and isolated nodes", tree_beside_a_ring(), True),
    ("broom", broom(), True),
    ("spider", spider(), True),
])
def test_both_paths_match_networkx_at_n300(name, graph, deep):
    # deep exactly when the 2-core is disjoint cycles or empty
    assert path_taken(graph) == ("deep" if deep else "bit-parallel")
    dist = networkx_distances(graph)
    diameter = int(dist.max())
    deps = sorted({1, 3, max(diameter, 1), diameter + 2})
    assert_summary_matches(lambda dep: all_pairs_shortest(graph, dep), dist, deps)


def search_levels(graph, sources, column_words, monkeypatch):
    """Every level ``_bfs_levels`` yields, copied, with ``_COLUMN_WORDS``
    set so that the neighbour OR is always or never taken by columns."""
    monkeypatch.setattr(topology, "_COLUMN_WORDS", column_words)
    return [(reached.copy(), count, unseen.copy())
            for reached, count, unseen in topology._bfs_levels(graph, sources)]


def assert_both_ors_agree(graph, sources, monkeypatch):
    by_columns = search_levels(graph, sources, 0, monkeypatch)
    by_reduceat = search_levels(graph, sources, 10 ** 12, monkeypatch)
    assert len(by_columns) == len(by_reduceat)
    for (r1, c1, u1), (r2, c2, u2) in zip(by_columns, by_reduceat):
        assert c1 == c2 and np.array_equal(r1, r2) and np.array_equal(u1, u2)


def star_and_path(n):
    """A hub joined to half the nodes, and a path through the other half:
    degrees from 1 to n/2, and every node after the hub out of degree order."""
    half = n // 2
    return Graph(n, [(0, v) for v in range(1, half)] + [(v, v + 1) for v in range(half, n - 1)])


@pytest.mark.parametrize("name, graph", [
    ("ring", generate_ncn(150, 2)),
    ("er", generate_er(150, 300, random.Random(1))),
    ("ba", generate_ba(150, 3, random.Random(2))),
    ("isolated nodes", sparse_evens(150)),
    ("edgeless", Graph(70, [])),
    ("star and path", star_and_path(150)),
    ("spider", spider()),
])
def test_neighbour_or_by_columns_matches_reduceat(name, graph, monkeypatch):
    assert_both_ors_agree(graph, None, monkeypatch)
    assert_both_ors_agree(graph, np.array([graph.n - 1, 0, graph.n // 2]), monkeypatch)


@given(st.data())
def test_neighbour_or_by_columns_matches_reduceat_on_random_edge_sets(data):
    n = data.draw(st.integers(1, 80))
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=3 * n))
    graph = Graph(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
    sources = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                          unique=True)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_both_ors_agree(graph, sources, monkeypatch)


@pytest.mark.parametrize("graph, by_columns", [
    (generate_ncn(2000, 2), True),
    (generate("er", 2000, 4, rng=random.Random(1)), True),
    (generate("ba", 2000, 4, rng=random.Random(1)), True),
    (generate_ncn(300, 2), False),
    (generate("ba", 300, 8, rng=random.Random(1)), False),
    (generate("er", 100, 8, rng=random.Random(1)), False),
], ids=["ncn 2000", "er 2000", "ba 2000", "ncn 300", "ba 300", "er 100"])
def test_wide_searches_or_neighbours_by_columns(graph, by_columns, monkeypatch):
    calls = []
    column_or = topology._column_or
    monkeypatch.setattr(topology, "_column_or", lambda *a: calls.append(1) or column_or(*a))
    next(topology._bfs_levels(graph))
    assert bool(calls) == by_columns


@example(model="ws", n=400, p_rewire=0.0, seed=0)
@example(model="ws", n=400, p_rewire=1.0, seed=0)
@given(st.sampled_from(("ws", "ncn")), st.integers(3, 400),
       st.sampled_from((0.0, 1.0)) | st.floats(0, 1), st.integers(0, 2 ** 32))
def test_k2_rings_have_cycle_cores_and_take_the_deep_path(model, n, p_rewire, seed):
    # at k=2 every ws node owns one edge (i, far_i), so each component has
    # as many edges as nodes: one cycle with trees hanging from it
    graph = generate(model, n, 2, p_rewire=p_rewire, rng=random.Random(seed))
    degree = topology._pendant_forest(graph)[3]
    assert set(degree[degree >= 0].tolist()) == {2}
    if n > topology._SMALL_N:
        assert path_taken(graph) == "deep"


@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("model", MODELS)
def test_k4_models_take_the_bit_parallel_path(model, n):
    graph = generate(model, n, 4, rng=random.Random(n))
    assert path_taken(graph) == "bit-parallel"


def relabel(graph, seed):
    """The graph with its node ids shuffled."""
    label = list(range(graph.n))
    random.Random(seed).shuffle(label)
    return Graph(graph.n, [(label[u], label[v]) for u, v in graph.edges.tolist()])


def deep_beside_shallow(deep_first):
    """A 100-node path (99 hops) beside a dense 100-node random graph, the
    path on ids 0..99 or on 100..199."""
    clump = generate_er(100, 600, random.Random(6)).edges + (0 if deep_first else 100)
    line = path(100).edges + (100 if deep_first else 0)
    return Graph(200, np.concatenate([line, clump]))


def random_forest(n, seed):
    """Random trees on shuffled ids: each node joins an earlier one, or
    starts a new tree one time in ten."""
    rng = random.Random(seed)
    return relabel(Graph(n, [(v, rng.randrange(v)) for v in range(1, n)
                             if rng.random() >= 0.1]), seed)


def cycles_of(size, count):
    """``count`` disjoint cycles of ``size`` nodes each."""
    return Graph(size * count, [(size * t + i, size * t + (i + 1) % size)
                                for t in range(count) for i in range(size)])


@pytest.mark.parametrize("name, graph, deep", [
    *[(f"path of {hops} hops beside isolated nodes", Graph(200, path(hops + 1).edges), True)
      for hops in (64, 65, 66)],
    *[(f"path of {hops} hops, shuffled", relabel(Graph(200, path(hops + 1).edges), hops), True)
      for hops in (64, 65, 66)],
    *[(f"forest, seed {seed}", random_forest(300, seed), True) for seed in range(4)],
    ("1000 two-node components", Graph(2000, [(2 * i, 2 * i + 1) for i in range(1000)]), True),
    ("star", Graph(2000, [(0, v) for v in range(1, 2000)]), True),
    ("666 triangles", cycles_of(3, 666), True),
    ("200 ten-node cycles", cycles_of(10, 200), True),
    ("edgeless", Graph(2000, []), True),
    ("deep beside shallow, deep ids first", deep_beside_shallow(True), False),
    ("deep beside shallow, shallow ids first", deep_beside_shallow(False), False),
])
def test_path_follows_the_2_core_whatever_the_depth(name, graph, deep):
    # shallow graphs whose 2-core is cycles or empty take the deep path,
    # and a deep path beside a branchy clump the bit-parallel one
    assert path_taken(graph) == ("deep" if deep else "bit-parallel")
    dm, flat = all_pairs_shortest(graph, 3), topology._bit_parallel(graph, 3)
    assert dm.levels == flat.levels
    assert np.array_equal(dm.circle.bits, flat.circle.bits)


@pytest.mark.parametrize("seed", [8000, 8001])
def test_deep_path_matches_bit_parallel_on_ws_at_n2000(seed):
    # a rewired k=2 ring: a small 2-core with trees hanging from it
    graph = generate("ws", 2000, 2, rng=random.Random(seed))
    assert path_taken(graph) == "deep"
    deep, flat = topology._deep_paths(graph, 3), topology._bit_parallel(graph, 3)
    assert deep.levels == flat.levels
    assert np.array_equal(deep.circle.bits, flat.circle.bits)
    # every in-circle pair's distance, on each path, against the dense matrix
    a, b = np.nonzero(topology._unpack(flat.circle.bits, graph.n))
    reference = flat.dist[a, b]
    assert reference.max() == 3
    assert np.array_equal(deep.distances(a, b), reference)
    assert np.array_equal(flat.distances(a, b), reference)


def assert_deep_path_matches(graph, deps):
    """The deep path's levels, circle and dense matrix equal the
    bit-parallel path's and the naive BFS's at each depth of ``deps``."""
    dist = naive_distances(graph)
    for dep in deps:
        deep, flat = topology._deep_paths(graph, dep), topology._bit_parallel(graph, dep)
        assert deep.levels == flat.levels == tuple(np.bincount(dist[dist > 0])[1:].tolist())
        assert np.array_equal(deep.circle.bits, flat.circle.bits)
        assert np.array_equal(deep.dist, dist) and np.array_equal(flat.dist, dist)


def theta(chains):
    """Branch nodes 0 and 1 joined by chains of the given numbers of inner
    nodes; a chain of 0 inner nodes is the edge (0, 1)."""
    edges, end = [], 2
    for inner in chains:
        path = [0] + list(range(end, end + inner)) + [1]
        edges += list(zip(path, path[1:]))
        end += inner
    return Graph(end, edges)


def with_trees(graph, extra, seed):
    """``graph`` with ``extra`` more nodes, each joined to a random earlier
    node, so that trees hang from it; ids shuffled."""
    rng = random.Random(seed)
    n = graph.n
    edges = graph.edges.tolist() + [(v, rng.randrange(v)) for v in range(n, n + extra)]
    return relabel(Graph(n + extra, edges), seed)


def chorded_ring(size):
    """A ring whose even nodes also join the even node two ahead: every odd
    node is a 2-core chain of one node between two branch nodes."""
    ring = [(i, (i + 1) % size) for i in range(size)]
    return Graph(size, ring + [(i, (i + 2) % size) for i in range(0, size, 2)])


def mixed_components():
    """A 50-node cycle, a random 40-node tree, a rewired 100-node ring (two
    cycles with trees hanging from them), a 20-node chorded ring, a theta
    with a 3-node path hanging from it and 10 isolated nodes, with the ids
    shuffled: every kind of forest root, beside two 2-core components with
    branch nodes."""
    rng = random.Random(7)
    cycle = [(i, (i + 1) % 50) for i in range(50)]
    tree = [(50 + v, 50 + rng.randrange(v)) for v in range(1, 40)]
    rewired = [(90 + u, 90 + v) for u, v in
               generate("ws", 100, 2, rng=random.Random(8000)).edges.tolist()]
    chorded = [(190 + u, 190 + v) for u, v in chorded_ring(20).edges.tolist()]
    branched = [(210 + u, 210 + v) for u, v in theta([3, 4, 5]).edges.tolist()]
    tail = [(215, 224), (224, 225), (225, 226)]
    return relabel(Graph(237, cycle + tree + rewired + chorded + branched + tail), 7)


@pytest.mark.parametrize("name, graph, cycles", [
    ("odd ring", generate_ncn(301, 2), 1),
    ("even ring", generate_ncn(300, 2), 1),
    ("triangle", generate_ncn(3, 2), 1),
    ("ring with pendant trees", with_trees(generate_ncn(120, 2), 180, 1), 1),
    ("ring with pendant paths", ring_with_pendant_paths(), 1),
    ("spider", spider(), 1),
    ("mixed cycles and trees", functional_graph([1, 2, 0, 0, 3, 6, 7, 5, 6, 10, 9, 10], 3), 2),
    ("path", path(150), 0),
    ("edgeless", Graph(20, []), 0),
])
def test_deep_path_matches_bit_parallel_and_naive_bfs(name, graph, cycles):
    assert_deep_path_matches(graph, (1, 3))
    # each component of the 2-core took the closed form of a cycle
    degree = topology._pendant_forest(graph)[3]
    assert len(topology._core_cycles(graph, degree)) == cycles


@pytest.mark.parametrize("name, graph", [
    ("theta", theta([5, 8, 13])),
    ("theta with pendant trees", with_trees(theta([5, 8, 13]), 162, 2)),
    ("chains of one node and an edge", theta([1, 1, 1, 0])),
    ("chorded ring", chorded_ring(160)),
    ("mixed components", mixed_components()),
])
def test_branchy_cores_take_the_bit_parallel_path(name, graph):
    # the deep path refuses a 2-core with branch nodes at any size
    assert topology._deep_paths(graph, 3) is None
    assert path_taken(graph) == "bit-parallel"
    dist = naive_distances(graph)
    for dep in (1, 3):
        dm = all_pairs_shortest(graph, dep)
        assert dm.levels == tuple(np.bincount(dist[dist > 0])[1:].tolist())
        assert np.array_equal(dm.dist, dist)
        assert np.array_equal(topology._unpack(dm.circle.bits, graph.n),
                              (dist != UNREACHABLE) & (dist <= dep))


@given(st.data())
def test_deep_path_matches_on_random_sparse_edge_sets(data):
    # functional graphs: cycles with trees hanging from them, pure trees
    # and isolated nodes
    n = data.draw(st.integers(2, 60))
    targets = data.draw(st.lists(st.integers(0, n - 2), min_size=n, max_size=n))
    graph = functional_graph([t + (t >= v) for v, t in enumerate(targets)],
                             data.draw(st.integers(0, 4)))
    assert_deep_path_matches(graph, (data.draw(st.integers(1, 4)),))


def traced_peak(graph):
    """tracemalloc's peak over one ``all_pairs_shortest(graph, 3)``, with
    the graph's CSR cached outside the trace."""
    all_pairs_shortest(graph, 3)
    tracemalloc.start()
    try:
        all_pairs_shortest(graph, 3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spine_first", [True, False], ids=["spine ids first", "leaf ids first"])
def test_deep_path_keeps_few_rows_past_their_block(spine_first):
    # The caterpillar is one tree rooted mid-spine: about 500 forest layers
    # of four nodes. The bound guards that the deep path keeps no n-wide row
    # per pendant node; 8 kB rows for the 1000 spine nodes alone would take
    # 8 MB. The peak, 3.1 MB under either labeling, is the circle (0.5 MB),
    # the per-layer subtree profiles (2.0 MB) and two layers of histograms.
    assert traced_peak(caterpillar(2000, spine_first)) <= 7_000_000


@pytest.mark.parametrize("k", [4, 6])
def test_branchy_rings_keep_no_block_of_core_distances(k):
    # ncn at k=4 and k=6 has a 4- or 6-regular 2-core, so it takes the
    # bit-parallel path: the circle (0.5 MB) and a few n x n bit levels.
    assert traced_peak(generate_ncn(2000, k)) <= 4_000_000


@pytest.mark.parametrize("graph", [
    generate_er(2000, 4000, random.Random(1)),  # the column-by-column OR
    Graph(2000, [(0, v) for v in range(1, 2000)]),  # a star: one reduceat
], ids=["er", "star"])
def test_summary_bytes_bounds_the_traced_peak(graph):
    isolated = int((np.diff(graph.csr[0]) == 0).sum())
    estimate = summary_bytes(graph.n, graph.m, isolated)
    assert traced_peak(graph) <= estimate <= 2 * traced_peak(graph)


def test_node_ids_outside_the_graph_raise():
    dm = all_pairs_shortest(generate_ncn(10, 2), 2)
    for a, b in ((-1, 8), (0, 10), (0, 70), (np.int64(12), 0)):
        bad = a if not 0 <= a < 10 else b
        with pytest.raises(ValueError, match=rf"^node id {bad} outside 0\.\.9$"):
            distance(dm, a, b)
        with pytest.raises(ValueError, match=rf"^node id {bad} outside 0\.\.9$"):
            dm.circle.contains(a, b)
    assert distance(dm, np.int64(9), np.int32(0)) == 1 and dm.circle.contains(np.uint8(8), 9)


def test_distance_raises_past_the_circle():
    dm = all_pairs_shortest(CYCLE6, 2)
    assert [distance(dm, 0, b) for b in (0, 1, 2, 4, 5)] == [0, 1, 2, 2, 1]
    with pytest.raises(ValueError, match="more than 2 hops"):
        distance(dm, 0, 3)
    with pytest.raises(ValueError):
        distance(all_pairs_shortest(Graph(4, [(0, 1)]), 3), 0, 2)
    # numpy node ids, on a word whose top bit is set
    ring = all_pairs_shortest(generate_ncn(200, 2), 100)
    assert distance(ring, np.int64(0), np.int64(63)) == distance(ring, 0, 63) == 63


@pytest.mark.parametrize("graph", [generate_ncn(40, 2), generate_ncn(300, 2)],
                         ids=["bit-parallel", "deep"])
def test_dense_matrix_is_rebuilt_on_every_read(graph):
    dm = all_pairs_shortest(graph, 3)
    first, second = dm.dist, dm.dist
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, naive_distances(graph))
    first[0, 1] = 7
    assert dm.dist[0, 1] == 1


def test_summary_holds_read_only_packed_bits_only():
    n = 300
    for graph in (generate_ncn(n, 2), generate_er(n, 600, random.Random(1)), sparse_evens(n)):
        dm = all_pairs_shortest(graph, 3)
        # the circle is the one array a summary holds; the graph is the caller's
        arrays = [v for v in vars(dm).values() if isinstance(v, np.ndarray)]
        assert arrays == [] and dm.graph is graph
        bits = dm.circle.bits
        assert bits.dtype == np.uint64 and bits.shape == (n, -(-n // 64))
        assert not bits.flags.writeable
        # distances come from the graph on demand, isolated nodes included
        dist = naive_distances(graph)
        a, b = np.nonzero((dist != UNREACHABLE) & (dist <= 3))
        assert np.array_equal(dm.distances(a, b), dist[a, b])


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
    assert all_pairs_shortest(Graph(4, []), 3).diameter() is None


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
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    dm = all_pairs_shortest(g, 3)
    assert reachable_pairs(dm) == 6
    assert average_path_length(dm) == pytest.approx(1.0)
    assert connectivity(dm, 3) == pytest.approx(6 / 15)
    assert dm.diameter() == 1


def test_edgeless_graph_metrics():
    dm = all_pairs_shortest(Graph(4, []), 3)
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
        connectivity(all_pairs_shortest(Graph(1, []), 3), 3)


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
