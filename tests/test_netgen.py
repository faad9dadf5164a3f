"""Graph generators: frozen small cases, structural invariants, determinism."""

import ast
import io
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlematch import netgen
from circlematch.netgen import (
    MODELS,
    Graph,
    generate,
    generate_ba,
    generate_er,
    generate_ncn,
    generate_ws,
    read_edge_list,
    sample_range,
    write_edge_list,
)

from refimpl import (adjacency_lists, assert_valid_graph, ba_pairs, er_pairs, generate_er_gnp,
                     tuple_edges, valid_degrees, ws_pairs)

SRC = Path(netgen.__file__).parent


# ---------------------------------------------------------------- Graph type

def neighbours(graph, v):
    indptr, indices = graph.csr
    return indices[indptr[v]:indptr[v + 1]].tolist()


def test_graph_normalizes_and_validates():
    g = Graph(4, [(2, 1), (3, 0)])
    assert g.edges.tolist() == [[0, 3], [1, 2]]
    assert g.m == 2
    assert [1, 2] in g.edges.tolist() and [2, 1] not in g.edges.tolist()
    assert [0, 1] not in g.edges.tolist()
    assert neighbours(g, 0) == [3]
    assert list(g.degrees()) == [1, 1, 1, 1]


@pytest.mark.parametrize("bad", [
    (0, 0),      # self loop
    (0, 4),      # out of range
    (-1, 2),     # negative
])
def test_graph_rejects_bad_edges(bad):
    with pytest.raises(ValueError):
        Graph(4, [bad])


@pytest.mark.parametrize("bad", [(0.5, 1), (1.0, 2), (0, "1"), (None, 1)])
def test_graph_rejects_non_integer_ids(bad):
    with pytest.raises(ValueError, match="^node ids must be integers$"):
        Graph(4, [(0, 1), bad])


def test_graph_rejects_more_nodes_than_int32_ids_name():
    with pytest.raises(ValueError, match=r"^node count must be in 1\.\.2147483648, got 2147483649$"):
        Graph(2 ** 31 + 1, [])


@pytest.mark.parametrize("n, edges", [
    (4, [(0, 0)]), (4, [(0, 4)]), (4, [(0, 1), (1, 0)]), (4, [(0, 1), (0.5, 1)]),
    (0, []), (2 ** 31 + 1, []), (4, [(0, 1, 2)]),
])
def test_constructor_validates_as_from_edges_does(n, edges):
    # an (m, 2) array and the same edges as a list of tuples fail alike
    with pytest.raises(ValueError) as from_array:
        Graph(n, np.array(edges) if edges else edges)
    with pytest.raises(ValueError) as from_list:
        Graph(n, edges)
    assert str(from_array.value) == str(from_list.value)


def test_constructor_canonicalizes():
    g = Graph(3, np.array([[1, 0]]))
    assert g == Graph(3, [(1, 0)])
    assert g.edges.dtype == np.int32 and not g.edges.flags.writeable
    assert neighbours(Graph(3, [(0, 1)]), 1) == [0]


def test_graph_arrays_are_read_only():
    g = generate_ncn(8, 4)
    assert g.edges.dtype == np.int32
    assert not any(a.flags.writeable for a in (g.edges, *g.csr))


@st.composite
def edge_lists(draw):
    """Edge lists on 1..12 nodes: ids in range or up to 3 past either end,
    pairs in either orientation, with or without repeats and self-loops."""
    n = draw(st.integers(1, 12))
    ids = draw(st.sampled_from([st.integers(0, n - 1), st.integers(-3, n + 3)]))
    canonical = lambda e: (min(e), max(e))
    edges = draw(st.lists(st.tuples(ids, ids), max_size=30,
                          unique_by=canonical if draw(st.booleans()) else None))
    if draw(st.booleans()):
        edges = [(u, v) for u, v in edges if u != v]
    return n, edges


@given(edge_lists())
@example((1, []))
@example((4, [(3, 0), (1, 2), (2, 1)]))
@example((4, [(2, 9), (-1, -1)]))
@example((3, [(2, 2), (5, 0)]))
def test_from_edges_matches_the_tuple_reference(case):
    n, edges = case
    try:
        want = tuple_edges(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            Graph(n, edges)
        assert str(got.value) == str(exc)
        return
    graph = Graph(n, edges)
    assert graph.edges.tolist() == [list(e) for e in want]
    assert [neighbours(graph, v) for v in range(n)] == adjacency_lists(graph)
    assert graph.degrees() == [len(ns) for ns in adjacency_lists(graph)]


def reference_pairs(model, n, k, rng):
    """The edges of ``generate(model, n, k)`` written out in tuples, drawn
    from ``rng`` by the stdlib calls the generators inline: the ring, the
    bisect pair decoding over ``rng.sample``, and the set-based ws and ba
    constructions over ``rng.randrange`` and ``rng.choice``."""
    if model == "ncn":
        return [(i, (i + d) % n) for d in range(1, k // 2 + 1) for i in range(n)]
    if model == "er":
        return er_pairs(n, rng.sample(range(n * (n - 1) // 2), n * k // 2))
    if model == "ws":
        return ws_pairs(n, k, 0.1, rng)
    return ba_pairs(n, k // 2, rng)


def assert_draws_like_the_reference(model, n, k, seed):
    fast, reference = random.Random(seed), random.Random(seed)
    graph = generate(model, n, k, rng=fast)
    pairs = reference_pairs(model, n, k, reference)
    assert graph.edges.tolist() == [list(e) for e in tuple_edges(n, pairs)], (model, n, k, seed)
    assert fast.getstate() == reference.getstate(), (model, n, k, seed)
    return graph


@pytest.mark.parametrize("n", [3, 20, 60, 100, 300, 2000])
def test_generators_match_the_tuple_reference(n):
    for k in (k for k in (2, 4, 8) if k <= n - 1):
        for seed in (0, 1):
            for model in MODELS:
                graph = assert_draws_like_the_reference(model, n, k, seed)
                assert [neighbours(graph, v) for v in range(n)] == adjacency_lists(graph)


# n and an even k in 2..n-1
SIZES_AND_DEGREES = st.integers(3, 120).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, (n - 1) // 2).map(lambda x: 2 * x)))


@given(st.sampled_from(("er", "ws", "ba")), SIZES_AND_DEGREES, st.integers(0, 2 ** 64))
@example("er", (60, 16), 0)  # sample's pool of every pair
@example("er", (100, 2), 0)  # sample's set of the chosen pairs
@example("ba", (100, 12), 0)
@example("ws", (100, 12), 0)
def test_generators_draw_as_the_stdlib_calls_for_any_seed(model, size, seed):
    assert_draws_like_the_reference(model, *size, seed)


@given(st.sampled_from(MODELS), SIZES_AND_DEGREES, st.integers(0, 2 ** 64))
def test_generators_build_the_graph_of_the_checked_constructor(model, size, seed):
    """Generators assemble their graphs unchecked (``Graph._generated``); the
    edges they hand over pass every check of ``Graph(n, edges)``, which gives
    the same read-only canonical edges and CSR."""
    n, k = size
    handed, generated = [], Graph._generated.__func__

    def recording(cls, n, ends):
        handed.append(ends)
        return generated(cls, n, ends)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Graph, "_generated", classmethod(recording))
        graph = generate(model, n, k, rng=random.Random(seed))
    [ends] = handed
    checked = Graph(n, ends)
    assert graph.n == checked.n == n
    assert graph.edges.dtype == checked.edges.dtype and not graph.edges.flags.writeable
    assert np.array_equal(graph.edges, checked.edges)
    assert all(np.array_equal(a, b) for a, b in zip(graph.csr, checked.csr))


@given(st.integers(0, 5000).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p))),
       st.integers(0, 2 ** 64))
@example((1770, 480), 0)  # pool: er at n=60, k=16
@example((4950, 100), 0)  # set: er at n=100, k=2
@example((1999000, 4000), 0)  # set: er at n=2000, k=4
@example((2000, 1000), 0)  # pool: the genders at n=2000
@example((5, 5), 0)
def test_sample_range_is_the_stdlib_sample(size, seed):
    population, k = size
    fast, reference = random.Random(seed), random.Random(seed)
    assert sample_range(fast, population, k) == reference.sample(range(population), k)
    assert fast.getstate() == reference.getstate()


def test_no_module_draws_through_the_stdlib_helpers():
    """Every draw in the library goes through ``rng.getrandbits`` (or
    ``random``/``randbytes``), so that none depends on how a ``random.Random``
    method consumes its words."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("choice", "sample", "randrange", "shuffle")):
                calls.append(f"{path.name}:{node.lineno} .{node.func.attr}")
    assert calls == []


@pytest.mark.parametrize("p_rewire", [0.0, 0.5, 1.0])
def test_ws_matches_the_tuple_reference_at_any_rewiring(p_rewire):
    for n, k in ((5, 4), (40, 2), (41, 6)):
        for seed in range(3):
            fast, reference = random.Random(seed), random.Random(seed)
            graph = generate_ws(n, k, p_rewire, fast)
            pairs = ws_pairs(n, k, p_rewire, reference)
            assert graph.edges.tolist() == [list(e) for e in tuple_edges(n, pairs)]
            assert fast.getstate() == reference.getstate()


def test_ba_with_every_node_in_the_core_is_complete():
    graph = generate_ba(4, 3, random.Random(0))
    assert graph.edges.tolist() == [list(e) for e in ba_pairs(4, 3, random.Random(0))]
    assert graph.m == 6


def test_graph_rejects_duplicate_edges():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1), (1, 0)])


def test_graph_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        Graph(0, [])


# ------------------------------------------------------------------ ring NCN

def test_ncn_eight_four_frozen():
    g = generate_ncn(8, 4)
    assert g.m == 16
    assert neighbours(g, 0) == [1, 2, 6, 7]
    assert neighbours(g, 3) == [1, 2, 4, 5]
    assert all(d == 4 for d in g.degrees())


def test_ncn_six_two_is_the_plain_cycle():
    g = generate_ncn(6, 2)
    assert g.edges.tolist() == [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]


@given(st.integers(4, 60))
def test_ncn_is_k_regular(n):
    for k in valid_degrees(n):
        g = generate_ncn(n, k)
        assert_valid_graph(g, n, m=n * k // 2)
        assert all(d == k for d in g.degrees())


@pytest.mark.parametrize("n,k", [(2, 2), (8, 3), (8, 0), (8, 8), (6, 7)])
def test_ring_parameter_validation(n, k):
    with pytest.raises(ValueError):
        generate_ncn(n, k)


# ------------------------------------------------------------------------ ER

def test_er_exact_edge_count():
    rng = random.Random(7)
    g = generate_er(30, 45, rng)
    assert_valid_graph(g, 30, m=45)


def test_er_full_and_empty():
    assert generate_er(5, 10, random.Random(0)).m == 10  # complete graph
    assert generate_er(5, 0, random.Random(0)).edges.tolist() == []
    with pytest.raises(ValueError):
        generate_er(5, 11, random.Random(0))
    with pytest.raises(ValueError):
        generate_er(5, -1, random.Random(0))


def test_er_deterministic_per_seed():
    a = generate_er(40, 100, random.Random(123))
    b = generate_er(40, 100, random.Random(123))
    c = generate_er(40, 100, random.Random(124))
    assert a == b
    assert a != c


@given(st.integers(2, 40), st.integers(0, 200), st.integers(0, 2**32))
def test_er_edges_always_valid(n, m, seed):
    total = n * (n - 1) // 2
    if m > total:
        with pytest.raises(ValueError):
            generate_er(n, m, random.Random(seed))
    else:
        assert_valid_graph(generate_er(n, m, random.Random(seed)), n, m=m)


def test_er_gnp_extremes():
    assert generate_er_gnp(6, 1.0, random.Random(1)).m == 15
    assert generate_er_gnp(6, 0.0, random.Random(1)).m == 0
    with pytest.raises(ValueError):
        generate_er_gnp(6, 1.5, random.Random(1))


# ------------------------------------------------------------------------ WS

def test_ws_zero_rewiring_equals_ring():
    for n, k in ((10, 2), (12, 4), (20, 6)):
        g = generate_ws(n, k, 0.0, random.Random(5))
        assert g == generate_ncn(n, k)


@given(st.integers(6, 40), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_ws_preserves_edge_count(n, p, seed):
    for k in valid_degrees(n)[:3]:
        g = generate_ws(n, k, p, random.Random(seed))
        assert_valid_graph(g, n, m=n * k // 2)


def test_ws_keeps_the_near_endpoint():
    # every node keeps its k/2 clockwise stubs, so minimum degree >= k/2
    g = generate_ws(30, 4, 1.0, random.Random(9))
    assert min(g.degrees()) >= 2


def test_ws_rejects_bad_probability():
    with pytest.raises(ValueError):
        generate_ws(10, 2, -0.1, random.Random(0))
    with pytest.raises(ValueError):
        generate_ws(10, 2, 1.1, random.Random(0))


# ------------------------------------------------------------------------ BA

def test_ba_edge_count_formula():
    # complete core on m+1 nodes, then m new links per arriving node
    for n, m_attach in ((10, 1), (10, 2), (50, 3), (100, 1)):
        g = generate_ba(n, m_attach, random.Random(3))
        expected = math.comb(m_attach + 1, 2) + m_attach * (n - m_attach - 1)
        assert_valid_graph(g, n, m=expected)


def test_ba_with_single_attachment_is_a_tree():
    g = generate_ba(100, 1, random.Random(11))
    assert g.m == 99


def test_ba_minimum_degree():
    g = generate_ba(60, 2, random.Random(4))
    assert min(g.degrees()) >= 2


def test_ba_hub_emerges():
    g = generate_ba(200, 1, random.Random(8))
    assert max(g.degrees()) >= 8


def test_ba_parameter_validation():
    with pytest.raises(ValueError):
        generate_ba(5, 0, random.Random(0))
    with pytest.raises(ValueError):
        generate_ba(3, 3, random.Random(0))


# ---------------------------------------------------------------- dispatcher

def test_generate_dispatch_shapes():
    rng = random.Random(0)
    assert generate("ncn", 20, 4).m == 40
    assert generate("er", 20, 4, rng=rng).m == 40
    assert generate("ws", 20, 4, rng=rng).m == 40
    # nominal degree k maps to k/2 attachments
    g = generate("ba", 20, 4, rng=rng)
    assert g.m == math.comb(3, 2) + 2 * 17


def test_generate_rejects_unknown_model_and_odd_k():
    with pytest.raises(ValueError):
        generate("grid", 10, 2, rng=random.Random(0))
    with pytest.raises(ValueError):
        generate("er", 10, 3, rng=random.Random(0))


def test_generate_requires_rng_for_random_models():
    assert generate("ncn", 10, 2).m == 10
    for model in ("er", "ws", "ba"):
        with pytest.raises(ValueError):
            generate(model, 10, 2)


# ----------------------------------------------------------------- edge list

def test_edge_list_round_trip_via_file(tmp_path):
    g = generate_er(15, 30, random.Random(2))
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


def test_edge_list_round_trip_via_stream():
    g = generate_ncn(6, 2)
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
    assert read_edge_list(io.StringIO(buf.getvalue())) == g


@st.composite
def graphs(draw):
    """Any simple graph on 1..30 nodes, isolated nodes and no edges included."""
    n = draw(st.integers(1, 30))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs), max_size=60)) if pairs else ()
    return Graph(n, edges)


@given(graphs())
def test_edge_list_round_trip_of_any_graph(graph):
    buf = io.StringIO()
    write_edge_list(graph, buf)
    back = read_edge_list(io.StringIO(buf.getvalue()))
    assert back == graph


def test_edge_list_rejects_count_mismatch():
    with pytest.raises(ValueError):
        read_edge_list(io.StringIO("3 2\n0 1\n"))


@pytest.mark.parametrize("text,line", [
    pytest.param("", 1, id="no-header"),
    pytest.param("3\n", 1, id="one-count"),
    pytest.param("3 x\n", 1, id="count-not-an-integer"),
    pytest.param("-1 0\n0 x\n", 1, id="negative-node-count"),
    pytest.param("3 -2\n0 1\n", 1, id="negative-edge-count"),
    pytest.param("3 1\n0 x\n", 2, id="endpoint-not-an-integer"),
    pytest.param("3 1\n0 1 2\n", 2, id="three-fields"),
    pytest.param("3 1\n0 \uff11\n", 2, id="non-ascii-digit"),
    pytest.param("12 1\n0 1_0\n", 2, id="digit-separator"),
    pytest.param("3 2\n0 1\n\n1 y\n", 4, id="blank-lines-still-count"),
    pytest.param("3 1\n0 1\n1 2\n", 3, id="more-edges-than-claimed"),
    pytest.param("3 2\n0 1\n", 1, id="fewer-edges-than-claimed"),
])
def test_edge_list_parse_errors_name_the_line(text, line):
    with pytest.raises(ValueError, match=rf"^line {line}: "):
        read_edge_list(io.StringIO(text))


def test_models_constant():
    assert MODELS == ("ncn", "er", "ws", "ba")
