"""Slow but obviously-correct reference implementations and shared
instance generators for the test suite.

Everything here is deliberately written the naive way so that a bug in
the library and a bug in the reference are unlikely to coincide.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import deque
from typing import NamedTuple, Optional, Sequence

import numpy as np

from circlematch import topology
from circlematch.harness import derive_seed
from circlematch.market import Market, Matching, build_market, market_from_dict
from circlematch.netgen import MODELS, Graph, generate, generate_er
from circlematch.topology import UNREACHABLE, DistanceMatrix, SocialCircle, all_pairs_shortest


def tuple_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Canonical edges as a sorted tuple of (smaller, larger) pairs, checked
    one pair at a time: the first self-loop or out-of-range pair in that
    order, then any repeated pair, raises ValueError."""
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    canonical = sorted((u, v) if u < v else (v, u) for u, v in edges)
    for u, v in canonical:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside 0..{n - 1}")
    deduped = tuple(canonical)
    if len(set(deduped)) != len(deduped):
        raise ValueError("repeated edges in edge list")
    return deduped


def er_pairs(n: int, chosen: Sequence[int]) -> list[tuple[int, int]]:
    """The node pairs at lexicographic pair indices ``chosen``, found by
    bisecting the index at which each row of pairs starts."""
    starts = [0]  # starts[i] = index of pair (i, i+1)
    for i in range(n - 1):
        starts.append(starts[-1] + (n - 1 - i))
    pairs = []
    for t in chosen:
        i = bisect_right(starts, t) - 1
        pairs.append((i, i + 1 + (t - starts[i])))
    return pairs


def ws_pairs(n: int, k: int, p_rewire: float, rng: random.Random) -> list[tuple[int, int]]:
    """The edges ``generate_ws`` draws, as (smaller, larger) tuples, kept in
    one neighbour set per node: the ring, then every lap-d edge from node i,
    nearest lap first, rewired to a fresh far end with probability
    ``p_rewire``, up to n redraws."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for d in range(1, k // 2 + 1):
        for i in range(n):
            adj[i].add((i + d) % n)
            adj[(i + d) % n].add(i)
    for d in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= p_rewire:
                continue
            j = (i + d) % n
            for _ in range(n):
                w = rng.randrange(n)
                if w != i and w not in adj[i]:
                    adj[i].discard(j)
                    adj[j].discard(i)
                    adj[i].add(w)
                    adj[w].add(i)
                    break
    return [(i, j) for i in range(n) for j in adj[i] if i < j]


def ba_pairs(n: int, m_attach: int, rng: random.Random) -> list[tuple[int, int]]:
    """The edges ``generate_ba`` draws, as tuples: a complete core of
    m_attach + 1 nodes, then each later node's m_attach distinct targets,
    each drawn from a list with one entry per unit of degree."""
    core = m_attach + 1
    edges = list(itertools.combinations(range(core), 2))
    repeated = [node for node in range(core) for _ in range(m_attach)]
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(rng.choice(repeated))
        edges += [(t, v) for t in sorted(targets)]
        repeated += sorted(targets) + [v] * m_attach
    return edges


def adjacency_lists(graph: Graph) -> list[list[int]]:
    """Each node's neighbours, ascending, read edge by edge."""
    nbrs: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in graph.edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(ns) for ns in nbrs]


def naive_distances(graph: Graph) -> np.ndarray:
    """Dense hop counts by per-source breadth-first search with a plain
    Python queue; UNREACHABLE between components."""
    n = graph.n
    adjacency = adjacency_lists(graph)
    dist = np.full((n, n), UNREACHABLE, dtype=np.int32)
    for source in range(n):
        dist[source, source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if dist[source, v] == UNREACHABLE:
                    dist[source, v] = dist[source, u] + 1
                    queue.append(v)
    return dist


def pack(bits: np.ndarray) -> np.ndarray:
    """Boolean rows as packed bitset rows of 64-bit words, the inverse of
    ``topology._unpack``."""
    n = bits.shape[1]
    packed = np.zeros((bits.shape[0], -(-n // 64) * 8), dtype=np.uint8)
    packed[:, :-(-n // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view(np.uint64)


def summary_from_dense(dist: np.ndarray, dep: int) -> DistanceMatrix:
    """The distance summary at ``dep`` of a dense hop-count matrix, built
    the naive way; its ``dist`` gives a copy of the matrix."""
    dist = np.asarray(dist, dtype=np.int32)
    n = len(dist)
    diameter = int(dist.max(initial=0))
    levels = tuple(int((dist == d).sum()) for d in range(1, diameter + 1))
    within = (dist != UNREACHABLE) & (dist <= dep)
    planes = np.array([pack(within & (dist >> p & 1).astype(bool))
                       for p in range(topology._plane_count(n, dep))],
                      dtype=np.uint64).reshape(-1, n, -(-n // 64))
    return DistanceMatrix(n, levels, SocialCircle(n, dep, pack(within)), planes,
                          dist.copy)


def stdlib_market(n: int, rng: random.Random) -> Market:
    """Random market drawn with ``random.shuffle`` itself: a uniform balanced
    partition into genders, then one shuffled rank list per agent in id
    order. The reference ``build_market`` must reproduce bit for bit."""
    h = n // 2
    women = sorted(rng.sample(range(n), h))
    is_woman = np.zeros(n, dtype=bool)
    is_woman[women] = True
    prefs = np.empty((n, h), dtype=np.int32)
    base = list(range(h))
    for a in range(n):
        row = base.copy()
        rng.shuffle(row)
        prefs[a] = row
    return Market(np.flatnonzero(is_woman), np.flatnonzero(~is_woman),
                  prefs[is_woman], prefs[~is_woman])


def prefers(market: Market, agent: int, favored: int, other: int) -> bool:
    """True when ``agent`` ranks ``favored`` strictly ahead of ``other``."""
    return market.position(agent, favored) < market.position(agent, other)


def agent_utility(market: Market, matching: Matching, agent: int) -> float:
    """Matched agents earn their score for their partner; unmatched earn 0."""
    if agent in market.women.tolist():
        partner = matching.by_woman.get(agent)
    elif agent in market.men.tolist():
        partner = matching.by_man.get(agent)
    else:
        raise ValueError(f"unknown agent id {agent}")
    return 0.0 if partner is None else market.score(agent, partner)


def make_market(women: Sequence[int], men: Sequence[int],
                rank: dict[int, Sequence[int]]) -> Market:
    """Market from rank lists of agent ids, read through the JSON form."""
    return market_from_dict({"women": list(women), "men": list(men), "rank": rank})


def ranking(market: Market, agent: int) -> list[int]:
    """``agent``'s rank list as agent ids, best first, read off ``position``."""
    women = market.women.tolist()
    other = market.men.tolist() if agent in women else women
    return sorted(other, key=lambda b: market.position(agent, b))


def naive_deferred_acceptance(market: Market, circle: SocialCircle,
                              order: Optional[Sequence[int]] = None) -> Matching:
    """Man-proposing deferred acceptance over dicts, asking the circle and
    the market about one pair at a time. Free men wait in a queue that
    starts in ``order`` (default: increasing id)."""
    men = market.men.tolist()
    candidates = {j: [i for i in ranking(market, j) if circle.contains(j, i)] for j in men}
    next_choice = {j: 0 for j in men}
    engaged: dict[int, int] = {}
    free = deque(men if order is None else order)
    while free:
        j = free.popleft()
        prefs = candidates[j]
        while next_choice[j] < len(prefs):
            i = prefs[next_choice[j]]
            next_choice[j] += 1
            current = engaged.get(i)
            if current is None:
                engaged[i] = j
                break
            if prefers(market, i, j, current):
                engaged[i] = j
                free.append(current)
                break
    return Matching.from_pairs(engaged.items())


def naive_blocking_pair(market: Market, circle: SocialCircle,
                        matching: Matching) -> Optional[tuple[int, int]]:
    """First in-circle pair that would both rather be together: women in id
    order, each woman's list best-first."""
    for i in market.women.tolist():
        for j in ranking(market, i):
            if matching.by_woman.get(i) == j:
                break  # she prefers her partner to everyone further down
            his = matching.by_man.get(j)
            if circle.contains(i, j) and (his is None or prefers(market, j, i, his)):
                return (i, j)
    return None


def full_circle(n: int) -> SocialCircle:
    """A circle in which everyone recognizes everyone else."""
    dist = np.ones((n, n), dtype=np.int32)
    np.fill_diagonal(dist, 0)
    return summary_from_dense(dist, 1).circle


def valid_degrees(n: int) -> list[int]:
    """Even nominal degrees accepted by the ring-based generators."""
    return list(range(2, n - 1, 2))


class Instance(NamedTuple):
    model: str
    n: int
    k: int
    dep: int
    graph: Graph
    dm: DistanceMatrix
    circle: SocialCircle
    market: Market


def random_instance(seed: int,
                    n_pool: Sequence[int] = tuple(range(4, 41, 2)),
                    dep_pool: Sequence[int] = (1, 2, 3, 4),
                    models: Sequence[str] = MODELS,
                    p_rewire: float = 0.1) -> Instance:
    """One reproducible market-plus-graph draw, seeded the same way the
    experiment harness seeds its cells."""
    picker = random.Random(derive_seed(seed, "instance"))
    model = picker.choice(list(models))
    n = picker.choice(list(n_pool))
    k = picker.choice(valid_degrees(n))
    dep = picker.choice(list(dep_pool))
    market = build_market(n, random.Random(derive_seed(seed, "market")))
    graph = generate(model, n, k, p_rewire=p_rewire,
                     rng=random.Random(derive_seed(seed, f"graph:{model}")))
    dm = all_pairs_shortest(graph, dep)
    return Instance(model, n, k, dep, graph, dm, dm.circle, market)


def generate_er_gnp(n: int, p: float, rng: random.Random) -> Graph:
    """Random graph with a Binomial(n*(n-1)/2, p) edge count, drawn by one
    Bernoulli trial per node pair."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    total = n * (n - 1) // 2
    m = sum(1 for _ in range(total) if rng.random() < p)
    return generate_er(n, m, rng)


def assert_valid_graph(graph: Graph, n: int, m: Optional[int] = None) -> None:
    assert graph.n == n
    seen = set()
    for u, v in graph.edges.tolist():
        assert 0 <= u < v < n
        assert (u, v) not in seen
        seen.add((u, v))
    if m is not None:
        assert graph.m == m
    degree_sum = sum(graph.degrees())
    assert degree_sum == 2 * graph.m
