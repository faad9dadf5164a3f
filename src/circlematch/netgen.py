"""Generators for the four network families used throughout the package.

Nodes are integers 0..n-1. Every graph is simple and undirected: no
self-loops, no repeated edges. Randomized generators draw all choices from a
caller-supplied ``random.Random``, so equal parameters and an equally seeded
source always reproduce the same graph. Edges are stored in canonical order:
each pair as (smaller id, larger id), the whole list sorted ascending.
"""

from __future__ import annotations

import itertools
import os
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable

MODELS = ("ncn", "er", "ws", "ba")


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph over nodes 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge collection, normalizing and validating.

        Args:
            n: number of nodes; must be positive.
            edges: iterable of (u, v) pairs in any order and orientation.

        Raises:
            ValueError: on self-loops, out-of-range ids, or repeated edges.
        """
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
        return Graph(n, deduped)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    def degrees(self) -> list[int]:
        return [len(ns) for ns in self.adjacency]


def _check_ring_params(n: int, k: int) -> None:
    if n < 3:
        raise ValueError(f"ring lattice needs at least 3 nodes, got {n}")
    if k % 2:
        raise ValueError(f"coupling degree must be even, got {k}")
    if not 2 <= k <= n - 1:
        raise ValueError(f"coupling degree {k} out of range for {n} nodes")


def generate_ncn(n: int, k: int) -> Graph:
    """Nearest-coupled ring lattice: node i linked to i +- 1 .. i +- k/2 mod n.

    Args:
        n: number of nodes, at least 3.
        k: even coupling degree, 2 <= k <= n-1 (so k <= n-2 when n is even).

    Returns:
        Deterministic graph with exactly n*k/2 edges, every degree equal to k.
    """
    _check_ring_params(n, k)
    edges = [(i, (i + d) % n) for d in range(1, k // 2 + 1) for i in range(n)]
    return Graph.from_edges(n, edges)


def _row_starts(n: int) -> list[int]:
    # starts[i] = index of pair (i, i+1) in the lexicographic pair ordering
    out = [0]
    for i in range(n - 1):
        out.append(out[-1] + (n - 1 - i))
    return out


def _pair_at(starts: list[int], t: int) -> tuple[int, int]:
    i = bisect_right(starts, t) - 1
    return (i, i + 1 + (t - starts[i]))


def generate_er(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform random graph with exactly ``m`` edges.

    Links are added one at a time, each drawn uniformly from the pairs not
    already present; the result is a uniform m-subset of all node pairs.

    Args:
        n: number of nodes.
        m: edge count, 0 <= m <= n*(n-1)/2.
        rng: seeded random source.
    """
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} out of range for {n} nodes (max {total})")
    starts = _row_starts(n)
    chosen = rng.sample(range(total), m)
    return Graph.from_edges(n, (_pair_at(starts, t) for t in chosen))


def generate_ws(n: int, k: int, p_rewire: float, rng: random.Random) -> Graph:
    """Ring lattice with random rewiring (small-world construction).

    Starts from the ring lattice of ``generate_ncn`` and visits each original
    edge once, nearest lap first. With probability ``p_rewire`` the far
    endpoint is detached and reattached to a node drawn uniformly at random;
    candidates producing a self-loop or a duplicate edge are resampled up to
    ``n`` times, after which the edge is left in place. The edge count nk/2
    is preserved exactly.

    Args:
        n: number of nodes, at least 3.
        k: even coupling degree of the underlying ring.
        p_rewire: per-edge rewiring probability in [0, 1].
        rng: seeded random source.
    """
    _check_ring_params(n, k)
    if not 0.0 <= p_rewire <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {p_rewire}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for d in range(1, k // 2 + 1):
        for i in range(n):
            j = (i + d) % n
            adj[i].add(j)
            adj[j].add(i)
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
    edges = [(i, j) for i in range(n) for j in adj[i] if i < j]
    return Graph.from_edges(n, edges)


def generate_ba(n: int, m_attach: int, rng: random.Random) -> Graph:
    """Preferential-attachment graph grown from a complete core.

    The first m_attach+1 nodes form a complete graph. Each later node joins
    with ``m_attach`` links to distinct existing nodes, drawn one at a time
    with probability proportional to current degree (duplicates are redrawn).

    Args:
        n: final number of nodes.
        m_attach: links added per incoming node, 1 <= m_attach < n.
        rng: seeded random source.
    """
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    if not 1 <= m_attach < n:
        raise ValueError(f"attachment count {m_attach} out of range for {n} nodes")
    core = m_attach + 1
    edges: list[tuple[int, int]] = list(itertools.combinations(range(core), 2))
    # one entry per unit of degree; sampling from it is degree-proportional
    repeated = [node for node in range(core) for _ in range(m_attach)]
    for v in range(core, n):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(rng.choice(repeated))
        picked = sorted(targets)
        for t in picked:
            edges.append((t, v))
        repeated.extend(picked)
        repeated.extend([v] * m_attach)
    return Graph.from_edges(n, edges)


def generate(model: str, n: int, k: int, *, p_rewire: float = 0.1,
             rng: random.Random | None = None) -> Graph:
    """Build any of the four models at nominal average degree ``k``.

    The mapping keeps expected average degree comparable across models:
    ncn and ws use coupling degree k, er gets exactly n*k/2 edges, and ba
    attaches k/2 links per node.

    Args:
        model: one of "ncn", "er", "ws", "ba".
        n: number of nodes.
        k: even nominal degree, at least 2.
        p_rewire: rewiring probability (ws only).
        rng: seeded random source; required for every model except ncn.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if k < 2 or k % 2:
        raise ValueError(f"nominal degree must be even and >= 2, got {k}")
    if model == "ncn":
        return generate_ncn(n, k)
    if rng is None:
        raise ValueError(f"model {model!r} needs a random source")
    if model == "er":
        return generate_er(n, n * k // 2, rng)
    if model == "ws":
        return generate_ws(n, k, p_rewire, rng)
    return generate_ba(n, k // 2, rng)


def write_edge_list(graph: Graph, target: str | os.PathLike | IO[str]) -> None:
    """Write the text edge-list format: a `N M` header, then `u v` per edge."""
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="ascii") as fh:
            write_edge_list(graph, fh)
        return
    target.write(f"{graph.n} {graph.m}\n")
    for u, v in graph.edges:
        target.write(f"{u} {v}\n")


def _parse_int(token: str, lineno: int) -> int:
    # int() also reads non-ASCII digits, "+" and "_", which the format does not allow.
    digits = token[token.startswith("-"):]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"line {lineno}: expected an integer, got {token!r}")
    return int(token)


def read_edge_list(source: str | os.PathLike | IO[str]) -> Graph:
    """Parse the text edge-list format written by ``write_edge_list``.

    Parse errors name the 1-based line at fault; the header's counts are
    checked before any edge line is read.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="ascii") as fh:
            return read_edge_list(fh)
    header = source.readline().split()
    if len(header) != 2:
        raise ValueError("line 1: edge list header must be two integers: node and edge counts")
    n, m = (_parse_int(x, 1) for x in header)
    if n < 1 or m < 0:
        raise ValueError(f"line 1: node count must be positive and edge count "
                         f"non-negative, got {n} and {m}")
    edges = []
    for lineno, line in enumerate(source, start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: malformed edge line: {line!r}")
        if len(edges) == m:
            raise ValueError(f"line {lineno}: more edges than the {m} the header claims")
        edges.append((_parse_int(parts[0], lineno), _parse_int(parts[1], lineno)))
    if len(edges) != m:
        raise ValueError(f"line 1: header claims {m} edges, found {len(edges)}")
    return Graph.from_edges(n, edges)
