"""Generators for the four network families used throughout the package.

Nodes are integers 0..n-1. Every graph is simple and undirected: no
self-loops, no repeated edges. Randomized generators draw all choices from a
caller-supplied ``random.Random``, so equal parameters and an equally seeded
source always reproduce the same graph. Each uniform integer below a bound
is drawn straight from ``rng.getrandbits`` as ``Random._randbelow`` draws it:
the bound's bit length in bits, drawn again while the value is at or past
the bound. So ``sample_range`` and the generators read the same words as
the ``rng.sample``, ``rng.choice`` and ``rng.randrange`` calls they stand
for, and leave ``rng`` in the same state. A graph is one canonical edge array,
each row (smaller id, larger id) and the rows ascending, with the CSR
adjacency every other layer reads.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

MODELS = ("ncn", "er", "ws", "ba")


def _sorted_keys(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The edges (lo, hi), each id below n, as keys lo * n + hi, sorted: the
    canonical order."""
    return np.sort(lo.astype(np.int64) * n + hi.astype(np.int64))


def _edges_of(n: int, keys: np.ndarray) -> np.ndarray:
    """The read-only int32 canonical edge array of sorted keys lo * n + hi."""
    edges = np.stack(np.divmod(keys, n), axis=1).astype(np.int32)
    edges.flags.writeable = False
    return edges


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph over nodes 0..n-1; ``edges`` is its
    read-only (m, 2) int32 canonical edge array.

    Construction normalizes and validates ``edges``: (u, v) pairs in any
    order and orientation, as an iterable or an (m, 2) integer array, on
    ``n`` nodes, 1..2**31 so that every id fits in int32.

    Raises:
        ValueError: on a node count out of range, on non-integer ids, on
            the first self-loop or out-of-range id in canonical order, or
            on repeated edges.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        n, edges = self.n, self.edges
        if not 1 <= n <= 2 ** 31:
            raise ValueError(f"node count must be in 1..{2 ** 31}, got {n}")
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        ends = np.asarray(pairs)
        if ends.dtype.kind not in "iu":  # ids past 64 bits come out as float64 or object
            ends = np.array(pairs, dtype=object)
            if not all(isinstance(x, (int, np.integer)) for x in ends.flat):
                raise ValueError("node ids must be integers")
        ends = ends if ends.size else ends.reshape(0, 2)
        if ends.shape[1:] != (2,):
            raise ValueError("edges must be (u, v) pairs")
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            u, v = min(zip(lo[bad].tolist(), hi[bad].tolist()))
            raise ValueError(f"self-loop at node {u}" if u == v
                             else f"edge ({u}, {v}) outside 0..{n - 1}")
        keys = _sorted_keys(n, lo, hi)
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("repeated edges in edge list")
        object.__setattr__(self, "edges", _edges_of(n, keys))

    @classmethod
    def _generated(cls, n: int, ends: np.ndarray) -> Graph:
        """The graph of a generator's (m, 2) integer array of edges, which
        meet every check of ``Graph(n, edges)`` by construction: distinct
        pairs of distinct ids in 0..n-1, n in range. Only canonicalized."""
        graph = cls.__new__(cls)
        lo, hi = np.minimum(ends[:, 0], ends[:, 1]), np.maximum(ends[:, 0], ends[:, 1])
        object.__setattr__(graph, "n", n)
        object.__setattr__(graph, "edges", _edges_of(n, _sorted_keys(n, lo, hi)))
        return graph

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only CSR adjacency ``(indptr, indices)``: node v's neighbours,
        ascending, are ``indices[indptr[v]:indptr[v + 1]]``."""
        n = self.n
        lo, hi = self.edges.astype(np.int64).T
        # Each edge end as the key row * n + column: sorted, the keys list
        # every row's neighbours in ascending order.
        keys = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        csr = np.searchsorted(keys, np.arange(n + 1) * n), (keys % n).astype(np.int32)
        for array in csr:
            array.flags.writeable = False
        return csr

    def degrees(self) -> list[int]:
        return np.diff(self.csr[0]).tolist()


def _check_ring_params(n: int, k: int) -> None:
    if n < 3:
        raise ValueError(f"ring lattice needs at least 3 nodes, got {n}")
    if k % 2:
        raise ValueError(f"coupling degree must be even, got {k}")
    if not 2 <= k <= n - 1:
        raise ValueError(f"coupling degree {k} out of range for {n} nodes")


def _check_er_params(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"edge count {m} out of range for {n} nodes (max {total})")


def _check_ba_params(n: int, m_attach: int) -> None:
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    if not 1 <= m_attach < n:
        raise ValueError(f"attachment count {m_attach} out of range for {n} nodes")


def check_model_params(model: str, n: int, k: int) -> None:
    """Raise ValueError unless ``generate(model, n, k)`` can build its graph:
    a known model, an even k >= 2 and the bounds of the generator it maps to."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    if k < 2 or k % 2:
        raise ValueError(f"nominal degree must be even and >= 2, got {k}")
    if model in ("ncn", "ws"):
        _check_ring_params(n, k)
    elif model == "er":
        _check_er_params(n, n * k // 2)
    else:
        _check_ba_params(n, k // 2)


def sample_range(rng: random.Random, population: int, k: int) -> list[int]:
    """``rng.sample(range(population), k)`` bit for bit, 0 <= k <= population:
    the same choice between a pool of every value and a set of the chosen
    ones (``setsize``, float ``log`` included), each draw from
    ``rng.getrandbits``."""
    getrandbits = rng.getrandbits
    setsize = 21  # as Random.sample sizes a small set against a list
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if population <= setsize:
        pool, chosen = list(range(population)), []
        for size in range(population, population - k, -1):
            bits = size.bit_length()
            j = getrandbits(bits)
            while j >= size:
                j = getrandbits(bits)
            chosen.append(pool[j])
            pool[j] = pool[size - 1]  # the last value not chosen fills the gap
        return chosen
    bits, picked = population.bit_length(), {}
    while len(picked) < k:
        j = getrandbits(bits)
        if j < population:
            picked[j] = None  # a value already chosen is drawn again, as a repeat
    return list(picked)


def generate_ncn(n: int, k: int) -> Graph:
    """Nearest-coupled ring lattice: node i linked to i +- 1 .. i +- k/2 mod n.

    Args:
        n: number of nodes, at least 3.
        k: even coupling degree, 2 <= k <= n-1 (so k <= n-2 when n is even).

    Returns:
        Deterministic graph with exactly n*k/2 edges, every degree equal to k.
    """
    _check_ring_params(n, k)
    near = np.tile(np.arange(n), k // 2)
    far = (near + np.repeat(np.arange(1, k // 2 + 1), n)) % n
    return Graph._generated(n, np.stack((near, far), axis=1))


def generate_er(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform random graph with exactly ``m`` edges.

    Links are added one at a time, each drawn uniformly from the pairs not
    already present; the result is a uniform m-subset of all node pairs.

    Args:
        n: number of nodes.
        m: edge count, 0 <= m <= n*(n-1)/2.
        rng: seeded random source.
    """
    _check_er_params(n, m)
    chosen = np.array(sample_range(rng, n * (n - 1) // 2, m), dtype=np.int64)
    # starts[i] is the index of pair (i, i + 1) in lexicographic pair order
    starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 1, -1))))
    first = np.searchsorted(starts, chosen, side="right") - 1
    return Graph._generated(n, np.stack((first, first + 1 + chosen - starts[first]), axis=1))


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
    # far[(d - 1) * n + i] is the current far end of lap d's edge from node i
    far = [(i + d) % n for d in range(1, k // 2 + 1) for i in range(n)]
    uniform, getrandbits, bits = rng.random, rng.getrandbits, n.bit_length()
    for d in range(1, k // 2 + 1):
        for i in range(n):
            if uniform() >= p_rewire:
                continue
            j = (i + d) % n
            for _ in range(n):
                w = getrandbits(bits)  # rng.randrange(n)
                while w >= n:
                    w = getrandbits(bits)
                if w != i and w not in adj[i]:
                    adj[i].discard(j)
                    adj[j].discard(i)
                    adj[i].add(w)
                    adj[w].add(i)
                    far[(d - 1) * n + i] = w
                    break
    return Graph._generated(n, np.stack((np.tile(np.arange(n), k // 2), far), axis=1))


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
    _check_ba_params(n, m_attach)
    core = m_attach + 1
    # one entry per unit of degree; sampling from it is degree-proportional
    repeated = [node for node in range(core) for _ in range(m_attach)]
    getrandbits = rng.getrandbits
    for v in range(core, n):
        size = len(repeated)
        bits = size.bit_length()
        targets: set[int] = set()
        while len(targets) < m_attach:
            j = getrandbits(bits)  # rng.choice(repeated), redrawn at or past its end
            if j < size:
                targets.add(repeated[j])
        repeated.extend(sorted(targets))
        repeated.extend([v] * m_attach)
    # past the core, repeated holds each node's m_attach targets, then the
    # node itself m_attach times: transposed, that is one (target, node) edge each
    grown = np.array(repeated[core * m_attach:], dtype=np.int64).reshape(-1, 2, m_attach)
    grown = grown.transpose(0, 2, 1).reshape(-1, 2)
    return Graph._generated(n, np.concatenate((np.transpose(np.triu_indices(core, 1)), grown)))


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
    check_model_params(model, n, k)
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
    for u, v in graph.edges.tolist():
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
    return Graph(n, edges)
