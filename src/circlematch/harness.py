"""Seeded experiment driver: single cells, sweeps, and aggregation.

One replication is keyed by a single master seed. The market sub-seed is
derived from the master seed alone, while the graph sub-seed also folds in
the model name, so at fixed (n, seed) all four models face the same market
on different networks.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import random
import statistics
import time
from dataclasses import asdict, dataclass
from typing import IO, Iterable, Optional, Sequence

from . import netgen
from .market import (DEFAULT_STREAM, Market, Matching, average_utility, build_market,
                     candidates_bytes, check_stream, market_bytes, restricted_deferred_acceptance)
from .netgen import MODELS, Graph
from .topology import (DistanceMatrix, SocialCircle, all_pairs_shortest,
                       average_path_length, connectivity, summary_bytes)


def derive_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit sub-seed for one role of one replication."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _available_bytes() -> Optional[int]:
    """``MemAvailable`` from /proc/meminfo, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _cell_bytes(n: int, k: int) -> int:
    """Estimated peak bytes of one cell of size n at nominal degree k: the
    market's, the distance summary's on a graph of n * k / 2 edges (the most
    any model builds at k) and the candidate structure's of a full circle."""
    return market_bytes(n) + summary_bytes(n, n * k // 2) + candidates_bytes(n)


def _check_fits(what: str, needed: int, available: Optional[int]) -> None:
    if available is not None and needed > available:
        raise ValueError(f"{what} needs about {needed / 2 ** 30:.1f} GiB, "
                         f"more than the {available / 2 ** 30:.1f} GiB available")


def check_graph_fits(n: int, m: int, isolated: int = 0) -> None:
    """Raise ValueError when the distance summary of a graph of n nodes, m
    edges and ``isolated`` isolated nodes (``summary_bytes``) would not fit
    in ``MemAvailable``; where that cannot be read, pass."""
    _check_fits(f"a graph of {n} nodes and {m} edges", summary_bytes(n, m, isolated),
                _available_bytes())


def check_seed_and_rewiring(seed: int, p_rewire: float) -> None:
    """Raise ValueError unless ``seed`` fits in 64 bits and ``p_rewire`` is in [0, 1]."""
    if not 0.0 <= p_rewire <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {p_rewire}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seeds must fit in 64 bits, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Cross-product experiment grid: models x n_values x k_values x seeds."""

    models: tuple[str, ...]
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    seeds: tuple[int, ...]
    dep: int = 3
    p_rewire: float = 0.1
    stream: str = DEFAULT_STREAM

    def __post_init__(self):
        for name, what in (("models", "model"), ("n_values", "market size"),
                           ("k_values", "nominal degree"), ("seeds", "seed")):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"at least one {what} is required")
            object.__setattr__(self, name, values)
        for n in self.n_values:
            if n < 4 or n % 2:
                raise ValueError(f"market size must be even and >= 4, got {n}")
        # every size's cell at the largest degree, before a sweep runs a cell
        available, k = _available_bytes(), max(self.k_values)
        for n in self.n_values:
            _check_fits(f"market size {n}", _cell_bytes(n, k), available)
        # every cell's network, checked before a sweep runs any cell
        for model, n, k in itertools.product(self.models, self.n_values, self.k_values):
            netgen.check_model_params(model, n, k)
        if self.dep < 1:
            raise ValueError(f"recognition depth must be >= 1, got {self.dep}")
        for seed in self.seeds:
            check_seed_and_rewiring(seed, self.p_rewire)
        check_stream(self.stream)

    @staticmethod
    def replicated(models: Sequence[str], n_values: Sequence[int], k_values: Sequence[int],
                   base_seed: int, replications: int, *, dep: int = 3,
                   p_rewire: float = 0.1, stream: str = DEFAULT_STREAM) -> "ExperimentConfig":
        """Grid with ``replications`` consecutive master seeds from ``base_seed``."""
        if replications < 1:
            raise ValueError(f"replication count must be >= 1, got {replications}")
        seeds = tuple(range(base_seed, base_seed + replications))
        return ExperimentConfig(tuple(models), tuple(n_values), tuple(k_values),
                                seeds, dep=dep, p_rewire=p_rewire, stream=stream)


@dataclass(frozen=True)
class ExperimentResult:
    """Flat record of one simulated cell; field order mirrors the CSV schema.
    ``runtime_ms`` is the wall time of the cell's market draw, network and
    matching; ``sweep`` draws each (n, seed) market once and charges the draw
    to the first cell it runs on that market."""

    model: str
    n: int
    k: int
    dep: int
    p_rewire: float
    seed: int
    average_utility: float
    apl: Optional[float]
    connectivity: float
    matched_pairs: int
    runtime_ms: float
    stream: str


@dataclass(frozen=True, eq=False)
class CellRun:
    """Full artifacts of one cell, for inspection beyond the flat metrics."""

    graph: Graph
    dm: DistanceMatrix
    circle: SocialCircle
    market: Market
    matching: Matching
    result: ExperimentResult


def cell_graph(model: str, n: int, k: int, seed: int, p_rewire: float) -> Graph:
    """The network of the replication keyed by master seed ``seed``."""
    rng = random.Random(derive_seed(seed, f"graph:{model}"))
    return netgen.generate(model, n, k, p_rewire=p_rewire, rng=rng)


@functools.lru_cache(maxsize=16)  # the 13 distinct ncn networks of the three presets
def _ncn_network(n: int, k: int, dep: int) -> tuple[Graph, DistanceMatrix]:
    """The ring lattice and its distance summary at ``dep``, built once: ncn
    draws nothing, so every seed and rewiring probability gets this network."""
    graph = netgen.generate("ncn", n, k)
    return graph, all_pairs_shortest(graph, dep)


def _cell_network(model: str, n: int, k: int, dep: int, seed: int,
                  p_rewire: float) -> tuple[Graph, DistanceMatrix]:
    """``cell_graph`` and its distance summary at ``dep``."""
    if model == "ncn":
        return _ncn_network(n, k, dep)
    graph = cell_graph(model, n, k, seed, p_rewire)
    return graph, all_pairs_shortest(graph, dep)


def _run_on_market(market: Market, model: str, k: int, dep: int, seed: int,
                   p_rewire: float, stream: str, start: float) -> CellRun:
    """The cell of ``model`` at (k, seed) on ``market``, the replication's
    market; its ``runtime_ms`` counts from ``start``."""
    n = market.n
    graph, dm = _cell_network(model, n, k, dep, seed, p_rewire)
    matching = restricted_deferred_acceptance(market, dm.circle)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    result = ExperimentResult(
        model=model, n=n, k=k, dep=dep, p_rewire=p_rewire, seed=seed,
        average_utility=average_utility(market, matching),
        apl=average_path_length(dm),
        connectivity=connectivity(dm, dep),
        matched_pairs=len(matching.pairs),
        runtime_ms=runtime_ms,
        stream=stream,
    )
    return CellRun(graph=graph, dm=dm, circle=dm.circle, market=market,
                   matching=matching, result=result)


def _cell_market(n: int, seed: int, stream: str) -> Market:
    """The market of the replication keyed by master seed ``seed``."""
    return build_market(n, random.Random(derive_seed(seed, "market")), stream)


def run_cell_full(model: str, n: int, k: int, dep: int = 3, seed: int = 0,
                  p_rewire: float = 0.1, stream: str = DEFAULT_STREAM) -> CellRun:
    """Run one replication and keep every intermediate object. The graph and
    distance summary of an ncn network are shared between its cells; the
    market's rank lists come from preference stream ``stream``. The cell's
    utility is read at the pair entries deferred acceptance left on its matching."""
    start = time.perf_counter()
    return _run_on_market(_cell_market(n, seed, stream), model, k, dep, seed, p_rewire,
                          stream, start)


def run_cell(model: str, n: int, k: int, dep: int = 3, seed: int = 0,
             p_rewire: float = 0.1, stream: str = DEFAULT_STREAM) -> ExperimentResult:
    """Run one replication: build market and graph from the seed, restrict by
    circle, match, and measure."""
    return run_cell_full(model, n, k, dep, seed, p_rewire, stream).result


def sweep(config: ExperimentConfig) -> list[ExperimentResult]:
    """All cells of the grid in deterministic order (model, n, k, seed), each
    equal to its ``run_cell`` but ``runtime_ms``. The grid runs market by
    market: each (n, seed) market is drawn once, and every (model, k) cell
    runs on it before the next is drawn. A cell's ``runtime_ms`` covers its
    network and matching; the first cell run on a market also carries that
    market's draw, so the runtimes still sum to the sweep's work."""
    results = {}
    for n, seed in itertools.product(config.n_values, config.seeds):
        start = time.perf_counter()
        market = _cell_market(n, seed, config.stream)
        for model, k in itertools.product(config.models, config.k_values):
            run = _run_on_market(market, model, k, config.dep, seed, config.p_rewire,
                                 config.stream, start)
            results[model, n, k, seed] = run.result
            start = time.perf_counter()
    return [results[cell] for cell in itertools.product(config.models, config.n_values,
                                                        config.k_values, config.seeds)]


_SUMMARY_METRICS = ("average_utility", "apl", "connectivity", "matched_pairs")
_GROUPABLE = ("model", "n", "k", "dep", "p_rewire", "seed")


def summarize(results: Sequence[ExperimentResult],
              group_by: Sequence[str]) -> list[dict]:
    """Mean and population stddev of every metric, grouped by config fields.

    Undefined path lengths (None) are dropped from the apl aggregate; a
    group where every apl is undefined reports None for both moments.
    """
    if not results:
        raise ValueError("no results to summarize")
    group_by = tuple(group_by)
    for field in group_by:
        if field not in _GROUPABLE:
            raise ValueError(f"cannot group by {field!r}; choose from {_GROUPABLE}")
    groups: dict[tuple, list[ExperimentResult]] = {}
    for r in results:
        key = tuple(getattr(r, f) for f in group_by)
        groups.setdefault(key, []).append(r)
    rows = []
    for key in sorted(groups):
        members = groups[key]
        row: dict = dict(zip(group_by, key))
        row["count"] = len(members)
        for metric in _SUMMARY_METRICS:
            values = [getattr(r, metric) for r in members if getattr(r, metric) is not None]
            row[f"mean_{metric}"] = statistics.fmean(values) if values else None
            row[f"std_{metric}"] = statistics.pstdev(values) if values else None
        rows.append(row)
    return rows


CSV_FIELDS = ("model", "n", "k", "dep", "p_rewire", "seed",
              "average_utility", "apl", "connectivity", "matched_pairs")


def results_to_csv(results: Iterable[ExperimentResult], out: IO[str]) -> None:
    """Write results as CSV with the fixed schema, plus a trailing ``stream``
    column when a result is not from stream v1; byte-identical on reruns."""
    results = list(results)
    fields = CSV_FIELDS if all(r.stream == "v1" for r in results) else CSV_FIELDS + ("stream",)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fields)
    for r in results:
        writer.writerow([getattr(r, f) for f in fields])


def results_to_json(results: Iterable[ExperimentResult]) -> list[dict]:
    """Results as JSON-ready dicts, runtime included."""
    return [asdict(r) for r in results]


# The presets' output, pinned by their digests, is drawn from stream v1.
PRESET_STREAM = "v1"


def table2_config(replications: int = 50, base_seed: int = 0, *, dep: int = 3,
                  p_rewire: float = 0.1) -> ExperimentConfig:
    """All models across market sizes 20..100 at nominal degree 2."""
    return ExperimentConfig.replicated(MODELS, (20, 40, 60, 80, 100), (2,),
                                       base_seed, replications, dep=dep, p_rewire=p_rewire,
                                       stream=PRESET_STREAM)


def fig2_config(replications: int = 50, base_seed: int = 0, *, dep: int = 3,
                p_rewire: float = 0.1) -> ExperimentConfig:
    """Utility versus nominal degree at fixed market size 60."""
    return ExperimentConfig.replicated(MODELS, (60,), (2, 4, 8, 16),
                                       base_seed, replications, dep=dep, p_rewire=p_rewire,
                                       stream=PRESET_STREAM)


def fig36_config(replications: int = 50, base_seed: int = 0, *, dep: int = 3,
                 p_rewire: float = 0.1) -> ExperimentConfig:
    """Path length and connectivity versus nominal degree at market size 100."""
    return ExperimentConfig.replicated(MODELS, (100,), (2, 4, 6, 8, 10, 12),
                                       base_seed, replications, dep=dep, p_rewire=p_rewire,
                                       stream=PRESET_STREAM)
