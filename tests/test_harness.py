"""Experiment harness: seed derivation, config validation, sweeps, output."""

import ast
import dataclasses
import importlib.util
import inspect
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import circlematch
from circlematch import harness, market, netgen
from circlematch.harness import (
    CSV_FIELDS,
    ExperimentConfig,
    ExperimentResult,
    derive_seed,
    fig2_config,
    fig36_config,
    results_to_csv,
    results_to_json,
    run_cell,
    run_cell_full,
    summarize,
    sweep,
    table2_config,
)
from circlematch.market import _TWISTER_HALF, is_stable
from circlematch.topology import UNREACHABLE


# ---------------------------------------------------------------- seed paths

def test_derive_seed_frozen_values():
    assert derive_seed(0, "market") == 3277477078762024996
    assert derive_seed(0, "graph:ncn") == 9360982360406156925
    assert derive_seed(1, "market") == 8406375969572046061
    assert derive_seed(42, "graph:ba") == 255471660425262569


@given(st.integers(0, 2**62), st.text(max_size=20))
def test_derive_seed_is_deterministic_and_bounded(master, label):
    a = derive_seed(master, label)
    assert a == derive_seed(master, label)
    assert 0 <= a < 2**64


def test_derive_seed_separates_labels_and_masters():
    assert derive_seed(0, "market") != derive_seed(0, "graph:ncn")
    assert derive_seed(0, "market") != derive_seed(1, "market")


# -------------------------------------------------------------------- config

def test_config_normalizes_sequences():
    cfg = ExperimentConfig(models=["ncn"], n_values=[20], k_values=[2], seeds=[1, 2])
    assert cfg.models == ("ncn",)
    assert cfg.seeds == (1, 2)


@pytest.mark.parametrize("kwargs", [
    dict(models=("grid",), n_values=(20,), k_values=(2,), seeds=(0,)),
    dict(models=("ncn",), n_values=(21,), k_values=(2,), seeds=(0,)),
    dict(models=("ncn",), n_values=(2,), k_values=(2,), seeds=(0,)),
    dict(models=("ncn",), n_values=(20,), k_values=(3,), seeds=(0,)),
    dict(models=("ncn",), n_values=(20,), k_values=(20,), seeds=(0,)),
    dict(models=("ncn",), n_values=(20,), k_values=(2,), seeds=()),
    dict(models=("ncn",), n_values=(20,), k_values=(2,), seeds=(0,), dep=0),
    dict(models=("ncn",), n_values=(20,), k_values=(2,), seeds=(0,), p_rewire=1.5),
    dict(models=("ncn",), n_values=(20,), k_values=(2,), seeds=(0,), stream="v3"),
])
def test_config_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize("model, n, k", [("er", 4, 4), ("ba", 4, 8), ("ncn", 4, 4),
                                         ("ws", 6, 6)])
def test_config_checks_every_cell_network(model, n, k):
    """A grid with one cell whose network cannot be built is refused as a
    whole, with the generator's own message."""
    with pytest.raises(ValueError) as from_config:
        ExperimentConfig((model,), (200, n), (2, k), (0,))
    with pytest.raises(ValueError) as from_generate:
        netgen.generate(model, n, k, rng=random.Random(0))
    assert str(from_config.value) == str(from_generate.value)
    ExperimentConfig((model,), (200, n + 2), (2, k - 2), (0,))  # one size or degree less


def test_config_refuses_a_size_that_cannot_fit(monkeypatch):
    available = harness._available_bytes()
    assert available is None or available > 0
    monkeypatch.setattr(harness, "_available_bytes", lambda: 8 * 2 ** 30)
    # 3h² int32 rank entries, (2m + 5n)·n search bits and the 12 bytes of
    # three int32 rank entries for each of the h² candidate pairs at
    # n = 10**7, k = 2: about 625 TiB
    with pytest.raises(ValueError, match=r"^market size 10000000 needs about 640284\.5 GiB, "
                                         r"more than the 8\.0 GiB available$"):
        ExperimentConfig(("er",), (20, 10 ** 7), (2,), (0,))
    ExperimentConfig(("er",), (20, 2000), (2,), (0,))


@pytest.mark.parametrize("model, k", [("er", 16), ("ba", 4)])
def test_cell_estimate_bounds_the_traced_peak(model, k):
    """tracemalloc's peak over one n=2000 cell stays within ``_cell_bytes``:
    er at k=16 holds 86% of the 10**6 pairs in its circle, and its
    candidate structure is most of the cell's peak."""
    tracemalloc.start()
    try:
        run_cell_full(model, 2000, k, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= harness._cell_bytes(2000, k)


def test_config_skips_the_size_check_without_meminfo(monkeypatch):
    def unreadable(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr(harness, "open", unreadable, raising=False)
    assert harness._available_bytes() is None
    assert ExperimentConfig(("er",), (10 ** 7,), (2,), (0,)).n_values == (10 ** 7,)


def test_streams_default_to_v2_and_the_presets_to_v1():
    assert ExperimentConfig(("er",), (20,), (2,), (0,)).stream == "v2"
    assert ExperimentConfig.replicated(("er",), (20,), (2,), 0, 1).stream == "v2"
    assert {f(1).stream for f in (table2_config, fig2_config, fig36_config)} == {"v1"}
    for stream in ("v1", "v2"):
        rows = sweep(ExperimentConfig(("er",), (20,), (2,), (3,), stream=stream))
        cell = run_cell_full("er", 20, 2, seed=3, stream=stream)
        assert rows[0].stream == cell.result.stream == stream
        assert rows[0].average_utility == cell.result.average_utility


def test_public_api_is_pinned():
    """The package exports exactly these names, so API that only tests use
    cannot come back unnoticed."""
    exported = {name for name, value in vars(circlematch).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {
        "CellRun", "ExperimentConfig", "ExperimentResult", "derive_seed", "fig2_config",
        "fig36_config", "results_to_csv", "results_to_json", "run_cell", "run_cell_full",
        "summarize", "sweep", "table2_config",
        "Market", "Matching", "average_utility", "build_market", "classical_gs",
        "find_blocking_pair", "is_stable", "matching_to_dict",
        "restricted_deferred_acceptance",
        "MODELS", "Graph", "generate", "generate_ba", "generate_er", "generate_ncn",
        "generate_ws", "read_edge_list", "write_edge_list",
        "UNREACHABLE", "DistanceMatrix", "SocialCircle", "TopologyReport",
        "all_pairs_shortest", "analyze", "average_degree", "average_path_length",
        "connectivity", "degree_distribution", "poisson_connectivity", "reachable_pairs",
    }


def test_replicated_builds_consecutive_seeds():
    cfg = ExperimentConfig.replicated(("er",), (20,), (2,), 100, 5)
    assert cfg.seeds == (100, 101, 102, 103, 104)


def test_presets_cover_their_grids():
    t2 = table2_config(replications=3)
    assert t2.models == ("ncn", "er", "ws", "ba")
    assert t2.n_values == (20, 40, 60, 80, 100)
    assert t2.k_values == (2,)
    assert len(t2.seeds) == 3
    assert fig2_config().n_values == (60,)
    assert fig2_config().k_values == (2, 4, 8, 16)
    assert fig36_config().n_values == (100,)
    assert fig36_config().k_values == (2, 4, 6, 8, 10, 12)


# --------------------------------------------------------------------- cells

def test_run_cell_is_deterministic_up_to_runtime():
    a = run_cell("ba", 20, 2, seed=9)
    b = run_cell("ba", 20, 2, seed=9)
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    assert strip(a) == strip(b)
    assert a.model == "ba" and a.n == 20 and a.k == 2
    assert 0 <= a.matched_pairs <= 10
    assert 0.0 <= a.connectivity <= 1.0


def test_run_cell_market_does_not_depend_on_model():
    runs = {model: run_cell_full(model, 16, 2, seed=4) for model in ("ncn", "ba")}
    assert runs["ncn"].market == runs["ba"].market
    assert runs["ncn"].graph != runs["ba"].graph


def test_run_cell_full_is_internally_consistent():
    run = run_cell_full("ws", 20, 4, seed=2)
    assert is_stable(run.market, run.circle, run.matching)
    assert run.result.matched_pairs == len(run.matching.pairs)
    assert run.result.apl is not None


# ------------------------------------------------------------ ncn networks

@pytest.fixture
def cold_map():
    harness._ncn_network.cache_clear()
    yield
    harness._ncn_network.cache_clear()


def test_seed_free_network_is_summarized_once(cold_map):
    first = run_cell_full("ncn", 40, 2, seed=0)
    second = run_cell_full("ncn", 40, 2, seed=1)
    assert second.dm is first.dm and second.graph is first.graph
    assert second.market != first.market
    info = harness._ncn_network.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert run_cell_full("ncn", 40, 2, dep=2).dm is not first.dm


def test_served_cells_equal_cold_runs(cold_map):
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    cells = [(n, k, dep, seed) for n, k in ((20, 2), (60, 4), (300, 2))
             for dep in (1, 3) for seed in range(3)]
    served = [strip(run_cell("ncn", n, k, dep, seed)) for n, k, dep, seed in cells]
    cold = []
    for n, k, dep, seed in cells:
        harness._ncn_network.cache_clear()
        cold.append(strip(run_cell("ncn", n, k, dep, seed)))
    assert served == cold


@pytest.mark.parametrize("model, p_rewire", [("er", 0.1), ("ws", 0.1), ("ws", 0.0),
                                             ("ba", 0.1)])
def test_drawn_networks_never_enter_the_map(cold_map, model, p_rewire):
    # ws at p_rewire 0 keeps the ring, but still draws one number per edge
    for seed in range(2):
        run_cell_full(model, 20, 2, seed=seed, p_rewire=p_rewire)
    assert harness._ncn_network.cache_info().currsize == 0


def test_sweep_summarizes_each_ncn_network_once(cold_map):
    config = ExperimentConfig(circlematch.MODELS, (20, 40), (2, 4), tuple(range(6)))
    sweep(config)
    # ncn is served from the cache, once per (n, k); er, ws and ba never enter it
    info = harness._ncn_network.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 4 * 5, 4)
    assert run_cell_full("ncn", 40, 4, seed=7).graph is run_cell_full("ncn", 40, 4, seed=8).graph


def test_map_never_exceeds_its_bound(cold_map):
    bound = harness._ncn_network.cache_info().maxsize
    sizes = range(4, 4 + 2 * (bound + 3), 2)
    for n in sizes:
        run_cell_full("ncn", n, 2)
        assert harness._ncn_network.cache_info().currsize <= bound
    # the oldest networks left first: the newest are served, the oldest summarized again
    misses = harness._ncn_network.cache_info().misses
    for n in list(sizes)[-bound:]:
        harness._ncn_network(n, 2, 3)
    assert harness._ncn_network.cache_info().misses == misses
    harness._ncn_network(sizes[0], 2, 3)
    assert harness._ncn_network.cache_info().misses == misses + 1


def test_map_holds_every_ncn_network_of_the_presets():
    configs = (table2_config(1), fig2_config(1), fig36_config(1))
    networks = {(n, k) for cfg in configs for n in cfg.n_values for k in cfg.k_values}
    assert len(networks) == 13 <= harness._ncn_network.cache_info().maxsize


def test_summary_arrays_are_read_only(cold_map):
    for model, n in (("ncn", 40), ("ncn", 300), ("er", 40), ("ba", 300)):
        run = run_cell_full(model, n, 2)
        arrays = (run.dm.circle.bits, run.market.men_prefs, run.market.women_pos)
        assert not any(a.flags.writeable for a in arrays), model
        # the summary's distances, searched on demand, match the dense matrix
        dist = run.dm.dist
        a, b = np.nonzero((dist != UNREACHABLE) & (dist <= run.dm.circle.dep))
        assert np.array_equal(run.dm.distances(a, b), dist[a, b]), model


def _perfbench_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [40, 300], ids=["bit-parallel", "deep"])
def test_benchmark_gate_and_counts_read_served_cells(cold_map, n):
    checks = _perfbench_checks()
    cold = run_cell_full("ncn", n, 2, seed=0)
    served = run_cell_full("ncn", n, 2, seed=1)
    assert served.dm is cold.dm
    for run in (cold, served):
        assert checks.check_cell(run) == []
        counts = checks.cell_counts(run)
        assert counts["market.matched_pairs"] == len(run.matching.pairs)
        assert counts["topology.bfs_levels"] == n // 2
        assert counts["topology.reachable_pairs"] == n * (n - 1) // 2
        # every man of the ring knows the women among his 6 nearest nodes
        assert 0 < counts["market.cand_len_max"] <= 6


def test_sweep_covers_the_cross_product_in_order():
    cfg = ExperimentConfig(models=("ncn", "er"), n_values=(8, 12),
                           k_values=(2,), seeds=(0, 1, 2))
    rows = sweep(cfg)
    assert len(rows) == 2 * 2 * 1 * 3
    assert [r.model for r in rows[:6]] == ["ncn"] * 6
    assert [r.seed for r in rows[:3]] == [0, 1, 2]
    assert [r.n for r in rows[:6]] == [8, 8, 8, 12, 12, 12]


@pytest.mark.parametrize("stream", ["v1", "v2"])
def test_sweep_equals_its_cells_run_one_by_one(stream):
    cfg = ExperimentConfig(circlematch.MODELS, (12, 20), (2, 4), (0, 1, 2), stream=stream)
    strip = lambda r: dataclasses.replace(r, runtime_ms=0.0)
    cells = [strip(run_cell(model, n, k, cfg.dep, seed, cfg.p_rewire, stream))
             for model in cfg.models for n in cfg.n_values
             for k in cfg.k_values for seed in cfg.seeds]
    rows = sweep(cfg)
    assert [strip(r) for r in rows] == cells
    assert all(r.runtime_ms > 0.0 for r in rows)


def test_sweep_draws_each_market_once(monkeypatch):
    drawn = []

    def build_market(n, rng, stream):
        drawn.append((n, rng.getstate()))
        return market.build_market(n, rng, stream)

    monkeypatch.setattr(harness, "build_market", build_market)
    sweep(ExperimentConfig(circlematch.MODELS, (12, 20), (2, 4), (0, 1, 2)))
    assert drawn == [(n, random.Random(derive_seed(seed, "market")).getstate())
                     for n in (12, 20) for seed in (0, 1, 2)]


# ------------------------------------------------------------------ summaries

def test_summarize_means_and_spread():
    cfg = ExperimentConfig(models=("er",), n_values=(12,), k_values=(2,),
                           seeds=tuple(range(6)))
    rows = sweep(cfg)
    summary = summarize(rows, ["model", "n"])
    assert len(summary) == 1
    entry = summary[0]
    assert entry["model"] == "er" and entry["n"] == 12
    assert entry["count"] == 6
    expected = statistics.fmean(r.average_utility for r in rows)
    assert entry["mean_average_utility"] == pytest.approx(expected)
    assert entry["std_average_utility"] >= 0.0


def test_summarize_single_row_has_zero_spread():
    rows = [run_cell("ncn", 10, 2, seed=0)]
    entry = summarize(rows, ["model"])[0]
    assert entry["std_average_utility"] == 0.0
    assert entry["count"] == 1


def test_summarize_drops_undefined_path_lengths():
    base = run_cell("ncn", 10, 2, seed=0)
    broken = dataclasses.replace(base, apl=None)
    entry = summarize([base, broken], ["model"])[0]
    assert entry["mean_apl"] == pytest.approx(base.apl)
    only_broken = summarize([broken], ["model"])[0]
    assert only_broken["mean_apl"] is None
    assert only_broken["std_apl"] is None


def test_summarize_validates_inputs():
    with pytest.raises(ValueError):
        summarize([], ["model"])
    with pytest.raises(ValueError):
        summarize([run_cell("ncn", 10, 2)], ["average_utility"])


# -------------------------------------------------------------------- output

def _tiny_results():
    return [
        ExperimentResult(model="ncn", n=10, k=2, dep=3, p_rewire=0.1, seed=0,
                         average_utility=5.5, apl=2.5, connectivity=0.9,
                         matched_pairs=4, runtime_ms=1.25, stream="v1"),
        ExperimentResult(model="er", n=10, k=2, dep=3, p_rewire=0.1, seed=1,
                         average_utility=4.0, apl=None, connectivity=0.0,
                         matched_pairs=0, runtime_ms=0.75, stream="v1"),
    ]


def test_csv_output_frozen():
    buf = io.StringIO()
    results_to_csv(_tiny_results(), buf)
    assert buf.getvalue() == (
        "model,n,k,dep,p_rewire,seed,average_utility,apl,connectivity,matched_pairs\n"
        "ncn,10,2,3,0.1,0,5.5,2.5,0.9,4\n"
        "er,10,2,3,0.1,1,4.0,,0.0,0\n"
    )


def test_csv_excludes_runtime():
    assert "runtime" not in ",".join(CSV_FIELDS)


def test_json_output_includes_runtime_and_parses():
    payload = results_to_json(_tiny_results())
    text = json.dumps(payload)
    back = json.loads(text)
    assert back[0]["runtime_ms"] == 1.25
    assert back[1]["apl"] is None
    assert back[0]["model"] == "ncn"


def test_sweep_csv_identical_across_runs():
    cfg = ExperimentConfig(models=("ws", "ba"), n_values=(10,), k_values=(2,),
                           seeds=(0, 1, 2, 3))
    first, second = io.StringIO(), io.StringIO()
    results_to_csv(sweep(cfg), first)
    results_to_csv(sweep(cfg), second)
    assert first.getvalue() == second.getvalue()


def test_import_and_a_paper_scale_cell_never_load_numpy_random():
    # numpy.random costs setup time and resident memory; no stream uses it
    src = os.path.dirname(os.path.dirname(circlematch.__file__))
    code = ("import sys, circlematch; from circlematch import harness; "
            "harness.run_cell('er', 100, 4); print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def _module_level(tree: ast.Module):
    """The nodes a module runs when it is imported: everything outside the
    bodies of its functions."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.extend(ast.iter_child_nodes(node))


def test_no_module_of_the_library_imports_numpy_random_at_import():
    # numpy.random is loaded on first use, by the draws past paper scale only
    package = Path(circlematch.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 6
    for module in modules:
        for node in _module_level(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(name.startswith("numpy.random") for name in names), \
                f"{module.name}:{node.lineno} imports {names}"


def test_only_a_v2_draw_past_the_threshold_loads_numpy_random():
    src = os.path.dirname(os.path.dirname(circlematch.__file__))
    code = ("import sys; from circlematch import harness, market\n"
            "below = 2 * (market._TWISTER_HALF - 1)\n"
            "for n, stream in ((below, 'v2'), (2000, 'v1'), (2000, 'v2')):\n"
            "    harness.run_cell('er', n, 4, stream=stream)\n"
            "    print(n, stream, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    below = 2 * (_TWISTER_HALF - 1)
    assert out.split() == [str(below), "v2", "False", "2000", "v1", "False",
                           "2000", "v2", "True"]


def test_no_module_of_the_library_imports_scipy():
    # scipy is a test dependency only: every module under src/circlematch,
    # parsed, names it in no import statement
    package = Path(circlematch.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 6
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), \
                f"{module.name}:{node.lineno} imports {names}"


def test_paper_scale_cell_never_loads_scipy():
    src = os.path.dirname(os.path.dirname(circlematch.__file__))
    code = ("import sys, circlematch; from circlematch import harness; "
            "harness.run_cell('er', 100, 4); print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_shallow_cell_past_the_size_threshold_never_loads_scipy():
    src = os.path.dirname(os.path.dirname(circlematch.__file__))
    code = ("import sys; from circlematch import harness, topology; "
            "cell = harness.run_cell_full('er', 300, 4); dist = cell.dm.dist; "
            "report = topology.analyze(cell.graph); "
            "print(int(dist.max()), report.n, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split()[1:] == ["300", "False"]


def test_deep_cells_never_load_scipy():
    # the k=2 rings at n=2000 take the deep path, its summary, its dense
    # matrix and the report included; a spy counts the deep summaries
    src = os.path.dirname(os.path.dirname(circlematch.__file__))
    code = ("import sys; from circlematch import harness, topology\n"
            "deep, real = [], topology._deep_paths\n"
            "topology._deep_paths = lambda *a: deep.append(real(*a)) or deep[-1]\n"
            "for model in ('ws', 'ncn'):\n"
            "    cell = harness.run_cell_full(model, 2000, 2)\n"
            "    assert deep[-1] is cell.dm, model\n"
            "    dist = cell.dm.dist\n"
            "    report = topology.analyze(cell.graph)\n"
            "    print(model, int(dist.max()) == cell.dm.diameter(), report.n)\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.split() == ["ws", "True", "2000", "ncn", "True", "2000", "False"]
