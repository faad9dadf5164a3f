"""End-to-end acceptance checks for the whole simulator.

Each test prints one verdict line of the form

    [acceptance NN] <what is being checked>: PASS|FAIL (<measured numbers>)

and then asserts. The measured numbers appear in the line either way so a
red criterion still documents exactly what the build produced.
"""

import math
import statistics
import time

import pytest
from scipy.stats import pearsonr, spearmanr

from circlematch.harness import (
    ExperimentConfig,
    derive_seed,
    sweep,
)
from circlematch.market import (
    average_utility,
    build_market,
    classical_gs,
    is_stable,
    restricted_deferred_acceptance,
)
from circlematch.netgen import MODELS, generate_er, generate_ncn
from circlematch.topology import (
    UNREACHABLE,
    all_pairs_shortest,
    average_path_length,
    poisson_connectivity,
)

import random

from oracle import enumerate_stable_matchings, man_optimal
from refimpl import random_instance


SIZES = (20, 40, 60, 80, 100)


def report(capsys, number, label, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[acceptance {number:02d}] {label}: {verdict} ({detail})")
    assert passed, f"{label}: {detail}"


def mean_by_cell(rows, field="average_utility"):
    cells = {}
    for r in rows:
        cells.setdefault((r.model, r.n, r.k), []).append(getattr(r, field))
    return {key: statistics.fmean(vals) for key, vals in cells.items()}


@pytest.fixture(scope="module")
def size_sweep():
    """Every model at nominal degree 2 across all market sizes, 200
    replications per cell."""
    cfg = ExperimentConfig.replicated(MODELS, SIZES, (2,), 0, 200, stream="v1")
    return sweep(cfg)


@pytest.fixture(scope="module")
def degree_sweep():
    """Every model at market size 60 across nominal degrees, plus the
    complete-information baseline over the same market seeds."""
    cfg = ExperimentConfig.replicated(MODELS, (60,), (2, 4, 8, 16), 0, 100, stream="v1")
    rows = sweep(cfg)
    baseline = statistics.fmean(
        average_utility(market, classical_gs(market))
        for market in (build_market(60, random.Random(derive_seed(s, "market")), "v1")
                       for s in cfg.seeds))
    return rows, baseline


def test_01_restricted_matching_is_always_stable(capsys):
    start = time.perf_counter()
    checked = 0
    for seed in range(1000):
        inst = random_instance(seed, stream="v1")
        matching = restricted_deferred_acceptance(inst.market, inst.circle)
        assert is_stable(inst.market, inst.circle, matching), (
            f"unstable output on seed {seed}: {inst.model} n={inst.n} "
            f"k={inst.k} dep={inst.dep}")
        checked += 1
    elapsed = time.perf_counter() - start
    report(capsys, 1, "restricted matching stable on random instances",
           checked == 1000 and elapsed < 60.0,
           f"{checked}/1000 stable in {elapsed:.1f}s, limit 60s")


def test_02_matches_brute_force_enumeration(capsys):
    agree = 0
    for seed in range(200):
        inst = random_instance(seed, n_pool=(4, 6, 8), stream="v1")
        matching = restricted_deferred_acceptance(inst.market, inst.circle)
        stable = enumerate_stable_matchings(inst.market, inst.circle)
        assert matching.pairs in {m.pairs for m in stable}, f"seed {seed}"
        assert man_optimal(stable, inst.market).pairs == matching.pairs, f"seed {seed}"
        agree += 1
    report(capsys, 2, "agreement with exhaustive enumeration",
           agree == 200, f"{agree}/200 instances agree and are side-optimal")


def test_03_full_recognition_recovers_complete_information(capsys):
    collected = 0
    seed = 0
    while collected < 200:
        inst = random_instance(seed, stream="v1")
        seed += 1
        diameter = inst.dm.diameter()
        if diameter is None or (inst.dm.dist == UNREACHABLE).any():
            continue
        wide = all_pairs_shortest(inst.graph, diameter).circle
        matching = restricted_deferred_acceptance(inst.market, wide)
        classical = classical_gs(inst.market)
        assert matching.pairs == classical.pairs, f"seed {seed - 1}"
        assert len(matching.pairs) == inst.market.half, f"seed {seed - 1}"
        collected += 1
    report(capsys, 3, "depth equal to diameter recovers the classical result",
           collected == 200,
           f"{collected}/200 connected instances identical, all agents matched")


def paired_lead(rows, a, b, n):
    """Mean and standard error of model ``a`` minus model ``b`` at size ``n``,
    differenced seed by seed: at a fixed seed both models face the same
    market, so the difference removes the market's own variance."""
    utility = {(r.model, r.seed): r.average_utility for r in rows if r.n == n}
    diffs = [utility[(a, s)] - utility[(b, s)]
             for (model, s) in utility if model == a]
    return statistics.fmean(diffs), statistics.stdev(diffs) / math.sqrt(len(diffs))


def test_04_utility_separates_models_across_sizes(capsys, size_sweep):
    means = mean_by_cell(size_sweep)
    pairs = [("ba", "ncn"), ("ba", "er"), ("ba", "ws"), ("ws", "ncn"), ("ws", "er")]
    leads = {(n, a, b): paired_lead(size_sweep, a, b, n)
             for n in SIZES for a, b in pairs}
    # ba must lead clearly; ws need only not trail er or ncn, because the
    # paired ws leads sit within noise of zero at n >= 40.
    ba_clear = [key for key, (lead, se) in leads.items()
                if key[1] == "ba" and lead > 3 * se]
    ws_behind = [key for key, (lead, se) in leads.items()
                 if key[1] == "ws" and lead < -3 * se]
    ordered = len(ba_clear) == 3 * len(SIZES) and not ws_behind
    gaps = [means[("ba", n, 2)] - max(means[(m, n, 2)] for m in ("ncn", "er", "ws"))
            for n in SIZES]
    min_gap = min(gaps)
    per_size = "; ".join(
        f"n={n} " + ", ".join(f"{a}-{b} {leads[(n, a, b)][0]:+.2f}+-{leads[(n, a, b)][1]:.2f}"
                              for a, b in pairs)
        for n in SIZES)
    report(capsys, 4, "attachment-model dominance with a wide margin",
           ordered and min_gap >= 1.5,
           f"ba ahead by > 3 SE in {len(ba_clear)}/{3 * len(SIZES)} paired "
           f"comparisons, ws behind er or ncn by > 3 SE in {len(ws_behind)}/"
           f"{2 * len(SIZES)}; paired leads +- SE: {per_size}; "
           f"ba lead over best cell mean per row {[round(g, 2) for g in gaps]}, "
           f"required >= 1.5")


def test_05_utility_is_flat_in_market_size(capsys, size_sweep):
    means = mean_by_cell(size_sweep)
    spreads = {
        model: max(means[(model, n, 2)] for n in SIZES)
        - min(means[(model, n, 2)] for n in SIZES)
        for model in MODELS
    }
    worst = max(spreads.values())
    report(capsys, 5, "utility varies weakly with market size",
           worst < 1.5,
           "per-model spread over sizes "
           + ", ".join(f"{m}={spreads[m]:.2f}" for m in MODELS)
           + ", required < 1.5")


def test_06_utility_saturates_with_degree(capsys, degree_sweep):
    rows, baseline = degree_sweep
    means = mean_by_cell(rows)
    conns = mean_by_cell(rows, "connectivity")
    ks = (2, 4, 8, 16)
    monotone_ok = True
    for model in MODELS:
        series = [means[(model, 60, k)] for k in ks]
        drops = [max(0.0, a - b) for a, b in zip(series, series[1:])]
        inversions = [d for d in drops if d > 0]
        if len(inversions) > 1 or any(d > 0.3 for d in inversions):
            monotone_ok = False
    saturated = [(model, k) for model in MODELS for k in ks
                 if conns[(model, 60, k)] >= 0.99]
    deviation = max(abs(means[(m, 60, k)] - baseline) for m, k in saturated)
    report(capsys, 6, "utility rises with degree and saturates at the baseline",
           monotone_ok and deviation <= 0.5,
           f"monotone within tolerance: {monotone_ok}, "
           f"{len(saturated)} saturated cells within {deviation:.3f} of "
           f"baseline {baseline:.3f}, required <= 0.5")


def test_07_path_length_anticorrelates_with_connectivity(capsys):
    cfg = ExperimentConfig.replicated(MODELS, (100,), (2, 4, 6, 8, 10, 12), 0, 50,
                                      stream="v1")
    rows = sweep(cfg)
    spearman, pearson = {}, {}
    for model in MODELS:
        kept = [r for r in rows if r.model == model and r.apl is not None]
        apl = [r.apl for r in kept]
        conn = [r.connectivity for r in kept]
        # Rank correlation: connectivity falls hyperbolically, not linearly,
        # in path length (on the ring, apl ~ n/(2k) while connectivity ~
        # 3k/(n-1)), so Pearson understates a strictly monotone relation.
        spearman[model] = float(spearmanr(apl, conn).statistic)
        pearson[model] = float(pearsonr(apl, conn).statistic)
    # A constant series gives NaN, which fails the comparison.
    passed = all(rho <= -0.8 for rho in spearman.values())
    report(capsys, 7, "path length against connectivity, per model",
           passed,
           "spearman " + ", ".join(f"{m}={spearman[m]:.3f}" for m in MODELS)
           + ", required <= -0.8; pearson "
           + ", ".join(f"{m}={pearson[m]:.3f}" for m in MODELS))


def test_08_path_length_scaling_laws(capsys):
    ring_ratio = (
        average_path_length(all_pairs_shortest(generate_ncn(100, 2), 3))
        / average_path_length(all_pairs_shortest(generate_ncn(50, 2), 3)))
    ring_ok = abs(ring_ratio - 2.0) <= 0.1

    apls = []
    for seed in range(20):
        g = generate_er(1000, 5000, random.Random(seed))
        apls.append(average_path_length(all_pairs_shortest(g, 3)))
    er_apl = statistics.fmean(apls)
    er_expected = math.log(1000) / math.log(10)
    er_ok = abs(er_apl - er_expected) <= 0.3 * er_expected
    report(capsys, 8, "ring growth and random-graph log scaling",
           ring_ok and er_ok,
           f"ring apl ratio {ring_ratio:.4f} vs 2.0 +- 0.1; "
           f"random apl {er_apl:.3f} vs {er_expected:.3f} +- 30%")


def test_09_series_predictor_value_and_decay(capsys):
    dep = 3
    frozen = poisson_connectivity(1, dep)
    value_ok = abs(frozen - 0.6131) <= 1e-4
    grid = [0.5 * i for i in range(1, 11)]
    series = [poisson_connectivity(lam, dep) for lam in grid]
    # The derivative is exp(-lam) * (1 - lam**dep / dep!), zero at the peak.
    peak = math.factorial(dep) ** (1 / dep)
    rising = [v for lam, v in zip(grid, series) if lam < peak]
    falling = [v for lam, v in zip(grid, series) if lam >= peak]
    rises = all(a < b for a, b in zip(rising, rising[1:]))
    decays = all(a > b for a, b in zip(falling, falling[1:]))
    report(capsys, 9, "series predictor value, rise and strict decay past the peak",
           value_ok and rises and decays,
           f"value {frozen:.6f} vs 0.6131 +- 1e-4; peak at lambda {peak:.3f}; "
           f"{len(rising)} grid points before it "
           + ("strictly rising" if rises else "not rising")
           + f", {len(falling)} at or past it "
           + ("strictly decreasing" if decays else "not decreasing")
           + f"; series over {grid[0]}..{grid[-1]}: "
           + ", ".join(f"{v:.3f}" for v in series))


def test_10_sweeps_are_byte_identical(capsys, tmp_path):
    from circlematch.cli import main
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--n", "12", "20", "--k", "2", "--reps", "3", "--stream", "v1"]
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    same = first.read_bytes() == second.read_bytes()
    report(capsys, 10, "identical configs produce identical output bytes",
           same, f"{first.stat().st_size} bytes compared equal: {same}")
