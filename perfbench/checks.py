"""Correctness gate and per-cell counts, both computed outside the timers."""

from __future__ import annotations

import hashlib
import io
from contextlib import redirect_stdout

import numpy as np

from circlematch import cli
from circlematch.harness import CellRun
from circlematch.market import is_stable
from circlematch.topology import UNREACHABLE, reachable_pairs

# sha256 prefixes of `circlematch <preset> --reps 5` stdout at seed 0. They pin
# the random stream and the CSV bytes; a change to them must be explained.
PRESET_DIGESTS = {
    "table2": "799a6577f3761fb7",
    "fig2": "c8d449aca72bb807",
    "fig3-6": "7c3c89a58298c11a",
}


def check_cell(run: CellRun) -> list[str]:
    """Names of the checks one cell fails: its matching must be stable within
    the circle, pair only agents inside the circle, and agree with the
    reported pair count."""
    failures = []
    pairs = run.matching.pairs
    if run.result.matched_pairs != len(pairs):
        failures.append("matched_pairs")
    if not all(run.circle.contains(w, m) for w, m in pairs):
        failures.append("outside_circle")
    if not is_stable(run.market, run.circle, run.matching):
        failures.append("unstable")
    return failures


def check_presets() -> list[str]:
    """Presets whose seed-0 ``--reps 5`` stdout no longer has its digest."""
    failures = []
    for preset, want in PRESET_DIGESTS.items():
        out = io.StringIO()
        try:
            with redirect_stdout(out):
                code = cli.main([preset, "--reps", "5"])
        except Exception as exc:  # a crash is reported like a wrong digest
            failures.append(f"{preset}: raised {exc!r}")
            continue
        got = hashlib.sha256(out.getvalue().encode("ascii")).hexdigest()[:16]
        if code != 0 or got != want:
            failures.append(f"{preset}: exit {code}, sha256 {got}, expected {want}")
    return failures


def cell_counts(run: CellRun) -> dict[str, float]:
    """Work counts of one cell, read from its artifacts."""
    market, dm = run.market, run.dm
    n, h = market.n, market.half
    cross = dm.dist[np.ix_(market.men, market.women)]
    candidates = ((cross != UNREACHABLE) & (cross <= run.circle.dep)).sum(axis=1)
    matched = len(run.matching.pairs)
    return {
        "market.rank_entries": n * h,
        "market.circle_pairs": int(candidates.sum()),
        "market.cand_len_mean": float(candidates.mean()),
        "market.cand_len_max": int(candidates.max()),
        "market.matched_pairs": matched,
        "market.match_rate": matched / h,
        "topology.bfs_levels": dm.diameter() or 0,
        "topology.reachable_pairs": reachable_pairs(dm),
        # the int32 result plus scipy's float64 matrix it is converted from
        "topology.dist_bytes_computed": dm.dist.nbytes + n * n * 8,
        "netgen.edges": run.graph.m,
    }
