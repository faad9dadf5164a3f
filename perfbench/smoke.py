"""Smoke check of the benchmark itself (``run.py --smoke``).

Runs every workload of BENCHMARK.json at the --tiny size, untraced and
traced, each in its own process, and checks the printed result: every named
metric present with its declared unit and a finite value, no failed cell.
Then corrupts a correct matching in two ways and checks that the gate trips.
"""

from __future__ import annotations

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _check_run(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    printed = {name: m.get("unit") for name, m in metrics.items()}
    if printed != declared:
        problems.append(f"{where}: printed {printed}, declared {declared}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r}")
    # The layers' self times must account for the whole traced cell time.
    shares = sum(m["value"] for name, m in metrics.items() if name.endswith("_share"))
    if trace and not math.isclose(shares, 1.0, rel_tol=1e-9):
        problems.append(f"{where}: layer shares sum to {shares}")
    return problems


def _check_gate() -> list[str]:
    from checks import check_cell
    from circlematch import Matching, harness

    run = harness.run_cell_full("er", 200, 4, 3, 0)
    problems = []
    if check_cell(run):
        problems.append(f"gate rejects a correct cell: {check_cell(run)}")
    pairs = list(run.matching.pairs)

    # Unpairing a matched couple leaves two agents who know and want each other.
    dropped = dataclasses.replace(run, matching=Matching.from_pairs(pairs[1:]))
    if {"matched_pairs", "unstable"} - set(check_cell(dropped)):
        problems.append(f"dropping a pair gave {check_cell(dropped)}")

    swap = next(((a, b) for a in range(len(pairs)) for b in range(a + 1, len(pairs))
                 if not run.circle.contains(pairs[a][0], pairs[b][1])), None)
    if swap is None:
        return problems + ["no partner swap leaves the circle"]
    a, b = swap
    (wa, ma), (wb, mb) = pairs[a], pairs[b]
    pairs[a], pairs[b] = (wa, mb), (wb, ma)
    swapped = dataclasses.replace(run, matching=Matching.from_pairs(pairs))
    if "outside_circle" not in check_cell(swapped):
        problems.append(f"swapping partners out of the circle gave {check_cell(swapped)}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            found = _check_run(workload["name"], trace, declared)
            print(f"# {workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}",
                  file=sys.stderr)
            problems += found
    problems += _check_gate()
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)", file=sys.stderr)
    return 1 if problems else 0
