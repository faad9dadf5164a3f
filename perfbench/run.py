"""circlematch benchmark: seeded sweeps of cells, timed end to end and per layer.

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from any directory of a source checkout; the library is imported from the
checkout's ``src/``. One workload runs per process, single-threaded, as a
closed loop with one caller: each cell (``harness.run_cell_full``) starts
after the previous one returned, as in ``harness.sweep``. Work is done in
passes; every pass ends with one ``harness.results_to_csv`` of its cells, and
the run stops after the first whole pass at which ``--seconds`` of timed work
is reached. Every cell is checked by the correctness gate, and the preset
digests are checked once per run; both happen outside the timers.

``--trace 0`` prints the end-to-end metrics, with times in reference
seconds: scaled by the host's speed, sampled during the work (``speed.py``).
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: per-cell median self times and shares from spans around the library
calls, counts from the first pass's cells, and the tracing overhead. The
last stdout line is one JSON object; diagnostics go to stderr. The exit code
is 0 when every check passed, 1 when one failed and 2 when the library cannot
be imported.
"""

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# Single-threaded BLAS/OpenMP for this process and the interpreters it starts.
# Set at load time: numpy reads them when import_problem() first imports it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"

SETUP_INTERPRETERS = 5
SMALL_N = 200  # market size of the two n=2000 workloads under --tiny

END_TO_END_UNITS = {
    "cells_per_ref_s": "cells/s",
    "cell_ref_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
COUNT_UNITS = {
    "market.rank_entries": "count",
    "market.circle_pairs": "count",
    "market.cand_len_mean": "count",
    "market.cand_len_max": "count",
    "market.matched_pairs": "count",
    "market.match_rate": "ratio",
    "topology.bfs_levels": "count",
    "topology.reachable_pairs": "count",
    "topology.dist_bytes_computed": "B",
    "netgen.edges": "count",
}


def import_problem() -> str | None:
    """Import circlematch from this checkout's src/; say why that failed."""
    sys.path.insert(0, str(SRC))
    try:
        import circlematch
    except ImportError as exc:
        return f"cannot import circlematch from {SRC}: {exc}"
    if Path(circlematch.__file__).resolve().parent != SRC / "circlematch":
        return f"circlematch resolved to {circlematch.__file__}, not {SRC}"
    return None


def paper_grid_pass(seed: int, index: int, tiny: bool) -> list[tuple]:
    """The table2, fig2 and fig3-6 grids at 5 reps (1 under --tiny), in sweep
    order; pass ``index`` takes the next block of master seeds."""
    from circlematch import harness
    reps = 1 if tiny else 5
    cells = []
    for preset in (harness.table2_config, harness.fig2_config, harness.fig36_config):
        cfg = preset(reps, seed + index * reps)
        cells += [(model, n, k, cfg.dep, s, cfg.p_rewire)
                  for model in cfg.models for n in cfg.n_values
                  for k in cfg.k_values for s in cfg.seeds]
    return cells


def alternating(models: tuple[str, ...], n: int, k: int):
    """One cell per model per pass, each with the next master seed."""
    def make_pass(seed: int, index: int, tiny: bool) -> list[tuple]:
        size = SMALL_N if tiny else n
        return [(model, size, k, 3, seed + index * len(models) + i, 0.1)
                for i, model in enumerate(models)]
    return make_pass


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    "paper-grid": paper_grid_pass,
    "large-random": alternating(("er", "ba"), 2000, 4),
    "long-ring": alternating(("ncn", "ws"), 2000, 2),
}


# A fresh interpreter imports circlematch with the speed sampler running, then
# takes three more samples so that even a very short import gets a speed.
SETUP_CHILD = """
import statistics, sys
from speed import SpeedSampler
with SpeedSampler() as sampler:
    import circlematch
for _ in range(3):
    sampler.sample()
if circlematch.__file__ != sys.argv[1]:
    sys.exit(f"imported {circlematch.__file__}")
print(sampler.spent, statistics.median(d for _, d in sampler.samples))
"""


def measure_setup(interpreters: int) -> float:
    """Median time, in reference seconds, for a fresh interpreter to import
    circlematch."""
    from speed import REF_S
    init = str(SRC / "circlematch" / "__init__.py")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times = []
    for _ in range(interpreters):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, init], env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=60)
        wall = perf_counter() - start
        spent, median_sample = map(float, proc.stdout.split())
        times.append((wall - spent) * REF_S / median_sample)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def per_layer_units() -> dict[str, str]:
    from spans import LAYERS
    units = {}
    for layer in LAYERS:
        units[f"{layer}_ms"] = "ms"
        units[f"{layer}_share"] = "ratio"
    units["harness.csv_ms"] = "ms"
    units.update(COUNT_UNITS)
    units["trace_overhead_frac"] = "ratio"
    return units


def model_p50(returned: list[tuple[int, str]], seconds: list[float]) -> float:
    """Geometric mean over network models of each model's median cell time.

    The n=2000 workloads alternate two models whose cells differ in time, and
    a run holds only about ten cells; the median of all of them would fall
    between the two groups and jump with the slowest cell of the faster one.
    """
    by_model: dict[str, list[float]] = {}
    for i, model in returned:
        by_model.setdefault(model, []).append(seconds[i])
    return statistics.geometric_mean(statistics.median(v) for v in by_model.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    from checks import PRESET_DIGESTS, cell_counts, check_cell, check_presets
    from circlematch import harness
    from spans import CELL_SPAN, CSV_SPAN, Tracer
    from speed import SpeedSampler, scale

    make_pass = WORKLOADS[name]
    log = sys.stderr
    print(f"# {name} seed={seed} seconds={seconds} trace={int(trace)} tiny={tiny} "
          f"env={json.dumps(environment())}", file=log)

    preset_failures = check_presets()
    for failure in preset_failures:
        print(f"# preset digest failed: {failure}", file=log)
    setup_s = None if trace else measure_setup(1 if tiny else SETUP_INTERPRETERS)
    # Untimed warm-up of the code paths; nothing in the library warms up by size.
    harness.run_cell_full(*make_pass(seed, 0, True)[0])

    tracer = Tracer()
    sampler = SpeedSampler()
    # (start, end, seconds) of every untraced cell and CSV write, the seconds
    # net of speed samples; the segment index and model of each cell that
    # returned a run
    segments: list[tuple[float, float, float]] = []
    returned: list[tuple[int, str]] = []
    first_pass_counts: list[dict] = []
    verified = {False: 0, True: 0}  # keyed by "the pass was traced"
    timed = {False: 0.0, True: 0.0}
    cells = failed_cells = 0
    index = 0

    def timed_call(traced: bool, span_name: str, fn, *args):
        """Call ``fn`` in the timed region; its seconds are counted even
        when it raises."""
        spent, start = sampler.spent, perf_counter()
        try:
            with tracer.span(span_name) if traced else nullcontext():
                return fn(*args)
        finally:
            end = perf_counter()
            seconds = end - start - (sampler.spent - spent)
            timed[traced] += seconds
            if not traced:
                segments.append((start, end, seconds))

    with nullcontext() if trace else sampler:
        sampler.sample()  # a speed even if the timed work ends before the first tick
        while True:
            traced = trace and index % 2 == 1
            results = []
            with tracer.installed() if traced else nullcontext():
                for cell in make_pass(seed, index, tiny):
                    cells += 1
                    tracer.cell = cells
                    try:
                        run = timed_call(traced, CELL_SPAN, harness.run_cell_full, *cell)
                    except Exception as exc:  # a crashing cell fails; the loop goes on
                        failed_cells += 1
                        print(f"# cell {cell} raised {exc!r}", file=log)
                        continue
                    if not traced:
                        returned.append((len(segments) - 1, cell[0]))
                    problems = check_cell(run)
                    if problems:
                        failed_cells += 1
                        print(f"# cell {cell} failed {problems}", file=log)
                    else:
                        verified[traced] += 1
                        results.append(run.result)
                    if index == 0:
                        first_pass_counts.append(cell_counts(run))
                    del run  # only one cell's n x n structures alive at a time
                tracer.cell = None
                timed_call(traced, CSV_SPAN, harness.results_to_csv, results, io.StringIO())
            index += 1
            if sum(timed.values()) >= seconds and (not trace or index >= 2):
                break
    print(f"# passes={index} cells={cells} failed_cells={failed_cells} "
          f"failed_cell_frac={failed_cells / cells}", file=log)

    if trace:
        metrics = tracer.layer_metrics()
        for key in COUNT_UNITS:
            metrics[key] = statistics.fmean(c[key] for c in first_pass_counts)
        untraced_rate = verified[False] / timed[False]
        traced_rate = verified[True] / timed[True]
        metrics["trace_overhead_frac"] = untraced_rate / traced_rate - 1.0
        path = SPANS_DIR / f"spans-{name}-seed{seed}.json"
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {path}", file=log)
        units = per_layer_units()
    else:
        ref_seconds = scale(segments, sampler.samples)
        ref_latencies = [ref_seconds[i] for i, _ in returned]
        metrics = {
            "cells_per_ref_s": verified[False] / sum(ref_seconds),
            "cell_ref_ms_p50": model_p50(returned, ref_seconds) * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": setup_s,
        }
        samples = [d for _, d in sampler.samples]
        print(f"# wall: cells_per_s={verified[False] / timed[False]} "
              f"cell_ms_p50={model_p50(returned, [seg[2] for seg in segments]) * 1000.0}; "
              f"{len(samples)} speed samples, median {statistics.median(samples) * 1e3} ms, "
              f"{sum(samples) / (sum(samples) + timed[False]):.4f} of the timed wall time",
              file=log)
        if len(ref_latencies) >= 100:  # at least 10 cells beyond p90
            p90 = statistics.quantiles(ref_latencies, n=10)[-1] * 1000.0
            print(f"# cell_ref_ms_p90={p90} ms over {len(ref_latencies)} cells", file=log)
        units = END_TO_END_UNITS
    # The preset digest checks count as attempted work next to the cells.
    failed = failed_cells + len(preset_failures)
    return {
        "correct": failed == 0,
        "attempted": cells + len(PRESET_DIGESTS),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="paper-grid at 1 rep and n=200 elsewhere, one set-up interpreter")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload --tiny and check metrics and the gate")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    problem = import_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.smoke:
        import smoke
        return smoke.main()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
