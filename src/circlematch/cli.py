"""Command-line interface: generate graphs, report metrics, run matchings
and experiment sweeps.

Exit codes: 0 on success, 2 on invalid parameters or sizes that do not fit
in memory, 3 on I/O failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import harness, netgen
from .market import DEFAULT_STREAM, STREAMS, matching_to_dict
from .netgen import MODELS
from .topology import analyze


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _add_graph_args(parser: argparse.ArgumentParser, *, model_required: bool = True) -> None:
    parser.add_argument("--model", choices=MODELS, required=model_required,
                        help="network model")
    parser.add_argument("--n", type=int, required=model_required, help="number of nodes")
    parser.add_argument("--k", type=int, required=model_required,
                        help="nominal average degree (even)")


def _add_stream_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stream", choices=STREAMS, default=DEFAULT_STREAM,
                        help=f"preference stream (default {DEFAULT_STREAM}): v1 shuffles each "
                             "rank list bit for bit as random.shuffle; v2 sorts random keys: "
                             "at n=2000 it draws a market about 6 times as fast")


def _build_graph(args: argparse.Namespace) -> netgen.Graph:
    return harness.cell_graph(args.model, args.n, args.k, args.seed, args.p_rewire)


def _cmd_generate(args: argparse.Namespace) -> None:
    graph = _build_graph(args)
    buf = io.StringIO()
    netgen.write_edge_list(graph, buf)
    _write_output(buf.getvalue(), args.out)


def _cmd_metrics(args: argparse.Namespace) -> None:
    if args.infile is not None:
        graph = netgen.read_edge_list(args.infile)
        linked = np.unique(graph.edges).size  # nodes with an edge; needs no n-sized array
        harness.check_graph_fits(graph.n, graph.m, graph.n - linked)
    else:
        if args.model is None or args.n is None or args.k is None:
            raise ValueError("metrics needs either --in FILE or --model/--n/--k")
        harness.check_graph_fits(args.n, args.n * args.k // 2)
        graph = _build_graph(args)
    report = analyze(graph, args.dep)
    _write_output(json.dumps(report.to_dict(), indent=2) + "\n", args.out)


def _cmd_match(args: argparse.Namespace) -> None:
    # the checks of a one-cell sweep, so that a bad size, degree or depth draws nothing
    harness.ExperimentConfig((args.model,), (args.n,), (args.k,), (args.seed,), args.dep,
                             args.p_rewire, args.stream)
    run = harness.run_cell_full(args.model, args.n, args.k, args.dep,
                                args.seed, args.p_rewire, args.stream)
    payload = {**matching_to_dict(run.market, run.dm, run.matching), "stream": args.stream}
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)


def _emit_results(results, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(harness.results_to_json(results), indent=2) + "\n"
    else:
        buf = io.StringIO()
        harness.results_to_csv(results, buf)
        text = buf.getvalue()
    _write_output(text, args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    config = harness.ExperimentConfig.replicated(
        args.model, args.n, args.k, args.seed, args.reps,
        dep=args.dep, p_rewire=args.p_rewire, stream=args.stream)
    _emit_results(harness.sweep(config), args)


def _cmd_preset(args: argparse.Namespace) -> None:
    config = args.preset(args.reps, args.seed, dep=args.dep, p_rewire=args.p_rewire)
    _emit_results(harness.sweep(config), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circlematch",
        description="Stable matching restricted to social circles on structured networks.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command takes these; main checks --seed and --p-rewire before running it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p-rewire", type=float, default=0.1,
                        help="rewiring probability for ws (default 0.1)")
    common.add_argument("--seed", type=int, default=0,
                        help="master seed, or a sweep's first seed (default 0)")
    common.add_argument("--out", help="output path (default stdout)")
    with_depth = argparse.ArgumentParser(add_help=False, parents=[common])
    with_depth.add_argument("--dep", type=int, default=3, help="recognition depth (default 3)")
    sweeping = argparse.ArgumentParser(add_help=False, parents=[with_depth])
    sweeping.add_argument("--reps", type=int, default=50,
                          help="replications per cell (default 50)")
    sweeping.add_argument("--format", choices=("csv", "json"), default="csv",
                          help="output format (default csv)")

    p_gen = sub.add_parser("generate", parents=[common],
                           help="emit an edge list for one generated graph")
    _add_graph_args(p_gen)
    p_gen.set_defaults(func=_cmd_generate)

    p_met = sub.add_parser("metrics", parents=[with_depth],
                           help="topology report for a graph (JSON)")
    p_met.add_argument("--in", dest="infile", help="read an edge-list file instead of generating")
    _add_graph_args(p_met, model_required=False)
    p_met.set_defaults(func=_cmd_metrics)

    p_match = sub.add_parser("match", parents=[with_depth],
                             help="run one matching and print it as JSON")
    _add_graph_args(p_match)
    _add_stream_arg(p_match)
    p_match.set_defaults(func=_cmd_match)

    p_sweep = sub.add_parser("sweep", parents=[sweeping], help="run a full experiment grid")
    p_sweep.add_argument("--model", nargs="+", choices=MODELS, default=list(MODELS),
                         help="models to include (default: all four)")
    p_sweep.add_argument("--n", nargs="+", type=int, required=True, help="market sizes")
    p_sweep.add_argument("--k", nargs="+", type=int, required=True, help="nominal degrees")
    _add_stream_arg(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    presets = (
        ("table2", harness.table2_config, "utility by model and market size (k=2)"),
        ("fig1", harness.table2_config, "utility versus market size (table2's grid)"),
        ("fig2", harness.fig2_config, "utility versus nominal degree (n=60)"),
        ("fig3-6", harness.fig36_config, "path length and connectivity versus degree (n=100)"),
    )
    for name, config_fn, help_text in presets:
        p_preset = sub.add_parser(name, parents=[sweeping], help=help_text)
        p_preset.set_defaults(func=_cmd_preset, preset=config_fn)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        harness.check_seed_and_rewiring(args.seed, args.p_rewire)
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
