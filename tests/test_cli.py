"""Command-line entry points, exercised in-process through main()."""

import csv
import io
import json

import networkx as nx
import pytest

from circlematch import cli, harness
from circlematch.cli import main
from circlematch.netgen import read_edge_list
from circlematch.topology import analyze

CYCLE6_TEXT = "6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ generate

def test_generate_cycle_to_stdout(capsys):
    code, out, err = run_cli(capsys, "generate", "--model", "ncn", "--n", "6", "--k", "2")
    assert code == 0
    assert out == CYCLE6_TEXT
    assert err == ""


def test_generate_to_file(tmp_path, capsys):
    target = tmp_path / "graph.txt"
    code, out, _ = run_cli(capsys, "generate", "--model", "er", "--n", "10",
                           "--k", "2", "--seed", "5", "--out", str(target))
    assert code == 0 and out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "10 10"
    assert len(lines) == 11


def test_generate_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "generate", "--model", "ba", "--n", "12",
                          "--k", "2", "--seed", "3")
    _, second, _ = run_cli(capsys, "generate", "--model", "ba", "--n", "12",
                           "--k", "2", "--seed", "3")
    assert first == second


@pytest.mark.parametrize("model", ["er", "ws", "ba"])
def test_generate_and_metrics_draw_the_graph_match_uses(capsys, model):
    args = ("--model", model, "--n", "10", "--k", "2", "--seed", "1")
    run = harness.run_cell_full(model, 10, 2, seed=1)
    _, out, _ = run_cli(capsys, "generate", *args)
    assert read_edge_list(io.StringIO(out)) == run.graph
    _, out, _ = run_cli(capsys, "metrics", *args)
    assert json.loads(out) == json.loads(json.dumps(analyze(run.graph).to_dict()))


# ------------------------------------------------------------------- metrics

def test_metrics_from_file(tmp_path, capsys):
    source = tmp_path / "cycle.txt"
    source.write_text(CYCLE6_TEXT)
    code, out, _ = run_cli(capsys, "metrics", "--in", str(source))
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 6
    assert report["m"] == 6
    assert report["average_degree"] == 2.0
    assert report["apl"] == pytest.approx(1.8)
    assert report["connectivity"] == pytest.approx(1.0)
    assert report["dep"] == 3


def test_metrics_on_a_single_node_has_no_pairs(tmp_path, capsys):
    source = tmp_path / "one.txt"
    source.write_text("1 0\n")
    code, out, err = run_cli(capsys, "metrics", "--in", str(source))
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["n"] == 1
    assert report["apl"] is None
    assert report["connectivity"] is None
    assert report["reachable_pairs"] == 0


def test_metrics_generated_with_depth_flag(capsys):
    code, out, _ = run_cli(capsys, "metrics", "--model", "ncn", "--n", "6",
                           "--k", "2", "--dep", "1")
    assert code == 0
    assert json.loads(out)["connectivity"] == pytest.approx(0.4)


def test_metrics_without_source_fails(capsys):
    code, _, err = run_cli(capsys, "metrics")
    assert code == 2
    assert "error" in err


def test_metrics_parse_error_names_the_line(tmp_path, capsys):
    source = tmp_path / "bad.txt"
    source.write_text("3 1\n0 x\n")
    code, _, err = run_cli(capsys, "metrics", "--in", str(source))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("data", [
    pytest.param(b"3 1\n-1 2\n", id="negative-id"),
    pytest.param(b"3 1\n0 1 2\n", id="extra-field"),
    pytest.param("3 1\n0 \u00e9\n".encode("utf-8"), id="non-ascii-bytes"),
    pytest.param(b"3 1\n0 \xff\n", id="not-utf-8"),
])
def test_metrics_rejects_adversarial_edge_lists(tmp_path, capsys, data):
    source = tmp_path / "bad.txt"
    source.write_bytes(data)
    code, out, err = run_cli(capsys, "metrics", "--in", str(source))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("node", [2 ** 70, -2 ** 70])
def test_metrics_rejects_ids_beyond_64_bits(tmp_path, capsys, node):
    source = tmp_path / "wide.txt"
    source.write_text(f"3 1\n0 {node}\n")
    code, out, err = run_cli(capsys, "metrics", "--in", str(source))
    assert (code, out) == (2, "")
    u, v = sorted((0, node))
    assert err == f"error: edge ({u}, {v}) outside 0..2\n"


@pytest.mark.parametrize("source, args, err", [
    ("3000000 0\n", (), "a graph of 3000000 nodes and 0 edges needs about 6286.4 GiB"),
    (None, ("--model", "er", "--n", "3000000", "--k", "2"),
     "a graph of 3000000 nodes and 3000000 edges needs about 7334.2 GiB"),
])
def test_metrics_checks_the_graph_fits_before_the_search(tmp_path, capsys, monkeypatch,
                                                          source, args, err):
    def refuse(*args, **kwargs):
        raise AssertionError("a network was generated or searched")

    monkeypatch.setattr(cli, "analyze", refuse)
    monkeypatch.setattr(harness, "cell_graph", refuse)
    monkeypatch.setattr(harness, "_available_bytes", lambda: 8 * 2 ** 30)
    if source is not None:
        (tmp_path / "huge.txt").write_text(source)
        args = ("--in", str(tmp_path / "huge.txt"))
    code, out, message = run_cli(capsys, "metrics", *args)
    assert (code, out) == (2, "")
    assert message == f"error: {err}, more than the 8.0 GiB available\n"


def test_metrics_missing_file_gives_io_exit_code(capsys):
    code, _, err = run_cli(capsys, "metrics", "--in", "/no/such/file.txt")
    assert code == 3
    assert "error" in err


# --------------------------------------------------------------------- match

def test_match_reports_a_stable_assignment(capsys):
    code, out, _ = run_cli(capsys, "match", "--model", "ncn", "--n", "12",
                           "--k", "4", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"pairs", "unmatched_women", "unmatched_men",
                            "average_utility", "stream"}
    assert payload["stream"] == "v2"
    assert payload["pairs"], "a dozen agents on a dense ring should pair up"
    for pair in payload["pairs"]:
        assert pair["distance"] <= 3
    matched = 2 * len(payload["pairs"])
    assert matched + len(payload["unmatched_women"]) + len(payload["unmatched_men"]) == 12


@pytest.mark.parametrize("model, k", [("ncn", 2), ("er", 4)])
def test_match_distances_agree_with_networkx(capsys, model, k):
    # ncn at k=2 is deep enough for the scipy path; er takes the bit-parallel one
    code, out, _ = run_cli(capsys, "match", "--model", model, "--n", "300", "--k", str(k))
    assert code == 0
    pairs = json.loads(out)["pairs"]
    assert pairs
    graph = nx.Graph(harness.cell_graph(model, 300, k, 0, 0.1).edges.tolist())
    for pair in pairs:
        expected = nx.shortest_path_length(graph, pair["woman"], pair["man"])
        assert pair["distance"] == expected <= 3


def test_match_deterministic(capsys):
    args = ("match", "--model", "ws", "--n", "10", "--k", "2", "--seed", "7")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_match_rejects_odd_k(capsys):
    code, _, err = run_cli(capsys, "match", "--model", "ncn", "--n", "10", "--k", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("command", ["generate", "metrics", "match", "sweep"])
@pytest.mark.parametrize("flag,value,message", [
    ("--seed", "-1", "seeds must fit in 64 bits, got -1"),
    ("--seed", str(2 ** 64), f"seeds must fit in 64 bits, got {2 ** 64}"),
    ("--p-rewire", "2", "rewiring probability must be in [0, 1], got 2.0"),
    ("--p-rewire", "-1", "rewiring probability must be in [0, 1], got -1.0"),
])
def test_out_of_range_seed_or_rewiring_is_rejected_by_every_command(
        capsys, command, flag, value, message):
    code, out, err = run_cli(capsys, command, "--model", "ncn", "--n", "10", "--k", "2",
                             flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_size_beyond_memory_exits_with_invalid_parameter_code(capsys, monkeypatch):
    def out_of_memory(n, rng, stream):
        raise MemoryError(f"Unable to allocate the rank lists of {n} agents")

    monkeypatch.setattr(harness, "build_market", out_of_memory)
    # where MemAvailable cannot be read, the MemoryError of the draw decides
    monkeypatch.setattr(harness, "_available_bytes", lambda: None)
    code, out, err = run_cli(capsys, "match", "--model", "er", "--n", "400000", "--k", "4")
    assert (code, out) == (2, "")
    assert err.startswith("error: not enough memory") and "400000 agents" in err


# --------------------------------------------------------------------- sweep

def test_sweep_csv_shape(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--model", "ncn", "er",
                           "--n", "8", "12", "--k", "2", "--reps", "3")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["model", "n", "k", "dep", "p_rewire", "seed",
                       "average_utility", "apl", "connectivity", "matched_pairs", "stream"]
    assert len(rows) == 1 + 2 * 2 * 1 * 3
    assert {row[-1] for row in rows[1:]} == {"v2"}
    # stream v1 writes the schema without the stream column
    code, out, _ = run_cli(capsys, "sweep", "--model", "ncn", "er",
                           "--n", "8", "12", "--k", "2", "--reps", "3", "--stream", "v1")
    assert code == 0
    assert out.splitlines()[0] == ",".join(rows[0][:-1])


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--model", "ba", "--n", "8",
                           "--k", "2", "--reps", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert {"model", "seed", "average_utility", "runtime_ms"} <= set(payload[0])


def test_sweep_to_file(tmp_path, capsys):
    target = tmp_path / "results.csv"
    code, out, _ = run_cli(capsys, "sweep", "--model", "ncn", "--n", "8",
                           "--k", "2", "--reps", "2", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("model,")


def test_sweep_rejects_unusable_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "ncn", "--n", "9",
                           "--k", "2", "--reps", "1")
    assert code == 2
    assert "error" in err


def test_sweep_checks_every_network_before_running_a_cell(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran, a market was drawn or a network generated")

    for name in ("run_cell", "build_market", "cell_graph"):
        monkeypatch.setattr(harness, name, refuse)
    code, out, err = run_cli(capsys, "sweep", "--n", "200", "4", "--k", "4",
                             "--model", "er", "--reps", "1")
    assert (code, out) == (2, "")
    assert err == "error: edge count 8 out of range for 4 nodes (max 6)\n"


def test_sweep_checks_every_size_fits_before_running_a_cell(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell ran or a market was drawn")

    monkeypatch.setattr(harness, "run_cell", refuse)
    monkeypatch.setattr(harness, "build_market", refuse)
    monkeypatch.setattr(harness, "_available_bytes", lambda: 8 * 2 ** 30)
    code, out, err = run_cli(capsys, "sweep", "--n", "20", "10000000", "--k", "2",
                             "--model", "er", "--reps", "3")
    assert (code, out) == (2, "")
    assert err == ("error: market size 10000000 needs about 640284.5 GiB, "
                   "more than the 8.0 GiB available\n")


def test_match_checks_the_size_fits_before_drawing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a market was drawn or a network generated")

    monkeypatch.setattr(harness, "build_market", refuse)
    monkeypatch.setattr(harness, "cell_graph", refuse)
    monkeypatch.setattr(harness, "_available_bytes", lambda: 8 * 2 ** 30)
    code, out, err = run_cli(capsys, "match", "--model", "er", "--n", "10000000", "--k", "4")
    assert (code, out) == (2, "")
    assert err == ("error: market size 10000000 needs about 663567.6 GiB, "
                   "more than the 8.0 GiB available\n")


@pytest.mark.parametrize("flags, message", [
    (("--k", "3"), "nominal degree must be even and >= 2, got 3"),
    (("--k", "4", "--dep", "0"), "recognition depth must be >= 1, got 0"),
])
def test_match_checks_degree_and_depth_before_drawing(capsys, monkeypatch, flags, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a market was drawn or a network generated")

    monkeypatch.setattr(harness, "build_market", refuse)
    monkeypatch.setattr(harness, "cell_graph", refuse)
    code, out, err = run_cli(capsys, "match", "--model", "er", "--n", "6000", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", [
    ["match", "--model", "er", "--n", "10", "--k", "2"],
    ["sweep", "--n", "10", "--k", "2"],
])
def test_unknown_stream_exits_with_invalid_parameter_code(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--stream", "v3"])
    assert exc.value.code == 2
    assert "invalid choice: 'v3'" in capsys.readouterr().err


def test_match_under_v1_pairs_as_the_v1_cell(capsys):
    code, out, _ = run_cli(capsys, "match", "--model", "er", "--n", "40", "--k", "4",
                           "--stream", "v1")
    payload = json.loads(out)
    run = harness.run_cell_full("er", 40, 4, stream="v1")
    assert code == 0 and payload["stream"] == "v1"
    assert [(p["woman"], p["man"]) for p in payload["pairs"]] == list(run.matching.pairs)


# ------------------------------------------------------------------- presets

def test_preset_runs_small_replication_count(capsys):
    code, out, _ = run_cli(capsys, "fig2", "--reps", "1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 4 * 1 * 4 * 1


def test_fig1_prints_table2(capsys):
    _, table2, _ = run_cli(capsys, "table2", "--reps", "3")
    code, fig1, _ = run_cli(capsys, "fig1", "--reps", "3")
    assert code == 0 and fig1 == table2 and table2.startswith("model,")


def test_preset_names_exist(capsys):
    for name in ("table2", "fig1", "fig2", "fig3-6"):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0


def test_unknown_model_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--model", "grid", "--n", "10", "--k", "2"])
    assert exc.value.code == 2
