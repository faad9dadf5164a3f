"""Golden outputs: the preset CSVs at seed 0 pin the random streams.

A refactor of the market draw, the graph generators or the CSV writer that
keeps these digests has kept every byte of the presets' output. A change
that moves one must say why. The presets draw from stream v1; stream v2
is pinned by the market digests in ``tests/test_market.py`` and by the
``match`` output at n=2000.
"""

import hashlib

import pytest

from circlematch.cli import main

# First 16 hex digits of the sha256 of `circlematch <preset> --reps 5` stdout.
PRESET_DIGESTS = {
    "table2": "799a6577f3761fb7",
    "fig2": "c8d449aca72bb807",
    "fig3-6": "7c3c89a58298c11a",
}

# `circlematch sweep --n 2000 --k 2 --reps 1 --stream v1`: all four models at
# the int16 rank width, through both distance paths (er and ba shallow, ncn
# and ws deep).
SWEEP_V1_N2000_DIGEST = "06f70ffde5701a3b"

# `circlematch match --model M --n 2000 --k K --seed 0`, stream v2: the pairs,
# their distances and utilities, and the average read off deferred acceptance.
MATCH_N2000_DIGESTS = {
    ("er", 4): "7fa2b998bae3e670",
    ("ba", 4): "4a38da4387659faa",
    ("ws", 2): "b4f98437df03202f",
    ("ncn", 2): "72197d4e9dfd399a",
}


def stdout_digest(capsys, argv):
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("ascii")).hexdigest()[:16]


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_csv_digest(capsys, preset):
    assert stdout_digest(capsys, [preset, "--reps", "5"]) == PRESET_DIGESTS[preset]


def test_v1_sweep_digest_at_n2000(capsys):
    argv = ["sweep", "--n", "2000", "--k", "2", "--reps", "1", "--stream", "v1"]
    assert stdout_digest(capsys, argv) == SWEEP_V1_N2000_DIGEST


@pytest.mark.parametrize("model, k", sorted(MATCH_N2000_DIGESTS))
def test_match_json_digest_at_n2000(capsys, model, k):
    argv = ["match", "--model", model, "--n", "2000", "--k", str(k), "--seed", "0"]
    assert stdout_digest(capsys, argv) == MATCH_N2000_DIGESTS[model, k]
