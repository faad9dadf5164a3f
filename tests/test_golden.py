"""Golden outputs: the preset CSVs at seed 0 pin the random stream.

A refactor of the market draw, the graph generators or the CSV writer that
keeps these digests has kept every byte of the presets' output. A change
that moves one must say why.
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


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_csv_digest(capsys, preset):
    assert main([preset, "--reps", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest()[:16] == PRESET_DIGESTS[preset]
