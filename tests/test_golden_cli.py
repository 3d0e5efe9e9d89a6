"""Byte-identity of the CLI against the recorded golden outputs.

``perfbench/golden.json`` holds, for a fixed grid of commands, the exit code
and the sha256 of stdout recorded from the original code.  Each command runs
in-process through ``cli.main``; any change to the bytes printed fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from temperedk import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text("utf-8")
)["commands"]


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_output_matches_golden(entry, capsys):
    try:
        code = cli.main(list(entry["argv"]))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"]
