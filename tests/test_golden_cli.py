"""Byte-identity of the CLI against the recorded golden outputs.

``perfbench/golden.json`` holds, for a fixed grid of commands, the exit code
and the sha256 of stdout recorded from the original code.
``tests/cli_grid_large.json`` extends it past ``tests/cli_grid.json``
(n <= 6, cutoff <= 4): ``ktheory`` for both fields and formats at n 7-10,
cutoff 5-8, and ``kmap --n 10 --cutoff 10`` in both formats, recorded before
K-group presentations stopped building their components; then, recorded
before the catalog writers stopped scanning label runs, ``components`` and
``bc`` in both formats at cutoffs 10-12 (real components and bc at n 3-4,
complex components at n 2-3), so labels of two digits, negative ones
included, are pinned, and ``components --n 6 --cutoff 8 --field complex
--format json``; then, recorded before the column rank became sparse,
``bc --cutoff 5`` in both formats at n 7-10, so parameter matrices of 7 to
10 rows are pinned; last, recorded before catalog records were written from
per-(shape, chart) templates, ``components`` in both formats at n 7-10, real
at cutoff 3 and complex at cutoff 2, so dimensions and chart counts of two
digits are pinned.  Each command runs in-process through ``cli.main``; any
change to the bytes printed fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from temperedk import cli

TESTS = Path(__file__).resolve().parent
GOLDEN = json.loads((TESTS.parent / "perfbench" / "golden.json").read_text("utf-8"))["commands"]
LARGE = json.loads((TESTS / "cli_grid_large.json").read_text("utf-8"))["commands"]


def check(entry, capsys):
    try:
        code = cli.main(list(entry["argv"]))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"]


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
def test_output_matches_golden(entry, capsys):
    check(entry, capsys)


@pytest.mark.parametrize("entry", LARGE, ids=[" ".join(e["argv"]) for e in LARGE])
def test_output_matches_large_grid(entry, capsys):
    check(entry, capsys)
