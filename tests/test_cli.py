import argparse
import hashlib
import json
import os
import subprocess
import sys
from json.encoder import encode_basestring_ascii
from math import comb, inf
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from temperedk import (
    __version__,
    ComplexComponent,
    Component,
    LeviShape,
    SigmaOrbit,
    base_change,
    bc_component,
    cli,
    complex_components,
    cone_chart,
    enumerate_levi_shapes,
    k_complex,
    k_real,
    ktheory,
    param_space,
    real_components,
)
from temperedk.cli import main

from test_ktheory import count_listed_keys


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, *args, "--format", "json")
    assert code == 0, err
    return json.loads(out), out


_needs_wait4 = pytest.mark.skipif(
    not hasattr(os, "wait4"), reason="needs os.wait4 for the child's max RSS"
)

# Linux carries a process's peak RSS into a child it spawns, so a small
# launcher spawns the CLI and reports that child's exit code and peak.
_LAUNCHER = (
    "import os, subprocess, sys\n"
    "with open(sys.argv[1], 'wb') as out:\n"
    "    argv = [sys.executable, '-m', 'temperedk.cli', *sys.argv[2:]]\n"
    "    _, status, usage = os.wait4(subprocess.Popen(argv, stdout=out).pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def _run_child(tmp_path, argv, timeout):
    """Exit code, stdout sha256 and max RSS in MB of the CLI in a process of its own."""
    out = tmp_path / "child.out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, str(out), *argv],
        capture_output=True, text=True, env=env, check=True, timeout=timeout,
    )
    code, maxrss = map(int, result.stdout.split())
    # ru_maxrss is in kilobytes, except on macOS, where it is in bytes.
    megabytes = maxrss / 2**20 if sys.platform == "darwin" else maxrss / 2**10
    return code, hashlib.sha256(out.read_bytes()).hexdigest(), megabytes


class TestKtheoryCommand:
    def test_rank_one_table(self, capsys):
        code, out, err = run(capsys, "ktheory", "--n", "1")
        assert code == 0
        rows = {}
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] in ("K0", "K1") and len(cells) > 1 and cells[1].isdigit():
                rows[cells[0]] = cells
        assert rows["K0"][1] == "0"
        assert rows["K1"][1] == "2"

    def test_rank_three_json(self, capsys):
        doc, _ = run_json(capsys, "ktheory", "--n", "3", "--cutoff", "4")
        assert doc["kind"] == "k_real"
        assert doc["tool_version"] == __version__
        assert doc["payload"]["deg0"]["rank"] == 8
        assert doc["payload"]["deg1"]["rank"] == 0
        assert len(doc["payload"]["deg0"]["generators"]) == 8

    def test_complex_field(self, capsys):
        doc, _ = run_json(capsys, "ktheory", "--n", "2", "--cutoff", "1", "--field", "complex")
        assert doc["kind"] == "k_complex"
        assert doc["payload"]["deg0"]["rank"] == 3
        assert doc["payload"]["deg1"]["rank"] == 0

    def test_complex_parity_across_ranks(self, capsys):
        for n in range(1, 6):
            doc, _ = run_json(
                capsys, "ktheory", "--n", str(n), "--cutoff", "4", "--field", "complex"
            )
            dead = doc["payload"][f"deg{(n + 1) % 2}"]
            assert dead["rank"] == 0

    def test_rank_and_prediction_agree(self, capsys):
        doc, _ = run_json(capsys, "ktheory", "--n", "4", "--cutoff", "5")
        for degree in ("deg0", "deg1"):
            entry = doc["payload"][degree]
            assert entry["rank"] == entry["predicted_rank"]

    def test_rank_column_counts_the_listed_keys(self, monkeypatch):
        # Counted and checked before the closed form is broken.
        _, degrees = cli._collect("ktheory", 3, 2, "real")
        monkeypatch.setattr(ktheory.IndexFamily, "rank_at", lambda self, cutoff: 0)
        assert cli._degree(*degrees[0]) == ("4", "0", "1-subsets of N x Z/2")

    def test_lists_no_key_tuple(self, monkeypatch, capsys):
        # The writers stream the keys from the label sets, so no ktheory
        # command, of either field or format, lists a presentation's keys.
        def refuse(p):
            raise RuntimeError("the ktheory command read generator_keys")

        monkeypatch.setattr(ktheory.KGroupPresentation, "generator_keys", property(refuse))
        entries = [e for e in GRID if e["argv"][0] == "ktheory" and e["exit"] == 0]
        fields_formats = {(e["argv"][6], e["argv"][8]) for e in entries}
        assert fields_formats == {(f, m) for f in ("real", "complex") for m in ("json", "table")}
        for entry in entries:
            code, out, _ = run(capsys, *entry["argv"])
            assert (code, _sha256(out)) == (0, entry["sha256"]), entry["argv"]

    @_needs_wait4
    @pytest.mark.parametrize(
        "fmt, sha256",
        [
            ("json", "91dcee207548036a29f9ed2d236620b565907f0d104a763c65a3e7d1de416c2e"),
            ("table", "3c116966d3638916892bc526c7f18778d004914febdc5bbf22f9cd0b7ad81337"),
        ],
    )
    def test_largest_complex_ktheory(self, tmp_path, fmt, sha256):
        # ktheory --n 10 --cutoff 10 --field complex: 352,716 generator keys
        # in degree 0, the largest ktheory in routine use.  They are streamed
        # from the label sets after a counting pass, so none is held.
        argv = ["ktheory", "--n", "10", "--cutoff", "10", "--field", "complex", "--format", fmt]
        code, digest, megabytes = _run_child(tmp_path, argv, timeout=60)
        assert (code, digest) == (0, sha256)
        assert megabytes < 40


class TestKmapCommand:
    def test_zero_map_table(self, capsys):
        code, out, err = run(capsys, "kmap", "--n", "2", "--cutoff", "3")
        assert code == 0
        assert "zero map" in out
        assert "0 nonzero assignments" in out

    def test_rank_one_table(self, capsys):
        code, out, err = run(capsys, "kmap", "--n", "1")
        assert code == 0
        assert "labels:0" in out
        assert "shape:0,1|gl2:|gl1:0 + shape:0,1|gl2:|gl1:1" in out

    def test_rank_one_json(self, capsys):
        doc, _ = run_json(capsys, "kmap", "--n", "1", "--cutoff", "2")
        payload = doc["payload"]
        assert payload["degree"] == 1
        assert payload["zero_map"] is False
        assert payload["support_size"] == 1
        assert payload["assignments"] == [
            {
                "source": "labels:0",
                "image": {"shape:0,1|gl2:|gl1:0": 1, "shape:0,1|gl2:|gl1:1": 1},
            }
        ]

    def test_zero_map_json(self, capsys):
        doc, _ = run_json(capsys, "kmap", "--n", "4", "--cutoff", "3")
        payload = doc["payload"]
        assert payload["zero_map"] is True
        assert payload["assignments"] == []


class TestComponentsCommand:
    def test_real_table_counts(self, capsys):
        code, out, err = run(capsys, "components", "--n", "3", "--cutoff", "2")
        assert code == 0
        assert "4 free, 4 cone" in out

    def test_real_json_records(self, capsys):
        doc, _ = run_json(capsys, "components", "--n", "2", "--cutoff", "1")
        records = doc["payload"]
        assert [r["key"] for r in records] == [
            "shape:1,0|gl2:1|gl1:",
            "shape:0,2|gl2:|gl1:0,0",
            "shape:0,2|gl2:|gl1:0,1",
            "shape:0,2|gl2:|gl1:1,1",
        ]
        cone = records[1]
        assert cone["kind"] == "cone"
        assert cone["chart"] == {"num_lines": 1, "num_rays": 1}
        assert "chart" not in records[0]

    def test_complex_json_records(self, capsys):
        doc, _ = run_json(capsys, "components", "--n", "2", "--cutoff", "1", "--field", "complex")
        assert doc["kind"] == "complex_components"
        labels = [tuple(r["labels"]) for r in doc["payload"]]
        assert labels == [(-1, -1), (-1, 0), (-1, 1), (0, 0), (0, 1), (1, 1)]

    def test_table_and_json_agree(self, capsys):
        doc, _ = run_json(capsys, "components", "--n", "3", "--cutoff", "2")
        code, out, err = run(capsys, "components", "--n", "3", "--cutoff", "2")
        assert code == 0
        for record in doc["payload"]:
            row = next(line for line in out.splitlines() if line.startswith(record["key"]))
            cells = row.split()
            assert cells[1] == str(record["dimension"])
            assert cells[2] == record["kind"]

    @_needs_wait4
    def test_largest_complex_table_streams(self, tmp_path):
        # components --n 6 --cutoff 12 --field complex: 593,775 records,
        # the largest complex catalog under MAX_CELLS.
        argv = ["components", "--n", "6", "--cutoff", "12", "--field", "complex"]
        code, digest, megabytes = _run_child(tmp_path, argv, timeout=120)
        assert code == 0
        assert digest == "27fe070eda7e7042fbab0f55fd5cb954a02beb6f387ba84ef3cb69b25fd0e435"
        assert megabytes < 40


class TestClosedPipe:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_reader_closing_early_exits_one_without_traceback(self, fmt):
        # temperedk ... | head: bc 8/8 writes more than a pipe buffer holds,
        # so the child is still writing when the read end closes.
        argv = [sys.executable, "-m", "temperedk.cli", "bc", "--n", "8", "--cutoff", "8"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        with subprocess.Popen(
            [*argv, "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as child:
            assert child.stdout.read(100)
            child.stdout.close()
            _, err = child.communicate(timeout=30)
        # No traceback, nor the "Exception ignored" note of a failed flush at exit.
        assert child.returncode == 1
        assert b"Traceback" not in err and err == b""


class TestPartitionsCommand:
    def test_table(self, capsys):
        code, out, err = run(capsys, "partitions", "--n", "4")
        assert code == 0
        assert "3 shapes" in out
        assert any(line.split()[:3] == ["2", "0", "2+2"] for line in out.splitlines()[2:])

    def test_json(self, capsys):
        doc, _ = run_json(capsys, "partitions", "--n", "5")
        assert [(p["q"], p["r"]) for p in doc["payload"]] == [(2, 1), (1, 3), (0, 5)]
        assert doc["payload"][2]["weyl"] == "S5"

    @pytest.mark.parametrize(
        "q, r, weyl", [(3, 2, "S3 x S2"), (1, 0, "1"), (1, 1, "1"), (0, 3, "S3"), (2, 0, "S2")]
    )
    def test_weyl_rendering(self, q, r, weyl):
        assert cli._partition(LeviShape(q, r))[3] == weyl


class TestBcCommand:
    def test_json(self, capsys):
        doc, _ = run_json(capsys, "bc", "--n", "1", "--cutoff", "1")
        records = doc["payload"]
        assert len(records) == 2
        assert records[0]["matrix"] == [[2]]
        assert records[0]["proper"] is True
        assert records[0]["target"]["labels"] == [0]

    def test_table_reports_properness(self, capsys):
        code, out, err = run(capsys, "bc", "--n", "2", "--cutoff", "1")
        assert code == 0
        assert "4 of 4 maps proper" in out

    @_needs_wait4
    def test_largest_bc_table(self, tmp_path):
        # bc --n 10 --cutoff 14: 19,380 maps, the largest bc in routine use.
        # Its records are written from label strings in two passes, with one
        # matrix per shape, so no map and no row is held.
        argv = ["bc", "--n", "10", "--cutoff", "14"]
        code, digest, megabytes = _run_child(tmp_path, argv, timeout=60)
        assert code == 0
        assert digest == "11443218e6f1b4c8d81b850d1287c64b71d09ff9aff151a279df1ecaf771faca"
        assert megabytes < 40

    @_needs_wait4
    @pytest.mark.parametrize(
        "fmt, sha256",
        [
            ("table", "f3e64e58623aa02d6cdd2532715c6681210248f7785b5eeae68ace7f6a720eb0"),
            ("json", "aa63e761aa0d96d948a4cec3c0031b817a054bfe57057c365c7360a9a745e95a"),
        ],
    )
    def test_huge_cutoff_at_n_one_builds_no_pool(self, tmp_path, fmt, sha256):
        # The one shape at n = 1 has q = 0, so no gl2 label is drawn, and
        # both maps are written at once: a label pool of 2 * 10^12 + 1
        # labels would exhaust memory or the timeout instead.
        argv = ["bc", "--n", "1", "--cutoff", str(10**12), "--format", fmt]
        code, digest, _ = _run_child(tmp_path, argv, timeout=30)
        assert (code, digest) == (0, sha256)


def _expected_record(c):
    """A component's JSON record, from its public attributes alone."""
    record = {"dimension": c.dimension, "key": c.key, "kind": c.kind}
    if not c.is_free:
        chart = cone_chart(c)
        record["chart"] = {"num_lines": chart.num_lines, "num_rays": chart.num_rays}
    if isinstance(c, Component):
        gl2, gl1 = map(list, c.label_blocks)
        record.update(gl1=gl1, gl2=gl2, q=c.shape.q, r=c.shape.r)
    else:
        record["labels"] = list(c.labels)
    return record


def _expected_cells(c):
    """A component's table cells: key, dimension, kind and chart."""
    chart = cone_chart(c)
    cell = "-" if c.is_free else f"lines={chart.num_lines},rays={chart.num_rays}"
    return [c.key, str(c.dimension), c.kind, cell]


def _sizes(ns, cutoffs):
    return [(n, cutoff) for n in ns for cutoff in cutoffs]


# Cutoffs 10 and 11 write two-digit labels, which sort before one-digit
# ones as strings, so a writer that ordered or counted labels as strings
# would differ there.
_TWO_DIGITS = _sizes(range(1, 4), (10, 11))


class TestRecordsMatchLibrary:
    """Every record agrees, field by field, with the component it stands
    for, read through the library's public attributes: a record that took
    its dimension, kind or chart from another component of the same
    dimension or number of lines would differ here."""

    @pytest.mark.parametrize("n, cutoff", _sizes(range(1, 7), range(1, 5)) + _TWO_DIGITS)
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_components(self, capsys, field, n, cutoff):
        catalog = (real_components if field == "real" else complex_components)(n, cutoff)
        argv = ("components", "--n", str(n), "--cutoff", str(cutoff), "--field", field)
        doc, _ = run_json(capsys, *argv)
        assert doc["payload"] == [_expected_record(c) for c in catalog]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[2:]]
        assert rows == [_expected_cells(c) for c in catalog]

    @pytest.mark.parametrize(
        "n, cutoff", _sizes(range(1, 7), range(1, 4)) + _sizes(range(1, 4), (10,))
    )
    def test_bc(self, capsys, n, cutoff):
        maps = [bc_component(c) for c in real_components(n, cutoff)]
        argv = ("bc", "--n", str(n), "--cutoff", str(cutoff))
        doc, _ = run_json(capsys, *argv)
        assert doc["payload"] == [
            {
                "column_rank": m.column_rank,
                "matrix": [list(row) for row in m.matrix],
                "proper": m.is_proper,
                "source": _expected_record(m.source),
                "target": _expected_record(m.target),
            }
            for m in maps
        ]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [line.split() for line in out.splitlines()[2:]]
        assert rows == [
            [
                m.source.key,
                m.target.key,
                m.target.kind,
                str([list(row) for row in m.matrix]).replace(" ", ""),
                str(m.column_rank),
                "yes" if m.is_proper else "no",
            ]
            for m in maps
        ]


class TestHeadersMatchLibrary:
    """The counts in each table's header agree with the library: the free
    components of a catalog are the K-theory generators of both degrees,
    the paper's count, and a bc header counts the proper maps among all."""

    @pytest.mark.parametrize("cutoff", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_components(self, capsys, field, n, cutoff):
        catalog = (real_components if field == "real" else complex_components)(n, cutoff)
        free = sum(c.is_free for c in catalog)
        argv = ("components", "--n", str(n), "--cutoff", str(cutoff), "--field", field)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[0] == (
            f"Tempered-dual components for GL({n}, {'R' if field == 'real' else 'C'}) "
            f"at cutoff {cutoff}: {free} free, {len(catalog) - free} cone"
        )

    @pytest.mark.parametrize("cutoff", range(1, 5))
    @pytest.mark.parametrize("n", range(1, 7))
    def test_bc(self, capsys, n, cutoff):
        catalog = real_components(n, cutoff)
        proper = sum(bc_component(c).is_proper for c in catalog)
        code, out, _ = run(capsys, "bc", "--n", str(n), "--cutoff", str(cutoff))
        assert code == 0
        assert out.splitlines()[0] == (
            f"Base change on components, GL({n}, R) -> GL({n}, C) "
            f"at cutoff {cutoff}: {proper} of {len(catalog)} maps proper"
        )


class TestClosedFormWidths:
    """The catalog tables are written in one pass, so their key widths and
    the bc header's proper count come from closed forms, read before any
    record: given no record at all, a writer still prints the header that a
    scan over every record of the catalog finds."""

    @staticmethod
    def header(writer, **fields):
        lines = []
        writer(lines.append, iter(()), argparse.Namespace(**fields))
        return "".join(lines).splitlines()

    @pytest.mark.parametrize("n, cutoff", _sizes(range(1, 9), range(1, 7)))
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_components_key_width(self, field, n, cutoff):
        key = param_space._real_key if field == "real" else param_space._complex_key
        widest = max(len(key(*blocks)) for blocks in param_space._catalog(field, n, cutoff, str))
        columns = self.header(cli._components_table, n=n, cutoff=cutoff, field=field)[1]
        assert columns.index("  dim") == max(len("key"), widest)

    @pytest.mark.parametrize("n, cutoff", _sizes(range(1, 9), range(1, 7)))
    def test_bc_widths_and_proper_count(self, n, cutoff):
        sources, targets, proper, records = [], [], 0, 0
        for gl2, gl1 in param_space._catalog("real", n, cutoff, str):
            sources.append(len(param_space._real_key(gl2, gl1)))
            targets.append(len(param_space._complex_key(base_change._target_labels(gl2, gl1))))
            orbit = SigmaOrbit(tuple(map(int, gl2)), tuple(map(int, gl1)))
            proper += bc_component(Component(orbit)).is_proper
            records += 1
        summary, columns = self.header(cli._bc_table, n=n, cutoff=cutoff)
        assert summary.endswith(f": {proper} of {records} maps proper")
        source_width = columns.index("  target")
        target_width = columns.index("  target kind") - source_width - 2
        assert source_width == max(len("source"), *sources)
        assert target_width == max(len("target"), *targets)


class TestChunkedWrites:
    """A writer joins its records into chunks, one write call each, so
    unbuffered stdout costs a system call per chunk, not per record."""

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "command, n, cutoff, field",
        [("components", 6, 4, "complex"), ("bc", 6, 3, "real"), ("ktheory", 6, 4, "complex")],
    )
    def test_writes_per_chunk(self, monkeypatch, command, n, cutoff, field, fmt):
        records = cli.predicted_size(command, n, cutoff, field)
        if command == "components":
            assert records == 3003
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = [command, "--n", str(n), "--cutoff", str(cutoff), "--field", field]
        assert main(argv + ["--format", fmt]) == 0
        # The constant covers the envelope and, for ktheory, each degree's fields.
        assert stdout.writes <= records / cli._CHUNK + 16


class TestBcRankOnce:
    def test_one_rank_per_shape(self, monkeypatch, capsys):
        # A bc matrix depends on the Levi shape alone, so each format ranks
        # one matrix per shape, and no matrix twice: GL(4) has three shapes.
        calls = []
        rank = base_change._column_rank

        def counted(matrix):
            calls.append(matrix)
            return rank(matrix)

        monkeypatch.setattr(base_change, "_column_rank", counted)
        for fmt in ("json", "table"):
            calls.clear()
            assert main(["bc", "--n", "4", "--cutoff", "3", "--format", fmt]) == 0
            assert len(calls) == len(set(calls)) == len(enumerate_levi_shapes(4)) == 3

    def test_import_leaves_fractions_out(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        probe = "import sys, temperedk.cli; print('fractions' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.strip() == "False"


class TestDeterminism:
    def test_json_round_trip_byte_identical(self, capsys):
        for args in (
            ("components", "--n", "3", "--cutoff", "2"),
            ("ktheory", "--n", "4", "--cutoff", "4"),
            ("kmap", "--n", "1", "--cutoff", "3"),
            ("bc", "--n", "3", "--cutoff", "2"),
        ):
            doc, raw = run_json(capsys, *args)
            assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == raw

    def test_repeat_runs_identical(self, capsys):
        _, first = run_json(capsys, "components", "--n", "4", "--cutoff", "3")
        _, second = run_json(capsys, "components", "--n", "4", "--cutoff", "3")
        assert first == second


class TestParitySelfCheck:
    def test_swapped_complex_degrees_raise(self, monkeypatch):
        k_complex = cli.k_complex
        monkeypatch.setattr(cli, "k_complex", lambda n, cutoff: k_complex(n, cutoff)[::-1])
        args = ["ktheory", "--n", "3", "--cutoff", "2", "--field", "complex", "--format"]
        for fmt in ("json", "table"):
            with pytest.raises(RuntimeError):
                main(args + [fmt])


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, out, err = run(capsys, "ktheory", "--n", "6", "--cutoff", "1")
        assert code == 1
        assert err.startswith("error:")
        assert out == ""

    def test_complex_cutoff_zero_is_one(self, capsys):
        code, out, err = run(capsys, "ktheory", "--n", "1", "--cutoff", "0", "--field", "complex")
        assert code == 1
        assert err == "error: cutoff must be >= 1, got 0\n"
        assert out == ""

    @pytest.mark.parametrize("n", ["1", "3"])
    @pytest.mark.parametrize("command", ["ktheory", "components"])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_negative_cutoff_names_the_cutoff(self, capsys, field, command, n):
        code, out, err = run(capsys, command, "--n", n, "--cutoff", "-1", "--field", field)
        assert (code, out) == (1, "")
        assert err == "error: cutoff must be >= 1, got -1\n"

    @pytest.mark.parametrize("cutoff", ["4", "0"])
    def test_invalid_n_is_one(self, capsys, cutoff):
        # n is checked before the cutoff.
        code, out, err = run(capsys, "components", "--n", "0", "--cutoff", cutoff)
        assert code == 1
        assert out == ""
        assert err == "error: n must be >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["catalog", "--n", "2"],
            ["--n", "2"],
            ["ktheory"],
            ["ktheory", "--n", "not-a-number"],
            ["ktheory", "--n", "2", "--field", "p-adic"],
            ["bc", "--n", "2", "--format", "xml"],
        ],
    )
    def test_usage_error_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        assert (excinfo.value.code, out) == (2, "")
        assert err.splitlines()[-1].startswith("temperedk: error: ")


class TestParser:
    def test_main_builds_one_parser(self, monkeypatch, capsys):
        # Each ArgumentParser costs tens of microseconds on every command.
        # __init__ is wrapped in place: argparse names ArgumentParser in its
        # own super() call, so a subclass bound over it would recurse.
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run(capsys, "partitions", "--n", "2")[0] == 0
        assert len(built) == 1

    def test_help_names_every_command_and_option(self, capsys):
        pages = []
        for argv in (["--help"], ["bc", "--help"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 0
            pages.append(capsys.readouterr().out)
        assert pages[0] == pages[1]
        for word in ("partitions", "components", "ktheory", "bc", "kmap"):
            assert word in pages[0]
        for option in ("--n", "--cutoff", "--field", "--format"):
            assert option in pages[0]

    def test_options_may_come_before_the_command(self, capsys):
        before = run(capsys, "--n", "3", "--cutoff", "2", "bc")
        after = run(capsys, "bc", "--n", "3", "--cutoff", "2")
        assert before == after and before[0] == 0 and before[1]


class TestSizePredictor:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("cutoff", range(1, 5))
    def test_matches_enumeration(self, monkeypatch, n, cutoff):
        predicted = cli.predicted_size
        assert predicted("partitions", n, cutoff, "real") == len(enumerate_levi_shapes(n))
        real = len(real_components(n, cutoff))
        assert predicted("components", n, cutoff, "real") == real
        for field in ("real", "complex"):
            assert predicted("bc", n, cutoff, field) == real
        complex_size = len(complex_components(n, cutoff))
        assert predicted("components", n, cutoff, "complex") == complex_size
        if 2 * cutoff + 1 < n:
            return  # k_complex and kmap reject the cutoff before enumerating
        complex_rank = sum(p.rank for p in k_complex(n, cutoff))
        assert predicted("ktheory", n, cutoff, "complex") == complex_rank
        if cutoff < n // 2:
            return  # so do k_real and kmap here
        real_rank = sum(p.rank for p in k_real(n, cutoff))
        assert predicted("ktheory", n, cutoff, "real") == real_rank
        # kmap is priced at the keys of both presentations for n = 1, so its
        # refusals stay as they were, and at none for the zero map of
        # n >= 2.  It lists neither presentation: the keys it checks are
        # read, not listed.
        for field in ("real", "complex"):
            assert predicted("kmap", n, cutoff, field) == (2 * cutoff + 3 if n == 1 else 0)
        listed = count_listed_keys(monkeypatch)
        base_change.induced_k_map(n, cutoff)
        assert listed[0] == 0

    def test_invalid_n_predicts_nothing(self):
        for command in ("partitions", "components", "ktheory", "bc", "kmap"):
            assert cli.predicted_size(command, 0, 3, "real") == 0
            assert cli.predicted_size(command, -4, 3, "complex") == 0

    def test_huge_requests_cost_nothing(self):
        # Closed forms only: none of these is ever enumerated.
        predicted = cli.predicted_size
        assert predicted("partitions", 10**9, 4, "real") == 5 * 10**8 + 1
        assert predicted("components", 30, 20, "complex") == comb(70, 30)
        assert predicted("components", 10**9, 10**9, "complex") == inf
        assert predicted("ktheory", 10**9, 2 * 10**9, "real") == inf
        assert predicted("ktheory", 2 * 10**9 + 1, 10**9, "real") == 2
        assert predicted("components", 1, 10**12, "real") == 2

    def test_cap_rejects_before_output(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CELLS", 100)
        # 8 components of up to 3 labels, from a pool of 5: 29 cells.
        code, out, _ = run(capsys, "components", "--n", "3", "--cutoff", "2")
        assert code == 0 and out
        for args, size in (
            (("components", "--n", "4", "--cutoff", "4", "--field", "complex"), 495),
            (("bc", "--n", "4", "--cutoff", "2"), 14),
            (("partitions", "--n", "20"), 11),
        ):
            for fmt in ("json", "table"):
                code, out, err = run(capsys, *args, "--format", fmt)
                assert code == 1
                assert out == ""
                assert err.startswith(f"error: {args[0]} would enumerate {size} entries")
                assert err.rstrip().endswith("more than the limit of 100 cells")

    def test_kmap_exact_ranks_are_bounded(self):
        # A zero map lists nothing, but its ranks are printed exactly, so a
        # rank too large for levi._binomial still refuses the command.
        predicted = cli.predicted_size
        assert predicted("kmap", 30, 30, "real") == 0
        assert predicted("kmap", 1, 10**9, "real") == 2 * 10**9 + 3
        assert predicted("kmap", 10**9, 10**9, "real") == inf
        assert predicted("kmap", 150, 150, "real") == inf

    @pytest.mark.parametrize("n", [12, 16, 30])
    def test_large_zero_maps_fit(self, capsys, n):
        doc, _ = run_json(capsys, "kmap", "--n", str(n), "--cutoff", str(n))
        payload = doc["payload"]
        assert payload["zero_map"] is True and payload["assignments"] == []
        assert payload["source_rank"] == comb(2 * n + 1, n)
        # Degree 0 of GL(n, R), n = 2q: q-subsets of the gl2 labels for
        # even q, (q - 1)-subsets for odd q.
        q = n // 2
        assert payload["target_rank"] == comb(n, q - q % 2)

    def test_huge_kmap_refused(self, capsys):
        code, out, err = run(capsys, "kmap", "--n", "1000000000", "--cutoff", "1000000000")
        assert (code, out) == (1, "")
        assert err.startswith("error: kmap would enumerate inf entries")

    def test_pool_over_the_limit_is_named(self, capsys):
        # kmap at n = 2 lists no key, so only its label pool can be too large.
        pool = 2 * 10**39 + 1
        code, out, err = run(capsys, "kmap", "--n", "2", "--cutoff", str(10**39))
        assert (code, out) == (1, "")
        assert err == (
            f"error: kmap would build a label pool of {pool} labels, "
            "more than the limit of 4000000 cells\n"
        )

    def test_entries_over_the_limit_are_named(self, capsys):
        size, pool = 2 * 10**57, 2 * 10**57 + 1
        code, out, err = run(capsys, "ktheory", "--n", "3", "--cutoff", str(10**57))
        assert (code, out) == (1, "")
        assert err == (
            f"error: ktheory would enumerate {size} entries ({3 * size + pool} cells "
            "with their labels), more than the limit of 4000000 cells\n"
        )

    def test_cap_counts_the_label_pool(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_CELLS", 100)
        # Priced at 103 one-label keys and a complex source pool of 101
        # labels, which kmap once listed; it now lists none, and its
        # refusal stays as it was.
        code, out, err = run(capsys, "kmap", "--n", "1", "--cutoff", "50")
        assert (code, out) == (1, "")
        assert "103 entries (204 cells" in err

    @pytest.mark.parametrize("command", ["components", "bc", "ktheory"])
    def test_cap_skips_the_pool_the_real_catalog_never_builds(self, capsys, monkeypatch, command):
        # At n = 1 the only shape has q = 0, so no gl2 label is drawn.
        monkeypatch.setattr(cli, "MAX_CELLS", 100)
        code, out, _ = run(capsys, command, "--n", "1", "--cutoff", "50")
        assert code == 0 and out
        code, out, _ = run(capsys, command, "--n", "2", "--cutoff", "50")
        assert (code, out) == (1, "")

    def test_huge_cutoff_at_n_one(self, capsys):
        doc, _ = run_json(capsys, "components", "--n", "1", "--cutoff", str(10**12))
        keys = [record["key"] for record in doc["payload"]]
        assert keys == ["shape:0,1|gl2:|gl1:0", "shape:0,1|gl2:|gl1:1"]
        doc, _ = run_json(capsys, "bc", "--n", "1", "--cutoff", str(10**12))
        assert [m["target"]["key"] for m in doc["payload"]] == ["labels:0", "labels:0"]
        doc, _ = run_json(capsys, "ktheory", "--n", "1", "--cutoff", str(10**12))
        degrees = doc["payload"]
        assert degrees["deg0"]["generators"] == []
        assert degrees["deg1"]["generators"] == keys
        for args in (
            ("ktheory", "--field", "complex"),
            ("kmap",),
            ("components", "--field", "complex"),
        ):
            code, out, err = run(capsys, *args, "--n", "1", "--cutoff", str(10**12))
            assert (code, out) == (1, ""), args
            assert "more than the limit" in err


class TestOneOwnerOfEachCount:
    def test_ranks_descriptions_and_prices_read_one_formula(self, monkeypatch):
        # GL(4, R): 2-subsets of N in degree 0 and 1-subsets in degree 1.
        p = k_real(4, 5)[0]
        assert (p.rank, p.closed_form.describe()) == (comb(5, 2), "2-subsets of N")
        assert cli.predicted_size("ktheory", 4, 5, "real") == comb(5, 2) + comb(5, 1)
        formula = lambda choose, k, cutoff: 100 * choose(cutoff, k)
        monkeypatch.setitem(ktheory._FAMILIES, "nat_subsets", ("{}-sets of N", formula))
        assert (p.rank, p.closed_form.describe()) == (100 * comb(5, 2), "2-sets of N")
        assert cli.predicted_size("ktheory", 4, 5, "real") == 100 * (comb(5, 2) + comb(5, 1))


class TestChartOnce:
    @pytest.mark.parametrize("field", ["complex", "real"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_one_chart_and_no_run_scan_per_record(self, field, fmt, monkeypatch, capsys):
        # A record reads its kind off the lines of its one chart, counted
        # from its label strings once per block by the helper cone_chart
        # sums, so no writer scans label runs and free-or-cone stays one rule.
        assert cli._block_lines is param_space._block_lines
        scans, counted = [], []
        scan, lines = param_space.run_multiplicities, cli._block_lines
        monkeypatch.setattr(param_space, "run_multiplicities", lambda *b: scans.append(b) or scan(*b))
        monkeypatch.setattr(cli, "_block_lines", lambda block: counted.append(block) or lines(block))
        records = cli.predicted_size("components", 6, 4, field)
        if field == "complex":
            assert records == comb(14, 6)
        args = ["components", "--n", "6", "--cutoff", "4", "--field", field, "--format", fmt]
        assert main(args) == 0
        assert scans == []
        # Each block of each record once, in catalog order: one block over
        # C, gl2 then gl1 over R.
        assert len(counted) == records * (1 if field == "complex" else 2)
        assert counted == [b for blocks in param_space._catalog(field, 6, 4, str) for b in blocks]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_bc_counts_each_source_block_once(self, fmt, monkeypatch, capsys):
        # A bc target's chart follows from its source's shape key (twice the
        # distinct gl2 labels, plus one for any gl1 label), so each record
        # counts its source's gl2 and gl1 blocks and none of its target.
        counted = []
        lines = cli._block_lines
        monkeypatch.setattr(cli, "_block_lines", lambda block: counted.append(block) or lines(block))
        assert main(["bc", "--n", "6", "--cutoff", "4", "--format", fmt]) == 0
        assert len(counted) == 2 * cli.predicted_size("bc", 6, 4, "real")
        assert counted == [b for blocks in param_space._catalog("real", 6, 4, str) for b in blocks]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_bc_scans_no_runs(self, fmt, monkeypatch, capsys):
        scans = []
        scan = param_space.run_multiplicities
        monkeypatch.setattr(param_space, "run_multiplicities", lambda *b: scans.append(b) or scan(*b))
        assert main(["bc", "--n", "6", "--cutoff", "3", "--format", fmt]) == 0
        assert scans == []


_awkward = st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\ud800')
_text = st.text(st.one_of(_awkward, st.characters()))
_ints = st.one_of(st.integers(), st.integers(min_value=-(10**40), max_value=-(10**20)))
_pads = st.sampled_from(["", "  ", "    ", "      "])


class TestJsonWriter:
    @given(st.one_of(st.lists(_text), st.lists(_ints), st.lists(st.lists(_ints))), _pads)
    def test_matches_stdlib(self, values, pad):
        # The helper behind every list the CLI writes: keys, labels,
        # generators and matrices, at any indentation.
        if values and type(values[0]) is list:
            text = cli._join((cli._join(map(repr, row), pad + "  ") for row in values), pad)
        elif values and type(values[0]) is str:
            text = cli._join(map(encode_basestring_ascii, values), pad)
        else:
            text = cli._join(map(repr, values), pad)
        assert text == json.dumps(values, sort_keys=True, indent=2).replace("\n", "\n" + pad)

    @given(st.dictionaries(_text, _ints), _pads)
    def test_objects_match_stdlib(self, value, pad):
        # The same helper writes an image class: key -> coefficient.
        items = (f"{encode_basestring_ascii(k)}: {c!r}" for k, c in sorted(value.items()))
        expected = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)
        assert cli._join(items, pad, "{}") == expected


# Labels from a small range repeat often (cones); the wide range gives
# multi-digit labels, negative ones over C.
def _labels(low, high):
    return st.one_of(st.integers(max(low, -2), min(high, 2)), st.integers(low, high))


@st.composite
def _real_blocks(draw):
    """Sorted label strings (gl2, gl1) of a real component with n <= 12,
    either block possibly empty."""
    q = draw(st.integers(0, 6))
    r = draw(st.integers(0 if q else 1, 12 - 2 * q))
    gl2 = sorted(draw(st.lists(_labels(1, 150), min_size=q, max_size=q)))
    gl1 = sorted(draw(st.lists(st.integers(0, 1), min_size=r, max_size=r)))
    return tuple(map(str, gl2)), tuple(map(str, gl1))


@st.composite
def _complex_blocks(draw):
    """Sorted label strings (labels,) of a complex component with n <= 12."""
    labels = sorted(draw(st.lists(_labels(-150, 150), min_size=1, max_size=12)))
    return (tuple(map(str, labels)),)


def _component_of(blocks):
    """The library's component with these label strings."""
    labels = [tuple(map(int, block)) for block in blocks]
    return Component(SigmaOrbit(*labels)) if len(labels) == 2 else ComplexComponent(*labels)


def _written(writer, blocks, **fields):
    """What a writer prints for a catalog of one record with these blocks."""
    chunks = []
    writer(chunks.append, iter([blocks]), argparse.Namespace(**fields))
    return "".join(chunks)


class TestRecordFunctions:
    """Each record function on components drawn past the tier-1 grid (n up
    to 12, empty blocks, repeated and multi-digit labels): its JSON is the
    stdlib encoder's layout at its pad, and its table row is the %-*s
    layout of the header's columns."""

    @given(st.one_of(_real_blocks(), _complex_blocks()), st.sampled_from(["    ", "      "]))
    def test_component_json(self, blocks, pad):
        c = _component_of(blocks)
        field = "real" if len(blocks) == 2 else "complex"
        record = cli._by_shape(field, c.dimension, cli._component_json(pad, field))(blocks)
        assert record == json.dumps(_expected_record(c), sort_keys=True, indent=2).replace(
            "\n", "\n" + pad
        )

    @given(_real_blocks())
    def test_bc_json(self, blocks):
        m = bc_component(_component_of(blocks))
        expected = {
            "column_rank": m.column_rank,
            "matrix": [list(row) for row in m.matrix],
            "proper": m.is_proper,
            "source": _expected_record(m.source),
            "target": _expected_record(m.target),
        }
        text = _written(cli._bc_json, blocks, n=m.source.dimension + m.source.shape.q)
        assert text == json.dumps([expected], sort_keys=True, indent=2).replace("\n", "\n  ")

    @given(st.one_of(_real_blocks(), _complex_blocks()))
    def test_components_table_row(self, blocks):
        c = _component_of(blocks)
        field = "real" if len(blocks) == 2 else "complex"
        n = c.dimension + (c.shape.q if field == "real" else 0)
        cutoff = max(1, *(abs(int(label)) for block in blocks for label in block))
        text = _written(cli._components_table, blocks, n=n, cutoff=cutoff, field=field)
        _, columns, row = text[:-1].split("\n")
        key, dimension, kind, chart = _expected_cells(c)
        width, dim_width = columns.index("  dim"), max(3, len(str(n)))
        assert row == "%-*s  %-*s  %-4s  %s" % (width, key, dim_width, dimension, kind, chart)

    @given(_real_blocks())
    def test_bc_table_row(self, blocks):
        m = bc_component(_component_of(blocks))
        n, cutoff = m.source.dimension + m.source.shape.q, max([1, *map(int, blocks[0])])
        _, columns, row = _written(cli._bc_table, blocks, n=n, cutoff=cutoff)[:-1].split("\n")
        # Each column's width is where the next header starts, less the gap.
        headers = ("target", "target kind", "matrix", "rank", "proper")
        starts = [0, *(columns.index(f"  {h}") + 2 for h in headers)]
        widths = [b - a - 2 for a, b in zip(starts, starts[1:])]
        matrix = str([list(r) for r in m.matrix]).replace(" ", "")
        cells = (m.source.key, m.target.key, m.target.kind, matrix, m.column_rank)
        padded = (value for pair in zip(widths, cells) for value in pair)
        proper = "yes" if m.is_proper else "no"
        assert row == "%-*s  %-*s  %-*s  %-*s  %-*s  %s" % (*padded, proper)


def _grid(path):
    """Entries of a recorded CLI grid (argv, exit code, stdout sha256)."""
    return json.loads(path.read_text("utf-8"))["commands"]


GRID = _grid(Path(__file__).with_name("cli_grid.json"))
GOLDEN = _grid(Path(__file__).resolve().parents[1] / "perfbench" / "golden.json")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestJsonGrid:
    """Every command, field and format for n 0-6 and cutoff 0-4, against
    ``tests/cli_grid.json``: exit code and stdout sha256, recorded from the
    dict-document writer that preceded the per-kind writers.  A mismatch is
    a change of output to explain, not a file to re-record.  Every JSON
    output must also be the stdlib encoder's own layout of what it parses
    to."""

    @pytest.mark.parametrize("n", range(0, 7))
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("command", ["partitions", "components", "ktheory", "bc", "kmap"])
    def test_matches_stdlib_encoder(self, capsys, command, field, n):
        entries = [e for e in GRID if e["argv"][:3] == [command, "--n", str(n)]]
        entries = [e for e in entries if e["argv"][6] == field]
        assert len(entries) == 10  # cutoff 0-4, json and table
        for entry in entries:
            args = entry["argv"]
            code, out, _ = run(capsys, *args)
            assert (code, _sha256(out)) == (entry["exit"], entry["sha256"]), args
            if code == 0 and args[-1] == "json":
                assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out, args
            if code == 1:
                assert out == "", args


class _CountingStdout:
    """Stand-in for sys.stdout that counts ``write`` calls."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return len(text)

    def flush(self):
        pass


class TestNoByteBeforeChecks:
    """Nothing is written to stdout until every check has passed."""

    def writes(self, argv):
        """(exit code, stdout writes) of one command."""
        stdout, saved = _CountingStdout(), sys.stdout
        sys.stdout = stdout
        try:
            code = main(list(argv))
        finally:
            sys.stdout = saved
        return code, stdout.writes

    @pytest.mark.parametrize("grid", ["cli_grid", "golden"])
    def test_failing_commands_write_nothing(self, capsys, grid):
        failing = [e["argv"] for e in (GRID if grid == "cli_grid" else GOLDEN) if e["exit"] == 1]
        assert failing
        for argv in failing:
            assert self.writes(argv) == (1, 0), argv

    def test_succeeding_commands_do_write(self, capsys):
        code, writes = self.writes(["components", "--n", "2", "--format", "json"])
        assert code == 0 and writes > 0

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_cap_rejection_writes_nothing(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(cli, "MAX_CELLS", 100)
        for argv in (
            ["components", "--n", "4", "--cutoff", "4", "--field", "complex"],
            ["bc", "--n", "4", "--cutoff", "2"],
            ["partitions", "--n", "20"],
            ["kmap", "--n", "1", "--cutoff", "50"],
        ):
            assert self.writes(argv + ["--format", fmt]) == (1, 0), argv

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_listing_failure_writes_nothing(self, monkeypatch, capsys, field, fmt):
        # Keys are listed on first read; the ktheory command reads them
        # before its first byte, so a failed listing check writes nothing.
        monkeypatch.setattr(ktheory, "combinations", lambda pool, k: iter(()))
        stdout = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(RuntimeError, match="^listed 0 generator keys"):
            main(["ktheory", "--n", "3", "--cutoff", "2", "--field", field, "--format", fmt])
        assert stdout.writes == 0

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_parity_failure_writes_nothing(self, monkeypatch, capsys, fmt):
        k_complex = cli.k_complex
        stdout = _CountingStdout()
        monkeypatch.setattr(cli, "k_complex", lambda n, cutoff: k_complex(n, cutoff)[::-1])
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(RuntimeError):
            main(["ktheory", "--n", "3", "--cutoff", "2", "--field", "complex", "--format", fmt])
        assert stdout.writes == 0
