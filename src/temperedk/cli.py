"""Command-line front end emitting reproducible catalogs.

Five commands cover the engine surface: ``partitions`` (Levi shapes),
``components`` (tempered-dual catalog, real or complex), ``ktheory``
(K-group presentations), ``bc`` (base change on components, with parameter
matrices), and ``kmap`` (the induced map on K-theory).  Output is either a
deterministic JSON document or an aligned text table; identical inputs give
byte-identical output.

Nothing is printed until every check has passed.  ``main`` first prices
the command (``predicted_size``) from the counts the library owns: the
catalog counts next to the catalogs in ``param_space`` and the ranks of
``ktheory.IndexFamily``.  It rejects a command over ``MAX_CELLS``; then it
builds the shapes, presentations or induced map, or opens a catalog's label
strings (components, bc), which raises every other ``ValueError`` and the
complex parity ``RuntimeError``, and lists the ktheory keys against their
closed-form ranks; only then does it write, as JSON or a table (see below).
A ``ValueError`` exits 1 with an empty stdout; a closed pipe exits 1 quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
from argparse import Namespace
from itertools import starmap
from json.encoder import encode_basestring_ascii
from math import inf
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import __version__
from .base_change import InducedKMap, _target_labels, bc_component, induced_k_map
from .ktheory import KGroupPresentation, closed_form_complex, closed_form_real, k_complex, k_real
from .levi import LeviShape, SigmaOrbit, _Memo, enumerate_levi_shapes, weyl_group
from .param_space import (
    KIND_CONE,
    KIND_FREE,
    Component,
    _catalog,
    _complex_catalog_size,
    _complex_key,
    _num_lines,
    _real_catalog_size,
    _real_key,
)

# Largest output a command may write, in cells: n labels per entry, n^2 per
# bc record for the n-row matrix it prints, plus the label pool if one is
# built.  ktheory --field complex at n = cutoff = 10 needs 3.5e6; kmap lists
# keys only for n = 1, so for n >= 2 it counts just the pool (kmap 30/30: 61
# cells).  Catalogs and bc maps stream from label strings and hold no
# record: components --n 6 --cutoff 12 --field complex (593,775 records,
# 3.56e6 cells) and bc --n 10 --cutoff 14 (19,380 maps, 1.9e6 cells) peak
# within a few MB of the interpreter's own floor, as a table and as JSON
# (whole process, child max RSS from os.wait4; CPython 3.11.7, output to a
# file).
MAX_CELLS = 4_000_000


def build_parser() -> argparse.ArgumentParser:
    # One parser, not a subparser per command: the five commands take the
    # same options, and each ArgumentParser costs tens of microseconds.
    parser = argparse.ArgumentParser(
        prog="temperedk",
        description="Catalogs of tempered duals of GL(n) over R and C, "
        "their K-theory, and archimedean base change.",
    )
    parser.add_argument(
        "command",
        choices=("partitions", "components", "ktheory", "bc", "kmap"),
        help="partitions: Levi shapes; components: tempered-dual catalog; ktheory: "
        "K-group presentations; bc: base change on components; kmap: induced K-map",
    )
    parser.add_argument("--n", type=int, required=True, help="rank n of GL(n)")
    parser.add_argument(
        "--cutoff", type=int, default=4, help="largest discrete-series label enumerated (default 4)"
    )
    parser.add_argument(
        "--field", choices=("real", "complex"), default="real", help="base field (default real)"
    )
    parser.add_argument(
        "--format", choices=("json", "table"), default="table", help="output format (default table)"
    )
    return parser


def predicted_size(command: str, n: int, cutoff: int, field: str) -> int | float:
    """Entries the command would enumerate, from closed forms alone: n // 2 + 1
    Levi shapes (partitions), ``param_space``'s catalog counts (components,
    bc), the bounded ranks of ``ktheory``'s closed forms, both degrees
    (ktheory), or the keys of both presentations when n = 1 and none for
    n >= 2 (kmap).  0 when n < 1, which every command rejects before
    enumerating; ``inf`` for counts above 10^37 (see ``levi._binomial``)."""
    if n < 1:
        return 0
    if command == "partitions":
        return n // 2 + 1
    if command == "bc" or (command == "components" and field == "real"):
        # The real catalog builds its shapes before it checks the cutoff, so
        # a cutoff below 1 counts as 1.
        return _real_catalog_size(n, max(cutoff, 1))
    if command == "components":
        return _complex_catalog_size(n, cutoff)
    real_rank, complex_rank = (
        sum(family._bounded_rank_at(cutoff) for family in closed_forms(n))
        for closed_forms in (closed_form_real, closed_form_complex)
    )
    if command == "ktheory":
        return real_rank if field == "real" else complex_rank
    # kmap lists keys only to check its one assignment when n = 1: the
    # 2 * cutoff + 1 source keys and the two target keys.  For n >= 2 the
    # map is zero and nothing is listed.  It prints both ranks exactly, so
    # an infinite one refuses it, and the pool term of _check_size bounds
    # the digits of a finite one.
    both = real_rank + complex_rank
    return both if n == 1 or both == inf else 0


def _check_size(command: str, n: int, cutoff: int, field: str) -> None:
    """Raise ValueError when the command's cells (see ``MAX_CELLS``) exceed the limit."""
    size = predicted_size(command, n, cutoff, field)
    # Real shapes draw gl2 labels only when q >= 1, so at n = 1 a real-only
    # command (real components and ktheory, bc) builds no pool.  kmap's
    # source at n = 1 is complex and lists its pool.
    real_only = command == "bc" or (command in ("components", "ktheory") and field == "real")
    pool = 2 * max(cutoff, 0) + 1 if command != "partitions" and (n > 1 or not real_only) else 0
    cells = size * (n * n if command == "bc" else n) + pool
    if cells > MAX_CELLS:
        if cells - pool <= MAX_CELLS < pool:
            what = f"build a label pool of {pool} labels"
        else:
            what = f"enumerate {size} entries ({cells} cells with their labels)"
        raise ValueError(f"{command} would {what}, more than the limit of {MAX_CELLS} cells")


def _collect(command: str, n: int, cutoff: int, field: str) -> tuple[str, object]:
    """Kind and contents of one command's output: Levi shapes, a catalog's
    label strings, two presentations, parameter maps or the induced map.  Every
    input check and the complex parity self-check run here, before a byte."""
    if command == "partitions":
        return "partitions", enumerate_levi_shapes(n)
    if command == "components":
        return f"{field}_components", _catalog(field, n, cutoff, str)
    if command == "ktheory":
        if field == "real":
            degrees = k_real(n, cutoff)
        else:
            degrees = k_complex(n, cutoff)
            live, dead = degrees[n % 2], degrees[1 - n % 2]
            if dead.rank != 0 or live.rank < 1:
                raise RuntimeError("complex K-theory parity self-check failed")
        for p in degrees:
            p.generator_index  # lists the keys, checked against the rank, before a byte
        return f"k_{field}", degrees
    if command == "bc":
        return "bc", _catalog("real", n, cutoff, str)
    return "kmap", induced_k_map(n, cutoff)


# Record functions, one per kind and shared by both formats.  A component
# record is written from its label blocks, as strings, straight from the
# enumerator: a bc map's source is a real catalog record, and its target's
# labels follow from the source's (base_change._target_labels).  Its shape
# is the size of each block, (q, r) when real and the dimension when
# complex, then the lines of its chart.  It fixes the dimension, kind and
# chart counts (the rays are the dimension less the lines), so a writer
# fills those in once per shape, in a JSON template or the cells that end a
# table row, and a record adds only its key and labels.  A bc map's matrix,
# and so its rank and properness, depend on the Levi shape (q, r) alone, so
# a bc writer builds, ranks and writes one matrix per shape.  These memos
# hold a few dozen strings a command.


def _partition(shape: LeviShape) -> tuple[str, str, str, str]:
    """q, r, blocks and Weyl group (its S_d factors, or 1) of one Levi shape."""
    weyl = " x ".join(f"S{d}" for d in weyl_group(shape)) or "1"
    return str(shape.q), str(shape.r), str(shape), weyl


_Blocks = tuple[Sequence[str], ...]


def _shape(blocks: _Blocks) -> tuple[int, ...]:
    """Size of each label block, then the lines of the component's one chart."""
    return (*map(len, blocks), _num_lines(blocks))


def _counts(shape: tuple[int, ...]) -> tuple[int, str, int, int]:
    """Dimension, kind, lines and rays of a component of this shape."""
    *parts, lines = shape
    dimension = sum(parts)
    return dimension, KIND_CONE if dimension > lines else KIND_FREE, lines, dimension - lines


def _bc_shapes(matrix: Callable[[tuple], str], no_yes: tuple[str, str]) -> _Memo:
    """(q, r) -> matrix, column rank and properness, written out, of the bc map
    of the shape's first catalog component (gl2 labels 1, gl1 labels 0): every
    component of the shape has that matrix, so each shape is ranked once."""

    def fields(shape: tuple[int, int]) -> tuple[str, str, str]:
        q, r = shape
        m = bc_component(Component(SigmaOrbit((1,) * q, (0,) * r)))
        return matrix(m.matrix), str(m.column_rank), no_yes[m.is_proper]

    return _Memo(fields)


def _degree(p: KGroupPresentation) -> tuple[str, str, str]:
    """Rank (keys listed), predicted rank (closed form) and closed form of one K-degree."""
    return str(len(p.generator_index)), str(p.rank), p.closed_form.describe()


# JSON: the bytes of json.dumps(document, sort_keys=True, indent=2), written
# from templates whose keys are already sorted.  Strings go through
# encode_basestring_ascii, ints through repr (or %s, its equal).  A value
# that opens on a line indented by ``pad`` has its members at pad + "  ".

_HEAD = '{\n  "cutoff": %d,\n  "kind": "%s",\n  "n": %d,\n  "payload": '
_TAIL = ',\n  "tool_version": ' + encode_basestring_ascii(__version__) + "\n}\n"
_Write = Callable[[str], object]
_Degrees = tuple[KGroupPresentation, KGroupPresentation]


def _join(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """JSON list (or, with brackets "{}", object) of already-written items."""
    inner = "\n  " + pad
    body = ("," + inner).join(items)
    return brackets[0] + inner + body + "\n" + pad + brackets[1] if body else brackets


def _object(pad: str, keys: Sequence[str]) -> str:
    """%-template of a JSON object with these keys, in sorted order."""
    return _join((f'"{key}": %s' for key in keys), pad, "{}")


def _component_json(pad: str, field: str) -> Callable[[_Blocks], str]:
    """Writer of one component's JSON object; a cone's object has "chart" first."""
    if field == "real":
        keys = ("dimension", "gl1", "gl2", "key", "kind", "q", "r")
    else:
        keys = ("dimension", "key", "kind", "labels")
    free, cone = _object(pad, keys), _object(pad, ("chart", *keys))
    inner = pad + "  "
    chart = _object(inner, ("num_lines", "num_rays"))
    encode = encode_basestring_ascii
    sep, listed = ",\n  " + inner, _join(["%s"], inner)

    # The shape's object, with %s left for the key and the labels of each
    # list; a list of no labels is "[%s]", and its labels join to "".
    def template(shape: tuple[int, ...]) -> str:
        dimension, kind, lines, rays = _counts(shape)
        if field == "real":
            q, r = shape[:2]
            gl1, gl2 = (listed if count else "[%s]" for count in (r, q))
            fields = (dimension, gl1, gl2, "%s", encode(kind), q, r)
        else:
            fields = (dimension, "%s", encode(kind), listed)
        return cone % (chart % (lines, rays), *fields) if rays else free % fields

    templates = _Memo(template)

    def record(blocks: _Blocks) -> str:
        template = templates[_shape(blocks)]
        if field == "real":
            gl2, gl1 = blocks
            return template % (sep.join(gl1), sep.join(gl2), encode(_real_key(gl2, gl1)))
        (labels,) = blocks
        return template % (encode(_complex_key(labels)), sep.join(labels))

    return record


def _stream(write: _Write, items: Iterable[str], pad: str = "  ") -> None:
    """Write a JSON list one item at a time, as each is produced."""
    sep = "[\n  " + pad
    for item in items:
        write(sep + item)
        sep = ",\n  " + pad
    write("\n" + pad + "]" if sep[0] == "," else "[]")


def _partitions_json(write: _Write, shapes: list[LeviShape], args: Namespace) -> None:
    template = _object("    ", ("blocks", "q", "r", "weyl"))
    encode = encode_basestring_ascii
    records = map(_partition, shapes)
    _stream(write, (template % (encode(b), q, r, encode(w)) for q, r, b, w in records))


def _components_json(write: _Write, catalog: Iterator[_Blocks], args: Namespace) -> None:
    _stream(write, map(_component_json("    ", args.field), catalog))


def _ktheory_json(write: _Write, degrees: _Degrees, args: Namespace) -> None:
    # Generator lists are streamed too: k_complex(10, 10) has 352,716 in degree 0.
    encode = encode_basestring_ascii
    for d, p in enumerate(degrees):
        rank, predicted, closed_form = _degree(p)
        head = ",\n" if d else "{\n"
        write(f'{head}    "deg{d}": {{\n      "closed_form": {encode(closed_form)},\n')
        write('      "generators": ')
        _stream(write, map(encode, p.generator_index), "      ")
        write(f',\n      "predicted_rank": {predicted},\n      "rank": {rank}\n    }}')
    write("\n  }")


def _bc_json(write: _Write, catalog: Iterator[_Blocks], args: Namespace) -> None:
    template = _object("    ", ("column_rank", "matrix", "proper", "source", "target"))
    pad = "      "
    source, target = _component_json(pad, "real"), _component_json(pad, "complex")
    matrices = lambda m: _join((_join(map(repr, row), pad + "  ") for row in m), pad)
    shapes = _bc_shapes(matrices, ("false", "true"))

    def record(blocks: _Blocks) -> str:
        gl2, gl1 = blocks
        matrix, rank, proper = shapes[len(gl2), len(gl1)]
        labels = _target_labels(gl2, gl1)
        return template % (rank, matrix, proper, source(blocks), target((labels,)))

    _stream(write, map(record, catalog))


def _kmap_json(write: _Write, kmap: InducedKMap, args: Namespace) -> None:
    encode = encode_basestring_ascii
    support = kmap.support
    template = _object("      ", ("image", "source"))

    def assignment(key: str) -> str:
        items = kmap.image_of(key).items
        image = _join((f"{encode(k)}: {c!r}" for k, c in items), "        ", "{}")
        return template % (image, encode(key))

    keys = ("assignments", "degree", "source_rank", "support_size", "target_rank", "zero_map")
    zero = "true" if kmap.is_zero else "false"
    assignments = _join(map(assignment, support), "    ")
    source = kmap.source
    fields = (assignments, source.degree, source.rank, len(support), kmap.target.rank, zero)
    write(_object("  ", keys) % fields)


# Tables: rows of strings, aligned once.

_FIELD_NAMES = {"real": "R", "complex": "C"}


def _aligned(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    table = [headers, *rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    template = "  ".join(f"%-{width}s" for width in widths)
    return "".join((template % row).rstrip() + "\n" for row in table)


def _partitions_table(write: _Write, shapes: list[LeviShape], args: Namespace) -> None:
    rows = [_partition(shape) for shape in shapes]
    write(f"Levi shapes n = 2q + r for GL({args.n}, R): {len(rows)} shapes\n")
    write(_aligned(("q", "r", "blocks", "weyl"), rows))


def _components_table(write: _Write, catalog: Iterator[_Blocks], args: Namespace) -> None:
    # Two passes over the catalog, and no row is held: the first finds the
    # widest key, the second writes the rows.  No other column needs a pass:
    # the widest dimension is n, which every catalog has (over R, on the
    # shape of n 1-blocks), "free" and "cone" are as wide as "kind", and the
    # chart ends the row.  The free components are the K-theory generators
    # of both degrees, so the header counts them, and the whole catalog,
    # with the closed forms that price ktheory and components commands:
    # each record reads its chart's lines once.
    key = _real_key if args.field == "real" else _complex_key
    key_width = max(3, max(map(len, starmap(key, catalog))))
    tail = "  %%-%ds  %%-4s  %%s\n" % max(3, len(str(args.n)))
    free = predicted_size("ktheory", args.n, args.cutoff, args.field)
    cone = predicted_size("components", args.n, args.cutoff, args.field) - free
    write(
        f"Tempered-dual components for GL({args.n}, {_FIELD_NAMES[args.field]}) "
        f"at cutoff {args.cutoff}: {free} free, {cone} cone\n"
    )
    write("key".ljust(key_width) + tail % ("dim", "kind", "chart"))

    def cells(shape: tuple[int, ...]) -> str:
        dimension, kind, lines, rays = _counts(shape)
        return tail % (dimension, kind, f"lines={lines},rays={rays}" if rays else "-")

    tails = _Memo(cells)
    for blocks in _catalog(args.field, args.n, args.cutoff, str):
        write(key(*blocks).ljust(key_width) + tails[_shape(blocks)])


def _ktheory_table(write: _Write, degrees: _Degrees, args: Namespace) -> None:
    rows = [(f"K{d}", *_degree(p)) for d, p in enumerate(degrees)]
    write(f"K-theory of C*_r GL({args.n}, {_FIELD_NAMES[args.field]}) at cutoff {args.cutoff}\n")
    write(_aligned(("degree", "rank", "predicted", "closed form"), rows))
    for d, p in enumerate(degrees):
        if p.rank:
            write(f"K{d} generators:\n")
            for key in p.generator_index:
                write("  " + key + "\n")


def _bc_table(write: _Write, catalog: Iterator[_Blocks], args: Namespace) -> None:
    # Two passes over the catalog, and no row is held, as in
    # _components_table: the first finds the widest source and target keys
    # and counts the proper maps, the second writes the rows.  The other
    # columns are as wide as their widest shape: "free" and "cone" are
    # narrower than "target kind", and the proper column ends the row.
    matrices = lambda m: "[" + ",".join("[" + ",".join(map(repr, row)) + "]" for row in m) + "]"
    shapes = _bc_shapes(matrices, ("no", "yes"))
    widths, proper_maps, records = (len("source"), len("target")), 0, 0
    for gl2, gl1 in catalog:
        keys = _real_key(gl2, gl1), _complex_key(_target_labels(gl2, gl1))
        widths = tuple(map(max, widths, map(len, keys)))
        proper_maps += shapes[len(gl2), len(gl1)][2] == "yes"
        records += 1
    headers = ("source", "target", "target kind", "matrix", "rank", "proper")
    widths += tuple(max(map(len, column)) for column in zip(headers[3:5], *shapes.values()))
    template = "%%-%ds  %%-%ds  %%-11s  %%-%ds  %%-%ds  %%s\n" % widths
    write(
        f"Base change on components, GL({args.n}, R) -> GL({args.n}, C) "
        f"at cutoff {args.cutoff}: {proper_maps} of {records} maps proper\n"
    )
    write(template % headers)
    for gl2, gl1 in _catalog("real", args.n, args.cutoff, str):
        target = _target_labels(gl2, gl1)
        cells = _counts(_shape((target,)))[1], *shapes[len(gl2), len(gl1)]
        write(template % (_real_key(gl2, gl1), _complex_key(target), *cells))


def _kmap_table(write: _Write, kmap: InducedKMap, args: Namespace) -> None:
    support = kmap.support
    plural = "" if len(support) == 1 else "s"
    summary = (
        f"{len(support)} nonzero assignment{plural} out of {kmap.source.rank} source generators"
    )
    write(
        f"Induced K-theory map of base change for GL({args.n}) at cutoff {args.cutoff}, "
        f"degree {kmap.source.degree}\n"
    )
    if kmap.is_zero:
        write(f"zero map: {summary}\n")
        return
    rows = [
        (key, "->", " + ".join(k if c == 1 else f"{c}*{k}" for k, c in kmap.image_of(key).items))
        for key in support
    ]
    write(summary + "\n" + _aligned(("source", "", "image"), rows))


# command -> (write its JSON payload, write its table)
_WRITERS = {
    "partitions": (_partitions_json, _partitions_table),
    "components": (_components_json, _components_table),
    "ktheory": (_ktheory_json, _ktheory_table),
    "bc": (_bc_json, _bc_table),
    "kmap": (_kmap_json, _kmap_table),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_size(args.command, args.n, args.cutoff, args.field)
        kind, data = _collect(args.command, args.n, args.cutoff, args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_json, write_table = _WRITERS[args.command]
    write = sys.stdout.write
    try:
        if args.format == "json":
            write(_HEAD % (args.cutoff, kind, args.n))
            write_json(write, data, args)
            write(_TAIL)
        else:
            write_table(write, data, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (temperedk ... | head).  As the signal docs'
        # "Note on SIGPIPE" advises, stdout goes to devnull, so the flush at
        # exit cannot raise again, and the exit is 1 with no traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
