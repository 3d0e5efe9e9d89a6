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
``ktheory.IndexFamily``.  It rejects a command over ``MAX_CELLS``; then
``_collect`` runs every other check (ktheory counts its label sets against
their closed-form ranks and builds no key index) as it builds what the
command prints; then it writes JSON or a table, a chunk of records per write.
A ``ValueError`` exits 1 with an empty stdout; a closed pipe exits 1 quietly.
"""

from __future__ import annotations

import argparse
import os
import sys
from argparse import Namespace
from itertools import islice
from json.encoder import encode_basestring_ascii as encode
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
    _block_lines,
    _catalog,
    _complex_catalog_size,
    _complex_key,
    _real_catalog_size,
    _real_key,
    _shape_catalog_size,
    _widest_blocks,
)

# Largest output a command may write, in cells: n labels per entry, n^2 per
# bc record for the n-row matrix it prints, plus the label pool if one is
# built.  kmap is priced at its keys only for n = 1, so for n >= 2 it
# counts just the pool.  Catalogs, bc maps and ktheory keys stream from
# label strings, a chunk of records per write, and hold no record, so the
# cap bounds a command's time and output, not its memory.
MAX_CELLS = 4_000_000


def build_parser() -> argparse.ArgumentParser:
    # One parser, not a subparser per command: the five commands take the
    # same options, so each option is declared once.
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
    n >= 2 (kmap, which lists none).  0 when n < 1, which every command
    rejects before enumerating; ``inf`` for counts above 10^37 (see
    ``levi._binomial``)."""
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
    # kmap at n = 1 is priced at the 2 * cutoff + 1 source keys and the two
    # target keys it once listed to check its one assignment, so that its
    # refusals stay byte-identical, though it now reads membership from the
    # three keys alone and lists none.  For n >= 2 the map is zero and
    # costs nothing.  It prints both ranks exactly, so an infinite one
    # refuses it, and the pool term of _check_size bounds the digits of a
    # finite one.
    both = real_rank + complex_rank
    return both if n == 1 or both == inf else 0


def _check_size(command: str, n: int, cutoff: int, field: str) -> None:
    """Raise ValueError when the command's cells (see ``MAX_CELLS``) exceed the limit."""
    size = predicted_size(command, n, cutoff, field)
    # Real shapes draw gl2 labels only when q >= 1, so at n = 1 a real-only
    # command (real components and ktheory, bc) builds no pool.  kmap's
    # source at n = 1 is complex and is priced with its pool.
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
        degrees = (k_real if field == "real" else k_complex)(n, cutoff)
        live, dead = degrees[n % 2], degrees[1 - n % 2]
        if field == "complex" and (dead.rank != 0 or live.rank < 1):
            raise RuntimeError("complex K-theory parity self-check failed")
        # One counting pass over each degree's label sets, checked against the
        # closed-form rank before a byte; the writers then stream the keys.
        counts = (p._checked(sum(1 for _ in p._label_sets(str))) for p in degrees)
        return f"k_{field}", tuple(zip(degrees, counts))
    if command == "bc":
        return "bc", _catalog("real", n, cutoff, str)
    return "kmap", induced_k_map(n, cutoff)


# Record functions, one per kind and shared by both formats.  A component
# record is written from its label blocks, as strings, straight from the
# enumerator: a bc map's source is a real catalog record, and its target's
# labels follow from the source's (base_change._target_labels).  Its shape
# key is the size of each block, then the lines of each block's chart:
# param_space's own count of distinct labels, made once per block
# (_block_lines).  A real key is (q, r, gl2 lines, gl1 lines), a complex
# one (n, lines).  The key fixes the dimension, kind and chart counts (the
# rays are the dimension less the lines), and so every byte of a record but
# its labels.  So a writer makes one record function per shape key: _record
# calls template(shape, dimension, kind, lines, rays), and the template
# writes the shape's JSON object or table row once, with a %s placeholder
# for each label list and one for the key, splits it there into fixed
# pieces and returns a function of the shape's label blocks.  A record is
# then one f-string of those pieces and its fills: each label list is one
# join of its block, an empty one a fixed [] and an empty fill, and the key
# is param_space's (_real_key, _complex_key), padded to its column in a
# table.  A key is written as is, in quotes, with no JSON escaping: its
# labels are str(int), and its other characters are fixed ASCII.  Every
# complex record of a command has dimension n, so _by_shape memoizes its
# record functions by their lines alone.  A bc map's target key follows
# from its source's: gl2 labels are >= 1, so each distinct one gives two
# distinct target labels, l and -l, and a gl1 block of any size the one
# label 0, so the target has n labels and 2 * (gl2 lines) + min(r, 1) lines.
# Its matrix, and so its rank and properness, depend on (q, r) alone.  So a
# bc writer picks the target's record function, and builds, ranks and
# writes the matrix, once per source shape.  These memos hold a few dozen
# strings and functions a command.


def _partition(shape: LeviShape) -> tuple[str, str, str, str]:
    """q, r, blocks and Weyl group (its S_d factors, or 1) of one Levi shape."""
    weyl = " x ".join(f"S{d}" for d in weyl_group(shape)) or "1"
    return str(shape.q), str(shape.r), str(shape), weyl


_Blocks = tuple[Sequence[str], ...]


def _record(template: Callable[..., Callable[..., str]], shape: tuple[int, ...]) -> Callable:
    """Record function of one shape key (see above): its blocks' sizes, then their lines."""
    half = len(shape) // 2
    lines = sum(shape[half:])
    rays = sum(shape[:half]) - lines
    return template(shape, lines + rays, KIND_CONE if rays else KIND_FREE, lines, rays)


def _by_shape(field: str, n: int, template: Callable[..., Callable[..., str]]) -> Callable:
    """Record function: its shape's own (see above), called on its label blocks."""
    records = _Memo(lambda key: _record(template, key if field == "real" else (n, key)))

    def real(blocks: _Blocks) -> str:
        gl2, gl1 = blocks
        return records[len(gl2), len(gl1), _block_lines(gl2), _block_lines(gl1)](gl2, gl1)

    def complex_(blocks: _Blocks) -> str:
        (labels,) = blocks
        return records[_block_lines(labels)](labels)

    return real if field == "real" else complex_


def _bc_shapes(matrix: Callable[[tuple], str], no_yes: tuple[str, str]) -> _Memo:
    """(q, r) -> matrix, column rank and properness, written out, of the bc map
    of the shape's first catalog component (gl2 labels 1, gl1 labels 0): every
    component of the shape has that matrix, so each shape is ranked once."""

    def fields(shape: tuple[int, int]) -> tuple[str, str, str]:
        q, r = shape
        m = bc_component(Component(SigmaOrbit((1,) * q, (0,) * r)))
        return matrix(m.matrix), str(m.column_rank), no_yes[m.is_proper]

    return _Memo(fields)


def _degree(p: KGroupPresentation, listed: int) -> tuple[str, str, str]:
    """Rank (keys counted), predicted rank (closed form) and closed form of one K-degree."""
    return str(listed), str(p.rank), p.closed_form.describe()


# Every record loop writes through _write_joined, which joins _CHUNK records
# per write: one call per record would cost a system call per record when
# PYTHONUNBUFFERED is set.  A chunk is about 7 kB of complex table rows,
# 30 kB of complex JSON records and 220 kB of bc JSON records.
_CHUNK = 128
_Write = Callable[[str], object]


def _write_joined(write: _Write, items: Iterable[str], sep: str = "", head: str = "") -> bool:
    """Write head, then the items joined by sep, _CHUNK a call; False if none."""
    items, wrote = iter(items), False
    while chunk := list(islice(items, _CHUNK)):
        write((sep if wrote else head) + sep.join(chunk))
        wrote = True
    return wrote


# JSON: the bytes of json.dumps(document, sort_keys=True, indent=2), written
# from templates whose keys are already sorted.  Strings go through encode
# (json.encoder.encode_basestring_ascii), ints through repr (or %s, its
# equal).  A value that opens on a line indented by ``pad`` has its members
# at pad + "  ".

_HEAD = '{\n  "cutoff": %d,\n  "kind": "%s",\n  "n": %d,\n  "payload": '
_TAIL = ',\n  "tool_version": ' + encode(__version__) + "\n}\n"
_Degrees = tuple[tuple[KGroupPresentation, int], ...]


def _join(items: Iterable[str], pad: str, brackets: str = "[]") -> str:
    """JSON list (or, with brackets "{}", object) of already-written items."""
    inner = "\n  " + pad
    body = ("," + inner).join(items)
    return brackets[0] + inner + body + "\n" + pad + brackets[1] if body else brackets


def _object(pad: str, keys: Sequence[str]) -> str:
    """%-template of a JSON object with these keys, in sorted order."""
    return _join((f'"{key}": %s' for key in keys), pad, "{}")


def _component_json(pad: str, field: str) -> Callable[..., Callable[..., str]]:
    """Template (see above) of one component's JSON object; a cone's has "chart" first."""
    real_keys = ("dimension", "gl1", "gl2", "key", "kind", "q", "r")
    keys = real_keys if field == "real" else ("dimension", "key", "kind", "labels")
    free, cone = _object(pad, keys), _object(pad, ("chart", *keys))
    inner = pad + "  "
    chart = _object(inner, ("num_lines", "num_rays"))
    join = (",\n  " + inner).join

    # The shape's object, split at its label lists, in key order (gl1 before
    # gl2), and at its key.
    def template(shape: tuple[int, ...], dimension: int, kind: str, lines: int, rays: int):
        sizes = shape[: len(shape) // 2]
        lists = [_join(("%s",), inner) if count else "[]%s" for count in reversed(sizes)]
        obj = cone.replace("%s", chart % (lines, rays), 1) if rays else free
        if field == "real":
            a, b, c, d = (obj % (dimension, *lists, '"%s"', encode(kind), *shape[:2])).split("%s")
            return lambda gl2, gl1: f"{a}{join(gl1)}{b}{join(gl2)}{c}{_real_key(gl2, gl1)}{d}"
        a, b, c = (obj % (dimension, '"%s"', encode(kind), *lists)).split("%s")
        return lambda labels: f"{a}{_complex_key(labels)}{b}{join(labels)}{c}"

    return template


def _stream(write: _Write, items: Iterable[str], pad: str = "  ") -> None:
    """Write a JSON list of items as they are produced, a chunk at a time."""
    wrote = _write_joined(write, items, ",\n  " + pad, "[\n  " + pad)
    write("\n" + pad + "]" if wrote else "[]")


def _partitions_json(write: _Write, shapes: list[LeviShape], args: Namespace) -> None:
    template = _object("    ", ("blocks", "q", "r", "weyl"))
    records = map(_partition, shapes)
    _stream(write, (template % (encode(b), q, r, encode(w)) for q, r, b, w in records))


def _components_json(write: _Write, catalog: Iterator[_Blocks], args: Namespace) -> None:
    _stream(write, map(_by_shape(args.field, args.n, _component_json("    ", args.field)), catalog))


def _ktheory_json(write: _Write, degrees: _Degrees, args: Namespace) -> None:
    # Generator lists are streamed too: k_complex(10, 10) has 352,716 in degree 0.
    for d, (p, listed) in enumerate(degrees):
        rank, predicted, closed_form = _degree(p, listed)
        head = ",\n" if d else "{\n"
        write(f'{head}    "deg{d}": {{\n      "closed_form": {encode(closed_form)},\n')
        write('      "generators": ')
        _stream(write, map(encode, p._keys()), "      ")
        write(f',\n      "predicted_rank": {predicted},\n      "rank": {rank}\n    }}')
    write("\n  }")


def _bc_json(write: _Write, catalog: Iterator[_Blocks], args: Namespace) -> None:
    template = _object("    ", ("column_rank", "matrix", "proper", "source", "target"))
    pad = "      "
    source, target = _component_json(pad, "real"), _component_json(pad, "complex")
    matrices = lambda m: _join((_join(map(repr, row), pad + "  ") for row in m), pad)
    shapes = _bc_shapes(matrices, ("false", "true"))

    # The source's shape fixes the map's: its object, split at its source,
    # written by the source's record function, and at its target, written by
    # the record function of the target's key.
    def bc_template(shape: tuple[int, ...], *counts: object) -> Callable[..., str]:
        q, r, gl2_lines, _ = shape
        matrix, rank, proper = shapes[q, r]
        a, b, c = (template % (rank, matrix, proper, "%s", "%s")).split("%s")
        record = source(shape, *counts)
        image = _record(target, (args.n, 2 * gl2_lines + min(r, 1)))
        return lambda gl2, gl1: f"{a}{record(gl2, gl1)}{b}{image(_target_labels(gl2, gl1))}{c}"

    _stream(write, map(_by_shape("real", args.n, bc_template), catalog))


def _kmap_json(write: _Write, kmap: InducedKMap, args: Namespace) -> None:
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


# Tables: rows of strings, aligned once.  The catalog tables hold no row:
# each column's width follows from n and the cutoff, so they write in one
# pass.

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
    # One pass, and no row is held: the widest key is a closed form
    # (param_space._widest_blocks).  The widest dimension is n, which every
    # catalog has (over R, on the shape of n 1-blocks), "free" and "cone" are
    # as wide as "kind", and the chart ends the row.  The free components are
    # the K-theory generators of both degrees, so the header counts them, and
    # the whole catalog, with the closed forms that price ktheory and
    # components commands: each record counts its chart's lines once per block.
    key_of = _real_key if args.field == "real" else _complex_key
    widest = max(len(key_of(*b)) for b in _widest_blocks(args.field, args.n, args.cutoff))
    width, cells = max(3, widest), "  %%-%ds  %%-4s  %%s\n" % max(3, len(str(args.n)))
    free = predicted_size("ktheory", args.n, args.cutoff, args.field)
    cone = predicted_size("components", args.n, args.cutoff, args.field) - free
    write(
        f"Tempered-dual components for GL({args.n}, {_FIELD_NAMES[args.field]}) "
        f"at cutoff {args.cutoff}: {free} free, {cone} cone\n"
        + "key".ljust(width) + cells % ("dim", "kind", "chart")
    )

    # The shape's row: its key, then its fixed rest.
    def template(shape: tuple[int, ...], dimension: int, kind: str, lines: int, rays: int):
        rest = cells % (dimension, kind, f"lines={lines},rays={rays}" if rays else "-")
        if args.field == "real":
            return lambda gl2, gl1: _real_key(gl2, gl1).ljust(width) + rest
        return lambda labels: _complex_key(labels).ljust(width) + rest

    _write_joined(write, map(_by_shape(args.field, args.n, template), catalog))


def _ktheory_table(write: _Write, degrees: _Degrees, args: Namespace) -> None:
    rows = [(f"K{d}", *_degree(*degree)) for d, degree in enumerate(degrees)]
    write(f"K-theory of C*_r GL({args.n}, {_FIELD_NAMES[args.field]}) at cutoff {args.cutoff}\n")
    write(_aligned(("degree", "rank", "predicted", "closed form"), rows))
    for d, (p, _) in enumerate(degrees):
        if _write_joined(write, p._keys(), "\n  ", f"K{d} generators:\n  "):
            write("\n")


def _bc_table(write: _Write, catalog: Iterator[_Blocks], args: Namespace) -> None:
    # One pass, as in _components_table.  The widest source and target keys
    # of a shape are those of its widest-keyed component, and its maps are
    # proper together, so the header counts the proper maps shape by shape
    # (param_space._shape_catalog_size).  The matrix and rank columns are as
    # wide as their widest shape, "free" and "cone" are narrower than
    # "target kind", and the proper column ends the row.
    matrices = lambda m: "[" + ",".join("[" + ",".join(map(repr, row)) + "]" for row in m) + "]"
    shapes = _bc_shapes(matrices, ("no", "yes"))
    key_pair = lambda gl2, gl1: (_real_key(gl2, gl1), _complex_key(_target_labels(gl2, gl1)))
    widths, proper_maps, records = (len("source"), len("target")), 0, 0
    for gl2, gl1 in _widest_blocks("real", args.n, args.cutoff):
        widths = tuple(map(max, widths, map(len, key_pair(gl2, gl1))))
        count = _shape_catalog_size(len(gl2), len(gl1), args.cutoff)
        proper_maps += count * (shapes[len(gl2), len(gl1)][2] == "yes")
        records += count
    headers = ("source", "target", "target kind", "matrix", "rank", "proper")
    widths += tuple(max(map(len, column)) for column in zip(headers[3:5], *shapes.values()))
    keys = lambda source, target: f"{source.ljust(widths[0])}  {target.ljust(widths[1])}  "
    cells = "%%-11s  %%-%ds  %%-%ds  %%s\n" % widths[2:]
    write(
        f"Base change on components, GL({args.n}, R) -> GL({args.n}, C) "
        f"at cutoff {args.cutoff}: {proper_maps} of {records} maps proper\n"
        + keys(*headers[:2]) + cells % headers[2:]
    )

    # A row's cells follow from its source's shape and chart: the target
    # labels are -l and l for each gl2 label l and one 0 for each gl1 label,
    # so the target is free exactly when the source is and r <= 1.
    def template(shape: tuple[int, ...], dimension: int, kind: str, lines: int, rays: int):
        rest = cells % (kind if shape[1] <= 1 else KIND_CONE, *shapes[shape[:2]])
        return lambda gl2, gl1: keys(*key_pair(gl2, gl1)) + rest

    _write_joined(write, map(_by_shape("real", args.n, template), catalog))


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
