"""Command-line front end emitting reproducible catalogs.

Five subcommands cover the engine surface: ``partitions`` (Levi shapes),
``components`` (tempered-dual catalog, real or complex), ``ktheory``
(K-group presentations), ``bc`` (base change on components, with parameter
matrices), and ``kmap`` (the induced map on K-theory).  Output is either a
deterministic JSON document or an aligned text table; identical inputs give
byte-identical output, and nothing is printed until the whole document has
been built.

JSON is written by ``_json``: exactly the bytes of ``json.dumps(document,
sort_keys=True, indent=2)`` for the types a document holds, ``TypeError``
on any other, and faster up to CPython 3.12, where the stdlib encoder runs
in pure Python whenever ``indent`` is set.  Before enumerating anything,
``build_document`` predicts the command's size from closed forms and raises
``ValueError`` over ``MAX_CELLS``, so the CLI exits 1 with an empty stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from math import comb, inf
from typing import Optional, Sequence

from . import __version__
from .base_change import InducedKMap, bc_component, induced_k_map
from .ktheory import KGroupPresentation, k_complex, k_real
from .levi import enumerate_levi_shapes, weyl_group
from .param_space import (
    KIND_CONE,
    KIND_FREE,
    ComplexComponent,
    Component,
    complex_components,
    cone_chart,
    real_components,
)

# Largest output a command may build, in cells: n labels per entry, n^2 per
# bc record for its n-row matrix, plus the label pool.  kmap and ktheory
# --field complex at n = cutoff = 10 need 3.5e6; a complex components export
# at the limit peaks near 1 GB (CPython 3.11, about 250 bytes per cell).
MAX_CELLS = 4_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temperedk",
        description="Catalogs of tempered duals of GL(n) over R and C, "
        "their K-theory, and archimedean base change.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, required=True, help="rank n of GL(n)")
    common.add_argument(
        "--cutoff", type=int, default=4, help="largest discrete-series label enumerated (default 4)"
    )
    common.add_argument(
        "--field", choices=("real", "complex"), default="real", help="base field (default real)"
    )
    common.add_argument(
        "--format", choices=("json", "table"), default="table", help="output format (default table)"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("partitions", parents=[common], help="Levi shapes n = 2q + r")
    sub.add_parser("components", parents=[common], help="tempered-dual component catalog")
    sub.add_parser("ktheory", parents=[common], help="K-group presentations")
    sub.add_parser("bc", parents=[common], help="base change on components")
    sub.add_parser("kmap", parents=[common], help="induced map on K-theory")
    return parser


def _record(c: Component | ComplexComponent, **fields) -> dict:
    """Key, dimension, kind and (for cones) chart, plus the field's own labels.

    One chart per record: a component is free exactly when its chart has no
    rays, so its label runs are scanned once."""
    chart = cone_chart(c)
    record = {
        "key": c.key,
        "dimension": c.dimension,
        "kind": KIND_CONE if chart.num_rays else KIND_FREE,
        **fields,
    }
    if chart.num_rays:
        record["chart"] = {"num_lines": chart.num_lines, "num_rays": chart.num_rays}
    return record


def _real_record(c: Component) -> dict:
    return _record(
        c, q=c.shape.q, r=c.shape.r, gl2=list(c.orbit.gl2_labels), gl1=list(c.orbit.gl1_labels)
    )


def _complex_record(c: ComplexComponent) -> dict:
    return _record(c, labels=list(c.labels))


def _chart_cell(record: dict) -> str:
    if "chart" not in record:
        return "-"
    chart = record["chart"]
    return f"lines={chart['num_lines']},rays={chart['num_rays']}"


def _degree_payload(p: KGroupPresentation, cutoff: int) -> dict:
    return {
        "rank": p.rank,
        "closed_form": p.closed_form.describe(),
        "predicted_rank": p.closed_form.rank_at(cutoff),
        "generators": list(p.generator_keys),
    }


def _kmap_payload(kmap: InducedKMap, degree: int) -> dict:
    assignments = [
        {"source": key, "image": dict(cls.items)}
        for key, cls in kmap.assignments
        if not cls.is_zero
    ]
    return {
        "degree": degree,
        "source_rank": kmap.source.rank,
        "target_rank": kmap.target.rank,
        "zero_map": kmap.is_zero,
        "support_size": len(assignments),
        "assignments": assignments,
    }


def _binomial(a: int, k: int) -> int | float:
    """C(a, k), and 0 outside 0 <= k <= a.  When k and a - k both exceed 64
    the value is above C(128, 64) > 10^37, far past any limit; ``inf``
    stands for it, so no --n or --cutoff, however large, costs more than a
    product of 64 terms."""
    if k < 0 or k > a:
        return 0
    if min(k, a - k) > 64:
        return inf
    return comb(a, k)


def predicted_size(command: str, n: int, cutoff: int, field: str) -> int | float:
    """Entries ``build_document`` would enumerate, from closed forms alone:
    Levi shapes (partitions), catalog components (components, bc),
    generators of both degrees (ktheory) or of both presentations (kmap).

    0 when n < 1, which every command rejects before enumerating; ``inf``
    for counts above 10^37 (see ``_binomial``)."""
    if n < 1:
        return 0
    q, odd = divmod(n, 2)
    if command == "partitions":
        return q + 1
    if command == "bc" or (command == "components" and field == "real"):
        # The sum over shapes of C(L + q' - 1, q')(r + 1), in closed form by
        # the hockey-stick identity.  real_components builds its shapes
        # before it checks the cutoff, so a cutoff below 1 counts as 1.
        top = max(cutoff, 1) + q + 1
        return _binomial(top, q) + (_binomial(top, q) if odd else _binomial(top - 1, q - 1))
    if command == "components":
        return _binomial(2 * cutoff + n, n)
    complex_rank = _binomial(2 * cutoff + 1, n)
    # k_real's free orbits: a q-subset of {1..cutoff} times an r-subset of
    # {0, 1}, so r = 1 for odd n and r in (0, 2) for even n.
    if odd:
        real_rank = 2 * _binomial(cutoff, q)
    else:
        real_rank = _binomial(cutoff, q) + _binomial(cutoff, q - 1)
    if command == "ktheory":
        return real_rank if field == "real" else complex_rank
    return complex_rank + real_rank


def build_document(command: str, n: int, cutoff: int, field: str) -> dict:
    """CatalogDocument for one invocation; raises ValueError on bad domains
    and on commands whose predicted size exceeds ``MAX_CELLS``."""
    size = predicted_size(command, n, cutoff, field)
    # Up to n labels per entry (n^2 per bc record, for its matrix), plus the
    # pool of up to 2 * cutoff + 1 labels that the enumerators materialize.
    cells = size * (n * n if command == "bc" else n)
    if command != "partitions":
        cells += 2 * max(cutoff, 0) + 1
    if cells > MAX_CELLS:
        raise ValueError(
            f"{command} would enumerate {size} entries ({cells} cells with their labels), "
            f"more than the limit of {MAX_CELLS} cells"
        )
    if command == "partitions":
        kind = "partitions"
        payload = []
        for shape in enumerate_levi_shapes(n):
            payload.append(
                {"q": shape.q, "r": shape.r, "blocks": str(shape), "weyl": str(weyl_group(shape))}
            )
    elif command == "components":
        if field == "real":
            kind = "real_components"
            payload = [_real_record(c) for c in real_components(n, cutoff)]
        else:
            kind = "complex_components"
            payload = [_complex_record(c) for c in complex_components(n, cutoff)]
    elif command == "ktheory":
        if field == "real":
            kind = "k_real"
            k0, k1 = k_real(n, cutoff)
        else:
            kind = "k_complex"
            k0, k1 = k_complex(n, cutoff)
            live = k1 if n % 2 else k0
            dead = k0 if n % 2 else k1
            if dead.rank != 0 or live.rank < 1:
                raise RuntimeError("complex K-theory parity self-check failed")
        payload = {"deg0": _degree_payload(k0, cutoff), "deg1": _degree_payload(k1, cutoff)}
    elif command == "bc":
        kind = "bc"
        payload = []
        for c in real_components(n, cutoff):
            pmap = bc_component(c)
            payload.append(
                {
                    "source": _real_record(c),
                    "target": _complex_record(pmap.target),
                    "matrix": [list(row) for row in pmap.matrix],
                    "column_rank": pmap.column_rank,
                    "proper": pmap.is_proper,
                }
            )
    else:
        kind = "kmap"
        kmap = induced_k_map(n, cutoff)
        payload = _kmap_payload(kmap, n % 2)
    return {
        "tool_version": __version__,
        "n": n,
        "cutoff": cutoff,
        "kind": kind,
        "payload": payload,
    }


def _aligned(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    table = [list(headers)] + [list(r) for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    return [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]


def _image_cell(image: dict) -> str:
    terms = []
    for key in sorted(image):
        coeff = image[key]
        terms.append(key if coeff == 1 else f"{coeff}*{key}")
    return " + ".join(terms)


def render_table(document: dict) -> str:
    n = document["n"]
    cutoff = document["cutoff"]
    kind = document["kind"]
    payload = document["payload"]
    lines: list[str] = []
    if kind == "partitions":
        lines.append(f"Levi shapes n = 2q + r for GL({n}, R): {len(payload)} shapes")
        rows = [(str(p["q"]), str(p["r"]), p["blocks"], p["weyl"]) for p in payload]
        lines.extend(_aligned(("q", "r", "blocks", "weyl"), rows))
    elif kind in ("real_components", "complex_components"):
        field_name = "R" if kind == "real_components" else "C"
        free = sum(1 for p in payload if p["kind"] == "free")
        lines.append(
            f"Tempered-dual components for GL({n}, {field_name}) at cutoff {cutoff}: "
            f"{free} free, {len(payload) - free} cone"
        )
        rows = [
            (p["key"], str(p["dimension"]), p["kind"], _chart_cell(p))
            for p in payload
        ]
        lines.extend(_aligned(("key", "dim", "kind", "chart"), rows))
    elif kind in ("k_real", "k_complex"):
        field_name = "R" if kind == "k_real" else "C"
        lines.append(f"K-theory of C*_r GL({n}, {field_name}) at cutoff {cutoff}")
        rows = [
            (
                f"K{deg}",
                str(payload[f"deg{deg}"]["rank"]),
                str(payload[f"deg{deg}"]["predicted_rank"]),
                payload[f"deg{deg}"]["closed_form"],
            )
            for deg in (0, 1)
        ]
        lines.extend(_aligned(("degree", "rank", "predicted", "closed form"), rows))
        for deg in (0, 1):
            generators = payload[f"deg{deg}"]["generators"]
            if generators:
                lines.append(f"K{deg} generators:")
                lines.extend(f"  {key}" for key in generators)
    elif kind == "bc":
        proper = sum(1 for p in payload if p["proper"])
        lines.append(
            f"Base change on components, GL({n}, R) -> GL({n}, C) at cutoff {cutoff}: "
            f"{proper} of {len(payload)} maps proper"
        )
        rows = [
            (
                p["source"]["key"],
                p["target"]["key"],
                p["target"]["kind"],
                json.dumps(p["matrix"], separators=(",", ":")),
                str(p["column_rank"]),
                "yes" if p["proper"] else "no",
            )
            for p in payload
        ]
        lines.extend(_aligned(("source", "target", "target kind", "matrix", "rank", "proper"), rows))
    else:
        lines.append(
            f"Induced K-theory map of base change for GL({n}) at cutoff {cutoff}, "
            f"degree {payload['degree']}"
        )
        plural = "" if payload["support_size"] == 1 else "s"
        summary = (
            f"{payload['support_size']} nonzero assignment{plural} out of "
            f"{payload['source_rank']} source generators"
        )
        if payload["zero_map"]:
            lines.append(f"zero map: {summary}")
        else:
            lines.append(summary)
            rows = [
                (a["source"], "->", _image_cell(a["image"])) for a in payload["assignments"]
            ]
            lines.extend(_aligned(("source", "", "image"), rows))
    return "\n".join(lines) + "\n"


def _json(value: object, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` for str-keyed dicts,
    lists, str, int and bool; any other type raises ``TypeError``.

    ``newline`` carries the indentation of the current level.  Each
    container is joined into one string rather than yielded token by token,
    which keeps the peak memory of a large document down."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        parts = [_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        parts = [
            encode_basestring_ascii(key) + ": " + _json(value[key], inner) for key in sorted(value)
        ]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = build_document(args.command, args.n, args.cutoff, args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        output = _json(document) + "\n"
    else:
        output = render_table(document)
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
