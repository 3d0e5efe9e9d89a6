"""Command-line front end emitting reproducible catalogs.

Five subcommands cover the engine surface: ``partitions`` (Levi shapes),
``components`` (tempered-dual catalog, real or complex), ``ktheory``
(K-group presentations), ``bc`` (base change on components, with parameter
matrices), and ``kmap`` (the induced map on K-theory).  Output is either a
deterministic JSON document or an aligned text table; identical inputs give
byte-identical output, and nothing is printed until the whole document has
been built.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import __version__
from .base_change import InducedKMap, bc_component, induced_k_map
from .ktheory import KGroupPresentation, k_complex, k_real
from .levi import enumerate_levi_shapes, weyl_group
from .param_space import (
    ComplexComponent,
    Component,
    complex_components,
    cone_chart,
    real_components,
)


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
    """Key, dimension, kind and (for cones) chart, plus the field's own labels."""
    record = {"key": c.key, "dimension": c.dimension, "kind": c.kind, **fields}
    if not c.is_free:
        chart = cone_chart(c)
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


def build_document(command: str, n: int, cutoff: int, field: str) -> dict:
    """CatalogDocument for one invocation; raises ValueError on bad domains."""
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = build_document(args.command, args.n, args.cutoff, args.field)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        output = json.dumps(document, sort_keys=True, indent=2) + "\n"
    else:
        output = render_table(document)
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
