"""Command line surface: analyze one polyomino, verify the census,
or enumerate shapes.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 census violations,
141 output pipe closed by the reader (as for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import census as census_mod
from .errors import (
    NotApplicableError,
    RankOutOfRangeError,
    RookLabError,
    UnknownCheckError,
)
from .polyomino import Polyomino, parse_ascii, parse_cells, render_ascii
from .record import GraphRecord, ShapeRecord
from .rook_complex import INTERVAL

SCHEMA_VERSION = 1
REG_NOT_DETERMINED = "not combinatorially determined by this toolkit"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VIOLATIONS = 3
EXIT_CLOSED_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_polyomino(path: str, fmt: str) -> Polyomino:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        data = json.loads(text)
        return parse_cells(data["cells"])
    return parse_ascii(text)


def _cells_json(cells) -> list[list[int]]:
    return [[x, y] for x, y in sorted(cells)]


def analyze_polyomino(poly: Polyomino, convention: str = INTERVAL) -> dict:
    """Full analysis report as a JSON-ready dict with frozen field names.

    The graph-dependent fields follow ``convention``; partitions, the
    brush, the class, regularity and the checks always follow the
    interval convention.
    """
    rec = ShapeRecord(poly)
    view = rec if convention == INTERVAL else GraphRecord(poly, convention)
    preds = rec.predicates
    rc = view.rook_complex
    purity = rc.purity
    chord = view.chordality
    classification = rec.classification
    matching = view.matching

    supers = []
    purity_flag = None
    if poly.rank >= 2:
        for part in rec.super_partitions:
            supers.append(
                {
                    "orientation": part.orientation,
                    "intervals": [_cells_json(iv.cells) for iv in part.intervals],
                }
            )
        purity_flag = rec.purity_theorem.consistent

    brush_field = None
    brush = rec.brush
    if brush is not None:
        brush_field = {
            "handle": _cells_json(brush.handle.cells),
            "bristles": [_cells_json(iv.cells) for iv in brush.bristles],
            "lengths": list(brush.lengths),
            "short": brush.short,
            "pureBrush": brush.pure_brush,
            "d": brush.d,
        }

    try:
        regularity = rec.regularity
    except NotApplicableError:
        regularity = REG_NOT_DETERMINED

    reg_nu_flag = None
    try:
        reg_nu_flag = rec.reg_nu.consistent
    except NotApplicableError:
        pass

    if chord.chordal:
        witness = {"eliminationOrder": _order_json(chord.elimination_order)}
    else:
        witness = {"chordlessCycle": _order_json(chord.chordless_cycle)}

    return {
        "schemaVersion": SCHEMA_VERSION,
        "convention": convention,
        "input": {"ascii": render_ascii(poly), "cells": _cells_json(poly.cells)},
        "cells": _cells_json(poly.cells),
        "rank": poly.rank,
        "predicates": {
            "simple": preds.simple,
            "thin": preds.thin,
            "rowConvex": preds.row_convex,
            "columnConvex": preds.column_convex,
            "convex": preds.convex,
        },
        "fVector": list(rc.f_vector),
        "hVector": list(view.h_vector),
        "rookNumber": rc.rook_number,
        "pure": purity.pure,
        "pureWitness": None
        if purity.witness is None
        else {
            "small": _cells_json(purity.witness[0]),
            "large": _cells_json(purity.witness[1]),
        },
        "superPartitions": supers,
        "complementChordal": chord.chordal,
        "complementWitness": witness,
        "class": classification.category,
        "brush": brush_field,
        "nu": matching.size,
        "nuCertificate": [[list(a), list(b)] for a, b in matching.edges],
        "regularity": regularity,
        "checks": {
            "purityTheorem": purity_flag,
            "chordalClassification": classification.consistent,
            "regEqNu": reg_nu_flag,
        },
    }


def _order_json(cells) -> list[list[int]]:
    return [[x, y] for x, y in cells]


def _report_text(report: dict) -> str:
    lines = [f"polyomino (rank {report['rank']}, convention {report['convention']})"]
    lines.append(report["input"]["ascii"])
    preds = report["predicates"]
    lines.append(
        "predicates: "
        + " ".join(f"{k}={v}" for k, v in preds.items())
    )
    lines.append(
        f"f-vector: {tuple(report['fVector'])}  h-vector: {tuple(report['hVector'])}  "
        f"rook number: {report['rookNumber']}"
    )
    lines.append(f"pure: {report['pure']}")
    if report["superPartitions"]:
        for part in report["superPartitions"]:
            ivs = ", ".join(
                f"[{cells[0]}..{cells[-1]}]" for cells in part["intervals"]
            )
            lines.append(f"super partition ({part['orientation']}): {ivs}")
    else:
        lines.append("super partitions: none")
    lines.append(f"complement chordal: {report['complementChordal']}")
    if not report["complementChordal"]:
        lines.append(f"chordless cycle: {report['complementWitness']['chordlessCycle']}")
    lines.append(f"class: {report['class']}")
    if report["brush"] is not None:
        b = report["brush"]
        lines.append(
            f"brush: handle [{b['handle'][0]}..{b['handle'][-1]}] "
            f"lengths {tuple(b['lengths'])} short={b['short']} pure={b['pureBrush']}"
        )
    lines.append(f"induced matching number: {report['nu']}")
    lines.append(f"regularity: {report['regularity']}")
    checks = report["checks"]
    lines.append("checks: " + " ".join(f"{k}={v}" for k, v in checks.items()))
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    try:
        poly = _load_polyomino(args.path, args.format)
    except (RookLabError, OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    report = analyze_polyomino(poly, args.convention)
    if args.out == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_report_text(report))
    return EXIT_OK


def report_json(report: census_mod.CensusReport) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "maxRank": report.max_rank,
        "mode": report.mode,
        "count": report.count,
        "checks": [
            {
                "name": r.name,
                "passed": r.passed,
                "informational": r.informational,
                "violations": [
                    {"cells": _cells_json(v.cells), "ascii": v.ascii, "detail": v.detail}
                    for v in r.violations
                ],
            }
            for r in report.results
        ],
    }


def report_exit_code(report: census_mod.CensusReport) -> int:
    return EXIT_OK if report.passed else EXIT_VIOLATIONS


def _cmd_verify(args) -> int:
    checks = None
    if args.check is not None:
        checks = [c.strip() for c in args.check.split(",") if c.strip()]
    try:
        report = census_mod.verify_corpus(args.max_rank, checks, jobs=args.jobs)
    except (UnknownCheckError, RankOutOfRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out == "json":
        json.dump(report_json(report), sys.stdout, indent=2)  # streamed: no whole-report string
        sys.stdout.write("\n")
    else:
        print(f"census: free polyominoes up to rank {report.max_rank} ({report.count} shapes)")
        for r in report.results:
            status = "PASS" if r.passed else ("INFO" if r.informational else "FAIL")
            print(f"{status} {r.name} ({len(r.violations)} findings)")
            for v in r.violations:
                print(f"  - {v.detail}")
                for line in v.ascii.splitlines():
                    print(f"    {line}")
    return report_exit_code(report)


def _cmd_enumerate(args) -> int:
    try:
        shapes = census_mod.generate(args.rank, args.mode)
    except RankOutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.emit == "coords":
        # Each line is what json.dumps({"cells": [[x, y], ...]}) prints,
        # joined from the text of each cell; every cell of a shape of the
        # checked rank n at the origin lies in the n x n box.
        n = args.rank
        text = {(x, y): f"[{x}, {y}]" for x in range(n) for y in range(n)}.__getitem__
        render, sep = (lambda poly: '{"cells": [' + ", ".join(map(text, poly.sorted_cells)) + "]}"), "\n"
    else:
        render, sep = render_ascii, "\n\n"
    for i, poly in enumerate(shapes):
        sys.stdout.write(sep + render(poly) if i else render(poly))
    sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rooklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one polyomino file")
    p_analyze.add_argument("path", help="ASCII grid or JSON cell-list file")
    p_analyze.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p_analyze.add_argument("--convention", choices=("interval", "line"), default="interval")
    p_analyze.add_argument("--out", choices=("json", "text"), default="text")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run census checks")
    p_verify.add_argument("--max-rank", type=int, default=8)
    p_verify.add_argument("--check", default=None, help="comma-separated check names")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--out", choices=("json", "text"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list polyominoes of one rank")
    p_enum.add_argument("--rank", type=int, required=True)
    p_enum.add_argument("--mode", choices=("free", "fixed"), default="free")
    p_enum.add_argument("--emit", choices=("ascii", "coords"), default="ascii")
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_CLOSED_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
