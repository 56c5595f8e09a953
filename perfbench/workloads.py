"""The three workloads.

A workload prepares its inputs in set-up, names the `rooklab` command
lines one round runs, and judges a round's outputs with the independent
checkers. ``prepare`` runs after rooklab is imported, as part of set-up.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checkers

VERIFY_RANK = 10
ENUMERATE_RANK = 11


@dataclass(frozen=True)
class Shape:
    name: str
    kind: str  # board, holed, brush or staircase
    cells: tuple[tuple[int, int], ...]
    convention: str = "interval"
    params: tuple[int, ...] = ()


def board(m: int, n: int) -> Shape:
    return Shape(f"board-{m}x{n}", "board", tuple((x, y) for x in range(m) for y in range(n)), params=(m, n))


def holed_board(side: int, hole: int, convention: str) -> Shape:
    lo = (side - hole) // 2
    cells = tuple(
        (x, y) for x in range(side) for y in range(side)
        if not (lo <= x < lo + hole and lo <= y < lo + hole)
    )
    return Shape(f"holed-{side}x{side}-{convention}", "holed", cells, convention)


def pure_brush(lengths: tuple[int, ...]) -> Shape:
    """Handle along y = 0; bristle i runs up from it for even i, down for odd i."""
    cells = tuple(
        (i, y if i % 2 == 0 else -y) for i, length in enumerate(lengths) for y in range(length)
    )
    return Shape(f"brush-{len(lengths)}", "brush", cells, params=lengths)


def staircase(rows: int, width: int) -> Shape:
    """Row y holds cells x = y .. y + width - 1."""
    cells = tuple((x, y) for y in range(rows) for x in range(y, y + width))
    return Shape(f"staircase-{rows}x{width}", "staircase", cells)


# A few large graphs, each analyzed once: boards stress the induced-matching
# branch and bound, pure brushes stress face enumeration (134,136 and 437,400
# faces), the holed board runs under both attack conventions, and the
# staircase is a thin shape whose rook complex is not pure.
ANALYZE_SHAPES = (
    board(6, 6),
    board(7, 7),
    holed_board(7, 3, "interval"),
    holed_board(7, 3, "line"),
    pure_brush((3, 3, 3, 3, 3, 3, 3, 4, 4)),
    pure_brush((3, 3, 3, 3, 3, 3, 3, 3, 4, 4)),
    staircase(11, 3),
)


class VerifyR10:
    """`verify --max-rank 10` with all 14 checks: many small shapes, where
    repeated per-shape work and the program's caches dominate. One operation
    is one census check. Set-up builds the free census the checks read."""

    name = "verify-r10"

    def prepare(self, seed: int, workdir: Path) -> None:
        from rooklab.census import free_census

        self.counts = Counter(p.rank for p in free_census(VERIFY_RANK))

    def setup_problems(self) -> list[str]:
        return checkers.check_census_counts(self.counts, VERIFY_RANK)

    def calls(self) -> list[list[str]]:
        return [["verify", "--max-rank", str(VERIFY_RANK), "--jobs", "1", "--out", "json"]]

    def judge(self, results: list[dict]) -> tuple[list[tuple[str, list[str]]], list[str]]:
        (result,) = results
        per_check, problems = checkers.check_verify(result["stdout"], result["code"], VERIFY_RANK)
        return list(per_check.items()), problems


class AnalyzeShapes:
    """`analyze --out json` on ANALYZE_SHAPES: a few large graphs, no census
    and no cache reuse. One operation is one shape report. The seed picks
    the order of the reports and how each cell list is translated and
    ordered in its input file; it does not rotate shapes, because the
    branch-and-bound time of a shape depends on its orientation."""

    name = "analyze-shapes"

    def prepare(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.jobs = []
        for i, shape in enumerate(rng.sample(ANALYZE_SHAPES, len(ANALYZE_SHAPES))):
            dx, dy = rng.randint(-50, 50), rng.randint(-50, 50)
            cells = [[x + dx, y + dy] for x, y in shape.cells]
            rng.shuffle(cells)
            path = workdir / f"{i}-{shape.name}.json"
            path.write_text(json.dumps({"cells": cells}), encoding="utf-8")
            self.jobs.append((shape, str(path)))

    def setup_problems(self) -> list[str]:
        return []

    def calls(self) -> list[list[str]]:
        return [
            ["analyze", path, "--format", "json", "--convention", shape.convention, "--out", "json"]
            for shape, path in self.jobs
        ]

    def judge(self, results: list[dict]) -> tuple[list[tuple[str, list[str]]], list[str]]:
        return [
            (shape.name, checkers.check_report(shape, r["stdout"], r["code"]))
            for (shape, _), r in zip(self.jobs, results)
        ], []


class EnumerateR11:
    """`enumerate --rank 11 --emit coords` with ROOKLAB_MAX_RANK=11: census
    growth and the dihedral canonical filter do nearly all the work, and the
    rook-complex layers are not used. One operation is one rank enumerated."""

    name = "enumerate-r11"

    def prepare(self, seed: int, workdir: Path) -> None:
        os.environ["ROOKLAB_MAX_RANK"] = str(ENUMERATE_RANK)

    def setup_problems(self) -> list[str]:
        return []

    def calls(self) -> list[list[str]]:
        return [["enumerate", "--rank", str(ENUMERATE_RANK), "--emit", "coords"]]

    def judge(self, results: list[dict]) -> tuple[list[tuple[str, list[str]]], list[str]]:
        (result,) = results
        return [(f"rank-{ENUMERATE_RANK}", checkers.check_enumeration(result["stdout"], result["code"], ENUMERATE_RANK))], []


WORKLOADS = {w.name: w for w in (VerifyR10(), AnalyzeShapes(), EnumerateR11())}
