"""Polyomino geometry: parsing, normalization, maximal cell intervals
and shape predicates.

Cells are unit lattice squares identified by their lower-left corner
``(x, y)``. A polyomino is a finite, edge-connected, non-empty set of
cells, always stored translated so that ``min x = min y = 0``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadCellError,
    BadCharacterError,
    DuplicateCellError,
    EmptyInputError,
    NotConnectedError,
)

Cell = tuple[int, int]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

_STEPS: tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))

def _normalized(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    cells = list(cells)
    if not cells:
        raise EmptyInputError("a polyomino needs at least one cell")
    dx = min([x for x, _ in cells])
    dy = min([y for _, y in cells])
    return tuple(sorted([(x - dx, y - dy) for x, y in cells]))


def _dihedral_images(cells: Sequence[Cell]) -> Iterator[list[Cell]]:
    """The 7 other dihedral images of a normalized sorted cell sequence, as
    sorted lists. Each maps the bounding box [0, W] x [0, H] onto a box at
    the origin, so none needs re-normalizing. The images that most often
    sort below a fixed shape come first, for callers that stop early."""
    w = cells[-1][0]
    h = max([y for _, y in cells])
    yield sorted([(y, w - x) for x, y in cells])
    yield sorted([(y, x) for x, y in cells])
    yield sorted([(x, h - y) for x, y in cells])
    yield sorted([(w - x, h - y) for x, y in cells])
    yield sorted([(h - y, w - x) for x, y in cells])
    yield sorted([(w - x, y) for x, y in cells])
    yield sorted([(h - y, x) for x, y in cells])


def _components(cells: frozenset[Cell]) -> list[set[Cell]]:
    seen: set[Cell] = set()
    out: list[set[Cell]] = []
    for start in sorted(cells):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            x, y = queue.popleft()
            for dx, dy in _STEPS:
                nb = (x + dx, y + dy)
                if nb in cells and nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        out.append(comp)
    return out


@dataclass(frozen=True)
class Polyomino:
    """An edge-connected set of cells with its lower-left corner at the origin."""

    cells: frozenset[Cell]

    def __post_init__(self):
        if not self.cells:
            raise EmptyInputError("a polyomino needs at least one cell")
        if min(x for x, _ in self.cells) != 0 or min(y for _, y in self.cells) != 0:
            raise ValueError("polyomino is not normalized to the origin")
        comps = _components(self.cells)
        if len(comps) > 1:
            first = min(comps[0])
            other = min(comps[1])
            raise NotConnectedError((first, other))

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "Polyomino":
        """Build a polyomino from any translate of its cell set."""
        return cls(frozenset(_normalized(cells)))

    @property
    def rank(self) -> int:
        return len(self.cells)

    @cached_property
    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))

    @cached_property
    def width(self) -> int:
        return 1 + max(x for x, _ in self.cells)

    @cached_property
    def height(self) -> int:
        return 1 + max(y for _, y in self.cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cells

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.sorted_cells)

    def __repr__(self) -> str:
        return f"Polyomino({list(self.sorted_cells)!r})"


@dataclass(frozen=True)
class CellInterval:
    """A maximal horizontal or vertical run of cells (length >= 2)."""

    orientation: str
    cells: tuple[Cell, ...]

    @property
    def length(self) -> int:
        return len(self.cells)

    @cached_property
    def cell_set(self) -> frozenset[Cell]:
        return frozenset(self.cells)

    @property
    def anchor(self) -> Cell:
        return self.cells[0]

    def __contains__(self, cell: Cell) -> bool:
        return cell in self.cell_set

    def __repr__(self) -> str:
        return f"CellInterval({self.orientation[0]}, {self.cells[0]}..{self.cells[-1]})"


@dataclass(frozen=True)
class ShapePredicates:
    simple: bool
    thin: bool
    row_convex: bool
    column_convex: bool
    convex: bool


def parse_ascii(text: str) -> Polyomino:
    """Parse a '#'/'.' grid. Rows are read top to bottom and map to
    decreasing y, so the drawing matches the lattice picture.
    """
    rows = text.split("\n")
    while rows and rows[-1].strip("\r") == "":
        rows.pop()
    cells: list[Cell] = []
    for r, row in enumerate(rows):
        row = row.rstrip("\r")
        for c, ch in enumerate(row):
            if ch == "#":
                cells.append((c, len(rows) - 1 - r))
            elif ch != ".":
                raise BadCharacterError(r + 1, c + 1, ch)
    if not cells:
        raise EmptyInputError("grid contains no '#' cells")
    return Polyomino.from_cells(cells)


def parse_cells(pairs: Iterable[Sequence[int]]) -> Polyomino:
    """Build a polyomino from (x, y) integer pairs given as tuples or
    lists, rejecting any other entry (a bool coordinate included) and
    duplicates."""
    cells: list[Cell] = []
    for p in pairs:
        if not (
            isinstance(p, (tuple, list))
            and len(p) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in p)
        ):
            raise BadCellError(f"cell {p!r} is not a pair of integers")
        cells.append(tuple(p))
    if not cells:
        raise EmptyInputError("cell list is empty")
    if len(set(cells)) != len(cells):
        seen: set[Cell] = set()
        for p in cells:
            if p in seen:
                raise DuplicateCellError(f"cell {p} appears twice")
            seen.add(p)
    return Polyomino.from_cells(cells)


def render_ascii(poly: Polyomino) -> str:
    """Inverse of parse_ascii: '#' for cells, '.' elsewhere in the bounding box."""
    rows = []
    for y in range(poly.height - 1, -1, -1):
        rows.append("".join("#" if (x, y) in poly.cells else "." for x in range(poly.width)))
    return "\n".join(rows)


def maximal_intervals(poly: Polyomino) -> list[CellInterval]:
    """All maximal horizontal and vertical runs of length >= 2.

    Singleton runs are excluded: a lone cell in its row contributes no
    horizontal interval. The result is ordered by orientation
    (horizontal first), then by anchor cell.
    """
    out: list[CellInterval] = []
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for x, y in poly.cells:
        by_row.setdefault(y, []).append(x)
        by_col.setdefault(x, []).append(y)

    def runs(values: list[int]) -> Iterator[list[int]]:
        values = sorted(values)
        run = [values[0]]
        for v in values[1:]:
            if v == run[-1] + 1:
                run.append(v)
            else:
                yield run
                run = [v]
        yield run

    for y in sorted(by_row):
        for run in runs(by_row[y]):
            if len(run) >= 2:
                out.append(CellInterval(HORIZONTAL, tuple((x, y) for x in run)))
    for x in sorted(by_col):
        for run in runs(by_col[x]):
            if len(run) >= 2:
                out.append(CellInterval(VERTICAL, tuple((x, y) for y in run)))
    out.sort(key=lambda iv: (iv.orientation, iv.anchor))
    return out


def shape_predicates(poly: Polyomino) -> ShapePredicates:
    """Compute the standard shape flags by their definitions.

    ``simple`` means no enclosed hole: every non-cell of the bounding box,
    inflated by one, can be flood-filled from the outside. ``thin`` means
    no 2x2 block of cells. Convexity means each row (column) of cells is a
    contiguous run.
    """
    cells = poly.cells
    w, h = poly.width, poly.height

    outside: set[Cell] = set()
    queue = deque([(-1, -1)])
    outside.add((-1, -1))
    while queue:
        x, y = queue.popleft()
        for dx, dy in _STEPS:
            nb = (x + dx, y + dy)
            if -1 <= nb[0] <= w and -1 <= nb[1] <= h and nb not in cells and nb not in outside:
                outside.add(nb)
                queue.append(nb)
    simple = all(
        (x, y) in cells or (x, y) in outside for x in range(w) for y in range(h)
    )

    thin = not any(
        (x + 1, y) in cells and (x, y + 1) in cells and (x + 1, y + 1) in cells
        for x, y in cells
    )

    def contiguous(groups: dict[int, list[int]]) -> bool:
        return all(max(v) - min(v) + 1 == len(v) for v in groups.values())

    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
        cols.setdefault(x, []).append(y)
    row_convex = contiguous(rows)
    column_convex = contiguous(cols)

    return ShapePredicates(
        simple=simple,
        thin=thin,
        row_convex=row_convex,
        column_convex=column_convex,
        convex=row_convex and column_convex,
    )


def canonical_cells(cells: Iterable[Cell], mode: str = "free") -> tuple[Cell, ...]:
    """Canonical cell tuple: translation-normalized for ``fixed``, the
    least normalized sorted tuple over the 8 dihedral images for ``free``."""
    if mode not in ("free", "fixed"):
        raise ValueError(f"unknown canonicalization mode {mode!r}")
    base = _normalized(cells)
    if mode == "fixed":
        return base
    return min(base, tuple(min(_dihedral_images(base))))


def canonical_form(poly: Polyomino, mode: str = "free") -> Polyomino:
    """Canonical representative of ``poly`` under translation (``fixed``)
    or under the full dihedral symmetry group (``free``)."""
    return Polyomino(frozenset(canonical_cells(poly.cells, mode)))
