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


def _runs(cells: frozenset[Cell], orientation: str) -> list[tuple[Cell, ...]]:
    """The maximal horizontal or vertical runs of ``cells``, singleton runs
    included, ordered by first cell. Every cell lies in exactly one run of
    each orientation."""
    dx, dy = (1, 0) if orientation == HORIZONTAL else (0, 1)
    out = []
    for x, y in sorted(cells):
        if (x - dx, y - dy) not in cells:
            run = [(x, y)]
            while (x + dx, y + dy) in cells:
                x, y = x + dx, y + dy
                run.append((x, y))
            out.append(tuple(run))
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
    return [
        CellInterval(orientation, run)
        for orientation in (HORIZONTAL, VERTICAL)
        for run in _runs(poly.cells, orientation)
        if len(run) >= 2
    ]


def shape_predicates(poly: Polyomino) -> ShapePredicates:
    """Compute the standard shape flags by their definitions.

    ``simple`` means no enclosed hole: the bounding box inflated by one,
    less the cells, is a single component. ``thin`` means no 2x2 block of
    cells. Convexity means each row (column) of cells is one run; every
    row and column of the bounding box holds a cell, so that is one run
    per row (column).
    """
    cells = poly.cells
    w, h = poly.width, poly.height
    frame = frozenset((x, y) for x in range(-1, w + 1) for y in range(-1, h + 1))
    row_convex = len(_runs(cells, HORIZONTAL)) == h
    column_convex = len(_runs(cells, VERTICAL)) == w
    return ShapePredicates(
        simple=len(_components(frame - cells)) == 1,
        thin=not any(
            (x + 1, y) in cells and (x, y + 1) in cells and (x + 1, y + 1) in cells
            for x, y in cells
        ),
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
