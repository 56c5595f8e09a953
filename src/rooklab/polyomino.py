"""Polyomino geometry: parsing, normalization, maximal cell intervals
and shape predicates.

Cells are unit lattice squares identified by their lower-left corner
``(x, y)``. A polyomino is a finite, edge-connected, non-empty set of
cells, always stored translated so that ``min x = min y = 0``.

Each polyomino also holds its cells as one int bitboard, built when
first read: column-major, bit ``x * (height + 1) + y``, with an empty
guard row on top of every column. Bit order is sorted-cell order, so the
rank of a cell's bit is its index in ``sorted_cells``, and that index is
its vertex in the attack graph. The maximal runs (as masks over those
indices), the maximal intervals with their masks and the shape
predicates are all read off the board: the predicates by popcounts of
shifted copies, the runs by one pass over its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    BadCellError,
    BadCharacterError,
    DuplicateCellError,
    EmptyInputError,
    NotConnectedError,
)
from .graphs import bits

__all__ = [
    "Cell",
    "CellInterval",
    "Polyomino",
    "ShapePredicates",
    "canonical_cells",
    "maximal_intervals",
    "parse_ascii",
    "parse_cells",
    "render_ascii",
    "shape_predicates",
]

Cell = tuple[int, int]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"

_STEPS: tuple[Cell, ...] = ((1, 0), (-1, 0), (0, 1), (0, -1))


class stored_property:
    """``functools.cached_property`` without the lock CPython 3.11 takes at
    every first read: the value goes into the instance ``__dict__``."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _normalized(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    cells = list(cells)
    if not cells:
        raise EmptyInputError("a polyomino needs at least one cell")
    dx = min([x for x, _ in cells])
    dy = min([y for _, y in cells])
    return tuple(sorted([(x - dx, y - dy) for x, y in cells]))


# The 7 non-identity symmetries of the box [0, W] x [0, H], as maps (x, y, W, H)
# -> image in a box at the origin; those that most often sort below come first.
_BOX_SYMMETRIES = (
    lambda x, y, w, h: (y, w - x),
    lambda x, y, w, h: (y, x),
    lambda x, y, w, h: (x, h - y),
    lambda x, y, w, h: (w - x, h - y),
    lambda x, y, w, h: (h - y, w - x),
    lambda x, y, w, h: (w - x, y),
    lambda x, y, w, h: (h - y, x),
)


@dataclass(frozen=True)
class Polyomino:
    """An edge-connected set of cells with its lower-left corner at the origin."""

    cells: frozenset[Cell]

    def __post_init__(self):
        object.__setattr__(self, "cells", frozenset(map(_pair, self.cells)))
        if not self.cells:
            raise EmptyInputError("a polyomino needs at least one cell")
        if min(x for x, _ in self.cells) != 0 or min(y for _, y in self.cells) != 0:
            raise ValueError("polyomino is not normalized to the origin")
        # One flood fill from the least cell; the witness adds the least cell it misses.
        start = min(self.cells)
        reached, todo = {start}, [start]
        while todo:
            x, y = todo.pop()
            for dx, dy in _STEPS:
                nb = (x + dx, y + dy)
                if nb in self.cells and nb not in reached:
                    reached.add(nb)
                    todo.append(nb)
        if len(reached) < len(self.cells):
            raise NotConnectedError((start, min(self.cells - reached)))

    @classmethod
    def _trusted(cls, sorted_cells: tuple[Cell, ...]) -> "Polyomino":
        """Unchecked, and fills ``sorted_cells``: the cells must be sorted, normalized, connected."""
        poly = object.__new__(cls)
        poly.__dict__.update(cells=frozenset(sorted_cells), sorted_cells=sorted_cells)
        return poly

    @classmethod
    def from_cells(cls, cells: Iterable[Cell]) -> "Polyomino":
        """Build a polyomino from any translate of its cell set."""
        return cls(frozenset(_normalized(map(_pair, cells))))

    @property
    def rank(self) -> int:
        return len(self.cells)

    @stored_property
    def sorted_cells(self) -> tuple[Cell, ...]:
        return tuple(sorted(self.cells))

    @stored_property
    def width(self) -> int:
        return 1 + self.sorted_cells[-1][0]

    @stored_property
    def height(self) -> int:
        return 1 + max([y for _, y in self.sorted_cells])

    @stored_property
    def board(self) -> int:
        """The cells as one int, column-major: bit ``x * (height + 1) + y``
        for cell (x, y). Row ``height`` is an empty guard row, so no run
        wraps from one column into the next. Bit order is sorted-cell
        order, so the rank of a cell's bit is its index in ``sorted_cells``.
        Bits are set in a byte buffer, so no cell costs an int as long as
        the board."""
        stride = self.height + 1
        buf = bytearray((self.width * stride + 7) >> 3)
        for x, y in self.sorted_cells:
            p = x * stride + y
            buf[p >> 3] |= 1 << (p & 7)
        return int.from_bytes(buf, "little")

    @stored_property
    def columns(self) -> tuple[int, ...]:
        """The row mask of each column of ``board``, by x, read by shifting
        the board once per column; a connected shape has no empty column."""
        board, stride = self.board, self.height + 1
        mask = (1 << stride) - 1
        columns = []
        while board:
            columns.append(board & mask)
            board >>= stride
        return tuple(columns)

    @stored_property
    def runs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The maximal horizontal and the maximal vertical runs, singletons
        included, as masks over the sorted cells (bit i for
        ``sorted_cells[i]``), each side ordered by first cell. Every cell
        lies in one run of each orientation.

        One pass over the columns numbers each cell by the count of cells
        before it: a cell starts a horizontal run when the previous column
        lacks its row, and a vertical run when its column lacks the row
        below."""
        h_runs: list[int] = []
        v_runs: list[int] = []
        open_run = [0] * self.height  # row -> position in h_runs of its latest run
        prev, i = 0, 0
        for col in self.columns:
            rest = col
            while rest:
                low = rest & -rest
                rest ^= low
                if prev & low:
                    h_runs[open_run[low.bit_length() - 1]] |= 1 << i
                else:
                    open_run[low.bit_length() - 1] = len(h_runs)
                    h_runs.append(1 << i)
                if col & low >> 1:
                    v_runs[-1] |= 1 << i
                else:
                    v_runs.append(1 << i)
                i += 1
            prev = col
        return tuple(h_runs), tuple(v_runs)

    def interval(self, orientation: str, run: int) -> "CellInterval":
        """The interval of ``orientation`` whose cells are the bits of ``run``."""
        cells = self.sorted_cells
        return CellInterval(orientation, tuple([cells[i] for i in bits(run)]))

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

    @property
    def anchor(self) -> Cell:
        return self.cells[0]

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


def _pair(p) -> Cell:
    """``p`` as a cell, if it is a tuple or list of two integers (not bools)."""
    if isinstance(p, (tuple, list)) and len(p) == 2 and all(type(v) is not bool and isinstance(v, int) for v in p):
        return tuple(p)
    raise BadCellError(f"cell {p!r} is not a pair of integers")


def parse_cells(pairs: Iterable[Sequence[int]]) -> Polyomino:
    """Build a polyomino from (x, y) integer pairs given as tuples or
    lists, rejecting any other entry (a bool coordinate included) and
    duplicates."""
    cells = [_pair(p) for p in pairs]
    if not cells:
        raise EmptyInputError("cell list is empty")
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


def maximal_intervals(poly: Polyomino) -> dict[CellInterval, int]:
    """Each maximal interval, the runs of ``poly.runs`` of two cells or
    more, mapped to its run: the mask of its cells over the sorted cells.
    Horizontal intervals come first, each side ordered by anchor cell; a
    lone cell in its row contributes no horizontal interval."""
    return {
        poly.interval(orientation, run): run
        for orientation, runs in zip((HORIZONTAL, VERTICAL), poly.runs)
        for run in runs
        if run & (run - 1)
    }


def shape_predicates(poly: Polyomino) -> ShapePredicates:
    """Compute the standard shape flags by popcounts of ``poly.board``.

    ``simple`` means no enclosed hole: V - E + F over the cells' corners,
    unit edges and cells, the Euler characteristic of a connected union of
    squares, is 1 less the number of holes. A cell's top edge and corners
    are its bits shifted up one row or right one column, and the guard
    row keeps them inside their column. ``thin`` means no 2x2 block.
    Row convexity means one run per row, i.e. ``height`` cells with no left
    neighbour; column convexity is ``width`` cells with no lower neighbour.
    """
    board, stride = poly.board, poly.height + 1
    h_edges = board | board << 1
    corners = h_edges | h_edges << stride
    v_edges = board | board << stride
    upright = board & board >> 1
    row_convex = (board & ~(board << stride)).bit_count() == poly.height
    column_convex = (board & ~(board << 1)).bit_count() == poly.width
    return ShapePredicates(
        simple=corners.bit_count() - h_edges.bit_count() - v_edges.bit_count() + poly.rank == 1,
        thin=not upright & upright >> stride,
        row_convex=row_convex,
        column_convex=column_convex,
        convex=row_convex and column_convex,
    )


def canonical_cells(cells: Iterable[Cell]) -> tuple[Cell, ...]:
    """The free canonical cell tuple: the least translation-normalized
    sorted tuple over the 8 dihedral images. ``_normalized`` gives the
    fixed form, up to translation only."""
    base = _normalized(cells)
    w, h = base[-1][0], max([y for _, y in base])
    return min(base, *(tuple(sorted([f(x, y, w, h) for x, y in base])) for f in _BOX_SYMMETRIES))
