"""The cell attack graph and its independence complex (the rook complex).

Two cells attack each other when some maximal cell interval contains both
(the ``interval`` convention, the default). Under the ``line`` convention
two cells attack whenever they share a grid row or column, even across a
gap; the two conventions agree on row- and column-convex polyominoes.

A convention becomes lines in ``_lines`` alone: the polyomino's
horizontal and vertical runs under ``interval``, merged into whole rows
and columns under ``line``, as vertex masks (bit i for the i-th sorted
cell). Two cells attack when a line holds both, and each cell lies in
one horizontal and one vertical line, so it is an edge of the bipartite
line incidence graph. ``attack_graph`` builds the graph from the lines
and keeps them; no later layer reads the shape. ``f_vector`` sweeps the
columns that ``_sweep_columns`` reads off the graph's cells and lines.
Each keeps its last two results in an ``lru_cache`` that no layer needs,
as a record holds its graph and the complex swept from it.

Faces of the rook complex are the non-attacking cell sets, i.e. the
independent sets of the attack graph, and so the matchings of the line
incidence graph. The f-vector, rook number, purity and the facet counts
by size come from one transfer-matrix sweep over it, into one
``RookComplex``. One facet search, ``_facets``, yields the facets of a
range of sizes in sorted-cell-tuple order: the non-purity witness takes
the first facet of each of two sizes when first read, and
``RookComplex.facets`` lists them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Iterator, Sequence

from .graphs import SimpleGraph, bits
from .polyomino import Polyomino, stored_property

__all__ = [
    "PurityResult",
    "RookComplex",
    "attack_graph",
    "f_vector",
    "h_from_f",
    "is_pure",
]

INTERVAL = "interval"
LINE = "line"

Lines = tuple[tuple[int, ...], tuple[int, ...]]  # horizontal, vertical: vertex masks


@dataclass(frozen=True)
class PurityResult:
    pure: bool
    witness: tuple[frozenset, frozenset] | None


@dataclass(frozen=True)
class RookComplex:
    """Face counts, rook number and purity of the rook complex.

    ``f_vector`` has length ``rook_number + 1``; entry k counts the faces
    of size k, so it starts with 1 for the empty face. ``pure`` holds when
    every facet has ``rook_number`` cells. ``purity``, the flag with its
    witness pair, and ``facets`` are searched for on the attack graph when
    first read.

    Two fields are kept for later searches and are left out of
    comparisons: ``graph``, the attack graph with its lines, and
    ``facets_by_size``, entry k counting the facets of size k.
    """

    f_vector: tuple[int, ...]
    rook_number: int
    pure: bool
    graph: SimpleGraph = field(repr=False, compare=False)
    facets_by_size: tuple[int, ...] = field(repr=False, compare=False)

    @stored_property
    def facets(self) -> tuple[frozenset, ...]:
        """All inclusion-maximal non-attacking cell sets, ordered by their
        sorted cell tuples."""
        vertices = self.graph.vertices
        return tuple(
            frozenset(vertices[i] for i in bits(mask)) for mask in _facets(self.graph, 0, self.rook_number)
        )

    @stored_property
    def purity(self) -> PurityResult:
        """``pure`` with a witness pair when it fails: the first smallest and
        the first largest facet in sorted-cell-tuple order. Each is the
        first that ``_facets`` yields at the size that ``facets_by_size``
        names, and no facet list is built."""
        if self.pure:
            return PurityResult(True, None)
        smallest = next(k for k, count in enumerate(self.facets_by_size) if count)
        return PurityResult(
            False,
            tuple(
                frozenset(self.graph.vertices[i] for i in bits(next(_facets(self.graph, size, size))))
                for size in (smallest, self.rook_number)
            ),
        )


def _lines(poly: Polyomino, convention: str) -> Lines:
    """The horizontal and the vertical lines of ``poly`` as masks over its
    sorted cells: the maximal runs of ``poly.runs``, singletons included,
    under ``interval``, and under ``line`` those runs merged into whole
    rows (by y) and columns (by x). Two cells attack when some line holds
    both, and every cell lies in exactly one line of each orientation."""
    if convention == INTERVAL:
        return poly.runs
    if convention == LINE:
        cells = poly.sorted_cells
        rows, columns = [0] * poly.height, [0] * poly.width
        for runs, lines, axis in zip(poly.runs, (rows, columns), (1, 0)):
            for run in runs:
                lines[cells[(run & -run).bit_length() - 1][axis]] |= run
        return tuple(rows), tuple(columns)
    raise ValueError(f"unknown attack convention {convention!r}")


def _sweep_columns(graph: SimpleGraph) -> list[tuple[tuple[int, ...], int]]:
    """The columns that ``_sweep_counts`` sweeps, read off an attack graph's
    cells and lines: each column as the row masks of its vertical lines and
    the mask of the rows whose horizontal line ends in it. The shape is
    transposed when it is taller than wide, so that rows are the shorter
    side, and then its horizontal lines are the ones swept as vertical.

    A line holds every cell of its row or column between its first and
    its last cell, so a vertical line is its column's row mask cut to
    those ends, and a horizontal line ends in the column of its last cell."""
    cells = graph.vertices
    h_lines, v_lines = graph.lines
    width, height = 1 + cells[-1][0], 1 + max([y for _, y in cells])
    if height > width:
        cells = [(y, x) for x, y in cells]
        h_lines, v_lines = v_lines, h_lines
        width = height
    columns = [0] * width
    for x, y in cells:
        columns[x] |= 1 << y
    vertical = [[] for _ in columns]
    ends = [0] * len(columns)
    for line in v_lines:
        x, first = cells[(line & -line).bit_length() - 1]
        last = cells[line.bit_length() - 1][1]
        vertical[x].append(columns[x] & ((2 << last) - (1 << first)))
    for line in h_lines:
        x, y = cells[line.bit_length() - 1]
        ends[x] |= 1 << y
    return [(tuple(v), e) for v, e in zip(vertical, ends)]


@lru_cache(maxsize=2)
def attack_graph(poly: Polyomino, convention: str = INTERVAL) -> SimpleGraph:
    """The graph on the cells of ``poly`` whose edges are attacking pairs,
    built from the lines of ``_lines``: each line is a clique, and the
    graph keeps them as vertex masks for the sweep, the witness search
    and the induced-matching bound."""
    lines = _lines(poly, convention)
    masks = [0] * poly.rank
    for line in lines[0] + lines[1]:
        rest = line
        while rest:
            low = rest & -rest
            masks[low.bit_length() - 1] |= line ^ low
            rest ^= low
    return SimpleGraph(poly.sorted_cells, tuple(masks), lines)


def _sweep_counts(columns: list[tuple[tuple[int, ...], int]]) -> tuple[list[int], list[int]]:
    """Faces and facets of the rook complex counted by size, from one
    column-by-column transfer-matrix sweep over the columns of
    ``_sweep_columns``.

    Every cell is an edge of the bipartite line incidence graph
    (horizontal lines x vertical lines), so faces are its matchings and
    facets its maximal matchings. A state is two row masks: ``used``, rows
    whose current horizontal line holds a rook, and ``pending``, rows
    whose current line must still take one because a vertical line next
    to it ended empty. A line that ends while pending drops the state's
    facet count. A vertical line lies in one column and a horizontal line
    in one row, so each column's vertical lines are row masks, and each
    horizontal line ends in the column of its last cell.

    Each state carries one int: coefficient k of the face polynomial in
    bits [k*width, (k+1)*width), and the facet polynomial likewise above
    bit ``top``. Every count is below 2**rank, and no face has more cells
    than there are horizontal lines, so sums never carry between
    coefficients and a rook is one shift by ``width``.
    """
    n_rows = max(ends.bit_length() for _, ends in columns)
    width = sum(line.bit_count() for lines, _ in columns for line in lines) + 2
    top = width * (sum(ends.bit_count() for _, ends in columns) + 1)
    faces_only = ~(-1 << top)
    states = {0: 1 | 1 << top}  # used | pending << n_rows -> packed counts
    for lines, ends in columns:
        for line in lines:
            nxt: dict[int, int] = {}
            for key, counts in states.items():
                free = line & ~key
                # The vertical line stays empty: its free rows must be covered later.
                k = key | free << n_rows
                nxt[k] = nxt.get(k, 0) + counts
                counts <<= width
                while free:
                    b = free & -free
                    free ^= b
                    k = (key | b) & ~(b << n_rows)
                    nxt[k] = nxt.get(k, 0) + counts
            states = nxt
        if ends:
            nxt = {}
            for key, counts in states.items():
                if key >> n_rows & ends:
                    counts &= faces_only
                k = key & ~(ends | ends << n_rows)
                nxt[k] = nxt.get(k, 0) + counts
            states = nxt
    (counts,) = states.values()
    faces, facets = counts & faces_only, counts >> top
    coefficient = ~(-1 << width)
    face_counts, facet_counts = [], []
    while faces:
        face_counts.append(faces & coefficient)
        facet_counts.append(facets & coefficient)
        faces >>= width
        facets >>= width
    return face_counts, facet_counts


@lru_cache(maxsize=2)
def f_vector(graph: SimpleGraph) -> RookComplex:
    """Exact face counts of the rook complex of the attack graph ``graph``,
    its rook number and purity, from one transfer-matrix sweep over the
    graph's lines; a graph without them raises ValueError. The result keeps
    the graph and the facet counts by size; facets are built when first read.

    The rook number is the size of the largest non-attacking placement.
    """
    if graph.lines is None:
        raise ValueError("f_vector needs an attack graph: its sweep reads the graph's lines")
    faces, facets_by_size = _sweep_counts(_sweep_columns(graph))
    d = len(faces) - 1
    return RookComplex(tuple(faces), d, not any(facets_by_size[:d]), graph, tuple(facets_by_size))


def _facets(graph: SimpleGraph, lo: int, hi: int) -> Iterator[int]:
    """The facets of ``lo`` to ``hi`` cells in sorted-cell-tuple order, as
    vertex masks of the attack graph ``graph``. The first bound below
    reads the graph's lines.

    An include-then-exclude search on the lowest free cell visits the
    maximal independent sets in that order: two facets first differ at
    some cell, and the one holding it is reached first. A free cell is
    neither chosen, nor attacked by a chosen cell, nor excluded. A node
    with k rooks is pruned, by clearing its free cells, when none of its
    facets can have ``lo`` to ``hi`` cells:
    - k + min(#horizontal, #vertical lines meeting the free cells) < lo,
      as a face holds at most one cell of a line;
    - k + ceil(m / 2) > hi, where m counts a greedy non-attacking set
      among the cells no rook attacks yet: every one of them must still be
      taken or attacked, and a rook attacks at most two of them, one on
      each of its lines;
    - or some excluded cell has no free neighbour left to attack it.
    The search keeps an explicit stack, one frame per chosen rook, so its
    depth is the rook count and not the interpreter's.
    """
    adj = graph.masks
    closed = [mask | 1 << i for i, mask in enumerate(adj)]
    h_masks, v_masks = graph.lines
    stack: list[tuple[int, int, int]] = []  # per chosen rook: the node it left, with it excluded
    chosen, free, excluded = 0, (1 << len(adj)) - 1, 0
    while True:
        k = len(stack)
        if free and k < lo and k + min(sum(1 for m in h_masks if m & free), sum(1 for m in v_masks if m & free)) < lo:
            free = 0
        if free:
            open_cells, need = free | excluded, 0
            while open_cells:
                open_cells &= ~closed[(open_cells & -open_cells).bit_length() - 1]
                need += 1
            if k + (need + 1) // 2 > hi:
                free = 0
        if free:
            b = free & -free
            v = b.bit_length() - 1
            rest, still = free & ~closed[v], excluded & ~adj[v]
            free ^= b
            excluded |= b
            # Only v and the excluded cells next to it can have lost their
            # last free neighbour; v always has when no free cell is left.
            if any(not adj[x] & free for x in bits(excluded & closed[v])):
                free = 0
            if all(adj[x] & rest for x in bits(still)):
                if rest:
                    stack.append((chosen, free, excluded))
                    chosen, free, excluded = chosen | b, rest, still
                elif k + 1 >= lo:  # still is empty: a facet
                    yield chosen | b
        elif stack:
            chosen, free, excluded = stack.pop()
        else:
            return


def is_pure(poly: Polyomino, convention: str = INTERVAL) -> PurityResult:
    """Whether all facets share the top cardinality, with a witness pair
    otherwise: ``RookComplex.purity`` of the complex of the shape's attack graph."""
    return f_vector(attack_graph(poly, convention)).purity


def h_from_f(f: Sequence[int]) -> tuple[int, ...]:
    """Binomial transform of the face counts: h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_(i-1),
    where d = len(f) - 1 is the rook number."""
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )
