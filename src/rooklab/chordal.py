"""Complement of the attack graph, chordality, induced cycle census,
and brush recognition.

A brush polyomino is simple and thin, with one maximal interval (the
handle) met by every other maximal interval (the bristles), and at most
as many bristles as handle cells. The complement of the attack graph of
a simple thin polyomino is chordal exactly for short brushes (all
bristles of length 2); among simple non-thin polyominoes only two small
exceptional shapes have a chordal complement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import NotSimpleThinError, RankTooSmallError
from .graphs import SimpleGraph, bits
# shape_predicates is unused here but stays bound: perfbench/test_checkers.py
# checks that the tracer patches a layer function in a module importing it.
from .polyomino import CellInterval, canonical_cells, shape_predicates  # noqa: F401

if TYPE_CHECKING:
    from .record import ShapeRecord

SHORT_BRUSH = "short_brush"
EXCEPTIONAL_NONTHIN = "exceptional_nonthin"
OTHER = "other"

# The two simple non-thin shapes with a chordal complement, up to symmetry:
# the 2x2 square and the P-pentomino (2x2 block plus one cell beside it).
_EXCEPTIONAL_KEYS = frozenset(
    {
        canonical_cells(((0, 0), (1, 0), (0, 1), (1, 1))),
        canonical_cells(((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))),
    }
)


@dataclass(frozen=True)
class ChordalityResult:
    chordal: bool
    elimination_order: tuple | None
    chordless_cycle: tuple | None


@dataclass(frozen=True)
class BrushDecomposition:
    handle: CellInterval
    bristles: tuple[CellInterval, ...]
    lengths: tuple[int, ...]
    short: bool
    pure_brush: bool
    d: int


@dataclass(frozen=True)
class ChordalityClassification:
    complement_chordal: bool
    category: str
    consistent: bool


def complement_graph(graph: SimpleGraph) -> SimpleGraph:
    """Same vertices; edge exactly where the input has a non-edge."""
    full = (1 << graph.n) - 1
    return SimpleGraph(
        graph.vertices, tuple(full ^ (1 << i) ^ mask for i, mask in enumerate(graph.masks))
    )


def _mcs_order(graph: SimpleGraph) -> list[int]:
    """Maximum cardinality search visit order as vertex positions, ties
    broken by vertex order."""
    weight = [0] * graph.n
    unnumbered = (1 << graph.n) - 1
    order = []
    while unnumbered:
        v = max(bits(unnumbered), key=weight.__getitem__)
        order.append(v)
        unnumbered ^= 1 << v
        for u in bits(graph.masks[v] & unnumbered):
            weight[u] += 1
    return order


def _is_perfect_elimination(graph: SimpleGraph, elim: list[int]) -> bool:
    """Whether in ``elim`` every vertex's later neighbours are all adjacent
    to the first of them."""
    pos = [0] * graph.n
    for p, v in enumerate(elim):
        pos[v] = p
    later_than = (1 << graph.n) - 1
    for v in elim:
        later_than ^= 1 << v
        later = graph.masks[v] & later_than
        if later:
            w = min(bits(later), key=pos.__getitem__)
            if later & ~(1 << w) & ~graph.masks[w]:
                return False
    return True


def _shortest_chordless_cycle(graph: SimpleGraph) -> tuple | None:
    """Shortest cycle of length >= 4 with no chord, if one exists.

    For each vertex b and non-adjacent neighbors a, c, a shortest a-c path
    avoiding the rest of b's closed neighborhood closes into a chordless
    cycle through b; scanning all triples finds a globally shortest one.
    """
    masks = graph.masks
    full = (1 << graph.n) - 1
    best: tuple | None = None
    for b in range(graph.n):
        blocked = masks[b] | (1 << b)
        for a, c in combinations(bits(masks[b]), 2):
            if masks[a] >> c & 1:
                continue
            if best is not None and len(best) == 4:
                return best
            # Vertices the search may still visit; a is visited first.
            allowed = (full & ~blocked) | (1 << c)
            parent = {a: None}
            queue = deque([a])
            while queue:
                u = queue.popleft()
                if u == c:
                    break
                for w in bits(masks[u] & allowed):
                    parent[w] = u
                    allowed ^= 1 << w
                    queue.append(w)
            if c not in parent:
                continue
            path = [c]
            while path[-1] != a:
                path.append(parent[path[-1]])
            cycle = tuple(graph.vertices[v] for v in [b] + path[::-1])
            if best is None or len(cycle) < len(best):
                best = cycle
    return best


def is_chordal(graph: SimpleGraph) -> ChordalityResult:
    """Maximum cardinality search with elimination-order verification.

    On success the witness is the verified perfect elimination order; on
    failure it is a shortest chordless cycle of length at least 4.
    """
    elim = _mcs_order(graph)[::-1]
    if _is_perfect_elimination(graph, elim):
        return ChordalityResult(True, tuple(graph.vertices[v] for v in elim), None)
    cycle = _shortest_chordless_cycle(graph)
    if cycle is None:
        raise RuntimeError("elimination check failed but no chordless cycle found")
    return ChordalityResult(False, None, cycle)


def induced_cycle_lengths(graph: SimpleGraph, max_len: int) -> set[int]:
    """Lengths of all induced (chordless) cycles up to ``max_len``.

    Exhaustive search over induced paths anchored at each cycle's least
    vertex; each cycle is visited in one orientation only.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    lengths: set[int] = set()
    masks = graph.masks

    def extend(start: int, above: int, path: int, first: int, last: int, interior: int, size: int) -> None:
        # ``path`` holds the path's vertices, ``interior`` the neighbours of
        # its interior ones; ``first`` is the vertex after ``start``.
        for w in bits(masks[last] & above & ~path & ~interior):
            # The first step is always an extension; afterwards adjacency
            # to the start closes the cycle and blocks further growth.
            if size >= 2 and masks[w] >> start & 1:
                if first < w:
                    lengths.add(size + 1)
                continue
            if size + 1 < max_len:
                extend(
                    start,
                    above,
                    path | (1 << w),
                    w if size == 1 else first,
                    w,
                    interior | masks[last] if size >= 2 else 0,
                    size + 1,
                )

    full = (1 << graph.n) - 1
    for s in range(graph.n):
        above = full >> (s + 1) << (s + 1)
        extend(s, above, 1 << s, -1, s, 0, 1)
    return {l for l in lengths if l <= max_len}


def brush_decomposition(rec: ShapeRecord) -> BrushDecomposition | None:
    """Decompose a simple thin polyomino as a handle plus bristles.

    Tries every maximal interval as the handle; valid when all remaining
    intervals meet it and their number does not exceed the handle length.
    If several handles work, a decomposition flagged pure is preferred,
    then a short one. ``pure_brush`` additionally requires the bristles
    to partition the cells with handle length = bristle count = rook
    number.
    """
    preds = rec.predicates
    if not (preds.simple and preds.thin):
        raise NotSimpleThinError("brush recognition needs a simple thin polyomino")
    if rec.poly.rank < 2:
        raise RankTooSmallError("rank 1 has no maximal intervals")
    ivs = rec.intervals
    found: list[BrushDecomposition] = []
    for handle in ivs:
        bristles = tuple(iv for iv in ivs if iv != handle)
        if len(bristles) > handle.length:
            continue
        if any(not (iv.cell_set & handle.cell_set) for iv in bristles):
            continue
        bristles = tuple(
            sorted(bristles, key=lambda iv: min(iv.cell_set & handle.cell_set))
        )
        lengths = tuple(iv.length for iv in bristles)
        short = all(l == 2 for l in lengths)
        d = rec.rook_complex.rook_number
        # Bristles whose lengths sum to the rank and whose union is every
        # cell partition the cells.
        pure = (
            sum(lengths) == rec.poly.rank
            and frozenset().union(*(iv.cell_set for iv in bristles)) == rec.poly.cells
            and handle.length == len(bristles) == d
        )
        found.append(BrushDecomposition(handle, bristles, lengths, short, pure, d))
    if not found:
        return None
    found.sort(key=lambda b: (not b.pure_brush, not b.short, b.handle.anchor))
    return found[0]


def classify_chordality(rec: ShapeRecord) -> ChordalityClassification:
    """Classify a polyomino against the chordality characterization.

    ``consistent`` holds when the complement of the attack graph is
    chordal exactly for short brushes and the two exceptional non-thin
    shapes. The monomino counts as a degenerate short brush: it has no
    intervals at all and its one-vertex complement is chordal.
    """
    chordal = rec.chordality.chordal
    preds = rec.predicates
    if rec.poly.rank == 1:
        category = SHORT_BRUSH
    elif preds.simple and preds.thin:
        brush = rec.brush
        category = SHORT_BRUSH if brush is not None and brush.short else OTHER
    elif preds.simple and canonical_cells(rec.poly.cells) in _EXCEPTIONAL_KEYS:
        category = EXCEPTIONAL_NONTHIN
    else:
        category = OTHER
    return ChordalityClassification(chordal, category, chordal == (category != OTHER))
