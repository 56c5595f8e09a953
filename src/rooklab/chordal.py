"""Complement of the attack graph, chordality, induced cycle census,
and brush recognition.

A brush polyomino is simple and thin, with one maximal interval (the
handle) met by every other maximal interval (the bristles), and at most
as many bristles as handle cells. The complement of the attack graph of
a simple thin polyomino is chordal exactly for short brushes (all
bristles of length 2); among simple non-thin polyominoes only two small
exceptional shapes have a chordal complement, searched for on the attack
graph: the complement is built for the induced-cycle census and when a
chordless cycle is read, by ``analyze`` and brush-corollary findings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import NotApplicableError
from .graphs import SimpleGraph, bits
# shape_predicates is unused here but stays bound: perfbench/test_checkers.py
# checks that the tracer patches a layer function in a module importing it.
from .polyomino import CellInterval, canonical_cells, shape_predicates, stored_property  # noqa: F401

if TYPE_CHECKING:
    from .record import ShapeRecord

__all__ = [
    "BrushDecomposition",
    "ChordalityClassification",
    "ChordalityResult",
    "brush_decomposition",
    "classify_chordality",
    "complement_graph",
    "induced_cycle_lengths",
    "is_chordal",
]

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
_EXCEPTIONAL_RANKS = frozenset(len(key) for key in _EXCEPTIONAL_KEYS)


@dataclass(frozen=True)
class ChordalityResult:
    """The verdict on the complement of ``attack``; ``chordless_cycle`` is searched for when read."""

    chordal: bool
    elimination_order: tuple | None
    attack: SimpleGraph | None = field(repr=False)

    @stored_property
    def chordless_cycle(self) -> tuple | None:
        return None if self.chordal else _shortest_chordless_cycle(complement_graph(self.attack))


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


def _shortest_chordless_cycle(graph: SimpleGraph) -> tuple:
    """Shortest cycle of length >= 4 with no chord; the graph is not chordal.

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
                fresh = masks[u] & allowed
                allowed ^= fresh
                for w in bits(fresh):
                    parent[w] = u
                    queue.append(w)
            if c not in parent:
                continue
            path = [c]
            while path[-1] != a:
                path.append(parent[path[-1]])
            cycle = tuple(graph.vertices[v] for v in [b] + path[::-1])
            if best is None or len(cycle) < len(best):
                best = cycle
    if best is None:
        raise RuntimeError("elimination check failed but no chordless cycle found")
    return best


def _complement_chordality(attack: SimpleGraph) -> ChordalityResult:
    """Maximum cardinality search (Tarjan-Yannakakis) on the complement of
    ``attack``, run as a minimum cardinality search on ``attack``, ties to
    the lowest vertex, with unnumbered vertices bucketed as int masks by
    numbered neighbours. The reversed order is checked as it is made: when
    v is numbered, its later complement neighbours are L, their first is w,
    the vertex of L numbered last, and the order fails iff L meets attack[w].
    """
    masks, n = attack.masks, attack.n
    by_count = [(1 << n) - 1] + [0] * n  # unnumbered vertices by numbered neighbours
    low, numbered, order = 0, 0, []
    for _ in range(n):
        while not by_count[low]:
            low += 1
        bucket = by_count[low]
        v = (bucket & -bucket).bit_length() - 1
        by_count[low] = bucket ^ (1 << v)
        nbrs = masks[v]
        later = numbered & ~nbrs
        if later:
            for w in reversed(order):
                if not nbrs >> w & 1:
                    break
            if later & masks[w]:
                return ChordalityResult(False, None, attack)
        order.append(v)
        numbered |= 1 << v
        # Each unnumbered neighbour moves up one bucket: bucket k gives up
        # those it holds and takes those bucket k - 1 gave up.
        rest, k, carry = nbrs & ~numbered, low, 0
        while rest or carry:
            moved = by_count[k] & rest
            by_count[k] ^= moved | carry
            rest ^= moved
            carry = moved
            k += 1
    return ChordalityResult(True, tuple([attack.vertices[v] for v in reversed(order)]), attack)


def is_chordal(graph: SimpleGraph) -> ChordalityResult:
    """Whether ``graph`` is chordal, by the search above on its complement, with a
    perfect elimination order or, when read, a shortest chordless cycle."""
    return _complement_chordality(complement_graph(graph))


def induced_cycle_lengths(graph: SimpleGraph, max_len: int) -> set[int]:
    """Lengths of all induced (chordless) cycles up to ``max_len``.

    A cycle is found from its least vertex s, whose neighbours above it
    are ``closes`` and whose other vertices above it are ``grows``. A
    triangle is s and two adjacent vertices of ``closes``. A longer cycle
    is s, a, m1..mt, b with a, b non-adjacent in ``closes`` and m1..mt an
    induced path in ``grows``, a adjacent to m1 and b to mt and neither to
    another mi. This is exact, as no vertex of an induced cycle but its
    two neighbours of s is adjacent to s. The middle paths grow at the
    tail on a stack, which stops once no candidate for a is left.
    """
    if max_len < 3:
        raise ValueError("max_len must be at least 3")
    masks, n = graph.masks, graph.n
    lengths: set[int] = set()
    for s in range(n):
        above = (1 << n) - (2 << s)
        closes, grows = masks[s] & above, above & ~masks[s]
        if closes.bit_count() < 2:
            continue
        if 3 not in lengths and any(masks[v] & closes for v in bits(closes)):
            lengths.add(3)
        # earlier: the neighbours of all path vertices but the last.
        stack, rest = [], grows
        while rest:
            low = rest & -rest
            rest ^= low
            m = low.bit_length() - 1
            stack.append((m, low, 0, masks[m] & closes, 1))
        while stack:
            last, path, earlier, a_side, t = stack.pop()
            if t + 3 not in lengths:
                b_side = masks[last] & closes & ~earlier
                rest = a_side
                while rest:
                    a = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    if b_side & ~(1 << a) & ~masks[a]:
                        lengths.add(t + 3)
                        break
            if t + 3 >= max_len:
                continue
            rest = masks[last] & grows & ~path & ~earlier
            earlier |= masks[last]
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if a_side & ~masks[w]:
                    stack.append((w, path | 1 << w, earlier, a_side & ~masks[w], t + 1))
    return {l for l in lengths if l <= max_len}


def brush_decomposition(rec: ShapeRecord) -> BrushDecomposition | None:
    """Decompose a simple thin polyomino as a handle plus bristles.

    Tries every maximal interval as the handle; valid when all remaining
    intervals meet it and their number does not exceed the handle length.
    If several handles work, a decomposition flagged pure is preferred,
    then a short one, then the least sorted bristle lengths, which do not
    depend on orientation, then the lowest handle anchor. ``pure_brush``
    also requires the bristles to partition the cells with handle length
    = bristle count = rook number.
    """
    preds = rec.predicates
    if not (preds.simple and preds.thin):
        raise NotApplicableError("brush recognition needs a simple thin polyomino")
    if rec.poly.rank < 2:
        raise NotApplicableError("rank 1 has no maximal intervals")
    ivs = [(orientation, mask) for orientation, masks in rec.intervals.items() for mask in masks]
    masks = [mask for _, mask in ivs]
    d = rec.rook_complex.rook_number
    found = []
    for k, handle in enumerate(masks):
        if len(masks) - 1 > handle.bit_count():
            continue
        shared = {j: mask & handle for j, mask in enumerate(masks) if j != k}
        if not all(shared.values()):
            continue
        # Bristles in the order of the first cell each shares with the handle.
        order = sorted(shared, key=lambda j: shared[j] & -shared[j])
        lengths = tuple([masks[j].bit_count() for j in order])
        short = all(l == 2 for l in lengths)
        # Bristles whose lengths sum to the rank partition the cells iff
        # their masks sum to every cell, as two that overlap would carry.
        pure = (
            sum(lengths) == rec.poly.rank
            and sum([masks[j] for j in order]) == (1 << rec.poly.rank) - 1
            and handle.bit_count() == len(order) == d
        )
        # The handle's lowest bit stands for its anchor: bit order is cell order.
        key = (not pure, not short, tuple(sorted(lengths)), handle & -handle)
        found.append((key, (k, *order), lengths, short, pure))
    if not found:
        return None
    _, chosen, lengths, short, pure = min(found)  # chosen starts with k: ties keep the first
    handle, *bristles = [rec.poly.interval(*ivs[j]) for j in chosen]
    return BrushDecomposition(handle, tuple(bristles), lengths, short, pure, d)


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
    elif preds.simple and rec.poly.rank in _EXCEPTIONAL_RANKS and canonical_cells(rec.poly.sorted_cells) in _EXCEPTIONAL_KEYS:
        category = EXCEPTIONAL_NONTHIN
    else:
        category = OTHER
    return ChordalityClassification(chordal, category, chordal == (category != OTHER))
