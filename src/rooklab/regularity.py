"""Elementary symmetric machinery, closed-form face counts for pure
brushes, exact induced matching, and combinatorial regularity.

For a pure brush with bristle lengths l_1..l_d the face counts have the
closed form f_(k-1) = e_k(l-1) + (d-k+1) e_(k-1)(l-1) and the h-entries
the same form in l-2, where e_k is the k-th elementary symmetric
polynomial, all d + 1 of them from one pass. Regularity is only ever
computed combinatorially, as the degree of the h-vector, and only for
pure simple thin polyominoes. The induced matching number is exact where
reported; a check of nu >= k stops at a witness of k edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Sequence

from .errors import NotApplicableError
from .graphs import SimpleGraph, bits
from .polyomino import Cell, CellInterval

if TYPE_CHECKING:
    from .record import ShapeRecord

__all__ = [
    "BrushVectors",
    "MatchingCertificate",
    "RegularityMatchReport",
    "brush_fh",
    "check_reg_eq_nu",
    "check_sigma_identities",
    "induced_matching_number",
    "regularity_pure_thin",
    "single_cell_intervals",
]


@dataclass(frozen=True)
class BrushVectors:
    f: tuple[int, ...]
    h: tuple[int, ...]


@dataclass(frozen=True)
class MatchingCertificate:
    edges: tuple[tuple[Cell, Cell], ...]
    size: int


@dataclass(frozen=True)
class RegularityMatchReport:
    regularity: int
    nu: int
    single_interval_count: int
    consistent: bool


def _elementary_symmetric_all(values: Sequence[int]) -> list[int]:
    """e_0..e_d of the d values, from one pass of e_j += e_(j-1) v per value v."""
    acc = [1] + [0] * len(values)
    for i, v in enumerate(values):
        for j in range(i + 1, 0, -1):
            acc[j] += acc[j - 1] * v
    return acc


def _check_lengths(lengths: Sequence[int]) -> tuple[int, ...]:
    lengths = tuple(lengths)
    if not lengths:
        raise ValueError("length vector is empty")
    if any(not isinstance(v, int) or isinstance(v, bool) or v < 2 for v in lengths):
        raise ValueError(f"bristle lengths are integers of at least 2, not {lengths!r}")
    return lengths


def check_sigma_identities(lengths: Sequence[int]) -> bool:
    """Verify the three binomial relations tying the shifted symmetric
    polynomials together, exactly, for every k up to the arity."""
    lengths = _check_lengths(lengths)
    d = len(lengths)
    s, sp, spp = (_elementary_symmetric_all([v - shift for v in lengths]) for shift in (0, 1, 2))
    for k in range(d + 1):
        lhs1 = sum((-1) ** (k - i) * comb(d - i, k - i) * s[i] for i in range(k + 1))
        lhs2 = sum(comb(d - i, k - i) * sp[i] for i in range(k + 1))
        lhs3 = sum((-1) ** (k - i) * comb(d - i, k - i) * sp[i] for i in range(k + 1))
        if lhs1 != sp[k] or lhs2 != s[k] or lhs3 != spp[k]:
            return False
    return True


def brush_fh(lengths: Sequence[int]) -> BrushVectors:
    """Closed-form face counts and h-vector for a pure brush with the
    given bristle lengths; accepts the degenerate single-bristle case."""
    lengths = _check_lengths(lengths)
    d = len(lengths)
    sp, spp = (_elementary_symmetric_all([v - shift for v in lengths]) for shift in (1, 2))
    f = (1, *(sp[k] + (d - k + 1) * sp[k - 1] for k in range(1, d + 1)))
    h = (spp[0], *(spp[t] + (d - t + 1) * spp[t - 1] for t in range(1, d + 1)))
    return BrushVectors(f, h)


def induced_matching_number(graph: SimpleGraph, at_least: int | None = None) -> MatchingCertificate:
    """Maximum induced matching, by branch and bound on a mask A of
    available vertices: those outside the closed neighbourhoods of the
    matched ends. Each step takes the lowest vertex i of A with a
    neighbour in A, includes each edge ij, by ascending j, on A - N[i] -
    N[j], and then drops i from A. That is "include, then exclude the
    lowest available edge" over the sorted edges, so the first leaf is
    the greedy matching. A vertex of A with a neighbour in A is live. The
    search keeps an explicit stack, one frame per matched edge. With
    ``at_least`` it ends at the first leaf of that many edges; without
    one it runs to the end, so a smaller result is exact.

    ``graph`` is an attack graph, from ``attack_graph``, and the bound
    reads its ``lines``; a graph without them raises ValueError. Each
    cell is an edge of the line incidence graph B, and a matched pair is
    a 2-edge path of B centred on one line, as a line is a clique and
    meets at most one edge of an induced matching. With x pairs centred
    on horizontal lines and y on vertical ones, H and V lines meeting a
    live vertex and H2 and V2 meeting two, x + 2y <= H, 2x + y <= V,
    x <= H2 and y <= V2: the centre-line bound below is the exact
    optimum of these. On an m x n rectangle the search then visits a
    number of nodes that does not grow with n: 2 for 2 x n, 5 for 3 x n.

    A node is pruned only when it cannot hold a strictly larger leaf, so
    the result is the first maximum leaf in search order, and no bound is
    read before the first leaf. It is re-verified before returning.
    """
    masks, lines = graph.masks, graph.lines
    if lines is None:
        raise ValueError("induced_matching_number needs an attack graph: its bound reads the graph's lines")
    closed = [mask | (1 << i) for i, mask in enumerate(masks)]
    goal = graph.n if at_least is None else at_least  # nu <= n/2 never reaches n

    def room_in(live: int) -> int:
        counts = []
        for side in lines:
            c = c2 = 0
            for m in side:
                m &= live
                if m:
                    c, c2 = c + 1, c2 + (m & (m - 1) > 0)
            counts += (c, c2)
        h, h2, v, v2 = counts
        return min((h + v) // 3, (h + h2) // 2, (v + v2) // 2, h2 + v2)

    best: list[tuple[int, int]] = []
    stack: list[tuple[int, ...]] = []  # per matched edge ij: avail, live, i, j, todo, room to resume
    avail = (1 << graph.n) - 1
    live, i, todo, room = sum(1 << v for v, mask in enumerate(masks) if mask), 0, 0, 0
    while True:
        if todo and room > len(best) - len(stack):  # include the next edge ij at i
            j = (todo & -todo).bit_length() - 1
            todo ^= 1 << j
            rest = avail & ~closed[i] & ~closed[j]
            if not todo:
                # The last edge at i: drop i, so the frame resumes at a new
                # step. Only i's neighbours can lose their last neighbour in A.
                avail &= ~(1 << i)
                live &= ~(1 << i)
                for v in bits(masks[i] & live):
                    if not masks[v] & avail:
                        live &= ~(1 << v)
            if rest:
                stack.append((avail, live, i, j, todo, room))
                # A vertex live in rest was live in the larger avail.
                near, avail, live, todo = live & rest, rest, 0, 0
                while near:
                    low = near & -near
                    near ^= low
                    if masks[low.bit_length() - 1] & rest:
                        live |= low
            elif len(stack) >= len(best):  # a leaf one edge larger
                best = [frame[2:4] for frame in stack] + [(i, j)]
                if len(best) >= goal:
                    break
        elif live and not todo:  # a step at the lowest live vertex i
            room = room_in(live) if best else graph.n
            i = (live & -live).bit_length() - 1
            todo = masks[i] & avail
        else:  # a leaf, or a node pruned with no larger leaf below
            if len(stack) > len(best):
                best = [frame[2:4] for frame in stack]
            if not stack or len(best) >= goal:
                break
            avail, live, i, _, todo, room = stack.pop()
            if room == graph.n and todo:  # a step taken before the first leaf
                room = room_in(live)

    _verify_induced_matching(graph, best)
    vs = graph.vertices
    return MatchingCertificate(tuple(sorted((vs[i], vs[j]) for i, j in best)), len(best))


def _verify_induced_matching(graph: SimpleGraph, pairs: list[tuple[int, int]]) -> None:
    """Raise unless the pairs' vertex positions are distinct and, by the
    masks, each pair is an edge and no other two of them are adjacent. It
    reads only the pairs the search found, none of the search's state."""
    matched = [v for e in pairs for v in e]
    if len(set(matched)) != len(matched):
        raise RuntimeError("matching certificate has shared endpoints")
    covered = sum(1 << i for i in matched)
    for i, j in zip(matched[::2], matched[1::2]):
        if graph.masks[i] & covered != 1 << j or graph.masks[j] & covered != 1 << i:
            raise RuntimeError("matching certificate is not induced")


def single_cell_intervals(rec: ShapeRecord) -> list[CellInterval]:
    """Intervals owning at least two cells that belong to no other interval."""
    if rec.poly.rank < 2:
        raise NotApplicableError("rank 1 has no maximal intervals")
    # A cell lies in at most two intervals, one of each orientation.
    once = twice = 0
    for mask in rec.intervals.values():
        twice |= once & mask
        once |= mask
    single = once & ~twice
    return [iv for iv, mask in rec.intervals.items() if (mask & single).bit_count() >= 2]


def regularity_pure_thin(rec: ShapeRecord) -> int:
    """Degree of the h-vector, licensed only for pure simple thin input."""
    preds = rec.predicates
    if not (preds.simple and preds.thin):
        raise NotApplicableError("regularity formula needs a simple thin polyomino")
    if not rec.rook_complex.pure:
        raise NotApplicableError("regularity formula needs a pure rook complex")
    return max(k for k, v in enumerate(rec.h_vector) if v != 0)


def check_reg_eq_nu(rec: ShapeRecord) -> RegularityMatchReport:
    """Compare the h-vector degree with the exact induced matching number
    on a pure brush, together with the single-cell lower bound."""
    brush = rec.brush
    if brush is None or not brush.pure_brush:
        raise NotApplicableError("input is not a pure brush polyomino")
    reg = rec.regularity
    nu = rec.matching.size
    singles = len(single_cell_intervals(rec))
    consistent = (reg == nu) and (nu >= singles)
    return RegularityMatchReport(reg, nu, singles, consistent)
