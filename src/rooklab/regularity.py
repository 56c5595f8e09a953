"""Elementary symmetric machinery, closed-form face counts for pure
brushes, exact induced matching, and combinatorial regularity.

For a pure brush with bristle lengths l_1..l_d the face counts have the
closed form f_(k-1) = e_k(l-1) + (d-k+1) e_(k-1)(l-1) and the h-entries
the same form in l-2, where e_k is the k-th elementary symmetric
polynomial. Regularity is only ever computed combinatorially, as the
degree of the h-vector, and only for pure simple thin polyominoes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING, Sequence

from .errors import (
    IndexOutOfRangeError,
    NotApplicableError,
    NotPureBrushError,
    RankTooSmallError,
)
from .graphs import SimpleGraph, bits
from .polyomino import Cell, CellInterval

if TYPE_CHECKING:
    from .record import ShapeRecord


@dataclass(frozen=True)
class SigmaTriple:
    sigma: int
    sigma_prime: int
    sigma_double: int


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


def elementary_symmetric(k: int, values: Sequence[int]) -> int:
    """e_k over the values; e_0 = 1, and 0 once k exceeds the arity."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > len(values):
        return 0
    acc = [0] * (k + 1)
    acc[0] = 1
    for i, v in enumerate(values):
        for j in range(min(k, i + 1), 0, -1):
            acc[j] += acc[j - 1] * v
    return acc[k]


def _check_lengths(lengths: Sequence[int]) -> tuple[int, ...]:
    lengths = tuple(int(v) for v in lengths)
    if not lengths:
        raise ValueError("length vector is empty")
    if any(v < 2 for v in lengths):
        raise ValueError("bristle lengths are at least 2")
    return lengths


def sigma_triples(lengths: Sequence[int], k: int) -> SigmaTriple:
    """e_k of the lengths, of the lengths minus one, and minus two."""
    lengths = _check_lengths(lengths)
    if not 0 <= k <= len(lengths):
        raise IndexOutOfRangeError(f"k={k} outside 0..{len(lengths)}")
    return SigmaTriple(
        elementary_symmetric(k, lengths),
        elementary_symmetric(k, [v - 1 for v in lengths]),
        elementary_symmetric(k, [v - 2 for v in lengths]),
    )


def check_sigma_identities(lengths: Sequence[int]) -> bool:
    """Verify the three binomial relations tying the shifted symmetric
    polynomials together, exactly, for every k up to the arity."""
    lengths = _check_lengths(lengths)
    d = len(lengths)
    s = [elementary_symmetric(k, lengths) for k in range(d + 1)]
    sp = [elementary_symmetric(k, [v - 1 for v in lengths]) for k in range(d + 1)]
    spp = [elementary_symmetric(k, [v - 2 for v in lengths]) for k in range(d + 1)]
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
    sp = [elementary_symmetric(k, [v - 1 for v in lengths]) for k in range(d + 1)]
    spp = [elementary_symmetric(k, [v - 2 for v in lengths]) for k in range(d + 1)]
    f = [1]
    for k in range(1, d + 1):
        f.append(sp[k] + (d - (k - 1)) * sp[k - 1])
    h = []
    for t in range(d + 1):
        prev = spp[t - 1] if t >= 1 else 0
        h.append(spp[t] + (d - (t - 1)) * prev)
    return BrushVectors(tuple(f), tuple(h))


def _conflict_masks(graph: SimpleGraph) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """The edges as sorted index pairs in sorted order, for each vertex
    the mask of the edges at it, and for each edge the mask of the edges
    it conflicts with: those with an endpoint in the closed neighbourhood
    of either of its endpoints."""
    masks = graph.masks
    ends = [(i, j) for i, mask in enumerate(masks) for j in bits((mask >> (i + 1)) << (i + 1))]
    incident = [0] * graph.n
    for e, (i, j) in enumerate(ends):
        incident[i] |= 1 << e
        incident[j] |= 1 << e
    near = []  # per vertex, the edges with an endpoint in its closed neighbourhood
    for i, mask in enumerate(masks):
        touched = 0
        for v in bits(mask | (1 << i)):
            touched |= incident[v]
        near.append(touched)
    conflict = [(near[i] | near[j]) & ~(1 << e) for e, (i, j) in enumerate(ends)]
    return ends, incident, conflict


def _clique_cover(
    graph: SimpleGraph, ends: list[tuple[int, int]], incident: list[int]
) -> tuple[list[int], int]:
    """A family of cliques for the induced-matching bound: for each
    member the mask of the edges that meet it, and the fewest members
    that any one edge meets.

    The members are every closed common neighbourhood N[u] & N[v] of an
    edge uv that is a clique, once each, and the singleton of every
    vertex that lies in fewer than two of those. So every edge meets at
    least two members. On an attack graph the members are its maximal
    runs (rows and columns under ``line``), singleton runs included, and
    every edge meets three of them.
    """
    closed = [mask | (1 << i) for i, mask in enumerate(graph.masks)]
    member_of = [0] * graph.n
    meets = []
    for common in dict.fromkeys(closed[i] & closed[j] for i, j in ends):
        seen_by_all = common  # shrinks below common unless it is a clique
        edge_mask = 0
        for v in bits(common):
            seen_by_all &= closed[v]
            edge_mask |= incident[v]
        if seen_by_all == common:
            for v in bits(common):
                member_of[v] |= 1 << len(meets)
            meets.append(edge_mask)
    for v, of in enumerate(member_of):
        if of.bit_count() < 2:
            member_of[v] |= 1 << len(meets)
            meets.append(incident[v])
    least = min((member_of[i] | member_of[j]).bit_count() for i, j in ends)
    return meets, least


def induced_matching_number(graph: SimpleGraph) -> MatchingCertificate:
    """Exact maximum induced matching, by branch and bound over edges.

    Two edges conflict when they share an endpoint or are joined by an
    edge; an induced matching is an independent set in that conflict
    graph. The search includes, then excludes, the lowest available edge,
    from a greedy seed, and prunes a node by a clique bound on the edges
    still available. Every member of the family from ``_clique_cover`` is
    a clique, so it meets at most one edge of an induced matching (two
    matched edges meeting it would be joined by an edge of it). Each edge
    meets at least t members, so at most floor(m / t) edges fit, where m
    counts the members that some available edge meets. This holds on any
    graph; on an attack graph t = 3 and m counts the free runs, which
    closes the search on boards at the root.

    The result is the first maximum leaf in search order, whatever the
    bound, so a tighter bound changes the work and not the certificate.
    The certificate is re-verified before returning.
    """
    ends, incident, conflict = _conflict_masks(graph)
    n = len(ends)
    if n == 0:
        return MatchingCertificate((), 0)
    meets, least = _clique_cover(graph, ends, incident)

    avail0 = (1 << n) - 1

    # Greedy seed: scan edges in order, keep whatever fits.
    m = avail0
    seed = 0
    size = 0
    while m:
        b = m & -m
        v = b.bit_length() - 1
        seed |= b
        size += 1
        m &= ~conflict[v] & ~b
    best_size, best_mask = size, seed

    def expand(avail: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        if avail == 0:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        if len([1 for edge_mask in meets if edge_mask & avail]) // least <= best_size - size:
            return
        b = avail & -avail
        v = b.bit_length() - 1
        expand(avail & ~conflict[v] & ~b, chosen | b, size + 1)
        expand(avail & ~b, chosen, size)

    expand(avail0, 0, 0)

    vs = graph.vertices
    picked = sorted((vs[ends[e][0]], vs[ends[e][1]]) for e in bits(best_mask))
    _verify_induced_matching(graph, picked)
    return MatchingCertificate(tuple(picked), best_size)


def _verify_induced_matching(graph: SimpleGraph, edges: list[tuple[Cell, Cell]]) -> None:
    """Raise unless the matched cells are distinct and the only graph edges
    among them are the matched pairs, so each pair is an edge too."""
    matched = [graph.index(v) for e in edges for v in e]
    if len(set(matched)) != len(matched):
        raise RuntimeError("matching certificate has shared endpoints")
    covered = sum(1 << i for i in matched)
    for i, j in zip(matched[::2], matched[1::2]):
        if graph.masks[i] & covered != 1 << j or graph.masks[j] & covered != 1 << i:
            raise RuntimeError("matching certificate is not induced")


def single_cell_intervals(rec: ShapeRecord) -> list[CellInterval]:
    """Intervals owning at least two cells that belong to no other interval."""
    if rec.poly.rank < 2:
        raise RankTooSmallError("rank 1 has no maximal intervals")
    membership: dict[Cell, int] = {c: 0 for c in rec.poly.cells}
    for iv in rec.intervals:
        for c in iv.cells:
            membership[c] += 1
    out = []
    for iv in rec.intervals:
        singles = sum(1 for c in iv.cells if membership[c] == 1)
        if singles >= 2:
            out.append(iv)
    return out


def regularity_pure_thin(rec: ShapeRecord) -> int:
    """Degree of the h-vector, licensed only for pure simple thin input."""
    preds = rec.predicates
    if not (preds.simple and preds.thin):
        raise NotApplicableError("regularity formula needs a simple thin polyomino")
    if not rec.purity.pure:
        raise NotApplicableError("regularity formula needs a pure rook complex")
    return max(k for k, v in enumerate(rec.h_vector) if v != 0)


def check_reg_eq_nu(rec: ShapeRecord) -> RegularityMatchReport:
    """Compare the h-vector degree with the exact induced matching number
    on a pure brush, together with the single-cell lower bound."""
    brush = rec.brush
    if brush is None or not brush.pure_brush:
        raise NotPureBrushError("input is not a pure brush polyomino")
    reg = rec.regularity
    nu = rec.matching.size
    singles = len(single_cell_intervals(rec))
    consistent = (reg == nu) and (nu >= singles)
    return RegularityMatchReport(reg, nu, singles, consistent)
