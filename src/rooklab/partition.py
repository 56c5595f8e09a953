"""Partitions of a polyomino into maximal intervals, embedded intervals,
super partitions, and the purity characterization.

A partition is a pairwise-disjoint subfamily of the maximal intervals
covering every cell; only the full horizontal family or the full vertical
family can qualify, so a polyomino has at most two. An interval is
embedded when some non-attacking set pairs each of its cells with an
attacker from outside; a partition with no embedded member is super.
Purity of the rook complex is equivalent to the existence of a super
partition whose size equals the rook number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import IntervalNotInPolyominoError, NotApplicableError
from .graphs import bits
from .polyomino import Cell, CellInterval, HORIZONTAL, VERTICAL

if TYPE_CHECKING:
    from .record import ShapeRecord

__all__ = [
    "PartitionSet",
    "PurityTheoremReport",
    "check_purity_theorem",
    "find_embedding",
    "partitions",
    "super_partitions",
]


@dataclass(frozen=True)
class PartitionSet:
    intervals: tuple[CellInterval, ...]
    orientation: str
    is_super: bool


@dataclass(frozen=True)
class PurityTheoremReport:
    pure: bool
    super_exists: bool
    sizes_match: bool
    consistent: bool


def find_embedding(rec: ShapeRecord, interval: CellInterval) -> tuple[Cell, ...] | None:
    """The first embedding of ``interval`` in lexicographic order, or None
    when there is none. An embedding is a tuple of pairwise non-attacking
    rooks aligned with the interval's cells: rook i attacks cell i.

    Under the interval attack convention a cell outside the interval can
    attack at most one of its cells, namely through the perpendicular
    run; an embedding can therefore never intersect the interval itself,
    and the candidates for a target cell are its attackers outside the
    interval, the rest of its perpendicular run in increasing order.
    One lookup in ``rec.intervals`` checks the interval and gives its
    cells as vertices, in ascending order as the cells are.
    """
    target_mask = rec.intervals.get(interval)
    if target_mask is None:
        raise IntervalNotInPolyominoError(f"{interval!r} is not a maximal interval")
    graph = rec.attack
    candidates = [list(bits(graph.masks[i] & ~target_mask)) for i in bits(target_mask)]
    if not all(candidates):  # a cell with no outside attacker: skip the search
        return None

    def extend(i: int, blocked: int) -> tuple[int, ...] | None:
        # ``blocked`` holds the chosen rooks and every cell they attack.
        if i == len(candidates):
            return ()
        for cand in candidates[i]:
            if not blocked >> cand & 1:
                rest = extend(i + 1, blocked | graph.masks[cand] | (1 << cand))
                if rest is not None:
                    return (cand, *rest)
        return None

    rooks = extend(0, 0)
    del extend  # it refers to itself; the cycle would wait for a collection
    return None if rooks is None else tuple(graph.vertices[c] for c in rooks)


def partitions(rec: ShapeRecord) -> list[PartitionSet]:
    """The at most two partitions of the polyomino into maximal intervals.

    The horizontal family qualifies exactly when every cell lies in a
    horizontal interval, and likewise vertically. Members of one family
    are pairwise disjoint, so that is when their lengths sum to the rank.
    """
    if rec.poly.rank < 2:
        raise NotApplicableError("a monomino has no partitions: its interval family is empty")
    out: list[PartitionSet] = []
    for orientation in (HORIZONTAL, VERTICAL):
        members = tuple(iv for iv in rec.intervals if iv.orientation == orientation)
        if sum(iv.length for iv in members) == rec.poly.rank:
            is_super = all(find_embedding(rec, iv) is None for iv in members)
            out.append(PartitionSet(members, orientation, is_super))
    return out


def super_partitions(rec: ShapeRecord) -> list[PartitionSet]:
    """The partitions none of whose members is embedded."""
    return [p for p in partitions(rec) if p.is_super]


def check_purity_theorem(rec: ShapeRecord) -> PurityTheoremReport:
    """Compare both sides of the purity characterization, as read off the record.

    ``consistent`` holds when purity of the rook complex coincides with
    the existence of a super partition whose size is the rook number.
    """
    if rec.poly.rank < 2:
        raise NotApplicableError("rank 1 is a documented trivial case (pure, no partitions)")
    pure = rec.rook_complex.pure
    d = rec.rook_complex.rook_number
    supers = rec.super_partitions
    super_exists = bool(supers)
    sizes_match = any(len(p.intervals) == d for p in supers)
    consistent = pure == (super_exists and sizes_match)
    return PurityTheoremReport(pure, super_exists, sizes_match, consistent)
