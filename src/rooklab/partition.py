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
from typing import TYPE_CHECKING, Iterator

from .errors import IntervalNotInPolyominoError, RankTooSmallError
from .polyomino import Cell, CellInterval, HORIZONTAL, VERTICAL

if TYPE_CHECKING:
    from .record import ShapeRecord


@dataclass(frozen=True)
class PartitionSet:
    intervals: tuple[CellInterval, ...]
    orientation: str
    is_super: bool


@dataclass(frozen=True)
class Embedding:
    """A witness that ``target`` is embedded: ``rooks[i]`` attacks
    ``target.cells[i]`` and the rooks are pairwise non-attacking."""

    target: CellInterval
    rooks: tuple[Cell, ...]

    @property
    def rook_set(self) -> frozenset[Cell]:
        return frozenset(self.rooks)


@dataclass(frozen=True)
class PurityTheoremReport:
    pure: bool
    super_exists: bool
    sizes_match: bool
    consistent: bool


def embeddings(rec: ShapeRecord, interval: CellInterval) -> Iterator[Embedding]:
    """Every embedding of ``interval``, in lexicographic order of the
    rook tuple aligned with the interval's cells.

    Under the interval attack convention a cell outside the interval can
    attack at most one of its cells, namely through the perpendicular
    interval; an embedding can therefore never intersect the interval
    itself, and candidates per target cell are exactly the other cells of
    its perpendicular interval.
    """
    ivs = rec.intervals
    if interval not in ivs:
        raise IntervalNotInPolyominoError(f"{interval!r} is not a maximal interval")
    graph = rec.attack
    candidates: list[list[int]] = []
    for cell in interval.cells:
        perp = [
            iv
            for iv in ivs
            if cell in iv and iv.orientation != interval.orientation
        ]
        if not perp:
            return
        candidates.append([graph.index(c) for c in perp[0].cells if c != cell])

    chosen: list[int] = []

    def extend(i: int, blocked: int) -> Iterator[Embedding]:
        # ``blocked`` holds the chosen rooks and every cell they attack.
        if i == len(candidates):
            yield Embedding(interval, tuple(graph.vertices[c] for c in chosen))
            return
        for cand in candidates[i]:
            if blocked >> cand & 1:
                continue
            chosen.append(cand)
            yield from extend(i + 1, blocked | graph.masks[cand] | (1 << cand))
            chosen.pop()

    yield from extend(0, 0)


def find_embedding(rec: ShapeRecord, interval: CellInterval) -> Embedding | None:
    """First embedding of ``interval`` in deterministic order, or None."""
    return next(embeddings(rec, interval), None)


def is_embedding(rec: ShapeRecord, interval: CellInterval, rooks: tuple[Cell, ...]) -> bool:
    """Validate a claimed embedding independently of the search."""
    if len(rooks) != interval.length or len(set(rooks)) != len(rooks):
        return False
    if any(r not in rec.poly.cells for r in rooks):
        return False
    graph = rec.attack
    paired = all(graph.adjacent(r, c) for r, c in zip(rooks, interval.cells))
    free = not any(
        graph.adjacent(rooks[i], rooks[j])
        for i in range(len(rooks))
        for j in range(i + 1, len(rooks))
    )
    return paired and free


def partitions(rec: ShapeRecord) -> list[PartitionSet]:
    """The at most two partitions of the polyomino into maximal intervals.

    The horizontal family qualifies exactly when every cell lies in a
    horizontal interval, and likewise vertically. Members of one family
    are pairwise disjoint, so that is when their lengths sum to the rank.
    """
    if rec.poly.rank < 2:
        raise RankTooSmallError("a monomino has no partitions: its interval family is empty")
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
        raise RankTooSmallError("rank 1 is a documented trivial case (pure, no partitions)")
    pure = rec.purity.pure
    d = rec.rook_complex.rook_number
    supers = rec.super_partitions
    super_exists = bool(supers)
    sizes_match = any(len(p.intervals) == d for p in supers)
    consistent = pure == (super_exists and sizes_match)
    return PurityTheoremReport(pure, super_exists, sizes_match, consistent)
