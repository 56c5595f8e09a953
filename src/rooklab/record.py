"""One analysis record per polyomino.

Every result rooklab derives from a shape is a field of its record. A
field is computed on first use, by the function that computes its layer,
from inputs the record already holds, and is kept after that. The census
checks and ``rooklab analyze`` read records, so a shape is analyzed once
however many checks look at it. Graphs are held as int neighbour masks.
"""

from __future__ import annotations

from . import chordal, partition, polyomino, regularity
from .graphs import SimpleGraph
from .polyomino import stored_property
from .rook_complex import INTERVAL, RookComplex, attack_graph, f_vector, h_from_f

__all__ = ["ShapeRecord"]


class GraphRecord:
    """The attack graph of one polyomino under one attack convention, and
    what is read off it: its complement, the rook complex (purity and its
    witness included), chordality of the complement and the induced
    matching number.
    ``attack`` is ``attack_graph``'s, which ``rook_complex`` also holds,
    so no graph field waits for the face sweep."""

    def __init__(self, poly: polyomino.Polyomino, convention: str = INTERVAL):
        self.poly = poly
        self.convention = convention

    @stored_property
    def attack(self) -> SimpleGraph:
        return attack_graph(self.poly, self.convention)

    @stored_property
    def complement(self) -> SimpleGraph:
        return chordal.complement_graph(self.attack)

    @stored_property
    def rook_complex(self) -> RookComplex:
        return f_vector(self.poly, self.convention)

    @stored_property
    def h_vector(self) -> tuple[int, ...]:
        return h_from_f(self.rook_complex.f_vector)

    @stored_property
    def chordality(self) -> chordal.ChordalityResult:
        """Chordality of the complement, with its witness."""
        return chordal.is_chordal(self.complement)

    @stored_property
    def matching(self) -> regularity.MatchingCertificate:
        return regularity.induced_matching_number(self.attack)


class ShapeRecord(GraphRecord):
    """A polyomino's full analysis under the interval convention, the one
    its partitions, brushes, purity and regularity results are stated for.

    ``purity_theorem``, ``regularity`` and ``reg_nu`` raise where their
    functions do: below rank 2, outside pure simple thin shapes, and off
    pure brushes respectively.
    """

    def __init__(self, poly: polyomino.Polyomino):
        super().__init__(poly, INTERVAL)

    @stored_property
    def intervals(self) -> dict[polyomino.CellInterval, int]:
        """Each maximal interval, in order, with its vertex mask. One lookup
        gives an interval's mask and tells whether it is one of this
        shape's; two intervals meet when their masks share a bit, the
        lowest shared bit is their first shared cell, and a union is an OR."""
        return polyomino.maximal_intervals(self.poly)

    @stored_property
    def predicates(self) -> polyomino.ShapePredicates:
        return polyomino.shape_predicates(self.poly)

    @stored_property
    def super_partitions(self) -> list[partition.PartitionSet]:
        return partition.super_partitions(self)

    @stored_property
    def purity_theorem(self) -> partition.PurityTheoremReport:
        return partition.check_purity_theorem(self)

    @stored_property
    def brush(self) -> chordal.BrushDecomposition | None:
        """The brush decomposition; None unless the shape is simple and thin,
        of rank at least 2, and has one."""
        if self.poly.rank < 2 or not (self.predicates.simple and self.predicates.thin):
            return None
        return chordal.brush_decomposition(self)

    @stored_property
    def classification(self) -> chordal.ChordalityClassification:
        return chordal.classify_chordality(self)

    @stored_property
    def regularity(self) -> int:
        return regularity.regularity_pure_thin(self)

    @stored_property
    def reg_nu(self) -> regularity.RegularityMatchReport:
        return regularity.check_reg_eq_nu(self)
