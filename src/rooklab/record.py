"""One analysis record per polyomino.

Every result rooklab derives from a shape is a field of its record. A
field is computed on first use, by the function that computes its layer,
from inputs the record already holds, and is kept after that. The census
checks and ``rooklab analyze`` read records, so a shape is analyzed once
however many checks look at it. Graphs and intervals are int vertex masks.
"""

from __future__ import annotations

from . import chordal, partition, polyomino, regularity
from .graphs import SimpleGraph
from .polyomino import stored_property
from .rook_complex import INTERVAL, RookComplex, attack_graph, f_vector, h_from_f

__all__ = ["ShapeRecord"]


class GraphRecord:
    """The attack graph of one polyomino under one attack convention, and
    what is read off it: the rook complex (purity and its witness
    included), chordality of the complement, searched on ``attack``
    without building the complement, and the induced matching number.
    ``attack`` is the one graph every field reads: ``rook_complex`` is
    swept from it and holds it, so no graph field waits for the sweep."""

    def __init__(self, poly: polyomino.Polyomino, convention: str = INTERVAL):
        self.poly = poly
        self.convention = convention

    @stored_property
    def attack(self) -> SimpleGraph:
        return attack_graph(self.poly, self.convention)

    @stored_property
    def rook_complex(self) -> RookComplex:
        return f_vector(self.attack)

    @stored_property
    def h_vector(self) -> tuple[int, ...]:
        return h_from_f(self.rook_complex.f_vector)

    @stored_property
    def chordality(self) -> chordal.ChordalityResult:
        """Chordality of the complement, with its witness, searched on ``attack``."""
        return chordal._complement_chordality(self.attack)

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
    def intervals(self) -> dict[str, tuple[int, ...]]:
        """The maximal intervals by orientation, as the vertex masks of the
        runs of ``poly.runs`` of two cells or more; ``poly.interval`` builds
        a ``CellInterval`` only for what is returned or printed."""
        sides = [tuple([run for run in runs if run & (run - 1)]) for runs in self.poly.runs]
        return dict(zip((polyomino.HORIZONTAL, polyomino.VERTICAL), sides))

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
