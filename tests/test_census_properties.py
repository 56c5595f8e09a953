"""Census-wide invariants at the ranks where they are stated."""

import cell_scans

from rooklab import (
    ShapeRecord,
    attack_graph,
    f_vector,
    find_embedding,
    is_pure,
    maximal_intervals,
    partitions,
    rook_complex,
    shape_predicates,
    verify_corpus,
)


def _passes(name, rank):
    report = verify_corpus(rank, [name])
    result = report.results[0]
    assert result.passed, [v.detail for v in result.violations]


class TestRegistryChecksAtRankEight:
    def test_square_superpartitions(self):
        _passes("square-superpartitions", 8)

    def test_embedded_complement(self):
        _passes("embedded-complement", 8)

    def test_nonsimple_nonchordal(self):
        _passes("nonsimple-nonchordal", 8)

    def test_prop_geq2(self):
        _passes("prop-geq2", 8)


class TestProofSteps:
    def test_embedded_dichotomy(self, census8):
        # Embedded members of a partition of a pure-complex polyomino are
        # none or all.
        for poly in census8:
            rec = ShapeRecord(poly)
            if poly.rank < 2 or not is_pure(poly).pure:
                continue
            for part in partitions(rec):
                flags = [find_embedding(rec, iv) is not None for iv in part.intervals]
                assert all(flags) or not any(flags)

    def test_unembedded_interval_meets_every_facet(self, census8):
        for poly in census8:
            rec = ShapeRecord(poly)
            if poly.rank < 2:
                continue
            fs = f_vector(attack_graph(poly)).facets
            for iv in maximal_intervals(poly):
                if find_embedding(rec, iv) is None:
                    assert all(f & frozenset(iv.cells) for f in fs)


class TestConventions:
    def test_interval_equals_line_on_convex(self, census8):
        for poly in census8:
            if shape_predicates(poly).convex:
                assert (
                    attack_graph(poly, "interval").edges
                    == attack_graph(poly, "line").edges
                )
                # Uncached: the two graphs are equal and would share an entry.
                interval, line = (f_vector.__wrapped__(attack_graph(poly, c)) for c in ("interval", "line"))
                assert (interval.f_vector, interval.rook_number, interval.pure) == (
                    line.f_vector,
                    line.rook_number,
                    line.pure,
                ), poly
                columns = [rook_complex._sweep_columns(attack_graph(poly, c)) for c in ("interval", "line")]
                assert columns == [cell_scans.sweep_columns(poly, c) for c in ("interval", "line")], poly
                interval_sweep, line_sweep = map(rook_complex._sweep_counts, columns)
                assert interval_sweep == line_sweep, poly
