import gc
from itertools import combinations, product

import pytest

import cell_scans
from conftest import adjacent

from rooklab import (
    CellInterval,
    ShapeRecord,
    IntervalNotInPolyominoError,
    attack_graph,
    NotApplicableError,
    check_purity_theorem,
    f_vector,
    find_embedding,
    is_pure,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    partitions,
    super_partitions,
)

SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
RECT_2X3 = parse_ascii("###\n###")
MONOMINO = parse_cells([(0, 0)])


def embeddings_from_cells(poly, iv, attacks):
    """Every tuple that pairs each cell of ``iv`` with an attacker from
    outside it, pairwise distinct and non-attacking, in lexicographic
    order, with ``attacks`` the attacking pairs rebuilt from the cells."""

    def attack(a, b):
        return (min(a, b), max(a, b)) in attacks

    outside = sorted(poly.cells - frozenset(iv.cells))
    options = [[c for c in outside if attack(c, t)] for t in iv.cells]
    return [
        rooks
        for rooks in product(*options)
        if not any(a == b or attack(a, b) for a, b in combinations(rooks, 2))
    ]


def interval_of(poly, orientation, anchor):
    for iv in maximal_intervals(poly):
        if iv.orientation == orientation and iv.cells[0] == anchor:
            return iv
    raise AssertionError(f"no {orientation} interval at {anchor}")


class TestPartitions:
    def test_rectangle_has_two(self):
        parts = partitions(ShapeRecord(RECT_2X3))
        assert [p.orientation for p in parts] == ["horizontal", "vertical"]
        assert [p.is_super for p in parts] == [True, False]

    def test_skew_has_one(self):
        parts = partitions(ShapeRecord(SKEW))
        assert len(parts) == 1
        assert parts[0].orientation == "horizontal"
        assert parts[0].is_super

    def test_l_tromino_has_none(self):
        assert partitions(ShapeRecord(L_TROMINO)) == []

    def test_monomino_raises(self):
        with pytest.raises(NotApplicableError, match="a monomino has no partitions"):
            partitions(ShapeRecord(MONOMINO))

    def test_disjoint_and_covering(self, census6):
        for poly in census6:
            rec = ShapeRecord(poly)
            if poly.rank < 2:
                continue
            for part in partitions(rec):
                seen = set()
                for iv in part.intervals:
                    assert not (seen & frozenset(iv.cells))
                    seen |= frozenset(iv.cells)
                assert seen == set(poly.cells)

    def test_brute_force_family_oracle(self, census6):
        # Independent search over all subfamilies of maximal intervals:
        # the disjoint covering families are exactly the partitions, and
        # none mixes orientations.
        for poly in census6:
            rec = ShapeRecord(poly)
            if poly.rank < 2:
                continue
            ivs = maximal_intervals(poly)
            found = []
            for r in range(1, len(ivs) + 1):
                for family in combinations(ivs, r):
                    cells = [c for iv in family for c in iv.cells]
                    if len(cells) != len(set(cells)):
                        continue
                    if set(cells) == set(poly.cells):
                        found.append(frozenset(family))
            for family in found:
                assert len({iv.orientation for iv in family}) == 1
            assert {frozenset(p.intervals) for p in partitions(rec)} == set(found)


class TestFindEmbedding:
    def test_rectangle_column_embedded(self, is_embedding):
        col0 = interval_of(RECT_2X3, "vertical", (0, 0))
        rooks = find_embedding(ShapeRecord(RECT_2X3), col0)
        assert rooks == ((1, 0), (2, 1))
        assert is_embedding(RECT_2X3, col0, rooks)
        # The worked witness pairing the top cell with (1, 1) is also valid.
        assert is_embedding(RECT_2X3, col0, ((2, 0), (1, 1)))
        # Rooks in one column attack each other.
        assert not is_embedding(RECT_2X3, col0, ((1, 0), (1, 1)))

    def test_rectangle_all_columns_have_worked_witnesses(self, is_embedding):
        # One witness per column of the 2-row rectangle, pairing
        # (bottom, top) cells with attackers from the other columns.
        witnesses = {
            (0, 0): ((2, 0), (1, 1)),
            (1, 0): ((2, 0), (0, 1)),
            (2, 0): ((1, 0), (0, 1)),
        }
        for anchor, rooks in witnesses.items():
            col = interval_of(RECT_2X3, "vertical", anchor)
            assert is_embedding(RECT_2X3, col, rooks)

    def test_skew_handle_embedded(self, is_embedding):
        handle = interval_of(SKEW, "vertical", (1, 0))
        rooks = find_embedding(ShapeRecord(SKEW), handle)
        assert rooks == ((0, 0), (2, 1))
        assert is_embedding(SKEW, handle, rooks)

    def test_search_leaves_no_reference_cycle(self):
        # The recursive search closure refers to itself; the search must
        # break that cycle, or every call leaves garbage for the collector.
        rec = ShapeRecord(parse_cells([(x, y) for x in range(3) for y in range(4)]))
        intervals = list(maximal_intervals(rec.poly))
        assert len(intervals) == 7
        gc.collect()
        gc.disable()
        try:
            for _ in range(100):
                for iv in intervals:
                    find_embedding(rec, iv)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_skew_bottom_row_not_embedded(self):
        bottom = interval_of(SKEW, "horizontal", (0, 0))
        assert find_embedding(ShapeRecord(SKEW), bottom) is None

    def test_foreign_interval_rejected(self):
        bar = parse_cells([(0, 0), (1, 0), (2, 0)])
        foreign = list(maximal_intervals(bar))[0]
        with pytest.raises(IntervalNotInPolyominoError):
            find_embedding(ShapeRecord(SKEW), foreign)

    @pytest.mark.parametrize(
        "interval",
        [
            CellInterval("horizontal", ((0, 0), (1, 0))),
            CellInterval("vertical", ((0, 0), (1, 0), (2, 0))),
            CellInterval("horizontal", ((2, 0), (1, 0), (0, 0))),
            CellInterval("diagonal", ((0, 0), (1, 0), (2, 0))),
            CellInterval("horizontal", ()),
        ],
        ids=["not-maximal", "wrong-orientation", "cells-reversed", "no-orientation", "no-cells"],
    )
    def test_lookup_takes_only_a_maximal_interval_as_built(self, interval):
        # The search finds the interval's mask by building each interval of
        # its orientation back from the record's masks; anything else raises.
        rec = ShapeRecord(parse_cells([(0, 0), (1, 0), (2, 0), (0, 1)]))
        assert find_embedding(rec, CellInterval("horizontal", ((0, 0), (1, 0), (2, 0)))) is None
        with pytest.raises(IntervalNotInPolyominoError):
            find_embedding(rec, interval)

    @pytest.mark.parametrize(
        "interval",
        [
            CellInterval("horizontal", ((5, 5), (6, 5))),
            # Cells of the shape, but not a maximal interval of it.
            CellInterval("horizontal", ((0, 0), (1, 0))),
        ],
    )
    def test_is_embedding_rejects_foreign_interval(self, interval, is_embedding):
        poly = parse_cells([(0, 0), (1, 0), (2, 0), (0, 1)])
        with pytest.raises(IntervalNotInPolyominoError):
            is_embedding(poly, interval, ((0, 1), (1, 0)))

    def test_interval_masks_align_with_intervals(self, census10):
        # Each interval's mask holds exactly the vertices of its cells, and
        # the record's masks are those of the maximal intervals, by
        # orientation and in their order, each building its interval back.
        for poly in census10:
            rec = ShapeRecord(poly)
            vertex = {cell: i for i, cell in enumerate(poly.sorted_cells)}
            expected = [
                (iv.orientation, sum(1 << vertex[c] for c in iv.cells)) for iv in cell_scans.maximal_intervals(poly)
            ]
            masks = [(orientation, mask) for orientation, side in rec.intervals.items() for mask in side]
            assert list(rec.intervals) == ["horizontal", "vertical"], poly
            assert masks == expected, poly
            assert [poly.interval(*pair) for pair in masks] == cell_scans.maximal_intervals(poly), poly
            assert maximal_intervals(poly) == {poly.interval(*pair): pair[1] for pair in masks}, poly

    def test_matches_subset_oracle(self, census6):
        # An embedding is an independent set, disjoint from the interval,
        # in which every rook attacks a distinct interval cell.
        for poly in census6:
            rec = ShapeRecord(poly)
            if poly.rank < 2:
                continue
            graph = attack_graph(poly)
            cells = poly.sorted_cells
            for iv in maximal_intervals(poly):
                outside = [c for c in cells if c not in iv.cells]
                exists = False
                for sub in combinations(outside, len(iv.cells)):
                    if any(adjacent(graph, u, v) for u, v in combinations(sub, 2)):
                        continue
                    targets = set()
                    ok = True
                    for rook in sub:
                        hit = [c for c in iv.cells if adjacent(graph, rook, c)]
                        if len(hit) != 1 or hit[0] in targets:
                            ok = False
                            break
                        targets.add(hit[0])
                    if ok and targets == frozenset(iv.cells):
                        exists = True
                        break
                assert (find_embedding(rec, iv) is not None) == exists


    def test_full_list_matches_enumeration_from_cells(self, census8, attack_pairs):
        # The search returns the first of every embedding in lexicographic
        # order, listed with attacks rebuilt from the cells.
        for poly in census8:
            if poly.rank < 2:
                continue
            rec = ShapeRecord(poly)
            attacks = attack_pairs(poly)
            for iv in maximal_intervals(poly):
                expected = embeddings_from_cells(poly, iv, attacks)
                assert find_embedding(rec, iv) == (expected[0] if expected else None), (poly, iv)


class TestSuperPartitions:
    def test_skew(self):
        supers = super_partitions(ShapeRecord(SKEW))
        assert len(supers) == 1
        assert supers[0].orientation == "horizontal"

    def test_rectangle_rows_only(self):
        supers = super_partitions(ShapeRecord(RECT_2X3))
        assert [p.orientation for p in supers] == ["horizontal"]

    @pytest.mark.parametrize("n", [2, 3])
    def test_square_has_two(self, n):
        square = parse_cells([(x, y) for x in range(n) for y in range(n)])
        assert len(super_partitions(ShapeRecord(square))) == 2


class TestPurityTheorem:
    def test_rectangle(self):
        rep = check_purity_theorem(ShapeRecord(RECT_2X3))
        assert rep.pure and rep.super_exists and rep.sizes_match and rep.consistent

    def test_l_tromino(self):
        rep = check_purity_theorem(ShapeRecord(L_TROMINO))
        assert not rep.pure and not rep.super_exists and rep.consistent

    def test_square_tetromino(self):
        square = parse_ascii("##\n##")
        rep = check_purity_theorem(ShapeRecord(square))
        assert rep.pure and rep.super_exists and rep.consistent

    def test_monomino_raises(self):
        with pytest.raises(NotApplicableError, match="rank 1 is a documented trivial case"):
            check_purity_theorem(ShapeRecord(MONOMINO))


class TestProofStepInvariants:
    def test_embedded_dichotomy_on_pure_shapes(self, census6):
        # In a partition of a polyomino with pure complex, the embedded
        # members are none or all.
        for poly in census6:
            rec = ShapeRecord(poly)
            if poly.rank < 2 or not is_pure(poly).pure:
                continue
            for part in partitions(rec):
                flags = [find_embedding(rec, iv) is not None for iv in part.intervals]
                assert all(flags) or not any(flags)

    def test_unembedded_interval_meets_every_facet(self, census6):
        for poly in census6:
            rec = ShapeRecord(poly)
            if poly.rank < 2:
                continue
            for iv in maximal_intervals(poly):
                if find_embedding(rec, iv) is None:
                    assert all(f & frozenset(iv.cells) for f in f_vector(attack_graph(poly)).facets)

    def test_embedding_can_be_steered_into_crossing_interval(self, census6, attack_pairs):
        # If an interval is embedded and some interval meets both it and
        # another interval, then some embedding meets that other interval.
        for poly in census6:
            rec = ShapeRecord(poly)
            if poly.rank < 2:
                continue
            ivs = maximal_intervals(poly)
            embedded = {iv: find_embedding(rec, iv) is not None for iv in ivs}
            attacks = attack_pairs(poly)
            for first in ivs:
                if not embedded[first]:
                    continue
                for other in ivs:
                    if other == first:
                        continue
                    linked = any(
                        set(j.cells) & set(first.cells) and set(j.cells) & set(other.cells) for j in ivs
                    )
                    if linked:
                        assert any(
                            set(rooks) & set(other.cells) for rooks in embeddings_from_cells(poly, first, attacks)
                        )

    def test_outside_unique_super_partition_all_embedded(self, census6):
        for poly in census6:
            rec = ShapeRecord(poly)
            if poly.rank < 2:
                continue
            if poly.width == poly.height and poly.rank == poly.width * poly.height:
                continue
            supers = super_partitions(rec)
            if len(supers) != 1:
                continue
            members = set(supers[0].intervals)
            for iv in maximal_intervals(poly):
                if iv not in members:
                    assert find_embedding(rec, iv) is not None
