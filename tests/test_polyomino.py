import functools
import random
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import cell_scans
import families
from rooklab import (
    BadCellError,
    BadCharacterError,
    DuplicateCellError,
    EmptyInputError,
    NotConnectedError,
    Polyomino,
    canonical_cells,
    free_census,
    generate,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    render_ascii,
    shape_predicates,
)
from rooklab.chordal import ChordalityResult
from rooklab.polyomino import _normalized, stored_property
from rooklab.record import GraphRecord, ShapeRecord
from rooklab.rook_complex import RookComplex

L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
RECT_2X3 = parse_ascii("###\n###")
SQUARE = parse_ascii("##\n##")
RING = parse_ascii("###\n#.#\n###")
CENTRAL_3X3 = {(x, y) for x in range(2, 5) for y in range(2, 5)}


def _box_less(width, height, removed):
    return [(x, y) for x in range(width) for y in range(height) if (x, y) not in removed]


class TestParseAscii:
    def test_l_tromino(self):
        poly = parse_ascii("##\n.#")
        assert poly.cells == frozenset({(0, 1), (1, 1), (1, 0)})

    def test_rectangle_rank(self):
        assert RECT_2X3.rank == 6

    def test_disconnected(self):
        with pytest.raises(NotConnectedError) as exc:
            parse_ascii("#.\n.#")
        a, b = exc.value.witness
        assert a != b

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_ascii("...\n...")

    def test_bad_character(self):
        with pytest.raises(BadCharacterError) as exc:
            parse_ascii("#.\n#x")
        assert (exc.value.line, exc.value.column) == (2, 2)

    def test_trailing_newline_ok(self):
        assert parse_ascii("##\n") == parse_ascii("##")


class TestParseCells:
    @pytest.mark.parametrize(
        "cells",
        [
            [(0.5, 0), (1.5, 0)],
            [(0, 0), (True, 0)],
            [(0, 0, 0), (1, 0, 0)],
            [(0, 0), 7],
        ],
    )
    def test_rejects_non_integer_pairs(self, cells):
        with pytest.raises(BadCellError):
            parse_cells(cells)

    def test_skew(self):
        assert SKEW.cells == frozenset({(0, 0), (1, 0), (1, 1), (2, 1)})

    def test_monomino_translation(self):
        assert parse_cells([(5, 5)]).cells == frozenset({(0, 0)})

    def test_gap(self):
        with pytest.raises(NotConnectedError):
            parse_cells([(0, 0), (2, 0)])

    def test_far_apart_cells_rejected_before_any_board(self, monkeypatch):
        # Connectivity is decided on the cell set: a bitboard of this
        # input would take 10**12 bits.
        monkeypatch.setattr(Polyomino, "board", property(lambda poly: pytest.fail("a bitboard was built")))
        with pytest.raises(NotConnectedError) as exc:
            parse_cells([(0, 0), (10**12, 0)])
        assert exc.value.witness == ((0, 0), (10**12, 0))

    @pytest.mark.parametrize(
        "cells, witness",
        [
            ([(0, 0), (0, 2), (2, 0)], ((0, 0), (0, 2))),
            ([(0, 0), (1, 0), (3, 0), (3, 1), (5, 5)], ((0, 0), (3, 0))),
        ],
    )
    def test_disconnected_witness(self, cells, witness):
        # The least cell, and the least cell not connected to it.
        with pytest.raises(NotConnectedError) as exc:
            parse_cells(cells)
        assert exc.value.witness == witness

    def test_duplicate(self):
        with pytest.raises(DuplicateCellError):
            parse_cells([(0, 0), (1, 0), (0, 0)])

    def test_duplicate_names_first_repeat(self):
        # The first cell, in input order, that was seen before.
        with pytest.raises(DuplicateCellError, match=r"^cell \(1, 0\) appears twice$"):
            parse_cells([(0, 0), (1, 0), (1, 0), (0, 0)])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_cells([])


class TestPolyominoCells:
    def test_list_is_stored_as_a_frozenset(self):
        poly = Polyomino([(0, 0), (1, 0)])
        assert isinstance(poly.cells, frozenset)
        assert poly == parse_cells([(0, 0), (1, 0)]) and hash(poly) == hash(parse_cells([(0, 0), (1, 0)]))
        assert poly.sorted_cells == ((0, 0), (1, 0)) and poly.board == 0b101
        assert ShapeRecord(poly).matching.size == 1

    def test_lists_as_cells(self):
        assert Polyomino([[0, 0], [0, 1]]).cells == frozenset({(0, 0), (0, 1)})

    @pytest.mark.parametrize(
        "cells",
        [
            [(0.5, 0)],
            [(0, 0), (True, 0)],
            [(0, 0, 0)],
            [(0, 0), 7],
            "ab",
            # Every entry is checked, whatever the container.
            [(0.0, 0), (1.0, 0)],
            frozenset({(0.0, 0), (1.0, 0)}),
            frozenset({(0, 0, 0)}),
            frozenset({(0, 0), (True, 1)}),
        ],
    )
    def test_rejects_non_integer_pairs(self, cells):
        with pytest.raises(BadCellError):
            Polyomino(cells)
        with pytest.raises(BadCellError):
            Polyomino.from_cells(cells)

    def test_checks_stay_on_coerced_cells(self):
        with pytest.raises(NotConnectedError):
            Polyomino([(0, 0), (2, 0)])
        with pytest.raises(EmptyInputError):
            Polyomino([])
        with pytest.raises(ValueError):
            Polyomino([(1, 1)])


class TestStoredProperty:
    def test_computes_once_on_a_frozen_instance(self):
        calls = []

        @dataclass(frozen=True)
        class Frozen:
            x: int

            @stored_property
            def double(self):
                """Twice x."""
                calls.append(self.x)
                return 2 * self.x

        one = Frozen(3)
        assert one.double == 6 and one.double == 6 and calls == [3]
        assert one.__dict__["double"] == 6 and one == Frozen(3)
        assert Frozen.double.__doc__ == "Twice x."

    def test_package_fields_are_stored_once(self):
        poly = parse_cells([(0, 0), (1, 0), (1, 1)])
        rec = ShapeRecord(poly)
        assert "board" not in poly.__dict__ and "matching" not in rec.__dict__
        assert poly.board is poly.__dict__["board"]
        assert rec.matching is rec.matching is rec.__dict__["matching"]

    def test_no_cached_property_is_left(self):
        for cls in (Polyomino, GraphRecord, ShapeRecord, RookComplex, ChordalityResult):
            fields = [attr for attr in vars(cls).values() if isinstance(attr, (stored_property, functools.cached_property))]
            assert fields and all(isinstance(attr, stored_property) for attr in fields), cls


class TestMaximalIntervals:
    def test_l_tromino(self):
        ivs = maximal_intervals(L_TROMINO)
        assert [(iv.orientation, iv.cells) for iv in ivs] == [
            ("horizontal", ((0, 0), (1, 0))),
            ("vertical", ((1, 0), (1, 1))),
        ]

    def test_rectangle_count(self):
        ivs = maximal_intervals(RECT_2X3)
        assert len(ivs) == 5
        assert sorted(len(iv.cells) for iv in ivs) == [2, 2, 2, 3, 3]

    def test_monomino_empty(self):
        assert list(maximal_intervals(parse_cells([(0, 0)]))) == []

    def test_cover_and_uniqueness(self, census6):
        for poly in census6:
            if poly.rank < 2:
                continue
            ivs = maximal_intervals(poly)
            covered = set()
            for iv in ivs:
                covered |= frozenset(iv.cells)
            assert covered == set(poly.cells)
            for orientation in ("horizontal", "vertical"):
                same = [iv for iv in ivs if iv.orientation == orientation]
                for a, b in combinations(same, 2):
                    assert not (frozenset(a.cells) & frozenset(b.cells))


class TestShapePredicates:
    def test_square_tetromino(self):
        preds = shape_predicates(SQUARE)
        assert preds.simple and not preds.thin and preds.convex

    def test_skew(self):
        preds = shape_predicates(SKEW)
        assert preds.simple and preds.thin
        assert preds.row_convex and preds.column_convex and preds.convex

    def test_ring_not_simple(self):
        assert not shape_predicates(RING).simple

    def test_u_pentomino_row_gap(self):
        u = parse_cells([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)])
        preds = shape_predicates(u)
        assert not preds.row_convex and preds.column_convex and not preds.convex

    @staticmethod
    def _assert_matches(poly, oracle):
        preds = shape_predicates(poly)
        simple, row_convex, column_convex = oracle(poly)
        assert (preds.simple, preds.row_convex, preds.column_convex) == (simple, row_convex, column_convex)
        assert preds.convex == (row_convex and column_convex)

    def test_matches_oracle_on_census(self, census8, predicates_oracle):
        for poly in census8:
            self._assert_matches(poly, predicates_oracle)

    def test_matches_oracle_on_every_image(self, census8, predicates_oracle, dihedral_images):
        for poly in census8:
            if poly.rank > 7:
                break
            for image in dihedral_images(poly):
                self._assert_matches(image, predicates_oracle)
            a = shape_predicates(poly)
            b = shape_predicates(Polyomino.from_cells((y, x) for x, y in poly.cells))
            assert (b.simple, b.thin, b.row_convex, b.column_convex) == (
                a.simple, a.thin, a.column_convex, a.row_convex
            )

    @pytest.mark.parametrize(
        "cells, simple",
        [
            # The 7x7 board less its central 3x3, and with a slit from that
            # hole to the lower edge.
            (_box_less(7, 7, CENTRAL_3X3), False),
            (_box_less(7, 7, CENTRAL_3X3 | {(3, 0), (3, 1)}), True),
            (_box_less(5, 3, {(1, 1), (3, 1)}), False),
            (_box_less(4, 3, {(1, 1), (2, 1)}), False),
            # A hole pinched at a corner: two hole cells meeting at one point.
            (_box_less(4, 4, {(1, 1), (2, 2)}), False),
            # The same, meeting the outside at a corner only.
            (_box_less(4, 4, {(1, 1), (2, 2), (3, 3)}), False),
        ],
        ids=["holed-board", "slit-board", "two-holes", "two-cell-hole", "pinched-hole", "corner-exit"],
    )
    def test_matches_oracle_beyond_census(self, cells, simple, predicates_oracle, dihedral_images):
        poly = parse_cells(cells)
        assert shape_predicates(poly).simple == simple
        for image in dihedral_images(poly):
            self._assert_matches(image, predicates_oracle)


class TestMinChangesOfDirection:
    def test_skew_corner_to_corner(self, min_changes_of_direction):
        assert min_changes_of_direction(SKEW, (0, 0), (2, 1)) == 2

    def test_same_row(self, min_changes_of_direction):
        assert min_changes_of_direction(RECT_2X3, (0, 0), (2, 0)) == 0

    def test_l_tromino(self, min_changes_of_direction):
        assert min_changes_of_direction(L_TROMINO, (0, 0), (1, 1)) == 1

    def test_same_cell(self, min_changes_of_direction):
        assert min_changes_of_direction(SKEW, (1, 1), (1, 1)) == 0

    def test_outside_cell(self, min_changes_of_direction):
        with pytest.raises(ValueError, match="not a cell of the polyomino"):
            min_changes_of_direction(SKEW, (0, 0), (5, 5))

    @staticmethod
    def _oracle(poly, start, goal):
        # Exhaustive DFS over simple paths, counting axis switches.
        best = [None]

        def walk(path):
            cur = path[-1]
            if cur == goal:
                changes = 0
                for i in range(1, len(path) - 1):
                    (x0, y0), (x2, y2) = path[i - 1], path[i + 1]
                    if x0 != x2 and y0 != y2:
                        changes += 1
                if best[0] is None or changes < best[0]:
                    best[0] = changes
                return
            x, y = cur
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if nb in poly.cells and nb not in path:
                    walk(path + [nb])

        walk([start])
        return best[0]

    def test_matches_path_oracle(self, census5, min_changes_of_direction):
        for poly in census5:
            for a, b in combinations(poly.sorted_cells, 2):
                assert min_changes_of_direction(poly, a, b) == self._oracle(poly, a, b)

    def test_symmetry_and_triangle_bound(self, census5, min_changes_of_direction):
        for poly in census5:
            cells = poly.sorted_cells
            for a, b in combinations(cells, 2):
                ab = min_changes_of_direction(poly, a, b)
                assert ab == min_changes_of_direction(poly, b, a)
                for e in cells:
                    ae = min_changes_of_direction(poly, a, e)
                    eb = min_changes_of_direction(poly, e, b)
                    assert ab <= ae + eb + 1


class TestCanonicalForm:
    def test_rotated_l_same_free_form(self):
        rotated = parse_cells([(0, 0), (0, 1), (1, 1)])
        assert canonical_cells(L_TROMINO.cells) == canonical_cells(rotated.cells)
        assert _normalized(rotated.cells) == rotated.sorted_cells
        assert _normalized(rotated.cells) != _normalized(L_TROMINO.cells)

    def test_domino_orientations(self):
        h = parse_cells([(0, 0), (1, 0)])
        v = parse_cells([(0, 0), (0, 1)])
        assert canonical_cells(h.cells) == canonical_cells(v.cells)
        assert _normalized(h.cells) != _normalized(v.cells)

    def test_free_form_invariant_under_dihedral(self, census5):
        transforms = [
            lambda x, y: (x, y),
            lambda x, y: (-y, x),
            lambda x, y: (-x, -y),
            lambda x, y: (y, -x),
            lambda x, y: (-x, y),
            lambda x, y: (y, x),
            lambda x, y: (x, -y),
            lambda x, y: (-y, -x),
        ]
        for poly in census5:
            expected = canonical_cells(poly.cells)
            for t in transforms:
                moved = Polyomino.from_cells([t(x, y) for x, y in poly.cells])
                assert canonical_cells(moved.cells) == expected

    def test_matches_oracle_on_fixed_shapes(self, canonical_oracle):
        rng = random.Random(11)
        for n in range(1, 10):
            for poly in generate(n, "fixed"):
                dx, dy = rng.randint(-50, 50), rng.randint(-50, 50)
                cells = [(x + dx, y + dy) for x, y in poly.cells]
                rng.shuffle(cells)
                assert canonical_cells(cells) == canonical_oracle(cells, "free"), cells
                assert _normalized(cells) == canonical_oracle(cells, "fixed"), cells

    def test_edge_inputs(self):
        with pytest.raises(EmptyInputError):
            canonical_cells([])
        with pytest.raises(EmptyInputError):
            Polyomino.from_cells([])


class TestRenderAscii:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (SKEW, ".##\n##."),
            (parse_cells([(0, 0)]), "#"),
            (RECT_2X3, "###\n###"),
        ],
    )
    def test_examples(self, poly, text):
        assert render_ascii(poly) == text

    def test_round_trip(self, census6):
        for poly in census6:
            assert parse_ascii(render_ascii(poly)) == poly

    def test_matches_set_lookup_on_census(self):
        for poly in free_census(9):
            assert render_ascii(poly) == cell_scans.render_ascii(poly), poly

    @pytest.mark.parametrize(
        "poly",
        [
            families.holed_board(7, 3),
            families.spiral(8),
            families.comb(6),
            Polyomino.from_cells([(0, y) for y in range(7)]),
            Polyomino.from_cells([(x, 0) for x in range(7)]),
        ],
        ids=["holed board", "spiral", "comb", "one cell wide", "one cell tall"],
    )
    def test_matches_set_lookup_on_families(self, poly):
        assert render_ascii(poly) == cell_scans.render_ascii(poly)

    @given(st.integers(0, 7))
    def test_round_trip_random_shape(self, seed):
        import random

        rng = random.Random(seed)
        cells = {(0, 0)}
        for _ in range(rng.randint(0, 10)):
            x, y = rng.choice(sorted(cells))
            dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
            cells.add((x + dx, y + dy))
        poly = Polyomino.from_cells(cells)
        assert parse_ascii(render_ascii(poly)) == poly
