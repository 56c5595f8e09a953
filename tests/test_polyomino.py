import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from rooklab import (
    BadCellError,
    BadCharacterError,
    CellNotInPolyominoError,
    DuplicateCellError,
    EmptyInputError,
    NotConnectedError,
    Polyomino,
    canonical_cells,
    canonical_form,
    generate,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    render_ascii,
    shape_predicates,
)

L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
RECT_2X3 = parse_ascii("###\n###")
SQUARE = parse_ascii("##\n##")
RING = parse_ascii("###\n#.#\n###")


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

    def test_duplicate(self):
        with pytest.raises(DuplicateCellError):
            parse_cells([(0, 0), (1, 0), (0, 0)])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            parse_cells([])


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
        assert sorted(iv.length for iv in ivs) == [2, 2, 2, 3, 3]

    def test_monomino_empty(self):
        assert maximal_intervals(parse_cells([(0, 0)])) == []

    def test_cover_and_uniqueness(self, census6):
        for poly in census6:
            if poly.rank < 2:
                continue
            ivs = maximal_intervals(poly)
            covered = set()
            for iv in ivs:
                covered |= iv.cell_set
            assert covered == set(poly.cells)
            for orientation in ("horizontal", "vertical"):
                same = [iv for iv in ivs if iv.orientation == orientation]
                for a, b in combinations(same, 2):
                    assert not (a.cell_set & b.cell_set)


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
        with pytest.raises(CellNotInPolyominoError):
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
        assert canonical_form(L_TROMINO) == canonical_form(rotated)
        assert canonical_form(rotated, "fixed") == rotated
        assert canonical_form(rotated, "fixed") != canonical_form(L_TROMINO, "fixed")

    def test_domino_orientations(self):
        h = parse_cells([(0, 0), (1, 0)])
        v = parse_cells([(0, 0), (0, 1)])
        assert canonical_form(h) == canonical_form(v)
        assert canonical_form(h, "fixed") != canonical_form(v, "fixed")

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
            expected = canonical_form(poly)
            for t in transforms:
                moved = Polyomino.from_cells([t(x, y) for x, y in poly.cells])
                assert canonical_form(moved) == expected

    def test_matches_oracle_on_fixed_shapes(self, canonical_oracle):
        rng = random.Random(11)
        for n in range(1, 10):
            for poly in generate(n, "fixed"):
                dx, dy = rng.randint(-50, 50), rng.randint(-50, 50)
                cells = [(x + dx, y + dy) for x, y in poly.cells]
                rng.shuffle(cells)
                for mode in ("free", "fixed"):
                    assert canonical_cells(cells, mode) == canonical_oracle(cells, mode), (cells, mode)

    def test_edge_inputs(self):
        with pytest.raises(EmptyInputError):
            canonical_cells([])
        with pytest.raises(EmptyInputError):
            Polyomino.from_cells([])
        for cells in ([], [(0, 0)]):
            with pytest.raises(ValueError, match="unknown canonicalization mode"):
                canonical_cells(cells, "bogus")


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
