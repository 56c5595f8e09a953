from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from rooklab import (
    CellNotInPolyominoError,
    LengthMismatchError,
    NotPureError,
    attack_graph,
    f_from_h,
    f_vector,
    facets,
    h_from_f,
    induced_cycle_lengths,
    is_face,
    is_pure,
    is_vertex_decomposable,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    rook_complex,
    shape_predicates,
)

SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
RECT_2X3 = parse_ascii("###\n###")
SQUARE = parse_ascii("##\n##")
MONOMINO = parse_cells([(0, 0)])
U_PENTOMINO = parse_cells([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)])


class TestAttackGraph:
    def test_skew_edges(self):
        expected = {
            frozenset({(0, 0), (1, 0)}),
            frozenset({(1, 0), (1, 1)}),
            frozenset({(1, 1), (2, 1)}),
        }
        assert attack_graph(SKEW).edges == expected
        assert attack_graph(SKEW, "line").edges == expected

    def test_u_pentomino_conventions_differ(self):
        broken_row = frozenset({(0, 1), (2, 1)})
        assert broken_row not in attack_graph(U_PENTOMINO, "interval").edges
        assert broken_row in attack_graph(U_PENTOMINO, "line").edges

    def test_monomino(self):
        assert attack_graph(MONOMINO).edges == frozenset()

    def test_intervals_are_cliques(self, census6):
        for poly in census6:
            graph = attack_graph(poly)
            for iv in maximal_intervals(poly):
                for a, b in combinations(iv.cells, 2):
                    assert graph.adjacent(a, b)

    def test_interval_edges_match_pairwise_attacks(self, census8, attack_pairs):
        for poly in census8:
            assert set(attack_graph(poly).edge_pairs()) == attack_pairs(poly)

    def test_one_cache_entry_per_shape(self):
        # The default convention and the explicit one share a cache entry.
        attack_graph.cache_clear()
        f_vector.cache_clear()
        f_vector(SKEW)
        f_vector(SKEW, "interval")
        attack_graph(SKEW)
        assert f_vector.cache_info().misses == 1
        assert attack_graph.cache_info().misses == 1

    def test_conventions_agree_on_convex(self, census6):
        for poly in census6:
            if shape_predicates(poly).convex:
                assert attack_graph(poly, "interval").edges == attack_graph(poly, "line").edges


class TestIsFace:
    def test_examples(self):
        assert is_face(SKEW, [(0, 0), (2, 1)])
        assert not is_face(SKEW, [(1, 0), (1, 1)])
        assert is_face(SKEW, [])

    def test_outside_cell(self):
        with pytest.raises(CellNotInPolyominoError):
            is_face(SKEW, [(9, 9)])


class TestFacets:
    def test_l_tromino(self):
        assert facets(L_TROMINO) == [
            frozenset({(0, 0), (1, 1)}),
            frozenset({(1, 0)}),
        ]

    def test_square_diagonals(self):
        assert facets(SQUARE) == [
            frozenset({(0, 0), (1, 1)}),
            frozenset({(0, 1), (1, 0)}),
        ]

    def test_domino(self):
        domino = parse_cells([(0, 0), (1, 0)])
        assert facets(domino) == [frozenset({(0, 0)}), frozenset({(1, 0)})]

    def test_against_subset_oracle(self, census5):
        for poly in census5:
            graph = attack_graph(poly)
            cells = poly.sorted_cells
            maximal = set()
            for r in range(len(cells) + 1):
                for sub in combinations(cells, r):
                    if any(graph.adjacent(u, v) for u, v in combinations(sub, 2)):
                        continue
                    rest = [u for u in cells if u not in sub]
                    if all(any(graph.adjacent(u, v) for v in sub) for u in rest):
                        maximal.add(frozenset(sub))
            assert set(facets(poly)) == maximal


class TestFVector:
    @pytest.mark.parametrize(
        "poly, f, d",
        [
            (RECT_2X3, (1, 6, 6), 2),
            (SKEW, (1, 4, 3), 2),
            (MONOMINO, (1, 1), 1),
        ],
    )
    def test_examples(self, poly, f, d):
        rc = f_vector(poly)
        assert rc.f_vector == f
        assert rc.rook_number == d

    def test_against_subset_oracle(self, census5):
        for poly in census5:
            graph = attack_graph(poly)
            cells = poly.sorted_cells
            counts = [0] * (len(cells) + 1)
            for r in range(len(cells) + 1):
                for sub in combinations(cells, r):
                    if not any(graph.adjacent(u, v) for u, v in combinations(sub, 2)):
                        counts[r] += 1
            rc = f_vector(poly)
            d = max(k for k, c in enumerate(counts) if c)
            assert rc.rook_number == d
            assert rc.f_vector == tuple(counts[: d + 1])

    def test_face_total_matches_independent_set_count(self, census6):
        for poly in census6:
            assert sum(f_vector(poly).f_vector) == independent_set_count(attack_graph(poly))


def independent_set_count(graph):
    """Count independent sets by deletion/contraction on a vertex.

    Independent of the backtracking enumerator; used as a cross-check
    against the face-count total.
    """

    def count(vertices, edges):
        if not vertices:
            return 1
        if not edges:
            return 2 ** len(vertices)
        v = max(vertices, key=lambda u: (sum(1 for e in edges if u in e), u))
        closed = {v} | {w for e in edges for w in e if v in e and w != v}
        without = vertices - {v}
        e_without = frozenset(e for e in edges if v not in e)
        rest = vertices - closed
        e_rest = frozenset(e for e in edges if not (e & closed))
        return count(without, e_without) + count(rest, e_rest)

    return count(frozenset(graph.vertices), graph.edges)


class TestIsPure:
    def test_rectangle_pure(self):
        assert is_pure(RECT_2X3).pure

    def test_l_tromino_witness(self):
        res = is_pure(L_TROMINO)
        assert not res.pure
        small, large = res.witness
        assert small == frozenset({(1, 0)})
        assert large == frozenset({(0, 0), (1, 1)})

    def test_square_pure(self):
        assert is_pure(SQUARE).pure


class TestHFConversions:
    @pytest.mark.parametrize(
        "f, d, h",
        [
            ((1, 6, 6), 2, (1, 4, 1)),
            ((1, 4, 3), 2, (1, 2, 0)),
            ((1,), 0, (1,)),
        ],
    )
    def test_h_from_f(self, f, d, h):
        assert h_from_f(f, d) == h

    @pytest.mark.parametrize(
        "h, d, f",
        [
            ((1, 4, 1), 2, (1, 6, 6)),
            ((1, 2, 0), 2, (1, 4, 3)),
        ],
    )
    def test_f_from_h(self, h, d, f):
        assert f_from_h(h, d) == f

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_simplex_pattern(self, d):
        from math import comb

        h = (1,) + (0,) * d
        assert f_from_h(h, d) == tuple(comb(d, i) for i in range(d + 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            h_from_f((1, 2), 2)
        with pytest.raises(LengthMismatchError):
            f_from_h((1, 2, 3), 1)

    @given(st.integers(0, 6).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.integers(-50, 50), min_size=d, max_size=d))))
    def test_round_trip(self, d_and_tail):
        d, tail = d_and_tail
        f = (1, *tail)
        assert f_from_h(h_from_f(f, d), d) == f


class TestVertexDecomposable:
    @pytest.mark.parametrize("poly", [SKEW, RECT_2X3, parse_cells([(0, 0), (1, 0)])])
    def test_examples(self, poly):
        assert is_vertex_decomposable(poly)

    def test_not_pure_raises(self):
        with pytest.raises(NotPureError):
            is_vertex_decomposable(L_TROMINO)

    def test_square_not_decomposable(self):
        # Two disjoint edges form a disconnected pure complex of dimension 1.
        assert not is_vertex_decomposable(SQUARE)

    @pytest.mark.parametrize(
        "width, height, decomposable",
        [
            (3, 2, True),
            (4, 3, False),
            (4, 4, False),
            (5, 3, True),
        ],
    )
    def test_rectangles_match_chessboard_facts(self, width, height, decomposable):
        # Boards are pure; they are decomposable exactly when the longer
        # side is at least twice the shorter minus one.
        board = parse_cells([(x, y) for x in range(width) for y in range(height)])
        assert is_pure(board).pure
        assert is_vertex_decomposable(board) == decomposable

    def test_no_cache_outlives_a_call(self):
        # Only the per-shape caches of the attack graph and the f-vector
        # are kept across calls; the shedding recursion memoizes per call.
        is_vertex_decomposable(RECT_2X3)
        cached = {name for name, obj in vars(rook_complex).items() if hasattr(obj, "cache_info")}
        assert cached == {"attack_graph", "f_vector"}

    def test_pure_simple_thin_census(self, census8):
        for poly in census8:
            preds = shape_predicates(poly)
            if preds.simple and preds.thin and is_pure(poly).pure:
                assert is_vertex_decomposable(poly)

    def test_attack_graph_chordal_on_simple_thin(self, census8):
        for poly in census8:
            preds = shape_predicates(poly)
            if preds.simple and preds.thin:
                lengths = induced_cycle_lengths(attack_graph(poly), max(poly.rank, 3))
                assert not any(l >= 4 for l in lengths)
