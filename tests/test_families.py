"""The family builders against the closed forms their docstrings state."""

from itertools import combinations_with_replacement
from math import comb, factorial, perm, prod

import pytest

import families
from rooklab import Polyomino, ShapeRecord, attack_graph, f_vector, induced_matching_number, shape_predicates


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 7) for n in range(1, 7)])
def test_board_rook_numbers(m, n):
    # Wide boards (m > n) are swept as they stand, tall ones transposed.
    rc = f_vector(attack_graph(families.board(m, n)))
    assert rc.f_vector == tuple(comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1))
    assert rc.pure
    if m > 1 or n > 1:
        assert len(ShapeRecord(families.board(m, n)).super_partitions) == 2 - (m != n)


def test_ferrers_boards_factor():
    # Every non-empty Ferrers board in a 7 x 7 box and its transpose, so
    # that the sweep runs along each axis, against the Goldman-Joichi-White
    # factorization. Both sides are polynomials of degree n in x, so they
    # agree when they agree at the n + 1 points x = 0 .. n, where the
    # falling factorial (x)_j is perm(x, j). A Ferrers board is convex:
    # its line-convention graph equals the interval one, lines included,
    # and the sweep reads nothing else, so one sweep serves both.
    boards = 0
    for n in range(1, 8):
        for heights in combinations_with_replacement(range(1, 8), n):
            poly = families.ferrers(heights)
            transposed = Polyomino.from_cells((y, x) for x, y in poly.cells)
            rhs = [prod(x + b - i for i, b in enumerate(heights)) for x in range(n + 1)]
            for shape in (poly, transposed):
                graph, line_graph = attack_graph(shape), attack_graph(shape, "line")
                assert line_graph == graph and line_graph.lines == graph.lines, heights
                r = f_vector(graph).f_vector
                lhs = [sum(r_k * perm(x, n - k) for k, r_k in enumerate(r)) for x in range(n + 1)]
                assert lhs == rhs, (heights, shape is transposed)
            boards += 1
    assert boards == 3_431


@pytest.mark.parametrize("side, hole", [(5, 1), (7, 3), (9, 3)])
def test_holed_board_has_its_hole(side, hole):
    poly = families.holed_board(side, hole)
    assert poly.rank == side * side - hole * hole
    assert not shape_predicates(poly).simple


@pytest.mark.parametrize("n", range(1, 31))
def test_thin_staircase_closed_forms(n):
    poly = families.thin_staircase(n)
    assert f_vector(attack_graph(poly)).f_vector == tuple(comb(n - k + 1, k) for k in range((n + 1) // 2 + 1))
    assert induced_matching_number(attack_graph(poly)).size == (n + 1) // 3


@pytest.mark.parametrize("teeth", range(1, 21))
def test_comb_is_a_short_brush(teeth):
    rec = ShapeRecord(families.comb(teeth))
    assert rec.rook_complex.rook_number == teeth + 1
    assert rec.matching.size == 1
    assert rec.brush.short and rec.classification.category == "short_brush"
    assert rec.chordality.chordal


@pytest.mark.parametrize("turns", range(0, 41, 4))
def test_spiral_is_simple_and_thin(turns):
    poly = families.spiral(turns)
    assert poly.rank == 1 + turns * (turns + 2) // 2
    preds = shape_predicates(poly)
    assert preds.simple and preds.thin
