"""The family builders against the closed forms their docstrings state."""

from math import comb, factorial

import pytest

import families
from rooklab import ShapeRecord, attack_graph, f_vector, induced_matching_number, shape_predicates


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 6) for n in range(m, 7)])
def test_board_rook_numbers(m, n):
    rc = f_vector(families.board(m, n))
    assert rc.f_vector == tuple(comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1))
    assert rc.pure
    if m > 1 or n > 1:
        assert len(ShapeRecord(families.board(m, n)).super_partitions) == 2 - (m != n)


@pytest.mark.parametrize("side, hole", [(5, 1), (7, 3), (9, 3)])
def test_holed_board_has_its_hole(side, hole):
    poly = families.holed_board(side, hole)
    assert poly.rank == side * side - hole * hole
    assert not shape_predicates(poly).simple


@pytest.mark.parametrize("n", range(1, 31))
def test_thin_staircase_closed_forms(n):
    poly = families.thin_staircase(n)
    assert f_vector(poly).f_vector == tuple(comb(n - k + 1, k) for k in range((n + 1) // 2 + 1))
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
