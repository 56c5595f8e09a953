"""The kernels that read a shape off its int bitboard against the cell
scans they replaced (``cell_scans``): runs, lines, maximal intervals,
shape predicates, attack-graph masks and lines, and the sweep's columns
and counts."""

import pytest

import cell_scans
from rooklab import Polyomino, ShapeRecord, free_census, rook_complex
from rooklab.chordal import brush_decomposition
from rooklab.graphs import bits
from rooklab.polyomino import HORIZONTAL, VERTICAL, maximal_intervals, shape_predicates
from rooklab.regularity import single_cell_runs

CONVENTIONS = ("interval", "line")
CENTRAL_3X3 = {(x, y) for x in range(2, 5) for y in range(2, 5)}


def _box_less(width, height, removed):
    return [(x, y) for x in range(width) for y in range(height) if (x, y) not in removed]


def _assert_matches_scans(poly, counts=True):
    """Every bitboard kernel equals its cell scan on ``poly``; with
    ``counts``, the attack graph and the sweep's counts from ``f_vector``
    too (the sweep of a long staircase takes seconds)."""
    cells = poly.sorted_cells
    for orientation, runs in zip((HORIZONTAL, VERTICAL), poly.runs):
        assert [tuple(cells[i] for i in bits(run)) for run in runs] == cell_scans.runs(poly.cells, orientation)
    assert list(maximal_intervals(poly)) == cell_scans.maximal_intervals(poly)
    assert shape_predicates(poly) == cell_scans.shape_predicates(poly)
    assert (poly.width, poly.height) == (1 + max(x for x, _ in cells), 1 + max(y for _, y in cells))
    for convention in CONVENTIONS:
        lines = rook_complex._lines(poly, convention)
        assert lines == cell_scans.line_masks(poly, convention), convention
        columns = cell_scans.sweep_columns(poly, convention)
        assert rook_complex._sweep_columns(poly, lines) == columns, convention
        if counts:
            # Uncached, so that no record outlives its shape.
            rc = rook_complex.f_vector.__wrapped__(poly, convention)
            assert rc.graph.masks == cell_scans.attack_masks(poly, convention), convention
            assert rc.graph.lines == lines
            faces, facets_by_size = rook_complex._sweep_counts(columns)
            assert (rc.f_vector, rc.facets_by_size) == (tuple(faces), tuple(facets_by_size)), convention


class TestBoard:
    def test_layout_and_bit_rank(self, census8):
        # Bit x * (height + 1) + y per cell, nothing in the guard row, and
        # the rank of a cell's bit is its index in the sorted cells.
        for poly in census8:
            stride = poly.height + 1
            positions = [x * stride + y for x, y in poly.sorted_cells]
            assert poly.board == sum(1 << p for p in positions), poly
            assert [(poly.board & ((1 << p) - 1)).bit_count() for p in positions] == list(range(poly.rank))
            assert poly.columns == tuple(
                sum(1 << y for x, y in poly.sorted_cells if x == col) for col in range(poly.width)
            )

    def test_built_only_when_read(self):
        polys = free_census(5)
        assert not any(key in poly.__dict__ for poly in polys for key in ("board", "columns", "runs"))
        shape_predicates(polys[-1])
        assert "board" in polys[-1].__dict__ and "runs" not in polys[-1].__dict__


class TestAgainstCellScans:
    def test_census(self, census10):
        for poly in census10:
            _assert_matches_scans(poly)

    def test_every_dihedral_image(self, census8, dihedral_images):
        for poly in (p for p in census8 if p.rank <= 7):
            for image in dihedral_images(poly):
                _assert_matches_scans(image)

    @pytest.mark.parametrize(
        "cells, counts",
        [
            (_box_less(7, 7, CENTRAL_3X3), True),
            (_box_less(7, 7, CENTRAL_3X3 | {(3, 0), (3, 1)}), True),
            (_box_less(5, 3, {(1, 1), (3, 1)}), True),
            (_box_less(4, 3, {(1, 1), (2, 1)}), True),
            (_box_less(4, 4, {(1, 1), (2, 2)}), True),
            (_box_less(4, 4, {(1, 1), (2, 2), (3, 3)}), True),
            ([(x, 0) for x in range(300)], True),
            ([(x, y) for x in range(3) for y in range(1000)], True),
            ([c for i in range(1000) for c in ((i, i), (i + 1, i))], False),
        ],
        ids=[
            "holed-board", "slit-board", "two-holes", "two-cell-hole", "pinched-hole", "corner-exit",
            "line-1x300", "rect-3x1000", "staircase-1000",
        ],
    )
    def test_beyond_census(self, cells, counts, dihedral_images):
        poly = Polyomino.from_cells(cells)
        # The long shapes and their transposes, so the sweep runs along each axis.
        images = dihedral_images(poly) if poly.rank < 100 else [poly, Polyomino.from_cells((y, x) for x, y in cells)]
        for image in images:
            _assert_matches_scans(image, counts)

    def test_brush_and_single_cell_intervals(self, census10):
        for poly in census10:
            rec = ShapeRecord(poly)
            if poly.rank < 2 or not (rec.predicates.simple and rec.predicates.thin):
                continue
            assert brush_decomposition(rec) == cell_scans.brush_decomposition(rec), poly
            singles = [poly.interval(*run) for run in single_cell_runs(rec)]
            assert singles == cell_scans.single_cell_intervals(rec), poly
