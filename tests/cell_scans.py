"""The cell-scan kernels that the package ran before it read shapes off
one int bitboard, kept as oracles for the bitboard kernels, and the
renderer it ran before it wrote grids from the sorted cells.

Each one works on cell tuples and frozenset lookups: runs are found by
walking from every cell without a predecessor, lines are bucketed by
coordinate, and the predicates count coordinate sets.
"""

from rooklab.chordal import BrushDecomposition
from rooklab.polyomino import HORIZONTAL, VERTICAL, CellInterval, ShapePredicates


def runs(cells, orientation):
    """The maximal horizontal or vertical runs of ``cells``, singleton runs
    included, ordered by first cell."""
    dx, dy = (1, 0) if orientation == HORIZONTAL else (0, 1)
    out = []
    for x, y in sorted(cells):
        if (x - dx, y - dy) not in cells:
            run = [(x, y)]
            while (x + dx, y + dy) in cells:
                x, y = x + dx, y + dy
                run.append((x, y))
            out.append(tuple(run))
    return out


def lines(poly, convention):
    """The horizontal and the vertical lines as cell tuples: runs under
    ``interval``, rows by y and columns by x under ``line``."""
    if convention == "interval":
        return runs(poly.cells, HORIZONTAL), runs(poly.cells, VERTICAL)
    cells = poly.sorted_cells
    rows = [tuple(c for c in cells if c[1] == y) for y in range(poly.height)]
    return rows, [tuple(c for c in cells if c[0] == x) for x in range(poly.width)]


def line_masks(poly, convention):
    """``lines`` as masks over the sorted cells, through a cell -> index dict."""
    index = {c: i for i, c in enumerate(poly.sorted_cells)}
    return tuple(tuple(sum(1 << index[c] for c in line) for line in side) for side in lines(poly, convention))


def attack_masks(poly, convention):
    """The attack graph's neighbour masks: each line is a clique."""
    index = {c: i for i, c in enumerate(poly.sorted_cells)}
    masks = [0] * poly.rank
    h_lines, v_lines = lines(poly, convention)
    for line in h_lines + v_lines:
        line_mask = sum(1 << index[c] for c in line)
        for c in line:
            masks[index[c]] |= line_mask ^ (1 << index[c])
    return tuple(masks)


def sweep_columns(poly, convention):
    """The transfer-matrix sweep's columns from the cell-tuple lines: the
    shape is transposed when taller than wide, each vertical line becomes
    a row mask in its column, and each horizontal line ends in the column
    of its last cell."""
    h_lines, v_lines = lines(poly, convention)
    if max(line[0][1] for line in h_lines) > max(line[0][0] for line in v_lines):
        h_lines, v_lines = (
            [tuple((y, x) for x, y in line) for line in side] for side in (v_lines, h_lines)
        )
    columns, ends_at = {}, {}
    for line in v_lines:
        columns.setdefault(line[0][0], []).append(sum(1 << y for _, y in line))
    for line in h_lines:
        x, y = line[-1]
        ends_at[x] = ends_at.get(x, 0) | 1 << y
    return [(tuple(columns[x]), ends_at.get(x, 0)) for x in sorted(columns)]


def maximal_intervals(poly):
    """The runs of length >= 2, horizontal first, each side by anchor."""
    return [
        CellInterval(orientation, run)
        for orientation in (HORIZONTAL, VERTICAL)
        for run in runs(poly.cells, orientation)
        if len(run) >= 2
    ]


def shape_predicates(poly):
    """The predicates from coordinate sets: V - E + F over corners, unit
    edges and cells, a scan for 2x2 blocks, and cells without a left or
    lower neighbour."""
    cells = poly.cells
    corners = {(x + i, y + j) for x, y in cells for i in (0, 1) for j in (0, 1)}
    h_edges = {(x, y + j) for x, y in cells for j in (0, 1)}
    v_edges = {(x + i, y) for x, y in cells for i in (0, 1)}
    row_convex = sum((x - 1, y) not in cells for x, y in cells) == poly.height
    column_convex = sum((x, y - 1) not in cells for x, y in cells) == poly.width
    return ShapePredicates(
        simple=len(corners) - len(h_edges) - len(v_edges) + len(cells) == 1,
        thin=not any(
            (x + 1, y) in cells and (x, y + 1) in cells and (x + 1, y + 1) in cells
            for x, y in cells
        ),
        row_convex=row_convex,
        column_convex=column_convex,
        convex=row_convex and column_convex,
    )


def brush_decomposition(rec):
    """The handle-and-bristles search on the intervals' cell sets."""
    ivs = maximal_intervals(rec.poly)
    found = []
    for handle in ivs:
        bristles = tuple(iv for iv in ivs if iv != handle)
        if len(bristles) > len(handle.cells):
            continue
        if any(set(iv.cells).isdisjoint(handle.cells) for iv in bristles):
            continue
        bristles = tuple(sorted(bristles, key=lambda iv: min(frozenset(iv.cells) & frozenset(handle.cells))))
        lengths = tuple(len(iv.cells) for iv in bristles)
        short = all(length == 2 for length in lengths)
        d = rec.rook_complex.rook_number
        pure = (
            sum(lengths) == rec.poly.rank
            and frozenset().union(*(frozenset(iv.cells) for iv in bristles)) == rec.poly.cells
            and len(handle.cells) == len(bristles) == d
        )
        found.append(BrushDecomposition(handle, bristles, lengths, short, pure, d))
    if not found:
        return None
    found.sort(key=lambda b: (not b.pure_brush, not b.short, tuple(sorted(b.lengths)), b.handle.cells[0]))
    return found[0]


def single_cell_intervals(rec):
    """Intervals with two or more cells in no other interval, by a
    membership count per cell."""
    ivs = maximal_intervals(rec.poly)
    membership = {c: 0 for c in rec.poly.cells}
    for iv in ivs:
        for c in iv.cells:
            membership[c] += 1
    return [iv for iv in ivs if sum(1 for c in iv.cells if membership[c] == 1) >= 2]


def render_ascii(poly):
    """The grid by a set lookup for every square of the bounding box, top row first."""
    rows = []
    for y in range(poly.height - 1, -1, -1):
        rows.append("".join("#" if (x, y) in poly.cells else "." for x in range(poly.width)))
    return "\n".join(rows)
