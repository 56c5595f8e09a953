"""Shape families for tests at sizes the free census never reaches.

Each builder returns a ``Polyomino`` and says which closed forms are known
for it. The benchmark keeps its own builders in ``perfbench/workloads.py``,
since it does not import ``tests/``.
"""

from rooklab import Polyomino


def board(m, n):
    """The m x n board: r_k = C(m, k) C(n, k) k!, pure of dimension
    min(m, n), with two super partitions exactly when square."""
    return Polyomino.from_cells((x, y) for x in range(m) for y in range(n))


def holed_board(side, hole):
    """The side x side board less its central hole x hole square; not
    simple, so its complement is never chordal."""
    lo = (side - hole) // 2
    return Polyomino.from_cells(
        (x, y)
        for x in range(side)
        for y in range(side)
        if not (lo <= x < lo + hole and lo <= y < lo + hole)
    )


def thin_staircase(n):
    """The thin staircase (0, 0), (1, 0), (1, 1), (2, 1), ... of ``n``
    cells, whose attack graph is a path through its sorted cells:
    f_k = C(n - k + 1, k) and nu = (n + 1) // 3."""
    return Polyomino.from_cells(((k + 1) // 2, k // 2) for k in range(n))


def comb(teeth):
    """Row 0 of 2 * teeth cells with a tooth at (2i, 1) for each i: a
    short brush, so its complement is chordal; nu = 1 and the rook number
    is teeth + 1."""
    return Polyomino.from_cells([(x, 0) for x in range(2 * teeth)] + [(2 * i, 1) for i in range(teeth)])


def spiral(turns):
    """The thin square spiral: from (0, 0), runs of 2, 2, 4, 4, 6, 6, ...
    new cells, each followed by a left turn, so arms lie one empty row or
    column apart. Simple and thin, 1 + turns * (turns + 2) / 2 cells for
    an even number of turns; no closed form is known."""
    cells, x, y, dx, dy = [(0, 0)], 0, 0, 1, 0
    for run in range(turns):
        for _ in range(2 * (run // 2 + 1)):
            x, y = x + dx, y + dy
            cells.append((x, y))
        dx, dy = -dy, dx
    return Polyomino.from_cells(cells)
