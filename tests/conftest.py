from collections import deque

import pytest

from rooklab import CellNotInPolyominoError, NotConnectedError, Polyomino, free_census

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# The 8 symmetries of the square, as (x, y) -> (a x + b y, c x + d y).
DIHEDRAL = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (-1, 0, 0, 1), (0, 1, 1, 0), (1, 0, 0, -1), (0, -1, -1, 0),
)


@pytest.fixture(scope="session")
def census5():
    return free_census(5)


@pytest.fixture(scope="session")
def census6():
    return free_census(6)


@pytest.fixture(scope="session")
def census8():
    return free_census(8)


def _min_changes_of_direction(poly, start, goal):
    """Minimum number of direction changes over all cell paths from
    ``start`` to ``goal``.

    A step is horizontal or vertical; a change of direction is a switch
    of axis between consecutive steps. Computed by 0-1 BFS over
    (cell, axis) states; loops can always be cut without increasing the
    change count, so the walk minimum equals the path minimum.
    """
    for c in (start, goal):
        if c not in poly.cells:
            raise CellNotInPolyominoError(f"{c} is not a cell of the polyomino")
    if start == goal:
        return 0
    dist = {}
    dq = deque()
    for dx, dy in _STEPS:
        nb = (start[0] + dx, start[1] + dy)
        if nb in poly.cells:
            axis = 0 if dy == 0 else 1
            state = (nb, axis)
            if dist.get(state, 1 << 30) > 0:
                dist[state] = 0
                dq.append((nb, axis, 0))
    best = None
    while dq:
        cell, axis, d = dq.popleft()
        if dist.get((cell, axis), 1 << 30) < d:
            continue
        if cell == goal:
            best = d if best is None else min(best, d)
            continue
        for dx, dy in _STEPS:
            nb = (cell[0] + dx, cell[1] + dy)
            if nb not in poly.cells:
                continue
            nxt_axis = 0 if dy == 0 else 1
            nd = d + (1 if nxt_axis != axis else 0)
            state = (nb, nxt_axis)
            if dist.get(state, 1 << 30) > nd:
                dist[state] = nd
                if nd == d:
                    dq.appendleft((nb, nxt_axis, nd))
                else:
                    dq.append((nb, nxt_axis, nd))
    if best is None:
        raise NotConnectedError((start, goal))
    return best


@pytest.fixture(scope="session")
def min_changes_of_direction():
    """A path metric the package does not need; tests use it as an oracle."""
    return _min_changes_of_direction


def _translated_to_origin(cells):
    dx = min(x for x, _ in cells)
    dy = min(y for _, y in cells)
    return tuple(sorted((x - dx, y - dy) for x, y in cells))


def _canonical_oracle(cells, mode):
    """Canonical cell tuple by brute force: each image under the 2x2
    matrices is translated back to the origin and sorted, and free mode
    takes the least of the 8."""
    cells = list(cells)
    matrices = DIHEDRAL if mode == "free" else DIHEDRAL[:1]
    return min(
        _translated_to_origin([(a * x + b * y, c * x + d * y) for x, y in cells])
        for a, b, c, d in matrices
    )


def _oracle_counts(n_max, mode):
    """Shape counts of rank 1..n_max by an enumeration independent of the
    generator: grow every shape by one neighbour cell and deduplicate
    oracle canonical forms, level by level."""
    level = {_canonical_oracle([(0, 0)], mode)}
    counts = [1]
    for _ in range(n_max - 1):
        nxt = set()
        for shape in level:
            occupied = set(shape)
            for x, y in shape:
                for dx, dy in _STEPS:
                    nb = (x + dx, y + dy)
                    if nb not in occupied:
                        nxt.add(_canonical_oracle(list(shape) + [nb], mode))
        level = nxt
        counts.append(len(level))
    return tuple(counts)


@pytest.fixture(scope="session")
def canonical_oracle():
    """The matrix-based canonicalizer the package used to run; tests use it
    as an oracle for ``canonical_cells`` and the free filter."""
    return _canonical_oracle


@pytest.fixture(scope="session")
def oracle_counts():
    return _oracle_counts


@pytest.fixture(scope="session")
def dihedral_images():
    """The 8 images of a polyomino under the symmetries of the square."""

    def images(poly):
        return [
            Polyomino.from_cells([(a * x + b * y, c * x + d * y) for x, y in poly.cells])
            for a, b, c, d in DIHEDRAL
        ]

    return images
