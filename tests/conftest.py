from collections import deque

import pytest

from rooklab import CellNotInPolyominoError, NotConnectedError, free_census

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


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
