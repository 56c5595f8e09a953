from collections import deque
from itertools import combinations

import pytest

import cell_scans

from rooklab import (
    IntervalNotInPolyominoError,
    NotConnectedError,
    Polyomino,
    ShapeRecord,
    SimpleGraph,
    free_census,
)
from rooklab.graphs import bits

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


@pytest.fixture(scope="session")
def census10():
    return free_census(10)


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
            raise ValueError(f"{c} is not a cell of the polyomino")
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


def _predicates_oracle(poly):
    """(simple, row_convex, column_convex) by the definitions the package
    used to run: a flood fill of the non-cells from outside the bounding
    box, and each row's (column's) coordinates forming one contiguous range."""
    cells = poly.cells
    w, h = poly.width, poly.height
    outside = {(-1, -1)}
    queue = deque(outside)
    while queue:
        x, y = queue.popleft()
        for dx, dy in _STEPS:
            nb = (x + dx, y + dy)
            if -1 <= nb[0] <= w and -1 <= nb[1] <= h and nb not in cells and nb not in outside:
                outside.add(nb)
                queue.append(nb)
    simple = all((x, y) in cells or (x, y) in outside for x in range(w) for y in range(h))
    rows, cols = {}, {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
        cols.setdefault(x, []).append(y)

    def contiguous(groups):
        return all(max(v) - min(v) + 1 == len(v) for v in groups.values())

    return simple, contiguous(rows), contiguous(cols)


@pytest.fixture(scope="session")
def predicates_oracle():
    return _predicates_oracle


def _attack_pairs(poly, convention="interval"):
    """The attacking pairs rebuilt pairwise from the cells: two cells in
    one row or column with every cell between them present, or under
    ``line`` any two cells of one row or column."""
    cells = poly.cells
    pairs = set()
    for a, b in combinations(sorted(cells), 2):
        (ax, ay), (bx, by) = a, b
        if ay == by:
            between = [(x, ay) for x in range(ax + 1, bx)]
        elif ax == bx:
            between = [(ax, y) for y in range(ay + 1, by)]
        else:
            continue
        if convention == "line" or all(c in cells for c in between):
            pairs.add((a, b))
    return pairs


@pytest.fixture(scope="session")
def attack_pairs():
    return _attack_pairs


def adjacent(graph, u, v):
    """Whether vertices ``u`` and ``v`` of ``graph`` are adjacent, read off
    the masks at their places in the vertex tuple. The package looks no
    vertex up in a graph, so tests that name vertices use this."""
    vs = graph.vertices
    return bool(graph.masks[vs.index(u)] >> vs.index(v) & 1)


def graph_from_pairs(vertices, pairs):
    """A graph on the sorted distinct ``vertices`` with an edge for each
    pair. The package builds graphs only from shapes, so tests build their
    oracle graphs here, say from ``_attack_pairs``, and any other graph
    they need."""
    vs = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(vs)}
    masks = [0] * len(vs)
    for u, v in pairs:
        masks[index[u]] |= 1 << index[v]
        masks[index[v]] |= 1 << index[u]
    return SimpleGraph(vs, tuple(masks))


def edge_pairs(graph):
    """All edges of ``graph`` as sorted vertex pairs, in sorted order."""
    return sorted(tuple(sorted(e)) for e in graph.edges)


def _is_embedding(poly, interval, rooks):
    """Whether ``rooks`` embed ``interval``, checked against the attacks
    ``_attack_pairs`` rebuilds from the cells, not against the attack graph
    the search reads: as many distinct cells of the shape as the interval
    has, ``rooks[i]`` attacking ``interval.cells[i]``, no two rooks
    attacking. Raises ``IntervalNotInPolyominoError`` unless ``interval``
    is a maximal interval of the shape by the cell scans."""
    if interval not in cell_scans.maximal_intervals(poly):
        raise IntervalNotInPolyominoError(f"{interval!r} is not a maximal interval")
    if len(rooks) != len(interval.cells) or len(set(rooks)) != len(rooks) or not set(rooks) <= poly.cells:
        return False
    attacks = _attack_pairs(poly)

    def attack(a, b):
        return (min(a, b), max(a, b)) in attacks

    paired = all(attack(r, c) for r, c in zip(rooks, interval.cells))
    return paired and not any(attack(a, b) for a, b in combinations(rooks, 2))


@pytest.fixture(scope="session")
def is_embedding():
    """The embedding validator the package used to export; tests use it as
    an independent check of the search's witnesses."""
    return _is_embedding


def _enumerate_complex(graph):
    """Backtracking enumeration of every independent set, exactly once.

    Returns the inclusion-maximal sets, sorted by their sorted vertex
    tuples, and the count of independent sets of each size.
    """
    verts = graph.vertices
    n = len(verts)
    adj = graph.masks
    closed = [adj[i] | (1 << i) for i in range(n)]
    full = (1 << n) - 1
    counts = [0] * (n + 1)
    facet_masks = []

    def visit(chosen, covered, allowed, size):
        counts[size] += 1
        if covered == full:
            facet_masks.append(chosen)
        m = allowed
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            visit(
                chosen | b,
                covered | closed[v],
                allowed & ~((b << 1) - 1) & ~adj[v],
                size + 1,
            )

    visit(0, 0, full, 0)

    facets = [frozenset(verts[i] for i in bits(mask)) for mask in facet_masks]
    facets.sort(key=lambda f: tuple(sorted(f)))
    return facets, counts


@pytest.fixture(scope="session")
def enumerate_complex():
    """The all-faces enumerator the package used to run; tests use it as
    the brute-force oracle for the transfer-matrix counts and the facet
    search."""
    return _enumerate_complex


def _bron_kerbosch(graph):
    """Every maximal independent set of ``graph`` as a vertex mask, by
    pivoting Bron-Kerbosch, in the order of their sorted vertex tuples.
    Each branch adds one vertex of the pivot's closed neighbourhood, which
    every maximal set meets, so only maximal sets are reached; the pivot's
    closed neighbourhood holds the fewest candidates.

    Of two sets, the one holding the lowest vertex they differ at comes
    first, so the order is the descending order of the bit-reversed masks."""
    n = graph.n
    closed = [mask | 1 << i for i, mask in enumerate(graph.masks)]
    found = []

    def expand(chosen, candidates, excluded):
        if not candidates:
            if not excluded:
                found.append(chosen)
            return
        pivot = min(bits(candidates | excluded), key=lambda u: (candidates & closed[u]).bit_count())
        for v in bits(candidates & closed[pivot]):
            expand(chosen | 1 << v, candidates & ~closed[v], excluded & ~closed[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    expand(0, (1 << n) - 1, 0)
    found.sort(key=lambda mask: int(f"{mask:0{n}b}"[::-1], 2), reverse=True)
    return found


@pytest.fixture(scope="session")
def bron_kerbosch():
    """The facet lister the package used to run; tests use it as an oracle
    for the include-then-exclude facet search on shapes too large for
    ``enumerate_complex``."""
    return _bron_kerbosch


def _brush_offset_realizations(lengths):
    """Canonical cell tuples of the pure brushes with the given bristle
    lengths, by the search the package used to run: a horizontal handle,
    one vertical bristle per handle cell, each bristle slid through every
    offset such that neighbouring bristles share only the handle row, every
    order of the lengths. Each candidate goes through the recognizer."""
    lengths = tuple(sorted(lengths))
    d = len(lengths)
    if d == 1:
        return [tuple((x, 0) for x in range(lengths[0]))]
    keys = set()

    def place(chosen, remaining):
        if not remaining:
            cells = [
                (x, y)
                for x, (length, offset) in enumerate(chosen)
                for y in range(-offset, length - offset)
            ]
            keys.add(_canonical_oracle(cells, "free"))
            return
        for length in set(remaining):
            rest = list(remaining)
            rest.remove(length)
            for offset in range(length):
                heights = set(range(-offset, length - offset))
                if chosen:
                    prev_len, prev_off = chosen[-1]
                    if heights & set(range(-prev_off, prev_len - prev_off)) != {0}:
                        continue
                place(chosen + [(length, offset)], rest)

    place([], list(lengths))
    out = []
    for key in sorted(keys):
        brush = ShapeRecord(Polyomino(frozenset(key))).brush
        if brush is not None and brush.pure_brush and tuple(sorted(brush.lengths)) == lengths:
            out.append(key)
    return out


@pytest.fixture(scope="session")
def brush_offset_realizations():
    return _brush_offset_realizations


@pytest.fixture(scope="session")
def dihedral_images():
    """The 8 images of a polyomino under the symmetries of the square."""

    def images(poly):
        return [
            Polyomino.from_cells([(a * x + b * y, c * x + d * y) for x, y in poly.cells])
            for a, b, c, d in DIHEDRAL
        ]

    return images
