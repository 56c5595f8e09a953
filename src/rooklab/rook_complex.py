"""The cell attack graph and its independence complex (the rook complex).

Two cells attack each other when some maximal cell interval contains both
(the ``interval`` convention, the default). Under the ``line`` convention
two cells attack whenever they share a grid row or column, even across a
gap; the two conventions agree on row- and column-convex polyominoes.

Faces of the rook complex are the non-attacking cell sets, i.e. the
independent sets of the attack graph. Each cell lies in one horizontal
and one vertical run, so it is an edge of the bipartite run incidence
graph and faces are that graph's matchings. The f-vector, rook number and
purity come from one transfer-matrix sweep over it; facets are searched
for only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache, wraps
from math import comb
from typing import Iterable, Sequence

from .errors import CellNotInPolyominoError, LengthMismatchError, NotPureError
from .graphs import SimpleGraph, bits
from .polyomino import HORIZONTAL, VERTICAL, Cell, Polyomino, _runs

INTERVAL = "interval"
LINE = "line"


@dataclass(frozen=True)
class RookComplex:
    """Face counts, rook number and purity of the rook complex.

    ``f_vector`` has length ``rook_number + 1``; entry k counts the faces
    of size k, so it starts with 1 for the empty face. ``pure`` holds when
    every facet has ``rook_number`` cells. ``facets`` are searched for on
    the attack graph when first read.
    """

    f_vector: tuple[int, ...]
    rook_number: int
    pure: bool
    graph: SimpleGraph = field(repr=False, compare=False)

    @cached_property
    def facets(self) -> tuple[frozenset, ...]:
        """All inclusion-maximal non-attacking cell sets, ordered by their
        sorted cell tuples."""
        verts = self.graph.vertices
        return tuple(frozenset(verts[~j] for j in bits(mask)) for mask in _facet_search(self.graph))


@dataclass(frozen=True)
class PurityResult:
    pure: bool
    witness: tuple[frozenset, frozenset] | None


def _per_shape_cache(func):
    """An unbounded lru_cache keyed on (poly, convention) however the
    convention is passed, so that ``f(p)`` and ``f(p, "interval")`` share
    one entry. ``cache_info`` and ``cache_clear`` are the cache's own."""
    cached = lru_cache(maxsize=None)(func)

    @wraps(func)
    def lookup(poly: Polyomino, convention: str = INTERVAL):
        return cached(poly, convention)

    lookup.cache_info = cached.cache_info
    lookup.cache_clear = cached.cache_clear
    return lookup


@_per_shape_cache
def attack_graph(poly: Polyomino, convention: str = INTERVAL) -> SimpleGraph:
    """The graph on the cells of ``poly`` whose edges are attacking pairs."""
    cells = poly.sorted_cells
    if convention == INTERVAL:
        index = {c: i for i, c in enumerate(cells)}
        lines = [
            [index[c] for c in run]
            for orientation in (HORIZONTAL, VERTICAL)
            for run in _runs(poly.cells, orientation)
        ]
    elif convention == LINE:
        rows: dict[int, list[int]] = {}
        cols: dict[int, list[int]] = {}
        for i, (x, y) in enumerate(cells):
            rows.setdefault(y, []).append(i)
            cols.setdefault(x, []).append(i)
        lines = [*rows.values(), *cols.values()]
    else:
        raise ValueError(f"unknown attack convention {convention!r}")
    masks = [0] * len(cells)
    for line in lines:
        line_mask = sum(1 << i for i in line)
        for i in line:
            masks[i] |= line_mask ^ (1 << i)
    return SimpleGraph(cells, tuple(masks))


def _sweep_counts(cells: frozenset[Cell], convention: str) -> tuple[list[int], list[int]]:
    """Faces and facets of the rook complex counted by size, from one
    column-by-column transfer-matrix sweep.

    Every cell is an edge of the bipartite run incidence graph (horizontal
    runs x vertical runs), so faces are its matchings and facets its
    maximal matchings. The shape is transposed so that rows are the
    shorter side. A state is two row masks: ``used``, rows whose current
    horizontal run holds a rook, and ``pending``, rows whose current run
    must still take one because a vertical run next to it ended empty. A
    run that ends while pending drops the state's facet count. Under
    ``line`` a row or column is one run, gaps included.

    Each state carries one int: coefficient k of the face polynomial in
    bits [k*width, (k+1)*width), and the facet polynomial likewise above
    bit ``top``. Every count is below 2**rank, and no face has more cells
    than there are horizontal runs, so sums never carry between
    coefficients and a rook is one shift by ``width``.
    """
    if max(y for _, y in cells) > max(x for x, _ in cells):
        cells = frozenset((y, x) for x, y in cells)
    n_rows = 1 + max(y for _, y in cells)
    columns: dict[int, list[int]] = {}
    last_in_row: dict[int, int] = {}
    for x, y in sorted(cells):
        columns.setdefault(x, []).append(y)
        last_in_row[y] = x
    if convention == LINE:
        h_runs = n_rows
    else:
        h_runs = sum((x - 1, y) not in cells for x, y in cells)
    width = len(cells) + 2
    top = width * (h_runs + 1)
    faces_only = ~(-1 << top)
    states = {0: 1 | 1 << top}  # used | pending << n_rows -> packed counts
    for x, ys in columns.items():
        if convention == LINE:
            runs = [sum(1 << y for y in ys)]
            ends = sum(1 << y for y in ys if last_in_row[y] == x)
        else:
            runs = []
            for y in ys:
                if (x, y - 1) in cells:
                    runs[-1] |= 1 << y
                else:
                    runs.append(1 << y)
            ends = sum(1 << y for y in ys if (x + 1, y) not in cells)
        for run in runs:
            nxt: dict[int, int] = {}
            for key, counts in states.items():
                free = run & ~key
                # The vertical run stays empty: its free rows must be covered later.
                k = key | free << n_rows
                nxt[k] = nxt.get(k, 0) + counts
                counts <<= width
                while free:
                    b = free & -free
                    free ^= b
                    k = (key | b) & ~(b << n_rows)
                    nxt[k] = nxt.get(k, 0) + counts
            states = nxt
        if ends:
            nxt = {}
            for key, counts in states.items():
                if key >> n_rows & ends:
                    counts &= faces_only
                k = key & ~(ends | ends << n_rows)
                nxt[k] = nxt.get(k, 0) + counts
            states = nxt
    (counts,) = states.values()
    faces, facets = counts & faces_only, counts >> top
    coefficient = ~(-1 << width)
    face_counts, facet_counts = [], []
    while faces:
        face_counts.append(faces & coefficient)
        facet_counts.append(facets & coefficient)
        faces >>= width
        facets >>= width
    return face_counts, facet_counts


def _facet_search(graph: SimpleGraph) -> list[int]:
    """Every maximal independent set of ``graph``, by pivoting
    Bron-Kerbosch: each branch adds one vertex of the pivot's closed
    neighbourhood, which every maximal set meets, so only maximal sets
    are reached.

    Bit j of a returned mask stands for vertex n - 1 - j. Facets form an
    antichain, so in this labelling descending int order is the order of
    their sorted cell tuples, and the list comes in that order.
    """
    n = graph.n
    closed = [0] * n
    for i, mask in enumerate(graph.masks):
        closed[n - 1 - i] = int(f"{mask | 1 << i:0{n}b}"[::-1], 2)
    found: list[int] = []

    def expand(chosen: int, candidates: int, excluded: int) -> None:
        if not candidates:
            if not excluded:
                found.append(chosen)
            return
        # The pivot's closed neighbourhood holds the fewest candidates;
        # none means some excluded vertex can never be covered.
        fewest = n + 1
        pool = candidates | excluded
        while pool:
            b = pool & -pool
            pool ^= b
            u = b.bit_length() - 1
            count = (candidates & closed[u]).bit_count()
            if count < fewest:
                fewest, pivot = count, u
                if count <= 1:
                    break
        branch = candidates & closed[pivot]
        while branch:
            b = branch & -branch
            branch ^= b
            v = b.bit_length() - 1
            expand(chosen | b, candidates & ~closed[v], excluded & ~closed[v])
            candidates ^= b
            excluded |= b

    expand(0, (1 << n) - 1, 0)
    found.sort(reverse=True)
    return found


@_per_shape_cache
def f_vector(poly: Polyomino, convention: str = INTERVAL) -> RookComplex:
    """Exact face counts of the rook complex, its rook number and purity,
    from one transfer-matrix sweep. Facets are built when first read.

    The rook number is the size of the largest non-attacking placement.
    """
    graph = attack_graph(poly, convention)
    faces, facets_by_size = _sweep_counts(poly.cells, convention)
    d = len(faces) - 1
    return RookComplex(tuple(faces), d, not any(facets_by_size[:d]), graph)


def facets(poly: Polyomino, convention: str = INTERVAL) -> list[frozenset]:
    """All inclusion-maximal non-attacking cell sets, deterministically ordered."""
    return list(f_vector(poly, convention).facets)


def is_face(poly: Polyomino, cells: Iterable[Cell], convention: str = INTERVAL) -> bool:
    """True when no two of the given cells attack each other."""
    cells = list(cells)
    graph = attack_graph(poly, convention)
    for c in cells:
        if c not in poly.cells:
            raise CellNotInPolyominoError(f"{c} is not a cell of the polyomino")
    return not any(
        graph.adjacent(cells[i], cells[j])
        for i in range(len(cells))
        for j in range(i + 1, len(cells))
    )


def is_pure(poly: Polyomino, convention: str = INTERVAL) -> PurityResult:
    """Whether all facets share the top cardinality; a witness pair otherwise.
    Facets are searched for only to find the witness."""
    rc = f_vector(poly, convention)
    if rc.pure:
        return PurityResult(True, None)
    # Facets come sorted by their sorted cell tuples, so the first smallest
    # one is also the least of its size in that order.
    fs = rc.facets
    return PurityResult(False, (min(fs, key=len), max(fs, key=len)))


def h_from_f(f: Sequence[int], d: int) -> tuple[int, ...]:
    """Binomial transform of the face counts: h_k = sum_i (-1)^(k-i) C(d-i, k-i) f_(i-1)."""
    if len(f) != d + 1:
        raise LengthMismatchError(f"f-vector has length {len(f)}, expected {d + 1}")
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def f_from_h(h: Sequence[int], d: int) -> tuple[int, ...]:
    """Inverse transform: f_(i-1) = sum_k C(d-k, i-k) h_k."""
    if len(h) != d + 1:
        raise LengthMismatchError(f"h-vector has length {len(h)}, expected {d + 1}")
    return tuple(
        sum(comb(d - k, i - k) * h[k] for k in range(i + 1)) for i in range(d + 1)
    )


def _maximal_sets(sets: Iterable[frozenset]) -> frozenset:
    sets = set(sets)
    return frozenset(
        s for s in sets if not any(s < t for t in sets)
    )


def _vertex_decomposable(facet_family: frozenset, memo: dict[frozenset, bool]) -> bool:
    """The shedding-vertex recursion on one facet family. Links and
    deletions recur across branches, so ``memo`` keeps the verdicts of
    one top-level call, and is dropped with it."""
    # A single facet covers both the empty complex and a full simplex.
    if len(facet_family) == 1:
        return True
    if facet_family in memo:
        return memo[facet_family]
    verdict = False
    for x in sorted(set().union(*facet_family)):
        deletion = _maximal_sets(f - {x} for f in facet_family)
        if not deletion <= facet_family:
            continue
        link = _maximal_sets(f - {x} for f in facet_family if x in f)
        if not link:
            continue
        if _vertex_decomposable(link, memo) and _vertex_decomposable(deletion, memo):
            verdict = True
            break
    memo[facet_family] = verdict
    return verdict


def is_vertex_decomposable(poly: Polyomino, convention: str = INTERVAL) -> bool:
    """Recursive shedding-vertex test for the (pure) rook complex.

    A complex qualifies when it is the empty complex, has a unique facet,
    or has a vertex whose link and deletion are both vertex decomposable
    with the deletion's facets remaining facets of the whole complex.
    """
    rc = f_vector(poly, convention)
    if not rc.pure:
        raise NotPureError("vertex decomposability is only defined for pure complexes")
    return _vertex_decomposable(frozenset(rc.facets), {})
