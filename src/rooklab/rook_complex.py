"""The cell attack graph and its independence complex (the rook complex).

Two cells attack each other when some maximal cell interval contains both
(the ``interval`` convention, the default). Under the ``line`` convention
two cells attack whenever they share a grid row or column, even across a
gap; the two conventions agree on row- and column-convex polyominoes.

Faces of the rook complex are the non-attacking cell sets, i.e. the
independent sets of the attack graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from math import comb
from typing import Iterable, Sequence

from .errors import CellNotInPolyominoError, LengthMismatchError, NotPureError
from .graphs import SimpleGraph, bits
from .polyomino import Cell, Polyomino, maximal_intervals

INTERVAL = "interval"
LINE = "line"


@dataclass(frozen=True)
class RookComplex:
    """Facets and face counts of the rook complex.

    ``f_vector`` has length ``rook_number + 1``; entry k counts the faces
    of size k, so it starts with 1 for the empty face.
    """

    facets: tuple[frozenset, ...]
    f_vector: tuple[int, ...]
    rook_number: int


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
        lines = [[index[c] for c in iv.cells] for iv in maximal_intervals(poly)]
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


def _enumerate_complex(graph: SimpleGraph) -> tuple[list[frozenset], list[int]]:
    """Backtracking enumeration of every independent set, exactly once.

    Returns the inclusion-maximal sets and the count of independent sets
    of each size.
    """
    verts = graph.vertices
    n = len(verts)
    adj = graph.masks
    closed = [adj[i] | (1 << i) for i in range(n)]
    full = (1 << n) - 1
    counts = [0] * (n + 1)
    facet_masks: list[int] = []

    def visit(chosen: int, covered: int, allowed: int, size: int) -> None:
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


@_per_shape_cache
def f_vector(poly: Polyomino, convention: str = INTERVAL) -> RookComplex:
    """Exact face counts of the rook complex, with its facets.

    The rook number is the size of the largest non-attacking placement.
    """
    facets, counts = _enumerate_complex(attack_graph(poly, convention))
    d = max(len(f) for f in facets)
    return RookComplex(tuple(facets), tuple(counts[: d + 1]), d)


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
    """Whether all facets share the top cardinality; a witness pair otherwise."""
    fs = f_vector(poly, convention).facets
    smallest = min(fs, key=lambda f: (len(f), tuple(sorted(f))))
    largest = max(fs, key=len)
    if len(smallest) == len(largest):
        return PurityResult(True, None)
    return PurityResult(False, (smallest, largest))


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
    if not is_pure(poly, convention).pure:
        raise NotPureError("vertex decomposability is only defined for pure complexes")
    return _vertex_decomposable(frozenset(rc.facets), {})
