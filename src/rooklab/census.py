"""Exhaustive generation of fixed and free polyominoes and the census
verification harness.

Generation uses the classic untried-set growth over the half-plane
lattice, which emits every fixed polyomino exactly once; free mode keeps
the shapes that equal their own dihedral canonical form. The harness
walks the free census, cached as int code tuples per rank, shape by shape:
it builds each shape and its record, runs every selected per-shape check
on it and drops both, then runs the census-wide checks once. Each violation is rendered as an ASCII witness.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .chordal import complement_graph, induced_cycle_lengths
from .errors import RankOutOfRangeError, UnknownCheckError
from .partition import find_embedding
from .polyomino import _BOX_SYMMETRIES, Cell, Polyomino, canonical_cells, render_ascii
from .record import ShapeRecord
from .regularity import brush_fh, check_sigma_identities, induced_matching_number, single_cell_runs

__all__ = [
    "CHECKS",
    "CensusReport",
    "CheckResult",
    "Violation",
    "free_census",
    "generate",
    "pure_brush_realizations",
    "verify_corpus",
]

DEFAULT_MAX_RANK = 10
MAX_RANK_ENV = "ROOKLAB_MAX_RANK"

_SIGMA_SEED = 94160451
_SIGMA_SAMPLES = 500

# Code-tuple chunks per worker under --jobs: the costly high-rank shapes come last.
_CHUNKS_PER_JOB = 16


def max_rank_limit() -> int:
    """Census ceiling; the environment variable overrides the default."""
    raw = os.environ.get(MAX_RANK_ENV)
    if raw is None:
        return DEFAULT_MAX_RANK
    try:
        return int(raw)
    except ValueError:
        raise RankOutOfRangeError(f"{MAX_RANK_ENV}={raw!r} is not an integer rank") from None


def _check_rank(n: int, what: str) -> None:
    """Raise ``RankOutOfRangeError``, naming n as ``what``, unless n is an
    int, not a bool, within 1..ceiling."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise RankOutOfRangeError(f"{what} {n!r} is not an integer rank")
    limit = max_rank_limit()
    if not 1 <= n <= limit:
        raise RankOutOfRangeError(f"{what} {n} outside 1..{limit}")


def _grow_codes(n: int, mode: str) -> list[tuple[int, ...]]:
    """The shapes of rank n as sorted code tuples ``x << b | y`` at the
    origin, ``b = n.bit_length()``, in sorted order: every fixed shape, or
    in free mode the fixed shapes that no dihedral image sorts below.

    Redelmeier's untried-set growth on cell codes ``(x + n) << b | y``, so
    int order is cell order. One ``seen`` set starts with the root (0, 0)
    and the cells ``y == 0, x < 0`` and ``y == -1``. Images map codes
    through tables built once per bounding box."""
    b = n.bit_length()
    up, mask = 1 << b, (1 << b) - 1
    seen = {k << b for k in range(n + 1)} | {(k << b) - 1 for k in range(1, 2 * n + 1)}
    tables: dict[int, list[Callable[[int], int]]] = {}
    kept: list[tuple[int, ...]] = []

    def leaf(codes: list[int]) -> None:
        codes.sort()
        base = codes[0] & ~mask
        codes = [c - base for c in codes]
        if mode == "free":
            w, h = codes[-1] >> b, max([c & mask for c in codes])
            box = w << b | h
            if box not in tables:
                tables[box] = [
                    [x << b | y for x, y in (f(c >> b, c & mask, w, h) for c in range(box + 1))].__getitem__
                    for f in _BOX_SYMMETRIES
                ]
            for image in tables[box]:
                if sorted(map(image, codes)) < codes:
                    return
        kept.append(tuple(codes))

    def grow(untried: list[int], shape: list[int]) -> None:
        if len(shape) == n - 1:
            for cell in untried:
                leaf(shape + [cell])
            return
        while untried:
            cell = untried.pop()
            fresh = [c for c in (cell + 1, cell - 1, cell + up, cell - up) if c not in seen]
            seen.update(fresh)
            grow(untried + fresh, shape + [cell])
            seen.difference_update(fresh)

    grow([n << b], [])
    del grow  # it refers to itself; a cycle would keep ``kept`` and the tables until a collection
    kept.sort()
    return kept


def _cells(codes: tuple[int, ...]) -> tuple[Cell, ...]:
    """The sorted cells of a code tuple of ``_grow_codes``, whose rank is its length."""
    b = len(codes).bit_length()
    mask = (1 << b) - 1
    return tuple([(c >> b, c & mask) for c in codes])


def generate(n: int, mode: str = "free") -> Iterator[Polyomino]:
    """All polyominoes of rank n, one per canonical form, in sorted order,
    built unchecked as they are taken. The rank and mode are checked, and
    the shapes grown, when it is called."""
    _check_rank(n, "rank")
    if mode not in ("free", "fixed"):
        raise ValueError(f"unknown mode {mode!r}")
    return map(Polyomino._trusted, map(_cells, _grow_codes(n, mode)))


_FREE_CODES: dict[int, tuple[tuple[int, ...], ...]] = {}


def _free_codes(n_max: int) -> list[tuple[int, ...]]:
    """The code tuples of the free shapes of rank 1..n_max, in census order.
    Each rank is grown once and kept in ``_FREE_CODES``, one entry per rank."""
    for n in range(1, n_max + 1):
        if n not in _FREE_CODES:
            _FREE_CODES[n] = tuple(_grow_codes(n, "free"))
    return [codes for n in range(1, n_max + 1) for codes in _FREE_CODES[n]]


def free_census(n_max: int) -> tuple[Polyomino, ...]:
    """All free polyominoes of rank 1..n_max, by rank then cell order, built
    unchecked into a fresh tuple; only the code tuples stay cached. Raises
    ``RankOutOfRangeError`` for a rank that is not an int within 1..ceiling."""
    _check_rank(n_max, "max rank")
    return tuple(Polyomino._trusted(_cells(codes)) for codes in _free_codes(n_max))


@dataclass(frozen=True)
class Violation:
    cells: tuple[Cell, ...]
    ascii: str
    detail: str


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    violations: tuple[Violation, ...]
    informational: bool


@dataclass(frozen=True)
class CensusReport:
    max_rank: int
    mode: str
    count: int
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed or r.informational for r in self.results)


def _violation(poly: Polyomino, detail: str) -> Violation:
    return Violation(poly.sorted_cells, render_ascii(poly), detail)


def _check_purity_theorem(rec: ShapeRecord) -> Iterator[Violation]:
    """Pure rook complex iff super partition of size d."""
    if rec.poly.rank < 2:
        return
    rep = rec.purity_theorem
    if not rep.consistent:
        yield _violation(
            rec.poly,
            f"pure={rep.pure} super_exists={rep.super_exists} "
            f"sizes_match={rep.sizes_match}",
        )


def _is_square(poly: Polyomino) -> bool:
    return poly.width == poly.height and poly.rank == poly.width * poly.height


def _check_square_superpartitions(rec: ShapeRecord) -> Iterator[Violation]:
    """Two super partitions iff square."""
    if rec.poly.rank < 2:
        return
    two = len(rec.super_partitions) == 2
    if two != _is_square(rec.poly):
        yield _violation(rec.poly, f"two_supers={two} square={_is_square(rec.poly)}")


def _check_embedded_complement(rec: ShapeRecord) -> Iterator[Violation]:
    """Outside a unique super partition every interval is embedded."""
    if rec.poly.rank < 2 or _is_square(rec.poly):
        return
    supers = rec.super_partitions
    if len(supers) != 1:
        return
    # A partition is one orientation's whole family; the other's lie outside it.
    (other,) = rec.intervals.keys() - {supers[0].orientation}
    for mask in rec.intervals[other]:
        iv = rec.poly.interval(other, mask)
        if find_embedding(rec, iv) is None:
            yield _violation(rec.poly, f"interval {iv!r} outside the super partition is not embedded")


def _check_cycle_lengths(rec: ShapeRecord) -> Iterator[Violation]:
    """Induced complement cycles have length 3, 4 or 6."""
    lengths = induced_cycle_lengths(complement_graph(rec.attack), max(rec.poly.rank, 3))
    if not lengths <= {3, 4, 6}:
        yield _violation(rec.poly, f"induced complement cycles of lengths {sorted(lengths)}")


def _check_chordal_classification(rec: ShapeRecord) -> Iterator[Violation]:
    """Complement chordal iff short brush or exceptional non-thin; each
    elimination order is re-confirmed against the cells."""
    if not rec.predicates.simple:
        return
    rep = rec.classification
    if not rep.consistent:
        yield _violation(rec.poly, f"chordal={rep.complement_chordal} class={rep.category}")
    order = rec.chordality.elimination_order
    if order is not None and not _is_complement_elimination_order(rec.poly, order):
        yield _violation(rec.poly, f"elimination order {list(order)} fails against the cells")


def _check_nonsimple_nonchordal(rec: ShapeRecord) -> Iterator[Violation]:
    """Non-simple implies non-chordal complement."""
    if not rec.predicates.simple and rec.chordality.chordal:
        yield _violation(rec.poly, "non-simple polyomino with chordal complement")


def _check_prop_geq2(rec: ShapeRecord) -> Iterator[Violation]:
    """Chordal complement admits at most one interval longer than 2."""
    if not rec.chordality.chordal:
        return
    long_runs = sum([mask.bit_count() > 2 for masks in rec.intervals.values() for mask in masks])
    if long_runs >= 2:
        yield _violation(rec.poly, f"chordal complement with {long_runs} intervals longer than 2")


def _check_sigma_identities() -> Iterator[Violation]:
    """Binomial relations among shifted symmetric polynomials."""
    rng = random.Random(_SIGMA_SEED)
    for _ in range(_SIGMA_SAMPLES):
        d = rng.randint(1, 8)
        lengths = tuple(rng.randint(2, 9) for _ in range(d))
        if not check_sigma_identities(lengths):
            yield Violation((), "", f"sigma identities fail for lengths={lengths}")


def pure_brush_realizations(lengths: Sequence[int]) -> list[Polyomino]:
    """All pure brushes with the given bristle-length multiset, up to symmetry.

    Built with a horizontal handle and one vertical bristle per handle
    cell. Neighbouring bristles may share only the handle row, so with
    two or more bristles each one runs wholly up or wholly down from the
    handle, in turn. Up to a reflection the first one runs up, so a
    realization is an order of the lengths. Candidates are deduplicated
    by canonical form and validated by the recognizer, each once, in its
    canonical orientation. The single-bristle case degenerates to a
    straight interval.
    """
    return [rec.poly for rec in _pure_brush_records(lengths)]


def _pure_brush_records(lengths: Sequence[int]) -> Iterator[ShapeRecord]:
    """The record of each shape ``pure_brush_realizations`` returns, in order."""
    lengths = tuple(sorted(lengths))
    if len(lengths) == 1:
        yield ShapeRecord(Polyomino.from_cells([(x, 0) for x in range(lengths[0])]))
        return
    keys = {
        canonical_cells(
            (x, -y if x % 2 else y) for x, length in enumerate(order) for y in range(length)
        )
        for order in set(permutations(lengths))
    }
    for key in sorted(keys):
        rec = ShapeRecord(Polyomino(frozenset(key)))
        brush = rec.brush
        if brush is not None and brush.pure_brush and tuple(sorted(brush.lengths)) == lengths:
            yield rec


def _check_brush_fh() -> Iterator[Violation]:
    """Closed-form f and h of pure brushes match the transfer-matrix count."""
    for d in range(1, 5):
        for lengths in combinations_with_replacement(range(2, 6), d):
            records = list(_pure_brush_records(lengths))
            if not records:
                yield Violation((), "", f"no pure brush realization for lengths={lengths}")
            expected = brush_fh(lengths)
            for rec in records:
                rc, h = rec.rook_complex, rec.h_vector
                if rc.rook_number != d or rc.f_vector != expected.f or h != expected.h:
                    yield _violation(
                        rec.poly,
                        f"lengths={lengths}: closed form f={expected.f} h={expected.h}, "
                        f"transfer-matrix count f={rc.f_vector} h={h}",
                    )


def _check_matching_bound(rec: ShapeRecord) -> Iterator[Violation]:
    """Induced matching number at least the single-cell intervals. The
    search stops at a witness; only a violation finds the exact nu."""
    if rec.poly.rank < 2 or not rec.predicates.simple:
        return
    singles = len(single_cell_runs(rec))
    nu = induced_matching_number(rec.attack, at_least=singles).size
    if nu < singles:
        yield _violation(rec.poly, f"nu={nu} below single-cell interval count {singles}")


def _check_reg_eq_nu(rec: ShapeRecord) -> Iterator[Violation]:
    """Regularity equals induced matching number on pure brushes."""
    brush = rec.brush
    if brush is None or not brush.pure_brush:
        return
    rep = rec.reg_nu
    if not rep.consistent:
        yield _violation(
            rec.poly,
            f"reg={rep.regularity} nu={rep.nu} singles={rep.single_interval_count}",
        )
    if any(l == 2 for l in brush.lengths):
        # Mixed-length case: with t bristles of length >= 3, the
        # matching number is t + 1 and the h-vector vanishes above t + 1.
        t = sum(1 for l in brush.lengths if l >= 3)
        if rep.nu != t + 1:
            yield _violation(rec.poly, f"nu={rep.nu}, expected {t + 1} for lengths={brush.lengths}")
        if any(v != 0 for v in rec.h_vector[t + 2 :]):
            yield _violation(rec.poly, f"h={rec.h_vector} does not vanish above degree {t + 1}")


def _pure_simple_thin(rec: ShapeRecord) -> bool:
    return rec.predicates.simple and rec.predicates.thin and rec.rook_complex.pure


def _check_katzman(rec: ShapeRecord) -> Iterator[Violation]:
    """Regularity at least the induced matching number (pure simple thin)."""
    if _pure_simple_thin(rec) and rec.regularity < rec.matching.size:
        yield _violation(rec.poly, f"reg={rec.regularity} below nu={rec.matching.size}")


def _check_froberg(rec: ShapeRecord) -> Iterator[Violation]:
    """Regularity at most 1 iff chordal complement (pure simple thin)."""
    if not _pure_simple_thin(rec):
        return
    chordal = rec.chordality.chordal
    if (rec.regularity <= 1) != chordal:
        yield _violation(rec.poly, f"reg={rec.regularity} but complement chordal={chordal}")


def _attacks(cells: frozenset[Cell], a: Cell, b: Cell) -> bool:
    """Whether two cells share a maximal interval, read off the cell set."""
    (ax, ay), (bx, by) = a, b
    if ay == by:
        return all((x, ay) in cells for x in range(min(ax, bx), max(ax, bx) + 1))
    if ax == bx:
        return all((ax, y) in cells for y in range(min(ay, by), max(ay, by) + 1))
    return False


def _is_chordless_complement_cycle(poly: Polyomino, cycle: Sequence[Cell]) -> bool:
    """Check a claimed chordless cycle of the attack-graph complement
    against attacks rebuilt from the cells: at least 4 distinct cells,
    consecutive ones not attacking, every other pair attacking."""
    n = len(cycle)
    if n < 4 or len(set(cycle)) != n or not set(cycle) <= poly.cells:
        return False
    for i, j in combinations(range(n), 2):
        consecutive = j - i == 1 or (i == 0 and j == n - 1)
        if _attacks(poly.cells, cycle[i], cycle[j]) == consecutive:
            return False
    return True


def _is_complement_elimination_order(poly: Polyomino, order: Sequence[Cell]) -> bool:
    """Check a claimed perfect elimination order of the attack-graph
    complement against attacks rebuilt from the cells: a permutation of
    the cells in which each cell's later non-attackers pairwise do not
    attack."""
    if len(order) != poly.rank or set(order) != poly.cells:
        return False
    for k, a in enumerate(order):
        later = [b for b in order[k + 1 :] if not _attacks(poly.cells, a, b)]
        if any(_attacks(poly.cells, b, c) for b, c in combinations(later, 2)):
            return False
    return True


def _check_brush_corollary(rec: ShapeRecord) -> Iterator[Violation]:
    """Probe: brushes with non-chordal complement."""
    # Brushes need not be short here, so findings are informational; each
    # witness cycle is re-confirmed by an independent check against the cells.
    if rec.brush is None or rec.chordality.chordal:
        return
    cycle = rec.chordality.chordless_cycle
    yield _violation(
        rec.poly,
        f"brush lengths={rec.brush.lengths} has non-chordal complement; "
        f"chordless cycle of length {len(cycle)}; "
        f"reconfirmed={_is_chordless_complement_cycle(rec.poly, cycle)}",
    )


@dataclass(frozen=True)
class CheckSpec:
    """A census check. A per-shape check maps one ``ShapeRecord`` to its
    violations; a census-wide one takes no argument and runs once."""

    func: Callable[..., Iterable[Violation]]
    informational: bool = False
    census_wide: bool = False


CHECKS: dict[str, CheckSpec] = {
    "purity-theorem": CheckSpec(_check_purity_theorem),
    "square-superpartitions": CheckSpec(_check_square_superpartitions),
    "embedded-complement": CheckSpec(_check_embedded_complement),
    "cycle-lengths": CheckSpec(_check_cycle_lengths),
    "chordal-classification": CheckSpec(_check_chordal_classification),
    "nonsimple-nonchordal": CheckSpec(_check_nonsimple_nonchordal),
    "prop-geq2": CheckSpec(_check_prop_geq2),
    "sigma-identities": CheckSpec(_check_sigma_identities, census_wide=True),
    "brush-fh": CheckSpec(_check_brush_fh, census_wide=True),
    "matching-bound": CheckSpec(_check_matching_bound),
    "reg-eq-nu": CheckSpec(_check_reg_eq_nu),
    "katzman": CheckSpec(_check_katzman),
    "froberg-crosscheck": CheckSpec(_check_froberg),
    "brush-corollary": CheckSpec(_check_brush_corollary, informational=True),
}


def _check_shape(names: Sequence[str], codes: tuple[int, ...]) -> list[list[Violation]]:
    """The violations of each named per-shape check on the record of the shape of ``codes``."""
    rec = ShapeRecord(Polyomino._trusted(_cells(codes)))
    return [list(CHECKS[name].func(rec)) for name in names]


def _shape_violations(names: Sequence[str], codes: Sequence[tuple], jobs: int) -> Iterator[list[list[Violation]]]:
    """``_check_shape`` for each code tuple, in order; with more than one
    job, a process pool is sent contiguous chunks of code tuples."""
    check = partial(_check_shape, names)
    if jobs == 1:
        yield from map(check, codes)
        return
    from concurrent.futures import ProcessPoolExecutor  # only here, so importing rooklab stays light

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(check, codes, chunksize=-(-len(codes) // (_CHUNKS_PER_JOB * jobs)))


def verify_corpus(n_max: int, checks: Iterable[str] | None = None, jobs: int = 1) -> CensusReport:
    """Run the named checks (all by default) over the free census of rank 1..n_max.

    Shape by shape, the shape and its record are built from the cached
    code tuples, every selected per-shape check reads the record, and both
    are dropped; under ``jobs`` > 1 the workers are sent chunks of code
    tuples. The census-wide checks run once. ``jobs`` is clamped to
    [1, min(CPU count, number of shapes)], and the report does not depend
    on it. Raises ``RankOutOfRangeError`` for a rank that is not an int
    within 1..ceiling and ``UnknownCheckError`` for a bare string, an
    unknown name, an empty list or a name given twice.
    """
    _check_rank(n_max, "max rank")
    if isinstance(checks, str):
        raise UnknownCheckError(f"checks must be a list of names, not the string {checks!r}")
    names = list(CHECKS) if checks is None else list(checks)
    if not names:
        raise UnknownCheckError("no check named")
    for i, name in enumerate(names):
        if name not in CHECKS:
            raise UnknownCheckError(f"unknown check {name!r}")
        if name in names[:i]:
            raise UnknownCheckError(f"check {name!r} named twice")
    codes = _free_codes(n_max)
    found: dict[str, list[Violation]] = {name: [] for name in names}
    per_shape = [name for name in names if not CHECKS[name].census_wide]
    if per_shape:
        jobs = max(1, min(jobs, os.cpu_count() or 1, len(codes)))
        for row in _shape_violations(per_shape, codes, jobs):
            for name, violations in zip(per_shape, row):
                found[name].extend(violations)
    for name in names:
        if CHECKS[name].census_wide:
            found[name] = list(CHECKS[name].func())
    results = tuple(CheckResult(n, not found[n], tuple(found[n]), CHECKS[n].informational) for n in names)
    return CensusReport(n_max, "free", len(codes), results)
