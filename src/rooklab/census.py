"""Exhaustive generation of fixed and free polyominoes and the census
verification harness.

Generation uses the classic untried-set growth over the half-plane
lattice, which emits every fixed polyomino exactly once; free mode keeps
the shapes that equal their own dihedral canonical form. The harness
walks the free census shape by shape: it builds each shape's record, runs
every selected per-shape check on it and drops it, then runs the
census-wide checks once. Each violation is rendered as an ASCII witness.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, combinations_with_replacement, permutations
from typing import Callable, Iterable, Iterator, Sequence

from .chordal import induced_cycle_lengths
from .errors import RankOutOfRangeError, UnknownCheckError
from .partition import find_embedding
from .polyomino import Cell, Polyomino, _dihedral_images, canonical_cells, render_ascii
from .record import ShapeRecord
from .regularity import brush_fh, check_sigma_identities, single_cell_intervals
from .rook_complex import f_vector, h_from_f

DEFAULT_MAX_RANK = 10
MAX_RANK_ENV = "ROOKLAB_MAX_RANK"

_SIGMA_SEED = 94160451
_SIGMA_SAMPLES = 500

# Shape chunks per worker under --jobs: the costly high-rank shapes come last.
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


def _half_plane_neighbors(cell: Cell) -> Iterator[Cell]:
    # Growth region: y > 0, or y == 0 with x >= 0. Rooting the seed at the
    # origin makes every fixed polyomino reachable exactly once.
    x, y = cell
    for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
        if ny > 0 or (ny == 0 and nx >= 0):
            yield (nx, ny)


def _fixed_cell_sets(n: int) -> Iterator[list[Cell]]:
    """Each fixed polyomino of rank n exactly once, as a normalized sorted list."""
    if n == 1:
        yield [(0, 0)]
        return
    shape: list[Cell] = []

    def grow(untried: list[Cell], seen: set[Cell]) -> Iterator[list[Cell]]:
        untried = list(untried)
        while untried:
            cell = untried.pop()
            shape.append(cell)
            if len(shape) == n:
                dx = min([x for x, _ in shape])
                yield sorted([(x - dx, y) for x, y in shape])
            else:
                fresh = [nb for nb in _half_plane_neighbors(cell) if nb not in seen]
                yield from grow(untried + fresh, seen | set(fresh))
            shape.pop()

    yield from grow([(0, 0)], {(0, 0)})


def _rank_cells(n: int, mode: str) -> list[list[Cell]]:
    """The sorted cell lists of rank n, in sorted order; free mode keeps
    the fixed shapes that no dihedral image sorts below."""
    shapes = _fixed_cell_sets(n)
    if mode == "free":
        shapes = (s for s in shapes if not any(image < s for image in _dihedral_images(s)))
    return sorted(shapes)


def generate(n: int, mode: str = "free") -> Iterator[Polyomino]:
    """All polyominoes of rank n, one per canonical form, in sorted order."""
    limit = max_rank_limit()
    if not 1 <= n <= limit:
        raise RankOutOfRangeError(f"rank {n} outside 1..{limit}")
    if mode not in ("free", "fixed"):
        raise ValueError(f"unknown mode {mode!r}")
    for cells in _rank_cells(n, mode):
        yield Polyomino(frozenset(cells))


@lru_cache(maxsize=None)
def free_census(n_max: int) -> tuple[Polyomino, ...]:
    """All free polyominoes of rank 1..n_max, by rank then cell order."""
    return tuple(
        Polyomino(frozenset(cells)) for n in range(1, n_max + 1) for cells in _rank_cells(n, "free")
    )


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
    members = set(supers[0].intervals)
    for iv in rec.intervals:
        if iv not in members and find_embedding(rec, iv) is None:
            yield _violation(rec.poly, f"interval {iv!r} outside the super partition is not embedded")


def _check_cycle_lengths(rec: ShapeRecord) -> Iterator[Violation]:
    """Induced complement cycles have length 3, 4 or 6."""
    lengths = induced_cycle_lengths(rec.complement, max(rec.poly.rank, 3))
    if not lengths <= {3, 4, 6}:
        yield _violation(rec.poly, f"induced complement cycles of lengths {sorted(lengths)}")


def _check_chordal_classification(rec: ShapeRecord) -> Iterator[Violation]:
    """Complement chordal iff short brush or exceptional non-thin."""
    if not rec.predicates.simple:
        return
    rep = rec.classification
    if not rep.consistent:
        yield _violation(rec.poly, f"chordal={rep.complement_chordal} class={rep.category}")


def _check_nonsimple_nonchordal(rec: ShapeRecord) -> Iterator[Violation]:
    """Non-simple implies non-chordal complement."""
    if not rec.predicates.simple and rec.chordality.chordal:
        yield _violation(rec.poly, "non-simple polyomino with chordal complement")


def _check_prop_geq2(rec: ShapeRecord) -> Iterator[Violation]:
    """Chordal complement admits at most one interval longer than 2."""
    if not rec.chordality.chordal:
        return
    long_runs = [iv for iv in rec.intervals if iv.length > 2]
    if len(long_runs) >= 2:
        yield _violation(rec.poly, f"chordal complement with {len(long_runs)} intervals longer than 2")


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
    lengths = tuple(sorted(lengths))
    if len(lengths) == 1:
        return [Polyomino.from_cells([(x, 0) for x in range(lengths[0])])]
    keys = {
        canonical_cells(
            (x, -y if x % 2 else y) for x, length in enumerate(order) for y in range(length)
        )
        for order in set(permutations(lengths))
    }
    out = []
    for key in sorted(keys):
        rec = ShapeRecord(Polyomino(frozenset(key)))
        brush = rec.brush
        if brush is not None and brush.pure_brush and tuple(sorted(brush.lengths)) == lengths:
            out.append(rec.poly)
    return out


def _check_brush_fh() -> Iterator[Violation]:
    """Closed-form f and h of pure brushes match brute force."""
    for d in range(1, 5):
        for lengths in combinations_with_replacement(range(2, 6), d):
            realizations = pure_brush_realizations(lengths)
            if not realizations:
                yield Violation((), "", f"no pure brush realization for lengths={lengths}")
                continue
            expected = brush_fh(lengths)
            for poly in realizations:
                rc = f_vector(poly)
                h = h_from_f(rc.f_vector, rc.rook_number)
                if rc.rook_number != d or rc.f_vector != expected.f or h != expected.h:
                    yield _violation(
                        poly,
                        f"lengths={lengths}: closed form f={expected.f} h={expected.h}, "
                        f"brute force f={rc.f_vector} h={h}",
                    )


def _check_matching_bound(rec: ShapeRecord) -> Iterator[Violation]:
    """Induced matching number at least the single-cell intervals."""
    if rec.poly.rank < 2 or not rec.predicates.simple:
        return
    nu = rec.matching.size
    singles = len(single_cell_intervals(rec))
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
    return rec.predicates.simple and rec.predicates.thin and rec.purity.pure


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


def _check_shape(names: Sequence[str], poly: Polyomino) -> list[list[Violation]]:
    """The violations of each named per-shape check on one shape's record."""
    rec = ShapeRecord(poly)
    return [list(CHECKS[name].func(rec)) for name in names]


def _shape_violations(
    names: Sequence[str], shapes: Sequence[Polyomino], jobs: int
) -> Iterator[list[list[Violation]]]:
    """``_check_shape`` for each shape, in order; with more than one job,
    a process pool checks the shapes in contiguous chunks."""
    check = partial(_check_shape, names)
    if jobs == 1:
        yield from map(check, shapes)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(check, shapes, chunksize=-(-len(shapes) // (_CHUNKS_PER_JOB * jobs)))


def verify_corpus(
    n_max: int,
    checks: Iterable[str] | None = None,
    jobs: int = 1,
) -> CensusReport:
    """Run the named checks (all by default) over the free census of rank 1..n_max.

    Shape by shape, one record is built, every selected per-shape check
    reads it, and it is dropped; the census-wide checks run once. ``jobs``
    is clamped to [1, min(CPU count, number of shapes)], and the report
    does not depend on it. Raises ``RankOutOfRangeError`` for a rank
    outside 1..ceiling and ``UnknownCheckError`` for an unknown name, an
    empty list or a name given twice.
    """
    limit = max_rank_limit()
    if not 1 <= n_max <= limit:
        raise RankOutOfRangeError(f"max rank {n_max} outside 1..{limit}")
    names = list(CHECKS) if checks is None else list(checks)
    if not names:
        raise UnknownCheckError("no check named")
    for i, name in enumerate(names):
        if name not in CHECKS:
            raise UnknownCheckError(f"unknown check {name!r}")
        if name in names[:i]:
            raise UnknownCheckError(f"check {name!r} named twice")
    shapes = free_census(n_max)
    found: dict[str, list[Violation]] = {name: [] for name in names}
    per_shape = [name for name in names if not CHECKS[name].census_wide]
    if per_shape:
        jobs = max(1, min(jobs, os.cpu_count() or 1, len(shapes)))
        for row in _shape_violations(per_shape, shapes, jobs):
            for name, violations in zip(per_shape, row):
                found[name].extend(violations)
    for name in names:
        if CHECKS[name].census_wide:
            found[name] = list(CHECKS[name].func())
    results = tuple(
        CheckResult(name, not found[name], tuple(found[name]), CHECKS[name].informational)
        for name in names
    )
    return CensusReport(n_max, "free", len(shapes), results)
