"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime and enforcing the stated budget."""

import time
from contextlib import contextmanager
from itertools import combinations, combinations_with_replacement
from math import comb, factorial

from rooklab import (
    attack_graph,
    brush_fh,
    complement_graph,
    f_vector,
    induced_cycle_lengths,
    induced_matching_number,
    is_chordal,
    parse_ascii,
    parse_cells,
    pure_brush_realizations,
    verify_corpus,
)
from rooklab.census import generate

FREE_COUNTS = (1, 1, 2, 5, 12, 35, 108, 369)
FIXED_COUNTS = (1, 2, 6, 19, 63, 216, 760, 2725)


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
        raise
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed else "PASS"
        print(f"{status} {name} ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")
        if failed is None:
            assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s"


def _assert_clean(report, name):
    result = next(r for r in report.results if r.name == name)
    assert result.passed, [v.detail for v in result.violations]


def test_criterion_1_purity_theorem():
    with criterion("criterion-1 purity-theorem rank<=8", 60):
        report = verify_corpus(8, ["purity-theorem"])
        _assert_clean(report, "purity-theorem")


def test_criterion_2_chordality_classification():
    with criterion("criterion-2 chordal-classification rank<=8", 60):
        report = verify_corpus(8, ["chordal-classification"])
        _assert_clean(report, "chordal-classification")


def test_criterion_3_cycle_lengths():
    with criterion("criterion-3 cycle-lengths rank<=7", 30):
        report = verify_corpus(7, ["cycle-lengths"])
        _assert_clean(report, "cycle-lengths")
        hexomino = parse_ascii("###\n###")
        comp = complement_graph(attack_graph(hexomino))
        assert induced_cycle_lengths(comp, 6) == {6}


def test_criterion_4_brush_closed_forms():
    with criterion("criterion-4 brush closed forms d<=4, lengths<=5", 10):
        report = verify_corpus(8, ["brush-fh"])
        _assert_clean(report, "brush-fh")
        assert brush_fh((2, 2)).h == (1, 2, 0)
        assert brush_fh((3, 3)).h == (1, 4, 3)


def test_criterion_5_sigma_identities():
    with criterion("criterion-5 sigma identities, 500 seeded samples", 1):
        report = verify_corpus(8, ["sigma-identities"])
        _assert_clean(report, "sigma-identities")


def test_criterion_6_regularity_corollary():
    with criterion("criterion-6 regularity corollary rank<=10", 60):
        report = verify_corpus(10, ["reg-eq-nu"])
        _assert_clean(report, "reg-eq-nu")
        report = verify_corpus(8, ["matching-bound", "katzman"])
        _assert_clean(report, "matching-bound")
        _assert_clean(report, "katzman")


def test_criterion_7_froberg_crosscheck():
    with criterion("criterion-7 froberg crosscheck rank<=8", 60):
        report = verify_corpus(8, ["froberg-crosscheck"])
        _assert_clean(report, "froberg-crosscheck")


def test_criterion_8_generator_counts(oracle_counts):
    with criterion("criterion-8 generator counts rank<=8", 30):
        free = tuple(len(list(generate(n, "free"))) for n in range(1, 9))
        fixed = tuple(len(list(generate(n, "fixed"))) for n in range(1, 9))
        assert free == FREE_COUNTS
        assert fixed == FIXED_COUNTS
        assert oracle_counts(8, "free") == FREE_COUNTS
        assert oracle_counts(8, "fixed") == FIXED_COUNTS


def test_criterion_9_brush_corollary_probe():
    with criterion("criterion-9 brush-corollary probe rank<=8", 60):
        report = verify_corpus(8, ["brush-corollary"])
        result = report.results[0]
        assert result.informational
        assert result.violations, "the probe is expected to surface findings"
        for violation in result.violations:
            witness = parse_cells(violation.cells)
            recheck = is_chordal(complement_graph(attack_graph(witness)))
            assert not recheck.chordal
            assert violation.detail and violation.ascii
        # Informational findings never flip the exit status.
        from rooklab.cli import report_exit_code

        assert report_exit_code(report) == 0


def _is_induced_matching_on_board(edges) -> bool:
    """Check a board matching from coordinates alone: each edge joins two
    cells of one row or column, no cell is used twice, and no two cells
    of different edges share a row or a column."""
    cells = [c for e in edges for c in e]
    if len(set(cells)) != len(cells):
        return False
    for (x1, y1), (x2, y2) in edges:
        if x1 != x2 and y1 != y2:
            return False
    for j, k in combinations(range(len(edges)), 2):
        for a in edges[j]:
            for b in edges[k]:
                if a[0] == b[0] or a[1] == b[1]:
                    return False
    return True


def test_criterion_10_board_matching():
    """nu of the n x n board is floor(2n/3).

    Upper bound: a matched edge lies in one row or column and its two
    cells sit in distinct lines of the other direction, so it owns three
    lines, and no line meets two edges of an induced matching; the 2n
    lines hold at most floor(2n/3) edges. Lower bound: each 3x3 block on
    the diagonal holds one horizontal and one vertical edge, {(0,0),(1,0)}
    and {(2,1),(2,2)}, using its three rows and three columns, and a
    leftover 2x2 block holds one more edge.
    """
    with criterion("criterion-10 board matching n<=12", 10):
        for n in range(2, 13):
            board = parse_cells([(x, y) for x in range(n) for y in range(n)])
            cert = induced_matching_number(attack_graph(board))
            assert cert.size == len(cert.edges) == 2 * n // 3, n
            assert _is_induced_matching_on_board(cert.edges), n


def test_criterion_11_rank11_counts(monkeypatch):
    monkeypatch.setenv("ROOKLAB_MAX_RANK", "11")
    with criterion("criterion-11 free generator rank 11", 8):
        free = sum(1 for _ in generate(11))
    assert free == 17073  # OEIS A000105
    assert sum(1 for _ in generate(11, "fixed")) == 135268  # OEIS A001168


def test_criterion_12_brush_realizations():
    """Every pure brush with up to 5 bristles of length 2..6 is realized,
    and its face counts, read from the transfer-matrix sweep, match the
    closed form."""
    with criterion("criterion-12 pure brush realizations d<=5, lengths 2..6", 4):
        for d in range(1, 6):
            for lengths in combinations_with_replacement(range(2, 7), d):
                realizations = pure_brush_realizations(lengths)
                assert realizations, lengths
                expected = brush_fh(lengths).f
                for poly in realizations:
                    rc = f_vector(attack_graph(poly))
                    assert (rc.rook_number, rc.f_vector) == (d, expected), (lengths, poly)


def test_criterion_13_board_f_vector():
    """The n x n board has f_k = C(n, k)^2 k! (choose k rows, k columns
    and a bijection between them), rook number n, and a pure complex.
    It has n! facets, so at n = 12 only the sweep fits the budget."""
    with criterion("criterion-13 board f-vector n<=12", 3):
        for n in range(2, 13):
            board = parse_cells([(x, y) for x in range(n) for y in range(n)])
            expected = tuple(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
            for convention in ("interval", "line"):
                rc = f_vector(attack_graph(board, convention))
                assert (rc.f_vector, rc.rook_number, rc.pure) == (expected, n, True), (n, convention)
