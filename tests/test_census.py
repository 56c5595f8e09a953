import concurrent.futures
import gc
import os
import sys
import tracemalloc
from collections import Counter

import pytest

from rooklab import (
    CHECKS,
    Polyomino,
    RankOutOfRangeError,
    ShapeRecord,
    UnknownCheckError,
    attack_graph,
    canonical_cells,
    census,
    complement_graph,
    free_census,
    generate,
    is_chordal,
    is_pure,
    polyomino,
    rook_complex,
    single_cell_runs,
    verify_corpus,
)
from rooklab.cli import analyze_polyomino, report_json
from rooklab.record import GraphRecord

# Published counts for the standard enumeration sequences, n = 1..8.
FREE_COUNTS = (1, 1, 2, 5, 12, 35, 108, 369)
FIXED_COUNTS = (1, 2, 6, 19, 63, 216, 760, 2725)


def _brush(lengths):
    return [(i, y if i % 2 == 0 else -y) for i, length in enumerate(lengths) for y in range(length)]


_HOLED = [(x, y) for x in range(7) for y in range(7) if not (2 <= x < 5 and 2 <= y < 5)]

# The benchmark's analyze shapes, with their conventions: 6x6 and 7x7
# boards, the 7x7 board with a 3x3 hole under both conventions, pure
# brushes of 9 and 10 bristles, a staircase.
ANALYZE_SHAPES = [
    ([(x, y) for x in range(6) for y in range(6)], "interval"),
    ([(x, y) for x in range(7) for y in range(7)], "interval"),
    (_HOLED, "interval"),
    (_HOLED, "line"),
    (_brush((3,) * 7 + (4, 4)), "interval"),
    (_brush((3,) * 8 + (4, 4)), "interval"),
    ([(x, y) for y in range(11) for x in range(y, y + 3)], "interval"),
]


class TestGenerate:
    @pytest.mark.parametrize("mode, counts", [("free", FREE_COUNTS), ("fixed", FIXED_COUNTS)])
    def test_counts_to_rank_six(self, mode, counts):
        for n in range(1, 7):
            assert len(list(generate(n, mode))) == counts[n - 1]

    @pytest.mark.parametrize("mode", ["free", "fixed"])
    def test_counts_match_oracle(self, mode, oracle_counts):
        oracle = oracle_counts(6, mode)
        assert oracle == tuple(len(list(generate(n, mode))) for n in range(1, 7))

    def test_no_duplicates_and_canonical(self):
        for n in range(1, 7):
            shapes = list(generate(n, "free"))
            assert len(set(shapes)) == len(shapes)
            for poly in shapes:
                assert poly.rank == n
                assert canonical_cells(poly.cells) == poly.sorted_cells

    def test_fixed_shapes_are_normalized(self):
        for poly in generate(5, "fixed"):
            assert min(x for x, _ in poly.cells) == 0
            assert min(y for _, y in poly.cells) == 0

    def test_deterministic_order(self):
        assert list(generate(5, "free")) == list(generate(5, "free"))

    def test_counts_at_census_ceiling(self):
        # Ranks 9 and 10 back the widest verification runs, so their
        # counts are pinned to the standard sequence values too.
        assert (len(list(generate(9))), len(list(generate(10)))) == (1285, 4655)
        assert (len(list(generate(9, "fixed"))), len(list(generate(10, "fixed")))) == (9910, 36446)

    def test_free_filter_matches_oracle(self, canonical_oracle):
        for n in range(1, 11):
            fixed = map(census._cells, census._grow_codes(n, "fixed"))
            kept = [s for s in fixed if canonical_oracle(s, "free") == tuple(s)]
            assert kept == list(map(census._cells, census._grow_codes(n, "free"))), n

    @pytest.mark.parametrize("mode", ["free", "fixed"])
    def test_generated_shapes_are_valid_and_increasing(self, mode):
        # Generated shapes skip Polyomino's checks; the growth must still
        # give connected, normalized shapes with matching sorted_cells.
        for n in range(1, 11):
            previous = None
            for poly in generate(n, mode):
                assert poly == Polyomino.from_cells(poly.cells)
                assert poly.sorted_cells == tuple(sorted(poly.cells))
                assert previous is None or previous < poly.sorted_cells
                previous = poly.sorted_cells

    def test_free_census_is_generate_by_rank(self, census10):
        assert census10 == tuple(poly for n in range(1, 11) for poly in generate(n))

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRangeError):
            list(generate(0))
        with pytest.raises(RankOutOfRangeError):
            list(generate(11))

    def test_bad_rank_or_mode_raises_when_called(self):
        # Both are checked at the call, before a shape is taken.
        with pytest.raises(RankOutOfRangeError, match="rank 0 outside"):
            generate(0)
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            generate(3, "bogus")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ROOKLAB_MAX_RANK", "4")
        with pytest.raises(RankOutOfRangeError):
            list(generate(5))
        monkeypatch.setenv("ROOKLAB_MAX_RANK", "12")
        assert len(list(generate(3))) == 2

    def test_dihedral_invariance_spot_check(self, census5):
        # Purity and complement chordality agree across all 8 transforms.
        transforms = [
            lambda x, y: (-y, x),
            lambda x, y: (-x, -y),
            lambda x, y: (y, -x),
            lambda x, y: (-x, y),
            lambda x, y: (y, x),
            lambda x, y: (x, -y),
            lambda x, y: (-y, -x),
        ]
        for poly in census5:
            pure = is_pure(poly).pure
            chordal = is_chordal(complement_graph(attack_graph(poly))).chordal
            for t in transforms:
                moved = Polyomino.from_cells([t(x, y) for x, y in poly.cells])
                assert is_pure(moved).pure == pure
                assert is_chordal(complement_graph(attack_graph(moved))).chordal == chordal


@pytest.mark.parametrize("rank", [3.0, 5.5, "4", True, None], ids=["3.0", "5.5", "'4'", "True", "None"])
@pytest.mark.parametrize(
    "call",
    [lambda n: list(generate(n)), free_census, verify_corpus],
    ids=["generate", "free_census", "verify_corpus"],
)
def test_rank_that_is_not_an_int_is_out_of_range(call, rank):
    with pytest.raises(RankOutOfRangeError, match="is not an integer rank"):
        call(rank)


class TestFreeCensusCache:
    """The free census is cached as int code tuples, one entry per rank;
    shapes are built from the codes and held only by whoever asked."""

    @staticmethod
    def _reachable(root):
        seen, stack = {}, [root]
        while stack:
            obj = stack.pop()
            if id(obj) not in seen:
                seen[id(obj)] = obj
                stack.extend(gc.get_referents(obj))
        return seen

    def test_codes_to_rank_ten_hold_under_two_megabytes(self):
        census._FREE_CODES.clear()
        tracemalloc.start()
        try:
            free_census(10)  # the shapes it returns are dropped at once
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(census._FREE_CODES) == list(range(1, 11))
        assert held < 2 * 1024 * 1024, held

    def test_cache_reaches_no_shape(self):
        census10 = free_census(10)
        reachable = self._reachable(census._FREE_CODES)
        shapes = [o for o in gc.get_objects() if isinstance(o, Polyomino)]
        assert len(shapes) >= len(census10)
        assert not any(id(poly) in reachable for poly in shapes)
        assert all(type(o) in (dict, tuple, int) for o in reachable.values())

    def test_one_entry_per_rank_shared_by_every_max_rank(self):
        census._FREE_CODES.clear()
        free_census(8)
        ranks_to_eight = dict(census._FREE_CODES)
        assert sorted(ranks_to_eight) == list(range(1, 9))
        free_census(10)
        assert sorted(census._FREE_CODES) == list(range(1, 11))
        assert all(census._FREE_CODES[n] is codes for n, codes in ranks_to_eight.items())

    def test_rank_ceiling(self, monkeypatch):
        monkeypatch.delenv("ROOKLAB_MAX_RANK", raising=False)
        for n_max in (0, -3, 11):
            with pytest.raises(RankOutOfRangeError):
                free_census(n_max)
        assert 11 not in census._FREE_CODES
        monkeypatch.setenv("ROOKLAB_MAX_RANK", "11")
        try:
            assert len(free_census(11)) == len(free_census(10)) + 17_073 == 23_546
        finally:
            census._FREE_CODES.pop(11, None)

    def test_each_call_builds_a_fresh_equal_tuple(self):
        first, second = free_census(8), free_census(8)
        assert first == second and first is not second
        assert first[0] is not second[0]
        assert first == tuple(poly for n in range(1, 9) for poly in generate(n))

    def test_verify_leaves_no_shape_alive(self):
        gc.collect()
        before = [o for o in gc.get_objects() if isinstance(o, Polyomino)]  # held, so ids stay unique
        known = {id(o) for o in before}
        assert verify_corpus(8).passed
        # The caches keep the last two graphs and the last two complexes.
        rook_complex.f_vector.cache_clear()
        rook_complex.attack_graph.cache_clear()
        gc.collect()
        alive = [o for o in gc.get_objects() if isinstance(o, Polyomino) and id(o) not in known]
        assert alive == []


class TestVerifyCorpus:
    def test_purity_theorem_rank_six(self):
        report = verify_corpus(6, ["purity-theorem"])
        assert report.count == 56
        assert report.results[0].passed

    def test_all_checks_rank_four(self):
        report = verify_corpus(4)
        assert {r.name for r in report.results} == set(CHECKS)
        for result in report.results:
            assert result.passed or result.informational

    def test_unknown_check(self):
        with pytest.raises(UnknownCheckError):
            verify_corpus(4, ["no-such-check"])

    def test_bare_string_is_not_a_check_list(self):
        # A string is iterable, but its characters are no check names.
        with pytest.raises(UnknownCheckError, match="list of names"):
            verify_corpus(3, "purity-theorem")

    def test_rank_above_ceiling(self):
        with pytest.raises(RankOutOfRangeError):
            verify_corpus(11)

    def test_cycle_search_runs_only_for_reported_findings(self, monkeypatch):
        # Only brush-corollary reads a chordless cycle, one per finding.
        import rooklab.chordal

        calls = []
        search = rooklab.chordal._shortest_chordless_cycle
        monkeypatch.setattr(rooklab.chordal, "_shortest_chordless_cycle", lambda g: calls.append(g) or search(g))
        report = verify_corpus(8)
        findings = {r.name: len(r.violations) for r in report.results if r.violations}
        assert list(findings) == ["brush-corollary"]
        assert len(calls) == findings["brush-corollary"] > 0

    def test_jobs_do_not_change_results(self):
        # Both per-shape checks have findings spread over several shape
        # chunks, so the chunks must come back in census order.
        names = ["brush-corollary", "embedded-complement", "sigma-identities"]
        sequential = report_json(verify_corpus(7, names, jobs=1))
        parallel = report_json(verify_corpus(7, names, jobs=2))
        assert sequential["checks"][0]["violations"]
        assert sequential == parallel

    def test_jobs_agree_when_chunks_cross_ranks(self, monkeypatch):
        # One chunk per job: the first chunk holds ranks 1..7 and part of 8.
        monkeypatch.setattr(census, "_CHUNKS_PER_JOB", 1)
        size = -(-len(free_census(8)) // 2)
        assert len(free_census(7)) < size < len(free_census(8))
        assert report_json(verify_corpus(8, jobs=2)) == report_json(verify_corpus(8, jobs=1))

    def test_jobs_are_clamped(self, monkeypatch):
        asked = []
        sent = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                items = list(iterable)
                sent.extend(items)
                return map(fn, items)

        # census imports the pool inside the jobs > 1 branch, from here.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        names = ["purity-theorem", "cycle-lengths", "sigma-identities"]
        expected = verify_corpus(4, names)
        # 9 free shapes up to rank 4.
        assert verify_corpus(4, names, jobs=10_000) == expected
        cpus = os.cpu_count() or 1
        assert max(asked, default=1) <= min(cpus, 9)
        assert asked or cpus == 1
        # The workers are sent int code tuples in census order, never shapes.
        assert [len(codes) for codes in sent] == ([1, 2, 3, 3, 4, 4, 4, 4, 4] if asked else [])
        assert all(type(c) is int for codes in sent for c in codes)
        asked.clear()
        for jobs in (1, 0, -3):
            assert verify_corpus(4, names, jobs=jobs) == expected
        assert verify_corpus(4, ["sigma-identities"], jobs=2).passed
        assert asked == []

    def test_verify_searches_no_facets(self, monkeypatch):
        # Every check reads purity as the transfer-matrix flag; facets are
        # listed only when RookComplex.facets is read.
        def refuse(rc):
            raise AssertionError("verify listed the facets")

        rook_complex.f_vector.cache_clear()
        monkeypatch.setattr(rook_complex.RookComplex, "facets", property(refuse))
        report = verify_corpus(8)
        assert len(report.results) == len(CHECKS) == 14
        assert report.passed

    def test_verify_and_analyze_read_vertices_off_the_record(self, monkeypatch):
        # Checks and reports reach vertex masks through each shape's record,
        # whose graph attack_graph builds once per (shape, convention) in a
        # pass: its misses are the distinct pairs asked for.
        asked = set()
        original = rook_complex.attack_graph

        def recorded(poly, convention="interval"):
            asked.add((poly, convention))
            return original(poly, convention)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rooklab" and getattr(module, "attack_graph", None) is original:
                monkeypatch.setattr(module, "attack_graph", recorded)

        def built_once(run):
            asked.clear()
            original.cache_clear()
            result = run()
            assert original.cache_info().misses == len(asked) > 0
            return result

        # The census-wide checks build records of their own, some of shapes
        # the per-shape pass has left, so each kind is its own pass.
        for census_wide in (False, True):
            names = [name for name, spec in CHECKS.items() if spec.census_wide == census_wide]
            assert built_once(lambda: verify_corpus(8, names)).passed
        for cells, convention in ANALYZE_SHAPES:
            built_once(lambda: analyze_polyomino(Polyomino.from_cells(cells), convention))

    def test_analyze_reads_one_complex_per_record(self, monkeypatch):
        # Each record's complex is built by one f_vector call, and purity
        # with its witness is read off it, never through is_pure: one call
        # under interval, and one more for the line view under line.
        calls = {"f_vector": 0, "is_pure": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)

            return wrapper

        originals = {name: getattr(rook_complex, name) for name in calls}
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "rooklab":
                for name, original in originals.items():
                    if getattr(module, name, None) is original:
                        monkeypatch.setattr(module, name, counted(name, original))
        for cells, convention in ANALYZE_SHAPES:
            calls.update(f_vector=0)
            analyze_polyomino(Polyomino.from_cells(cells), convention)
            assert calls == {"f_vector": 1 if convention == "interval" else 2, "is_pure": 0}, (cells, convention)

    def test_each_record_sweeps_the_graph_it_built(self, monkeypatch):
        # With attack_graph and f_vector uncached in every rooklab module
        # that binds them, each record builds its graph once and sweeps it
        # once, its complex holds that very graph, and no output changes:
        # the caches serve no layer.
        expected = verify_corpus(8), [analyze_polyomino(Polyomino.from_cells(c), v) for c, v in ANALYZE_SHAPES]
        records, built, swept = [], [], []
        init = GraphRecord.__init__
        monkeypatch.setattr(GraphRecord, "__init__", lambda rec, *args: records.append(rec) or init(rec, *args))

        cached = rook_complex.attack_graph, rook_complex.f_vector

        def build(poly, convention):
            built.append(cached[0].__wrapped__(poly, convention))
            return built[-1]

        def sweep(graph):
            swept.append(graph)
            return cached[1].__wrapped__(graph)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rooklab":
                for func, uncached in zip(cached, (build, sweep)):
                    if getattr(module, func.__name__, None) is func:
                        monkeypatch.setattr(module, func.__name__, uncached)
        assert (verify_corpus(8), [analyze_polyomino(Polyomino.from_cells(c), v) for c, v in ANALYZE_SHAPES]) == expected
        with_graph = [rec for rec in records if "attack" in vars(rec)]
        with_complex = [rec for rec in records if "rook_complex" in vars(rec)]
        assert len(built) == len(with_graph) and len(swept) == len(with_complex) > 0
        assert all(rec.rook_complex.graph is rec.attack for rec in with_complex)

    def test_each_record_builds_its_intervals_once(self, monkeypatch):
        # A record reads its interval masks off ``poly.runs`` once, however
        # many of its layers read them, and a pass over the census builds
        # one record per shape. No layer builds the ``CellInterval`` table:
        # polyomino.maximal_intervals is wrapped, as the benchmark tracer
        # wraps it, in every rooklab module that binds it, and never runs.
        calls, tables = Counter(), Counter()
        build = ShapeRecord.intervals.func
        monkeypatch.setattr(ShapeRecord.intervals, "func", lambda rec: calls.update([rec.poly]) or build(rec))
        original = polyomino.maximal_intervals
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rooklab":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, lambda poly: tables.update([poly]) or original(poly))
        for poly in free_census(6):
            calls.clear()
            rec = ShapeRecord(poly)
            assert rec.intervals is rec.intervals
            if poly.rank >= 2:
                rec.super_partitions, rec.purity_theorem, rec.brush, rec.classification
                single_cell_runs(rec)
            for spec in CHECKS.values():
                if not spec.census_wide:
                    list(spec.func(rec))
            assert calls == {poly: 1}, poly
        for census_wide in (False, True):
            calls.clear()
            names = [name for name, spec in CHECKS.items() if spec.census_wide == census_wide]
            assert verify_corpus(8, names).passed
            assert calls and set(calls.values()) == {1}, census_wide
        for cells, convention in ANALYZE_SHAPES:
            calls.clear()
            poly = Polyomino.from_cells(cells)
            analyze_polyomino(poly, convention)
            assert calls == {poly: 1}, (cells, convention)
        assert not tables

    def test_empty_or_repeated_check_list(self):
        with pytest.raises(UnknownCheckError):
            verify_corpus(4, [])
        with pytest.raises(UnknownCheckError):
            verify_corpus(4, ["purity-theorem", "cycle-lengths", "purity-theorem"])

    def test_cycle_certificate_rejects_corrupted_cycles(self):
        from rooklab.census import _is_chordless_complement_cycle
        from rooklab.polyomino import parse_ascii

        rect = parse_ascii("###\n###")
        cycle = is_chordal(complement_graph(attack_graph(rect))).chordless_cycle
        assert _is_chordless_complement_cycle(rect, cycle)
        swapped = (cycle[1], cycle[0]) + cycle[2:]
        assert not _is_chordless_complement_cycle(rect, swapped)
        assert not _is_chordless_complement_cycle(rect, cycle[:-1])
        assert not _is_chordless_complement_cycle(rect, cycle[:-1] + (cycle[0],))
        assert not _is_chordless_complement_cycle(rect, cycle[:-1] + ((5, 5),))

    def test_elimination_certificate_rejects_corrupted_orders(self):
        from rooklab import ShapeRecord
        from rooklab.census import _is_complement_elimination_order
        from rooklab.chordal import ChordalityResult
        from rooklab.polyomino import parse_ascii

        rec = ShapeRecord(parse_ascii(".#.\n###"))
        order = rec.chordality.elimination_order
        assert _is_complement_elimination_order(rec.poly, order)
        assert list(CHECKS["chordal-classification"].func(rec)) == []
        # (1, 1) first: its later non-attackers (0, 0) and (2, 0) attack.
        corrupted = ((1, 1), (1, 0), (2, 0), (0, 0))
        for bad in (corrupted, order[:-1], order[:-1] + (order[0],), order[:-1] + ((5, 5),)):
            assert not _is_complement_elimination_order(rec.poly, bad)
        rec.chordality = ChordalityResult(True, corrupted, None)
        violations = list(CHECKS["chordal-classification"].func(rec))
        assert len(violations) == 1
        assert "elimination order" in violations[0].detail

    def test_violations_render_witnesses(self):
        report = verify_corpus(6, ["brush-corollary"])
        result = report.results[0]
        assert result.informational
        assert result.violations
        for violation in result.violations:
            assert "#" in violation.ascii
            assert "reconfirmed=True" in violation.detail
