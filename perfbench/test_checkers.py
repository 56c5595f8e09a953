"""Each checker accepts rooklab's real output on small inputs and rejects a
deliberately corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checkers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rooklab import cli, free_census  # noqa: E402
from workloads import Shape, board, holed_board, pure_brush, staircase  # noqa: E402


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# -- census counts and enumeration ------------------------------------------------


def test_census_counts_match_a000105_and_reject_a_wrong_count():
    counts = {}
    for poly in free_census(7):
        counts[poly.rank] = counts.get(poly.rank, 0) + 1
    assert checkers.check_census_counts(counts, 7) == []
    counts[6] -= 1
    assert checkers.check_census_counts(counts, 7)


@pytest.fixture(scope="module")
def rank6():
    code, out = run_cli("enumerate", "--rank", "6", "--emit", "coords")
    assert checkers.check_enumeration(out, code, 6) == []
    return out.splitlines()


def _rotate(line: str) -> str:
    cells = json.loads(line)["cells"]
    return json.dumps({"cells": [[-y, x] for x, y in cells]})


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda lines: lines[1:], id="shape-dropped"),
        pytest.param(lambda lines: [_rotate(lines[1])] + lines[1:], id="rotated-duplicate"),
        pytest.param(
            lambda lines: [json.dumps({"cells": [[0, 0], [2, 0], [3, 0], [4, 0], [5, 0], [6, 0]]})] + lines[1:],
            id="disconnected",
        ),
        pytest.param(
            lambda lines: [json.dumps({"cells": json.loads(lines[0])["cells"][:-1]})] + lines[1:],
            id="wrong-size",
        ),
        pytest.param(lambda lines: ["not json"] + lines[1:], id="unreadable"),
    ],
)
def test_enumeration_checker_rejects(rank6, corrupt):
    assert checkers.check_enumeration("\n".join(corrupt(list(rank6))), 0, 6)


def test_enumeration_checker_rejects_an_error_exit(rank6):
    assert checkers.check_enumeration("\n".join(rank6), 1, 6)


def test_free_key_is_invariant_under_the_square_symmetries():
    l_tromino = [(0, 0), (1, 0), (0, 1)]
    images = {checkers.free_key([(sx * x, sy * y) for x, y in l_tromino]) for sx in (1, -1) for sy in (1, -1)}
    assert len(images) == 1
    assert checkers.free_key([(0, 0), (1, 0), (2, 0)]) != checkers.free_key(l_tromino)


# -- verify -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def verify5():
    code, out = run_cli("verify", "--max-rank", "5", "--jobs", "1", "--out", "json")
    per_check, problems = checkers.check_verify(out, code, 5)
    assert problems == [] and not any(per_check.values())
    return code, json.loads(out)


def _verdict(report, code):
    per_check, problems = checkers.check_verify(json.dumps(report), code, 5)
    return {name for name, errors in per_check.items() if errors}, problems


def test_verify_checker_fails_a_check_with_a_violation(verify5):
    code, report = verify5
    bad = copy.deepcopy(report)
    entry = next(r for r in bad["checks"] if r["name"] == "purity-theorem")
    entry.update(passed=False, violations=[{"cells": [[0, 0]], "ascii": "#", "detail": "made up"}])
    failed, problems = _verdict(bad, code)
    assert failed == {"purity-theorem"}
    assert problems  # exit status 0 despite a failed check
    assert _verdict(bad, 3) == ({"purity-theorem"}, [])


def test_verify_checker_fails_a_missing_check_and_a_wrong_census(verify5):
    code, report = verify5
    bad = copy.deepcopy(report)
    bad["checks"] = [r for r in bad["checks"] if r["name"] != "katzman"]
    assert _verdict(bad, 3)[0] == {"katzman"}
    bad = copy.deepcopy(report)
    bad["count"] -= 1
    assert _verdict(bad, code)[1]
    assert checkers.check_verify("{", code, 5)[1]


def test_verify_checker_lets_informational_findings_pass(verify5):
    code, report = verify5
    probe = next(r for r in report["checks"] if r["name"] == "brush-corollary")
    assert probe["informational"] and probe["violations"]
    assert _verdict(report, code) == (set(), [])


# -- analyze ----------------------------------------------------------------------


SKEW = Shape("skew", "other", ((1, 1), (2, 1), (0, 0), (1, 0)))
SMALL_SHAPES = {
    "board": board(3, 4),
    "brush": pure_brush((3, 2, 3, 4)),
    "holed": holed_board(3, 1, "interval"),
    "holed-line": holed_board(3, 1, "line"),
    "staircase": staircase(4, 3),
    "skew": SKEW,
}


def _analyze(shape: Shape) -> dict:
    path = HERE / "out" / f"test-{shape.name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"cells": [list(c) for c in shape.cells]}))
    try:
        code, out = run_cli("analyze", str(path), "--format", "json", "--convention", shape.convention, "--out", "json")
    finally:
        path.unlink()
    assert code == 0
    return json.loads(out)


@pytest.fixture(scope="module")
def reports():
    out = {key: _analyze(shape) for key, shape in SMALL_SHAPES.items()}
    for key, report in out.items():
        assert checkers.check_report(SMALL_SHAPES[key], json.dumps(report), 0) == [], key
    return out


def _set(path, value):
    def corrupt(report):
        target = report
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return corrupt


CORRUPTIONS = [
    ("board", _set(("fVector", 2), lambda v: v + 1), "board face count"),
    ("board", _set(("pure",), False), "board purity"),
    ("brush", _set(("fVector", 3), lambda v: v - 1), "brush closed form"),
    ("brush", _set(("regularity",), lambda v: v + 1), "regularity differs from nu"),
    ("staircase", _set(("hVector", 1), lambda v: v + 1), "sum of h"),
    ("board", _set(("nuCertificate",), lambda c: c[:-1]), "certificate size"),
    ("board", _set(("nuCertificate",), [[[0, 0], [1, 0]], [[0, 1], [1, 1]]]), "certificate not induced"),
    ("board", _set(("nuCertificate",), [[[0, 0], [1, 1]]]), "certificate edge not attacking"),
    ("skew", _set(("complementWitness", "eliminationOrder"), [[0, 0], [1, 1], [2, 1], [1, 0]]), "not a perfect elimination order"),
    ("skew", _set(("complementWitness", "eliminationOrder"), lambda o: o[:-1]), "order not a permutation"),
    ("holed", _set(("complementWitness", "chordlessCycle"), lambda c: c[:3]), "cycle too short"),
    ("holed-line", _set(("complementWitness", "chordlessCycle"), lambda c: [c[0], c[2], c[1]] + c[3:]), "cycle edges broken"),
    ("holed", _set(("complementChordal",), True), "holed shape with chordal complement"),
    ("staircase", _set(("pure",), True), "staircase reported pure"),
    ("staircase", _set(("pureWitness",), lambda w: {"small": w["large"], "large": w["small"]}), "purity witness"),
    ("skew", _set(("cells",), lambda c: c[:-1]), "cells differ"),
]


@pytest.mark.parametrize("key,corrupt,what", CORRUPTIONS, ids=[c[2] for c in CORRUPTIONS])
def test_report_checker_rejects(reports, key, corrupt, what):
    bad = copy.deepcopy(reports[key])
    corrupt(bad)
    assert checkers.check_report(SMALL_SHAPES[key], json.dumps(bad), 0), what


def test_report_checker_rejects_an_error_exit(reports):
    assert checkers.check_report(SMALL_SHAPES["board"], json.dumps(reports["board"]), 2)


def test_benchmark_shapes_have_the_properties_their_checks_assume():
    kinds = [s.kind for s in workloads.ANALYZE_SHAPES]
    assert kinds.count("board") == 2 and kinds.count("brush") == 2
    for shape in workloads.ANALYZE_SHAPES:
        cells = checkers.normalize(shape.cells)
        assert len(set(cells)) == len(shape.cells) and checkers.connected(cells)
        if shape.kind == "brush":
            assert 8 <= len(shape.params) <= 10 and len(cells) == sum(shape.params)


# -- tracer and BENCHMARK.json ----------------------------------------------------


def test_benchmark_json_lists_every_metric_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tracer_counts_calls_and_restores_the_program():
    import rooklab.chordal
    import rooklab.polyomino

    original = rooklab.polyomino.shape_predicates
    t = tracer.Tracer()
    t.install()
    try:
        assert rooklab.chordal.shape_predicates is not original
        report = _analyze(SKEW)
    finally:
        t.uninstall()
    assert rooklab.chordal.shape_predicates is original and rooklab.polyomino.shape_predicates is original
    metrics = tracer.layer_metrics([t.snapshot()], wait_s=0.0, trace_overhead_s=0.0)
    assert metrics["cli.analyze_polyomino.calls"]["value"] == 1
    calls = metrics["regularity.induced_matching_number.calls"]["value"]
    assert calls >= 1 and metrics["regularity.induced_matching_number.edges"]["value"] == 3 * calls
    assert metrics["rook_complex.f_vector.calls"]["value"] >= 1
    assert report["nu"] == 1
    assert set(metrics) == {name for name, _, _ in tracer.METRICS}
