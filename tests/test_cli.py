import hashlib
import json
from collections import Counter
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rooklab import census as census_mod
from rooklab import Polyomino, cli, free_census, parse_cells, regularity
from rooklab.census import CensusReport, CheckResult, Violation
from rooklab.cli import EXIT_CLOSED_PIPE, analyze_polyomino, main, report_exit_code
from rooklab.record import GraphRecord

SKEW_TEXT = ".##\n##.\n"
# The 7x7 board less its central 3x3.
HOLED_7X7 = [(x, y) for x in range(7) for y in range(7) if not (2 <= x < 5 and 2 <= y < 5)]


@pytest.fixture
def skew_file(tmp_path):
    path = tmp_path / "skew.txt"
    path.write_text(SKEW_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_skew_json(self, capsys, skew_file):
        code, out, _ = run(capsys, "analyze", skew_file, "--out", "json")
        assert code == 0
        report = json.loads(out)
        assert report["schemaVersion"] == 1
        assert report["fVector"] == [1, 4, 3]
        assert report["hVector"] == [1, 2, 0]
        assert report["rookNumber"] == 2
        assert report["pure"] is True
        assert report["class"] == "short_brush"
        assert report["nu"] == 1
        assert report["regularity"] == 1
        assert report["brush"]["lengths"] == [2, 2]
        assert all(report["checks"][k] for k in report["checks"])

    def test_l_tromino_regularity_not_determined(self, capsys, tmp_path):
        path = tmp_path / "l.txt"
        path.write_text("#.\n##\n")
        code, out, _ = run(capsys, "analyze", str(path), "--out", "json")
        assert code == 0
        report = json.loads(out)
        assert report["pure"] is False
        assert report["superPartitions"] == []
        assert report["regularity"] == "not combinatorially determined by this toolkit"

    def test_rectangle_cycle_witness(self, capsys, tmp_path):
        path = tmp_path / "rect.txt"
        path.write_text("###\n###\n")
        code, out, _ = run(capsys, "analyze", str(path), "--out", "json")
        assert code == 0
        report = json.loads(out)
        assert report["complementChordal"] is False
        assert len(report["complementWitness"]["chordlessCycle"]) == 6

    def test_json_input_round_trip(self, capsys, skew_file, tmp_path):
        code, out, _ = run(capsys, "analyze", skew_file, "--out", "json")
        first = json.loads(out)
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps({"cells": first["cells"]}))
        code, out, _ = run(capsys, "analyze", str(echo), "--format", "json", "--out", "json")
        assert code == 0
        assert json.loads(out) == first

    @pytest.mark.parametrize(
        "fmt, text", [("ascii", SKEW_TEXT), ("json", '{"cells": [[1, 1], [2, 1], [0, 0], [1, 0]]}')], ids=["ascii", "json"]
    )
    def test_byte_order_mark_is_dropped(self, capsys, tmp_path, fmt, text):
        # Some editors start a UTF-8 file with a byte order mark.
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        code, out, _ = run(capsys, "analyze", str(plain), "--format", fmt, "--out", "json")
        assert code == 0
        assert run(capsys, "analyze", str(marked), "--format", fmt, "--out", "json") == (0, out, "")

    def test_line_convention_runs(self, capsys, tmp_path):
        path = tmp_path / "u.txt"
        path.write_text("#.#\n###\n")
        code, out, _ = run(capsys, "analyze", str(path), "--convention", "line", "--out", "json")
        assert code == 0
        report = json.loads(out)
        assert report["convention"] == "line"

    def test_text_and_json_agree(self, capsys, skew_file):
        _, text_out, _ = run(capsys, "analyze", skew_file)
        _, json_out, _ = run(capsys, "analyze", skew_file, "--out", "json")
        report = json.loads(json_out)
        assert f"f-vector: {tuple(report['fVector'])}" in text_out
        assert f"rook number: {report['rookNumber']}" in text_out
        assert f"induced matching number: {report['nu']}" in text_out

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("#x\n")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "parse error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "/no/such/file")
        assert code == 2

    @pytest.mark.parametrize(
        "payload",
        [
            '{"cells": [["a", "b"]]}',
            '{"cells": [[0]]}',
            '{"wrong": []}',
            "not json",
            '{"cells": [[0.5, 0], [1.5, 0]]}',
            '{"cells": [[0, 0], [true, 0]]}',
            '{"cells": [[0, 0, 0], [1, 0, 0]]}',
            # Nested past the parser's recursion limit.
            pytest.param('{"cells": ' + "[" * 100_000 + "]" * 100_000 + "}", id="deeply-nested"),
        ],
    )
    def test_malformed_json_exit_2(self, capsys, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        code, _, err = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 2
        assert "parse error" in err

    def test_far_apart_cells_exit_2(self, capsys, tmp_path, monkeypatch):
        # Rejected as disconnected on the cell set, before a bitboard of
        # 10**12 bits could be built.
        monkeypatch.setattr(Polyomino, "board", property(lambda poly: pytest.fail("a bitboard was built")))
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"cells": [[0, 0], [10**12, 0]]}))
        code, _, err = run(capsys, "analyze", str(path), "--format", "json")
        assert code == 2
        assert "not edge-connected" in err

    def test_usage_error_exit_1(self, capsys, skew_file):
        code, _, _ = run(capsys, "analyze", skew_file, "--out", "yaml")
        assert code == 1

    @pytest.mark.parametrize("width, height, nu", [(60, 1, 1), (1, 60, 1), (33, 2, 2), (1, 300, 1)])
    def test_long_shapes_exit_0(self, capsys, tmp_path, width, height, nu):
        # Shapes with many edges in one run once overflowed the stack in
        # the induced-matching search.
        path = tmp_path / "long.json"
        cells = [[x, y] for x in range(width) for y in range(height)]
        path.write_text(json.dumps({"cells": cells}))
        code, out, _ = run(capsys, "analyze", str(path), "--format", "json", "--out", "json")
        assert code == 0
        assert json.loads(out)["nu"] == nu

    def test_pure_brush_matching_computed_once(self, monkeypatch):
        original = regularity.induced_matching_number
        calls = []

        def counted(graph):
            calls.append(graph)
            return original(graph)

        for name, module in list(sys.modules.items()):
            if name.startswith("rooklab") and getattr(module, "induced_matching_number", None) is original:
                monkeypatch.setattr(module, "induced_matching_number", counted)
        brush = parse_cells([(0, 0), (0, 1), (0, 2), (1, 0), (1, -1), (1, -2)])
        report = analyze_polyomino(brush)
        assert report["brush"]["pureBrush"] and report["checks"]["regEqNu"]
        assert len(calls) == 1


class TestWitnessBytes:
    # SHA-256 digests recorded before the chordality and matching kernels
    # stopped iterating bits through a generator. Elimination orders,
    # chordless cycles and nu certificates all appear in these outputs, so
    # a change that reorders a witness fails here. The rank-8 verify and
    # rank-6 analyze digests were recorded again when brushes began to
    # break handle ties by sorted bristle lengths, which changed only
    # brush fields and brush-corollary details.
    def test_verify_rank_eight_bytes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-rank", "8", "--out", "json")
        assert code == 0
        digest = "09f81580809e42d0f8abee9125655687cce257103870126c48cd38dbb343f67e"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_rank_eight_bytes_with_two_jobs(self, capsys):
        # Workers are sent chunks of code tuples; the report must not change.
        code, out, _ = run(capsys, "verify", "--max-rank", "8", "--jobs", "2", "--out", "json")
        assert code == 0
        digest = "09f81580809e42d0f8abee9125655687cce257103870126c48cd38dbb343f67e"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "convention, digest",
        [
            ("interval", "13e57ea931902b23d0b15876ee0ca357bc42aeb81d3904a2a9f4287ae2bec3ae"),
            ("line", "60628de67b89d51e9805931299198a17754150ac5fcab2ab1bec85993812d968"),
        ],
    )
    def test_analyze_to_rank_six_bytes(self, convention, digest):
        out = "".join(
            json.dumps(analyze_polyomino(poly, convention), indent=2) + "\n"
            for poly in free_census(6)
        )
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "convention, non_pure, digest",
        [
            ("interval", 435, "2ec2a293babc7b42c103a199758590009476ddd2abb4964d7eb6fbde2a504a81"),
            ("line", 410, "8e181bb39692ef506ec10853a45a3ebae34d444f58f830e8efb59034daf6fb23"),
        ],
    )
    def test_analyze_rank_seven_and_eight_bytes(self, convention, non_pure, digest):
        # All 477 free shapes of rank 7 and 8; most are not pure, so the
        # purity witness is pinned as well.
        reports = [analyze_polyomino(poly, convention) for poly in free_census(8) if poly.rank >= 7]
        assert (len(reports), sum(not report["pure"] for report in reports)) == (477, non_pure)
        out = "".join(json.dumps(report, indent=2) + "\n" for report in reports)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "convention, counts, digest",
        [
            ("interval", {7: 17, 8: 32, 9: 53, 10: 99}, "fc06805e5c192eec24b3bae0c23945c1f1327b009f59c3a83bcf6ea74831a71e"),
            ("line", {7: 10, 8: 14, 9: 17, 10: 22}, "8c03286fda2a33f8c01bb69c2537e09afe430223ccaf70c74801ede5ca2eb1e8"),
        ],
    )
    def test_analyze_chordal_complements_rank_seven_to_ten_bytes(self, census10, convention, counts, digest):
        # Every shape of rank 7 to 10 whose complement is chordal under the
        # convention, so each report carries an elimination order. Recorded
        # while the dense search on the complement still wrote them.
        shapes = [poly for poly in census10 if poly.rank >= 7 and GraphRecord(poly, convention).chordality.chordal]
        assert Counter(poly.rank for poly in shapes) == counts
        out = "".join(json.dumps(analyze_polyomino(poly, convention), indent=2) + "\n" for poly in shapes)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "cells, convention, digest",
        [
            (HOLED_7X7, "interval", "0762ba4fa1a2380c24591a45446e71c345c1898e27169c9d132c559b6e47ed7a"),
            (HOLED_7X7, "line", "ef418348b9fb9eaa444efe4e6c74de8f197b0ed4e0874619875aa0a45932937e"),
            (
                [(x, y) for y in range(11) for x in range(y, y + 3)],
                "interval",
                "0bc40bbb5b5964dd2aec605ab3c0944e60879774fcab85e6845a08f5d2e6e18c",
            ),
            (
                [(i, y if i % 2 == 0 else -y) for i, n in enumerate((3, 3, 3, 3, 3, 3, 3, 4, 4)) for y in range(n)],
                "interval",
                "829f586c5c832df92443bbdc51e854e79e47934f14462df1eaf663873900070a",
            ),
        ],
        ids=["holed-7x7-interval", "holed-7x7-line", "staircase-11x3", "pure-brush-9"],
    )
    def test_analyze_beyond_rank_six_bytes(self, cells, convention, digest):
        # Recorded before shapes were read off an int bitboard: a hole, rows
        # with gaps under ``line``, a long non-pure thin shape and a pure
        # brush, none of which the rank-6 census reaches.
        out = json.dumps(analyze_polyomino(parse_cells(cells), convention), indent=2) + "\n"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_small_rank_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-rank", "4", "--check", "purity-theorem")
        assert code == 0
        assert "PASS purity-theorem" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--max-rank", "4", "--check", "cycle-lengths", "--out", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["checks"][0]["name"] == "cycle-lengths"
        assert report["checks"][0]["passed"] is True

    def test_informational_findings_keep_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-rank", "6", "--check", "brush-corollary")
        assert code == 0
        assert "INFO brush-corollary" in out

    def test_unknown_check_exit_1(self, capsys):
        code, _, err = run(capsys, "verify", "--check", "bogus")
        assert code == 1
        assert "unknown check" in err

    @pytest.mark.parametrize("checks", [",", "purity-theorem,purity-theorem"])
    def test_empty_or_repeated_check_list_exit_1(self, capsys, checks):
        code, out, err = run(capsys, "verify", "--max-rank", "4", "--check", checks)
        assert code == 1
        assert out == ""
        assert "error:" in err

    def test_exit_code_mapping(self):
        violation = Violation(((0, 0),), "#", "synthetic")
        failing = CensusReport(
            2, "free", 2, (CheckResult("purity-theorem", False, (violation,), False),)
        )
        informational = CensusReport(
            2, "free", 2, (CheckResult("brush-corollary", False, (violation,), True),)
        )
        clean = CensusReport(2, "free", 2, (CheckResult("purity-theorem", True, (), False),))
        assert report_exit_code(failing) == 3
        assert report_exit_code(informational) == 0
        assert report_exit_code(clean) == 0

    def test_env_ceiling(self, capsys, monkeypatch):
        monkeypatch.setenv(census_mod.MAX_RANK_ENV, "3")
        code, _, err = run(capsys, "verify", "--max-rank", "4", "--check", "purity-theorem")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [("verify", "--max-rank", "4", "--check", "purity-theorem"), ("enumerate", "--rank", "3")],
    )
    def test_malformed_env_ceiling_exit_1(self, capsys, monkeypatch, argv):
        # Not an integer, or an integer ceiling below rank 1.
        for value in ("abc", "0", "-1"):
            monkeypatch.setenv(census_mod.MAX_RANK_ENV, value)
            code, out, err = run(capsys, *argv)
            assert code == 1, value
            assert out == ""
            assert "error:" in err and census_mod.MAX_RANK_ENV in err, err


class TestEnumerate:
    def test_rank_two_free(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--rank", "2")
        assert code == 0
        assert out.strip() == "#\n#"

    def test_rank_four_fixed_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--rank", "4", "--mode", "fixed")
        assert code == 0
        assert len(out.strip().split("\n\n")) == 19

    def test_rank_five_coords(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--rank", "5", "--emit", "coords")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 12
        for line in lines:
            record = json.loads(line)
            assert len(record["cells"]) == 5

    # SHA-256 of the whole output of `enumerate --rank 8`, recorded before
    # shapes were grown on int cell codes and written one at a time.
    @pytest.mark.parametrize(
        "mode, emit, digest",
        [
            ("free", "ascii", "c1744fe1ee335d3276086ad5ebe3aca7db748fd3679e55fc742948145652afe9"),
            ("free", "coords", "668038f6338d463f7f682544bbb2a97619e30a0ee5db9bcecc282fcbf397a2f0"),
            ("fixed", "ascii", "19111e296f3f9864a707d6cea48bb093044f1fbe56ae2c056b98fc841c059d76"),
            ("fixed", "coords", "ae77ced8a457d0bc885318a7798d64298851d6c9bd6fafde2d9d8f61ff39728b"),
        ],
    )
    def test_rank_eight_bytes(self, capsys, mode, emit, digest):
        code, out, _ = run(capsys, "enumerate", "--rank", "8", "--mode", mode, "--emit", emit)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # SHA-256 of the whole output of `enumerate --rank 11`, recorded before
    # each line was written straight from the shape's sorted cells.
    @pytest.mark.parametrize(
        "emit, digest",
        [
            ("ascii", "e772ad81c0d4d1a842f95596158e1c8b0e337c931daf8f147f56f45535e4a1fb"),
            ("coords", "accd44ebe9e1bc2cca44c2c2aecd03bf8f1e2afc1a8df8d36eab84ad2389a12b"),
        ],
    )
    def test_rank_eleven_bytes(self, capsys, monkeypatch, emit, digest):
        monkeypatch.setenv(census_mod.MAX_RANK_ENV, "11")
        code, out, _ = run(capsys, "enumerate", "--rank", "11", "--emit", emit)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_rank_exit_1(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--rank", "0")
        assert code == 1
        assert out == ""

    def test_missing_rank_exit_1(self, capsys):
        code, _, _ = run(capsys, "enumerate")
        assert code == 1


class TestClosedPipe:
    @staticmethod
    def _read_first_line(*argv):
        """Run the CLI, close its output after the first line; return that line, the exit code and stderr."""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-c", "from rooklab.cli import entrypoint; entrypoint()", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
            err = proc.stderr.read().decode()
        finally:
            proc.kill()
            proc.stderr.close()
        return first, code, err

    def test_reader_closing_early_exits_quietly(self):
        first, code, err = self._read_first_line("enumerate", "--rank", "9", "--emit", "coords")
        assert len(json.loads(first)["cells"]) == 9
        assert err == "", err  # no BrokenPipeError traceback
        assert code == EXIT_CLOSED_PIPE == 141

    def test_verify_json_reader_closing_early_exits_quietly(self):
        # The rank-9 report is 284 KB, far more than a pipe buffer holds.
        first, code, err = self._read_first_line("verify", "--max-rank", "9", "--out", "json")
        assert first == b"{\n"
        assert err == "", err
        assert code == EXIT_CLOSED_PIPE


class TestRunAsModule:
    @staticmethod
    def _run(*args):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "rooklab.cli", *args], capture_output=True, text=True, env=env, timeout=60
        )

    def test_unknown_check_exits_1(self):
        proc = self._run("verify", "--max-rank", "3", "--check", "bogus")
        assert proc.returncode == 1
        assert "unknown check" in proc.stderr

    def test_enumerate_prints_shapes(self):
        proc = self._run("enumerate", "--rank", "3")
        assert proc.returncode == 0
        assert proc.stdout.split("\n\n") == ["#\n#\n#", "#.\n##\n"]


class TestImportCost:
    def test_cli_import_leaves_process_pool_unloaded(self):
        # concurrent.futures is only needed by verify --jobs > 1; loading it
        # on every import costs start-up time and memory in each process.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, rooklab.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
