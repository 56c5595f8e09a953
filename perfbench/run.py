"""Run one rooklab benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload verify-r10 --seed 1 --seconds 15 --trace 0

The rooklab sources are imported from ``src/`` of the checkout that holds
this directory. Set-up (importing rooklab and preparing the workload's
inputs) runs first. Then rounds of the workload's `rooklab` command lines
run, one at a time, until ``--seconds`` have passed; a round that takes
longer than that is still measured whole. Each round runs in a forked
copy of the set-up process, so every round starts from the same state:
the program's caches are as a user's fresh `rooklab` process would find
them after set-up. The program runs with ``--jobs 1``.

With ``--trace 0`` the end-to-end metrics are printed:
  setup_s      median over SETUP_SAMPLES set-ups: this process's own, and
               the rest each in a fresh interpreter
  wall_s       median over rounds of the wall time of the round's calls
  peak_rss_mb  median over rounds of the round process's ru_maxrss
With ``--trace 1`` one plain and one traced round run instead, and the
per-layer metrics of tracer.METRICS are printed.

Every output is checked by checkers.py outside the timed calls. Results
and traces are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3


def _import_rooklab() -> None:
    sys.path.insert(0, str(SRC))
    import rooklab.cli

    if Path(rooklab.cli.__file__).resolve().parent != SRC / "rooklab":
        raise SystemExit(f"error: imported rooklab from {rooklab.cli.__file__}, not from {SRC}")


def set_up(workload, seed: int, workdir: Path) -> float:
    """Import rooklab and prepare the workload's inputs; return the seconds taken."""
    start = perf_counter()
    _import_rooklab()
    workload.prepare(seed, workdir)
    return perf_counter() - start


def run_round(calls: list[list[str]]) -> dict:
    """Run the command lines in-process, capturing what each prints."""
    from rooklab import cli

    results = []
    wall = cpu = 0.0
    for argv in calls:
        buf = io.StringIO()
        error = None
        w0, c0 = perf_counter(), process_time()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        except Exception:
            code, error = None, traceback.format_exc()
        wall += perf_counter() - w0
        cpu += process_time() - c0
        results.append({"argv": argv, "code": code, "stdout": buf.getvalue(), "error": error})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss_mb, "results": results}


def traced_round(calls: list[list[str]]) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    out = run_round(calls)
    out["trace"] = tracer.snapshot()
    return out


def in_fork(func, *args) -> dict:
    """Run func(*args) in a forked copy of this process; return its JSON result."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(func(*args))
            with os.fdopen(write_fd, "w", encoding="utf-8") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, encoding="utf-8") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round process ended with status {status}")
    return json.loads(payload)


def setup_probe(args) -> float:
    """Time one set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def judge(workload, rounds: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed, and problems that make the run incorrect."""
    attempted = failed = 0
    problems = []
    verdicts = {}  # the checkers are deterministic, so equal outputs are judged once
    for r in rounds:
        key = json.dumps([(res["code"], res["stdout"]) for res in r["results"]])
        if key not in verdicts:
            verdicts[key] = workload.judge(r["results"])
        ops, round_problems = verdicts[key]
        problems += round_problems
        attempted += len(ops)
        for name, errors in ops:
            if errors:
                failed += 1
                print(f"FAILED {workload.name}/{name}: {'; '.join(errors[:3])}", file=sys.stderr)
        for res in r["results"]:
            if res["error"]:
                print(res["error"], file=sys.stderr)
    return attempted, failed, problems


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if not (SRC / "rooklab" / "__init__.py").is_file():
        raise SystemExit(f"error: no rooklab sources at {SRC}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(repr(set_up(workload, args.seed, workdir)))
            return 0
        if args.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            _import_rooklab()
            tracer.install()
            workload.prepare(args.seed, workdir)
            setup_trace = tracer.snapshot()
            tracer.uninstall()
            plain = in_fork(run_round, workload.calls())
            traced = in_fork(traced_round, workload.calls())
            rounds = [plain, traced]
            metrics = layer_metrics(
                [setup_trace, traced["trace"]],
                wait_s=plain["wall_s"] - plain["cpu_s"],
                trace_overhead_s=traced["wall_s"] - plain["wall_s"],
            )
            spans = {"setup": setup_trace, "round": traced["trace"]}
            (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans, indent=1))
        else:
            setups = [set_up(workload, args.seed, workdir)]
            setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
            rounds = []
            start = perf_counter()
            while not rounds or perf_counter() - start < args.seconds:
                rounds.append(in_fork(run_round, workload.calls()))
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds), "unit": "MB"},
            }
        problems = workload.setup_problems()
        attempted, failed, round_problems = judge(workload, rounds)
        problems += round_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"INCORRECT {args.workload}: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    samples = [{k: r[k] for k in ("wall_s", "cpu_s", "rss_mb")} for r in rounds]
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, rounds=samples,
                  setups=None if args.trace else setups)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
