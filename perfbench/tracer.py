"""Per-layer tracing of rooklab from outside the package.

Each traced public function is replaced, in every ``rooklab`` module that
binds it, by a wrapper that records a span (name, parent, start, end) on
a stack. A span's self time is its duration minus the time covered by its
child spans. Spans are aggregated per (parent, name) edge in memory and
written out once the run ends. The census checks are traced through the
public ``CHECKS`` registry, because the harness calls them from there.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
from time import perf_counter

from checkers import CHECK_NAMES

# Traced public function ("<layer>.<function>", the layer named after its
# rooklab module) -> the metrics reported for it. "calls" counts wrapper
# calls, "self_s" is self time, "s" is inclusive time; any other key is a
# counter taken at the function's boundary.
SPANS = {
    "polyomino.shape_predicates": ("calls", "self_s"),
    "polyomino.maximal_intervals": ("calls", "self_s"),
    "polyomino.canonical_cells": ("calls", "self_s"),
    "rook_complex.attack_graph": ("calls", "misses", "self_s"),
    "rook_complex.f_vector": ("calls", "misses", "self_s"),
    "rook_complex.is_pure": ("calls", "self_s"),
    "partition.find_embedding": ("calls", "found", "self_s"),
    "partition.super_partitions": ("calls", "self_s"),
    "partition.check_purity_theorem": ("self_s",),
    "chordal.complement_graph": ("calls", "self_s"),
    "chordal.is_chordal": ("calls", "self_s"),
    "chordal.induced_cycle_lengths": ("calls", "self_s"),
    "chordal.brush_decomposition": ("calls", "self_s"),
    "chordal.classify_chordality": ("self_s",),
    "regularity.induced_matching_number": ("calls", "self_s", "edges"),
    "regularity.regularity_pure_thin": ("self_s",),
    "regularity.check_reg_eq_nu": ("self_s",),
    "census.free_census": ("self_s",),
    "census.generate": ("self_s",),
    "cli.analyze_polyomino": ("calls", "s"),
}

# Functions whose results come from an lru_cache; misses are read from cache_info().
CACHED = ("rook_complex.attack_graph", "rook_complex.f_vector")

_CENSUS_SPANS = ("census.free_census", "census.generate")

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [
        (f"{span}.{key}", "s" if key in ("self_s", "s") else "count", "lower")
        for span, keys in SPANS.items()
        for key in keys
    ]
    + [
        ("rook_complex.faces", "count", "lower"),
        ("rook_complex.facets", "count", "lower"),
        ("census.shapes_examined", "count", "lower"),
        ("census.shapes_kept", "count", "higher"),
        ("census.keep_ratio", "ratio", "higher"),
    ]
    + [(f"census.check.{name}.s", "s", "lower") for name in CHECK_NAMES]
    + [("harness.wait_s", "s", "lower"), ("harness.trace_overhead_s", "s", "lower")]
)


class Tracer:
    """Span stack plus aggregates; install() swaps the wrappers in, uninstall() out."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, time covered by children]
        self.edges: dict[tuple[str, str], list[float]] = {}  # (parent, name) -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._cache_base: dict[str, int] = {}
        self._originals: dict[str, object] = {}

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.stack.append([name, perf_counter(), 0.0])

    def _exit(self, calls: int) -> None:
        name, start, covered = self.stack.pop()
        duration = perf_counter() - start
        parent = self.stack[-1][0] if self.stack else ""
        if self.stack:
            self.stack[-1][2] += duration
        edge = self.edges.setdefault((parent, name), [0, 0.0, 0.0])
        edge[0] += calls
        edge[1] += duration
        edge[2] += duration - covered

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name: str, func, observe=None):
        if inspect.isgeneratorfunction(func):
            def traced_gen(*args, **kwargs):
                it = func(*args, **kwargs)
                first = 1
                while True:
                    # A span per resumption: the consumer's time between items is not ours.
                    self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(first)
                    first = 0
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                if observe is None:
                    return func(*args, **kwargs)
                return observe(func, args, kwargs)
            finally:
                self._exit(1)

        return traced

    def _observers(self):
        """Counters taken at the boundary of the functions that do countable work."""

        def f_vector(func, args, kwargs):
            before = func.cache_info().misses
            rc = func(*args, **kwargs)
            if func.cache_info().misses != before:
                self._count("rook_complex.faces", sum(rc.f_vector))
                self._count("rook_complex.facets", len(rc.facets))
            return rc

        def find_embedding(func, args, kwargs):
            emb = func(*args, **kwargs)
            self._count("partition.find_embedding.found", emb is not None)
            return emb

        def induced_matching_number(func, args, kwargs):
            self._count("regularity.induced_matching_number.edges", len(args[0].edges))
            return func(*args, **kwargs)

        def canonical_cells(func, args, kwargs):
            canon = func(*args, **kwargs)
            # The stack top is this call; its parent tells whether the census filter asked.
            if len(self.stack) >= 2 and self.stack[-2][0] in _CENSUS_SPANS:
                self._count("census.shapes_examined")
                self._count("census.shapes_kept", canon == tuple(args[0]))
            return canon

        return {
            "rook_complex.f_vector": f_vector,
            "partition.find_embedding": find_embedding,
            "regularity.induced_matching_number": induced_matching_number,
            "polyomino.canonical_cells": canonical_cells,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "rooklab" or n.startswith("rooklab.")]
        observers = self._observers()
        for span in SPANS:
            layer, func_name = span.split(".")
            original = getattr(sys.modules[f"rooklab.{layer}"], func_name)
            self._originals[span] = original
            wrapper = self._wrap(span, original, observers.get(span))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        checks = sys.modules["rooklab.census"].CHECKS
        for name, spec in list(checks.items()):
            self._patched.append((checks, name, spec))
            checks[name] = dataclasses.replace(spec, func=self._wrap(f"census.check.{name}", spec.func))
        for span in CACHED:
            self._cache_base[span] = self._originals[span].cache_info().misses

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """JSON-ready aggregates: spans per edge, counters, and cache misses so far."""
        counts = dict(self.counts)
        for span in CACHED:
            counts[f"{span}.misses"] = self._originals[span].cache_info().misses - self._cache_base[span]
        spans = [
            {"parent": parent, "name": name, "calls": int(c), "total_s": total, "self_s": own}
            for (parent, name), (c, total, own) in sorted(self.edges.items())
        ]
        return {"spans": spans, "counts": counts}


def layer_metrics(snapshots: list[dict], wait_s: float, trace_overhead_s: float) -> dict:
    """Every metric of METRICS from the merged snapshots of one traced run."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    counts: dict[str, int] = {}
    for snap in snapshots:
        for span in snap["spans"]:
            name = span["name"]
            calls[name] = calls.get(name, 0) + span["calls"]
            total[name] = total.get(name, 0.0) + span["total_s"]
            own[name] = own.get(name, 0.0) + span["self_s"]
        for key, n in snap["counts"].items():
            counts[key] = counts.get(key, 0) + n
    examined = counts.get("census.shapes_examined", 0)
    values = {
        "census.keep_ratio": counts.get("census.shapes_kept", 0) / examined if examined else 0.0,
        "harness.wait_s": wait_s,
        "harness.trace_overhead_s": trace_overhead_s,
    }
    out = {}
    for name, unit, _ in METRICS:
        span, _, key = name.rpartition(".")
        if name in values:
            value = values[name]
        elif key == "calls":
            value = calls.get(span, 0)
        elif key == "self_s":
            value = own.get(span, 0.0)
        elif key == "s":
            value = total.get(span, 0.0)
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out
