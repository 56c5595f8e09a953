"""Independent checks of rooklab's outputs.

Nothing here imports rooklab, and nothing compares against a stored copy
of an earlier output: every expected value comes from a closed form, an
OEIS table, or a certificate checked against attacks rebuilt from the
cells. Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import combinations
from math import comb, factorial

Cell = tuple[int, int]

# OEIS A000105: free polyominoes with n cells, n = 1..11.
A000105 = (1, 1, 2, 5, 12, 35, 108, 369, 1285, 4655, 17073)

# The census checks of `rooklab verify`; only the last one is informational.
CHECK_NAMES = (
    "purity-theorem",
    "square-superpartitions",
    "embedded-complement",
    "cycle-lengths",
    "chordal-classification",
    "nonsimple-nonchordal",
    "prop-geq2",
    "sigma-identities",
    "brush-fh",
    "matching-bound",
    "reg-eq-nu",
    "katzman",
    "froberg-crosscheck",
    "brush-corollary",
)
INFORMATIONAL = frozenset({"brush-corollary"})


# -- geometry, written independently of rooklab.polyomino -----------------------


def normalize(cells) -> tuple[Cell, ...]:
    cells = [tuple(c) for c in cells]
    dx = min(x for x, _ in cells)
    dy = min(y for _, y in cells)
    return tuple(sorted((x - dx, y - dy) for x, y in cells))


def free_key(cells) -> tuple[int, int, int]:
    """Least (width, height, bitmap) over the 8 symmetries of the square."""
    best = None
    for sx, sy, swap in ((1, 1, 0), (-1, 1, 0), (1, -1, 0), (-1, -1, 0),
                         (1, 1, 1), (-1, 1, 1), (1, -1, 1), (-1, -1, 1)):
        moved = [(sx * y, sy * x) if swap else (sx * x, sy * y) for x, y in cells]
        mx = min(x for x, _ in moved)
        my = min(y for _, y in moved)
        w = 1 + max(x for x, _ in moved) - mx
        h = 1 + max(y for _, y in moved) - my
        bitmap = 0
        for x, y in moved:
            bitmap |= 1 << ((y - my) * w + (x - mx))
        key = (w, h, bitmap)
        if best is None or key < best:
            best = key
    return best


def connected(cells) -> bool:
    cells = set(cells)
    start = next(iter(cells))
    seen = {start}
    queue = deque([start])
    while queue:
        x, y = queue.popleft()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return len(seen) == len(cells)


def attacks(cells, convention: str) -> dict[Cell, set[Cell]]:
    """Attacked cells per cell: along the same contiguous run (``interval``)
    or anywhere in the same row or column (``line``)."""
    cells = set(cells)
    out = {c: set() for c in cells}
    for x, y in cells:
        if convention == "line":
            out[(x, y)] = {(u, v) for u, v in cells if (u == x) != (v == y)}
            continue
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nb = (x + dx, y + dy)
            while nb in cells:
                out[(x, y)].add(nb)
                nb = (nb[0] + dx, nb[1] + dy)
    return out


def elementary_symmetric(values) -> list[int]:
    """e_0..e_n of the values, as the coefficients of prod(1 + v t)."""
    coeffs = [1]
    for v in values:
        coeffs = [a + v * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


# -- census ---------------------------------------------------------------------


def check_census_counts(counts: dict[int, int], max_rank: int) -> list[str]:
    """Free shapes per rank against A000105."""
    return [
        f"rank {n}: {counts.get(n, 0)} free shapes, A000105 says {A000105[n - 1]}"
        for n in range(1, max_rank + 1)
        if counts.get(n, 0) != A000105[n - 1]
    ]


def check_enumeration(stdout: str, code: int | None, rank: int) -> list[str]:
    """`enumerate --rank N --emit coords`: A000105 count, each shape connected
    with N cells, and no two shapes equal under the square's symmetries."""
    if code != 0:
        return [f"exit status {code}"]
    problems = []
    keys = set()
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        try:
            cells = [tuple(c) for c in json.loads(line)["cells"]]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"line {i + 1}: unreadable ({exc})")
            continue
        if len(set(cells)) != rank or len(cells) != rank:
            problems.append(f"line {i + 1}: {len(cells)} cells, expected {rank} distinct")
        elif not connected(cells):
            problems.append(f"line {i + 1}: not connected")
        key = free_key(cells)
        if key in keys:
            problems.append(f"line {i + 1}: repeats an earlier shape up to symmetry")
        keys.add(key)
    if len(lines) != A000105[rank - 1]:
        problems.append(f"{len(lines)} shapes, A000105 says {A000105[rank - 1]}")
    return problems


def check_verify(stdout: str, code: int | None, max_rank: int) -> tuple[dict[str, list[str]], list[str]]:
    """`verify --out json`: per check, no non-informational violation; for the
    whole call, the census size from A000105 and an exit status that agrees."""
    try:
        report = json.loads(stdout)
        results = {r["name"]: r for r in report["checks"]}
    except (ValueError, KeyError, TypeError) as exc:
        return {name: ["no readable report"] for name in CHECK_NAMES}, [f"unreadable report ({exc})"]
    per_check = {}
    for name in CHECK_NAMES:
        r = results.get(name)
        if r is None:
            per_check[name] = ["missing from the report"]
        elif r["informational"] != (name in INFORMATIONAL):
            per_check[name] = [f"informational={r['informational']}"]
        elif name in INFORMATIONAL:
            per_check[name] = []
        elif not r["passed"] or r["violations"]:
            per_check[name] = [f"{len(r['violations'])} violations, passed={r['passed']}"]
        else:
            per_check[name] = []
    problems = []
    expected = sum(A000105[:max_rank])
    if report.get("count") != expected or report.get("maxRank") != max_rank:
        problems.append(f"census of {report.get('count')} shapes up to rank {report.get('maxRank')}, expected {expected} up to {max_rank}")
    expected_code = 3 if any(per_check.values()) else 0
    if code != expected_code:
        problems.append(f"exit status {code}, expected {expected_code}")
    return per_check, problems


# -- analyze --------------------------------------------------------------------


def _is_independent(cells, att) -> bool:
    return not any(b in att[a] for a, b in combinations(cells, 2))


def _check_nu_certificate(report, att) -> list[str]:
    pairs = [(tuple(a), tuple(b)) for a, b in report["nuCertificate"]]
    ends = [c for pair in pairs for c in pair]
    if len(pairs) != report["nu"]:
        return [f"certificate has {len(pairs)} edges, nu is {report['nu']}"]
    if any(c not in att for c in ends) or len(set(ends)) != len(ends):
        return ["certificate endpoints are not distinct cells of the shape"]
    if any(b not in att[a] for a, b in pairs):
        return ["a certificate edge is not an attacking pair"]
    for (a, b), (c, d) in combinations(pairs, 2):
        if any(v in att[u] for u in (a, b) for v in (c, d)):
            return ["certificate is not an induced matching"]
    return []


def _check_complement_witness(report, att) -> list[str]:
    """Perfect elimination order or chordless cycle (length >= 4) of the
    complement of the attack graph."""

    def adjacent(u, v):
        return u != v and v not in att[u]

    witness = report["complementWitness"]
    if report["complementChordal"]:
        order = [tuple(c) for c in witness.get("eliminationOrder") or []]
        if sorted(order) != sorted(att):
            return ["elimination order is not a permutation of the cells"]
        pos = {v: i for i, v in enumerate(order)}
        for v in order:
            later = [u for u in att if pos[u] > pos[v] and adjacent(u, v)]
            if any(not adjacent(a, b) for a, b in combinations(later, 2)):
                return [f"elimination order fails at {v}: later neighbours are not a clique"]
        return []
    cycle = [tuple(c) for c in witness.get("chordlessCycle") or []]
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k or any(c not in att for c in cycle):
        return [f"chordless cycle {cycle} is not a cycle of 4 or more distinct cells"]
    for i, j in combinations(range(k), 2):
        consecutive = j - i == 1 or (i == 0 and j == k - 1)
        if adjacent(cycle[i], cycle[j]) != consecutive:
            return [f"cycle {cycle} has a chord or a missing edge at {cycle[i]}, {cycle[j]}"]
    return []


def _check_pure_witness(report, att) -> list[str]:
    """A non-pure claim needs a maximal face smaller than another face."""
    w = report["pureWitness"]
    if report["pure"]:
        return [] if w is None else ["pure complex with a non-purity witness"]
    if w is None:
        return ["non-pure complex without a witness"]
    small = [tuple(c) for c in w["small"]]
    large = [tuple(c) for c in w["large"]]
    if not (_is_independent(small, att) and _is_independent(large, att)):
        return ["purity witness holds an attacking pair"]
    covered = set(small).union(*(att[c] for c in small))
    if covered != set(att):
        return ["small purity witness is not a maximal face"]
    if len(small) >= len(large):
        return ["purity witness sizes do not differ"]
    return []


def check_report(shape, stdout: str, code: int | None) -> list[str]:
    """One `analyze --out json` report against the shape it was given.

    ``shape`` carries ``cells``, ``convention``, ``kind`` (board, brush,
    holed or staircase) and ``params`` (board sides or bristle lengths).
    """
    if code != 0:
        return [f"exit status {code}"]
    try:
        report = json.loads(stdout)
        cells = normalize(shape.cells)
        if [tuple(c) for c in report["cells"]] != list(cells):
            return ["reported cells differ from the input"]
        if report["convention"] != shape.convention or report["rank"] != len(cells):
            return ["reported convention or rank differs from the input"]
        att = attacks(cells, shape.convention)
        f, h, d = report["fVector"], report["hVector"], report["rookNumber"]
        problems = []
        if len(f) != d + 1 or len(h) != d + 1:
            return [f"f/h-vector lengths {len(f)}/{len(h)} for rook number {d}"]
        if sum(h) != f[-1]:
            problems.append(f"sum(h)={sum(h)} differs from the last f-entry {f[-1]}")
        edges = sum(len(s) for s in att.values()) // 2
        if d >= 2 and (f[1] != len(cells) or f[2] != comb(len(cells), 2) - edges):
            problems.append("f_0/f_1 disagree with the rebuilt attack graph")
        problems += _check_nu_certificate(report, att)
        problems += _check_complement_witness(report, att)
        problems += _check_pure_witness(report, att)
        if shape.kind == "board":
            m, n = shape.params
            expected = [comb(m, k) * comb(n, k) * factorial(k) for k in range(min(m, n) + 1)]
            if f != expected or d != min(m, n) or not report["pure"]:
                problems.append(f"board {m}x{n}: f={f}, rook number {d}, pure={report['pure']}")
        elif shape.kind == "brush":
            lengths = shape.params
            k_max = len(lengths)
            e = elementary_symmetric([v - 1 for v in lengths])
            expected = [1] + [e[k] + (k_max - k + 1) * e[k - 1] for k in range(1, k_max + 1)]
            if f != expected or not report["pure"]:
                problems.append(f"pure brush {lengths}: f={f}, closed form {expected}")
            if report["regularity"] != report["nu"]:
                problems.append(f"regularity {report['regularity']} differs from nu {report['nu']}")
        elif shape.kind == "holed":
            if shape.convention == "interval" and report["complementChordal"]:
                problems.append("shape with a hole reported with a chordal complement")
        elif shape.kind == "staircase" and report["pure"]:
            problems.append("staircase reported pure")
        return problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report ({exc!r})"]
