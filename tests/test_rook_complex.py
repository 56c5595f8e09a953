import sys
from collections import Counter
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

import cell_scans
import families
from conftest import adjacent, edge_pairs, graph_from_pairs

from rooklab import (
    ShapeRecord,
    SimpleGraph,
    attack_graph,
    complement_graph,
    f_vector,
    h_from_f,
    induced_cycle_lengths,
    is_pure,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    rook_complex,
    shape_predicates,
    verify_corpus,
)
from rooklab.cli import analyze_polyomino
from rooklab.graphs import bits

SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
RECT_2X3 = parse_ascii("###\n###")
SQUARE = parse_ascii("##\n##")
MONOMINO = parse_cells([(0, 0)])
U_PENTOMINO = parse_cells([(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)])
# A thin staircase whose rook complex is not pure: row y holds x = y .. y + 2.
STAIRCASE_11X3 = parse_cells([(x, y) for y in range(11) for x in range(y, y + 3)])


class TestAttackGraph:
    def test_skew_edges(self):
        expected = {
            frozenset({(0, 0), (1, 0)}),
            frozenset({(1, 0), (1, 1)}),
            frozenset({(1, 1), (2, 1)}),
        }
        assert attack_graph(SKEW).edges == expected
        assert attack_graph(SKEW, "line").edges == expected

    def test_u_pentomino_conventions_differ(self):
        broken_row = frozenset({(0, 1), (2, 1)})
        assert broken_row not in attack_graph(U_PENTOMINO, "interval").edges
        assert broken_row in attack_graph(U_PENTOMINO, "line").edges

    def test_monomino(self):
        assert attack_graph(MONOMINO).edges == frozenset()

    def test_intervals_are_cliques(self, census6):
        for poly in census6:
            graph = attack_graph(poly)
            for iv in maximal_intervals(poly):
                for a, b in combinations(iv.cells, 2):
                    assert adjacent(graph, a, b)

    def test_interval_edges_match_pairwise_attacks(self, census8, attack_pairs):
        for poly in census8:
            assert attack_graph(poly) == graph_from_pairs(poly.cells, attack_pairs(poly))

    def test_one_cache_entry_per_shape(self):
        # Every caller passes the convention, so a shape takes one entry.
        attack_graph.cache_clear()
        f_vector.cache_clear()
        f_vector(SKEW, "interval")
        f_vector(SKEW, "interval")
        attack_graph(SKEW, "interval")
        assert f_vector.cache_info().misses == 1
        assert attack_graph.cache_info().misses == 1

    def test_complex_holds_the_attack_graph(self, census8):
        # f_vector sweeps the lines of attack_graph's graph and keeps that
        # graph, so both caches hand out one object per shape.
        attack_graph.cache_clear()
        f_vector.cache_clear()
        for poly in census8:
            for convention in ("interval", "line"):
                assert f_vector(poly, convention).graph is attack_graph(poly, convention)

    def test_graph_layers_need_no_sweep(self, monkeypatch):
        # The attack graph, nu and chordality of the complement are read
        # off attack_graph alone, with f_vector refusing every call.
        def refuse(*args, **kwargs):
            raise AssertionError("f_vector was called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "rooklab" and getattr(module, "f_vector", None) is f_vector:
                monkeypatch.setattr(module, "f_vector", refuse)
        rec = ShapeRecord(parse_cells([(x, y) for x in range(30) for y in range(30)]))
        assert rec.attack.n == 900 and edge_pairs(rec.attack)[0] == ((0, 0), (0, 1))
        assert rec.matching.size == 20
        assert not rec.chordality.chordal

    def test_per_shape_caches_hold_one_shape(self):
        # A census pass leaves only the shape in hand, under both conventions.
        verify_corpus(8)
        for cached in (attack_graph, f_vector):
            info = cached.cache_info()
            assert info.maxsize == 2 and info.currsize <= 2

    @pytest.mark.parametrize("convention", ["interval", "line"])
    def test_graphs_are_well_formed(self, census8, convention):
        # SimpleGraph trusts its masks, so the attack graph and its
        # complement must be symmetric and loop-free by construction.
        for poly in census8:
            graph = attack_graph(poly, convention)
            for g in (graph, complement_graph(graph)):
                assert g.vertices == poly.sorted_cells
                assert len(g.masks) == g.n
                for i, mask in enumerate(g.masks):
                    assert 0 <= mask < 1 << g.n and not mask >> i & 1
                    assert all(g.masks[j] >> i & 1 for j in bits(mask))

    def test_only_attack_graphs_carry_lines(self):
        # The lines ride on the attack graph alone; equality and hashing
        # read only the vertices and the masks.
        graph = attack_graph(parse_cells([(0, 0), (1, 0), (1, 1)]))
        assert graph.lines == ((0b011, 0b100), (0b001, 0b110))
        bare = SimpleGraph(graph.vertices, graph.masks)
        for g in (bare, complement_graph(graph)):
            assert g.lines is None
        assert graph == bare and hash(graph) == hash(bare)
        assert "lines" not in repr(graph)

    def test_conventions_agree_on_convex(self, census6):
        for poly in census6:
            if shape_predicates(poly).convex:
                assert attack_graph(poly, "interval").edges == attack_graph(poly, "line").edges

    def test_attack_graph_chordal_on_simple_thin(self, census8):
        for poly in census8:
            preds = shape_predicates(poly)
            if preds.simple and preds.thin:
                lengths = induced_cycle_lengths(attack_graph(poly), max(poly.rank, 3))
                assert not any(l >= 4 for l in lengths)


@pytest.mark.parametrize(
    "call",
    [
        lambda c: rook_complex._lines(RECT_2X3, c),
        lambda c: attack_graph(RECT_2X3, c),
        lambda c: f_vector(RECT_2X3, c),
    ],
    ids=["_lines", "attack_graph", "f_vector"],
)
def test_unknown_convention_raises(call):
    with pytest.raises(ValueError, match="unknown attack convention 'rows'"):
        call("rows")


class TestFacets:
    def test_l_tromino(self):
        assert f_vector(L_TROMINO).facets == (
            frozenset({(0, 0), (1, 1)}),
            frozenset({(1, 0)}),
        )

    def test_square_diagonals(self):
        assert f_vector(SQUARE).facets == (
            frozenset({(0, 0), (1, 1)}),
            frozenset({(0, 1), (1, 0)}),
        )

    def test_domino(self):
        domino = parse_cells([(0, 0), (1, 0)])
        assert f_vector(domino).facets == (frozenset({(0, 0)}), frozenset({(1, 0)}))

    def test_against_subset_oracle(self, census5):
        for poly in census5:
            graph = attack_graph(poly)
            cells = poly.sorted_cells
            maximal = set()
            for r in range(len(cells) + 1):
                for sub in combinations(cells, r):
                    if any(adjacent(graph, u, v) for u, v in combinations(sub, 2)):
                        continue
                    rest = [u for u in cells if u not in sub]
                    if all(any(adjacent(graph, u, v) for v in sub) for u in rest):
                        maximal.add(frozenset(sub))
            assert set(f_vector(poly).facets) == maximal

    @pytest.mark.parametrize("convention", ["interval", "line"])
    @pytest.mark.parametrize(
        "poly",
        [
            pytest.param(families.holed_board(7, 0), id="board-7x7"),
            pytest.param(families.holed_board(7, 3), id="holed-7x7"),
            pytest.param(STAIRCASE_11X3, id="staircase-11x3"),
        ],
    )
    def test_matches_bron_kerbosch_beyond_census(self, poly, convention, bron_kerbosch):
        rc = f_vector.__wrapped__(poly, convention)
        assert list(rc.facets) == [_cells_of(rc.graph, mask) for mask in bron_kerbosch(rc.graph)]


class TestFVector:
    @pytest.mark.parametrize(
        "poly, f, d",
        [
            (RECT_2X3, (1, 6, 6), 2),
            (SKEW, (1, 4, 3), 2),
            (MONOMINO, (1, 1), 1),
        ],
    )
    def test_examples(self, poly, f, d):
        rc = f_vector(poly)
        assert rc.f_vector == f
        assert rc.rook_number == d

    def test_against_subset_oracle(self, census5):
        for poly in census5:
            graph = attack_graph(poly)
            cells = poly.sorted_cells
            counts = [0] * (len(cells) + 1)
            for r in range(len(cells) + 1):
                for sub in combinations(cells, r):
                    if not any(adjacent(graph, u, v) for u, v in combinations(sub, 2)):
                        counts[r] += 1
            rc = f_vector(poly)
            d = max(k for k, c in enumerate(counts) if c)
            assert rc.rook_number == d
            assert rc.f_vector == tuple(counts[: d + 1])

    @pytest.mark.parametrize("convention, inequalities", [("interval", 18679), ("line", 16049)])
    def test_newton_inequalities_on_the_census(self, census10, convention, inequalities):
        # Under either convention the rook numbers r_k count the k-edge
        # matchings of a bipartite line incidence graph, whose matching
        # polynomial is real-rooted (Heilmann-Lieb), so Newton's
        # inequalities hold for 0 < k < d, with d the rook number.
        count = 0
        for poly in census10:
            r = f_vector(poly, convention).f_vector
            d = len(r) - 1
            for k in range(1, d):
                assert r[k] ** 2 * k * (d - k) >= r[k - 1] * r[k + 1] * (k + 1) * (d - k + 1), (poly, k)
            count += max(d - 1, 0)
        assert count == inequalities

    def test_face_total_matches_independent_set_count(self, census6):
        for poly in census6:
            assert sum(f_vector(poly).f_vector) == independent_set_count(attack_graph(poly))


def independent_set_count(graph):
    """Count independent sets by deletion/contraction on a vertex.

    Independent of the backtracking enumerator; used as a cross-check
    against the face-count total.
    """

    def count(vertices, edges):
        if not vertices:
            return 1
        if not edges:
            return 2 ** len(vertices)
        v = max(vertices, key=lambda u: (sum(1 for e in edges if u in e), u))
        closed = {v} | {w for e in edges for w in e if v in e and w != v}
        without = vertices - {v}
        e_without = frozenset(e for e in edges if v not in e)
        rest = vertices - closed
        e_rest = frozenset(e for e in edges if not (e & closed))
        return count(without, e_without) + count(rest, e_rest)

    return count(frozenset(graph.vertices), graph.edges)


class TestSweep:
    """The transfer-matrix counts and the facet search against the
    brute-force enumerator."""

    def test_matches_enumeration_on_census(self, census10, enumerate_complex):
        for convention in ("interval", "line"):
            for poly in census10:
                oracle_facets, counts = enumerate_complex(attack_graph(poly, convention))
                line_masks = rook_complex._lines(poly, convention)
                faces, facets_by_size = rook_complex._sweep_counts(rook_complex._sweep_columns(poly, line_masks))
                d = len(faces) - 1
                assert faces == counts[: d + 1] and not any(counts[d + 1 :]), poly
                sizes = Counter(len(f) for f in oracle_facets)
                assert facets_by_size == [sizes[k] for k in range(d + 1)], poly
                # Uncached, so that no facet list outlives its shape.
                rc = f_vector.__wrapped__(poly, convention)
                assert (rc.f_vector, rc.rook_number, rc.pure) == (tuple(faces), d, len(sizes) == 1)
                assert rc.facets_by_size == tuple(facets_by_size), poly
                assert rc.graph.lines == tuple(
                    tuple(sum(1 << rc.graph.vertices.index(c) for c in line) for line in lines)
                    for lines in cell_scans.lines(poly, convention)
                ), poly
                assert list(rc.facets) == oracle_facets, poly

    def test_same_on_every_dihedral_image(self, census8, dihedral_images):
        # The sweep runs along the longer side, so images of a shape that
        # is not square are swept along both axes.
        for poly in (p for p in census8 if p.rank <= 7):
            for convention in ("interval", "line"):
                seen = set()
                for image in dihedral_images(poly):
                    rc = f_vector(image, convention)
                    lines = rook_complex._lines(image, convention)
                    sizes = tuple(rook_complex._sweep_counts(rook_complex._sweep_columns(image, lines))[1])
                    seen.add((rc.f_vector, rc.rook_number, rc.pure, sizes))
                assert len(seen) == 1, (poly, convention, seen)


class TestIsPure:
    def test_rectangle_pure(self):
        assert is_pure(RECT_2X3).pure

    def test_l_tromino_witness(self):
        res = is_pure(L_TROMINO)
        assert not res.pure
        small, large = res.witness
        assert small == frozenset({(1, 0)})
        assert large == frozenset({(0, 0), (1, 1)})

    def test_square_pure(self):
        assert is_pure(SQUARE).pure

    def test_report_witness_passes_independent_checker(self, census8, attack_pairs, enumerate_complex):
        checked = 0
        for poly in census8:
            for convention in ("interval", "line"):
                if f_vector(poly, convention).pure:
                    continue
                pairs = attack_pairs(poly, convention)
                oracle_facets, _ = enumerate_complex(graph_from_pairs(poly.cells, pairs))
                witness = analyze_polyomino(poly, convention)["pureWitness"]
                problems = _witness_problems(poly.cells, pairs, oracle_facets, witness)
                assert not problems, (poly, convention, problems)
                checked += 1
        assert checked

    def test_matches_facet_listing_on_census(self, census10, bron_kerbosch):
        checked = 0
        for poly in census10:
            for convention in ("interval", "line"):
                if not f_vector(poly, convention).pure:
                    witness = _listing_witness(poly, convention, bron_kerbosch)
                    assert is_pure(poly, convention).witness == witness, (poly, convention)
                    checked += 1
        assert checked == 12_054

    @pytest.mark.parametrize(
        "poly",
        [pytest.param(STAIRCASE_11X3, id="staircase-11x3"), pytest.param(families.holed_board(7, 3), id="holed-7x7")],
    )
    def test_matches_facet_listing_on_every_image(self, poly, dihedral_images, bron_kerbosch):
        for image in dihedral_images(poly):
            for convention in ("interval", "line"):
                assert not f_vector(image, convention).pure
                witness = _listing_witness(image, convention, bron_kerbosch)
                assert is_pure(image, convention).witness == witness, (image, convention)

    @pytest.mark.parametrize("side, hole", [(8, 4), (9, 5)])
    def test_matches_facet_listing_on_large_holed_boards(self, side, hole, bron_kerbosch):
        board = families.holed_board(side, hole)
        assert is_pure(board).witness == _listing_witness(board, "interval", bron_kerbosch)

    def test_witness_on_a_long_comb_within_a_small_recursion_limit(self):
        # Row 0 of 600 cells with a tooth above every other one: not pure,
        # rook number 301, so a search recursing once per rook overflows.
        teeth = 300
        comb = families.comb(teeth)
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            witness = f_vector(comb).purity.witness
        finally:
            sys.setrecursionlimit(limit)
        assert [len(face) for face in witness] == [teeth, teeth + 1]
        h_lines, v_lines = cell_scans.lines(comb, "interval")
        lines = [frozenset(line) for line in h_lines + v_lines]
        for face in witness:
            # Non-attacking: no line holds two of its cells. Maximal: the
            # lines that hold one cover the shape.
            assert all(len(face & line) <= 1 for line in lines)
            assert frozenset().union(*(line for line in lines if face & line)) == comb.cells

    def test_witness_lists_no_facets(self, monkeypatch):
        def refuse(rc):
            raise AssertionError("is_pure listed the facets")

        f_vector.cache_clear()
        monkeypatch.setattr(rook_complex.RookComplex, "facets", property(refuse))
        for poly in (L_TROMINO, STAIRCASE_11X3, families.holed_board(9, 5)):
            for convention in ("interval", "line"):
                assert not is_pure(poly, convention).pure

    def test_no_cache_outlives_a_call(self):
        # Only the per-shape caches of the attack graph and the f-vector
        # are kept across calls; the purity witness lives on the complex.
        is_pure(L_TROMINO)
        cached = {name for name, obj in vars(rook_complex).items() if hasattr(obj, "cache_info")}
        assert cached == {"attack_graph", "f_vector"}


def _cells_of(graph, mask):
    return frozenset(graph.vertices[i] for i in bits(mask))


def _listing_witness(poly, convention, list_facets):
    """The witness pair picked from the whole facet list that
    ``list_facets`` returns for the attack graph, as vertex masks: the
    first facet of the least and of the greatest size in sorted-cell-tuple
    order."""
    graph = attack_graph(poly, convention)
    masks = list_facets(graph)
    return tuple(_cells_of(graph, pick(masks, key=int.bit_count)) for pick in (min, max))


def _witness_problems(cells, pairs, oracle_facets, witness):
    """What is wrong with a reported non-purity witness, judged against
    attacks rebuilt from the cells and the brute-force facet list: both
    sets must be non-attacking and maximal, have the least and greatest
    facet sizes, and be the first facets of their sizes in sorted order."""
    small = frozenset(tuple(c) for c in witness["small"])
    large = frozenset(tuple(c) for c in witness["large"])
    attacks = {c: set() for c in cells}
    for a, b in pairs:
        attacks[a].add(b)
        attacks[b].add(a)
    problems = []
    for name, face in (("small", small), ("large", large)):
        if any(attacks[c] & face for c in face):
            problems.append(f"{name} holds an attacking pair")
        if any(not attacks[c] & face for c in set(cells) - face):
            problems.append(f"{name} is not maximal")
    first = {}
    for facet in oracle_facets:
        first.setdefault(len(facet), facet)
    if small != first[min(first)]:
        problems.append(f"small is not the first facet of the least size {min(first)}")
    if large != first[max(first)]:
        problems.append(f"large is not the first facet of the greatest size {max(first)}")
    return problems


def f_from_h(h):
    """The inverse of ``h_from_f``, f_(i-1) = sum_k C(d-k, i-k) h_k where
    d = len(h) - 1, which the package used to export; an oracle here."""
    d = len(h) - 1
    return tuple(sum(comb(d - k, i - k) * h[k] for k in range(i + 1)) for i in range(d + 1))


class TestHFConversions:
    @pytest.mark.parametrize(
        "f, d, h",
        [
            ((1, 6, 6), 2, (1, 4, 1)),
            ((1, 4, 3), 2, (1, 2, 0)),
            ((1,), 0, (1,)),
        ],
    )
    def test_h_from_f(self, f, d, h):
        assert len(f) == d + 1 and h_from_f(f) == h

    @pytest.mark.parametrize(
        "h, d, f",
        [
            ((1, 4, 1), 2, (1, 6, 6)),
            ((1, 2, 0), 2, (1, 4, 3)),
        ],
    )
    def test_f_from_h(self, h, d, f):
        assert len(h) == d + 1 and f_from_h(h) == f

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_simplex_pattern(self, d):
        h = (1,) + (0,) * d
        assert f_from_h(h) == tuple(comb(d, i) for i in range(d + 1))

    @given(st.integers(0, 6).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.integers(-50, 50), min_size=d, max_size=d))))
    def test_round_trip(self, d_and_tail):
        d, tail = d_and_tail
        f = (1, *tail)
        assert f_from_h(h_from_f(f)) == f
