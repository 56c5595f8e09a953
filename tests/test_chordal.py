import hashlib
from itertools import combinations

import pytest

import families
from conftest import adjacent, graph_from_pairs

from rooklab import (
    NotApplicableError,
    ShapeRecord,
    attack_graph,
    brush_decomposition,
    classify_chordality,
    complement_graph,
    free_census,
    induced_cycle_lengths,
    is_chordal,
    parse_ascii,
    parse_cells,
)
from rooklab.census import _is_chordless_complement_cycle
from rooklab.graphs import bits
from rooklab.record import GraphRecord

SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
RECT_2X3 = parse_ascii("###\n###")
SQUARE = parse_ascii("##\n##")
P_PENTOMINO = parse_cells([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
T_COMB = parse_cells([(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (2, 1), (2, 2)])


def graph(n, edges):
    return graph_from_pairs(range(n), edges)


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def _mcs_order(graph):
    """Maximum cardinality search on ``graph`` itself, as vertex positions,
    ties broken by vertex order: the dense search the package ran on the
    complement before it searched the attack graph, kept as the oracle."""
    weight = [0] * graph.n
    by_weight = [(1 << graph.n) - 1] + [0] * graph.n  # unnumbered vertices by weight
    top, numbered, order = 0, 0, []
    for _ in range(graph.n):
        while not by_weight[top]:
            top -= 1
        v = (by_weight[top] & -by_weight[top]).bit_length() - 1
        order.append(v)
        by_weight[top] ^= 1 << v
        numbered |= 1 << v
        rest = graph.masks[v] & ~numbered
        top += 1
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            by_weight[weight[u]] ^= 1 << u
            weight[u] += 1
            by_weight[weight[u]] |= 1 << u
    return order


def _is_perfect_elimination(graph, elim):
    """Whether in ``elim`` every vertex's later neighbours are all adjacent
    to the first of them."""
    later_than = (1 << graph.n) - 1
    for p, v in enumerate(elim):
        later_than ^= 1 << v
        later = graph.masks[v] & later_than
        if later:
            for w in elim[p + 1 :]:
                if later >> w & 1:
                    break
            if later & ~(1 << w) & ~graph.masks[w]:
                return False
    return True


def _dense_verdict(graph):
    """The oracle's verdict on ``graph`` with its elimination order as
    vertices, or None when it is not chordal."""
    elim = _mcs_order(graph)[::-1]
    if not _is_perfect_elimination(graph, elim):
        return False, None
    return True, tuple(graph.vertices[v] for v in elim)


def _path_search_cycle_lengths(g, max_len):
    """Induced cycle lengths up to ``max_len`` by growing induced paths
    from each cycle's least vertex until one closes at it; the census's
    search before middle paths, kept as an oracle."""
    lengths = set()
    masks = g.masks

    def extend(start, above, path, first, last, interior, size):
        # ``interior`` holds the neighbours of the path's inner vertices.
        for w in bits(masks[last] & above & ~path & ~interior):
            if size >= 2 and masks[w] >> start & 1:
                if first < w:
                    lengths.add(size + 1)
                continue
            if size + 1 < max_len:
                extend(
                    start,
                    above,
                    path | (1 << w),
                    w if size == 1 else first,
                    w,
                    interior | masks[last] if size >= 2 else 0,
                    size + 1,
                )

    full = (1 << g.n) - 1
    for s in range(g.n):
        extend(s, full >> (s + 1) << (s + 1), 1 << s, -1, s, 0, 1)
    return {l for l in lengths if l <= max_len}


def _brute_cycle_lengths(g, max_len):
    """Sizes of the vertex subsets, up to ``max_len``, that induce a
    cycle: connected, with every vertex adjacent to exactly two others."""
    masks = g.masks
    lengths = set()
    for r in range(3, min(max_len, g.n) + 1):
        for sub in combinations(range(g.n), r):
            inside = sum(1 << v for v in sub)
            if any((masks[v] & inside).bit_count() != 2 for v in sub):
                continue
            reached, frontier = 1 << sub[0], 1 << sub[0]
            while frontier:
                grown = 0
                for v in bits(frontier):
                    grown |= masks[v] & inside
                frontier = grown & ~reached
                reached |= grown
            if reached == inside:
                lengths.add(r)
    return lengths


class TestComplementGraph:
    def test_square_complement_is_two_edges(self):
        comp = complement_graph(attack_graph(SQUARE))
        assert comp.edges == frozenset(
            {frozenset({(0, 0), (1, 1)}), frozenset({(0, 1), (1, 0)})}
        )

    def test_rectangle_complement_is_hexagon(self):
        comp = complement_graph(attack_graph(RECT_2X3))
        assert all(mask.bit_count() == 2 for mask in comp.masks)
        assert induced_cycle_lengths(comp, 6) == {6}

    def test_complete_graph(self):
        comp = complement_graph(graph(4, [(i, j) for i, j in combinations(range(4), 2)]))
        assert comp.edges == frozenset()

    def test_p_pentomino_complement_is_a_path(self):
        # Five cells, four complement edges forming the chordal path
        # (1,0) - (0,1) - (2,0) - (1,1) - (0,0).
        comp = complement_graph(attack_graph(P_PENTOMINO))
        assert comp.edges == frozenset(
            {
                frozenset({(0, 0), (1, 1)}),
                frozenset({(0, 1), (1, 0)}),
                frozenset({(2, 0), (1, 1)}),
                frozenset({(2, 0), (0, 1)}),
            }
        )
        assert is_chordal(comp).chordal


class TestIsChordal:
    def test_path_chordal(self):
        res = is_chordal(graph(4, [(0, 1), (1, 2), (2, 3)]))
        assert res.chordal
        assert res.elimination_order is not None

    def test_hexagon_not_chordal(self):
        res = is_chordal(cycle_graph(6))
        assert not res.chordal
        assert len(res.chordless_cycle) == 6

    def test_rectangle_complement_witness(self):
        res = is_chordal(complement_graph(attack_graph(RECT_2X3)))
        assert not res.chordal
        assert len(res.chordless_cycle) == 6

    def test_witness_cycle_is_chordless(self):
        for n in range(4, 9):
            res = is_chordal(cycle_graph(n))
            cyc = res.chordless_cycle
            g = cycle_graph(n)
            for i, u in enumerate(cyc):
                for j in range(i + 1, len(cyc)):
                    consecutive = j - i == 1 or (i == 0 and j == len(cyc) - 1)
                    assert adjacent(g, u, cyc[j]) == consecutive

    def test_witnesses_unchanged_on_census(self, census10):
        # The digest of every verdict with its elimination order or its
        # chordless cycle, on the complements of the census to rank 10 under
        # both conventions, as the eager cycle search gave them.
        digest = hashlib.sha256()
        for poly in census10:
            for convention in ("interval", "line"):
                res = is_chordal(complement_graph(attack_graph(poly, convention)))
                digest.update(repr((res.chordal, res.elimination_order, res.chordless_cycle)).encode())
        assert digest.hexdigest() == "a55179b602616a1f97af0fea976dd16b302d8c802017c83f0ebddb8bc6f96497"

    def test_cycle_is_searched_when_first_read(self, monkeypatch):
        import rooklab.chordal

        calls = []
        search = rooklab.chordal._shortest_chordless_cycle
        monkeypatch.setattr(rooklab.chordal, "_shortest_chordless_cycle", lambda g: calls.append(g) or search(g))
        chordal_res, res = is_chordal(graph(3, [(0, 1)])), is_chordal(cycle_graph(5))
        assert chordal_res.chordless_cycle is None and not calls
        assert len(res.chordless_cycle) == 5 and len(res.chordless_cycle) == 5
        assert calls == [cycle_graph(5)]

    @staticmethod
    def _brute_chordal(g):
        # A graph is chordal iff no vertex subset induces a cycle >= 4.
        vs = list(g.vertices)
        for r in range(4, len(vs) + 1):
            for sub in combinations(vs, r):
                if not all(
                    sum(1 for u in sub if u != v and adjacent(g, u, v)) == 2 for v in sub
                ):
                    continue
                start = sub[0]
                prev, cur, seen = None, start, {start}
                while True:
                    nxt = [u for u in sub if u not in (cur, prev) and adjacent(g, u, cur)]
                    if not nxt:
                        break
                    prev, cur = cur, nxt[0]
                    if cur == start:
                        break
                    seen.add(cur)
                if cur == start and len(seen) == r:
                    return False
        return True

    def test_matches_brute_force_on_census_graphs(self, census6):
        for poly in census6:
            g = attack_graph(poly)
            for candidate in (g, complement_graph(g)):
                assert is_chordal(candidate).chordal == self._brute_chordal(candidate)

    def test_matches_brute_force_on_small_graphs(self):
        import random

        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 7)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            g = graph(n, edges)
            assert is_chordal(g).chordal == self._brute_chordal(g)

    def test_matches_brute_force_on_ten_vertex_graphs(self):
        import random

        rng = random.Random(11)
        candidates = [cycle_graph(10)]
        for _ in range(8):
            edges = [e for e in combinations(range(10), 2) if rng.random() < 0.3]
            candidates.append(graph(10, edges))
        for g in candidates:
            assert is_chordal(g).chordal == self._brute_chordal(g)


class TestSearchOnTheAttackGraph:
    # ``GraphRecord.chordality`` runs maximum cardinality search of the
    # complement as a minimum cardinality search on the attack graph and
    # checks the order as it goes; the oracle builds the complement and
    # runs the dense search and the elimination check on it.
    @staticmethod
    def _agrees(poly, convention):
        rec = GraphRecord(poly, convention)
        res = rec.chordality
        assert (res.chordal, res.elimination_order) == _dense_verdict(complement_graph(rec.attack)), (
            poly,
            convention,
        )
        return res.chordal

    @pytest.mark.parametrize("convention", ["interval", "line"])
    def test_census_to_rank_ten(self, census10, convention):
        chordal = sum(self._agrees(poly, convention) for poly in census10)
        assert chordal == {"interval": 228, "line": 87}[convention]

    @pytest.mark.parametrize("convention", ["interval", "line"])
    def test_families(self, convention):
        shapes = (
            [families.board(m, n) for m in range(1, 7) for n in range(m, 8)]
            + [families.board(15, 20), families.holed_board(7, 3), families.holed_board(13, 5)]
            + [families.thin_staircase(n) for n in (*range(1, 13), 41, 200)]
            + [families.comb(teeth) for teeth in (*range(1, 8), 40, 150)]
            + [families.spiral(turns) for turns in (*range(1, 11), 16, 24)]
        )
        verdicts = [self._agrees(poly, convention) for poly in shapes]
        assert any(verdicts) and not all(verdicts)

    def test_is_chordal_matches_the_oracle_on_random_graphs(self):
        import random

        rng = random.Random(36)
        for _ in range(600):
            n, density = rng.randint(1, 12), rng.uniform(0.1, 0.95)
            g = graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
            res = is_chordal(g)
            assert (res.chordal, res.elimination_order) == _dense_verdict(g), g.masks

    def test_board_100_by_100(self):
        # Simple, not thin and not exceptional: no chordal complement. The
        # dense search took over a minute here; the search on the attack
        # graph stops at its first failing vertex.
        poly = families.board(100, 100)
        res = GraphRecord(poly).chordality
        assert not res.chordal and res.elimination_order is None
        assert _is_chordless_complement_cycle(poly, res.chordless_cycle)
        assert len(res.chordless_cycle) == 4

    def test_spiral_of_100_turns(self):
        # Simple and thin but no brush: no chordal complement.
        poly = families.spiral(100)
        assert poly.rank == 5101
        res = GraphRecord(poly).chordality
        assert not res.chordal and res.elimination_order is None
        assert _is_chordless_complement_cycle(poly, res.chordless_cycle)

    def test_comb_of_300_teeth(self):
        # A short brush: the complement is chordal, and the order passes
        # the dense elimination check on the complement.
        poly = families.comb(300)
        rec = GraphRecord(poly)
        order = rec.chordality.elimination_order
        comp = complement_graph(rec.attack)
        assert sorted(order) == list(poly.sorted_cells)
        position = {cell: i for i, cell in enumerate(poly.sorted_cells)}
        assert _is_perfect_elimination(comp, [position[cell] for cell in order])


class TestInducedCycleLengths:
    def test_hexomino_complement(self):
        comp = complement_graph(attack_graph(RECT_2X3))
        assert induced_cycle_lengths(comp, 6) == {6}

    def test_3x3_square_complement_contains_4(self):
        square3 = parse_cells([(x, y) for x in range(3) for y in range(3)])
        comp = complement_graph(attack_graph(square3))
        assert 4 in induced_cycle_lengths(comp, 9)

    def test_chordal_graphs_have_only_triangles(self, census6):
        for poly in census6:
            g = attack_graph(poly)
            res = is_chordal(g)
            if res.chordal:
                assert induced_cycle_lengths(g, max(poly.rank, 3)) <= {3}

    def test_max_len_pre(self):
        with pytest.raises(ValueError):
            induced_cycle_lengths(cycle_graph(4), 2)

    def test_cycle_graphs(self):
        for k in range(4, 13):
            g = cycle_graph(k)
            assert induced_cycle_lengths(g, k) == {k}
            assert induced_cycle_lengths(g, k - 1) == set()
            assert induced_cycle_lengths(g, 3) == set()

    def test_max_len_bounds_the_lengths(self):
        # A triangle 0-1-2, a 4-cycle 2-3-4-5 through its vertex 2, and a
        # 5-cycle 4-5-6-7-8 sharing the edge 4-5 with the 4-cycle.
        g = graph(9, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 2),
                      (5, 6), (6, 7), (7, 8), (8, 4)])
        assert induced_cycle_lengths(g, 3) == {3}
        assert induced_cycle_lengths(g, 4) == {3, 4}
        assert induced_cycle_lengths(g, 9) == {3, 4, 5}
        assert induced_cycle_lengths(cycle_graph(5), 3) == set()

    def test_matches_brute_force_on_census_graphs(self):
        for poly in free_census(7):
            g = attack_graph(poly)
            for candidate in (g, complement_graph(g)):
                for max_len in (3, 4, 6, max(poly.rank, 3)):
                    assert induced_cycle_lengths(candidate, max_len) == _brute_cycle_lengths(
                        candidate, max_len
                    ), (poly, max_len)

    def test_matches_brute_force_on_random_graphs(self):
        import random

        rng = random.Random(12)
        for _ in range(400):
            n, density = rng.randint(1, 9), rng.uniform(0.15, 0.8)
            g = graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
            for max_len in (3, 4, 5, 7, max(n, 3)):
                assert induced_cycle_lengths(g, max_len) == _brute_cycle_lengths(g, max_len), (
                    g.masks,
                    max_len,
                )

    def test_matches_path_search_on_census_complements(self, census10):
        for poly in census10:
            comp = complement_graph(attack_graph(poly))
            max_len = max(poly.rank, 3)
            assert induced_cycle_lengths(comp, max_len) == _path_search_cycle_lengths(
                comp, max_len
            ), poly


class TestBrushDecomposition:
    def test_skew(self):
        brush = brush_decomposition(ShapeRecord(SKEW))
        assert brush.handle.cells == ((1, 0), (1, 1))
        assert [iv.cells for iv in brush.bristles] == [
            ((0, 0), (1, 0)),
            ((1, 1), (2, 1)),
        ]
        assert brush.lengths == (2, 2)
        assert brush.short and brush.pure_brush and brush.d == 2

    def test_l_tromino(self):
        brush = brush_decomposition(ShapeRecord(L_TROMINO))
        assert brush.handle.cells == ((0, 0), (1, 0))
        assert brush.lengths == (2,)
        assert brush.short and not brush.pure_brush

    def test_t_comb_long_bristles(self):
        brush = brush_decomposition(ShapeRecord(T_COMB))
        assert brush.lengths == (3, 3)
        assert not brush.short

    def test_straight_interval_has_no_bristles(self):
        bar = parse_ascii("####")
        brush = brush_decomposition(ShapeRecord(bar))
        assert brush.bristles == ()
        assert brush.short and not brush.pure_brush

    def test_square_rejected(self):
        with pytest.raises(NotApplicableError, match="brush recognition needs a simple thin polyomino"):
            brush_decomposition(ShapeRecord(SQUARE))

    def test_t_tetromino_prefers_short_handle(self):
        t = parse_cells([(0, 0), (1, 0), (2, 0), (1, 1)])
        brush = brush_decomposition(ShapeRecord(t))
        assert brush.lengths == (2,)
        assert brush.short

    def test_handle_preference_never_hides_short_or_pure(self, census8):
        # Re-derive every valid handle independently; the returned
        # decomposition must be short (resp. pure) whenever any valid
        # choice of handle is.
        from rooklab import f_vector, maximal_intervals, shape_predicates

        for poly in census8:
            if poly.rank < 2:
                continue
            preds = shape_predicates(poly)
            if not (preds.simple and preds.thin):
                continue
            ivs = maximal_intervals(poly)
            variants = []
            for handle in ivs:
                bristles = [iv for iv in ivs if iv != handle]
                if len(bristles) > handle.length:
                    continue
                if any(set(iv.cells).isdisjoint(handle.cells) for iv in bristles):
                    continue
                short = all(iv.length == 2 for iv in bristles)
                covered = set()
                disjoint = True
                for iv in bristles:
                    if covered & frozenset(iv.cells):
                        disjoint = False
                        break
                    covered |= frozenset(iv.cells)
                d = f_vector(poly).rook_number
                pure = (
                    bool(bristles)
                    and disjoint
                    and covered == set(poly.cells)
                    and handle.length == len(bristles) == d
                )
                variants.append((short, pure))
            chosen = brush_decomposition(ShapeRecord(poly))
            if not variants:
                assert chosen is None
                continue
            assert chosen.short == any(s for s, _ in variants)
            assert chosen.pure_brush == any(p for _, p in variants)


class TestClassifyChordality:
    def test_square_tetromino(self):
        rep = classify_chordality(ShapeRecord(SQUARE))
        assert rep.complement_chordal
        assert rep.category == "exceptional_nonthin"
        assert rep.consistent

    def test_p_pentomino(self):
        rep = classify_chordality(ShapeRecord(P_PENTOMINO))
        assert rep.complement_chordal
        assert rep.category == "exceptional_nonthin"
        assert rep.consistent

    def test_skew(self):
        rep = classify_chordality(ShapeRecord(SKEW))
        assert rep.complement_chordal and rep.category == "short_brush" and rep.consistent

    def test_rectangle(self):
        rep = classify_chordality(ShapeRecord(RECT_2X3))
        assert not rep.complement_chordal and rep.category == "other" and rep.consistent

    def test_monomino_degenerate(self):
        rep = classify_chordality(ShapeRecord(parse_cells([(0, 0)])))
        assert rep.complement_chordal and rep.category == "short_brush" and rep.consistent

    def test_non_simple_is_other(self):
        ring = parse_ascii("###\n#.#\n###")
        rep = classify_chordality(ShapeRecord(ring))
        assert not rep.complement_chordal and rep.category == "other" and rep.consistent


class TestChordalityConsequences:
    def test_chordal_complement_bounds_connectivity(self, census6, min_changes_of_direction):
        # With a chordal complement every pair of cells is reachable with
        # fewer than 3 changes of direction.
        for poly in census6:
            if not is_chordal(complement_graph(attack_graph(poly))).chordal:
                continue
            for a, b in combinations(poly.sorted_cells, 2):
                assert min_changes_of_direction(poly, a, b) < 3


def _is_complement_elimination_order(poly, order, attacking):
    """Whether ``order`` is a perfect elimination order of the attack-graph
    complement, with attacks given as pairs of sorted cells: a permutation
    of the cells in which each cell's later non-attacking cells pairwise
    do not attack."""
    if sorted(order) != sorted(poly.cells):
        return False

    def adjacent(u, v):
        return u != v and tuple(sorted((u, v))) not in attacking

    for i, v in enumerate(order):
        later = [u for u in order[i + 1 :] if adjacent(u, v)]
        if any(not adjacent(a, b) for a, b in combinations(later, 2)):
            return False
    return True


class TestDihedralImages:
    def test_elimination_order_check_rejects_a_bad_order(self, attack_pairs):
        # The P-pentomino's complement is the path (1,0)-(0,1)-(2,0)-(1,1)-(0,0).
        order = is_chordal(complement_graph(attack_graph(P_PENTOMINO))).elimination_order
        attacking = attack_pairs(P_PENTOMINO)
        assert _is_complement_elimination_order(P_PENTOMINO, order, attacking)
        interior_first = ((0, 1), (1, 0), (2, 0), (1, 1), (0, 0))
        assert not _is_complement_elimination_order(P_PENTOMINO, interior_first, attacking)
        assert not _is_complement_elimination_order(P_PENTOMINO, order[:-1], attacking)

    def test_chordality_and_brush_agree_on_every_image(self, dihedral_images, attack_pairs):
        # Every census shape to rank 7 in all 8 orientations: one chordality
        # verdict, each witness checked against attacks rebuilt from the
        # cells, and one brush verdict with the same bristle lengths up to
        # order on every brush: handle ties are broken by sorted lengths
        # before the orientation-dependent anchor (the L hexomino with arms
        # 4 and 3 has lengths (3,) in every orientation).
        def brush_key(rec):
            b = rec.brush
            return None if b is None else (tuple(sorted(b.lengths)), b.short, b.pure_brush)

        for poly in free_census(7):
            base = ShapeRecord(poly)
            for image in dihedral_images(poly):
                rec = ShapeRecord(image)
                chord = rec.chordality
                assert chord.chordal == base.chordality.chordal, image
                if chord.chordal:
                    assert _is_complement_elimination_order(
                        image, chord.elimination_order, attack_pairs(image)
                    ), image
                else:
                    assert _is_chordless_complement_cycle(image, chord.chordless_cycle), image
                assert brush_key(rec) == brush_key(base), image
