import random
import time
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from conftest import adjacent, edge_pairs, graph_from_pairs
from families import thin_staircase

from rooklab import (
    NotApplicableError,
    ShapeRecord,
    SimpleGraph,
    attack_graph,
    brush_fh,
    check_reg_eq_nu,
    check_sigma_identities,
    complement_graph,
    f_vector,
    h_from_f,
    induced_matching_number,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    pure_brush_realizations,
    regularity_pure_thin,
    shape_predicates,
    single_cell_runs,
)
from rooklab.census import _SIGMA_SAMPLES, _SIGMA_SEED
from rooklab.graphs import bits
from rooklab.regularity import (
    MatchingCertificate,
    _elementary_symmetric_all,
    _verify_induced_matching,
)

SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
SQUARE = parse_ascii("##\n##")

# A pure brush with two bristles of length 3: one up, one down.
BRUSH_33 = parse_cells([(0, 0), (0, 1), (0, 2), (1, 0), (1, -1), (1, -2)])
# A pure brush with bristle lengths (3, 2, 2).
BRUSH_322 = parse_cells(
    [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, -1), (2, 1)]
)


def _expansion(values):
    """e_0..e_d of the d values, each a sum of products over k-subsets."""
    return [sum(_prod(sub) for sub in combinations(values, k)) for k in range(len(values) + 1)]


class TestElementarySymmetric:
    def test_degree_zero(self):
        assert _elementary_symmetric_all([7, 8, 9])[0] == 1
        assert _elementary_symmetric_all([])[0] == 1

    def test_pairs(self):
        assert _elementary_symmetric_all([2, 3, 4])[2] == 26

    def test_exceeds_arity(self):
        # e_0..e_3 and nothing past the arity, where every e_k is 0.
        assert _elementary_symmetric_all([1, 2, 3]) == [1, 6, 11, 6]

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=7))
    def test_matches_expansion(self, values):
        assert _elementary_symmetric_all(values) == _expansion(values)

    def test_one_pass_matches_each_k_on_the_sigma_samples(self):
        # The length vectors the sigma-identities check draws, with the two
        # shifts it and brush_fh take.
        rng = random.Random(_SIGMA_SEED)
        for _ in range(_SIGMA_SAMPLES):
            d = rng.randint(1, 8)
            lengths = [rng.randint(2, 9) for _ in range(d)]
            for shift in (0, 1, 2):
                values = [v - shift for v in lengths]
                assert _elementary_symmetric_all(values) == _expansion(values), values

    def test_one_pass_of_nothing(self):
        assert _elementary_symmetric_all([]) == [1]


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out


def _sigma_triple(lengths, k):
    """e_k of the lengths, of the lengths minus one and minus two, as
    ``check_sigma_identities`` and ``brush_fh`` read them off one pass each."""
    return tuple(_elementary_symmetric_all([v - shift for v in lengths])[k] for shift in (0, 1, 2))


class TestSigmaTriples:
    def test_worked_pairs(self):
        assert _sigma_triple((2, 2), 1) == (4, 2, 0)
        assert _sigma_triple((3, 3), 2) == (9, 4, 1)

    def test_k_zero(self):
        assert _sigma_triple((5, 7, 2), 0) == (1, 1, 1)


class TestSigmaIdentities:
    @pytest.mark.parametrize("lengths", [(2, 2), (3, 4, 5), (2,), (9, 9, 9, 9)])
    def test_examples(self, lengths):
        assert check_sigma_identities(lengths)

    def test_seeded_samples(self):
        import random

        rng = random.Random(20240816)
        for _ in range(500):
            d = rng.randint(1, 8)
            assert check_sigma_identities(tuple(rng.randint(2, 9) for _ in range(d)))

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=8))
    def test_property(self, lengths):
        assert check_sigma_identities(lengths)


class TestBrushFH:
    @pytest.mark.parametrize(
        "lengths, f, h",
        [
            ((2, 2), (1, 4, 3), (1, 2, 0)),
            ((3, 3), (1, 6, 8), (1, 4, 3)),
            ((2,), (1, 2), (1, 1)),
        ],
    )
    def test_worked_cases(self, lengths, f, h):
        vectors = brush_fh(lengths)
        assert vectors.f == f and vectors.h == h

    def test_domino_realizes_degenerate_case(self):
        domino = parse_cells([(0, 0), (1, 0)])
        rc = f_vector(attack_graph(domino))
        assert rc.f_vector == brush_fh((2,)).f
        assert h_from_f(rc.f_vector) == brush_fh((2,)).h

    def test_brush_33_matches_brute_force(self):
        rc = f_vector(attack_graph(BRUSH_33))
        vectors = brush_fh((3, 3))
        assert rc.f_vector == vectors.f
        assert h_from_f(rc.f_vector) == vectors.h

    @pytest.mark.parametrize("lengths", [(2, 3), (2, 2, 2), (4, 2), (3, 3, 2)])
    def test_realizations_match_brute_force(self, lengths):
        shapes = pure_brush_realizations(lengths)
        assert shapes
        expected = brush_fh(lengths)
        for poly in shapes:
            rc = f_vector(attack_graph(poly))
            assert rc.f_vector == expected.f
            assert h_from_f(rc.f_vector) == expected.h

    def test_realizations_match_offset_search(self, brush_offset_realizations):
        for d in range(1, 5):
            for lengths in combinations_with_replacement(range(2, 6), d):
                found = [p.sorted_cells for p in pure_brush_realizations(lengths)]
                assert found == brush_offset_realizations(lengths), lengths

    def test_rejects_short_entries(self):
        with pytest.raises(ValueError):
            brush_fh((1, 2))


@pytest.mark.parametrize(
    "call",
    [brush_fh, check_sigma_identities],
    ids=["brush_fh", "check_sigma_identities"],
)
@pytest.mark.parametrize("lengths", [(2.9, 3), (3.0, 3), ("3", 3), (True, 3), (3, None)])
def test_lengths_must_be_ints(call, lengths):
    # Nothing is truncated or converted: (2.9, 3) is not read as (2, 3).
    with pytest.raises(ValueError):
        call(lengths)


def _union(edge_masks, vertex_mask):
    out = 0
    for v in bits(vertex_mask):
        out |= edge_masks[v]
    return out


def _edge_indexed_matching(graph):
    """The induced-matching search the package used to run, kept as an
    oracle: edges numbered in sorted pair order, one conflict mask per edge
    (the edges with an end in the closed neighbourhood of either of its
    ends), and "include, then exclude the lowest available edge", pruned by
    the same clique family with each member as the mask of the edges that
    meet it. Its first maximum leaf must be the package's certificate."""
    masks = graph.masks
    ends = [(i, j) for i, mask in enumerate(masks) for j in bits(mask >> i << i)]
    if not ends:
        return MatchingCertificate((), 0)
    incident = [0] * graph.n
    for e, (i, j) in enumerate(ends):
        incident[i] |= 1 << e
        incident[j] |= 1 << e
    closed = [mask | (1 << i) for i, mask in enumerate(masks)]
    near = [_union(incident, c) for c in closed]
    conflict = [(near[i] | near[j]) & ~(1 << e) for e, (i, j) in enumerate(ends)]
    member_of, meets = [0] * graph.n, []
    for common in dict.fromkeys(closed[i] & closed[j] for i, j in ends):
        if all(closed[v] & common == common for v in bits(common)):
            for v in bits(common):
                member_of[v] |= 1 << len(meets)
            meets.append(_union(incident, common))
    for v, of in enumerate(member_of):
        if of.bit_count() < 2:
            member_of[v] |= 1 << len(meets)
            meets.append(incident[v])
    least = min((member_of[i] | member_of[j]).bit_count() for i, j in ends)
    best_size, best_mask = 0, 0

    def expand(avail, chosen, size):
        nonlocal best_size, best_mask
        while avail:
            if len([1 for edge_mask in meets if edge_mask & avail]) // least <= best_size - size:
                return
            b = avail & -avail
            expand(avail & ~conflict[b.bit_length() - 1] & ~b, chosen | b, size + 1)
            avail &= ~b
        if size > best_size:
            best_size, best_mask = size, chosen

    expand((1 << len(ends)) - 1, 0, 0)
    vs = graph.vertices
    picked = tuple(sorted((vs[ends[e][0]], vs[ends[e][1]]) for e in bits(best_mask)))
    return MatchingCertificate(picked, best_size)


class TestInducedMatching:
    def test_skew(self):
        assert induced_matching_number(attack_graph(SKEW)).size == 1

    def test_brush_33(self):
        assert induced_matching_number(attack_graph(BRUSH_33)).size == 2

    # From n = 46 a 1 x n line has more edges than the default recursion
    # limit, so the exclude step must not recurse once per edge; at n = 300
    # a state indexed by the 44,850 edges took seconds and hundreds of MB.
    @pytest.mark.parametrize("n", [2, 3, 5, *range(46, 61), 100, 200, 300])
    def test_single_clique(self, n):
        bar = parse_cells([(x, 0) for x in range(n)])
        assert induced_matching_number(attack_graph(bar)).size == 1

    def test_long_path_does_not_hit_the_recursion_limit(self):
        # The search holds one frame per matched edge, and nu = 1,100 is
        # past the interpreter's default recursion limit of 1,000.
        poly = thin_staircase(3300)
        cert = induced_matching_number(attack_graph(poly))
        cells = poly.sorted_cells
        assert cert.size == 1100
        assert cert.edges == tuple((cells[3 * k], cells[3 * k + 1]) for k in range(1100))

    def test_empty_graph(self):
        cert = induced_matching_number(attack_graph(parse_cells([(0, 0)])))
        assert cert.size == 0 and cert.edges == ()

    def test_graph_without_lines_raises(self, attack_pairs):
        # The centre-line bound reads the attack graph's lines; the same
        # masks without them, a complement or an oracle graph from the
        # pairwise attacks have none.
        g = attack_graph(SKEW)
        bare = SimpleGraph(g.vertices, g.masks)
        pairs = graph_from_pairs(SKEW.cells, attack_pairs(SKEW))
        for other in (bare, pairs, complement_graph(g)):
            with pytest.raises(ValueError, match="needs an attack graph"):
                induced_matching_number(other)

    def test_matches_edge_indexed_search_on_census(self, census10):
        for poly in (p for p in census10 if p.rank <= 9):
            for convention in ("interval", "line"):
                g = attack_graph(poly, convention)
                assert induced_matching_number(g) == _edge_indexed_matching(g), (poly, convention)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_matches_edge_indexed_search_on_boards(self, n):
        g = attack_graph(parse_cells([(x, y) for x in range(n) for y in range(n)]))
        cert = induced_matching_number(g)
        assert cert == _edge_indexed_matching(g)
        assert cert.size == 2 * n // 3

    def test_at_least_is_a_witness_or_exact_on_census(self, census10):
        # For each k up to nu the search ends at a verified induced matching
        # of at least k edges; above nu it finds no such leaf, runs to the
        # end and returns the exact certificate.
        for poly in census10:
            for convention in ("interval", "line"):
                g = attack_graph(poly, convention)
                exact = induced_matching_number(g)
                for k in range(exact.size + 2):
                    cert = induced_matching_number(g, at_least=k)
                    if k > exact.size:
                        assert cert == exact, (poly, convention, k)
                    else:
                        assert k <= cert.size <= exact.size, (poly, convention, k)
                        vs = g.vertices
                        _verify_induced_matching(g, [(vs.index(u), vs.index(v)) for u, v in cert.edges])

    def test_at_least_stops_at_the_first_leaf_of_that_size(self):
        # The staircase's attack graph is the path c0-c1-...-c6 on its
        # sorted cells: the greedy first leaf {c0c1, c3c4} has two edges,
        # and nu = 2 is first met by that leaf. On the monomino, a graph
        # without edges, the only leaf is empty.
        poly = thin_staircase(7)
        g, c = attack_graph(poly), poly.sorted_cells
        assert induced_matching_number(g, at_least=1).edges == ((c[0], c[1]), (c[3], c[4]))
        assert induced_matching_number(g, at_least=3) == induced_matching_number(g)
        empty = attack_graph(parse_cells([(0, 0)]))
        assert induced_matching_number(empty, at_least=1) == MatchingCertificate((), 0)

    def test_board_formula(self):
        # The m x n board's line incidence graph is K_{m,n}, and each matched
        # pair uses three lines, at least one of each orientation.
        for m in range(1, 13):
            for n in range(1, 13):
                g = attack_graph(parse_cells([(x, y) for x in range(n) for y in range(m)]))
                assert induced_matching_number(g).size == min(m, n, (m + n) // 3), (m, n)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_thin_rectangles_are_fast(self, m, n):
        g = attack_graph(parse_cells([(x, y) for x in range(n) for y in range(m)]))
        start = time.perf_counter()
        cert = induced_matching_number(g)
        assert time.perf_counter() - start < 0.1
        assert cert.size == m

    @staticmethod
    def _oracle(g):
        edges = edge_pairs(g)
        best = 0
        # Matched edges have distinct endpoints, so at most n // 2 fit.
        for r in range(min(len(edges), g.n // 2), 0, -1):
            if r <= best:
                break
            for sub in combinations(edges, r):
                matched = [v for e in sub for v in e]
                if len(set(matched)) != len(matched):
                    continue
                chosen = {frozenset(e) for e in sub}
                if all(
                    not adjacent(g, u, v) or frozenset((u, v)) in chosen
                    for u, v in combinations(matched, 2)
                ):
                    best = max(best, r)
                    break
        return best

    def test_matches_oracle_on_census(self, census5):
        for poly in census5:
            for convention in ("interval", "line"):
                g = attack_graph(poly, convention)
                cert = induced_matching_number(g)
                assert cert.size == self._oracle(g), (poly, convention)

    def test_same_on_every_dihedral_image(self, census8, dihedral_images):
        for poly in (p for p in census8 if p.rank <= 7):
            for convention in ("interval", "line"):
                sizes = {
                    induced_matching_number(attack_graph(image, convention)).size
                    for image in dihedral_images(poly)
                }
                assert len(sizes) == 1, (poly, convention, sizes)

    def test_verifier_rejects_bad_certificates(self):
        # On the path a-b-c-d, at vertex positions 0-1-2-3: the edge bc
        # joins ab and cd, the pairs ab and bc share b, and ac is no edge.
        g = graph_from_pairs("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        _verify_induced_matching(g, [(0, 1)])
        _verify_induced_matching(g, [(2, 3)])
        for pairs in ([(0, 1), (2, 3)], [(0, 1), (1, 2)], [(0, 2)]):
            with pytest.raises(RuntimeError):
                _verify_induced_matching(g, pairs)

    def test_certificate_is_induced(self, census5):
        for poly in census5:
            g = attack_graph(poly)
            cert = induced_matching_number(g)
            matched = [v for e in cert.edges for v in e]
            assert len(set(matched)) == len(matched)
            chosen = {frozenset(e) for e in cert.edges}
            for u, v in combinations(matched, 2):
                if adjacent(g, u, v):
                    assert frozenset((u, v)) in chosen


def is_interval_matching(poly, edges):
    """Interval-level validation view of an induced matching.

    The edges must be pairwise disjoint attacking pairs, each inside its
    maximal interval, and no interval may cross two of those intervals
    inside the matched pairs. This is implied by the graph-level
    definition but is strictly weaker: a foreign matched endpoint lying
    on the same interval as a pair, beyond it, is not detected here.
    """
    ivs = maximal_intervals(poly)
    graph = attack_graph(poly)
    matched = set()
    homes = []
    pairs = []
    for a, b in edges:
        if a in matched or b in matched or a == b:
            return False
        matched |= {a, b}
        if not adjacent(graph, a, b):
            return False
        home = [iv for iv in ivs if a in iv.cells and b in iv.cells]
        if len(home) != 1:
            return False
        homes.append(home[0])
        pairs.append(frozenset((a, b)))
    for j in range(len(edges)):
        for k in range(j + 1, len(edges)):
            for connector in ivs:
                meets_j = frozenset(connector.cells) & frozenset(homes[j].cells)
                meets_k = frozenset(connector.cells) & frozenset(homes[k].cells)
                if meets_j and meets_k and meets_j <= pairs[j] and meets_k <= pairs[k]:
                    return False
    return True


class TestIntervalMatchingView:
    def _graph_level(self, g, edges):
        matched = [v for e in edges for v in e]
        if len(set(matched)) != len(matched):
            return False
        if not all(adjacent(g, a, b) for a, b in edges):
            return False
        chosen = {frozenset(e) for e in edges}
        return all(
            not adjacent(g, u, v) or frozenset((u, v)) in chosen
            for u, v in combinations(matched, 2)
        )

    def test_graph_level_implies_interval_level(self, census6):
        for poly in census6:
            if not shape_predicates(poly).thin:
                continue
            g = attack_graph(poly)
            edges = edge_pairs(g)
            for r in (1, 2):
                for sub in combinations(edges, r):
                    if self._graph_level(g, sub):
                        assert is_interval_matching(poly, sub)

    def test_converse_fails_on_census(self, census6):
        # The interval-level view is strictly weaker: a matched endpoint
        # further along a pair's own interval escapes it. The witness is
        # the L shape made of a 4-run and one vertical domino at its end.
        counterexamples = []
        for poly in census6:
            if not shape_predicates(poly).thin:
                continue
            g = attack_graph(poly)
            edges = edge_pairs(g)
            for sub in combinations(edges, 2):
                if is_interval_matching(poly, sub) and not self._graph_level(g, sub):
                    counterexamples.append((poly, sub))
        assert counterexamples

    def test_explicit_counterexample(self):
        hook = parse_cells([(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)])
        edges = (((0, 0), (1, 0)), ((3, 0), (3, 1)))
        g = attack_graph(hook)
        assert is_interval_matching(hook, edges)
        assert adjacent(g, (1, 0), (3, 0))  # extra edge the view misses


def single_cell_intervals(poly):
    return [poly.interval(*run) for run in single_cell_runs(ShapeRecord(poly))]


class TestSingleCellIntervals:
    def test_straight_interval(self):
        bar = parse_ascii("####")
        assert single_cell_intervals(bar) == list(maximal_intervals(bar))

    def test_skew_has_none(self):
        assert single_cell_intervals(SKEW) == []

    def test_brush_33_has_both_bristles(self):
        singles = single_cell_intervals(BRUSH_33)
        assert len(singles) == 2
        assert all(len(iv.cells) == 3 for iv in singles)

    def test_monomino_raises(self):
        with pytest.raises(NotApplicableError, match="rank 1 has no maximal intervals"):
            single_cell_intervals(parse_cells([(0, 0)]))


class TestRegularity:
    def test_skew(self):
        assert regularity_pure_thin(ShapeRecord(SKEW)) == 1

    def test_monomino(self):
        assert regularity_pure_thin(ShapeRecord(parse_cells([(0, 0)]))) == 0

    def test_brush_33(self):
        assert regularity_pure_thin(ShapeRecord(BRUSH_33)) == 2

    def test_not_thin_rejected(self):
        with pytest.raises(NotApplicableError, match="needs a simple thin polyomino"):
            regularity_pure_thin(ShapeRecord(SQUARE))

    def test_not_pure_rejected(self):
        with pytest.raises(NotApplicableError, match="needs a pure rook complex"):
            regularity_pure_thin(ShapeRecord(L_TROMINO))


class TestRegEqNu:
    def test_skew(self):
        rep = check_reg_eq_nu(ShapeRecord(SKEW))
        assert (rep.regularity, rep.nu, rep.single_interval_count) == (1, 1, 0)
        assert rep.consistent

    def test_brush_33(self):
        rep = check_reg_eq_nu(ShapeRecord(BRUSH_33))
        assert (rep.regularity, rep.nu, rep.single_interval_count) == (2, 2, 2)
        assert rep.consistent

    def test_brush_322_mixed_case(self):
        rep = check_reg_eq_nu(ShapeRecord(BRUSH_322))
        assert rep.regularity == rep.nu == 2
        assert rep.consistent

    def test_rejects_non_brush(self):
        with pytest.raises(NotApplicableError, match="not a pure brush polyomino"):
            check_reg_eq_nu(ShapeRecord(L_TROMINO))
