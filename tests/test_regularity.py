from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from rooklab import (
    IndexOutOfRangeError,
    NotApplicableError,
    NotPureBrushError,
    RankTooSmallError,
    ShapeRecord,
    SimpleGraph,
    attack_graph,
    brush_fh,
    check_reg_eq_nu,
    check_sigma_identities,
    elementary_symmetric,
    f_vector,
    h_from_f,
    induced_matching_number,
    maximal_intervals,
    parse_ascii,
    parse_cells,
    pure_brush_realizations,
    regularity_pure_thin,
    shape_predicates,
    sigma_triples,
    single_cell_intervals,
)
from rooklab.regularity import _verify_induced_matching

SKEW = parse_cells([(0, 0), (1, 0), (1, 1), (2, 1)])
L_TROMINO = parse_cells([(0, 0), (1, 0), (1, 1)])
SQUARE = parse_ascii("##\n##")

# A pure brush with two bristles of length 3: one up, one down.
BRUSH_33 = parse_cells([(0, 0), (0, 1), (0, 2), (1, 0), (1, -1), (1, -2)])
# A pure brush with bristle lengths (3, 2, 2).
BRUSH_322 = parse_cells(
    [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, -1), (2, 1)]
)


class TestElementarySymmetric:
    def test_degree_zero(self):
        assert elementary_symmetric(0, [7, 8, 9]) == 1
        assert elementary_symmetric(0, []) == 1

    def test_pairs(self):
        assert elementary_symmetric(2, [2, 3, 4]) == 26

    def test_exceeds_arity(self):
        assert elementary_symmetric(4, [1, 2, 3]) == 0

    def test_negative_k(self):
        with pytest.raises(ValueError):
            elementary_symmetric(-1, [1])

    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=7), st.integers(0, 7))
    def test_matches_expansion(self, values, k):
        expected = sum(_prod(sub) for sub in combinations(values, k))
        assert elementary_symmetric(k, values) == expected


def _prod(values):
    out = 1
    for v in values:
        out *= v
    return out


class TestSigmaTriples:
    def test_worked_pairs(self):
        t = sigma_triples((2, 2), 1)
        assert (t.sigma, t.sigma_prime, t.sigma_double) == (4, 2, 0)
        t = sigma_triples((3, 3), 2)
        assert (t.sigma, t.sigma_prime, t.sigma_double) == (9, 4, 1)

    def test_k_zero(self):
        t = sigma_triples((5, 7, 2), 0)
        assert (t.sigma, t.sigma_prime, t.sigma_double) == (1, 1, 1)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            sigma_triples((2, 2), 3)


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
        rc = f_vector(domino)
        assert rc.f_vector == brush_fh((2,)).f
        assert h_from_f(rc.f_vector, rc.rook_number) == brush_fh((2,)).h

    def test_brush_33_matches_brute_force(self):
        rc = f_vector(BRUSH_33)
        vectors = brush_fh((3, 3))
        assert rc.f_vector == vectors.f
        assert h_from_f(rc.f_vector, rc.rook_number) == vectors.h

    @pytest.mark.parametrize("lengths", [(2, 3), (2, 2, 2), (4, 2), (3, 3, 2)])
    def test_realizations_match_brute_force(self, lengths):
        shapes = pure_brush_realizations(lengths)
        assert shapes
        expected = brush_fh(lengths)
        for poly in shapes:
            rc = f_vector(poly)
            assert rc.f_vector == expected.f
            assert h_from_f(rc.f_vector, rc.rook_number) == expected.h

    def test_realizations_match_offset_search(self, brush_offset_realizations):
        for d in range(1, 5):
            for lengths in combinations_with_replacement(range(2, 6), d):
                found = [p.sorted_cells for p in pure_brush_realizations(lengths)]
                assert found == brush_offset_realizations(lengths), lengths

    def test_rejects_short_entries(self):
        with pytest.raises(ValueError):
            brush_fh((1, 2))


class TestInducedMatching:
    def test_skew(self):
        assert induced_matching_number(attack_graph(SKEW)).size == 1

    def test_brush_33(self):
        assert induced_matching_number(attack_graph(BRUSH_33)).size == 2

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_single_clique(self, n):
        bar = parse_cells([(x, 0) for x in range(n)])
        assert induced_matching_number(attack_graph(bar)).size == 1

    def test_empty_graph(self):
        g = SimpleGraph.from_pairs([1, 2, 3], [])
        cert = induced_matching_number(g)
        assert cert.size == 0 and cert.edges == ()

    @staticmethod
    def _oracle(g):
        edges = g.edge_pairs()
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
                    not g.adjacent(u, v) or frozenset((u, v)) in chosen
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

    @given(st.integers(2, 9), st.floats(0.2, 0.8), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_on_random_graphs(self, n, density, seed):
        # Random graphs have common neighbourhoods that are not cliques,
        # which the clique bound must leave out without losing validity.
        import random

        rng = random.Random(seed)
        edges = [e for e in combinations(range(n), 2) if rng.random() < density]
        g = SimpleGraph.from_pairs(range(n), edges)
        assert induced_matching_number(g).size == self._oracle(g)

    def test_same_on_every_dihedral_image(self, census8, dihedral_images):
        for poly in (p for p in census8 if p.rank <= 7):
            for convention in ("interval", "line"):
                sizes = {
                    induced_matching_number(attack_graph(image, convention)).size
                    for image in dihedral_images(poly)
                }
                assert len(sizes) == 1, (poly, convention, sizes)

    def test_verifier_rejects_bad_certificates(self):
        # On the path 0-1-2-3: the edge 12 joins (0, 1) and (2, 3), the
        # pairs (0, 1) and (1, 2) share 1, and (0, 2) is no edge at all.
        g = SimpleGraph.from_pairs(range(4), [(0, 1), (1, 2), (2, 3)])
        _verify_induced_matching(g, [(0, 1)])
        _verify_induced_matching(g, [(2, 3)])
        for edges in ([(0, 1), (2, 3)], [(0, 1), (1, 2)], [(0, 2)]):
            with pytest.raises(RuntimeError):
                _verify_induced_matching(g, edges)

    def test_certificate_is_induced(self, census5):
        for poly in census5:
            g = attack_graph(poly)
            cert = induced_matching_number(g)
            matched = [v for e in cert.edges for v in e]
            assert len(set(matched)) == len(matched)
            chosen = {frozenset(e) for e in cert.edges}
            for u, v in combinations(matched, 2):
                if g.adjacent(u, v):
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
        if not graph.adjacent(a, b):
            return False
        home = [iv for iv in ivs if a in iv and b in iv]
        if len(home) != 1:
            return False
        homes.append(home[0])
        pairs.append(frozenset((a, b)))
    for j in range(len(edges)):
        for k in range(j + 1, len(edges)):
            for connector in ivs:
                meets_j = connector.cell_set & homes[j].cell_set
                meets_k = connector.cell_set & homes[k].cell_set
                if meets_j and meets_k and meets_j <= pairs[j] and meets_k <= pairs[k]:
                    return False
    return True


class TestIntervalMatchingView:
    def _graph_level(self, g, edges):
        matched = [v for e in edges for v in e]
        if len(set(matched)) != len(matched):
            return False
        if not all(g.adjacent(a, b) for a, b in edges):
            return False
        chosen = {frozenset(e) for e in edges}
        return all(
            not g.adjacent(u, v) or frozenset((u, v)) in chosen
            for u, v in combinations(matched, 2)
        )

    def test_graph_level_implies_interval_level(self, census6):
        for poly in census6:
            if not shape_predicates(poly).thin:
                continue
            g = attack_graph(poly)
            edges = g.edge_pairs()
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
            edges = g.edge_pairs()
            for sub in combinations(edges, 2):
                if is_interval_matching(poly, sub) and not self._graph_level(g, sub):
                    counterexamples.append((poly, sub))
        assert counterexamples

    def test_explicit_counterexample(self):
        hook = parse_cells([(0, 0), (1, 0), (2, 0), (3, 0), (3, 1)])
        edges = (((0, 0), (1, 0)), ((3, 0), (3, 1)))
        g = attack_graph(hook)
        assert is_interval_matching(hook, edges)
        assert g.adjacent((1, 0), (3, 0))  # extra edge the view misses


class TestSingleCellIntervals:
    def test_straight_interval(self):
        bar = parse_ascii("####")
        assert single_cell_intervals(ShapeRecord(bar)) == maximal_intervals(bar)

    def test_skew_has_none(self):
        assert single_cell_intervals(ShapeRecord(SKEW)) == []

    def test_brush_33_has_both_bristles(self):
        singles = single_cell_intervals(ShapeRecord(BRUSH_33))
        assert len(singles) == 2
        assert all(iv.length == 3 for iv in singles)

    def test_monomino_raises(self):
        with pytest.raises(RankTooSmallError):
            single_cell_intervals(ShapeRecord(parse_cells([(0, 0)])))


class TestRegularity:
    def test_skew(self):
        assert regularity_pure_thin(ShapeRecord(SKEW)) == 1

    def test_monomino(self):
        assert regularity_pure_thin(ShapeRecord(parse_cells([(0, 0)]))) == 0

    def test_brush_33(self):
        assert regularity_pure_thin(ShapeRecord(BRUSH_33)) == 2

    def test_not_thin_rejected(self):
        with pytest.raises(NotApplicableError):
            regularity_pure_thin(ShapeRecord(SQUARE))

    def test_not_pure_rejected(self):
        with pytest.raises(NotApplicableError):
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
        with pytest.raises(NotPureBrushError):
            check_reg_eq_nu(ShapeRecord(L_TROMINO))
