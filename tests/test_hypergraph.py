import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emclab.hypergraph import (Hypergraph, HypergraphError, binom, closeness,
                               complete_hypergraph, induced, is_stable,
                               min_d_degree, new_hypergraph, parse_khg,
                               serialize_khg, shadow, trace_family)


def random_hypergraph(rng, n, k, m):
    all_e = list(combinations(range(1, n + 1), k))
    return new_hypergraph(n, k, rng.sample(all_e, min(m, len(all_e))))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    all_e = list(combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(all_e), max_size=15))
    return new_hypergraph(n, k, edges)


class TestConstruction:
    def test_canonical_order_and_dedup(self):
        h = new_hypergraph(5, 2, [(3, 1), (2, 4), (1, 3)])
        assert h.edges == ((1, 3), (2, 4))
        assert h.num_edges == 2

    def test_wrong_arity(self):
        with pytest.raises(HypergraphError, match="arity"):
            new_hypergraph(5, 3, [(1, 2)])

    def test_repeated_vertex(self):
        with pytest.raises(HypergraphError, match="repeated"):
            new_hypergraph(5, 2, [(2, 2)])

    def test_out_of_range(self):
        with pytest.raises(HypergraphError, match="outside"):
            new_hypergraph(5, 2, [(1, 6)])

    def test_bad_params(self):
        with pytest.raises(HypergraphError):
            new_hypergraph(3, 4, [])

    def test_k0_rejected(self):
        # k = 0 would admit the empty edge, on which the matching search
        # never terminates
        with pytest.raises(HypergraphError, match="1 <= k"):
            new_hypergraph(3, 0, [()])

    def test_complete_count(self):
        assert complete_hypergraph(7, 3).num_edges == binom(7, 3)

    def test_degree(self):
        h = new_hypergraph(4, 2, [(1, 2), (1, 3)])
        assert h.degree(1) == 2
        assert h.degree(4) == 0


class TestStability:
    def test_complete_is_stable(self):
        assert is_stable(complete_hypergraph(6, 3))

    def test_single_high_edge_not_stable(self):
        assert not is_stable(new_hypergraph(4, 2, [(3, 4)]))

    def test_downset(self):
        h = new_hypergraph(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3)])
        assert is_stable(h)

    def test_empty(self):
        assert is_stable(new_hypergraph(5, 3, []))


class TestShadow:
    def test_single_edge(self):
        h = new_hypergraph(5, 3, [(1, 2, 3)])
        assert shadow(h).edges == ((1, 2), (1, 3), (2, 3))

    def test_k1_rejected(self):
        with pytest.raises(HypergraphError):
            shadow(new_hypergraph(3, 1, [(1,)]))

    def test_size_lower_bound_vs_matching(self):
        # |F| <= nu(F) * |shadow(F)| on a random corpus
        from emclab.matching import matching_number
        rng = random.Random(202)
        for _ in range(200):
            n = rng.randint(3, 10)
            k = rng.choice([x for x in (2, 3, 4) if x <= n])
            h = random_hypergraph(rng, n, k, rng.randint(1, 12))
            nu, _ = matching_number(h)
            assert h.num_edges <= nu * shadow(h).num_edges


class TestTraceAndInduced:
    def test_trace_exact_intersection(self):
        h = new_hypergraph(6, 3, [(1, 2, 5), (1, 3, 4), (2, 5, 6), (4, 5, 6)])
        t = trace_family(h, (1,), (1, 2, 3))
        # edges meeting {1,2,3} exactly in {1}: (1,3,4) fails (contains 3)
        assert t.edges == ()
        t2 = trace_family(h, (4,), (4,))
        assert t2.edges == ((1, 3), (5, 6))
        assert t2.k == 2
        assert 4 not in t2.vertices

    def test_trace_empty_a(self):
        h = new_hypergraph(6, 3, [(4, 5, 6), (1, 2, 3)])
        t = trace_family(h, (), (1, 2))
        assert t.edges == ((4, 5, 6),)

    def test_a_not_subset_s(self):
        with pytest.raises(HypergraphError):
            trace_family(new_hypergraph(4, 2, []), (1,), (2,))

    def test_induced(self):
        h = complete_hypergraph(5, 2)
        sub = induced(h, (2, 3, 4))
        assert sub.num_edges == 3
        assert sub.vertices == (2, 3, 4)

    def test_empty_ground_set_stays_empty(self):
        h = complete_hypergraph(6, 3)
        assert induced(h, []).vertices == ()
        assert trace_family(h, (), h.vertices).vertices == ()
        assert Hypergraph(n=3, k=1, edges=()).vertices == (1, 2, 3)


class TestCloseness:
    def test_symmetric_inputs_differ(self):
        g = new_hypergraph(4, 2, [(1, 2)])
        h = new_hypergraph(4, 2, [(1, 2), (3, 4), (1, 3)])
        rep = closeness(g, h, Fraction(1, 4))
        assert rep.missing_count == 2
        assert rep.ratio == Fraction(2, 16)
        assert rep.is_close  # 2 < 16/4 = 4

    def test_strictness(self):
        g = new_hypergraph(2, 1, [])
        h = new_hypergraph(2, 1, [(1,)])
        rep = closeness(g, h, Fraction(1, 2))
        assert not rep.is_close  # 1 < 2*(1/2) fails strictly

    def test_mismatched_shapes(self):
        with pytest.raises(HypergraphError):
            closeness(new_hypergraph(4, 2, []), new_hypergraph(5, 2, []), 1)


class TestMinDegree:
    def test_complete(self):
        # every vertex of K_6^3 lies in C(5,2) edges
        val, wit = min_d_degree(complete_hypergraph(6, 3), 1)
        assert val == binom(5, 2)
        assert wit == (1,)

    def test_zero_witness_lex_least(self):
        h = new_hypergraph(5, 3, [(2, 3, 4)])
        val, wit = min_d_degree(h, 1)
        assert val == 0 and wit == (1,)

    def test_d_out_of_range(self):
        with pytest.raises(HypergraphError):
            min_d_degree(complete_hypergraph(5, 3), 3)


class TestKhgFormat:
    def test_round_trip_canonical(self):
        h = new_hypergraph(6, 3, [(4, 5, 6), (1, 2, 3), (1, 2, 6)])
        text = serialize_khg(h)
        assert parse_khg(text).edges == h.edges
        assert serialize_khg(parse_khg(text)) == text

    def test_comments_and_blanks(self):
        text = "# family\n\n3 2 1\n1 3\n"
        assert parse_khg(text).edges == ((1, 3),)

    def test_header_mismatch(self):
        with pytest.raises(HypergraphError, match="declares"):
            parse_khg("3 2 2\n1 2\n")

    def test_non_ascending_rejected(self):
        with pytest.raises(HypergraphError, match="ascending"):
            parse_khg("3 2 1\n2 1\n")

    @settings(max_examples=60, deadline=None)
    @given(hypergraphs())
    def test_round_trip_property(self, h):
        assert parse_khg(serialize_khg(h)) == h


def test_binom_edges():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(5, 0) == 1
    assert binom(10, 4) == 210
