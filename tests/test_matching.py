import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emclab import kernel
from emclab.constructions import build_Hi
from emclab.hypergraph import HypergraphError, complete_hypergraph, new_hypergraph
from emclab.matching import (_greedy_cover_size, _max_degree_bit, cover_number,
                             has_matching_of_size, matching_number)


def random_hypergraph(rng, n, k, m):
    all_e = list(combinations(range(1, n + 1), k))
    return new_hypergraph(n, k, rng.sample(all_e, min(m, len(all_e))))


class TestMatchingNumber:
    def test_triangle(self):
        h = new_hypergraph(3, 2, [(1, 2), (1, 3), (2, 3)])
        assert matching_number(h)[0] == 1

    @pytest.mark.parametrize("n,k", [(6, 2), (7, 3), (9, 4), (5, 1)])
    def test_complete(self, n, k):
        assert matching_number(complete_hypergraph(n, k))[0] == n // k

    def test_empty(self):
        nu, w = matching_number(new_hypergraph(5, 2, []))
        assert nu == 0 and w.edges == ()

    def test_witness_disjoint_and_valid(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(3, 10)
            k = rng.choice([x for x in (2, 3) if x <= n])
            h = random_hypergraph(rng, n, k, rng.randint(1, 14))
            nu, w = matching_number(h)
            assert w.size == nu == len(w.edges)
            seen: set[int] = set()
            for e in w.edges:
                assert h.has_edge(e)
                assert not (set(e) & seen)
                seen.update(e)

    def test_hi_families(self):
        from emclab.constructions import build_Hi
        for k in (2, 3, 4):
            for s in (1, 2):
                n = k * (s + 1) + 2
                for i in range(1, k + 1):
                    assert matching_number(build_Hi(n, k, s, i))[0] == s

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_monotone_under_edge_addition(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8))
        k = data.draw(st.integers(min_value=2, max_value=min(3, n)))
        all_e = list(combinations(range(1, n + 1), k))
        edges = data.draw(st.lists(st.sampled_from(all_e), max_size=10))
        extra = data.draw(st.sampled_from(all_e))
        h = new_hypergraph(n, k, edges)
        h2 = new_hypergraph(n, k, list(edges) + [extra])
        assert matching_number(h2)[0] >= matching_number(h)[0]


class TestTauStarBound:
    """`matching_number` takes its LP bound from `lp.tau_star`, at any size."""

    def test_packing_lp_on_large_non_stable_family(self, solves):
        from emclab.constructions import build_Hi
        from emclab.hypergraph import is_stable
        h2 = build_Hi(15, 3, 4, 2)
        drop = set(random.Random(0).sample(h2.edges, 3))
        h = new_hypergraph(15, 3, [e for e in h2.edges if e not in drop])
        assert h.num_edges == 297 and not is_stable(h)
        nu, w = matching_number(h)
        assert nu == w.size == len(w.edges) == 4
        assert all(h.has_edge(e) for e in w.edges)
        assert len({v for e in w.edges for v in e}) == 3 * 4
        assert solves == [297]

    def test_monotone_lp_on_stable_family(self, solve_rows):
        # one solve, the dual of the monotone cover LP: a row per vertex
        from emclab.constructions import build_Hi
        h = build_Hi(12, 3, 2, 2)
        assert h.num_edges == 80
        assert matching_number(h)[0] == 2
        assert solve_rows == [("<=",) * 12]


class TestHasMatching:
    def test_size_zero_always(self):
        ok, w = has_matching_of_size(new_hypergraph(4, 2, []), 0)
        assert ok and w.edges == ()

    def test_disjoint_pair(self):
        h = new_hypergraph(6, 3, [(1, 2, 3), (4, 5, 6)])
        ok, w = has_matching_of_size(h, 2)
        assert ok and w.size == 2

    def test_h1_fails_above_s(self):
        from emclab.constructions import build_Hi
        h = build_Hi(10, 2, 2, 1)
        ok, w = has_matching_of_size(h, 3)
        assert not ok and w is None

    def test_negative_rejected(self):
        with pytest.raises(HypergraphError):
            has_matching_of_size(new_hypergraph(4, 2, []), -1)


def _old_greedy_cover_size(masks):
    """The greedy cover that recounts every remaining edge's degrees at each
    step: the oracle for the cover size."""
    size = 0
    while masks:
        deg = {}
        for m in masks:
            while m:
                b = m & -m
                deg[b] = deg.get(b, 0) + 1
                m ^= b
        v = min(deg, key=lambda b: (-deg[b], b))
        masks = [m for m in masks if not m & v]
        size += 1
    return size


class TestGreedyCover:
    def test_matches_recounting_oracle(self):
        rng = random.Random(2024)
        families = [complete_hypergraph(9, 3), build_Hi(16, 4, 2, 3), build_Hi(12, 3, 2, 1),
                    new_hypergraph(5, 2, [])]
        for _ in range(200):
            n = rng.randint(2, 40)
            k = rng.randint(1, min(5, n))
            edges = {tuple(sorted(rng.sample(range(1, n + 1), k)))
                     for _ in range(rng.randint(1, 80))}
            families.append(new_hypergraph(n, k, edges))
        for h in families:
            masks = kernel.edge_masks(h.n, h.edges)
            assert _greedy_cover_size(h.edges) == _old_greedy_cover_size(masks), h


class TestCoverNumber:
    def test_triangle(self):
        assert cover_number(new_hypergraph(3, 2, [(1, 2), (1, 3), (2, 3)])) == 2

    def test_single_edge(self):
        assert cover_number(new_hypergraph(6, 4, [(1, 2, 3, 4)])) == 1

    def test_empty(self):
        assert cover_number(new_hypergraph(4, 2, [])) == 0

    def test_branch_vertex_is_the_least_of_maximum_degree(self):
        # tau's branch vertex: vertices 3 and 4 both have degree 3, so 3
        edges = [(1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (4, 6)]
        masks = kernel.edge_masks(6, edges)
        bits = {m: [1 << (v - 1) for v in e] for m, e in zip(masks, edges)}
        assert _max_degree_bit(masks, bits) == 1 << 2
        assert _max_degree_bit(masks[1:], bits) == 1 << 3

    def test_exhaustive_oracle(self):
        # compare against subset enumeration on small instances
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(3, 7)
            k = rng.choice([2, 3])
            h = random_hypergraph(rng, n, k, rng.randint(1, 10))
            best = n
            for size in range(n + 1):
                found = False
                for cand in combinations(range(1, n + 1), size):
                    cs = set(cand)
                    if all(cs & set(e) for e in h.edges):
                        found = True
                        break
                if found:
                    best = size
                    break
            assert cover_number(h) == best
