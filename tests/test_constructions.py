import random
from fractions import Fraction
from itertools import combinations

import pytest

from emclab.constructions import (build_Hi, build_HpUW, build_HUW,
                                  construction1, construction2,
                                  degree_threshold_formula, emc_bound,
                                  hpsko_threshold_coefficient, kot_asymptotic)
from emclab.hypergraph import (HypergraphError, binom, complete_hypergraph,
                               is_stable, new_hypergraph)
from emclab.matching import matching_number


class TestBuildHi:
    def test_h1_edge_count(self):
        # i = 1: edges meeting [s], count C(n,k) - C(n-s,k)
        for n, k, s in [(8, 2, 2), (10, 3, 2), (12, 4, 2)]:
            h = build_Hi(n, k, s, 1)
            assert h.num_edges == binom(n, k) - binom(n - s, k)

    def test_hk_is_padded_clique(self):
        # i = k: all k-subsets of [k(s+1)-1]
        h = build_Hi(12, 3, 2, 3)
        assert h.num_edges == binom(3 * 3 - 1, 3)
        assert all(e[-1] <= 8 for e in h.edges)

    def test_stable(self):
        for i in (1, 2, 3):
            assert is_stable(build_Hi(10, 3, 2, i))

    def test_matching_number(self):
        for i in (1, 2, 3, 4):
            assert matching_number(build_Hi(14, 4, 2, i))[0] == 2

    def test_bad_inputs(self):
        with pytest.raises(HypergraphError):
            build_Hi(10, 3, 2, 0)
        with pytest.raises(HypergraphError):
            build_Hi(8, 3, 2, 1)  # n < k(s+1)


class TestHUW:
    def test_matches_h1(self):
        # H(U, W) with U = [s] equals the i = 1 family
        h = build_HUW(range(1, 3), range(3, 10), 3)
        assert h.edges == build_Hi(9, 3, 2, 1).edges

    def test_disjointness_required(self):
        with pytest.raises(HypergraphError):
            build_HUW([1, 2], [2, 3], 2)

    def test_hp_restricts_intersection(self):
        full = build_HUW([1, 2], range(3, 8), 3)
        capped = build_HpUW([1, 2], range(3, 8), 3, 1)
        assert set(capped.edges) <= set(full.edges)
        assert all(sum(1 for v in e if v <= 2) == 1 for e in capped.edges)
        assert build_HpUW([1, 2], range(3, 8), 3, 3).edges == full.edges

    def test_grid_against_definition(self):
        # k <= 4, |U| <= 4, |W| <= 5 on [10], overlapping pairs included:
        # the disjointness error first, then the ground-set size, else every
        # k-set of U ∪ W meeting U
        rng = random.Random(36)
        for u_size in range(5):
            for w_size in range(6):
                for k in range(1, 5):
                    for _ in range(3):
                        u = rng.sample(range(1, 11), u_size)
                        w = rng.sample(range(1, 11), w_size)
                        ground = sorted(set(u) | set(w))
                        if set(u) & set(w):
                            want = "U and W must be disjoint"
                        elif len(ground) < k:
                            want = f"|U ∪ W| = {len(ground)} < k = {k}"
                        else:
                            h = build_HUW(u, w, k)
                            assert tuple(h.vertices) == tuple(ground)
                            assert h.edges == tuple(e for e in combinations(ground, k)
                                                    if set(e) & set(u))
                            continue
                        with pytest.raises(HypergraphError) as ei:
                            build_HUW(u, w, k)
                        assert str(ei.value) == want
        for k in (0, -1):   # input errors, never a bare ValueError
            with pytest.raises(HypergraphError):
                build_HUW([1], [2, 3], k)


class TestEmcBound:
    @pytest.mark.parametrize("n,k,s,expect,winner", [
        (5, 2, 1, 4, "cover"),
        (9, 3, 2, 56, "clique"),
        (9, 4, 1, 56, "cover"),
        (20, 4, 4, 3876, "clique"),
    ])
    def test_values(self, n, k, s, expect, winner):
        rep = emc_bound(n, k, s)
        assert rep.emc_bound == expect
        assert rep.winner == winner
        assert rep.in_range

    def test_to_dict(self):
        d = emc_bound(6, 2, 1).to_dict()
        assert d["inputs"] == {"n": 6, "k": 2, "s": 1}
        assert d["bound"] == max(d["terms"].values())

    def test_out_of_range_flagged(self):
        assert not emc_bound(5, 3, 2).in_range


class TestApexConstructions:
    def test_construction1_matching_number(self):
        g = complete_hypergraph(7, 4)  # nu = 1
        h, t = construction1(g, 1, Fraction(0))
        assert t == 1
        assert h.n == 8
        assert matching_number(h)[0] == matching_number(g)[0] + t

    def test_construction1_eta_lowers_t(self):
        g = complete_hypergraph(11, 4)
        _, t0 = construction1(g, 1, Fraction(0))
        _, t1 = construction1(g, 1, Fraction(1, 12))
        assert t0 == 2 and t1 == 1

    def test_construction1_requires_stable(self):
        g = new_hypergraph(8, 4, [(5, 6, 7, 8)])
        with pytest.raises(HypergraphError, match="stable"):
            construction1(g, 1, Fraction(0))

    def test_construction1_output_stable(self):
        h, _ = construction1(build_Hi(12, 4, 1, 1), 1, Fraction(0))
        assert is_stable(h)

    def test_construction2_t_arithmetic(self):
        g = build_Hi(10, 3, 2, 1)  # matching number exactly s = 2
        h, t = construction2(g, 2)
        assert t == (10 - 6) // 2 - 1 == 1
        assert h.n == 11
        assert matching_number(h)[0] == matching_number(g)[0] + t

    def test_construction2_negative_t(self):
        with pytest.raises(HypergraphError):
            construction2(complete_hypergraph(6, 3), 2)

    def test_construction2_rejects_k1(self):
        # t divides by k - 1: a 1-uniform family is refused, not divided by 0
        with pytest.raises(HypergraphError, match="need k >= 2"):
            construction2(new_hypergraph(5, 1, [(1,), (2,)]), 1)


class TestDegreeThresholds:
    def test_known_value(self):
        rep = degree_threshold_formula(15, 5, 1, 3)
        assert rep.value == 507 and not rep.clamped

    def test_s_zero_clamped(self):
        rep = degree_threshold_formula(10, 3, 1, 0)
        assert rep.value == 0 and rep.clamped

    def test_s_one(self):
        # a single edge needs positive degree: threshold 1
        assert degree_threshold_formula(12, 4, 2, 1).value == 1

    def test_bad_d(self):
        with pytest.raises(HypergraphError):
            degree_threshold_formula(10, 3, 3, 1)

    def test_kot_codegree_simplifies(self):
        # d = k-1 makes the main term s/n * (n-d)
        assert kot_asymptotic(20, 4, 3, 2) == Fraction(2, 20) * 17

    def test_kot_monotone_in_s(self):
        vals = [kot_asymptotic(30, 4, 1, s) for s in range(0, 7)]
        assert vals == sorted(vals)

    @pytest.mark.parametrize("k,d,expect", [
        (5, 1, Fraction(369, 625)),
        (6, 2, Fraction(671, 1296)),
        (4, 3, Fraction(1, 2)),
        (3, 2, Fraction(1, 2)),
    ])
    def test_hpsko_values(self, k, d, expect):
        assert hpsko_threshold_coefficient(k, d) == expect


@pytest.mark.parametrize("call, message", [
    (lambda: build_Hi(10, 3, -1, 1), "s must be nonnegative"),
    (lambda: build_HpUW([1, 2], [2, 3], 2, 1), "U and W must be disjoint"),
    (lambda: construction1(complete_hypergraph(8, 3), 1, Fraction(0)), "expects k = 4"),
    (lambda: construction1(complete_hypergraph(8, 4), 3, Fraction(0)), r"t = floor\(-4/3\) < 0"),
    (lambda: degree_threshold_formula(10, 3, 0, 1), "1 <= d <= k-1"),
    (lambda: degree_threshold_formula(10, 3, 1, -1), "0 <= s <= n/k"),
    (lambda: degree_threshold_formula(10, 3, 1, 4), "0 <= s <= n/k"),
    (lambda: kot_asymptotic(10, 3, 3, 1), "1 <= d <= k-1"),
    (lambda: hpsko_threshold_coefficient(3, 0), "1 <= d <= k-1"),
])
def test_refusals(call, message):
    with pytest.raises(HypergraphError, match=message):
        call()
