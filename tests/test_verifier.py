import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

import emclab.verifier
from emclab.constructions import build_Hi
from emclab.hypergraph import (binom, complete_hypergraph, is_stable,
                               new_hypergraph, trace_family)
from emclab.lp import (fractional_cover_number, fractional_matching_number,
                       min_cover_sorted, solve_lp)
from emclab.shifting import stabilize
from emclab.verifier import (MatchingTooLarge, extremal_profile, is_close_400,
                             max_edges_given_nu, saturate_by_cover,
                             stability_scan, verify_emc)


class TestOracle:
    @pytest.mark.parametrize("n,k,s,expect", [
        (6, 2, 1, 5),       # star K_{1,5} beats the triangle
        (6, 2, 2, 10),
        (7, 2, 2, 11),
        (8, 2, 3, 21),
        (9, 3, 2, 56),
        (9, 4, 1, 56),
    ])
    def test_known_cells(self, n, k, s, expect):
        best, wit, exhausted, _ = max_edges_given_nu(n, k, s)
        assert exhausted
        assert best == expect
        assert wit.num_edges == best

    def test_s_zero(self):
        best, wit, exhausted, _ = max_edges_given_nu(5, 2, 0)
        assert exhausted and best == 0 and wit.num_edges == 0

    def test_budget_exhaustion_is_honest(self):
        best, _, exhausted, nodes = max_edges_given_nu(9, 3, 2, budget=10)
        assert not exhausted
        assert nodes <= 11  # the node that trips the budget is still counted
        assert best <= 56

    def test_verify_report(self):
        rep = verify_emc(7, 2, 2)
        assert rep["match"] and rep["exhausted"]
        assert rep["oracle"] == rep["formula"] == 11
        assert rep["nodes_expanded"] > 0
        assert rep["incumbent"] == {"family": "H_1", "edges": 11}

    def test_no_incumbent_below_k_times_s_plus_1(self):
        rep = verify_emc(5, 2, 2)  # n < k(s+1) = 6: no H_i
        assert rep["incumbent"] is None
        assert rep["match"] and rep["oracle"] == 10

    # the acceptance grid k = 4, s <= 3, n <= 16 and k = 5, s <= 2, n <= 15,
    # from n = k(s+1) - 1 up; below n = k(s+1) there is no incumbent (None)
    @pytest.mark.parametrize("n,k,s,family,nodes", [
        (7, 4, 1, None, 1), (8, 4, 1, "H_1", 143), (9, 4, 1, "H_1", 99),
        (10, 4, 1, "H_1", 250), (11, 4, 1, "H_1", 633), (12, 4, 1, "H_1", 1410),
        (13, 4, 1, "H_1", 2761), (14, 4, 1, "H_1", 5379), (15, 4, 1, "H_1", 10063),
        (16, 4, 1, "H_1", 17678),
        (11, 4, 2, None, 1), (12, 4, 2, "H_k", 1149), (13, 4, 2, "H_1", 3660),
        (14, 4, 2, "H_1", 7190), (15, 4, 2, "H_1", 19732), (16, 4, 2, "H_1", 55772),
        (15, 4, 3, None, 1), (16, 4, 3, "H_k", 8314),
        (9, 5, 1, None, 1), (10, 5, 1, "H_1", 74289), (11, 5, 1, "H_1", 1691),
        (12, 5, 1, "H_1", 1662), (13, 5, 1, "H_1", 4403), (14, 5, 1, "H_1", 12060),
        (15, 5, 1, "H_1", 29177),
        (14, 5, 2, None, 1),
    ])
    def test_exact_cells_from_incumbent(self, n, k, s, family, nodes):
        rep = verify_emc(n, k, s)
        assert rep["match"] and rep["exhausted"]
        assert rep["oracle"] == rep["formula"] == rep["witness_edges"]
        assert rep["nodes_expanded"] == nodes
        want = family and {"family": family, "edges": rep["formula"]}
        assert rep["incumbent"] == want

    def test_budgeted_probe_reports_incumbent(self):
        rep = verify_emc(16, 4, 3, budget=50)
        assert not rep["exhausted"] and not rep["match"]
        assert rep["oracle"] == rep["witness_edges"] == rep["incumbent"]["edges"] == 1365


class TestIncumbentIsChecked:
    """A forged incumbent must be caught, never searched from."""

    def forge(self, monkeypatch, edit):
        def forged(n, k, s, i):
            h = build_Hi(n, k, s, i)
            return new_hypergraph(n, k, edit(list(h.edges), s, k))
        monkeypatch.setattr(emclab.verifier, "build_Hi", forged)

    def test_not_a_downset(self, monkeypatch):
        # drop the lowest edge {1..k}; the edges above it stay
        self.forge(monkeypatch, lambda edges, s, k: edges[1:])
        with pytest.raises(RuntimeError, match="not a down-set"):
            max_edges_given_nu(11, 4, 1)

    def test_fails_cover_certificate(self, monkeypatch):
        # {s+1..s+k} misses [s] but every set below it meets [s], so this is
        # still a down-set; it completes an (s+1)-matching
        self.forge(monkeypatch,
                   lambda edges, s, k: edges + [tuple(range(s + 1, s + k + 1))])
        with pytest.raises(RuntimeError, match="cover certificate"):
            max_edges_given_nu(11, 4, 1)


def primal_chain(h):
    """The lexicographically greatest minimum cover by the primal chain: one
    `>=` row per edge, a `<= 1` row per vertex and the total pinned at tau*,
    then each weight maximized in turn and pinned by an `==` row."""
    verts = list(h.vertices)
    n = len(verts)
    if not h.edges:
        return dict.fromkeys(verts, 0)
    rows = [([1 if v in e else 0 for v in verts], ">=", 1) for e in h.edges]
    tau, _, _ = solve_lp([1] * n, rows)
    units = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows += [(coeffs, "<=", 1) for coeffs in units]
    rows.append(([1] * n, "==", tau))
    fixed = 0
    for coeffs in units:
        value, x, _ = solve_lp(coeffs, rows, maximize=True)
        rows.append((coeffs, "==", value))
        fixed += value
        if fixed == tau:
            break
    return dict(zip(verts, x))


class TestMinCoverSorted:
    def test_h1_cover_is_indicator(self):
        h = build_Hi(12, 4, 2, 1)
        fc = min_cover_sorted(h)
        assert fc.size == 2
        assert [fc.weights[v] for v in (1, 2, 3)] == [1, 1, 0]

    def test_clique(self):
        h = complete_hypergraph(5, 2)
        fc = min_cover_sorted(h)
        assert fc.size == Fraction(5, 2)
        assert all(w == Fraction(1, 2) for w in fc.weights.values())

    def test_feasible_and_sorted(self):
        h = build_Hi(10, 3, 2, 2)
        fc = min_cover_sorted(h)
        nu_star, _ = fractional_matching_number(h)
        assert fc.size == nu_star
        ws = [fc.weights[v] for v in range(1, 11)]
        assert ws == sorted(ws, reverse=True)
        for e in h.edges:
            assert sum(fc.weights[v] for v in e) >= 1

    def test_empty(self):
        fc = min_cover_sorted(new_hypergraph(5, 2, []))
        assert fc.size == 0 and fc.support == frozenset()

    def test_non_stable_families(self, solve_rows):
        # the whole weight vector of the primal chain, with no solve of more
        # than n rows: on seeded non-stable families and their stabilizations,
        # the empty family, k = 1 and a proper-subset ground set
        rng = random.Random(13)
        families = [new_hypergraph(5, 2, []), new_hypergraph(6, 1, [(2,), (5,)]),
                    new_hypergraph(6, 1, [(1,), (2,)]),
                    new_hypergraph(9, 2, [(2, 5), (5, 7), (2, 7), (7, 9)],
                                   vertices=(2, 4, 5, 7, 9))]
        while len(families) < 84:
            n, k = rng.randint(5, 8), rng.choice([2, 3])
            all_e = list(combinations(range(1, n + 1), k))
            h = new_hypergraph(n, k, rng.sample(all_e, rng.randint(2, 10)))
            if not is_stable(h):
                families += [h, stabilize(h)[0]]
        for h in families:
            solve_rows.clear()
            fc = min_cover_sorted(h)
            assert all(len(rows) <= len(h.vertices) for rows in solve_rows)
            assert fc.weights == primal_chain(h)
            tau, _ = fractional_cover_number(h)
            assert fc.size == tau
            assert all(sum(fc.weights[v] for v in e) >= 1 for e in h.edges)

    def test_dense_non_stable_family(self, solve_rows):
        # H2(15,3,4) minus its first three edges: the primal chain carried all
        # 297 edge rows into every solve and took about two minutes
        h = new_hypergraph(15, 3, build_Hi(15, 3, 4, 2).edges[3:])
        assert h.num_edges == 297 and not is_stable(h)
        fc = min_cover_sorted(h)
        assert [fc.weights[v] for v in h.vertices] == [Fraction(1, 2)] * 9 + [0] * 6
        assert max(map(len, solve_rows)) <= 15


class TestExtremalProfile:
    def test_h1_profile(self):
        h = build_Hi(20, 4, 3, 1)
        out = extremal_profile(h, 3, Fraction(1, 10**6))
        raw = out["raw"]
        assert raw.a == 1 and raw.b == 0 and raw.mu == 0
        assert raw.m == 16
        assert raw.link_sizes[(4,)] == 0
        assert raw.link_sizes[(1,)] == binom(16, 3)
        assert raw.lhs_lowerbound >= raw.rhs_lowerbound

    def test_tau_star_solved_once_per_graph(self, monkeypatch):
        # G's sorted cover only: one tau* solve and 3 chain steps (weights
        # 1, 1, 1 reach tau* = 3).  The saturation's profile reuses that
        # cover, and the MatchingTooLarge check reads tau* from it
        import emclab.lp
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_lp(*args, **kwargs)
        monkeypatch.setattr(emclab.lp, "solve_lp", counted)
        extremal_profile(build_Hi(20, 4, 3, 1), 3, Fraction(1, 10**6))
        assert len(calls) == 4

    def test_one_dominance_pass(self, monkeypatch):
        # the exit-3 stability test fills g.maximal_edges and the cover rows
        # of min_cover_sorted read it: one edge_set build, on G only
        from emclab.hypergraph import Hypergraph
        real = Hypergraph.edge_set
        calls = []

        def counted(h):
            calls.append(h)
            return real(h)
        monkeypatch.setattr(Hypergraph, "edge_set", counted)
        g = build_Hi(20, 4, 3, 1)
        extremal_profile(g, 3, Fraction(1, 10**6))
        assert len(calls) == 1 and calls[0] is g

    def test_saturation_keeps_sorted_cover(self):
        # w = min_cover_sorted(g) is also the sorted cover of g saturated by
        # w, so extremal_profile reads both profiles from one chain: seeded
        # families raw and stabilized, non-stable ones, a proper-subset ground
        # set and the empty family
        rng = random.Random(41)
        families = [new_hypergraph(6, 3, []),
                    new_hypergraph(9, 2, [(2, 5), (5, 7), (2, 7), (7, 9)],
                                   vertices=(2, 4, 5, 7, 9)),
                    new_hypergraph(8, 3, [(1, 2, 3), (4, 5, 6), (2, 6, 8)],
                                   vertices=(1, 2, 3, 4, 5, 6, 8))]
        while len(families) < 150:
            n, k = rng.randint(5, 9), rng.choice([2, 3, 4])
            all_e = list(combinations(range(1, n + 1), k))
            h = new_hypergraph(n, k, rng.sample(all_e, rng.randint(1, min(12, len(all_e)))))
            families += [h, stabilize(h)[0]]
        non_stable = 0
        for g in families:
            non_stable += not is_stable(g)
            w = min_cover_sorted(g)
            assert min_cover_sorted(saturate_by_cover(g, w.weights)) == w
        assert non_stable >= 50

    def test_link_sizes_match_trace_family(self):
        # the one-pass link sizes of both profiles against trace_family, on
        # seeded stable 4-graphs and the H_i constructions
        rng = random.Random(43)
        families = [build_Hi(12, 4, 2, 1), build_Hi(16, 4, 2, 2), build_Hi(12, 4, 2, 4)]
        for _ in range(40):
            n = rng.randint(7, 12)
            h = new_hypergraph(n, 4, rng.sample(list(combinations(range(1, n + 1), 4)),
                                                rng.randint(1, 30)))
            families.append(stabilize(h)[0])
        for g in families:
            s = max(1, math.ceil(fractional_matching_number(g)[0]))
            if g.n <= s + 1:
                continue
            out = extremal_profile(g, s, Fraction(1, 1000))
            sat = saturate_by_cover(g, out["raw"].cover)
            big_s = range(1, s + 2)
            for p, h in ((out["raw"], g), (out["saturated"], sat)):
                want = {a: trace_family(h, a, big_s).num_edges
                        for a in [()] + [(i,) for i in big_s]}
                assert list(p.link_sizes.items()) == list(want.items())
                assert p.lhs_lowerbound == sum(want.values())

    def test_saturation_only_adds(self):
        h = build_Hi(14, 4, 2, 1)
        out = extremal_profile(h, 2, Fraction(1, 10**6))
        sat = saturate_by_cover(h, out["raw"].cover)
        assert set(h.edges) <= set(sat.edges)
        nu_h, _ = fractional_matching_number(h)
        nu_s, _ = fractional_matching_number(sat)
        assert nu_h == nu_s

    def test_saturation_matches_fraction_sums(self):
        # the integer cover check against the plain Fraction sum per k-set,
        # on seeded covers with missing vertices and mixed denominators
        rng = random.Random(33)
        for _ in range(60):
            n, k = rng.randint(5, 9), rng.choice([2, 3, 4])
            h = new_hypergraph(n, k, rng.sample(list(combinations(range(1, n + 1), k)), 2))
            cover = {v: Fraction(rng.randint(0, 4), rng.choice([1, 2, 3, 4, 6]))
                     for v in rng.sample(range(1, n + 1), rng.randint(0, n))}
            want = set(h.edges) | {e for e in combinations(range(1, n + 1), k)
                                   if sum(cover.get(v, Fraction(0)) for v in e) >= 1}
            assert saturate_by_cover(h, cover) == new_hypergraph(n, k, sorted(want))

    def test_matching_too_large(self):
        h = complete_hypergraph(12, 4)  # nu* = 3 > 1
        with pytest.raises(MatchingTooLarge) as ei:
            extremal_profile(h, 1, Fraction(1, 100))
        assert ei.value.nu_star == 3

    def test_unstable_rejected(self):
        h = new_hypergraph(9, 4, [(6, 7, 8, 9)])
        with pytest.raises(Exception, match="stable"):
            extremal_profile(h, 1, Fraction(1, 100))


class TestIsClose400:
    def test_threshold_exact(self):
        eps = Fraction(1, 400**4)
        assert not is_close_400(Fraction(1), eps)        # 1 < 1 fails
        assert is_close_400(Fraction(999, 1000), eps)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            is_close_400(Fraction(-1), Fraction(1, 2))


class TestStabilityScan:
    def test_deterministic(self):
        spec = {"perturbed": 3, "delete": 2, "random": 3, "random_edges": 15}
        a = stability_scan(12, 2, Fraction(1, 1000), spec, seed=5)
        b = stability_scan(12, 2, Fraction(1, 1000), spec, seed=5)
        assert a == b
        assert len(a) == 7

    def test_h1_row_is_extremal(self):
        rows = stability_scan(12, 2, Fraction(1, 1000), {}, seed=0)
        row = rows[0]
        assert row["kind"] == "h1" and row["nu_ok"] and row["near_extremal"]
        assert row["ratio"] == 0 and row["is_close_400"]

    def test_perturbed_stay_close(self):
        rows = stability_scan(12, 2, Fraction(1, 1000),
                              {"perturbed": 4, "delete": 1}, seed=9)
        for row in rows:
            if row["kind"] == "perturbed" and row.get("near_extremal"):
                assert row["is_close_400"]
