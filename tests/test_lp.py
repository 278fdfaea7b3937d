import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emclab.lp
from emclab.constructions import build_Hi
from emclab.hypergraph import complete_hypergraph, is_stable, new_hypergraph
from emclab.lp import (FractionalCover, Infeasible, LPError, PerfectExtensionError,
                       Unbounded, _check_certificate, _cover_rows, _matching_rows,
                       check_complementary_slackness, extend_to_perfect_fm,
                       fractional_cover_number, fractional_matching_and_cover,
                       fractional_matching_number, full_degree_vertices,
                       has_perfect_fm, lex_max_fractional_matching,
                       make_fractional_matching, min_cover_sorted, solve_lp,
                       tau_star)
from emclab.matching import cover_number, matching_number


def random_hypergraph(rng, n, k, m):
    all_e = list(combinations(range(1, n + 1), k))
    return new_hypergraph(n, k, rng.sample(all_e, min(m, len(all_e))))


def random_stable(rng, n, k, m):
    from emclab.shifting import stabilize
    h, _ = stabilize(random_hypergraph(rng, n, k, m))
    return h


class TestSimplex:
    def test_simple_max(self):
        # max x1 + x2 s.t. x1 <= 2, x2 <= 3
        v, x, duals = solve_lp([1, 1], [([1, 0], "<=", 2), ([0, 1], "<=", 3)],
                               maximize=True)
        assert v == 5 and x == [2, 3]
        assert duals == [1, 1]

    def test_equality_and_ge(self):
        # min x1 + 2*x2 s.t. x1 + x2 == 4, x1 <= 3
        v, x, _ = solve_lp([1, 2], [([1, 1], "==", 4), ([1, 0], "<=", 3)])
        assert v == 5 and x == [3, 1]

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_lp([1], [([1], "<=", 1), ([1], ">=", 2)])

    def test_unbounded(self):
        with pytest.raises(Unbounded):
            solve_lp([1], [([1], ">=", 1)], maximize=True)

    def test_exact_rationals(self):
        v, x, _ = solve_lp([1], [([Fraction(3)], "<=", Fraction(1))], maximize=True)
        assert v == Fraction(1, 3)


F = Fraction

# (c, rows, maximize, pivot trace, result) recorded from the rational
# Fraction tableau this solver replaced; result is (value, x, duals) or the
# exception type.  The trace is kept up to the exception.
GOLDEN = {
    "triangle_packing": (
        [1, 1, 1], [([1, 1, 0], "<=", 1), ([0, 1, 1], "<=", 1), ([1, 0, 1], "<=", 1)], True,
        [(2, 0, 3), (2, 2, 5), (2, 1, 4)],
        ("3/2", ["1/2", "1/2", "1/2"], ["1/2", "1/2", "1/2"])),
    "phase1_eq_ge": (
        [1, 2, 3], [([1, 1, 1], "==", 4), ([1, 0, 0], "<=", 3), ([0, 1, 2], ">=", 2)], False,
        [(1, 0, 3), (1, 1, 5), (1, 2, 1), (1, 3, 6)],
        ("6", ["3", "0", "1"], ["1", "0", "1"])),
    # row 3 = row 1 + row 2: its artificial is driven out on pivot -4
    "redundant_eq_driveout": (
        [-2, -3, -3], [([2, 1, 0], "==", 3), ([-2, 1, -2], "==", 3), ([0, 2, -2], "==", 6)],
        False,
        [(1, 1, 3), (1, 0, 4), (2, 2, 0)],
        ("-9", ["0", "3", "0"], ["-9/2", "3/2", "0"])),
    "coprime": (
        [F(1, 3), F(2, 7), F(-1, 5), F(3, 7)],
        [([F(1, 2), 1, F(1, 3), 1], "<=", F(2, 7)), ([1, F(1, 5), 1, 0], "<=", F(5, 3)),
         ([0, -1, F(2, 3), 1], ">=", F(1, 7)), ([F(-1, 3), 1, 1, 0], "==", F(-1, 21))], True,
        [(1, 0, 8), (1, 2, 4), (1, 3, 7), (2, 1, 2)],
        ("148/1029", ["10/49", "1/49", "0", "8/49"], ["24/49", "0", "-3/49", "-13/49"])),
    "infeasible": (
        [1, 1], [([1, 1], ">=", 3), ([1, 0], "<=", 1), ([0, 1], "<=", 1)], False,
        [(1, 0, 3), (1, 1, 4)], Infeasible),
    "unbounded": (
        [-1, 0], [([1, -1], "==", 1), ([0, 1], ">=", F(1, 2))], False,
        [(1, 0, 3), (1, 1, 4)], Unbounded),
}


def minimization_duals(rows, duals, maximize):
    """The dual y of min c.x (c negated when maximizing) over `rows` as
    given: solve_lp reports duals in the rows' own orientation, negated
    with the objective when maximizing."""
    return [-d if maximize else d for d in duals]


def assert_optimal(c, rows, maximize, value, x, duals):
    """Fraction check of primal and dual feasibility and equal objectives."""
    cmin = [-F(v) for v in c] if maximize else [F(v) for v in c]
    y = minimization_duals(rows, duals, maximize)
    assert all(v >= 0 for v in x)
    for (coeffs, sense, rhs), yi in zip(rows, y):
        lhs = sum(F(a) * v for a, v in zip(coeffs, x))
        assert {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]
        assert {"<=": yi <= 0, ">=": yi >= 0, "==": True}[sense]
    for j, cj in enumerate(cmin):
        assert sum(F(coeffs[j]) * yi for (coeffs, _, _), yi in zip(rows, y)) <= cj
    b_dot_y = sum(F(rhs) * yi for (_, _, rhs), yi in zip(rows, y))
    assert (-b_dot_y if maximize else b_dot_y) == value == sum(F(a) * v for a, v in zip(c, x))


class TestIntegerCore:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_trace_and_result(self, name):
        c, rows, maximize, want_trace, want = GOLDEN[name]
        trace = []
        if isinstance(want, type):
            with pytest.raises(want):
                solve_lp(c, rows, maximize=maximize, trace=trace)
        else:
            value, x, duals = solve_lp(c, rows, maximize=maximize, trace=trace)
            assert (value, x, duals) == (F(want[0]), [F(v) for v in want[1]],
                                         [F(v) for v in want[2]])
            assert all(type(v) is Fraction for v in (value, *x, *duals))
        assert trace == want_trace

    def test_nufrac_trace_h1_12_4_2(self):
        trace = []
        nu_star, _, fc = fractional_matching_and_cover(build_Hi(12, 4, 2, 1), trace=trace)
        assert nu_star == fc.size == 2
        assert trace == [(2, 0, 285), (2, 165, 286), (2, 45, 287), (2, 9, 288), (2, 1, 289),
                         (2, 2, 0), (2, 17, 1), (2, 10, 9), (2, 24, 2), (2, 81, 10),
                         (2, 53, 17), (2, 46, 45), (2, 60, 46), (2, 109, 53), (2, 88, 81),
                         (2, 130, 24)]

    def test_coprime_denominators_exact(self):
        # max x1/3 + 2*x2/7 s.t. x1 + x2 <= 5/7, x1 - x2 == -1/3 (negative rhs)
        c = [F(1, 3), F(2, 7)]
        rows = [([1, 1], "<=", F(5, 7)), ([1, -1], "==", F(-1, 3))]
        value, x, duals = solve_lp(c, rows, maximize=True)
        assert x == [F(4, 21), F(11, 21)] and value == F(94, 441)
        # both x > 0, so u + w = 1/3 and u - w = 2/7: u = 13/42, w = 1/42;
        # the "==" row is reported as written, rhs -1/3
        assert duals == [F(13, 42), F(1, 42)]
        assert F(5, 7) * duals[0] + F(-1, 3) * duals[1] == value
        assert_optimal(c, rows, True, value, x, duals)

    @pytest.mark.parametrize("name", ["phase1_eq_ge", "redundant_eq_driveout", "coprime"])
    def test_ge_and_eq_duals_certify(self, name):
        c, rows, maximize, _, _ = GOLDEN[name]
        value, x, duals = solve_lp(c, rows, maximize=maximize)
        assert_optimal(c, rows, maximize, value, x, duals)
        y = minimization_duals(rows, duals, maximize)
        assert any(yi for (_, sense, _), yi in zip(rows, y) if sense != "<=")

    def test_random_lps_certify(self):
        rng = random.Random(4)
        solved = 0
        for _ in range(300):
            nv, m = rng.randint(1, 5), rng.randint(1, 5)
            rows = [([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nv)],
                     rng.choice(["<=", ">=", "=="]), F(rng.randint(-3, 3), rng.randint(1, 4)))
                    for _ in range(m)]
            c = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nv)]
            maximize = rng.random() < 0.5
            try:
                value, x, duals = solve_lp(c, rows, maximize=maximize)
            except (Infeasible, Unbounded):
                continue
            assert_optimal(c, rows, maximize, value, x, duals)
            solved += 1
        assert solved >= 40


# mostly integers, so that int and Fraction entries share rows and costs
small_rational = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3]))


@st.composite
def small_lps(draw):
    """(c, rows, maximize) with small rational entries, every sense and
    either sign of rhs."""
    nv, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    coeffs = st.lists(small_rational, min_size=nv, max_size=nv)
    rows = [(draw(coeffs), draw(st.sampled_from(["<=", ">=", "=="])), draw(small_rational))
            for _ in range(m)]
    return draw(coeffs), rows, draw(st.booleans())


def int_if_integral(v):
    return v.numerator if v.denominator == 1 else v


def solve_outcome(c, rows, maximize):
    """(value, x, duals) or the exception type, with the pivot trace."""
    trace = []
    try:
        result = solve_lp(c, rows, maximize=maximize, trace=trace)
    except LPError as exc:
        return type(exc), trace
    assert all(type(v) is Fraction for v in (result[0], *result[1], *result[2]))
    return result, trace


class TestIntInputs:
    """An int entry is used as it is, anything else goes through Fraction:
    both must give the same answer and the same pivots."""

    @settings(max_examples=150, deadline=None)
    @given(small_lps())
    def test_ints_fractions_and_strings_agree(self, lp):
        # every integral entry as an int, then all as Fractions, then all
        # as strings
        c, rows, maximize = lp
        want = solve_outcome([int_if_integral(v) for v in c],
                             [([int_if_integral(a) for a in coeffs], sense, int_if_integral(rhs))
                              for coeffs, sense, rhs in rows], maximize)
        for conv in (Fraction, str):
            got = solve_outcome([conv(v) for v in c],
                                [([conv(a) for a in coeffs], sense, conv(rhs))
                                 for coeffs, sense, rhs in rows], maximize)
            assert got == want

    def test_bool_reads_as_fraction(self):
        assert solve_lp([True], [([True], "<=", 2)], maximize=True)[0] == 2

    @pytest.fixture()
    def lp_inputs(self, monkeypatch):
        """Every (c, rows) solve_lp receives, copied at the call."""
        seen = []
        real = emclab.lp.solve_lp

        def spy(c, rows, maximize=False, trace=None):
            seen.append((list(c), [(list(coeffs), sense, rhs) for coeffs, sense, rhs in rows]))
            return real(c, rows, maximize=maximize, trace=trace)
        monkeypatch.setattr(emclab.lp, "solve_lp", spy)
        return seen

    def test_row_builders_emit_ints(self, lp_inputs):
        h = build_Hi(9, 4, 1, 1)
        rows = _matching_rows(h) + _cover_rows(h)
        assert all(type(v) is int for coeffs, _, rhs in rows for v in (*coeffs, rhs))
        nu_star, _, _ = fractional_matching_and_cover(h)
        lex_max_fractional_matching(h, tuple(range(1, 10)), nu_star)
        lex_max_fractional_matching(h, (), nu_star)
        # loads 1 at every vertex: the chain cannot stop before the last
        lex_max_fractional_matching(complete_hypergraph(5, 2), tuple(range(1, 6)), F(5, 2))
        non_stable = new_hypergraph(6, 2, [(1, 2), (3, 4), (5, 6), (4, 5)])
        tau_star(h)
        tau_star(non_stable)
        # a two-vertex fractional boundary: the extension solves its system
        weights = {(5, 6, 7, 8): 1, (2, 3, 4, 9): F(1, 2), (2, 3, 4, 10): F(1, 2)}
        extend_to_perfect_fm(complete_hypergraph(12, 4), 1,
                             make_fractional_matching(complete_hypergraph(12, 4), weights))
        steps = set()
        for g in (h, non_stable):
            start = len(lp_inputs)
            min_cover_sorted(g)
            steps.update(range(start + 1, len(lp_inputs)))  # every solve after tau*
        assert len(lp_inputs) >= 20 and steps
        for i, (c, rows) in enumerate(lp_inputs):
            assert all(type(v) is int for coeffs, _, _ in rows for v in coeffs)
            # a rhs is rational only where it is a pinned optimum, a lex-max
            # target or 1 - a_v
            assert all(type(rhs) is int for _, sense, rhs in rows if sense != "==")
            # a cost is rational only in a cover chain step: T = tau* - fixed, r'_j
            if i not in steps:
                assert all(type(v) is int for v in c)

    def test_forged_dual_is_not_a_cover(self, monkeypatch):
        real = emclab.lp.solve_lp

        def forged(c, rows, maximize=False, trace=None):
            value, x, duals = real(c, rows, maximize=maximize, trace=trace)
            return value, x, [F(0)] * len(duals)
        monkeypatch.setattr(emclab.lp, "solve_lp", forged)
        for packing in (fractional_matching_and_cover, fractional_matching_number):
            with pytest.raises(LPError, match=r"dual not a cover at edge \(1, 2\)"):
                packing(new_hypergraph(4, 2, [(1, 2), (3, 4)]))

    def test_covered_matches_fraction_sums(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(2, 8)
            weights = {v: F(rng.randint(0, 6), rng.randint(1, 6))
                       for v in rng.sample(range(1, n + 1), rng.randint(0, n))}
            sets = list(combinations(range(1, n + 1), rng.randint(1, n)))
            want = [e for e in sets if sum(weights.get(v, F(0)) for v in e) >= 1]
            assert FractionalCover(weights=weights).covered(sets) == want


class TestCertificateCheck:
    # min x1 + x2 s.t. x1 + x2 >= 2, x1 <= 5: x = (2, 0), y = (1, 0)
    A, SENSES, B, C = [[1, 1], [1, 0]], [">=", "<="], [2, 5], [1, 1]

    def check(self, X, Y, D=1):
        _check_certificate(self.A, self.SENSES, self.B, self.C, X, Y, D)

    def test_accepts_optimum(self):
        self.check([2, 0], [1, 0])
        self.check([6, 0], [3, 0], D=3)

    @pytest.mark.parametrize("X, Y", [
        ([1, 0], [1, 0]),     # x violates the ">=" row
        ([-1, 3], [1, 0]),    # x negative
        ([3, 0], [1, 0]),     # feasible but c.x != b.y
        ([2, 0], [2, 0]),     # A^T y > c
        ([2, 0], [-1, 0]),    # y < 0 on a ">=" row
        ([2, 0], [1, 1]),     # y > 0 on a "<=" row
    ])
    def test_rejects_corrupted(self, X, Y):
        with pytest.raises(LPError, match="certificate"):
            self.check(X, Y)


class TestDuality:
    def test_triangle(self):
        h = new_hypergraph(3, 2, [(1, 2), (1, 3), (2, 3)])
        nu_star, fm = fractional_matching_number(h)
        tau_star, fc = fractional_cover_number(h)
        assert nu_star == tau_star == Fraction(3, 2)
        assert all(w == Fraction(1, 2) for w in fm.weights.values())
        assert all(w == Fraction(1, 2) for w in fc.weights.values())

    def test_empty(self):
        h = new_hypergraph(4, 2, [])
        assert fractional_matching_number(h)[0] == 0
        assert fractional_cover_number(h)[0] == 0

    def test_strong_duality_random(self):
        rng = random.Random(15)
        for _ in range(80):
            n = rng.randint(3, 10)
            k = rng.choice([x for x in (2, 3, 4) if x <= n])
            h = random_hypergraph(rng, n, k, rng.randint(1, 12))
            nu_star, fm = fractional_matching_number(h)
            tau_star, fc = fractional_cover_number(h)
            assert nu_star == tau_star
            assert fm.size == nu_star
            assert fc.size == tau_star
            nu, _ = matching_number(h)
            tau = cover_number(h)
            assert nu <= nu_star <= tau

    def test_slackness_support_bound(self):
        rng = random.Random(99)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(4, 9), rng.choice([2, 3]),
                                  rng.randint(1, 10))
            nu_star, fm = fractional_matching_number(h)
            _, fc = fractional_cover_number(h)
            rep = check_complementary_slackness(h, fm, fc)
            assert rep.saturated_ok, rep.violations
            assert rep.support_size <= h.k * nu_star


class TestFractionalMatchingValidation:
    def test_overload_rejected(self):
        h = new_hypergraph(4, 2, [(1, 2), (1, 3)])
        with pytest.raises(LPError, match="overloaded"):
            make_fractional_matching(h, {(1, 2): 1, (1, 3): 1})

    def test_non_edge_rejected(self):
        h = new_hypergraph(4, 2, [(1, 2)])
        with pytest.raises(LPError, match="non-edge"):
            make_fractional_matching(h, {(3, 4): Fraction(1, 2)})

    def test_boundary(self):
        h = new_hypergraph(4, 2, [(1, 2), (3, 4)])
        fm = make_fractional_matching(h, {(1, 2): 1, (3, 4): Fraction(1, 3)})
        assert fm.boundary() == [3, 4]


def full_lex_chain(h, order, target):
    """Loads and size of the lex-max chain run to the end of `order`, with
    no stop: each load along `order` maximized, then pinned by an `==` row."""
    rows = [([1 if v in e else 0 for e in h.edges], "<=", 1) for v in h.vertices]
    rows.append(([1] * len(h.edges), "==", target))
    for v in order:
        coeffs = [1 if v in e else 0 for e in h.edges]
        value, x, _ = solve_lp(coeffs, rows, maximize=True)
        rows.append((coeffs, "==", value))
    loads = {v: sum((w for w, e in zip(x, h.edges) if v in e), Fraction(0))
             for v in h.vertices}
    return loads, sum(x, Fraction(0))


class TestLexMax:
    def test_target_above_optimum(self):
        h = new_hypergraph(3, 2, [(1, 2)])
        with pytest.raises(LPError, match="exceeds"):
            lex_max_fractional_matching(h, (1, 2, 3), Fraction(2))

    def test_negative_target_infeasible(self, solves):
        # refused before any solve, with the target named
        h = new_hypergraph(3, 2, [(1, 2)])
        with pytest.raises(Infeasible, match="target size -1/3 is negative"):
            lex_max_fractional_matching(h, (1, 2, 3), Fraction(-1, 3))
        assert solves == []

    def test_empty_order(self):
        # no load to maximize: any fractional matching of the target size
        h = complete_hypergraph(5, 2)
        for target in (Fraction(0), Fraction(3, 2), Fraction(5, 2)):
            assert lex_max_fractional_matching(h, (), target).size == target
        with pytest.raises(LPError, match="exceeds"):
            lex_max_fractional_matching(h, (), Fraction(3))

    def test_loads_nonincreasing_on_stable(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(60):
            n = rng.randint(5, 12)
            h = random_stable(rng, n, 4, rng.randint(2, 25))
            if not h.edges:
                continue
            nu_star, _ = fractional_matching_number(h)
            fm = lex_max_fractional_matching(h, tuple(range(1, n + 1)), nu_star)
            loads = [fm.loads[v] for v in range(1, n + 1)]
            assert all(x >= y for x, y in zip(loads, loads[1:]))
            checked += 1
        assert checked >= 30

    def test_stopped_chain_matches_full_chain(self, solves):
        # seeded stable 4-graphs and non-stable 2- and 3-graphs, at nu* and
        # below it, along 1..n and along a shuffled order
        rng = random.Random(17)
        stopped = 0
        for _ in range(60):
            n = rng.randint(5, 10)
            k = rng.choice([2, 3, 4])
            h = (random_stable(rng, n, 4, rng.randint(2, 20)) if k == 4
                 else random_hypergraph(rng, n, k, rng.randint(1, 12)))
            nu_star, _ = fractional_matching_number(h)
            target = nu_star * rng.choice([1, 1, Fraction(1, 2), Fraction(2, 3)])
            order = list(range(1, n + 1))
            if rng.random() < 0.5:
                rng.shuffle(order)
            solves.clear()
            fm = lex_max_fractional_matching(h, order, target)
            stopped += len(solves) < len(order)
            assert (fm.loads, fm.size) == full_lex_chain(h, order, target)
        assert stopped >= 30
        # H1(9,4,1): loads 1 at vertices 1..4 reach k * nu* = 4, so the chain
        # stops after 4 of its 9 solves
        solves.clear()
        fm = lex_max_fractional_matching(build_Hi(9, 4, 1, 1), tuple(range(1, 10)), 1)
        assert len(solves) == 4
        assert [fm.loads[v] for v in range(1, 10)] == [1] * 4 + [0] * 5

    def test_repeated_and_non_vertices_count_once(self):
        # K4 on the ground set {1,2,3,4} of [9], target 1 (k * target = 2):
        # the repeated 1 and the non-vertex 9 add nothing, so the chain goes
        # on to maximize vertex 4's load (counting the repeat would stop it at
        # the first matching that loads 1, whatever it loads 4 with)
        h = new_hypergraph(9, 2, list(combinations(range(1, 5), 2)), vertices=(1, 2, 3, 4))
        for order in ((1, 1, 4, 3, 2), (1, 9, 1, 4, 3, 2), (9, 1, 1, 9, 4)):
            fm = lex_max_fractional_matching(h, order, 1)
            assert fm.weights == {(1, 4): 1}
            assert (fm.loads, fm.size) == full_lex_chain(h, order, 1)
        rng = random.Random(19)
        for _ in range(30):
            n = rng.randint(5, 9)
            h = random_hypergraph(rng, n, rng.choice([2, 3]), rng.randint(1, 10))
            nu_star, _ = fractional_matching_number(h)
            order = [rng.randint(0, n + 2) for _ in range(2 * n)]
            fm = lex_max_fractional_matching(h, order, nu_star)
            assert (fm.loads, fm.size) == full_lex_chain(h, order, nu_star)

    def test_fractional_boundary_block_small(self):
        # the strictly-fractional loads of a lex-max matching form a block of <= 4
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(5, 11)
            h = random_stable(rng, n, 4, rng.randint(2, 20))
            if not h.edges:
                continue
            nu_star, _ = fractional_matching_number(h)
            fm = lex_max_fractional_matching(h, tuple(range(1, n + 1)), nu_star)
            frac = fm.boundary()
            assert len(frac) <= 4
            if frac:
                assert frac == list(range(frac[0], frac[0] + len(frac)))


class TestPerfectExtension:
    def test_wrong_k(self):
        h = complete_hypergraph(6, 3)
        fm = make_fractional_matching(h, {})
        with pytest.raises(PerfectExtensionError, match="uniformity"):
            extend_to_perfect_fm(h, 0, fm)

    def test_complete_t0(self):
        # K_8^4 has a perfect fractional matching needing no apex help
        h = complete_hypergraph(8, 4)
        fm = lex_max_fractional_matching(h, tuple(range(1, 9)), Fraction(2))
        out = extend_to_perfect_fm(h, 0, fm)
        assert all(v == 1 for v in out.loads.values())

    def test_full_degree_check(self):
        h = complete_hypergraph(8, 4)
        assert full_degree_vertices(h, 8)
        h2 = new_hypergraph(8, 4, [e for e in h.edges if e != (1, 2, 3, 4)])
        assert not full_degree_vertices(h2, 1)

    def test_non_divisible_rejected(self):
        h = complete_hypergraph(7, 4)
        fm = make_fractional_matching(h, {})
        with pytest.raises(PerfectExtensionError, match="divisibility"):
            extend_to_perfect_fm(h, 0, fm)


class TestHasPerfectFM:
    def test_disjoint_edges(self):
        h = new_hypergraph(8, 4, [(1, 2, 3, 4), (5, 6, 7, 8)])
        assert has_perfect_fm(h)

    def test_star(self):
        assert not has_perfect_fm(new_hypergraph(4, 2, [(1, 2), (1, 3), (1, 4)]))


def monotone_rows(h):
    """The monotone cover rows of a stable family on [n], from brute-force
    dominance: w(e) >= 1 for each edge that no other edge dominates, then
    w_i - w_{i+1} >= 0."""
    top = [e for e in h.edges
           if not any(g != e and all(a <= b for a, b in zip(e, g)) for g in h.edges)]
    rows = [([int(v in e) for v in range(1, h.n + 1)], ">=", 1) for e in top]
    for i in range(h.n - 1):
        coeffs = [0] * h.n
        coeffs[i], coeffs[i + 1] = 1, -1
        rows.append((coeffs, ">=", 0))
    return rows


class TestMonotoneCoverBound:
    """On a stable family on [n], `tau_star` is the monotone cover bound."""

    def test_matches_lp_on_hi(self):
        for k, s in [(2, 2), (3, 1), (4, 1)]:
            h = build_Hi(k * (s + 1) + 2, k, s, 1)
            assert _cover_rows(h) == monotone_rows(h)
            nu_star, _ = fractional_matching_number(h)
            assert tau_star(h) == nu_star == s

    def test_sound_upper_bound_random_stable(self):
        # exact, not just sound: a stable family on [n] has a nonincreasing
        # minimum cover, which tau_star and min_cover_sorted rely on
        rng = random.Random(55)
        for _ in range(30):
            h = random_stable(rng, rng.randint(4, 9), rng.choice([2, 3]),
                              rng.randint(1, 12))
            assert _cover_rows(h) == monotone_rows(h)
            nu_star, _ = fractional_matching_number(h)
            assert tau_star(h) == nu_star

    def test_maximal_edges(self):
        # the rows read the family's cached answer: its maximal edges when
        # stable, one row per edge otherwise
        h = build_Hi(8, 2, 1, 1)  # star at vertex 1 on 8 vertices
        rows = _cover_rows(h)
        assert vars(h)["maximal_edges"] == ((1, 8),)
        assert rows[0] == ([1, 0, 0, 0, 0, 0, 0, 1], ">=", 1) and len(rows) == 1 + 7
        star = new_hypergraph(8, 2, [(2, v) for v in range(3, 9)])
        assert _cover_rows(star) == [([int(v in e) for v in range(1, 9)], ">=", 1)
                                     for e in star.edges]
        assert vars(star)["maximal_edges"] is None
