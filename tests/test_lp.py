import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emclab.lp
from emclab.constructions import build_Hi
from emclab.hypergraph import (Hypergraph, HypergraphError, complete_hypergraph, induced,
                               is_stable, new_hypergraph)
from emclab.lp import (MAX_LP_VERTICES, FractionalCover, FractionalMatching, Infeasible,
                       LPError, PerfectExtensionError, Unbounded, _check_certificate,
                       _cover_lp, _exact, _matching_rows, _scaled,
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


def solve_outcome(c, rows, maximize, solve=solve_lp):
    """(value, x, duals) or the exception type, with the pivot trace."""
    trace = []
    try:
        result = solve(c, rows, maximize=maximize, trace=trace)
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
        r, cover_rows = _cover_lp(h)
        rows = _matching_rows(h) + cover_rows
        assert all(type(v) is int for coeffs, _, rhs in rows for v in (*coeffs, rhs))
        assert all(type(v) is int for v in r)
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

    @pytest.mark.parametrize("factor, error", [
        (F(1, 2), r"sorted cover not a cover at edge \(1, 4\)"),
        (F(2), r"sorted cover weighs 5/2, not tau\* = 2"),
    ], ids=["halved", "doubled"])
    def test_forged_chain_step_is_refused(self, monkeypatch, factor, error):
        # K(4,2): one tau* solve, then one chain step per vertex, each 1/2;
        # the forged last step leaves (1/2, 1/2, 1/2, 1/4) or (.., 1)
        real = emclab.lp.solve_lp
        calls = []

        def forged(c, rows, maximize=False, trace=None):
            value, x, duals = real(c, rows, maximize=maximize, trace=trace)
            calls.append(value)
            return (value * factor if len(calls) == 5 else value), x, duals
        monkeypatch.setattr(emclab.lp, "solve_lp", forged)
        with pytest.raises(LPError, match=error):
            min_cover_sorted(complete_hypergraph(4, 2))
        assert len(calls) == 5

    def test_covered_matches_fraction_sums(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(2, 8)
            weights = {v: F(rng.randint(0, 6), rng.randint(1, 6))
                       for v in rng.sample(range(1, n + 1), rng.randint(0, n))}
            sets = list(combinations(range(1, n + 1), rng.randint(1, n)))
            want = [e for e in sets if sum(weights.get(v, F(0)) for v in e) >= 1]
            assert FractionalCover(weights=weights).covered(sets) == want


class TestMalformedRows:
    """A row that does not fit the LP is refused by index before any pivot."""

    def test_row_longer_than_c(self):
        # the extra coefficient used to land in the slack column
        with pytest.raises(LPError, match="row 0 has 2 coefficients for 1 variables"):
            solve_lp([1], [([1, 5], "<=", 1)], maximize=True)

    def test_row_shorter_than_c(self):
        trace = []
        with pytest.raises(LPError, match="row 1 has 1 coefficients for 2 variables"):
            solve_lp([1, 1], [([1, 1], "<=", 2), ([1], "<=", 1)], trace=trace)
        assert trace == []

    def test_unknown_sense(self):
        with pytest.raises(LPError, match="row 1 has sense '<'"):
            solve_lp([1], [([1], "<=", 2), ([1], "<", 1)], maximize=True)


# ---------------------------------------------------------------------------
# the dense tableau, kept as the reference for the revised solver
# ---------------------------------------------------------------------------

def dense_simplex_min(c, rows, trace=None):
    """Minimize c.x subject to `rows` and x >= 0, exactly, on the dense
    tableau `emclab.lp` pivoted on before its revised form.

    rows: list of (coeffs, sense, rhs) with sense in {"<=", ">=", "=="}.
    c holds ints and Fractions (`solve_lp` reads it with `_exact`).
    Returns (value, x, row_duals).  row_duals[i] is the minimization dual
    y_i of row i as the caller wrote it: y_i <= 0 on "<=", y_i >= 0 on ">=",
    free on "==", and sum(rhs_i * y_i) == value.

    Two-phase primal simplex with Bland's rule on a fraction-free integer
    tableau (Bareiss 1968; Edmonds 1967).  After the rhs >= 0 flip every row
    is scaled by one common L, the lcm of all coefficient and rhs
    denominators, and the costs by their own lcm Lc.  The tableau holds D
    times the rational tableau, D > 0 the previous pivot: a pivot p on row r,
    column s replaces every other row i by (p*T[i] - T[i][s]*T[r]) // D, an
    exact division, and D by p (row r is negated first if p < 0).  The
    reduced-cost rows are tableau rows updated by the same step.  Common
    scale factors change no sign and no ratio order, so Bland's rule makes
    the same pivots as on the rational tableau.  An `int` entry of c or
    `rows` is used as it is; any other entry of `rows` is read through
    `Fraction`, which appears otherwise only in the output.  Every optimum
    passes `_check_certificate` first.
    """
    nvars = len(c)
    m = len(rows)
    # normalize to nonnegative rhs
    norm = []
    signs = []   # -1 on the rows negated here
    for coeffs, sense, rhs in rows:
        coeffs = _exact(coeffs)
        rhs = rhs if type(rhs) is int else Fraction(rhs)
        signs.append(-1 if rhs < 0 else 1)
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        norm.append((coeffs, sense, rhs))
    scale = lcm(*(v.denominator for coeffs, _, rhs in norm for v in (*coeffs, rhs)
                  if type(v) is not int))
    A = [_scaled(coeffs, scale) for coeffs, _, _ in norm]
    b = _scaled([rhs for _, _, rhs in norm], scale)
    senses = [sense for _, sense, _ in norm]
    cost_scale = lcm(*(v.denominator for v in c if type(v) is not int))
    C = _scaled(c, cost_scale)

    slack_col = {}
    art_col = {}
    ncols = nvars
    for i, sense in enumerate(senses):
        if sense != "==":
            slack_col[i] = ncols
            ncols += 1
    first_art = ncols
    for i, sense in enumerate(senses):
        if sense != "<=":
            art_col[i] = ncols
            ncols += 1

    # rows 0..m-1: constraints; row m: phase-2 reduced costs; row m+1 (while
    # phase 1 runs): phase-1 reduced costs.  Column ncols is the rhs.
    tab = []
    basis = []
    for i, sense in enumerate(senses):
        row = A[i] + [0] * (ncols + 1 - nvars)
        if sense == "<=":
            row[slack_col[i]] = 1
            basis.append(slack_col[i])
        else:
            if sense == ">=":
                row[slack_col[i]] = -1
            row[art_col[i]] = 1
            basis.append(art_col[i])
        row[ncols] = b[i]
        tab.append(row)
    tab.append(C + [0] * (ncols + 1 - nvars))
    D = 1

    def pivot(r, s, phase):
        nonlocal D
        if trace is not None:
            trace.append((phase, s, basis[r]))
        prow = tab[r]
        p = prow[s]
        if p < 0:   # only when driving out artificials; keeps D > 0
            prow = tab[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[s]
            if f:
                tab[i] = [(p * a - f * v) // D for a, v in zip(row, prow)]
            elif p != D:
                tab[i] = [p * a // D for a in row]
        D = p
        basis[r] = s

    def run(obj, allowed, phase):
        """Bland's rule: enter the first allowed column with a negative
        reduced cost; leave by the least ratio rhs/a over a > 0, compared by
        cross-multiplying, ties to the least basic index."""
        while True:
            red = tab[obj]
            enter = next((j for j in range(allowed) if red[j] < 0), -1)
            if enter < 0:
                return
            leave = -1
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    t = tab[i][ncols]
                    if leave < 0 or t * best_a < best_t * a or (
                            t * best_a == best_t * a and basis[i] < basis[leave]):
                        leave, best_t, best_a = i, t, a
            if leave < 0:
                raise Unbounded("LP is unbounded")
            pivot(leave, enter, phase)

    if art_col:
        phase1 = [int(j >= first_art) for j in range(ncols)] + [0]
        for i in art_col:
            phase1 = [a - v for a, v in zip(phase1, tab[i])]
        tab.append(phase1)
        run(m + 1, ncols, 1)
        tab.pop()
        if any(tab[i][ncols] for i in range(m) if basis[i] >= first_art):
            raise Infeasible("LP is infeasible")
        # drive basic artificials out where possible
        for i in range(m):
            if basis[i] >= first_art:
                for j in range(first_art):
                    if tab[i][j]:
                        pivot(i, j, 1)
                        break

    run(m, first_art, 2)

    X = [0] * nvars
    for i, j in enumerate(basis):
        if j < nvars:
            X[j] = tab[i][ncols]
    # minus the reduced cost of each row's slack (of its artificial for
    # "=="): y_i, or -y_i on a ">=" row, whose slack has coefficient -1
    red = tab[m]
    neg_red = [-red[slack_col[i] if i in slack_col else art_col[i]] for i in range(m)]
    Y = [-v if sense == ">=" else v for v, sense in zip(neg_red, senses)]
    _check_certificate(A, senses, b, C, X, Y, D)
    den = D * cost_scale
    value = Fraction(sum(cj * xj for cj, xj in zip(C, X)), den)
    x = [Fraction(v, D) if v else F(0) for v in X]
    duals = [Fraction(sign * y * scale, den) if y else F(0) for sign, y in zip(signs, Y)]
    return value, x, duals



def dense_solve_lp(c, rows, maximize=False, trace=None):
    """`solve_lp` on the dense tableau."""
    c = _exact(c)
    if maximize:
        value, x, duals = dense_simplex_min([-v for v in c], rows, trace=trace)
        return -value, x, [-d for d in duals]
    return dense_simplex_min(c, rows, trace=trace)


def as_written(v, form):
    """v as an int (when integral), a Fraction or a string."""
    if form == "int" and v.denominator == 1:
        return v.numerator
    return str(v) if form == "str" else v


@st.composite
def reference_lps(draw):
    """(c, rows, maximize): 1-6 rows, 1-40 columns, every sense, either rhs
    sign, each entry written as an int, a Fraction or a string; half of them
    with 0/1 coefficients only, and half with a last row sum(x) <= R."""
    m, nv = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    value = st.sampled_from([F(0), F(1)]) if draw(st.booleans()) else small_rational
    written = st.tuples(value, st.sampled_from(["int", "int", "fraction", "str"])).map(
        lambda vf: as_written(*vf))
    coeffs = st.lists(written, min_size=nv, max_size=nv)
    rational = st.tuples(small_rational, st.sampled_from(["int", "fraction", "str"])).map(
        lambda vf: as_written(*vf))
    rows = [(draw(coeffs), draw(st.sampled_from(["<=", "<=", ">=", "=="])), draw(rational))
            for _ in range(m)]
    if draw(st.booleans()):   # a bounded region: many more optima
        rows[-1] = ([1] * nv, "<=", draw(st.integers(1, 4)))
    c = draw(st.lists(rational, min_size=nv, max_size=nv))
    return c, rows, draw(st.booleans())


def assert_same_as_dense(c, rows, maximize):
    got = solve_outcome(c, rows, maximize)
    assert got == solve_outcome(c, rows, maximize, solve=dense_solve_lp)
    return got


class TestDenseReference:
    """The revised solver makes the dense tableau's pivots and returns its
    answer: the same (value, x, duals) or exception, and the same trace."""

    @settings(max_examples=200, deadline=None)
    @given(reference_lps())
    def test_random_lps(self, lp):
        assert_same_as_dense(*lp)

    @pytest.mark.parametrize("h, nu_star", [(complete_hypergraph(8, 3), F(8, 3)),
                                            (build_Hi(12, 4, 2, 1), 2)],
                             ids=["K(8,3)", "H1(12,4,2)"])
    def test_packing_lps(self, h, nu_star):
        result, trace = assert_same_as_dense([1] * len(h.edges), _matching_rows(h), True)
        assert result[0] == nu_star and len(trace) > 5

    def test_lex_max_chains(self, monkeypatch):
        lps = []
        real = emclab.lp.solve_lp

        def spy(c, rows, maximize=False, trace=None):
            lps.append((list(c), [(list(a), sense, rhs) for a, sense, rhs in rows], maximize))
            return real(c, rows, maximize=maximize, trace=trace)
        monkeypatch.setattr(emclab.lp, "solve_lp", spy)
        rng = random.Random(25)
        for n, m in [(6, 12), (7, 18), (8, 22)]:
            h = random_stable(rng, n, 4, m)
            nu_star, _ = fractional_matching_number(h)
            lex_max_fractional_matching(h, h.vertices, nu_star)
        monkeypatch.undo()
        phase1 = 0
        for c, rows, maximize in lps:
            _, trace = assert_same_as_dense(c, rows, maximize)
            phase1 += sum(phase == 1 for phase, _, _ in trace)
        assert len(lps) >= 9 and phase1 > 0


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
        ([2, 0, 0], [1, 0]),  # x longer than c
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

    def test_unsorted_non_edge_rejected(self):
        # the key is sorted before the lookup and named sorted in the error
        h = new_hypergraph(5, 2, [(1, 2), (2, 3)])
        with pytest.raises(LPError, match=r"weight on non-edge \(3, 4\)"):
            make_fractional_matching(h, {(2, 1): Fraction(1, 2), (4, 3): Fraction(1, 2)})

    def test_unsorted_edge_key_accepted(self):
        h = new_hypergraph(5, 2, [(1, 2), (3, 5)])
        fm = make_fractional_matching(h, {(2, 1): 1, (5, 3): Fraction(1, 2)})
        assert fm.weights == {(1, 2): 1, (3, 5): Fraction(1, 2)}

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


def _old_full_degree_vertices(h, upto):
    """full_degree_vertices by enumerating every k-set through each vertex."""
    edge_set = set(h.edges)
    for i in range(1, upto + 1):
        rest = [v for v in h.vertices if v != i]
        for comb_e in combinations(rest, h.k - 1):
            if tuple(sorted((i,) + comb_e)) not in edge_set:
                return False
    return True


def apex_family(rng, n, k, t):
    """Every k-set of [n] meeting [t], plus a random family on [n] \\ [t]."""
    rest = list(combinations(range(t + 1, n + 1), k))
    return new_hypergraph(n, k, [e for e in combinations(range(1, n + 1), k) if e[0] <= t]
                          + rng.sample(rest, rng.randint(0, len(rest))))


def full_degree_cases(seed=2026):
    """(h, upto) pairs: apex families with a full-degree prefix, the same
    with one k-set through a prefix vertex removed, induced subfamilies whose
    ground set skips a vertex in [upto], upto past |V|, and k = 1."""
    rng = random.Random(seed)
    cases = []
    for _ in range(40):
        n = rng.randint(5, 9)
        k = rng.randint(1, 4)
        t = rng.randint(0, 3)
        h = apex_family(rng, n, k, t)
        cases += [(h, upto) for upto in (t, t + 1, n, n + 2)]
        through = [e for e in h.edges if e[0] <= t]
        if through:
            drop = rng.choice(through)
            cut = new_hypergraph(n, k, [e for e in h.edges if e != drop])
            cases += [(cut, t), (cut, drop[-1])]
        skip = rng.randint(1, n)
        sub = induced(h, [v for v in h.vertices if v != skip])
        cases += [(sub, skip), (sub, n + 1), (sub, max(skip - 1, 0))]
    # vertex 3 lies in no k-set of a two-vertex ground set: vacuously full;
    # vertex 1 lies in one k-set with a (k-1)-vertex ground set, no edge
    cases += [(induced(complete_hypergraph(6, 4), [5, 6]), 3),
              (induced(complete_hypergraph(6, 4), [4, 5, 6]), 1),
              (new_hypergraph(4, 1, [(1,), (2,), (4,)]), 2),
              (new_hypergraph(4, 1, [(1,), (2,), (4,)]), 3)]
    return cases


class TestFullDegreeVertices:
    def test_matches_enumeration(self):
        outcomes = set()
        for h, upto in full_degree_cases():
            want = _old_full_degree_vertices(h, upto)
            assert full_degree_vertices(h, upto) == want, (h, upto)
            outcomes.add(want)
        assert outcomes == {True, False}


class TestNoEdgeSet:
    """The LP layer looks edges up in the sorted edge tuple; it never builds
    a set of the whole family."""

    @pytest.fixture(autouse=True)
    def no_edge_set(self, monkeypatch):
        def refuse(self):
            raise AssertionError("edge_set called")
        monkeypatch.setattr(Hypergraph, "edge_set", refuse)

    def test_packing_lp(self):
        value, fm, fc = fractional_matching_and_cover(complete_hypergraph(9, 4))
        assert value == fm.size == fc.size == Fraction(9, 4)

    def test_lex_max(self):
        h = build_Hi(9, 3, 2, 1)
        nu_star, _ = fractional_matching_number(h)
        fm = lex_max_fractional_matching(h, tuple(range(1, 10)), nu_star)
        assert fm.size == nu_star

    def test_make_fractional_matching(self):
        h = complete_hypergraph(8, 4)
        fm = make_fractional_matching(h, {(4, 3, 2, 1): 1, (5, 6, 7, 8): 1})
        assert fm.size == 2
        with pytest.raises(LPError, match="non-edge"):
            make_fractional_matching(new_hypergraph(8, 4, [(1, 2, 3, 4)]),
                                     {(5, 6, 7, 8): 1})

    def test_full_degree_vertices(self):
        h = complete_hypergraph(8, 4)
        assert full_degree_vertices(h, 8)
        assert not full_degree_vertices(h, 9)


def _hand_built(n, t, ones, fracs=()):
    """A `FractionalMatching` on [n] with no weights and size n/4 - t, whose
    loads are 1 on t+1..t+ones, then `fracs`, then 0."""
    loads = [F(1)] * ones + list(fracs)
    loads += [F(0)] * (n - t - len(loads))
    return FractionalMatching({}, dict(zip(range(t + 1, n + 1), loads)), F(n, 4) - t)


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

    def test_boundary_rows_are_the_incidence(self, monkeypatch):
        # K(12,4), apex t = 1: loads 1 on 2..8 and 1/3 on the block 9, 10,
        # 11, so p = 1 and e0 is 1, 12 and two of the block; each `==` row
        # is a block vertex's incidence over e0, and every weight is 1/3
        h = complete_hypergraph(12, 4)
        third = F(1, 3)
        fm = make_fractional_matching(h, {(5, 6, 7, 8): 1, (2, 3, 4, 9): third,
                                          (2, 3, 4, 10): third, (2, 3, 4, 11): third})
        seen = []
        real = emclab.lp.solve_lp

        def spy(c, rows, maximize=False, trace=None):
            seen.append([(list(coeffs), sense, rhs) for coeffs, sense, rhs in rows])
            return real(c, rows, maximize=maximize, trace=trace)
        monkeypatch.setattr(emclab.lp, "solve_lp", spy)
        out = extend_to_perfect_fm(h, 1, fm)
        e0 = [(1, 9, 10, 12), (1, 9, 11, 12), (1, 10, 11, 12)]
        [rows] = seen
        assert rows[:3] == [([int(v in e) for e in e0], "==", 1 - third) for v in (9, 10, 11)]
        assert rows[3:] == [([int(i == j) for j in range(3)], "<=", 1) for i in range(3)]
        assert [out.weights[e] for e in e0] == [third] * 3

    def test_non_divisible_rejected(self):
        h = complete_hypergraph(7, 4)
        fm = make_fractional_matching(h, {})
        with pytest.raises(PerfectExtensionError, match="divisibility"):
            extend_to_perfect_fm(h, 0, fm)

    # (precondition, H, t, fm on H); from "load-pattern" on the loads are
    # not those of the weights, so only a hand-built matching gets there
    PRECONDITIONS = [
        ("uniformity", complete_hypergraph(6, 3), 0, {}),
        ("ground-set", induced(complete_hypergraph(9, 4), range(2, 10)), 0, {}),
        ("divisibility", complete_hypergraph(7, 4), 0, {}),
        ("stability", new_hypergraph(8, 4, [(5, 6, 7, 8)]), 0, {}),
        # stable: the up-set of (1, 6, 7, 8) is gone, so vertex 1 misses it
        ("full-degree", new_hypergraph(8, 4, [e for e in combinations(range(1, 9), 4)
                                              if e[1:] != (6, 7, 8)]), 1, {}),
        # N/4 - t = -1
        ("size", complete_hypergraph(8, 4), 3, {}),
        ("size", complete_hypergraph(8, 4), 0, {(1, 2, 3, 4): 1}),
        ("support", complete_hypergraph(8, 4), 1, {(1, 2, 3, 4): 1}),
        ("monotone-loads", complete_hypergraph(8, 4), 1, {(2, 3, 4, 6): 1}),
        # loads 4/5 on the block 6..10
        ("boundary", complete_hypergraph(12, 4), 1,
         {(2, 3, 4, 5): 1, **{e: F(1, 5) for e in combinations(range(6, 11), 4)}}),
        ("load-pattern", complete_hypergraph(8, 4), 0,
         FractionalMatching({}, {1: F(2), **{v: F(1) for v in range(2, 8)}, 8: F(0)}, F(2))),
        # no block, and q = 4 != t + 4s* = 5
        ("boundary", complete_hypergraph(8, 4), 1, _hand_built(8, 1, 3)),
        ("apex", complete_hypergraph(8, 4), 0, _hand_built(8, 0, 6, (F(1, 2), F(1, 2)))),
        # p = t + 4s* - q = 9 - 9 = 0
        ("boundary", complete_hypergraph(12, 4), 1, _hand_built(12, 1, 8, (F(1, 2), F(1, 2)))),
        # p = 1: x0 + x1 = x0 + x2 = 1/10 and x1 + x2 = 9/10 need x0 < 0
        ("boundary-system", complete_hypergraph(12, 4), 1,
         _hand_built(12, 1, 7, (F(9, 10), F(9, 10), F(1, 10)))),
        # p = 1: three weights of 1/4
        ("boundary-system", complete_hypergraph(12, 4), 1, _hand_built(12, 1, 7, (F(1, 2),) * 3)),
        ("perfection", complete_hypergraph(8, 4), 0, _hand_built(8, 0, 8)),
    ]

    @pytest.mark.parametrize("precondition, h, t, fm", PRECONDITIONS,
                             ids=[f"{c[0]}-{j}" for j, c in enumerate(PRECONDITIONS)])
    def test_precondition_refused(self, precondition, h, t, fm):
        if isinstance(fm, dict):
            fm = make_fractional_matching(h, fm)
        with pytest.raises(PerfectExtensionError) as ei:
            extend_to_perfect_fm(h, t, fm)
        assert ei.value.precondition == precondition, ei.value


class TestHasPerfectFM:
    def test_disjoint_edges(self):
        h = new_hypergraph(8, 4, [(1, 2, 3, 4), (5, 6, 7, 8)])
        assert has_perfect_fm(h)

    def test_star(self):
        assert not has_perfect_fm(new_hypergraph(4, 2, [(1, 2), (1, 3), (1, 4)]))


class TestGroundSetBound:
    """Every LP entry refuses a ground set past MAX_LP_VERTICES before it
    builds anything of its size, an empty family included."""

    ENTRIES = [
        fractional_matching_and_cover, tau_star, min_cover_sorted,
        lambda h: make_fractional_matching(h, {}),
        lambda h: lex_max_fractional_matching(h, (), 0),
        lambda h: extend_to_perfect_fm(h, 0, FractionalMatching({}, {}, F(0))),
    ]

    @pytest.mark.parametrize("entry", ENTRIES, ids=[
        "packing", "tau_star", "min_cover_sorted", "make", "lex_max", "extend"])
    def test_refused_past_the_bound(self, entry):
        for edges in ([], [(1, 2, 3, 4)]):
            h = new_hypergraph(MAX_LP_VERTICES + 1, 4, edges)
            with pytest.raises(HypergraphError, match=f"at most {MAX_LP_VERTICES} vertices"):
                entry(h)

    def test_bound_itself_is_taken(self):
        h = new_hypergraph(MAX_LP_VERTICES, 4, [])
        assert fractional_matching_and_cover(h)[0] == tau_star(h) == 0
        assert len(min_cover_sorted(h).weights) == MAX_LP_VERTICES
        assert len(make_fractional_matching(h, {}).loads) == MAX_LP_VERTICES


def packing_form(rows):
    """The cover rows `rows`, (coeffs over the vertices, ">=", r_j), as the
    dual `solve_lp` takes: (r, one `<= 1` row per vertex over the rows)."""
    coeffs, _, r = zip(*rows)
    return list(r), [(list(col), "<=", 1) for col in zip(*coeffs)]


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
            assert _cover_lp(h) == packing_form(monotone_rows(h))
            nu_star, _ = fractional_matching_number(h)
            assert tau_star(h) == nu_star == s

    def test_sound_upper_bound_random_stable(self):
        # exact, not just sound: a stable family on [n] has a nonincreasing
        # minimum cover, which tau_star and min_cover_sorted rely on
        rng = random.Random(55)
        for _ in range(30):
            h = random_stable(rng, rng.randint(4, 9), rng.choice([2, 3]),
                              rng.randint(1, 12))
            assert _cover_lp(h) == packing_form(monotone_rows(h))
            nu_star, _ = fractional_matching_number(h)
            assert tau_star(h) == nu_star

    def test_packing_lp_off_stable_families(self):
        # on a non-stable family, or one on a proper subset of [n], the
        # cover LP is the packing LP itself
        rng = random.Random(56)
        checked = 0
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(4, 9), rng.choice([2, 3]),
                                  rng.randint(1, 12))
            if rng.random() < 0.5:
                h = induced(h, sorted(rng.sample(h.vertices, rng.randint(h.k, h.n))))
            if h.vertices == range(1, h.n + 1) and is_stable(h):
                continue
            assert _cover_lp(h) == ([1] * len(h.edges), _matching_rows(h))
            checked += 1
        assert checked >= 20

    def test_maximal_edges(self):
        # the columns read the family's cached answer: its maximal edges
        # when stable, one column per edge otherwise
        h = build_Hi(8, 2, 1, 1)  # star at vertex 1 on 8 vertices
        r, rows = _cover_lp(h)
        assert vars(h)["maximal_edges"] == ((1, 8),)
        # one column for the edge (1, 8), then w_i - w_{i+1} >= 0 for i < 8
        assert r == [1] + [0] * 7 and len(rows) == 8
        assert rows[0] == ([1, 1, 0, 0, 0, 0, 0, 0], "<=", 1)
        assert rows[7] == ([1, 0, 0, 0, 0, 0, 0, -1], "<=", 1)
        star = new_hypergraph(8, 2, [(2, v) for v in range(3, 9)])
        assert _cover_lp(star) == packing_form([([int(v in e) for v in range(1, 9)], ">=", 1)
                                                for e in star.edges])
        assert vars(star)["maximal_edges"] is None
