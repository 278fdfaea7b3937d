from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emclab.hypergraph import binom
from emclab.scalars import (D1, DELTA, FOUR, ConvexityReport, c45_identity_check,
                            check_convexity, eval_C_coeffs, eval_Cp_Cq,
                            eval_f_lemma_convex, eval_h0_h, eval_hj, eval_prebound,
                            finite_diff_check, genbinom, mu_beta)

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# the `Fraction` bodies the int-numerator evaluators replaced: the reference
# ---------------------------------------------------------------------------

def ref_genbinom(r, j):
    if j < 0:
        return Fraction(0)
    r = Fraction(r)
    num = Fraction(1)
    for i in range(j):
        num *= r - i
    return num / factorial(j)


def ref_f_lemma_convex(x, m, k, s, a):
    x = Fraction(x)
    a = Fraction(a)
    if x >= 1:
        raise ValueError("x must be < 1")
    load = (1 - a) * s / (1 - x)
    first = ref_genbinom(m, k - 1) - ref_genbinom(m - load, k - 1)
    second = ref_genbinom((k - 1) * load + k - 2, k - 1)
    return max(first, second)


def ref_hj(x, m, k, s, a, j):
    x = Fraction(x)
    a = Fraction(a)
    load = (1 - a) * s / (1 - x)
    return Fraction(m - j) / (m - j - load) - Fraction(k, k - 2)


def ref_mu_beta(a, b):
    mu = (1 - a) / (1 - b) if b != 1 else None
    return mu, D1 + 3 * a - FOUR * b


def ref_check_convexity(f, lo, hi, grid_points, hj_params=None):
    lo = Fraction(lo)
    hi = Fraction(hi)
    step = (hi - lo) / (grid_points - 1)
    grid = tuple(lo + i * step for i in range(grid_points))
    vals = [f(x) for x in grid]
    diffs = tuple(vals[i - 1] - 2 * vals[i] + vals[i + 1]
                  for i in range(1, grid_points - 1))
    hj_values = None
    hj_ok = None
    if hj_params is not None:
        m, k, s, a = hj_params
        a = Fraction(a)
        cap = (1 + a) / 2
        hj_values = tuple(
            tuple(ref_hj(x, m, k, s, a, j) for x in grid if x <= cap)
            for j in range(k - 1))
        hj_ok = all(v <= 0 for row in hj_values for v in row)
    return ConvexityReport(grid=grid, second_diffs=diffs,
                           all_nonneg=all(d >= 0 for d in diffs),
                           min_second_diff=min(diffs),
                           hj_values=hj_values, hj_all_nonpos=hj_ok)


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


units = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda v: v < 1)
small = st.integers(min_value=0, max_value=8)


class TestFractionReference:
    """The int-numerator evaluators give the reference's `Fraction`s, and
    raise where it raises."""

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=-20, max_value=20, max_denominator=10**4),
           st.integers(min_value=-2, max_value=8))
    def test_genbinom(self, r, j):
        got = genbinom(r, j)
        assert type(got) is Fraction and got == ref_genbinom(r, j)

    @settings(max_examples=300, deadline=None)
    @given(units, units, st.integers(min_value=0, max_value=40), small, small)
    def test_f_and_hj(self, x, a, m, k, s):
        got = eval_f_lemma_convex(x, m, k, s, a)
        assert type(got) is Fraction and got == ref_f_lemma_convex(x, m, k, s, a)
        for j in range(-1, k):
            assert outcome(eval_hj, x, m, k, s, a, j) == outcome(ref_hj, x, m, k, s, a, j)

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=1, max_value=3, max_denominator=100), units,
           small, small, small)
    def test_x_at_least_one(self, x, a, m, k, s):
        assert outcome(eval_f_lemma_convex, x, m, k, s, a) is ValueError
        assert outcome(eval_hj, x, m, k, s, a, 0) == outcome(ref_hj, x, m, k, s, a, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=-2, max_value=2, max_denominator=10**6),
           st.one_of(st.just(Fraction(1)),
                     st.fractions(min_value=-2, max_value=2, max_denominator=10**6)))
    def test_mu_beta(self, a, b):
        got = mu_beta(a, b)
        assert got == ref_mu_beta(a, b)
        assert all(type(v) is Fraction for v in got if v is not None)

    @pytest.mark.parametrize("points", [41, 101])
    def test_convexity_report(self, points):
        """The 41-point test cell and the 101-point cell of `verify-ineq
        --target convex` give the reference's report."""
        def f(x):
            return eval_f_lemma_convex(x, 30, 4, 5, HALF)
        assert check_convexity(f, 0, Fraction(3, 4), points, hj_params=(30, 4, 5, HALF)) == \
            ref_check_convexity(f, 0, Fraction(3, 4), points, hj_params=(30, 4, 5, HALF))

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(min_value=-3, max_value=3, max_denominator=50),
           st.fractions(min_value=-3, max_value=3, max_denominator=50),
           st.integers(min_value=3, max_value=12), small)
    def test_second_differences(self, lo, hi, points, c):
        """Any f, any grid: one `Fraction` per second difference, the
        reference's values."""
        def f(x):
            return x**3 - c * x + Fraction(1, 7)
        got = check_convexity(f, lo, hi, points)
        assert got == ref_check_convexity(f, lo, hi, points)
        assert all(type(v) is Fraction for v in got.grid + got.second_diffs)


class TestGenbinom:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=-2, max_value=30))
    def test_agrees_with_integer_binomial(self, n, j):
        assert genbinom(n, j) == binom(n, j)

    def test_rational_upper(self):
        assert genbinom(HALF, 2) == Fraction(-1, 8)
        assert genbinom(Fraction(7, 2), 1) == Fraction(7, 2)

    def test_pascal_recurrence(self):
        r = Fraction(13, 3)
        for j in range(1, 6):
            assert genbinom(r, j) == genbinom(r - 1, j) + genbinom(r - 1, j - 1)


class TestConvexityLemma:
    def test_f_values(self):
        # at x = 0 the load is (1-a)s
        v = eval_f_lemma_convex(0, 30, 4, 5, HALF)
        expect = max(genbinom(30, 3) - genbinom(Fraction(55, 2), 3),
                     genbinom(Fraction(19, 2), 3))
        assert v == expect

    def test_x_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            eval_f_lemma_convex(1, 10, 3, 1, HALF)

    def test_paper_instance_convex(self):
        rep = check_convexity(
            lambda x: eval_f_lemma_convex(x, 30, 4, 5, HALF),
            0, Fraction(3, 4), 41, hj_params=(30, 4, 5, HALF))
        assert rep.all_nonneg
        assert rep.hj_all_nonpos

    def test_affine_second_diffs_zero(self):
        rep = check_convexity(lambda x: 3 * x + 7, 0, 1, 11)
        assert rep.all_nonneg and rep.min_second_diff == 0
        assert all(d == 0 for d in rep.second_diffs)

    def test_hj_boundary_zero(self):
        # at m = ks + k - 2, j = k - 2, x = (1+a)/2 the load is 2s and
        # h_{k-2} vanishes identically
        k, s, a = 4, 3, HALF
        m = k * s + k - 2
        assert eval_hj((1 + a) / 2, m, k, s, a, k - 2) == 0

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            check_convexity(lambda x: x, 0, 1, 2)


class TestPrebound:
    def test_general_adds_pair_term(self):
        m, s, mu = 50, 10, HALF
        half = eval_prebound(m, s, mu, "half")
        general = eval_prebound(m, s, mu, "general")
        assert general - half == genbinom(2 * mu * s, 2) * genbinom(m - 3 * s + 1, 1)

    def test_regression_values(self):
        assert eval_prebound(50, 10, HALF, "half") == max(
            genbinom(29, 3) - genbinom(24, 3), genbinom(17, 3))

    def test_bad_mu(self):
        with pytest.raises(ValueError):
            eval_prebound(50, 10, 0, "half")

    def test_s_too_large(self):
        with pytest.raises(ValueError):
            eval_prebound(10, 4, HALF, "half")

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            eval_prebound(50, 10, HALF, "nope")


class TestH0H:
    def test_branch_selection(self):
        assert eval_h0_h(5, 100, HALF, Fraction(2, 5)).branch == "b>=3/8"
        assert eval_h0_h(5, 100, HALF, Fraction(7, 20)).branch == "1/3<=b<3/8"
        assert eval_h0_h(5, 100, HALF, Fraction(3, 10)).branch == "1/4<=b<1/3"

    def test_boundary_reports_both(self):
        rep = eval_h0_h(5, 100, HALF, Fraction(3, 8))
        assert set(rep.adjacent) == {"b>=3/8", "1/3<=b<3/8"}
        rep2 = eval_h0_h(5, 100, HALF, Fraction(1, 3))
        assert set(rep2.adjacent) == {"1/3<=b<3/8", "1/4<=b<1/3"}

    def test_h_consistent_with_h0(self):
        s, m, a, b = 20, 100, HALF, Fraction(2, 5)
        rep = eval_h0_h(s, m, a, b)
        mu = (1 - a) / (1 - b)
        beta = 1 - DELTA + 3 * a - (4 - DELTA) * b
        expect = (1 - a) * s * rep.h0 \
            - (1 - DELTA) * (1 - a) * s / beta * genbinom(m - mu * s, 3)
        assert rep.h == expect
        assert rep.h0 == genbinom(m, 3) - genbinom(m - mu * s, 3)

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_h0_h(5, 100, HALF, Fraction(1, 5))   # b < 1/4
        with pytest.raises(ValueError):
            eval_h0_h(5, 100, Fraction(1, 4), Fraction(2, 5))  # b > a


def leading_coefficient(values, step, degree):
    """Exact leading coefficient of a polynomial sampled on an equispaced
    grid, via repeated finite differences; also checks the degree bound by
    requiring one extra difference level to vanish."""
    diffs = list(values)
    for _ in range(degree):
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    lead = diffs[0] / (factorial(degree) * step**degree)
    extra = [y - x for x, y in zip(diffs, diffs[1:])]
    assert all(d == 0 for d in extra), "sampled function is not a polynomial"
    return lead


class TestCpCq:
    CASES = [
        (HALF, Fraction(2, 5)),     # b >= 3/8
        (HALF, Fraction(7, 20)),    # 1/3 <= b < 3/8
        (HALF, Fraction(3, 10)),    # 1/4 <= b < 1/3
        (Fraction(3, 5), Fraction(2, 5)),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_negativity_targets(self, a, b):
        rho = Fraction(1, 10000)
        cp, cq = eval_Cp_Cq(a, b, rho)
        assert cp < -Fraction(500, 3) * rho**2
        assert cq < -Fraction(65, 6) * rho**4

    @pytest.mark.parametrize("a,b", CASES)
    def test_cp_is_leading_coeff_of_h_at_eta_m(self, a, b):
        # interpolation oracle: h(eta*m) is a quartic in m whose leading
        # coefficient must equal cp
        rho = Fraction(1, 10000)
        eta = 1000 * rho
        cp, _ = eval_Cp_Cq(a, b, rho)
        base, step = 10**6, 10**3
        vals = [eval_h0_h(eta * m, m, a, b).h
                for m in range(base, base + 6 * step, step)]
        assert leading_coefficient(vals, Fraction(step), 4) == cp

    @pytest.mark.parametrize("a,b", CASES)
    def test_cq_is_leading_coeff_of_h_at_lp_point(self, a, b):
        rho = Fraction(1, 10000)
        _, cq = eval_Cp_Cq(a, b, rho)
        base, step = 10**6, 10**3
        vals = [eval_h0_h(Fraction(m - 2) / (4 - DELTA), m, a, b).h
                for m in range(base, base + 6 * step, step)]
        lead = leading_coefficient(vals, Fraction(step), 4)
        if Fraction(1, 3) <= b < Fraction(3, 8):
            # the middle branch of cq folds the pair-degree term into the
            # cube as 3(1-delta)(4-delta)mu^2 where the exact coefficient is
            # 12(1-delta)mu^2; the gap is an explicit delta-order amount
            mu = (1 - a) / (1 - b)
            gap = DELTA * (1 - a) * (1 - DELTA) * mu**2 / (2 * (4 - DELTA) ** 4)
            assert lead - cq == gap
        else:
            assert lead == cq

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_Cp_Cq(HALF, Fraction(2, 5), 0)
        with pytest.raises(ValueError):
            eval_Cp_Cq(Fraction(999, 1000), Fraction(2, 5), Fraction(1, 100))


class TestCCoeffs:
    def test_at_alpha_zero(self):
        d1 = 1 - DELTA
        for i in (2, 3, 4, 5):
            assert eval_C_coeffs(0, HALF, Fraction(2, 5), i) == 3 * d1
        mu = (1 - HALF) / (1 - Fraction(2, 5))
        beta = 1 - DELTA + 3 * HALF - (4 - DELTA) * Fraction(2, 5)
        assert eval_C_coeffs(0, HALF, Fraction(2, 5), 1) == 3 * (beta + d1)

    def test_c1_closed_form(self):
        a, b, alpha = HALF, Fraction(2, 5), Fraction(1, 5)
        mu = (1 - a) / (1 - b)
        beta = 1 - DELTA + 3 * a - (4 - DELTA) * b
        expect = (beta + d1) * (6 * mu**2 * alpha**2 - 9 * mu * alpha + 3) \
            if (d1 := 1 - DELTA) else None
        assert eval_C_coeffs(alpha, a, b, 1) == expect

    def test_interpolation_oracle_quadratic(self):
        # each C_i is a quadratic in alpha; recover its leading coefficient
        a, b = HALF, Fraction(7, 20)
        mu = (1 - a) / (1 - b)
        beta = 1 - DELTA + 3 * a - (4 - DELTA) * b
        d1 = 1 - DELTA
        leads = {
            1: 6 * (beta + d1) * mu**2,
            2: 6 * (27 * beta - 45 * beta * mu + (beta + d1) * mu**2),
            3: 6 * (-36 * beta * mu + (27 * beta + d1) * mu**2),
            4: 6 * (27 * beta - 9 * beta * mu + (beta + d1) * mu**2),
            5: 6 * (27 * beta + d1) * mu**2,
        }
        step = Fraction(1, 20)
        for i, expect in leads.items():
            vals = [eval_C_coeffs(j * step, a, b, i) for j in range(4)]
            assert leading_coefficient(vals, step, 2) == expect

    def test_identities_on_grid(self):
        for num_a in range(8, 16):
            a = Fraction(num_a, 16)
            for num_b in range(4, num_a + 1):
                b = Fraction(num_b, 16)
                for alpha in (0, Fraction(1, 8), Fraction(1, 4)):
                    out = c45_identity_check(alpha, a, b)
                    assert out["c4"] == out["c4_identity"]
                    assert out["c5"] == out["c5_identity"]

    def test_mu1_variant_only_matches_at_mu1(self):
        out = c45_identity_check(Fraction(1, 8), HALF, HALF)  # mu = 1
        assert out["mu"] == 1
        assert out["c4"] == out["c4_mu1_variant"]
        assert out["c5"] == out["c5_mu1_variant"]
        out2 = c45_identity_check(Fraction(1, 8), HALF, Fraction(2, 5))
        assert out2["c4"] != out2["c4_mu1_variant"]
        assert out2["c5"] != out2["c5_mu1_variant"]

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_C_coeffs(Fraction(1, 2), HALF, Fraction(2, 5), 1)  # alpha too big
        with pytest.raises(ValueError):
            eval_C_coeffs(0, HALF, Fraction(2, 5), 6)


class TestFiniteDiff:
    def test_cubic_first_derivative(self):
        rep = finite_diff_check(lambda x: x**3, 2, 1,
                                [HALF, Fraction(1, 4), Fraction(1, 8)], 12)
        # central differences of a cubic miss by exactly h^2
        assert rep.discrepancies == (Fraction(1, 4), Fraction(1, 16), Fraction(1, 64))
        assert rep.monotone_shrinking

    def test_quadratic_exact(self):
        a, b = HALF, Fraction(2, 5)
        mu = (1 - a) / (1 - b)
        beta = 1 - DELTA + 3 * a - (4 - DELTA) * b
        point = Fraction(1, 8)
        ref = (beta + (1 - DELTA)) * (12 * mu**2 * point - 9 * mu)
        rep = finite_diff_check(lambda t: eval_C_coeffs(t, a, b, 1), point, 1,
                                [Fraction(1, 16), Fraction(1, 32)], ref)
        assert all(d == 0 for d in rep.discrepancies)

    def test_second_order(self):
        rep = finite_diff_check(lambda x: 5 * x**2, 3, 2,
                                [1, HALF], 10)
        assert all(d == 0 for d in rep.discrepancies)

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: x, 0, 1, [HALF, HALF], 1)
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: x, 0, 3, [HALF], 1)
