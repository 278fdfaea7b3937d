"""Exact evaluators for the scalar functions behind the stability analysis.

All binomials here are generalized (falling-factorial) binomials, defined for
rational upper arguments: C(r, j) = r(r-1)...(r-j+1)/j!.  Every public
function returns `fractions.Fraction`s, except that `mu_beta` and `c_coeff`
given `Interval`s return `Interval`s; piecewise functions report both
branches at a region boundary instead of silently picking one.

`genbinom`, the convexity lemma's f and h_j, and `mu_beta` are evaluated on
int numerators, which are never reduced: with x = p/q and a = c/d the load
(1-a)s/(1-x) is L/M for ints L and M > 0, a generalized binomial of it is a
falling product of ints over j! M^j, and `mu_beta` runs on point intervals.
Only the value returned becomes a `Fraction`, as does each second
difference of `check_convexity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from emclab.intervals import Interval

DELTA = Fraction(1, 10**10)
FOUR = 4 - DELTA
D1 = 1 - DELTA
_D1_3 = 3 * D1          # c_coeff's constant term, built once


def _falling(top: int, den: int, j: int) -> int:
    """(top)(top - den)...(top - (j-1)den) = j! den^j C(top/den, j), for j >= 0."""
    num = 1
    for i in range(j):
        num *= top - i * den
    return num


def genbinom(r, j: int) -> Fraction:
    """Falling-factorial binomial C(r, j) for rational r; 0 for j < 0."""
    if j < 0:
        return Fraction(0)
    r = Fraction(r)
    q = r.denominator
    return Fraction(_falling(r.numerator, q, j), factorial(j) * q**j)


# ---------------------------------------------------------------------------
# convexity lemma pieces
# ---------------------------------------------------------------------------

def _load(x, s, a) -> tuple[int, int]:
    """The load (1-a)s/(1-x) as L/M: L = (d-c)sq and M = d(q-p) for
    x = p/q, a = c/d; M > 0 iff x < 1."""
    x = Fraction(x)
    a = Fraction(a)
    q, d = x.denominator, a.denominator
    return (d - a.numerator) * s * q, d * (q - x.numerator)


def eval_f_lemma_convex(x, m: int, k: int, s: int, a) -> Fraction:
    """f(x) = max{C(m,k-1) - C(m - (1-a)s/(1-x), k-1),
                  C((k-1)(1-a)s/(1-x) + k-2, k-1)}."""
    load, den = _load(x, s, a)
    if den <= 0:
        raise ValueError("x must be < 1")
    j = k - 1
    if j < 0:
        return Fraction(0)
    # both branches over j! den^j, so the max compares numerators
    first = _falling(m * den, den, j) - _falling(m * den - load, den, j)
    second = _falling(j * load + (k - 2) * den, den, j)
    return Fraction(max(first, second), factorial(j) * den**j)


def _hj(load: int, den: int, m: int, k: int, j: int) -> Fraction:
    """h_j at the load load/den: (m-j)den/((m-j)den - load) - k/(k-2) over
    one denominator."""
    if den == 0:
        raise ZeroDivisionError("x = 1")
    rest = (m - j) * den - load
    return Fraction((m - j) * den * (k - 2) - k * rest, rest * (k - 2))


def eval_hj(x, m: int, k: int, s: int, a, j: int) -> Fraction:
    """h_j(x) = (m-j)/(m-j - (1-a)s/(1-x)) - k/(k-2); nonpositive on
    [0, (1+a)/2] whenever m >= ks + k - 2."""
    return _hj(*_load(x, s, a), m, k, j)


@dataclass(frozen=True)
class ConvexityReport:
    grid: tuple[Fraction, ...]
    second_diffs: tuple[Fraction, ...]
    all_nonneg: bool
    min_second_diff: Fraction
    hj_values: tuple[tuple[Fraction, ...], ...] | None
    hj_all_nonpos: bool | None


def _second_diff(u: Fraction, v: Fraction, w: Fraction) -> Fraction:
    """u - 2v + w, as one `Fraction`."""
    a, b, c = u.denominator, v.denominator, w.denominator
    return Fraction(u.numerator * b * c - 2 * v.numerator * a * c + w.numerator * a * b,
                    a * b * c)


def check_convexity(f, lo, hi, grid_points: int, hj_params=None) -> ConvexityReport:
    """Exact second differences of `f` on an equispaced grid; >= 0 everywhere
    means no convexity violation at the tested resolution.

    With hj_params = (m, k, s, a), also evaluates every h_j on the grid
    (clipped to [0, (1+a)/2]) and reports whether all values are <= 0.
    """
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    lo = Fraction(lo)
    hi = Fraction(hi)
    # grid point i is lo + i(hi - lo)/(grid_points - 1), over one denominator
    q, t, n = lo.denominator, hi.denominator, grid_points - 1
    start = lo.numerator * t * n
    step = hi.numerator * q - lo.numerator * t
    grid = tuple(Fraction(start + i * step, q * t * n) for i in range(grid_points))
    vals = [f(x) for x in grid]
    diffs = tuple(_second_diff(*vals[i - 1:i + 2]) for i in range(1, grid_points - 1))
    hj_values = None
    hj_ok = None
    if hj_params is not None:
        m, k, s, a = hj_params
        a = Fraction(a)
        cap = (1 + a) / 2
        loads = [_load(x, s, a) for x in grid if x <= cap]
        hj_values = tuple(tuple(_hj(load, den, m, k, j) for load, den in loads)
                          for j in range(k - 1))
        hj_ok = all(v <= 0 for row in hj_values for v in row)
    return ConvexityReport(grid=grid, second_diffs=diffs,
                           all_nonneg=all(d >= 0 for d in diffs),
                           min_second_diff=min(diffs),
                           hj_values=hj_values, hj_all_nonpos=hj_ok)


# ---------------------------------------------------------------------------
# link-size prebound
# ---------------------------------------------------------------------------

def eval_prebound(m: int, s, mu, case: str) -> Fraction:
    """Upper bound for the edge count of a 3-graph on [m] whose sorted
    minimum cover has small top weight and total at most mu*s.

    case "half": top cover weight < 1/2 — the bare max term.
    case "general": top weight <= 3/5 — adds the pair-degree correction
    C(2 mu s, 2) * C(m - 3s + 1, 1).
    """
    s = Fraction(s)
    mu = Fraction(mu)
    if not (0 < mu <= 1):
        raise ValueError("need 0 < mu <= 1")
    if s > (m - 2) / FOUR:
        raise ValueError(f"need s <= (m-2)/(4-delta), got s={s}")
    if case not in ("half", "general"):
        raise ValueError(f"unknown case {case!r}")
    return _link_bound(m, s, mu, general=case == "general")


def _link_bound(m: int, s: Fraction, mu: Fraction, general: bool) -> Fraction:
    """The bare max term of `eval_prebound`, plus its pair-degree correction
    when `general`; also the two lower branches of h0 in `eval_h0_h`."""
    core = max(genbinom(3 * s - 1, 3) - genbinom(3 * s - 1 - mu * s, 3),
               genbinom(3 * mu * s + 2, 3))
    if general:
        return core + genbinom(2 * mu * s, 2) * genbinom(m - 3 * s + 1, 1)
    return core


# ---------------------------------------------------------------------------
# piecewise h0 / h and the m^4 coefficients
# ---------------------------------------------------------------------------

def mu_beta(a, b):
    """mu = (1-a)/(1-b), None when b = 1, and beta = 1 - delta + 3a - (4-delta)b.

    Evaluated on point intervals: rationals a, b give `Fraction`s, and point
    `Interval`s (the certifier's point path) give point intervals."""
    point = isinstance(a, Interval)
    if not point:
        a, b = Interval.point(a), Interval.point(b)
    rest = 1 - b
    mu = None if rest.contains(0) else (1 - a) / rest
    beta = D1 + 3 * a - FOUR * b
    if point:
        return mu, beta
    return (None if mu is None else mu.lo), beta.lo


_BRANCHES = ("b>=3/8", "1/3<=b<3/8", "1/4<=b<1/3")


def _branch_of(b: Fraction) -> str:
    if b >= Fraction(3, 8):
        return _BRANCHES[0]
    if b >= Fraction(1, 3):
        return _BRANCHES[1]
    return _BRANCHES[2]


@dataclass(frozen=True)
class H0HReport:
    h0: Fraction
    h: Fraction
    branch: str
    adjacent: dict[str, Fraction]    # h0 per branch at a region boundary


def eval_h0_h(s_val, m: int, a, b) -> H0HReport:
    """The piecewise link-size bound h0(s) and h(s) = (1-a)s*h0(s)
    - (1-delta)(1-a)s/beta * C(m - mu*s, 3), branched on b.

    At a branch boundary (b = 3/8 or b = 1/3) both adjacent h0 formulas are
    evaluated and reported; the canonical value uses the closed-on-the-left
    convention of the definition.
    """
    s_val = Fraction(s_val)
    a = Fraction(a)
    b = Fraction(b)
    if not (Fraction(1, 4) <= b <= a < 1):
        raise ValueError("need 1/4 <= b <= a < 1")
    mu, beta = mu_beta(a, b)

    def h0_branch(branch: str) -> Fraction:
        if branch == _BRANCHES[0]:
            return genbinom(m, 3) - genbinom(m - mu * s_val, 3)
        return _link_bound(m, s_val, mu, general=branch == _BRANCHES[1])

    branch = _branch_of(b)
    h0 = h0_branch(branch)
    adjacent = {branch: h0}
    if b == Fraction(3, 8):
        adjacent[_BRANCHES[1]] = h0_branch(_BRANCHES[1])
    if b == Fraction(1, 3):
        adjacent[_BRANCHES[2]] = h0_branch(_BRANCHES[2])
    h = (1 - a) * s_val * h0 - D1 * (1 - a) * s_val / beta \
        * genbinom(m - mu * s_val, 3)
    return H0HReport(h0=h0, h=h, branch=branch, adjacent=adjacent)


def _max_cube_term(mu: Fraction) -> Fraction:
    return max(27 - (3 - mu) ** 3, 27 * mu**3)


def eval_Cp_Cq(a, b, rho, eta=None) -> tuple[Fraction, Fraction]:
    """Leading (m^4) coefficients of h(eta*m) and h((m-2)/(4-delta)).

    epsilon is supplied as rho^4 for a rational rho so that all fractional
    powers of epsilon stay rational; eta defaults to 1000*rho.
    """
    a = Fraction(a)
    b = Fraction(b)
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    eta = Fraction(eta) if eta is not None else 1000 * rho
    if not (Fraction(1, 4) <= b <= a < 1 - 5 * rho):
        raise ValueError("need 1/4 <= b <= a < 1 - 5*eps^(1/4)")
    mu, beta = mu_beta(a, b)
    branch = _branch_of(b)
    mx = _max_cube_term(mu)
    drop = D1 * (1 - eta * mu) ** 3 / beta
    if branch == _BRANCHES[0]:
        cp = eta * (1 - a) / 6 * ((1 - (1 - eta * mu) ** 3) - drop)
    elif branch == _BRANCHES[1]:
        cp = eta * (1 - a) / 6 * (mx * eta**3
                                  + 12 * mu**2 * (1 - 3 * eta) * eta**2 - drop)
    else:
        cp = eta * (1 - a) / 6 * (mx * eta**3 - drop)
    shrink = (1 - mu / FOUR) ** 3
    dropq = D1 / beta * shrink
    if branch == _BRANCHES[0]:
        cq = (1 - a) / (6 * FOUR) * (1 - shrink - dropq)
    elif branch == _BRANCHES[1]:
        cq = (1 - a) / (6 * FOUR) * (
            (mx + 3 * D1 * FOUR * mu**2) / FOUR ** 3 - dropq)
    else:
        cq = (1 - a) / (6 * FOUR) * (mx / FOUR ** 3 - dropq)
    return cp, cq


def c_coeff(i: int, alpha, mu, beta, mutation: str | None = None):
    """C_i as a polynomial in (alpha, mu, beta); works on Fractions and
    Intervals alike (ring operations only).  The term grouping fixes the
    interval enclosures, and so the certificates, of ``certify``."""
    if i == 1:
        return (beta + D1) * (6 * mu**2 * alpha**2 - 9 * mu * alpha + 3)
    if i == 2:
        return (6 * alpha**2 * (27 * beta - 45 * beta * mu + (beta + D1) * mu**2)
                + 9 * alpha * (4 * beta - 1 + DELTA) * mu + _D1_3)
    if i == 3:
        return (6 * alpha**2 * (-36 * beta * mu + (27 * beta + D1) * mu**2)
                + 9 * alpha * (4 * beta - 1 + DELTA) * mu + _D1_3)
    if i == 4:
        return (6 * alpha**2 * (27 * beta - 9 * beta * mu + (beta + D1) * mu**2)
                - 9 * alpha * D1 * mu + _D1_3)
    if i == 5:
        sign = -1 if mutation == "negate-c5-term" else 1
        return (6 * alpha**2 * (sign * 27 * beta * mu**2 + D1 * mu**2)
                - 9 * alpha * D1 * mu + _D1_3)
    raise ValueError("i must be 1..5")


def eval_C_coeffs(alpha, a, b, i: int) -> Fraction:
    """The five m^2-coefficients C_i(alpha) of the scaled second derivatives
    in the convexity argument (i in 1..5)."""
    alpha = Fraction(alpha)
    a = Fraction(a)
    b = Fraction(b)
    if not (0 <= alpha <= 1 / FOUR):
        raise ValueError("need 0 <= alpha <= 1/(4-delta)")
    if not (Fraction(1, 4) <= b <= a < 1):
        raise ValueError("need 1/4 <= b <= a < 1")
    mu, beta = mu_beta(a, b)
    return c_coeff(i, alpha, mu, beta)


def c45_identity_check(alpha, a, b) -> dict:
    """Decompositions of C_4 and C_5 as a positive multiple of C_1 plus an
    explicitly nonnegative remainder.

    The remainders are 6*beta*(27 - 9*mu + mu^2)*alpha^2 for C_4 and
    162*beta*mu^2*alpha^2 for C_5.  (A published variant states them with
    mu set to 1 inside the remainder; that form only matches at mu = 1, so
    the general-mu remainders are used here and the mu = 1 specialization
    is exposed for comparison.)
    """
    alpha = Fraction(alpha)
    a = Fraction(a)
    b = Fraction(b)
    mu, beta = mu_beta(a, b)
    c1 = eval_C_coeffs(alpha, a, b, 1)
    base = D1 / (beta + D1) * c1
    return {
        "c4": eval_C_coeffs(alpha, a, b, 4),
        "c4_identity": base + 6 * beta * (27 - 9 * mu + mu**2) * alpha**2,
        "c5": eval_C_coeffs(alpha, a, b, 5),
        "c5_identity": base + 162 * beta * mu**2 * alpha**2,
        "c4_mu1_variant": base + 6 * beta * (28 - 9 * mu) * alpha**2,
        "c5_mu1_variant": base + 162 * beta * alpha**2,
        "mu": mu,
        "beta": beta,
    }


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDiffReport:
    steps: tuple[Fraction, ...]
    estimates: tuple[Fraction, ...]
    discrepancies: tuple[Fraction, ...]
    monotone_shrinking: bool


def finite_diff_check(evaluator, point, order: int, h_seq, reference) -> FiniteDiffReport:
    """Central-difference estimates of the order-1 or order-2 derivative at
    `point`, compared against a closed-form `reference` value.  Discrepancies
    must shrink (weakly) as the step shrinks."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    point = Fraction(point)
    reference = Fraction(reference)
    steps = tuple(Fraction(h) for h in h_seq)
    if any(h <= 0 for h in steps) or any(
            x <= y for x, y in zip(steps, steps[1:])):
        raise ValueError("h_seq must be positive and strictly decreasing")
    estimates = []
    for h in steps:
        if order == 1:
            est = (evaluator(point + h) - evaluator(point - h)) / (2 * h)
        else:
            est = (evaluator(point + h) - 2 * evaluator(point)
                   + evaluator(point - h)) / h**2
        estimates.append(est)
    disc = tuple(abs(e - reference) for e in estimates)
    mono = all(disc[i + 1] <= disc[i] for i in range(len(disc) - 1))
    return FiniteDiffReport(steps=steps, estimates=tuple(estimates),
                            discrepancies=disc, monotone_shrinking=mono)
