"""`Interval` against a reference with `Fraction` endpoints.

`FractionInterval` is the interval class as it was before endpoints became
int numerators over a shared denominator: every operation reduces its
`Fraction` endpoints.  Both classes must give the same rational interval
for every operation, and so the same margin enclosure on every box the
prover can reach.  The exact point margins and region tests, which now run
on point intervals, are checked the same way against the `Fraction`
formulas and comparisons they replaced.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emclab.certify import TARGETS, eval_calculate_margin
from emclab.intervals import Box, Interval
from emclab.scalars import D1, FOUR, c_coeff, mu_beta


class FractionInterval:
    """The closed interval [lo, hi] with `Fraction` endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(v):
        v = Fraction(v)
        return FractionInterval(v, v)

    def __add__(self, other):
        if isinstance(other, FractionInterval):
            return _fiv(self.lo + other.lo, self.hi + other.hi)
        c = _scalar(other)
        return _fiv(self.lo + c, self.hi + c)

    __radd__ = __add__

    def __neg__(self):
        return _fiv(-self.hi, -self.lo)

    def __sub__(self, other):
        if isinstance(other, FractionInterval):
            return _fiv(self.lo - other.hi, self.hi - other.lo)
        c = _scalar(other)
        return _fiv(self.lo - c, self.hi - c)

    def __rsub__(self, other):
        c = _scalar(other)
        return _fiv(c - self.hi, c - self.lo)

    def __mul__(self, other):
        a, b = self.lo, self.hi
        if not isinstance(other, FractionInterval):
            c = _scalar(other)
            return _fiv(a * c, b * c) if c >= 0 else _fiv(b * c, a * c)
        c, d = other.lo, other.hi
        if a >= 0:
            if c >= 0:
                return _fiv(a * c, b * d)
            if d <= 0:
                return _fiv(b * c, a * d)
            return _fiv(b * c, b * d)
        if b <= 0:
            if c >= 0:
                return _fiv(a * d, b * c)
            if d <= 0:
                return _fiv(b * d, a * c)
            return _fiv(a * d, a * c)
        if c >= 0:
            return _fiv(a * d, b * d)
        if d <= 0:
            return _fiv(b * c, a * c)
        return _fiv(min(a * d, b * c), max(a * c, b * d))

    __rmul__ = __mul__

    def __pow__(self, exp):
        if exp == 0:
            return FractionInterval.point(1)
        if exp % 2 == 1 or self.lo >= 0:
            return _fiv(self.lo**exp, self.hi**exp)
        if self.hi <= 0:
            return _fiv(self.hi**exp, self.lo**exp)
        return _fiv(Fraction(0), max(self.lo**exp, self.hi**exp))

    def recip(self):
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return _fiv(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _fcoerce(other).recip()

    def max_with(self, other):
        other = _fcoerce(other)
        return _fiv(max(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, v):
        return self.lo <= Fraction(v) <= self.hi

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return (self.lo + self.hi) / 2

    def halves(self):
        m = self.mid
        return _fiv(self.lo, m), _fiv(m, self.hi)


def _fiv(lo, hi):
    return FractionInterval(lo, hi)


def _scalar(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _fcoerce(v):
    return v if isinstance(v, FractionInterval) else FractionInterval.point(v)


def _ends(iv):
    return iv.lo, iv.hi


def _reference(box: Box) -> Box:
    return Box({n: FractionInterval(Fraction(iv.lo), Fraction(iv.hi))
                for n, iv in box.coords.items()}, box.region_tag)


BOXES = 300        # random boxes per target
MAX_DEPTH = 40     # bisection steps from a root, at most


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_margins_match_fraction_reference(target):
    """On boxes reached by random bisection paths from the target's roots,
    the margin under every mutation is the reference's enclosure."""
    rec = TARGETS[target]
    rng = random.Random(f"interval-oracle-{target}")
    roots = rec.roots(Fraction(1, 10**5) if rec.takes_zmax else None)
    for _ in range(BOXES):
        box = rng.choice(roots)
        ref = _reference(box)
        for _ in range(rng.randint(0, MAX_DEPTH)):
            side = rng.randrange(2)
            box, ref = box.split()[side], ref.split()[side]
        assert {n: _ends(iv) for n, iv in box.coords.items()} == \
            {n: _ends(iv) for n, iv in ref.coords.items()}
        for mutation in (None, *rec.mutations):
            assert _ends(rec.margin(box, mutation)) == _ends(rec.margin(ref, mutation))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=64)
scalars = st.one_of(st.integers(min_value=-5, max_value=5), rationals)


@st.composite
def interval_pairs(draw):
    a, b = sorted((draw(rationals), draw(rationals)))
    return Interval(a, b), FractionInterval(a, b)


@settings(max_examples=200, deadline=None)
@given(interval_pairs(), interval_pairs(), scalars, st.integers(min_value=0, max_value=5))
def test_every_operation_matches_fraction_reference(x, y, c, exp):
    (a, ra), (b, rb) = x, y
    pairs = [(a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra),
             (a + c, ra + c), (c + a, c + ra), (a - c, ra - c), (c - a, c - ra),
             (a * c, ra * c), (c * a, c * ra), (a**exp, ra**exp),
             (a.max_with(b), ra.max_with(rb)), (a.max_with(c), ra.max_with(c)),
             *zip(a.halves(), ra.halves())]
    if not rb.contains(0):
        pairs += [(b.recip(), rb.recip()), (a / b, ra / rb)]
    if c != 0:
        pairs.append((a / c, ra / c))
    for got, want in pairs:
        assert _ends(got) == _ends(want)
    assert (a.width, a.mid) == (ra.width, ra.mid)
    assert a.contains(c) == ra.contains(c)
    assert a.positive() == (ra.lo > 0)
    for p, q, rp, rq in ((a, b, ra, rb), (b, a, rb, ra), (a, a, ra, ra)):
        assert p.inside(q) == (rq.lo <= rp.lo < rp.hi <= rq.hi)


# ---------------------------------------------------------------------------
# the exact point path against the Fraction formulas it replaced
# ---------------------------------------------------------------------------

def _fraction_calculate_margin(x, y, z, mutation=None):
    """The cubic margin evaluated on `Fraction`s, as `eval_calculate_margin`
    did before it moved onto point intervals."""
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    if x <= Fraction(5, 8):
        h = FOUR**3 * x**3 - (FOUR * x - y) ** 3
        p = 52 * FOUR**3 * x**3 * z**3
    else:
        h = max(27 * y * x**2 - 9 * y**2 * x + y**3, 27 * y**3)
        if x <= Fraction(2, 3):
            h += 3 * D1 * FOUR * y**2 * x
        p = FOUR**3 * x**3 / 8100
    lead = D1 * (FOUR * x - y) ** 3
    if mutation == "negate-lead":
        lead = -lead
    elif mutation == "flip-p-sign":
        p = -p
    return lead - (FOUR * x - 3 * y) * h - (FOUR * x - 3 * y) * p


def _fraction_maxvalue_margin(pt, mutation):
    """C_i on `Fraction`s: `c_coeff` is ring operations only."""
    mu, beta = mu_beta(pt["a"], pt["b"])
    return c_coeff(int(pt["i"]), pt["alpha"], mu, beta, mutation)


def _fraction_in_calc_region(pt, z_max):
    return 0 < pt["z"] <= z_max and 5 * pt["z"] < pt["y"] <= pt["x"] <= Fraction(3, 4)


def _fraction_in_maxvalue_region(pt, z_max):
    i = pt["i"]
    if not (i.denominator == 1 and 1 <= i <= 5):
        return False
    b_lo, b_hi = ((Fraction(1, 3), Fraction(3, 8)) if i in (2, 3)
                  else (Fraction(1, 4), Fraction(1)))
    return 0 <= pt["alpha"] <= 1 / FOUR and b_lo <= pt["b"] <= b_hi and pt["b"] <= pt["a"] < 1


def _between(rng, lo, hi):
    """A rational in [lo, hi] with a random, often large, denominator."""
    den = rng.choice((2**rng.randint(0, 48), rng.randint(1, 10**12), 3 * 2**rng.randint(0, 20)))
    return lo + (hi - lo) * Fraction(rng.randint(0, den), den)


def _calc_points(rng, z_max):
    """(kind, point) pairs: inside the region, on a piece boundary, outside."""
    for _ in range(POINTS):
        z = _between(rng, z_max / 10**6, z_max)
        x = _between(rng, Fraction(1, 100), Fraction(3, 4))
        yield "inside", {"x": x, "y": _between(rng, 6 * z, x), "z": z}
        x = rng.choice((Fraction(5, 8), Fraction(2, 3), Fraction(3, 4)))
        y = rng.choice((x, _between(rng, 6 * z, x)))
        yield "boundary", {"x": x, "y": y, "z": rng.choice((z, z_max))}
        edit = rng.choice((("x", Fraction(3, 4) + _between(rng, Fraction(1, 10**9), 1)),
                           ("y", x + _between(rng, Fraction(1, 10**9), 1)),
                           ("y", 5 * z), ("z", Fraction(0)), ("z", z_max * 2),
                           ("x", -x)))
        yield "outside", {"x": x, "y": _between(rng, 6 * z, x), "z": z, edit[0]: edit[1]}


def _maxvalue_points(rng, z_max):
    for _ in range(POINTS):
        i = rng.randint(1, 5)
        b_lo, b_hi = (Fraction(1, 3), Fraction(3, 8)) if i in (2, 3) else (Fraction(1, 4), 1)
        b = _between(rng, b_lo, min(b_hi, Fraction(99, 100)))
        point = {"i": Fraction(i), "alpha": _between(rng, 0, 1 / FOUR), "b": b,
                 "a": _between(rng, b, Fraction(1 - Fraction(1, 10**9)))}
        yield "inside", point
        yield "boundary", {**point, "b": rng.choice((Fraction(1, 3), Fraction(3, 8))),
                           "a": Fraction(1, 2),
                           "alpha": rng.choice((Fraction(0), 1 / FOUR, point["alpha"]))}
        edit = rng.choice((("i", Fraction(rng.choice((0, 6)))), ("i", Fraction(5, 2)),
                           ("alpha", 1 / FOUR + Fraction(1, 10**12)), ("alpha", Fraction(-1, 7)),
                           ("a", Fraction(1)), ("a", b - Fraction(1, 10**9)),
                           ("b", b_lo - Fraction(1, 10**9)), ("b", b_hi + Fraction(1, 10**9))))
        yield "outside", {**point, edit[0]: edit[1]}


POINTS = 150       # random points per kind and target
REFERENCE = {
    "calculate": (_calc_points, _fraction_in_calc_region,
                  lambda pt, m: _fraction_calculate_margin(pt["x"], pt["y"], pt["z"], m)),
    "maxvalue": (_maxvalue_points, _fraction_in_maxvalue_region, _fraction_maxvalue_margin),
}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_point_path_matches_fraction_reference(target):
    """At seeded points inside each target's region, on its piece and range
    boundaries (x = 5/8, 2/3, 3/4; b = 1/3, 3/8) and outside it, the region
    test is the `Fraction` comparisons' and, under every mutation, the exact
    margin is the `Fraction` formula's value, as a `Fraction`."""
    rec = TARGETS[target]
    points, in_region, margin = REFERENCE[target]
    rng = random.Random(f"point-oracle-{target}")
    kinds = {"inside": 0, "boundary": 0, "outside": 0}
    for z_max in ((Fraction(1, 10**5), Fraction(1, 200000)) if rec.takes_zmax else (None,)):
        for kind, pt in points(rng, z_max):
            got = rec.in_region(pt, z_max)
            assert got == in_region(pt, z_max), (kind, pt)
            kinds[kind] += got
            if target == "maxvalue" and not (pt["i"] in range(1, 6) and pt["b"] != 1):
                continue          # C_i needs i in 1..5, and mu needs b != 1
            for mutation in (None, *rec.mutations):
                want = margin(pt, mutation)
                got = rec.point_margin(pt, mutation)
                assert type(got) is Fraction and got == want, (kind, pt, mutation)
                if target == "calculate":
                    assert eval_calculate_margin(pt["x"], pt["y"], pt["z"], mutation) == want
    # the points are where they are meant to be
    per_zmax = 2 if rec.takes_zmax else 1
    assert kinds == {"inside": POINTS * per_zmax, "boundary": POINTS * per_zmax,
                     "outside": 0}
