"""`Interval` against a reference with `Fraction` endpoints.

`FractionInterval` is the interval class as it was before endpoints became
int numerators over a shared denominator: every operation reduces its
`Fraction` endpoints.  Both classes must give the same rational interval
for every operation, and so the same margin enclosure on every box the
prover can reach.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emclab.certify import TARGETS
from emclab.intervals import Box, Interval


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
