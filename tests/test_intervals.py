import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emclab.intervals import Box, Certificate, Interval, _token_ratio, parse_certificate

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=64)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return Interval(min(a, b), max(a, b))


class TestInterval:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))

    def test_basic_ops(self):
        a = Interval.make(1, 2)
        b = Interval.make(-1, 3)
        assert (a + b) == Interval.make(0, 5)
        assert (a - b) == Interval.make(-2, 3)
        assert (a * b) == Interval.make(-2, 6)
        assert (1 - a) == Interval.make(-1, 0)

    def test_even_power_through_zero(self):
        iv = Interval.make(-2, 1)
        assert iv**2 == Interval.make(0, 4)
        assert iv**3 == Interval.make(-8, 1)

    def test_recip(self):
        assert Interval.make(2, 4).recip() == Interval.make(Fraction(1, 4),
                                                            Fraction(1, 2))
        with pytest.raises(ZeroDivisionError):
            Interval.make(-1, 1).recip()

    def test_max_with(self):
        assert Interval.make(-1, 2).max_with(0) == Interval.make(0, 2)

    def test_halves_cover(self):
        lo, hi = Interval.make(0, 1).halves()
        assert lo.hi == hi.lo == Fraction(1, 2)

    @settings(max_examples=200, deadline=None)
    @given(intervals(), intervals(), st.data())
    def test_containment_soundness(self, a, b, data):
        # sampled points stay inside the computed enclosure for every op
        unit = st.fractions(min_value=0, max_value=1, max_denominator=64)
        x = a.lo + data.draw(unit) * a.width
        y = b.lo + data.draw(unit) * b.width
        assert a.contains(x) and b.contains(y)
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)
        assert (a * b).contains(x * y)
        assert (a**2).contains(x**2)
        assert (a**3).contains(x**3)
        assert a.max_with(b).contains(max(x, y))
        if not b.contains(0):
            assert (a / b).contains(x / y)


ZERO, NONPOS, NONNEG, STRADDLE = (Interval.make(0, 0), Interval.make(-1, 0),
                                  Interval.make(0, 1), Interval.make(-1, 1))
scalars = st.one_of(st.integers(min_value=-5, max_value=5), rationals)


def _sign_case_examples(test):
    # every pair of the intervals that sit on the sign-case boundaries, with
    # a negative, a zero and a positive scalar
    for i, a in enumerate((ZERO, NONPOS, NONNEG, STRADDLE)):
        for j, b in enumerate((ZERO, NONPOS, NONNEG, STRADDLE)):
            test = example(a, b, (-2, 0, Fraction(3, 2))[(i + j) % 3])(test)
    return test


def _assert_exact(a, b, c):
    prods = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    assert a * b == Interval(min(prods), max(prods))
    pc = Interval.point(c)
    assert c * a == pc * a
    assert a * c == a * pc
    assert a + c == a + pc
    assert a - c == a - pc
    assert c - a == pc - a


class TestExactness:
    """Products and scalar operations are not just enclosures: they equal
    the four-product hull and the point-interval operation exactly."""

    @settings(max_examples=200, deadline=None)
    @given(intervals(), intervals(), scalars)
    @_sign_case_examples
    def test_exact(self, a, b, c):
        _assert_exact(a, b, c)

    def test_every_sign_case(self):
        signed = (Interval.make(-3, -2), Interval.make(-2, 3), Interval.make(2, 3))
        for a in signed + (ZERO, NONPOS, NONNEG, STRADDLE):
            for b in signed:
                for c in (-2, 0, 3, Fraction(-1, 3), Fraction(5, 7)):
                    _assert_exact(a, b, c)
                    _assert_exact(b, a, c)

    def test_equality_hash_repr(self):
        a = Interval.make(Fraction(1, 2), 1)
        assert a == Interval(Fraction(1, 2), Fraction(1))
        assert a != Interval.make(0, 1) and a != (Fraction(1, 2), 1)
        assert hash(a) == hash(Interval.make(Fraction(1, 2), 1))
        assert repr(a) == "Interval(lo=Fraction(1, 2), hi=Fraction(1, 1))"
        # halves are not reduced, yet equal, and hash like, reduced intervals
        for half, want in zip(Interval.make(0, 1).halves(),
                              (Interval.make(0, Fraction(1, 2)), Interval.make(Fraction(1, 2), 1))):
            assert half == want and hash(half) == hash(want)
        lo, hi = Interval.make(0, 2).halves()
        assert lo == Interval.make(0, 1) and hash(lo) == hash(Interval.make(0, 1))
        assert hi == Interval.make(1, 2) and hash(hi) == hash(Interval.make(1, 2))


class TestBox:
    def test_split_widest(self):
        box = Box({"x": Interval.make(0, 4), "y": Interval.make(0, 1)}, "tag")
        lo, hi = box.split()
        assert lo.coords["x"] == Interval.make(0, 2)
        assert hi.coords["x"] == Interval.make(2, 4)
        assert lo.coords["y"] == box.coords["y"]
        assert lo.region_tag == "tag"


class TestCertificateFormat:
    def _sample(self):
        box = Box({"x": Interval.make(0, Fraction(1, 2)),
                   "y": Interval.make(Fraction(1, 3), 1)}, "left")
        return Certificate(target="demo", status="proved",
                           boxes=((box, Interval.make(Fraction(1, 7), 2)),),
                           splits=3)

    def test_round_trip(self):
        cert = self._sample()
        again = parse_certificate(cert.serialize())
        assert again == cert
        assert again.serialize() == cert.serialize()

    def test_counterexample_round_trip(self):
        cert = Certificate(target="demo", status="counterexample", boxes=(),
                           splits=0,
                           counterexample={"x": Fraction(2, 3), "y": Fraction(0)})
        again = parse_certificate(cert.serialize())
        assert again.counterexample == cert.counterexample

    def test_zmax_round_trip(self):
        cert = Certificate(target="demo", status="proved", boxes=(), splits=0,
                           zmax=Fraction(1, 10**5))
        text = cert.serialize()
        assert text.splitlines()[1:4] == ["format 2", "target demo", "zmax 1/100000"]
        assert parse_certificate(text) == cert

    def test_v1_rejected(self):
        text = self._sample().serialize().replace("format 2\n", "")
        with pytest.raises(ValueError, match="coverage cannot be checked"):
            parse_certificate(text)
        with pytest.raises(ValueError):
            parse_certificate(self._sample().serialize().replace("format 2", "format 1"))

    def test_missing_count_line_rejected(self):
        text = self._sample().serialize().replace("boxes 1\n", "")
        with pytest.raises(ValueError, match="no boxes line"):
            parse_certificate(text)

    def test_declared_count_kept_but_not_compared(self):
        cert = self._sample()
        again = parse_certificate(cert.serialize().replace("boxes 1\n", "boxes 2\n"))
        assert again.declared_boxes == 2 and cert.declared_boxes is None
        assert again == cert

    @staticmethod
    def _read_as_fraction_reads(token):
        # `p` and `p/q` are read with int.  A token whose text after its
        # last e/E reads as an int over 4300 in magnitude is refused before
        # any value is built: returns True.  Every other token is
        # Fraction's: the same value, or the same error.
        cut = max(token.rfind("e"), token.rfind("E"))
        try:
            exponent = int(token[cut + 1:]) if cut >= 0 else 0
        except ValueError:
            exponent = 0
        if abs(exponent) > 4300:
            with pytest.raises(ValueError, match="exponent of .* is over 4300 in magnitude"):
                _token_ratio(token)
            return True
        try:
            want = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as got:
                _token_ratio(token)
            assert str(got.value) == str(exc)
        else:
            p, q = _token_ratio(token)
            assert q > 0 and Fraction(p, q) == want
        return False

    @pytest.mark.parametrize("token", ["5/16", "-5/16", "6/8", "007", "-0", "+5", "1_000",
                                       "5/0", "5/-3", "/5", "5/", "-", "", "1e3", "0.5",
                                       "\u0663/4", "4/\u0663", "1e4300", "-1E-4300", "1e",
                                       "e5"])
    def test_bound_token_examples(self, token):
        assert not self._read_as_fraction_reads(token)

    @pytest.mark.parametrize("token", ["1e4301", "1e-9999999", "0e9999999", "2.5E+4_301",
                                       " 1e99999 "])
    def test_bound_token_exponent_refused(self, token):
        assert self._read_as_fraction_reads(token)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet="0123456789-+/._eE\u0663", max_size=9))
    def test_bound_tokens(self, token):
        self._read_as_fraction_reads(token)

    def test_bound_token_error_names_the_line(self):
        text = self._sample().serialize().replace("box left 0 ", "box left 1/0 ")
        with pytest.raises(ValueError, match=r"bad certificate line 'box left 1/0 .*': "
                                             r"Fraction\(1, 0\)"):
            parse_certificate(text)
        text = self._sample().serialize().replace("box left 0 1/2", "box left 1 1/2")
        with pytest.raises(ValueError, match=r"empty interval \[1, 1/2\]"):
            parse_certificate(text)

    @pytest.mark.parametrize("line", ["zmax 1e-9999999", "zmax 0e9999999"])
    def test_zmax_exponent_refused(self, line):
        text = self._sample().serialize().replace("target demo\n", f"target demo\n{line}\n")
        with pytest.raises(ValueError, match="bad certificate line 'zmax .*': the exponent"):
            parse_certificate(text)

    def test_point_exponent_refused(self):
        cert = Certificate(target="demo", status="counterexample", boxes=(), splits=0,
                           counterexample={"x": Fraction(2, 3)})
        text = cert.serialize().replace("x=2/3", "x=2e-9999999")
        with pytest.raises(ValueError, match="bad certificate line 'point .*': the exponent"):
            parse_certificate(text)
        # an exponent within the bound reads as Fraction reads it
        again = parse_certificate(cert.serialize().replace("x=2/3", "x=2.5e-3"))
        assert again.counterexample == {"x": Fraction(1, 400)}

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_certificate("target t\nstatus proved\nsplits 0\nboxes 0\nwat\n")
