"""Exact rational interval arithmetic and inequality certificates.

An interval [a/d, b/d] is held as two int numerators over one shared
positive int denominator, so every operation encloses the true range with no
rounding at all: "outward-correct" is automatic.  Operations work on the ints
and never reduce them; `lo`, `hi`, `width` and `mid` are reduced `Fraction`s,
built only when read.  A product takes its endpoints from the signs of the
operands' numerators (the standard sign-case table, valid since d > 0); only
when both operands straddle 0 are all four endpoint products formed.  The
result equals the four-product hull exactly.  An `int` or `Fraction` operand
of `+`, `-` and `*` enters as its numerator and denominator, never wrapped
into a point interval.  Sign, containment and order tests (`positive`,
`inside`, `==`, `Box.sort_keys`, `Box.widest`) compare numerators, never
`Fraction`s.

A Certificate records the root region and a finite box subdivision of it
together with a verified margin interval per leaf; it serializes to a
line-oriented text format (v2) that a replayer re-verifies box by box and
checks for coverage of the region.  A counterexample certificate records its
point instead, and a certificate found under a mutation records the
mutation's name, so that the replayer can re-evaluate the point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

CERT_FORMAT = 2
# the exponent that ends a token Fraction(token) reads
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


class Interval:
    """The closed interval [lo, hi]; constructing one with lo > hi raises."""

    __slots__ = ("_a", "_b", "_d")       # [lo, hi] = [_a/_d, _b/_d], _d > 0

    def __init__(self, lo, hi):
        _fill(self, *_ratio(lo), *_ratio(hi))

    @property
    def lo(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return self._a == other._a and self._b == other._b
        return self._a * f == other._a * d and self._b * f == other._b * d

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    @staticmethod
    def point(v) -> "Interval":
        p, q = _ratio(v)
        return _iv(p, p, q)

    @staticmethod
    def make(lo, hi) -> "Interval":
        return Interval(lo, hi)

    def __add__(self, other) -> "Interval":
        a, b, d = self._a, self._b, self._d
        if isinstance(other, Interval):
            f = other._d
            if d == f:
                return _iv(a + other._a, b + other._b, d)
            return _iv(a * f + other._a * d, b * f + other._b * d, d * f)
        p, q = _ratio(other)
        p *= d
        return _iv(a * q + p, b * q + p, d * q)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return _iv(-self._b, -self._a, self._d)

    def __sub__(self, other) -> "Interval":
        a, b, d = self._a, self._b, self._d
        if isinstance(other, Interval):
            f = other._d
            if d == f:
                return _iv(a - other._b, b - other._a, d)
            return _iv(a * f - other._b * d, b * f - other._a * d, d * f)
        p, q = _ratio(other)
        p *= d
        return _iv(a * q - p, b * q - p, d * q)

    def __rsub__(self, other) -> "Interval":
        p, q = _ratio(other)
        d = self._d
        return _iv(p * d - self._b * q, p * d - self._a * q, d * q)

    def __mul__(self, other) -> "Interval":
        a, b, d = self._a, self._b, self._d
        if not isinstance(other, Interval):
            p, q = _ratio(other)
            return _iv(a * p, b * p, d * q) if p >= 0 else _iv(b * p, a * p, d * q)
        c, e = other._a, other._b
        d *= other._d
        if a >= 0:
            if c >= 0:
                return _iv(a * c, b * e, d)
            if e <= 0:
                return _iv(b * c, a * e, d)
            return _iv(b * c, b * e, d)
        if b <= 0:
            if c >= 0:
                return _iv(a * e, b * c, d)
            if e <= 0:
                return _iv(b * e, a * c, d)
            return _iv(a * e, a * c, d)
        if c >= 0:
            return _iv(a * e, b * e, d)
        if e <= 0:
            return _iv(b * c, a * c, d)
        return _iv(min(a * e, b * c), max(a * c, b * e), d)

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Interval":
        if exp < 0:
            raise ValueError("negative powers not supported")
        if exp == 0:
            return _iv(1, 1, 1)
        a, b, d = self._a, self._b, self._d**exp
        if exp % 2 == 1 or a >= 0:
            return _iv(a**exp, b**exp, d)
        if b <= 0:
            return _iv(b**exp, a**exp, d)
        return _iv(0, max(a**exp, b**exp), d)

    def recip(self) -> "Interval":
        a, b, d = self._a, self._b, self._d
        if a <= 0 <= b:
            raise ZeroDivisionError("interval contains zero")
        # [d/b, d/a] over a*b > 0
        return _iv(d * a, d * b, a * b)

    def __truediv__(self, other) -> "Interval":
        return self * _coerce(other).recip()

    def max_with(self, other) -> "Interval":
        other = _coerce(other)
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == f:
            return _iv(max(a, c), max(b, e), d)
        return _iv(max(a * f, c * d), max(b * f, e * d), d * f)

    def contains(self, v) -> bool:
        p, q = _ratio(v)
        p *= self._d
        return self._a * q <= p <= self._b * q

    def positive(self) -> bool:
        """lo > 0."""
        return self._a > 0

    def inside(self, other: "Interval") -> bool:
        """other.lo <= lo < hi <= other.hi: a subinterval of positive width."""
        a, b, d = self._a, self._b, self._d
        f = other._d
        return other._a * d <= a * f and a < b and b * f <= other._b * d

    @property
    def width(self) -> Fraction:
        return Fraction(self._b - self._a, self._d)

    def _width_ratio(self) -> tuple[int, int]:
        """The width as an unreduced numerator and its positive denominator."""
        return self._b - self._a, self._d

    @property
    def mid(self) -> Fraction:
        return Fraction(self._a + self._b, 2 * self._d)

    def halves(self) -> tuple["Interval", "Interval"]:
        a, b, d = self._a, self._b, 2 * self._d
        m = a + b
        return _iv(2 * a, m, d), _iv(m, 2 * b, d)


_new = object.__new__


def _iv(a: int, b: int, d: int) -> Interval:
    """The interval [a/d, b/d] for ints a <= b and d > 0: the constructor's
    conversions and emptiness check are skipped."""
    iv = _new(Interval)
    iv._a = a
    iv._b = b
    iv._d = d
    return iv


def _fill(iv: Interval, p: int, q: int, r: int, s: int) -> Interval:
    """Set `iv` to [p/q, r/s] for ints p, r and q, s > 0; raises on p/q > r/s."""
    if p * s > r * q:
        raise ValueError(f"empty interval [{Fraction(p, q)}, {Fraction(r, s)}]")
    if q == s:
        iv._a, iv._b, iv._d = p, r, q
    else:
        d = lcm(q, s)
        iv._a, iv._b, iv._d = p * (d // q), r * (d // s), d
    return iv


def _ratio(v) -> tuple[int, int]:
    """The numerator and positive denominator of a rational scalar."""
    t = type(v)
    if t is int:
        return v, 1
    if t is not Fraction:
        v = Fraction(v)
    return v.numerator, v.denominator


def _token_ratio(token: str) -> tuple[int, int]:
    """The numerator and positive denominator of a rational token: a
    `p` or `p/q` of ASCII digits (p optionally signed `-`, q > 0) is read
    with `int`, which CPython bounds at 4300 digits; a token whose exponent
    is over 4300 in magnitude is refused before 10**exponent is built; any
    other token goes through `Fraction(token)`, which gives the same value
    and raises its own error on a token it refuses."""
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isascii() and digits.isdigit():
        if not slash:
            return int(num), 1
        if den.isascii() and den.isdigit():
            q = int(den)
            if q:
                return int(num), q
    exponent = _EXPONENT.search(token)
    if exponent and abs(int(exponent[1])) > 4300:
        raise ValueError(f"the exponent of {token!r} is over 4300 in magnitude")
    v = Fraction(token)
    return v.numerator, v.denominator


def _coerce(v) -> Interval:
    if isinstance(v, Interval):
        return v
    return Interval.point(v)


@dataclass(frozen=True)
class Box:
    coords: dict[str, Interval]
    region_tag: str = "mixed"

    @staticmethod
    def sort_keys(boxes) -> list[tuple]:
        """One exact key per box in `boxes`: sorting by these keys orders the
        boxes as the key (region_tag, sorted (name, lo, hi)) with `Fraction`
        endpoints does, since each coordinate's numerators are scaled to the
        lcm of that coordinate's denominators over all of `boxes`."""
        scale: dict[str, int] = {}
        for box in boxes:
            for n, iv in box.coords.items():
                scale[n] = lcm(scale.get(n, 1), iv._d)
        keys = []
        for box in boxes:
            ends = []
            for n in sorted(box.coords):
                iv = box.coords[n]
                m = scale[n] // iv._d
                ends.append((n, iv._a * m, iv._b * m))
            keys.append((box.region_tag, ends))
        return keys

    def widest(self) -> str:
        """The coordinate of greatest width, widths compared by
        cross-multiplying; a tie goes to the greatest name."""
        best = None
        for n, iv in self.coords.items():
            w, d = iv._width_ratio()
            if best is None or w * best_d > best_w * d or (w * best_d == best_w * d and n > best):
                best, best_w, best_d = n, w, d
        return best

    def split(self) -> tuple["Box", "Box"]:
        name = self.widest()
        a, b = self.coords[name].halves()
        lo = dict(self.coords); lo[name] = a
        hi = dict(self.coords); hi[name] = b
        return Box(lo, self.region_tag), Box(hi, self.region_tag)


@dataclass(frozen=True)
class Certificate:
    target: str
    status: str                          # proved | counterexample | budget_exhausted
    boxes: tuple[tuple[Box, Interval], ...]
    splits: int
    counterexample: dict[str, Fraction] | None = None
    zmax: Fraction | None = None         # z_max of target calculate
    mutation: str | None = None          # the mutation the certifier ran under
    # the `boxes N` line of a parsed file; serialize() writes len(boxes)
    declared_boxes: int | None = field(default=None, compare=False)

    def serialize(self) -> str:
        lines = [f"# inequality certificate v{CERT_FORMAT}",
                 f"format {CERT_FORMAT}",
                 f"target {self.target}"]
        if self.zmax is not None:
            lines.append(f"zmax {self.zmax}")
        if self.mutation is not None:
            lines.append(f"mutation {self.mutation}")
        lines += [f"status {self.status}",
                 f"splits {self.splits}",
                 f"boxes {len(self.boxes)}"]
        names: list[str] = []
        if self.boxes:
            names = sorted(self.boxes[0][0].coords)
            lines.append("coords " + " ".join(names))
        for box, margin in self.boxes:
            parts = ["box", box.region_tag]
            for n in names:
                iv = box.coords[n]
                parts += [str(iv.lo), str(iv.hi)]
            parts += ["margin", str(margin.lo), str(margin.hi)]
            lines.append(" ".join(parts))
        if self.counterexample is not None:
            lines.append("point " + " ".join(
                f"{n}={v}" for n, v in sorted(self.counterexample.items())))
        return "\n".join(lines) + "\n"


# the lines a certificate holds at most once
_SINGLE_LINES = frozenset(("format", "target", "status", "splits", "boxes", "zmax",
                           "mutation", "coords", "point"))


def parse_certificate(text: str) -> Certificate:
    """Parse a v2 certificate.  A file without a `format 2` line (v1) does
    not record its root region, so its coverage cannot be checked: it is
    rejected with ValueError, as is a second copy of any line but `box`, and
    a point token that is not one `name=value` or repeats a name.  Bounds,
    `zmax` and point values are read by `_token_ratio`."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    meta: dict[str, str | int] = {}
    names: list[str] = []
    boxes: list[tuple[Box, Interval]] = []
    point = None
    zmax = None
    mutation = None
    seen = set()
    for ln in lines:
        parts = ln.split()
        try:
            if parts[0] in _SINGLE_LINES:
                if parts[0] in seen:
                    raise ValueError(f"a second {parts[0]} line")
                seen.add(parts[0])
            if parts[0] in ("format", "target", "status"):
                meta[parts[0]] = parts[1]
            elif parts[0] in ("splits", "boxes"):
                meta[parts[0]] = int(parts[1])
            elif parts[0] == "zmax":
                zmax = Fraction(*_token_ratio(parts[1]))
            elif parts[0] == "mutation":
                mutation = parts[1]
            elif parts[0] == "coords":
                names = parts[1:]
            elif parts[0] == "box":
                tag = parts[1]
                vals = parts[2:]
                mi = vals.index("margin")
                if (mi, len(vals)) != (2 * len(names), mi + 3):
                    raise ValueError(f"want 2 bounds per coord {names} and 2 margin bounds")
                # each coordinate's bounds, then the margin's, in file order
                ivs = [_fill(_new(Interval), *_token_ratio(vals[j]), *_token_ratio(vals[j + 1]))
                       for j in (*range(0, mi, 2), mi + 1)]
                margin = ivs.pop()
                boxes.append((Box(dict(zip(names, ivs)), tag), margin))
            elif parts[0] == "point":
                point = {}
                for kv in parts[1:]:
                    name, eq, value = kv.partition("=")
                    if not eq or "=" in value:
                        raise ValueError(f"point token {kv!r} is not name=value")
                    if name in point:
                        raise ValueError(f"point gives {name} twice")
                    point[name] = Fraction(*_token_ratio(value))
            else:
                raise ValueError("unknown key")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad certificate line {ln!r}: {exc}") from None
    if meta.get("format") != str(CERT_FORMAT):
        raise ValueError(f"certificate format {meta.get('format', '1')} is not "
                         f"{CERT_FORMAT}: it records no root region, so coverage "
                         "cannot be checked")
    missing = [key for key in ("target", "status", "splits", "boxes") if key not in meta]
    if missing:
        raise ValueError(f"certificate has no {' or '.join(missing)} line")
    return Certificate(target=meta["target"], status=meta["status"],
                       boxes=tuple(boxes), splits=meta["splits"],
                       counterexample=point, zmax=zmax, mutation=mutation,
                       declared_boxes=meta["boxes"])
