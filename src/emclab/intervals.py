"""Exact rational interval arithmetic and inequality certificates.

Endpoints are `fractions.Fraction`, so every operation encloses the true
range with no rounding at all: "outward-correct" is automatic.  A product
takes its endpoints from the signs of the operands' endpoints (the standard
sign-case table); only when both operands straddle 0 are all four endpoint
products formed.  The result equals the four-product hull exactly.  An
`int` or `Fraction` operand of `+`, `-` and `*` is used as it is, never
wrapped into a point interval.

A Certificate records the root region and a finite box subdivision of it
together with a verified margin interval per leaf; it serializes to a
line-oriented text format (v2) that a replayer re-verifies box by box and
checks for coverage of the region.  A counterexample certificate records its
point instead, and a certificate found under a mutation records the
mutation's name, so that the replayer can re-evaluate the point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

CERT_FORMAT = 2


class Interval:
    """The closed interval [lo, hi]; constructing one with lo > hi raises."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    @staticmethod
    def point(v) -> "Interval":
        v = Fraction(v)
        return Interval(v, v)

    @staticmethod
    def make(lo, hi) -> "Interval":
        return Interval(Fraction(lo), Fraction(hi))

    def __add__(self, other) -> "Interval":
        if isinstance(other, Interval):
            return _iv(self.lo + other.lo, self.hi + other.hi)
        c = _scalar(other)
        return _iv(self.lo + c, self.hi + c)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return _iv(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        if isinstance(other, Interval):
            return _iv(self.lo - other.hi, self.hi - other.lo)
        c = _scalar(other)
        return _iv(self.lo - c, self.hi - c)

    def __rsub__(self, other) -> "Interval":
        c = _scalar(other)
        return _iv(c - self.hi, c - self.lo)

    def __mul__(self, other) -> "Interval":
        a, b = self.lo, self.hi
        if not isinstance(other, Interval):
            c = _scalar(other)
            return _iv(a * c, b * c) if c >= 0 else _iv(b * c, a * c)
        c, d = other.lo, other.hi
        if a >= 0:
            if c >= 0:
                return _iv(a * c, b * d)
            if d <= 0:
                return _iv(b * c, a * d)
            return _iv(b * c, b * d)
        if b <= 0:
            if c >= 0:
                return _iv(a * d, b * c)
            if d <= 0:
                return _iv(b * d, a * c)
            return _iv(a * d, a * c)
        if c >= 0:
            return _iv(a * d, b * d)
        if d <= 0:
            return _iv(b * c, a * c)
        return _iv(min(a * d, b * c), max(a * c, b * d))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Interval":
        if exp < 0:
            raise ValueError("negative powers not supported")
        if exp == 0:
            return Interval.point(1)
        if exp % 2 == 1 or self.lo >= 0:
            return _iv(self.lo**exp, self.hi**exp)
        if self.hi <= 0:
            return _iv(self.hi**exp, self.lo**exp)
        return _iv(Fraction(0), max(self.lo**exp, self.hi**exp))

    def recip(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return _iv(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * _coerce(other).recip()

    def max_with(self, other) -> "Interval":
        other = _coerce(other)
        return _iv(max(self.lo, other.lo), max(self.hi, other.hi))

    def contains(self, v) -> bool:
        return self.lo <= Fraction(v) <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def halves(self) -> tuple["Interval", "Interval"]:
        m = self.mid
        return _iv(self.lo, m), _iv(m, self.hi)


_new = object.__new__


def _iv(lo, hi) -> Interval:
    """An interval whose endpoints are ordered by construction: the
    constructor's emptiness check is skipped."""
    iv = _new(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


def _scalar(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _coerce(v) -> Interval:
    if isinstance(v, Interval):
        return v
    return Interval.point(v)


@dataclass(frozen=True)
class Box:
    coords: dict[str, Interval]
    region_tag: str = "mixed"

    def widest(self) -> str:
        return max(self.coords, key=lambda n: (self.coords[n].width, n))

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


def parse_certificate(text: str) -> Certificate:
    """Parse a v2 certificate.  A file without a `format 2` line (v1) does
    not record its root region, so its coverage cannot be checked: it is
    rejected with ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    meta: dict[str, str] = {}
    names: list[str] = []
    boxes: list[tuple[Box, Interval]] = []
    point = None
    zmax = None
    mutation = None
    for ln in lines:
        parts = ln.split()
        try:
            if parts[0] in ("format", "target", "status", "splits", "boxes"):
                meta[parts[0]] = parts[1]
            elif parts[0] == "zmax":
                zmax = Fraction(parts[1])
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
                coord_vals = vals[:mi]
                coords = {}
                for i, n in enumerate(names):
                    coords[n] = Interval(Fraction(coord_vals[2 * i]),
                                         Fraction(coord_vals[2 * i + 1]))
                margin = Interval(Fraction(vals[mi + 1]), Fraction(vals[mi + 2]))
                boxes.append((Box(coords, tag), margin))
            elif parts[0] == "point":
                point = {kv.split("=")[0]: Fraction(kv.split("=")[1]) for kv in parts[1:]}
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
                       boxes=tuple(boxes), splits=int(meta["splits"]),
                       counterexample=point, zmax=zmax, mutation=mutation,
                       declared_boxes=int(meta["boxes"]))
