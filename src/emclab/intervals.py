"""Exact rational interval arithmetic and inequality certificates.

Endpoints are `fractions.Fraction`, so every operation encloses the true
range with no rounding at all: "outward-correct" is automatic.  A
Certificate records a finite box subdivision of a parameter region together
with a verified margin interval per leaf; it serializes to a line-oriented
text format that a replayer can re-verify box by box.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v) -> "Interval":
        v = Fraction(v)
        return Interval(v, v)

    @staticmethod
    def make(lo, hi) -> "Interval":
        return Interval(Fraction(lo), Fraction(hi))

    def __add__(self, other) -> "Interval":
        other = _coerce(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Interval":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Interval":
        other = _coerce(other)
        prods = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(prods), max(prods))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "Interval":
        if exp < 0:
            raise ValueError("negative powers not supported")
        if exp == 0:
            return Interval.point(1)
        if exp % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**exp, self.hi**exp)
        if self.hi <= 0:
            return Interval(self.hi**exp, self.lo**exp)
        return Interval(Fraction(0), max(self.lo**exp, self.hi**exp))

    def recip(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other) -> "Interval":
        return self * _coerce(other).recip()

    def max_with(self, other) -> "Interval":
        other = _coerce(other)
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

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
        return Interval(self.lo, m), Interval(m, self.hi)


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

    def serialize(self) -> str:
        lines = ["# inequality certificate v1",
                 f"target {self.target}",
                 f"status {self.status}",
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
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    meta: dict[str, str] = {}
    names: list[str] = []
    boxes: list[tuple[Box, Interval]] = []
    point = None
    for ln in lines:
        parts = ln.split()
        try:
            if parts[0] in ("target", "status", "splits", "boxes"):
                meta[parts[0]] = parts[1]
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
    return Certificate(target=meta["target"], status=meta["status"],
                       boxes=tuple(boxes), splits=int(meta["splits"]),
                       counterexample=point)
