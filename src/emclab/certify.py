"""Branch-and-prune certificates for the two computer-checked inequalities.

Both certifiers work on homogenized coordinates.  The cubic inequality in
(x, y, z) is divided through by x^3 and restated over (mu, x, z) with
mu = y/x in [0, 1]; this removes the vanishing-at-the-origin degeneracy that
makes direct subdivision in (x, y) non-terminating.  The coefficient
positivity statements are restated over (alpha, mu, b) with
beta = (1-b)*(4 - delta - 3*mu) substituted, avoiding the 0/0 corner of the
(a, b) parametrization at a = b = 1.

Proving strict positivity on the closed boxes proves it on the open regions
they cover.  Counterexamples are always exact rational point evaluations in
the original coordinates, so a reported violation is real, not an interval
artifact; replay re-evaluates the recorded point under the recorded mutation.

`TARGETS` is the one place a target is defined: one record per inequality
holds its roots, its margin on a box and at a point, the point tried in a box
it cannot settle, its region and its mutations.  `_prove` and
`replay_certificate` read only the record.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from emclab.intervals import Box, Certificate, Interval
from emclab.scalars import D1, FOUR, c_coeff, mu_beta


# ---------------------------------------------------------------------------
# calculate: the cubic inequality, exact in (x, y, z), on boxes in (mu, x, z)
# ---------------------------------------------------------------------------

def eval_calculate_margin(x, y, z, mutation: str | None = None) -> Fraction:
    """Exact margin of the cubic inequality at a point: positive iff the
    inequality holds.  Region: 5z < y <= x <= 3/4, 0 < z < 10^-5."""
    x = Fraction(x)
    y = Fraction(y)
    z = Fraction(z)
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
    elif mutation is not None:
        raise ValueError(f"unknown mutation {mutation!r}")
    return lead - (FOUR * x - 3 * y) * h - (FOUR * x - 3 * y) * p


def _calc_roots(z_max: Fraction) -> list[Box]:
    """The three x-pieces of [0, 1] x [0, 3/4] x [0, z_max] in (mu, x, z)."""
    if not (0 < z_max <= Fraction(1, 10**5)):
        raise ValueError("need 0 < z_max <= 1/10^5")
    pieces = (("x<=5/8", 0, Fraction(5, 8)), ("5/8<x<=2/3", Fraction(5, 8), Fraction(2, 3)),
              ("2/3<x<=3/4", Fraction(2, 3), Fraction(3, 4)))
    return [Box({"mu": Interval.make(0, 1), "x": Interval.make(xlo, xhi),
                 "z": Interval.make(0, z_max)}, tag)
            for tag, xlo, xhi in pieces]


def _calc_margin_box(box: Box, mutation: str | None) -> Interval:
    mu = box.coords["mu"]
    x = box.coords["x"]
    z = box.coords["z"]
    if box.region_tag == "x<=5/8":
        h = FOUR**3 - (FOUR - mu) ** 3
        p = 52 * FOUR**3 * z**3
    else:
        h = (27 * mu - 9 * mu**2 + mu**3).max_with(27 * mu**3)
        if box.region_tag == "5/8<x<=2/3":
            h = h + 3 * D1 * FOUR * mu**2
        p = FOUR**3 / 8100
    lead = D1 * (FOUR - mu) ** 3
    if mutation == "negate-lead":
        lead = -lead
    elif mutation == "flip-p-sign":
        p = -p
    return lead - x * (FOUR - 3 * mu) * (h + p)


def _calc_point(box: Box) -> dict[str, Fraction]:
    """The box's (mu, x) midpoint, with z as large as the box and 5z < y allow."""
    x = box.coords["x"].mid
    y = box.coords["mu"].mid * x
    return {"x": x, "y": y, "z": min(box.coords["z"].hi, y / 6)}


def _calc_point_margin(pt: dict[str, Fraction], mutation: str | None) -> Fraction:
    return eval_calculate_margin(pt["x"], pt["y"], pt["z"], mutation)


def _in_calc_region(pt: dict[str, Fraction], z_max: Fraction) -> bool:
    """5z < y <= x <= 3/4 and 0 < z <= z_max."""
    return 0 < pt["z"] <= z_max and 5 * pt["z"] < pt["y"] <= pt["x"] <= Fraction(3, 4)


# ---------------------------------------------------------------------------
# maxvalue: C_1..C_5, exact in (alpha, a, b), on boxes in (alpha, mu, b)
# ---------------------------------------------------------------------------

def _maxvalue_b_range(i: int) -> tuple[Fraction, Fraction]:
    """The range of b for C_i: [1/3, 3/8] for C_2 and C_3, else [1/4, 1]."""
    return (Fraction(1, 3), Fraction(3, 8)) if i in (2, 3) else (Fraction(1, 4), Fraction(1))


def _maxvalue_roots(z_max: None) -> list[Box]:
    alpha_iv = Interval.make(0, 1 / FOUR)
    return [Box({"alpha": alpha_iv, "mu": Interval.make(0, 1),
                 "b": Interval.make(*_maxvalue_b_range(i))}, f"C{i}")
            for i in range(1, 6)]


def _maxvalue_margin_box(box: Box, mutation: str | None) -> Interval:
    i = int(box.region_tag[1:])
    alpha = box.coords["alpha"]
    mu = box.coords["mu"]
    b = box.coords["b"]
    beta = (1 - b) * (FOUR - 3 * mu)
    return c_coeff(i, alpha, mu, beta, mutation)


def _maxvalue_point(box: Box) -> dict[str, Fraction]:
    """The box's midpoint, taken back to (a, b) through a = 1 - mu*(1-b)."""
    mu = box.coords["mu"].mid
    b = box.coords["b"].mid
    return {"i": Fraction(int(box.region_tag[1:])), "alpha": box.coords["alpha"].mid,
            "a": 1 - mu * (1 - b), "b": b}


def _maxvalue_point_margin(pt: dict[str, Fraction], mutation: str | None) -> Fraction:
    mu, beta = mu_beta(pt["a"], pt["b"])
    return c_coeff(int(pt["i"]), pt["alpha"], mu, beta, mutation)


def _in_maxvalue_region(pt: dict[str, Fraction], z_max: None) -> bool:
    """i in 1..5, alpha in [0, 1/(4-d)] and b <= a < 1 with b in the range
    of C_i."""
    i = pt["i"]
    if not (i.denominator == 1 and 1 <= i <= 5):
        return False
    b_lo, b_hi = _maxvalue_b_range(int(i))
    return 0 <= pt["alpha"] <= 1 / FOUR and b_lo <= pt["b"] <= b_hi and pt["b"] <= pt["a"] < 1


# ---------------------------------------------------------------------------
# the targets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Target:
    """One certified inequality.  Every function that takes z_max gets
    None on a target that takes none."""
    roots: Callable[[Fraction | None], list[Box]]       # raises on a bad z_max
    margin: Callable[[Box, str | None], Interval]       # (box, mutation)
    # the point tried in a box whose margin is not positive
    point: Callable[[Box], dict[str, Fraction]]
    point_margin: Callable[[dict[str, Fraction], str | None], Fraction]   # exact
    in_region: Callable[[dict[str, Fraction], Fraction | None], bool]
    coords: tuple[str, ...]      # the point's coordinates, sorted
    mutations: tuple[str, ...]   # deliberately broken margins, to test that the prover can fail
    takes_zmax: bool


TARGETS = {
    "calculate": _Target(roots=_calc_roots, margin=_calc_margin_box, point=_calc_point,
                         point_margin=_calc_point_margin, in_region=_in_calc_region,
                         coords=("x", "y", "z"), mutations=("negate-lead", "flip-p-sign"),
                         takes_zmax=True),
    "maxvalue": _Target(roots=_maxvalue_roots, margin=_maxvalue_margin_box,
                        point=_maxvalue_point, point_margin=_maxvalue_point_margin,
                        in_region=_in_maxvalue_region, coords=("a", "alpha", "b", "i"),
                        mutations=("negate-c5-term",), takes_zmax=False),
}


def _target(name: str, z_max: Fraction | None) -> tuple[_Target, list[Box]]:
    """The record of target `name` and its root boxes.  Raises ValueError on
    an unknown target, and on a z_max that is bad, missing, or given to a
    target that takes none."""
    rec = TARGETS.get(name)
    if rec is None:
        raise ValueError(f"unknown target {name!r}")
    if rec.takes_zmax != (z_max is not None):
        raise ValueError(f"target {name} {'needs a' if rec.takes_zmax else 'takes no'} zmax")
    return rec, rec.roots(z_max)


# ---------------------------------------------------------------------------
# generic branch-and-prune driver
# ---------------------------------------------------------------------------

def _prove(target: str, z_max: Fraction | None, mutation: str | None,
           max_depth: int, max_boxes: int) -> Certificate:
    rec, roots = _target(target, z_max)
    if mutation not in (None, *rec.mutations):
        raise ValueError(f"unknown mutation {mutation!r} for target {target}")
    if max_depth < 0 or max_boxes < 0:
        raise ValueError(f"need depth, max_boxes >= 0, got {max_depth}, {max_boxes}")
    make = partial(Certificate, target, zmax=z_max, mutation=mutation)
    stack = [(b, 0) for b in reversed(roots)]
    leaves: list[tuple[Box, Interval]] = []
    processed = 0
    splits = 0
    incomplete = False
    while stack:
        box, depth = stack.pop()
        processed += 1
        if processed > max_boxes:
            incomplete = True
            break
        margin = rec.margin(box, mutation)
        if margin.lo > 0:
            leaves.append((box, margin))
            continue
        pt = rec.point(box)
        if rec.in_region(pt, z_max) and rec.point_margin(pt, mutation) <= 0:
            return make("counterexample", (), splits, pt)
        if depth >= max_depth:
            # cannot settle this box, but a counterexample may still hide
            # elsewhere — keep scanning the remaining boxes
            incomplete = True
            continue
        lo_box, hi_box = box.split()
        splits += 1
        stack.append((hi_box, depth + 1))
        stack.append((lo_box, depth + 1))
    if incomplete:
        return make("budget_exhausted", tuple(leaves), splits)
    leaves.sort(key=lambda bm: (bm[0].region_tag,
                                sorted((n, iv.lo, iv.hi)
                                       for n, iv in bm[0].coords.items())))
    return make("proved", tuple(leaves), splits)


def certify_calculate_lemma(z_max, max_depth: int = 60, max_boxes: int = 10**7,
                            mutation: str | None = None) -> Certificate:
    """Certify the cubic inequality on 5z < y <= x <= 3/4, 0 < z <= z_max.

    Divided by x^3 > 0 the claim becomes, with mu = y/x in [0, 1]:
        (1-d)(4-d-mu)^3 - x*(4-d-3mu)*(h~(mu) + p~(z or const)) > 0,
    proved on the closed boxes [0,1] x [piece x-range] x [0, z_max], a
    superset of the open region.  The max inside h~ is enclosed outward, so
    no branch of the piecewise definition is ever silently dropped.
    """
    return _prove("calculate", Fraction(z_max), mutation, max_depth, max_boxes)


def certify_maxvalue_coeffs(max_depth: int = 60, max_boxes: int = 10**7,
                            mutation: str | None = None) -> Certificate:
    """Certify C_1..C_5 > 0 on alpha in [0, 1/(4-d)], with (a, b) ranging
    over 1/4 <= b <= a < 1 (b in [1/3, 3/8] for C_2, C_3).

    Parametrized by (alpha, mu, b) with mu = (1-a)/(1-b) in [0, 1] and
    beta = (1-b)*(4-d-3mu) substituted; the closed boxes cover the open
    region's closure, so strict positivity there is stronger than required.
    """
    return _prove("maxvalue", None, mutation, max_depth, max_boxes)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay_certificate(cert: Certificate) -> dict:
    """Independently re-verify a certificate.

    A `counterexample` certificate is confirmed at its point: the point must
    lie in the target's region and its exact margin, under the recorded
    mutation, must be <= 0; the report gives that margin.  Any other
    certificate is re-verified box by box: recompute every leaf margin from
    scratch, check strict positivity plus agreement with the stored
    enclosure, and check that the leaves are exactly the leaves of a
    bisection tree over the certifier's own root region.  A mutation line
    outside a counterexample is a failure: a proof of a broken margin proves
    nothing.

    The roots and the region come from the target's record in `TARGETS` and
    the file's z_max, never from the stored boxes, so a file cannot shrink
    the region it claims.  A file that cannot be read against its record (an
    unknown target, a z_max that is bad, missing or given to a target that
    takes none, a box tag that names none of the roots) raises ValueError.
    Only a `proved` file with no failure is `ok`."""
    rec, roots = _target(cert.target, cert.zmax)
    tags = {root.region_tag for root in roots}
    failures = []
    for box, stored in cert.boxes:
        if box.region_tag not in tags:
            raise ValueError(f"box tag {box.region_tag!r} names no region of "
                             f"target {cert.target}")
        fresh = rec.margin(box, None)
        if fresh.lo <= 0:
            failures.append("margin not strictly positive")
        elif (fresh.lo, fresh.hi) != (stored.lo, stored.hi):
            failures.append("stored margin does not match recomputation")
    if cert.declared_boxes not in (None, len(cert.boxes)):
        failures.append(f"boxes line says {cert.declared_boxes}, file holds {len(cert.boxes)}")
    report = {"target": cert.target, "status": cert.status, "boxes": len(cert.boxes)}
    if cert.mutation is not None:
        report["mutation"] = cert.mutation
    if cert.status == "counterexample":
        pt = cert.counterexample
        if pt is None or sorted(pt) != list(rec.coords):
            failures.append(f"point must give {', '.join(rec.coords)}")
        elif not rec.in_region(pt, cert.zmax):
            failures.append(f"point outside the region of target {cert.target}")
        elif cert.mutation not in (None, *rec.mutations):
            failures.append(f"unknown mutation {cert.mutation!r} for target {cert.target}")
        else:
            margin = rec.point_margin(pt, cert.mutation)
            report["margin"] = str(margin)
            if margin > 0:
                failures.append(f"margin {margin} > 0 at the point: not a counterexample")
        report["confirmed"] = "margin" in report and not failures
    else:
        if cert.mutation is not None:
            failures.append(f"{cert.status} under mutation {cert.mutation}: "
                            "not a proof of the inequality")
        failures += _coverage_failures(roots, [box for box, _ in cert.boxes], cert.splits)
    report["failures"] = failures
    report["ok"] = cert.status == "proved" and not failures
    if rec.takes_zmax:
        report["zmax"] = str(cert.zmax)
    return report


def _inside(leaf: Box, node: Box) -> bool:
    """`leaf` lies in `node` with positive width on every coordinate; a
    degenerate leaf is never a tree node, and excluding it keeps the walk
    finite."""
    if leaf.region_tag != node.region_tag or leaf.coords.keys() != node.coords.keys():
        return False
    return all(node.coords[n].lo <= iv.lo < iv.hi <= node.coords[n].hi
               for n, iv in leaf.coords.items())


def _coverage_failures(roots: list[Box], leaves: list[Box], splits: int) -> list[str]:
    """Rebuild the bisection tree from `roots` with `Box.split`, splitting a
    node only while some unconsumed stored leaf lies inside it.  Every
    branch must end in exactly one stored leaf: a branch with no leaf inside
    is missing, and a leaf that no branch ends in is extra or duplicated."""
    missing = duplicated = walked = 0
    pending = []                      # leaves that no branch can end in
    groups = [[] for _ in roots]
    for j, leaf in enumerate(leaves):
        hit = next((r for r, root in enumerate(roots) if _inside(leaf, root)), None)
        (pending if hit is None else groups[hit]).append(j)
    stack = list(zip(roots, groups))[::-1]
    while stack:
        node, inside = stack.pop()
        if not inside:
            missing += 1
            continue
        same = [j for j in inside if leaves[j].coords == node.coords]
        if same:
            duplicated += len(same) - 1
            pending += [j for j in inside if j not in same]
            continue
        walked += 1
        lo_box, hi_box = node.split()
        # the one coordinate `split` replaced
        name = next(n for n, iv in lo_box.coords.items() if iv is not node.coords[n])
        mid = lo_box.coords[name].hi
        lo, hi = [], []
        for j in inside:
            iv = leaves[j].coords[name]
            (lo if iv.hi <= mid else hi if iv.lo >= mid else pending).append(j)
        stack.append((hi_box, hi))
        stack.append((lo_box, lo))
    failures = []
    if missing:
        failures.append(f"branches ending in no stored leaf: {missing}")
    if duplicated:
        failures.append(f"duplicated leaves: {duplicated}")
    if pending:
        failures.append(f"leaves outside the bisection tree: {len(pending)}")
    if not failures and walked != splits:
        failures.append(f"splits: {splits} stored, {walked} in the bisection tree")
    return failures
