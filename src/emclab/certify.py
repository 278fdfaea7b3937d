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
artifact.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from emclab.intervals import Box, Certificate, Interval
from emclab.scalars import DELTA, c_coeff

FOUR = 4 - DELTA
D1 = 1 - DELTA


# ---------------------------------------------------------------------------
# exact point evaluators (original coordinates)
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


# ---------------------------------------------------------------------------
# homogenized interval margins
# ---------------------------------------------------------------------------

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


def _maxvalue_margin_box(box: Box, mutation: str | None) -> Interval:
    i = int(box.region_tag[1:])
    alpha = box.coords["alpha"]
    mu = box.coords["mu"]
    b = box.coords["b"]
    beta = (1 - b) * (FOUR - 3 * mu)
    return c_coeff(i, alpha, mu, beta, mutation)


# ---------------------------------------------------------------------------
# generic branch-and-prune driver
# ---------------------------------------------------------------------------

def _prove(target: str, roots: list[Box], margin_fn, point_fn, exact_fn,
           max_depth: int, max_boxes: int) -> Certificate:
    if max_depth < 0 or max_boxes < 0:
        raise ValueError(f"need depth, max_boxes >= 0, got {max_depth}, {max_boxes}")
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
        margin = margin_fn(box)
        if margin.lo > 0:
            leaves.append((box, margin))
            continue
        pt = point_fn(box)
        if pt is not None and exact_fn(pt) <= 0:
            return Certificate(target=target, status="counterexample",
                               boxes=(), splits=splits, counterexample=pt)
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
        return Certificate(target=target, status="budget_exhausted",
                           boxes=tuple(leaves), splits=splits)
    leaves.sort(key=lambda bm: (bm[0].region_tag,
                                sorted((n, iv.lo, iv.hi)
                                       for n, iv in bm[0].coords.items())))
    return Certificate(target=target, status="proved", boxes=tuple(leaves),
                       splits=splits)


# ---------------------------------------------------------------------------
# the two certifiers
# ---------------------------------------------------------------------------

_CALC_PIECES = (
    ("x<=5/8", Fraction(0), Fraction(5, 8)),
    ("5/8<x<=2/3", Fraction(5, 8), Fraction(2, 3)),
    ("2/3<x<=3/4", Fraction(2, 3), Fraction(3, 4)),
)


def _check_zmax(z_max) -> Fraction:
    z_max = Fraction(z_max)
    if not (0 < z_max <= Fraction(1, 10**5)):
        raise ValueError("need 0 < z_max <= 1/10^5")
    return z_max


def _calc_roots(z_max: Fraction) -> list[Box]:
    return [Box({"mu": Interval.make(0, 1), "x": Interval.make(xlo, xhi),
                 "z": Interval.make(0, z_max)}, tag)
            for tag, xlo, xhi in _CALC_PIECES]


def _maxvalue_roots() -> list[Box]:
    alpha_iv = Interval.make(0, 1 / FOUR)
    roots = []
    for i in range(1, 6):
        b_iv = Interval.make(Fraction(1, 3), Fraction(3, 8)) if i in (2, 3) \
            else Interval.make(Fraction(1, 4), 1)
        roots.append(Box({"alpha": alpha_iv, "mu": Interval.make(0, 1),
                          "b": b_iv}, f"C{i}"))
    return roots


def certify_calculate_lemma(z_max, max_depth: int = 60, max_boxes: int = 10**7,
                            mutation: str | None = None) -> Certificate:
    """Certify the cubic inequality on 5z < y <= x <= 3/4, 0 < z <= z_max.

    Divided by x^3 > 0 the claim becomes, with mu = y/x in [0, 1]:
        (1-d)(4-d-mu)^3 - x*(4-d-3mu)*(h~(mu) + p~(z or const)) > 0,
    proved on the closed boxes [0,1] x [piece x-range] x [0, z_max], a
    superset of the open region.  The max inside h~ is enclosed outward, so
    no branch of the piecewise definition is ever silently dropped.
    """
    if mutation not in (None, "negate-lead", "flip-p-sign"):
        raise ValueError(f"unknown mutation {mutation!r} for target calculate")
    z_max = _check_zmax(z_max)

    def point_fn(box: Box):
        mu = box.coords["mu"]
        x = box.coords["x"]
        z = box.coords["z"]
        x_pt = x.mid if x.mid > 0 else x.hi
        mu_pt = mu.mid if mu.mid > 0 else mu.hi
        if x_pt <= 0 or mu_pt <= 0:
            return None
        y_pt = mu_pt * x_pt
        z_pt = min(z.hi, z_max, y_pt / 6)
        if z_pt <= 0:
            z_pt = min(z_max, y_pt / 6)
        if z_pt <= 0 or not (5 * z_pt < y_pt <= x_pt <= Fraction(3, 4)):
            return None
        return {"x": x_pt, "y": y_pt, "z": z_pt}

    def exact_fn(pt):
        return eval_calculate_margin(pt["x"], pt["y"], pt["z"], mutation)

    cert = _prove("calculate", _calc_roots(z_max),
                  lambda b: _calc_margin_box(b, mutation),
                  point_fn, exact_fn, max_depth, max_boxes)
    return replace(cert, zmax=z_max)


def certify_maxvalue_coeffs(max_depth: int = 60, max_boxes: int = 10**7,
                            mutation: str | None = None) -> Certificate:
    """Certify C_1..C_5 > 0 on alpha in [0, 1/(4-d)], with (a, b) ranging
    over 1/4 <= b <= a < 1 (b in [1/3, 3/8] for C_2, C_3).

    Parametrized by (alpha, mu, b) with mu = (1-a)/(1-b) in [0, 1] and
    beta = (1-b)*(4-d-3mu) substituted; the closed boxes cover the open
    region's closure, so strict positivity there is stronger than required.
    """
    if mutation not in (None, "negate-c5-term"):
        raise ValueError(f"unknown mutation {mutation!r} for target maxvalue")
    def point_fn(box: Box):
        mu = box.coords["mu"].mid
        b = box.coords["b"].mid
        alpha = box.coords["alpha"].mid
        if mu <= 0 or b >= 1:
            return None  # need a < 1, i.e. mu > 0 and b < 1
        a = 1 - mu * (1 - b)
        if not (Fraction(1, 4) <= b <= a < 1):
            return None
        return {"i": Fraction(int(box.region_tag[1])), "alpha": alpha,
                "a": a, "b": b}

    def exact_fn(pt):
        a, b = pt["a"], pt["b"]
        mu = (1 - a) / (1 - b)
        beta = 1 - DELTA + 3 * a - FOUR * b
        return c_coeff(int(pt["i"]), pt["alpha"], mu, beta, mutation)

    return _prove("maxvalue", _maxvalue_roots(),
                  lambda b: _maxvalue_margin_box(b, mutation),
                  point_fn, exact_fn, max_depth, max_boxes)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay_certificate(cert: Certificate) -> dict:
    """Independently re-verify a certificate: recompute every leaf margin
    from scratch, check strict positivity plus agreement with the stored
    enclosure, and check that the leaves are exactly the leaves of a
    bisection tree over the certifier's own root region.

    The roots come from `_CALC_PIECES` and `z_max` (calculate) or the C_i
    ranges (maxvalue), never from the stored boxes, so a file cannot shrink
    the region it claims."""
    if cert.target == "calculate":
        margin_fn = lambda b: _calc_margin_box(b, None)
        roots = None if cert.zmax is None else _calc_roots(_check_zmax(cert.zmax))
    elif cert.target == "maxvalue":
        margin_fn = lambda b: _maxvalue_margin_box(b, None)
        roots = _maxvalue_roots()
    else:
        raise ValueError(f"unknown target {cert.target!r}")
    checked = 0
    failures = []
    for box, stored in cert.boxes:
        fresh = margin_fn(box)
        checked += 1
        if fresh.lo <= 0:
            failures.append("margin not strictly positive")
        elif (fresh.lo, fresh.hi) != (stored.lo, stored.hi):
            failures.append("stored margin does not match recomputation")
    if roots is None:
        failures.append("no z_max recorded: coverage unchecked")
    else:
        failures += _coverage_failures(roots, [box for box, _ in cert.boxes], cert.splits)
    ok = cert.status == "proved" and not failures and checked == len(cert.boxes)
    report = {"target": cert.target, "status": cert.status, "boxes": checked,
              "failures": failures, "ok": ok}
    if cert.target == "calculate":
        report["zmax"] = None if cert.zmax is None else str(cert.zmax)
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
