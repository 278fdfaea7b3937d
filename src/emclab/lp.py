"""Exact rational linear programming for fractional matchings and covers.

There is no floating point in this module.  The solver is a dense two-phase
primal simplex with Bland's anti-cycling rule, which keeps every result
deterministic.  It pivots on a fraction-free integer tableau (Bareiss 1968;
Edmonds 1967) with one common denominator.  An `int` input (a coefficient,
right-hand side or cost) is used as it is; any other input is read through
`fractions.Fraction` and scaled to integers.  `Fraction` otherwise appears
only in the optimum the solver returns.  Every optimum comes with a primal
and dual certificate, checked in integer arithmetic before it is returned.
The row builders below write their 0/1 coefficients as ints, so only truly
rational entries (a pinned optimum, a cover chain's costs, 1 - a_v) take the
`Fraction` path.

Beyond the plain optima this module provides the two constructive pieces the
stability machinery needs: the lexicographic load-maximizing fractional
matching (a chain of LPs, each pinning the last maximized load by an `==`
row, which stops once the pinned loads, a vertex counted once, sum to
k * target), and its extension to a perfect fractional matching on a graph
with a full-degree apex prefix.  The packing LP has one entry,
`fractional_matching_and_cover`.  `tau_star` and
`min_cover_sorted` (the lexicographically greatest minimum cover) solve LP
duals over one set of cover rows, with one `<=` row per vertex: the monotone
rows on a stable family on [n], one row per edge on any other; the choice
and the rows read one cached pass, `Hypergraph.maximal_edges`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from emclab.hypergraph import Hypergraph, is_stable

ZERO = Fraction(0)
ONE = Fraction(1)


class LPError(Exception):
    pass


class Infeasible(LPError):
    pass


class Unbounded(LPError):
    pass


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

def _exact(values) -> list:
    """`values` as exact numbers: an `int` as it is (not a `bool`), anything
    else through `Fraction`."""
    return [v if type(v) is int else Fraction(v) for v in values]


def _scaled(values, scale: int) -> list[int]:
    """scale * v for exact `values` whose denominators divide `scale`."""
    return [v * scale if type(v) is int else v.numerator * (scale // v.denominator)
            for v in values]


def _simplex_min(c, rows, trace=None):
    """Minimize c.x subject to `rows` and x >= 0, exactly.

    rows: list of (coeffs, sense, rhs) with sense in {"<=", ">=", "=="}.
    c holds ints and Fractions (`solve_lp` reads it with `_exact`).
    Returns (value, x, row_duals).  row_duals[i] is the minimization dual
    y_i of row i as the caller wrote it: y_i <= 0 on "<=", y_i >= 0 on ">=",
    free on "==", and sum(rhs_i * y_i) == value.

    Two-phase primal simplex with Bland's rule on a fraction-free integer
    tableau (Bareiss 1968; Edmonds 1967).  After the rhs >= 0 flip every row
    is scaled by one common L, the lcm of all coefficient and rhs
    denominators, and the costs by their own lcm Lc.  The tableau holds D
    times the rational tableau, D > 0 the previous pivot: a pivot p on row r,
    column s replaces every other row i by (p*T[i] - T[i][s]*T[r]) // D, an
    exact division, and D by p (row r is negated first if p < 0).  The
    reduced-cost rows are tableau rows updated by the same step.  Common
    scale factors change no sign and no ratio order, so Bland's rule makes
    the same pivots as on the rational tableau.  An `int` entry of c or
    `rows` is used as it is; any other entry of `rows` is read through
    `Fraction`, which appears otherwise only in the output.  Every optimum
    passes `_check_certificate` first.
    """
    nvars = len(c)
    m = len(rows)
    # normalize to nonnegative rhs
    norm = []
    signs = []   # -1 on the rows negated here
    for coeffs, sense, rhs in rows:
        coeffs = _exact(coeffs)
        rhs = rhs if type(rhs) is int else Fraction(rhs)
        signs.append(-1 if rhs < 0 else 1)
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        norm.append((coeffs, sense, rhs))
    scale = lcm(*(v.denominator for coeffs, _, rhs in norm for v in (*coeffs, rhs)
                  if type(v) is not int))
    A = [_scaled(coeffs, scale) for coeffs, _, _ in norm]
    b = _scaled([rhs for _, _, rhs in norm], scale)
    senses = [sense for _, sense, _ in norm]
    cost_scale = lcm(*(v.denominator for v in c if type(v) is not int))
    C = _scaled(c, cost_scale)

    slack_col = {}
    art_col = {}
    ncols = nvars
    for i, sense in enumerate(senses):
        if sense != "==":
            slack_col[i] = ncols
            ncols += 1
    first_art = ncols
    for i, sense in enumerate(senses):
        if sense != "<=":
            art_col[i] = ncols
            ncols += 1

    # rows 0..m-1: constraints; row m: phase-2 reduced costs; row m+1 (while
    # phase 1 runs): phase-1 reduced costs.  Column ncols is the rhs.
    tab = []
    basis = []
    for i, sense in enumerate(senses):
        row = A[i] + [0] * (ncols + 1 - nvars)
        if sense == "<=":
            row[slack_col[i]] = 1
            basis.append(slack_col[i])
        else:
            if sense == ">=":
                row[slack_col[i]] = -1
            row[art_col[i]] = 1
            basis.append(art_col[i])
        row[ncols] = b[i]
        tab.append(row)
    tab.append(C + [0] * (ncols + 1 - nvars))
    D = 1

    def pivot(r, s, phase):
        nonlocal D
        if trace is not None:
            trace.append((phase, s, basis[r]))
        prow = tab[r]
        p = prow[s]
        if p < 0:   # only when driving out artificials; keeps D > 0
            prow = tab[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(tab):
            if i == r:
                continue
            f = row[s]
            if f:
                tab[i] = [(p * a - f * v) // D for a, v in zip(row, prow)]
            elif p != D:
                tab[i] = [p * a // D for a in row]
        D = p
        basis[r] = s

    def run(obj, allowed, phase):
        """Bland's rule: enter the first allowed column with a negative
        reduced cost; leave by the least ratio rhs/a over a > 0, compared by
        cross-multiplying, ties to the least basic index."""
        while True:
            red = tab[obj]
            enter = next((j for j in range(allowed) if red[j] < 0), -1)
            if enter < 0:
                return
            leave = -1
            for i in range(m):
                a = tab[i][enter]
                if a > 0:
                    t = tab[i][ncols]
                    if leave < 0 or t * best_a < best_t * a or (
                            t * best_a == best_t * a and basis[i] < basis[leave]):
                        leave, best_t, best_a = i, t, a
            if leave < 0:
                raise Unbounded("LP is unbounded")
            pivot(leave, enter, phase)

    if art_col:
        phase1 = [int(j >= first_art) for j in range(ncols)] + [0]
        for i in art_col:
            phase1 = [a - v for a, v in zip(phase1, tab[i])]
        tab.append(phase1)
        run(m + 1, ncols, 1)
        tab.pop()
        if any(tab[i][ncols] for i in range(m) if basis[i] >= first_art):
            raise Infeasible("LP is infeasible")
        # drive basic artificials out where possible
        for i in range(m):
            if basis[i] >= first_art:
                for j in range(first_art):
                    if tab[i][j]:
                        pivot(i, j, 1)
                        break

    run(m, first_art, 2)

    X = [0] * nvars
    for i, j in enumerate(basis):
        if j < nvars:
            X[j] = tab[i][ncols]
    # minus the reduced cost of each row's slack (of its artificial for
    # "=="): y_i, or -y_i on a ">=" row, whose slack has coefficient -1
    red = tab[m]
    neg_red = [-red[slack_col[i] if i in slack_col else art_col[i]] for i in range(m)]
    Y = [-v if sense == ">=" else v for v, sense in zip(neg_red, senses)]
    _check_certificate(A, senses, b, C, X, Y, D)
    den = D * cost_scale
    value = Fraction(sum(cj * xj for cj, xj in zip(C, X)), den)
    x = [Fraction(v, D) if v else ZERO for v in X]
    duals = [Fraction(sign * y * scale, den) if y else ZERO for sign, y in zip(signs, Y)]
    return value, x, duals


def _check_certificate(A, senses, b, c, X, Y, D):
    """Raise LPError unless x = X/D and y = Y/D are optimal for
    min c.x subject to A x (senses) b, x >= 0, and for its dual.

    All arguments are integers (A, b and c are the scaled rows and costs the
    simplex pivots on), so this costs about one pivot.  It checks primal
    feasibility, the dual sign (y <= 0 on "<=", y >= 0 on ">=", free on
    "=="), dual feasibility A^T y <= c, and equal objectives c.x == b.y,
    which together prove both optimal (Applegate, Cook, Dash and Espinoza
    2007).  It reads nothing of the tableau.
    """
    if D <= 0 or any(v < 0 for v in X):
        raise LPError("certificate: x is not nonnegative")
    for a, sense, bi, y in zip(A, senses, b, Y):
        lhs, rhs = sum(aj * xj for aj, xj in zip(a, X)), bi * D
        if not {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[sense]:
            raise LPError(f"certificate: x violates a {sense} row")
        if {"<=": y > 0, ">=": y < 0, "==": False}[sense]:
            raise LPError(f"certificate: dual of a {sense} row has the wrong sign")
    for j, cj in enumerate(c):
        if sum(a[j] * y for a, y in zip(A, Y)) > cj * D:
            raise LPError(f"certificate: dual violates column {j}")
    if sum(cj * xj for cj, xj in zip(c, X)) != sum(bi * y for bi, y in zip(b, Y)):
        raise LPError("certificate: c.x != b.y")


def solve_lp(c, rows, maximize=False, trace=None):
    """Exact LP over x >= 0.  rows: (coeffs, sense, rhs).  Returns (value, x,
    duals), one dual per row as written, with sum(rhs_i * duals_i) == value.
    Entries may be anything `Fraction` reads; an `int` is used as it is."""
    c = _exact(c)
    if maximize:
        value, x, duals = _simplex_min([-v for v in c], rows, trace=trace)
        return -value, x, [-d for d in duals]
    return _simplex_min(c, rows, trace=trace)


# ---------------------------------------------------------------------------
# fractional matchings and covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalMatching:
    """Edge weights in [0,1] with per-vertex loads phi(v) <= 1."""

    weights: dict[tuple[int, ...], Fraction]
    loads: dict[int, Fraction]
    size: Fraction

    def boundary(self) -> list[int]:
        """Vertices with load strictly between 0 and 1."""
        return sorted(v for v, ld in self.loads.items() if 0 < ld < 1)


@dataclass(frozen=True)
class FractionalCover:
    """Vertex weights w >= 0 with w(e) >= 1 on every edge."""

    weights: dict[int, Fraction]

    @property
    def size(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(v for v, w in self.weights.items() if w > 0)

    def covered(self, sets: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
        """The members of `sets` of weight at least 1, in order; a vertex
        without a weight weighs 0.  Compared in integers: every weight is
        scaled by the lcm L of the weights' denominators, and a set is
        covered iff its scaled sum is at least L."""
        scale = lcm(*(w.denominator for w in self.weights.values()))
        scaled = defaultdict(int, zip(self.weights, _scaled(self.weights.values(), scale)))
        weight = scaled.__getitem__
        return [e for e in sets if sum(map(weight, e)) >= scale]


def make_fractional_matching(h: Hypergraph, weights: dict[tuple[int, ...], Fraction]) -> FractionalMatching:
    edge_set = h.edge_set()
    loads = {v: ZERO for v in h.vertices}
    size = ZERO
    clean = {}
    for e, w in weights.items():
        e = tuple(sorted(e))
        w = Fraction(w)
        if w == 0:
            continue
        if e not in edge_set:
            raise LPError(f"weight on non-edge {e}")
        if not (0 <= w <= 1):
            raise LPError(f"weight {w} on {e} outside [0,1]")
        clean[e] = w
        size += w
        for v in e:
            loads[v] += w
    for v, ld in loads.items():
        if ld > 1:
            raise LPError(f"vertex {v} overloaded: {ld}")
    return FractionalMatching(weights=clean, loads=loads, size=size)


def _matching_rows(h: Hypergraph):
    rows = []
    for v in h.vertices:
        coeffs = [1 if v in e else 0 for e in h.edges]
        rows.append((coeffs, "<=", 1))
    return rows


def fractional_matching_and_cover(h: Hypergraph, trace=None
                                  ) -> tuple[Fraction, FractionalMatching, FractionalCover]:
    """One solve of the edge-packing LP: its optimum, a maximum fractional
    matching and, from the duals, a minimum fractional cover."""
    if not h.edges:
        return (ZERO, FractionalMatching(weights={}, loads={v: ZERO for v in h.vertices},
                                         size=ZERO),
                FractionalCover(weights={v: ZERO for v in h.vertices}))
    value, x, duals = solve_lp([1] * len(h.edges), _matching_rows(h), maximize=True,
                               trace=trace)
    fm = make_fractional_matching(h, {e: w for e, w in zip(h.edges, x) if w})
    weights = dict(zip(h.vertices, duals))
    for v, w in weights.items():
        if not (0 <= w <= 1):
            raise LPError(f"dual weight {w} at vertex {v} outside [0,1]")
    fc = FractionalCover(weights=weights)
    covered = fc.covered(h.edges)
    if len(covered) < len(h.edges):
        first = min(set(h.edges).difference(covered))
        raise LPError(f"dual not a cover at edge {first}")
    return value, fm, fc


def fractional_matching_number(h: Hypergraph) -> tuple[Fraction, FractionalMatching]:
    """Exact LP optimum of the edge-packing relaxation, with a witness."""
    return fractional_matching_and_cover(h)[:2]


def fractional_cover_number(h: Hypergraph) -> tuple[Fraction, FractionalCover]:
    """Exact dual optimum; equals the fractional matching number exactly."""
    value, _, fc = fractional_matching_and_cover(h)
    return value, fc


@dataclass(frozen=True)
class SlacknessReport:
    support_size: int
    bound: Fraction            # k * nu_star
    saturated_ok: bool
    violations: tuple[str, ...]


def check_complementary_slackness(h: Hypergraph, fm: FractionalMatching,
                                  fc: FractionalCover) -> SlacknessReport:
    """Positive cover weight must sit on a saturated vertex; |support| <= k*nu*."""
    violations = []
    for v in fc.support:
        if fm.loads.get(v, ZERO) != 1:
            violations.append(f"omega({v})>0 but load {fm.loads.get(v, ZERO)} != 1")
    bound = Fraction(h.k) * fm.size
    if len(fc.support) > bound:
        violations.append(f"support {len(fc.support)} exceeds k*nu* = {bound}")
    return SlacknessReport(support_size=len(fc.support), bound=bound,
                           saturated_ok=not violations, violations=tuple(violations))


def has_perfect_fm(h: Hypergraph) -> bool:
    nu_star, _ = fractional_matching_number(h)
    return nu_star == Fraction(len(h.vertices), h.k)


# ---------------------------------------------------------------------------
# lexicographic maximization and the perfect extension
# ---------------------------------------------------------------------------

def lex_max_fractional_matching(h: Hypergraph, order: Sequence[int],
                                target_size: Fraction) -> FractionalMatching:
    """Fractional matching of exactly `target_size` whose load vector is
    lexicographically maximal along `order`.

    Sequential LPs: maximize the next load, then pin it by an `==` row.  The
    loads of every feasible x sum to k * target, so once the pinned loads (a
    vertex counted once) reach that, every later load is 0 and the chain
    stops.  A target below 0 raises `Infeasible` before any solve; above nu*,
    only the first LP fails, and nu* is solved to name it.
    """
    target = Fraction(target_size)
    if target < 0:
        raise Infeasible(f"target size {target} is negative")
    rows = _matching_rows(h)
    rows.append(([1] * len(h.edges), "==", target))
    x, pinned = None, {}
    try:
        for v in order:
            load_coeffs = [1 if v in e else 0 for e in h.edges]
            value, x, _ = solve_lp(load_coeffs, rows, maximize=True)
            rows.append((load_coeffs, "==", value))
            pinned[v] = value
            if sum(pinned.values()) == h.k * target:
                break  # every later load is forced to zero
        if x is None:  # empty order: any matching of the right size
            _, x, _ = solve_lp([0] * len(h.edges), rows, maximize=True)
    except Infeasible:
        nu_star, _ = fractional_matching_number(h)
        raise LPError(f"target size {target} exceeds nu* = {nu_star}") from None
    weights = {e: w for e, w in zip(h.edges, x) if w}
    return make_fractional_matching(h, weights)


class PerfectExtensionError(LPError):
    """A precondition of the perfect-extension construction failed."""

    def __init__(self, precondition: str, detail: str):
        self.precondition = precondition
        super().__init__(f"{precondition}: {detail}")


def full_degree_vertices(h: Hypergraph, upto: int) -> bool:
    """True iff every vertex in [upto] lies in every k-set through it."""
    others = [v for v in h.vertices]
    edge_set = h.edge_set()
    for i in range(1, upto + 1):
        rest = [v for v in others if v != i]
        for comb_e in combinations(rest, h.k - 1):
            if tuple(sorted((i,) + comb_e)) not in edge_set:
                return False
    return True


def extend_to_perfect_fm(h: Hypergraph, t: int, fm: FractionalMatching) -> FractionalMatching:
    """Extend a lex-maximal fractional matching of H minus its apex prefix
    [t] to a perfect fractional matching of H (k = 4).

    Requires: H stable, every vertex of [t] of full degree, fm of size
    N/4 - t on H restricted to [N] \\ [t] with nonincreasing loads whose
    fractional boundary is a contiguous block of at most 4 vertices.
    """
    if h.k != 4:
        raise PerfectExtensionError("uniformity", f"k must be 4, got {h.k}")
    n_total = len(h.vertices)
    if h.vertices != tuple(range(1, n_total + 1)):
        raise PerfectExtensionError("ground-set", "expects vertices 1..N")
    if n_total % 4 != 0:
        raise PerfectExtensionError("divisibility", f"|V| = {n_total} not divisible by 4")
    if not is_stable(h):
        raise PerfectExtensionError("stability", "H is not stable")
    if not full_degree_vertices(h, t):
        raise PerfectExtensionError("full-degree", f"some vertex in [{t}] misses a 4-set")
    s_star = Fraction(n_total, 4) - t
    if s_star.denominator != 1 or s_star < 0:
        raise PerfectExtensionError("size", f"N/4 - t = {s_star} is not a nonnegative integer")
    s_star = int(s_star)
    if fm.size != s_star:
        raise PerfectExtensionError("size", f"matching size {fm.size}, expected {s_star}")
    for e in fm.weights:
        if any(v <= t for v in e):
            raise PerfectExtensionError("support", f"edge {e} meets the apex prefix")

    rest = list(range(t + 1, n_total + 1))
    loads = [fm.loads.get(v, ZERO) for v in rest]
    for a, b in zip(loads, loads[1:]):
        if a < b:
            raise PerfectExtensionError("monotone-loads", "loads are not nonincreasing")
    frac = [v for v, ld in zip(rest, loads) if 0 < ld < 1]
    ell = len(frac)
    if ell > 4:
        raise PerfectExtensionError("boundary", f"|A| = {ell} > 4")
    if frac and frac != list(range(frac[0], frac[0] + ell)):
        raise PerfectExtensionError("boundary", "fractional block is not contiguous")
    q = frac[0] - 1 if frac else t + sum(1 for ld in loads if ld == 1)
    # vertices t+1..q carry load 1, q+1..q+ell are fractional, the rest 0
    for v, ld in zip(rest, loads):
        want = ONE if v <= q else (None if v <= q + ell else ZERO)
        if want is not None and ld != want:
            raise PerfectExtensionError("load-pattern", f"load {ld} at vertex {v}")

    top = t + 4 * s_star
    weights = dict(fm.weights)

    def add(edge, w):
        edge = tuple(sorted(edge))
        weights[edge] = weights.get(edge, ZERO) + w

    for i in range(2, t + 1):
        add((i, top + 3 * i - 2, top + 3 * i - 1, top + 3 * i), ONE)

    if ell == 0:
        if q != top:
            raise PerfectExtensionError("boundary", f"A empty but q = {q} != t+4s* = {top}")
        if t >= 1:
            add((1, top + 1, top + 2, top + 3), ONE)
        elif n_total != 4 * s_star:
            raise PerfectExtensionError("apex", "no apex vertex to absorb leftovers")
    else:
        if t < 1:
            raise PerfectExtensionError("apex", "fractional boundary needs an apex vertex")
        p = top - q
        if not (1 <= p < ell):
            raise PerfectExtensionError("boundary", f"p = t+4s*-q = {p} outside [1,{ell - 1}]")
        b_set = list(range(q + ell + 1, top + 4))  # |B| = p + 3 - ell
        a_vals = {v: fm.loads[v] for v in frac}
        e0 = [tuple(sorted((1, *sub, *b_set))) for sub in combinations(frac, ell - p)]
        # feasibility LP for the boundary equation system, weights in [0,1]
        rows = []
        for j, v in enumerate(frac):
            coeffs = [1 if v in e else 0 for e in e0]
            rows.append((coeffs, "==", 1 - a_vals[v]))
        for idx in range(len(e0)):
            coeffs = [0] * len(e0)
            coeffs[idx] = 1
            rows.append((coeffs, "<=", 1))
        try:
            _, x, _ = solve_lp([0] * len(e0), rows, maximize=True)
        except Infeasible as exc:
            raise PerfectExtensionError("boundary-system",
                                        "equation system infeasible") from exc
        if sum(x, ZERO) != 1:
            raise PerfectExtensionError("boundary-system",
                                        f"total boundary weight {sum(x, ZERO)} != 1")
        for e, w in zip(e0, x):
            if w:
                add(e, w)

    out = make_fractional_matching(h, weights)
    for v in h.vertices:
        if out.loads[v] != 1:
            raise PerfectExtensionError("perfection", f"load {out.loads[v]} at vertex {v}")
    return out


# ---------------------------------------------------------------------------
# tau* and min_cover_sorted: one cover LP, solved as its n-row dual
# ---------------------------------------------------------------------------

def _cover_rows(h: Hypergraph) -> list:
    """The cover rows (coeffs over h.vertices, ">=", r_j) of h.  On a stable
    family on [n] they are the monotone rows over w_1..w_n: w(e) >= 1 for
    each dominance-maximal edge e, then w_i - w_{i+1} >= 0.  Those are exact
    there: swapping a smaller earlier weight with a larger later one keeps a
    cover, because an edge through the later vertex but not the earlier one
    shifts to an edge of the family, so the lexicographically greatest
    minimum cover is nonincreasing; and under nonincreasing weights a
    dominated edge is covered whenever its dominating edge is.  On any other
    family there is one row w(e) >= 1 per edge."""
    verts = h.vertices
    maximal = h.maximal_edges if verts == tuple(range(1, h.n + 1)) else None
    rows = [([1 if v in e else 0 for v in verts], ">=", 1)
            for e in (h.edges if maximal is None else maximal)]
    if maximal is not None:
        n = h.n
        rows += [([0] * i + [1, -1] + [0] * (n - i - 2), ">=", 0) for i in range(n - 1)]
    return rows


def _cover_value(rows) -> Fraction:
    """min sum(w) over the covers w >= 0 of `rows`, by its dual: max r.x
    subject to sum_j a_jv x_j <= 1 at each vertex v, x >= 0.  On one row
    per edge this is the packing LP."""
    coeffs, _, r = zip(*rows)
    return solve_lp(list(r), [(list(col), "<=", 1) for col in zip(*coeffs)], maximize=True)[0]


def tau_star(h: Hypergraph) -> Fraction:
    """tau* (= nu*): `_cover_value` of the `_cover_rows` of h."""
    if not h.edges:
        return ZERO
    return _cover_value(_cover_rows(h))


def min_cover_sorted(h: Hypergraph) -> FractionalCover:
    """Minimum fractional cover whose weight vector is lexicographically
    greatest: over `_cover_rows`, maximize w(1), w(2), ... in turn.

    Step i pins the earlier weights, which leaves rows r'_j and the budget
    T = tau* - fixed; every cover weighs at least tau*, so the step is max w_i
    over the covers of total at most T.  It is solved as its dual, one `<=`
    row per free vertex u and at most one artificial: minimize
    T*lam - sum_j r'_j x_j subject to sum_j a_ju x_j - lam <= -[u = i].
    """
    verts = h.vertices
    weights = dict.fromkeys(verts, ZERO)
    if not h.edges:
        return FractionalCover(weights=weights)
    rows = _cover_rows(h)
    tau = _cover_value(rows)
    coeffs, _, r = zip(*rows)
    fixed = ZERO
    for i, v in enumerate(verts):
        step = [([a[u] for a in coeffs] + [-1], "<=", -1 if u == i else 0)
                for u in range(i, len(verts))]
        value, _, _ = solve_lp([-rj for rj in r] + [tau - fixed], step)
        weights[v] = value
        fixed += value
        if fixed == tau:
            break  # the remaining weights are forced to zero
        r = [rj - a[i] * value for rj, a in zip(r, coeffs)]
    return FractionalCover(weights=weights)
