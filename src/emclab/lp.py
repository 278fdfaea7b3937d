"""Exact rational linear programming for fractional matchings and covers.

There is no floating point in this module.  The solver is a revised
two-phase primal simplex with Bland's anti-cycling rule, which keeps every
result deterministic.  It keeps the basis inverse as a fraction-free integer
block over one common denominator (Bareiss 1968; Edmonds 1967) and prices a
column only when Bland's rule reads it, so a pivot costs about m^2 integer
steps plus the columns it prices, not the m * (n + m) of a dense tableau,
and makes the dense tableau's pivots.  A column-generation master could hold
a subset of the columns.  An `int` input (a coefficient, right-hand side or
cost) is used as it is; any other input is read through `fractions.Fraction`
and scaled to integers.  `Fraction` otherwise appears only in the optimum
the solver returns.  Every optimum comes with a primal and dual
certificate, checked in integer arithmetic before it is returned.
One builder, `_incidence`, lays out every LP table as 0/1 int rows, so only
truly rational entries (a pinned optimum, a cover chain's costs, 1 - a_v)
take the `Fraction` path.  A ground set past `MAX_LP_VERTICES` is refused
with `HypergraphError` before anything of its size is built.

Beyond the plain optima this module provides the two constructive pieces the
stability machinery needs: the lexicographic load-maximizing fractional
matching (a chain of LPs, each pinning the last maximized load by an `==`
row, which stops once the pinned loads, a vertex counted once, sum to
k * target), and its extension to a perfect fractional matching on a graph
with a full-degree apex prefix.  The packing LP has one entry,
`fractional_matching_and_cover`.  `tau_star` and `min_cover_sorted` (the
lexicographically greatest minimum cover) solve the cover LP's dual in the
form `_cover_lp` builds it, one `<=` row per vertex: the packing LP itself,
except on a stable family on [n], whose columns are the monotone cover rows;
the choice and the columns read one cached pass, `Hypergraph.maximal_edges`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, combinations, compress, count, islice, repeat
from math import lcm
from operator import add, gt, itemgetter, mul
from typing import Iterable, Sequence

from emclab.hypergraph import Hypergraph, HypergraphError, binom, is_stable

ZERO = Fraction(0)
ONE = Fraction(1)
_FLIP = {"<=": ">=", ">=": "<=", "==": "=="}
_INT = frozenset({int})
_BINARY = frozenset({0, 1})
_products = partial(map, mul)
# the largest ground set an LP entry takes: its tables hold a row per vertex,
# and the largest LP the tests solve has 27 rows
MAX_LP_VERTICES = 1024


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


def solve_lp(c, rows, maximize=False, trace=None):
    """Minimize c.x, or maximize it, subject to `rows` and x >= 0, exactly.

    rows: list of (coeffs, sense, rhs) with len(c) coefficients and sense in
    {"<=", ">=", "=="}; LPError names the first row that breaks this, before
    any pivot.  Entries may be anything `Fraction` reads; an `int` is used as
    it is.  Returns (value, x, duals), one dual y_i per row as the caller
    wrote it, with sum(rhs_i * y_i) == value.  Minimizing, y_i <= 0 on "<=",
    y_i >= 0 on ">=" and free on "=="; maximizing, the signs flip.  `trace`,
    a list, receives one (phase, entering, leaving) triple per pivot.

    Revised two-phase primal simplex with Bland's rule, in fraction-free
    integers (Bareiss 1968; Edmonds 1967).  After the rhs >= 0 flip, every
    row is scaled by L, the lcm of the coefficient denominators, x by Lx,
    that of the rhs denominators, and the costs by their own lcm Lc; rows,
    right-hand sides and costs of ints are taken as they are.  Row i starts
    with a basic column e_i: the slack of a "<=" row, the artificial of any
    other.  The solver keeps D times the rational tableau (D > 0 the
    previous pivot) on those m columns only: the block D*B^-1, stored by
    columns, the rhs D*B^-1*b, and for each objective its m entries y, which
    start at 0.  Everything else is rebuilt exactly when it is read: tableau
    column j is the block times a_j, column j of the starting rows (slacks
    and artificials included), and its reduced cost is D*c_j + y.a_j.  A
    pivot p on row r, column s replaces every entry t of another row by
    (p*t - f*t_r) // D, f that row's entry in column s and t_r the entry of
    row r below t, an exact division, and D by p (row r is negated first if
    p < 0).  These are the numbers the dense tableau holds on those columns,
    so the pivots are the same, and common scale factors change no sign and
    no ratio order: Bland's rule makes the pivots it makes on the rational
    tableau.  `Fraction` appears only where a non-int entry is read and in
    the output.  Every optimum passes `_check_certificate` first.  Maximizing
    c.x minimizes -c.x: the costs are scaled by -Lc, so the optimum and the
    duals come out of their `Fraction`s with the maximum's signs.
    """
    c = _exact(c)
    nvars, m = len(c), len(rows)
    A, b, senses, signs = [], [], [], []
    denominators, rhs_denominators = set(), set()
    int_rows = _INT.issuperset(map(type, chain.from_iterable(map(itemgetter(0), rows))))
    for i, (coeffs, sense, rhs) in enumerate(rows):
        if len(coeffs) != nvars:
            raise LPError(f"row {i} has {len(coeffs)} coefficients for {nvars} variables")
        if sense not in _FLIP:
            raise LPError(f"row {i} has sense {sense!r}, not <=, >= or ==")
        if not (int_rows or _INT.issuperset(map(type, coeffs))):
            coeffs = _exact(coeffs)
            denominators.update(v.denominator for v in coeffs if type(v) is not int)
        if type(rhs) is not int:
            rhs = rhs if type(rhs) is Fraction else Fraction(rhs)
            rhs_denominators.add(rhs.denominator)
        signs.append(-1 if rhs < 0 else 1)
        if rhs < 0:
            coeffs, rhs, sense = [-v for v in coeffs], -rhs, _FLIP[sense]
        A.append(coeffs)
        b.append(rhs)
        senses.append(sense)
    scale, x_scale = lcm(*denominators), lcm(*rhs_denominators)
    if denominators:
        A = [_scaled(coeffs, scale) for coeffs in A]
    if denominators or rhs_denominators:
        b = _scaled(b, scale * x_scale)
    cost_scale = lcm(*(v.denominator for v in c if type(v) is not int))
    if maximize:
        cost_scale = -cost_scale
    C = _scaled(c, cost_scale)

    # columns: the variables, one slack per inequality, one artificial per
    # ">=" or "==" row; column nvars + u is unit_coef[u] * e_{unit_row[u]}
    slack_rows = [i for i, sense in enumerate(senses) if sense != "=="]
    art_rows = [i for i, sense in enumerate(senses) if sense != "<="]
    unit_row = slack_rows + art_rows
    unit_coef = [-1 if senses[i] == ">=" else 1 for i in slack_rows] + [1] * len(art_rows)
    first_art = nvars + len(slack_rows)
    basis = [0] * m
    for j, i, a in zip(count(nvars), unit_row, unit_coef):
        if a > 0:
            basis[i] = j
    cols = list(zip(*A)) if m else [()] * nvars
    # terms(y, a): the products y_i * a_i, or just the y_i with a_i = 1
    # when every coefficient is 0 or 1
    terms = compress if _BINARY.issuperset(chain.from_iterable(A)) else _products
    # block[k] is column k of D*B^-1 for k < m, block[m] the rhs D*B^-1*b
    block = [[0] * m for _ in range(m)] + [list(b)]
    for k in range(m):
        block[k][k] = 1
    zeros = [0] * m   # pads column(j) to m entries when a_j has no nonzero
    D = 1

    def entries(y):
        """y.a_j for every column j in order, lazily."""
        return chain(map(sum, map(terms, repeat(y), cols)),
                     map(mul, unit_coef, map(y.__getitem__, unit_row)))

    def reduced(obj, j):
        y, cost = obj
        if j < nvars:
            return D * cost[j] + sum(terms(y, cols[j]))
        u = j - nvars
        return D * cost[j] + unit_coef[u] * y[unit_row[u]]

    def column(j):
        """Tableau column j: the block times a_j, summed from the block's
        columns at the nonzero coefficients of a_j."""
        if j < nvars:
            parts = [block[k] if a == 1 else [a * t for t in block[k]]
                     for k, a in enumerate(cols[j]) if a]
        else:
            i, a = unit_row[j - nvars], unit_coef[j - nvars]
            parts = [block[i] if a == 1 else [-t for t in block[i]]]
        return list(map(sum, zip(zeros, *parts)))

    def pivot(r, s, col, objs, phase):
        nonlocal D
        if trace is not None:
            trace.append((phase, s, basis[r]))
        p = col[r]
        if p < 0:   # only when driving out artificials; keeps D > 0
            for bk in block:
                bk[r] = -bk[r]
            p = -p
        prow = [bk[r] for bk in block]
        for obj in objs:
            f = reduced(obj, s)
            if f:
                obj[0] = [(p * a - f * v) // D for a, v in zip(obj[0], prow)]
            elif p != D:
                obj[0] = [p * a // D for a in obj[0]]
        for k, bk in enumerate(block):
            v = bk[r]
            if v:
                bk = [(p * a - f * v) // D for a, f in zip(bk, col)]
            elif p != D:
                bk = [p * a // D for a in bk]
            else:
                continue
            bk[r] = v
            block[k] = bk
        D = p
        basis[r] = s

    def run(obj, allowed, phase, objs):
        """Bland's rule: enter the first allowed column with a negative
        reduced cost; leave by the least ratio rhs/a over a > 0, compared by
        cross-multiplying, ties to the least basic index."""
        while True:
            # pricing stops at the first negative D*c_j + y.a_j
            reds = map(add, map(D.__mul__, obj[1]), islice(entries(obj[0]), allowed))
            enter = next(compress(count(), map(gt, repeat(0), reds)), -1)
            if enter < 0:
                return
            col = column(enter)
            rhs = block[m]
            leave = -1
            for i, a in enumerate(col):
                if a > 0:
                    t = rhs[i]
                    if leave < 0 or t * best_a < best_t * a or (
                            t * best_a == best_t * a and basis[i] < basis[leave]):
                        leave, best_t, best_a = i, t, a
            if leave < 0:
                raise Unbounded("LP is unbounded")
            pivot(leave, enter, col, objs, phase)

    # [y, costs]: phase 1 prices every column against costs that are minus
    # the sum of the artificial rows (0 on every starting column), phase 2
    # the variables and slacks
    phase2 = [[0] * m, C + [0] * len(unit_row)]
    if art_rows:
        phase1 = [[0] * m, [-v for v in map(sum, zip(*(A[i] for i in art_rows)))]
                  + [int(a < 0) for a in unit_coef]]
        run(phase1, len(phase1[1]), 1, (phase2, phase1))
        if any(t for t, j in zip(block[m], basis) if j >= first_art):
            raise Infeasible("LP is infeasible")
        # drive basic artificials out where possible
        for i in range(m):
            if basis[i] >= first_art:
                j = next(compress(count(), islice(entries([bk[i] for bk in block]), first_art)),
                         -1)
                if j >= 0:
                    pivot(i, j, column(j), (phase2,), 1)

    run(phase2, first_art, 2, (phase2,))

    X = [0] * nvars
    for t, j in zip(block[m], basis):
        if j < nvars:
            X[j] = t
    # y_i is the reduced cost of row i's starting column e_i, D*0 + y.e_i;
    # the dual of the minimization is its negation
    Y = [-v for v in phase2[0]]
    _check_certificate(A, senses, b, C, X, Y, D)
    den = D * cost_scale
    value = Fraction(sum(map(mul, C, X)), den * x_scale)
    x = [Fraction(v, D * x_scale) if v else ZERO for v in X]
    duals = [Fraction(sign * y * scale, den) if y else ZERO for sign, y in zip(signs, Y)]
    return value, x, duals


def _check_certificate(A, senses, b, c, X, Y, D):
    """Raise LPError unless x = X/D and y = Y/D are optimal for
    min c.x subject to A x (senses) b, x >= 0, and for its dual.

    All arguments are integers (A, b and c are the scaled rows and costs the
    simplex pivots on), so this costs about one pivot.  It checks the shapes,
    primal feasibility, the dual sign (y <= 0 on "<=", y >= 0 on ">=", free
    on "=="), dual feasibility A^T y <= c, and equal objectives c.x == b.y,
    which together prove both optimal (Applegate, Cook, Dash and Espinoza
    2007).  It reads nothing of the solver's state.
    """
    if len(X) != len(c) or not len(Y) == len(b) == len(A) or any(
            len(a) != len(c) for a in A):
        raise LPError("certificate: A, b, c, x and y disagree in shape")
    if D <= 0 or min(X, default=0) < 0:
        raise LPError("certificate: x is not nonnegative")
    for lhs, sense, bi, y in zip(map(sum, map(map, repeat(mul), A, repeat(X))), senses, b, Y):
        rhs = bi * D
        if lhs > rhs if sense == "<=" else lhs < rhs if sense == ">=" else lhs != rhs:
            raise LPError(f"certificate: x violates a {sense} row")
        if (y > 0 if sense == "<=" else y < 0 if sense == ">=" else False):
            raise LPError(f"certificate: dual of a {sense} row has the wrong sign")
    columns = zip(*A) if A else repeat((), len(c))
    over = map(gt, map(sum, map(map, repeat(mul), columns, repeat(Y))), map(D.__mul__, c))
    j = next(compress(count(), over), None)
    if j is not None:
        raise LPError(f"certificate: dual violates column {j}")
    if sum(map(mul, c, X)) != sum(map(mul, b, Y)):
        raise LPError("certificate: c.x != b.y")


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


def _check_lp_size(h: Hypergraph) -> None:
    """Refuse a ground set past MAX_LP_VERTICES, before anything of its
    size is built."""
    if len(h.vertices) > MAX_LP_VERTICES:
        raise HypergraphError(f"an LP takes at most {MAX_LP_VERTICES} vertices, "
                              f"got {len(h.vertices)}")


def make_fractional_matching(h: Hypergraph, weights: dict[tuple[int, ...], Fraction]) -> FractionalMatching:
    _check_lp_size(h)
    loads = {v: ZERO for v in h.vertices}
    size = ZERO
    clean = {}
    for e, w in weights.items():
        e = tuple(sorted(e))
        w = Fraction(w)
        if w == 0:
            continue
        if not h.has_edge(e):
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


def _incidence(vertices: Sequence[int], edges: Sequence[Sequence[int]]) -> list[list[int]]:
    """One 0/1 int row per vertex, in order, with a 1 in column j iff
    edges[j] holds the vertex; built in one pass over the edges."""
    rows = {v: [0] * len(edges) for v in vertices}
    for j, e in enumerate(edges):
        for v in e:
            rows[v][j] = 1
    return list(rows.values())


def _matching_rows(h: Hypergraph):
    """The packing rows of h: each vertex's incidence over h.edges <= 1."""
    return [(coeffs, "<=", 1) for coeffs in _incidence(h.vertices, h.edges)]


def fractional_matching_and_cover(h: Hypergraph, trace=None
                                  ) -> tuple[Fraction, FractionalMatching, FractionalCover]:
    """One solve of the edge-packing LP: its optimum, a maximum fractional
    matching and, from the duals, a minimum fractional cover."""
    _check_lp_size(h)
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
    return value, fm, _checked_cover(h, FractionalCover(weights=weights), "dual")


def _checked_cover(h: Hypergraph, fc: FractionalCover, what: str) -> FractionalCover:
    """fc, after checking that it covers every edge of h."""
    covered = fc.covered(h.edges)
    if len(covered) < len(h.edges):
        first = min(set(h.edges).difference(covered))
        raise LPError(f"{what} not a cover at edge {first}")
    return fc


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
    _check_lp_size(h)
    target = Fraction(target_size)
    if target < 0:
        raise Infeasible(f"target size {target} is negative")
    rows = _matching_rows(h)
    # the load of v is its matching row's left-hand side; 0 off the ground set
    loads = dict(zip(h.vertices, (coeffs for coeffs, _, _ in rows)))
    no_load = [0] * len(h.edges)
    rows.append(([1] * len(h.edges), "==", target))
    x, pinned = None, {}
    try:
        for v in order:
            load_coeffs = loads.get(v, no_load)
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
    """True iff every vertex in [upto] lies in every k-set through it.  The
    edges are distinct k-subsets of the ground set V, so vertex i does
    exactly when its degree is the number of (k-1)-subsets of V less i."""
    n = len(h.vertices)
    return all(h.degree(i) == binom(n - (i in h.vertices), h.k - 1)
               for i in range(1, upto + 1))


def extend_to_perfect_fm(h: Hypergraph, t: int, fm: FractionalMatching) -> FractionalMatching:
    """Extend a lex-maximal fractional matching of H minus its apex prefix
    [t] to a perfect fractional matching of H (k = 4).

    Requires: H stable, every vertex of [t] of full degree, fm of size
    N/4 - t on H restricted to [N] \\ [t] with nonincreasing loads whose
    fractional boundary is a contiguous block of at most 4 vertices.
    """
    _check_lp_size(h)
    if h.k != 4:
        raise PerfectExtensionError("uniformity", f"k must be 4, got {h.k}")
    n_total = len(h.vertices)
    if tuple(h.vertices) != tuple(range(1, n_total + 1)):
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
        subs = list(combinations(frac, ell - p))
        e0 = [tuple(sorted((1, *sub, *b_set))) for sub in subs]
        # feasibility LP for the boundary equation system, weights in [0,1];
        # an edge of e0 meets the fractional block in its sub
        rows = [(coeffs, "==", 1 - a_vals[v]) for v, coeffs in zip(frac, _incidence(frac, subs))]
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

def _cover_lp(h: Hypergraph) -> tuple[list[int], list]:
    """(r, rows) for `solve_lp`: max r.x subject to sum_j a_jv x_j <= 1 per
    vertex v, the dual of min sum(w) over w(a_j) >= r_j.  On a stable family
    on [n] the columns a_j are the monotone cover rows: w(e) >= 1 for each
    dominance-maximal edge e, then w_i - w_{i+1} >= 0.  Those are exact
    there: swapping a smaller earlier weight with a larger later one keeps a
    cover, because an edge through the later vertex but not the earlier one
    shifts to an edge of the family, so the lexicographically greatest
    minimum cover is nonincreasing; and under nonincreasing weights a
    dominated edge is covered whenever its dominating edge is.  On any other
    family this is the packing LP, a column per edge."""
    maximal = h.maximal_edges if h.vertices == range(1, h.n + 1) else None
    if maximal is None:
        return [1] * len(h.edges), _matching_rows(h)
    n = h.n
    rows = _incidence(h.vertices, maximal)
    for u, coeffs in enumerate(rows):
        coeffs += [(u == i) - (u == i + 1) for i in range(n - 1)]
    return [1] * len(maximal) + [0] * (n - 1), [(coeffs, "<=", 1) for coeffs in rows]


def tau_star(h: Hypergraph) -> Fraction:
    """tau* (= nu*): the optimum of `_cover_lp`."""
    _check_lp_size(h)
    if not h.edges:
        return ZERO
    return solve_lp(*_cover_lp(h), maximize=True)[0]


def min_cover_sorted(h: Hypergraph) -> FractionalCover:
    """Minimum fractional cover whose weight vector is lexicographically
    greatest: over the columns of `_cover_lp`, maximize w(1), w(2), ... in turn.

    Step i pins the earlier weights, which leaves costs r'_j and the budget
    T = tau* - fixed; every cover weighs at least tau*, so the step is max w_i
    over the covers of total at most T.  It is solved as its dual, one `<=`
    row per free vertex u, its `_cover_lp` row, and at most one artificial:
    minimize T*lam - sum_j r'_j x_j subject to sum_j a_ju x_j - lam <= -[u = i].
    The assembled vector must cover every edge and weigh tau*, else LPError.
    """
    _check_lp_size(h)
    verts = h.vertices
    weights = dict.fromkeys(verts, ZERO)
    if not h.edges:
        return FractionalCover(weights=weights)
    r, rows = _cover_lp(h)
    tau = solve_lp(r, rows, maximize=True)[0]
    fixed = ZERO
    for i, v in enumerate(verts):
        step = [(rows[u][0] + [-1], "<=", -1 if u == i else 0) for u in range(i, len(verts))]
        value, _, _ = solve_lp([-rj for rj in r] + [tau - fixed], step)
        weights[v] = value
        fixed += value
        if fixed == tau:
            break  # the remaining weights are forced to zero
        r = [rj - a * value for rj, a in zip(r, rows[i][0])]
    fc = _checked_cover(h, FractionalCover(weights=weights), "sorted cover")
    if fc.size != tau:
        raise LPError(f"sorted cover weighs {fc.size}, not tau* = {tau}")
    return fc
