"""Named extremal families and closed-form bound evaluators.

The H_i families interpolate between the cover construction (all edges
meeting a fixed s-set) and the clique on k(s+1)-1 vertices; both extremes
appear in the conjectured maximum for the number of edges of a k-graph with
matching number at most s.  The apex constructions lift a graph by adding
universal vertices, trading edges for matching number in a controlled way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from emclab.hypergraph import (Hypergraph, HypergraphError, binom, is_stable,
                               new_hypergraph)


def build_Hi(n: int, k: int, s: int, i: int) -> Hypergraph:
    """All k-sets of [n] meeting [i(s+1)-1] in at least i vertices."""
    if not (1 <= i <= k):
        raise HypergraphError(f"need 1 <= i <= k, got i={i}")
    if n < k * (s + 1):
        raise HypergraphError(f"need n >= k(s+1) = {k * (s + 1)}, got n={n}")
    if s < 0:
        raise HypergraphError("s must be nonnegative")
    prefix = i * (s + 1) - 1
    # combinations() yields sorted k-sets in lex order, already canonical; a
    # sorted k-set meets [prefix] in at least i vertices iff its i-th does
    edges = tuple(e for e in combinations(range(1, n + 1), k) if e[i - 1] <= prefix)
    return Hypergraph(n=n, k=k, edges=edges)


def build_HUW(u: Iterable[int], w: Iterable[int], k: int) -> Hypergraph:
    """k-sets of U ∪ W meeting U: `build_HpUW` with p = k, with its own
    message for a ground set smaller than k."""
    u_set = frozenset(u)
    w_set = frozenset(w)
    if u_set & w_set:
        raise HypergraphError("U and W must be disjoint")
    if len(u_set | w_set) < k:
        raise HypergraphError(f"|U ∪ W| = {len(u_set | w_set)} < k = {k}")
    return build_HpUW(u_set, w_set, k, k)


def build_HpUW(u: Iterable[int], w: Iterable[int], k: int, p: int) -> Hypergraph:
    """k-sets of U ∪ W with 1 <= |e ∩ U| <= p; p = k recovers build_HUW."""
    if not (1 <= p <= k):
        raise HypergraphError(f"need 1 <= p <= k, got p={p}")
    u_set = frozenset(u)
    w_set = frozenset(w)
    if u_set & w_set:
        raise HypergraphError("U and W must be disjoint")
    ground = sorted(u_set | w_set)
    n = max(ground) if ground else 0
    edges = [e for e in combinations(ground, k)
             if 1 <= sum(1 for v in e if v in u_set) <= p]
    return new_hypergraph(n, k, edges, vertices=ground)


@dataclass(frozen=True)
class BoundReport:
    n: int
    k: int
    s: int
    cover_term: int
    clique_term: int
    emc_bound: int
    winner: str                # "cover" | "clique" | "tie"
    in_range: bool             # n >= k(s+1)

    def to_dict(self) -> dict:
        return {
            "inputs": {"n": self.n, "k": self.k, "s": self.s},
            "terms": {"cover": self.cover_term, "clique": self.clique_term},
            "bound": self.emc_bound,
            "winner": self.winner,
            "in_range": self.in_range,
        }


def emc_bound(n: int, k: int, s: int) -> BoundReport:
    """max{C(n,k) - C(n-s,k), C(sk+k-1,k)}: the conjectured maximum number
    of edges of a k-graph on [n] with matching number at most s."""
    cover = binom(n, k) - binom(n - s, k)
    clique = binom(s * k + k - 1, k)
    bound = max(cover, clique)
    winner = "tie" if cover == clique else ("cover" if cover > clique else "clique")
    return BoundReport(n=n, k=k, s=s, cover_term=cover, clique_term=clique,
                       emc_bound=bound, winner=winner, in_range=n >= k * (s + 1))


def _apex_extension(g: Hypergraph, t: int) -> Hypergraph:
    """Shift G up by t and add every k-set of [n+t] meeting the apex [t]."""
    n_new = g.n + t
    edges = [tuple(v + t for v in e) for e in g.edges]
    for e in combinations(range(1, n_new + 1), g.k):
        if e[0] <= t:
            edges.append(e)
    return new_hypergraph(n_new, g.k, edges)


def construction1(g: Hypergraph, s: int, eta: Fraction) -> tuple[Hypergraph, int]:
    """Apex extension with t = floor((n-4s)/3 - eta*n) universal vertices
    (k = 4).  Requires G stable; the output is then stable as well."""
    if g.k != 4:
        raise HypergraphError(f"expects k = 4, got {g.k}")
    if not is_stable(g):
        raise HypergraphError("G must be stable")
    eta = Fraction(eta)
    t_frac = Fraction(g.n - 4 * s, 3) - eta * g.n
    t = t_frac.__floor__()
    if t < 0:
        raise HypergraphError(f"t = floor({t_frac}) < 0")
    h = _apex_extension(g, t)
    if not is_stable(h):
        raise RuntimeError("apex extension lost stability (internal error)")
    return h, t


def construction2(g: Hypergraph, s: int) -> tuple[Hypergraph, int]:
    """Apex extension with t = floor((n-ks)/(k-1)) - 1 universal vertices."""
    k = g.k
    if k < 2:
        raise HypergraphError(f"need k >= 2, got k={k}")
    t = (g.n - k * s) // (k - 1) - 1
    if t < 0:
        raise HypergraphError(f"t = {t} < 0")
    return _apex_extension(g, t), t


@dataclass(frozen=True)
class ThresholdReport:
    value: int
    clamped: bool


def degree_threshold_formula(n: int, k: int, d: int, s: int) -> ThresholdReport:
    """C(n-d,k-d) - C(n-d-s+1,k-d) + 1: the minimum d-degree forcing a
    matching of size s.  For s = 0 the raw value is nonpositive and is
    clamped to 0 (an empty matching needs no degree at all)."""
    if not (1 <= d <= k - 1):
        raise HypergraphError(f"need 1 <= d <= k-1, got d={d}, k={k}")
    if s < 0 or k * s > n:
        raise HypergraphError(f"need 0 <= s <= n/k, got s={s}")
    raw = binom(n - d, k - d) - binom(n - d - s + 1, k - d) + 1
    if raw < 0:
        return ThresholdReport(value=0, clamped=True)
    return ThresholdReport(value=raw, clamped=False)


def kot_asymptotic(n: int, k: int, d: int, s: int) -> Fraction:
    """Main term (1 - (1 - s/n)^(k-d)) * C(n-d, k-d) of the conjectured
    d-degree threshold; lower-order terms dropped."""
    if not (1 <= d <= k - 1):
        raise HypergraphError(f"need 1 <= d <= k-1, got d={d}, k={k}")
    return (1 - (1 - Fraction(s, n)) ** (k - d)) * binom(n - d, k - d)


def hpsko_threshold_coefficient(k: int, d: int) -> Fraction:
    """max{1 - ((k-1)/k)^(k-d), 1/2}."""
    if not (1 <= d <= k - 1):
        raise HypergraphError(f"need 1 <= d <= k-1, got d={d}, k={k}")
    return max(1 - Fraction(k - 1, k) ** (k - d), Fraction(1, 2))
