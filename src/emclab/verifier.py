"""Brute-force verification of the extremal edge-count bound, plus the
cover-derived diagnostics used in the stability analysis.

The oracle maximizes e(G) over all G on [n] with matching number at most s.
Compression (see ``shifting``) lets the search range over stable families
only, i.e. down-sets of the coordinatewise dominance order on k-subsets of
[n]; the kernel explores that lattice with an honest node budget.

When n >= k(s+1) the search starts from an incumbent: the larger of the two
conjectured extremal families, the cover construction H_1 and the clique H_k.
The incumbent is checked in the same run, never taken from the formula: it
must be a down-set, and a pigeonhole cover certificate must show nu <= s
(every edge meets P = [i(s+1)-1] in at least i vertices, and |P| < i(s+1),
so s+1 disjoint edges cannot fit).  The certificate is linear in the edge
count, where an exact matching search on H_1 takes seconds at n = 16.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from emclab import kernel
from emclab.constructions import build_Hi, emc_bound
from emclab.hypergraph import (Hypergraph, HypergraphError, binom, closeness,
                               is_stable, new_hypergraph)
from emclab.lp import ZERO, FractionalCover, min_cover_sorted
from emclab.matching import matching_number
from emclab.scalars import mu_beta
from emclab.shifting import stabilize


def _candidates(n: int, k: int) -> tuple[list[int], list[list[int]]]:
    """Masks of all k-subsets of [n] in lex order, with the indices of each
    one's immediate dominance successors (one vertex v moved up to v+1).

    Vertex v moves up exactly when bit v-1 of m is set and bit v is clear,
    i.e. at the set bits of m & ~(m >> 1) below bit n-1, and the move adds
    that bit's value to m (m - 2^(v-1) + 2^v).  Successors come in
    ascending order of v."""
    kernel.check_ground_set(n)
    masks = [sum(c) for c in combinations([1 << b for b in range(n)], k)]
    index = {m: i for i, m in enumerate(masks)}
    below_top = (1 << (n - 1)) - 1
    succs = []
    for m in masks:
        row = []
        movable = m & ~(m >> 1) & below_top
        while movable:
            low = movable & -movable
            row.append(index[m + low])
            movable ^= low
        succs.append(row)
    return masks, succs


def _incumbent(n: int, k: int, s: int, masks: list[int], succs: list[list[int]]
               ) -> tuple[str, Hypergraph, list[int]] | None:
    """The larger of H_1 and H_k as (name, family, its candidate indices), or
    None when n < k(s+1).  Raises RuntimeError unless the family is a
    down-set with a cover certificate for nu <= s."""
    if n < k * (s + 1):
        return None
    i, name = (k, "H_k") if emc_bound(n, k, s).winner == "clique" else (1, "H_1")
    family = build_Hi(n, k, s, i)
    index = {m: j for j, m in enumerate(masks)}
    seed = [index[m] for m in kernel.edge_masks(n, family.edges)]
    member = bytearray(len(masks))
    for j in seed:
        member[j] = 1
    if any(member[t] for j, row in enumerate(succs) if not member[j] for t in row):
        raise RuntimeError(f"incumbent {name} is not a down-set (internal error)")
    prefix = (1 << (i * (s + 1) - 1)) - 1  # P = [i(s+1)-1], so |P| < i(s+1)
    if any(bin(masks[j] & prefix).count("1") < i for j in seed):
        raise RuntimeError(f"incumbent {name} fails its cover certificate (internal error)")
    return name, family, seed


def _search(n: int, k: int, s: int, budget: int
            ) -> tuple[int, Hypergraph, bool, int, dict | None]:
    """`max_edges_given_nu`, plus the incumbent the search started from."""
    if s < 0:
        raise HypergraphError("s must be nonnegative")
    if not 1 <= k <= n:
        raise HypergraphError(f"need 1 <= k <= n, got n={n}, k={k}")
    if budget < 0:
        raise HypergraphError(f"budget must be nonnegative, got {budget}")
    masks, succs = _candidates(n, k)
    incumbent = _incumbent(n, k, s, masks, succs)
    lower = incumbent[1].num_edges if incumbent else 0
    best, wit_idx, exhausted, nodes = kernel.downset_max_edges(masks, succs, s, budget, lower)
    witness = (new_hypergraph(n, k, [kernel.mask_edge(masks[i]) for i in wit_idx])
               if wit_idx or not incumbent else incumbent[1])
    report = incumbent and {"family": incumbent[0], "edges": lower}
    return best, witness, exhausted, nodes, report


def max_edges_given_nu(n: int, k: int, s: int, budget: int = 10**7
                       ) -> tuple[int, Hypergraph, bool, int]:
    """Exact maximum of e(G) over G on [n] with nu(G) <= s, as long as the
    search exhausts within `budget` node expansions.

    Returns (max_edges, witness, exhausted, nodes).  When exhausted is False
    the value is only a lower bound (the best family found so far, or the
    checked incumbent) — never silently wrong, just honest about
    incompleteness.
    """
    return _search(n, k, s, budget)[:4]


def verify_emc(n: int, k: int, s: int, budget: int = 10**7) -> dict:
    """Compare the brute-force oracle against the closed-form bound."""
    t0 = time.monotonic()
    oracle, witness, exhausted, nodes, incumbent = _search(n, k, s, budget)
    report = emc_bound(n, k, s)
    return {
        "n": n, "k": k, "s": s,
        "oracle": oracle,
        "formula": report.emc_bound,
        "match": exhausted and oracle == report.emc_bound,
        "exhausted": exhausted,
        "nodes_expanded": nodes,
        "wall_time_ms": int((time.monotonic() - t0) * 1000),
        "witness_edges": witness.num_edges,
        "incumbent": incumbent,
    }


# ---------------------------------------------------------------------------
# cover-derived profile
# ---------------------------------------------------------------------------

class MatchingTooLarge(HypergraphError):
    def __init__(self, nu_star: Fraction, s: int):
        self.nu_star = nu_star
        super().__init__(f"nu* = {nu_star} exceeds s = {s}")


@dataclass(frozen=True)
class ExtremalProfile:
    s: int
    m: int                     # n - s - 1
    a: Fraction
    b: Fraction
    mu: Fraction | None        # (1-a)/(1-b), None when b = 1
    beta: Fraction             # 1 - delta + 3a - (4-delta)b
    link_sizes: dict[tuple[int, ...], int]
    lhs_lowerbound: int
    rhs_lowerbound: Fraction
    cover: dict[int, Fraction]


def _profile_of(g: Hypergraph, s: int, epsilon: Fraction,
                fc: FractionalCover) -> ExtremalProfile:
    """Profile of g, given `fc` = `lp.min_cover_sorted(g)`.  One pass counts
    link_sizes[A] = `trace_family(g, A, [s+1]).num_edges`, A = () or (i,)."""
    n = g.n
    w = fc.weights
    a = sum(w.get(i, ZERO) for i in range(1, s + 1)) / s if s else ZERO
    b = w.get(s + 1, ZERO)
    mu, beta = mu_beta(a, b)
    traces = Counter(tuple(v for v in e if v <= s + 1) for e in g.edges)
    links = {t: traces[t] for t in [()] + [(i,) for i in range(1, s + 2)]}
    lhs = sum(links.values())
    rhs = s * binom(n - s - 1, 3) - Fraction(epsilon) * n**4
    return ExtremalProfile(s=s, m=n - s - 1, a=a, b=b, mu=mu, beta=beta,
                           link_sizes=links, lhs_lowerbound=lhs,
                           rhs_lowerbound=rhs, cover=dict(w))


def saturate_by_cover(g: Hypergraph, cover: dict[int, Fraction]) -> Hypergraph:
    """Add every k-set whose cover weight already sums to at least 1; the
    cover stays feasible, so the fractional matching number is unchanged."""
    edges = set(g.edges)
    edges.update(FractionalCover(weights=cover).covered(combinations(g.vertices, g.k)))
    return new_hypergraph(g.n, g.k, sorted(edges), vertices=g.vertices)


def extremal_profile(g: Hypergraph, s: int, epsilon: Fraction
                     ) -> dict[str, ExtremalProfile]:
    """Cover-derived diagnostics of a stable 4-graph with nu* <= s: profiles
    of G ("raw") and of sat(G), G plus each 4-set its sorted cover w pays for
    (which a stability argument consumes is a modelling choice).  Both read
    w: w covers sat(G), so tau*(sat G) <= |w| = tau*(G) <= tau*(sat G); every
    minimum cover of sat(G) is then one of G, and w is the greatest of them.
    G's one stability test fills `g.maximal_edges`, read by its cover rows.
    """
    if g.k != 4:
        raise HypergraphError(f"expects k = 4, got {g.k}")
    if s < 0 or g.n <= s + 1:
        raise HypergraphError("need 0 <= s < n - 1")
    if epsilon <= 0:
        raise HypergraphError(f"need epsilon > 0, got {epsilon}")
    if not is_stable(g):
        raise HypergraphError("G must be stable")
    fc = min_cover_sorted(g)
    if fc.size > s:
        raise MatchingTooLarge(fc.size, s)
    sat_g = saturate_by_cover(g, fc.weights)
    return {"raw": _profile_of(g, s, epsilon, fc),
            "saturated": _profile_of(sat_g, s, epsilon, fc)}


# ---------------------------------------------------------------------------
# empirical closeness scan
# ---------------------------------------------------------------------------

def is_close_400(ratio: Fraction, epsilon: Fraction) -> bool:
    """ratio < 400 * epsilon^(1/4), compared exactly via fourth powers."""
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    return ratio**4 < 400**4 * Fraction(epsilon)


def stability_scan(n: int, s: int, epsilon: Fraction, corpus_spec: dict,
                   seed: int) -> list[dict]:
    """Measure how close near-extremal stable 4-graphs sit to the cover
    construction H_1.

    corpus_spec keys: "perturbed" (H_1 minus random edges, that many
    members), "delete" (edges removed per perturbed member), "random"
    (stabilized random graphs), "random_edges" (edges per random member).
    Fully seed-deterministic.
    """
    import random as _random
    rng = _random.Random(seed)
    epsilon = Fraction(epsilon)
    h1 = build_Hi(n, 4, s, 1)
    threshold = emc_bound(n, 4, s).cover_term - epsilon * n**4
    all_sets = list(combinations(range(1, n + 1), 4))

    corpus: list[tuple[str, Hypergraph]] = [("h1", h1)]
    for _ in range(corpus_spec.get("perturbed", 0)):
        drop = set(rng.sample(range(h1.num_edges), min(corpus_spec.get("delete", 1),
                                                       h1.num_edges)))
        g = new_hypergraph(n, 4, [e for i, e in enumerate(h1.edges) if i not in drop])
        corpus.append(("perturbed", g))
    for _ in range(corpus_spec.get("random", 0)):
        m = min(corpus_spec.get("random_edges", 20), len(all_sets))
        g = new_hypergraph(n, 4, rng.sample(all_sets, m))
        g, _log = stabilize(g)
        corpus.append(("random", g))

    rows = []
    for kind, g in corpus:
        nu, _w = matching_number(g)
        nu_ok = nu <= s
        near = g.num_edges >= threshold
        row = {"kind": kind, "edges": g.num_edges, "nu": nu, "nu_ok": nu_ok,
               "near_extremal": near}
        if nu_ok and near:
            rep = closeness(g, h1, epsilon)
            row["ratio"] = rep.ratio
            row["is_close_400"] = is_close_400(rep.ratio, epsilon)
        rows.append(row)
    return rows
