"""Seeded random sparsification pipeline.

Vertices of an apex graph on [n + t] (apex prefix [t]) are sampled into
independent copies R^i with probability n^(-0.9); each copy is trimmed to a
multiple of k, partitioned as T^i = [t] ∩ R^i, V^i = ([t+s] \\ [t]) ∩ R^i,
W^i = R^i \\ T^i, and (given a perfect fractional matching per copy) rounded
into a sparse spanning subgraph.  Everything is deterministic given the
seed; per-copy generators are derived as seed * 1000003 + i so copies can be
regenerated independently.

Randomness source: Python's Mersenne Twister (`random.Random`), identifier
"mt19937-python"; its output is stable across platforms and versions.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from emclab.hypergraph import Hypergraph, HypergraphError
from emclab.lp import FractionalMatching
from emclab.matching import MatchingWitness

GENERATOR_ID = "mt19937-python"
P_EXPONENT = Fraction(-9, 10)


@dataclass(frozen=True)
class SampleBatch:
    n_base: int
    t: int
    s: int
    copies: tuple[tuple[int, ...], ...]
    partitions: tuple[dict[str, tuple[int, ...]], ...]
    seed: int
    p_exponent: Fraction
    trimmed: tuple[int, ...]           # vertices removed per copy (count)


def _derived_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1000003 + i)


def sample_batch(h: Hypergraph, t: int, s: int, copies: int, seed: int) -> SampleBatch:
    """Sample `copies` independent vertex subsets of V(H) with probability
    n^(-0.9), n = |V(H)| - t; trim each (largest labels first) to |R^i|
    divisible by k."""
    if copies < 1:
        raise HypergraphError("need at least one copy")
    n_base = len(h.vertices) - t
    if n_base < 1 or t < 0:
        raise HypergraphError(f"need 0 <= t < |V|, got t={t}")
    if s < 0:
        raise HypergraphError(f"need s >= 0, got s={s}")
    p = float(n_base) ** float(P_EXPONENT)
    k = h.k
    out_copies = []
    out_parts = []
    out_trim = []
    for i in range(copies):
        rng = _derived_rng(seed, i)
        r = [v for v in h.vertices if rng.random() < p]
        trim = len(r) % k
        if trim:
            r = r[:-trim]            # vertices are sorted: drops the largest
        r_t = tuple(r)
        t_i = tuple(v for v in r_t if v <= t)
        v_i = tuple(v for v in r_t if t < v <= t + s)
        w_i = tuple(v for v in r_t if v > t)
        out_copies.append(r_t)
        out_parts.append({"T": t_i, "V": v_i, "W": w_i})
        out_trim.append(trim)
    return SampleBatch(n_base=n_base, t=t, s=s, copies=tuple(out_copies),
                       partitions=tuple(out_parts), seed=seed,
                       p_exponent=P_EXPONENT, trimmed=tuple(out_trim))


def incidence_stats(batch: SampleBatch, probes) -> dict[tuple[int, ...], int]:
    """Y_A = number of copies containing A, for each probe set A."""
    copy_sets = [set(c) for c in batch.copies]
    out = {}
    for probe in probes:
        a = tuple(sorted(probe))
        out[a] = sum(1 for cs in copy_sets if set(a) <= cs)
    return out


def _copy_hosts(h: Hypergraph, batch: SampleBatch) -> dict[tuple[int, ...], list[int]]:
    """Each edge of H lying in some copy, in edge order, mapped to the
    ascending indices of the copies that contain it.

    in_copies[v] has bit i set when copy i holds vertex v, so an edge's
    hosts are the AND over its vertices.  An edge outside the union of the
    copies is skipped with one subset test first; the rest cost k ANDs each,
    however many copies there are."""
    in_copies: dict[int, int] = {}
    for i, c in enumerate(batch.copies):
        for v in c:
            in_copies[v] = in_copies.get(v, 0) | 1 << i
    inside_union = frozenset(in_copies).issuperset
    out = {}
    for e in h.edges:
        if inside_union(e):
            hosts = -1
            for v in e:
                hosts &= in_copies[v]
            if hosts:
                out[e] = [i for i, bit in enumerate(bin(hosts)[:1:-1]) if bit == "1"]
    return out


def multiplicity_report(h: Hypergraph, batch: SampleBatch) -> dict:
    """Empirical frequencies of the rare events the sparsification relies
    on: pairs hit by >= 3 copies and edges inside >= 2 copies."""
    pairs = Counter(p for c in batch.copies for p in combinations(sorted(set(c)), 2))
    pair_bad = sum(1 for count in pairs.values() if count >= 3)
    edge_multi = sum(1 for hosts in _copy_hosts(h, batch).values() if len(hosts) >= 2)
    return {"pairs_with_Y_ge_3": pair_bad, "edges_with_Y_ge_2": edge_multi,
            "copies": len(batch.copies)}


def round_to_sparse(h: Hypergraph, batch: SampleBatch,
                    pfms: list[FractionalMatching], seed: int) -> Hypergraph:
    """Keep each edge lying in a sampled copy independently with probability
    equal to its fractional weight in that copy's perfect matching.

    Edges in no copy are dropped, and so are edges in two or more copies
    (Y_e >= 2, rare by design) — this keeps the invariant that every kept
    edge lies in exactly one copy.  Each pfm must be perfect on the induced
    subgraph H[R^i].
    """
    if len(pfms) != len(batch.copies):
        raise HypergraphError("need one perfect fractional matching per copy")
    for i, (r, pfm) in enumerate(zip(batch.copies, pfms)):
        for v in r:
            if pfm.loads.get(v, 0) != 1:
                raise HypergraphError(
                    f"matching for copy {i} is not perfect at vertex {v}")
    rng = random.Random(seed)
    kept = []
    for e, hosts in _copy_hosts(h, batch).items():
        if len(hosts) != 1:
            continue
        w = pfms[hosts[0]].weights.get(e, Fraction(0))
        if w == 1 or (w > 0 and rng.random() < float(w)):
            kept.append(e)
    return Hypergraph(n=h.n, k=h.k, edges=tuple(kept), vertices=h.vertices)


def greedy_near_perfect_matching(h: Hypergraph) -> tuple[MatchingWitness, int]:
    """Greedy maximal matching in lexicographic edge order; returns the
    witness and the number of uncovered vertices.

    This is `kernel.greedy_matching` over vertex sets, kept so that its cost
    is O(m*k) whatever the vertex labels: an edge's mask has as many bits as
    its largest vertex, and `emclab greedy` takes files on [10^9]."""
    used: set[int] = set()
    chosen = []
    for e in h.edges:
        if not (set(e) & used):
            chosen.append(e)
            used.update(e)
    uncovered = len(h.vertices) - len(used)
    return MatchingWitness(edges=tuple(chosen), size=len(chosen)), uncovered


def degree_histogram(h: Hypergraph) -> dict:
    """Degree distribution plus the maximum pair codegree Delta_2."""
    degs = {v: 0 for v in h.vertices}
    pair: dict[tuple[int, int], int] = {}
    for e in h.edges:
        for v in e:
            degs[v] += 1
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                pair[(e[i], e[j])] = pair.get((e[i], e[j]), 0) + 1
    hist: dict[int, int] = {}
    for d in degs.values():
        hist[d] = hist.get(d, 0) + 1
    return {"degree_hist": dict(sorted(hist.items())),
            "max_degree": max(degs.values()) if degs else 0,
            "delta_2": max(pair.values()) if pair else 0}
