"""Reference answers, each simpler than the emclab code it checks.

Closed forms (the extremal bound, nu* of complete and cover graphs, the
profile of H1), definitions checked by brute force (disjoint matchings,
stability, feasible primal and dual LP solutions) and the documented `.khg`
and sampling formats.  A failed check raises `Mismatch`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb


class Mismatch(Exception):
    """An output disagrees with its reference."""


def expect(cond: bool, reason: str):
    if not cond:
        raise Mismatch(reason)


# --- families ------------------------------------------------------------

def complete_edges(n: int, k: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), k))


def hi_edges(n: int, k: int, s: int, i: int) -> list[tuple[int, ...]]:
    """H_i(n,k,s): k-sets of [n] meeting [i(s+1)-1] in at least i vertices."""
    prefix = i * (s + 1) - 1
    return [e for e in combinations(range(1, n + 1), k)
            if sum(v <= prefix for v in e) >= i]


def emc_formula(n: int, k: int, s: int) -> int:
    """max{C(n,k) - C(n-s,k), C(k(s+1)-1,k)}."""
    return max(comb(n, k) - comb(n - s, k), comb(k * (s + 1) - 1, k))


# --- .khg ----------------------------------------------------------------

def khg_text(n: int, k: int, edges) -> str:
    return "".join([f"{n} {k} {len(edges)}\n"] + [" ".join(map(str, e)) + "\n"
                                                    for e in sorted(edges)])


def khg_edges(text: str) -> tuple[int, int, list[tuple[int, ...]]]:
    head, *rows = text.splitlines()
    n, k, m = map(int, head.split())
    edges = [tuple(map(int, r.split())) for r in rows]
    expect(len(edges) == m, f"header says {m} edges, file has {len(edges)}")
    return n, k, edges


# --- definitions checked by brute force -----------------------------------

def is_stable(edges) -> bool:
    """Closed under every (i,j)-shift with i < j: replacing j by i in an edge
    that has j but not i gives an edge."""
    es = set(edges)
    for e in edges:
        for j in e:
            for i in range(1, j):
                if i not in e and tuple(sorted((i,) + tuple(v for v in e if v != j))) not in es:
                    return False
    return True


def greedy_matching(edges) -> list[tuple[int, ...]]:
    used: set[int] = set()
    out = []
    for e in edges:
        if used.isdisjoint(e):
            out.append(e)
            used.update(e)
    return out


def check_matching(witness, edges, size: int):
    es = set(map(tuple, edges))
    verts = [v for e in witness for v in e]
    expect(len(witness) == size, f"witness has {len(witness)} edges, want {size}")
    expect(len(verts) == len(set(verts)), "witness edges are not disjoint")
    expect(all(tuple(e) in es for e in witness), "witness uses a non-edge")


def loads_of(weights: dict, vertices) -> dict[int, Fraction]:
    loads = {v: Fraction(0) for v in vertices}
    for e, w in weights.items():
        for v in e:
            loads[v] += w
    return loads


def check_packing(weights: dict, edges, vertices, size: Fraction):
    """`weights` (edge -> Fraction) is a fractional matching of the given size."""
    es = set(edges)
    expect(all(e in es for e in weights), "weight on a non-edge")
    expect(all(0 <= w <= 1 for w in weights.values()), "edge weight outside [0,1]")
    expect(all(ld <= 1 for ld in loads_of(weights, vertices).values()),
           "a vertex load exceeds 1")
    expect(sum(weights.values(), Fraction(0)) == size, "matching size is wrong")


def check_cover(cover: dict, edges, size: Fraction):
    """`cover` (vertex -> Fraction, zeros omitted) is a fractional cover of
    the given size; with an equal-size packing this proves both optimal."""
    expect(all(0 <= w <= 1 for w in cover.values()), "cover weight outside [0,1]")
    expect(all(sum((cover.get(v, 0) for v in e), Fraction(0)) >= 1 for e in edges),
           "cover misses an edge")
    expect(sum(cover.values(), Fraction(0)) == size, "cover size is wrong")


# --- sampling ------------------------------------------------------------

def sampled_copies(vertices, t: int, k: int, copies: int, seed: int):
    """The documented rule: copy i keeps v with probability n^-0.9 under
    random.Random(seed * 1000003 + i), then drops its largest labels down to
    a multiple of k."""
    p = float(len(vertices) - t) ** -0.9
    out = []
    for i in range(copies):
        rng = random.Random(seed * 1000003 + i)
        r = [v for v in vertices if rng.random() < p]
        out.append(r[:len(r) - len(r) % k])
    return out


def complete_multiplicities(copies, k: int) -> dict:
    """Multiplicity report of K(n,k) for the given copies."""
    sets = [set(c) for c in copies]
    pair_hits: dict[tuple[int, int], int] = {}
    multi_edges: set[tuple[int, ...]] = set()
    for a in range(len(sets)):
        for pair in combinations(sorted(sets[a]), 2):
            pair_hits[pair] = pair_hits.get(pair, 0) + 1
        for b in range(a + 1, len(sets)):
            multi_edges.update(combinations(sorted(sets[a] & sets[b]), k))
    return {"pairs_with_Y_ge_3": sum(1 for c in pair_hits.values() if c >= 3),
            "edges_with_Y_ge_2": len(multi_edges), "copies": len(copies)}
