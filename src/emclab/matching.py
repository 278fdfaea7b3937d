"""Exact integral matching number and vertex cover number.

Both are branch-and-bound searches: nu's over the bitmask edge families of
``kernel.find_matching``, which refuses inputs past the kernel's 63
vertices, and tau's over lists of edge tuples, on any labels.  Certified
upper bounds usually pin the matching number before any search happens: the
vertex count and a greedy integral cover, then, unless those already meet
the greedy lower bound, the exact tau* from ``lp.tau_star`` (one solve of
the cover LP's dual, a row per vertex: the packing LP, or on a stable family
the monotone cover rows from the cached `Hypergraph.maximal_edges`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import floor
from typing import Sequence

from emclab import kernel
from emclab.hypergraph import Hypergraph, HypergraphError
from emclab.lp import tau_star


@dataclass(frozen=True)
class MatchingWitness:
    edges: tuple[tuple[int, ...], ...]
    size: int


def _max_degree_vertex(deg: Counter) -> int:
    """A vertex of maximum degree in `deg`, the least label on ties."""
    top = max(deg.values())
    return min(v for v, d in deg.items() if d == top)


def _greedy_cover_size(edges: Sequence[tuple[int, ...]]) -> int:
    """Integral cover by repeated `_max_degree_vertex`; an upper bound on
    tau.  Degrees are counted once and the covered edges' vertices
    subtracted at each step, which drops the vertices left with no edge."""
    deg = Counter(chain.from_iterable(edges))
    size = 0
    while edges:
        v = _max_degree_vertex(deg)
        deg -= Counter(chain.from_iterable([e for e in edges if v in e]))
        edges = [e for e in edges if v not in e]
        size += 1
    return size


def _upper_bound(h: Hypergraph, lb: int) -> int:
    """An upper bound on nu; skips the tau* solve when the cheap bounds
    already meet the lower bound `lb`."""
    ub = len(set(chain.from_iterable(h.edges))) // h.k
    ub = min(ub, _greedy_cover_size(h.edges))
    if ub <= lb:
        return ub
    return min(ub, floor(tau_star(h)))


def has_matching_of_size(h: Hypergraph, s: int) -> tuple[bool, MatchingWitness | None]:
    """Decide nu(H) >= s; on success return a witness of exactly s edges."""
    if s < 0:
        raise HypergraphError("matching size must be nonnegative")
    if s == 0:
        return True, MatchingWitness(edges=(), size=0)
    masks = kernel.edge_masks(h.n, h.edges)
    idx = kernel.find_matching(masks, h.k, s)
    if idx is None:
        return False, None
    return True, MatchingWitness(edges=tuple(h.edges[i] for i in idx), size=s)


def matching_number(h: Hypergraph) -> tuple[int, MatchingWitness]:
    """Exact maximum matching size with an attaining witness."""
    masks = kernel.edge_masks(h.n, h.edges)
    if not masks:
        return 0, MatchingWitness(edges=(), size=0)
    lb_idx = kernel.greedy_matching(h.edges)
    lb = len(lb_idx)
    ub = _upper_bound(h, lb)
    best = lb_idx
    size = lb
    while size < ub:
        idx = kernel.find_matching(masks, h.k, size + 1)
        if idx is None:
            break
        best = idx
        size += 1
    return size, MatchingWitness(edges=tuple(h.edges[i] for i in best), size=size)


def cover_number(h: Hypergraph) -> int:
    """Exact minimum vertex cover size, by branching on a max-degree vertex."""
    if not h.edges:
        return 0
    best = _greedy_cover_size(h.edges)

    def search(rem: Sequence[tuple[int, ...]], size: int):
        # `size` vertices are chosen so far, and none of them lies on `rem`
        nonlocal best
        if not rem:
            best = min(best, size)
            return
        if size + len(kernel.greedy_matching(rem)) >= best:
            return
        pivot = _max_degree_vertex(Counter(chain.from_iterable(rem)))
        # either cover with the pivot vertex ...
        search([e for e in rem if pivot not in e], size + 1)
        # ... or cover the first pivot edge with another of its vertices
        for v in next(e for e in rem if pivot in e):
            if v != pivot:
                search([e for e in rem if v not in e], size + 1)

    search(h.edges, 0)
    return best
