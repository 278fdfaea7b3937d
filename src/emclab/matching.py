"""Exact integral matching number and vertex cover number.

Both are branch-and-bound searches over bitmask edge families (see
``kernel``); inputs therefore need at most 63 vertices.  Certified upper
bounds usually pin the matching number before any search happens: the
vertex count and a greedy integral cover, then, unless those already meet
the greedy lower bound, the exact tau* from ``lp.tau_star`` (one cover LP
solved as its dual, with a row per vertex: monotone cover rows from the
cached `Hypergraph.maximal_edges` on stable families, else one row per edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

from emclab import kernel
from emclab.hypergraph import Hypergraph, HypergraphError
from emclab.lp import tau_star


@dataclass(frozen=True)
class MatchingWitness:
    edges: tuple[tuple[int, ...], ...]
    size: int


def _max_degree_bit(masks: list[int]) -> int:
    """The bit of a vertex of maximum degree, the least label on ties (bit
    v-1 sorts like vertex v)."""
    deg: dict[int, int] = {}
    for m in masks:
        while m:
            b = m & -m
            deg[b] = deg.get(b, 0) + 1
            m ^= b
    return min(deg, key=lambda b: (-deg[b], b))


def _greedy_cover_size(masks: list[int]) -> int:
    """Integral cover by repeated max-degree vertex; an upper bound on tau."""
    size = 0
    while masks:
        v = _max_degree_bit(masks)
        masks = [m for m in masks if not m & v]
        size += 1
    return size


def _upper_bound(h: Hypergraph, masks: list[int], lb: int) -> int:
    """An upper bound on nu; skips the tau* solve when the cheap bounds
    already meet the lower bound `lb`."""
    active = 0
    for m in masks:
        active |= m
    ub = bin(active).count("1") // h.k
    ub = min(ub, _greedy_cover_size(masks))
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
    lb_idx = kernel.greedy_matching(masks)
    lb = len(lb_idx)
    ub = _upper_bound(h, masks, lb)
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
    masks = kernel.edge_masks(h.n, h.edges)
    if not masks:
        return 0
    best = _greedy_cover_size(masks)

    def search(rem: list[int], used: int):
        nonlocal best
        if not rem:
            best = min(best, bin(used).count("1"))
            return
        if bin(used).count("1") + len(kernel.greedy_matching(rem)) >= best:
            return
        pivot = _max_degree_bit(rem)
        # either cover with the pivot vertex ...
        search([m for m in rem if not (m & pivot)], used | pivot)
        # ... or cover the first pivot edge with another of its vertices
        e = next(m for m in rem if m & pivot)
        mm = e & ~pivot
        while mm:
            b = mm & -mm
            search([m for m in rem if not (m & b)], used | b)
            mm ^= b

    search(masks, 0)
    return best
