"""Compression (shifting) of edge families toward stable ones.

The (i,j)-shift replaces j by i in every edge where the exchange is not
blocked by an existing edge.  Iterating shifts over all pairs i < j produces
a stable family with the same number of edges and no larger matching number.

Internally an edge is a bitmask, vertex v being bit v-1 of a plain Python
int (``kernel.edge_mask``, which works for any n), and one shift updates a
mutable set of masks in place.  That equals the simultaneous shift, in
which every blocking test looks at the family before the shift.  A mover m
(holding j but not i) becomes f = m ^ (1<<(i-1)) ^ (1<<(j-1)), which holds
i but not j, so no image is a mover; and two distinct movers have distinct
images.  So while the movers are replaced one by one, no earlier step adds
or removes f, and testing f against the partly updated set gives the answer
the family before the shift would give.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

from emclab import kernel
from emclab.hypergraph import Hypergraph, HypergraphError, is_stable


def _from_masks(h: Hypergraph, masks: set[int]) -> Hypergraph:
    """The family `masks` on h's ground set; it must keep h's edge count."""
    if len(masks) != h.num_edges:
        raise RuntimeError("shift changed the edge count (internal error)")
    edges = tuple(sorted(map(kernel.mask_edge, masks)))
    return Hypergraph(n=h.n, k=h.k, edges=edges, vertices=h.vertices)


def _shift_masks(masks: set[int], held: list[int], i: int, j: int) -> list[int]:
    """Apply the (i,j)-shift to `masks` in place, given `held`, the masks
    holding j; return those that still hold j, the ones that did not move."""
    bi = 1 << (i - 1)
    swap = bi | 1 << (j - 1)
    kept = []
    for m in held:
        f = m ^ swap
        if m & bi or f in masks:
            kept.append(m)
        else:
            masks.remove(m)
            masks.add(f)
    return kept


def _holding(masks: set[int], j: int) -> list[int]:
    """The masks holding vertex j."""
    bj = 1 << (j - 1)
    return [m for m in masks if m & bj]


def shift_ij(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """Replace j by i in each edge with j but not i, unless blocked; both
    must lie in h's ground set."""
    if not (1 <= i < j):
        raise HypergraphError(f"shift needs 1 <= i < j, got ({i}, {j})")
    if i not in h.vertices or j not in h.vertices:
        raise HypergraphError(f"shift ({i}, {j}) leaves the ground set")
    masks = set(map(kernel.edge_mask, h.edges))
    _shift_masks(masks, _holding(masks, j), i, j)
    return _from_masks(h, masks)


def label_sum(h: Hypergraph) -> int:
    """Sum of all vertex labels over all edges; strictly decreases under any
    effective shift, which is what guarantees stabilization terminates."""
    return sum(sum(e) for e in h.edges)


def stabilize(h: Hypergraph) -> tuple[Hypergraph, list[tuple[int, int]]]:
    """Shift until stable.  Returns the stable family and the log of the
    effective (i,j) shifts, in the order applied.

    Sweeps the pairs i < j with j outer and i inner, and repeats the sweep
    until the family is stable; the result depends on this fixed order,
    which is chosen once for determinism.  The family is tested after each
    sweep, so no sweep runs only to find nothing to move; a sweep that moves
    nothing on an unstable family is an internal error.  Within a sweep the
    masks holding j are listed once per j; the (i,j)-shifts only remove
    masks from that list.  A sweep visits only the vertices j > 1 that some
    edge holds at its start, and ends j's i-loop once no mask holds j: a
    shift at j only puts in vertices i < j, so some mask holds j when the
    sweep reaches j iff one held it at the start, and every pair the sweep
    skips would move nothing.  The log is the same as over all pairs.
    """
    if h.vertices != range(1, h.n + 1):
        raise HypergraphError("stabilize expects the full ground set [n]")
    log: list[tuple[int, int]] = []
    masks = set(map(kernel.edge_mask, h.edges))
    moved = True
    while moved:
        moved = False
        # the bits of the vertices j > 1 that some edge holds, ascending
        todo = reduce(or_, masks, 0) & ~1
        while todo:
            bj = todo & -todo
            todo ^= bj
            j = bj.bit_length()
            held = _holding(masks, j)
            for i in range(1, j):
                kept = _shift_masks(masks, held, i, j)
                if len(kept) < len(held):
                    log.append((i, j))
                    moved = True
                    if not kept:
                        break
                held = kept
        out = _from_masks(h, masks)
        if is_stable(out):
            return out, log
    raise RuntimeError("stabilization did not converge (internal error)")
