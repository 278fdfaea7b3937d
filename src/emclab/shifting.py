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

from emclab import kernel
from emclab.hypergraph import Hypergraph, HypergraphError, is_stable


def _from_masks(h: Hypergraph, masks: set[int]) -> Hypergraph:
    """The family `masks` on h's ground set; it must keep h's edge count."""
    if len(masks) != h.num_edges:
        raise RuntimeError("shift changed the edge count (internal error)")
    edges = tuple(sorted(map(kernel.mask_edge, masks)))
    return Hypergraph(n=h.n, k=h.k, edges=edges, vertices=h.vertices)


def _shift_masks(masks: set[int], i: int, j: int) -> bool:
    """Apply the (i,j)-shift to `masks` in place; True iff an edge moved."""
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    swap = bi | bj
    moved = False
    for m in [m for m in masks if m & swap == bj]:
        f = m ^ swap
        if f not in masks:
            masks.remove(m)
            masks.add(f)
            moved = True
    return moved


def shift_ij(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """Replace j by i in each edge with j but not i, unless blocked."""
    if not (1 <= i < j):
        raise HypergraphError(f"shift needs 1 <= i < j, got ({i}, {j})")
    masks = set(map(kernel.edge_mask, h.edges))
    _shift_masks(masks, i, j)
    return _from_masks(h, masks)


def label_sum(h: Hypergraph) -> int:
    """Sum of all vertex labels over all edges; strictly decreases under any
    effective shift, which is what guarantees stabilization terminates."""
    return sum(sum(e) for e in h.edges)


def stabilize(h: Hypergraph) -> tuple[Hypergraph, list[tuple[int, int]]]:
    """Shift until stable.  Returns the stable family and the log of the
    effective (i,j) shifts, in the order applied.

    Sweeps the pairs i < j with j outer and i inner, and repeats the sweep
    after every full pass with a change; the result depends on this fixed
    order, which is chosen once for determinism.
    """
    if h.vertices != tuple(range(1, h.n + 1)):
        raise HypergraphError("stabilize expects the full ground set [n]")
    log: list[tuple[int, int]] = []
    masks = set(map(kernel.edge_mask, h.edges))
    changed = True
    while changed:
        changed = False
        for j in range(2, h.n + 1):
            for i in range(1, j):
                if _shift_masks(masks, i, j):
                    log.append((i, j))
                    changed = True
    out = _from_masks(h, masks)
    if not is_stable(out):
        raise RuntimeError("stabilization did not converge (internal error)")
    return out, log
