"""Compression (shifting) of edge families toward stable ones.

The (i,j)-shift replaces j by i in every edge where the exchange is not
blocked by an existing edge.  Iterating shifts over all pairs i < j produces
a stable family with the same number of edges and no larger matching number.
"""

from __future__ import annotations

from emclab.hypergraph import Hypergraph, HypergraphError, is_stable


def shift_ij(h: Hypergraph, i: int, j: int) -> Hypergraph:
    """Replace j by i in each edge with j but not i, unless blocked."""
    if not (1 <= i < j):
        raise HypergraphError(f"shift needs 1 <= i < j, got ({i}, {j})")
    edge_set = h.edge_set()
    out = set()
    for e in h.edges:
        if j in e and i not in e:
            f = tuple(sorted(v if v != j else i for v in e))
            out.add(e if f in edge_set else f)
        else:
            out.add(e)
    if len(out) != h.num_edges:
        raise RuntimeError("shift changed the edge count (internal error)")
    return Hypergraph(n=h.n, k=h.k, edges=tuple(sorted(out)), vertices=h.vertices)


def label_sum(h: Hypergraph) -> int:
    """Sum of all vertex labels over all edges; strictly decreases under any
    effective shift, which is what guarantees stabilization terminates."""
    return sum(sum(e) for e in h.edges)


def stabilize(h: Hypergraph) -> tuple[Hypergraph, list[tuple[int, int]]]:
    """Shift until stable.  Returns the stable family and the log of the
    effective (i,j) shifts, in the order applied.

    Sweeps (i,j) pairs in lexicographic order and restarts the sweep after
    every full pass with a change; the result depends on this fixed order,
    which is chosen once for determinism.
    """
    if h.vertices != tuple(range(1, h.n + 1)):
        raise HypergraphError("stabilize expects the full ground set [n]")
    log: list[tuple[int, int]] = []
    cur = h
    changed = True
    while changed:
        changed = False
        for j in range(2, cur.n + 1):
            for i in range(1, j):
                nxt = shift_ij(cur, i, j)
                if nxt.edges != cur.edges:
                    log.append((i, j))
                    cur = nxt
                    changed = True
    if not is_stable(cur):
        raise RuntimeError("stabilization did not converge (internal error)")
    return cur, log
