"""The bitmask search kernel: the contract's two searches.

Vertex v maps to bit v-1 of an edge mask, so the kernel handles n <= 63.
``edge_masks`` builds the masks ``find_matching`` takes.

``find_matching(masks, k, need)`` has two implementations of one DFS: the
compiled ``_kernel`` (built from the hand-written ``_kernel.c``) when it
imports, and the pure-Python ``_kernel_py`` otherwise.  They return the
same indices.  ``IMPL`` says which one runs: ``"c"`` or ``"python"``.

``downset_max_edges(n, k, s, budget, lower)`` has one implementation,
``_kernel_py.downset_max_edges``, whichever ``find_matching`` runs.  Its
docstring proves the [k(s+1)] lemma and the three skip rules of its
matching step.  It builds the k-subsets of [n] (candidate i is the i-th in
``itertools.combinations`` order) and their n*k threshold columns of the
dominance order.  It refuses (ValueError) a cell outside
1 <= k <= n <= 63 or past ``MAX_SEARCH_CANDIDATES`` = 2^15 candidates.
It holds no C(n,k)^2-bit up-set table; the cap bounds what still grows
with C(n,k): the set-up and each node's bitset operations, and the
incumbent and the witness, which list up to C(n,k) k-sets.

``greedy_matching`` is one Python loop outside the contract, over vertex
tuples with any labels: the only greedy matching.
"""

from __future__ import annotations

from emclab import _kernel_py
from emclab._kernel_py import MAX_SEARCH_CANDIDATES, downset_max_edges
from emclab.hypergraph import HypergraphError

try:
    from emclab import _kernel as _impl  # type: ignore[attr-defined]
except ImportError:
    _impl = _kernel_py

IMPL: str = _impl.IMPL
find_matching = _impl.find_matching

MAX_KERNEL_VERTICES = 63


def greedy_matching(edges) -> list[int]:
    """Lexicographic greedy maximal matching over vertex tuples; returns the
    indices of the edges that meet no earlier chosen edge.  It costs O(m*k)
    whatever the labels."""
    out, used = [], set()
    for i, e in enumerate(edges):
        if used.isdisjoint(e):
            out.append(i)
            used.update(e)
    return out


def edge_mask(edge) -> int:
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


def mask_edge(m: int) -> tuple[int, ...]:
    """The ascending edge of mask `m`, any n: the inverse of `edge_mask`."""
    edge = []
    while m:
        low = m & -m
        edge.append(low.bit_length())
        m ^= low
    return tuple(edge)


def check_ground_set(n: int) -> None:
    """Raise HypergraphError when [n] is past the kernel's limit."""
    if n > MAX_KERNEL_VERTICES:
        raise HypergraphError(f"search kernels support n <= {MAX_KERNEL_VERTICES}")


def edge_masks(n: int, edges) -> list[int]:
    """Masks of `edges` on the ground set [n]; rejects n past the kernel's
    limit before consuming `edges`."""
    check_ground_set(n)
    return [edge_mask(e) for e in edges]
