"""The bitmask search kernel: one contract, two implementations.

Vertex v maps to bit v-1 of an edge mask, so the kernel handles n <= 63.
The compiled ``_kernel`` (built from the hand-written ``_kernel.c``) is used
when it imports and the pure-Python ``_kernel_py`` otherwise.  Both run the
same DFS, the C one over index arrays and the Python one over index bitsets
held in Python ints, so they return identical answers, witnesses and node
counts.  ``IMPL`` says which one runs: ``"c"`` or ``"python"``.

``downset_max_edges(n, k, s, budget, lower)`` builds the k-subsets of [n]
(candidate i is the i-th in ``itertools.combinations`` order) and the
dominance order on them: cover lists in C, threshold columns in Python.  It
refuses (ValueError) a cell outside 1 <= k <= n <= 63 or past
``MAX_SEARCH_CANDIDATES`` = 2^15 candidates.  Neither kernel holds a
C(n,k)^2-bit up-set table; the cap bounds what still grows with C(n,k): the
set-up and each node's bitset operations, and the incumbent and the witness,
which list up to C(n,k) k-sets.  Every closure the search visits is a
down-set of the dominance order, and each node seeks its (s+1)-matching
only among the closure's masks inside [k(s+1)].  Lemma: a down-set with s+1
pairwise disjoint edges has s+1 such edges inside [k(s+1)].  Proof: map the
matching's k(s+1) vertices in order onto [k(s+1)]; each vertex moves down,
so each image edge is dominated by its edge and lies in the down-set.  A
closure with no matching there has none at all, so its size and witness are
the whole closure.

The contract is the two searches; ``greedy_matching`` is one Python loop
outside it, over masks of any size.
"""

from __future__ import annotations

from emclab._kernel_py import MAX_SEARCH_CANDIDATES
from emclab.hypergraph import HypergraphError

try:
    from emclab import _kernel as _impl  # type: ignore[attr-defined]
except ImportError:
    from emclab import _kernel_py as _impl

IMPL: str = _impl.IMPL
find_matching = _impl.find_matching
downset_max_edges = _impl.downset_max_edges

MAX_KERNEL_VERTICES = 63


def greedy_matching(masks) -> list[int]:
    """Lexicographic greedy maximal matching over masks of any size; returns
    the chosen indices.  A negative mask raises OverflowError."""
    if masks and min(masks) < 0:
        raise OverflowError("masks must be nonnegative")
    out, used = [], 0
    for i, m in enumerate(masks):
        if not (m & used):
            out.append(i)
            used |= m
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
