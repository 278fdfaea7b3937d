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

The search's matching step runs ``find_matching``'s DFS on such a part: a
down-set of the k-subsets of a set `free` of exactly need*k vertices, first
[k(s+1)], then [k(s+1)] less the partners chosen so far.  Three facts skip
only branches that fail, so the step returns ``find_matching``'s answer:
- Count prune: an edge A holding u but not a free w < u dominates
  A - u + w, so the active vertices are an initial segment of `free`; all
  need*k are active, as the count asks, iff the top free vertex is, and the
  least active vertex v is the least free vertex.
- No fallback: need disjoint k-sets on need*k vertices cover v, so when
  every partner of v fails, the search of the edges without v fails too.
- Dominated partners: if partners j <= i in dominance, the map of
  free - j onto free - i in order moves each vertex down (j has at least
  as many vertices <= t as i, for every t), so it takes a matching on
  free - j to one on free - i; when i fails, j fails.
The pure-Python kernel uses all three.  The compiled one uses only the
third: the other two measured no faster in C, where the count is one pass
that also finds v, and the fallback ends at that count.

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
