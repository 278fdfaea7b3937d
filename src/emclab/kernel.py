"""The bitmask search kernel: one contract, two implementations.

Vertex v maps to bit v-1 of an edge mask, so the kernel handles n <= 63.
The compiled ``_kernel`` (built from the hand-written ``_kernel.c``) is used
when it imports and the pure-Python ``_kernel_py`` otherwise.  Both run the
same DFS, the C one over index arrays and the Python one over index bitsets
held in Python ints, so they return identical answers, witnesses and node
counts.  ``IMPL`` says which one runs: ``"c"`` or ``"python"``.
"""

from __future__ import annotations

from emclab.hypergraph import HypergraphError

try:
    from emclab import _kernel as _impl  # type: ignore[attr-defined]
except ImportError:
    from emclab import _kernel_py as _impl

IMPL: str = _impl.IMPL
find_matching = _impl.find_matching
greedy_matching = _impl.greedy_matching
downset_max_edges = _impl.downset_max_edges

MAX_KERNEL_VERTICES = 63


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
