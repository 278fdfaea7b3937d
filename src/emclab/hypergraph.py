"""Canonical k-uniform hypergraphs on [n] with exact set-family operations.

Vertices are 1-based.  Edges are stored as sorted tuples in lexicographic
order, so iteration is deterministic and serialization is canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence


class HypergraphError(ValueError):
    pass


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform edge family on a ground set of 1-based vertices.

    ``vertices`` is the ground set (None means 1..n); induced subgraphs and
    trace families keep original labels, so the ground set can be a proper
    subset of [n], and may be empty.
    """

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]
    vertices: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.vertices is None:
            object.__setattr__(self, "vertices", tuple(range(1, self.n + 1)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set[tuple[int, ...]]:
        return set(self.edges)

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self.edge_set()

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)


def new_hypergraph(n: int, k: int, raw_edges: Iterable[Sequence[int]],
                   vertices: Iterable[int] | None = None) -> Hypergraph:
    """Validate, canonicalize and deduplicate an edge list.

    Raises HypergraphError identifying the first offending edge (wrong arity,
    repeated vertex, or vertex outside the ground set).
    """
    if n < 1 or k < 1 or k > n:
        raise HypergraphError(f"need 1 <= k <= n, got n={n}, k={k}")
    ground = tuple(sorted(vertices)) if vertices is not None else tuple(range(1, n + 1))
    ground_set = set(ground)
    for v in ground:
        if not (1 <= v <= n):
            raise HypergraphError(f"ground-set vertex {v} outside [1,{n}]")
    seen = set()
    for raw in raw_edges:
        e = tuple(sorted(raw))
        if len(raw) != k:
            raise HypergraphError(f"edge {list(raw)} has arity {len(raw)}, expected {k}")
        if len(set(e)) != k:
            raise HypergraphError(f"edge {list(raw)} has a repeated vertex")
        for v in e:
            if v not in ground_set:
                if not (1 <= v <= n):
                    raise HypergraphError(f"vertex {v} outside [1,{n}] in edge {list(raw)}")
                raise HypergraphError(f"vertex {v} outside ground set in edge {list(raw)}")
        seen.add(e)
    return Hypergraph(n=n, k=k, edges=tuple(sorted(seen)), vertices=ground)


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    return new_hypergraph(n, k, combinations(range(1, n + 1), k))


def is_stable(h: Hypergraph) -> bool:
    """True iff the family is closed downward under coordinatewise dominance.

    Only elementary single-coordinate decrements are checked; transitivity of
    the dominance order makes that sufficient.
    """
    edge_set = h.edge_set()
    for e in h.edges:
        for i, a in enumerate(e):
            b = a - 1
            if b < 1 or b in e:
                continue
            f = tuple(sorted(e[:i] + (b,) + e[i + 1:]))
            if f not in edge_set:
                return False
    return True


def shadow(h: Hypergraph) -> Hypergraph:
    """All (k-1)-sets contained in some edge."""
    if h.k < 2:
        raise HypergraphError("shadow needs k >= 2")
    out = set()
    for e in h.edges:
        for i in range(h.k):
            out.add(e[:i] + e[i + 1:])
    return Hypergraph(n=h.n, k=h.k - 1, edges=tuple(sorted(out)), vertices=h.vertices)


def trace_family(h: Hypergraph, a: Iterable[int], s: Iterable[int]) -> Hypergraph:
    """Edges meeting S exactly in A, with A removed.

    Result keeps the original vertex labels; its ground set is the original
    one minus S, and its uniformity is k - |A|.
    """
    a_set = frozenset(a)
    s_set = frozenset(s)
    if not a_set <= s_set:
        raise HypergraphError("A must be a subset of S")
    if len(a_set) > h.k:
        raise HypergraphError("|A| must be at most k")
    out = []
    for e in h.edges:
        if frozenset(e) & s_set == a_set:
            out.append(tuple(v for v in e if v not in a_set))
    ground = tuple(v for v in h.vertices if v not in s_set)
    return Hypergraph(n=h.n, k=h.k - len(a_set), edges=tuple(sorted(set(out))),
                      vertices=ground)


def induced(h: Hypergraph, w: Iterable[int]) -> Hypergraph:
    """Subgraph on W: edges of H entirely inside W, ground set W."""
    w_set = frozenset(w)
    out = tuple(e for e in h.edges if frozenset(e) <= w_set)
    return Hypergraph(n=h.n, k=h.k, edges=out, vertices=tuple(sorted(w_set)))


@dataclass(frozen=True)
class ClosenessReport:
    missing_count: int
    normalizer: Fraction      # n^k
    ratio: Fraction           # missing_count / n^k
    epsilon: Fraction
    is_close: bool


def closeness(g: Hypergraph, h: Hypergraph, epsilon: Fraction) -> ClosenessReport:
    """Asymmetric edit distance check: |E(H) \\ E(G)| < epsilon * n^k (strict).

    G and H must share (n, k).
    """
    if (g.n, g.k) != (h.n, h.k):
        raise HypergraphError(f"mismatched (n,k): {(g.n, g.k)} vs {(h.n, h.k)}")
    missing = len(h.edge_set() - g.edge_set())
    norm = Fraction(g.n) ** g.k
    eps = Fraction(epsilon)
    return ClosenessReport(
        missing_count=missing,
        normalizer=norm,
        ratio=Fraction(missing) / norm,
        epsilon=eps,
        is_close=Fraction(missing) < eps * norm,
    )


def min_d_degree(h: Hypergraph, d: int) -> tuple[int, tuple[int, ...]]:
    """Minimum over d-subsets S of the number of edges containing S.

    Returns (value, witness); the witness is the lexicographically least
    minimizer, for reproducibility.
    """
    if not (1 <= d <= h.k - 1):
        raise HypergraphError(f"need 1 <= d <= k-1, got d={d}, k={h.k}")
    counts: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        for sub in combinations(e, d):
            counts[sub] = counts.get(sub, 0) + 1
    best_val = None
    best_wit = None
    for s_sub in combinations(h.vertices, d):
        v = counts.get(s_sub, 0)
        if best_val is None or v < best_val:
            best_val, best_wit = v, s_sub
            if best_val == 0:
                break
    if best_val is None:
        raise HypergraphError("ground set smaller than d")
    return best_val, best_wit


# --- .khg text format -------------------------------------------------------
#
# First non-comment line: "n k m"; then m lines of k ascending vertex ids.
# '#' starts a comment line.  Serialization is canonical (lexicographic edge
# order, single spaces, trailing newline), so parse . serialize round-trips
# byte-identically on canonical files.

def serialize_khg(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.k} {h.num_edges}"]
    for e in h.edges:
        lines.append(" ".join(str(v) for v in e))
    return "\n".join(lines) + "\n"


def parse_khg(text: str) -> Hypergraph:
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not rows:
        raise HypergraphError("empty .khg input")
    head = rows[0].split()
    if len(head) != 3:
        raise HypergraphError(f"bad header line: {rows[0]!r}")
    try:
        n, k, m = (int(x) for x in head)
    except ValueError:
        raise HypergraphError(f"non-numeric header line: {rows[0]!r}")
    if len(rows) - 1 != m:
        raise HypergraphError(f"header declares {m} edges, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        try:
            e = [int(x) for x in ln.split()]
        except ValueError:
            raise HypergraphError(f"non-numeric edge line: {ln!r}")
        if e != sorted(e):
            raise HypergraphError(f"edge line not ascending: {ln!r}")
        edges.append(e)
    return new_hypergraph(n, k, edges)


def binom(n: int, r: int) -> int:
    """Integer binomial, 0 for r < 0 or r > n."""
    if r < 0 or r > n:
        return 0
    return comb(n, r)
