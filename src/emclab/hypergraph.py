"""Canonical k-uniform hypergraphs on [n] with exact set-family operations.

Vertices are 1-based.  Edges are stored as sorted tuples in lexicographic
order, so iteration is deterministic and serialization is canonical.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb
from operator import eq, lt
from typing import Iterable, Sequence


class HypergraphError(ValueError):
    pass


@dataclass(frozen=True)
class Hypergraph:
    """A k-uniform edge family on a ground set of 1-based vertices.

    ``vertices`` is the ground set, ascending (None means 1..n); induced
    subgraphs and trace families keep original labels, so the ground set can
    be a proper subset of [n], and may be empty.  The ground set [n] is kept
    as ``range(1, n + 1)``, whether given or not, so a huge n costs nothing
    and every [n] compares and hashes equal.
    """

    n: int
    k: int
    edges: tuple[tuple[int, ...], ...]
    vertices: Sequence[int] | None = None

    def __post_init__(self):
        full = range(1, self.n + 1)
        v = self.vertices
        # a range compares as a range, whatever n; any other sequence
        # element by element
        if v is None or (v == full if isinstance(v, range)
                         else len(v) == self.n and all(map(eq, v, full))):
            object.__setattr__(self, "vertices", full)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_set(self) -> set[tuple[int, ...]]:
        return set(self.edges)

    def has_edge(self, e: Iterable[int]) -> bool:
        t = tuple(sorted(e))
        i = bisect_left(self.edges, t)
        return i < len(self.edges) and self.edges[i] == t

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    @cached_property
    def maximal_edges(self) -> tuple[tuple[int, ...], ...] | None:
        """The dominance-maximal edges, in order, if the family is stable,
        else None.  One pass: each k-set one step below an edge (a vertex a
        becomes a - 1 >= 1 not in it) must be an edge; those are the dominated
        edges.  A cache, not a field: `==`, `hash` and `repr` ignore it."""
        below = {e[:i] + (a - 1,) + e[i + 1:]
                 for e in self.edges for i, a in enumerate(e) if a > 1 and a - 1 not in e}
        if not below <= self.edge_set():
            return None
        return tuple(e for e in self.edges if e not in below)


def new_hypergraph(n: int, k: int, raw_edges: Iterable[Sequence[int]],
                   vertices: Iterable[int] | None = None) -> Hypergraph:
    """Validate, canonicalize and deduplicate an edge list.

    Raises HypergraphError identifying the first offending edge (wrong arity,
    repeated vertex, or vertex outside the ground set).
    """
    if n < 1 or k < 1 or k > n:
        raise HypergraphError(f"need 1 <= k <= n, got n={n}, k={k}")
    ground = members = None
    if vertices is not None:
        ground = tuple(sorted(vertices))
        for v in ground:
            if not (1 <= v <= n):
                raise HypergraphError(f"ground-set vertex {v} outside [1,{n}]")
        members = frozenset(ground)
    raws = list(map(tuple, raw_edges))
    edges = None
    if set(map(len, raws)) <= {k}:
        edges = _bulk_canonical(n, k, members, list(zip(*raws)), raws)
    if edges is None:
        # one edge at a time: sorts unsorted edges, names the first bad one
        seen = set()
        for raw in raws:
            e = tuple(sorted(raw))
            if len(raw) != k:
                raise HypergraphError(f"edge {list(raw)} has arity {len(raw)}, expected {k}")
            if len(set(e)) != k:
                raise HypergraphError(f"edge {list(raw)} has a repeated vertex")
            for v in e:
                if not (1 <= v <= n):
                    raise HypergraphError(f"vertex {v} outside [1,{n}] in edge {list(raw)}")
                if members is not None and v not in members:
                    raise HypergraphError(f"vertex {v} outside ground set in edge {list(raw)}")
            seen.add(e)
        edges = tuple(sorted(seen))
    return Hypergraph(n=n, k=k, edges=edges, vertices=ground)


def _bulk_canonical(n: int, k: int, members: frozenset[int] | None,
                    cols: list[Sequence[int]],
                    rows: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...] | None:
    """The edges `rows` in canonical order, or None unless 1 <= k <= n and
    every edge is strictly increasing on the ground set: `members`, or [n]
    when it is None.  `cols` holds the k columns of `rows` (none when there
    are no edges); `rows` is read only once the columns pass, so it may be
    `zip(*cols)`.

    Every test is a C-level pass over a whole column; [n] is checked as a
    range on the first and last columns, so nothing of size n is built.  The
    set and the sort are skipped when the edges already come in strictly
    increasing order.
    """
    if not 1 <= k <= n:
        return None
    if not cols:
        return ()
    if not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
        return None
    if not ((min(cols[0]) >= 1 and max(cols[-1]) <= n) if members is None
            else all(map(members.issuperset, cols))):
        return None
    edges = list(rows)
    if all(map(lt, edges, edges[1:])):
        return tuple(edges)
    return tuple(sorted(set(edges)))


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    return new_hypergraph(n, k, combinations(range(1, n + 1), k))


def is_stable(h: Hypergraph) -> bool:
    """True iff the family is closed downward under coordinatewise dominance.

    Only elementary single-coordinate decrements are checked; transitivity of
    the dominance order makes that sufficient (`Hypergraph.maximal_edges`).
    """
    return h.maximal_edges is not None


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

    G and H must share (n, k), and epsilon must be positive.
    """
    if (g.n, g.k) != (h.n, h.k):
        raise HypergraphError(f"mismatched (n,k): {(g.n, g.k)} vs {(h.n, h.k)}")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise HypergraphError(f"need epsilon > 0, got {eps}")
    missing = len(h.edge_set() - g.edge_set())
    norm = Fraction(g.n) ** g.k
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
# First non-comment line: "n k m"; then m edge lines of k vertex ids each,
# ascending within the line.  Tokens are separated by any whitespace and read
# with int(), so "03" and "+3" are 3.
#
# parse_khg accepts lines starting with '#' (comments), blank lines, CRLF line
# ends, edge lines in any order, and duplicate edge lines, which are merged
# (m counts the lines, not the distinct edges).  It rejects with
# HypergraphError (CLI exit 3) an empty input, a header that is not three
# integers, a line count other than m, a non-numeric token, an edge line
# that is not ascending, k outside [1, n], an edge without k vertices, a
# repeated vertex and a vertex outside [1, n].
#
# Two reads give the same result and the same errors.  The block read takes
# a file whose edge rows, once comment and blank lines are filtered out, are
# digits and single separators only (a space or a tab each), k tokens to a
# row with no separator at either end, and every token a vertex name without
# a leading zero.  Every other file (runs of whitespace, "03", "+3"), and any
# file that fails a bulk check, takes the line read, which names the first
# offending line.
#
# serialize_khg output is canonical: edges in lexicographic order, single
# spaces, "\n" line ends including the last, so parse . serialize round-trips
# byte-identically on canonical files.

def serialize_khg(h: Hypergraph) -> str:
    line = " ".join(["%s"] * h.k) + "\n"
    return f"{h.n} {h.k} {h.num_edges}\n" + "".join([line % e for e in h.edges])


def parse_khg(text: str) -> Hypergraph:
    rows = [ln for ln in text.splitlines() if (t := ln.lstrip()) and t[0] != "#"]
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
    canon = _block_read(n, k, rows[1:], min(n, m * k, len(text)))
    if canon is not None:
        return Hypergraph(n=n, k=k, edges=canon)
    # the block read refused the file: read line by line, so that every
    # line's own error comes before any of new_hypergraph
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


_BLOCK_ROWS = 2048
_TAB_TO_SPACE = bytes.maketrans(b"\t", b" ")


def _block_read(n: int, k: int, rows: list[str],
                names: int) -> tuple[tuple[int, ...], ...] | None:
    """The edges on the edge lines `rows`, in canonical order, or None unless
    every row is k names of 1..`names` separated by single spaces or tabs
    and the edges pass `_bulk_canonical`.

    The rows go in blocks of `_BLOCK_ROWS`; a block's bytes less its digits,
    with tabs read as spaces, must be k-1 spaces and a line end per row, so
    no row holds more than k tokens, and the token count shows that none
    holds fewer.  Tokens map through a table of names, which is cheaper
    than int() and lacks "03", "+3", "0" and anything past `names`.
    Splitting in blocks rather than the whole body keeps few token strings
    alive at once.
    """
    table = {str(v): v for v in range(1, names + 1)}
    line = None
    vals: list[int] = []
    for i in range(0, len(rows), _BLOCK_ROWS):
        chunk = rows[i:i + _BLOCK_ROWS]
        block = "\n".join(chunk) + "\n"
        bare = block.encode().translate(_TAB_TO_SPACE, b"0123456789")
        # the length test comes first, so the template is never longer
        # than a block: k is read from the header, not from the file
        if len(bare) != k * len(chunk):
            return None
        line = line or b" " * (k - 1) + b"\n"
        if bare != line * len(chunk):
            return None
        try:
            vals += map(table.__getitem__, block.split())
        except KeyError:
            return None
    if len(vals) != k * len(rows):
        return None
    cols = [vals[j::k] for j in range(k)] if vals else []
    return _bulk_canonical(n, k, None, cols, zip(*cols))


def binom(n: int, r: int) -> int:
    """Integer binomial, 0 for r < 0 or r > n."""
    if r < 0 or r > n:
        return 0
    return comb(n, r)
