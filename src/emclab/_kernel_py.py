"""Pure-Python search kernels over bitmask edge families.

The kernel contract's two searches: ``find_matching``, the hot loop of the
exact matching number, and ``downset_max_edges``, the stable-family
edge-count maximizer.  Vertex v maps to bit v-1 of an edge mask, so these
kernels require n <= 63.

A set of edges is one Python int over indices into the mask array: bit i
stands for masks[i].  ``by_vertex[b]`` is the index bitset of the masks that
hold vertex bit b, so dropping every edge that meets a given edge takes one
AND and one XOR per vertex of it.  ``_columns`` builds it for both
searches in whole-column passes: every mask is written once as
little-endian bytes into one blob, and column b is that blob's byte b >> 3
of every record, translated to "0"/"1" digits and read as one base-2 int.
``above[i]`` lists the vertex bits of masks[i] past its least one.  For
``find_matching``'s masks, masks with the same m & (m - 1) share one list;
the down-set search takes its rows from ``combinations`` instead
(``_rows``): its candidate i is the i-th tuple c of
``combinations(range(n), k)``, so above[i] is c[1:], with no bit loop.
The down-set search builds its candidates from (n, k) and the n*k threshold
columns of ``_at_most``; it ANDs k of them into the up-set of masks[f] in
the dominance order only when it branches on f (``_up``).  One matching
search, ``_find``, runs over an index bitset: all of the masks, or the part
of the down-set search's closure inside [k(s+1)] (see ``downset_max_edges``).
The compiled twin in ``_kernel.c`` runs the same DFS over index arrays, so
answers, witnesses and node counts are identical; ``kernel.py`` picks one.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

IMPL = "python"
MAX_SEARCH_CANDIDATES = 1 << 15  # the cap on C(n,k); kernel.py says why


def _check_masks(masks):
    """Refuse, as the compiled kernel does, a mask outside [0, 2**64)."""
    if masks and (min(masks) < 0 or max(masks) >= 1 << 64):
        raise OverflowError("masks must lie in [0, 2**64)")


# _DIGIT[j] translates a byte to b"1" where it holds bit j, b"0" elsewhere:
# over bytes 0..255, bit j runs in blocks of 2**j zeros then 2**j ones
_DIGIT = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]


def _columns(masks):
    """by_vertex[b], for b below the widest mask's length: the index bitset
    of the masks holding vertex bit b."""
    width = max(masks, default=0).bit_length()
    nb = (width + 7) >> 3
    # blob[b >> 3::nb] is byte b >> 3 of every mask; its bit-(b & 7) digits,
    # last mask first, are by_vertex[b] in base 2
    blob = b"".join([m.to_bytes(nb, "little") for m in masks])
    return [int(blob[b >> 3::nb].translate(_DIGIT[b & 7])[::-1], 2) for b in range(width)]


def _tables(masks):
    """(by_vertex, above): by_vertex is `_columns(masks)`; above[i] lists the
    vertex bits of masks[i] other than its least one."""
    rests = [m & (m - 1) for m in masks]
    rows = {rest: _bits(rest) for rest in set(rests)}
    return _columns(masks), [rows[rest] for rest in rests]


def _rows(n, k):
    """above for the candidates of (n, k): candidate i is the i-th tuple c of
    `combinations(range(n), k)`, its vertex bits ascending, so its bits past
    the least one are c[1:]."""
    return [c[1:] for c in combinations(range(n), k)]


def _bits(m):
    """The set bits of m, ascending."""
    row = []
    while m:
        low = m & -m
        row.append(low.bit_length() - 1)
        m ^= low
    return row


def find_matching(masks, k, need):
    """Indices of `need` pairwise-disjoint edges, or None.

    Deterministic DFS branching on the least active vertex; prunes branches
    where the surviving vertices cannot host enough disjoint edges.
    """
    if need <= 0:
        return []
    _check_masks(masks)
    by_vertex, above = _tables(masks)
    return _find(by_vertex, above, k, need, (1 << len(masks)) - 1)


def _find(by_vertex, above, k, need, avail):
    if need <= 0:
        return []
    if not avail:
        return None
    target = need * k
    count = 0
    for b, col in enumerate(by_vertex):
        if avail & col:
            if not count:
                v = b  # least active vertex
            count += 1
            if count >= target:
                break
    # count == 0 decides only k <= 0, where the descent would never end
    if not count or count < target:
        return None
    with_v = avail & by_vertex[v]
    rest = avail ^ with_v
    # try high-index partners first: pairing a scarce low vertex with the
    # greediest partner wastes the fewest other scarce vertices
    if need == 1:
        return [with_v.bit_length() - 1]
    while with_v:
        i = with_v.bit_length() - 1
        with_v ^= 1 << i
        # v is i's least vertex and no edge of `rest` holds it; drop the
        # edges that meet i's other vertices
        sub = rest
        for b in above[i]:
            sub ^= sub & by_vertex[b]
        # an empty `sub` cannot hold need - 1 >= 1 edges: skip the call
        res = sub and _find(by_vertex, above, k, need - 1, sub)
        if res:
            return [i] + res
    # least vertex left unmatched
    return _find(by_vertex, above, k, need, rest)


def _candidates(n, k):
    """The masks of the k-subsets of [n] in `combinations` order; refuses, as
    the compiled kernel does, a cell outside 1 <= k <= n <= 63 or past the
    cap."""
    if not 1 <= k <= n <= 63:
        raise ValueError(f"need 1 <= k <= n <= 63, got n={n}, k={k}")
    if comb(n, k) > MAX_SEARCH_CANDIDATES:
        raise ValueError(f"C({n},{k}) is past the cap of {MAX_SEARCH_CANDIDATES} candidate k-sets")
    return list(map(sum, combinations([1 << b for b in range(n)], k)))


def _at_most(by_vertex, k, full):
    """at_most[v][p], for p < k: the index bitset of the masks with at most p
    vertex bits below bit v.  Column v moves a mask holding bit v up one p."""
    rows = [[full] * k]
    for col in by_vertex[:-1]:
        row, off = rows[-1], ~col
        rows.append([row[0] & off] + [row[p] & off | row[p - 1] & col for p in range(1, k)])
    return rows


def _up(at_most, m, rest):
    """The index bitset of the up-set of mask m, whose bits past the least are
    `rest`: B dominates m iff, for each p, B has at most p bits below m's."""
    up = at_most[(m & -m).bit_length() - 1][0]
    for p, b in enumerate(rest, 1):
        up &= at_most[b][p]
    return up


def downset_max_edges(n, k, s, budget, lower):
    """Maximize family size over down-sets of the dominance order on the
    k-subsets of [n] with matching number <= s, counting only families
    larger than `lower`.

    Candidate i is the i-th k-subset of [n] in `itertools.combinations`
    order.  s: matching bound; budget: node expansion cap
    lower: size of a feasible family the caller already holds; the search
    starts with it as the incumbent, so it prunes every branch that cannot
    beat it

    Returns (best, witness_indices, exhausted, nodes).  best is at least
    `lower`; the witness is [] when no family larger than `lower` was found.
    Branch-and-bound: every feasible down-set must exclude (with its whole
    up-set) at least one edge of any (s+1)-matching found inside the current
    candidate closure.  Raises ValueError outside 1 <= k <= n <= 63 or past
    MAX_SEARCH_CANDIDATES candidates.

    Each node seeks that matching among the closure's masks inside [k(s+1)]
    only, below bit k(s+1).  Lemma: a down-set of the dominance order on
    the k-subsets of [n] with s+1 pairwise disjoint edges has s+1 such edges
    inside [k(s+1)].  Proof: map the matching's k(s+1) vertices in order
    onto [k(s+1)]; each vertex moves down, so each image edge is dominated
    by its edge and lies in the down-set.  The candidates are all the
    k-subsets of [n] and each branch drops a whole up-set of the dominance
    order, so every closure is such a down-set.  A closure with no matching
    there has none at all, so its size and witness are the whole closure.
    When k(s+1) >= n the restriction is the identity and is skipped.
    """
    masks = _candidates(n, k)
    by_vertex, above = _columns(masks), _rows(n, k)
    full = (1 << len(masks)) - 1
    at_most = _at_most(by_vertex, k, full)
    need = s + 1
    # inside: the index bitset of the masks below bit k(s+1), those with
    # more than k - 1 bits below it; the columns past it are dropped, as no
    # mask inside holds their vertex
    inside = None
    if 0 < need and k * need < n:
        inside = full ^ at_most[k * need][k - 1]
        by_vertex = by_vertex[:k * need]
    best = lower
    witness: list[int] = []
    nodes = 0
    exhausted = True

    def search(alive, included):
        # alive: the closure, every candidate not excluded; included: the
        # candidates forced in.  Each level excludes one more up-set.
        nonlocal best, witness, nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = False
            return
        size = alive.bit_count()
        if size <= best:
            return
        hit = _find(by_vertex, above, k, need,
                    alive if inside is None else alive & inside)
        if hit is None:
            best = size
            witness = [i for i, c in enumerate(bin(alive)[:1:-1]) if c == "1"]
            return
        branch = [f for f in hit if not included >> f & 1]
        # branch == []: an (s+1)-matching is already forced in
        for pos, f in enumerate(branch):
            up = _up(at_most, masks[f], above[f])
            if up & included:
                continue
            sub = alive ^ (alive & up)
            # include the earlier branch edges; one excluded with f fails
            inc = included
            for g in branch[:pos]:
                if not sub >> g & 1:
                    break
                inc |= 1 << g
            else:
                search(sub, inc)
                if not exhausted:
                    return

    search(full, 0)
    return best, witness, exhausted, nodes
