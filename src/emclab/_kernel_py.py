"""Pure-Python search kernel over bitmask edge families.

The kernel contract's two searches: ``find_matching``, the hot loop of the
exact matching number, and ``downset_max_edges``, the stable-family
edge-count maximizer.  Vertex v maps to bit v-1 of an edge mask, so these
searches require n <= 63.

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
the dominance order only when it branches on f (``_up``).  Two matching
searches run the same DFS over an index bitset: ``_find`` over any masks,
and ``_find_down`` over a down-set, the part of the down-set search's
closure inside [k(s+1)], where it skips only branches that provably fail
(see ``downset_max_edges``).  ``downset_max_edges`` is the one down-set
search.  ``_kernel.c`` compiles ``find_matching`` alone, the same DFS over
index arrays with the same answers; ``kernel.py`` picks one.
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


def _find_down(by_vertex, above, at_most, masks, need, avail, free):
    """`_find`'s answer when `avail` is a down-set: free holds the need*k
    vertex bits still open, and `avail` is a down-set of the dominance order
    on the k-subsets of free.  The same DFS, without the branches that
    `downset_max_edges` proves fail: a count prune of one AND, no fallback,
    and no partner dominated by one that failed."""
    # the active vertices are an initial segment of free
    if not avail & by_vertex[free.bit_length() - 1]:
        return None
    with_v = avail & by_vertex[(free & -free).bit_length() - 1]
    if need == 1:
        return [with_v.bit_length() - 1]
    rest = avail ^ with_v
    while with_v:
        i = with_v.bit_length() - 1
        with_v ^= 1 << i
        sub = rest
        for b in above[i]:
            sub ^= sub & by_vertex[b]
        res = _find_down(by_vertex, above, at_most, masks, need - 1, sub, free ^ masks[i])
        if res:
            return [i] + res
        # keep the partners i does not dominate: each shares v, i's least
        # vertex, and some later vertex lies above i's vertex of that rank
        keep = 0
        for p, b in enumerate(above[i], 1):
            keep |= at_most[b + 1][p]
        with_v &= keep
    return None


def _candidates(n, k):
    """The masks of the k-subsets of [n] in `combinations` order; refuses a
    cell outside 1 <= k <= n <= 63 or past the cap."""
    if not 1 <= k <= n <= 63:
        raise ValueError(f"need 1 <= k <= n <= 63, got n={n}, k={k}")
    if comb(n, k) > MAX_SEARCH_CANDIDATES:
        raise ValueError(f"C({n},{k}) is past the cap of {MAX_SEARCH_CANDIDATES} candidate k-sets")
    return list(map(sum, combinations([1 << b for b in range(n)], k)))


def _at_most(by_vertex, k, full):
    """at_most[v][p], for p < k and v up to len(by_vertex): the index bitset
    of the masks with at most p vertex bits below bit v.  Column v moves a
    mask holding bit v up one p."""
    rows = [[full] * k]
    for col in by_vertex:
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
    When k(s+1) >= n the restriction is the identity.

    `_find_down` seeks it with `_find`'s DFS on free = [k(s+1)], need =
    s + 1.  Each call gets a down-set `avail` of the k-subsets of a vertex
    set free of exactly need*k vertices, in the dominance order of free's
    vertices in their order: so is the partner i's `sub`, the part of
    `avail` inside free - i.
    The DFS branches on the least active vertex v, and tries v's partners
    by falling index.  Three facts skip only branches that fail, so it
    returns `_find`'s answer:
    - Count prune: if an edge A of `avail` holds u and a free vertex w < u
      is not in A, A - u + w is dominated by A, so it lies in `avail`.  The
      active vertices are an initial segment of free, so all need*k of them
      are active, as `_find`'s count asks, iff the top free vertex is, and
      then v is the least free vertex.
    - No fallback: need disjoint k-sets inside need*k free vertices cover
      them all, v too, so when every partner of v fails there is no
      matching, and `_find`'s search of the edges without v finds none.
    - Dominated partners: let partners j <= i in dominance.  For every t,
      j has at least as many vertices <= t as i, so free - i has at least
      as many as free - j, and the map of free - j onto free - i in order
      moves each vertex down.  It takes a matching of `avail` in free - j to
      one in free - i, each image edge dominated by its edge.  So when i
      fails, every j that i dominates fails; such j come after i, below it
      in `combinations` order.  B <= A iff, for each rank p from 0, B has
      more than p vertices up to A's vertex a_p of rank p, that is B is in
      no at_most[a_p + 1][p].
    """
    masks = _candidates(n, k)
    by_vertex, above = _columns(masks), _rows(n, k)
    full = (1 << len(masks)) - 1
    at_most = _at_most(by_vertex, k, full)
    need = s + 1
    # room: need >= 1 disjoint k-sets fit in [n]; free is [k(s+1)]
    room = 0 < need and k * need <= n
    if room:
        free = (1 << k * need) - 1
        # inside: the index bitset of the masks below bit k(s+1), those with
        # more than k - 1 bits below it; the columns past it are dropped, as
        # no mask inside holds their vertex
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
        if room:
            hit = _find_down(by_vertex, above, at_most, masks, need, alive & inside, free)
        else:
            # need <= 0: the empty matching; k(s+1) > n: no room for one
            hit = [] if need <= 0 else None
        if hit is None:
            best = size
            witness = [i for i, c in enumerate(bin(alive)[:1:-1]) if c == "1"]
            return
        branch = [f for f in hit if not included >> f & 1]
        # branch == []: an (s+1)-matching is already forced in
        inc = included
        for f in branch:
            up = _up(at_most, masks[f], above[f])
            if not up & included:
                search(alive ^ (alive & up), inc)
                if not exhausted:
                    return
            # later branches include f; no edge before f lies in up(f), as
            # `_find_down` returns its edges by least vertex
            inc |= 1 << f

    search(full, 0)
    return best, witness, exhausted, nodes
