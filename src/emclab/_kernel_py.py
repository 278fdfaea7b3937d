"""Pure-Python search kernels over bitmask edge families.

Hot loops of the exact matching number and the stable-family edge-count
maximizer.  Vertex v maps to bit v-1, so these kernels require n <= 63.
One matching search, ``_find``, runs over indices into one mask array: all
of them, or the down-set search's closure.  The compiled twin in
``_kernel.c`` mirrors it step for step; ``kernel.py`` picks one at import.
"""

from __future__ import annotations

IMPL = "python"


def find_matching(masks, k, need):
    """Indices of `need` pairwise-disjoint edges, or None.

    Deterministic DFS branching on the least active vertex; prunes branches
    where the surviving vertices cannot host enough disjoint edges.
    """
    return _find(masks, k, need, range(len(masks)))


def _find(masks, k, need, avail):
    if need <= 0:
        return []
    acc = 0
    for i in avail:
        acc |= masks[i]
    # acc == 0 decides only k <= 0, where the descent would never end
    if acc == 0 or bin(acc).count("1") < need * k:
        return None
    v_bit = acc & (-acc)  # least active vertex
    # try high-index partners first: pairing a scarce low vertex with the
    # greediest partner wastes the fewest other scarce vertices
    with_v = [i for i in reversed(avail) if masks[i] & v_bit]
    rest = [i for i in avail if not (masks[i] & v_bit)]
    for i in with_v:
        m = masks[i]
        sub = [j for j in rest if not (masks[j] & m)]
        res = _find(masks, k, need - 1, sub)
        if res is not None:
            return [i] + res
    # least vertex left unmatched
    return _find(masks, k, need, rest)


def greedy_matching(masks):
    """Lexicographic greedy maximal matching; returns chosen indices."""
    out = []
    used = 0
    for i, m in enumerate(masks):
        if not (m & used):
            out.append(i)
            used |= m
    return out


def downset_max_edges(masks, succs, s, budget, lower):
    """Maximize family size over down-sets of the dominance order with
    matching number <= s, counting only families larger than `lower`.

    masks: bitmasks of all candidate k-sets in a linear extension order
    succs: immediate successor indices (covers in the dominance order)
    s: matching bound; budget: node expansion cap
    lower: size of a feasible family the caller already holds; the search
    starts with it as the incumbent, so it prunes every branch that cannot
    beat it

    Returns (best, witness_indices, exhausted, nodes).  best is at least
    `lower`; the witness is [] when no family larger than `lower` was found.
    Branch-and-bound: every feasible down-set must exclude (with its whole
    up-set) at least one edge of any (s+1)-matching found inside the current
    candidate closure.
    """
    m_count = len(masks)
    k = bin(masks[0]).count("1") if masks else 1
    status = bytearray(m_count)  # 0 undecided, 1 included, 2 excluded
    trail: list[int] = []
    state = {"best": lower, "witness": [], "nodes": 0, "exhausted": True,
             "excluded": 0}

    def exclude(idx) -> bool:
        # cascade over the up-set; fails on an already-included element
        stack = [idx]
        while stack:
            j = stack.pop()
            st = status[j]
            if st == 2:
                continue
            if st == 1:
                return False
            status[j] = 2
            trail.append(j)
            state["excluded"] += 1
            stack.extend(succs[j])
        return True

    def include(idx) -> bool:
        if status[idx] == 2:
            return False
        if status[idx] == 0:
            status[idx] = 1
            trail.append(-idx - 1)
        return True

    def undo(mark):
        while len(trail) > mark:
            j = trail.pop()
            if j < 0:
                status[-j - 1] = 0
            else:
                status[j] = 0
                state["excluded"] -= 1

    def search():
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["exhausted"] = False
            return
        if m_count - state["excluded"] <= state["best"]:
            return
        closure = [i for i in range(m_count) if status[i] != 2]
        hit = _find(masks, k, s + 1, closure)
        if hit is None:
            state["best"] = len(closure)
            state["witness"] = closure
            return
        branch = [f for f in hit if status[f] != 1]
        if not branch:
            return  # an (s+1)-matching is already forced in
        for pos, f in enumerate(branch):
            mark = len(trail)
            ok = exclude(f)
            if ok:
                for g in branch[:pos]:
                    if not include(g):
                        ok = False
                        break
            if ok:
                search()
            undo(mark)
            if not state["exhausted"]:
                return

    search()
    return state["best"], state["witness"], state["exhausted"], state["nodes"]
