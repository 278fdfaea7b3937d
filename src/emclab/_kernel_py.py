"""Pure-Python search kernels over bitmask edge families.

Hot loops of the exact matching number and the stable-family edge-count
maximizer.  Vertex v maps to bit v-1, so these kernels require n <= 63.
The compiled twin in ``_kernel.c`` implements the same contract step for
step; ``kernel.py`` picks one at import time.
"""

from __future__ import annotations

IMPL = "python"


def _active_count(masks, used):
    acc = 0
    for m in masks:
        if not (m & used):
            acc |= m
    return bin(acc).count("1")


def find_matching(masks, k, need, used=0):
    """Indices of `need` pairwise-disjoint edges avoiding `used`, or None.

    Deterministic DFS branching on the least active vertex; prunes branches
    where the surviving vertices cannot host enough disjoint edges.
    """
    if need <= 0:
        return []
    avail = [i for i, m in enumerate(masks) if not (m & used)]
    return _find(masks, k, need, used, avail)


def _find(masks, k, need, used, avail):
    if need == 0:
        return []
    acc = 0
    for i in avail:
        acc |= masks[i]
    if bin(acc).count("1") < need * k:
        return None
    v_bit = acc & (-acc)  # least active vertex
    # try high-index partners first: pairing a scarce low vertex with the
    # greediest partner wastes the fewest other scarce vertices
    with_v = [i for i in reversed(avail) if masks[i] & v_bit]
    rest = [i for i in avail if not (masks[i] & v_bit)]
    for i in with_v:
        m = masks[i]
        sub = [j for j in rest if not (masks[j] & m)]
        res = _find(masks, k, need - 1, used | m, sub)
        if res is not None:
            return [i] + res
    # least vertex left unmatched
    return _find(masks, k, need, used | v_bit, rest)


def greedy_matching(masks, used=0):
    """Lexicographic greedy maximal matching; returns chosen indices."""
    out = []
    for i, m in enumerate(masks):
        if not (m & used):
            out.append(i)
            used |= m
    return out


def downset_max_edges(masks, succs, s, budget):
    """Maximize family size over down-sets of the dominance order with
    matching number <= s.

    masks: bitmasks of all candidate k-sets in a linear extension order
    succs: immediate successor indices (covers in the dominance order)
    s: matching bound; budget: node expansion cap

    Returns (best, witness_indices, exhausted, nodes).  Branch-and-bound:
    every feasible down-set must exclude (with its whole up-set) at least one
    edge of any (s+1)-matching found inside the current candidate closure.
    """
    m_count = len(masks)
    k = bin(masks[0]).count("1") if masks else 1
    status = bytearray(m_count)  # 0 undecided, 1 included, 2 excluded
    trail: list[int] = []
    state = {"best": -1, "witness": [], "nodes": 0, "exhausted": True}

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

    def search():
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["exhausted"] = False
            return
        closure = [i for i in range(m_count) if status[i] != 2]
        if len(closure) <= state["best"]:
            return
        cmasks = [masks[i] for i in closure]
        hit = find_matching(cmasks, k, s + 1)
        if hit is None:
            state["best"] = len(closure)
            state["witness"] = list(closure)
            return
        branch = [closure[j] for j in hit if status[closure[j]] != 1]
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
    return max(state["best"], 0), state["witness"], state["exhausted"], state["nodes"]
