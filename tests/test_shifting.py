import ast
import os
import random
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

import emclab
from emclab import shifting
from emclab.hypergraph import (Hypergraph, HypergraphError, complete_hypergraph,
                               induced, is_stable, new_hypergraph)
from emclab.matching import matching_number
from emclab.shifting import label_sum, shift_ij, stabilize


def random_hypergraph(rng, n, k, m):
    all_e = list(combinations(range(1, n + 1), k))
    return new_hypergraph(n, k, rng.sample(all_e, min(m, len(all_e))))


def sparse_random_hypergraph(rng, n, k, m):
    """m distinct random k-sets of [n], without listing all of them."""
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return new_hypergraph(n, k, edges)


def reference_shift_ij(h, i, j):
    """The simultaneous (i,j)-shift on tuple sets: every blocking test looks
    at the family before the shift."""
    before = set(h.edges)
    out = set()
    for e in h.edges:
        if j in e and i not in e:
            f = tuple(sorted(v if v != j else i for v in e))
            out.add(e if f in before else f)
        else:
            out.add(e)
    return Hypergraph(n=h.n, k=h.k, edges=tuple(sorted(out)), vertices=h.vertices)


def reference_stabilize(h):
    log = []
    cur = h
    changed = True
    while changed:
        changed = False
        for j in range(2, h.n + 1):
            for i in range(1, j):
                nxt = reference_shift_ij(cur, i, j)
                if nxt.edges != cur.edges:
                    log.append((i, j))
                    cur = nxt
                    changed = True
    return cur, log


def seeded_families(seed, count):
    """n <= 12, k = 1..5, edge counts from empty to a third of all k-sets."""
    rng = random.Random(seed)
    for idx in range(count):
        n = rng.randint(1, 12)
        k = rng.randint(1, min(5, n))
        m = 0 if idx % 10 == 0 else rng.randint(0, max(1, comb(n, k) // 3))
        yield random_hypergraph(rng, n, k, m)


class TestAgainstReference:
    def test_stabilize_matches_reference(self):
        for h in seeded_families(900, 300):
            assert stabilize(h) == reference_stabilize(h)

    def test_shift_ij_matches_reference(self):
        rng = random.Random(901)
        for h in seeded_families(902, 300):
            if h.n < 2:
                continue
            i = rng.randint(1, h.n - 1)
            j = rng.randint(i + 1, h.n)
            assert shift_ij(h, i, j) == reference_shift_ij(h, i, j)

    def test_seventy_vertices(self):
        # vertex labels past 63 exceed one machine word as bitmasks
        rng = random.Random(903)
        h = sparse_random_hypergraph(rng, 70, 4, 120)
        out, log = stabilize(h)
        assert (out, log) == reference_stabilize(h)
        assert log and max(max(e) for e in h.edges) > 63
        assert shift_ij(h, 1, 70) == reference_shift_ij(h, 1, 70)


class TestShiftIJ:
    def test_plain_exchange(self):
        h = new_hypergraph(4, 2, [(2, 3)])
        assert shift_ij(h, 1, 2).edges == ((1, 3),)

    def test_blocked_exchange(self):
        # (2,3) wants to become (1,3) but (1,3) is already present: no move
        h = new_hypergraph(4, 2, [(1, 3), (2, 3)])
        out = shift_ij(h, 1, 2)
        assert out.edges == ((1, 3), (2, 3))

    def test_edge_containing_both_fixed(self):
        h = new_hypergraph(4, 3, [(1, 2, 4)])
        assert shift_ij(h, 1, 2).edges == ((1, 2, 4),)

    def test_i_must_be_smaller(self):
        with pytest.raises(HypergraphError):
            shift_ij(new_hypergraph(4, 2, []), 3, 2)

    def test_pair_outside_the_ground_set(self):
        # {2, 3, 4} lacks 1: the shift would put 1 into edges
        sub = induced(new_hypergraph(5, 2, [(2, 3), (3, 4)]), [2, 3, 4])
        for i, j in ((1, 3), (2, 5), (1, 6)):
            with pytest.raises(HypergraphError, match="leaves the ground set"):
                shift_ij(sub, i, j)
        with pytest.raises(HypergraphError, match="leaves the ground set"):
            shift_ij(new_hypergraph(4, 2, [(2, 3)]), 1, 5)
        assert shift_ij(sub, 2, 3) == reference_shift_ij(sub, 2, 3)
        assert shift_ij(sub, 2, 3).edges == ((2, 3), (2, 4))

    def test_count_preserved(self):
        rng = random.Random(4)
        for _ in range(50):
            n = rng.randint(3, 9)
            h = random_hypergraph(rng, n, rng.choice([2, 3]), rng.randint(1, 12))
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            assert shift_ij(h, i, j).num_edges == h.num_edges


class TestStabilize:
    def test_already_stable_is_fixed_point(self):
        h = complete_hypergraph(6, 3)
        out, log = stabilize(h)
        assert out == h and log == []

    def test_single_high_edge(self):
        out, log = stabilize(new_hypergraph(5, 2, [(4, 5)]))
        assert out.edges == ((1, 2),)
        assert log

    def test_requires_full_ground_set(self):
        h = new_hypergraph(5, 2, [(1, 2)])  # vertex 5 never used is fine
        out, _ = stabilize(h)
        assert is_stable(out)
        with pytest.raises(HypergraphError, match="full ground set"):
            stabilize(induced(h, [1, 2, 3]))

    def test_huge_ground_set(self):
        # a sweep visits only the vertices some edge holds, so a family on
        # [10^9] stabilizes as on [9], with the same log, and the edge
        # {1, 10^9} moves to {1, 2} in one shift.  A sweep over every pair
        # would not end, so the calls run in a child with a time limit
        families = [[(1, 2)], [(3, 7), (5, 9), (2, 8)], [(4, 5), (1, 9)]]
        code = ("from emclab.hypergraph import new_hypergraph\n"
                "from emclab.shifting import stabilize\n"
                f"for edges in {families!r}:\n"
                "    out, log = stabilize(new_hypergraph(10**9, 2, edges))\n"
                "    print(repr((out.n, out.edges, log)))\n"
                "out, log = stabilize(new_hypergraph(10**9, 2, [(1, 10**9)]))\n"
                "print(repr((out.edges, log)))")
        env = dict(os.environ, PYTHONPATH=str(Path(emclab.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        *got, top = map(ast.literal_eval, proc.stdout.splitlines())
        want = []
        for edges in families:
            out, log = reference_stabilize(new_hypergraph(9, 2, edges))
            want.append((10**9, out.edges, log))
        assert got == want
        assert [len(log) for _, _, log in got] == [0, 6, 3]
        assert top == (((1, 2),), [(2, 10**9)])

    def test_sweeps_only_held_vertices(self, monkeypatch):
        # one edge {1, 2000}: the sweep visits j = 2000 alone, and its i-loop
        # ends once the edge has moved to {1, 2}.  `_shift_masks`, counted
        # through the module's name, which `stabilize` reads, runs twice; a
        # sweep over every pair i < j <= 2000 calls it about 2M times
        calls = []

        def counted(masks, held, i, j, _shift=shifting._shift_masks):
            calls.append((i, j))
            return _shift(masks, held, i, j)
        monkeypatch.setattr(shifting, "_shift_masks", counted)
        out, log = stabilize(new_hypergraph(2000, 2, [(1, 2000)]))
        assert (out.edges, log) == (((1, 2),), [(2, 2000)])
        assert calls == [(1, 2000), (2, 2000)]

    def test_property_suite(self):
        # stability, edge count, matching number monotone non-increasing,
        # label sum strictly decreasing along logged steps
        rng = random.Random(300)
        for _ in range(300):
            n = rng.randint(3, 9)
            k = rng.choice([x for x in (2, 3, 4) if x <= n])
            h = random_hypergraph(rng, n, k, rng.randint(0, 14))
            out, log = stabilize(h)
            assert is_stable(out)
            assert out.num_edges == h.num_edges
            assert matching_number(out)[0] <= matching_number(h)[0]
            cur = h
            prev_sum = label_sum(cur)
            for i, j in log:
                cur = shift_ij(cur, i, j)
                s = label_sum(cur)
                assert s < prev_sum
                prev_sum = s
            assert cur == out

    def test_idempotent(self):
        rng = random.Random(301)
        for _ in range(40):
            h = random_hypergraph(rng, rng.randint(3, 8), 2, rng.randint(0, 10))
            out, _ = stabilize(h)
            again, log = stabilize(out)
            assert again == out and log == []


def test_label_sum():
    assert label_sum(new_hypergraph(5, 2, [(1, 2), (3, 5)])) == 11
    assert label_sum(new_hypergraph(5, 2, [])) == 0
