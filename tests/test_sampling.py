import random
from fractions import Fraction
from itertools import combinations

import pytest

from emclab.hypergraph import HypergraphError, complete_hypergraph, induced, new_hypergraph
from emclab.lp import make_fractional_matching
from emclab.sampling import (GENERATOR_ID, P_EXPONENT, SampleBatch, _copy_hosts,
                             degree_histogram, greedy_near_perfect_matching,
                             incidence_stats, multiplicity_report,
                             round_to_sparse, sample_batch)


def make_batch(copies, t=0, s=0, n_base=8, seed=0):
    """Hand-built batch for rounding tests (the sampler itself produces very
    sparse copies by design, so explicit copies are clearer to test with)."""
    parts = tuple({"T": tuple(v for v in c if v <= t),
                   "V": tuple(v for v in c if t < v <= t + s),
                   "W": tuple(v for v in c if v > t)} for c in copies)
    return SampleBatch(n_base=n_base, t=t, s=s, copies=tuple(copies),
                       partitions=parts, seed=seed, p_exponent=P_EXPONENT,
                       trimmed=(0,) * len(copies))


class TestSampleBatch:
    def test_deterministic(self):
        h = complete_hypergraph(40, 4)
        a = sample_batch(h, 5, 3, copies=50, seed=11)
        b = sample_batch(h, 5, 3, copies=50, seed=11)
        assert a == b
        c = sample_batch(h, 5, 3, copies=50, seed=12)
        assert (a.copies, a.trimmed) != (c.copies, c.trimmed)

    def test_copy_prefix_stability(self):
        # regenerating with more copies must not change the earlier ones
        h = complete_hypergraph(40, 4)
        small = sample_batch(h, 5, 3, copies=3, seed=11)
        big = sample_batch(h, 5, 3, copies=6, seed=11)
        assert big.copies[:3] == small.copies

    def test_trim_to_multiple_of_k(self):
        h = complete_hypergraph(50, 4)
        batch = sample_batch(h, 0, 0, copies=10, seed=3)
        for r, trim in zip(batch.copies, batch.trimmed):
            assert len(r) % 4 == 0
            assert 0 <= trim < 4

    def test_partitions(self):
        h = complete_hypergraph(60, 4)
        t, s = 8, 5
        batch = sample_batch(h, t, s, copies=8, seed=2)
        for r, part in zip(batch.copies, batch.partitions):
            assert part["T"] == tuple(v for v in r if v <= t)
            assert part["V"] == tuple(v for v in r if t < v <= t + s)
            assert part["W"] == tuple(v for v in r if v > t)
            assert set(part["T"]) | set(part["W"]) == set(r)

    def test_bad_inputs(self):
        h = complete_hypergraph(10, 4)
        with pytest.raises(HypergraphError):
            sample_batch(h, 10, 0, copies=1, seed=0)
        with pytest.raises(HypergraphError):
            sample_batch(h, 0, 0, copies=0, seed=0)

    def test_metadata(self):
        h = complete_hypergraph(30, 4)
        batch = sample_batch(h, 4, 2, copies=2, seed=7)
        assert batch.n_base == 26
        assert batch.p_exponent == P_EXPONENT == Fraction(-9, 10)
        assert GENERATOR_ID == "mt19937-python"


class TestIncidenceStats:
    def test_empty_probe_counts_all_copies(self):
        h = complete_hypergraph(40, 4)
        batch = sample_batch(h, 0, 0, copies=7, seed=1)
        assert incidence_stats(batch, [()])[()] == 7

    def test_singleton_consistency(self):
        h = complete_hypergraph(40, 4)
        batch = sample_batch(h, 0, 0, copies=7, seed=1)
        stats = incidence_stats(batch, [(v,) for v in range(1, 41)])
        for v in range(1, 41):
            assert stats[(v,)] == sum(1 for c in batch.copies if v in c)

    def test_multiplicity_report_keys(self):
        h = complete_hypergraph(30, 4)
        batch = sample_batch(h, 0, 0, copies=4, seed=5)
        assert multiplicity_report(h, batch) == brute_multiplicities(h, batch)


def brute_multiplicities(h, batch):
    """multiplicity_report by direct counting over all pairs and edges."""
    copies = [set(c) for c in batch.copies]

    def y(a):
        return sum(1 for c in copies if set(a) <= c)
    return {"pairs_with_Y_ge_3": sum(1 for p in combinations(h.vertices, 2) if y(p) >= 3),
            "edges_with_Y_ge_2": sum(1 for e in h.edges if y(e) >= 2),
            "copies": len(copies)}


class TestMultiplicityReport:
    def test_seeded_batches_match_brute_force(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(4, 12)
            k = rng.randint(1, 4)
            all_e = list(combinations(range(1, n + 1), k))
            h = new_hypergraph(n, k, rng.sample(all_e, rng.randint(0, len(all_e))))
            copies = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                      for _ in range(rng.randint(1, 6))]
            batch = make_batch(copies, n_base=n)
            assert multiplicity_report(h, batch) == brute_multiplicities(h, batch)

    def test_sampled_batches_match_brute_force(self):
        h = complete_hypergraph(12, 3)
        for seed in range(10):
            batch = sample_batch(h, 2, 1, copies=40, seed=seed)
            assert multiplicity_report(h, batch) == brute_multiplicities(h, batch)

    @pytest.mark.parametrize("copies, want", [
        # overlapping: {3,4,5,6} lies in both copies; pair (3,4) only in two
        ([tuple(range(1, 7)), tuple(range(3, 9))], (0, 1)),
        # duplicated: every pair and edge of [1,6] lies in all three copies
        ([tuple(range(1, 7))] * 3, (15, 15)),
        # empty copies host nothing and leave the counts alone
        ([(), tuple(range(1, 7)), ()], (0, 0)),
        ([(), ()], (0, 0)),
        # three copies overlap only in (1,2), too small for an edge
        ([(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8)], (1, 0)),
    ])
    def test_hand_made_batches(self, copies, want):
        h = complete_hypergraph(8, 4)
        batch = make_batch(copies)
        rep = multiplicity_report(h, batch)
        assert (rep["pairs_with_Y_ge_3"], rep["edges_with_Y_ge_2"]) == want
        assert rep == brute_multiplicities(h, batch)

    def test_unsorted_copies_with_repeats_match_brute_force(self):
        # a hand-built batch need not hold sorted copies of distinct vertices:
        # each pair still counts once per copy that holds it
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(4, 10)
            k = rng.randint(1, 4)
            all_e = list(combinations(range(1, n + 1), k))
            h = new_hypergraph(n, k, rng.sample(all_e, rng.randint(0, len(all_e))))
            copies = [tuple(rng.choices(range(1, n + 1), k=rng.randint(0, n + 3)))
                      for _ in range(rng.randint(1, 6))]
            batch = make_batch(copies, n_base=n)
            assert multiplicity_report(h, batch) == brute_multiplicities(h, batch)

    def test_repeated_vertex_counts_a_pair_once(self):
        h = complete_hypergraph(6, 3)
        batch = make_batch([(2, 1, 2), (1, 2, 1), (2, 1)])
        rep = multiplicity_report(h, batch)
        assert rep["pairs_with_Y_ge_3"] == 1
        assert rep == brute_multiplicities(h, batch)

    @pytest.mark.parametrize("n, k, t, s, copies, seed, want", [
        (30, 4, 2, 2, 12, 1, (0, 0)), (30, 4, 2, 2, 12, 2, (0, 0)),
        (10, 3, 0, 0, 60, 1, (1, 0)), (10, 3, 0, 0, 60, 2, (2, 2)),
    ])
    def test_pinned_values(self, n, k, t, s, copies, seed, want):
        h = complete_hypergraph(n, k)
        rep = multiplicity_report(h, sample_batch(h, t, s, copies=copies, seed=seed))
        assert rep == {"pairs_with_Y_ge_3": want[0], "edges_with_Y_ge_2": want[1],
                       "copies": copies}


def brute_hosts(h, batch):
    """Each edge in some copy, in edge order, with its host copies ascending."""
    copies = [set(c) for c in batch.copies]
    hosts = {e: [i for i, c in enumerate(copies) if set(e) <= c] for e in h.edges}
    return {e: found for e, found in hosts.items() if found}


class TestCopyHosts:
    @pytest.mark.parametrize("n, copies, seed", [
        # sparse copies: the union of the copies misses most vertices
        (30, 12, 1), (30, 12, 2),
        # many tiny copies whose union covers [n]
        (16, 300, 2), (16, 300, 4),
    ])
    def test_sampled_batches_match_brute_force(self, n, copies, seed):
        h = complete_hypergraph(n, 4)
        batch = sample_batch(h, 0, 0, copies=copies, seed=seed)
        got = _copy_hosts(h, batch)
        assert got == brute_hosts(h, batch)
        assert list(got) == [e for e in h.edges if e in got]
        if copies == 300:
            assert set().union(*batch.copies) == set(h.vertices)

    def test_hand_made_batches_match_brute_force(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(4, 12)
            k = rng.randint(1, 4)
            all_e = list(combinations(range(1, n + 1), k))
            h = new_hypergraph(n, k, rng.sample(all_e, rng.randint(0, len(all_e))))
            copies = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                      for _ in range(rng.randint(1, 6))]
            copies += rng.sample(copies, rng.randint(0, len(copies)))  # duplicates
            assert _copy_hosts(h, make_batch(copies, n_base=n)) == \
                brute_hosts(h, make_batch(copies, n_base=n))

    def test_edges_in_no_copy_are_left_out(self):
        # (1,2,5,6) lies inside the union of the copies but in neither copy
        h = new_hypergraph(8, 4, [(1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)])
        batch = make_batch([(1, 2, 3, 4), (3, 4, 5, 6), (3, 4, 5, 6)])
        assert _copy_hosts(h, batch) == {(1, 2, 3, 4): [0], (3, 4, 5, 6): [1, 2]}


class TestRounding:
    def test_integral_pm_kept_exactly(self):
        h = complete_hypergraph(8, 4)
        batch = make_batch([tuple(range(1, 9))])
        pm = make_fractional_matching(h, {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1})
        sparse = round_to_sparse(h, batch, [pm], seed=99)
        assert sparse.edges == ((1, 2, 3, 4), (5, 6, 7, 8))

    def test_doubly_hosted_edges_dropped(self):
        # both copies host every edge, so nothing survives
        h = complete_hypergraph(8, 4)
        batch = make_batch([tuple(range(1, 9)), tuple(range(1, 9))])
        pm = make_fractional_matching(h, {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1})
        assert round_to_sparse(h, batch, [pm, pm], seed=0).edges == ()

    def test_disjoint_copies_union(self):
        h = new_hypergraph(16, 4, [(1, 2, 3, 4), (5, 6, 7, 8),
                                   (9, 10, 11, 12), (13, 14, 15, 16),
                                   (1, 2, 3, 9)])
        batch = make_batch([tuple(range(1, 9)), tuple(range(9, 17))], n_base=16)
        pm1 = make_fractional_matching(h, {(1, 2, 3, 4): 1, (5, 6, 7, 8): 1})
        pm2 = make_fractional_matching(h, {(9, 10, 11, 12): 1,
                                           (13, 14, 15, 16): 1})
        sparse = round_to_sparse(h, batch, [pm1, pm2], seed=0)
        # the crossing edge lies in no single copy and disappears
        assert sparse.edges == ((1, 2, 3, 4), (5, 6, 7, 8),
                                (9, 10, 11, 12), (13, 14, 15, 16))

    def test_fractional_weights_rounded_deterministically(self):
        h = complete_hypergraph(8, 4)
        from emclab.lp import lex_max_fractional_matching
        pm = lex_max_fractional_matching(h, tuple(range(1, 9)), Fraction(2))
        batch = make_batch([tuple(range(1, 9))])
        a = round_to_sparse(h, batch, [pm], seed=5)
        b = round_to_sparse(h, batch, [pm], seed=5)
        assert a.edges == b.edges
        assert all(pm.weights.get(e, 0) > 0 for e in a.edges)

    @pytest.mark.parametrize("seed, kept", [
        (3, ((1, 2, 3, 4), (3, 4, 7, 8), (6, 8, 10, 12), (7, 8, 11, 12))),
        (4, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 7, 8), (5, 6, 9, 10), (5, 7, 9, 11))),
    ])
    def test_fractional_weights_pinned(self, seed, kept):
        # copies [1,8] and [5,12] share (5,6,7,8), which is dropped although
        # both matchings weight it; the other edges are kept with
        # probability 1/2 (first copy) or 1/3 (second copy)
        h = complete_hypergraph(12, 4)
        batch = make_batch([tuple(range(1, 9)), tuple(range(5, 13))], n_base=12)
        half, third = Fraction(1, 2), Fraction(1, 3)
        pm1 = make_fractional_matching(h, {(1, 2, 3, 4): half, (5, 6, 7, 8): half,
                                           (1, 2, 5, 6): half, (3, 4, 7, 8): half})
        pm2 = make_fractional_matching(h, {(5, 6, 7, 8): third, (9, 10, 11, 12): third,
                                           (5, 6, 9, 10): third, (7, 8, 11, 12): third,
                                           (5, 7, 9, 11): third, (6, 8, 10, 12): third})
        assert round_to_sparse(h, batch, [pm1, pm2], seed=seed).edges == kept

    def test_imperfect_matching_rejected(self):
        h = complete_hypergraph(8, 4)
        batch = make_batch([tuple(range(1, 9))])
        bad = make_fractional_matching(h, {})
        with pytest.raises(HypergraphError, match="not perfect"):
            round_to_sparse(h, batch, [bad], seed=0)

    def test_copy_count_mismatch(self):
        h = complete_hypergraph(8, 4)
        batch = make_batch([tuple(range(1, 9))])
        with pytest.raises(HypergraphError, match="one perfect"):
            round_to_sparse(h, batch, [], seed=0)


def greedy_over_vertex_sets(h):
    """The lexicographic greedy matching written out over vertex sets: its
    chosen edges and the number of ground-set vertices they miss."""
    used: set[int] = set()
    chosen = []
    for e in h.edges:
        if not (set(e) & used):
            chosen.append(e)
            used.update(e)
    return tuple(chosen), sum(1 for v in h.vertices if v not in used)


class TestGreedyAndHistogram:
    def test_greedy_matches_kernel_greedy(self):
        rng = random.Random(27)
        for _ in range(150):
            n = rng.randint(1, 100)
            k = rng.randint(1, min(5, n))
            edges = {tuple(sorted(rng.sample(range(1, n + 1), k)))
                     for _ in range(rng.randint(0, 60))}
            h = new_hypergraph(n, k, edges)
            # a ground set that skips vertices, some of them on edges
            sub = induced(h, rng.sample(range(1, n + 1), rng.randint(0, n)))
            for g in (h, sub):
                w, uncovered = greedy_near_perfect_matching(g)
                assert (w.edges, uncovered) == greedy_over_vertex_sets(g), g
                assert w.size == len(w.edges)

    def test_greedy_on_empty_family(self):
        for h in (new_hypergraph(70, 3, []), induced(new_hypergraph(9, 2, [(1, 2)]), [3, 5])):
            w, uncovered = greedy_near_perfect_matching(h)
            assert (w.edges, w.size, uncovered) == ((), 0, len(h.vertices))

    def test_greedy_on_disjoint_edges(self):
        h = new_hypergraph(8, 4, [(1, 2, 3, 4), (5, 6, 7, 8)])
        w, uncovered = greedy_near_perfect_matching(h)
        assert w.size == 2 and uncovered == 0

    def test_greedy_counts_uncovered(self):
        h = new_hypergraph(9, 3, [(1, 2, 3), (3, 4, 5), (6, 7, 8)])
        w, uncovered = greedy_near_perfect_matching(h)
        assert w.edges == ((1, 2, 3), (6, 7, 8))
        assert uncovered == 3  # 4, 5, 9

    def test_degree_histogram(self):
        h = new_hypergraph(5, 2, [(1, 2), (1, 3), (2, 3), (1, 4)])
        rep = degree_histogram(h)
        assert rep["max_degree"] == 3
        assert rep["delta_2"] == 1
        assert rep["degree_hist"] == {0: 1, 1: 1, 2: 2, 3: 1}

    def test_histogram_empty(self):
        rep = degree_histogram(new_hypergraph(3, 2, []))
        assert rep == {"degree_hist": {0: 3}, "max_degree": 0, "delta_2": 0}
