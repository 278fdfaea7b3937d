import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emclab
from emclab.hypergraph import (Hypergraph, HypergraphError, binom, closeness,
                               complete_hypergraph, induced, is_stable,
                               min_d_degree, new_hypergraph, parse_khg,
                               serialize_khg, shadow, trace_family)


def _old_new_hypergraph(n, k, raw_edges, vertices=None):
    """new_hypergraph before its bulk path: the oracle for its results and
    messages."""
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


def _old_parse_khg(text):
    """The line-by-line parse_khg before its bulk path: the oracle for its
    results and messages."""
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
    return _old_new_hypergraph(n, k, edges)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the message of the HypergraphError it raised."""
    try:
        return fn(*args, **kwargs)
    except HypergraphError as exc:
        return f"HypergraphError: {exc}"


def random_hypergraph(rng, n, k, m):
    all_e = list(combinations(range(1, n + 1), k))
    return new_hypergraph(n, k, rng.sample(all_e, min(m, len(all_e))))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    k = draw(st.integers(min_value=1, max_value=min(4, n)))
    all_e = list(combinations(range(1, n + 1), k))
    edges = draw(st.lists(st.sampled_from(all_e), max_size=15))
    return new_hypergraph(n, k, edges)


class TestConstruction:
    def test_canonical_order_and_dedup(self):
        h = new_hypergraph(5, 2, [(3, 1), (2, 4), (1, 3)])
        assert h.edges == ((1, 3), (2, 4))
        assert h.num_edges == 2

    def test_wrong_arity(self):
        with pytest.raises(HypergraphError, match="arity"):
            new_hypergraph(5, 3, [(1, 2)])

    def test_repeated_vertex(self):
        with pytest.raises(HypergraphError, match="repeated"):
            new_hypergraph(5, 2, [(2, 2)])

    def test_out_of_range(self):
        with pytest.raises(HypergraphError, match="outside"):
            new_hypergraph(5, 2, [(1, 6)])

    def test_bad_params(self):
        with pytest.raises(HypergraphError):
            new_hypergraph(3, 4, [])

    def test_k0_rejected(self):
        # k = 0 would admit the empty edge, on which the matching search
        # never terminates
        with pytest.raises(HypergraphError, match="1 <= k"):
            new_hypergraph(3, 0, [()])

    def test_complete_count(self):
        assert complete_hypergraph(7, 3).num_edges == binom(7, 3)

    @pytest.mark.parametrize("n, k, raw, vertices", [
        (5, 2, [(3, 1), (2, 4), (1, 3)], None),              # unsorted edges
        (5, 2, [[2, 1], (1, 2), (4, 5), (4, 5)], None),      # duplicated, mixed types
        (6, 3, [(1, 2, 3), (2, 4, 6), (1, 2, 3)], (1, 2, 3, 4, 6)),
        (6, 3, [(1, 2, 3), (5, 2, 1)], (1, 2, 3, 4, 6)),     # outside the ground set
        (5, 2, [(1, 2), (7, 1)], None),                      # outside [1, n]
        (5, 2, [(2, 1), (1, 0, 3)], None),                   # arity after a valid edge
        (5, 2, [(1, 2), (4, 4)], None),                      # repeated vertex
        (5, 3, [], None),
        (4, 2, [(1, 2)], (5,)),                              # ground set outside [1, n]
    ])
    def test_matches_per_edge_oracle(self, n, k, raw, vertices):
        assert (_outcome(new_hypergraph, n, k, raw, vertices)
                == _outcome(_old_new_hypergraph, n, k, raw, vertices))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_edge_oracle_property(self, data):
        n = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, n))
        vertex = st.integers(-1, n + 2)
        raw = data.draw(st.lists(st.one_of(
            st.lists(vertex, min_size=k, max_size=k, unique=True).map(sorted).map(tuple),
            st.lists(vertex, min_size=k - 1, max_size=k + 1).map(tuple),
            st.lists(vertex, min_size=k, max_size=k)), max_size=12))
        vertices = data.draw(st.none() | st.sets(st.integers(1, n)))
        assert (_outcome(new_hypergraph, n, k, raw, vertices)
                == _outcome(_old_new_hypergraph, n, k, raw, vertices))

    def test_degree(self):
        h = new_hypergraph(4, 2, [(1, 2), (1, 3)])
        assert h.degree(1) == 2
        assert h.degree(4) == 0


class TestHasEdge:
    def test_every_k_set(self):
        rng = random.Random(7)
        for _ in range(30):
            h = random_hypergraph(rng, 7, 3, rng.randint(0, 20))
            for e in combinations(range(1, 8), 3):
                assert h.has_edge(e) == (e in h.edge_set())
                assert h.has_edge(e[::-1]) == (e in h.edge_set())

    def test_past_the_last_edge_and_wrong_arity(self):
        h = new_hypergraph(5, 2, [(1, 2), (2, 3)])
        assert not h.has_edge((4, 5))
        assert not h.has_edge((1,))
        assert not h.has_edge((1, 2, 3))
        assert not new_hypergraph(5, 2, []).has_edge((1, 2))


class TestStability:
    def test_complete_is_stable(self):
        assert is_stable(complete_hypergraph(6, 3))

    def test_single_high_edge_not_stable(self):
        assert not is_stable(new_hypergraph(4, 2, [(3, 4)]))

    def test_downset(self):
        h = new_hypergraph(4, 2, [(1, 2), (1, 3), (1, 4), (2, 3)])
        assert is_stable(h)

    def test_empty(self):
        assert is_stable(new_hypergraph(5, 3, []))

    def test_second_test_makes_no_new_pass(self, monkeypatch):
        real = Hypergraph.edge_set
        calls = []

        def counted(h):
            calls.append(h)
            return real(h)
        monkeypatch.setattr(Hypergraph, "edge_set", counted)
        for h in (new_hypergraph(5, 2, [(1, 2), (1, 3), (2, 3)]),
                  new_hypergraph(4, 2, [(3, 4)])):
            first = is_stable(h)
            assert is_stable(h) == first
            assert len(calls) == 1 and calls[0] is h
            calls.clear()

    def test_cache_leaves_equality_hash_and_repr(self):
        for edges, maximal in (([(1, 2), (1, 3)], ((1, 3),)), ([(2, 4)], None), ([], ())):
            h = new_hypergraph(4, 2, edges)
            assert h.maximal_edges == maximal
            fresh = new_hypergraph(4, 2, edges)
            assert "maximal_edges" in vars(h) and "maximal_edges" not in vars(fresh)
            assert h == fresh and hash(h) == hash(fresh) and repr(h) == repr(fresh)

    def test_matches_brute_force_dominance(self):
        # f <= e iff f[i] <= e[i] for all i.  Stable: every k-set of [n]
        # below an edge is an edge.  Maximal edges, on a stable family only:
        # no other edge >= e.
        def below(f, e):
            return all(a <= b for a, b in zip(f, e))

        rng = random.Random(916)
        cases = [(5, 3, [], None), (1, 1, [(1,)], None), (6, 1, [(2,), (4,)], None),
                 (6, 1, [(1,), (2,)], None), (4, 4, [(1, 2, 3, 4)], None),
                 (9, 4, [(2, 4, 6, 8)], (2, 4, 6, 8)), (7, 2, [(2, 3), (2, 5)], (2, 3, 5))]
        for _ in range(300):
            n = rng.randint(1, 9)
            k = rng.randint(1, min(4, n))
            ground = None
            if rng.random() < 0.3:
                ground = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(k, n))))
            pool = list(combinations(ground or range(1, n + 1), k))
            edges = rng.sample(pool, rng.randint(0, min(5, len(pool))))
            if rng.random() < 0.5:
                edges = [f for f in pool if any(below(f, e) for e in edges)]
            cases.append((n, k, edges, ground))
        stable_count = 0
        for n, k, edges, ground in cases:
            h = new_hypergraph(n, k, edges, vertices=ground)
            stable = all(f in h.edge_set() for e in h.edges
                         for f in combinations(range(1, n + 1), k) if below(f, e))
            assert is_stable(h) == stable, h
            maximal = tuple(e for e in h.edges if not any(g != e and below(e, g) for g in h.edges))
            assert h.maximal_edges == (maximal if stable else None), h
            stable_count += stable
        assert 50 < stable_count < len(cases) - 50


class TestShadow:
    def test_single_edge(self):
        h = new_hypergraph(5, 3, [(1, 2, 3)])
        assert shadow(h).edges == ((1, 2), (1, 3), (2, 3))

    def test_k1_rejected(self):
        with pytest.raises(HypergraphError):
            shadow(new_hypergraph(3, 1, [(1,)]))

    def test_size_lower_bound_vs_matching(self):
        # |F| <= nu(F) * |shadow(F)| on a random corpus
        from emclab.matching import matching_number
        rng = random.Random(202)
        for _ in range(200):
            n = rng.randint(3, 10)
            k = rng.choice([x for x in (2, 3, 4) if x <= n])
            h = random_hypergraph(rng, n, k, rng.randint(1, 12))
            nu, _ = matching_number(h)
            assert h.num_edges <= nu * shadow(h).num_edges


class TestTraceAndInduced:
    def test_trace_exact_intersection(self):
        h = new_hypergraph(6, 3, [(1, 2, 5), (1, 3, 4), (2, 5, 6), (4, 5, 6)])
        t = trace_family(h, (1,), (1, 2, 3))
        # edges meeting {1,2,3} exactly in {1}: (1,3,4) fails (contains 3)
        assert t.edges == ()
        t2 = trace_family(h, (4,), (4,))
        assert t2.edges == ((1, 3), (5, 6))
        assert t2.k == 2
        assert 4 not in t2.vertices

    def test_trace_empty_a(self):
        h = new_hypergraph(6, 3, [(4, 5, 6), (1, 2, 3)])
        t = trace_family(h, (), (1, 2))
        assert t.edges == ((4, 5, 6),)

    def test_a_not_subset_s(self):
        with pytest.raises(HypergraphError):
            trace_family(new_hypergraph(4, 2, []), (1,), (2,))

    def test_induced(self):
        h = complete_hypergraph(5, 2)
        sub = induced(h, (2, 3, 4))
        assert sub.num_edges == 3
        assert sub.vertices == (2, 3, 4)

    def test_empty_ground_set_stays_empty(self):
        h = complete_hypergraph(6, 3)
        assert induced(h, []).vertices == ()
        assert trace_family(h, (), h.vertices).vertices == ()
        assert Hypergraph(n=3, k=1, edges=()).vertices == (1, 2, 3)


class TestCloseness:
    def test_symmetric_inputs_differ(self):
        g = new_hypergraph(4, 2, [(1, 2)])
        h = new_hypergraph(4, 2, [(1, 2), (3, 4), (1, 3)])
        rep = closeness(g, h, Fraction(1, 4))
        assert rep.missing_count == 2
        assert rep.ratio == Fraction(2, 16)
        assert rep.is_close  # 2 < 16/4 = 4

    def test_strictness(self):
        g = new_hypergraph(2, 1, [])
        h = new_hypergraph(2, 1, [(1,)])
        rep = closeness(g, h, Fraction(1, 2))
        assert not rep.is_close  # 1 < 2*(1/2) fails strictly

    def test_mismatched_shapes(self):
        with pytest.raises(HypergraphError):
            closeness(new_hypergraph(4, 2, []), new_hypergraph(5, 2, []), 1)


class TestMinDegree:
    def test_complete(self):
        # every vertex of K_6^3 lies in C(5,2) edges
        val, wit = min_d_degree(complete_hypergraph(6, 3), 1)
        assert val == binom(5, 2)
        assert wit == (1,)

    def test_zero_witness_lex_least(self):
        h = new_hypergraph(5, 3, [(2, 3, 4)])
        val, wit = min_d_degree(h, 1)
        assert val == 0 and wit == (1,)

    def test_d_out_of_range(self):
        with pytest.raises(HypergraphError):
            min_d_degree(complete_hypergraph(5, 3), 3)


class TestKhgFormat:
    def test_round_trip_canonical(self):
        h = new_hypergraph(6, 3, [(4, 5, 6), (1, 2, 3), (1, 2, 6)])
        text = serialize_khg(h)
        assert parse_khg(text).edges == h.edges
        assert serialize_khg(parse_khg(text)) == text

    def test_comments_and_blanks(self):
        text = "# family\n\n3 2 1\n1 3\n"
        assert parse_khg(text).edges == ((1, 3),)

    def test_header_mismatch(self):
        with pytest.raises(HypergraphError, match="declares"):
            parse_khg("3 2 2\n1 2\n")

    def test_non_ascending_rejected(self):
        with pytest.raises(HypergraphError, match="ascending"):
            parse_khg("3 2 1\n2 1\n")

    def test_arity_error_waits_for_ascending_check(self):
        # every line is read and checked for order before any edge is
        # validated, so a later non-ascending line wins over an earlier
        # wrong-arity one
        text = "4 2 2\n1 2 3\n2 1\n"
        with pytest.raises(HypergraphError, match="not ascending: '2 1'"):
            parse_khg(text)
        assert _outcome(parse_khg, text) == _outcome(_old_parse_khg, text)

    def test_duplicates_and_order_merged(self):
        text = "# shuffled\r\n5 2 4\r\n3\t4\n1 2\n\n+3 04\n1 5\n"
        assert parse_khg(text).edges == ((1, 2), (1, 5), (3, 4))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
    def test_huge_header_refused_before_sizing_by_n(self):
        # 25 bytes whose header names 10^9 vertices: the arity error must
        # come before anything of size n is built.  The child's address
        # space is capped at 1 GiB, so a table or ground set sized by n
        # fails with MemoryError instead of exhausting the machine.
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        code = ("from emclab.hypergraph import parse_khg\n"
                "parse_khg('1000000000 1000000000 1\\n1\\n')\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(emclab.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=cap,
                              capture_output=True, text=True, timeout=60)
        assert "HypergraphError: edge [1] has arity 1, expected 1000000000" in proc.stderr

    @settings(max_examples=60, deadline=None)
    @given(hypergraphs())
    def test_round_trip_property(self, h):
        assert parse_khg(serialize_khg(h)) == h

    @settings(max_examples=300, deadline=None)
    @given(hypergraphs(), st.data())
    def test_matches_line_by_line_oracle(self, h, data):
        text = _perturbed_khg(h, data)
        assert _outcome(parse_khg, text) == _outcome(_old_parse_khg, text)


def _perturbed_khg(h, data):
    """serialize_khg(h) after up to three drawn edits, each of which keeps
    the file valid or breaks one rule of the format, then filler lines, a
    separator and a line end."""
    n, k = h.n, h.k
    rows = [[str(v) for v in e] for e in h.edges]
    m_shift = 0
    for _ in range(data.draw(st.integers(0, 3))):
        edit = data.draw(st.sampled_from([
            "shuffle", "duplicate", "plus", "zero-pad", "word", "repeat", "swap",
            "vertex 0", "vertex n+1", "short", "long", "k > n", "k = 0", "m = 0",
            "m off"]))
        if edit == "k > n":
            k = n + 1
        elif edit == "k = 0":
            k = 0
        elif edit == "m = 0":
            rows = []
        elif edit == "m off":
            m_shift = data.draw(st.sampled_from([-1, 1]))
        elif edit == "shuffle":
            rows = data.draw(st.permutations(rows))
        elif rows:
            i = data.draw(st.integers(0, len(rows) - 1))
            row = list(rows[i])
            if edit == "duplicate":
                rows.insert(data.draw(st.integers(0, len(rows))), row)
                continue
            if not row:                 # emptied by "short": a blank line
                continue
            j = data.draw(st.integers(0, len(row) - 1))
            if edit == "plus":
                row[j] = "+" + row[j]
            elif edit == "zero-pad":
                row[j] = "0" + row[j]
            elif edit == "word":
                row[j] = "x"
            elif edit == "repeat":
                row[j] = row[j - 1]
            elif edit == "swap":
                row[j - 1], row[j] = row[j], row[j - 1]
            elif edit == "vertex 0":
                row[0] = "0"
            elif edit == "vertex n+1":
                row[-1] = str(n + 1)
            elif edit == "short":
                del row[j]
            elif edit == "long":
                row.append(str(n))
            rows[i] = row
    sep = data.draw(st.sampled_from([" ", "\t", "  "]))
    lines = [f"{n} {k} {len(rows) + m_shift}"] + [sep.join(r) for r in rows]
    for _ in range(data.draw(st.integers(0, 2))):
        filler = data.draw(st.sampled_from(["# comment", "", "   ", "  # indented"]))
        lines.insert(data.draw(st.integers(0, len(lines))), filler)
    end = data.draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + data.draw(st.sampled_from([end, ""]))


def test_binom_edges():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(5, 0) == 1
    assert binom(10, 4) == 210
