"""The kernel contract, and a differential test of its two implementations.

The compiled kernel is built from ``_kernel.c`` into a temporary directory,
with warnings as errors, and loaded without registering it as a module, so
the rest of the session keeps whichever kernel ``emclab.kernel`` picked at
import.  Both kernels must agree exactly: answers, witnesses and node counts,
at every incumbent size `lower` tested.  Malformed input must raise the same
exception in both kernels, never crash or hang either.  The exact cells of
the acceptance grid, with their node counts, are pinned in
``tests/test_verifier.py`` for whichever kernel runs.  The down-set search
seeks each node's matching inside [k(s+1)] only; ``downset_reference``, the
search over the whole closure with up-sets from vertex tuples, checks that
rule and the lemma behind it, and ``_find`` checks the search's matching
step, ``_find_down``.
"""

import collections
import functools
import importlib.util
import inspect
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from itertools import combinations
from pathlib import Path

import pytest

from emclab import _kernel_py, kernel
from emclab.constructions import emc_bound
from emclab.hypergraph import HypergraphError, binom, new_hypergraph
from emclab.matching import matching_number
from emclab.shifting import stabilize
from emclab.verifier import _incumbent, max_edges_given_nu

C_SOURCE = Path(_kernel_py.__file__).with_name("_kernel.c")
IMPL_AT_IMPORT = kernel.IMPL

# the verify-emc cells of the emc-frontier benchmark workload: exhaustive
# cells at the CLI's default budget, then the two budgeted frontier probes
DOWNSET_CELLS = [
    (11, 4, 1, 10**7), (12, 3, 3, 10**7), (12, 4, 1, 10**7), (13, 3, 2, 10**7),
    (13, 3, 3, 10**7), (15, 5, 2, 300), (16, 4, 3, 50),
    # C(22,5) = 26,334 candidates, under the cap: an eager up-set table
    # there would take about 87 MB
    (22, 5, 2, 200),
]


def seeded(n, k, s):
    """The verified incumbent of the (n, k, s) down-set search."""
    return _incumbent(n, k, s)[1].edges


def tuple_successors(n, k):
    """The k-subsets of [n] as tuples in `combinations` order, and for each
    the indices of its dominance covers by brute force: one vertex v moved
    to v+1 not in the set, listed by increasing v."""
    cands = list(combinations(range(1, n + 1), k))
    position = {e: i for i, e in enumerate(cands)}
    succs = [[position[tuple(sorted(set(e) - {v} | {v + 1}))]
              for v in range(1, n) if v in e and v + 1 not in e] for e in cands]
    return cands, succs


@functools.cache
def dominance_up_sets(n, k):
    """up[i], the index bitset of the k-subsets of [n] that dominate the i-th
    in `combinations` order, by coordinatewise >= of sorted tuples."""
    cands = list(combinations(range(1, n + 1), k))
    return [sum(1 << j for j, b in enumerate(cands) if all(map(int.__ge__, b, a)))
            for a in cands]


def kernel_up_sets(n, k):
    """The pure-Python kernel's up-set of every candidate, from its
    threshold columns."""
    masks = _kernel_py._candidates(n, k)
    by_vertex, above = _kernel_py._tables(masks)
    at_most = _kernel_py._at_most(by_vertex, k, (1 << len(masks)) - 1)
    return [_kernel_py._up(at_most, m, rest) for m, rest in zip(masks, above)]


def random_families(count=300, seed=2026):
    """(n, k, masks) for seeded random families in random edge order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(6, 14)
        k = rng.choice([2, 3, 4])
        all_e = list(combinations(range(1, n + 1), k))
        edges = rng.sample(all_e, min(len(all_e), rng.randint(1, 40)))
        out.append((n, k, kernel.edge_masks(n, edges)))
    return out


FAMILIES = random_families()


def missing_toolchain():
    """Why the compiled kernel cannot be built here, or None."""
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        return f"no Python headers: Python.h is not in {include}"
    cc = (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        return f"no C compiler: {cc} is not on PATH"
    return None


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel, built from its C source outside src/."""
    reason = missing_toolchain()
    if reason:
        pytest.skip(reason)
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext
    out = tmp_path_factory.mktemp("kernel_build")
    cmd = build_ext(Distribution(
        {"ext_modules": [Extension("emclab._kernel", [str(C_SOURCE)],
                                   extra_compile_args=["-Wall", "-Werror"])]}))
    cmd.build_lib = str(out / "lib")
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    (path,) = cmd.get_outputs()
    spec = importlib.util.spec_from_file_location("emclab._kernel", path)
    mod = importlib.util.module_from_spec(spec)
    # the module's init registers itself in sys.modules; undo that so a
    # later `import emclab._kernel` behaves as if this build never happened
    saved = sys.modules.get("emclab._kernel")
    spec.loader.exec_module(mod)
    if saved is None:
        sys.modules.pop("emclab._kernel", None)
    else:
        sys.modules["emclab._kernel"] = saved
    return mod


@pytest.fixture(params=["c", "python"])
def impl(request):
    """Each kernel in turn; the compiled one skips without a toolchain."""
    if request.param == "python":
        return _kernel_py
    return request.getfixturevalue("compiled")


class TestContract:
    def test_bit_layout(self):
        assert kernel.edge_masks(63, [(1, 63), (2, 3)]) == [1 | 1 << 62, 0b110]

    def test_mask_edge_inverts_edge_mask(self):
        # any n: shifting uses the same codec past the kernel's 63
        rng = random.Random(19)
        for _ in range(200):
            n = rng.randint(1, 80)
            e = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(6, n)))))
            assert kernel.mask_edge(kernel.edge_mask(e)) == e
        assert kernel.mask_edge(1 | 1 << 69) == (1, 70)
        assert kernel.mask_edge(0) == ()

    def test_rejects_past_63_before_enumerating(self):
        with pytest.raises(HypergraphError):
            kernel.edge_masks(64, [])
        with pytest.raises(HypergraphError):
            matching_number(new_hypergraph(64, 2, [(1, 64)]))
        # C(64, 32) candidates would never finish: the check must come first
        with pytest.raises(HypergraphError):
            max_edges_given_nu(64, 32, 1)

    def test_candidates_are_lex_with_dominance_successors(self):
        masks = _kernel_py._candidates(5, 2)
        cands = list(combinations(range(1, 6), 2))
        assert masks == [kernel.edge_mask(e) for e in cands]
        up = kernel_up_sets(5, 2)
        # {2,4} lies above {1,2}, {1,3}, {1,4}, {2,3} and itself only
        below = [i for i, row in enumerate(up) if row >> cands.index((2, 4)) & 1]
        assert [cands[i] for i in below] == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
        # and below {3,5}, {4,5} and itself
        assert [cands[j] for j in range(len(cands)) if up[cands.index((2, 4))] >> j & 1] \
            == [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_candidates_match_brute_force(self, n):
        for k in range(1, n + 1):
            masks = _kernel_py._candidates(n, k)
            assert masks == [kernel.edge_mask(e) for e in combinations(range(1, n + 1), k)]

    def test_candidates_reject_past_63(self):
        with pytest.raises(ValueError, match="need 1 <= k <= n <= 63"):
            _kernel_py._candidates(64, 2)


def greedy_reference(edges):
    """The lexicographic greedy matching over vertex tuples: the indices of
    the edges that meet no earlier chosen edge."""
    used, out = set(), []
    for i, e in enumerate(edges):
        if used.isdisjoint(e):
            out.append(i)
            used.update(e)
    return out


class TestGreedy:
    """`kernel.greedy_matching`, one Python loop outside both kernels, over
    masks of any size."""

    def test_matches_tuple_greedy(self):
        for _n, _k, masks in FAMILIES:
            edges = [kernel.mask_edge(m) for m in masks]
            assert kernel.greedy_matching(masks) == greedy_reference(edges), masks

    def test_past_63_vertices(self):
        rng = random.Random(64)
        for _ in range(100):
            n = rng.randint(64, 100)
            k = rng.randint(1, 5)
            edges = [tuple(sorted(rng.sample(range(1, n + 1), k)))
                     for _ in range(rng.randint(0, 40))]
            masks = [kernel.edge_mask(e) for e in edges]
            assert kernel.greedy_matching(masks) == greedy_reference(edges), edges

    def test_examples(self):
        assert kernel.greedy_matching([]) == []
        assert kernel.greedy_matching([0b11, 0b110, 0b1100, 0, 1 << 69]) == [0, 2, 3, 4]

    def test_negative_mask(self):
        with pytest.raises(OverflowError):
            kernel.greedy_matching([3, -1])


def tables_reference(masks):
    """_kernel_py._tables bit by bit: by_vertex[b] sets bit i for each mask i
    holding bit b, up to the widest mask; above[i] is masks[i]'s bits past
    its least one."""
    width = max(masks, default=0).bit_length()
    by_vertex = [sum(1 << i for i, m in enumerate(masks) if m >> b & 1)
                 for b in range(width)]
    above = [[b for b in range(m.bit_length()) if m >> b & 1][1:] for m in masks]
    return by_vertex, above


def closure_reference(succs):
    """up[i] as the transitive closure of succs from i, i included."""
    up = []
    for i in range(len(succs)):
        seen, stack = {i}, [i]
        while stack:
            for j in succs[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        up.append(sum(1 << j for j in seen))
    return up


class TestPythonTables:
    """The pure-Python kernel's column tables, threshold columns and up-sets
    against per-bit and per-tuple references."""

    @pytest.mark.parametrize("masks", [
        [], [0], [0, 0], [1 << 63], [1 << 63 | 1, 1 << 63, 1, 0],
        [5, 5, 3, 5, 1 << 40, 1 << 40], [(1 << 64) - 1, 1 << 7, 1 << 8],
    ])
    def test_tables_edge_cases(self, masks):
        assert _kernel_py._tables(masks) == tables_reference(masks)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_tables_on_candidates(self, n):
        for k in range(1, n + 1):
            masks = _kernel_py._candidates(n, k)
            assert _kernel_py._tables(masks) == tables_reference(masks), (n, k)

    def test_tables_on_random_masks(self):
        rng = random.Random(2026)
        for _ in range(300):
            width = rng.randint(1, 64)
            masks = [rng.getrandbits(width) for _ in range(rng.randint(1, 40))]
            # repeats share a row of `above`, which must still read right
            masks += rng.choices(masks, k=rng.randint(0, 5))
            assert _kernel_py._tables(masks) == tables_reference(masks), masks

    @pytest.mark.parametrize("n", range(1, 11))
    def test_search_rows_on_candidates(self, n):
        # the down-set search's rows, read off `combinations`, against the
        # bit loop of `_tables` on the same candidates
        for k in range(1, n + 1):
            rows = _kernel_py._rows(n, k)
            assert list(map(list, rows)) == _kernel_py._tables(_kernel_py._candidates(n, k))[1], \
                (n, k)

    def test_above_rows_shared(self):
        _, above = _kernel_py._tables([0b1011, 0b1110, 0b1010, 0b1100])
        assert above == [[1, 3], [2, 3], [3], [3]]
        assert above[0] is not above[1] and above[2] is above[3]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_at_most_on_candidates(self, n):
        # at_most[v][p] against a popcount of the bits below v, per mask
        for k in range(1, n + 1):
            masks = _kernel_py._candidates(n, k)
            by_vertex, _ = _kernel_py._tables(masks)
            at_most = _kernel_py._at_most(by_vertex, k, (1 << len(masks)) - 1)
            assert at_most == [
                [sum(1 << i for i, m in enumerate(masks) if (m & (1 << v) - 1).bit_count() <= p)
                 for p in range(k)] for v in range(n + 1)], (n, k)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_up_sets_on_candidates(self, n):
        # the AND of k threshold columns against coordinatewise >= of the
        # tuples, and against the closure of the brute-force tuple covers
        for k in range(1, n + 1):
            up = kernel_up_sets(n, k)
            assert up == dominance_up_sets(n, k), (n, k)
            assert up == closure_reference(tuple_successors(n, k)[1]), (n, k)


class TestCompiledMatchesPython:
    def test_loaded_aside(self, compiled):
        assert compiled.IMPL == "c"
        assert kernel.IMPL == IMPL_AT_IMPORT
        assert sys.modules.get("emclab._kernel") is not compiled
        assert getattr(sys.modules["emclab"], "_kernel", None) is not compiled

    @pytest.mark.parametrize("n,k,s,budget", DOWNSET_CELLS)
    def test_downset_max_edges(self, compiled, n, k, s, budget):
        seed = seeded(n, k, s)
        want = _kernel_py.downset_max_edges(n, k, s, budget, len(seed))
        assert compiled.downset_max_edges(n, k, s, budget, len(seed)) == want
        assert want[0] >= len(seed)

    @pytest.mark.parametrize("n,k,s,budget", DOWNSET_CELLS)
    def test_downset_above_optimum(self, compiled, n, k, s, budget):
        # no family beats lower = formula + 1 (the optimum on the exhaustive
        # cells), so best stays lower and the witness is []
        lower = emc_bound(n, k, s).emc_bound + 1
        want = _kernel_py.downset_max_edges(n, k, s, budget, lower)
        assert compiled.downset_max_edges(n, k, s, budget, lower) == want
        assert want[:2] == (lower, [])

    def test_same_signatures(self, compiled):
        for name in ("find_matching", "downset_max_edges"):
            assert inspect.signature(getattr(compiled, name)) == \
                inspect.signature(getattr(_kernel_py, name)), name
        assert list(inspect.signature(compiled.downset_max_edges).parameters) == \
            ["n", "k", "s", "budget", "lower"]

    def test_find_matching(self, compiled):
        outcomes = set()
        for n, k, masks in FAMILIES:
            for need in range(n // k + 2):
                want = _kernel_py.find_matching(masks, k, need)
                assert compiled.find_matching(masks, k, need) == want, (n, k, masks, need)
                outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_find_matching_empty_family(self, compiled):
        # with k <= 0 the vertex-count prune never fires; no active vertex must
        # still end the search
        for k in (0, -1):
            assert compiled.find_matching([], k, 1) is None
            assert _kernel_py.find_matching([], k, 1) is None


class TestCompiledRejectsMalformedInput:
    def test_negative_mask(self, impl):
        with pytest.raises(OverflowError):
            impl.find_matching([3, -1], 2, 1)
        # a mask of 2**64 or more does not fit the compiled kernel's word,
        # so both kernels refuse it
        with pytest.raises(OverflowError):
            impl.find_matching([1 << 64, 1], 1, 1)

    @pytest.mark.parametrize("n,k", [(64, 2), (63, 64), (5, 0), (5, -1), (3, 4), (0, 0),
                                     (-1, 1)])
    def test_cell_outside_the_kernel(self, impl, n, k):
        with pytest.raises(ValueError, match="need 1 <= k <= n <= 63"):
            impl.downset_max_edges(n, k, 1, 10, 0)

    def test_candidate_cap(self, impl):
        # C(23,5) = 33,649 is past the cap: refused before anything is built
        assert binom(22, 5) <= kernel.MAX_SEARCH_CANDIDATES < binom(23, 5)
        with pytest.raises(ValueError, match="C\\(23,5\\)"):
            impl.downset_max_edges(23, 5, 2, 0, 0)
        with pytest.raises(ValueError, match="C\\(63,31\\)"):
            impl.downset_max_edges(63, 31, 1, 0, 0)

    def test_compiled_cap_boundary(self, compiled):
        # C(22,5) = 26,334 is under the cap: both kernels build it and stop
        # at the first node
        for impl in (compiled, _kernel_py):
            assert impl.downset_max_edges(22, 5, 2, 0, 0) == (0, [], False, 1), impl.IMPL

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
    def test_python_kernel_at_the_cap_in_96_mib(self):
        # (22,5,2) at budget 200 on the pure-Python kernel, in a child capped
        # at 96 MiB of address space: the search builds no C(n,k)^2/8-byte
        # up-set table (about 87 MB here), so it stops at the budget, exit 2
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (96 << 20, 96 << 20))
        code = ("import sys; sys.modules['emclab._kernel'] = None\n"
                "from emclab import kernel; assert kernel.IMPL == 'python'\n"
                "from emclab.cli import main; main(sys.argv[1:])")
        env = dict(os.environ, PYTHONPATH=str(C_SOURCE.parent.parent))
        proc = subprocess.run([sys.executable, "-c", code, "verify-emc", "--n", "22", "--k", "5",
                               "--s", "2", "--budget", "200"], env=env, preexec_fn=cap,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert '"nodes_expanded": 201' in proc.stdout

    def test_huge_need(self, compiled):
        masks = kernel.edge_masks(8, [(1, 2), (3, 4), (5, 6)])
        # need * k overflows a C int, then a long long; no such matching
        for need in (2**31, 2**62):
            assert compiled.find_matching(masks, 2, need) is None
            assert _kernel_py.find_matching(masks, 2, need) is None
        with pytest.raises(OverflowError):
            compiled.find_matching(masks, 2, 2**64)
        assert compiled.downset_max_edges(6, 2, 100, 10, 0) == \
            _kernel_py.downset_max_edges(6, 2, 100, 10, 0)


@functools.cache
def downset_reference(n, k, s, budget, lower):
    """(best, exhausted) of the (n, k) down-set search with each node's
    matching sought over the whole closure, not only inside [k(s+1)]: the
    same branch and bound, with up-sets from coordinatewise >= of tuples and
    the pure-Python kernel's matching search."""
    masks = kernel.edge_masks(n, combinations(range(1, n + 1), k))
    up = dominance_up_sets(n, k)
    by_vertex, above = _kernel_py._tables(masks)
    state = {"best": lower, "nodes": 0, "exhausted": True}

    def search(alive, included):
        state["nodes"] += 1
        if state["nodes"] > budget:
            state["exhausted"] = False
            return
        if alive.bit_count() <= state["best"]:
            return
        hit = _kernel_py._find(by_vertex, above, k, s + 1, alive)
        if hit is None:
            state["best"] = alive.bit_count()
            return
        branch = [f for f in hit if not included >> f & 1]
        for pos, f in enumerate(branch):
            if up[f] & included:
                continue
            sub = alive ^ (alive & up[f])
            inc = included
            for g in branch[:pos]:
                if not sub >> g & 1:
                    break
                inc |= 1 << g
            else:
                search(sub, inc)
                if not state["exhausted"]:
                    return

    search((1 << len(masks)) - 1, 0)
    return state["best"], state["exhausted"]


# n <= 10, k <= 5, s <= 3, with no incumbent and with a third of the k-sets;
# a seeded quarter of them, with and without the restriction to [k(s+1)]
SMALL_CELLS = [(n, k, s, lower) for n in range(1, 11) for k in range(1, min(5, n) + 1)
               for s in range(4) for lower in (0, binom(n, k) // 3)]
REFERENCE_CELLS = random.Random(30).sample(SMALL_CELLS, 80)


class TestMatchingInsideKS1:
    """Each node's (s+1)-matching is sought among the closure's masks inside
    [k(s+1)]; a down-set has one there iff it has one at all."""

    def test_cells_cover_both_rules(self):
        restricted = [n > k * (s + 1) for n, k, s, _ in REFERENCE_CELLS]
        assert 20 <= sum(restricted) <= 60

    @pytest.mark.parametrize("n,k,s,lower", REFERENCE_CELLS)
    def test_agrees_with_whole_closure_search(self, impl, n, k, s, lower):
        best, witness, exhausted, _ = impl.downset_max_edges(n, k, s, 10**6, lower)
        assert (best, exhausted) == downset_reference(n, k, s, 10**6, lower)
        if best == lower:
            assert witness == []
            return
        # the witness is the whole closure: a down-set of size best with no
        # (s+1)-matching anywhere in it
        cands, succs = tuple_successors(n, k)
        held = set(witness)
        assert len(held) == best
        assert not any(t in held for j in range(len(cands)) if j not in held
                       for t in succs[j])
        masks = kernel.edge_masks(n, [cands[i] for i in witness])
        assert _kernel_py.find_matching(masks, k, s + 1) is None

    def test_lemma_on_stabilized_families(self, impl):
        rng = random.Random(31)
        outcomes = set()
        for _ in range(150):
            n = rng.randint(6, 14)
            k = rng.choice([2, 3, 4])
            all_e = list(combinations(range(1, n + 1), k))
            edges = rng.sample(all_e, min(len(all_e), rng.randint(1, 60)))
            g, _ = stabilize(new_hypergraph(n, k, edges))
            masks = kernel.edge_masks(n, g.edges)
            for s in range(n // k):
                inside = [m for m in masks if m < 1 << k * (s + 1)]
                whole = impl.find_matching(masks, k, s + 1) is not None
                assert whole == (impl.find_matching(inside, k, s + 1) is not None), \
                    (n, k, s, g.edges)
                outcomes.add((whole, len(inside) < len(masks)))
        # both answers occur where the restriction drops edges
        assert {(True, True), (False, True)} <= outcomes

    def test_lemma_needs_a_down_set(self, impl):
        # {2,3} and {4,5} are disjoint, but only {2,3} lies inside [4]: the
        # family misses {1,2}, so it is no down-set
        masks = kernel.edge_masks(5, [(2, 3), (4, 5)])
        assert impl.find_matching(masks, 2, 2) == [0, 1]
        assert impl.find_matching([m for m in masks if m < 1 << 4], 2, 2) is None


class TestFindDown:
    """`_find_down`, the down-set search's matching step, returns exactly
    `_find`'s answer on a closure's part inside [k*need], with free =
    [k*need]; `find_matching` keeps `_find`, fallback and all."""

    def test_matches_find_on_closures(self):
        # closures made by excluding seeded random up-sets from all the
        # k-subsets of [n], at n = k*need and past it
        rng = random.Random(36)
        outcomes = set()
        for _ in range(600):
            need = rng.randint(1, 4)
            k = rng.randint(1, 4)
            n = k * need + rng.choice([0, 0, 1, 2, 3])
            if binom(n, k) > 3000:
                continue
            masks = _kernel_py._candidates(n, k)
            by_vertex, above = _kernel_py._columns(masks), _kernel_py._rows(n, k)
            full = (1 << len(masks)) - 1
            at_most = _kernel_py._at_most(by_vertex, k, full)
            alive = full
            for f in rng.sample(range(len(masks)), rng.randint(0, min(6, len(masks)))):
                alive &= ~_kernel_py._up(at_most, masks[f], above[f])
            avail = alive & (full ^ at_most[k * need][k - 1])
            want = _kernel_py._find(by_vertex, above, k, need, avail)
            got = _kernel_py._find_down(by_vertex[:k * need], above, at_most, masks, need,
                                        avail, (1 << k * need) - 1)
            assert got == want, (n, k, need, alive)
            outcomes.add((want is None, n > k * need, need))
        # found and not found, at n = k*need and past it, for each need
        assert outcomes == {(none, past, need) for none in (True, False)
                            for past in (True, False) for need in range(1, 5)}

    def test_rules_cut_the_search(self, monkeypatch):
        # calls of the two DFSs, counted through the module's names, which
        # their recursion reads.  H_1(12,4,2) on free = [12], the 4-sets
        # meeting {1,2}, has no 3-matching.  Vertex 1's first partner
        # {1,10,11,12} fails and dominates the rest, and so on one level
        # down: 3 calls and no fallback into `_find`, against 242 calls of
        # `_find`
        n, k, need = 12, 4, 3
        masks = _kernel_py._candidates(n, k)
        by_vertex, above = _kernel_py._columns(masks), _kernel_py._rows(n, k)
        at_most = _kernel_py._at_most(by_vertex, k, (1 << len(masks)) - 1)
        avail = sum(1 << i for i, m in enumerate(masks) if m & 0b11)
        calls = collections.Counter()
        for name in ("_find", "_find_down"):
            def counted(*args, _name=name, _search=getattr(_kernel_py, name)):
                calls[_name] += 1
                return _search(*args)
            monkeypatch.setattr(_kernel_py, name, counted)
        assert _kernel_py._find_down(by_vertex, above, at_most, masks, need, avail,
                                     (1 << k * need) - 1) is None
        assert calls == {"_find_down": 3}
        calls.clear()
        assert _kernel_py._find(by_vertex, above, k, need, avail) is None
        assert calls == {"_find": 242}
        # the 4-sets inside [11]: vertex 12 is idle, so the count prune
        # ends the search at once
        calls.clear()
        avail = sum(1 << i for i, m in enumerate(masks) if m < 1 << 11)
        assert _kernel_py._find_down(by_vertex, above, at_most, masks, need, avail,
                                     (1 << k * need) - 1) is None
        assert calls == {"_find_down": 1}

    def test_find_matching_keeps_the_fallback(self, impl):
        # {1,2,3} is vertex 1's only partner and meets both other edges: the
        # matching leaves vertex 1 unmatched, which no down-set search needs
        masks = kernel.edge_masks(7, [(1, 2, 3), (2, 4, 5), (3, 6, 7)])
        assert impl.find_matching(masks, 3, 2) == [1, 2]
