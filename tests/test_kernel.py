"""The kernel contract, and a differential test of its two implementations.

The compiled kernel is built from ``_kernel.c`` into a temporary directory,
with warnings as errors, and loaded without registering it as a module, so
the rest of the session keeps whichever kernel ``emclab.kernel`` picked at
import.  Both kernels must agree exactly: answers, witnesses and node counts,
at every incumbent size `lower` tested.  Malformed input must raise the same
exception in both kernels, never crash or hang either.  The exact cells of
the acceptance grid, with their node counts, are pinned in
``tests/test_verifier.py`` for whichever kernel runs.
"""

import importlib.util
import inspect
import os
import random
import shutil
import sys
import sysconfig
from itertools import combinations
from pathlib import Path

import pytest

from emclab import _kernel_py, kernel
from emclab.constructions import emc_bound
from emclab.hypergraph import HypergraphError, new_hypergraph
from emclab.matching import matching_number
from emclab.verifier import _candidates, _incumbent, max_edges_given_nu

C_SOURCE = Path(_kernel_py.__file__).with_name("_kernel.c")
IMPL_AT_IMPORT = kernel.IMPL

# the verify-emc cells of the emc-frontier benchmark workload: exhaustive
# cells at the CLI's default budget, then the two budgeted frontier probes
DOWNSET_CELLS = [
    (11, 4, 1, 10**7), (12, 3, 3, 10**7), (12, 4, 1, 10**7), (13, 3, 2, 10**7),
    (13, 3, 3, 10**7), (15, 5, 2, 300), (16, 4, 3, 50),
]


def seeded(n, k, s):
    """Candidates of the (n, k) down-set search and its verified incumbent."""
    masks, succs = _candidates(n, k)
    return masks, succs, _incumbent(n, k, s, masks, succs)[2]


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
        masks, succs = _candidates(5, 2)
        cands = list(combinations(range(1, 6), 2))
        assert masks == [kernel.edge_mask(e) for e in cands]
        for e, out in zip(cands, succs):
            ups = [tuple(sorted(e[:i] + (a + 1,) + e[i + 1:]))
                   for i, a in enumerate(e) if a + 1 <= 5 and a + 1 not in e]
            assert [cands[j] for j in out] == ups


    @pytest.mark.parametrize("n", range(1, 13))
    def test_candidates_match_brute_force(self, n):
        # successor f of e: f = e with one vertex v moved to v+1 not in e,
        # listed by increasing v
        for k in range(0, n + 1):
            cands = list(combinations(range(1, n + 1), k))
            masks, succs = _candidates(n, k)
            assert masks == [kernel.edge_mask(e) for e in cands]
            position = {e: i for i, e in enumerate(cands)}
            for e, out in zip(cands, succs):
                ups = [tuple(sorted(set(e) - {v} | {v + 1}))
                       for v in range(1, n) if v in e and v + 1 not in e]
                assert out == [position[f] for f in ups]

    def test_candidates_reject_past_63(self):
        with pytest.raises(HypergraphError, match="search kernels support n <= 63"):
            _candidates(64, 2)


class TestCompiledMatchesPython:
    def test_loaded_aside(self, compiled):
        assert compiled.IMPL == "c"
        assert kernel.IMPL == IMPL_AT_IMPORT
        assert sys.modules.get("emclab._kernel") is not compiled
        assert getattr(sys.modules["emclab"], "_kernel", None) is not compiled

    @pytest.mark.parametrize("n,k,s,budget", DOWNSET_CELLS)
    def test_downset_max_edges(self, compiled, n, k, s, budget):
        masks, succs, seed = seeded(n, k, s)
        want = _kernel_py.downset_max_edges(masks, succs, s, budget, len(seed))
        assert compiled.downset_max_edges(masks, succs, s, budget, len(seed)) == want
        assert want[0] >= len(seed)

    @pytest.mark.parametrize("n,k,s,budget", DOWNSET_CELLS)
    def test_downset_above_optimum(self, compiled, n, k, s, budget):
        # no family beats lower = formula + 1 (the optimum on the exhaustive
        # cells), so best stays lower and the witness is []
        masks, succs = _candidates(n, k)
        lower = emc_bound(n, k, s).emc_bound + 1
        want = _kernel_py.downset_max_edges(masks, succs, s, budget, lower)
        assert compiled.downset_max_edges(masks, succs, s, budget, lower) == want
        assert want[:2] == (lower, [])

    def test_same_signatures(self, compiled):
        for name in ("find_matching", "greedy_matching", "downset_max_edges"):
            assert inspect.signature(getattr(compiled, name)) == \
                inspect.signature(getattr(_kernel_py, name)), name
        assert list(inspect.signature(compiled.downset_max_edges).parameters) == \
            ["masks", "succs", "s", "budget", "lower"]

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

    def test_greedy_matching(self, compiled):
        for _n, _k, masks in FAMILIES:
            assert compiled.greedy_matching(masks) == _kernel_py.greedy_matching(masks)


class TestCompiledRejectsMalformedInput:
    def test_negative_mask(self, impl):
        with pytest.raises(OverflowError):
            impl.find_matching([3, -1], 2, 1)
        with pytest.raises(OverflowError):
            impl.greedy_matching([3, -1])
        with pytest.raises(OverflowError):
            impl.downset_max_edges([-3], [[]], 1, 10, 0)
        # a mask of 2**64 or more does not fit the compiled kernel's word,
        # so both kernels refuse it
        with pytest.raises(OverflowError):
            impl.find_matching([1 << 64, 1], 1, 1)
        with pytest.raises(OverflowError):
            impl.greedy_matching([3, 1 << 64])
        with pytest.raises(OverflowError):
            impl.downset_max_edges([1 << 64], [[]], 1, 10, 0)

    def test_successor_out_of_range(self, impl):
        masks, succs = _candidates(5, 2)
        for bad in (len(masks), -1):
            with pytest.raises(IndexError):
                impl.downset_max_edges(masks, succs[:-1] + [[bad]], 1, 10, 0)

    def test_succs_length_mismatch(self, impl):
        masks, succs = _candidates(5, 2)
        for bad in (succs[:-1], succs + [[]]):
            with pytest.raises(ValueError):
                impl.downset_max_edges(masks, bad, 1, 10, 0)

    def test_successor_not_after_predecessor(self, impl):
        # a linear extension puts every successor after its predecessor;
        # a self-loop or a backward index would corrupt the up-sets
        masks, succs = _candidates(5, 2)
        for row, bad in ((3, 3), (3, 2), (len(masks) - 1, 0)):
            broken = succs[:row] + [succs[row] + [bad]] + succs[row + 1:]
            with pytest.raises(ValueError):
                impl.downset_max_edges(masks, broken, 1, 10, 0)

    def test_huge_need(self, compiled):
        masks = kernel.edge_masks(8, [(1, 2), (3, 4), (5, 6)])
        # need * k overflows a C int, then a long long; no such matching
        for need in (2**31, 2**62):
            assert compiled.find_matching(masks, 2, need) is None
            assert _kernel_py.find_matching(masks, 2, need) is None
        with pytest.raises(OverflowError):
            compiled.find_matching(masks, 2, 2**64)
        masks, succs = _candidates(6, 2)
        assert compiled.downset_max_edges(masks, succs, 100, 10, 0) == \
            _kernel_py.downset_max_edges(masks, succs, 100, 10, 0)
