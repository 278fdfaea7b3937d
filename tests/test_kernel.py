"""The kernel contract, and a differential test of its two implementations.

The compiled kernel is built from ``_kernel.c`` into a temporary directory,
with warnings as errors, and loaded without registering it as a module, so
the rest of the session keeps whichever kernel ``emclab.kernel`` picked at
import.  Both kernels must agree exactly: answers, witnesses and node counts.
Malformed input must raise in the compiled kernel, never crash it.
"""

import importlib.util
import os
import random
import shutil
import sys
import sysconfig
from itertools import combinations
from pathlib import Path

import pytest

from emclab import _kernel_py, kernel
from emclab.hypergraph import HypergraphError, new_hypergraph
from emclab.matching import matching_number
from emclab.verifier import _candidates, max_edges_given_nu

C_SOURCE = Path(_kernel_py.__file__).with_name("_kernel.c")
IMPL_AT_IMPORT = kernel.IMPL

# the verify-emc cells of the emc-frontier benchmark workload: exhaustive
# cells at the CLI's default budget, then the two budgeted frontier probes
DOWNSET_CELLS = [
    (11, 4, 1, 10**7), (12, 3, 3, 10**7), (12, 4, 1, 10**7), (13, 3, 2, 10**7),
    (13, 3, 3, 10**7), (15, 5, 2, 300), (16, 4, 3, 50),
]


def random_families(count=300, seed=2026):
    """(n, k, masks, used) for seeded random families in random edge order."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(6, 14)
        k = rng.choice([2, 3, 4])
        all_e = list(combinations(range(1, n + 1), k))
        edges = rng.sample(all_e, min(len(all_e), rng.randint(1, 40)))
        used = kernel.edge_mask(rng.sample(range(1, n + 1), rng.randint(1, 3)))
        out.append((n, k, kernel.edge_masks(n, edges), used))
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


class TestContract:
    def test_bit_layout(self):
        assert kernel.edge_masks(63, [(1, 63), (2, 3)]) == [1 | 1 << 62, 0b110]

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


class TestCompiledMatchesPython:
    def test_loaded_aside(self, compiled):
        assert compiled.IMPL == "c"
        assert kernel.IMPL == IMPL_AT_IMPORT
        assert sys.modules.get("emclab._kernel") is not compiled
        assert getattr(sys.modules["emclab"], "_kernel", None) is not compiled

    @pytest.mark.parametrize("n,k,s,budget", DOWNSET_CELLS)
    def test_downset_max_edges(self, compiled, n, k, s, budget):
        masks, succs = _candidates(n, k)
        want = _kernel_py.downset_max_edges(masks, succs, s, budget)
        assert compiled.downset_max_edges(masks, succs, s, budget) == want

    def test_find_matching(self, compiled):
        outcomes = set()
        for n, k, masks, used in FAMILIES:
            for need in range(n // k + 2):
                for u in (0, used):
                    want = _kernel_py.find_matching(masks, k, need, u)
                    assert compiled.find_matching(masks, k, need, u) == want, \
                        (n, k, masks, need, u)
                    outcomes.add(want is None)
        assert outcomes == {True, False}

    def test_greedy_matching(self, compiled):
        for _n, _k, masks, used in FAMILIES:
            for u in (0, used):
                assert compiled.greedy_matching(masks, u) == \
                    _kernel_py.greedy_matching(masks, u)


class TestCompiledRejectsMalformedInput:
    def test_negative_mask(self, compiled):
        with pytest.raises(OverflowError):
            compiled.find_matching([3, -1], 2, 1)
        with pytest.raises(OverflowError):
            compiled.find_matching([3], 2, 1, -1)
        with pytest.raises(OverflowError):
            compiled.greedy_matching([3, -1])
        with pytest.raises(OverflowError):
            compiled.downset_max_edges([-3], [[]], 1, 10)

    def test_successor_out_of_range(self, compiled):
        masks, succs = _candidates(5, 2)
        for bad in (len(masks), -1):
            with pytest.raises(IndexError):
                compiled.downset_max_edges(masks, succs[:-1] + [[bad]], 1, 10)

    def test_succs_length_mismatch(self, compiled):
        masks, succs = _candidates(5, 2)
        for bad in (succs[:-1], succs + [[]]):
            with pytest.raises(ValueError):
                compiled.downset_max_edges(masks, bad, 1, 10)

    def test_huge_need(self, compiled):
        masks = kernel.edge_masks(8, [(1, 2), (3, 4), (5, 6)])
        # need * k overflows a C int, then a long long; no such matching
        for need in (2**31, 2**62):
            assert compiled.find_matching(masks, 2, need) is None
            assert _kernel_py.find_matching(masks, 2, need) is None
        with pytest.raises(OverflowError):
            compiled.find_matching(masks, 2, 2**64)
        masks, succs = _candidates(6, 2)
        assert compiled.downset_max_edges(masks, succs, 100, 10) == \
            _kernel_py.downset_max_edges(masks, succs, 100, 10)
