"""Per-layer spans recorded from outside the library.

`install` replaces every public function of each emclab layer module, in
every emclab module that imported it, with a wrapper that records a span:
the layer's self time is the span's duration minus the time its child spans
cover.  Nothing in the library changes; `uninstall` puts the originals back,
so untraced and traced passes can alternate in one process.

The kernel implementations (`_kernel_py`, `_kernel`) are never patched:
their internal calls stay invisible, so every count below is the same for
the pure-Python and the compiled kernel.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer; `intervals` is folded into `certify`
LAYER_MODULES = {
    "emclab.kernel": "kernel",
    "emclab.hypergraph": "hypergraph",
    "emclab.matching": "matching",
    "emclab.lp": "lp",
    "emclab.shifting": "shifting",
    "emclab.constructions": "constructions",
    "emclab.verifier": "verifier",
    "emclab.scalars": "scalars",
    "emclab.intervals": "certify",
    "emclab.certify": "certify",
    "emclab.sampling": "sampling",
}
KERNEL_EXPORTS = ("find_matching", "greedy_matching", "downset_max_edges")
UNPATCHED = ("emclab._kernel_py", "emclab._kernel")


class Tracer:
    """Span stack plus per-pass counts and times (reset by `reset`)."""

    def __init__(self):
        self._stack: list[list] = []   # [layer, child_seconds]
        self.reset()

    def reset(self):
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.times: defaultdict = defaultdict(float)

    def call(self, layer, fn, hook, args, kwargs):
        stack = self._stack
        if not stack or stack[-1][0] != layer:
            self.counts[f"{layer}.calls"] += 1
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt
        if hook is not None:
            hook(self, dt, args, result)
        return result

    def root(self, layer, fn):
        """Run `fn` as a root span of `layer` (the CLI around a command)."""
        return self.call(layer, fn, None, (), {})


# --- hooks: counts and inclusive times at layer boundaries ------------------

def _count(name):
    def hook(tr, dt, args, result):
        tr.counts[name] += 1
    return hook


def _downset(tr, dt, args, result):
    tr.counts["kernel.downset_calls"] += 1
    tr.counts["kernel.downset_nodes"] += result[3]
    tr.times["kernel.downset_s"] += dt


def _stabilize(tr, dt, args, result):
    tr.counts["shifting.stabilize_calls"] += 1
    tr.counts["shifting.shifts"] += len(result[1])


def _parse_khg(tr, dt, args, result):
    tr.counts["hypergraph.khg_bytes"] += len(args[0])
    tr.times["hypergraph.khg_s"] += dt


def _serialize_khg(tr, dt, args, result):
    tr.counts["hypergraph.khg_bytes"] += len(result)
    tr.times["hypergraph.khg_s"] += dt


def _prove(tr, dt, args, result):
    tr.counts["certify.boxes"] += len(result.boxes)
    tr.counts["certify.splits"] += result.splits
    tr.times["certify.prove_s"] += dt


def _replay(tr, dt, args, result):
    tr.times["certify.replay_s"] += dt


def _sample_batch(tr, dt, args, result):
    tr.counts["sampling.copies"] += len(result.copies)


HOOKS = {
    ("emclab.kernel", "downset_max_edges"): _downset,
    ("emclab.kernel", "find_matching"): _count("kernel.find_matching_calls"),
    ("emclab.kernel", "greedy_matching"): _count("kernel.greedy_calls"),
    ("emclab.shifting", "stabilize"): _stabilize,
    ("emclab.shifting", "shift_ij"): _count("shifting.shift_ij_calls"),
    ("emclab.hypergraph", "parse_khg"): _parse_khg,
    ("emclab.hypergraph", "serialize_khg"): _serialize_khg,
    ("emclab.certify", "certify_calculate_lemma"): _prove,
    ("emclab.certify", "certify_maxvalue_coeffs"): _prove,
    ("emclab.certify", "replay_certificate"): _replay,
    ("emclab.intervals", "parse_certificate"): _replay,
    ("emclab.sampling", "sample_batch"): _sample_batch,
}


def _tableau_cells(c, rows):
    """Rows x columns of the simplex tableau `solve_lp` builds for these
    arguments: variables, one slack per inequality, one artificial per
    `>=`/`==` row after rows with negative right-hand side are flipped."""
    slacks = arts = 0
    for _coeffs, sense, rhs in rows:
        if rhs < 0:
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        slacks += sense != "=="
        arts += sense != "<="
    return len(rows) * (len(c) + slacks + arts + 1)


def _counting_solve_lp(tracer, solve_lp):
    """`solve_lp` that counts solves and pivots through its `trace` list."""
    def counted(c, rows, maximize=False, trace=None):
        log = trace if trace is not None else []
        start = len(log)
        try:
            return solve_lp(c, rows, maximize=maximize, trace=log)
        finally:
            phases = Counter(p for p, _enter, _leave in log[start:])
            tracer.counts["lp.solves"] += 1
            tracer.counts["lp.pivots_phase1"] += phases[1]
            tracer.counts["lp.pivots_phase2"] += phases[2]
            tracer.counts["lp.tableau_cells"] += _tableau_cells(c, rows)
    return counted


def _wrapper(tracer, layer, fn, hook):
    def traced(*args, **kwargs):
        return tracer.call(layer, fn, hook, args, kwargs)
    traced.__wrapped__ = fn
    return traced


def _targets(tracer):
    """id(original) -> (original, wrapper) for every public layer function,
    plus the class methods that belong to a layer."""
    out = {}
    for modname, layer in LAYER_MODULES.items():
        mod = importlib.import_module(modname)
        names = [n for n, obj in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == modname]
        if modname == "emclab.kernel":
            names += KERNEL_EXPORTS
        for name in names:
            fn = inner = getattr(mod, name)
            if (modname, name) == ("emclab.lp", "solve_lp"):
                inner = _counting_solve_lp(tracer, fn)
            out[id(fn)] = (fn, _wrapper(tracer, layer, inner, HOOKS.get((modname, name))))
    return out


def install(tracer) -> list:
    """Patch every reference to a layer function; returns the undo list."""
    importlib.import_module("emclab.cli")
    targets = _targets(tracer)
    undo = []
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("emclab") or modname in UNPATCHED or mod is None:
            continue
        for name, obj in list(vars(mod).items()):
            hit = targets.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                undo.append((mod, name, obj))
    from emclab.hypergraph import Hypergraph
    from emclab.intervals import Certificate
    for cls, name, layer, hook in ((Hypergraph, "edge_set", "hypergraph",
                                    _count("hypergraph.edge_set_calls")),
                                   (Certificate, "serialize", "certify", None)):
        fn = cls.__dict__[name]
        setattr(cls, name, _wrapper(tracer, layer, fn, hook))
        undo.append((cls, name, fn))
    return undo


def uninstall(undo: list):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
