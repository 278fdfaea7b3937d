"""The four workloads: fixed operation lists built from a seed.

Each operation goes through the CLI in-process where a command exists and
calls the public library function otherwise.  `check` turns an operation's
result into a canonical fingerprint (volatile fields removed) and raises
`reference.Mismatch` when the answer disagrees with its reference.

Sizes are set so that one pass takes about 1.5 s on the pure-Python kernel
(2-core Intel Xeon, Python 3.11), which gives 10 or more timed passes in a
20 s run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Any, Callable

import reference as ref
from reference import expect

VOLATILE = ("invocation", "timestamp", "wall_time_ms", "out")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    cli: bool = True


def run_cli(args: list[str]) -> tuple[int, str]:
    """`emclab <args>` in-process: (exit code, stdout)."""
    from emclab.cli import cli
    out = io.StringIO()
    argv = sys.argv
    sys.argv = ["emclab", *args]
    code = 0
    try:
        with contextlib.redirect_stdout(out):
            cli.main(args=list(args), standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = argv
    return code, out.getvalue()


def cli_op(name, args, check_payload, code=0) -> Op:
    """A CLI operation expected to exit with `code`; `check_payload` gets
    the parsed JSON report."""
    def check(result):
        got, text = result
        expect(got == code, f"exit code {got}, expected {code}")
        payload = json.loads(text)
        check_payload(payload)
        return json.dumps({k: v for k, v in payload.items() if k not in VOLATILE},
                          sort_keys=True)
    return Op(name, lambda: run_cli(args), check)


def write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def random_graph(rng: random.Random, n: int, k: int, m: int):
    return sorted(rng.sample(list(combinations(range(1, n + 1), k)), m))


# --- emc-frontier ----------------------------------------------------------

EMC_CELLS = [(11, 4, 1), (12, 3, 3), (12, 4, 1), (13, 3, 2), (13, 3, 3)]
EMC_PROBES = [(15, 5, 2, 300), (16, 4, 3, 50)]   # (n, k, s, node budget)


def emc_frontier(seed: int, workdir: str) -> list[Op]:
    def exhaustive(n, k, s):
        def check(p):
            want = ref.emc_formula(n, k, s)
            expect(p["formula"] == want, f"formula {p['formula']} != {want}")
            expect(p["exhausted"] and p["match"], "search not exhausted or no match")
            expect(p["oracle"] == want == p["witness_edges"], f"oracle {p['oracle']} != {want}")
        return cli_op(f"verify-emc({n},{k},{s})",
                      ["verify-emc", "--n", str(n), "--k", str(k), "--s", str(s)], check)

    def probe(n, k, s, budget):
        def check(p):
            want = ref.emc_formula(n, k, s)
            expect(p["formula"] == want, f"formula {p['formula']} != {want}")
            expect(not p["exhausted"], "probe unexpectedly exhausted")
            expect(0 <= p["oracle"] <= want, f"lower bound {p['oracle']} > {want}")
        return cli_op(f"verify-emc({n},{k},{s},budget={budget})",
                      ["verify-emc", "--n", str(n), "--k", str(k), "--s", str(s),
                       "--budget", str(budget)], check, code=2)

    return [exhaustive(*c) for c in EMC_CELLS] + [probe(*c) for c in EMC_PROBES]


# --- lp-dense --------------------------------------------------------------

# (label, n, k, s or None for K(n,k)); nu* is n/k for K(n,k) and s for H1
# five instances, so that the median operation is the middle pair
LP_DENSE = [("K(8,3)", 8, 3, None), ("K(9,3)", 9, 3, None), ("K(9,4)", 9, 4, None),
            ("H1(12,4,2)", 12, 4, 2), ("H1(14,3,3)", 14, 3, 3)]


def lp_dense(seed: int, workdir: str) -> list[Op]:
    ops = []
    for label, n, k, s in LP_DENSE:
        edges = ref.complete_edges(n, k) if s is None else ref.hi_edges(n, k, s, 1)
        path = write(workdir, f"{label}.khg", ref.khg_text(n, k, edges))
        want = Fraction(n, k) if s is None else Fraction(s)

        def check(p, edges=edges, n=n, want=want):
            expect(Fraction(p["nu_star"]) == want, f"nu* {p['nu_star']} != {want}")
            expect(Fraction(p["tau_star"]) == want, f"tau* {p['tau_star']} != {want}")
            weights = {tuple(map(int, e.split())): Fraction(w) for e, w in p["weights"].items()}
            ref.check_packing(weights, edges, range(1, n + 1), want)
            ref.check_cover({int(v): Fraction(w) for v, w in p["cover"].items()}, edges, want)
            expect(p["slackness"]["ok"], "complementary slackness violated")
        ops.append(cli_op(f"nufrac {label}", ["nufrac", path, "--dual", "--slackness"], check))
    return ops


# --- lp-chain --------------------------------------------------------------

PROFILE = (10, 1)                                  # profile of H1(n,4,s)
CHAIN_SLOTS = [(6, 12), (7, 18), (8, 22)]          # (n, edges) before stabilizing
HI_GRID = [(12, 3, 2, 2), (15, 3, 2, 1), (14, 3, 3, 1),
           (12, 4, 1, 3), (13, 4, 1, 2), (16, 4, 2, 3)]   # (n, k, s, i)


def lp_chain(seed: int, workdir: str) -> list[Op]:
    from emclab.hypergraph import new_hypergraph
    from emclab.lp import lex_max_fractional_matching
    from emclab.shifting import stabilize

    n, s = PROFILE
    path = write(workdir, "profile.khg", ref.khg_text(n, 4, ref.hi_edges(n, 4, s, 1)))
    eps = Fraction(1, 1000)

    def check_profile(p):
        links = comb(n - s - 1, 3)
        for name in ("raw", "saturated"):
            q = p[name]
            expect((q["a"], q["b"], q["mu"]) == ("1", "0", "0"), f"{name}: (a,b,mu) wrong")
            want = {"": 0, **{str(i): links for i in range(1, s + 1)}, str(s + 1): 0}
            expect(q["link_sizes"] == want, f"{name}: link sizes {q['link_sizes']}")
            expect(q["lhs_lowerbound"] == s * links, f"{name}: lhs {q['lhs_lowerbound']}")
            expect(Fraction(q["rhs_lowerbound"]) == s * links - eps * n**4, f"{name}: rhs")
    ops = [cli_op(f"profile H1({n},4,{s})",
                  ["profile", path, "--s", str(s), "--epsilon", str(eps)], check_profile)]

    rng = random.Random(seed)
    for n_, m in CHAIN_SLOTS:
        g, _log = stabilize(new_hypergraph(n_, 4, random_graph(rng, n_, 4, m)))
        greedy = ref.greedy_matching(g.edges)
        target = len(greedy)
        # the greedy integral matching is feasible, so the lex-max load
        # vector must be lexicographically at least its load vector
        covered = {v for e in greedy for v in e}
        floor = [int(v in covered) for v in g.vertices]

        def check(fm, g=g, target=target, floor=floor):
            ref.check_packing(fm.weights, g.edges, g.vertices, Fraction(target))
            loads = ref.loads_of(fm.weights, g.vertices)
            expect([loads[v] for v in g.vertices] >= floor, "load vector not lex-maximal")
            return repr(sorted(fm.weights.items()))
        ops.append(Op(f"lex-max n={n_} e={g.num_edges}",
                      lambda g=g, t=target: lex_max_fractional_matching(g, g.vertices, t),
                      check, cli=False))

    for n_, k, s_, i in HI_GRID:
        edges = ref.hi_edges(n_, k, s_, i)
        path = os.path.join(workdir, f"H{i}({n_},{k},{s_}).khg")

        def check_gen(p, edges=edges, path=path, n_=n_, k=k):
            expect(p["edges"] == len(edges), f"gen wrote {p['edges']} edges, want {len(edges)}")
            with open(path) as fh:
                expect(fh.read() == ref.khg_text(n_, k, edges), "gen output differs")

        def check_nu(p, edges=edges, s_=s_):
            expect(p["nu"] == s_, f"nu {p['nu']} != {s_}")
            ref.check_matching([tuple(e) for e in p["witness"]], edges, s_)
        tag = f"H{i}({n_},{k},{s_})"
        ops.append(cli_op(f"gen {tag}", ["gen", "--family", "hi", "--n", str(n_), "--k", str(k),
                                         "--s", str(s_), "--i", str(i), "-o", path], check_gen))
        ops.append(cli_op(f"nu {tag}", ["nu", path], check_nu))
    return ops


# --- toolkit ---------------------------------------------------------------

SHIFT_SLOTS = [(14, 200), (15, 300), (16, 400), (18, 500)]   # (n, edges), k = 4
ROUND_TRIP = (24, 4)        # K(24,4) through serialize_khg and parse_khg
SAMPLE = (30, 4, 2, 2, 12)  # sample K(30,4) with t, s, copies


def toolkit(seed: int, workdir: str) -> list[Op]:
    from emclab.certify import c_coeff, eval_calculate_margin
    from emclab.hypergraph import complete_hypergraph, parse_khg, serialize_khg
    from emclab.scalars import DELTA, eval_f_lemma_convex

    ops = []
    rng = random.Random(seed)
    for idx, (n, m) in enumerate(SHIFT_SLOTS):
        edges = random_graph(rng, n, 4, m)
        src = write(workdir, f"shift{idx}.khg", ref.khg_text(n, 4, edges))
        out = os.path.join(workdir, f"shift{idx}.out.khg")

        def check_shift(p, out=out, m=m, label_sum=sum(map(sum, edges))):
            with open(out) as fh:
                text = fh.read()
            n_, k_, got = ref.khg_edges(text)
            expect(text == ref.khg_text(n_, k_, got), ".khg round trip not byte-identical")
            expect(p["edges"] == len(got) == m, f"stabilize changed the edge count to {len(got)}")
            expect(ref.is_stable(got), "stabilize output is not stable")
            expect(sum(map(sum, got)) <= label_sum, "shifting raised the label sum")
        ops.append(cli_op(f"shift n={n} e={m}", ["shift", src, "-o", out], check_shift))

    n, k = ROUND_TRIP
    h = complete_hypergraph(n, k)
    want_text = ref.khg_text(n, k, h.edges)

    def round_trip():
        text = serialize_khg(h)
        return text, parse_khg(text)

    def check_round_trip(result):
        text, back = result
        expect(text == want_text, "serialize_khg output differs from the format")
        expect(back.edges == h.edges, "parse_khg lost edges")
        return str(len(text))
    ops.append(Op(f"khg round trip K({n},{k})", round_trip, check_round_trip, cli=False))

    n, k, t, s, copies = SAMPLE
    path = write(workdir, "sample.khg", ref.khg_text(n, k, ref.complete_edges(n, k)))

    def check_sample(p):
        want = ref.sampled_copies(range(1, n + 1), t, k, copies, seed)
        expect(p["sizes"] == [len(c) for c in want], f"copy sizes {p['sizes']}")
        expect(p["multiplicities"] == ref.complete_multiplicities(want, k),
               f"multiplicities {p['multiplicities']}")
    ops.append(cli_op(f"sample K({n},{k})", ["sample", path, "--t", str(t), "--s", str(s),
                                            "--copies", str(copies), "--seed", str(seed)],
                      check_sample))

    for target in ("calculate", "maxvalue"):
        cert = os.path.join(workdir, f"{target}.cert")

        def check_proved(p, target=target):
            expect(p["status"] == "proved" and p["target"] == target, f"status {p['status']}")

        def check_replay(p, cert=cert):
            with open(cert) as fh:
                boxes = sum(ln.startswith("box ") for ln in fh)
            expect(p["ok"] and p["status"] == "proved", "replay rejected the certificate")
            expect(p["boxes"] == boxes > 0, f"replayed {p['boxes']} of {boxes} boxes")
        ops.append(cli_op(f"verify-ineq {target}",
                          ["verify-ineq", "--target", target, "-o", cert], check_proved))
        ops.append(cli_op(f"verify-cert {target}", ["verify-cert", cert], check_replay))

    def check_negate_lead(p):
        expect(p["status"] == "counterexample", f"status {p['status']}")
        x, y, z = (Fraction(p["counterexample"][c]) for c in "xyz")
        expect(0 < 5 * z < y <= x <= Fraction(3, 4) and z <= Fraction(1, 10**5),
               "counterexample outside the region")
        expect(eval_calculate_margin(x, y, z, "negate-lead") <= 0, "margin is positive")

    def check_negate_c5(p):
        expect(p["status"] == "counterexample", f"status {p['status']}")
        pt = {c: Fraction(v) for c, v in p["counterexample"].items()}
        a, b, alpha = pt["a"], pt["b"], pt["alpha"]
        expect(Fraction(1, 4) <= b <= a < 1 and 0 <= alpha <= 1 / (4 - DELTA),
               "counterexample outside the region")
        beta = 1 - DELTA + 3 * a - (4 - DELTA) * b
        margin = c_coeff(int(pt["i"]), alpha, (1 - a) / (1 - b), beta, "negate-c5-term")
        expect(margin <= 0, "margin is positive")
    ops.append(cli_op("mutation negate-lead", ["verify-ineq", "--target", "calculate",
                                               "--mutation", "negate-lead"],
                      check_negate_lead, code=1))
    ops.append(cli_op("mutation negate-c5-term", ["verify-ineq", "--target", "maxvalue",
                                                  "--mutation", "negate-c5-term"],
                      check_negate_c5, code=1))

    def check_convex(p):
        step = Fraction(3, 4) / 100
        vals = [eval_f_lemma_convex(i * step, 30, 4, 5, Fraction(1, 2)) for i in range(101)]
        low = min(vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, 100))
        expect(p["all_nonneg"] and p["hj_all_nonpos"], "convexity check failed")
        expect(Fraction(p["min_second_diff"]) == low >= 0, "min second difference differs")
    ops.append(cli_op("verify-ineq convex", ["verify-ineq", "--target", "convex"], check_convex))
    return ops


WORKLOADS: dict[str, Callable[[int, str], list[Op]]] = {
    "emc-frontier": emc_frontier,
    "lp-dense": lp_dense,
    "lp-chain": lp_chain,
    "toolkit": toolkit,
}
