"""Batch command-line interface.

Exit codes: 0 success / proved / match; 1 mismatch / counterexample;
2 budget exhausted; 3 usage error.  All reports are JSON with the full
invocation and tool version embedded; hypergraphs travel as .khg text.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

import click

from emclab import __version__
from emclab.hypergraph import (HypergraphError, closeness, complete_hypergraph,
                               parse_khg, serialize_khg)
from emclab.lp import (check_complementary_slackness, fractional_matching_and_cover,
                       fractional_matching_number)
from emclab.matching import cover_number, matching_number

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
# reports and certificates print numbers that grow from a flag's digits, and
# CPython prints no int past 4300 digits
_MAX_RATIONAL_DIGITS = 1000


class RationalParam(click.ParamType):
    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        # private: perfbench times every public function of intervals as certify work
        from emclab.intervals import _token_ratio
        try:
            v = Fraction(*_token_ratio(value))
        except (ValueError, ZeroDivisionError) as exc:
            self.fail(f"expected a rational like 3/8, got {value!r}: {exc}", param, ctx)
        if max(abs(v.numerator), v.denominator) >= 10**_MAX_RATIONAL_DIGITS:
            self.fail(f"numerator or denominator past {_MAX_RATIONAL_DIGITS} digits", param, ctx)
        return v


RATIONAL = RationalParam()


def _report(payload: dict, seed=None) -> str:
    out = {
        "invocation": sys.argv[1:],
        "version": __version__,
        "timestamp": int(time.time()),
    }
    if seed is not None:
        out["seed"] = seed
    out.update(payload)
    return json.dumps(out, sort_keys=True, default=str, indent=2)


def _load(path: str):
    try:
        with open(path) as fh:
            return parse_khg(fh.read())
    except (OSError, HypergraphError) as exc:
        raise click.UsageError(f"cannot read hypergraph {path}: {exc}")


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


class _Command(click.Command):
    """Maps HypergraphError, the library's rejection of bad input, to this
    subcommand's usage error (exit 3).  Any other exception is a fault and
    propagates."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except HypergraphError as exc:
            raise click.UsageError(str(exc), ctx) from exc


@click.group()
def cli():
    """Exact tools for matchings in uniform hypergraphs."""


cli.command_class = _Command


@cli.command()
@click.option("--family", type=click.Choice(["hi", "huw", "hpuw", "complete"]),
              required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--s", type=int, default=None, help="s for hi (default 0)")
@click.option("--i", "i_", type=int, default=None, help="i for hi (default 1)")
@click.option("--u-size", type=int, default=None,
              help="|U| for huw/hpuw (U = [u_size], default 0)")
@click.option("--p", type=int, default=None, help="p for hpuw (required, 1 <= p <= k)")
@click.option("--out", "-o", type=click.Path(), required=True)
def gen(family, n, k, s, i_, u_size, p, out):
    """Generate a named family as a .khg file."""
    from emclab.constructions import build_Hi, build_HpUW, build_HUW
    reads = {"hi": ("--s", "--i"), "huw": ("--u-size",), "hpuw": ("--u-size", "--p"),
             "complete": ()}[family]
    for flag, value in (("--s", s), ("--i", i_), ("--u-size", u_size), ("--p", p)):
        if value is not None and flag not in reads:
            raise click.UsageError(f"{flag} does not apply to family {family}")
    if family == "hpuw" and p is None:
        raise click.UsageError("family hpuw needs --p (1 <= p <= k)")
    s, u_size = s or 0, u_size or 0
    i_ = 1 if i_ is None else i_
    if family in ("huw", "hpuw") and u_size > n:
        raise HypergraphError(f"need u_size <= n, got u_size={u_size}, n={n}")
    if family == "hi":
        h = build_Hi(n, k, s, i_)
    elif family == "huw":
        h = build_HUW(range(1, u_size + 1), range(u_size + 1, n + 1), k)
    elif family == "hpuw":
        h = build_HpUW(range(1, u_size + 1), range(u_size + 1, n + 1), k, p)
    else:
        h = complete_hypergraph(n, k)
    _write(out, serialize_khg(h))
    click.echo(_report({"family": family, "n": h.n, "k": h.k, "edges": h.num_edges,
                        "out": out}))


@cli.command()
@click.argument("path", type=click.Path(exists=True))
def nu(path):
    """Exact matching number."""
    h = _load(path)
    value, witness = matching_number(h)
    click.echo(_report({"nu": value, "witness": [list(e) for e in witness.edges]}))


@cli.command()
@click.argument("path", type=click.Path(exists=True))
def tau(path):
    """Exact vertex cover number."""
    h = _load(path)
    value = cover_number(h)
    click.echo(_report({"tau": value}))


@cli.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--dual", is_flag=True, help="also report the optimal fractional cover")
@click.option("--slackness", is_flag=True, help="complementary slackness report")
@click.option("--trace", type=click.Path(), default=None,
              help="write the simplex pivot log to this file")
def nufrac(path, dual, slackness, trace):
    """Exact fractional matching number (LP optimum)."""
    h = _load(path)
    pivots = [] if trace else None
    nu_star, fm, fc = fractional_matching_and_cover(h, trace=pivots)
    payload = {"nu_star": str(nu_star),
               "weights": {" ".join(map(str, e)): str(w)
                           for e, w in sorted(fm.weights.items())}}
    if dual or slackness:
        payload["tau_star"] = str(fc.size)
        if dual:
            payload["cover"] = {str(v): str(w) for v, w in sorted(fc.weights.items()) if w}
        if slackness:
            rep = check_complementary_slackness(h, fm, fc)
            payload["slackness"] = {
                "support_size": rep.support_size, "bound": str(rep.bound),
                "ok": rep.saturated_ok, "violations": list(rep.violations)}
    if trace:
        _write(trace, "".join(f"phase {phase} enter {enter} leave {leave}\n"
                              for phase, enter, leave in pivots))
    click.echo(_report(payload))


@cli.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--out", "-o", type=click.Path(), default=None)
@click.option("--log", "show_log", is_flag=True)
def shift(path, out, show_log):
    """Stabilize a family by repeated compressions."""
    from emclab.shifting import stabilize
    h = _load(path)
    stable, log = stabilize(h)
    if out:
        _write(out, serialize_khg(stable))
    payload = {"edges": stable.num_edges, "shifts": len(log)}
    if show_log:
        payload["log"] = [list(p) for p in log]
    click.echo(_report(payload))


@cli.command("verify-emc")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--budget", type=int, default=10**7)
def verify_emc_cmd(n, k, s, budget):
    """Brute-force the extremal edge count and compare to the formula."""
    from emclab.verifier import verify_emc
    rep = verify_emc(n, k, s, budget)
    click.echo(_report(rep))
    if not rep["exhausted"]:
        sys.exit(EXIT_BUDGET)
    if not rep["match"]:
        sys.exit(EXIT_MISMATCH)


@cli.command("closeness")
@click.argument("g_path", type=click.Path(exists=True))
@click.argument("h_path", type=click.Path(exists=True))
@click.option("--epsilon", type=RATIONAL, required=True)
def closeness_cmd(g_path, h_path, epsilon):
    """Asymmetric edit-distance closeness |E(H) \\ E(G)| < eps * n^k."""
    g = _load(g_path)
    h = _load(h_path)
    rep = closeness(g, h, epsilon)
    click.echo(_report({"missing": rep.missing_count, "ratio": str(rep.ratio),
                        "epsilon": str(rep.epsilon), "is_close": rep.is_close}))
    if not rep.is_close:
        sys.exit(EXIT_MISMATCH)


@cli.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--s", type=int, required=True)
@click.option("--epsilon", type=RATIONAL, required=True)
def profile(path, s, epsilon):
    """Cover-derived diagnostics of a stable 4-graph (raw and saturated)."""
    from emclab.verifier import MatchingTooLarge, extremal_profile
    h = _load(path)
    try:
        profs = extremal_profile(h, s, epsilon)
    except MatchingTooLarge as exc:
        click.echo(_report({"error": "matching number too large",
                            "nu_star": str(exc.nu_star)}))
        sys.exit(EXIT_MISMATCH)
    payload = {}
    for name, p in profs.items():
        payload[name] = {
            "s": p.s, "m": p.m, "a": str(p.a), "b": str(p.b),
            "mu": str(p.mu) if p.mu is not None else None, "beta": str(p.beta),
            "link_sizes": {",".join(map(str, k_)): v
                           for k_, v in sorted(p.link_sizes.items())},
            "lhs_lowerbound": p.lhs_lowerbound,
            "rhs_lowerbound": str(p.rhs_lowerbound),
        }
    click.echo(_report(payload))


@cli.command("verify-ineq")
@click.option("--target", type=click.Choice(["calculate", "maxvalue", "convex"]),
              required=True)
@click.option("--zmax", type=RATIONAL, default=None,
              help="z_max for target calculate (default 1/10^5)")
@click.option("--depth", type=int, default=None,
              help="bisection depth limit for calculate and maxvalue (default 60)")
@click.option("--max-boxes", type=int, default=None,
              help="box budget for calculate and maxvalue (default 10^7)")
@click.option("--mutation", type=str, default=None)
@click.option("--out", "-o", type=click.Path(), default=None,
              help="write the certificate of calculate or maxvalue to this file")
def verify_ineq(target, zmax, depth, max_boxes, mutation, out):
    """Certify an inequality by interval branch-and-prune."""
    if zmax is not None and target != "calculate":
        raise click.UsageError(f"--zmax applies only to target calculate, not {target}")
    if target == "convex":
        if mutation is not None:
            raise click.UsageError(f"unknown mutation {mutation!r} for target convex")
        for flag, value in (("--depth", depth), ("--max-boxes", max_boxes), ("--out", out)):
            if value is not None:
                raise click.UsageError(f"{flag} does not apply to target convex")
        from emclab.scalars import check_convexity, eval_f_lemma_convex
        rep = check_convexity(
            lambda x: eval_f_lemma_convex(x, 30, 4, 5, Fraction(1, 2)),
            0, Fraction(3, 4), 101, hj_params=(30, 4, 5, Fraction(1, 2)))
        click.echo(_report({"target": "convex", "all_nonneg": rep.all_nonneg,
                            "min_second_diff": str(rep.min_second_diff),
                            "hj_all_nonpos": rep.hj_all_nonpos}))
        if not (rep.all_nonneg and rep.hj_all_nonpos):
            sys.exit(EXIT_MISMATCH)
        return
    from emclab.certify import certify_calculate_lemma, certify_maxvalue_coeffs
    limits = {name: value for name, value in (("max_depth", depth), ("max_boxes", max_boxes))
              if value is not None}
    try:
        if target == "calculate":
            cert = certify_calculate_lemma(Fraction(1, 10**5) if zmax is None else zmax,
                                           mutation=mutation, **limits)
        else:
            cert = certify_maxvalue_coeffs(mutation=mutation, **limits)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if out:
        _write(out, cert.serialize())
    click.echo(_report({"target": cert.target, "status": cert.status,
                        "boxes": len(cert.boxes), "splits": cert.splits,
                        "counterexample": cert.counterexample}))
    if cert.status == "counterexample":
        sys.exit(EXIT_MISMATCH)
    if cert.status == "budget_exhausted":
        sys.exit(EXIT_BUDGET)


@cli.command("verify-cert")
@click.argument("path", type=click.Path(exists=True))
def verify_cert(path):
    """Replay a saved certificate: recompute every leaf margin and check
    that the leaves cover the certifier's region."""
    from emclab.certify import replay_certificate
    from emclab.intervals import parse_certificate
    try:
        with open(path) as fh:
            cert = parse_certificate(fh.read())
        rep = replay_certificate(cert)
    except (OSError, ValueError, KeyError) as exc:
        raise click.UsageError(f"cannot replay {path}: {exc}")
    click.echo(_report(rep))
    if not rep["ok"]:
        sys.exit(EXIT_MISMATCH)


@cli.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--t", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--copies", type=int, default=10)
@click.option("--seed", type=int, required=True)
def sample(path, t, s, copies, seed):
    """Sample seeded random vertex subsets and report their sizes, how many
    vertices were trimmed from each, and the pair and edge multiplicities."""
    from emclab.sampling import GENERATOR_ID, multiplicity_report, sample_batch
    h = _load(path)
    batch = sample_batch(h, t, s, copies, seed)
    click.echo(_report({
        "n_base": batch.n_base, "t": batch.t, "copies": len(batch.copies),
        "sizes": [len(c) for c in batch.copies],
        "trimmed": list(batch.trimmed),
        "multiplicities": multiplicity_report(h, batch),
        "generator": GENERATOR_ID,
    }, seed=seed))


@cli.command("round")
@click.argument("path", type=click.Path(exists=True))
@click.option("--t", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--copies", type=int, default=10)
@click.option("--seed", type=int, required=True)
@click.option("--out", "-o", type=click.Path(), default=None)
def round_cmd(path, t, s, copies, seed, out):
    """Sample copies, find per-copy perfect fractional matchings, round."""
    from emclab.hypergraph import induced
    from emclab.sampling import degree_histogram, round_to_sparse, sample_batch
    h = _load(path)
    batch = sample_batch(h, t, s, copies, seed)
    pfms = []
    for i, r in enumerate(batch.copies):
        nu_star, fm = fractional_matching_number(induced(h, r))
        if nu_star != Fraction(len(r), h.k):
            click.echo(_report({"error": f"copy {i} has no perfect fractional "
                                         f"matching (nu* = {nu_star}, |R| = {len(r)})"},
                               seed=seed))
            sys.exit(EXIT_MISMATCH)
        pfms.append(fm)
    sparse = round_to_sparse(h, batch, pfms, seed)
    if out:
        _write(out, serialize_khg(sparse))
    click.echo(_report({"kept_edges": sparse.num_edges,
                        "histogram": degree_histogram(sparse)}, seed=seed))


@cli.command()
@click.argument("path", type=click.Path(exists=True))
def greedy(path):
    """Greedy maximal matching; reports uncovered vertex count."""
    from emclab.sampling import greedy_near_perfect_matching
    h = _load(path)
    witness, uncovered = greedy_near_perfect_matching(h)
    click.echo(_report({"size": witness.size, "uncovered": uncovered,
                        "edges": [list(e) for e in witness.edges]}))


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.exceptions.Abort:
        sys.exit(EXIT_USAGE)


if __name__ == "__main__":
    main()
