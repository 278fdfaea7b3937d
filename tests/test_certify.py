import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from emclab.certify import (TARGETS, _calc_margin_box, _prove, certify_calculate_lemma,
                            certify_maxvalue_coeffs, eval_calculate_margin,
                            replay_certificate)
from emclab.intervals import Box, Interval, parse_certificate
from emclab.scalars import DELTA, eval_C_coeffs

Z = Fraction(1, 10**5)


@pytest.fixture(scope="module")
def calc_cert():
    return certify_calculate_lemma(Z)


@pytest.fixture(scope="module")
def maxvalue_cert():
    return certify_maxvalue_coeffs()


class TestCalculateLemma:
    def test_proved(self, calc_cert):
        assert calc_cert.status == "proved"
        assert calc_cert.boxes

    def test_leaves_cover_region(self, calc_cert):
        # every sampled point of the open region lies in some leaf whose
        # recorded margin is strictly positive
        probes = [
            (Fraction(3, 4), Fraction(3, 4), Z / 2),
            (Fraction(5, 8), Fraction(1, 100), Fraction(1, 10**6)),
            (Fraction(2, 3), Fraction(1, 3), Z),
            (Fraction(1, 10), Fraction(1, 20), Fraction(1, 10**6)),
        ]
        for x, y, z in probes:
            assert eval_calculate_margin(x, y, z) > 0
            mu = y / x
            hit = [m for box, m in calc_cert.boxes
                   if box.coords["mu"].contains(mu)
                   and box.coords["x"].contains(x)
                   and box.coords["z"].contains(z)]
            assert hit and all(m.lo > 0 for m in hit)

    def test_exact_margin_examples(self):
        # at y = x the first piece simplifies: (1-d)(4-d-1)^3 x^3 vs ...
        x = Fraction(1, 2)
        val = eval_calculate_margin(x, x, Fraction(1, 10**6))
        assert val > 0

    def test_zmax_domain(self):
        with pytest.raises(ValueError):
            certify_calculate_lemma(Fraction(1, 100))
        with pytest.raises(ValueError):
            certify_calculate_lemma(0)

    def test_mutation_finds_counterexample(self):
        cert = certify_calculate_lemma(Z, mutation="negate-lead")
        assert cert.status == "counterexample"
        pt = cert.counterexample
        assert eval_calculate_margin(pt["x"], pt["y"], pt["z"],
                                     mutation="negate-lead") <= 0
        # the point satisfies the region constraints
        assert 5 * pt["z"] < pt["y"] <= pt["x"] <= Fraction(3, 4)
        assert 0 < pt["z"] <= Z
        # and the unmutated inequality holds there
        assert eval_calculate_margin(pt["x"], pt["y"], pt["z"]) > 0

    def test_flip_p_mutation_still_proved(self):
        # flipping the sign of the perturbation term makes the inequality
        # weaker, so the prover still closes it
        cert = certify_calculate_lemma(Z, mutation="flip-p-sign")
        assert cert.status == "proved"

    def test_unknown_mutation(self):
        with pytest.raises(ValueError):
            eval_calculate_margin(1, 1, Fraction(1, 10**6), mutation="wat")

    def test_x_zero_refused(self):
        # x = 0 has no homogenized form; it lies outside the region
        with pytest.raises(ValueError, match="x = 0"):
            eval_calculate_margin(0, Fraction(1, 3), Fraction(1, 10))


class TestMaxvalueCoeffs:
    def test_proved(self, maxvalue_cert):
        assert maxvalue_cert.status == "proved"
        tags = {box.region_tag for box, _ in maxvalue_cert.boxes}
        assert tags == {"C1", "C2", "C3", "C4", "C5"}

    def test_agrees_with_scalar_evaluator(self, maxvalue_cert):
        # positivity certified by the prover must hold for the direct
        # (a, b)-coordinate evaluator on a sample grid
        for num_a in (8, 10, 12, 15):
            a = Fraction(num_a, 16)
            for num_b in (4, 5, 6):
                b = Fraction(num_b, 16)
                for i in (1, 4, 5):
                    assert eval_C_coeffs(Fraction(1, 5), a, b, i) > 0

    def test_mutation_finds_counterexample(self):
        cert = certify_maxvalue_coeffs(mutation="negate-c5-term")
        assert cert.status == "counterexample"
        pt = cert.counterexample
        assert int(pt["i"]) == 5
        assert Fraction(1, 4) <= pt["b"] <= pt["a"] < 1


class TestReplay:
    def test_replay_ok(self, calc_cert, maxvalue_cert):
        for cert in (calc_cert, maxvalue_cert):
            out = replay_certificate(cert)
            assert out["ok"]
            assert out["boxes"] == len(cert.boxes)
            assert not out["failures"]

    def test_replay_survives_serialization(self, calc_cert):
        again = parse_certificate(calc_cert.serialize())
        assert replay_certificate(again)["ok"]

    def test_tampered_margin_detected(self, calc_cert):
        box, margin = calc_cert.boxes[0]
        forged = Interval(margin.lo + 1, margin.hi + 1)
        tampered = type(calc_cert)(
            target=calc_cert.target, status="proved",
            boxes=((box, forged),) + calc_cert.boxes[1:],
            splits=calc_cert.splits, zmax=calc_cert.zmax)
        out = replay_certificate(tampered)
        assert not out["ok"]
        assert "stored margin does not match recomputation" in out["failures"]

    def test_unknown_target(self, calc_cert):
        bad = type(calc_cert)(target="nope", status="proved", boxes=(), splits=0)
        with pytest.raises(ValueError):
            replay_certificate(bad)


    def test_replay_reports_zmax(self, calc_cert, maxvalue_cert):
        assert replay_certificate(calc_cert)["zmax"] == "1/100000"
        assert "zmax" not in replay_certificate(maxvalue_cert)

    def test_missing_zmax_never_ok(self, calc_cert, negate_lead_cert):
        # without z_max neither the region nor the roots exist: not a
        # failure to report but a file that cannot be read
        for cert in (calc_cert, negate_lead_cert):
            with pytest.raises(ValueError, match="target calculate needs a zmax"):
                replay_certificate(replace(cert, zmax=None))

    def test_smaller_zmax_leaves_branches_uncovered(self):
        # a certificate for a smaller z_max does not cover the larger region
        small = certify_calculate_lemma(Z / 2)
        out = replay_certificate(replace(small, zmax=Z))
        assert not out["ok"]
        assert any(f.startswith("branches ending in no stored leaf")
                   for f in out["failures"])

    def test_stored_splits_must_match_tree(self, maxvalue_cert):
        out = replay_certificate(replace(maxvalue_cert, splits=maxvalue_cert.splits + 1))
        assert not out["ok"]
        assert out["failures"] == ["splits: 132 stored, 131 in the bisection tree"]

    def test_degenerate_leaf_is_outside_the_tree(self, calc_cert):
        # a point leaf lies in infinitely many nested nodes; the walk must
        # stop on it rather than split forever
        box, _ = calc_cert.boxes[0]
        point = type(box)({"mu": Interval.make(Fraction(1, 3), Fraction(1, 3)),
                           "x": Interval.make(Fraction(7, 10), Fraction(7, 10)),
                           "z": Interval.make(Z / 3, Z / 3)}, "2/3<x<=3/4")
        out = replay_certificate(replace(
            calc_cert, boxes=((point, _calc_margin_box(point, None)),)))
        assert not out["ok"]
        assert "leaves outside the bisection tree: 1" in out["failures"]


@pytest.fixture(scope="module")
def negate_lead_cert():
    return parse_certificate(certify_calculate_lemma(Z, mutation="negate-lead").serialize())


@pytest.fixture(scope="module")
def negate_c5_cert():
    return parse_certificate(certify_maxvalue_coeffs(mutation="negate-c5-term").serialize())


class TestCounterexampleReplay:
    """A counterexample file is confirmed at its point, under its recorded
    mutation; it is never `ok`, because it proves nothing."""

    def test_mutation_recorded(self, negate_lead_cert, negate_c5_cert):
        assert negate_lead_cert.mutation == "negate-lead"
        assert negate_c5_cert.mutation == "negate-c5-term"
        assert "\nmutation negate-lead\n" in certify_calculate_lemma(
            Z, mutation="negate-lead").serialize()

    def test_genuine_confirmed(self, negate_lead_cert, negate_c5_cert):
        for cert in (negate_lead_cert, negate_c5_cert):
            out = replay_certificate(cert)
            assert out["confirmed"] and out["failures"] == [] and not out["ok"]
            assert Fraction(out["margin"]) <= 0
            assert out["mutation"] == cert.mutation
        pt = negate_lead_cert.counterexample
        assert Fraction(replay_certificate(negate_lead_cert)["margin"]) == (
            eval_calculate_margin(pt["x"], pt["y"], pt["z"], "negate-lead"))

    def test_moved_point_rejected(self, negate_c5_cert):
        # alpha = 0 stays in the region, where the broken C_5 is positive
        out = replay_certificate(replace(
            negate_c5_cert, counterexample={**negate_c5_cert.counterexample,
                                            "alpha": Fraction(0)}))
        assert not out["confirmed"] and Fraction(out["margin"]) > 0
        assert out["failures"] == [
            f"margin {out['margin']} > 0 at the point: not a counterexample"]

    @pytest.mark.parametrize("coord, value", [
        ("x", Fraction(1)), ("z", Fraction(0)), ("y", Fraction(1, 2))])
    def test_out_of_region_point_rejected(self, negate_lead_cert, coord, value):
        cert = replace(negate_lead_cert,
                       counterexample={**negate_lead_cert.counterexample, coord: value})
        out = replay_certificate(cert)
        assert not out["confirmed"] and "margin" not in out
        assert out["failures"] == ["point outside the region of target calculate"]

    def test_wrong_or_missing_mutation_rejected(self, negate_lead_cert):
        for mutation in ("flip-p-sign", None):
            out = replay_certificate(replace(negate_lead_cert, mutation=mutation))
            assert not out["confirmed"] and Fraction(out["margin"]) > 0
            assert out["failures"][0].endswith("at the point: not a counterexample")
        out = replay_certificate(replace(negate_lead_cert, mutation="negate-c5-term"))
        assert out["failures"] == ["unknown mutation 'negate-c5-term' for target calculate"]

    def test_missing_or_partial_point_rejected(self, negate_lead_cert):
        for point in (None, {"x": Fraction(1, 2), "y": Fraction(1, 4)}):
            out = replay_certificate(replace(negate_lead_cert, counterexample=point))
            assert out["failures"] == ["point must give x, y, z"]

    def test_proved_with_mutation_never_ok(self, calc_cert):
        flipped = certify_calculate_lemma(Z, mutation="flip-p-sign")
        assert flipped.status == "proved" and flipped.mutation == "flip-p-sign"
        for cert in (flipped, replace(calc_cert, mutation="negate-lead")):
            out = replay_certificate(parse_certificate(cert.serialize()))
            assert not out["ok"]
            assert f"proved under mutation {cert.mutation}: not a proof of the inequality" \
                in out["failures"]


def _box_digest(cert) -> str:
    lines = [ln + "\n" for ln in cert.serialize().splitlines() if ln.startswith("box ")]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


class TestPinnedEnclosures:
    """Every enclosure, and so every certificate, is pinned: a change to the
    interval arithmetic or to the margins' term grouping shows up here."""

    def test_calculate(self, calc_cert):
        assert (len(calc_cert.boxes), calc_cert.splits) == (71, 68)
        assert _box_digest(calc_cert) == (
            "ab8e1f80bec1c90b5fada1893ba441484d6692cc89788b01e854c645f3830d81")

    def test_maxvalue(self, maxvalue_cert):
        assert (len(maxvalue_cert.boxes), maxvalue_cert.splits) == (136, 131)
        assert _box_digest(maxvalue_cert) == (
            "8d86aabe6b29439d59e35fffad114506bd202c99645b145a47c4a1e37b85255e")

    def test_negate_lead(self):
        cert = certify_calculate_lemma(Z, mutation="negate-lead")
        assert cert.splits == 0
        assert cert.counterexample == {"x": Fraction(5, 16), "y": Fraction(5, 32),
                                       "z": Fraction(1, 100000)}

    def test_negate_c5_term(self):
        cert = certify_maxvalue_coeffs(mutation="negate-c5-term")
        assert cert.splits == 208
        assert cert.counterexample == {
            "a": Fraction(12698473700161, 17592186044416),
            "alpha": Fraction(8959990234375, 40959999998976),
            "b": Fraction(2097155, 8388608), "i": Fraction(5)}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_target_record_agrees_with_its_prover(target):
    """The unmutated proof replays `ok`; each mutation the record names gives
    a counterexample that replay confirms, or a proof that replay refuses."""
    rec = TARGETS[target]
    z_max = Z if rec.takes_zmax else None
    proof = _prove(target, z_max, None, 60, 10**7)
    assert replay_certificate(parse_certificate(proof.serialize()))["ok"]
    for mutation in rec.mutations:
        cert = _prove(target, z_max, mutation, 60, 10**7)
        out = replay_certificate(parse_certificate(cert.serialize()))
        assert not out["ok"]
        if cert.status == "counterexample":
            assert out["confirmed"] and out["failures"] == []
        else:
            assert cert.status == "proved"
            assert (f"proved under mutation {mutation}: not a proof of the inequality"
                    in out["failures"])


class TestBudget:
    def test_tiny_box_budget_reported(self):
        cert = certify_calculate_lemma(Z, max_boxes=2)
        assert cert.status == "budget_exhausted"

    def test_depth_zero_cannot_close(self):
        cert = certify_maxvalue_coeffs(max_depth=0)
        assert cert.status == "budget_exhausted"


def _fraction_leaf_key(leaf):
    """The leaf order key `_prove` used on `Fraction` endpoints."""
    box, _ = leaf
    return (box.region_tag, sorted((n, iv.lo, iv.hi) for n, iv in box.coords.items()))


@pytest.fixture(params=["calculate", "maxvalue"])
def proof(request, calc_cert, maxvalue_cert):
    return {"calculate": calc_cert, "maxvalue": maxvalue_cert}[request.param]


class TestLeafOrder:
    """`_prove` sorts its leaves by `Box.sort_keys`, whose int keys must give
    the order of the `Fraction` key, whatever the leaves' denominators."""

    def test_prover_order_is_the_fraction_order(self, proof):
        assert list(proof.boxes) == sorted(proof.boxes, key=_fraction_leaf_key)

    @pytest.mark.parametrize("source", ["memory", "parsed", "mixed"])
    def test_shuffled_leaves(self, proof, source):
        # in memory the endpoints keep the prover's unreduced denominators;
        # parsed, they are read from reduced tokens; mixed, equal values
        # with different denominators meet in one sort
        parsed = parse_certificate(proof.serialize())
        leaves = {"memory": list(proof.boxes), "parsed": list(parsed.boxes),
                  "mixed": list(proof.boxes) + list(parsed.boxes)}[source]
        rng = random.Random(f"leaf-order-{proof.target}-{source}")
        for _ in range(5):
            rng.shuffle(leaves)
            keys = Box.sort_keys([box for box, _ in leaves])
            got = [leaves[j] for j in sorted(range(len(leaves)), key=keys.__getitem__)]
            want = sorted(leaves, key=_fraction_leaf_key)
            assert [id(leaf) for leaf in got] == [id(leaf) for leaf in want]


def _degenerate_first(cert):
    box, _ = cert.boxes[0]
    point = Box({n: Interval.point(iv.mid) for n, iv in box.coords.items()}, box.region_tag)
    return replace(cert, boxes=((point, TARGETS[cert.target].margin(point, None)),)
                   + cert.boxes[1:])


def _bumped_first(cert):
    box, margin = cert.boxes[0]
    return replace(cert, boxes=((box, Interval(margin.lo, margin.hi + 1)),) + cert.boxes[1:])


TAMPERS = {
    "none": lambda c: c,
    "dropped-leaf": lambda c: replace(c, boxes=c.boxes[:-1]),
    "duplicated-leaf": lambda c: replace(c, boxes=c.boxes + c.boxes[:1]),
    "wrong-splits": lambda c: replace(c, splits=c.splits - 1),
    "degenerate-leaf": _degenerate_first,
    "bumped-margin": _bumped_first,
}


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_replay_same_in_memory_and_parsed(proof, tamper):
    """Coverage and margin checks compare endpoints exactly: the prover's
    unreduced denominators and a file's reduced ones give one report."""
    cert = TAMPERS[tamper](proof)
    out = replay_certificate(cert)
    assert out == replay_certificate(parse_certificate(cert.serialize()))
    assert out["ok"] == (tamper == "none")


class TestMalformedLines:
    """A line the parser would otherwise read last-wins, or read in part, is
    refused with ValueError (verify-cert exit 3)."""

    @pytest.fixture(scope="class")
    def texts(self):
        return {"proof": certify_calculate_lemma(Z, max_boxes=40, max_depth=3).serialize(),
                "point": certify_calculate_lemma(Z, mutation="negate-lead").serialize()}

    def test_point_token_with_second_equals(self, texts):
        text = texts["point"].replace("x=5/16", "x=5/16=junk")
        with pytest.raises(ValueError, match="point token 'x=5/16=junk' is not name=value"):
            parse_certificate(text)

    def test_point_coordinate_given_twice(self, texts):
        text = texts["point"].replace("z=1/100000", "z=1/100000 x=1")
        with pytest.raises(ValueError, match="point gives x twice"):
            parse_certificate(text)

    @pytest.mark.parametrize("key", ["format", "target", "status", "splits", "boxes", "zmax",
                                     "mutation", "coords", "point"])
    def test_single_line_given_twice(self, texts, key):
        text = texts["proof" if key == "coords" else "point"]
        line = next(ln for ln in text.splitlines() if ln.split()[0] == key)
        with pytest.raises(ValueError, match=f"a second {key} line"):
            parse_certificate(text + line + "\n")


class TestPinnedAnswers:
    """Pins beyond the default proofs: a second z_max's enclosures, and the
    exact margins replay reports at both counterexamples."""

    def test_calculate_half_zmax(self):
        cert = certify_calculate_lemma(Fraction(1, 200000))
        assert (len(cert.boxes), cert.splits) == (71, 68)
        assert _box_digest(cert) == (
            "bd639050bc455975da7d1775bcdddd6561835a361a7769005a553684eea7492d")

    def test_counterexample_margins(self, negate_lead_cert, negate_c5_cert):
        assert replay_certificate(negate_lead_cert)["margin"] == (
            "-475031249924008300004152607999904351400000798115000000013/"
            "262144000000000000000000000000000000000000000000000000000")
        assert replay_certificate(negate_c5_cert)["margin"] == (
            "-43839867885548861375136657622915835163151641817871931/"
            "70425033342491492860338000940350415728174191083520000000000")
