import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import click
import pytest
from click.testing import CliRunner

import emclab
from emclab.certify import _calc_margin_box
from emclab.cli import RATIONAL, cli, main
from emclab.intervals import Box, Interval, _token_ratio, parse_certificate
from emclab.lp import MAX_LP_VERTICES
from emclab.verifier import MAX_SEARCH_CANDIDATES


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, args):
    result = runner.invoke(cli, args)
    return result


def payload(result):
    return json.loads(result.output)


def comparable(result):
    data = payload(result)
    data.pop("timestamp")
    return data


@pytest.fixture()
def h1_path(tmp_path, runner):
    path = str(tmp_path / "h1.khg")
    result = run(runner, ["gen", "--family", "hi", "--n", "9", "--k", "3",
                          "--s", "2", "--i", "1", "-o", path])
    assert result.exit_code == 0
    return path


class TestGen:
    def test_gen_report(self, runner, tmp_path):
        path = str(tmp_path / "g.khg")
        result = run(runner, ["gen", "--family", "complete", "--n", "6",
                              "--k", "2", "-o", path])
        assert result.exit_code == 0
        data = payload(result)
        assert data["edges"] == 15
        assert data["version"]
        with open(path) as fh:
            assert fh.read().splitlines()[0].endswith("6 2 15")

    def test_gen_bad_family_params(self, runner, tmp_path):
        result = run(runner, ["gen", "--family", "hi", "--n", "4", "--k", "3",
                              "--s", "2", "-o", str(tmp_path / "x.khg")])
        assert result.exit_code != 0


class TestCounting:
    def test_nu(self, runner, h1_path):
        result = run(runner, ["nu", h1_path])
        assert result.exit_code == 0
        assert payload(result)["nu"] == 2

    def test_tau(self, runner, h1_path):
        result = run(runner, ["tau", h1_path])
        assert result.exit_code == 0
        assert payload(result)["tau"] == 2

    def test_nufrac_with_dual_and_slackness(self, runner, h1_path):
        result = run(runner, ["nufrac", h1_path, "--dual", "--slackness"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["nu_star"] == data["tau_star"] == "2"
        assert data["cover"] == {"1": "1", "2": "1"}
        assert data["slackness"]["ok"]

    def test_nufrac_trace(self, runner, h1_path, tmp_path):
        trace = tmp_path / "pivots.log"
        result = run(runner, ["nufrac", h1_path, "--trace", str(trace)])
        assert result.exit_code == 0
        assert trace.read_text().startswith("phase")


class TestShift:
    def test_shift_roundtrip(self, runner, tmp_path):
        src = tmp_path / "u.khg"
        src.write_text("4 2 1\n3 4\n")
        out = tmp_path / "s.khg"
        result = run(runner, ["shift", str(src), "-o", str(out), "--log"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["edges"] == 1 and data["shifts"] >= 1
        assert out.read_text() == "4 2 1\n1 2\n"


class TestVerifyEmc:
    def test_match_exit_zero(self, runner):
        result = run(runner, ["verify-emc", "--n", "7", "--k", "2", "--s", "2"])
        assert result.exit_code == 0
        assert payload(result)["match"]

    def test_budget_exit_two(self, runner):
        result = run(runner, ["verify-emc", "--n", "9", "--k", "3", "--s", "2",
                              "--budget", "5"])
        assert result.exit_code == 2
        assert not payload(result)["exhausted"]


class TestCloseness:
    def test_close_and_not(self, runner, tmp_path):
        a = tmp_path / "a.khg"
        b = tmp_path / "b.khg"
        a.write_text("4 2 1\n1 2\n")
        b.write_text("4 2 2\n1 2\n3 4\n")
        ok = run(runner, ["closeness", str(a), str(b), "--epsilon", "1/2"])
        assert ok.exit_code == 0 and payload(ok)["is_close"]
        bad = run(runner, ["closeness", str(a), str(b), "--epsilon", "1/100"])
        assert bad.exit_code == 1 and not payload(bad)["is_close"]


class TestProfile:
    def test_profile_ok(self, runner, tmp_path):
        path = str(tmp_path / "p.khg")
        gen = run(runner, ["gen", "--family", "hi", "--n", "12", "--k", "4",
                           "--s", "2", "--i", "1", "-o", path])
        assert gen.exit_code == 0
        result = run(runner, ["profile", path, "--s", "2",
                              "--epsilon", "1/1000000"])
        assert result.exit_code == 0
        data = payload(result)
        assert data["raw"]["a"] == "1" and data["raw"]["b"] == "0"
        assert "saturated" in data

    def test_profile_matching_too_large(self, runner, tmp_path):
        path = str(tmp_path / "c.khg")
        gen = run(runner, ["gen", "--family", "complete", "--n", "12",
                           "--k", "4", "-o", path])
        assert gen.exit_code == 0
        result = run(runner, ["profile", path, "--s", "1", "--epsilon", "1/100"])
        assert result.exit_code == 1
        assert payload(result)["error"] == "matching number too large"


class TestVerifyIneq:
    def test_calculate_proved(self, runner, tmp_path):
        cert = tmp_path / "calc.cert"
        result = run(runner, ["verify-ineq", "--target", "calculate",
                              "-o", str(cert)])
        assert result.exit_code == 0
        assert payload(result)["status"] == "proved"
        replay = run(runner, ["verify-cert", str(cert)])
        assert replay.exit_code == 0 and payload(replay)["ok"]

    def test_maxvalue_proved(self, runner):
        result = run(runner, ["verify-ineq", "--target", "maxvalue"])
        assert result.exit_code == 0
        assert payload(result)["status"] == "proved"

    def test_convex(self, runner):
        result = run(runner, ["verify-ineq", "--target", "convex"])
        assert result.exit_code == 0
        out = payload(result)
        assert out["all_nonneg"] and out["hj_all_nonpos"]
        assert out["min_second_diff"] == "698258049067245/7654030375733264"

    def test_mutation_exit_one(self, runner):
        result = run(runner, ["verify-ineq", "--target", "calculate",
                              "--mutation", "negate-lead"])
        assert result.exit_code == 1
        assert payload(result)["status"] == "counterexample"

    def test_budget_exit_two(self, runner):
        result = run(runner, ["verify-ineq", "--target", "maxvalue",
                              "--max-boxes", "2"])
        assert result.exit_code == 2

    def test_counterexample_replay_exit_one(self, runner, tmp_path):
        # confirmed or not, a counterexample file is not a proof: exit 1
        cert = tmp_path / "n.cert"
        result = run(runner, ["verify-ineq", "--target", "calculate",
                              "--mutation", "negate-lead", "-o", str(cert)])
        assert result.exit_code == 1
        assert "mutation negate-lead" in cert.read_text().splitlines()
        replay = run(runner, ["verify-cert", str(cert)])
        report = payload(replay)
        assert replay.exit_code == 1 and report["confirmed"] and report["failures"] == []
        assert Fraction(report["margin"]) < 0
        cert.write_text(cert.read_text().replace("x=5/16", "x=1"))
        replay = run(runner, ["verify-cert", str(cert)])
        assert replay.exit_code == 1 and not payload(replay)["confirmed"]
        assert payload(replay)["failures"] == ["point outside the region of target calculate"]

    def test_tampered_cert_exit_one(self, runner, tmp_path):
        cert = tmp_path / "calc.cert"
        result = run(runner, ["verify-ineq", "--target", "calculate",
                              "-o", str(cert)])
        assert result.exit_code == 0
        lines = cert.read_text().splitlines()
        for i, ln in enumerate(lines):
            if ln.startswith("box "):
                parts = ln.split()
                mi = parts.index("margin")
                parts[mi + 1] = "9999"
                parts[mi + 2] = "10000"
                lines[i] = " ".join(parts)
                break
        cert.write_text("\n".join(lines) + "\n")
        replay = run(runner, ["verify-cert", str(cert)])
        assert replay.exit_code == 1 and not payload(replay)["ok"]


def _with_margin(box):
    """`box` with its own recomputed margin, so that only the coverage
    check can reject a certificate holding it."""
    return box, _calc_margin_box(box, None)


def _shifted(box):
    """`box` moved by half its width along its widest coordinate."""
    name = box.widest()
    iv = box.coords[name]
    coords = dict(box.coords)
    coords[name] = Interval(iv.lo + iv.width / 2, iv.hi + iv.width / 2)
    return Box(coords, box.region_tag)


def _forged(boxes):
    # the first leaf whose shifted copy still has a positive margin
    j = next(j for j, (box, _) in enumerate(boxes)
             if _with_margin(_shifted(box))[1].lo > 0)
    boxes[j] = _with_margin(_shifted(boxes[j][0]))
    return boxes


def _extra(boxes):
    # the lower half of a leaf: inside the region, but not a tree node
    return boxes + [_with_margin(boxes[0][0].split()[0])]


class TestCertificateCoverage:
    """verify-cert accepts a certificate only if its leaves are exactly the
    leaves of the bisection tree over the certifier's own root region."""

    @pytest.fixture()
    def cert(self, runner, tmp_path):
        path = tmp_path / "calc.cert"
        result = run(runner, ["verify-ineq", "--target", "calculate", "-o", str(path)])
        assert result.exit_code == 0
        return path

    def _replay_edited(self, runner, path, edit):
        cert = parse_certificate(path.read_text())
        path.write_text(replace(cert, boxes=tuple(edit(list(cert.boxes)))).serialize())
        return run(runner, ["verify-cert", str(path)])

    @staticmethod
    def _exit_three(capsys, path, error):
        with pytest.raises(SystemExit) as ei:
            main(["verify-cert", str(path)])
        assert ei.value.code == 3
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("edit, failure", [
        (_forged, "leaves outside the bisection tree: 1"),
        (lambda boxes: [], "branches ending in no stored leaf: 3"),
        (lambda boxes: boxes[:-1], "branches ending in no stored leaf: 1"),
        (lambda boxes: boxes + boxes[:1], "duplicated leaves: 1"),
        (_extra, "leaves outside the bisection tree: 1"),
    ], ids=["forged", "empty", "truncated", "duplicated", "extra"])
    def test_bad_coverage_exit_one(self, runner, cert, edit, failure):
        replay = self._replay_edited(runner, cert, edit)
        assert replay.exit_code == 1
        report = payload(replay)
        assert not report["ok"]
        assert failure in report["failures"]
        assert not any("margin" in f for f in report["failures"])

    def test_wrong_box_count_exit_one(self, runner, cert):
        text = cert.read_text()
        held = sum(ln.startswith("box ") for ln in text.splitlines())
        cert.write_text(text.replace(f"\nboxes {held}\n", f"\nboxes {held - 1}\n"))
        replay = run(runner, ["verify-cert", str(cert)])
        assert replay.exit_code == 1
        assert payload(replay)["failures"] == [f"boxes line says {held - 1}, file holds {held}"]

    def test_dropped_box_line_exit_one(self, runner, cert):
        # the last box line removed by hand: the count line still names the
        # old total, and coverage finds the branch the line closed
        lines = cert.read_text().splitlines()
        last = max(i for i, ln in enumerate(lines) if ln.startswith("box "))
        held = sum(ln.startswith("box ") for ln in lines) - 1
        cert.write_text("\n".join(lines[:last] + lines[last + 1:]) + "\n")
        replay = run(runner, ["verify-cert", str(cert)])
        assert replay.exit_code == 1
        assert payload(replay)["failures"] == [f"boxes line says {held + 1}, file holds {held}",
                                               "branches ending in no stored leaf: 1"]

    def test_no_box_count_exit_three(self, cert):
        lines = [ln for ln in cert.read_text().splitlines() if not ln.startswith("boxes ")]
        cert.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as ei:
            main(["verify-cert", str(cert)])
        assert ei.value.code == 3

    def test_v1_certificate_exit_three(self, cert):
        lines = [ln for ln in cert.read_text().splitlines()
                 if not ln.startswith("format ")]
        cert.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as ei:
            main(["verify-cert", str(cert)])
        assert ei.value.code == 3

    @pytest.mark.parametrize("target, root_tag, tag", [
        pytest.param("maxvalue", "C1", "C", id="C"),
        pytest.param("maxvalue", "C1", "C9", id="C9"),
        pytest.param("maxvalue", "C1", "Cx", id="Cx"),
        pytest.param("calculate", "x<=5/8", "x<=9/8", id="calculate-x<=9/8"),
    ])
    def test_bad_maxvalue_tag_exit_three(self, runner, tmp_path, capsys, target, root_tag,
                                         tag):
        # a tag that names none of the target's roots is refused before any
        # margin is computed, on either target
        path = tmp_path / f"{target}.cert"
        assert run(runner, ["verify-ineq", "--target", target,
                            "-o", str(path)]).exit_code == 0
        path.write_text(path.read_text().replace(f"\nbox {root_tag} ", f"\nbox {tag} ", 1))
        self._exit_three(capsys, path, f"box tag '{tag}' names no region of target {target}")

    @pytest.mark.parametrize("edit, error", [
        (lambda coords: {n: iv for n, iv in coords.items() if n != "z"},
         "missing z; unexpected none"),
        (lambda coords: {**coords, "w": Interval.make(0, 1)},
         "missing none; unexpected w"),
    ], ids=["missing-z", "extra-w"])
    def test_coords_other_than_roots_exit_three(self, capsys, cert, edit, error):
        # the file's coords line and every box lose z or gain w: refused by
        # name before any margin is computed
        c = parse_certificate(cert.read_text())
        boxes = tuple((Box(edit(box.coords), box.region_tag), m) for box, m in c.boxes)
        cert.write_text(replace(c, boxes=boxes).serialize())
        self._exit_three(capsys, cert, f"box coordinates of target calculate: {error}")

    def test_missing_zmax_exit_three(self, capsys, cert):
        cert.write_text("".join(ln for ln in cert.read_text().splitlines(keepends=True)
                                if not ln.startswith("zmax ")))
        self._exit_three(capsys, cert, "target calculate needs a zmax")

    def test_stray_zmax_exit_three(self, runner, tmp_path, capsys):
        path = tmp_path / "maxvalue.cert"
        assert run(runner, ["verify-ineq", "--target", "maxvalue",
                            "-o", str(path)]).exit_code == 0
        path.write_text(path.read_text().replace("\ntarget maxvalue\n",
                                                 "\ntarget maxvalue\nzmax 1/2\n", 1))
        self._exit_three(capsys, path, "target maxvalue takes no zmax")

    @pytest.mark.parametrize("zmax", ["1/100", "0", "1/0", "wat"])
    def test_bad_zmax_exit_three(self, cert, zmax):
        cert.write_text(cert.read_text().replace("zmax 1/100000", f"zmax {zmax}"))
        with pytest.raises(SystemExit) as ei:
            main(["verify-cert", str(cert)])
        assert ei.value.code == 3

    @pytest.mark.parametrize("key, value", [("splits", "abc"), ("boxes", "x")])
    def test_bad_count_exit_three(self, capsys, cert, key, value):
        # a count that is no integer is named by its line, like any bad line
        cert.write_text("".join(f"{key} {value}\n" if ln.startswith(f"{key} ") else ln
                                for ln in cert.read_text().splitlines(keepends=True)))
        self._exit_three(capsys, cert, f"bad certificate line '{key} {value}'")

    def test_point_token_tail_exit_three(self, runner, tmp_path, capsys):
        # `x=5/16=junk` is refused, not read as x=5/16 and confirmed
        path = tmp_path / "n.cert"
        assert run(runner, ["verify-ineq", "--target", "calculate", "--mutation",
                            "negate-lead", "-o", str(path)]).exit_code == 1
        path.write_text(path.read_text().replace("x=5/16", "x=5/16=junk"))
        self._exit_three(capsys, path, "point token 'x=5/16=junk' is not name=value")


class TestSamplingCommands:
    def test_sample_deterministic_rerun(self, runner, tmp_path):
        path = str(tmp_path / "big.khg")
        gen = run(runner, ["gen", "--family", "complete", "--n", "30",
                           "--k", "4", "-o", path])
        assert gen.exit_code == 0
        args = ["sample", path, "--t", "4", "--s", "2", "--copies", "20",
                "--seed", "13"]
        a = run(runner, args)
        b = run(runner, args)
        assert a.exit_code == b.exit_code == 0
        assert comparable(a) == comparable(b)
        assert payload(a)["generator"] == "mt19937-python"

    def test_round_deterministic_rerun(self, runner, tmp_path):
        path = str(tmp_path / "big.khg")
        gen = run(runner, ["gen", "--family", "complete", "--n", "40",
                           "--k", "4", "-o", path])
        assert gen.exit_code == 0
        out1 = tmp_path / "r1.khg"
        out2 = tmp_path / "r2.khg"
        base = ["round", path, "--t", "0", "--s", "0", "--copies", "15",
                "--seed", "21"]
        a = run(runner, base + ["-o", str(out1)])
        b = run(runner, base + ["-o", str(out2)])
        assert a.exit_code == b.exit_code == 0
        assert out1.read_text() == out2.read_text()
        assert payload(a)["kept_edges"] == payload(b)["kept_edges"]

    def test_greedy(self, runner, tmp_path):
        src = tmp_path / "g.khg"
        src.write_text("8 4 2\n1 2 3 4\n5 6 7 8\n")
        result = run(runner, ["greedy", str(src)])
        assert result.exit_code == 0
        data = payload(result)
        assert data["size"] == 2 and data["uncovered"] == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
    def test_greedy_on_a_huge_ground_set(self, tmp_path):
        # edges near 10^9: the greedy's cost must not grow with the labels
        # (a mask of vertex 10^9 alone is 125 MB), so it answers in a child
        # capped at 1 GiB
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        n = 10**9
        edges = [(1, n)] + [(n - 2 * j - 1, n - 2 * j) for j in range(20)]
        src = tmp_path / "huge.khg"
        src.write_text(f"{n} 2 {len(edges)}\n" + "".join(f"{a} {b}\n" for a, b in edges))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(emclab.__file__)))
        proc = subprocess.run([sys.executable, "-m", "emclab.cli", "greedy", str(src)], env=env,
                              preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        # (1, n) is first in lexicographic order and blocks (n - 1, n)
        assert data["size"] == 20 and data["uncovered"] == n - 40
        assert data["edges"][0] == [1, n] and [n - 1, n] not in data["edges"]


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as ei:
            main(["frobnicate"])
        assert ei.value.code == 3

    def test_missing_file(self):
        with pytest.raises(SystemExit) as ei:
            main(["nu", "/nonexistent/x.khg"])
        assert ei.value.code == 3

    def test_bad_rational(self, tmp_path):
        src = tmp_path / "a.khg"
        src.write_text("4 2 1\n1 2\n")
        with pytest.raises(SystemExit) as ei:
            main(["closeness", str(src), str(src), "--epsilon", "abc"])
        assert ei.value.code == 3

    def test_rational_digit_bound(self):
        # the reduced numerator and denominator may have 1000 digits, not 1001
        for ok in ("9" * 1000, f"-1/{'9' * 1000}", f"{10**1000}/10", "1e999", "1e-999"):
            assert RATIONAL.convert(ok, None, None) == Fraction(*_token_ratio(ok))
        for bad in (str(10**1000), f"1/{10**1000}", "1e1000", "-1e-1000"):
            with pytest.raises(click.BadParameter, match="denominator past 1000 digits"):
                RATIONAL.convert(bad, None, None)

    def test_malformed_khg(self, tmp_path):
        src = tmp_path / "bad.khg"
        src.write_text("not a header\n")
        with pytest.raises(SystemExit) as ei:
            main(["nu", str(src)])
        assert ei.value.code == 3

    @pytest.mark.parametrize("text", ["3 0 1\n", "3 0 0\n"])
    def test_k0_khg(self, tmp_path, text):
        src = tmp_path / "k0.khg"
        src.write_text(text)
        with pytest.raises(SystemExit) as ei:
            main(["nu", str(src)])
        assert ei.value.code == 3

    @pytest.mark.parametrize("text", [
        "target\n",
        "target calculate\nstatus proved\nsplits 0\ncoords mu x z\n"
        "box x<=5/8 0 1 0 1/2 margin 1 2\n",
        "target calculate\nstatus proved\nsplits 0\ncoords mu x z\n"
        "box x<=5/8 0 1 0 1/2 0 1 0 1 margin 1 2\n",
    ])
    def test_short_certificate_line(self, tmp_path, text):
        cert = tmp_path / "short.cert"
        cert.write_text("format 2\n" + text)
        with pytest.raises(SystemExit) as ei:
            main(["verify-cert", str(cert)])
        assert ei.value.code == 3

    @pytest.mark.parametrize("target, mutation", [
        ("maxvalue", "bogus"), ("maxvalue", "negate-lead"),
        ("calculate", "bogus"), ("calculate", "negate-c5-term"), ("convex", "bogus"),
    ])
    def test_unknown_mutation(self, target, mutation):
        with pytest.raises(SystemExit) as ei:
            main(["verify-ineq", "--target", target, "--mutation", mutation])
        assert ei.value.code == 3

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
    @pytest.mark.parametrize("command, text, error", [
        (["nu"], "1000000000 2 1\n1 999999999\n", "n <= 63"),
        (["nufrac"], "1000000000 2 1\n1 999999999\n", f"at most {MAX_LP_VERTICES} vertices"),
        (["profile", "--s", "1", "--epsilon", "1/100"], "1000000000 4 1\n1 2 3 4\n",
         f"at most {MAX_LP_VERTICES} vertices"),
    ], ids=["nu", "nufrac", "profile"])
    def test_huge_valid_khg_reaches_the_kernel_bound(self, tmp_path, command, text, error):
        # a valid file on [10^9] parses in a child capped at 1 GiB; nu then
        # refuses n > 63 (the kernel's bound) and the LP commands a ground
        # set past MAX_LP_VERTICES, each as a usage error
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        src = tmp_path / "huge.khg"
        src.write_text(text)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(emclab.__file__)))
        proc = subprocess.run([sys.executable, "-m", "emclab.cli", command[0], str(src),
                               *command[1:]], env=env,
                              preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert error in proc.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
    def test_verify_emc_refuses_past_the_candidate_cap(self):
        # C(30,5) = 142,506 candidates, past the cap: the cell is refused in
        # a child capped at 1 GiB before any candidate is listed
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(emclab.__file__)))
        proc = subprocess.run([sys.executable, "-m", "emclab.cli", "verify-emc", "--n", "30",
                               "--k", "5", "--s", "2", "--budget", "5"], env=env,
                              preexec_fn=cap, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert f"at most {MAX_SEARCH_CANDIDATES} candidate k-sets" in proc.stderr
        assert "C(30,5) = 142506" in proc.stderr

    def test_hpuw_needs_p(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["gen", "--family", "hpuw", "--n", "5", "--k", "3", "--u-size", "2",
                  "-o", str(tmp_path / "x.khg")])
        assert ei.value.code == 3
        assert "Error: family hpuw needs --p (1 <= p <= k)" in capsys.readouterr().err
        assert not (tmp_path / "x.khg").exists()

    # one invalid invocation per subcommand; every one must exit 3
    INVALID = {
        "gen": ["gen", "--family", "hi", "--n", "3", "--k", "3", "--s", "2",
                "-o", "{out}"],
        "nu": ["nu", "{wide}"],
        "tau": ["tau", "{wide}"],
        "nufrac": ["nufrac", "{bad}"],
        "shift": ["shift", "{bad}"],
        "verify-emc": ["verify-emc", "--n", "64", "--k", "2", "--s", "1"],
        "closeness": ["closeness", "{small}", "{small}", "--epsilon", "abc"],
        "profile": ["profile", "{small}", "--s", "1", "--epsilon", "1/100"],
        "verify-ineq": ["verify-ineq", "--target", "calculate", "--zmax", "1"],
        "verify-cert": ["verify-cert", "{bad}"],
        "sample": ["sample", "{small}", "--t", "0", "--s", "0", "--copies", "0",
                   "--seed", "1"],
        "round-t": ["round", "{small}", "--t", "9", "--s", "0", "--seed", "1"],
        "round-copies": ["round", "{small}", "--t", "0", "--s", "0",
                         "--copies", "0", "--seed", "1"],
        "greedy": ["greedy", "{bad}"],
        "verify-emc-k0": ["verify-emc", "--n", "3", "--k", "0", "--s", "1"],
        "verify-emc-k-1": ["verify-emc", "--n", "3", "--k", "-1", "--s", "1"],
        # below n = k(s+1) - 1 no family reaches the clique term C(7,4)
        "verify-emc-below-range": ["verify-emc", "--n", "6", "--k", "4", "--s", "1"],
        "verify-ineq-zmax-maxvalue": ["verify-ineq", "--target", "maxvalue", "--zmax", "1"],
        "verify-ineq-zmax-convex": ["verify-ineq", "--target", "convex", "--zmax", "1"],
        "gen-u-size": ["gen", "--family", "huw", "--n", "5", "--k", "3", "--u-size", "9",
                       "-o", "{out}"],
        "closeness-epsilon-0": ["closeness", "{small}", "{small}", "--epsilon", "0"],
        "closeness-epsilon-neg": ["closeness", "{small}", "{small}", "--epsilon", "-1"],
        "profile-epsilon-neg": ["profile", "{four}", "--s", "1", "--epsilon", "-1"],
        "verify-emc-budget": ["verify-emc", "--n", "7", "--k", "2", "--s", "2",
                              "--budget", "-1"],
        "verify-ineq-max-boxes": ["verify-ineq", "--target", "calculate", "--max-boxes", "-5"],
        "verify-ineq-depth": ["verify-ineq", "--target", "maxvalue", "--depth", "-1"],
        "verify-ineq-depth-convex": ["verify-ineq", "--target", "convex", "--depth", "60"],
        "verify-ineq-max-boxes-convex": ["verify-ineq", "--target", "convex",
                                         "--max-boxes", "100"],
        "verify-ineq-out-convex": ["verify-ineq", "--target", "convex", "-o", "{out}"],
        "gen-unread-options": ["gen", "--family", "complete", "--n", "6", "--k", "2",
                               "--s", "5", "--i", "7", "-o", "{out}"],
        "gen-p-hi": ["gen", "--family", "hi", "--n", "9", "--k", "3", "--s", "2",
                     "--p", "1", "-o", "{out}"],
        "gen-s-huw": ["gen", "--family", "huw", "--n", "5", "--k", "3", "--u-size", "2",
                      "--s", "0", "-o", "{out}"],
        "sample-s": ["sample", "{small}", "--t", "0", "--s", "-1", "--seed", "1"],
        "round-s": ["round", "{small}", "--t", "0", "--s", "-1", "--seed", "1"],
        # rationals: an exponent over 4300 in magnitude is refused before
        # its power of ten is built, and a value past 1000 digits before a
        # report or certificate prints it
        "closeness-epsilon-exponent": ["closeness", "{small}", "{small}",
                                       "--epsilon", "1e9999999"],
        "closeness-epsilon-digits": ["closeness", "{small}", "{small}", "--epsilon", "1e4300"],
        "profile-epsilon-digits": ["profile", "{four}", "--s", "1", "--epsilon", "1e4299"],
        "profile-epsilon-int-digits": ["profile", "{four}", "--s", "1",
                                       "--epsilon", "9" * 4300],
        "verify-ineq-zmax-exponent": ["verify-ineq", "--target", "calculate",
                                      "--zmax", "1e-9999999"],
        "verify-ineq-zmax-digits": ["verify-ineq", "--target", "calculate",
                                    "--zmax", f"1/{10**1500}", "-o", "{out}"],
        "verify-cert-exponent": ["verify-cert", "{exponent}"],
    }

    def test_invalid_input_covers_every_subcommand(self):
        assert {args[0] for args in self.INVALID.values()} == set(cli.commands)

    @pytest.mark.parametrize("case", sorted(INVALID))
    def test_invalid_input_exits_3(self, case, tmp_path):
        files = {"out": tmp_path / "out.khg", "wide": tmp_path / "wide.khg",
                 "bad": tmp_path / "bad.khg", "small": tmp_path / "small.khg",
                 "four": tmp_path / "four.khg", "exponent": tmp_path / "exponent.cert"}
        files["wide"].write_text("64 2 1\n1 64\n")  # n past the kernel's 63
        files["bad"].write_text("not a header\n")
        files["small"].write_text("4 2 1\n1 2\n")
        files["four"].write_text("6 4 1\n1 2 3 4\n")  # stable, nu* = 1
        files["exponent"].write_text("format 2\ntarget maxvalue\nstatus proved\nsplits 0\n"
                                     "boxes 1\ncoords x\nbox mixed 0e9999999 1 margin 0 1\n")
        args = [a.format(**{k: str(v) for k, v in files.items()})
                for a in self.INVALID[case]]
        with pytest.raises(SystemExit) as ei:
            main(args)
        assert ei.value.code == 3

    # one invocation per command that writes a file, each aimed at a path
    # in a directory that does not exist
    WRITERS = {
        "gen": ["gen", "--family", "complete", "--n", "5", "--k", "2", "-o", "{out}"],
        "shift": ["shift", "{small}", "-o", "{out}"],
        "nufrac": ["nufrac", "{small}", "--trace", "{out}"],
        "verify-ineq": ["verify-ineq", "--target", "maxvalue", "-o", "{out}"],
        "round": ["round", "{small}", "--t", "0", "--s", "0", "--copies", "1",
                  "--seed", "1", "-o", "{out}"],
    }

    @pytest.mark.parametrize("case", sorted(WRITERS))
    def test_unwritable_output_exits_3(self, case, tmp_path, capsys):
        small = tmp_path / "small.khg"
        small.write_text("4 2 2\n1 2\n3 4\n")
        out = str(tmp_path / "missing" / "x.out")
        with pytest.raises(SystemExit) as ei:
            main([a.format(out=out, small=small) for a in self.WRITERS[case]])
        assert ei.value.code == 3
        assert f"Error: cannot write {out}: " in capsys.readouterr().err

    def test_internal_fault_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken(h):
            raise RuntimeError("broken stabilize")

        src = tmp_path / "u.khg"
        src.write_text("4 2 1\n3 4\n")
        with monkeypatch.context() as m:
            m.setattr("emclab.shifting.stabilize", broken)
            with pytest.raises(RuntimeError, match="broken stabilize"):
                main(["shift", str(src)])
        # the library's own consistency check is a fault too, not bad input
        monkeypatch.setattr("emclab.shifting.is_stable", lambda h: False)
        with pytest.raises(RuntimeError, match="did not converge"):
            main(["shift", str(src)])

    def test_library_rejection_keeps_subcommand_usage(self, tmp_path, capsys):
        src = tmp_path / "wide.khg"
        src.write_text("64 2 1\n1 64\n")
        with pytest.raises(SystemExit) as ei:
            main(["nu", str(src)])
        assert ei.value.code == 3
        err = capsys.readouterr().err
        assert "nu [OPTIONS] PATH" in err
        assert "Error: search kernels support n <= 63" in err
