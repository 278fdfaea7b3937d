import sys

import pytest


@pytest.fixture()
def solves(monkeypatch):
    """The number of variables of each `emclab.lp.solve_lp` call, in order."""
    import emclab.lp
    solve_lp = emclab.lp.solve_lp
    variables = []

    def counted(c, rows, maximize=False, trace=None):
        variables.append(len(c))
        return solve_lp(c, rows, maximize=maximize, trace=trace)
    monkeypatch.setattr(emclab.lp, "solve_lp", counted)
    return variables


@pytest.fixture()
def solve_rows(monkeypatch):
    """The row senses of each `emclab.lp.solve_lp` call, a tuple per call,
    in order."""
    import emclab.lp
    solve_lp = emclab.lp.solve_lp
    senses = []

    def counted(c, rows, maximize=False, trace=None):
        senses.append(tuple(sense for _, sense, _ in rows))
        return solve_lp(c, rows, maximize=maximize, trace=trace)
    monkeypatch.setattr(emclab.lp, "solve_lp", counted)
    return senses


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance pass/fail lines past pytest's output capture."""
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance")
    if mod is not None and getattr(mod, "RESULTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.RESULTS:
            terminalreporter.write_line(line)
