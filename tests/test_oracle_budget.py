"""Registry-scale insurance: the oracle sweep's --budget gate must fail
when the sweep exceeds the time budget and pass when it doesn't, so the
registry can never silently outgrow the driver's correctness-gate
window."""

import os
import sys


def _run(argv):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"))
    import importlib

    oc = importlib.import_module("oracle_check")
    return oc.main(argv)


def test_budget_gate_fails_when_exceeded(ray_session, capsys):
    # a real (tiny) query against sf0.001 with an impossible 0-minute
    # budget: the sweep itself passes, the budget check fails
    rc = _run(["--sf", "/root/testdata/sf0.001", "--budget", "0", "distinct_langs"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "BUDGET EXCEEDED" in out
    assert "0 failures" in out  # correctness itself was green


def test_budget_gate_passes_within_budget(ray_session, capsys):
    rc = _run(["--sf", "/root/testdata/sf0.001", "--budget", "30", "distinct_langs"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "BUDGET EXCEEDED" not in out
