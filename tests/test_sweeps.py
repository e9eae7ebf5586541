"""Tier-1 coverage of every fault-sweep scenario through the one harness.

One parametrized body over the scenario registry: each scenario runs its
count mode plus a coarse grid of fault points on a reduced workload.
The CI ``sweeps`` job runs the same scenarios at finer strides and the
scheduled job at stride 1 (docs/SWEEPS.md); ``tests/test_sweep_crash.py``
holds the crash scenario's targeted single-point cases.
"""

from __future__ import annotations

import re
import shlex

import pytest

from repro import cli
from repro.experiments.sweeps import (
    SCENARIOS,
    SweepInvariantError,
    harness,
    run_point,
    sweep,
)

#: per scenario: a stride giving a handful of points on a workload small
#: enough for tier-1 (the canary keeps the full workload: it must give
#: the racing reader enough transfers to be fractured by)
COARSE = {
    "crash": dict(stride=17, accounts=6, transfers=12),
    "chaos": dict(stride=13, accounts=6, transfers=8),
    "cluster-link": dict(stride=31, accounts=6, transfers=8),
    "cluster-crash": dict(stride=31, accounts=6, transfers=8),
    "cluster-canary": dict(stride=49),
    "failover": dict(stride=5, transfers=6),
    "resync": dict(stride=11, transfers=4),
    "resync-source": dict(stride=2, transfers=4),
    "eviction": dict(stride=1, transfers=4),
}


@pytest.fixture(params=list(SCENARIOS))
def scenario(request):
    """Every registered scenario, one test instance each."""
    return SCENARIOS[request.param]


def test_coarse_sweep_holds_invariants(scenario):
    report = sweep(scenario, **COARSE[scenario.name])
    assert report.total and report.outcomes
    assert all(o.tripped for o in report.outcomes)
    assert [o.at for o in report.outcomes] == list(
        range(1, report.total + 1, COARSE[scenario.name]["stride"]))
    assert (report.sum("si_violations") > 0) == scenario.canary
    assert scenario.name in report.summary()


@pytest.mark.parametrize("name, at", [("crash", 9), ("resync", 9)])
def test_single_threaded_scenarios_replay_identically(name, at):
    """No threads, sockets or wall-clock in these two: a point is a pure
    function of (scenario, seed, k)."""
    params = {k: v for k, v in COARSE[name].items() if k != "stride"}
    first = run_point(SCENARIOS[name], at, **params)
    assert first.tripped
    assert run_point(SCENARIOS[name], at, **params) == first


def test_failure_names_its_point_and_the_command_that_replays_it(
        monkeypatch, capsys):
    """An invariant failure carries ``repro sweep <scenario> --seed S
    --at K``; that command line runs exactly that one point."""
    real_fold = harness.Run.fold

    def forgetful_fold(self, t):
        real_fold(self, t)
        # at fault points only, the oracle forgets one confirmed credit
        if self.at is not None and self.confirmed == 3:
            self.mirror[t.dst] -= t.amount

    monkeypatch.setattr(harness.Run, "fold", forgetful_fold)
    with pytest.raises(SweepInvariantError) as caught:
        sweep(SCENARIOS["crash"], stride=50, seed=5)
    monkeypatch.undo()
    message = str(caught.value)
    assert "balance" in message or "money not conserved" in message
    replay = re.search(r"replay: (repro sweep crash --seed 5 --at 51.*)$",
                       message)
    assert replay, message
    assert cli.main(shlex.split(replay.group(1))[1:]) == 0
    assert "crash[siasv/vector]: point 51 alone" in capsys.readouterr().out


def test_cli_rejects_unknown_scenario_and_misplaced_engine(capsys):
    assert cli.main(["sweep", "no-such-scenario"]) == 2
    assert "cluster-canary" in capsys.readouterr().err
    assert cli.main(["sweep", "failover", "--engine", "si"]) == 2
