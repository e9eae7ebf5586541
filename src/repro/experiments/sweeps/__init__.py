"""Fault sweeps: nine named scenarios over one harness.

``repro sweep <scenario> [--engine] [--layout] [--stride N] [--seed S]
[--at K]`` — see ``docs/SWEEPS.md`` for the scenario table and
:mod:`repro.experiments.sweeps.harness` for what they share.
"""

from __future__ import annotations

from repro.experiments.sweeps.chain import RESYNC, RESYNC_SOURCE
from repro.experiments.sweeps.chaos import CHAOS
from repro.experiments.sweeps.cluster import (
    CLUSTER_CANARY,
    CLUSTER_CRASH,
    CLUSTER_LINK,
)
from repro.experiments.sweeps.crash import CRASH
from repro.experiments.sweeps.eviction import EVICTION
from repro.experiments.sweeps.failover import FAILOVER
from repro.experiments.sweeps.harness import (
    Outcome,
    Report,
    Scenario,
    SweepInvariantError,
    run_point,
    sweep,
)

SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    CRASH, CHAOS, CLUSTER_LINK, CLUSTER_CRASH, CLUSTER_CANARY, FAILOVER,
    RESYNC, RESYNC_SOURCE, EVICTION)}

__all__ = ["Outcome", "Report", "SCENARIOS", "Scenario",
           "SweepInvariantError", "run_point", "sweep"]
