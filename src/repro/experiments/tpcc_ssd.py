"""Exhibits F3/F4: TPC-C throughput and response time on SSD RAIDs.

Regenerates the paper's two throughput figures:

* **F3** (two-SSD stripe, small buffer): NOTPM vs. warehouse count for both
  engines.  Expected shape: both rise while the working set is cached, SI
  peaks earlier and lower; SIAS-V's peak is higher (paper: +30 %, peaking at
  a larger warehouse count) and its response times stay flat longer.
* **F4** (six-SSD stripe, large buffer): same sweep on the bigger box —
  more device parallelism rewards SIAS-V's batched read path further.

Each row carries NOTPM and the mean NewOrder response time for both engines
plus the SIAS/SI ratio, and the result object computes the peak positions so
tests and EXPERIMENTS.md can assert "SIAS-V peaks later and higher".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import units
from repro.db.database import EngineKind
from repro.experiments import harness
from repro.experiments.render import format_table
from repro.workload.driver import DriverConfig
from repro.workload.tpcc_schema import TpccScale


@dataclass
class ThroughputPoint:
    """Both engines' results at one warehouse count."""

    warehouses: int
    sias_notpm: float
    si_notpm: float
    sias_rt_sec: float
    si_rt_sec: float


@dataclass
class ThroughputSweepResult:
    """One regenerated throughput figure."""

    setup_name: str
    points: list[ThroughputPoint]

    @property
    def rows(self) -> list[list[object]]:
        """Table rows (one per warehouse count)."""
        out: list[list[object]] = []
        for p in self.points:
            ratio = p.sias_notpm / p.si_notpm if p.si_notpm else float("inf")
            out.append([p.warehouses, round(p.sias_notpm), round(p.si_notpm),
                        round(ratio, 2), round(p.sias_rt_sec, 3),
                        round(p.si_rt_sec, 3)])
        return out

    def table(self) -> str:
        """Render the sweep."""
        return format_table(
            f"TPC-C throughput sweep on {self.setup_name}",
            ["WH", "SIAS NOTPM", "SI NOTPM", "SIAS/SI",
             "SIAS rt (s)", "SI rt (s)"],
            self.rows)

    def peak(self, engine: str) -> ThroughputPoint:
        """The sweep point with the highest NOTPM for one engine."""
        key = (lambda p: p.sias_notpm) if engine == "sias" \
            else (lambda p: p.si_notpm)
        return max(self.points, key=key)


def run(setup: harness.SystemSetup | None = None,
        warehouse_counts: tuple[int, ...] = (4, 8, 16, 24),
        duration_usec: int = 20 * units.SEC,
        scale: TpccScale | None = None,
        driver_config: DriverConfig | None = None,
        seed: int = 42) -> ThroughputSweepResult:
    """Sweep warehouse counts on one SSD setup with both engines."""
    setup = setup or harness.ssd_raid2()
    driver_config = driver_config or DriverConfig(
        clients=8, maintenance_interval_usec=8 * units.SEC)
    points: list[ThroughputPoint] = []
    for warehouses in warehouse_counts:
        sias = harness.run_tpcc(EngineKind.SIASV, setup, warehouses,
                                duration_usec, scale=scale,
                                driver_config=driver_config, seed=seed)
        si = harness.run_tpcc(EngineKind.SI, setup, warehouses,
                              duration_usec, scale=scale,
                              driver_config=driver_config, seed=seed)
        points.append(ThroughputPoint(
            warehouses=warehouses,
            sias_notpm=sias.notpm,
            si_notpm=si.notpm,
            sias_rt_sec=sias.metrics.mean_response_sec(),
            si_rt_sec=si.metrics.mean_response_sec(),
        ))
    return ThroughputSweepResult(setup_name=setup.name, points=points)


def run_f4(**kwargs) -> ThroughputSweepResult:
    """F4 preset: the six-SSD stripe with a large buffer pool."""
    kwargs.setdefault("setup", harness.ssd_raid6())
    return run(**kwargs)
