"""Exhibit T2: space consumption and page fill degree.

The paper reports that SIAS configured with threshold t2 *reduces overall
space consumption* (≈12 % on their setup) because pages reach the device
densely packed, while t1 persists sparsely filled pages ("wasted space").
This runner measures, for SI and both SIAS thresholds after identical
workloads: total device footprint, the SIAS average sealed-page fill degree
and the wasted bytes inside sealed pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import units
from repro.common.config import FlushThreshold
from repro.db.database import EngineKind
from repro.experiments import harness
from repro.experiments.render import format_pct, format_table
from repro.workload.driver import DriverConfig
from repro.workload.mixes import UPDATE_HEAVY_MIX
from repro.workload.tpcc_schema import TpccScale


@dataclass
class SpaceResult:
    """Rows: one per configuration."""

    rows: list[list[object]]
    si_space_mib: float
    t2_space_mib: float

    def table(self) -> str:
        """Render the space table.

        ``space MiB`` is the engine-level footprint (heap pages vs sealed
        append pages + VIDmap); ``device MiB`` is the SSD's own occupancy
        view (valid FTL pages), which also charges SI for the dead versions
        sitting in its heap between vacuums.
        """
        return format_table(
            "T2 - space consumption and fill degree",
            ["config", "space MiB", "device MiB", "vs SI", "avg fill",
             "wasted MiB"],
            self.rows)


def _sias_fill_stats(run: harness.MeasuredRun) -> tuple[float, float]:
    fill_sum = pages = wasted = 0.0
    for relation in run.db.tables.values():
        stats = relation.engine.store.stats
        fill_sum += stats.fill_degree_sum
        pages += stats.sealed_pages
        wasted += stats.wasted_bytes
    avg_fill = fill_sum / pages if pages else 1.0
    return avg_fill, units.mib(wasted)


def run(warehouses: int = 10, duration_usec: int = 60 * units.SEC,
        scale: TpccScale | None = None,
        driver_config: DriverConfig | None = None,
        seed: int = 42) -> SpaceResult:
    """Measure post-run space for SI, SIAS-t1 and SIAS-t2."""
    driver_config = driver_config or DriverConfig(
        clients=8, mix=dict(UPDATE_HEAVY_MIX),
        maintenance_interval_usec=30 * units.SEC)
    si = harness.run_tpcc(EngineKind.SI, harness.ssd_single(), warehouses,
                          duration_usec, scale=scale,
                          driver_config=driver_config, seed=seed)
    t1 = harness.run_tpcc(EngineKind.SIASV, harness.ssd_single(), warehouses,
                          duration_usec, scale=scale,
                          driver_config=driver_config,
                          threshold=FlushThreshold.T1, seed=seed)
    t2 = harness.run_tpcc(EngineKind.SIASV, harness.ssd_single(), warehouses,
                          duration_usec, scale=scale,
                          driver_config=driver_config,
                          threshold=FlushThreshold.T2, seed=seed)
    def _device_mib(run_: harness.MeasuredRun) -> float:
        device = run_.db.data_device
        live = getattr(device, "live_pages", None)
        if live is None:
            return 0.0
        return units.mib(live() * run_.db.config.buffer.page_size)

    si_mib = units.mib(si.space_bytes)
    rows: list[list[object]] = [
        ["SI", round(si_mib, 1), round(_device_mib(si), 1), "-", "-", "-"]]
    t2_mib = 0.0
    for label, run_ in (("SIAS-t1", t1), ("SIAS-t2", t2)):
        space_mib = units.mib(run_.space_bytes)
        if label == "SIAS-t2":
            t2_mib = space_mib
        avg_fill, wasted_mib = _sias_fill_stats(run_)
        delta = (space_mib - si_mib) / si_mib if si_mib else 0.0
        rows.append([label, round(space_mib, 1),
                     round(_device_mib(run_), 1),
                     ("+" if delta >= 0 else "") + format_pct(delta),
                     round(avg_fill, 3), round(wasted_mib, 1)])
    return SpaceResult(rows=rows, si_space_mib=si_mib, t2_space_mib=t2_mib)
