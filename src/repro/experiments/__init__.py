"""Experiment runners: one module per table/figure of the evaluation.

Exhibit map (see DESIGN.md for the full index):

========  ======================================  =========================
Exhibit   What it regenerates                      Module
========  ======================================  =========================
F1/F2     Blocktrace I/O-pattern figures           ``blocktrace``
T1        Write amount & reduction table           ``write_reduction``
T2        Space consumption table                  ``space``
F3/F4     SSD-RAID throughput/response figures     ``tpcc_ssd``
T3        HDD throughput/response table            ``tpcc_hdd``
A1        Layout ablation (NSM vs vectors)         ``ablation_layout``
A2        Flush-threshold ablation                 ``ablation_threshold``
A3        Scan-strategy ablation                   ``ablation_scan``
A4        Flash endurance ablation                 ``endurance``
========  ======================================  =========================
"""

from repro.experiments import (
    ablation_colocation,
    ablation_layout,
    ablation_noftl,
    ablation_scan,
    ablation_threshold,
    blocktrace,
    endurance,
    report,
    space,
    tolerable_load,
    tpcc_hdd,
    tpcc_ssd,
    write_reduction,
)
from repro.experiments.harness import (
    MeasuredRun,
    SystemSetup,
    build_database,
    hdd_single,
    run_tpcc,
    ssd_raid2,
    ssd_raid6,
    ssd_single,
)
from repro.experiments.render import format_table, to_csv

__all__ = [
    "MeasuredRun",
    "SystemSetup",
    "ablation_colocation",
    "ablation_layout",
    "ablation_noftl",
    "ablation_scan",
    "ablation_threshold",
    "blocktrace",
    "build_database",
    "endurance",
    "format_table",
    "hdd_single",
    "report",
    "run_tpcc",
    "space",
    "ssd_raid2",
    "ssd_raid6",
    "ssd_single",
    "to_csv",
    "tolerable_load",
    "tpcc_hdd",
    "tpcc_ssd",
    "write_reduction",
]
