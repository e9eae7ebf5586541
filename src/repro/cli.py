"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — narrated engine walkthrough (the quickstart, non-interactive);
* ``bench`` — run one workload comparison (engines, warehouses, seconds)
  and print throughput / response time / device I/O;
* ``exhibit`` — regenerate one paper exhibit by id (f1, t1, t2, f3, f4,
  t3, a1..a6) with quick parameters;
* ``snapshot`` — run a short workload and print the full system snapshot;
* ``serve`` — expose a live database over TCP (see ``docs/SERVER.md``);
* ``sweep`` — seeded fault sweeps: inject a scenario's fault (power
  loss, broken wire, shard kill, leader kill, ...) at every k-th event of
  a bank-transfer workload and verify exactly-once / SI invariants (see
  ``docs/SWEEPS.md``);
* ``cluster`` — VID-range sharded cluster: ``start`` a supervisor +
  router, ``status`` a running router, ``bench`` TPC-C through the
  router (see ``docs/CLUSTER.md``).

Also installed as the ``repro`` console script (``pip install -e .``).
"""

from __future__ import annotations

import argparse
import sys

from repro.common import units
from repro.db.database import EngineKind
from repro.workload.driver import DriverConfig
from repro.workload.tpcc_schema import TpccScale

QUICK_SCALE = TpccScale(districts_per_warehouse=4,
                        customers_per_district=10, items=50,
                        stock_per_warehouse=50,
                        initial_orders_per_district=5)


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.common.errors import SerializationError
    from repro.db.catalog import IndexDef
    from repro.db.database import Database
    from repro.db.schema import ColType, Schema

    db = Database.on_flash(EngineKind.SIASV)
    schema = Schema.of(("sku", ColType.INT), ("price", ColType.FLOAT))
    db.create_table("products", schema,
                    indexes=[IndexDef("pk", ("sku",), unique=True)])
    engine = db.table("products").engine

    txn = db.begin()
    ref = db.insert(txn, "products", (1, 49.0))
    db.commit(txn)
    print(f"insert  -> VID {ref}, entrypoint {engine.vidmap.get(ref)}")

    reader = db.begin()
    writer = db.begin()
    db.update(writer, "products", ref, (1, 44.0))
    db.commit(writer)
    print(f"update  -> appended a successor; old snapshot still reads "
          f"{db.read(reader, 'products', ref)[1]}")
    db.commit(reader)

    t1, t2 = db.begin(), db.begin()
    db.update(t1, "products", ref, (1, 39.0))
    try:
        db.update(t2, "products", ref, (1, 59.0))
    except SerializationError:
        print("conflict-> second concurrent updater lost "
              "(first-updater-wins)")
        db.abort(t2)
    db.commit(t1)

    engine.store.seal_working_page()
    report = db.maintenance()["products"]
    print(f"gc      -> discarded {report.records_discarded} dead versions, "
          f"reclaimed {report.pages_reclaimed} page(s)")
    db.shutdown()
    stats = db.data_device.stats
    print(f"device  -> {stats.writes} page writes, {stats.reads} reads "
          f"({db.clock.now_sec * 1000:.2f} simulated ms)")
    print("\n(run examples/quickstart.py for the fully narrated version)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments import harness
    from repro.experiments.render import format_table

    rows = []
    for engine in (EngineKind.SIASV, EngineKind.SI):
        run = harness.run_tpcc(
            engine, harness.ssd_single(), args.warehouses,
            args.seconds * units.SEC, scale=QUICK_SCALE,
            driver_config=DriverConfig(
                clients=args.clients,
                maintenance_interval_usec=5 * units.SEC))
        summary = run.metrics.summary()
        rows.append([engine.value, round(summary.notpm),
                     round(summary.mean_response_sec * 1000, 1),
                     summary.aborts, round(run.write_mib, 1),
                     round(units.mib(run.device_delta.read_bytes), 1)])
    print(format_table(
        f"TPC-C-style: {args.warehouses} WH, {args.seconds} sim-s, "
        f"{args.clients} clients",
        ["engine", "NOTPM", "mean rt (ms)", "aborts", "write MiB",
         "read MiB"],
        rows))
    return 0


_EXHIBITS = {
    "f1": ("blocktrace", dict(warehouses=3, duration_usec=6 * units.SEC)),
    "t1": ("write_reduction",
           dict(warehouses=3, durations_usec=(6 * units.SEC,))),
    "t2": ("space", dict(warehouses=3, duration_usec=6 * units.SEC)),
    "f3": ("tpcc_ssd", dict(warehouse_counts=(2, 5),
                            duration_usec=5 * units.SEC)),
    "f4": ("tpcc_ssd", dict(warehouse_counts=(2, 5),
                            duration_usec=5 * units.SEC)),
    "t3": ("tpcc_hdd", dict(warehouse_counts=(2, 4),
                            duration_usec=5 * units.SEC)),
    "f5": ("tolerable_load", dict(warehouses=4, client_counts=(4, 16),
                                  duration_usec=5 * units.SEC,
                                  pool_pages=64)),
    "a1": ("ablation_layout",
           dict(warehouses=3, duration_usec=6 * units.SEC)),
    "a2": ("ablation_threshold",
           dict(warehouses=3, duration_usec=6 * units.SEC)),
    "a3": ("ablation_scan", dict(warehouses=3,
                                 duration_usec=6 * units.SEC)),
    "a4": ("endurance", dict(warehouses=1, capacity_mib=10,
                             num_transactions=3000)),
    "a5": ("ablation_noftl", dict(rows=200, updates=10_000,
                                  capacity_mib=6, gc_every=1000)),
    "a6": ("ablation_colocation",
           dict(warehouses=3, duration_usec=6 * units.SEC)),
}


def _cmd_exhibit(args: argparse.Namespace) -> int:
    import repro.experiments as experiments

    if args.id not in _EXHIBITS:
        print(f"unknown exhibit {args.id!r}; choose from "
              f"{', '.join(sorted(_EXHIBITS))}", file=sys.stderr)
        return 2
    module_name, kwargs = _EXHIBITS[args.id]
    module = getattr(experiments, module_name)
    if module_name in ("blocktrace", "write_reduction", "space",
                       "ablation_layout", "ablation_threshold",
                       "ablation_scan", "ablation_colocation",
                       "tolerable_load"):
        kwargs = dict(kwargs, scale=QUICK_SCALE)
    if args.id == "f4":
        result = module.run(setup=experiments.ssd_raid6(pool_pages=96),
                            scale=QUICK_SCALE, **kwargs)
    elif args.id == "f3":
        result = module.run(setup=experiments.ssd_raid2(pool_pages=64),
                            scale=QUICK_SCALE, **kwargs)
    elif args.id == "t3":
        result = module.run(scale=QUICK_SCALE, **kwargs)
    elif args.id == "a4":
        result = module.run(scale=QUICK_SCALE, **kwargs)
    else:
        result = module.run(**kwargs)
    print(result.render() if hasattr(result, "render") else result.table())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from repro.experiments.report import write_report

    results = pathlib.Path(args.results)
    if not results.is_dir():
        print(f"no results directory at {results}; run "
              "examples/reproduce_paper.py first", file=sys.stderr)
        return 2
    out = write_report(results)
    print(f"report written to {out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.db.database import Database
    from repro.db.monitor import snapshot
    from repro.server import DatabaseServer, ServerConfig

    kind = EngineKind.SIASV if args.engine == "sias-v" else EngineKind.SI
    db = Database.on_flash(kind)
    if args.tpcc:
        from repro.workload.tpcc_schema import create_tpcc_tables
        create_tpcc_tables(db)
        print("created TPC-C tables", flush=True)
    server = DatabaseServer(db, ServerConfig(
        host=args.host, port=args.port,
        max_in_flight=args.max_in_flight,
        max_queue_depth=args.queue_depth,
        executor_workers=args.workers,
        idle_timeout_sec=args.idle_timeout,
        recover_on_start=args.recover,
        drain_timeout_sec=args.drain_timeout))
    if server.recovery_report is not None:
        rep = server.recovery_report
        print(f"recovered: {rep.committed_txns} committed, "
              f"{rep.rolled_back_txns} rolled back, "
              f"{rep.index_entries_rebuilt} index entries rebuilt",
              flush=True)
    print(f"engine workers: {server.dispatch.executor_workers}",
          flush=True)
    server.run()
    db.shutdown()
    print(snapshot(db, server=server).render())
    print("clean shutdown", flush=True)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.common.config import PageLayout
    from repro.experiments.sweeps import SCENARIOS, sweep

    scenario = SCENARIOS.get(args.scenario)
    if scenario is None:
        print(f"unknown scenario {args.scenario!r}; choose from "
              f"{', '.join(SCENARIOS)}", file=sys.stderr)
        return 2
    variants: list[dict] = [{}]
    if scenario.engines:
        kinds = {"siasv": [EngineKind.SIASV], "si": [EngineKind.SI],
                 "both": [EngineKind.SIASV, EngineKind.SI]}
        layout = PageLayout[(args.layout or "vector").upper()]
        variants = [dict(engine=kind, layout=layout)
                    for kind in kinds[args.engine or "both"]]
    elif args.engine or args.layout:
        print(f"scenario {scenario.name!r} runs on SIAS-V/vector only; "
              f"--engine/--layout apply to "
              f"{', '.join(s.name for s in SCENARIOS.values() if s.engines)}",
              file=sys.stderr)
        return 2
    for params in variants:
        print(sweep(scenario, stride=args.stride, seed=args.seed,
                    at=args.at, **params).summary(), flush=True)
    return 0


def _cmd_si_check(args: argparse.Namespace) -> int:
    from repro.experiments import si_check

    argv = [args.history, "--max-violations", str(args.max_violations)]
    if args.expect_anomaly:
        argv.append("--expect-anomaly")
    return si_check.main(argv)


def _cmd_cluster(args: argparse.Namespace) -> int:
    return {"start": _cluster_start, "status": _cluster_status,
            "bench": _cluster_bench}[args.cluster_command](args)


def _cluster_start(args: argparse.Namespace) -> int:
    from repro.cluster import (ClusterRouter, RouterConfig, ShardSupervisor,
                               SupervisorConfig)

    supervisor = ShardSupervisor(SupervisorConfig(
        shards=args.shards, host=args.host, tpcc=args.tpcc,
        idle_timeout_sec=args.idle_timeout,
        drain_timeout_sec=args.drain_timeout))
    addresses = supervisor.start()
    for i, (host, port) in enumerate(addresses):
        print(f"shard {i}: {host}:{port}", flush=True)
    router = ClusterRouter(addresses, RouterConfig(
        host=args.host, port=args.port,
        idle_timeout_sec=args.idle_timeout,
        drain_timeout_sec=args.drain_timeout))
    try:
        router.run()
    finally:
        supervisor.stop()
    stats = router.stats
    print(f"router stopped: {stats.gtxns_begun} gtxns "
          f"({stats.commits_readonly} read-only, {stats.commits_1pc} "
          f"single-shard, {stats.commits_2pc} two-phase, "
          f"{stats.aborts} aborted)", flush=True)
    print("clean shutdown", flush=True)
    return 0


def _cluster_status(args: argparse.Namespace) -> int:
    from repro.client import RemoteDatabase

    remote = RemoteDatabase.connect(args.host, args.port, pool_size=1)
    try:
        stats = remote.server_stats()
    finally:
        remote.close()
    cluster = stats.get("cluster")
    if cluster is None:
        print(f"{args.host}:{args.port} is a single-node server, not a "
              "cluster router (try `repro cluster start`)", file=sys.stderr)
        return 2
    sessions = stats["sessions"]
    print(f"router {args.host}:{args.port}: up {stats['uptime_sec']} s, "
          f"{sessions['live']} sessions, "
          f"{sessions['in_flight_txns']} txns in flight")
    for entry in cluster["shards"]:
        state = "alive" if entry["alive"] else "DOWN"
        txns = entry["txns"]
        detail = (f"  active={txns.get('active', '?')} "
                  f"in_doubt={txns.get('in_doubt', '?')}"
                  if entry["alive"] else "")
        print(f"shard {entry['shard']}: {entry['host']}:{entry['port']} "
              f"{state}{detail}")
    router = cluster["router"]
    print(f"2pc: {router['commits_2pc']} two-phase, "
          f"{router['commits_1pc']} single-shard, "
          f"{router['commits_readonly']} read-only, "
          f"{router['aborts']} aborted; "
          f"{cluster['in_doubt']} in doubt, "
          f"{cluster['pending_decisions']} decisions pending")
    return 0


def _cluster_bench(args: argparse.Namespace) -> int:
    from repro.client import RemoteDatabase
    from repro.cluster import (ClusterRouter, RouterConfig, ShardSupervisor,
                               SupervisorConfig)
    from repro.workload.driver import TpccDriver
    from repro.workload.tpcc_data import TpccLoader
    from repro.workload.tpcc_schema import TpccScale, create_tpcc_tables

    scale = TpccScale(districts_per_warehouse=2, customers_per_district=4,
                      items=10, stock_per_warehouse=10,
                      initial_orders_per_district=2)
    supervisor = ShardSupervisor(SupervisorConfig(shards=args.shards))
    supervisor.start()
    router = ClusterRouter(supervisor.addresses, RouterConfig(port=0))
    try:
        host, port = router.start_in_background()
        print(f"{args.shards}-shard cluster behind {host}:{port}",
              flush=True)
        remote = RemoteDatabase.connect(host, port, pool_size=args.clients)
        try:
            create_tpcc_tables(remote)
            load = TpccLoader(remote, scale=scale).load(warehouses=1)
            print(f"loaded {load.rows} rows over the wire", flush=True)
            driver = TpccDriver(
                remote, warehouses=1, scale=scale,
                config=DriverConfig(
                    clients=args.clients,
                    maintenance_interval_usec=3600 * units.SEC))
            summary = driver.run_transactions(args.transactions).summary()
        finally:
            remote.close()
    finally:
        router.stop_in_background()
        supervisor.stop()
    stats = router.stats
    print(f"driver: {summary.commits} commits, {summary.aborts} aborts, "
          f"{summary.notpm:.0f} NOTPM over {summary.span_sec:.2f} sim-s")
    print(f"router: {stats.commits_2pc} two-phase, "
          f"{stats.commits_1pc} single-shard, "
          f"{stats.commits_readonly} read-only, {stats.fanouts} fan-outs")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.db.monitor import snapshot
    from repro.experiments import harness

    run = harness.run_tpcc(
        EngineKind.SIASV if args.engine == "sias-v" else EngineKind.SI,
        harness.ssd_single(), args.warehouses,
        args.seconds * units.SEC, scale=QUICK_SCALE)
    print(snapshot(run.db).render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SIAS-V reproduction: engines, workloads, exhibits")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="narrated engine walkthrough")

    bench = sub.add_parser("bench", help="SIAS-V vs SI quick comparison")
    bench.add_argument("--warehouses", type=int, default=4)
    bench.add_argument("--seconds", type=int, default=6)
    bench.add_argument("--clients", type=int, default=8)

    exhibit = sub.add_parser("exhibit",
                             help="regenerate one paper exhibit (quick)")
    exhibit.add_argument("id", help="f1 t1 t2 f3 f4 f5 t3 a1..a6")

    snap = sub.add_parser("snapshot", help="run briefly, dump all counters")
    snap.add_argument("--engine", choices=("sias-v", "si"),
                      default="sias-v")
    snap.add_argument("--warehouses", type=int, default=3)
    snap.add_argument("--seconds", type=int, default=4)

    report = sub.add_parser("report",
                            help="assemble RESULTS/ into REPORT.md")
    report.add_argument("--results", default="RESULTS")

    serve = sub.add_parser("serve",
                           help="serve a database over TCP (docs/SERVER.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7654,
                       help="0 binds an ephemeral port (printed on start)")
    serve.add_argument("--engine", choices=("sias-v", "si"),
                       default="sias-v")
    serve.add_argument("--max-in-flight", type=int, default=8,
                       help="commands submitted to the engine at once")
    serve.add_argument("--workers", type=int, default=0,
                       help="engine worker threads; 0 = auto "
                            "(min(4, cpu count))")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="waiting commands beyond which load is shed")
    serve.add_argument("--idle-timeout", type=float, default=60.0,
                       help="seconds before an idle session is reaped "
                            "(<= 0 disables)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="seconds a stopping server lets in-flight "
                            "transactions finish before aborting them")
    serve.add_argument("--tpcc", action="store_true",
                       help="pre-create the nine TPC-C tables")
    serve.add_argument("--recover", action="store_true",
                       help="run crash recovery before serving "
                            "(docs/RECOVERY.md)")

    sweep = sub.add_parser("sweep",
                           help="seeded fault sweep of one scenario "
                                "(docs/SWEEPS.md)")
    sweep.add_argument("scenario",
                       help="crash chaos cluster-link cluster-crash "
                            "cluster-canary failover resync resync-source "
                            "eviction")
    sweep.add_argument("--engine", choices=("siasv", "si", "both"),
                       help="crash / chaos only: engine(s) under test "
                            "(default both)")
    sweep.add_argument("--layout", choices=("vector", "nsm"),
                       help="crash / chaos only: SIAS-V append-page layout "
                            "(default vector)")
    sweep.add_argument("--stride", type=int, default=1,
                       help="inject the fault at every stride-th event")
    sweep.add_argument("--seed", type=int, default=None,
                       help="workload seed (default: the scenario's own)")
    sweep.add_argument("--at", type=int, default=None,
                       help="run only the point at event K (replay)")

    sicheck = sub.add_parser("si-check",
                             help="replay a recorded history through the "
                                  "black-box snapshot-isolation checker "
                                  "(docs/CLUSTER.md)")
    sicheck.add_argument("history",
                         help="JSONL history file "
                              "(repro.experiments.si_check format)")
    sicheck.add_argument("--expect-anomaly", action="store_true",
                         help="exit 0 only if the checker finds "
                              "violations (legacy-mode canary)")
    sicheck.add_argument("--max-violations", type=int, default=50,
                         help="stop after reporting this many")

    cluster = sub.add_parser("cluster",
                             help="VID-range sharded cluster "
                                  "(docs/CLUSTER.md)")
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    cstart = csub.add_parser("start",
                             help="start N shards and a router in the "
                                  "foreground")
    cstart.add_argument("--shards", type=int, default=2)
    cstart.add_argument("--host", default="127.0.0.1")
    cstart.add_argument("--port", type=int, default=7654,
                        help="router port; 0 binds an ephemeral port")
    cstart.add_argument("--tpcc", action="store_true",
                        help="pre-create the nine TPC-C tables on every "
                             "shard")
    cstart.add_argument("--idle-timeout", type=float, default=60.0)
    cstart.add_argument("--drain-timeout", type=float, default=5.0)

    cstatus = csub.add_parser("status",
                              help="query a running router's shard "
                                   "health and 2PC counters")
    cstatus.add_argument("--host", default="127.0.0.1")
    cstatus.add_argument("--port", type=int, default=7654)

    cbench = csub.add_parser("bench",
                             help="TPC-C through an ephemeral in-process "
                                  "cluster")
    cbench.add_argument("--shards", type=int, default=2)
    cbench.add_argument("--transactions", type=int, default=60)
    cbench.add_argument("--clients", type=int, default=4)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": _cmd_demo,
        "bench": _cmd_bench,
        "exhibit": _cmd_exhibit,
        "snapshot": _cmd_snapshot,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "sweep": _cmd_sweep,
        "si-check": _cmd_si_check,
        "cluster": _cmd_cluster,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
