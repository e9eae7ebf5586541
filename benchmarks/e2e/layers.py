"""Per-layer numbers: the counters the layers export, plus the trace fold.

A layer is a module under ``src/repro/``.  Counts are summed over every
node and taken over the whole measured phase of a ``--trace 1`` run (its
untraced and traced halves — the wrappers add no device or WAL work);
everything timed (``*_us*``) comes from the traced half only and carries
the tracer's own cost, so compare it between commits, not with a wall
clock.  Counts that grow with the run are reported per transaction,
because a run is bounded by time, not by op count.
"""

from __future__ import annotations

import statistics
from collections import Counter

from topology import Topology
from tracing import median_us

_SHIPPING = ("WAL_", "BACKUP_")


def snapshot(topo: Topology) -> Counter:
    """Every exported counter this benchmark reads, summed over nodes."""
    c: Counter = Counter()
    for db in topo.nodes:
        data, wal_dev = db.data_device.stats, db.wal.device.stats
        c["data_reads"] += data.reads
        c["data_writes"] += data.writes
        c["data_write_bytes"] += data.write_bytes
        c["wal_write_bytes"] += wal_dev.write_bytes
        c["busy_sim_us"] += data.busy_usec + wal_dev.busy_usec
        buf = db.buffer.stats
        c["buf_hits"] += buf.hits
        c["buf_misses"] += buf.misses
        c["buf_evictions"] += buf.evictions
        c["buf_writebacks"] += buf.writebacks
        c["wal_forces"] += db.wal.forces
        c["wal_group_commits"] += db.wal.group_commits
        c["wal_records"] += db.wal.records_written
        c["wal_bytes"] += db.wal.bytes_written
        locks = db.txn_mgr.locks.stats
        c["lock_acquires"] += locks.acquired
        c["lock_conflicts"] += locks.conflicts
        c["lock_waits"] += locks.waits
        c["txn_aborts"] += db.txn_mgr.counters()[1]
        c["checkpoints"] += db.checkpointer.checkpoints
        for relation in db.tables.values():
            c["resolves"] += relation.engine.stats.resolves
            c["chain_hops"] += relation.engine.stats.chain_hops
            c["sealed_pages"] += relation.engine.store.stats.sealed_pages
            c["fill_sum"] += relation.engine.store.stats.fill_degree_sum
    for server in topo.servers:
        c["shed"] += server.dispatch.stats.shed_total
        for name, counter in server.dispatch.stats.commands.items():
            if not name.startswith(_SHIPPING):
                c["server_calls"] += counter.calls
    if topo.router is not None:
        c["router_calls"] = sum(s.calls for s in topo.router.command_stats())
        stats = topo.router.stats
        for name in ("fanouts", "commits_1pc", "commits_2pc",
                     "snapshot_refreshes", "prepare_failures"):
            c[name] = getattr(stats, name)
        c["fanout_calls"] = sum(f.calls for f in stats.fanout.values())
        c["fanout_us"] = sum(f.total_usec for f in stats.fanout.values())
    for role in ("client", "admin"):
        pool = topo.pools.get(role)
        if pool is not None:
            s = pool.stats
            c["pool_created"] += s.created
            c["pool_reused"] += s.reused
            c["retries"] += (s.overload_retries + s.deadline_retries
                             + s.connect_retries + s.ambiguous_retries)
    if topo.follower is not None:
        c["fetches"] = topo.hub.shipped_frames
        c["shipped_records"] = topo.hub.shipped_records
        status = topo.follower.status()
        c["frames"] = status["frames"]
        c["marker_skips"] = status["marker_skips"]
        c["applied_txns"] = status["applied_txns"]
    return c


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(samples) -> float:
    return statistics.mean(samples) if samples else 0.0


def _percentile(samples: list, pct: int) -> float:
    """0.0 without samples: the layer did not run on this rung."""
    if len(samples) < 2:
        return float(samples[0]) if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def per_layer(topo: Topology, runner, counts: Counter, fold: dict,
              frame_bytes: int, untraced_tps: float, traced_tps: float,
              untraced_txn_ns: list, redo_records: int, cpu: int) -> dict:
    """Every metric of BENCHMARK.json's ``per_layer``, by name.

    ``counts`` are counter deltas over ``runner.txns`` transactions;
    ``fold`` is :meth:`tracing.Attribution.fold` over the traced half.
    A layer that does not run on this rung reports 0.
    """
    txns = runner.txns
    traced = fold["txns"]
    dur, self_by, n = fold["durations"], fold["self_by"], fold["counts"]
    in_txn = fold["layers"]["txn"]
    sharded = topo.router is not None

    def us_per_txn(*labels: str) -> float:
        return sum(self_by.get(label, 0) for label in labels) / traced / 1e3

    def layer_us(name: str) -> float:
        return in_txn.get(name, 0) / traced / 1e3

    def p50_us(label: str) -> float:
        return median_us(dur.get(label))

    # RPCs that end at a DatabaseServer: the router's on the sharded rung
    to_server = "rpc.router" if sharded else "rpc.client"
    server_rpcs = n.get(to_server, 0)
    rows_per_scan = len(runner.mirror.balance) / (len(topo.nodes)
                                                  if sharded else 1)
    lag = runner.lag_samples
    return {
        "storage.data_reads_per_txn": counts["data_reads"] / txns,
        "storage.data_writes_per_txn": counts["data_writes"] / txns,
        "storage.data_write_bytes_per_txn": counts["data_write_bytes"] / txns,
        "storage.wal_write_bytes_per_txn": counts["wal_write_bytes"] / txns,
        "storage.busy_sim_us_per_txn": counts["busy_sim_us"] / txns,
        "storage.wal_write_p50_us": p50_us("waldev.write_pages"),
        "storage.self_us_per_txn": layer_us("storage"),
        "buffer.hit_ratio": 1.0 - _ratio(
            counts["buf_misses"], counts["buf_hits"] + counts["buf_misses"]),
        "buffer.misses_per_txn": counts["buf_misses"] / txns,
        "buffer.evictions_per_txn": counts["buf_evictions"] / txns,
        "buffer.writebacks_per_txn": counts["buf_writebacks"] / txns,
        "buffer.self_us_per_txn": layer_us("buffer"),
        "pages.decodes_per_txn": n.get("pages.decode", 0) / traced,
        "pages.decode_us_per_txn": layer_us("pages"),
        "wal.forces_per_txn": counts["wal_forces"] / txns,
        "wal.group_commits": counts["wal_group_commits"],
        "wal.records_per_txn": counts["wal_records"] / txns,
        "wal.bytes_per_txn": counts["wal_bytes"] / txns,
        "wal.log_commit_p50_us": p50_us("wal.log_commit"),
        "wal.self_us_per_txn": layer_us("wal"),
        "index.ops_per_txn": sum(
            v for k, v in n.items() if k.startswith("index.")) / traced,
        "index.search_us_per_txn": us_per_txn(
            "index.search", "index.range", "index.contains"),
        "index.insert_us_per_txn": us_per_txn("index.insert",
                                              "index.delete"),
        "txn.begin_p50_us": p50_us("txn.begin"),
        "txn.commit_p50_us": p50_us("txn.commit"),
        "txn.lock_acquires_per_txn": counts["lock_acquires"] / txns,
        "txn.lock_conflicts": counts["lock_conflicts"],
        "txn.lock_waits": counts["lock_waits"],
        "txn.aborts": counts["txn_aborts"],
        "txn.self_us_per_txn": layer_us("txn"),
        "core.resolves_per_txn": counts["resolves"] / txns,
        "core.chain_hops_per_resolve": _ratio(counts["chain_hops"],
                                              counts["resolves"]),
        "core.max_chain_hops": max(
            relation.engine.stats.max_chain_hops for db in topo.nodes
            for relation in db.tables.values()),
        "core.resolve_us_per_txn": us_per_txn("resolve.read",
                                              "resolve.read_many"),
        "core.write_us_per_txn": us_per_txn(
            "write.insert", "write.update", "write.delete",
            "write.bulk_insert"),
        "core.vecscan_us_per_row": _mean(
            dur.get("vecscan.aggregate")) / 1e3 / rows_per_scan,
        "core.self_us_per_txn": layer_us("core"),
        "core.avg_fill_degree": _ratio(counts["fill_sum"],
                                       counts["sealed_pages"]),
        "core.gc_runs": len(runner.maintenance_ns),
        "core.gc_ms_per_run": _mean(runner.maintenance_ns) / 1e6,
        "core.gc_records_discarded_per_txn":
            runner.gc_records_discarded / txns,
        "core.gc_pages_reclaimed_per_txn": runner.gc_pages_reclaimed / txns,
        "core.recover_redo_records": redo_records,
        "db.lookup_p50_us": p50_us("db.lookup"),
        "db.update_p50_us": p50_us("db.update"),
        "db.insert_p50_us": p50_us("db.insert"),
        "db.aggregate_p50_us": p50_us("db.aggregate"),
        "db.commit_p50_us": p50_us("db.commit"),
        "db.self_us_per_txn": layer_us("db"),
        "db.checkpoints": counts["checkpoints"],
        "db.checkpoint_ms": _mean(dur.get("checkpoint.run_now")) / 1e6,
        "db.maintenance_stall_max_ms": runner.stall_max_ns / 1e6,
        "server.rpcs_per_txn": (counts["router_calls"] if sharded
                                else counts["server_calls"]) / txns,
        "server.wire_bytes_per_txn": frame_bytes / traced,
        "server.codec_us_per_rpc": _ratio(
            self_by.get("codec", 0) / 1e3,
            n.get("rpc.client", 0) + n.get("rpc.router", 0)),
        "server.dispatch_p50_us": p50_us("dispatch"),
        "server.overhead_us_per_rpc": _ratio(
            (self_by.get(to_server, 0) + self_by.get("dispatch", 0)
             + self_by.get("exec", 0)) / 1e3, server_rpcs),
        "server.shed": counts["shed"],
        "server.self_us_per_txn": layer_us("server"),
        "client.call_p50_us": p50_us("rpc.client"),
        "client.txn_p95_us": _percentile(untraced_txn_ns, 95) / 1e3,
        "client.txn_p99_us": _percentile(untraced_txn_ns, 99) / 1e3,
        "client.retries": counts["retries"],
        "client.pool_created": counts["pool_created"],
        "client.pool_reused_per_txn": counts["pool_reused"] / txns,
        "cluster.shard_rpcs_per_txn": (counts["server_calls"] / txns
                                       if sharded else 0.0),
        "cluster.fanouts_per_txn": counts["fanouts"] / txns,
        "cluster.fanout_mean_us": _ratio(counts["fanout_us"],
                                         counts["fanout_calls"]),
        "cluster.router_overhead_us_per_rpc": _ratio(
            in_txn.get("cluster", 0) / 1e3, n.get("rpc.client", 0)),
        "cluster.commits_1pc_per_txn": counts["commits_1pc"] / txns,
        "cluster.commits_2pc_per_txn": counts["commits_2pc"] / txns,
        "cluster.commit_1pc_p50_us": median_us(runner.lat.get("commit_1pc")),
        "cluster.commit_2pc_p50_us": median_us(runner.lat.get("commit_2pc")),
        "cluster.snapshot_refreshes_per_txn":
            counts["snapshot_refreshes"] / txns,
        "cluster.prepare_failures": counts["prepare_failures"],
        "cluster.in_doubt_end": runner.in_doubt_end,
        "replication.fetches_per_txn": counts["fetches"] / txns,
        "replication.useful_fetch_ratio": _ratio(
            counts["frames"] - counts["marker_skips"], counts["frames"]),
        "replication.shipped_records_per_txn":
            counts["shipped_records"] / txns,
        "replication.applied_txns_per_txn": counts["applied_txns"] / txns,
        "replication.loop_us_per_txn": sum(
            fold["layers"]["replication"].values()) / traced / 1e3,
        "replication.marker_forces_per_txn":
            (counts["frames"] - counts["marker_skips"]) / txns,
        "replication.lag_records_p50": statistics.median(lag) if lag else 0,
        "replication.lag_records_max": max(lag, default=0),
        "replication.visibility_p95_us": (
            _percentile(sorted(runner.lat["visibility"]), 95) / 1e3
            if topo.follower is not None else 0.0),
        "bench.trace_overhead_frac": 1.0 - traced_tps / untraced_tps,
        "bench.attributed_frac": 1.0 - (in_txn.get("bench", 0) + sum(
            ns for label, ns in self_by.items()
            if label.startswith("rpc."))) / fold["root_ns"],
        "bench.self_us_per_txn": layer_us("bench"),
        "bench.txn_wall_us": fold["root_ns"] / traced / 1e3,
        "bench.pinned_cpu": cpu,
        "bench.ops": txns,
        "bench.failed_frac": runner.failed / runner.attempted,
    }
