#!/usr/bin/env python3
"""Is the benchmark steady enough to judge a change by?

    python3 benchmarks/e2e/selfcheck.py [--seed S] [--seconds N]

1. Timed sets: the whole benchmark twice with one seed and once with
   another.  Every end-to-end metric of the two same-seed sets must agree
   within its bound; a (metric, workload) pair that does not is printed as
   ``unresolved`` — a later claim on it cannot be judged — and fails the
   check.  The other-seed set must merely run clean.
2. Exact sets: the two embedded workloads twice with ``--ops`` (a fixed op
   count instead of a time budget), untraced and traced.  With one client
   and no timers, device / WAL / buffer counts — and the write
   amplification and space ratios built from them — must repeat bit for
   bit.
3. Predictions: one traced run of every workload must show the traffic
   property its ``why`` claims (``PREDICTIONS``) — a workload that lost its
   property can judge no change to the layer it was built for.

Exit status 0 only if nothing is unresolved, nothing differs, every
prediction holds, and every run's oracle passed with zero failed
operations.
"""

from __future__ import annotations

import argparse
import json
import operator
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

#: per-layer metrics that are pure counts of the program's own work
EXACT = ("storage.data_reads_per_txn", "storage.data_writes_per_txn",
         "storage.data_write_bytes_per_txn",
         "storage.wal_write_bytes_per_txn", "storage.busy_sim_us_per_txn",
         "buffer.hit_ratio", "buffer.misses_per_txn",
         "buffer.evictions_per_txn", "buffer.writebacks_per_txn",
         "wal.forces_per_txn", "wal.records_per_txn", "wal.bytes_per_txn",
         "txn.lock_acquires_per_txn", "core.resolves_per_txn",
         "core.chain_hops_per_resolve", "core.avg_fill_degree",
         "core.gc_records_discarded_per_txn",
         "core.gc_pages_reclaimed_per_txn", "db.checkpoints", "bench.ops")
EXACT_E2E = ("device_write_bytes_per_user_byte",
             "space_bytes_per_live_byte")
EXACT_WORKLOADS = {"embedded_oltp": 40_000, "embedded_cold": 12_000}

_EMBEDDED = ("embedded_oltp", "embedded_cold")
_NETWORKED = ("served_oltp", "sharded_oltp", "replicated_oltp")
_ALL = _EMBEDDED + _NETWORKED
#: (workloads, per-layer metric, relation, value) on the unmodified program
PREDICTIONS = (
    # the table fits the pool on one embedded rung and not on the other
    (("embedded_oltp",), "buffer.hit_ratio", "==", 1.0),
    (("embedded_oltp",), "storage.data_reads_per_txn", "==", 0),
    (("embedded_cold",), "buffer.hit_ratio", "<", 1.0),
    (("embedded_cold",), "storage.data_reads_per_txn", ">", 0),
    # only the cold rung's long reader walks version chains
    (("embedded_oltp",), "core.chain_hops_per_resolve", "==", 0),
    (("embedded_cold",), "core.chain_hops_per_resolve", ">", 0),
    # recovery redoes a WAL tail everywhere
    (_ALL, "core.recover_redo_records", ">", 0),
    # each service layer works on its own rung(s) and nowhere else
    (_EMBEDDED, "server.rpcs_per_txn", "==", 0),
    (_NETWORKED, "server.rpcs_per_txn", ">", 0),
    (("sharded_oltp",), "cluster.shard_rpcs_per_txn", ">", 0),
    (("sharded_oltp",), "cluster.commits_2pc_per_txn", ">", 0),
    (tuple(w for w in _ALL if w != "sharded_oltp"),
     "cluster.shard_rpcs_per_txn", "==", 0),
    (("replicated_oltp",), "replication.fetches_per_txn", ">", 0),
    (("replicated_oltp",), "replication.applied_txns_per_txn", ">", 0),
    (tuple(w for w in _ALL if w != "replicated_oltp"),
     "replication.fetches_per_txn", "==", 0),
)
_RELATIONS = {"==": operator.eq, "<": operator.lt, ">": operator.gt}


def run(workload: str, *flags: object) -> dict:
    """One run; its last stdout line, parsed.  Raises if it did not pass."""
    argv = [*SPEC["command"], "--workload", workload, *map(str, flags)]
    done = subprocess.run(argv, cwd=HERE.parents[1], capture_output=True,
                          text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(argv)}: correct={result['correct']} "
                         f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    timed = ("--seconds", args.seconds, "--trace", 0)
    bad = 0

    first = {w: run(w, "--seed", args.seed, *timed) for w in workloads}
    second = {w: run(w, "--seed", args.seed, *timed) for w in workloads}
    for w in workloads:
        run(w, "--seed", args.seed + 1, *timed)
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for w in workloads:
            a, b = first[w][name], second[w][name]
            spread = abs(a - b) / ((a + b) / 2)
            verdict = "ok" if spread <= bound else "unresolved"
            bad += verdict != "ok"
            print(f"{verdict:10s} {name:34s} {w:16s} {a:14.4f} {b:14.4f} "
                  f"spread {spread:6.1%} bound {bound:.0%}")

    for w, ops in EXACT_WORKLOADS.items():
        for trace, names in ((0, EXACT_E2E), (1, EXACT)):
            exact = ("--seed", args.seed, "--ops", ops, "--trace", trace)
            a, b = run(w, *exact), run(w, *exact)
            for name in names:
                same = a[name] == b[name]
                bad += not same
                print(f"{'exact' if same else 'DIFFERS':10s} {name:34s} "
                      f"{w:16s} {a[name]!r} {b[name]!r}")

    traced = {w: run(w, "--seed", args.seed, "--seconds", args.seconds,
                     "--trace", 1) for w in workloads}
    for names, metric, relation, value in PREDICTIONS:
        for w in names:
            holds = _RELATIONS[relation](traced[w][metric], value)
            bad += not holds
            print(f"{'holds' if holds else 'BROKEN':10s} {metric:34s} "
                  f"{w:16s} {traced[w][metric]!r} {relation} {value}")
    print("selfcheck", "green" if not bad else f"RED ({bad} problems)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
