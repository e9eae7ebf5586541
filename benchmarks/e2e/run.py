#!/usr/bin/env python3
"""The e2e ladder: one seeded transaction mix, four topologies, five rungs.

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload served_oltp --seed 7 \\
        --seconds 10 --trace 0                         # one run (the driver)

One workload runs in one fresh process pinned to one CPU.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones; the last
line of stdout is the machine-readable result.  Names, units, directions
and bounds live in ``BENCHMARK.json``; ``README.md`` says what each metric
is for and which layer should move it.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT}/src/repro is missing: the benchmark measures the "
             f"program in the checkout it is part of")
sys.path.insert(0, str(ROOT / "src"))

from repro import SystemConfig  # noqa: E402  (needs the path above)

import layers  # noqa: E402
import tracing  # noqa: E402
from driver import (  # noqa: E402
    RECOVERY_ROUNDS,
    OracleError,
    Runner,
    bill,
    load,
    recovery,
)
from topology import topology  # noqa: E402
from workloads import WORKLOADS, Mirror  # noqa: E402

OUT = HERE / "out"
#: the traced half stops early on fast rungs: spans are kept in memory
MAX_TRACED_TXNS = 20_000
#: a wedged server thread must not outlive the driver's 180 s limit
WATCHDOG_S = 170


def pin_cpu() -> int:
    """Pin this process (and every thread it starts) to one CPU.

    Thread-mode servers share the client's GIL; left unpinned the OS
    migrates the hand-off between cores and the served rungs go bimodal.
    """
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:  # not permitted here: run unpinned, and say so
        return -1
    return cpu


def set_up(name: str, seed: int, quick: bool):
    """Build the topology, load it, run the warm-up prefix; all timed.

    Returns ``(stack, runner, seconds)``; closing ``stack`` stops the
    topology's threads and sockets.
    """
    workload = WORKLOADS[name]
    rows = workload.rows // 5 if quick else workload.rows
    started = time.perf_counter()
    stack = contextlib.ExitStack()
    try:
        config = SystemConfig().with_buffer(**workload.buffer)
        topo = stack.enter_context(topology(workload.topology, config))
        mirror = Mirror()
        load(topo, mirror, rows)
        runner = Runner(topo, workload, mirror, workload.mix(seed, rows))
        runner.warm_up()
    except BaseException:
        stack.close()
        raise
    return stack, runner, time.perf_counter() - started


@contextlib.contextmanager
def fixed_instance(args, runners: list[Runner]):
    """An instance that does a *fixed* amount of work — one cycle — so
    that what is measured on it sees the same table state however fast
    the run goes.  Yields ``(stack, runner, setup seconds)``."""
    stack, fixed, took = set_up(args.workload, args.seed, args.quick)
    runners.append(fixed)
    with stack:
        fixed.fixed_work()
        yield stack, fixed, took


def crash_and_recover(stack, runner: Runner, rounds: int) -> dict:
    """The oracle through the facade, network down (no node is shut
    down), then power loss and :func:`driver.recovery` on the nodes,
    whose ``Database`` objects stay usable in process."""
    runner.verify_live()
    stack.close()
    return recovery(runner.topo, runner.mirror, rounds)


def p50_us(runner: Runner, kind: str) -> float:
    samples = runner.lat.get(kind)
    if not samples:
        raise OracleError(f"no successful {kind!r} op was measured")
    return statistics.median(samples) / 1e3


def untraced_run(args, seconds: float,
                 runners: list[Runner]) -> dict[str, float]:
    """End-to-end metrics from two set-ups (``setup_s`` is their mean).

    The fixed-work instance gives ``aggregate_p50_us`` (the scan phase)
    and ``recover_s`` (power loss, recovery from the WAL tail).  The
    second instance runs the mix against the clock and is then shut down
    cleanly for the write bill.
    """
    name, seed = args.workload, args.seed
    with fixed_instance(args, runners) as (stack, fixed, fixed_setup_s):
        fixed.scan_phase(seed)
        recovered = crash_and_recover(stack, fixed, RECOVERY_ROUNDS)
    stack, runner, setup_s = set_up(name, seed, args.quick)
    runners.append(runner)
    gc.collect()
    with stack:
        runner.measure(seconds, args.ops)
        runner.verify_live()
        runner.topo.maintenance()
        stack.close()
        final = bill(runner.topo, runner)
    return {
        "setup_s": (fixed_setup_s + setup_s) / 2,
        "throughput_tps": runner.throughput_tps(),
        "read_p50_us": p50_us(runner, "read"),
        "write_p50_us": p50_us(runner, "update"),
        "insert_p50_us": p50_us(runner, "insert"),
        "transfer_p50_us": p50_us(runner, "transfer"),
        "aggregate_p50_us": p50_us(fixed, "aggregate"),
        "visibility_p50_us": p50_us(runner, "visibility"),
        "device_write_bytes_per_user_byte":
            final["device_write_bytes_per_user_byte"],
        "space_bytes_per_live_byte": final["space_bytes_per_live_byte"],
        "recover_s": recovered["recover_s"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(args, seconds: float, cpu: int,
               runners: list[Runner]) -> dict[str, float]:
    """Per-layer metrics: the fixed-work instance for the recovery's redo
    count, then one instance that runs half the budget untraced (counters,
    baseline throughput) and half with the wrappers installed."""
    name, seed = args.workload, args.seed
    with fixed_instance(args, runners) as (stack, fixed, _took):
        recovered = crash_and_recover(stack, fixed, 1)
    stack, runner, _took = set_up(name, seed, args.quick)
    runners.append(runner)
    topo = runner.topo
    half = None if args.ops is None else args.ops // 2
    with stack:
        before = layers.snapshot(topo)
        runner.measure(seconds / 2, half)
        untraced_tps = runner.throughput_tps()
        untraced_txn_ns = sorted(
            ns for kind, samples in runner.lat.items()
            if kind in runner.op_kinds for ns in samples)
        untraced_cycles = len(runner.cycles)
        tracer = runner.tracer = tracing.Tracer()
        tracing.install(tracer, topo)
        try:
            runner.measure(seconds / 2, half, max_txns=MAX_TRACED_TXNS)
            traced_tps = runner.throughput_tps(since=untraced_cycles)
            counts = layers.snapshot(topo)
            counts.subtract(before)
            runner.scan_phase(seed)
        finally:
            tracer.remove()
            runner.tracer = None
        runner.verify_live()
    attribution = tracing.Attribution(tracer)
    fold = attribution.fold()
    attribution.write(OUT / f"trace_{name}.json", {
        "self_ms_by_group_and_layer": {
            group: {k: v / 1e6 for k, v in sorted(by_layer.items())}
            for group, by_layer in fold["layers"].items()},
        "txn_wall_us": fold["root_ns"] / fold["txns"] / 1e3,
        "traced_txns": fold["txns"]})
    return layers.per_layer(
        topo, runner, counts, fold, sum(tracer.frame_bytes), untraced_tps,
        traced_tps, untraced_txn_ns, recovered["redo_records"], cpu)


def run_one(args: argparse.Namespace) -> int:
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    cpu = pin_cpu()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seconds = 0.5 if args.quick else args.seconds
    metrics: dict[str, float] = {}
    runners: list[Runner] = []
    problem = None
    try:
        if args.trace:
            metrics = traced_run(args, seconds, cpu, runners)
        else:
            metrics = untraced_run(args, seconds, runners)
    except OracleError as exc:
        problem = str(exc)
    else:
        if {m["name"] for m in declared} != set(metrics):
            sys.exit("BENCHMARK.json and run.py disagree on the metrics: "
                     f"{sorted({m['name'] for m in declared} ^ set(metrics))}")
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    problems = ([problem] if problem else []) + [
        e for r in runners for e in r.first_errors]

    print(f"# {args.workload}  seed={args.seed}  cpu={cpu}  "
          f"failed={failed}/{attempted}"
          + "".join(f"  [{r.txns} txns in {r.measured_ns / 1e9:.2f}s]"
                    for r in runners))
    for m in declared:
        if m["name"] in metrics:
            bound = f"  bound {m['bound']:.0%}" if "bound" in m else ""
            print(f"{m['name']:42s} {metrics[m['name']]:16.4f} "
                  f"{m['unit']:6s} {m['better']}-better{bound}")
    for message in problems:
        print(f"PROBLEM: {message}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in declared}
    result = {"correct": problem is None, "attempted": max(attempted, 1),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    (OUT / f"result_{args.workload}_{kind}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "ops": args.ops, "quick": args.quick, **result,
        "problems": problems,
        "measured_txns": [r.txns for r in runners],
        "samples": [{k: len(v) for k, v in sorted(r.lat.items())}
                    for r in runners],
        "bounds": {m["name"]: m["bound"] for m in declared if "bound" in m},
        "pinned_cpu": cpu, "nproc": os.cpu_count(),
        "python": platform.python_version(), **commit_state()}, indent=1))
    print(json.dumps(result))
    return 0 if problem is None else 1


def commit_state() -> dict:
    """Commit and dirty flag, where the checkout is a git repository."""
    def git(*argv: str) -> str | None:
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, timeout=10,
                                  capture_output=True, text=True)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return None if done.returncode else done.stdout.strip()
    head, status = git("rev-parse", "HEAD"), git("status", "--porcelain")
    return {"commit": head, "dirty": None if status is None else bool(status)}


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own interpreter; non-zero if any fails."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.quick:
            argv.append("--quick")
        if args.ops is not None:
            argv += ["--ops", str(args.ops)]
        status |= subprocess.run(argv).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int,
                        help="measure exactly this many txns instead of "
                             "--seconds (exact-count comparisons)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1/5 of the rows, ~0.5 s measured, "
                             "every check still on")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
