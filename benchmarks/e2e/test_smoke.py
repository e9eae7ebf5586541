"""Smoke test for a later CI issue: every rung, quick mode, oracle on.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

``--quick`` shrinks the table to a fifth and the measured phase to ~0.5 s
but keeps every check: inline value checks, the full-scan oracle, crash +
recover + re-verify, the 2PC / in-doubt and replica-convergence checks.
"""

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_is_correct_and_complete(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})
