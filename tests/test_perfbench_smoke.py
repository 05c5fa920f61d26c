"""The benchmark's smoke mode, run as a test.

``perfbench/tracing.py`` wraps ``simulate_separated``, ``simulate_joint``,
``ThroughputCache.__call__``, ``PolicyEvaluator.throughput`` and
``PolicyEvaluator._bundle`` and reads ``Trajectory.event_counts_by_kind``. A
renamed or removed target either makes the traced run fail or changes its
counter. The counts of both workloads are pinned exactly, so a speed-up that
changes the work done (schedules enumerated, LPs solved, states evaluated,
cache hits, bundles built, events simulated) fails here as well.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _smoke(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--smoke", "--trace", "1", "--seed", "7", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


# the first traced unit of the capacity-lp smoke run at seed 7; the tracer's
# capacity.lp_columns counts the schedule set passed to membership, not the
# LP's columns, and is left out
CAPACITY_LP_SMOKE_COUNTS = {
    # the sweep's one enumeration, the ring's product set and its two channels
    "schedule.enumerate_calls": 4,
    "schedule.schedules_built": 427,
    "capacity.lp_calls": 1,                 # the ring's membership call
    "capacity.status_interior": 1,
    "capacity.solver_errors": 0,
}

# the first traced unit of the flow-models smoke run at seed 7; the event
# and cache counts follow the random paths, so they move with any change to
# how the kernel draws its random numbers
FLOW_MODELS_SMOKE_COUNTS = {
    "equilibrium.throughput_calls": 391,    # 383 cache misses + 8 oracle keys (1,728 states)
    # the separated runs' key-table misses: a table hit calls no cache
    "dynamics.cache_lookups": 781,
    "dynamics.cache_misses": 383,
    "equilibrium.bundle_builds": 3,         # one uncapped enumeration per evaluator
    "dynamics.separated_events": 2756,
    # the tracer counts joint events in simulate_joint; the timescale study
    # runs its joint runs as lanes of _joint_final_states, which it does not wrap
    "dynamics.joint_events": 0,
}


@pytest.mark.parametrize("workload", ["capacity-lp", "flow-models"])
def test_benchmark_smoke_runs_correctly(workload):
    metrics = _smoke(workload)
    pinned = {"capacity-lp": CAPACITY_LP_SMOKE_COUNTS,
              "flow-models": FLOW_MODELS_SMOKE_COUNTS}[workload]
    assert {name: metrics[name] for name in pinned} == pinned
