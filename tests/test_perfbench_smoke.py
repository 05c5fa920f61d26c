"""The benchmark's smoke mode, run as a test.

``perfbench/tracing.py`` wraps ``simulate_separated``, ``simulate_joint``,
``ThroughputCache.__call__`` and ``PolicyEvaluator._bundle`` and reads
``Trajectory.event_counts_by_kind``. A renamed or removed target either makes
the traced run fail or leaves its counter at 0; both fail here.
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


@pytest.mark.parametrize("workload", ["capacity-lp", "flow-models"])
def test_benchmark_smoke_runs_correctly(workload):
    metrics = _smoke(workload)
    if workload == "flow-models":
        for name in ("dynamics.separated_events", "dynamics.joint_events",
                     "dynamics.cache_lookups", "equilibrium.bundle_builds"):
            assert metrics[name] > 0, name
