#!/usr/bin/env python3
"""Benchmark of mccsma: one workload, measured for a fixed time.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--record FILE]

The run is a closed loop with one client: it starts one fresh child process
per unit of work (``child.py``), waits for it, and starts the next while the
next unit is expected to finish within ``--seconds``. Unit ``i`` of a run
uses the seed ``1000 * N + i``, so a run's median covers several random
inputs and the same ``--seed`` gives the same inputs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the units. ``run_s`` and ``setup_s`` are read on the child's
``SpeedClock``, which rescales wall time to a fixed reference CPU speed
(see ``speedclock.py``); the wall times are printed beside them. ``--trace 1``
runs each unit twice, untraced and then traced with the same seed, and
reports the per-layer metrics: counts from the first
traced unit, so they repeat exactly for a seed; times and rates as medians;
``trace.overhead_s`` as the median of traced minus untraced wall time. The
spans of the first traced unit are written to ``.perfbench_traces/``.

Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is 0 whenever that line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
TRACE_ROOT = ROOT / ".perfbench_traces"
BLAS_THREADS = 1            # at most nproc; one thread keeps dense solves steady
RUN_LIMIT_S = 170.0         # a run must end within 180 s
MAX_UNITS = 200
COUNT_UNITS = ("count", "B")
# the wall time behind each reference-speed metric, printed beside it
WALL_OF = {"run_s": "wall_s", "setup_s": "setup_wall_s"}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, trace: int, size: str, deadline: float,
              spans: Path | None = None) -> tuple[dict | None, str]:
    """Run one unit; returns (record, error). Waits for the child to end."""
    outdir = OUT_ROOT / f"{workload}-{seed}-t{trace}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--size", size,
           "--out", str(outdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"unit seed {seed} timed out"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(outdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"unit seed {seed} exited {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(lines[-1]), ""


def supported_percentile(n: int) -> float | None:
    """Highest percentile with at least ten samples beyond it."""
    best = None
    for p in (50.0, 90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def reduce(unit: str, values: list[float]) -> float:
    return values[0] if unit in COUNT_UNITS else statistics.median(values)


def describe(name: str, unit: str, values: list[float]) -> str:
    if unit in COUNT_UNITS:
        return f"{name:<34} {values[0]:g} {unit}  (first traced unit)"
    ordered = sorted(values)
    text = (f"{name:<34} {reduce(unit, values):.6g} {unit}  (median of units)"
            f"  min {ordered[0]:.6g}  max {ordered[-1]:.6g}  n={len(ordered)}")
    p = supported_percentile(len(ordered))
    if p is not None and p > 50:
        text += f"  p{p:g} {ordered[math.ceil(p / 100 * len(ordered)) - 1]:.6g}"
    return text


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same checks")
    p.add_argument("--record", help="write the full run record (units, machine) here")
    args = p.parse_args()

    if not (ROOT / "src" / "mccsma" / "__init__.py").is_file():
        print(f"no mccsma sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    size = "smoke" if args.smoke else "full"

    started = time.monotonic()
    deadline = started + args.seconds
    hard_deadline = started + RUN_LIMIT_S
    load_before = os.getloadavg()
    plain: list[dict] = []
    traced: list[dict] = []
    overheads: list[float] = []
    errors: list[str] = []
    unit_times: list[float] = []
    for i in range(MAX_UNITS):
        seed = 1000 * args.seed + i
        t0 = time.monotonic()
        rec, err = run_child(args.workload, seed, 0, size, hard_deadline)
        if rec is not None and args.trace:
            spans = TRACE_ROOT / f"{args.workload}-seed{args.seed}.json" if i == 0 else None
            rec_t, err = run_child(args.workload, seed, 1, size, hard_deadline, spans)
            if rec_t is not None:
                traced.append(rec_t)
                overheads.append(rec_t["wall_s"] - rec["wall_s"])
            rec = rec if rec_t is not None else None
        if rec is None:
            errors.append(err)
            break
        plain.append(rec)
        unit_times.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(unit_times) > deadline:
            break
    load_after = os.getloadavg()
    shutil.rmtree(OUT_ROOT, ignore_errors=True)

    for err in errors:
        print(f"# error: {err}", file=sys.stderr)
    if not plain or (args.trace and not traced):
        print("# no unit completed; no result", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in plain + traced) + len(errors)
    failed = sum(r["failed"] for r in plain + traced) + len(errors)
    versions = plain[0]["versions"]
    machine = {"cpu": cpu_model(), "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
               "platform": platform.platform(), **versions,
               "loadavg_before": load_before, "loadavg_after": load_after}
    print(f"# mccsma benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={size}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"# units: {len(plain)} (unit seeds {1000 * args.seed}.."
          f"{1000 * args.seed + len(plain) - 1}), {time.monotonic() - started:.1f} s")
    print(f"# ops (LP solves, replications, joint runs, oracle solves): attempted "
          f"{attempted}, failed {failed}, ops_failed_frac {failed / attempted:.6g}")
    for rec in plain + traced:
        for reason in rec["failures"]:
            print(f"# check failed (unit seed {rec['seed']}): {reason}")

    samples: dict[str, list[float]] = {}
    if args.trace:
        for name in traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in traced]
        samples["trace.overhead_s"] = overheads
    else:
        samples = {name: [r[name] for r in plain]
                   for name in ("run_s", "setup_s", "peak_rss_mb")}
    metrics = {}
    for m in metric_specs:
        values = samples[m["name"]]
        metrics[m["name"]] = {"value": reduce(m["unit"], values), "unit": m["unit"]}
        print(describe(m["name"], m["unit"], values))
        if not args.trace and m["name"] in WALL_OF:
            print(describe(f"  ({WALL_OF[m['name']]}, wall time)", m["unit"],
                           [r[WALL_OF[m["name"]]] for r in plain]))
    if not args.trace:
        print(describe("  (kernel_us, speed sample)", "us", [r["kernel_us"] for r in plain]))

    if args.record:
        Path(args.record).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": size, "machine": machine,
            "units": plain, "traced_units": traced, "errors": errors,
            "attempted": attempted, "failed": failed, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
