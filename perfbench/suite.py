#!/usr/bin/env python3
"""Run the benchmark over several seeds and report spread and agreement.

Usage (from the repository root):

    python3 perfbench/suite.py [--sets 2] [--traced] [--smoke]
                               [--baseline FILE --label NAME]

Each set runs every workload once per seed for ``run_seconds`` of
BENCHMARK.json with tracing off, 10 seeds per set; set ``k`` uses the seeds
``1 + 10 * k`` onwards, so sets share no inputs. For each workload the suite
prints every end-to-end metric by name and unit with its median, quartiles
and spread, the quartile distance over the median, which must stay within
the metric's bound. With two or more sets it checks that no later set's
median is worse than the first set's by more than the bound. ``--traced``
adds one traced run per workload per set, all with seed 1, checks that their
counts repeat exactly and prints each workload's layer split. ``--smoke``
runs the tiny sizes with tracing, one seed per set and 5 s runs, a self-test
of the harness that takes about a minute.

``--baseline`` writes every run's metrics, load averages and machine record
to FILE. The exit code is 0 when every run is correct and every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from run import COUNT_UNITS
from tracing import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_suite"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FIRST_SEED = 1


def bench(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run of run.py; returns its full record (or an error record)."""
    SCRATCH.mkdir(exist_ok=True)
    record = SCRATCH / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--record", str(record)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0 or not record.exists():
        return {"workload": workload, "seed": seed, "error": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rec = json.loads(record.read_text())
    record.unlink()
    rec["correct"] = result["correct"]
    return rec


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def worse_by(first: float, later: float, better: str) -> float:
    return (later - first) / first if better == "lower" else (first - later) / first


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--baseline")
    p.add_argument("--label", default="")
    args = p.parse_args()
    workloads = list(WORKLOADS)
    seeds = 1 if args.smoke else 10
    seconds = 5 if args.smoke else SPEC["run_seconds"]
    traced = args.traced or args.smoke

    ok = True
    runs: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    traces: dict[str, list[dict]] = {w: [] for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            runs[w].append([])
        for j in range(seeds):
            seed = FIRST_SEED + s * seeds + j
            for w in workloads:
                rec = bench(w, seed, seconds, 0, args.smoke)
                runs[w][s].append(rec)
                print(f"# set {s + 1} {w} seed {seed}: "
                      + ("ERROR " + rec["error"] if "error" in rec else
                         f"correct={rec['correct']} units={len(rec['units'])} " +
                         " ".join(f"{k}={v['value']:.5g}" for k, v in rec["metrics"].items())),
                      flush=True)
        if traced:
            for w in workloads:
                rec = bench(w, FIRST_SEED, seconds, 1, args.smoke)
                traces[w].append(rec)
                print(f"# set {s + 1} {w} traced seed {FIRST_SEED}: "
                      + ("ERROR " + rec["error"] if "error" in rec else
                         f"correct={rec['correct']}"), flush=True)
    shutil.rmtree(SCRATCH, ignore_errors=True)

    report: dict = {"label": args.label, "seconds": seconds, "seeds_per_set": seeds,
                    "sets": args.sets, "size": "smoke" if args.smoke else "full",
                    "workloads": {}}
    for w in workloads:
        all_runs = [r for set_runs in runs[w] for r in set_runs] + traces[w]
        bad = [r for r in all_runs if "error" in r or not r["correct"]]
        if bad:
            ok = False
            print(f"{w}: {len(bad)} run(s) failed or incorrect")
            for r in bad:
                print(f"  seed {r['seed']}: {r.get('error', 'correctness check failed')}")
            continue
        report["machine"] = all_runs[0]["machine"]
        entry = report["workloads"][w] = {"sets": [], "traced": []}
        print(f"\n{w}  ({seeds} seeds x {args.sets} set(s), {seconds:g} s per run)")
        firsts: dict[str, float] = {}
        for s, set_runs in enumerate(runs[w]):
            set_entry = {"runs": [{"seed": r["seed"], "units": len(r["units"]),
                                   "loadavg_before": r["machine"]["loadavg_before"],
                                   "loadavg_after": r["machine"]["loadavg_after"],
                                   "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                                  for r in set_runs], "summary": {}}
            entry["sets"].append(set_entry)
            for m in SPEC["end_to_end"]:
                name, bound = m["name"], m["bound"]
                st = summary([r["metrics"][name]["value"] for r in set_runs])
                set_entry["summary"][name] = st
                line = (f"  set {s + 1} {name:<12} {st['median']:12.6g} {m['unit']:<4}"
                        f" q1 {st['q1']:.6g} q3 {st['q3']:.6g} spread {st['spread']:.4f}"
                        f" (bound {bound})")
                if not args.smoke and st["spread"] > bound:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                if s == 0:
                    firsts[name] = st["median"]
                else:
                    drift = worse_by(firsts[name], st["median"], m["better"])
                    line += f"  worse than set 1 by {drift:+.4f}"
                    if not args.smoke and drift > bound:
                        ok = False
                        line += "  DISAGREES"
                print(line)
        if traces[w]:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if v["unit"] in COUNT_UNITS} for r in traces[w]]
            repeat = all(c == counts[0] for c in counts)
            ok = ok and repeat
            first = traces[w][0]["metrics"]
            split = "  ".join(f"{layer} {first[f'{layer}.share']['value']:.3f}"
                              for layer in LAYERS)
            print(f"  layer split (self time share): {split}")
            print(f"  traced counts repeat exactly over {len(counts)} run(s): {repeat}")
            entry["traced"] = [{k: v["value"] for k, v in r["metrics"].items()}
                               for r in traces[w]]

    if args.baseline:
        Path(args.baseline).write_text(json.dumps(report, indent=1) + "\n")
    print("\nall checks hold" if ok else "\nSOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
