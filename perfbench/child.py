"""Run one unit of a workload in this fresh process and print its record.

Usage: python3 perfbench/child.py --workload NAME --seed N --trace 0|1
                                  --size full|smoke --out DIR [--spans FILE]

Set-up time runs from the first statement of this script to the end of
``Workload.setup``: importing ``mccsma`` (with numpy and scipy) and loading
and validating the workload's scenarios. Run time covers ``Workload.run``
only; the checks run after it. Both are read twice: as wall time and on a
``SpeedClock`` started before any other import, which rescales wall time to
a fixed reference CPU speed (``setup_s`` and ``run_s``; see
``speedclock.py``). The last line of standard output is one JSON record;
exit code 0 means the record was printed.
"""

import time

T0 = time.perf_counter()

from speedclock import SpeedClock  # noqa: E402

CLOCK = SpeedClock()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    args = p.parse_args()

    if not (SRC / "mccsma" / "__init__.py").is_file():
        print(f"no mccsma package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mccsma
    if not Path(mccsma.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported mccsma from {mccsma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracing
    from workloads import WORKLOADS

    outdir = Path(args.out)
    workload = WORKLOADS[args.workload](args.size, args.seed, outdir)
    workload.setup()
    setup_s = CLOCK.now()
    setup_wall_s = time.perf_counter() - T0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    start_ref = CLOCK.now()
    start = time.perf_counter()
    result = workload.run(tracer)
    wall_s = time.perf_counter() - start
    run_s = CLOCK.now() - start_ref
    if tracer is not None:
        tracer.uninstall()
    CLOCK.stop()

    outcome = workload.check(result)
    shutil.rmtree(outdir, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "setup_s": setup_s,
        "run_s": run_s,
        "setup_wall_s": setup_wall_s,
        "wall_s": wall_s,
        "kernel_us": CLOCK.median_kernel_s() * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "mccsma": mccsma.__version__},
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, wall_s)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps(
                {"fields": ["id", "parent", "name", "start", "end"],
                 "spans": tracer.spans}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report any failure of the unit through the exit code
        traceback.print_exc()
        sys.exit(3)
