"""The benchmark's workloads: inputs, the timed work, and correctness checks.

One *unit* of a workload runs in a fresh child process (see ``child.py``):
``setup`` loads and validates the scenarios, ``run`` is the timed work and
``check`` verifies the outputs against closed forms restated here, never
against other library output. Every check must hold for any seed.

Sizes come in two variants: ``full`` is what the benchmark measures and
``smoke`` is a tiny version that finishes in seconds and runs the same
checks and code paths.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from tracing import Tracer

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

BOUNDARY_TOL = 1e-9          # the LP's no-verdict band around margin 0
MARGIN_RTOL = 1e-9
VERDICTS = ("stable-evidence", "unstable-evidence", "inconclusive")


@dataclass
class Outcome:
    attempted: int             # operations: LP solves, replications, joint runs, oracle solves
    failed: int = 0            # raised, exited non-zero or failed a check
    failures: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.failures) < 20:
            self.failures.append(reason)


def _module(name: str):
    # ``mccsma.equilibrium`` as a package attribute is the function, not the module
    return importlib.import_module(f"mccsma.{name}")


def _cli(tracer: Optional[Tracer], argv: list[str]) -> int:
    main = _module("cli").main
    return main(argv) if tracer is None else tracer.call("cli.main", main, argv)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _status(margin: float) -> str:
    if abs(margin) <= BOUNDARY_TOL:
        return "boundary"
    return "interior" if margin > 0 else "exterior"


def _close(value: float, expected: float) -> bool:
    if math.isinf(expected):
        return value == expected
    return abs(value - expected) <= MARGIN_RTOL * max(1.0, abs(expected))


class Workload:
    sizes: dict[str, Any] = {}

    def __init__(self, size: str, seed: int, outdir: Path):
        self.size = self.sizes[size]
        self.seed = seed
        self.outdir = outdir

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer: Optional[Tracer]) -> Any:
        raise NotImplementedError

    def check(self, result: Any) -> Outcome:
        raise NotImplementedError


class SweepBowtie(Workload):
    """``run capacity-sweep`` on the bundled bow-tie: grid x grid LPs over one
    schedule set of 67 schedules. Per-call LP overhead dominates."""

    sizes = {"full": 50, "smoke": 5}

    def setup(self) -> None:
        _module("scenario").load_scenario("bowtie")

    def run(self, tracer):
        out = self.outdir / "sweep"
        rc = _cli(tracer, ["run", "capacity-sweep", "--scenario", "bowtie",
                           "--grid", str(self.size), "--seed", str(self.seed),
                           "--output", str(out)])
        return rc, out

    @staticmethod
    def expected_margin(edge: float, center: float) -> float:
        """Bow-tie capacity: each class is served at rate at most 1, and each
        triangle (two edge classes plus the center) shares 2 channels."""
        bounds = [1.0 / r for r in (edge, center) if r > 0]
        if 2 * edge + center > 0:
            bounds.append(2.0 / (2 * edge + center))
        return min(bounds, default=math.inf) - 1.0

    def check(self, result) -> Outcome:
        rc, out = result
        grid = self.size
        outcome = Outcome(grid * grid)
        if rc != 0:
            outcome.fail(outcome.attempted, f"capacity-sweep exited {rc}")
            return outcome
        rows = _read_csv(out / "sweep.csv")
        if len(rows) != grid * grid:
            outcome.fail(abs(grid * grid - len(rows)), f"{len(rows)} sweep rows")
        for row in rows:
            edge, center = float(row["load1"]), float(row["load2"])
            expected = self.expected_margin(edge, center)
            margin = float(row["margin"])
            if not _close(margin, expected) or row["status"] != _status(expected):
                outcome.fail(1, f"({edge}, {center}): {row['status']} {margin} "
                                f"expected {_status(expected)} {expected}")
        return outcome


def _lucas(n: int) -> int:
    """Number of independent sets of the cycle C_n."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class RingLP(Workload):
    """``enumerate_feasible`` plus ``membership`` on ring conflict graphs C_K
    with J channels and a uniform load drawn from the seed: large schedule
    sets and large degenerate LPs, no simulation."""

    sizes = {"full": (9, 10), "smoke": (6,)}
    channels = 2

    def ring_yaml(self, K: int) -> str:
        edges = [[k + 1, (k + 1) % K + 1] for k in range(K)]
        return "\n".join([
            f"name: ring{K}",
            "network:",
            f"  classes: {K}",
            f"  channels: {self.channels}",
            f"  conflict_edges: {edges}",
            "  mode: adhoc",
            "csma: {phys_rate: 1.0, alpha: 1.0}",
            f"traffic: {{arrival_rate: {self.rho!r}, mean_flow_size: 1.0}}",
            "experiment: {kind: capacity-sweep}",
            ""])

    def setup(self) -> None:
        self.rho = random.Random(self.seed).uniform(0.2, 0.4)
        load = _module("scenario").load_scenario_text
        self.rings = [(K, load(self.ring_yaml(K))) for K in self.size]

    def run(self, tracer):
        schedule, capacity = _module("schedule"), _module("capacity")
        results = []
        for K, sc in self.rings:
            try:
                schedules = schedule.enumerate_feasible(sc.network, None)
                verdict = capacity.membership([self.rho] * K, sc.network, sc.csma,
                                              schedules=schedules)
                results.append((K, len(schedules), verdict.status, verdict.margin))
            except Exception as exc:  # an operation that raised counts as failed
                results.append((K, 0, f"error: {exc!r}", math.nan))
        return results

    def check(self, result) -> Outcome:
        J = self.channels
        outcome = Outcome(len(self.size))
        for K, n_sched, status, margin in result:
            expected = J * (K // 2) / (K * self.rho) - 1.0
            if n_sched != _lucas(K) ** J:
                outcome.fail(1, f"C_{K}: {n_sched} schedules, expected {_lucas(K) ** J}")
            elif not _close(margin, expected) or status != _status(expected):
                outcome.fail(1, f"C_{K}: {status} {margin}, expected {expected}")
        return outcome


class SimulateBowtie(Workload):
    """``run simulate`` on the bow-tie under standard_infra at the bundled
    load 0.65 (unstable) and a benchmark-owned copy at load 0.5 (stable)."""

    # horizon, replications, whether the verdicts below are required; a
    # smoke-size horizon is too short for the slope test to be reliable
    sizes = {"full": (1000.0, 5, True), "smoke": (50.0, 5, False)}
    # (per-class arrival rate, scenario, verdict the run must reach or None)
    loads = ((0.65, "bowtie", "unstable-evidence"),
             (0.5, str(SCENARIOS / "bowtie-load0.5.yaml"), None))
    classes = 5

    def setup(self) -> None:
        load = _module("scenario").load_scenario
        for _, scenario, _ in self.loads:
            load(scenario)

    def run(self, tracer):
        horizon, reps, _ = self.size
        codes = []
        for lam, scenario, _ in self.loads:
            out = self.outdir / f"simulate-{lam}"
            codes.append(_cli(tracer, [
                "run", "simulate", "--scenario", scenario, "--policy", "standard_infra",
                "--horizon", repr(horizon), "--replications", str(reps),
                "--seed", str(self.seed), "--output", str(out)]))
        return codes

    def check(self, result) -> Outcome:
        horizon, reps, verdicts_required = self.size
        K = self.classes
        outcome = Outcome(reps * len(self.loads))
        for rc, (lam, _, verdict) in zip(result, self.loads):
            out = self.outdir / f"simulate-{lam}"
            if rc != 0:
                outcome.fail(reps, f"load {lam}: simulate exited {rc}")
                continue
            rows = _read_csv(out / "summary.csv")
            if len(rows) != reps:
                outcome.fail(reps, f"load {lam}: {len(rows)} summary rows")
                continue
            mean = lam * horizon
            for row in rows:
                rep = int(row["replication"])
                arr = [int(row[f"arrivals{k + 1}"]) for k in range(K)]
                dep = [int(row[f"departures{k + 1}"]) for k in range(K)]
                final = _read_csv(out / f"trajectory_{rep}.csv")[-1]
                state = [int(final[f"x{k + 1}"]) for k in range(K)]
                if any(abs(a - mean) > 6 * math.sqrt(mean) for a in arr):
                    outcome.fail(1, f"load {lam} rep {rep}: arrivals {arr}, mean {mean}")
                elif state != [a - d for a, d in zip(arr, dep)]:
                    outcome.fail(1, f"load {lam} rep {rep}: final state {state} != "
                                    f"arrivals - departures")
            got = json.loads((out / "verdict.json").read_text())["verdict"]
            wrong = verdicts_required and verdict is not None and got != verdict
            if got not in VERDICTS or wrong:
                outcome.fail(1, f"load {lam}: verdict {got}, expected {verdict}")
        return outcome


class TimescaleApline3(Workload):
    """``run timescale`` on ap-line3 with t_probe 2.0: many short joint runs,
    the dense flow-level oracle (4,096 states) and the bootstrap."""

    # replications, distance bound, t_probe override. The full bound is above
    # the largest distance (0.198) over 24 seeds of the seed code, where the
    # distances spread over 0.10-0.20 at every N. The smoke t_probe shrinks
    # the oracle box from 4,096 to 1,728 states.
    sizes = {"full": (200, 0.30, None), "smoke": (20, 1.0, 0.5)}
    n_values = (1, 4, 16, 64)

    def setup(self) -> None:
        self.scenario = SCENARIOS / "ap-line3-timescale.yaml"
        t_probe = self.size[2]
        if t_probe is not None:
            text = self.scenario.read_text().replace("t_probe: 2.0", f"t_probe: {t_probe}")
            self.outdir.mkdir(parents=True, exist_ok=True)
            self.scenario = self.outdir / "ap-line3-smoke.yaml"
            self.scenario.write_text(text)
        _module("scenario").load_scenario(str(self.scenario))

    def run(self, tracer):
        out = self.outdir / "timescale"
        rc = _cli(tracer, ["run", "timescale", "--scenario", str(self.scenario),
                           "--replications", str(self.size[0]),
                           "--seed", str(self.seed), "--output", str(out)])
        return rc, out

    def check(self, result) -> Outcome:
        rc, out = result
        reps, bound, _ = self.size
        outcome = Outcome(reps * len(self.n_values) + 1)
        if rc != 0:
            outcome.fail(outcome.attempted, f"timescale exited {rc}")
            return outcome
        rows = _read_csv(out / "distances.csv")
        seen = [int(r["scaling_n"]) for r in rows]
        if seen != list(self.n_values):
            outcome.fail(outcome.attempted, f"rows for N = {seen}, expected {self.n_values}")
            return outcome
        for row in rows:
            d = float(row["distance"])
            if not (math.isfinite(d) and 0.0 <= d <= 1.0 and d < bound):
                outcome.fail(reps, f"N={row['scaling_n']}: distance {d}, bound {bound}")
        return outcome


class Steps(Workload):
    """Several parts run one after the other in the same unit."""

    parts: tuple[type[Workload], ...] = ()

    def __init__(self, size: str, seed: int, outdir: Path):
        self.steps = [part(size, seed, outdir) for part in self.parts]

    def setup(self) -> None:
        for step in self.steps:
            step.setup()

    def run(self, tracer):
        return [step.run(tracer) for step in self.steps]

    def check(self, result) -> Outcome:
        outcome = Outcome(0)
        for step, step_result in zip(self.steps, result):
            o = step.check(step_result)
            outcome.attempted += o.attempted
            outcome.failed += o.failed
            outcome.failures += o.failures
        return outcome


class CapacityLP(Steps):
    """Every LP the benchmark solves and no simulation: the bow-tie sweep
    (per-call LP cost), then the rings (per-pivot cost and enumeration)."""

    parts = (SweepBowtie, RingLP)


class FlowModels(Steps):
    """Every simulation and oracle the benchmark runs and no LP: the
    separated model on the bow-tie, then the joint model and the dense
    oracle on ap-line3."""

    parts = (SimulateBowtie, TimescaleApline3)


WORKLOADS = {"capacity-lp": CapacityLP, "flow-models": FlowModels}
