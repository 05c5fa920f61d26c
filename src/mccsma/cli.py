"""Command-line front end.

Subcommands
-----------
run <kind>        run an experiment from a scenario (bundled name or path)
rerun             re-execute an experiment from a manifest, bit-identically
export-plot       turn a sweep CSV into plot data: its scenario's capacity
                  boundary and the sweep's per-point results
scenarios         list the bundled scenario library

Every run writes its result files plus ``manifest.json`` recording the fully
resolved inputs (scenario document after overrides, kind, seed), a hash of
those inputs, library versions and wall time. Re-running from the manifest
reproduces the result files byte for byte; the manifest itself differs only
in wall time. ``export-plot`` reads the swept scenario from the
``manifest.json`` beside the sweep CSV and draws that scenario's capacity
region in the sweep's load plane, with the sweep's per-point results. The
region is the stability region under the adhoc and flow_aware policies and
an upper bound of it under standard_infra.

Exit codes: 0 success, 2 scenario or manifest parse error, 3 validation
error, 4 schedule-space or oracle state-space guard tripped, 5 LP solver
failure. Errors also emit a JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .capacity import SolverError, margins, status_of
from .dynamics import (SimConfig, ThroughputCache, simulate_joint, simulate_separated,
                       timescale_convergence, uniform_sample_times)
from .equilibrium import PolicyEvaluator
from .schedule import OracleSpaceError, ScheduleSpaceError
from .scenario import (Scenario, ScenarioError, ScenarioValidationError, SweepAxis,
                       bundled_scenarios, load_scenario, parse_scenario,
                       scenario_to_document)
from .stability import MIN_REPLICATIONS, check_slope_inputs, fluid_slope

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_GUARD = 4
EXIT_SOLVER = 5

OUTPUT_ROOT_ENV = "MCCSMA_OUTPUT_ROOT"
BOUNDARY_RAYS = 401       # rays along which export-plot traces the capacity boundary


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    """Write ``rows`` of Python ints, floats and strs, each cell its ``str``:
    a float's is its shortest round-trip text."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _diag(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _config_hash(inputs: dict) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def apply_overrides(doc: dict, args: argparse.Namespace) -> dict:
    """Write the command-line values into the scenario document ``doc``,
    where they beat the scenario file's, field by field, and return them as
    the manifest records them. ``--alpha`` replaces ``csma.attempt_rate``
    with ``csma.alpha``; the kind and every other flag go into
    ``experiment``. ``parse_scenario`` then checks each value as it checks
    a scenario file's."""
    overrides: dict = {}
    if getattr(args, "alpha", None) is not None:
        overrides["alpha"] = args.alpha
        del doc["csma"]["attempt_rate"]
        doc["csma"]["alpha"] = args.alpha
    if getattr(args, "policy", None):
        overrides["policy"] = args.policy
    if getattr(args, "state", None):
        overrides["state"] = [int(v) for v in args.state.split(",")]
    for name in ("grid", "horizon", "replications", "scaling_n"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    doc["experiment"].update({k: v for k, v in overrides.items() if k != "alpha"},
                             kind=args.kind)
    return overrides


def _sweep_axes(scenario: Scenario) -> tuple[SweepAxis, SweepAxis]:
    """The sweep's two axes; by default axis 1 loads every class and axis 2
    the last one."""
    exp = scenario.experiment
    K = scenario.network.num_classes
    return (exp.axis1 if exp.axis1 is not None else SweepAxis(tuple(range(K))),
            exp.axis2 if exp.axis2 is not None else SweepAxis((K - 1,)))


def _class_loads(scenario: Scenario, load1: np.ndarray, load2: np.ndarray) -> np.ndarray:
    """The per-class loads of the sweep's load plane, one row per entry of
    the axis loads ``load1`` and ``load2``: axis 1's classes carry load1 and
    axis 2's classes load2, which wins on a class that both axes hold."""
    axis1, axis2 = _sweep_axes(scenario)
    rhos = np.zeros((len(load1), scenario.network.num_classes))
    rhos[:, list(axis1.classes)] = load1[:, None]
    rhos[:, list(axis2.classes)] = load2[:, None]
    return rhos


def _sweep_grid(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep grid in row order: the axis-1 loads, the axis-2 loads and the
    per-class loads, one entry or row per grid point."""
    exp = scenario.experiment
    axis1, axis2 = _sweep_axes(scenario)
    load1 = np.repeat(np.linspace(0.0, axis1.maximum, exp.grid), exp.grid)
    load2 = np.tile(np.linspace(0.0, axis2.maximum, exp.grid), exp.grid)
    return load1, load2, _class_loads(scenario, load1, load2)


def _initial_state(scenario: Scenario) -> tuple[int, ...]:
    """The experiment's initial flow counts; zero flows when it sets none."""
    initial = scenario.experiment.initial_state
    return initial if initial is not None else (0,) * scenario.network.num_classes


def run_equilibrium(scenario: Scenario, seed: int, outdir: Path) -> list[str]:
    exp = scenario.experiment
    if exp.state is None:
        raise ScenarioValidationError("equilibrium experiment needs a state")
    if len(exp.state) != scenario.network.num_classes:
        raise ScenarioValidationError(
            f"state has {len(exp.state)} entries, expected "
            f"{scenario.network.num_classes}")
    result = PolicyEvaluator(scenario.network, scenario.csma,
                             exp.policy).equilibrium(exp.state)
    # one row per schedule, in the set's lexicographic order, named by its
    # row-major 0/1 string
    flat = result.schedules.active.reshape(len(result.schedules), -1).tolist()
    dist_rows = [("".join(map(str, bits)), p)
                 for bits, p in zip(flat, result.probabilities.tolist())]
    _write_csv(outdir / "distribution.csv", ["schedule", "probability"], dist_rows)
    _write_csv(outdir / "throughput.csv", ["class", "throughput"],
               [(k + 1, v) for k, v in enumerate(result.throughput.tolist())])
    return ["distribution.csv", "throughput.csv"]


def run_capacity_sweep(scenario: Scenario, seed: int, outdir: Path) -> list[str]:
    load1, load2, rhos = _sweep_grid(scenario)
    found = margins(rhos, scenario.network, scenario.csma)
    rows = [(v1, v2, status_of(margin), margin)
            for v1, v2, margin in zip(load1.tolist(), load2.tolist(), found.tolist())]
    _write_csv(outdir / "sweep.csv", ["load1", "load2", "status", "margin"], rows)
    return ["sweep.csv"]


def _trajectory_csv(outdir: Path, name: str, traj, num_channels: int,
                    with_schedule: bool) -> str:
    K = len(traj.final_state)
    header = ["time"] + [f"x{k + 1}" for k in range(K)]
    if with_schedule:
        header += [f"y{k + 1}_{j + 1}" for k in range(K) for j in range(num_channels)]
    rows = []
    for s in traj.samples:
        row = [s.time, *s.state]
        if with_schedule:
            row += [v for r in s.schedule for v in r]
        rows.append(row)
    _write_csv(outdir / name, header, rows)
    return name


def run_simulate(scenario: Scenario, seed: int, outdir: Path) -> list[str]:
    exp = scenario.experiment
    K = scenario.network.num_classes
    joint = exp.scaling_n >= 1
    outputs = []
    trajectories = []
    base = SimConfig(policy=exp.policy, horizon=exp.horizon, seed=seed,
                     initial_state=_initial_state(scenario),
                     scaling_n=max(exp.scaling_n, 1),
                     sample_times=uniform_sample_times(exp.horizon, exp.sample_count),
                     max_total_flows=exp.max_total_flows)
    if exp.replications >= MIN_REPLICATIONS:
        check_slope_inputs(exp.replications, base.sample_times, exp.horizon)
    # throughput depends only on (network, csma, policy): one cache serves
    # every replication
    throughput_fn = (None if joint else ThroughputCache(
        PolicyEvaluator(scenario.network, scenario.csma, exp.policy)))
    for rep in range(exp.replications):
        cfg = replace(base, replication=rep)
        traj = (simulate_joint(scenario.network, scenario.csma, scenario.traffic, cfg)
                if joint else
                simulate_separated(scenario.network, scenario.csma, scenario.traffic, cfg,
                                   throughput_fn))
        trajectories.append(traj)
        outputs.append(_trajectory_csv(outdir, f"trajectory_{rep}.csv", traj,
                                       scenario.network.num_channels, joint))
    _write_csv(outdir / "summary.csv",
               ["replication", "aborted", *(f"arrivals{k + 1}" for k in range(K)),
                *(f"departures{k + 1}" for k in range(K)),
                *(f"mean_flows{k + 1}" for k in range(K))],
               [(rep, str(tr.aborted).lower(), *tr.arrivals, *tr.departures,
                 *(v / tr.final_time for v in tr.time_integral_flows))
                for rep, tr in enumerate(trajectories)])
    outputs.append("summary.csv")
    if exp.replications >= MIN_REPLICATIONS:
        verdict = fluid_slope(trajectories)
        (outdir / "verdict.json").write_text(json.dumps({
            "verdict": verdict.verdict,
            "slope": verdict.slope,
            "ci_lo": verdict.ci_lo,
            "ci_hi": verdict.ci_hi,
            "per_class_slopes": list(verdict.per_class_slopes),
            "mean_total_flows": verdict.mean_total_flows,
        }, indent=2, sort_keys=True) + "\n")
        outputs.append("verdict.json")
    return outputs


def run_stability_sweep(scenario: Scenario, seed: int, outdir: Path) -> list[str]:
    exp = scenario.experiment
    base = SimConfig(policy=exp.policy, horizon=exp.horizon, seed=seed,
                     initial_state=_initial_state(scenario),
                     sample_times=uniform_sample_times(exp.horizon, exp.sample_count),
                     max_total_flows=exp.max_total_flows)
    check_slope_inputs(exp.replications, base.sample_times, exp.horizon)
    # the load changes only the arrival rates, so one cache serves every point
    throughput_fn = ThroughputCache(PolicyEvaluator(scenario.network, scenario.csma,
                                                    exp.policy))
    sigma = np.asarray(scenario.traffic.mean_flow_size)
    rows = []
    load1, load2, rhos = _sweep_grid(scenario)
    for v1, v2, rho in zip(load1.tolist(), load2.tolist(), rhos):
        lam = tuple(float(r) / s for r, s in zip(rho, sigma))
        traffic = replace(scenario.traffic, arrival_rate=lam)
        trajectories = [simulate_separated(scenario.network, scenario.csma, traffic,
                                           replace(base, replication=rep), throughput_fn)
                        for rep in range(exp.replications)]
        verdict = fluid_slope(trajectories)
        rows.append((v1, v2, verdict.verdict, verdict.slope, verdict.ci_lo, verdict.ci_hi))
    _write_csv(outdir / "stability.csv",
               ["load1", "load2", "verdict", "slope", "ci_lo", "ci_hi"], rows)
    return ["stability.csv"]


def run_timescale(scenario: Scenario, seed: int, outdir: Path) -> list[str]:
    exp = scenario.experiment
    rows = timescale_convergence(
        scenario.network, scenario.csma, scenario.traffic,
        n_values=exp.n_values, t_probe=exp.t_probe,
        replications=exp.replications, seed=seed, policy=exp.policy,
        initial_state=_initial_state(scenario))
    _write_csv(outdir / "distances.csv", ["scaling_n", "distance"],
               [(r.scaling_n, r.distance) for r in rows])
    return ["distances.csv"]


_RUNNERS = {
    "equilibrium": run_equilibrium,
    "capacity-sweep": run_capacity_sweep,
    "simulate": run_simulate,
    "stability-sweep": run_stability_sweep,
    "timescale": run_timescale,
}


def execute(scenario: Scenario, kind: str, seed: int, outdir: Path,
            overrides: dict) -> Path:
    """Run one experiment and write results plus the manifest.

    When the runner raises, the directories this call created are removed
    again as long as nothing was written into them.
    """
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]  # deepest first
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = {"kind": kind, "seed": seed, "scenario": scenario_to_document(scenario),
              "overrides": overrides}
    started = time.monotonic()
    try:
        outputs = _RUNNERS[kind](scenario, seed, outdir)
    except BaseException:
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    manifest = {
        "inputs": inputs,
        "config_hash": _config_hash(inputs),
        "outputs": outputs,
        "versions": {
            "mccsma": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "wall_time_s": time.monotonic() - started,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True)
                                          + "\n")
    return outdir


def _manifest_inputs(manifest, path: str) -> dict:
    """The ``inputs`` of a parsed manifest; raises ``ScenarioError`` unless
    they are a mapping with a scenario, a known kind and an integer seed
    (``parse_scenario`` checks the scenario)."""
    inputs = manifest.get("inputs") if isinstance(manifest, dict) else None
    if not isinstance(inputs, dict):
        raise ScenarioError(f"{path}: manifest must be a mapping with an inputs mapping")
    missing = [key for key in ("kind", "seed", "scenario") if key not in inputs]
    if missing:
        raise ScenarioError(f"{path}: manifest inputs lack {', '.join(missing)}")
    kind, seed = inputs["kind"], inputs["seed"]
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise ScenarioError(f"{path}: unknown experiment kind {kind!r}; "
                            f"expected one of {', '.join(sorted(_RUNNERS))}")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ScenarioError(f"{path}: seed must be an integer, got {seed!r}")
    return inputs


def _read_manifest(path: Path) -> tuple[Scenario, dict]:
    """The scenario and the ``inputs`` of the manifest at ``path``; raises
    ``ScenarioError`` naming the path when the file is no JSON that it can
    read or ``_manifest_inputs`` refuses it."""
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"{path}: cannot read the manifest: {exc}") from None
    inputs = _manifest_inputs(manifest, str(path))
    return parse_scenario(inputs["scenario"]), inputs


def export_region_plot(sweep_csv: Path, outdir: Path) -> list[str]:
    """Emit the swept scenario's capacity boundary and the sweep's per-point
    results as plot-ready CSV files.

    The scenario is read from the ``manifest.json`` beside ``sweep_csv``. Its
    capacity region, cut by the sweep's load plane (``_class_loads``), is
    traced along ``BOUNDARY_RAYS`` rays from the origin in one ``margins``
    call: the ray that loads the axis-1 classes at cos(theta) and the axis-2
    classes at sin(theta) meets the boundary at that direction times
    1 + margin. A ray that loads no class has no boundary point and is left
    out. The region is the stability region under the adhoc and flow_aware
    policies and an upper bound of it under standard_infra. In
    ``region_plot.csv`` the sweep's points are tagged ``capacity:<status>``
    for a capacity sweep and ``simulation:<verdict>`` otherwise.
    """
    scenario, inputs = _read_manifest(sweep_csv.parent / "manifest.json")
    source = "capacity" if inputs["kind"] == "capacity-sweep" else "simulation"
    lines = sweep_csv.read_text().splitlines()
    if not lines:
        raise ScenarioError(f"{sweep_csv}: empty file")
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "load1" or header[1] != "load2":
        raise ScenarioError(f"{sweep_csv}: expected columns load1,load2,...")
    points = []
    for number, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split(",")
        try:
            points.append((float(parts[0]), float(parts[1]), parts[2]))
        except (IndexError, ValueError):
            raise ScenarioError(f"{sweep_csv}: line {number}: expected numeric load1,load2 "
                                f"and a third field, got {ln!r}") from None

    theta = np.linspace(0.0, np.pi / 2, BOUNDARY_RAYS)
    # cos(theta) as the sine of the reversed angles: cos(pi / 2) is 6e-17, so
    # the last ray would load axis 1 too
    load1, load2 = np.sin(theta[::-1]), np.sin(theta)
    scale = 1.0 + margins(_class_loads(scenario, load1, load2), scenario.network,
                          scenario.csma)
    loaded = np.isfinite(scale)
    boundary = list(zip((load1 * scale)[loaded].tolist(), (load2 * scale)[loaded].tolist()))

    outdir.mkdir(parents=True, exist_ok=True)
    _write_csv(outdir / "boundary_optimal.csv", ["load1", "load2"], boundary)
    _write_csv(outdir / "simulation_points.csv", ["load1", "load2", "verdict"], points)
    _write_csv(outdir / "region_plot.csv", ["load1", "load2", "source"],
               [(a, b, "optimal") for a, b in boundary]
               + [(a, b, f"{source}:{v}") for a, b, v in points])
    return ["boundary_optimal.csv", "simulation_points.csv", "region_plot.csv"]


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mccsma",
                                description="Multi-channel CSMA network toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment")
    runp.add_argument("kind", choices=sorted(_RUNNERS.keys()))
    runp.add_argument("--scenario", required=True,
                      help="bundled scenario name or path to a YAML file")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--output", help="output directory (default under "
                                       f"${OUTPUT_ROOT_ENV} or ./results)")
    runp.add_argument("--policy", choices=["adhoc", "standard_infra", "flow_aware"])
    runp.add_argument("--alpha", type=float,
                      help="override attempt/transmission ratio for every class")
    runp.add_argument("--state", help="comma-separated flow counts (equilibrium)")
    runp.add_argument("--grid", type=int)
    runp.add_argument("--horizon", type=float)
    runp.add_argument("--replications", type=int)
    runp.add_argument("--scaling-n", dest="scaling_n", type=int)

    rerunp = sub.add_parser("rerun", help="re-run an experiment from its manifest")
    rerunp.add_argument("--manifest", required=True)
    rerunp.add_argument("--output", required=True)

    plotp = sub.add_parser(
        "export-plot", help="emit plot data from a sweep CSV: its points and the capacity "
                            "region of the scenario in the manifest.json beside it (the "
                            "stability region under adhoc and flow_aware, an upper bound "
                            "of it under standard_infra)")
    plotp.add_argument("--sweep", required=True,
                       help="sweep.csv or stability.csv of a run, beside its manifest.json")
    plotp.add_argument("--output", required=True)

    sub.add_parser("scenarios", help="list bundled scenarios")
    return p


def _default_outdir(scenario_name: str, kind: str, seed: int) -> Path:
    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "results"))
    return root / f"{scenario_name}-{kind}-seed{seed}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scenarios":
            for name in bundled_scenarios():
                print(name)
            return EXIT_OK
        if args.command == "export-plot":
            files = export_region_plot(Path(args.sweep), Path(args.output))
            print("\n".join(files))
            return EXIT_OK
        if args.command == "rerun":
            scenario, inputs = _read_manifest(Path(args.manifest))
            outdir = execute(scenario, inputs["kind"], inputs["seed"],
                             Path(args.output), inputs.get("overrides", {}))
            print(outdir)
            return EXIT_OK
        # run
        doc = scenario_to_document(load_scenario(args.scenario))
        overrides = apply_overrides(doc, args)
        scenario = parse_scenario(doc)
        outdir = (Path(args.output) if args.output
                  else _default_outdir(scenario.name, args.kind, args.seed))
        execute(scenario, args.kind, args.seed, outdir, overrides)
        print(outdir)
        return EXIT_OK
    except ScenarioValidationError as exc:
        _diag("validation", str(exc))
        return EXIT_VALIDATION
    except ScenarioError as exc:
        _diag("parse", str(exc))
        return EXIT_PARSE
    except ScheduleSpaceError as exc:
        _diag("schedule-space-guard", str(exc))
        return EXIT_GUARD
    except OracleSpaceError as exc:
        _diag("oracle-state-space-guard", str(exc))
        return EXIT_GUARD
    except SolverError as exc:
        _diag("solver", str(exc))
        return EXIT_SOLVER
    except (OSError, json.JSONDecodeError) as exc:
        _diag("io", str(exc))
        return EXIT_PARSE
    except ValueError as exc:
        _diag("validation", str(exc))
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
