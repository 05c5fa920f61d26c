import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import mccsma
import theory
from mccsma import cli
from mccsma.cli import main
from mccsma.equilibrium import PolicyEvaluator
from mccsma.scenario import load_scenario
from mccsma.schedule import enumerate_feasible
from test_capacity import _reference_membership


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


def test_package_version_matches_pyproject(tmp_path):
    """The version a manifest records is the one ``pyproject.toml`` declares
    (read with a regex: ``tomllib`` needs Python 3.11)."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    declared = re.search(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M).group(1)
    assert mccsma.__version__ == declared
    out = tmp_path / "eq"
    assert main(["run", "equilibrium", "--scenario", "two-ap", "--output", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["versions"]["mccsma"] == declared


def test_csv_cells_are_the_str_of_python_scalars(tmp_path):
    """``_write_csv`` writes each cell as its ``str``: an int in decimal, a
    float as its shortest round-trip text, a str as itself. The runners hand
    it only these; NumPy values leave through ``.tolist()``."""
    row = [3, -7, 0.1, -0.0, math.inf, -math.inf, math.nan, 1e16, 5e-324, 0.25, "unstable"]
    path = tmp_path / "cells.csv"
    cli._write_csv(path, ["a", "b"], [row, row[::-1]])
    assert path.read_bytes() == (
        b"a,b\n3,-7,0.1,-0.0,inf,-inf,nan,1e+16,5e-324,0.25,unstable\n"
        b"unstable,0.25,5e-324,1e+16,nan,-inf,inf,-0.0,0.1,-7,3\n")


def test_equilibrium_run_reproduces_limit_throughput(tmp_path):
    out = tmp_path / "eq"
    code = main(["run", "equilibrium", "--scenario", "bowtie",
                 "--state", "1,1,1,1,0", "--alpha", "1e6",
                 "--output", str(out), "--seed", "7"])
    assert code == 0
    rows = read_csv(out / "throughput.csv")
    got = [float(r["throughput"]) for r in rows]
    assert np.allclose(got, [0.75, 0.75, 0.5, 1.0, 0.0], atol=1e-3)
    dist = read_csv(out / "distribution.csv")
    assert abs(sum(float(r["probability"]) for r in dist) - 1.0) < 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"]["overrides"]["alpha"] == 1e6
    assert set(manifest["outputs"]) == {"distribution.csv", "throughput.csv"}


def test_distribution_names_each_schedule_by_its_row_major_bits(tmp_path):
    out = tmp_path / "eq"
    assert main(["run", "equilibrium", "--scenario", "bowtie", "--state", "1,0,2,0,1",
                 "--output", str(out)]) == 0
    dist = read_csv(out / "distribution.csv")
    sc = load_scenario("bowtie")
    result = PolicyEvaluator(sc.network, sc.csma,
                             sc.experiment.policy).equilibrium((1, 0, 2, 0, 1))
    # class by class, channel by channel: row 1 is class 5 alone on channel 2
    assert [r["schedule"] for r in dist[:2]] == ["0" * 10, "0000000001"]
    assert [r["schedule"] for r in dist] == sorted(r["schedule"] for r in dist)
    assert [r["schedule"] for r in dist] == [
        "".join(map(str, m)) for m in result.schedules.active.reshape(len(dist), -1).tolist()]
    assert [float(r["probability"]) for r in dist] == result.probabilities.tolist()


def test_empty_scenario_file_is_parse_error(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    out = tmp_path / "out"
    code = main(["run", "equilibrium", "--scenario", str(empty),
                 "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_invalid_network_is_validation_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("""
name: bad
network:
  classes: 2
  channels: 1
  conflict_edges: [[1, 1]]
csma: {phys_rate: 1.0, alpha: 1.0}
traffic: {arrival_rate: [0.1, 0.1], mean_flow_size: 1.0}
experiment: {kind: equilibrium, state: [1, 1], policy: adhoc}
""")
    code = main(["run", "equilibrium", "--scenario", str(bad),
                 "--output", str(tmp_path / "o")])
    assert code == 3


def test_capacity_sweep_and_plot_export(tmp_path):
    out = tmp_path / "sweep"
    code = main(["run", "capacity-sweep", "--scenario", "bowtie",
                 "--grid", "9", "--output", str(out)])
    assert code == 0
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 81
    for r in rows:
        v1, v2 = float(r["load1"]), float(r["load2"])
        margin = float(r["margin"])
        if math.isinf(margin) or abs(margin) <= 1e-6:
            continue
        inside = v2 < 1.0 and 2.0 * v1 + v2 < 2.0
        assert (r["status"] == "interior") == inside, r

    plot = tmp_path / "plot"
    code = main(["export-plot", "--sweep", str(out / "sweep.csv"),
                 "--output", str(plot)])
    assert code == 0
    assert sorted(p.name for p in plot.iterdir()) == [
        "boundary_optimal.csv", "region_plot.csv", "simulation_points.csv"]
    assert not (plot / "boundary_instability.csv").exists()
    assert len(read_csv(plot / "boundary_optimal.csv")) == cli.BOUNDARY_RAYS
    sim = read_csv(plot / "simulation_points.csv")
    assert len(sim) == 81
    # the points of a capacity sweep carry LP statuses, not simulated verdicts
    sources = [r["source"] for r in read_csv(plot / "region_plot.csv")]
    assert sources == ["optimal"] * cli.BOUNDARY_RAYS + [f"capacity:{r['verdict']}"
                                                         for r in sim]
    assert {r["verdict"] for r in sim} <= {"interior", "boundary", "exterior"}


def _exported_boundary(scenario: str, tmp_path: Path) -> list[tuple[float, float]]:
    """The boundary points export-plot writes for a grid-2 capacity sweep of
    ``scenario``."""
    sweep, plot = tmp_path / f"{scenario}-sweep", tmp_path / f"{scenario}-plot"
    assert main(["run", "capacity-sweep", "--scenario", scenario, "--grid", "2",
                 "--output", str(sweep)]) == 0
    assert main(["export-plot", "--sweep", str(sweep / "sweep.csv"),
                 "--output", str(plot)]) == 0
    points = [(float(r["load1"]), float(r["load2"]))
              for r in read_csv(plot / "boundary_optimal.csv")]
    assert len(points) == cli.BOUNDARY_RAYS
    return points


def _point_loads(scenario, x: float, y: float) -> np.ndarray:
    return cli._class_loads(scenario, np.array([x]), np.array([y]))[0]


def test_export_plot_boundary_is_the_bowtie_closed_form(tmp_path):
    for x, y in _exported_boundary("bowtie", tmp_path):
        assert abs(y - theory.optimal_center_bound(x)) <= 1e-12, (x, y)


@pytest.mark.parametrize("scenario", ["ap-line3", "star5", "bipartite33", "tripartite221"])
def test_export_plot_boundary_meets_the_multipartite_closed_form(scenario, tmp_path):
    """Each written point lies on the boundary of the closed-form region: its
    load multiplier is 1, so its ray's margin is the closed form's."""
    sc = load_scenario(scenario)
    for x, y in _exported_boundary(scenario, tmp_path):
        verdict = theory.lpartite_condition(_point_loads(sc, x, y), sc.network, sc.csma)
        assert abs(verdict.multiplier - 1.0) <= 1e-12, (x, y)


@pytest.mark.parametrize("scenario", ["adhoc4", "two-ap"])
def test_export_plot_boundary_splits_the_full_column_lp(scenario, tmp_path):
    """Each written point, scaled by 1 - 1e-6, is interior and, by 1 + 1e-6,
    exterior under the LP over every feasible schedule."""
    sc = load_scenario(scenario)
    schedules = enumerate_feasible(sc.network)
    for x, y in _exported_boundary(scenario, tmp_path):
        rho = _point_loads(sc, x, y)
        for factor, status in ((1 - 1e-6, "interior"), (1 + 1e-6, "exterior")):
            got = _reference_membership(factor * rho, sc.network, sc.csma, schedules)[0]
            assert got == status, (x, y, factor)


def _capacity_sweep_dir(tmp_path: Path) -> Path:
    """A directory holding a real grid-2 capacity sweep and its manifest."""
    sweep = tmp_path / "sweep"
    assert main(["run", "capacity-sweep", "--scenario", "bowtie", "--grid", "2",
                 "--output", str(sweep)]) == 0
    return sweep


def test_export_plot_empty_sweep(tmp_path):
    sweep = _capacity_sweep_dir(tmp_path) / "sweep.csv"
    sweep.write_text("load1,load2,status,margin\n")
    out = tmp_path / "plot"
    assert main(["export-plot", "--sweep", str(sweep), "--output", str(out)]) == 0
    assert read_csv(out / "simulation_points.csv") == []


def test_export_plot_schema_mismatch(tmp_path):
    sweep = _capacity_sweep_dir(tmp_path) / "sweep.csv"
    sweep.write_text("a,b\n1,2\n")
    assert main(["export-plot", "--sweep", str(sweep),
                 "--output", str(tmp_path / "p")]) == 2


@pytest.mark.parametrize("row", ["0.5,0.5", "0.5,high,interior"])
def test_export_plot_bad_row_is_parse_error(row, tmp_path, capsys):
    sweep = _capacity_sweep_dir(tmp_path) / "sweep.csv"
    sweep.write_text(f"load1,load2,status\n0.1,0.2,interior\n{row}\n")
    assert main(["export-plot", "--sweep", str(sweep),
                 "--output", str(tmp_path / "p")]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "parse" and "line 3" in diag["message"]
    assert row in diag["message"]


@pytest.mark.parametrize("manifest", [None, "{not json", '{"inputs": {"kind": "simulate"}}'],
                         ids=["missing", "not-json", "no-scenario"])
def test_export_plot_without_a_manifest_is_parse_error(manifest, tmp_path, capsys):
    sweep = _capacity_sweep_dir(tmp_path)
    if manifest is None:
        (sweep / "manifest.json").unlink()
    else:
        (sweep / "manifest.json").write_text(manifest)
    out = tmp_path / "deep" / "plot"
    assert main(["export-plot", "--sweep", str(sweep / "sweep.csv"),
                 "--output", str(out)]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "parse" and str(sweep / "manifest.json") in diag["message"]
    assert not (tmp_path / "deep").exists()


def test_simulate_writes_trajectories_and_verdict(tmp_path):
    out = tmp_path / "sim"
    code = main(["run", "simulate", "--scenario", "ap-line3",
                 "--horizon", "50", "--replications", "5",
                 "--output", str(out), "--seed", "3"])
    assert code == 0
    assert (out / "verdict.json").exists()
    rows = read_csv(out / "trajectory_0.csv")
    assert set(rows[0]) == {"time", "x1", "x2", "x3"}
    summary = read_csv(out / "summary.csv")
    assert len(summary) == 5


def test_rerun_from_manifest_is_bit_identical(tmp_path):
    first = tmp_path / "a"
    code = main(["run", "simulate", "--scenario", "adhoc4",
                 "--horizon", "80", "--replications", "2",
                 "--seed", "5", "--output", str(first)])
    assert code == 0
    second = tmp_path / "b"
    code = main(["rerun", "--manifest", str(first / "manifest.json"),
                 "--output", str(second)])
    assert code == 0
    names = json.loads((first / "manifest.json").read_text())["outputs"]
    assert names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    m1 = json.loads((first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]


def _bogus_kind(real: dict) -> dict:
    real["inputs"]["kind"] = "bogus"
    return real


@pytest.mark.parametrize("malformed, message", [
    (lambda real: {}, "inputs mapping"),
    (lambda real: [1, 2], "inputs mapping"),
    (lambda real: {"inputs": {"kind": "simulate"}}, "lack seed, scenario"),
    (_bogus_kind, "unknown experiment kind 'bogus'"),
], ids=["empty", "list", "no-scenario", "unknown-kind"])
def test_malformed_manifest_is_parse_error(malformed, message, tmp_path, capsys):
    real = tmp_path / "real"
    assert main(["run", "simulate", "--scenario", "adhoc4", "--horizon", "20",
                 "--replications", "1", "--output", str(real)]) == 0
    capsys.readouterr()
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(malformed(json.loads(
        (real / "manifest.json").read_text()))))
    assert main(["rerun", "--manifest", str(manifest),
                 "--output", str(tmp_path / "again")]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "parse" and message in diag["message"]
    assert not (tmp_path / "again").exists()


def test_override_precedence_per_field(tmp_path):
    out = tmp_path / "o"
    code = main(["run", "simulate", "--scenario", "adhoc4",
                 "--horizon", "42", "--replications", "2", "--seed", "9",
                 "--policy", "adhoc", "--alpha", "3.5", "--scaling-n", "2",
                 "--output", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    doc = manifest["inputs"]["scenario"]
    assert doc["experiment"]["horizon"] == 42
    assert doc["experiment"]["replications"] == 2
    assert doc["experiment"]["scaling_n"] == 2
    assert doc["csma"]["attempt_rate"] == [3.5, 3.5, 3.5, 3.5]
    assert manifest["inputs"]["overrides"] == {
        "alpha": 3.5, "policy": "adhoc", "horizon": 42.0,
        "replications": 2, "scaling_n": 2,
    }
    rows = read_csv(out / "trajectory_0.csv")
    assert float(rows[-1]["time"]) <= 42.0
    # joint-model trajectories carry the flattened schedule columns
    assert "y1_1" in rows[0]


def test_scenarios_listing(capsys):
    assert main(["scenarios"]) == 0
    listed = capsys.readouterr().out.split()
    assert "bowtie" in listed and "adhoc4" in listed


def test_state_length_validation(tmp_path):
    code = main(["run", "equilibrium", "--scenario", "bowtie",
                 "--state", "1,1", "--output", str(tmp_path / "x")])
    assert code == 3


def test_timescale_oracle_guard_exits_4(tmp_path, capsys):
    # the default box of two-ap holds 2,985,984 states
    code = main(["run", "timescale", "--scenario", "two-ap",
                 "--output", str(tmp_path / "ts")])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "oracle-state-space-guard"


def test_simulate_and_stability_sweep_build_one_evaluator(tmp_path, monkeypatch):
    from mccsma.equilibrium import PolicyEvaluator

    built = []
    init = PolicyEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolicyEvaluator, "__init__", counting_init)
    common = ["--scenario", "bowtie", "--policy", "standard_infra", "--horizon", "20",
              "--replications", "5"]
    assert main(["run", "simulate", *common, "--output", str(tmp_path / "sim")]) == 0
    assert len(built) == 1
    built.clear()
    assert main(["run", "stability-sweep", *common, "--grid", "2",
                 "--output", str(tmp_path / "sweep")]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("argv, field", [
    (["run", "timescale", "--scenario", "ap-line3", "--replications", "0"],
     "replications"),
    (["run", "capacity-sweep", "--scenario", "bowtie", "--grid", "0"], "grid"),
])
def test_out_of_range_override_is_validation_error(argv, field, tmp_path, capsys):
    out = tmp_path / "o"
    assert main([*argv, "--output", str(out)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and field in diag["message"]
    assert not out.exists()


def test_negative_probe_time_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("""
name: bad
network: {classes: 1, channels: 1, conflict_edges: []}
csma: {phys_rate: 1.0, alpha: 1.0}
traffic: {arrival_rate: 0.4, mean_flow_size: 1.0}
experiment: {kind: timescale, t_probe: -1.0}
""")
    assert main(["run", "timescale", "--scenario", str(bad),
                 "--output", str(tmp_path / "o")]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and "t_probe" in diag["message"]


@pytest.mark.parametrize("maximum", ["-1.0", ".nan", ".inf"])
def test_bad_axis_maximum_is_validation_error(maximum, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"""
name: bad
network: {{classes: 2, channels: 1, conflict_edges: [[1, 2]]}}
csma: {{phys_rate: 1.0, alpha: 1.0}}
traffic: {{arrival_rate: 0.4, mean_flow_size: 1.0}}
experiment: {{kind: capacity-sweep, axis1: {{classes: [1], max: {maximum}}}}}
""")
    assert main(["run", "capacity-sweep", "--scenario", str(bad),
                 "--output", str(tmp_path / "o")]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and "experiment.axis1.max" in diag["message"]


def test_solver_failure_exits_5(tmp_path, capsys, monkeypatch):
    from mccsma import capacity
    from mccsma.capacity import SolverError

    def failing_simplex(*args, **kwargs):
        raise SolverError("simplex iteration limit exceeded")

    monkeypatch.setattr(capacity, "_simplex_max", failing_simplex)
    code = main(["run", "capacity-sweep", "--scenario", "bowtie", "--grid", "2",
                 "--output", str(tmp_path / "o")])
    assert code == 5
    diag = json.loads(capsys.readouterr().err)
    assert diag == {"error": "solver", "message": "simplex iteration limit exceeded"}


def _ap_line3_file(tmp_path, initial_state) -> str:
    import yaml

    from mccsma.scenario import load_scenario, scenario_to_document

    doc = scenario_to_document(load_scenario("ap-line3"))
    doc["experiment"]["initial_state"] = initial_state
    path = tmp_path / "ap-line3.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.mark.parametrize("argv, field", [
    (["run", "simulate", "--scenario", [1], "--scaling-n", "2"], "initial_state"),
    (["run", "simulate", "--scenario", [-1, 0, 0], "--scaling-n", "2"], "initial_state"),
    (["run", "equilibrium", "--scenario", "ap-line3", "--state=-1,0,0"], "state"),
])
def test_bad_flow_counts_are_validation_errors(argv, field, tmp_path, capsys):
    argv = [_ap_line3_file(tmp_path, a) if isinstance(a, list) else a for a in argv]
    out = tmp_path / "o"
    assert main([*argv, "--output", str(out)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and field in diag["message"]
    assert not out.exists()


def test_initial_state_above_the_guard_exits_3(tmp_path, capsys):
    import yaml

    from mccsma.scenario import load_scenario, scenario_to_document

    doc = scenario_to_document(load_scenario("bowtie"))
    doc["experiment"].update(initial_state=[100, 0, 0, 0, 0], max_total_flows=10)
    path = tmp_path / "bowtie.yaml"
    path.write_text(yaml.safe_dump(doc))
    out = tmp_path / "o"
    assert main(["run", "simulate", "--scenario", str(path), "--output", str(out)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and "max_total_flows" in diag["message"]
    assert not out.exists()


def test_misspelt_scenario_key_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "typo.yaml"
    bad.write_text("""
name: typo
network: {classes: 1, channels: 1, conflict_edges: []}
csma: {phys_rate: 1.0, alpha: 1.0}
traffic: {arrival_rate: 0.4, mean_flow_size: 1.0}
experiment: {kind: simulate, horizn: 5.0, replication: 1}
""")
    out = tmp_path / "o"
    assert main(["run", "simulate", "--scenario", str(bad), "--output", str(out)]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "parse"
    assert diag["message"].startswith("experiment: unknown key 'horizn'")
    assert not out.exists()


def _no_simulation(monkeypatch):
    from mccsma import cli

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before the slope inputs were checked")

    monkeypatch.setattr(cli, "simulate_separated", simulate)
    monkeypatch.setattr(cli, "simulate_joint", simulate)


def test_stability_sweep_checks_replications_before_simulating(tmp_path, capsys,
                                                               monkeypatch):
    _no_simulation(monkeypatch)
    out = tmp_path / "o"
    assert main(["run", "stability-sweep", "--scenario", "adhoc4", "--grid", "2",
                 "--replications", "2", "--output", str(out)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and "5 replications" in diag["message"]
    assert not out.exists()


def test_simulate_checks_fit_window_samples_before_simulating(tmp_path, capsys,
                                                              monkeypatch):
    import yaml

    from mccsma.scenario import load_scenario, scenario_to_document

    doc = scenario_to_document(load_scenario("adhoc4"))
    doc["experiment"]["sample_count"] = 3     # samples at h/3, 2h/3, h: two in the window
    path = tmp_path / "few-samples.yaml"
    path.write_text(yaml.safe_dump(doc))
    _no_simulation(monkeypatch)
    out = tmp_path / "o"
    assert main(["run", "simulate", "--scenario", str(path), "--replications", "5",
                 "--output", str(out)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and "fit window" in diag["message"]
    assert not out.exists()


def test_runner_error_removes_only_the_directories_it_created(tmp_path, capsys):
    # the equilibrium runner rejects a scenario without a state (exit 3)
    out = tmp_path / "new" / "eq"
    assert main(["run", "equilibrium", "--scenario", "adhoc4", "--output", str(out)]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "validation"
    assert not (tmp_path / "new").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main(["run", "equilibrium", "--scenario", "adhoc4",
                 "--output", str(existing)]) == 3
    assert existing.is_dir() and not any(existing.iterdir())


def test_stability_sweep_starts_from_initial_state(tmp_path):
    import yaml

    from mccsma.scenario import load_scenario, scenario_to_document

    doc = scenario_to_document(load_scenario("adhoc4"))
    doc["experiment"]["initial_state"] = [30, 30, 30, 30]
    path = tmp_path / "backlogged.yaml"
    path.write_text(yaml.safe_dump(doc))
    common = ["run", "stability-sweep", "--grid", "1", "--replications", "5",
              "--horizon", "20"]
    csv = {}
    for name, scenario in (("empty", "adhoc4"), ("backlogged", str(path))):
        out = tmp_path / name
        assert main([*common, "--scenario", scenario, "--output", str(out)]) == 0
        csv[name] = (out / "stability.csv").read_text()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["inputs"]["scenario"]["experiment"].get("initial_state") == (
            None if name == "empty" else [30, 30, 30, 30])
    assert csv["empty"] != csv["backlogged"]
    # at load 0 the backlog only drains
    assert float(read_csv(tmp_path / "backlogged" / "stability.csv")[0]["slope"]) < 0


_TWO_CLASSES = """
name: typed
network:
  classes: 2
  channels: 1
  NETWORK
csma: {phys_rate: 1.0, alpha: 1.0}
traffic: {arrival_rate: 0.4, mean_flow_size: 1.0}
experiment: {kind: capacity-sweep, grid: 2, EXPERIMENT}
"""


# (network lines, experiment entries, the key the diagnostic must name)
_MISTYPED = [
    ("conflict_edges: [[1, 2]]", "axis2: {classes: 2}", "experiment.axis2.classes"),
    ("conflict_edges: [[1, 2]]", "axis1: {classes: [1.5]}", "experiment.axis1.classes[0]"),
    ("eligible: 1", "policy: auto", "network.eligible"),
    ("conflict_edges: [1, 2]", "policy: auto", "network.conflict_edges[0]"),
    ("conflict_edges: [[1.5, 2]]", "policy: auto", "network.conflict_edges[0][0]"),
    ("conflict_edges: [[1, 2, 3]]", "policy: auto", "network.conflict_edges[0]"),
    ("channel_graphs: [{eligible: [1, 2], edges: 12}]", "policy: auto",
     "network.channel_graphs[0].edges"),
    ("channel_graphs: [{eligible: 2}]", "policy: auto",
     "network.channel_graphs[0].eligible"),
    ("channel_graphs: 3", "policy: auto", "network.channel_graphs"),
    ("mode: infrastructure\n  conflict_edges: [[1, 2]]\n  access_points: 1",
     "policy: auto", "network.access_points"),
    ("mode: infrastructure\n  conflict_edges: [[1, 2]]\n  access_points: [{uplink: 1}]",
     "policy: auto", "network.access_points[0].uplink"),
    ("mode: infrastructure\n  conflict_edges: [[1, 2]]\n  access_points: [{downlink: 2}]",
     "policy: auto", "network.access_points[0].downlink"),
    ("conflict_edges: [[1, 2]]", "horizon: 10, grid: 2.5", "experiment.grid"),
    ("conflict_edges: [[1, 2]]", "axis1: {classes: [1], max: high}", "experiment.axis1.max"),
    ("conflict_edges: [[1, 2]]", "t_probe: soon", "experiment.t_probe"),
    ("conflict_edges: [[1, 2]]", "state: 3", "experiment.state"),
    ("conflict_edges: [[1, 2]]", "replications: true", "experiment.replications"),
]


@pytest.mark.parametrize("network, experiment, key", _MISTYPED,
                         ids=[key for _, _, key in _MISTYPED])
def test_mistyped_scenario_value_is_parse_error_naming_its_key(network, experiment, key,
                                                               tmp_path, capsys):
    bad = tmp_path / "typed.yaml"
    bad.write_text(_TWO_CLASSES.replace("NETWORK", network).replace("EXPERIMENT", experiment))
    out = tmp_path / "o"
    assert main(["run", "capacity-sweep", "--scenario", str(bad), "--output", str(out)]) == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "parse" and diag["message"].startswith(f"{key} must be ")
    assert not out.exists()


def _written_scenario(path: Path, **sections) -> str:
    """two-ap with a short run and unequal physical rates (equal within each
    access point's downlink classes), written to ``path`` after each block
    of ``sections`` is updated into the document's block of that name. An
    ``alpha`` entry replaces ``csma.attempt_rate``."""
    import yaml

    from mccsma.scenario import scenario_to_document

    doc = scenario_to_document(load_scenario("two-ap"))
    doc["csma"]["phys_rate"] = [0.7, 2.0, 0.7, 3.0, 1.3, 3.0]
    doc["experiment"].update(state=[2, 0, 1, 1, 3, 0], grid=2, horizon=10.0,
                             replications=1)
    for name, values in sections.items():
        doc[name].update(values)
    if "alpha" in doc["csma"]:
        del doc["csma"]["attempt_rate"]
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def _result_digests(outdir: Path) -> dict[str, str]:
    import hashlib

    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


# each flag, the run it overrides and the same value written into the
# scenario file
_FLAGS = [
    ("equilibrium", ["--alpha", "2.5"], {"csma": {"alpha": 2.5}}),
    ("equilibrium", ["--policy", "flow_aware"], {"experiment": {"policy": "flow_aware"}}),
    ("equilibrium", ["--state", "0,3,1,2,0,1"],
     {"experiment": {"state": [0, 3, 1, 2, 0, 1]}}),
    ("capacity-sweep", ["--grid", "3"], {"experiment": {"grid": 3}}),
    ("simulate", ["--horizon", "15.5"], {"experiment": {"horizon": 15.5}}),
    ("simulate", ["--replications", "2"], {"experiment": {"replications": 2}}),
    ("simulate", ["--scaling-n", "2"], {"experiment": {"scaling_n": 2}}),
]


@pytest.mark.parametrize("kind, flag, written", _FLAGS, ids=[f[0] for _, f, _ in _FLAGS])
def test_override_equals_the_value_written_in_the_scenario_file(kind, flag, written,
                                                                 tmp_path):
    base = _written_scenario(tmp_path / "base.yaml")
    same = _written_scenario(tmp_path / "same.yaml", **written)
    runs = {}
    for name, argv in (("flag", ["--scenario", base, *flag]),
                       ("file", ["--scenario", same])):
        out = tmp_path / name
        assert main(["run", kind, *argv, "--output", str(out), "--seed", "4"]) == 0
        runs[name] = (_result_digests(out),
                      json.loads((out / "manifest.json").read_text())["inputs"])
    (flag_digests, flag_inputs), (file_digests, file_inputs) = runs["flag"], runs["file"]
    assert flag_digests and flag_digests == file_digests
    assert flag_inputs["scenario"] == file_inputs["scenario"]
    assert len(flag_inputs["overrides"]) == 1 and file_inputs["overrides"] == {}


@pytest.mark.parametrize("alpha", ["-1", "nan", "inf", "0"])
def test_bad_alpha_override_is_validation_error(alpha, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "equilibrium", "--scenario", "two-ap", "--alpha", alpha,
                 "--output", str(out)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation" and "attempt_rate" in diag["message"]
    assert not out.exists()


@pytest.mark.parametrize("kind, csma, traffic, field", [
    ("capacity-sweep", "{phys_rate: .nan, alpha: 1.0}",
     "{arrival_rate: 0.4, mean_flow_size: 1.0}", "phys_rate"),
    ("simulate", "{phys_rate: 1.0, alpha: 1.0}",
     "{arrival_rate: [0.3, .inf], mean_flow_size: 1.0}", "arrival_rate"),
    ("simulate", "{phys_rate: 1.0, alpha: 1.0}",
     "{arrival_rate: 0.3, mean_flow_size: [.inf, 1.0]}", "mean_flow_size"),
])
def test_non_finite_rate_is_validation_error(kind, csma, traffic, field, tmp_path,
                                             capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(f"""
name: bad
network: {{classes: 2, channels: 1, conflict_edges: [[1, 2]]}}
csma: {csma}
traffic: {traffic}
experiment: {{kind: {kind}, grid: 2, horizon: 5.0, replications: 1}}
""")
    out = tmp_path / "o"
    assert main(["run", kind, "--scenario", str(bad), "--output", str(out)]) == 3
    diag = json.loads(capsys.readouterr().err)
    assert diag["error"] == "validation"
    assert f"{field} must be finite and" in diag["message"]
    assert not out.exists()
