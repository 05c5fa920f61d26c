from pathlib import Path

import pytest
import yaml

from mccsma.cli import main
from mccsma.scenario import (Scenario, ScenarioError, ScenarioValidationError,
                             bundled_scenarios, dump_scenario, load_scenario,
                             load_scenario_text, parse_scenario)

MINIMAL = """
name: pair
network:
  classes: 2
  channels: 1
  conflict_edges: [[1, 2]]
csma:
  phys_rate: 1.0
  alpha: 2.0
traffic:
  arrival_rate: [0.5, 0.25]
  mean_flow_size: 1.0
experiment:
  kind: simulate
  policy: adhoc
  horizon: 10.0
"""


def test_minimal_scenario_parses_with_one_based_classes():
    s = load_scenario_text(MINIMAL)
    assert s.network.num_classes == 2
    assert s.network.channel_graphs[0].edges == frozenset({(0, 1)})
    assert s.csma.attempt_rate == (2.0, 2.0)
    assert s.traffic.arrival_rate == (0.5, 0.25)
    assert s.experiment.kind == "simulate"


def test_round_trip_is_identity_on_semantics():
    first = load_scenario_text(MINIMAL)
    second = load_scenario_text(dump_scenario(first))
    assert second == first
    third = load_scenario_text(dump_scenario(second))
    assert third == first


def _pure_python_parse(path) -> Scenario:
    """The scenario of a file read on PyYAML's pure-Python parser."""
    return parse_scenario(yaml.load(path.read_text(), Loader=yaml.SafeLoader))


def test_bundled_scenarios_all_parse_and_round_trip():
    """Every bundled and benchmark scenario round-trips, and parses to an
    equal ``Scenario`` on PyYAML's pure-Python parser."""
    names = bundled_scenarios()
    assert {"bowtie", "adhoc4", "star5", "bipartite33", "tripartite221",
            "two-ap", "ap-line3"} <= set(names)
    root = Path(__file__).resolve().parents[1]
    for name in names:
        s = load_scenario(name)
        assert s.name == name
        assert load_scenario_text(dump_scenario(s)) == s
        assert _pure_python_parse(root / "src" / "mccsma" / "scenarios" / f"{name}.yaml") == s
    # the benchmark's own scenario files as well
    benchmark = sorted((root / "perfbench" / "scenarios").glob("*.yaml"))
    assert benchmark
    for path in benchmark:
        s = load_scenario(str(path))
        assert load_scenario_text(dump_scenario(s)) == s
        assert _pure_python_parse(path) == s


def test_malformed_yaml_is_a_parse_error_without_libyaml(monkeypatch, tmp_path):
    """Without libyaml a malformed document still raises ``ScenarioError``
    naming YAML, and the CLI still exits with its parse-error code."""
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    with pytest.raises(ScenarioError, match="^not valid YAML"):
        load_scenario_text("a: [unclosed")
    bad = tmp_path / "bad.yaml"
    bad.write_text("network: {classes: 2\n")
    out = tmp_path / "out"
    assert main(["run", "equilibrium", "--scenario", str(bad), "--output", str(out)]) == 2
    assert not out.exists()


def test_bowtie_scenario_structure():
    s = load_scenario("bowtie")
    assert s.network.mode == "infrastructure"
    assert len(s.network.access_points) == 5
    assert s.network.num_channels == 2
    assert s.network.channel_graphs[0] == s.network.channel_graphs[1]
    assert s.csma.alpha[0] == pytest.approx(1e6)


def test_unknown_name_and_empty_text_fail():
    with pytest.raises(ScenarioError, match="bundled"):
        load_scenario("nope-not-here")
    with pytest.raises(ScenarioError, match="empty"):
        load_scenario_text("")
    with pytest.raises(ScenarioError, match="^not valid YAML"):
        load_scenario_text("a: [unclosed")


def test_semantic_validation_is_distinguished():
    bad = MINIMAL.replace("conflict_edges: [[1, 2]]",
                          "conflict_edges: [[1, 1]]")
    with pytest.raises(ScenarioValidationError, match="itself"):
        load_scenario_text(bad)


def test_out_of_range_class_is_parse_error():
    bad = MINIMAL.replace("conflict_edges: [[1, 2]]", "conflict_edges: [[1, 9]]")
    with pytest.raises(ScenarioError):
        load_scenario_text(bad)


def test_unknown_experiment_kind_rejected():
    bad = MINIMAL.replace("kind: simulate", "kind: frobnicate")
    with pytest.raises(ScenarioError, match="frobnicate"):
        load_scenario_text(bad)


def test_probe_matrix_accepted():
    doc = MINIMAL.replace("alpha: 2.0", "alpha: 2.0\n  probe: [[1.0], [1.0]]")
    s = load_scenario_text(doc)
    assert s.csma.probe_prob == ((1.0,), (1.0,))


# one misspelt key per section; each would otherwise fall back to a default
@pytest.mark.parametrize("old, new, where, key", [
    ("name: pair", "name: pair\nnmae: typo", "scenario", "nmae"),
    ("channels: 1", "chanels: 1", "network", "chanels"),
    ("alpha: 2.0", "alpha: 2.0\n  probe_prob: uniform", "csma", "probe_prob"),
    ("mean_flow_size: 1.0", "mean_flow_size: 1.0\n  arrival: 0.1", "traffic",
     "arrival"),
    ("horizon: 10.0", "horizn: 5.0", "experiment", "horizn"),
    ("horizon: 10.0", "horizon: 10.0\n  axis1: {classes: [1], maximum: 2.0}",
     "experiment.axis1", "maximum"),
    ("conflict_edges: [[1, 2]]",
     "mode: infrastructure\n  conflict_edges: [[1, 2]]\n"
     "  access_points: [{uplink: [1], donwlink: [2]}]",
     "network.access_points[0]", "donwlink"),
    ("conflict_edges: [[1, 2]]",
     "channel_graphs: [{eligible: [1, 2], egdes: [[1, 2]]}]",
     "network.channel_graphs[0]", "egdes"),
])
def test_unknown_key_is_parse_error_naming_section_and_key(old, new, where, key):
    bad = MINIMAL.replace(old, new)
    assert bad != MINIMAL
    with pytest.raises(ScenarioError) as info:
        load_scenario_text(bad)
    assert not isinstance(info.value, ScenarioValidationError)
    assert str(info.value).startswith(f"{where}: unknown key {key!r}")


@pytest.mark.parametrize("old, new, match", [
    ("alpha: 2.0", "alpha: 2.0\n  attempt_rate: 1.0", "attempt_rate or alpha"),
    ("conflict_edges: [[1, 2]]",
     "conflict_edges: [[1, 2]]\n  channel_graphs: [{eligible: [1, 2]}]",
     "channel_graphs or conflict_edges and eligible"),
    ("conflict_edges: [[1, 2]]",
     "conflict_edges: [[1, 2]]\n  access_points: [{downlink: [1, 2]}]",
     "mode: infrastructure"),
])
def test_keys_that_would_be_ignored_together_are_rejected(old, new, match):
    with pytest.raises(ScenarioError, match=match):
        load_scenario_text(MINIMAL.replace(old, new))


def test_initial_state_above_the_guard_is_a_validation_error():
    doc = MINIMAL.replace("horizon: 10.0", "horizon: 10.0\n  max_total_flows: 10")
    assert load_scenario_text(doc + "  initial_state: [6, 4]\n").experiment.initial_state
    with pytest.raises(ScenarioValidationError, match="max_total_flows = 10"):
        load_scenario_text(doc + "  initial_state: [6, 5]\n")


def test_numbers_written_as_dotless_exponents_are_read():
    # YAML reads 1e3, without a dot, as a string
    doc = MINIMAL.replace("horizon: 10.0", "horizon: 1e3\n  max_total_flows: 1e5")
    s = load_scenario_text(doc.replace("alpha: 2.0", "alpha: 2e0"))
    assert s.experiment.horizon == 1000.0 and s.experiment.max_total_flows == 100_000
    assert s.csma.attempt_rate == (2.0, 2.0)


@pytest.mark.parametrize("old, new, key", [
    ("arrival_rate: [0.5, 0.25]", "arrival_rate: [0.5, fast]", "traffic.arrival_rate[1]"),
    ("alpha: 2.0", "alpha: {value: 2.0}", "csma.alpha"),
    ("classes: 2", "classes: 2.5", "network.classes"),
    ("alpha: 2.0", "alpha: 2.0\n  probe: [1.0, 1.0]", "csma.probe[0]"),
    ("alpha: 2.0", "alpha: 2.0\n  probe: random", "csma.probe"),
    ("horizon: 10.0", "horizon: 10.0\n  max_total_flows: 1e-1", "experiment.max_total_flows"),
])
def test_mistyped_value_names_its_key(old, new, key):
    with pytest.raises(ScenarioError) as info:
        load_scenario_text(MINIMAL.replace(old, new))
    assert not isinstance(info.value, ScenarioValidationError)
    assert str(info.value).startswith(f"{key} must be ")
