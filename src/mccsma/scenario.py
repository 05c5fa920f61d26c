"""Scenario files: a YAML document bundling the network, CSMA parameters,
traffic and one experiment block.

Scenario documents index classes and channels from 1; everything in memory is
0-based. Parsing and serialization round-trip: parse(serialize(parse(doc)))
equals parse(doc) on all semantic content.

A small library of named scenarios ships with the package (see
``bundled_scenarios``); the CLI accepts either a bundled name or a file path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Sequence

import yaml

from .topology import (AccessPoint, ChannelGraph, CsmaParams, NetworkSpec,
                       TrafficSpec, validate_params, validate_spec, validate_traffic)

EXPERIMENT_KINDS = ("equilibrium", "capacity-sweep", "simulate",
                    "stability-sweep", "timescale")


class ScenarioError(ValueError):
    """Malformed scenario document."""


class ScenarioValidationError(ScenarioError):
    """Well-formed document describing an invalid network/parameter set."""


@dataclass(frozen=True)
class SweepAxis:
    classes: tuple[int, ...]          # 0-based class indices sharing this axis
    maximum: float = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment block of a scenario; fields beyond ``kind`` are kind-specific."""

    kind: str
    policy: str = "auto"
    state: Optional[tuple[int, ...]] = None          # equilibrium
    grid: int = 50                                   # sweeps
    axis1: Optional[SweepAxis] = None
    axis2: Optional[SweepAxis] = None
    horizon: float = 1000.0                          # simulate / stability
    replications: int = 5
    scaling_n: int = 0                               # 0 = separated model
    initial_state: Optional[tuple[int, ...]] = None
    sample_count: int = 400
    max_total_flows: int = 100_000
    n_values: tuple[int, ...] = (1, 4, 16, 64)       # timescale
    t_probe: float = 1.0

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ScenarioError(f"unknown experiment kind {self.kind!r}; "
                                f"expected one of {EXPERIMENT_KINDS}")
        # command-line overrides reach here through parse_scenario too
        problems = [f"{name} must be at least {low}, got {getattr(self, name)}"
                    for name, low in (("grid", 1), ("replications", 1),
                                      ("sample_count", 1), ("max_total_flows", 1),
                                      ("scaling_n", 0))
                    if getattr(self, name) < low]
        if not self.n_values or min(self.n_values) < 1:
            problems.append(f"n_values must be a non-empty list of integers of at "
                            f"least 1, got {list(self.n_values)}")
        problems += [f"{name} must be finite and positive, got {getattr(self, name)}"
                     for name in ("horizon", "t_probe")
                     if not 0 < getattr(self, name) < math.inf]
        problems += [f"{name} must hold nonnegative flow counts, got {list(getattr(self, name))}"
                     for name in ("state", "initial_state")
                     if min(getattr(self, name) or (0,)) < 0]
        if self.initial_state and sum(self.initial_state) > self.max_total_flows:
            problems.append(f"initial_state holds {sum(self.initial_state)} flows, above "
                            f"max_total_flows = {self.max_total_flows}")
        if problems:
            raise ScenarioValidationError("invalid experiment: " + "; ".join(problems))


@dataclass(frozen=True)
class Scenario:
    name: str
    network: NetworkSpec
    csma: CsmaParams
    traffic: TrafficSpec
    experiment: ExperimentConfig
    description: str = ""


def _req(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise ScenarioError(f"missing key {key!r} in {where}")
    return doc[key]


def _check_keys(doc: Any, allowed: Sequence[str], where: str) -> None:
    """Reject a key the parser would ignore, so that a misspelt key fails
    instead of falling back to its default."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where} must be a mapping")
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ScenarioError(f"{where}: unknown key {unknown[0]!r}; "
                            f"expected one of {', '.join(allowed)}")


def _number(value: Any, where: str) -> float:
    """``value`` as a float: a number, or a string that reads as one (YAML
    reads ``1e3``, which has no dot, as a string); anything else raises
    ScenarioError naming ``where``. Ranges are checked elsewhere."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except ValueError:
            pass
    raise ScenarioError(f"{where} must be a number, got {value!r}")


def _integer(value: Any, where: str) -> int:
    """``value`` as an int: an integer, or a number with an integral value;
    anything else raises ScenarioError naming ``where``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value, where)
    if not number.is_integer():
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return int(number)


def _text(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{where} must be a string, got {value!r}")
    return value


def _list(values: Any, where: str, of: str) -> Sequence[Any]:
    """``values`` when it is a list; anything else raises ScenarioError
    naming ``where`` and what the list should hold."""
    if not isinstance(values, (list, tuple)):
        raise ScenarioError(f"{where} must be a list of {of}, got {values!r}")
    return values


def _integers(values: Any, where: str) -> tuple[int, ...]:
    return tuple(_integer(v, f"{where}[{i}]")
                 for i, v in enumerate(_list(values, where, "integers")))


def _numbers(values: Any, where: str) -> tuple[float, ...]:
    return tuple(_number(v, f"{where}[{i}]")
                 for i, v in enumerate(_list(values, where, "numbers")))


def _edges(values: Any, where: str) -> list[tuple[int, int]]:
    """Conflict edges as 0-based pairs; their classes are range-checked with
    the rest of the network by ``validate_spec``."""
    out = []
    for i, edge in enumerate(_list(values, where, "class pairs")):
        pair = _integers(edge, f"{where}[{i}]")
        if len(pair) != 2:
            raise ScenarioError(f"{where}[{i}] must be a pair of classes, got {edge!r}")
        out.append((pair[0] - 1, pair[1] - 1))
    return out


def _class_list(values: Any, K: int, where: str) -> tuple[int, ...]:
    out = []
    for v in _integers(values, where):
        if not 1 <= v <= K:
            raise ScenarioError(f"{where}: class {v} out of range 1..{K}")
        out.append(v - 1)
    return tuple(out)


def _parse_network(doc: dict) -> NetworkSpec:
    _check_keys(doc, ("classes", "channels", "conflict_edges", "eligible",
                      "channel_graphs", "mode", "access_points"), "network")
    K = _integer(_req(doc, "classes", "network"), "network.classes")
    J = _integer(_req(doc, "channels", "network"), "network.channels")
    if "channel_graphs" in doc:
        if "conflict_edges" in doc or "eligible" in doc:
            raise ScenarioError("network: channel_graphs or conflict_edges and eligible, "
                                "not both")
        graphs = []
        for j, g in enumerate(_list(doc["channel_graphs"], "network.channel_graphs",
                                    "channel graphs")):
            _check_keys(g, ("eligible", "edges"), f"network.channel_graphs[{j}]")
            eligible = _class_list(_req(g, "eligible", f"channel_graphs[{j}]"), K,
                                   f"network.channel_graphs[{j}].eligible")
            edges = _edges(g.get("edges", []), f"network.channel_graphs[{j}].edges")
            graphs.append(ChannelGraph.of(eligible, edges))
        if len(graphs) != J:
            raise ScenarioError(f"network: {len(graphs)} channel graphs for {J} channels")
        channel_graphs = tuple(graphs)
    else:
        edges = _edges(doc.get("conflict_edges", []), "network.conflict_edges")
        eligible = (_class_list(doc["eligible"], K, "network.eligible")
                    if "eligible" in doc else tuple(range(K)))
        channel_graphs = tuple(ChannelGraph.of(eligible, edges) for _ in range(J))

    mode = doc.get("mode", "adhoc")
    aps: tuple[AccessPoint, ...] = ()
    if mode == "infrastructure":
        aps = tuple(_parse_access_point(ap, K, f"network.access_points[{i}]")
                    for i, ap in enumerate(_list(_req(doc, "access_points", "network"),
                                                 "network.access_points", "access points")))
    elif mode != "adhoc":
        raise ScenarioError(f"network.mode must be 'adhoc' or 'infrastructure', got {mode!r}")
    elif "access_points" in doc:
        raise ScenarioError("network: access_points need mode: infrastructure")
    return NetworkSpec(K, J, channel_graphs, aps)


def _parse_access_point(doc: dict, K: int, where: str) -> AccessPoint:
    _check_keys(doc, ("uplink", "downlink"), where)
    return AccessPoint.of(_class_list(doc.get("uplink", []), K, f"{where}.uplink"),
                          _class_list(doc.get("downlink", []), K, f"{where}.downlink"))


def _per_class(value, K: int, where: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        return (_number(value, where),) * K
    vals = _numbers(value, where)
    if len(vals) != K:
        raise ScenarioError(f"{where}: expected {K} values, got {len(vals)}")
    return vals


def _parse_csma(doc: dict, spec: NetworkSpec) -> CsmaParams:
    _check_keys(doc, ("phys_rate", "attempt_rate", "alpha", "probe"), "csma")
    K = spec.num_classes
    phys = _per_class(doc.get("phys_rate", 1.0), K, "csma.phys_rate")
    if ("attempt_rate" in doc) == ("alpha" in doc):
        raise ScenarioError("csma: need either attempt_rate or alpha, not both")
    if "attempt_rate" in doc:
        nu = _per_class(doc["attempt_rate"], K, "csma.attempt_rate")
    else:
        alpha = _per_class(doc["alpha"], K, "csma.alpha")
        nu = tuple(a * p for a, p in zip(alpha, phys))
    probe = doc.get("probe", "uniform")
    if probe == "uniform":
        probe_prob = CsmaParams.uniform_probe(spec)
    elif not isinstance(probe, (list, tuple)):
        raise ScenarioError(f"csma.probe must be 'uniform' or a classes x channels "
                            f"matrix, got {probe!r}")
    else:
        probe_prob = tuple(_numbers(row, f"csma.probe[{k}]") for k, row in enumerate(probe))
        if len(probe_prob) != K or any(len(r) != spec.num_channels for r in probe_prob):
            raise ScenarioError("csma.probe: expected a classes x channels matrix")
    return CsmaParams(phys, nu, probe_prob)


def _parse_traffic(doc: dict, K: int) -> TrafficSpec:
    _check_keys(doc, ("arrival_rate", "mean_flow_size"), "traffic")
    lam = _per_class(_req(doc, "arrival_rate", "traffic"), K, "traffic.arrival_rate")
    sigma = _per_class(_req(doc, "mean_flow_size", "traffic"), K, "traffic.mean_flow_size")
    return TrafficSpec(lam, sigma)


def _parse_axis(doc: dict, K: int, where: str) -> SweepAxis:
    _check_keys(doc, ("classes", "max"), where)
    maximum = _number(doc.get("max", 1.0), f"{where}.max")
    if not 0 <= maximum < math.inf:
        raise ScenarioValidationError(f"invalid experiment: {where}.max must be finite "
                                      f"and nonnegative, got {maximum}")
    return SweepAxis(_class_list(_req(doc, "classes", where), K, f"{where}.classes"),
                     maximum)


# every experiment key but the axes, with its typed converter; each key is
# the name of its ExperimentConfig field
_EXPERIMENT_KEYS = {"kind": _text, "policy": _text, "state": _integers, "grid": _integer,
                    "horizon": _number, "replications": _integer, "scaling_n": _integer,
                    "initial_state": _integers, "sample_count": _integer,
                    "max_total_flows": _integer, "n_values": _integers, "t_probe": _number}


def _parse_experiment(doc: dict, K: int) -> ExperimentConfig:
    _check_keys(doc, [*_EXPERIMENT_KEYS, "axis1", "axis2"], "experiment")
    _req(doc, "kind", "experiment")
    kwargs: dict[str, Any] = {key: convert(doc[key], f"experiment.{key}")
                              for key, convert in _EXPERIMENT_KEYS.items() if key in doc}
    initial = kwargs.get("initial_state")
    if initial is not None and len(initial) != K:
        raise ScenarioValidationError(f"invalid experiment: initial_state has "
                                      f"{len(initial)} entries, expected {K}")
    for axis in ("axis1", "axis2"):
        if axis in doc:
            kwargs[axis] = _parse_axis(doc[axis], K, f"experiment.{axis}")
    return ExperimentConfig(**kwargs)


def parse_scenario(doc: dict) -> Scenario:
    _check_keys(doc, ("name", "description", "network", "csma", "traffic", "experiment"),
                "scenario")
    network = _parse_network(_req(doc, "network", "scenario"))
    problems = validate_spec(network)
    if problems:
        raise ScenarioValidationError("invalid network: " + "; ".join(problems))
    csma = _parse_csma(_req(doc, "csma", "scenario"), network)
    problems = validate_params(network, csma)
    if problems:
        raise ScenarioValidationError("invalid csma parameters: " + "; ".join(problems))
    traffic = _parse_traffic(_req(doc, "traffic", "scenario"), network.num_classes)
    problems = validate_traffic(traffic)
    if problems:
        raise ScenarioValidationError("invalid traffic: " + "; ".join(problems))
    experiment = _parse_experiment(_req(doc, "experiment", "scenario"),
                                   network.num_classes)
    return Scenario(str(doc.get("name", "unnamed")), network, csma, traffic,
                    experiment, str(doc.get("description", "")))


def scenario_to_document(s: Scenario) -> dict:
    """Canonical document form: explicit per-channel graphs, explicit arrays."""
    net: dict[str, Any] = {
        "classes": s.network.num_classes,
        "channels": s.network.num_channels,
        "channel_graphs": [
            {"eligible": [k + 1 for k in sorted(g.eligible)],
             "edges": [[a + 1, b + 1] for a, b in sorted(g.edges)]}
            for g in s.network.channel_graphs
        ],
        "mode": s.network.mode,
    }
    if s.network.is_infrastructure:
        net["access_points"] = [
            {"uplink": [k + 1 for k in sorted(ap.uplink)],
             "downlink": [k + 1 for k in sorted(ap.downlink)]}
            for ap in s.network.access_points
        ]
    exp: dict[str, Any] = {"kind": s.experiment.kind, "policy": s.experiment.policy}
    defaults = ExperimentConfig(kind=s.experiment.kind)
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in ("kind", "policy", "axis1", "axis2"):
            continue
        value = getattr(s.experiment, f.name)
        if value != getattr(defaults, f.name):
            exp[f.name] = list(value) if isinstance(value, tuple) else value
    for axis_name in ("axis1", "axis2"):
        axis = getattr(s.experiment, axis_name)
        if axis is not None:
            exp[axis_name] = {"classes": [k + 1 for k in axis.classes],
                              "max": axis.maximum}
    return {
        "name": s.name,
        "description": s.description,
        "network": net,
        "csma": {
            "phys_rate": list(s.csma.phys_rate),
            "attempt_rate": list(s.csma.attempt_rate),
            "probe": [list(row) for row in s.csma.probe_prob],
        },
        "traffic": {
            "arrival_rate": list(s.traffic.arrival_rate),
            "mean_flow_size": list(s.traffic.mean_flow_size),
        },
        "experiment": exp,
    }


def load_scenario_text(text: str) -> Scenario:
    """The scenario of a YAML document, read with PyYAML's safe loader on
    libyaml where PyYAML was built with it (about 7x faster per document),
    and on its pure-Python parser otherwise; both build the same values."""
    try:
        doc = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ScenarioError(f"not valid YAML: {exc}") from exc
    if doc is None:
        raise ScenarioError("scenario file is empty")
    return parse_scenario(doc)


def dump_scenario(s: Scenario) -> str:
    return yaml.safe_dump(scenario_to_document(s), sort_keys=False)


def bundled_scenarios() -> list[str]:
    root = resources.files("mccsma").joinpath("scenarios")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".yaml"))


def load_scenario(name_or_path: str) -> Scenario:
    """Load a scenario by bundled name or by file path."""
    path = Path(name_or_path)
    if path.suffix in (".yaml", ".yml") or path.exists():
        return load_scenario_text(path.read_text())
    ref = resources.files("mccsma").joinpath(f"scenarios/{name_or_path}.yaml")
    if not ref.is_file():
        raise ScenarioError(
            f"no scenario file {name_or_path!r} and no bundled scenario of that name; "
            f"bundled: {', '.join(bundled_scenarios())}")
    return load_scenario_text(ref.read_text())
