"""Network model: link classes, radio channels, per-channel conflict graphs,
and optional access-point (infrastructure) structure.

A network has K classes of wireless links and J orthogonal channels. Channel j
carries a conflict graph G_j = (V_j, E_j): V_j is the set of classes allowed to
transmit on channel j and each edge forbids simultaneous activation of its two
endpoints on that channel. In infrastructure mode, every class is uplink or
downlink traffic of one access point; the classes of one access point always
conflict with each other, and an access point can transmit (downlink) on at
most one channel at a time.

Classes and channels are 0-based everywhere in this package; scenario files
use 1-based indices and the conversion lives in the scenario parser only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

Edge = tuple[int, int]


def canonical_edges(edges: Iterable[Sequence[int]]) -> frozenset[Edge]:
    """Normalize edges to (min, max) pairs and deduplicate.

    Self-loops are kept as written so that validation can report them.
    """
    out: set[Edge] = set()
    for e in edges:
        k, l = int(e[0]), int(e[1])
        out.add((k, l) if k <= l else (l, k))
    return frozenset(out)


@dataclass(frozen=True)
class ChannelGraph:
    """Conflict graph of one channel: eligible classes plus conflicting pairs."""

    eligible: frozenset[int]
    edges: frozenset[Edge]

    @staticmethod
    def of(eligible: Iterable[int], edges: Iterable[Sequence[int]] = ()) -> "ChannelGraph":
        return ChannelGraph(frozenset(int(k) for k in eligible), canonical_edges(edges))

    def conflicts(self, k: int, l: int) -> bool:
        return ((k, l) if k <= l else (l, k)) in self.edges

    def neighbors(self, k: int) -> set[int]:
        out = set()
        for a, b in self.edges:
            if a == k:
                out.add(b)
            elif b == k:
                out.add(a)
        return out


@dataclass(frozen=True)
class AccessPoint:
    """Uplink and downlink class sets of one access point."""

    uplink: frozenset[int]
    downlink: frozenset[int]

    @staticmethod
    def of(uplink: Iterable[int] = (), downlink: Iterable[int] = ()) -> "AccessPoint":
        return AccessPoint(frozenset(int(k) for k in uplink), frozenset(int(k) for k in downlink))

    @property
    def classes(self) -> frozenset[int]:
        return self.uplink | self.downlink


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of the network topology.

    ``access_points`` empty means ad-hoc mode; otherwise infrastructure mode.
    """

    num_classes: int
    num_channels: int
    channel_graphs: tuple[ChannelGraph, ...]
    access_points: tuple[AccessPoint, ...] = ()

    @property
    def mode(self) -> str:
        return "infrastructure" if self.access_points else "adhoc"

    @property
    def is_infrastructure(self) -> bool:
        return bool(self.access_points)

    def downlink_ap(self, k: int) -> Optional[int]:
        """Index of the access point for which class k is downlink, if any."""
        for i, ap in enumerate(self.access_points):
            if k in ap.downlink:
                return i
        return None

    def eligible_channels(self, k: int) -> tuple[int, ...]:
        return tuple(j for j, g in enumerate(self.channel_graphs) if k in g.eligible)


def replicate_graph(num_channels: int, eligible: Iterable[int],
                    edges: Iterable[Sequence[int]]) -> tuple[ChannelGraph, ...]:
    """Shorthand: the same conflict graph on every channel."""
    g = ChannelGraph.of(eligible, edges)
    return tuple(g for _ in range(num_channels))


@dataclass(frozen=True)
class CsmaParams:
    """Physical rates, attempt rates and the channel-probing distribution.

    ``phys_rate[k]`` is the bit rate of an active class-k link, ``attempt_rate[k]``
    the rate at which an idle class-k transmitter probes a channel, and
    ``probe_prob[k][j]`` the probability that the probe targets channel j.
    The ratio attempt_rate/phys_rate (mean packet transmission time over mean
    backoff time) drives every closed-form weight in this package.
    """

    phys_rate: tuple[float, ...]
    attempt_rate: tuple[float, ...]
    probe_prob: tuple[tuple[float, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.phys_rate)

    @property
    def alpha(self) -> np.ndarray:
        return np.asarray(self.attempt_rate) / np.asarray(self.phys_rate)

    @property
    def phi(self) -> np.ndarray:
        return np.asarray(self.phys_rate, dtype=float)

    @property
    def nu(self) -> np.ndarray:
        return np.asarray(self.attempt_rate, dtype=float)

    @property
    def beta(self) -> np.ndarray:
        return np.asarray(self.probe_prob, dtype=float)

    @staticmethod
    def uniform_probe(spec: NetworkSpec) -> tuple[tuple[float, ...], ...]:
        """Probe each eligible channel of a class with equal probability."""
        rows = []
        for k in range(spec.num_classes):
            chans = spec.eligible_channels(k)
            row = [1.0 / len(chans) if j in chans else 0.0 for j in range(spec.num_channels)]
            rows.append(tuple(row))
        return tuple(rows)

    @staticmethod
    def from_alpha(spec: NetworkSpec, alpha: float | Sequence[float],
                   phys_rate: float | Sequence[float] = 1.0,
                   probe_prob: Optional[Sequence[Sequence[float]]] = None) -> "CsmaParams":
        K = spec.num_classes
        phi = _broadcast(phys_rate, K)
        a = _broadcast(alpha, K)
        nu = tuple(ai * pi for ai, pi in zip(a, phi))
        probe = (tuple(tuple(float(v) for v in row) for row in probe_prob)
                 if probe_prob is not None else CsmaParams.uniform_probe(spec))
        return CsmaParams(phi, nu, probe)


@dataclass(frozen=True)
class TrafficSpec:
    """Per-class flow arrival rates (flows/s) and mean flow sizes (bits)."""

    arrival_rate: tuple[float, ...]
    mean_flow_size: tuple[float, ...]

    @staticmethod
    def of(arrival_rate: float | Sequence[float], mean_flow_size: float | Sequence[float],
           num_classes: int) -> "TrafficSpec":
        return TrafficSpec(_broadcast(arrival_rate, num_classes),
                           _broadcast(mean_flow_size, num_classes))


def _broadcast(value: float | Sequence[float], n: int) -> tuple[float, ...]:
    if np.isscalar(value):
        return tuple(float(value) for _ in range(n))
    vals = tuple(float(v) for v in value)  # type: ignore[union-attr]
    if len(vals) != n:
        raise ValueError(f"expected {n} values, got {len(vals)}")
    return vals


def validate_spec(spec: NetworkSpec) -> list[str]:
    """Check every structural invariant of a NetworkSpec.

    Returns a human-readable description of each violation; an empty list means
    the spec is valid. Violations are data, not exceptions, so that a front end
    can report all of them at once.
    """
    out: list[str] = []
    K, J = spec.num_classes, spec.num_channels
    if K < 1:
        out.append(f"num_classes must be positive, got {K}")
    if J < 1:
        out.append(f"num_channels must be positive, got {J}")
    if len(spec.channel_graphs) != J:
        out.append(f"expected {J} channel graphs, got {len(spec.channel_graphs)}")

    for j, g in enumerate(spec.channel_graphs):
        for k in sorted(g.eligible):
            if not 0 <= k < K:
                out.append(f"channel {j}: eligible class {k} out of range 0..{K - 1}")
        for a, b in sorted(g.edges):
            if a == b:
                out.append(f"channel {j}: conflict edge ({a},{b}) joins a class with itself")
                continue
            for end in (a, b):
                if end not in g.eligible:
                    out.append(f"channel {j}: conflict edge ({a},{b}) endpoint {end} "
                               f"is not an eligible class of this channel")

    if spec.is_infrastructure:
        seen: dict[int, int] = {}
        for i, ap in enumerate(spec.access_points):
            if ap.uplink & ap.downlink:
                dup = sorted(ap.uplink & ap.downlink)
                out.append(f"access point {i}: classes {dup} are both uplink and downlink")
            for k in sorted(ap.classes):
                if not 0 <= k < K:
                    out.append(f"access point {i}: class {k} out of range 0..{K - 1}")
                elif k in seen:
                    out.append(f"class {k} assigned to access points {seen[k]} and {i}")
                else:
                    seen[k] = i
        # classes sharing an access point must conflict on every shared channel
        for i, ap in enumerate(spec.access_points):
            members = sorted(ap.classes)
            for a_idx, a in enumerate(members):
                for b in members[a_idx + 1:]:
                    for j, g in enumerate(spec.channel_graphs):
                        if a in g.eligible and b in g.eligible and not g.conflicts(a, b):
                            out.append(
                                f"access point {i}: classes {a} and {b} share channel {j} "
                                f"but have no conflict edge (required for classes of one "
                                f"access point)")
    return out


def validate_params(spec: NetworkSpec, params: CsmaParams) -> list[str]:
    """Check CSMA parameter invariants against a network spec; each class's
    probe probabilities must sum to one within 1e-9."""
    out: list[str] = []
    K, J = spec.num_classes, spec.num_channels
    if params.num_classes != K:
        out.append(f"expected {K} per-class parameter entries, got {params.num_classes}")
        return out
    for k in range(K):
        for name in ("phys_rate", "attempt_rate"):
            value = getattr(params, name)[k]
            if not 0 < value < math.inf:
                out.append(f"class {k}: {name} must be finite and positive, got {value}")
        row = params.probe_prob[k]
        if len(row) != J:
            out.append(f"class {k}: probe_prob row has {len(row)} entries, expected {J}")
            continue
        if abs(sum(row) - 1.0) > 1e-9:
            out.append(f"class {k}: probe probabilities sum to {sum(row)!r}, expected 1")
        for j in range(J):
            eligible = k in spec.channel_graphs[j].eligible
            if eligible and not 0 < row[j] < math.inf:
                out.append(f"class {k}: probe_prob[{j}] must be finite and positive "
                           f"(class is eligible on channel {j})")
            if not eligible and row[j] != 0:
                out.append(f"class {k}: probe_prob[{j}] must be zero "
                           f"(class is not eligible on channel {j})")
    return out


def validate_traffic(traffic: TrafficSpec) -> list[str]:
    out = []
    for k, (lam, sigma) in enumerate(zip(traffic.arrival_rate, traffic.mean_flow_size)):
        if not 0 <= lam < math.inf:
            out.append(f"class {k}: arrival_rate must be finite and nonnegative, got {lam}")
        if not 0 < sigma < math.inf:
            out.append(f"class {k}: mean_flow_size must be finite and positive, got {sigma}")
    return out

