"""Shared fixtures: reference networks, a random-instance generator and the
empty schedule."""

from __future__ import annotations

import re

import numpy as np
import pytest

from mccsma.topology import (AccessPoint, ChannelGraph, CsmaParams, NetworkSpec,
                             TrafficSpec, replicate_graph)

BOWTIE_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]


def bowtie_spec() -> NetworkSpec:
    """Five single-downlink-class access points, two channels, two fused triangles."""
    return NetworkSpec(5, 2, replicate_graph(2, range(5), BOWTIE_EDGES),
                       tuple(AccessPoint.of([], [k]) for k in range(5)))


def adhoc_path4() -> NetworkSpec:
    return NetworkSpec(4, 2, replicate_graph(2, range(4), [(0, 1), (1, 2), (2, 3)]))


def star5() -> NetworkSpec:
    """Two-block multipartite: class 2 against {0, 1, 3, 4}; one channel."""
    return NetworkSpec(5, 1, replicate_graph(1, range(5),
                                             [(0, 2), (1, 2), (2, 3), (2, 4)]))


def bipartite33(channels: int = 1) -> NetworkSpec:
    edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]
    return NetworkSpec(6, channels, replicate_graph(channels, range(6), edges))


def tripartite221() -> NetworkSpec:
    blocks = [(0, 1), (2, 3), (4,)]
    edges = []
    for i, ba in enumerate(blocks):
        for bb in blocks[i + 1:]:
            edges += [(a, b) for a in ba for b in bb]
    return NetworkSpec(5, 1, replicate_graph(1, range(5), edges))


def ap_line3() -> NetworkSpec:
    return NetworkSpec(3, 1, replicate_graph(1, range(3), [(0, 1), (1, 2)]),
                       tuple(AccessPoint.of([], [k]) for k in range(3)))


def empty_schedule(num_classes: int, num_channels: int) -> tuple[tuple[int, ...], ...]:
    """The schedule with no active link, as a tuple of rows."""
    return tuple((0,) * num_channels for _ in range(num_classes))


def bad_state_message(state) -> str:
    """The pattern of the error that rejects ``state`` for a negative or
    fractional flow count; the state is named as a tuple."""
    return (rf"state {re.escape(str(tuple(state)))} must hold (\d+ )?nonnegative "
            rf"integral flow counts")


@pytest.fixture
def bowtie():
    return bowtie_spec()


def random_instance(rng: np.random.Generator, infrastructure: bool
                    ) -> tuple[NetworkSpec, CsmaParams, tuple[int, ...]]:
    """Random small instance: K <= 4, J <= 2, flow counts <= 3.

    Infrastructure instances include multi-class downlink access points and
    honor the structural constraints (classes of one access point conflict on
    shared channels, equal downlink attempt rates per access point).
    """
    K = int(rng.integers(1, 5))
    J = int(rng.integers(1, 3))
    eligible = rng.random((K, J)) < 0.8
    for k in range(K):
        if not eligible[k].any():
            eligible[k, int(rng.integers(J))] = True

    edge_sets: list[set[tuple[int, int]]] = []
    for j in range(J):
        members = [k for k in range(K) if eligible[k, j]]
        edges = {(a, b) for i, a in enumerate(members) for b in members[i + 1:]
                 if rng.random() < 0.5}
        edge_sets.append(edges)

    aps: tuple[AccessPoint, ...] = ()
    if infrastructure:
        n_aps = int(rng.integers(1, K + 1))
        assignment: list[list[tuple[int, bool]]] = [[] for _ in range(n_aps)]
        for k in range(K):
            if rng.random() < 0.9:            # a few classes may stay unassigned
                is_up = rng.random() < 0.3
                assignment[int(rng.integers(n_aps))].append((k, is_up))
        aps = tuple(AccessPoint.of([k for k, up in grp if up],
                                   [k for k, up in grp if not up])
                    for grp in assignment)
        for grp in assignment:                # intra-AP conflicts on shared channels
            members = [k for k, _ in grp]
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    for j in range(J):
                        if eligible[a, j] and eligible[b, j]:
                            edge_sets[j].add((min(a, b), max(a, b)))

    graphs = tuple(
        ChannelGraph.of([k for k in range(K) if eligible[k, j]], sorted(edge_sets[j]))
        for j in range(J))
    spec = NetworkSpec(K, J, graphs, aps)

    phi = tuple(float(v) for v in rng.uniform(0.5, 2.0, K))
    nu = [float(v) for v in rng.uniform(0.3, 3.0, K)]
    for ap in aps:                             # shared attempt rate per access point
        down = sorted(ap.downlink)
        if down:
            common = float(rng.uniform(0.3, 3.0))
            for k in down:
                nu[k] = common
    probe_rows = []
    for k in range(K):
        chans = [j for j in range(J) if eligible[k, j]]
        raw = rng.uniform(0.2, 1.0, len(chans))
        raw /= raw.sum()
        row = [0.0] * J
        for j, p in zip(chans, raw):
            row[j] = float(p)
        probe_rows.append(tuple(row))
    params = CsmaParams(phi, tuple(nu), tuple(probe_rows))
    state = tuple(int(v) for v in rng.integers(0, 4, K))
    return spec, params, state


def uniform_params(spec: NetworkSpec, alpha: float = 1.0) -> CsmaParams:
    return CsmaParams.from_alpha(spec, alpha)


def uniform_traffic(spec: NetworkSpec, rho: float, sigma: float = 1.0) -> TrafficSpec:
    return TrafficSpec.of(rho / sigma, sigma, spec.num_classes)
