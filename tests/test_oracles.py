import math

import numpy as np
import pytest

from conftest import ap_line3, random_instance
from mccsma.oracles import (MAX_ORACLE_STATES, flow_level_generator, joint_generator,
                            poisson_quantile, transient_distribution)
from mccsma.schedule import OracleSpaceError
from mccsma.equilibrium import PolicyEvaluator
from mccsma.topology import AccessPoint, CsmaParams, NetworkSpec, TrafficSpec, replicate_graph
from oracles import packet_level_generator, stationary_distribution
from theory import flow_level_generator_per_state


def test_two_state_chain_analytic_transient():
    # on/off chain: up rate a, down rate b
    a, b = 0.7, 1.3
    q = np.array([[-a, a], [b, -b]])
    for t in (0.0, 0.1, 0.5, 2.0, 10.0):
        p = transient_distribution(q, np.array([1.0, 0.0]), t)
        expect_on = a / (a + b) * (1.0 - math.exp(-(a + b) * t))
        assert p[1] == pytest.approx(expect_on, abs=1e-10)


def test_two_state_chain_stationary():
    a, b = 0.7, 1.3
    q = np.array([[-a, a], [b, -b]])
    pi = stationary_distribution(q)
    assert np.allclose(pi, [b / (a + b), a / (a + b)], atol=1e-12)


def test_transient_with_large_uniformization_constant():
    a, b = 300.0, 500.0
    q = np.array([[-a, a], [b, -b]])
    p = transient_distribution(q, np.array([1.0, 0.0]), 5.0)
    assert p[1] == pytest.approx(a / (a + b), abs=1e-9)


def test_packet_generator_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    for infra in (False, True):
        spec, params, state = random_instance(rng, infrastructure=infra)
        policy = "standard_infra" if infra else "adhoc"
        _, q = packet_level_generator(state, params, spec, policy)
        q = q.toarray()
        assert np.allclose(q.sum(axis=1), 0.0, atol=1e-12)
        assert np.all(q - np.diag(np.diag(q)) >= 0)


def test_flow_generator_single_queue_matches_birth_death():
    # single class, huge attempt ratio: service is the full physical rate
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1e9, phys_rate=2.0)
    traffic = TrafficSpec.of(1.0, 1.0, 1)
    states, q = flow_level_generator(spec, params, traffic, "adhoc", box=(30,))
    pi = stationary_distribution(q)
    load = 0.5
    geometric = np.array([(1 - load) * load**n for n in range(31)])
    geometric /= geometric.sum()
    assert 0.5 * np.abs(pi - geometric).sum() < 1e-6


def test_joint_generator_rates_respect_flow_end_probability():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.2, 1.0, 1)
    # sigma * N = 1: all packet completions end their flow
    states, q = joint_generator(spec, params, traffic, "adhoc", 1, box=(3,))
    idx = {s: i for i, s in enumerate(states)}
    active, idle = ((1,),), ((0,),)
    si = idx[((2,), active)]
    assert q[si, idx[((2,), idle)]] == 0.0          # no release without departure
    assert q[si, idx[((1,), idle)]] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="packet count"):
        joint_generator(spec, params, TrafficSpec.of(0.2, 0.5, 1), "adhoc", 1, box=(2,))


def test_poisson_quantile_matches_scipy_stats():
    from scipy.stats import poisson

    mu = 50.0 - np.random.default_rng(5).uniform(0.0, 50.0, 20_000)   # (0, 50]
    for q in (1 - 1e-12, 0.5e-12):
        expected = poisson.ppf(q, mu)
        got = np.array([poisson_quantile(q, m) for m in mu])
        assert np.array_equal(got, expected)


def test_oracle_guard_refuses_large_boxes():
    spec = NetworkSpec(3, 1, replicate_graph(1, [0, 1, 2], [(0, 1)]))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.2, 1.0, 3)
    side = round(MAX_ORACLE_STATES ** (1 / 3))        # (side + 1)^3 > the guard
    with pytest.raises(OracleSpaceError):
        flow_level_generator(spec, params, traffic, "adhoc", box=(side,) * 3)
    with pytest.raises(OracleSpaceError):
        joint_generator(spec, params, traffic, "adhoc", 1, box=(side,) * 3)


def test_flow_level_generator_equals_its_per_state_reference():
    """One packet-level solve per throughput key gives the states and the
    CSR arrays of one solve per state, bit for bit: on the ap-line3 box of
    the benchmark's smoke time-scale study (1,728 states, 8 keys), and on an
    access point whose three downlink classes put shares in the key under
    the shared queue (480 states, 436 keys) and not under flow_aware, where
    every state is its own key; and under adhoc on two channels, with a
    class that never arrives, a box entry of 0 and unequal mean flow sizes
    (60 states, each its own key)."""
    line = ap_line3()
    shared = NetworkSpec(4, 2, replicate_graph(2, range(4), [(0, 1), (0, 2), (1, 2), (2, 3)]),
                         (AccessPoint.of([], [0, 1, 2]), AccessPoint.of([3], [])))
    cases = [(line, CsmaParams.from_alpha(line, 1e6), TrafficSpec.of(0.4, 1.0, 3),
              "standard_infra", (11, 11, 11), 8)]
    for policy, n_keys in (("standard_infra", 436), ("flow_aware", 480)):
        cases.append((shared, CsmaParams.from_alpha(shared, 2.0),
                      TrafficSpec((0.3, 0.2, 0.4, 0.5), (1.0, 2.0, 0.5, 1.0)), policy,
                      (4, 3, 5, 3), n_keys))
    adhoc = NetworkSpec(4, 2, replicate_graph(2, range(4), [(0, 1), (1, 2), (2, 3)]))
    cases.append((adhoc, CsmaParams.from_alpha(adhoc, 1.5),
                  TrafficSpec((0.6, 0.0, 0.3, 0.7), (1.0, 3.0, 0.25, 2.0)), "adhoc",
                  (4, 2, 0, 3), 60))
    for spec, params, traffic, policy, box, n_keys in cases:
        states, q = flow_level_generator(spec, params, traffic, policy, box)
        ref_states, ref = flow_level_generator_per_state(spec, params, traffic, policy, box)
        assert states == ref_states
        for name in ("data", "indices", "indptr"):
            got, expected = getattr(q, name), getattr(ref, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        ev = PolicyEvaluator(spec, params, policy)
        assert len({ev.throughput_key(x) for x in states}) == n_keys
