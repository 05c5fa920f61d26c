import math

import numpy as np
import pytest

import mccsma.oracles
from conftest import ap_line3, random_instance
from mccsma.oracles import (MAX_ORACLE_STATES, Csr, _csr_generator, flow_level_generator,
                            joint_generator, poisson_quantile, transient_distribution)
from mccsma.schedule import OracleSpaceError
from mccsma.equilibrium import PolicyEvaluator
from mccsma.topology import AccessPoint, CsmaParams, NetworkSpec, TrafficSpec, replicate_graph
from oracles import (dense, packet_level_generator, scipy_csr_generator,
                     scipy_transient_distribution, stationary_distribution)
from theory import flow_level_generator_per_state


def test_two_state_chain_analytic_transient():
    # on/off chain: up rate a, down rate b
    a, b = 0.7, 1.3
    q = _csr_generator(2, [(0, 1, a), (1, 0, b)])
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
    q = _csr_generator(2, [(0, 1, a), (1, 0, b)])
    p = transient_distribution(q, np.array([1.0, 0.0]), 5.0)
    assert p[1] == pytest.approx(a / (a + b), abs=1e-9)


def test_packet_generator_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    for infra in (False, True):
        spec, params, state = random_instance(rng, infrastructure=infra)
        policy = "standard_infra" if infra else "adhoc"
        _, q = packet_level_generator(state, params, spec, policy)
        q = dense(q)
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
    q = dense(q)
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


def _spy_on_scipy_quantile(monkeypatch) -> list:
    """Record each call of ``poisson_quantile``'s scipy fallback."""
    calls = []
    scipy_quantile = mccsma.oracles._scipy_poisson_quantile

    def spy(q, mu):
        calls.append((q, mu))
        return scipy_quantile(q, mu)

    monkeypatch.setattr(mccsma.oracles, "_scipy_poisson_quantile", spy)
    return calls


@pytest.mark.parametrize("mu, expected", [(10.572417387700106, 40),
                                          (49.49989558672955, 106),
                                          (4.6295978817475145, 26)])
def test_poisson_quantile_leaves_knife_edges_to_scipy(monkeypatch, mu, expected):
    """Means where the upper tail at the answer lies within rounding of
    1e-12, so that a plain float sum of the CDF is one off: the summed tail
    is too close to decide, and scipy's answer is returned."""
    from scipy.stats import poisson

    calls = _spy_on_scipy_quantile(monkeypatch)
    assert poisson_quantile(1 - 1e-12, mu) == expected == poisson.ppf(1 - 1e-12, mu)
    assert calls == [(1 - 1e-12, mu)]


def test_poisson_quantile_of_the_benchmark_study_needs_no_scipy(monkeypatch):
    """The time-scale study of the benchmark, ap-line3 at arrival rate 0.4
    and t_probe 2.0, sizes its box at mu = 0.8 from the float sum alone."""
    from scipy.stats import poisson

    calls = _spy_on_scipy_quantile(monkeypatch)
    assert poisson_quantile(1 - 1e-12, 0.4 * 2.0) == poisson.ppf(1 - 1e-12, 0.8) == 13
    assert calls == []


@pytest.mark.parametrize("q, mu", [(0.5, -1.0), (0.5, math.nan), (0.5, math.inf),
                                   (0.0, 1.0), (1.0, 1.0), (-0.1, 1.0), (math.nan, 1.0)])
def test_poisson_quantile_rejects_bad_inputs(q, mu):
    with pytest.raises(ValueError, match=rf"q={q}, mu={mu}"):
        poisson_quantile(q, mu)


def test_poisson_quantile_of_a_zero_mean_is_zero():
    assert [poisson_quantile(q, 0.0) for q in (1e-12, 0.5, 1 - 1e-12)] == [0, 0, 0]


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


def _same_array(got: np.ndarray, expected: np.ndarray) -> bool:
    return got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_csr_generator_equals_scipy_csr_array(monkeypatch):
    """``_csr_generator`` gives the ``data``, ``indices`` and ``indptr`` that
    ``scipy.sparse.csr_array`` builds from the same triplets, bytes and
    dtypes: for the flow-level generator of ap-line3's 16^3 box and of
    adhoc4's 7^4 box (triplet arrays), the joint generator and the
    packet-level generator (triplet lists), and a state with no transition
    (diagonal -0.0). scipy adds up a repeated (row, column) pair, which
    ``_csr_generator`` does not: a generator that ever repeated one would
    fail here."""
    built = []

    def recording(n, triplets):
        built.append((n, triplets))
        return csr_generator(n, triplets)

    csr_generator = mccsma.oracles._csr_generator
    monkeypatch.setattr(mccsma.oracles, "_csr_generator", recording)
    line, adhoc = ap_line3(), NetworkSpec(4, 2, replicate_graph(2, range(4),
                                                                [(0, 1), (1, 2), (2, 3)]))
    flow_level_generator(line, CsmaParams.from_alpha(line, 1e6), TrafficSpec.of(0.4, 1.0, 3),
                         "standard_infra", (15, 15, 15))
    flow_level_generator(adhoc, CsmaParams.from_alpha(adhoc, 1.5),
                         TrafficSpec((0.6, 0.0, 0.3, 0.7), (1.0, 3.0, 0.25, 2.0)), "adhoc",
                         (6, 6, 6, 6))
    joint_generator(line, CsmaParams.from_alpha(line, 0.5), TrafficSpec.of(0.4, 1.0, 3),
                    "standard_infra", 4, (3, 4, 3))
    spec, params, state = random_instance(np.random.default_rng(3), infrastructure=True)
    packet_level_generator(state, params, spec, "standard_infra")
    built.append((2, [(0, 1, 1.5)]))
    for n, triplets in built:
        got, expected = csr_generator(n, triplets), scipy_csr_generator(n, triplets)
        assert got.shape == expected.shape == (n, n)
        for name in ("data", "indices", "indptr"):
            assert _same_array(getattr(got, name), getattr(expected, name)), name


def test_transient_distribution_equals_scipy_uniformization():
    """Uniformization on plain arrays gives scipy's CSR results bit for bit:
    on the box of the ap-line3 time-scale study at t_probe 0.5; on a
    generator with an absorbing state built from triplets (a stored
    diagonal of -0.0); on a joint generator, whose step drops the zero
    rates of packets that always end their flow; and on a chain whose
    e^-λt underflows, where the sum starts at lo = floor(λt - 8 sqrt(λt))."""
    spec = ap_line3()
    params, traffic = CsmaParams.from_alpha(spec, 1e6), TrafficSpec.of(0.4, 1.0, 3)
    t_probe = 0.5
    box = tuple(poisson_quantile(1 - 1e-12, rate * t_probe) + 2
                for rate in traffic.arrival_rate)
    states, q = flow_level_generator(spec, params, traffic, "standard_infra", box)
    p0 = np.zeros(len(states))
    p0[states.index((1, 2, 1))] = 1.0
    joint_states, joint = joint_generator(spec, CsmaParams.from_alpha(spec, 0.5), traffic,
                                          "standard_infra", 1, (3, 4, 3))
    joint_p0 = np.zeros(len(joint_states))
    joint_p0[5] = 1.0
    built = _csr_generator(3, [(0, 1, 0.7), (0, 2, 0.3), (2, 0, 0.5)])
    assert built.data[built.indptr[1]] == 0.0                 # row 1's diagonal
    cases = [(q, p0, t_probe), (built, np.array([1.0, 0, 0]), 2.0), (joint, joint_p0, 1.0),
             (_csr_generator(2, [(0, 1, 300.0), (1, 0, 500.0)]), np.array([1.0, 0.0]), 5.0)]
    for generator, start, t in cases:
        got = transient_distribution(generator, start, t)
        assert _same_array(got, scipy_transient_distribution(generator, start, t))


def test_transient_distribution_past_the_underflow_matches_expm():
    """Where e^-λt underflows, the sum that starts at lo agrees with the
    matrix exponential within 1e-12 on a chain that has not mixed: states
    0 and 1 swap at rates 400 and 600, and state 1 leaks at rate 0.05 into
    the absorbing state 2, which holds about 4% of the mass at t = 2
    (λt about 1,200)."""
    from scipy.linalg import expm

    q = _csr_generator(3, [(0, 1, 400.0), (1, 0, 600.0), (1, 2, 0.05)])
    t = 2.0
    assert np.exp(-600.05 * t) == 0.0
    got = transient_distribution(q, np.array([1.0, 0.0, 0.0]), t)
    expected = expm(dense(q) * t)[0]
    assert 0.01 < expected[2] < 0.1
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_transient_distribution_refuses_a_row_without_its_diagonal():
    """An absorbing state whose row stores no diagonal entry, as no
    generator here builds it, is refused rather than read as a zero."""
    absorbing = Csr(np.array([-1.0, 0.7, 0.3, 0.5, -0.5]),
                    np.array([0, 1, 2, 0, 2], dtype=np.int32),
                    np.array([0, 3, 3, 5], dtype=np.int32), (3, 3))
    with pytest.raises(ValueError, match="1 of its 3 rows store none"):
        transient_distribution(absorbing, np.array([1.0, 0.0, 0.0]), 2.0)


def test_joint_generator_aggregates_to_the_flow_level_generator():
    """Averaging the joint generator's slow moves over each flow vector's
    schedule equilibrium gives the flow-level generator, off its diagonal,
    on ap-line3 under both infrastructure policies. The joint generator is
    affine in N: F = Q_2 - Q_1 holds the schedule moves, within each flow
    vector's block, and S = 2 Q_1 - Q_2 the arrivals, the flow completions
    and the -phi/sigma share of packet-continue. With pi_x the stationary
    law of block F_x, the aggregate is Qbar[x, x'] = sum over y of
    pi_x(y) S[(x, y), (x', .)]."""
    spec = ap_line3()
    params, traffic, box = CsmaParams.from_alpha(spec, 2.0), TrafficSpec.of(0.4, 1.0, 3), (3, 4, 3)
    for policy in ("standard_infra", "flow_aware"):
        flows, q_bar = flow_level_generator(spec, params, traffic, policy, box)
        states, q1 = joint_generator(spec, params, traffic, policy, 1, box)
        _, q2 = joint_generator(spec, params, traffic, policy, 2, box)
        assert _same_array(q1.indices, q2.indices) and _same_array(q1.indptr, q2.indptr)
        fast, slow = q2.data - q1.data, 2 * q1.data - q2.data
        flow_of = {x: i for i, x in enumerate(flows)}
        of_state = np.array([flow_of[x] for x, _ in states])
        of_entry = np.repeat(of_state, np.diff(q1.indptr))
        assert not fast[of_entry != of_state[q1.indices]].any()    # F is block-diagonal
        block_ends = np.searchsorted(of_state, np.arange(len(flows) + 1))
        for i in range(len(flows)):
            lo, hi = block_ends[i], block_ends[i + 1]
            block = np.zeros((hi - lo, hi - lo))
            aggregate = np.zeros(len(flows))
            for r in range(lo, hi):
                entries = slice(q1.indptr[r], q1.indptr[r + 1])
                cols = q1.indices[entries]
                inside = of_state[cols] == i
                block[r - lo, cols[inside] - lo] = fast[entries][inside]
            pi = stationary_distribution(block)
            for r in range(lo, hi):
                entries = slice(q1.indptr[r], q1.indptr[r + 1])
                np.add.at(aggregate, of_state[q1.indices[entries]], pi[r - lo] * slow[entries])
            expected = np.zeros(len(flows))
            entries = slice(q_bar.indptr[i], q_bar.indptr[i + 1])
            expected[q_bar.indices[entries]] = q_bar.data[entries]
            off = np.arange(len(flows)) != i
            assert np.allclose(aggregate[off], expected[off], rtol=0.0, atol=1e-10), (policy, flows[i])
