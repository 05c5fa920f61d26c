import itertools
import math

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import bowtie_spec, random_instance
from mccsma.dynamics import (SimConfig, _tv_from_counts, simulate_coupled_pair,
                             simulate_joint, simulate_separated,
                             timescale_convergence, uniform_sample_times)
from mccsma.oracles import joint_generator, stationary_distribution
from mccsma.schedule import Schedule, enumerate_feasible
from mccsma.topology import (AccessPoint, CsmaParams, NetworkSpec, TrafficSpec,
                             replicate_graph)


def two_conflicting_classes():
    return NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))


def test_config_validation():
    with pytest.raises(ValueError, match="horizon"):
        SimConfig("adhoc", 0.0, 1, (0,))
    with pytest.raises(ValueError, match="within"):
        SimConfig("adhoc", 1.0, 1, (0,), sample_times=(2.0,))
    with pytest.raises(ValueError, match="increasing"):
        SimConfig("adhoc", 1.0, 1, (0,), sample_times=(0.5, 0.5))


def test_pure_death_process_absorbs():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 5.0)
    traffic = TrafficSpec.of(0.0, 1.0, 2)
    cfg = SimConfig("adhoc", 500.0, 3, (4, 7),
                    sample_times=uniform_sample_times(500.0, 50))
    tr = simulate_separated(spec, params, traffic, cfg)
    assert tr.final_state == (0, 0)
    assert tr.arrivals == (0, 0)
    assert tr.departures == (4, 7)
    assert not tr.aborted


def test_event_counts_consistent_with_state():
    rng = np.random.default_rng(9)
    for infra in (False, True):
        spec, params, state = random_instance(rng, infrastructure=infra)
        policy = "flow_aware" if infra else "adhoc"
        traffic = TrafficSpec.of(0.4, 1.0, spec.num_classes)
        cfg = SimConfig(policy, 200.0, 17, state)
        tr = simulate_separated(spec, params, traffic, cfg)
        for k in range(spec.num_classes):
            assert tr.final_state[k] == state[k] + tr.arrivals[k] - tr.departures[k]


def test_reproducibility_and_replication_independence():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.5, 1.0, 2)
    cfg = SimConfig("adhoc", 300.0, 42, (0, 0),
                    sample_times=uniform_sample_times(300.0, 30))
    a = simulate_separated(spec, params, traffic, cfg)
    b = simulate_separated(spec, params, traffic, cfg)
    assert a == b
    from dataclasses import replace
    c = simulate_separated(spec, params, traffic, replace(cfg, replication=1))
    assert c != a


def test_truncation_guard_records_abort():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(5.0, 10.0, 1)     # heavily overloaded
    cfg = SimConfig("adhoc", 1000.0, 5, (0,), max_total_flows=30)
    tr = simulate_separated(spec, params, traffic, cfg)
    assert tr.aborted and tr.abort_time is not None
    assert sum(tr.final_state) == 31


def test_mm1_mean_queue():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1e6)
    traffic = TrafficSpec.of(0.5, 1.0, 1)
    means = []
    for rep in range(5):
        cfg = SimConfig("adhoc", 20000.0, 42, (0,), replication=rep)
        tr = simulate_separated(spec, params, traffic, cfg)
        means.append(tr.time_integral_flows[0] / tr.final_time)
    half = 2.0 * np.std(means, ddof=1) / math.sqrt(len(means))
    assert abs(np.mean(means) - 1.0) < half + 0.08


def test_separated_flow_sizes_are_exponential():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec((0.3, 0.3), (1.0, 2.0))
    cfg = SimConfig("adhoc", 4000.0, 8, (0, 0), track_flows=True)
    tr = simulate_separated(spec, params, traffic, cfg)
    # pathwise conservation: served bits = completed sizes + residual work
    for k in range(2):
        total = sum(tr.completed_flow_sizes[k]) + tr.residual_flow_bits[k]
        assert total == pytest.approx(tr.served_bits[k], rel=1e-9)
    for k, sigma in enumerate((1.0, 2.0)):
        sizes = np.array(tr.completed_flow_sizes[k])
        assert len(sizes) > 200
        assert kstest(sizes, "expon", args=(0, sigma)).pvalue >= 0.01


def test_joint_flow_sizes_are_exponential():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec((0.3, 0.3), (1.0, 2.0))
    cfg = SimConfig("adhoc", 4000.0, 8, (0, 0), scaling_n=3, track_flows=True)
    tr = simulate_joint(spec, params, traffic, cfg)
    for k in range(2):
        total = sum(tr.completed_flow_sizes[k]) + tr.residual_flow_bits[k]
        assert total == pytest.approx(tr.served_bits[k], rel=1e-9)
    for k, sigma in enumerate((1.0, 2.0)):
        sizes = np.array(tr.completed_flow_sizes[k])
        assert len(sizes) > 200
        assert kstest(sizes, "expon", args=(0, sigma)).pvalue >= 0.01


def test_joint_schedule_always_feasible():
    rng = np.random.default_rng(21)
    for infra in (False, True):
        spec, params, state = random_instance(rng, infrastructure=infra)
        policy = "standard_infra" if infra else "adhoc"
        traffic = TrafficSpec.of(0.3, 1.0, spec.num_classes)
        cfg = SimConfig(policy, 150.0, 4, state, scaling_n=2,
                        sample_times=uniform_sample_times(150.0, 150))
        tr = simulate_joint(spec, params, traffic, cfg)
        feasible = set(enumerate_feasible(spec, None))
        for s in tr.samples:
            assert all(s.schedule.per_class[k] <= s.state[k]
                       for k in range(spec.num_classes))
            capped = Schedule(s.schedule.active)
            assert capped in feasible or s.schedule.total == 0


def test_unit_packet_count_forces_flow_completion():
    # sigma * N = 1: the packet-without-completion rate vanishes
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.4, 1.0, 1)
    cfg = SimConfig("adhoc", 2000.0, 12, (0,), scaling_n=1)
    tr = simulate_joint(spec, params, traffic, cfg)
    assert tr.event_counts_by_kind["packet"] == tr.departures
    assert tr.rate_time["packet_continue"][0] == pytest.approx(0.0)


def test_joint_stationary_marginals_match_generator():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.3, 1.0, 1)
    box = (12,)
    states, q = joint_generator(spec, params, traffic, "adhoc", 1, box)
    pi = stationary_distribution(q)
    exact_x = np.zeros(box[0] + 1)
    for (x, y), p in zip(states, pi):
        exact_x[x[0]] += p
    cfg = SimConfig("adhoc", 60000.0, 5, (0,),
                    sample_times=uniform_sample_times(60000.0, 6000))
    tr = simulate_joint(spec, params, traffic, cfg)
    counts = np.zeros(box[0] + 1)
    for s in tr.samples:
        counts[min(s.state[0], box[0])] += 1
    empirical = counts / counts.sum()
    assert 0.5 * np.abs(empirical - exact_x).sum() < 0.03


def test_empirical_rates_match_generator_rates():
    rng = np.random.default_rng(3)
    spec, params, state = random_instance(rng, infrastructure=False)
    traffic = TrafficSpec.of(0.4, 1.0, spec.num_classes)
    cfg = SimConfig("adhoc", 3000.0, 9, state, scaling_n=1)
    tr = simulate_joint(spec, params, traffic, cfg)
    for kind, expected_key in (("arrival", "arrival"), ("attempt", "attempt")):
        counts = np.asarray(tr.event_counts_by_kind[kind], dtype=float)
        integral = np.asarray(tr.rate_time[expected_key])
        for k in range(spec.num_classes):
            assert abs(counts[k] - integral[k]) <= 3.0 * math.sqrt(integral[k]) + 3.0
    pkt = np.asarray(tr.event_counts_by_kind["packet"], dtype=float)
    pkt_integral = (np.asarray(tr.rate_time["packet_continue"])
                    + np.asarray(tr.rate_time["packet_complete"]))
    for k in range(spec.num_classes):
        assert abs(pkt[k] - pkt_integral[k]) <= 3.0 * math.sqrt(pkt_integral[k]) + 3.0


def test_arrival_counts_match_poisson_intensity():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec((0.7, 0.2), (1.0, 1.0))
    totals = np.zeros(2)
    reps = 20
    for rep in range(reps):
        cfg = SimConfig("adhoc", 500.0, 33, (0, 0), replication=rep)
        tr = simulate_joint(spec, params, traffic, cfg, None)
        totals += tr.arrivals
    for k, lam in enumerate((0.7, 0.2)):
        mean = totals[k] / reps
        expect = lam * 500.0
        assert abs(mean - expect) < 3.0 * math.sqrt(expect / reps)


def test_timescale_zero_probe_time_is_exact():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.4, 1.0, 2)
    table = timescale_convergence(spec, params, traffic, n_values=(1, 4),
                                  t_probe=0.0, replications=10, seed=1,
                                  policy="adhoc", initial_state=(0, 0))
    assert all(r.distance == 0.0 for r in table.rows)


def test_timescale_absorbed_processes_agree():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec.of(0.0, 1.0, 2)
    table = timescale_convergence(spec, params, traffic, n_values=(1, 8),
                                  t_probe=40.0, replications=60, seed=2,
                                  policy="adhoc", initial_state=(1, 1),
                                  window=(2, 2))
    for row in table.rows:
        assert row.distance < 0.02


def test_coupled_pair_shares_arrivals_and_orders_states():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 3.0)
    traffic = TrafficSpec.of(0.4, 1.0, 2)
    from mccsma.stability import dominated_throughput_fn
    from mccsma.dynamics import default_throughput_fn
    cfg = SimConfig("adhoc", 800.0, 6, (2, 2),
                    sample_times=uniform_sample_times(800.0, 100))
    hi = dominated_throughput_fn(spec, params, "adhoc", [0, 1])
    lo = default_throughput_fn(spec, params, cfg)
    run = simulate_coupled_pair(spec, params, traffic, cfg, hi, lo)
    assert run.dominated.arrivals == run.base.arrivals
    assert run.ordered
    for sd, sb in zip(run.dominated.samples, run.base.samples):
        assert all(a <= b for a, b in zip(sd.state, sb.state))


def _tv_full_scan(counts, total, reference, outside_ref):
    """Reference for ``_tv_from_counts``: the distance as a scan of every
    state of a state -> probability dict."""
    tv = 0.0
    seen_outside = 0
    for state, c in counts.items():
        p = c / total
        q = reference.get(state)
        if q is None:
            seen_outside += c
        else:
            tv += abs(p - q)
    tv += sum(q for s, q in reference.items() if s not in counts)
    tv += abs(seen_outside / total - outside_ref)
    return 0.5 * tv


def test_tv_from_counts_matches_full_scan_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(300):
        box = rng.integers(1, 6, size=int(rng.integers(1, 4)))
        states = [tuple(int(v) for v in x)
                  for x in itertools.product(*(range(b + 1) for b in box))]
        p_ref = rng.random(len(states))
        p_ref *= (1.0 - 0.01 * rng.random()) / p_ref.sum()   # some mass outside
        outside_ref = max(0.0, 1.0 - float(p_ref.sum()))
        total = int(rng.integers(1, 200))
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(total):
            # up to two beyond the box: some visits fall outside it
            x = tuple(int(v) for v in rng.integers(0, box + 3))
            counts[x] = counts.get(x, 0) + 1
        index = {s: i for i, s in enumerate(states)}
        got = _tv_from_counts(counts, total, index, p_ref, outside_ref)
        expected = _tv_full_scan(counts, total, {s: float(q) for s, q in zip(states, p_ref)},
                                 outside_ref)
        assert got == expected
