import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from scipy.stats import kstest

from conftest import bowtie_spec, random_instance
from mccsma.dynamics import (EXP_BLOCK, SimConfig, ThroughputCache, Trajectory, _run,
                             _Separated, _tv_from_counts, exponential_draws, left_sum,
                             simulate_joint, simulate_separated, stream,
                             timescale_convergence, uniform_sample_times)
from mccsma.equilibrium import PolicyEvaluator
from mccsma.oracles import joint_generator, stationary_distribution
from mccsma.schedule import Schedule, enumerate_feasible
from mccsma.topology import (AccessPoint, CsmaParams, NetworkSpec, TrafficSpec,
                             replicate_graph)
from theory import dominated_throughput_fn, simulate_coupled_pair


def two_conflicting_classes():
    return NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))


def test_config_validation():
    with pytest.raises(ValueError, match="horizon"):
        SimConfig("adhoc", 0.0, 1, (0,))
    with pytest.raises(ValueError, match="within"):
        SimConfig("adhoc", 1.0, 1, (0,), sample_times=(2.0,))
    with pytest.raises(ValueError, match="increasing"):
        SimConfig("adhoc", 1.0, 1, (0,), sample_times=(0.5, 0.5))
    # more initial flows than the guard allows used to run until the first
    # arrival and report an abort there
    with pytest.raises(ValueError, match="max_total_flows"):
        SimConfig("standard_infra", 10.0, 1, (100, 0, 0, 0, 0), max_total_flows=10)
    SimConfig("adhoc", 1.0, 1, (6, 4), max_total_flows=10)


def simulate_coupled(spec, params, traffic, cfg):
    """The coupled pair under the policy's own throughput (base) and the
    profile that serves class 0 at full rate (dominated)."""
    hi = dominated_throughput_fn(spec, params, cfg.policy, [0])
    lo = ThroughputCache(PolicyEvaluator(spec, params, cfg.policy))
    return simulate_coupled_pair(spec, params, traffic, cfg, hi, lo)


@pytest.mark.parametrize("simulate", [simulate_separated, simulate_joint,
                                      simulate_coupled])
@pytest.mark.parametrize("initial_state, message", [
    ((1,), "entries"), ((1, 0, 0), "entries"), ((-1, 0), "nonnegative")])
def test_bad_initial_state_is_rejected(simulate, initial_state, message):
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.4, 1.0, 2)
    with pytest.raises(ValueError, match=message):
        simulate(spec, params, traffic, SimConfig("adhoc", 10.0, 1, initial_state))
    with pytest.raises(ValueError, match="nonnegative"):
        timescale_convergence(spec, params, traffic, n_values=(1,), t_probe=1.0,
                              replications=2, seed=1, policy="adhoc",
                              initial_state=initial_state)


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


@pytest.mark.parametrize("simulate", [simulate_separated, simulate_coupled])
def test_truncation_guard_records_abort(simulate):
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(5.0, 10.0, 1)     # heavily overloaded
    cfg = SimConfig("adhoc", 1000.0, 5, (0,), max_total_flows=30)
    tr = simulate(spec, params, traffic, cfg)
    runs = [tr.dominated, tr.base] if simulate is simulate_coupled else [tr]
    assert sum(runs[-1].final_state) == 31
    for run in runs:
        assert run.aborted and run.abort_time is not None
        assert run.abort_time == runs[-1].abort_time < 1000.0
        assert all(v > 0 for v in run.busy_time + run.served_bits)
    if simulate is simulate_coupled:
        # the dominated chain serves its class at the full rate phi_0 = 1
        assert tr.dominated.served_bits == tr.dominated.busy_time


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


class _PerFlowTracking(_Separated):
    """The O(flows) flow tracking: every flow keeps its own bit count, and
    each event adds the flow's share of its class's throughput to every
    one of them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.flows = [[] for _ in range(self.num_classes)]

    def arrive(self, k, t):
        if self.track:
            self.flows[k].append(0.0)

    def fire(self, kind, k, rng, t):
        if self.track:
            flows = self.flows[k]
            self.completed[k].append(flows.pop(int(self.pick.integers(len(flows)))))
        return True

    def accrue(self, x, dt):
        if self.track:
            for k, n in enumerate(x):
                if n > 0 and self.phi[k] > 0:
                    share = self.phi[k] * dt / n
                    self.flows[k] = [b + share for b in self.flows[k]]

    def finish(self, traj):
        if self.track:
            traj.completed_flow_sizes = tuple(tuple(c) for c in self.completed)
            traj.residual_flow_bits = tuple(float(sum(f)) for f in self.flows)


def _tracked_cases():
    rng = np.random.default_rng(77)
    for i in range(12):
        spec, params, state = random_instance(rng, infrastructure=i % 2 == 1)
        policy = ("flow_aware", "standard_infra")[(i // 2) % 2] if i % 2 else "adhoc"
        traffic = TrafficSpec.of((0.3, 0.9, 1.5)[i % 3], 1.0, spec.num_classes)
        yield spec, params, traffic, SimConfig(policy, 300.0, 40 + i, state,
                                               track_flows=True)
    spec = bowtie_spec()
    for load, horizon in ((0.45, 1000.0), (0.65, 1000.0)):
        yield (spec, CsmaParams.from_alpha(spec, 2.0), TrafficSpec.of(load, 1.0, 5),
               SimConfig("standard_infra", horizon, 3, (0,) * 5, track_flows=True))


def test_flow_tracking_counters_match_per_flow_accrual():
    fields = [f.name for f in dataclasses.fields(Trajectory)
              if f.name not in ("completed_flow_sizes", "residual_flow_bits")]
    completed = 0
    for spec, params, traffic, cfg in _tracked_cases():
        fn = ThroughputCache(PolicyEvaluator(spec, params, cfg.policy))
        got = _run(_Separated(spec, fn, traffic, cfg), traffic, cfg)
        want = _run(_PerFlowTracking(spec, fn, traffic, cfg), traffic, cfg)
        for name in fields:
            assert getattr(got, name) == getattr(want, name), name
        for a, b in zip(got.completed_flow_sizes, want.completed_flow_sizes):
            assert len(a) == len(b)
            assert all(math.isclose(u, v, rel_tol=1e-9, abs_tol=0.0) for u, v in zip(a, b))
            completed += len(a)
        assert all(math.isclose(u, v, rel_tol=1e-9, abs_tol=0.0)
                   for u, v in zip(got.residual_flow_bits, want.residual_flow_bits))
    assert completed > 3000


def test_throughput_cache_is_bit_identical_to_the_evaluator():
    rng = np.random.default_rng(99)
    cases = [random_instance(rng, infrastructure=i % 2 == 1)[:2] for i in range(10)]
    cases.append((bowtie_spec(), CsmaParams.from_alpha(bowtie_spec(), 2.0)))
    for spec, params in cases:
        policies = (("standard_infra", "flow_aware") if spec.is_infrastructure
                    else ("adhoc",))
        for policy in policies:
            ev = PolicyEvaluator(spec, params, policy)
            cache = ThroughputCache(ev)
            states = list(itertools.product(range(4), repeat=spec.num_classes))
            rng.shuffle(states)                  # hits served by other states
            for x in states + states[::-1]:
                x = tuple(int(v) for v in x)
                assert np.array_equal(cache(x), ev.throughput(x))


def test_cached_throughput_vectors_are_read_only():
    spec = bowtie_spec()
    ev = PolicyEvaluator(spec, CsmaParams.from_alpha(spec, 2.0), "standard_infra")
    cache = ThroughputCache(ev)
    first = cache((1, 0, 2, 0, 0))
    # the same key: counts of single-class access points matter only up to J
    assert cache((1, 0, 5, 0, 0)) is first
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 9.0
    with pytest.raises(ValueError, match="read-only"):
        first *= 2.0
    assert np.array_equal(first, ev.throughput((1, 0, 2, 0, 0)))


def test_separated_runs_are_bit_identical_with_and_without_the_cache():
    rng = np.random.default_rng(5)
    runs = 0
    for i in range(12):
        spec, params, state = random_instance(rng, infrastructure=i % 2 == 1)
        for policy in (("standard_infra", "flow_aware") if i % 2 else ("adhoc",)):
            traffic = TrafficSpec.of((0.4, 1.2)[i % 2], 1.0, spec.num_classes)
            cfg = SimConfig(policy, 200.0, 60 + i, state, track_flows=i % 3 == 0)
            ev = PolicyEvaluator(spec, params, policy)
            cached = simulate_separated(spec, params, traffic, cfg,
                                        throughput_fn=ThroughputCache(ev))
            bare = simulate_separated(spec, params, traffic, cfg,
                                      throughput_fn=ev.throughput)
            assert cached == bare
            runs += 1
    assert runs == 18


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
        tr = simulate_joint(spec, params, traffic, cfg)
        totals += tr.arrivals
    for k, lam in enumerate((0.7, 0.2)):
        mean = totals[k] / reps
        expect = lam * 500.0
        assert abs(mean - expect) < 3.0 * math.sqrt(expect / reps)


def test_timescale_zero_probe_time_is_exact():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.4, 1.0, 2)
    rows = timescale_convergence(spec, params, traffic, n_values=(1, 4),
                                 t_probe=0.0, replications=10, seed=1,
                                 policy="adhoc", initial_state=(0, 0))
    assert all(r.distance == 0.0 for r in rows)


def test_timescale_absorbed_processes_agree():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec.of(0.0, 1.0, 2)
    rows = timescale_convergence(spec, params, traffic, n_values=(1, 8),
                                 t_probe=40.0, replications=60, seed=2,
                                 policy="adhoc", initial_state=(1, 1),
                                 window=(2, 2))
    for row in rows:
        assert row.distance < 0.02


@pytest.mark.parametrize("bad, name", [
    ({"replications": 0}, "replications"),
    ({"replications": -2}, "replications"),
    ({"t_probe": -1.0}, "t_probe"),
    ({"t_probe": math.nan}, "t_probe"),
    ({"t_probe": math.inf}, "t_probe"),
    ({"n_values": (1, 0)}, "n_values"),
])
def test_timescale_rejects_bad_inputs_up_front(bad, name, monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("built the generator before checking the inputs")

    monkeypatch.setattr("mccsma.oracles.flow_level_generator", no_generator)
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.4, 1.0, 2)
    kwargs = dict(n_values=(1, 4), t_probe=1.0, replications=10, seed=1,
                  policy="adhoc", initial_state=(0, 0)) | bad
    with pytest.raises(ValueError, match=name):
        timescale_convergence(spec, params, traffic, **kwargs)


def test_coupled_pair_shares_arrivals_and_orders_states():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 3.0)
    traffic = TrafficSpec.of(0.4, 1.0, 2)
    from theory import dominated_throughput_fn
    from mccsma.dynamics import ThroughputCache
    from mccsma.equilibrium import PolicyEvaluator
    cfg = SimConfig("adhoc", 800.0, 6, (2, 2),
                    sample_times=uniform_sample_times(800.0, 100))
    hi = dominated_throughput_fn(spec, params, "adhoc", [0, 1])
    lo = ThroughputCache(PolicyEvaluator(spec, params, cfg.policy))
    run = simulate_coupled_pair(spec, params, traffic, cfg, hi, lo)
    assert run.dominated.arrivals == run.base.arrivals
    assert run.ordered
    for sd, sb in zip(run.dominated.samples, run.base.samples):
        assert all(a <= b for a, b in zip(sd.state, sb.state))


def test_coupled_pair_with_equal_or_swapped_profiles():
    # one profile for both chains: every departure is taken by both, so the
    # model's own bookkeeping must reproduce _run's bit for bit
    spec = bowtie_spec()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec.of(0.6, 1.0, 5)
    fn = ThroughputCache(PolicyEvaluator(spec, params, "standard_infra"))
    cfg = SimConfig("standard_infra", 300.0, 4, (3, 0, 1, 0, 2),
                    sample_times=uniform_sample_times(300.0, 60), max_total_flows=40)
    run = simulate_coupled_pair(spec, params, traffic, cfg, fn, fn)
    assert run.ordered and sum(run.base.departures) > 50
    assert run.dominated == run.base
    # the dominated chain serves the center class at the full rate phi_2 = 1;
    # the dominating profile on the base chain breaks the order
    hi = dominated_throughput_fn(spec, params, "standard_infra", [2])
    run = simulate_coupled_pair(spec, params, traffic, cfg, hi, fn)
    assert run.dominated.served_bits[2] == run.dominated.busy_time[2] < run.base.busy_time[2]
    assert sum(run.dominated.time_integral_flows) < sum(run.base.time_integral_flows)
    assert not simulate_coupled_pair(spec, params, traffic, cfg, fn, hi).ordered


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


# SHA-256 of every trajectory field below, one per pinned run. Any change to a
# random draw, to the rounding of an accrual or to the bookkeeping moves a
# digest: re-record them only with a change that alters random-number
# consumption or the rounding of a result on purpose. The fields are written
# as JSON, whose float format (the shortest repr) does not depend on the NumPy
# version, as repr() of a NumPy scalar does.
_TRAJECTORY_FIELDS = ("samples", "arrivals", "departures", "aborted", "final_time",
                      "final_state", "time_integral_flows", "busy_time", "served_bits",
                      "abort_time", "completed_flow_sizes", "residual_flow_bits",
                      "rate_time", "event_counts_by_kind")
_TRAJECTORY_DIGESTS = [
    "9106ea9e1265165ee8d3eac4b668887039623a77e1c8042bf7cd694ed4e49ccc",
    "2c3595c8e2d0030767461cfff6e57828a9303cb14b8a6fb6c0863899599b2948",
    "6015e0f7055feffcbad5f0c12261f76b98941f1d14739609f5cb56d5f9a09809",
    "83b322be0dd7b24d0b6956f86e755ed93a0417971266904a7ece306fb4a0a678",
    "a0a3b39c473721dc32d1ef17643edaee8ff9ba281c251f6f4dd40bf1b32c700b",
    "9575a4bf15c7475824e4529d21a5e1fd09cce75c44343c05597c59ac08c99e12",
    "e308018631d1316c7e2a80e03c9033c5c9fab4d23e147c52bc711560d068dbdc",
    "b72a683a45e2419b04c68ccd30e889b742e343df64056e71b3e6f8d5eb6d434d",
    "5eb9f8ef090e73fbd896f671666e7af73673bf4e500b443b7ca66634365cd4b9",
    "d8ef22353772d4333da5ecc74afb1bc94a4fd5a6aef19fc5e7004fcfff4207fa",
    "a62655fd7eb3c774e90809e87adc39c8b85848d337f4a51d7b6afc509087d943",
    "d57bf610ea14aae86fddd969534f8b575c7a08b79da05515c0ff70ab36509950",
    "c4b93d03d4c3bf17109ad0df5b56d982d8ef202084cbef9f82c731572bf2e55d",
    "826cd220e7e80930c1f211abb8a48c7035ef455a2a1ee25604213fd2efdb45d0",
    "42c06a65dbfa89811f57b132a62bd09956a645e272da3c89c76fb88eca2ffc13",
    "182f9ca3ce43c559dc9a5ca1d9953b66deb049eb125e1b9dfa017e99984d42ad",
    "7046459ae3d905bba2d441c92467815a7a3feb27553b49a720c1c2701b9f511d",
    "17f21b4441ebf4b4d40e9edf39952390a035d77cdf75838eb61e9d1308e06442",
    "19d571d73005f73fed1ce539fc3bee3cd0753ce42920fac7a661bb6824afefb1",
    "0f0f8e61c354ec801b7de24130a2c34f7ea7963b5635279d83fba63f9536e5ad",
    "97144e55bb3bd7ee4be834cac9879898e25743cd0689a69915d1a7ca304f6b03",
    "87183bff303290f7069f8c47aba2b64e311f9aea407fee7f76870e5c40e21be4",
    "7d9680e999fa44e69434c501d7f8b3305cabec527fb4392262b0f0a43b041b02",
    "58d48c1aabe77bf9600bbb520de6a3e4904b4ca1a6fe7c5a539e16be93d29630",
    "c80e5bebe2a503553c9367089291c612b317ac6252ea416fdb0f57fd232f66fe",
    "22e62fd7aed35e5a1fc11ee42b619f6c8ebd0ad9c5b9df7a04ff74637c82cabf",
    "a53d61487a9bfce027f6f1e3a034ee1c629897e3109ef7d1099969113857fa4e",
    "5f32026428221ff62da40a21e0305fe9891b6c24b031c33356ede5b37434cacd",
    "2f8c5c01e87818295e91a99a9553d24071a360a84c275e23dba50795e658f726",
    "a6f4d4f02b37ee819a02ee714edb25fb226a27b24a013db7a3168a3e916be1d7",
    "4aa0fa7d5e73ce70651699576c54d31f062a46c00fc63540369372192e8cffd4",
    "87fae8cb32319feb5a3c8ef1de144ec849d69c822eb906a7b665d1d60709a2f0",
    "366cb548df7934c6cf71b03c122267377b30f3d542b9cd8cb3927f1b66271d9c",
    "b62d015717ecf656dde018298b6fb8170145685e617d011b209821ad188c9c52",
    "c9745199f53338e87c3cb120604dd3e0051229dbc6cce691367b19bb1c7798f1",
    "0a35478ace53e3632689a069cc7ba87160d57f6bd85ba1972d15af4ed4f81b88",
    "409bf6541f517883bb127f22c7d58a5e4809b82c94311cb074c2b786978b2192",
    "eaebf7f117f7d9bb3c7b5657e4afd8d68b51d1210fbd46d06caf28a1d0cdf10b",
    "d9a1bad5ad1f707d1e0fa1287eba41995866436f78853d83c8f04f1dbc549e33",
    "bf8d054eb309df9fdfed836c3ade2e2791fe5eadf18c9a32370eac1caa729cdb",
    "df8ee685f916bb8b1a71ea3fb4c096c7d07abb5a6ce633dc8f7871668483c25d",
    "2a72ba31049d968d0b47bd27c475a180f891406c125a82fc5156010cf55b9bef",
    "14fc9938f972f7bb8292e719d2122940705e0a3987b7f5edd148948ef025c6d8",
    "bbf37fdc6d5dbcfe00c9840ef6a6829a76289d6c53eabba395ca7002132237b8",
]


def _pinned_runs():
    """40 short runs over random instances: both models, the adhoc, flow_aware
    and standard_infra policies, flow tracking on and off, with and without
    sample times, and 14 runs that hit the truncation guard. Then joint runs
    on 8, 9 and 12 channels, where the attempt total of a class is summed
    pairwise, as np.sum does, not left to right."""
    rng = np.random.default_rng(2024)
    for i in range(40):
        infra = i % 2 == 1
        spec, params, state = random_instance(rng, infrastructure=infra)
        policy = ("flow_aware", "standard_infra")[(i // 2) % 2] if infra else "adhoc"
        sigma = (1.0, 2.0)[(i // 3) % 2]
        traffic = TrafficSpec.of((0.3, 0.6, 1.5)[i % 3] / sigma, sigma, spec.num_classes)
        cfg = SimConfig(policy, 60.0, 100 + i, state,
                        scaling_n=1 + i % 3,
                        sample_times=(uniform_sample_times(60.0, 12) if i % 5 < 3 else ()),
                        max_total_flows=(sum(state) + 2 if i % 4 in (0, 3) else 100_000),
                        replication=i % 2,
                        track_flows=i % 3 != 2)
        simulate = simulate_joint if (i // 4) % 2 else simulate_separated
        yield simulate(spec, params, traffic, cfg)
    for i, J in enumerate((8, 8, 9, 12)):
        K = 4
        spec = NetworkSpec(K, J, replicate_graph(J, range(K), [(0, 1), (1, 2), (2, 3)]))
        probe = rng.uniform(0.1, 1.0, (K, J))
        probe /= probe.sum(axis=1, keepdims=True)
        params = CsmaParams(tuple(float(v) for v in rng.uniform(0.5, 2.0, K)),
                            tuple(float(v) for v in rng.uniform(0.3, 3.0, K)),
                            tuple(tuple(float(v) for v in row) for row in probe))
        cfg = SimConfig("adhoc", 50.0, 200 + i, (3, 5, 2, 4), scaling_n=2,
                        sample_times=uniform_sample_times(50.0, 10), track_flows=i % 2 == 0)
        yield simulate_joint(spec, params, TrafficSpec.of(0.8, 1.0, K), cfg)


def test_trajectories_match_recorded_digests():
    digests, aborts = [], 0
    for traj in _pinned_runs():
        text = json.dumps([getattr(traj, name) for name in _TRAJECTORY_FIELDS],
                          default=dataclasses.asdict)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        aborts += traj.aborted
    assert aborts == 14
    assert digests == _TRAJECTORY_DIGESTS


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_block_exponential_draws_equal_scalar_draws(seed):
    n = 3 * EXP_BLOCK + 5
    for kind, klass, rep in (("arrival", 0, 0), ("arrival", 3, 2), ("service", 1, 4)):
        scalar = stream(seed, kind, klass, rep)
        expected = [scalar.standard_exponential() for _ in range(n)]
        for block in (True, False):
            draw = exponential_draws(stream(seed, kind, klass, rep), block=block)
            got = [draw() for _ in range(n)]
            assert got == expected and all(type(v) is float for v in got)


def test_left_sum_adds_left_to_right():
    # compensated summation (Python 3.12's sum, math.fsum) gives 1.0 here
    assert left_sum([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert left_sum([]) == 0.0 and type(left_sum([])) is float
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 8, 9, 100, 1000):
        values = (rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).tolist()
        acc = 0.0
        for v in values:
            acc += v
        assert left_sum(values) == acc
        assert left_sum(np.array(values)) == acc    # NumPy scalars alike


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_integers_one_draws_nothing(seed):
    """The joint model skips ``rng.integers(1)`` when one slot is active,
    which leaves every later draw of the stream where it was."""
    for kind, klass in (("packet", 0), ("packet", 2), ("attempt", 1)):
        with_call, without = stream(seed, kind, klass, 3), stream(seed, kind, klass, 3)
        for _ in range(5):
            assert with_call.integers(1) == 0
            assert with_call.random() == without.random()
            assert with_call.standard_exponential() == without.standard_exponential()


def test_add_accumulate_is_sequential_addition():
    """``_tv_from_counts`` takes a left-to-right sum from np.add.accumulate,
    which adds in order at every length (np.sum adds pairwise)."""
    rng = np.random.default_rng(9)
    for n in (1, 7, 8, 9, 127, 128, 129, 4097):
        values = rng.random(n) * 10.0 ** rng.integers(-12, 1, n)
        acc, prefix = 0.0, []
        for v in values.tolist():
            acc += v
            prefix.append(acc)
        assert np.add.accumulate(values).tolist() == prefix
