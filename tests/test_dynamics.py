import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare, kstest

from conftest import ap_line3, bowtie_spec, empty_schedule, random_instance
from mccsma.dynamics import (_STREAM_KINDS, EXP_BLOCK, TIMESCALE_BOOTSTRAP, SimConfig,
                             ThroughputCache, TrajectorySample, _Joint, _run, _Separated,
                             _tv_from_counts, _tv_of_resamples, exponential_draws, left_sum,
                             simulate_joint, simulate_separated, stream,
                             timescale_convergence, uniform_sample_times)
from mccsma.equilibrium import PolicyEvaluator
from mccsma.oracles import (joint_generator, schedule_rows, stationary_distribution,
                            transient_distribution)
from mccsma.schedule import enumerate_feasible
from mccsma.topology import (AccessPoint, CsmaParams, NetworkSpec, TrafficSpec,
                             replicate_graph)
from theory import _merge_bins, dominated_throughput_fn, simulate_coupled_pair, with_integrals


def two_conflicting_classes():
    return NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))


def test_config_validation():
    # a NaN or infinite horizon never ends the event loop
    for horizon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            SimConfig("adhoc", horizon, 1, (0, 0))
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
    ((1,), "entries"), ((1, 0, 0), "entries"), ((-1, 0), "nonnegative"),
    ((1.7, 0), "integral"), ((0, 2.5), "integral"), (("a", 0), "integral")])
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
    c = simulate_separated(spec, params, traffic, dataclasses.replace(cfg, replication=1))
    assert c != a


@pytest.mark.parametrize("simulate", [simulate_separated, simulate_coupled])
def test_truncation_guard_records_abort(simulate):
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(5.0, 10.0, 1)     # heavily overloaded
    cfg = SimConfig("adhoc", 1000.0, 5, (0,), max_total_flows=30)
    tr = simulate(spec, params, traffic, cfg)
    if simulate is simulate_coupled:
        runs = [(tr.dominated, tr.dominated_integrals), (tr.base, tr.base_integrals)]
    else:
        fn = ThroughputCache(PolicyEvaluator(spec, params, cfg.policy))
        runs = [with_integrals(_Separated(spec, fn, traffic), traffic, cfg)]
        assert runs[0][0] == tr                 # accruing leaves the path alone
    base = runs[-1][0]
    assert sum(base.final_state) == 31
    for run, paths in runs:
        assert run.aborted and run.abort_time is not None
        assert run.abort_time == base.abort_time < 1000.0
        assert all(v > 0 for v in paths.busy_time + paths.served_bits)
    if simulate is simulate_coupled:
        # the dominated chain serves its class at the full rate phi_0 = 1
        assert tr.dominated_integrals.served_bits == tr.dominated_integrals.busy_time


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


class _PerFlowTracking(_Separated):
    """Per-flow service in the separated model: each class shares its
    throughput equally among its flows, every stretch adds each flow's share
    to its bit count, and a departure removes a flow drawn uniformly from
    the ``"flowpick"`` stream; its bit count is the completed flow size."""

    def __init__(self, spec, throughput_fn, traffic, cfg):
        super().__init__(spec, throughput_fn, traffic)
        self.pick = stream(cfg.seed, "flowpick", 0, cfg.replication)
        self.flows = [[] for _ in range(self.num_classes)]
        self.completed = [[] for _ in range(self.num_classes)]

    def rates(self, x):
        self.phi = self.throughput_fn(tuple(x)).tolist()    # until the next event
        return super().rates(x)

    def arrive(self, k, t):
        self.flows[k].append(0.0)

    def fire(self, kind, k, rng, t):
        flows = self.flows[k]
        self.completed[k].append(flows.pop(int(self.pick.integers(len(flows)))))
        return True

    def accrue(self, x, dt):
        for k, n in enumerate(x):
            if n > 0 and self.phi[k] > 0:
                share = self.phi[k] * dt / n
                self.flows[k] = [b + share for b in self.flows[k]]


def test_separated_flow_sizes_are_exponential():
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec((0.3, 0.3), (1.0, 2.0))
    cfg = SimConfig("adhoc", 4000.0, 8, (0, 0))
    fn = ThroughputCache(PolicyEvaluator(spec, params, cfg.policy))
    model = _PerFlowTracking(spec, fn, traffic, cfg)
    tr, paths = with_integrals(model, traffic, cfg)
    assert tr == simulate_separated(spec, params, traffic, cfg)
    # pathwise conservation: served bits = completed sizes + residual work
    for k in range(2):
        total = sum(model.completed[k]) + sum(model.flows[k])
        assert total == pytest.approx(paths.served_bits[k], rel=1e-9)
    for k, sigma in enumerate((1.0, 2.0)):
        sizes = np.array(model.completed[k])
        assert len(sizes) > 200
        assert kstest(sizes, "expon", args=(0, sigma)).pvalue >= 0.01


def _tracked_cases():
    rng = np.random.default_rng(77)
    for i in range(12):
        spec, params, state = random_instance(rng, infrastructure=i % 2 == 1)
        policy = ("flow_aware", "standard_infra")[(i // 2) % 2] if i % 2 else "adhoc"
        traffic = TrafficSpec.of((0.3, 0.9, 1.5)[i % 3], 1.0, spec.num_classes)
        yield spec, params, traffic, SimConfig(policy, 300.0, 40 + i, state)
    spec = bowtie_spec()
    for load, horizon in ((0.45, 1000.0), (0.65, 1000.0)):
        yield (spec, CsmaParams.from_alpha(spec, 2.0), TrafficSpec.of(load, 1.0, 5),
               SimConfig("standard_infra", horizon, 3, (0,) * 5))


def test_flow_tracking_counters_match_per_flow_accrual():
    # the per-class served-bit counters equal the per-flow reference's
    # completed sizes plus residual work, and neither moves the path
    completed = 0
    for spec, params, traffic, cfg in _tracked_cases():
        fn = ThroughputCache(PolicyEvaluator(spec, params, cfg.policy))
        model = _PerFlowTracking(spec, fn, traffic, cfg)
        tr, paths = with_integrals(model, traffic, cfg)
        assert tr == simulate_separated(spec, params, traffic, cfg, throughput_fn=fn)
        for k in range(spec.num_classes):
            assert len(model.completed[k]) == tr.departures[k]
            assert len(model.flows[k]) == tr.final_state[k]
            total = sum(model.completed[k]) + sum(model.flows[k])
            assert math.isclose(total, paths.served_bits[k], rel_tol=1e-9, abs_tol=0.0)
            completed += len(model.completed[k])
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
            cfg = SimConfig(policy, 200.0, 60 + i, state)
            ev = PolicyEvaluator(spec, params, policy)
            cached = simulate_separated(spec, params, traffic, cfg,
                                        throughput_fn=ThroughputCache(ev))
            bare = simulate_separated(spec, params, traffic, cfg,
                                      throughput_fn=ev.throughput)
            assert cached == bare
            runs += 1
    assert runs == 18


def test_joint_flow_completions_match_their_compensator():
    # at N = 3 a flow spans several packets, and each packet completion ends
    # it with probability 1 / (sigma_k N): class k completes flows at rate
    # y_k phi_k / sigma_k, whatever N is
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec((0.3, 0.3), (1.0, 2.0))
    cfg = SimConfig("adhoc", 4000.0, 8, (0, 0), scaling_n=3)
    tr, paths = with_integrals(_Joint(spec, params, traffic, "adhoc", cfg), traffic, cfg)
    for k in range(2):
        integral = paths.rate_time["packet_complete"][k]
        assert integral > 200
        assert abs(tr.departures[k] - integral) <= 3.0 * math.sqrt(integral) + 3.0


def test_joint_schedule_always_feasible():
    rng = np.random.default_rng(21)
    for infra in (False, True):
        spec, params, state = random_instance(rng, infrastructure=infra)
        policy = "standard_infra" if infra else "adhoc"
        traffic = TrafficSpec.of(0.3, 1.0, spec.num_classes)
        cfg = SimConfig(policy, 150.0, 4, state, scaling_n=2,
                        sample_times=uniform_sample_times(150.0, 150))
        tr = simulate_joint(spec, params, traffic, cfg)
        feasible = set(schedule_rows(enumerate_feasible(spec, None)))
        for s in tr.samples:
            assert all(sum(s.schedule[k]) <= s.state[k] for k in range(spec.num_classes))
            assert s.schedule in feasible


def test_unit_packet_count_forces_flow_completion():
    # sigma * N = 1: the packet-without-completion rate vanishes
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.4, 1.0, 1)
    cfg = SimConfig("adhoc", 2000.0, 12, (0,), scaling_n=1)
    tr, paths = with_integrals(_Joint(spec, params, traffic, "adhoc", cfg), traffic, cfg)
    assert tr.event_counts_by_kind["packet"] == tr.departures
    assert paths.rate_time["packet_continue"][0] == pytest.approx(0.0)


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


@pytest.mark.parametrize("scaling_n", [1, 4])
def test_joint_transient_marginal_matches_generator_on_ap_line3(scaling_n):
    """The joint model's flow counts at a probe time, on three access points
    in a line under the shared queue, against the exact transient
    distribution of the truncated joint generator (chi-square, fixed seed).
    The bins follow the exact probabilities, largest first; the merged tail
    also takes the runs that ended outside the box (exact mass about 1e-4).
    Checked against the other N's exact distribution instead, the same runs
    give p-values of 1e-11 and 1e-23."""
    spec = ap_line3()
    params = CsmaParams.from_alpha(spec, 0.5)
    traffic = TrafficSpec.of(0.4, 1.0, 3)
    x0, t_probe, box, reps = (1, 2, 1), 1.0, (5, 6, 5), 2000
    states, q = joint_generator(spec, params, traffic, "standard_infra", scaling_n, box)
    p0 = np.zeros(len(states))
    p0[states.index((x0, empty_schedule(3, 1)))] = 1.0
    exact: Counter = Counter()
    for (x, _), p in zip(states, transient_distribution(q, p0, t_probe).tolist()):
        exact[x] += p
    finals = Counter(
        simulate_joint(spec, params, traffic,
                       SimConfig("standard_infra", t_probe, 3, x0, scaling_n=scaling_n,
                                 replication=rep)).final_state
        for rep in range(reps))
    order = sorted(exact, key=exact.get, reverse=True)
    observed = np.array([finals[x] for x in order], dtype=float)
    observed[-1] += sum(c for x, c in finals.items() if x not in exact)
    obs, exp = _merge_bins(observed, reps * np.array([exact[x] for x in order]))
    assert len(obs) >= 40
    assert chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-3


class _CheckedJoint(_Joint):
    """The joint model, checking before every race that each class's attempt
    rates equal a fresh ``_attempt_rates``, and its total their total."""

    checks = 0

    def rates(self, x):
        out = super().rates(x)
        for k in range(self.num_classes):
            full = self._attempt_rates(x, k)
            assert self.attempt[k] == full
            assert self.attempt_total[k] == (0.0 if full is None else self.total(full))
        self.checks += 1
        return out


def _incremental_cases():
    """Seeded random instances under each policy (J = 1, 2), and a
    three-channel network with one access point of three downlink classes,
    which the shared-queue share couples."""
    rng = np.random.default_rng(31)
    for i in range(30):
        policy = ("adhoc", "standard_infra", "flow_aware")[i % 3]
        spec, params, state = random_instance(rng, infrastructure=policy != "adhoc")
        yield spec, params, state, policy
    spec = NetworkSpec(4, 3, replicate_graph(3, range(4), [(0, 1), (0, 2), (1, 2), (2, 3)]),
                       (AccessPoint.of([], [0, 1, 2]), AccessPoint.of([3], [])))
    params = CsmaParams.from_alpha(spec, 2.0)
    for policy in ("standard_infra", "flow_aware"):
        yield spec, params, (2, 1, 3, 1), policy


def test_incremental_attempt_rates_equal_a_full_recompute():
    seen_channels, shared_ap, checks = set(), False, 0
    for i, (spec, params, state, policy) in enumerate(_incremental_cases()):
        seen_channels.add(spec.num_channels)
        shared_ap |= policy == "standard_infra" and any(
            len(ap.downlink) >= 2 for ap in spec.access_points)
        traffic = TrafficSpec.of(0.5, 1.0, spec.num_classes)
        for n in (1, 2):
            cfg = SimConfig(policy, 20.0, 40 + i, state, scaling_n=n)
            model = _CheckedJoint(spec, params, traffic, policy, cfg)
            assert _run(model, traffic, cfg) == simulate_joint(spec, params, traffic, cfg)
            checks += model.checks
    assert seen_channels == {1, 2, 3} and shared_ap and checks > 5000


class _StubRng:
    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def test_channel_pick_never_lands_on_a_zero_rate_channel():
    """With 8 or more channels a class's attempt total is summed pairwise,
    which can exceed the running sum the pick bisects. A uniform that passes
    the running sum takes the last channel with a positive rate, not the
    last channel."""
    J = 8
    spec = NetworkSpec(1, J, replicate_graph(J, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.5, 1.0, 1)
    cfg = SimConfig("adhoc", 1.0, 1, (1,))
    u = 1.0 - 2.0**-53                    # the largest value random() returns
    rng = np.random.default_rng(6)
    picks = 0
    while picks < 20:
        rates = rng.random(J).tolist()
        rates[-1] = 0.0                   # the last channel is infeasible
        total = float(np.sum(rates))
        if u * total < list(itertools.accumulate(rates))[-1]:
            continue
        model = _Joint(spec, params, traffic, "adhoc", cfg)
        model.attempt, model.attempt_total = [rates], [total]
        model.fire(0, 0, _StubRng(u), 0.0)
        assert model.y[0] == [0] * (J - 2) + [1, 0]
        picks += 1


def test_empirical_rates_match_generator_rates():
    rng = np.random.default_rng(3)
    spec, params, state = random_instance(rng, infrastructure=False)
    traffic = TrafficSpec.of(0.4, 1.0, spec.num_classes)
    cfg = SimConfig("adhoc", 3000.0, 9, state, scaling_n=1)
    tr, paths = with_integrals(_Joint(spec, params, traffic, "adhoc", cfg), traffic, cfg)
    assert tr == simulate_joint(spec, params, traffic, cfg)    # accruing leaves the path alone
    for kind, expected_key in (("arrival", "arrival"), ("attempt", "attempt")):
        counts = np.asarray(tr.event_counts_by_kind[kind], dtype=float)
        integral = np.asarray(paths.rate_time[expected_key])
        for k in range(spec.num_classes):
            assert abs(counts[k] - integral[k]) <= 3.0 * math.sqrt(integral[k]) + 3.0
    pkt = np.asarray(tr.event_counts_by_kind["packet"], dtype=float)
    pkt_integral = (np.asarray(paths.rate_time["packet_continue"])
                    + np.asarray(paths.rate_time["packet_complete"]))
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
                                 policy="adhoc", initial_state=(1, 1))
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
    assert run.dominated_integrals == run.base_integrals
    # the dominated chain serves the center class at the full rate phi_2 = 1;
    # the dominating profile on the base chain breaks the order
    hi = dominated_throughput_fn(spec, params, "standard_infra", [2])
    run = simulate_coupled_pair(spec, params, traffic, cfg, hi, fn)
    hi_paths, lo_paths = run.dominated_integrals, run.base_integrals
    assert hi_paths.served_bits[2] == hi_paths.busy_time[2] < lo_paths.busy_time[2]
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


def test_batched_bootstrap_matches_one_tv_call_per_resample():
    """``_tv_of_resamples`` over a bootstrap batch gives, bit for bit, the
    distances of one ``_tv_from_counts`` call per resample. The counts
    include states outside the box, and the resamples zero counts."""
    rng = np.random.default_rng(17)
    outside = zeros = 0
    for case in range(30):
        box = rng.integers(1, 6, size=int(rng.integers(1, 4)))
        states = [tuple(int(v) for v in x)
                  for x in itertools.product(*(range(b + 1) for b in box))]
        p_ref = rng.random(len(states))
        p_ref *= (1.0 - 0.01 * rng.random()) / p_ref.sum()
        outside_ref = max(0.0, 1.0 - float(p_ref.sum()))
        total = int(rng.integers(20, 200))
        counts: Counter = Counter(tuple(int(v) for v in rng.integers(0, box + 2))
                                  for _ in range(total))
        index = {s: i for i, s in enumerate(states)}
        keys = list(counts)
        probs = np.array([counts[s] for s in keys], dtype=float) / total
        resampled = stream(case, "bootstrap").multinomial(total, probs,
                                                          size=TIMESCALE_BOOTSTRAP)
        outside += any(s not in index for s in keys)
        zeros += bool((resampled == 0).any())
        got = _tv_of_resamples(resampled, keys, total, index, p_ref, outside_ref)
        expected = [_tv_from_counts({s: int(c) for s, c in zip(keys, row) if c > 0},
                                    total, index, p_ref, outside_ref)
                    for row in resampled]
        assert got.tolist() == expected
    assert outside > 20 and zeros > 20


# SHA-256 of every trajectory field below, one per pinned run. Any change to a
# random draw, to the rounding of an accrual or to the bookkeeping moves a
# digest: re-record them only with a change that alters random-number
# consumption or the rounding of a result on purpose. The fields are written
# as JSON, whose float format (the shortest repr) does not depend on the NumPy
# version, as repr() of a NumPy scalar does. A sampled schedule, a tuple of
# rows, is written as {"active": rows}, the form it had when they were recorded.
_TRAJECTORY_FIELDS = ("samples", "arrivals", "departures", "aborted", "final_time",
                      "final_state", "time_integral_flows", "abort_time",
                      "event_counts_by_kind")
_TRAJECTORY_DIGESTS = [
    "b4c6cce33f2d392d8f972f7b66d93d7939b7b5e20c1ba7be62bef40e62ad89fd",
    "d961ebd4f850e768ec2a601961b54074eca693faf2e944d086575295c97d77c5",
    "7d325a4bb8a7898ad1aa8696b52fe32e9f141f8e6039f7069e03d09895e2aebe",
    "5a73bb7851cccff1c3ac6b0b6e9fc922738bcace420c63b9d44e25e0641ce3f8",
    "bad6ab9b4dd082eadcda9b65f78d45009768df533bacbdcb357c8ab2b681424b",
    "daaf07ddbc7d0316ce6d805246da2a610f07df74b81258e45f8e967dc5d49e09",
    "e301fdf73a8929eaf2e841f8c98fe3f0d61a87c2b2f421562c9f7173718167e7",
    "f5e734c22b78091fda28c3d2e7f183411d6a423c1158f78f05459172b241d21a",
    "9c8954f236978c243505371e33a84571d140805a3ee3a8266eb23bca899c32e2",
    "6fba4e5713ffda5e68205ce1e644bc6fde9b0a1a38ee869ef6bf792cb27a2181",
    "6189ed05b9aeecdec9b2503558643c655085bc01fd1af87939ff79327d294914",
    "ad6348b1285c623ecaefd7c5b3d65506c533653edd8f3e1269146372cb8374cd",
    "5dc2e4c302cbf6e656b0000a58fb88ebdb3a3dfb13b9a53943e94a1a1d472a6a",
    "0efbdcbc51e0da935605bacdd0ff6bce571847e71aa066cdca0812ec35bd9274",
    "751b4445e92e13d4b8a252767d52727175be62d4dbda720681c4e9b62b8f9708",
    "753cb3ab01946b4b2914d001822fb92e561f74c5d097cffdb2a7f5da2ccf9665",
    "26ff087ac1d451f83b22c7b3b2d17f21660d96394968d4103c3a40f9d3e4f2d9",
    "441627eda0ea7782a8592a91c0499265744344597e2aab8ac47f6b0a7754ce77",
    "3ac1a155e782e3b0c78cec518c442b5bc5bf2fadb168a1206b85f46534f9f6f6",
    "f1b534f00c2570c9a279f346896ddbb03453214199770f5a0d2dd5b933968b6e",
    "712e9b71605e620a2ac9519cdeea991146cdcbf3543676836922391e92b4d522",
    "6767feb8c301225d321bb7eef7f6c9aa78f349564d016f8b049a75116ade244f",
    "483404942c9e0794098e1bc96e963954fecb7173d6cf40415b2518a3d5cf8b0c",
    "0af45ea6ed8ca0807bd5b89aef28a211aacc883cb70b4cf27d4627e7586f0607",
    "2b891e849406813778ce49022e7b47a2cd703414a8110d41080d6af36ae2e77a",
    "67592ba978666e6e28093fc885b1a5305d9449c03b4e05376c31568f24fb847c",
    "09c0114c9a13b5a3b069f41fd75db304f0a467a19cfec22d541d2bf93d3259b1",
    "1d825c3fdaa246a2e2725ebee0e4bae0b079bf3f13c024efc7d0e08835675a6c",
    "d17bd0ab13da6569aa4e6c3e54dc642d83838bff3cd7fdc447c51477dc0e2bb6",
    "16d39e4683ded8c241c9d59a06d57aea790aab1c9a1367ac42e19321a2c35f0c",
    "3152f3d72bde52a8a19754f323f0c69d852f0234a49b55a007fb8f84c9bf3b24",
    "d7fb7a0e4351b146a7918d618912ea747984dfd436293ce5e023cd198b9cda00",
    "1935ed11ac0491f897e5303d639437e88e124674874a5a27450c5fcb694bbece",
    "c6e6cfea2a51180f653f7ee88f5ec6cab0b673d633bdb1d6bf09464b416bd113",
    "82ea9df7e1f0b8dbcfbd9240de8c45b3424611a5e5552a0a5832d08393d839b1",
    "f136894183eaa233f4815db9054c74dd0431c96bcaf88388188da684d7e3281b",
    "a63f09480e3eae2983093f04fb03f0a2b278c72527b7c8e5d28e90950afde295",
    "be2d8969e2aaab4283e95d9e4d93177fa36fc76b43107209b771f4eefa431f61",
    "e561184240b06f08bb878eeb73567d58ee8af1b664a497af0bf82da4872cfbe7",
    "f92fe1f2a3174511c0b67662453266d37f49bb9272b93b22cc9c14f064dddbc5",
    "d54c9ecbf5d6d8f193c72bace4bb6c219bd76b8c29a2ce91aa5aa8e79961b051",
    "58b9c68f967ea6b164e6d3b9f9c6286519665d35c46cad4648a2975732d019bc",
    "ff43b70e66bf064748ead98960177246c58d951fadfe1a0ade84c1ae7bda97b7",
    "d0e87c0b64940d1e3d13f7023ac208355ec183e7b9e87e8ad6a1a4567b09e8b6",
]


def _pinned_runs():
    """40 short runs over random instances: both models, the adhoc, flow_aware
    and standard_infra policies, with and without sample times, and 14 runs
    that hit the truncation guard. Then joint runs
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
                        replication=i % 2)
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
                        sample_times=uniform_sample_times(50.0, 10))
        yield simulate_joint(spec, params, TrafficSpec.of(0.8, 1.0, K), cfg)


def _sample_json(sample: TrajectorySample) -> dict:
    out = dataclasses.asdict(sample)
    if sample.schedule is not None:
        out["schedule"] = {"active": sample.schedule}
    return out


def test_trajectories_match_recorded_digests():
    digests, aborts = [], 0
    for traj in _pinned_runs():
        text = json.dumps([getattr(traj, name) for name in _TRAJECTORY_FIELDS],
                          default=_sample_json)
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


def test_stream_equals_a_seed_sequence_generator():
    """``stream`` keys Philox from a cached copy of the stream's seed
    sequence state: the same generator as ``Philox(SeedSequence(...))``,
    and a new one on every call, so two runs never share one."""
    rng = np.random.default_rng(13)
    for _ in range(300):
        seed = int(rng.integers(0, 2**63)) * int(rng.integers(1, 3))
        kind = ("arrival", "service", "attempt", "packet", "bootstrap")[int(rng.integers(5))]
        klass, rep = int(rng.integers(0, 50)), int(rng.integers(0, 1000))
        plain = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            [seed % 2**64, _STREAM_KINDS[kind], klass, rep])))
        first, second = stream(seed, kind, klass, rep), stream(seed, kind, klass, rep)
        assert (json.dumps(first.bit_generator.state, default=np.ndarray.tolist)
                == json.dumps(plain.bit_generator.state, default=np.ndarray.tolist))
        assert first is not second and first.bit_generator is not second.bit_generator
        expected = plain.random(3).tolist()
        assert first.random(3).tolist() == expected
        assert second.random(3).tolist() == expected


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


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_batched_multinomial_equals_sequential_calls(seed):
    """The bootstrap draws its resamples with one ``multinomial(n, p,
    size=B)`` call, which gives the rows of B calls of size 1 in order and
    leaves the stream where they would."""
    probs = np.random.default_rng(seed % 1000).random(37)
    probs /= probs.sum()
    batched, sequential = stream(seed, "bootstrap"), stream(seed, "bootstrap")
    rows = batched.multinomial(200, probs, size=TIMESCALE_BOOTSTRAP).tolist()
    assert rows == [sequential.multinomial(200, probs).tolist()
                    for _ in range(TIMESCALE_BOOTSTRAP)]
    assert batched.random() == sequential.random()


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
