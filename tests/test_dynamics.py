import dataclasses
import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare, kstest, norm

from conftest import ap_line3, bowtie_spec, empty_schedule, random_instance
from mccsma.dynamics import (_STREAM_KINDS, BLOCK, FOLD, SimConfig, _arrivals,
                             ThroughputCache, TrajectorySample, _Joint,
                             _joint_final_states, _run, _Separated,
                             _tv_from_counts, block_draws, left_sum, simulate_joint,
                             simulate_separated, stream, timescale_convergence,
                             uniform_sample_times)
from mccsma.equilibrium import PolicyEvaluator
from mccsma.oracles import joint_generator, schedule_rows, transient_distribution
from mccsma.scenario import load_scenario
from mccsma.schedule import enumerate_feasible
from mccsma.topology import (AccessPoint, CsmaParams, NetworkSpec, TrafficSpec,
                             replicate_graph)
from oracles import stationary_distribution
from theory import (_merge_bins, dominated_throughput_fn, generator_compensators,
                    simulate_coupled_pair, with_integrals)


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
    to its bit count, and a departure removes a flow drawn uniformly from a
    Philox stream of its own, so that the path stays the separated model's;
    its bit count is the completed flow size."""

    def __init__(self, spec, throughput_fn, traffic, cfg):
        super().__init__(spec, throughput_fn, traffic)
        self.pick = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            (cfg.seed % 2**64, 4, 0, cfg.replication))))
        self.flows = [[] for _ in range(self.num_classes)]
        self.completed = [[] for _ in range(self.num_classes)]

    def rates(self, x):
        self.phi = self.throughput_fn(tuple(x)).tolist()    # until the next event
        return super().rates(x)

    def arrive(self, k, t):
        super().arrive(k, t)
        self.flows[k].append(0.0)

    def fire(self, kind, k, uniform, t):
        flows = self.flows[k]
        self.completed[k].append(flows.pop(int(self.pick.integers(len(flows)))))
        return super().fire(kind, k, uniform, t)

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


class _CheckedSeparated(_Separated):
    """The separated model, checking before every race that the running
    sums it hands the loop, read from its key table on a hit or kept from
    the last race where the event left the key unchanged, equal a fresh
    computation from ``throughput_fn``; ``skips`` counts the races of the
    second kind."""

    checks = skips = 0

    def rates(self, x):
        self.skips += self.acc is not None
        out = super().rates(x)
        phi = self.throughput_fn(tuple(x)).tolist()
        assert out == list(itertools.accumulate(
            [p / s if n > 0 else 0.0 for p, s, n in zip(phi, self.sigma, x)]))
        self.checks += 1
        return out


def _checked_run(spec, params, state, policy, load, sigma, seed, cache):
    """A ``_CheckedSeparated`` run of 100 s on ``cache``, checked against a
    run on the bare evaluator, which keeps no table and no key."""
    traffic = TrafficSpec.of(load / sigma, sigma, spec.num_classes)
    cfg = SimConfig(policy, 100.0, seed, state)
    model = _CheckedSeparated(spec, cache, traffic)
    assert _run(model, traffic, cfg) == simulate_separated(
        spec, params, traffic, cfg, throughput_fn=cache.evaluator.throughput)
    return model


def test_key_table_hits_equal_a_fresh_computation():
    """On the instances of ``_incremental_cases`` (adhoc, standard_infra and
    flow_aware, J = 1, 2 and 3, shares in the key of an access point with
    three downlink classes), every race sees the running sums a fresh
    computation gives, and the run equals one on the bare evaluator. So does
    the bow-tie under standard_infra started above the cap J = 2, where
    most events leave the key unchanged and race the sums kept from the
    race before."""
    seen_channels, shares, checks, hits = set(), False, 0, 0
    for i, (spec, params, state, policy) in enumerate(_incremental_cases()):
        seen_channels.add(spec.num_channels)
        cache = ThroughputCache(PolicyEvaluator(spec, params, policy))
        for sigma in (1.0, 2.0):          # one cache, a table per run and sigma
            model = _checked_run(spec, params, state, policy, 0.5, sigma, 70 + i, cache)
            shares |= any(len(key) > spec.num_classes for key in model.table)
            checks += model.checks
            hits += model.checks - len(model.table)
    assert seen_channels == {1, 2, 3} and shares
    assert checks > 10_000 and hits > checks // 3

    spec = bowtie_spec()
    params = CsmaParams.from_alpha(spec, 2.0)
    cache = ThroughputCache(PolicyEvaluator(spec, params, "standard_infra"))
    model = _checked_run(spec, params, (6,) * 5, "standard_infra", 0.65, 1.0, 90, cache)
    assert model.checks > 500 and model.skips > model.checks // 2


class _SizeTracked(_Separated):
    """The separated model, recording every key it races at and the most
    entries that its key table and its cache hold after a race."""

    def __init__(self, *args):
        super().__init__(*args)
        self.keys, self.most = set(), 0

    def rates(self, x):
        out = super().rates(x)
        self.keys.add(self.key(tuple(x)))
        self.most = max(self.most, len(self.table), len(self.throughput_fn._cache))
        return out


def test_key_caches_keep_their_bound(monkeypatch):
    """With the bound patched to 8, a bow-tie run that visits more keys keeps
    the cache and its key table at 8 entries or fewer, and runs as with the
    full bound: an evicted key's entry is computed again, bit for bit."""
    spec = bowtie_spec()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec.of(0.6, 1.0, 5)
    cfg = SimConfig("standard_infra", 300.0, 21, (0,) * 5)
    ev = PolicyEvaluator(spec, params, "standard_infra")
    full = simulate_separated(spec, params, traffic, cfg, throughput_fn=ThroughputCache(ev))
    monkeypatch.setattr("mccsma.dynamics._CACHE_SIZE", 8)
    model = _SizeTracked(spec, ThroughputCache(ev), traffic)
    assert _run(model, traffic, cfg) == full
    assert len(model.keys) > 8 and model.most == 8


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


def test_channel_pick_never_lands_on_a_zero_rate_channel():
    """The channel pick scales its uniform by the running sum of the
    class's attempt rates that it bisects, so even the largest uniform takes
    the last channel with a positive rate, not a trailing channel of rate
    zero."""
    J = 8
    spec = NetworkSpec(1, J, replicate_graph(J, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.5, 1.0, 1)
    cfg = SimConfig("adhoc", 1.0, 1, (1,))
    u = 1.0 - 2.0**-53                    # the largest value random() returns
    rng = np.random.default_rng(6)
    for _ in range(20):
        rates = rng.random(J).tolist()
        rates[-2:] = [0.0, 0.0]           # the last channels are infeasible
        model = _Joint(spec, params, traffic, "adhoc", cfg)
        model.attempt, model.attempt_total = [rates], [left_sum(rates)]
        model.fire(0, 0, lambda: u, 0.0)
        assert model.y[0] == [0] * (J - 3) + [1, 0, 0]


class _FixedRates:
    """A stub model whose clocks run at fixed rates, whatever the state; it
    counts each clock's firings and keeps the times of every event, arrivals
    included. Nothing departs."""

    schedule = None
    accrue = None

    def __init__(self, rates):
        self.num_classes = 2
        self.acc = list(itertools.accumulate(rates))
        self.fired = [0] * len(rates)
        self.times = [0.0]

    def rates(self, x):
        return self.acc

    def arrive(self, k, t):
        self.times.append(t)

    def fire(self, kind, k, uniform, t):
        self.fired[kind * self.num_classes + k] += 1
        self.times.append(t)
        return False

    def finish(self, traj):
        pass


def test_clock_pick_skips_trailing_zero_rates_at_the_largest_uniform(monkeypatch):
    """With every uniform at 1 - 2^-53, the largest value ``random()``
    returns, and rates that end in zeros, every pick takes the last clock
    of positive rate."""
    u = 1.0 - 2.0**-53
    monkeypatch.setattr("mccsma.dynamics.block_draws",
                        lambda sample: (lambda: u) if sample.__name__ == "random"
                        else block_draws(sample))
    rng = np.random.default_rng(8)
    for n_zero in (1, 2, 3):
        rates = (10.0 ** rng.uniform(-3, 3, 6 - n_zero)).tolist() + [0.0] * n_zero
        model = _FixedRates(rates)
        traffic = TrafficSpec.of(0.0, 1.0, 2)
        _run(model, traffic, SimConfig("adhoc", 200.0 / sum(rates), 3, (0, 0)))
        last = 5 - n_zero
        assert model.fired[last] > 100
        assert model.fired[:last] == [0] * last and model.fired[last + 1:] == [0] * n_zero


_STUB_RATES = [0.3, 1.1, 0.0, 2.5]


def test_clock_pick_frequencies_match_rate_shares():
    """On fixed rates r_c the clock that fires is c with probability
    r_c / R (chi-square); a clock of rate zero never fires."""
    model = _FixedRates(_STUB_RATES)
    traffic = TrafficSpec((0.4, 0.2), (1.0, 1.0))
    _run(model, traffic, SimConfig("adhoc", 5000.0, 11, (0, 0)))
    total = sum(_STUB_RATES)
    fired = np.array(model.fired, dtype=float)
    assert fired[2] == 0 and fired.sum() > 15000
    positive = [c for c, r in enumerate(_STUB_RATES) if r > 0]
    expected = np.array([_STUB_RATES[c] / total for c in positive]) * fired.sum()
    assert chisquare(fired[positive], expected).pvalue > 1e-3


def test_holding_times_are_exponential_at_the_total_rate():
    """On fixed rates the time between events, arrivals included, is
    exponential at R + sum of the arrival rates (KS test)."""
    model = _FixedRates(_STUB_RATES)
    traffic = TrafficSpec((0.4, 0.2), (1.0, 1.0))
    _run(model, traffic, SimConfig("adhoc", 1000.0, 12, (0, 0)))
    gaps = np.diff(model.times)
    rate = sum(_STUB_RATES) + 0.4 + 0.2
    assert len(gaps) > 3000
    assert kstest(gaps, "expon", args=(0, 1.0 / rate)).pvalue > 1e-3
    # and at the wrong total, the same gaps are rejected
    assert kstest(gaps, "expon", args=(0, 1.0 / (1.2 * rate))).pvalue < 1e-3


@pytest.mark.parametrize("simulate", [simulate_separated, simulate_joint,
                                      simulate_coupled])
def test_each_run_makes_k_plus_two_streams(simulate, monkeypatch):
    """A run makes one arrival stream per class, a holding stream and a
    uniform stream, whatever its model and however many events it has."""
    made = []

    def counting_stream(seed, kind, klass=0, replication=0):
        made.append((kind, klass, replication))
        return stream(seed, kind, klass, replication)

    monkeypatch.setattr("mccsma.dynamics.stream", counting_stream)
    spec = bowtie_spec()
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec.of(0.5, 1.0, 5)
    for horizon, rep in ((1e-9, 0), (50.0, 3)):
        made.clear()
        cfg = SimConfig("standard_infra", horizon, 9, (1, 0, 2, 0, 1), replication=rep,
                        scaling_n=2)
        simulate(spec, params, traffic, cfg)
        assert sorted(made) == sorted([("arrival", k, rep) for k in range(5)]
                                      + [("holding", 0, rep), ("uniform", 0, rep)])


def test_empirical_rates_match_generator_rates():
    """Each of the 3K event counts (arrivals, attempts, packets per class)
    stays within z standard deviations of its compensator, the rate-time
    integral of the generator's rate, plus 3. The z of a Bonferroni family
    level of 0.001 over the 3K counts (3.93 at K = 4) keeps false failures
    rare over seeds. The horizon gives power: race attempt rates 1.05 times
    the generator's fail it at 38 of the 40 seeds 9 + 7919 i."""
    rng = np.random.default_rng(3)
    spec, params, state = random_instance(rng, infrastructure=False)
    K = spec.num_classes
    traffic = TrafficSpec.of(0.4, 1.0, K)
    cfg = SimConfig("adhoc", 20_000.0, 9, state, scaling_n=1)
    tr, paths = with_integrals(_Joint(spec, params, traffic, "adhoc", cfg), traffic, cfg)
    assert tr == simulate_joint(spec, params, traffic, cfg)    # accruing leaves the path alone
    z = norm.isf(0.001 / (2 * 3 * K))
    rt = paths.rate_time
    for kind, integral in (("arrival", rt["arrival"]), ("attempt", rt["attempt"]),
                           ("packet", np.add(rt["packet_continue"], rt["packet_complete"]))):
        counts = tr.event_counts_by_kind[kind]
        for k in range(K):
            assert abs(counts[k] - integral[k]) <= z * math.sqrt(integral[k]) + 3.0


def _compensated_cases():
    """Two conflicting classes on two channels under adhoc, and an access
    point whose two downlink classes share its queue under standard_infra,
    at N = 16; each path stays inside its box."""
    spec = NetworkSpec(2, 2, replicate_graph(2, [0, 1], [(0, 1)]))
    yield spec, CsmaParams.from_alpha(spec, 2.0), TrafficSpec.of(0.5, 1.0, 2), "adhoc", (12, 12)
    spec = NetworkSpec(3, 1, replicate_graph(1, range(3), [(0, 1), (1, 2)]),
                       (AccessPoint.of([], [0, 1]), AccessPoint.of([2], [])))
    yield (spec, CsmaParams.from_alpha(spec, 4.0), TrafficSpec((0.3, 0.15, 0.3), (1.0,) * 3),
           "standard_infra", (12, 12, 12))


@pytest.mark.parametrize("case", list(_compensated_cases()), ids=["adhoc", "shared-queue"])
def test_joint_event_counts_match_generator_compensators(case):
    """Each of the 4K event counts (arrivals, attempts, packets that
    continue their flow and flow completions, per class) stays within z
    standard deviations of its compensator, plus 3: the rate-time integral
    of the out-rates that ``oracles.joint_generator`` gives the visited
    states, which reads none of the joint model's own rates. z is that of a
    Bonferroni family level of 0.001 over the 4K counts. Race attempt rates
    1.05 times the generator's fail both cases at this seed, which
    ``test_empirical_rates_match_generator_rates`` cannot see: its
    compensators read the model's rates."""
    spec, params, traffic, policy, box = case
    K = spec.num_classes
    cfg = SimConfig(policy, 3000.0, 9, (0,) * K, scaling_n=16)
    tr, compensators, inside = generator_compensators(spec, params, traffic, cfg, box)
    assert inside
    assert tr == simulate_joint(spec, params, traffic, cfg)    # accruing leaves the path alone
    by_kind = tr.event_counts_by_kind
    counts = {"arrival": by_kind["arrival"], "attempt": by_kind["attempt"],
              "packet_continue": np.subtract(by_kind["packet"], by_kind["flow_completion"]),
              "flow_completion": by_kind["flow_completion"]}
    assert set(counts) == set(compensators)
    z = norm.isf(0.001 / (2 * 4 * K))
    for kind, integral in compensators.items():
        for k in range(K):
            assert abs(counts[kind][k] - integral[k]) <= z * math.sqrt(integral[k]) + 3.0
    assert min(compensators["attempt"]) > 5000


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


def test_timescale_draws_only_its_joint_runs_streams(monkeypatch):
    """The study makes the K + 2 streams of each replication, which its
    joint runs at every N share, and no others."""
    made = []

    def counting_stream(seed, kind, klass=0, replication=0):
        made.append(kind)
        return stream(seed, kind, klass, replication)

    monkeypatch.setattr("mccsma.dynamics.stream", counting_stream)
    spec = two_conflicting_classes()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.4, 1.0, 2)
    n_values, replications = (1, 4, 16), 5
    timescale_convergence(spec, params, traffic, n_values=n_values, t_probe=1.0,
                          replications=replications, seed=3, policy="adhoc",
                          initial_state=(1, 0))
    assert len(made) == replications * (spec.num_classes + 2)
    assert set(made) == {"arrival", "holding", "uniform"}


def test_timescale_builds_one_joint_model_per_scaling_value(monkeypatch):
    """On ap-line3 as the benchmark's smoke run sets it up (t_probe 0.5),
    the study makes no ``simulate_joint`` call: its lanes read the tables
    of one ``_Joint`` per N."""
    def no_simulate_joint(*args):
        raise AssertionError("the study ran simulate_joint")

    built = []

    class CountingJoint(_Joint):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(args[-1].scaling_n)

    monkeypatch.setattr("mccsma.dynamics.simulate_joint", no_simulate_joint)
    monkeypatch.setattr("mccsma.dynamics._Joint", CountingJoint)
    spec = ap_line3()
    params = CsmaParams.from_alpha(spec, 1e6)
    traffic = TrafficSpec.of(0.4, 1.0, 3)
    n_values, replications = (1, 4, 16, 64), 5
    timescale_convergence(spec, params, traffic, n_values=n_values, t_probe=0.5,
                          replications=replications, seed=3, policy="standard_infra",
                          initial_state=(0, 0, 0))
    assert built == list(n_values)


@pytest.mark.parametrize("name, policy", [
    ("ap-line3", "standard_infra"), ("two-ap", "standard_infra"), ("two-ap", "flow_aware"),
    ("adhoc4", "adhoc"), ("bowtie", "standard_infra")])
def test_lanes_end_where_simulate_joint_ends(name, policy, monkeypatch):
    """Every (N, replication) lane ends at the final flow counts of its own
    ``simulate_joint`` run, bit for bit: in the second config class 0 never
    arrives and a small guard aborts some runs; in the third the horizon
    equals replication 1's fifth arrival time, at which its runs end; in
    the fourth every class reads one gapped arrival stream at one rate, so
    all classes arrive together and, past a block, a class arrives twice at
    one time, and the guard aborts runs within such a batch, whose order
    then decides the final counts. Two-ap shares each access point's queue
    between two downlink classes, and adhoc4, two-ap and the bow-tie have
    two channels, so a class may hold two slots."""
    sc = load_scenario(name)
    spec, params, traffic = sc.network, sc.csma, sc.traffic
    K = spec.num_classes
    no_arrivals = TrafficSpec((0.0, *traffic.arrival_rate[1:]), traffic.mean_flow_size)
    together = TrafficSpec((40.0,) * K, traffic.mean_flow_size)
    at_arrival = next(itertools.islice(_arrivals(8, 1, traffic.arrival_rate), 4, None))[0]
    n_values, replications = (1, 4, 16, 64), 6
    aborted = 0
    for load, base, make_stream in (
            (traffic, SimConfig(policy, 2.0, 5, (2,) * K), stream),
            (no_arrivals, SimConfig(policy, 4.0, 6, (1,) * K, max_total_flows=K), stream),
            (traffic, SimConfig(policy, at_arrival, 8, (1,) * K), stream),
            (together, SimConfig(policy, 2.0, 7, (0,) * K, max_total_flows=70 * K),
             _shared_arrival_stream)):
        monkeypatch.setattr("mccsma.dynamics.stream", make_stream)
        runs = [[simulate_joint(spec, params, load,
                                dataclasses.replace(base, scaling_n=n, replication=r))
                 for r in range(replications)] for n in n_values]
        assert _joint_final_states(spec, params, load, base, n_values, replications) == [
            [run.final_state for run in row] for row in runs]
        aborted += sum(run.aborted for row in runs for run in row)
        if base.horizon == at_arrival:
            # replication 1's runs take the four arrivals before the horizon
            assert {sum(row[1].arrivals) for row in runs} == {4}
    assert aborted > 0
    ends = [run.final_state for row in runs for run in row if run.aborted]
    assert any(len(set(end)) > 1 for end in ends)
    assert max(run.arrivals[0] for row in runs for run in row) > BLOCK


def test_lanes_raise_simulate_joint_errors_before_any_lane_runs(monkeypatch):
    """A config that ``simulate_joint`` rejects raises its error, and one
    with sample times raises, before the lanes make any stream."""
    spec = NetworkSpec(4, 3, replicate_graph(3, range(4), [(0, 1), (0, 2), (1, 2), (2, 3)]),
                       (AccessPoint.of([], [0, 1, 2]), AccessPoint.of([3], [])))
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec.of(0.5, 1.0, 4)
    base = SimConfig("standard_infra", 5.0, 1, (1, 1, 1, 1))
    unequal = CsmaParams.from_alpha(spec, (2.0, 3.0, 2.0, 2.0))
    short = TrafficSpec.of(0.5, 0.5, 4)
    three = dataclasses.replace(base, initial_state=(1, 1, 1))

    def no_stream(*args):
        raise AssertionError("a lane ran")

    monkeypatch.setattr("mccsma.dynamics.stream", no_stream)
    # the scaling values, and the first one whose run raises
    for params_, traffic_, cfg, n_values, n_bad in ((unequal, traffic, base, (1, 4), 1),
                                                    (params, short, base, (2, 1), 1),
                                                    (params, traffic, three, (1, 4), 1),
                                                    (params, traffic, three, (1, 0), 1),
                                                    (params, traffic, base, (4, 0), 0)):
        with pytest.raises(ValueError) as expected:
            simulate_joint(spec, params_, traffic_, dataclasses.replace(cfg, scaling_n=n_bad))
        with pytest.raises(ValueError) as got:
            _joint_final_states(spec, params_, traffic_, cfg, n_values, 3)
        assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError, match="sample_times"):
        _joint_final_states(spec, params, traffic,
                            dataclasses.replace(base, sample_times=(1.0,)), (1,), 3)


def test_joint_checks_raise_on_every_call_after_a_valid_one():
    """A call that fails a check raises again on every later call, also
    after a valid call on the same network. Unequal attempt rates need an
    access point with two or more downlink classes, which ap-line3 does not
    have."""
    spec = NetworkSpec(4, 3, replicate_graph(3, range(4), [(0, 1), (0, 2), (1, 2), (2, 3)]),
                       (AccessPoint.of([], [0, 1, 2]), AccessPoint.of([3], [])))
    params = CsmaParams.from_alpha(spec, 2.0)
    traffic = TrafficSpec.of(0.5, 1.0, 4)
    cfg = SimConfig("standard_infra", 5.0, 1, (1, 1, 1, 1))
    simulate_joint(spec, params, traffic, cfg)
    unequal = CsmaParams.from_alpha(spec, (2.0, 3.0, 2.0, 2.0))
    short = TrafficSpec.of(0.5, 0.5, 4)
    for _ in range(2):
        with pytest.raises(ValueError, match="share one attempt rate"):
            simulate_joint(spec, unequal, traffic, cfg)
        with pytest.raises(ValueError, match="sigma_k"):
            simulate_joint(spec, params, short, cfg)
    simulate_joint(spec, params, short, dataclasses.replace(cfg, scaling_n=2))


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


def _tv_full_scan(counts, total, reference):
    """Reference for ``_tv_from_counts``: the distance as a scan of every
    state of a state -> probability dict, which puts no mass outside."""
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
    tv += seen_outside / total                  # the reference has no mass outside
    return 0.5 * tv


def test_tv_from_counts_matches_full_scan_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(300):
        box = rng.integers(1, 6, size=int(rng.integers(1, 4)))
        states = [tuple(int(v) for v in x)
                  for x in itertools.product(*(range(b + 1) for b in box))]
        p_ref = rng.random(len(states))
        p_ref /= p_ref.sum()
        total = int(rng.integers(1, 200))
        counts: dict[tuple[int, ...], int] = {}
        for _ in range(total):
            # up to two beyond the box: some visits fall outside it
            x = tuple(int(v) for v in rng.integers(0, box + 3))
            counts[x] = counts.get(x, 0) + 1
        index = {s: i for i, s in enumerate(states)}
        got = _tv_from_counts(counts, total, index, p_ref)
        expected = _tv_full_scan(counts, total, {s: float(q) for s, q in zip(states, p_ref)})
        assert got == expected


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
    "abda218d59952f9adb92ea0a6c63289515ff7789076e559fad25d82692a8e914",
    "0221dd1cba5fc3b956c8a53f9ccd44fe0edd48edd446fa81d7a24d2b4a5a31bf",
    "6265cecc8bb98d44d4361fdd0e9e67a4033957baf8c7a6656e9ab942d447e456",
    "aa177c56db25a950627aaedbb695d8af236352e2eb0119bb0715d84ac3155c63",
    "42a2ef3c041a8697f48d15aa2d73fece64fcb8d929c069527acdec8cf52bb8c4",
    "a564a9c510035c4f0ee862b06bc211c70404f45f5787eb655af3e3e4d0e53995",
    "4f12358a838644ee7371bd98947cea337e4e9b7e8aeaa9eef7fc15c06a92b120",
    "2f191beddab3142ae17e8e609132c1810542ff25d016a95950c51bd4f377e6d3",
    "0e37e15c7a5dd5ac7958803937db509cac48fe724f0211b44d5ab7236e53e64a",
    "93ce0504711477d95acc409fd7b2b01d6984f212cf4b865b86abee14961bf94e",
    "f83342309b5830cfd208192c27351262ea5f931abac735035fd2ebb10e729246",
    "b2a52fbe7fe52edc42763d33db2cccce672427b3107f20a0226dc0aa48d3ef2b",
    "e3aae6698938ad8e77fea2ff57eb3f1f264353a44e789914ad113d6131a90b45",
    "3f0dbde27932c35ce492d137cd2e98f98d8b9a320d4e79421f805d05571c8d29",
    "e06526c33d70155045ffaeceb03578d359d39b181d20ec86b3688317601ea979",
    "26927d1675044b47d375f5f2bd02c3007218b0df80449d68373a54673378b20e",
    "74b4a90dd48a71a4747ed5b2f531c2c4036c2e057b2ad82d3eef150252d66550",
    "23d297dc294749d4cd366434588e44e78bfcba818accccd3f63c884cfcc51229",
    "94c75ed5574274943f279624c2334c7616b6b8dcbb6de20020c082e47021dcbe",
    "8e8fc66e0d157e9927048b3f26e14f5797407ded55829b87de1ff64ccee583c6",
    "83633c6f181fc749c9557bc05beaa82d165dbcceb0852ddd210e0620d61d2e0d",
    "1382d222d85c65ab4bb84ea4f408e5c4c34f128164a70b1982b0a67ad5210c97",
    "d9e0156b4e343bf6338511fe924f8592e5dfc8cc560ea38a332cd12fd0737595",
    "ef5a9d47c3f7a168d7be91def8fed4c5a00188b4509814ecaf206f706546ec38",
    "6cac3a4e1b27625ef6c0a896152db372169bcfe0ea6f227a2a4f4fb430bc5018",
    "dc8d80fdd737a840b4c77672ebda9350c410930e4299709661e6bd53a313534e",
    "e84604336be87b61eeae723d3969027e541aff3a41a5a98f5151f34987a04fbe",
    "40706423137b1e40d7144e039a48fd06f2d5c6c1e47ca27a6ccba5ab9976855a",
    "7bc575db42304def43bcba73429c2f1fbd7dc547cfa72dd11cf3ae3e2a999582",
    "8cad425a2fb748cf207544ba50bc0fe5c9c04e1fdb9ed1b2f063bb83483e1ab0",
    "5fa2670e839b99f5ee8a287b8d185a97bee0dac2d09d620ae1e719a4b8814911",
    "7cc9d8c8fedb0e4e26dc56c1e89f619610e80309d5e9dc6cbfa32e33b5df1975",
    "c8fbfc3db71307f9557f761b7dd77e87e0c074d122b79c919b72185df9e33ba0",
    "6926d9e1e7897bce01851de11fad79cca7f4617493577438558ed8957749e911",
    "95778ddf8e054f63a0ff8e195b795efb9e1174a26e63536ac0dde46dfbc50255",
    "515ad5645fe0bf83d09944885f892e15565e90102d04d4b2e5571043435099fa",
    "272c0975a12aceee8fce731ba3b23d70aadb72e77e0c6951c17dc58f09badbd6",
    "c4c78a8cf6c54041c63d706372d29c6a15fcc875602a27b1d90d4d8909f8c75b",
    "716197328e87ed963706585051662690d7dae4bf0de9c74d8e3d7d07e488a177",
    "2af392eed1fe648a73f264fb89fc19fc04047cbd88223ae664ed42894603724b",
    "aadbeebbed23aa637fe89c778b6f8c79097c73b5ded99515e99ef566fdadc39b",
    "83422801fa9f6b3a1e528a332bb7995f2e087632ee04218e5be124b2596d9851",
    "850ee9d79d617c4ad99d78f02d9e20e24fbb673a7eeb6357ae8453528b60f989",
    "621b8ae2ba2325c61f3e10ac7b8478b171a0082e80fe298352b121d5f91a2cb5",
]


def _pinned_runs():
    """40 short runs over random instances: both models, the adhoc, flow_aware
    and standard_infra policies, with and without sample times, and 16 runs
    that hit the truncation guard. Then joint runs on 8, 9 and 12 channels,
    whose attempts pick a channel from the run's uniform stream."""
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
    assert aborts == 16
    assert digests == _TRAJECTORY_DIGESTS


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
def test_block_draws_equal_scalar_draws(seed):
    n = 3 * BLOCK + 5
    for kind, klass, rep in (("arrival", 0, 0), ("arrival", 3, 2), ("holding", 0, 4),
                             ("uniform", 0, 1)):
        for method in ("standard_exponential", "random"):
            scalar = getattr(stream(seed, kind, klass, rep), method)
            expected = [scalar() for _ in range(n)]
            draw = block_draws(getattr(stream(seed, kind, klass, rep), method))
            got = [draw() for _ in range(n)]
            assert got == expected and all(type(v) is float for v in got)


class _PerEventReference:
    """Runs ``model`` on ``_run`` and checks the loop event by event against
    per-class arrival clocks ``t + E / lam_k``, each redrawn when it fires
    from ``block_draws`` of the same arrival stream: the lowest class wins
    a tie between arrivals, and an arrival wins a tie with the model's
    clocks. It accrues the flow-count integral as ``a + n * dt``, stretch
    by stretch, and logs the time of every event after the initial flows."""

    def __init__(self, model, traffic: TrafficSpec, cfg: SimConfig, make_stream=stream):
        self.model = model
        self.num_classes = K = model.num_classes
        self.schedule, self.rates = model.schedule, model.rates
        self.lam = [float(v) for v in traffic.arrival_rate]
        self.draws = [block_draws(make_stream(cfg.seed, "arrival", k, cfg.replication)
                                  .standard_exponential) for k in range(K)]
        self.clock = [d() / r if r > 0 else math.inf for d, r in zip(self.draws, self.lam)]
        self.integral = [0.0] * K
        self.stretches = self.ties = 0
        self.times: list[float] = []

    def arrive(self, k, t):
        if self.stretches:              # the initial flows enter before any stretch
            first = min(self.clock)
            assert (t, k) == (first, self.clock.index(first))
            self.ties += self.clock.count(first) > 1
            self.clock[k] = t + self.draws[k]() / self.lam[k]
            self.times.append(t)
        self.model.arrive(k, t)

    def fire(self, kind, k, uniform, t):
        assert t < min(self.clock)
        self.times.append(t)
        return self.model.fire(kind, k, uniform, t)

    def accrue(self, x, dt):
        self.stretches += 1
        self.integral = [a + n * dt for a, n in zip(self.integral, x)]

    def finish(self, traj):
        self.model.finish(traj)
        assert traj.aborted or min(self.clock) >= traj.final_time


def _run_against_reference(make_model, traffic, cfg, make_stream=stream):
    """``_run`` of a fresh model, checked against ``_PerEventReference``
    around another: the same trajectory, bit for bit."""
    ref = _PerEventReference(make_model(), traffic, cfg, make_stream)
    traj = _run(ref, traffic, cfg)
    assert _run(make_model(), traffic, cfg) == traj
    assert list(traj.time_integral_flows) == ref.integral
    return traj, ref


def _separated_model(spec, params, traffic, policy):
    fn = ThroughputCache(PolicyEvaluator(spec, params, policy))
    return lambda: _Separated(spec, fn, traffic)


def _reference_cases():
    bowtie = load_scenario("bowtie")
    spec, params = bowtie.network, bowtie.csma
    single = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    pair = two_conflicting_classes()
    line = ap_line3()
    line_params = CsmaParams.from_alpha(line, 2.0)
    line_traffic = TrafficSpec.of(0.4, 1.0, 3)
    line_cfg = SimConfig("standard_infra", 400.0, 36, (1, 0, 2), scaling_n=4,
                         sample_times=uniform_sample_times(400.0, 40))
    # (id, model factory, traffic, config)
    return [
        ("bowtie-20000s", _separated_model(spec, params, bowtie.traffic, "standard_infra"),
         bowtie.traffic, SimConfig("standard_infra", 20_000.0, 31, (0,) * 5)),
        ("abort-mid-fold", _separated_model(spec, params, bowtie.traffic, "standard_infra"),
         bowtie.traffic, SimConfig("standard_infra", 20_000.0, 32, (2,) * 5,
                                   max_total_flows=300)),
        ("zero-and-slow-class",
         _separated_model(spec, params, TrafficSpec((0.0, 0.6, 0.0006, 0.6, 0.5), (1.0,) * 5),
                          "standard_infra"),
         TrafficSpec((0.0, 0.6, 0.0006, 0.6, 0.5), (1.0,) * 5),
         SimConfig("standard_infra", 10_000.0, 33, (3, 0, 0, 1, 0))),
        ("one-class", _separated_model(single, CsmaParams.from_alpha(single, 1.0),
                                       TrafficSpec.of(0.6, 1.0, 1), "adhoc"),
         TrafficSpec.of(0.6, 1.0, 1), SimConfig("adhoc", 5_000.0, 34, (2,))),
        ("no-arrivals", _separated_model(pair, CsmaParams.from_alpha(pair, 1.0),
                                         TrafficSpec.of(0.0, 1.0, 2), "adhoc"),
         TrafficSpec.of(0.0, 1.0, 2), SimConfig("adhoc", 5_000.0, 35, (700, 500))),
        ("joint", lambda: _Joint(line, line_params, line_traffic, "standard_infra", line_cfg),
         line_traffic, line_cfg),
    ]


@pytest.mark.parametrize("case", _reference_cases(), ids=lambda case: case[0])
def test_run_matches_the_per_event_loop(case):
    """Arrivals drawn ahead and merged, and the flow-count integral folded
    every ``FOLD`` events, give the per-event loop's run bit for bit."""
    name, make_model, traffic, cfg = case
    traj, ref = _run_against_reference(make_model, traffic, cfg)
    assert ref.stretches > FOLD
    if name == "abort-mid-fold":
        assert traj.aborted and ref.stretches % FOLD
        assert any(n % BLOCK for n in traj.arrivals)
    else:
        assert not traj.aborted
    if name == "zero-and-slow-class":
        assert traj.arrivals[0] == 0 and 0 < traj.arrivals[2] < BLOCK
    if name == "no-arrivals":
        assert traj.arrivals == (0, 0) and traj.departures == (700, 500)


@pytest.mark.parametrize("folds", [1, 2])
def test_run_ending_on_a_fold_boundary_matches_the_per_event_loop(folds):
    """A run whose last stretch is the last of a fold, or the first after
    one, gives the per-event loop's run bit for bit."""
    bowtie = load_scenario("bowtie")
    make_model = _separated_model(bowtie.network, bowtie.csma, bowtie.traffic,
                                  "standard_infra")
    cfg = SimConfig("standard_infra", 2_000.0, 37, (1,) * 5)
    _, ref = _run_against_reference(make_model, bowtie.traffic, cfg)
    times = ref.times
    end = folds * FOLD
    for stretches in (end, end + 1):
        # the horizon falls after stretches - 1 events, which the last stretch follows
        horizon = 0.5 * (times[stretches - 2] + times[stretches - 1])
        _, ref = _run_against_reference(make_model, bowtie.traffic,
                                         dataclasses.replace(cfg, horizon=horizon))
        assert ref.stretches == stretches


class _GappedStream:
    """An arrival stream whose odd-numbered blocks start with a zero gap, so
    that a class arrives twice at the time that ends its previous block."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, 0

    def standard_exponential(self, size):
        values = self.rng.standard_exponential(size)
        if self.blocks % 2:
            values[0] = 0.0
        self.blocks += 1
        return values


def _shared_arrival_stream(seed, kind, klass=0, replication=0):
    """``stream``, except that every class reads class 0's arrival stream,
    gapped."""
    if kind == "arrival":
        return _GappedStream(stream(seed, kind, 0, replication))
    return stream(seed, kind, klass, replication)


def test_simultaneous_arrivals_go_to_the_lower_class(monkeypatch):
    """With every class reading one arrival stream at one rate, all arrive
    together, and with zero gaps a class arrives twice at one time; the
    lower class takes each tie, as the per-event loop did, also where a
    class's next block starts at the time its last one ended."""
    monkeypatch.setattr("mccsma.dynamics.stream", _shared_arrival_stream)
    bowtie = load_scenario("bowtie")
    traffic = TrafficSpec.of(0.3, 1.0, 5)
    make_model = _separated_model(bowtie.network, bowtie.csma, traffic, "standard_infra")
    traj, ref = _run_against_reference(make_model, traffic,
                                       SimConfig("standard_infra", 2_000.0, 38, (0,) * 5),
                                       _shared_arrival_stream)
    assert traj.arrivals[0] > 4 * BLOCK and len(set(traj.arrivals)) == 1
    assert ref.ties >= 4 * traj.arrivals[0]


def _count_arrival_blocks(monkeypatch) -> Counter:
    """Make ``stream`` count, per class, the blocks drawn from arrival
    streams; returns the counter."""
    blocks = Counter()

    class Counting:
        def __init__(self, klass, rng):
            self.klass, self.rng = klass, rng

        def standard_exponential(self, size):
            blocks[self.klass] += 1
            return self.rng.standard_exponential(size)

    def counting_stream(seed, kind, klass=0, replication=0):
        rng = stream(seed, kind, klass, replication)
        return Counting(klass, rng) if kind == "arrival" else rng

    monkeypatch.setattr("mccsma.dynamics.stream", counting_stream)
    return blocks


def test_arrival_read_ahead_stays_bounded(monkeypatch):
    """Under a 1,000:1 rate ratio each class draws at most its arrivals /
    ``BLOCK`` + 2 blocks of arrival times: only the class whose last drawn
    time bounds the merge draws again. A class that never arrives draws
    nothing."""
    blocks = _count_arrival_blocks(monkeypatch)
    spec = NetworkSpec(3, 1, replicate_graph(1, range(3), [(0, 1)]))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec((1.0, 0.001, 0.0), (0.2, 0.2, 0.2))
    traj = simulate_separated(spec, params, traffic,
                              SimConfig("adhoc", 20_000.0, 39, (0, 0, 1)))
    assert traj.arrivals[0] > 100 * BLOCK and traj.arrivals[1] > 0
    for k in range(3):
        assert blocks[k] <= traj.arrivals[k] / BLOCK + 2
    assert blocks[1] <= 2 and blocks[2] == 0


def test_arrivals_stop_at_the_horizon(monkeypatch):
    """Bounded by a horizon, the arrivals are the unbounded ones before it,
    then (inf, -1): at a horizon equal to a drawn arrival time, one before
    the first arrival, one spanning many blocks under a 1,000:1 rate ratio
    and with a class that never arrives. A horizon inside the first block
    draws one block per arriving class and no more."""
    cases = [((0.5, 0.8, 0.3), 40), ((0.5, 0.0, 0.3), 42), ((1.0, 0.001, 0.0), 41)]
    for lam, seed in cases:
        pairs = list(itertools.islice(_arrivals(seed, 3, lam), 200))
        horizons = [pairs[0][0] / 2, pairs[17][0], pairs[-1][0]]
        if lam[1] == 0.001:
            horizons.append(20_000.0)
        for horizon in horizons:
            expected = list(itertools.takewhile(lambda p: p[0] < horizon,
                                                _arrivals(seed, 3, lam)))
            # a pair more than the bound gives, should it go on past its end
            bounded = itertools.islice(_arrivals(seed, 3, lam, horizon), len(expected) + 2)
            assert list(bounded) == [*expected, (math.inf, -1)]
        # by the last horizon every class of positive rate has arrived
        assert {k for _, k in expected} == {k for k, r in enumerate(lam) if r > 0}
    # the last horizon, 20,000, spans over 100 of class 0's blocks
    assert sum(k == 0 for _, k in expected) > 100 * BLOCK

    blocks = _count_arrival_blocks(monkeypatch)
    bounded = list(itertools.islice(_arrivals(43, 0, (1.0, 0.001, 0.0), 10.0), 2 * BLOCK))
    assert 2 < len(bounded) < BLOCK and bounded[-1] == (math.inf, -1)
    assert blocks == Counter({0: 1, 1: 1})


def test_stream_equals_a_seed_sequence_generator():
    """``stream`` keys Philox from the two key words of the stream's seed
    sequence: the same generator as ``Philox(SeedSequence(...))``, and a
    new one on every call, so two runs never share one."""
    rng = np.random.default_rng(13)
    for _ in range(300):
        seed = int(rng.integers(0, 2**63)) * int(rng.integers(1, 3))
        kind = ("arrival", "holding", "uniform", "bootstrap")[int(rng.integers(4))]
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
