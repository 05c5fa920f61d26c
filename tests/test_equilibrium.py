import importlib
import itertools
import math
import types

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from conftest import bad_state_message, bowtie_spec, empty_schedule, random_instance
from mccsma.equilibrium import LOG_FACTORIAL_CAP, PolicyEvaluator
from mccsma.oracles import schedule_rows
from mccsma.schedule import enumerate_feasible
from mccsma.topology import (AccessPoint, CsmaParams, NetworkSpec, replicate_graph)
from oracles import packet_level_generator, stationary_distribution
from theory import (alpha_limit_distribution, detailed_balance_check, lemma1_check,
                    stationary_log_weights)


def evaluate(state, params, spec, policy):
    """The evaluator's result at ``state``, its distribution keyed by
    schedule rows."""
    res = PolicyEvaluator(spec, params, policy).equilibrium(state)
    return res, dict(zip(schedule_rows(res.schedules), res.probabilities.tolist()))


def policies_for(spec):
    return ("standard_infra", "flow_aware") if spec.is_infrastructure else ("adhoc",)


def closed_form_distribution(state, params, spec, policy):
    lw = stationary_log_weights(state, params, spec, policy)
    scheds = sorted(lw)
    vals = np.array([lw[s] for s in scheds])
    return scheds, np.exp(vals - logsumexp(vals))


# --- measure values on hand-computed cases ---

def test_empty_schedule_has_unit_weight():
    # every policy's measure gives the empty schedule weight exactly one
    rng = np.random.default_rng(0)
    for infra in (False, True):
        for _ in range(10):
            spec, params, state = random_instance(rng, infrastructure=infra)
            empty = empty_schedule(spec.num_classes, spec.num_channels)
            for policy in policies_for(spec):
                assert stationary_log_weights(state, params, spec, policy)[empty] == 0.0


def test_adhoc_single_class_weight():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 2.0)
    lw = stationary_log_weights((3,), params, spec, "adhoc")
    # three flows, one active: falling factorial 3, ratio 2, probe 1
    assert lw[((1,),)] == pytest.approx(math.log(6))
    assert lw[((0,),)] == pytest.approx(0.0)


def test_adhoc_two_channel_weights():
    spec = NetworkSpec(1, 2, replicate_graph(2, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    lw = stationary_log_weights((2,), params, spec, "adhoc")
    assert lw[((1, 0),)] == pytest.approx(math.log(1.0))   # 2 * 1 * 1/2
    assert lw[((0, 1),)] == pytest.approx(math.log(1.0))
    assert lw[((1, 1),)] == pytest.approx(math.log(0.5))   # 2*1 * 1 * 1/4


def test_downlink_activation_odds_independent_of_backlog():
    # one access point, one downlink class: the shared-queue bias
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []),
                       (AccessPoint.of([], [0]),))
    params = CsmaParams.from_alpha(spec, 1.5)
    for n in (1, 2, 5, 40):
        lw = stationary_log_weights((n,), params, spec, "standard_infra")
        ratio = lw[((1,),)] - lw[((0,),)]
        assert ratio == pytest.approx(math.log(1.5), abs=1e-9)


def test_all_empty_state_gives_point_mass():
    spec = bowtie_spec()
    params = CsmaParams.from_alpha(spec, 2.0)
    res, dist = evaluate((0,) * 5, params, spec, "standard_infra")
    assert dist == {empty_schedule(5, 2): pytest.approx(1.0)}
    assert np.allclose(res.throughput, 0.0)


def test_single_link_fifty_fifty():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0, phys_rate=3.0)
    res, dist = evaluate((1,), params, spec, "adhoc")
    assert dist[((1,),)] == pytest.approx(0.5)
    assert res.throughput[0] == pytest.approx(1.5)


def test_equilibrium_result_invariants():
    rng = np.random.default_rng(5)
    for infra in (False, True):
        for _ in range(15):
            spec, params, state = random_instance(rng, infrastructure=infra)
            for policy in policies_for(spec):
                res, dist = evaluate(state, params, spec, policy)
                total = sum(dist.values())
                assert total == pytest.approx(1.0, abs=1e-12)
                J = spec.num_channels
                for k in range(spec.num_classes):
                    assert -1e-12 <= res.throughput[k] <= J * params.phys_rate[k] + 1e-9
                    if state[k] == 0:
                        assert res.throughput[k] == 0.0


# --- oracle equivalence and balance ---

def test_distribution_matches_generator_nullspace():
    rng = np.random.default_rng(123)
    checked = 0
    for infra in (False, True):
        for _ in range(15):
            spec, params, state = random_instance(rng, infrastructure=infra)
            for policy in policies_for(spec):
                scheds, q = packet_level_generator(state, params, spec, policy)
                pi = stationary_distribution(q)
                closed_scheds, closed = closed_form_distribution(state, params, spec,
                                                                 policy)
                assert closed_scheds == scheds
                assert 0.5 * np.abs(pi - closed).sum() < 1e-8
                checked += 1
    assert checked >= 30


def test_local_balance_residual_tiny():
    rng = np.random.default_rng(7)
    for infra in (False, True):
        for _ in range(10):
            spec, params, state = random_instance(rng, infrastructure=infra)
            for policy in policies_for(spec):
                assert detailed_balance_check(state, params, spec, policy) < 1e-10


def test_corrupted_weight_is_detected():
    spec = NetworkSpec(2, 2, replicate_graph(2, [0, 1], [(0, 1)]))
    params = CsmaParams.from_alpha(spec, 1.3)
    state = (2, 1)
    lw = stationary_log_weights(state, params, spec, "adhoc")
    target = ((1, 0), (0, 0))
    lw[target] += math.log(1.01)
    residual = detailed_balance_check(state, params, spec, "adhoc", log_weights=lw)
    assert residual >= 5e-3


# --- policy relations ---

def test_policies_coincide_when_ap_backlogs_at_most_one():
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(40):
        spec, params, state = random_instance(rng, infrastructure=True)
        totals = [sum(state[k] for k in ap.downlink) for ap in spec.access_points]
        if any(t > 1 for t in totals):
            state = list(state)
            for ap in spec.access_points:
                down = sorted(ap.downlink)
                for k in down:
                    state[k] = 0
                if down:
                    state[down[0]] = 1
            state = tuple(state)
        _, p_std = closed_form_distribution(state, params, spec, "standard_infra")
        _, p_fa = closed_form_distribution(state, params, spec, "flow_aware")
        assert np.allclose(p_std, p_fa, atol=1e-12)
        found += 1
    assert found == 40


def test_large_alpha_concentrates_on_limit_support():
    spec = bowtie_spec()
    params = CsmaParams.from_alpha(spec, 1e6)
    state = (1, 1, 1, 1, 1)
    _, dist = evaluate(state, params, spec, "standard_infra")
    limit = alpha_limit_distribution(spec, state, params, "standard_infra")
    mass_on_support = sum(dist[s] for s in limit)
    assert mass_on_support > 1 - 1e-4
    for s, p in limit.items():
        assert dist[s] == pytest.approx(float(p), abs=1e-4)


# --- concentration check ---

def test_lemma1_zero_state_holds():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))
    params = CsmaParams.from_alpha(spec, 1.0)
    rep = lemma1_check((0, 0), params, spec, epsilon=0.1)
    assert rep.holds and rep.mean_log_u == 0.0 and rep.max_log_u == 0.0


def test_lemma1_single_class_large_state():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    rep = lemma1_check((1000,), params, spec, epsilon=0.1)
    assert rep.holds
    # two-schedule computation: pi(active) = 1000/1001
    expect = (1000 / 1001) * math.log(1000)
    assert rep.mean_log_u == pytest.approx(expect, rel=1e-9)
    assert rep.max_log_u == pytest.approx(math.log(1000))


def test_lemma1_rejects_shared_queue_policy():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []), (AccessPoint.of([], [0]),))
    params = CsmaParams.from_alpha(spec, 1.0)
    with pytest.raises(ValueError):
        lemma1_check((1,), params, spec, 0.1, policy="standard_infra")


# --- the share form, its throughput key and the log-factorial table ---

def lgamma_log_weights(spec, params, policy, state, schedules=None):
    """Each schedule's log weight in the share form with every factorial from
    lgamma on floats: the evaluator's expression without its log-factorial
    table or its throughput key. A class alone at its access point has
    share 1.0 or 0.0 and term 0, so only access points with two or more
    downlink classes get a share term. ``schedules`` may pass in the
    feasible set at ``state``."""
    if schedules is None:
        schedules = enumerate_feasible(spec, state)
    per_class = schedules.per_class
    log_beta = np.log(np.where(params.beta > 0, params.beta, 1.0))
    const = per_class @ np.log(params.alpha)
    const = const + np.einsum("skj,kj->s", schedules.active, log_beta)
    downlink = [k for ap in spec.access_points for k in ap.downlink
                if policy == "standard_infra"]
    plain = [k for k in range(spec.num_classes) if k not in downlink]
    groups = [sorted(ap.downlink) for ap in spec.access_points
              if len(ap.downlink) > 1 and policy == "standard_infra"]
    shared = [k for g in groups for k in g]
    if plain:
        x = np.asarray([state[k] for k in plain], dtype=np.float64)
        logw = (gammaln(x + 1.0).sum()
                - gammaln(x[None, :] - per_class[:, plain] + 1.0).sum(axis=1)
                + const)
    else:
        logw = const.copy()
    if shared:
        log_share = []
        for g in groups:
            total = sum(state[k] for k in g)
            log_share += [math.log(state[k] / total) if state[k] else 0.0 for k in g]
        logw += per_class[:, shared].astype(np.float64) @ np.array(log_share)
    return per_class, logw


def falling_factorial_log_weights(spec, params, policy, state):
    """The falling-factorial form: x_k! / (x_k - y_k)! for every class, times
    (S_i - a_i)! per access point under the shared-queue policy."""
    schedules = enumerate_feasible(spec, state)
    per_class = schedules.per_class
    log_beta = np.log(np.where(params.beta > 0, params.beta, 1.0))
    const = per_class @ np.log(params.alpha)
    const = const + np.einsum("skj,kj->s", schedules.active, log_beta)
    x = np.asarray(state, dtype=np.float64)
    logw = (gammaln(x + 1.0).sum()
            - gammaln(x[None, :] - per_class + 1.0).sum(axis=1)
            + const)
    if policy == "standard_infra":
        members = [np.array(sorted(ap.downlink), dtype=np.int64)
                   for ap in spec.access_points]
        totals = np.array([x[m].sum() for m in members])
        ap_active = np.stack([per_class[:, m].sum(axis=1) for m in members], axis=1)
        logw = logw + gammaln(totals[None, :] - ap_active + 1.0).sum(axis=1)
    return per_class, logw


def normalized(logw):
    return np.exp(logw - logsumexp(logw))


def test_share_form_matches_falling_factorial_form():
    rng = np.random.default_rng(2718)
    bowtie = (bowtie_spec(), CsmaParams.from_alpha(bowtie_spec(), 2.0), None)
    cases = 0
    for i in range(61):
        spec, params, _ = (random_instance(rng, infrastructure=i % 2 == 1)
                           if i < 60 else bowtie)
        K = spec.num_classes
        states = [tuple(int(v) for v in rng.integers(0, 40, K)) for _ in range(6)]
        states += [(0,) * K, tuple(int(v) for v in rng.integers(0, 3, K))]
        for policy in policies_for(spec):
            for state in states:
                _, old = falling_factorial_log_weights(spec, params, policy, state)
                _, new = lgamma_log_weights(spec, params, policy, state)
                assert np.allclose(normalized(new), normalized(old), rtol=0, atol=1e-12)
                cases += 1
    assert cases == 8 * (30 + 2 * 31)


def box_instances():
    """Random instances, every one with some downlink class, plus the
    bow-tie and a two-access-point layout with two downlink classes and one
    uplink class each."""
    rng = np.random.default_rng(1618)
    found = 0
    while found < 25:
        spec, params, _ = random_instance(rng, infrastructure=True)
        if any(ap.downlink for ap in spec.access_points):
            found += 1
            yield spec, params
    yield bowtie_spec(), CsmaParams.from_alpha(bowtie_spec(), 2.0)
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    two_ap = NetworkSpec(6, 2, replicate_graph(2, range(6), edges),
                         (AccessPoint.of([1], [0, 2]), AccessPoint.of([4], [3, 5])))
    yield two_ap, CsmaParams.from_alpha(two_ap, 1.0)
    for spec, params, _ in (random_instance(rng, infrastructure=False) for _ in range(5)):
        yield spec, params


def test_equal_throughput_keys_give_bit_identical_throughput():
    merged = two_class_merged = 0
    for spec, params in box_instances():
        K = spec.num_classes
        two_class = [sorted(ap.downlink) for ap in spec.access_points
                     if len(ap.downlink) >= 2]
        box = ({5: 3, 6: 2}.get(K, 4),) * K
        for policy in ("adhoc",) if not spec.is_infrastructure else (
                "standard_infra", "flow_aware"):
            ev = PolicyEvaluator(spec, params, policy)
            by_key, by_caps = {}, {}
            for x in itertools.product(*(range(b + 1) for b in box)):
                caps = tuple(min(v, spec.num_channels) for v in x)
                if caps not in by_caps:
                    by_caps[caps] = enumerate_feasible(spec, caps)
                per_class, logw = lgamma_log_weights(spec, params, policy, x,
                                                     by_caps[caps])
                w = np.exp(logw - logw.max())
                expected = params.phi * ((w / w.sum()) @ per_class)
                assert np.array_equal(ev.throughput(x), expected)
                by_key.setdefault(ev.throughput_key(x), []).append((x, expected))
            if policy != "standard_infra":
                # every class is plain: no two states share a key
                assert len(by_key) == np.prod(np.add(box, 1))
            for members in by_key.values():
                x0, first = members[0]
                for x, value in members[1:]:
                    assert np.array_equal(value, first), (policy, x0, x)
                    merged += 1
                    if policy == "standard_infra" and any(
                            [x[k] for k in g] != [x0[k] for k in g] for g in two_class):
                        two_class_merged += 1
    # the key merges states, some of them with different two-class counts
    assert merged > 4000 and two_class_merged > 1000


def test_bad_flow_counts_are_rejected_before_enumeration(monkeypatch):
    eq = importlib.import_module("mccsma.equilibrium")

    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a bad state")

    monkeypatch.setattr(eq, "enumerate_feasible", no_enumeration)
    spec = bowtie_spec()
    params = CsmaParams.from_alpha(spec, 2.0)
    for policy in ("standard_infra", "flow_aware"):
        ev = PolicyEvaluator(spec, params, policy)
        for state in ((-1, 2, 0, 0, 1), (0, 0, 0, 0, -3), (1, 2, 3), (1,) * 6,
                      (math.nan, 1, 1, 1, 1), (1.5, 1, 1, 1, 1), (math.inf, 1, 1, 1, 1)):
            for call in (ev.throughput_key, ev.log_weights, ev.equilibrium,
                         ev.throughput):
                for given in (state, list(state)):
                    with pytest.raises(ValueError, match=bad_state_message(state)):
                        call(given)
    assert not ev._bundles


def test_package_attribute_equilibrium_is_the_module():
    import mccsma

    assert isinstance(mccsma.equilibrium, types.ModuleType)
    assert not hasattr(mccsma, "Schedule")


def test_table_factorials_are_bit_identical_to_lgamma():
    rng = np.random.default_rng(314)
    # a layout of both flow-models workloads: access point k serves class k
    bowtie = (bowtie_spec(), CsmaParams.from_alpha(bowtie_spec(), 2.0), (4, 0, 7, 1, 2))
    cases = 0
    for i in range(31):
        spec, params, small = (random_instance(rng, infrastructure=i % 2 == 1)
                               if i < 30 else bowtie)
        K = spec.num_classes
        # flow totals below, at and above the table cap
        states = [small] + [tuple(int(v) for v in rng.multinomial(n, [1 / K] * K))
                            for n in (LOG_FACTORIAL_CAP - 1, LOG_FACTORIAL_CAP,
                                      3 * LOG_FACTORIAL_CAP)]
        for policy in policies_for(spec):
            ev = PolicyEvaluator(spec, params, policy)
            for state in states:
                per_class, logw = lgamma_log_weights(spec, params, policy, state)
                w = np.exp(logw - logw.max())
                throughput = params.phi * ((w / w.sum()) @ per_class)
                log_z = float(logsumexp(logw))
                probs = np.exp(logw - log_z)
                assert np.array_equal(ev.log_weights(state)[1], logw)
                assert np.array_equal(ev.throughput(state), throughput)
                # tuples of other count types: integral floats and NumPy ints
                # count as their ints
                for other in (tuple(float(v) for v in state),
                              tuple(np.int64(v) for v in state)):
                    assert np.array_equal(ev.log_weights(other)[1], logw)
                    assert np.array_equal(ev.throughput(other), throughput)
                res = ev.equilibrium(list(state))
                assert np.array_equal(res.schedules.active, ev.log_weights(state)[0].active)
                assert np.array_equal(res.probabilities, probs)
                assert np.array_equal(res.throughput, params.phi * (probs @ per_class))
                cases += 1
    assert cases == 4 * 47


def test_huge_flow_count_skips_the_table(monkeypatch):
    arange = np.arange

    def guarded_arange(n, *args, **kwargs):
        assert n <= LOG_FACTORIAL_CAP, f"table of {n} entries"
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded_arange)
    # downlink classes 0 and 1 share the access point's queue under
    # standard_infra, so there only the uplink class 2 takes factorials
    spec = NetworkSpec(3, 1, replicate_graph(1, [0, 1, 2], [(0, 1), (0, 2), (1, 2)]),
                       (AccessPoint.of([2], [0, 1]),))
    params = CsmaParams.from_alpha(spec, 1.0)
    for policy in ("standard_infra", "flow_aware"):
        ev = PolicyEvaluator(spec, params, policy)
        for state in ((10**9, 3, 2), (3, 10**9, 1), (2, 3, 10**9),
                      (LOG_FACTORIAL_CAP - 4, 3, 0), (1, 1, LOG_FACTORIAL_CAP - 1)):
            per_class, logw = lgamma_log_weights(spec, params, policy, state)
            got = ev.log_weights(state)[1]
            assert np.all(np.isfinite(got)) and np.array_equal(got, logw)
        assert len(ev._log_factorial) == LOG_FACTORIAL_CAP


def _cap_pattern_cases():
    """Every bundled scenario under each of its policies, then random
    instances, ad hoc and infrastructure."""
    from mccsma.scenario import bundled_scenarios, load_scenario

    for name in bundled_scenarios():
        s = load_scenario(name)
        for policy in policies_for(s.network):
            yield s.network, s.csma, policy
    rng = np.random.default_rng(31)
    for i in range(12):
        spec, params, _ = random_instance(rng, infrastructure=i % 2 == 1)
        yield spec, params, policies_for(spec)[i // 2 % len(policies_for(spec))]


def test_filtered_bundles_equal_per_pattern_enumeration():
    """Each cap pattern's set, filtered from the uncapped one, holds the
    rows that enumerating the pattern gives, in the same order."""
    patterns = 0
    for spec, params, policy in _cap_pattern_cases():
        ev = PolicyEvaluator(spec, params, policy)
        J = spec.num_channels
        for caps in itertools.product(range(J + 1), repeat=spec.num_classes):
            got = ev._bundle(caps)["schedules"]
            want = enumerate_feasible(spec, caps)
            assert got.active.dtype == want.active.dtype
            assert np.array_equal(got.active, want.active), (spec, caps)
            assert np.array_equal(got.per_class, want.per_class)
            patterns += 1
    assert patterns > 2000


def test_small_caps_get_a_throughput_where_the_uncapped_set_is_too_large(monkeypatch):
    """With the enumeration guard lowered to 1,000 schedules, as in
    test_schedule_space_guard_holds_per_channel: 17 compatible classes on one
    channel have 2^17 uncapped schedules, more than the evaluator lists, so a
    state with flows in three classes is enumerated alone (8 schedules),
    while a state with flows in ten classes (1,024) still trips the guard."""
    from mccsma.equilibrium import UNCAPPED_MAX_SCHEDULES
    from mccsma.schedule import ScheduleSpaceError

    K = 17
    assert 2 ** K > UNCAPPED_MAX_SCHEDULES
    spec = NetworkSpec(K, 1, replicate_graph(1, range(K), []))
    params = CsmaParams.from_alpha(spec, 1.0)
    small = (2, 1, 5) + (0,) * (K - 3)
    expected = PolicyEvaluator(spec, params, "adhoc").throughput(small)
    monkeypatch.setitem(enumerate_feasible.__kwdefaults__, "max_schedules", 1000)
    ev = PolicyEvaluator(spec, params, "adhoc")
    assert np.array_equal(ev.throughput(small), expected)
    assert len(ev.log_weights(small)[0]) == 8
    with pytest.raises(ScheduleSpaceError):
        ev.throughput((1,) * 10 + (0,) * (K - 10))
