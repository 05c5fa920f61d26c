import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ap_line3, bad_state_message, bipartite33, bowtie_spec,
                      empty_schedule, random_instance)
from mccsma.oracles import schedule_rows
from mccsma.schedule import ScheduleSpaceError, enumerate_feasible
from mccsma.topology import ChannelGraph, CsmaParams, NetworkSpec, replicate_graph
from theory import (activity_marginals, alpha_limit_distribution, lemma_gap_bound,
                    log_weight_u, max_weight)


def brute_force_feasible(spec: NetworkSpec, flows) -> set[tuple[tuple[int, ...], ...]]:
    """Oracle: filter every binary matrix by the feasibility definition."""
    K, J = spec.num_classes, spec.num_channels
    out = set()
    for bits in itertools.product((0, 1), repeat=K * J):
        rows = tuple(tuple(bits[k * J:(k + 1) * J]) for k in range(K))
        ok = True
        for j in range(J):
            active = [k for k in range(K) if rows[k][j]]
            for k in active:
                if k not in spec.channel_graphs[j].eligible:
                    ok = False
            for a_i, a in enumerate(active):
                for b in active[a_i + 1:]:
                    if spec.channel_graphs[j].conflicts(a, b):
                        ok = False
        per_class = [sum(r) for r in rows]
        if flows is not None:
            ok = ok and all(per_class[k] <= flows[k] for k in range(K))
        for ap in spec.access_points:
            if sum(per_class[k] for k in ap.downlink) > 1:
                ok = False
        if ok:
            out.add(rows)
    return out


def test_single_class_two_channels_one_flow():
    spec = NetworkSpec(1, 2, replicate_graph(2, [0], []))
    scheds = enumerate_feasible(spec, (1,))
    assert schedule_rows(scheds) == [((0, 0),), ((0, 1),), ((1, 0),)]
    # with two flows both channels may be used at once
    assert len(enumerate_feasible(spec, (2,))) == 4


def test_bowtie_schedule_count_matches_brute_force(bowtie):
    expected = brute_force_feasible(bowtie, None)
    got = schedule_rows(enumerate_feasible(bowtie))
    assert set(got) == expected
    assert len(got) == 67          # frozen regression constant
    assert got == sorted(got)
    assert got[0] == empty_schedule(5, 2)


def test_bipartite_schedules_are_one_sided_blocks():
    spec = bipartite33()
    scheds = enumerate_feasible(spec, (9,) * 6)
    for s in schedule_rows(scheds):
        active = {k for k, row in enumerate(s) if any(row)}
        assert active <= {0, 1, 2} or active <= {3, 4, 5}
    assert len(scheds) == 2 ** 3 + 2 ** 3 - 1


def without_intra_ap_edges(spec: NetworkSpec) -> NetworkSpec:
    """``spec`` with no conflict between two classes of one access point, a
    spec that ``validate_spec`` rejects: only the access-point budget then
    keeps two downlinks of one access point apart."""
    ap_of = {k: i for i, ap in enumerate(spec.access_points) for k in ap.classes}
    graphs = tuple(ChannelGraph.of(g.eligible, [(a, b) for a, b in g.edges
                                                if a not in ap_of or ap_of[a] != ap_of.get(b)])
                   for g in spec.channel_graphs)
    return dataclasses.replace(spec, channel_graphs=graphs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.booleans(), st.booleans())
def test_enumeration_matches_brute_force(seed, infra, drop_intra_ap):
    rng = np.random.default_rng(seed)
    spec, _, flows = random_instance(rng, infrastructure=infra)
    if drop_intra_ap:
        spec = without_intra_ap_edges(spec)
    ss = enumerate_feasible(spec, flows)
    # the row order is part of the contract: every sum over schedules follows it
    assert schedule_rows(ss) == sorted(brute_force_feasible(spec, flows))
    assert np.array_equal(ss.per_class, ss.active.sum(axis=2))
    assert not ss.active[0].any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_state_monotonicity(seed):
    rng = np.random.default_rng(seed)
    spec, _, flows = random_instance(rng, infrastructure=False)
    bigger = tuple(f + int(rng.integers(0, 3)) for f in flows)
    small = set(schedule_rows(enumerate_feasible(spec, flows)))
    large = set(schedule_rows(enumerate_feasible(spec, bigger)))
    assert small <= large
    unbounded = set(schedule_rows(enumerate_feasible(spec, None)))
    assert large <= unbounded
    saturated = tuple(spec.num_channels for _ in flows)
    assert set(schedule_rows(enumerate_feasible(spec, saturated))) == unbounded


@pytest.mark.parametrize("spec, state", [
    (bowtie_spec(), (-1, 0, 0, 0, 0)), (ap_line3(), (-1, 0, 0)), (ap_line3(), (1.7, 0, 0)),
    (ap_line3(), [0, 2, 0.5])])
def test_enumeration_rejects_negative_and_fractional_counts(spec, state):
    with pytest.raises(ValueError, match=bad_state_message(state)):
        enumerate_feasible(spec, state)


def test_capacity_guard_raises():
    free4 = NetworkSpec(4, 2, replicate_graph(2, range(4), []))
    # ring C_16 on two channels: about 4.9M schedules, refused long before that
    ring16 = NetworkSpec(16, 2, replicate_graph(2, range(16),
                                                [(k, (k + 1) % 16) for k in range(16)]))
    # 40 compatible classes on one channel: 2^40 subsets, refused after 11
    free40 = NetworkSpec(40, 1, replicate_graph(1, range(40), []))
    for spec, limit in ((free4, 10), (ring16, 10_000), (free40, 10)):
        with pytest.raises(ScheduleSpaceError):
            enumerate_feasible(spec, None, max_schedules=limit)


# --- uniform weights ---

def test_weight_of_empty_schedule_is_zero():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], []))
    params = CsmaParams.from_alpha(spec, 2.0)
    assert log_weight_u((5, 7), empty_schedule(2, 1), params) == 0.0


def test_weight_single_factor():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 3.0)
    assert log_weight_u((2,), ((1,),), params) == pytest.approx(math.log(6))


def test_weight_two_classes_two_channels():
    spec = NetworkSpec(2, 2, replicate_graph(2, [0, 1], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    sched = ((1, 0), (1, 1))                 # class 1 once, class 2 on both channels
    assert log_weight_u((2, 5), sched, params) == pytest.approx(math.log(50))


def test_max_weight_empty_state():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    value, arg = max_weight((0, 0), params, spec)
    assert value == 0.0 and arg == empty_schedule(2, 1)


def test_max_weight_channel_tie_breaks_to_first_channel():
    # one flow: activation capped at a single link, both channels weigh the
    # same, and the tie resolves to the lowest channel index
    spec = NetworkSpec(1, 2, replicate_graph(2, [0], []))
    params = CsmaParams.from_alpha(spec, 10.0)
    value, arg = max_weight((1,), params, spec)
    assert value == pytest.approx(math.log(10))
    assert arg == ((1, 0),)


def test_max_weight_uses_both_channels_when_flows_allow():
    spec = NetworkSpec(1, 2, replicate_graph(2, [0], []))
    params = CsmaParams.from_alpha(spec, 2.0)
    value, arg = max_weight((5,), params, spec)
    assert value == pytest.approx(2 * math.log(10))
    assert arg == ((1, 1),)


def test_restricted_equals_unrestricted_at_saturated_states():
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec, params, _ = random_instance(rng, infrastructure=False)
        state = tuple(spec.num_channels + int(rng.integers(0, 3))
                      for _ in range(spec.num_classes))
        r_val, r_arg = max_weight(state, params, spec, "restricted")
        u_val, u_arg = max_weight(state, params, spec, "unrestricted")
        assert r_val == pytest.approx(u_val)
        assert r_arg == u_arg


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.25, 4.0))
def test_maximizers_per_cardinality_invariant_under_alpha_scaling(seed, factor):
    rng = np.random.default_rng(seed)
    spec, params, flows = random_instance(rng, infrastructure=False)
    flows = tuple(max(f, 1) for f in flows)
    scaled = CsmaParams(params.phys_rate,
                        tuple(factor * v for v in params.attempt_rate),
                        params.probe_prob)
    schedules = schedule_rows(enumerate_feasible(spec, flows))
    # scaling shifts every log-weight by (total links) * log(factor), so the
    # maximizer set within each cardinality group is unchanged
    for s in schedules:
        base = log_weight_u(flows, s, params)
        shifted = log_weight_u(flows, s, scaled)
        total = sum(map(sum, s))
        assert shifted - base == pytest.approx(total * math.log(factor), abs=1e-9)
    by_total: dict[int, list] = {}
    for s in schedules:
        by_total.setdefault(sum(map(sum, s)), []).append(s)
    for group in by_total.values():
        w_base = {s: log_weight_u(flows, s, params) for s in group}
        w_scaled = {s: log_weight_u(flows, s, scaled) for s in group}
        top_base = max(w_base.values())
        top_scaled = max(w_scaled.values())
        best_base = {s for s, w in w_base.items() if w >= top_base - 1e-9}
        best_scaled = {s for s, w in w_scaled.items() if w >= top_scaled - 1e-9}
        assert best_base == best_scaled


def test_gap_bound_zero_for_single_channel():
    spec = NetworkSpec(3, 1, replicate_graph(1, range(3), [(0, 1)]))
    params = CsmaParams.from_alpha(spec, 0.7)
    assert lemma_gap_bound(params, 1) == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_unrestricted_max_within_constructive_bound(seed):
    rng = np.random.default_rng(seed)
    spec, params, flows = random_instance(rng, infrastructure=False)
    u_val, _ = max_weight(flows, params, spec, "restricted")
    v_val, _ = max_weight(flows, params, spec, "unrestricted")
    assert v_val >= u_val - 1e-12
    assert v_val - u_val <= lemma_gap_bound(params, spec.num_channels) + 1e-9


# --- infinite attempt-rate limit ---

def test_alpha_limit_single_class_point_mass():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 5.0)
    dist = alpha_limit_distribution(spec, (3,), params)
    assert dist == {((1,),): Fraction(1)}


def test_alpha_limit_requires_equal_ratios():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))
    params = CsmaParams.from_alpha(spec, [1.0, 2.0])
    with pytest.raises(ValueError, match="equal"):
        alpha_limit_distribution(spec, (1, 1), params)


def test_alpha_limit_bowtie_three_present(bowtie):
    params = CsmaParams.from_alpha(bowtie, 10.0)
    dist = alpha_limit_distribution(bowtie, (1, 1, 1, 0, 0), params, "standard_infra")
    marginals = activity_marginals(dist, 5)
    assert marginals == (Fraction(2, 3), Fraction(2, 3), Fraction(2, 3),
                         Fraction(0), Fraction(0))


def test_alpha_limit_support_independent_of_probing(bowtie):
    params_uniform = CsmaParams.from_alpha(bowtie, 3.0)
    skew = tuple((0.125, 0.875) for _ in range(5))
    params_skew = CsmaParams.from_alpha(bowtie, 3.0, probe_prob=skew)
    state = (1, 1, 1, 1, 0)
    support_u = set(alpha_limit_distribution(bowtie, state, params_uniform,
                                             "standard_infra"))
    support_s = set(alpha_limit_distribution(bowtie, state, params_skew,
                                             "standard_infra"))
    assert support_u == support_s

