import json
import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (adhoc_path4, bipartite33, bowtie_spec, random_instance, star5,
                      tripartite221)
from mccsma import capacity
from mccsma.capacity import BOUNDARY_TOL, SolverError, margins, membership
from mccsma.cli import main
from mccsma.scenario import load_scenario
from mccsma.schedule import ScheduleSpaceError, enumerate_feasible
from mccsma.topology import (AccessPoint, ChannelGraph, CsmaParams, NetworkSpec,
                             replicate_graph, validate_spec)
from theory import lpartite_condition


def test_single_link_region():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    for rho, status in [(0.3, "interior"), (0.999999, "interior"),
                        (1.0, "boundary"), (1.5, "exterior")]:
        verdict = membership([rho], spec, params)
        assert verdict.status == status
        if status != "boundary":
            assert verdict.margin == pytest.approx(1.0 / rho - 1.0, abs=1e-9)


def test_zero_load_is_interior_with_infinite_margin(monkeypatch):
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))
    params = CsmaParams.from_alpha(spec, 1.0)
    verdict = membership([0.0, 0.0], spec, params)
    assert verdict.status == "interior"
    assert math.isinf(verdict.margin)
    # zero rows enumerate nothing: a network past the guard keeps its verdict
    monkeypatch.setitem(enumerate_feasible.__kwdefaults__, "max_schedules", 1000)
    large = NetworkSpec(10, 1, replicate_graph(1, range(10), []))
    params = CsmaParams.from_alpha(large, 1.0)
    assert membership([0.0] * 10, large, params) == membership([0.0, 0.0], spec, params)
    assert margins(np.zeros((2, 10)), large, params).tolist() == [math.inf] * 2
    with pytest.raises(ScheduleSpaceError):
        margins([[0.0] * 10, [0.1] + [0.0] * 9], large, params)


def test_bowtie_region_matches_closed_form(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    schedules = enumerate_feasible(bowtie)
    for r1 in np.linspace(0.0, 1.0, 14):
        for r3 in np.linspace(0.0, 1.0, 14):
            verdict = membership([r1, r1, r3, r1, r1], bowtie, params,
                                 schedules=schedules)
            if math.isinf(verdict.margin):
                continue
            expected_t = min(1.0 / r3 if r3 > 0 else math.inf,
                             2.0 / (2.0 * r1 + r3))
            assert verdict.margin == pytest.approx(expected_t - 1.0, abs=1e-9)


def test_multipartite_closed_form_values():
    spec = tripartite221()
    params = CsmaParams.from_alpha(spec, 1.0)
    verdict = lpartite_condition([0.2] * 5, spec, params)
    assert verdict.interior and verdict.slack == pytest.approx(0.4)

    zero = lpartite_condition([0.0] * 5, spec, params)
    assert zero.interior and zero.slack == pytest.approx(1.0)
    assert math.isinf(zero.multiplier)

    two_channel = bipartite33(channels=2)
    params2 = CsmaParams.from_alpha(two_channel, 1.0)
    loads = [1.2, 0.1, 0.1, 0.9, 0.2, 0.2]    # block maxima 1.2 and 0.9
    verdict2 = lpartite_condition(loads, two_channel, params2)
    assert not verdict2.interior
    assert verdict2.slack == pytest.approx(2.0 - 2.1)


def test_multipartite_rejects_other_graphs(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    with pytest.raises(ValueError, match="multipartite"):
        lpartite_condition([0.1] * 5, bowtie, params)


def test_multipartite_sum_adds_left_to_right():
    # a compensated sum (builtin sum on Python 3.12 and later) gives 0.4
    triangle = NetworkSpec(3, 1, replicate_graph(1, range(3), [(0, 1), (0, 2), (1, 2)]))
    verdict = lpartite_condition([0.1, 0.2, 0.3], triangle,
                                 CsmaParams.from_alpha(triangle, 1.0))
    assert verdict.slack == 0.3999999999999999


def test_lp_agrees_with_multipartite_closed_form():
    rng = np.random.default_rng(3)
    for spec in (star5(), bipartite33(), tripartite221(), bipartite33(channels=2)):
        params = CsmaParams.from_alpha(spec, 1.0)
        schedules = enumerate_feasible(spec)
        for _ in range(12):
            rho = rng.uniform(0.0, 0.9, spec.num_classes)
            lp = membership(rho, spec, params, schedules=schedules)
            closed = lpartite_condition(rho, spec, params)
            if math.isinf(lp.margin):
                assert math.isinf(closed.multiplier)
                continue
            assert lp.margin == pytest.approx(closed.multiplier - 1.0, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.25, 3.0))
def test_margin_scales_inversely_with_load(seed, c):
    rng = np.random.default_rng(seed)
    spec, params, _ = random_instance(rng, infrastructure=False)
    rho = rng.uniform(0.05, 1.0, spec.num_classes)
    t1 = membership(rho, spec, params).margin + 1.0
    t2 = membership(c * rho, spec, params).margin + 1.0
    assert t2 == pytest.approx(t1 / c, rel=1e-7)


def test_membership_is_deterministic(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    rho = [0.6, 0.6, 0.2, 0.6, 0.6]
    a = membership(rho, bowtie, params)
    b = membership(rho, bowtie, params)
    assert a.status == b.status and a.margin == b.margin


def test_load_shape_and_sign_validation(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    with pytest.raises(ValueError, match="expected 5"):
        membership([0.1, 0.2], bowtie, params)
    with pytest.raises(ValueError, match="nonnegative"):
        membership([-0.1, 0.2, 0.1, 0.1, 0.1], bowtie, params)


# The scalar simplex and the tableau over every schedule column, kept as they
# were before the pivot was vectorised and duplicate service vectors were
# dropped from the tableau: ``membership`` must match them bit for bit.
def _reference_simplex_max(tableau: np.ndarray, basis: list[int], *,
                           tol: float = 1e-11, max_iter: Optional[int] = None) -> float:
    m = tableau.shape[0] - 1
    n = tableau.shape[1] - 1
    if max_iter is None:
        max_iter = 100 * (n + m + 10)
    for _ in range(max_iter):
        reduced = tableau[m, :n]
        entering = -1
        for j in range(n):
            if reduced[j] > tol:
                entering = j
                break
        if entering < 0:
            return -tableau[m, n]
        col = tableau[:m, entering]
        best_ratio = math.inf
        leave_row = -1
        for r in range(m):
            if col[r] > tol:
                ratio = tableau[r, n] / col[r]
                if (ratio < best_ratio - tol
                        or (abs(ratio - best_ratio) <= tol
                            and (leave_row < 0 or basis[r] < basis[leave_row]))):
                    best_ratio = ratio
                    leave_row = r
        if leave_row < 0:
            raise SolverError("linear program unbounded; load vector malformed")
        pivot = tableau[leave_row, entering]
        tableau[leave_row] /= pivot
        for r in range(m + 1):
            if r != leave_row and tableau[r, entering] != 0.0:
                tableau[r] -= tableau[r, entering] * tableau[leave_row]
        basis[leave_row] = entering
    raise SolverError("simplex iteration limit exceeded")


def _reference_membership(rho, spec, params, schedules):
    """(status, margin) from the full-column scalar LP."""
    rho = np.asarray(rho, dtype=float)
    n_sched = len(schedules)
    positive = [k for k in range(spec.num_classes) if rho[k] > 0]
    if not positive:
        return "interior", math.inf

    per_class = schedules.per_class
    phi = params.phi
    m = 1 + len(positive)
    n = n_sched + 1 + len(positive)          # pi variables, t, slacks
    t_col = n_sched
    tableau = np.zeros((m + 1, n + 1))
    tableau[0, :n_sched] = 1.0
    tableau[0, n] = 1.0
    for r, k in enumerate(positive, start=1):
        tableau[r, :n_sched] = -phi[k] * per_class[:, k]
        tableau[r, t_col] = rho[k]
        tableau[r, n_sched + r] = 1.0
    tableau[m, t_col] = 1.0

    basis = [0] + [n_sched + r for r in range(1, m)]
    margin = _reference_simplex_max(tableau, basis) - 1.0
    if abs(margin) <= BOUNDARY_TOL:
        status = "boundary"
    elif margin > 0:
        status = "interior"
    else:
        status = "exterior"
    return status, margin


def _assert_matches_reference(rho, spec, params, schedules):
    """``membership`` against the reference; returns the reference status and
    ``membership``'s margin. On a network whose channels form one group, the
    LP is the reference's and must match it bit for bit; with more groups the
    status must match and the margin within 1e-12."""
    verdict = membership(rho, spec, params, schedules=schedules)
    status, margin = _reference_membership(rho, spec, params, schedules)
    assert verdict.status == status
    if len(capacity._channel_groups(spec)) == 1:
        assert verdict.margin == margin
    else:
        assert verdict.margin == pytest.approx(margin, rel=1e-12, abs=1e-12)
    return status, verdict.margin


def _assert_batch_matches(loads, expected, spec, params, rng):
    """One ``margins`` call on ``loads`` plus three zero rows, shuffled, must
    give ``membership``'s margins ``expected`` bit for bit."""
    rows = np.vstack([loads, np.zeros((3, spec.num_classes))])
    want = np.concatenate([expected, np.full(3, math.inf)])
    order = rng.permutation(len(rows))
    got = margins(rows[order], spec, params)
    assert got.tobytes() == want[order].tobytes()


def test_membership_matches_full_column_scalar_lp_on_bowtie_sweep(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    schedules = enumerate_feasible(bowtie)
    # 25 pi columns, one per distinct service vector, then t and 5 slacks
    block = capacity._constraint_block([schedules], params, np.arange(5))[0]
    assert (len(schedules), block.shape[1] - 1 - 1 - 5) == (67, 25)
    loads = [[r1, r1, r3, r1, r1]
             for r1 in np.linspace(0.0, 1.0, 20) for r3 in np.linspace(0.0, 1.0, 20)]
    statuses, expected = zip(*(_assert_matches_reference(rho, bowtie, params, schedules)
                               for rho in loads))
    assert set(statuses) == {"interior", "boundary", "exterior"}
    # the 361 rows that load every class need two stacks
    assert 361 > capacity._STACK_ENTRIES // block.size
    _assert_batch_matches(loads, expected, bowtie, params, np.random.default_rng(1))


def test_membership_matches_full_column_scalar_lp_on_random_instances(monkeypatch):
    # stacks of a few LPs, so that most batches span several stacks
    monkeypatch.setattr(capacity, "_STACK_ENTRIES", 300)
    rng = np.random.default_rng(20)
    for i in range(200):
        spec, params, _ = random_instance(rng, infrastructure=bool(i % 2))
        K = spec.num_classes
        schedules = enumerate_feasible(spec)
        rho = rng.uniform(0.0, 1.5, K) * (rng.random(K) < 0.75)
        expected = [_assert_matches_reference(rho, spec, params, schedules)[1]]
        # more rows of this instance, with their own zero patterns
        more = rng.uniform(0.0, 1.5, (5, K)) * (rng.random((5, K)) < 0.75)
        expected += [_assert_matches_reference(r, spec, params, schedules)[1]
                     for r in more]
        _assert_batch_matches(np.vstack([rho, more]), expected, spec, params, rng)


def test_membership_matches_full_column_scalar_lp_on_rings(monkeypatch):
    rng = np.random.default_rng(5)
    for K in range(5, 10):
        edges = [(k, (k + 1) % K) for k in range(K)]
        spec = NetworkSpec(K, 2, replicate_graph(2, range(K), edges))
        params = CsmaParams.from_alpha(spec, 1.0)
        schedules = enumerate_feasible(spec)
        assert len(np.unique(schedules.per_class, axis=0)) < len(schedules)
        loads = [[0.3] * K, rng.uniform(0.0, 0.6, K)]
        expected = [_assert_matches_reference(rho, spec, params, schedules)[1]
                    for rho in loads]
        # stacks of three LPs; full-load rows beyond one stack, and rows with
        # one idle class each (three positive-load patterns of the same size)
        block = capacity._constraint_block(capacity._group_sets(spec), params,
                                           np.arange(K))[0]
        monkeypatch.setattr(capacity, "_STACK_ENTRIES", 3 * block.size)
        full = rng.uniform(0.05, 0.6, (4, K))
        idle = rng.uniform(0.05, 0.6, (3, K))
        idle[range(3), rng.choice(K, 3, replace=False)] = 0.0
        for rho in np.vstack([full, idle]):
            loads.append(rho)
            expected.append(_assert_matches_reference(rho, spec, params, schedules)[1])
        _assert_batch_matches(np.array(loads), expected, spec, params, rng)


def test_distinct_columns_are_first_occurrences(bowtie):
    schedules = enumerate_feasible(bowtie)
    params = CsmaParams.from_alpha(bowtie, 1.0, phys_rate=[1.0, 2.0, 0.5, 1.5, 3.0])
    first = {}
    for i, row in enumerate(map(tuple, schedules.per_class.tolist())):
        first.setdefault(row, i)
    cols = sorted(first.values())
    block = capacity._constraint_block([schedules], params, np.arange(5))[0]
    # the convexity row, then per class -phi_k y_k over the columns, t, slacks
    assert block.shape == (1 + 5 + 1, len(cols) + 1 + 5 + 1)
    assert np.array_equal(block[1:6, :len(cols)],
                          -params.phi[:, None] * schedules.per_class[cols].T)


def test_non_finite_loads_are_rejected(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            membership([bad, 0.2, 0.1, 0.1, 0.1], bowtie, params)


def _tie_tableaus(rng, count: int) -> list[tuple[np.ndarray, list[int]]]:
    """Canonical tableaus of max c.x over A x <= b, x >= 0, sum x <= b_0, whose
    ratio tests meet exact ties, ties within the tolerance, and chains of
    ratios each within the tolerance of the next but not of the first."""
    m, n_x = 5, 6
    out = []
    for _ in range(count):
        tableau = np.zeros((m + 1, n_x + m + 1))
        tableau[0, :n_x] = 1.0
        tableau[1:m, :n_x] = rng.choice([0.0, 1.0, 1.0, 2.0], (m - 1, n_x))
        tableau[:m, n_x:n_x + m] = np.eye(m)
        tableau[:m, -1] = 1.0 + rng.choice([0.0, 0.4, 0.8, 1.6, 2.4, 5.0], m) * 1e-11
        tableau[m, :n_x] = rng.choice([1.0, 2.0, 3.0], n_x)
        out.append((tableau, list(range(n_x, n_x + m))))
    # column 0 enters first; rows 0 to 2 hold ratios 1 + 0.8e-11, 1 + 1.6e-11
    # and 1: the scan keeps row 0, though row 2 has the smallest ratio
    tableau, basis = out[0]
    tableau[1:m, 0] = [1.0, 1.0, 0.0, 0.0]
    tableau[:3, -1] = [1.0 + 0.8e-11, 1.0 + 1.6e-11, 1.0]
    tableau[m, :n_x] = 1.0
    return out


def test_stacked_simplex_takes_each_lps_own_pivots():
    lps = _tie_tableaus(np.random.default_rng(11), 60)
    tableaus = np.stack([t for t, _ in lps])
    basis = np.array([b for _, b in lps])
    optima = capacity._simplex_max(tableaus, basis)
    for i, (tableau, alone) in enumerate(lps):
        t_star = _reference_simplex_max(tableau, alone)
        assert optima[i] == t_star
        assert basis[i].tolist() == alone
        assert np.array_equal(tableaus[i], tableau)


def test_unbounded_lp_in_a_stack_raises():
    lps = _tie_tableaus(np.random.default_rng(12), 3)
    tableaus = np.stack([t for t, _ in lps])
    basis = np.array([b for _, b in lps])
    tableaus[1, :-1, 0] = -1.0               # column 0 enters and grows forever
    with pytest.raises(SolverError, match="unbounded"):
        capacity._simplex_max(tableaus, basis)


@pytest.mark.parametrize("check", [
    lambda rho, spec, params: membership(rho, spec, params),
    lambda rho, spec, params: margins([rho], spec, params),
], ids=["membership", "margins"])
@pytest.mark.parametrize("rho, match", [
    ([math.nan, 0.1, 0.1, 0.1, 0.1], "finite and nonnegative"),
    ([-5.0, 0.1, 0.1, 0.1, 0.1], "finite and nonnegative"),
    ([0.1] * 7, "expected 5 loads"),
])
def test_every_entry_checks_its_loads(check, rho, match):
    spec = tripartite221()
    with pytest.raises(ValueError, match=match):
        check(rho, spec, CsmaParams.from_alpha(spec, 1.0))


def test_schedules_of_another_shape_are_rejected(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    other = enumerate_feasible(adhoc_path4())
    with pytest.raises(ValueError, match=r"\(4, 2\).*\(5, 2\)"):
        membership([0.1] * 5, bowtie, params, schedules=other)


def _ring(K: int, J: int) -> NetworkSpec:
    return NetworkSpec(K, J, replicate_graph(J, range(K), [(k, (k + 1) % K) for k in range(K)]))


def _per_channel_aps(linked: bool) -> NetworkSpec:
    """Three access points on three channels. Each downlink class is eligible
    on its access point's channel only; the uplink class 5 is eligible on
    every channel, which links none. With ``linked``, downlink class 4 is
    also eligible on channel 0, which puts channels 0 and 2 in one group."""
    channel0 = (ChannelGraph.of([0, 1, 4, 5], [(0, 1), (1, 5), (4, 5)]) if linked
                else ChannelGraph.of([0, 1, 5], [(0, 1), (1, 5)]))
    graphs = (channel0, ChannelGraph.of([2, 3, 5], [(2, 3), (3, 5)]),
              ChannelGraph.of([4, 5], [(4, 5)]))
    aps = (AccessPoint.of([], [0, 1]), AccessPoint.of([], [2, 3]),
           AccessPoint.of([5], [4]))
    return NetworkSpec(6, 3, graphs, aps)


def test_channel_groups():
    groups = {name: capacity._channel_groups(load_scenario(name).network)
              for name in ("adhoc4", "bowtie", "two-ap")}
    assert groups == {"adhoc4": ((0,), (1,)), "bowtie": ((0, 1),), "two-ap": ((0, 1),)}
    assert capacity._channel_groups(_ring(7, 4)) == ((0,), (1,), (2,), (3,))
    assert capacity._channel_groups(_per_channel_aps(False)) == ((0,), (1,), (2,))
    assert capacity._channel_groups(_per_channel_aps(True)) == ((0, 2), (1,))


@pytest.mark.parametrize("linked", [False, True])
def test_grouped_infrastructure_lp_matches_reference(linked):
    spec = _per_channel_aps(linked)
    assert validate_spec(spec) == []
    params = CsmaParams.from_alpha(spec, 1.0, phys_rate=[1.0, 0.5, 2.0, 1.0, 1.5, 0.8])
    schedules = enumerate_feasible(spec)
    # the product of the groups' sets is the feasible set
    sizes = [len(s) for s in capacity._group_sets(spec)]
    assert len(schedules) == math.prod(sizes)
    rng = np.random.default_rng(8)
    loads = rng.uniform(0.0, 1.2, (40, 6)) * (rng.random((40, 6)) < 0.8)
    statuses, expected = zip(*(_assert_matches_reference(rho, spec, params, schedules)
                               for rho in loads))
    assert {"interior", "exterior"} <= set(statuses)
    _assert_batch_matches(loads, expected, spec, params, rng)


def test_multi_group_margins_match_reference_on_random_instances():
    rng = np.random.default_rng(30)
    cases = []
    while len(cases) < 40:
        spec, params, _ = random_instance(rng, infrastructure=False)
        if spec.num_channels > 1:
            cases.append((spec, params, rng.uniform(0.0, 1.0, spec.num_classes)))
    interior = 0
    for spec, params, rho in cases:
        assert len(capacity._channel_groups(spec)) > 1
        status, _ = _assert_matches_reference(rho, spec, params, enumerate_feasible(spec))
        interior += status == "interior"
    assert interior >= 20


def test_rings_beyond_the_product_enumeration(tmp_path, monkeypatch):
    """C_16 on two channels: 4.87M schedules in the product set, 2 x 2,207
    per-channel independent sets. The ring is bipartite, so the margin at
    loads a and b on alternate classes is J / (a + b) - 1, which is
    J floor(K/2) / (K rho) - 1 at a uniform load rho."""
    built = []

    def enumerate_and_count(*args, **kwargs):
        schedules = enumerate_feasible(*args, **kwargs)
        built.append(len(schedules))
        return schedules

    monkeypatch.setattr(capacity, "enumerate_feasible", enumerate_and_count)
    K, J, rho = 16, 2, 0.3
    spec = _ring(K, J)
    params = CsmaParams.from_alpha(spec, 1.0)
    verdict = membership([rho] * K, spec, params)
    assert verdict.margin == pytest.approx(J * (K // 2) / (K * rho) - 1.0, abs=1e-9)
    assert set(built) == {2207}

    edges = [[k + 1, (k + 1) % K + 1] for k in range(K)]
    scenario = tmp_path / "ring16.yaml"
    scenario.write_text(f"""
name: ring16
network: {{classes: {K}, channels: {J}, conflict_edges: {edges}, mode: adhoc}}
csma: {{phys_rate: 1.0, alpha: 1.0}}
traffic: {{arrival_rate: {rho}, mean_flow_size: 1.0}}
experiment:
  kind: capacity-sweep
  axis1: {{classes: {list(range(1, K + 1, 2))}, max: 0.6}}
  axis2: {{classes: {list(range(2, K + 1, 2))}, max: 0.6}}
""")
    out = tmp_path / "sweep"
    argv = ["run", "capacity-sweep", "--scenario", str(scenario), "--grid", "3",
            "--output", str(out)]
    assert main(argv) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    for row in rows:
        a, b, status, margin = row.split(",")
        expected = J / (float(a) + float(b)) - 1.0 if float(a) + float(b) else math.inf
        assert float(margin) == pytest.approx(expected, abs=1e-9)
        assert status == capacity.status_of(expected)
    assert set(built) == {2207}


def test_margin_of_many_groups_has_closed_form():
    """Twenty channels, each with its own triangle of classes: twenty groups
    of four schedules each, where the product set has 4^20 schedules."""
    J = 20
    graphs = tuple(ChannelGraph.of([3 * j, 3 * j + 1, 3 * j + 2],
                                   [(3 * j, 3 * j + 1), (3 * j + 1, 3 * j + 2),
                                    (3 * j, 3 * j + 2)])
                   for j in range(J))
    spec = NetworkSpec(3 * J, J, graphs)
    params = CsmaParams.from_alpha(spec, 1.0)
    rho = np.full(3 * J, 0.2)
    verdict = membership(rho, spec, params)
    # one class at a time per triangle: t* = 1 / (3 * 0.2)
    assert verdict.margin == pytest.approx(1.0 / 0.6 - 1.0, abs=1e-12)
    assert verdict.margin == margins([rho], spec, params)[0]


def test_schedule_space_guard_holds_per_channel(monkeypatch, tmp_path, capsys):
    """With the guard lowered to 1,000 schedules, two channels of 2^8
    independent sets each (65,536 schedules in the product) get an LP
    verdict, and a channel of 2^10 independent sets still trips the guard,
    in the library and as CLI exit 4."""
    monkeypatch.setitem(enumerate_feasible.__kwdefaults__, "max_schedules", 1000)
    small = NetworkSpec(8, 2, replicate_graph(2, range(8), []))
    verdict = membership([0.5] * 8, small, CsmaParams.from_alpha(small, 1.0))
    assert verdict.margin == pytest.approx(3.0, abs=1e-12)

    K = 10
    large = NetworkSpec(K, 2, (ChannelGraph.of(range(K)), ChannelGraph.of([0])))
    params = CsmaParams.from_alpha(large, 1.0)
    with pytest.raises(ScheduleSpaceError):
        membership([0.5] * K, large, params)
    with pytest.raises(ScheduleSpaceError):
        margins([[0.5] * K], large, params)

    scenario = tmp_path / "wide.yaml"
    scenario.write_text(f"""
name: wide
network:
  classes: {K}
  channels: 2
  channel_graphs: [{{eligible: {list(range(1, K + 1))}}}, {{eligible: [1]}}]
csma: {{phys_rate: 1.0, alpha: 1.0}}
traffic: {{arrival_rate: 0.5, mean_flow_size: 1.0}}
experiment: {{kind: capacity-sweep, grid: 2}}
""")
    assert main(["run", "capacity-sweep", "--scenario", str(scenario),
                 "--output", str(tmp_path / "o")]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "schedule-space-guard"
