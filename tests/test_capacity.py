import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (adhoc_path4, bipartite33, bowtie_spec, random_instance, star5,
                      tripartite221)
from mccsma import capacity
from mccsma.capacity import (BOUNDARY_TOL, SolverError, full_support_certificate,
                             lpartite_condition, margins, membership)
from mccsma.schedule import Schedule, enumerate_feasible
from mccsma.topology import CsmaParams, NetworkSpec, replicate_graph


def test_single_link_region():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    for rho, status in [(0.3, "interior"), (0.999999, "interior"),
                        (1.0, "boundary"), (1.5, "exterior")]:
        verdict = membership([rho], spec, params)
        assert verdict.status == status
        if status != "boundary":
            assert verdict.margin == pytest.approx(1.0 / rho - 1.0, abs=1e-9)


def test_zero_load_is_interior_with_infinite_margin():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))
    params = CsmaParams.from_alpha(spec, 1.0)
    verdict = membership([0.0, 0.0], spec, params)
    assert verdict.status == "interior"
    assert math.isinf(verdict.margin)
    schedules = enumerate_feasible(spec)
    assert verdict.certificate == {Schedule.empty(2, 1): 1.0}
    assert verdict.certificate == {schedules[0]: 1.0}
    mixed = full_support_certificate(verdict, schedules)
    assert set(mixed) == set(schedules)
    assert all(p > 0 for p in mixed.values())
    assert sum(mixed.values()) == pytest.approx(1.0)


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


def test_interior_certificate_has_strict_slack(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    rho = np.array([0.5, 0.5, 0.4, 0.5, 0.5])
    verdict = membership(rho, bowtie, params)
    assert verdict.status == "interior"
    schedules = enumerate_feasible(bowtie)
    served = np.zeros(5)
    for s, p in verdict.certificate.items():
        served += p * np.asarray(s.per_class)
    assert np.all(rho < served + 1e-12)
    assert all(p >= 0 for p in verdict.certificate.values())
    assert sum(verdict.certificate.values()) == pytest.approx(1.0)


def test_full_support_mixing_preserves_feasibility(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    rho = np.array([0.4, 0.4, 0.3, 0.4, 0.4])
    schedules = enumerate_feasible(bowtie)
    verdict = membership(rho, bowtie, params, schedules=schedules)
    mixed = full_support_certificate(verdict, schedules)
    assert all(p > 0 for p in mixed.values())
    assert sum(mixed.values()) == pytest.approx(1.0)
    served = np.zeros(5)
    for s, p in mixed.items():
        served += p * np.asarray(s.per_class)
    assert np.all(rho < served)


def test_membership_is_deterministic(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    rho = [0.6, 0.6, 0.2, 0.6, 0.6]
    a = membership(rho, bowtie, params)
    b = membership(rho, bowtie, params)
    assert a.status == b.status and a.margin == b.margin
    assert a.certificate == b.certificate


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
    """(status, margin, certificate) from the full-column scalar LP."""
    rho = np.asarray(rho, dtype=float)
    n_sched = len(schedules)
    positive = [k for k in range(spec.num_classes) if rho[k] > 0]
    if not positive:
        return "interior", math.inf, {schedules[0]: 1.0}

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
    t_star = _reference_simplex_max(tableau, basis)

    pi = np.zeros(n_sched)
    for r, var in enumerate(basis):
        if var < n_sched:
            pi[var] = max(tableau[r, n], 0.0)
    total = pi.sum()
    if total > 0:
        pi /= total
    certificate = {schedules[i]: float(pi[i]) for i in range(n_sched) if pi[i] > 0}

    margin = t_star - 1.0
    if abs(margin) <= BOUNDARY_TOL:
        status = "boundary"
    elif margin > 0:
        status = "interior"
    else:
        status = "exterior"
    return status, margin, certificate


def _assert_matches_reference(rho, spec, params, schedules):
    """``membership`` against the reference; returns the reference verdict
    and margin."""
    verdict = membership(rho, spec, params, schedules=schedules)
    status, margin, certificate = _reference_membership(rho, spec, params, schedules)
    assert verdict.status == status
    assert verdict.margin == margin
    assert verdict.certificate == certificate
    return status, margin


def _assert_batch_matches(loads, expected, spec, params, rng):
    """One ``margins`` call on ``loads`` plus three zero rows, shuffled, must
    give the reference margins ``expected`` bit for bit."""
    rows = np.vstack([loads, np.zeros((3, spec.num_classes))])
    want = np.concatenate([expected, np.full(3, math.inf)])
    order = rng.permutation(len(rows))
    got = margins(rows[order], spec, params)
    assert got.tobytes() == want[order].tobytes()


def test_membership_matches_full_column_scalar_lp_on_bowtie_sweep(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    schedules = enumerate_feasible(bowtie)
    assert (len(schedules), len(schedules.distinct)) == (67, 25)
    loads = [[r1, r1, r3, r1, r1]
             for r1 in np.linspace(0.0, 1.0, 20) for r3 in np.linspace(0.0, 1.0, 20)]
    statuses, expected = zip(*(_assert_matches_reference(rho, bowtie, params, schedules)
                               for rho in loads))
    assert set(statuses) == {"interior", "boundary", "exterior"}
    # the 361 rows that load every class need two stacks
    block = capacity._constraint_block(schedules, params, np.arange(5))
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
        expected += [_reference_membership(r, spec, params, schedules)[1] for r in more]
        _assert_batch_matches(np.vstack([rho, more]), expected, spec, params, rng)


def test_membership_matches_full_column_scalar_lp_on_rings(monkeypatch):
    rng = np.random.default_rng(5)
    for K in range(5, 10):
        edges = [(k, (k + 1) % K) for k in range(K)]
        spec = NetworkSpec(K, 2, replicate_graph(2, range(K), edges))
        params = CsmaParams.from_alpha(spec, 1.0)
        schedules = enumerate_feasible(spec)
        assert schedules.distinct[0] == 0 and len(schedules.distinct) < len(schedules)
        loads = [[0.3] * K, rng.uniform(0.0, 0.6, K)]
        expected = [_assert_matches_reference(rho, spec, params, schedules)[1]
                    for rho in loads]
        # stacks of three LPs; full-load rows beyond one stack, and rows with
        # one idle class each (three positive-load patterns of the same size)
        block = capacity._constraint_block(schedules, params, np.arange(K))
        monkeypatch.setattr(capacity, "_STACK_ENTRIES", 3 * block.size)
        full = rng.uniform(0.05, 0.6, (4, K))
        idle = rng.uniform(0.05, 0.6, (3, K))
        idle[range(3), rng.choice(K, 3, replace=False)] = 0.0
        for rho in np.vstack([full, idle]):
            loads.append(rho)
            expected.append(_reference_membership(rho, spec, params, schedules)[1])
        _assert_batch_matches(np.array(loads), expected, spec, params, rng)


def test_distinct_columns_are_first_occurrences(bowtie):
    schedules = enumerate_feasible(bowtie)
    first = {}
    for i, row in enumerate(map(tuple, schedules.per_class.tolist())):
        first.setdefault(row, i)
    assert schedules.distinct.tolist() == sorted(first.values())


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
    lambda rho, spec, params: lpartite_condition(rho, spec, params),
], ids=["membership", "margins", "lpartite_condition"])
@pytest.mark.parametrize("rho, match", [
    ([math.nan, 0.1, 0.1, 0.1, 0.1], "finite and nonnegative"),
    ([-5.0, 0.1, 0.1, 0.1, 0.1], "finite and nonnegative"),
    ([0.1] * 7, "expected 5 loads"),
])
def test_every_entry_checks_its_loads(check, rho, match):
    spec = tripartite221()
    with pytest.raises(ValueError, match=match):
        check(rho, spec, CsmaParams.from_alpha(spec, 1.0))


def test_multipartite_verdict_holds_python_scalars():
    spec = tripartite221()
    verdict = lpartite_condition(np.full(5, 0.2), spec, CsmaParams.from_alpha(spec, 1.0))
    assert type(verdict.interior) is bool
    assert type(verdict.slack) is float and type(verdict.multiplier) is float


def test_schedules_of_another_shape_are_rejected(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1.0)
    other = enumerate_feasible(adhoc_path4())
    with pytest.raises(ValueError, match=r"\(4, 2\).*\(5, 2\)"):
        membership([0.1] * 5, bowtie, params, schedules=other)
