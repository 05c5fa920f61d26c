import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bipartite33, random_instance
from mccsma.dynamics import (SimConfig, Trajectory, TrajectorySample, simulate_joint,
                             simulate_separated, stream, uniform_sample_times)
from mccsma.stability import _ls_slope, fluid_slope
from mccsma.topology import CsmaParams, NetworkSpec, TrafficSpec, replicate_graph
import theory
from theory import (MM1_BATCHES, MM1_LEVEL, center_rate_polynomial, dominated_throughput_fn,
                    h_part_bound, homogeneous_critical_load, lpartite_fluid_bound,
                    lyapunov_drift, mm1_reduction_check, optimal_center_bound)


# --- Lyapunov drift ---

def test_drift_at_origin_is_pure_offset_term():
    spec = NetworkSpec(2, 1, replicate_graph(1, [0, 1], [(0, 1)]))
    params = CsmaParams.from_alpha(spec, [2.0, 0.5], phys_rate=[1.0, 2.0])
    traffic = TrafficSpec((0.3, 0.4), (1.0, 1.5))
    rep = lyapunov_drift((0, 0), params, traffic, spec, "adhoc")
    rho = theory.traffic_load(traffic)
    expect = sum(rho[k] / params.phys_rate[k] * math.log(params.alpha[k])
                 for k in range(2))
    assert rep.g_part == 0.0
    assert rep.delta_f == pytest.approx(expect, abs=1e-12)
    assert rep.h_part == pytest.approx(expect, abs=1e-12)


def test_drift_negative_for_lightly_loaded_single_link():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.5, 1.0, 1)
    for x in (50, 200, 1000):
        rep = lyapunov_drift((x,), params, traffic, spec, "adhoc")
        assert rep.delta_f < 0
    # dominant term is (load - service)/rate * log(x): service -> 1
    rep = lyapunov_drift((1000,), params, traffic, spec, "adhoc")
    assert rep.g_part == pytest.approx(-0.5 * math.log(1000), rel=1e-2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_drift_decomposition_identity(seed):
    rng = np.random.default_rng(seed)
    infra = bool(rng.integers(2))
    spec, params, state = random_instance(rng, infrastructure=infra)
    policy = "flow_aware" if infra else "adhoc"
    lam = tuple(float(v) for v in rng.uniform(0.05, 1.0, spec.num_classes))
    sigma = tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.num_classes))
    traffic = TrafficSpec(lam, sigma)
    rep = lyapunov_drift(state, params, traffic, spec, policy)
    assert rep.delta_f == pytest.approx(rep.g_part + rep.h_part, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_h_part_within_constructive_bound(seed):
    rng = np.random.default_rng(seed)
    spec, params, state = random_instance(rng, infrastructure=False)
    traffic = TrafficSpec(tuple(float(v) for v in rng.uniform(0.0, 1.0, spec.num_classes)),
                          tuple(float(v) for v in rng.uniform(0.5, 2.0, spec.num_classes)))
    big_state = tuple(int(v) for v in rng.integers(0, 60, spec.num_classes))
    rep = lyapunov_drift(big_state, params, traffic, spec, "adhoc")
    assert abs(rep.h_part) <= h_part_bound(params, traffic, spec) + 1e-9


# --- bow-tie boundaries ---

def test_homogeneous_critical_load_two_decimals():
    root = homogeneous_critical_load()
    assert round(root, 2) == 0.63
    assert root == pytest.approx(center_rate_polynomial(root), abs=1e-8)


def test_boundary_endpoints():
    assert center_rate_polynomial(0.0) == pytest.approx(1.0)
    assert center_rate_polynomial(1.0) == pytest.approx(0.0, abs=1e-12)
    assert optimal_center_bound(0.0) == 1.0
    assert optimal_center_bound(1.0) == pytest.approx(0.0, abs=1e-12)


def test_instability_bound_below_capacity_bound():
    for r in np.linspace(0.01, 0.99, 99):
        lo = center_rate_polynomial(r)
        hi = optimal_center_bound(r)
        if lo > 0 and hi > 0:
            assert lo < hi + 1e-12


# --- slope verdicts ---

def _replicated(spec, params, traffic, policy, horizon, reps, seed=11, initial=None,
                throughput_fn=None):
    out = []
    for rep in range(reps):
        cfg = SimConfig(policy, horizon, seed,
                        initial or (0,) * spec.num_classes,
                        sample_times=uniform_sample_times(horizon, 200),
                        replication=rep)
        out.append(simulate_separated(spec, params, traffic, cfg,
                                      throughput_fn=throughput_fn))
    return out


def test_overload_gives_unstable_evidence():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1e6)
    traffic = TrafficSpec.of(2.0, 1.0, 1)
    trajs = _replicated(spec, params, traffic, "adhoc", 400.0, 5)
    verdict = fluid_slope(trajs)
    assert verdict.verdict == "unstable-evidence"
    assert verdict.slope == pytest.approx(1.0, abs=0.15)   # rate 2 in, 1 out


def test_stable_load_runs_are_inconclusive():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1e6)
    traffic = TrafficSpec.of(0.5, 1.0, 1)
    trajs = _replicated(spec, params, traffic, "adhoc", 200.0, 5)
    assert fluid_slope(trajs).verdict == "inconclusive"


def test_fluid_slope_requires_replications():
    spec = NetworkSpec(1, 1, replicate_graph(1, [0], []))
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.1, 1.0, 1)
    trajs = _replicated(spec, params, traffic, "adhoc", 100.0, 3)
    with pytest.raises(ValueError, match="5 replications"):
        fluid_slope(trajs)


@pytest.mark.parametrize("n", [5, 7, 20, 200])
def test_bootstrap_ci_is_that_of_sequential_resamples(n):
    rng = np.random.default_rng(n)
    times = 90.0 + np.arange(10)
    runs, slopes = [], []
    for _ in range(n):
        totals = rng.integers(0, 100, len(times))
        runs.append(Trajectory([TrajectorySample(t, (int(v),), None)
                                for t, v in zip(times, totals)],
                               (0,), (0,), False, 100.0, (0,), (0.0,)))
        slopes.append(_ls_slope(times, totals.astype(float)))
    slopes = np.array(slopes)
    verdict = fluid_slope(runs)
    rng = stream(0, "bootstrap", 0, 0)
    draws = [slopes[rng.integers(0, n, n)] for _ in range(1000)]
    means = [d.mean() for d in draws]
    # the slopes are not integral: the order of summation shows in the means
    assert any(d[::-1].mean() != m for d, m in zip(draws, means))
    assert verdict.slope == slopes.mean()
    assert (verdict.ci_lo, verdict.ci_hi) == tuple(
        float(v) for v in np.percentile(means, [2.5, 97.5]))


# --- dominating-profile reduction ---

def test_mm1_reduction_busy_fraction_and_independence(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1e6)
    traffic = TrafficSpec.of(0.5, 1.0, 5)
    cfg = SimConfig("standard_infra", 8000.0, 13, (0,) * 5,
                    sample_times=uniform_sample_times(8000.0, 1600))
    report = mm1_reduction_check(bowtie, params, traffic, cfg)
    assert report.target_load == pytest.approx(0.5)
    assert report.passed, report
    for b in report.busy_fraction:
        assert abs(b - 0.5) < 0.05


@pytest.mark.parametrize("target", [0.45, 0.55])
def test_mm1_reduction_rejects_a_wrong_load(bowtie, target):
    """The same run as above, tested against a load 0.05 off the true one:
    both the busy fractions and the occupancy law reject it."""
    params = CsmaParams.from_alpha(bowtie, 1e6)
    traffic = TrafficSpec.of(0.5, 1.0, 5)
    cfg = SimConfig("standard_infra", 8000.0, 13, (0,) * 5,
                    sample_times=uniform_sample_times(8000.0, 1600))
    report = mm1_reduction_check(bowtie, params, traffic, cfg, target=target)
    assert report.target_load == target and not report.passed
    assert any(abs(b - target) > h for b, h in
               zip(report.busy_fraction, report.busy_ci_halfwidth))
    assert min(report.gof_pvalues) < MM1_LEVEL / 4


def test_mm1_reduction_zero_load(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1e6)
    traffic = TrafficSpec((0.0, 0.0, 0.3, 0.0, 0.0), (1.0,) * 5)
    cfg = SimConfig("standard_infra", 2000.0, 13, (0,) * 5,
                    sample_times=uniform_sample_times(2000.0, 400))
    report = mm1_reduction_check(bowtie, params, traffic, cfg)
    assert report.passed
    assert all(b == 0.0 for b in report.busy_fraction)


@pytest.mark.parametrize("count", [5, 9])
def test_mm1_reduction_needs_a_sample_per_batch(bowtie, count, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the sample count")

    monkeypatch.setattr(theory, "with_integrals", no_simulation)
    params = CsmaParams.from_alpha(bowtie, 1e6)
    traffic = TrafficSpec.of(0.5, 1.0, 5)
    cfg = SimConfig("standard_infra", 100.0, 13, (0,) * 5,
                    sample_times=uniform_sample_times(100.0, count))
    with pytest.raises(ValueError, match=f"at least {MM1_BATCHES} sample times.*got {count}"):
        mm1_reduction_check(bowtie, params, traffic, cfg)


def test_dominated_profile_serves_saturated_classes(bowtie):
    params = CsmaParams.from_alpha(bowtie, 1e6)
    fn = dominated_throughput_fn(bowtie, params, "standard_infra", [0, 1, 3, 4])
    phi = fn((1, 0, 3, 2, 0))
    assert phi[0] == 1.0 and phi[3] == 1.0
    assert phi[1] == 0.0 and phi[4] == 0.0
    assert 0.0 <= phi[2] <= 2.0


# --- multipartite drain bound ---

def test_fluid_drain_zero_start_stays_drained():
    spec = bipartite33()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.0, 1.0, 6)
    cfg = SimConfig("adhoc", 50.0, 3, (0,) * 6,
                    sample_times=uniform_sample_times(50.0, 25))
    trajs = [simulate_joint(spec, params, traffic, cfg)]
    report = lpartite_fluid_bound(trajs, [(0, 1, 2), (3, 4, 5)], params, traffic, 1)
    assert report.ok
    assert report.scaled_drain_times == (0.0,)


def test_fluid_drain_no_arrivals_drains_at_full_rate():
    spec = bipartite33()
    params = CsmaParams.from_alpha(spec, 4.0)
    traffic = TrafficSpec.of(0.0, 1.0, 6)
    n0 = 40
    cfg = SimConfig("adhoc", 3.0 * n0, 3, (n0, 0, 0, n0, 0, 0), scaling_n=1,
                    sample_times=uniform_sample_times(3.0 * n0, 600))
    trajs = [simulate_joint(spec, params, traffic, cfg)]
    report = lpartite_fluid_bound(trajs, [(0, 1, 2), (3, 4, 5)], params, traffic, 1,
                                  time_tolerance=0.35)
    # the single channel serves one block at a time, so the workload statistic
    # (one in scaled units) drains at unit rate and empties near scaled t = 1
    assert report.bound_time == pytest.approx(1.0)
    assert report.ok
    assert report.scaled_drain_times[0] == pytest.approx(0.95, abs=0.25)


def test_fluid_drain_requires_interior_load():
    spec = bipartite33()
    params = CsmaParams.from_alpha(spec, 1.0)
    traffic = TrafficSpec.of(0.6, 1.0, 6)     # block maxima 0.6 + 0.6 > 1
    with pytest.raises(ValueError, match="interior"):
        lpartite_fluid_bound([], [(0, 1, 2), (3, 4, 5)], params, traffic, 1)
