"""Stability diagnostics: Lyapunov drift, fluid-slope estimation from
replicated trajectories, the bow-tie instability boundary, and drain checks
for complete multipartite networks.

Simulation cannot prove ergodicity, so verdicts here are calibrated evidence:
"unstable-evidence" means the growth-slope confidence interval sits strictly
above zero, "stable-evidence" means the run was long enough and the
time-average queue stayed under a configurable bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import (SimConfig, ThroughputCache, Trajectory, left_sum,
                       simulate_separated, stream)
from .equilibrium import PolicyEvaluator
from .schedule import state_flows
from .topology import CsmaParams, NetworkSpec, TrafficSpec

FIT_WINDOW = 0.6          # final fraction of each run that the slope is fitted over
MIN_REPLICATIONS = 5      # fewest runs a slope verdict accepts
MM1_BATCHES = 10          # batch means behind the M/M/1 check's intervals
DRAIN_FRACTION = 0.05     # share of its start below which the workload is drained


@dataclass
class DriftReport:
    """Drift of the weighted entropy-like Lyapunov function at one state.

    ``delta_f`` is the generator applied to
    F(x) = sum over flow-holding classes of (x_k sigma_k / phi_k) log(x_k alpha_k),
    and always equals ``g_part + h_part``: the g-part carries the load-vs-
    throughput comparison that drives stability, the h-part is bounded.
    """

    state: tuple[int, ...]
    delta_f: float
    g_part: float
    h_part: float


def _lyapunov_f(x: Sequence[int], sigma: np.ndarray, phi: np.ndarray,
                alpha: np.ndarray) -> float:
    total = 0.0
    for k, xk in enumerate(x):
        if xk > 0:
            total += xk * sigma[k] / phi[k] * math.log(xk * alpha[k])
    return total


def lyapunov_drift(state, params: CsmaParams, traffic: TrafficSpec,
                   spec: NetworkSpec, policy: str) -> DriftReport:
    """Evaluate the Lyapunov drift and its bounded/unbounded decomposition.

    Uses the convention 0 * log 0 = 0 throughout. At interior loads the drift
    is negative outside a finite set of states; sweeping this over growing
    states exhibits that threshold.
    """
    evaluator = PolicyEvaluator(spec, params, policy)
    x = state_flows(state)
    lam = np.asarray(traffic.arrival_rate, dtype=float)
    sigma = np.asarray(traffic.mean_flow_size, dtype=float)
    rho = traffic.rho
    phi = params.phi
    alpha = params.alpha
    phi_x = evaluator.throughput(x)

    f0 = _lyapunov_f(x, sigma, phi, alpha)
    delta = 0.0
    for k in range(len(x)):
        if lam[k] > 0:
            up = list(x)
            up[k] += 1
            delta += lam[k] * (_lyapunov_f(up, sigma, phi, alpha) - f0)
        if x[k] > 0 and phi_x[k] > 0:
            down = list(x)
            down[k] -= 1
            delta += (phi_x[k] / sigma[k]) * (_lyapunov_f(down, sigma, phi, alpha) - f0)

    g = 0.0
    h = 0.0
    for k in range(len(x)):
        if x[k] > 0:
            g += (rho[k] - phi_x[k]) / phi[k] * math.log(x[k] * alpha[k])
            h += rho[k] / phi[k] * (x[k] + 1) * math.log(1.0 + 1.0 / x[k])
            if x[k] > 1:
                h += phi_x[k] / phi[k] * (x[k] - 1) * math.log(1.0 - 1.0 / x[k])
            # at x_k = 1 the departure term is 0 * log 0 = 0
        else:
            h += rho[k] / phi[k] * math.log(alpha[k])
    return DriftReport(tuple(x), delta, g, h)


def h_part_bound(params: CsmaParams, traffic: TrafficSpec, spec: NetworkSpec) -> float:
    """State-free bound on |h_part|.

    Uses (x+1) log(1 + 1/x) <= 2 for x >= 1, |(x-1) log(1 - 1/x)| <= 1, and
    throughput at most J * phi_k, plus the residual log(alpha) term at empty
    classes.
    """
    rho = traffic.rho
    phi = params.phi
    alpha = params.alpha
    J = spec.num_channels
    K = spec.num_classes
    per_class = sum(rho[k] / phi[k] * (2.0 + abs(math.log(alpha[k]))) for k in range(K))
    return per_class + J * K


@dataclass
class StabilityThresholds:
    """Calibration for declaring stable-evidence.

    ``min_horizon``: shortest acceptable run, in the same time unit as the
    trajectories. ``max_mean_total_flows``: cap on the time-average total flow
    count. Both are deliberately config-exposed knobs, not constants.
    """

    min_horizon: float
    max_mean_total_flows: float

    @staticmethod
    def from_margin(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                    margin: float, *, horizon_services: float = 1e4,
                    queue_factor: float = 50.0) -> "StabilityThresholds":
        """Heuristic single-queue-style calibration at a capacity margin.

        The horizon must cover ``horizon_services`` mean flow-service times;
        the queue cap scales like utilization/(1 - utilization) per class at
        utilization 1/(1 + margin), with a floor of one flow per class.
        """
        sigma = np.asarray(traffic.mean_flow_size, dtype=float)
        service = float(np.max(sigma / params.phi))
        util = 1.0 / (1.0 + margin)
        per_class = util / max(1.0 - util, 1e-12)
        cap = queue_factor * max(1.0, spec.num_classes * per_class)
        return StabilityThresholds(horizon_services * service, cap)


@dataclass
class StabilityVerdict:
    verdict: str                       # stable-evidence | unstable-evidence | inconclusive
    slope: float                       # total flow-count growth, flows per second
    ci_lo: float
    ci_hi: float
    per_class_slopes: tuple[float, ...]
    mean_total_flows: float
    horizon: float
    aborted_runs: int


def _ls_slope(times: np.ndarray, values: np.ndarray) -> float:
    t_bar = times.mean()
    v_bar = values.mean()
    denom = float(((times - t_bar) ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float(((times - t_bar) * (values - v_bar)).sum() / denom)


def in_fit_window(time: float, final_time: float) -> bool:
    """Whether a sample at ``time`` of a run ending at ``final_time`` enters
    the slope fit."""
    return time >= (1 - FIT_WINDOW) * final_time


def check_slope_inputs(replications: int, sample_times: Sequence[float],
                       horizon: float) -> None:
    """Raise ``fluid_slope``'s ``ValueError`` for such runs before any is
    simulated. A run that aborts ends early, which only widens its window."""
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications for a "
                         f"slope verdict, got {replications}")
    fit = sum(in_fit_window(t, horizon) for t in sample_times)
    if fit < 3:
        raise ValueError(f"too few samples in the fit window: {fit} of "
                         f"{len(sample_times)}, need 3")


def fluid_slope(trajectories: Sequence[Trajectory],
                thresholds: Optional[StabilityThresholds] = None) -> StabilityVerdict:
    """Estimate the linear growth rate of the total flow count.

    Fits a least-squares line to each replication's total flow count over the
    final ``FIT_WINDOW`` fraction of the horizon and bootstraps a 95%
    confidence interval over replications. A CI strictly above zero is
    unstable-evidence. Otherwise the verdict is stable-evidence when the run
    satisfies the thresholds (long enough, bounded time-average queue, no
    aborts); anything else is inconclusive.
    """
    if len(trajectories) < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications for a "
                         f"slope verdict, got {len(trajectories)}")
    K = len(trajectories[0].final_state)
    slopes = []
    class_slopes = []
    means = []
    aborted = 0
    horizon = min(tr.final_time for tr in trajectories)
    for tr in trajectories:
        if tr.aborted:
            aborted += 1
        pts = [(s.time, s.state) for s in tr.samples if in_fit_window(s.time, tr.final_time)]
        if len(pts) < 3:
            raise ValueError("trajectories carry too few samples in the fit window")
        times = np.array([p[0] for p in pts])
        states = np.array([p[1] for p in pts], dtype=float)
        slopes.append(_ls_slope(times, states.sum(axis=1)))
        class_slopes.append([_ls_slope(times, states[:, k]) for k in range(K)])
        means.append(left_sum(tr.time_integral_flows) / tr.final_time)

    slopes_arr = np.array(slopes)
    rng = stream(0, "bootstrap", 0, 0)
    resampled = np.array([
        slopes_arr[rng.integers(0, len(slopes_arr), len(slopes_arr))].mean()
        for _ in range(1000)
    ])
    ci_lo, ci_hi = (float(v) for v in np.percentile(resampled, [2.5, 97.5]))
    slope = float(slopes_arr.mean())
    mean_total = float(np.mean(means))

    if ci_lo > 0.0:
        verdict = "unstable-evidence"
    elif (thresholds is not None and aborted == 0
            and horizon >= thresholds.min_horizon
            and mean_total <= thresholds.max_mean_total_flows
            and ci_lo <= 0.0):
        verdict = "stable-evidence"
    else:
        verdict = "inconclusive"
    return StabilityVerdict(verdict, slope, ci_lo, ci_hi,
                            tuple(float(np.mean([c[k] for c in class_slopes]))
                                  for k in range(K)),
                            mean_total, horizon, aborted)


# --- bow-tie network: two triangles sharing a center class, two channels ---

def center_rate_polynomial(rho1: float) -> float:
    """Long-run service rate of the center class when each of the four edge
    classes is independently active with probability rho1 (unit physical
    rates, infinite attempt-rate limit)."""
    return rho1**4 / 3.0 - 2.0 * rho1**3 / 3.0 - 2.0 * rho1**2 / 3.0 + 1.0


def optimal_center_bound(rho1: float) -> float:
    """Center-class load boundary of the capacity region at edge load rho1."""
    return min(1.0, 2.0 - 2.0 * rho1)


@dataclass
class BoundaryRow:
    rho1: float
    unstable_above: float     # center load above which the shared-queue policy diverges
    optimal_limit: float      # capacity-region limit for the center load


def bowtie_boundary(rho1_grid: Sequence[float]) -> list[BoundaryRow]:
    """Tabulate both center-load boundaries over a grid of edge loads."""
    return [BoundaryRow(float(r), center_rate_polynomial(float(r)),
                        optimal_center_bound(float(r))) for r in rho1_grid]


def homogeneous_critical_load() -> float:
    """Fixed point rho = center_rate_polynomial(rho), found by bisection to
    an interval of width 1e-9.

    Above this load the homogeneous bow-tie network (all five classes equally
    loaded) is unstable under the shared-queue policy.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if mid - center_rate_polynomial(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def dominated_throughput_fn(spec: NetworkSpec, params: CsmaParams, policy: str,
                            saturated: Sequence[int]
                            ) -> Callable[[tuple[int, ...]], np.ndarray]:
    """Service profile that serves the ``saturated`` classes at full physical
    rate whenever they hold flows, leaving the other classes at the policy's
    equilibrium throughput.

    This dominates the true service of the saturated classes, so the modified
    flow process is a pathwise lower bound for the true one; its transience
    implies transience of the original.
    """
    throughput = ThroughputCache(PolicyEvaluator(spec, params, policy))
    phi = params.phi
    sat = np.zeros(spec.num_classes, dtype=bool)
    for k in saturated:
        sat[k] = True

    def fn(x: tuple[int, ...]) -> np.ndarray:
        # a copy, so the override never reaches the cached vector
        base = throughput(x).copy()
        xv = np.asarray(x)
        base[sat] = np.where(xv[sat] > 0, phi[sat], 0.0)
        return base

    return fn


def _merge_bins(observed: np.ndarray, expected: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Merge consecutive histogram bins until each expected count is at
    least 5, the usual floor for a chi-square test."""
    obs_out: list[float] = []
    exp_out: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_out.append(acc_o)
            exp_out.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if exp_out:
            obs_out[-1] += acc_o
            exp_out[-1] += acc_e
        else:
            obs_out.append(acc_o)
            exp_out.append(acc_e)
    return np.array(obs_out), np.array(exp_out)


@dataclass
class MM1Report:
    busy_fraction: tuple[float, ...]
    busy_ci_halfwidth: tuple[float, ...]
    target_load: float
    gof_pvalues: tuple[float, ...]
    max_abs_correlation: float
    correlation_ci_halfwidth: float
    passed: bool


def mm1_reduction_check(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                        cfg: SimConfig) -> MM1Report:
    """Check that under the dominating service profile the non-center queues
    behave like independent single-server queues at their own load.

    Runs the separated model with every class except the center (class 2)
    served at full rate while occupied, then tests per-class busy fractions
    against the load, the occupancy distribution against the geometric law
    (chi-square, each p-value at least 0.01), and pairwise correlations
    against zero (CI over ``MM1_BATCHES`` batch means). Raises
    ``ValueError`` before simulating when ``cfg`` has fewer sample times
    than batches.
    """
    from scipy.stats import chisquare

    if len(cfg.sample_times) < MM1_BATCHES:
        raise ValueError(f"need at least {MM1_BATCHES} sample times for the batch "
                         f"means, got {len(cfg.sample_times)}")
    K = spec.num_classes
    edges = [k for k in range(K) if k != 2]
    rho = traffic.rho / params.phi
    target = float(rho[edges[0]])
    fn = dominated_throughput_fn(spec, params, cfg.policy, edges)
    traj = simulate_separated(spec, params, traffic, cfg, throughput_fn=fn)

    horizon = traj.final_time
    busy = tuple(traj.busy_time[k] / horizon for k in edges)

    samples = np.array([s.state for s in traj.samples], dtype=float)
    n_samples = samples.shape[0]
    batch_size = n_samples // MM1_BATCHES

    busy_half = []
    for idx, k in enumerate(edges):
        per_batch = [
            (samples[b * batch_size:(b + 1) * batch_size, k] > 0).mean()
            for b in range(MM1_BATCHES)
        ]
        busy_half.append(2.0 * float(np.std(per_batch, ddof=1)) / math.sqrt(MM1_BATCHES))

    pvalues = []
    for k in edges:
        occ = samples[:, k].astype(int)
        if target == 0.0:
            pvalues.append(1.0 if occ.max() == 0 else 0.0)
            continue
        top = int(occ.max()) + 1
        observed = np.bincount(occ, minlength=top + 1).astype(float)
        levels = np.arange(top + 1)
        expected = (1 - target) * target**levels * n_samples
        expected[-1] = n_samples - expected[:-1].sum()   # lump the geometric tail
        obs, exp = _merge_bins(observed, expected)
        if len(obs) < 2:
            pvalues.append(1.0)
            continue
        _, p = chisquare(obs, exp * obs.sum() / exp.sum())
        pvalues.append(float(p))

    corr_vals = []
    for b in range(MM1_BATCHES):
        chunk = samples[b * batch_size:(b + 1) * batch_size]
        for a_i, a in enumerate(edges):
            for b_k in edges[a_i + 1:]:
                ca = chunk[:, a]
                cb = chunk[:, b_k]
                if ca.std() == 0 or cb.std() == 0:
                    continue
                corr_vals.append(float(np.corrcoef(ca, cb)[0, 1]))
    corr_mean = float(np.mean(corr_vals)) if corr_vals else 0.0
    corr_half = (2.0 * float(np.std(corr_vals, ddof=1)) / math.sqrt(len(corr_vals))
                 if len(corr_vals) > 1 else 0.0)

    busy_ok = all(abs(b - target) <= max(h, 0.02) + 1e-12
                  for b, h in zip(busy, busy_half))
    gof_ok = all(p >= 0.01 for p in pvalues)
    corr_ok = abs(corr_mean) <= corr_half + 0.05
    return MM1Report(busy, tuple(busy_half), target, tuple(pvalues),
                     corr_mean, corr_half,
                     bool(busy_ok and gof_ok and corr_ok))


@dataclass
class FluidDrainReport:
    ok: bool
    bound_time: float
    scaled_drain_times: tuple[float, ...]
    tolerance: float


def lpartite_fluid_bound(trajectories: Sequence[Trajectory],
                         partition: Sequence[Sequence[int]],
                         params: CsmaParams, traffic: TrafficSpec,
                         num_channels: int, *,
                         time_tolerance: float = 0.2) -> FluidDrainReport:
    """Check the fluid drain bound of complete multipartite networks.

    The workload statistic W(t), the sum over blocks of the largest
    x_k(t) * sigma_k / phi_k, scaled by its initial value, must fall below
    ``DRAIN_FRACTION`` no later than (1 + tolerance) / (J - sum of block-maxima
    of the loads). Applies to trajectories started from a large state.
    """
    rho = traffic.rho
    phi = params.phi
    sigma = np.asarray(traffic.mean_flow_size, dtype=float)
    load = sum(max(rho[k] / phi[k] for k in block) for block in partition)
    if load >= num_channels:
        raise ValueError("drain bound requires an interior load vector")
    bound_time = 1.0 / (num_channels - load)

    def w_of(state: Sequence[int]) -> float:
        return sum(max(state[k] * sigma[k] / phi[k] for k in block)
                   for block in partition)

    drain_times = []
    for tr in trajectories:
        w0 = w_of(tr.samples[0].state)
        if w0 <= 0:
            drain_times.append(0.0)
            continue
        drained = math.inf
        for s in tr.samples:
            if w_of(s.state) <= DRAIN_FRACTION * w0:
                drained = s.time / w0
                break
        drain_times.append(drained)
    ok = all(d <= bound_time * (1.0 + time_tolerance) for d in drain_times)
    return FluidDrainReport(ok, bound_time, tuple(drain_times), time_tolerance)
