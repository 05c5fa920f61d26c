"""The paper's proof steps as executable checks, for the tests.

Each function here evaluates one step of an argument on a concrete instance:
the uniform schedule weight and its maxima, the alpha -> infinity limit
distribution, local balance and the Lemma 1 concentration inequality, the
Lyapunov drift and its split, the M/M/1 reduction under a dominating service
profile, the block partition of a complete multipartite conflict graph with
its closed-form capacity test (the capacity LP's cross-check) and drain
bound, the bow-tie's closed forms (its capacity boundary min(1, 2 - 2 rho1),
the center-class service polynomial and that polynomial's fixed point), and
the coupled pair behind stochastic domination. It also accrues
the path integrals of a simulation run that no runner reads: busy time,
served bits, event rate-times and the joint generator's compensators of the
event counts. And it builds the flow-level generator with one packet-level
solve per state, the reference for the oracle's build of one solve per
throughput key.

A single schedule is a tuple of rows, as in :mod:`mccsma.oracles`, whose
``schedule_rows`` lists a ``ScheduleSet`` that way; local balance is checked
against the oracles' raw ``attempt_rate``.

No runner reads these checks, so they live beside the tests rather than in
the library. They go through ``mccsma``'s public API only, apart from the
oracles' slot helpers ``_toggled`` and ``_active_slots``, their box and
generator helpers ``_box_states`` and ``_csr_generator``, and the
simulation models: ``_Accruing`` wraps the library's ``_Separated`` and
``_Joint`` models, ``_GeneratorCompensated`` wraps ``_Joint``, and the
coupled pair is a third model; all run on the event loop ``_run``, and the
coupled pair samples its dominated chain with ``_Sampler``. Tests import
this module as they import ``conftest``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp
from scipy.stats import f as f_dist
from scipy.stats import t as t_dist

from mccsma.dynamics import (SimConfig, ThroughputCache, ThroughputFn, Trajectory,
                             _Joint, _run, _Sampler, _Separated, left_sum)
from mccsma.equilibrium import PolicyEvaluator, check_policy
from mccsma.oracles import (Rows, _active_slots, _box_states, _csr_generator, _toggled,
                            attempt_rate, joint_generator, schedule_rows)
from mccsma.schedule import enumerate_feasible, state_flows
from mccsma.topology import CsmaParams, NetworkSpec, TrafficSpec

MM1_BATCHES = 10          # batch means behind the M/M/1 check's intervals
MM1_LEVEL = 0.01          # the M/M/1 check's false-failure rate per test family
DRAIN_FRACTION = 0.05     # share of its start below which the workload is drained


def traffic_load(traffic: TrafficSpec) -> np.ndarray:
    """Traffic intensity rho: arrival rate times mean flow size, in bit/s."""
    return np.asarray(traffic.arrival_rate) * np.asarray(traffic.mean_flow_size)


# --- uniform schedule weights and their limits ---

def log_weight_u(state, sched: Rows, params: CsmaParams) -> float:
    """Log of the uniform schedule weight: sum over flow-holding classes of
    y_k * log(x_k * alpha_k).

    Defined for any schedule, feasible at the state or not; classes without
    flows contribute nothing. The empty schedule has weight one (log zero).
    """
    flows = state_flows(state)
    alpha = params.alpha
    total = 0.0
    for k, y_k in enumerate(map(sum, sched)):
        if y_k and flows[k] > 0:
            total += y_k * math.log(flows[k] * alpha[k])
    return total


def max_weight(state, params: CsmaParams, spec: NetworkSpec,
               over: str = "restricted") -> tuple[float, Rows]:
    """Maximum uniform weight and its arg-max schedule.

    ``over="restricted"`` maximizes over the schedules feasible at the state;
    ``over="unrestricted"`` maximizes over the union of feasible sets. Ties
    break toward the lexicographically greatest activation matrix, so equal-
    weight channels resolve to the lowest channel index.
    """
    if over not in ("restricted", "unrestricted"):
        raise ValueError(f"over must be 'restricted' or 'unrestricted', got {over!r}")
    schedules = enumerate_feasible(spec, state if over == "restricted" else None)
    best: tuple[float, Rows] | None = None
    for sched in schedule_rows(schedules):
        lw = log_weight_u(state, sched, params)
        if best is None or lw > best[0] or (lw == best[0] and sched > best[1]):
            best = (lw, sched)
    assert best is not None  # the empty schedule is always present
    return best


def lemma_gap_bound(params: CsmaParams, num_channels: int) -> float:
    """Constructive bound on log(max over all schedules) - log(max over the
    state-feasible schedules) of the uniform weight.

    The two maxima differ only through classes holding fewer than J flows.
    For such a class the weight factor (x_k * alpha_k)^(y_k) ranges between
    min(1, alpha_k)^J and max(1, (J-1) * alpha_k)^J, which yields a state-free
    bound on the ratio. With one channel the bound is zero: both maxima agree.
    """
    J = num_channels
    total = 0.0
    for a in params.alpha:
        hi = math.log(max(1.0, (J - 1) * a)) if J >= 2 else 0.0
        lo = math.log(min(1.0, a)) if J >= 2 else 0.0
        total += J * (hi - lo)
    return total


def _check_equal_alpha(params: CsmaParams) -> float:
    alpha = params.alpha
    if np.max(alpha) - np.min(alpha) > 1e-12 * max(np.max(alpha), 1.0):
        raise ValueError("the infinite-attempt-rate limit is only defined here for "
                         "equal attempt/transmission ratios across classes")
    return float(alpha[0])


def alpha_limit_distribution(spec: NetworkSpec, state, params: CsmaParams,
                             policy: str = "auto") -> dict[Rows, Fraction]:
    """Limiting schedule distribution as the attempt rates grow without bound
    (at fixed ratios, which must be equal across classes).

    Every surviving schedule activates the maximum feasible number of links;
    within that set the mass is proportional to the weight factors that do not
    involve the attempt rate (flow-count falling factorials, channel-probing
    probabilities and, under the shared-queue infrastructure policy, the
    per-access-point flow-selection odds). Computed in exact rational
    arithmetic so dyadic inputs give exact probabilities.
    """
    policy = check_policy(spec, policy)
    _check_equal_alpha(params)
    flows = state_flows(state)
    schedules = schedule_rows(enumerate_feasible(spec, flows))
    top = max(sum(map(sum, s)) for s in schedules)
    support = [s for s in schedules if sum(map(sum, s)) == top]

    ap_totals = [sum(flows[k] for k in ap.downlink) for ap in spec.access_points]
    weights: list[Fraction] = []
    for sched in support:
        w = Fraction(1)
        for k, j in _active_slots(sched):
            w *= Fraction(params.probe_prob[k][j])
        per_class = [sum(row) for row in sched]
        for k, y_k in enumerate(per_class):
            if y_k:
                # falling factorial x_k (x_k - 1) ... (x_k - y_k + 1)
                f = 1
                for r in range(y_k):
                    f *= flows[k] - r
                w *= f
        if policy == "standard_infra":
            for i, ap in enumerate(spec.access_points):
                active = sum(per_class[k] for k in ap.downlink)
                if active:
                    w /= Fraction(ap_totals[i]) ** active
        weights.append(w)

    z = sum(weights)
    return {s: w / z for s, w in zip(support, weights)}


def activity_marginals(dist: dict[Rows, Fraction], num_classes: int
                       ) -> tuple[Fraction, ...]:
    """Expected number of active links per class under a schedule distribution."""
    out = [Fraction(0)] * num_classes
    for sched, p in dist.items():
        for k, y_k in enumerate(map(sum, sched)):
            if y_k:
                out[k] += p * y_k
    return tuple(out)


# --- local balance and Lemma 1 ---

def stationary_log_weights(state, params: CsmaParams, spec: NetworkSpec,
                           policy: str) -> dict[Rows, float]:
    """Map each feasible schedule at x to its log stationary weight."""
    ev = PolicyEvaluator(spec, params, policy)
    schedules, logw = ev.log_weights(state)
    return dict(zip(schedule_rows(schedules), logw.tolist()))


def detailed_balance_check(state, params: CsmaParams, spec: NetworkSpec,
                           policy: str, *,
                           log_weights: Optional[dict[Rows, float]] = None
                           ) -> float:
    """Largest relative local-balance residual over all activation transitions.

    For every feasible pair (y, y + e_kj) the stationary measure must satisfy
    w(y) * attempt_rate = w(y + e_kj) * phys_rate. A correctly constructed
    measure gives residuals at floating-point noise level; ``log_weights`` may
    override the measure (e.g. with a corrupted one) to gauge sensitivity.
    """
    policy = check_policy(spec, policy)
    if log_weights is None:
        log_weights = stationary_log_weights(state, params, spec, policy)
    flows = state_flows(state)
    log_z = logsumexp(np.fromiter(log_weights.values(), dtype=float))
    prob = {s: np.exp(lw - log_z) for s, lw in log_weights.items()}
    worst = 0.0
    for sched in log_weights:
        for k in range(spec.num_classes):
            for j in range(spec.num_channels):
                if sched[k][j]:
                    continue
                target = _toggled(sched, k, j)
                if target not in log_weights:
                    continue
                up = prob[sched] * attempt_rate(spec, params, policy, flows, sched, k, j)
                down = prob[target] * params.phys_rate[k]
                scale = max(up, down)
                if scale > 0:
                    worst = max(worst, abs(up - down) / scale)
    return worst


@dataclass
class Lemma1Report:
    """Exact evaluation of the mean-log-weight concentration inequality."""

    holds: bool
    mean_log_u: float
    max_log_u: float
    epsilon: float
    state: tuple[int, ...]


def lemma1_check(state, params: CsmaParams, spec: NetworkSpec, epsilon: float,
                 policy: str = "auto") -> Lemma1Report:
    """Check that the stationary mean of log u(x, y) is at least
    (1 - epsilon) log u(x) at this state.

    The inequality is guaranteed to hold at all sufficiently large states;
    sweeping it over growing states locates the finite exception set.
    """
    policy = check_policy(spec, policy)
    if policy == "standard_infra":
        raise ValueError("the concentration check applies to the per-flow policies")
    ev = PolicyEvaluator(spec, params, policy)
    schedules, logw = ev.log_weights(state)
    probs = np.exp(logw - logsumexp(logw))
    log_u = np.array([log_weight_u(state, s, params) for s in schedule_rows(schedules)])
    mean = float(probs @ log_u)
    best = float(log_u.max())
    holds = mean >= (1.0 - epsilon) * best - 1e-12
    return Lemma1Report(holds, mean, best, epsilon, state_flows(state))


# --- Lyapunov drift ---

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
    rho = traffic_load(traffic)
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
    rho = traffic_load(traffic)
    phi = params.phi
    alpha = params.alpha
    J = spec.num_channels
    K = spec.num_classes
    per_class = sum(rho[k] / phi[k] * (2.0 + abs(math.log(alpha[k]))) for k in range(K))
    return per_class + J * K


# --- path integrals that no runner reads ---

@dataclass
class PathIntegrals:
    """Exact path integrals of one run, per class: the time spent holding a
    flow, the bits served and, in the joint model, the rate-time of each
    event kind, which compensates that kind's event count."""

    busy_time: tuple[float, ...]
    served_bits: tuple[float, ...]
    rate_time: Optional[dict[str, tuple[float, ...]]] = None


def _busy_served(busy: list[float], served: list[float], x: Sequence[int],
                 served_rate: Sequence[float], dt: float
                 ) -> tuple[list[float], list[float]]:
    """Busy time and served bits after a stretch of length ``dt`` at flow
    counts ``x`` and per-class served rates ``served_rate``."""
    return ([b + dt if n > 0 else b for b, n in zip(busy, x)],
            [s + r * dt for s, r in zip(served, served_rate)])


class _Accruing:
    """A ``_Separated`` or ``_Joint`` model, or a subclass of one, that also
    accrues its ``PathIntegrals`` through ``_run``'s ``accrue`` hook, after
    the model's own ``accrue`` if it has one. Its trajectory is the model's.

    The served rate of class k is its throughput at the state in the
    separated model and phi_k y_k in the joint one. A joint packet clock,
    at rate r = (y_k N) phi_k, splits into packet_continue events at rate
    r (1 - 1/(sigma_k N)) and packet_complete events at rate
    (y_k phi_k) / sigma_k; each product is rounded in the order written,
    and a stretch adds rate * dt.
    """

    def __init__(self, model, traffic: TrafficSpec):
        self.model = model
        self.num_classes = K = model.num_classes
        self.schedule = model.schedule
        self.rates, self.arrive, self.fire = model.rates, model.arrive, model.fire
        self.busy, self.served = [0.0] * K, [0.0] * K
        self.joint = isinstance(model, _Joint)
        if self.joint:
            self.lam = [float(v) for v in traffic.arrival_rate]
            self.sigma = [float(v) for v in traffic.mean_flow_size]
            self.continue_prob = [1.0 - p for p in model.flow_end_prob]
            self.rate_time = [0.0] * (4 * K)

    def accrue(self, x: list[int], dt: float) -> None:
        m = self.model
        if m.accrue is not None:
            m.accrue(x, dt)
        served_rate = ([p * y for p, y in zip(m.phi, m.y_class)] if self.joint
                       else m.throughput_fn(tuple(x)).tolist())
        self.busy, self.served = _busy_served(self.busy, self.served, x, served_rate, dt)
        if not self.joint:
            return
        packet_rt = ([r * c for r, c in zip(m.packet_total, self.continue_prob)]
                     + [y * p / s for y, p, s in zip(m.y_class, m.phi, self.sigma)])
        self.rate_time = [a + r * dt for a, r in
                          zip(self.rate_time, self.lam + m.attempt_total + packet_rt)]

    def finish(self, traj: Trajectory) -> None:
        self.model.finish(traj)
        rate_time = None
        if self.joint:
            K, rt = self.num_classes, self.rate_time
            rate_time = {name: tuple(rt[n * K:(n + 1) * K]) for n, name in
                         enumerate(("arrival", "attempt", "packet_continue",
                                    "packet_complete"))}
        self.integrals = PathIntegrals(tuple(self.busy), tuple(self.served), rate_time)


def with_integrals(model, traffic: TrafficSpec, cfg: SimConfig
                   ) -> tuple[Trajectory, PathIntegrals]:
    """Run ``model`` (see ``_Accruing``) on ``_run``: its trajectory and
    path integrals."""
    accruing = _Accruing(model, traffic)
    return _run(accruing, traffic, cfg), accruing.integrals


# the joint event kinds that the generator's out-rates are summed by: each
# is told apart by how the target state's flow count and active-slot count
# of the one class that changes differ from the source's
GENERATOR_KINDS = {(1, 0): "arrival", (0, 1): "attempt", (0, -1): "packet_continue",
                   (-1, -1): "flow_completion"}
_KIND_INDEX = {step: n for n, step in enumerate(GENERATOR_KINDS)}


class _GeneratorCompensated:
    """A ``_Joint`` model that accrues, through ``_run``'s ``accrue`` hook,
    the compensator of each event kind from ``oracles.joint_generator``
    alone: each stretch adds, per kind and class, the generator's out-rates
    at the visited (flow counts, schedule) state times the stretch's length.
    The model's own rates never enter, so a fault in them shows as event
    counts off their compensators. The box must hold every visited state
    strictly inside, where no arrival is dropped; ``accrue`` raises
    ``KeyError`` on a state outside it. Its trajectory is the model's.
    """

    def __init__(self, model: _Joint, spec: NetworkSpec, params: CsmaParams,
                 traffic: TrafficSpec, policy: str, box: Sequence[int]):
        self.model = model
        self.num_classes = K = model.num_classes
        self.schedule = model.schedule
        self.rates, self.arrive, self.fire = model.rates, model.arrive, model.fire
        self.states, self.q = joint_generator(spec, params, traffic, policy, model.N, box)
        self.index = {s: i for i, s in enumerate(self.states)}
        self.out: dict[int, list[float]] = {}        # per visited state, kind-major
        self.rate_time = [0.0] * (len(GENERATOR_KINDS) * K)
        self.box = tuple(box)
        self.inside = True

    def _out_rates(self, i: int) -> list[float]:
        K, (x, y) = self.num_classes, self.states[i]
        out = [0.0] * len(self.rate_time)
        q = self.q
        for c in range(q.indptr[i], q.indptr[i + 1]):
            j = int(q.indices[c])
            if j == i:
                continue
            x2, y2 = self.states[j]
            k, step = next((k, (x2[k] - x[k], sum(y2[k]) - sum(y[k]))) for k in range(K)
                           if x2[k] != x[k] or y2[k] != y[k])
            out[_KIND_INDEX[step] * K + k] += float(q.data[c])
        return out

    def accrue(self, x: list[int], dt: float) -> None:
        self.inside &= all(n < b for n, b in zip(x, self.box))
        i = self.index[(tuple(x), self.schedule())]
        out = self.out.get(i)
        if out is None:
            out = self.out[i] = self._out_rates(i)
        self.rate_time = [a + r * dt for a, r in zip(self.rate_time, out)]

    def finish(self, traj: Trajectory) -> None:
        self.model.finish(traj)


def generator_compensators(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                           cfg: SimConfig, box: Sequence[int]
                           ) -> tuple[Trajectory, dict[str, tuple[float, ...]], bool]:
    """Run the joint model (see ``_GeneratorCompensated``): its trajectory,
    the compensator of each kind of ``GENERATOR_KINDS`` per class, and
    whether the path stayed strictly inside ``box``."""
    policy = check_policy(spec, cfg.policy)
    model = _GeneratorCompensated(_Joint(spec, params, traffic, policy, cfg), spec, params,
                                  traffic, policy, box)
    traj = _run(model, traffic, cfg)
    K, rt = spec.num_classes, model.rate_time
    return traj, {name: tuple(rt[n * K:(n + 1) * K])
                  for n, name in enumerate(GENERATOR_KINDS.values())}, model.inside


# --- the flow-level generator, one packet-level solve per state ---

def flow_level_generator_per_state(spec: NetworkSpec, params: CsmaParams,
                                   traffic: TrafficSpec, policy: str, box: Sequence[int]
                                   ) -> tuple[list[tuple[int, ...]], sp.csr_array]:
    """``oracles.flow_level_generator`` with one ``PolicyEvaluator.throughput``
    per state of the box instead of one per throughput key: the reference
    that the per-key build must equal bit for bit."""
    policy = check_policy(spec, policy)
    states = _box_states(box)
    ev = PolicyEvaluator(spec, params, policy)
    index = {x: i for i, x in enumerate(states)}
    triplets: list[tuple[int, int, float]] = []
    lam = traffic.arrival_rate
    sigma = traffic.mean_flow_size
    for x, xi in index.items():
        phi_x = ev.throughput(x)
        for k in range(spec.num_classes):
            if lam[k] > 0 and x[k] < box[k]:
                up = list(x)
                up[k] += 1
                triplets.append((xi, index[tuple(up)], lam[k]))
            if x[k] > 0 and phi_x[k] > 0:
                down = list(x)
                down[k] -= 1
                triplets.append((xi, index[tuple(down)], phi_x[k] / sigma[k]))
    return states, _csr_generator(len(states), triplets)


# --- the M/M/1 reduction under a dominating service profile ---

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


def _geometric_bins(load: float, n: int) -> list[int]:
    """The first occupancy level of each chi-square bin for ``n`` samples
    of the geometric law P(X = l) = (1 - load) load^l: consecutive levels
    are merged until a bin expects at least 5 samples, and the last bin,
    from its first level up, takes the tail."""
    cuts, mass, level = [0], 0.0, 0
    while n * load ** (level + 1) >= 5.0:     # the tail still fills a bin
        mass += (1.0 - load) * load ** level
        level += 1
        if n * mass >= 5.0:
            cuts.append(level)
            mass = 0.0
    return cuts


def geometric_gof_pvalues(occupancy: np.ndarray, load: float) -> list[float]:
    """p-values of each column of ``occupancy`` (one queue per column, its
    samples in time order) against the geometric law of ``load``.

    Successive samples of a queue are correlated, so the plain chi-square
    statistic X^2, which takes them as independent, rejects a true law far
    more often than its level says. The statistic is corrected as Rao and
    Scott (1981) correct it for clustered samples: X^2 / (m - 1) is divided
    by the mean design effect of the m bins, each bin's design effect being
    the variance of its frequency estimated from ``MM1_BATCHES`` batch means
    over that of independent samples. The batch variances are pooled over
    the columns, which under the null are independent copies of one queue,
    and the corrected statistic is referred to F(m - 1, nu), nu being the
    pooled batch degrees of freedom. The last samples that fill no batch
    are left out.
    """
    B = MM1_BATCHES
    size = occupancy.shape[0] // B
    n = B * size
    cuts = _geometric_bins(load, n)
    m = len(cuts)
    if m < 2:
        return [1.0] * occupancy.shape[1]
    prob = np.array([load ** a for a in cuts] + [0.0])
    prob = prob[:-1] - prob[1:]                   # P(bin) = load^a - load^b
    bins = np.searchsorted(cuts, occupancy[:n], side="right") - 1
    # each batch's bin frequencies: (batch, column, bin)
    freq = (bins.reshape(B, size, -1)[..., None] == np.arange(m)).mean(axis=1)
    pooled = freq.var(axis=0, ddof=1).mean(axis=0) / B
    design = pooled / (prob * (1.0 - prob) / n)
    mean_design = float(((1.0 - prob) * design).sum()) / (m - 1)
    x2 = n * (((freq.mean(axis=0) - prob) ** 2) / prob).sum(axis=1)
    nu = occupancy.shape[1] * (B - 1)
    return f_dist.sf(x2 / ((m - 1) * mean_design), m - 1, nu).tolist()


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
                        cfg: SimConfig, target: Optional[float] = None) -> MM1Report:
    """Check that under the dominating service profile the non-center queues
    behave like independent single-server queues at their own load.

    Runs the separated model with every class except the center (class 2)
    served at full rate while occupied, then tests each edge class's exact
    busy fraction against the load (a t interval whose standard error comes
    from ``MM1_BATCHES`` batch means of the sampled busy indicator, pooled
    over the edge classes), its sampled occupancy against the geometric law
    (``geometric_gof_pvalues``), and pairwise correlations against zero (CI
    over the batch means). The samples of one run are correlated in time,
    which is why both tests read their variances off batch means; each
    family of tests fails a true law with probability at most
    ``MM1_LEVEL``. ``target`` replaces the edge classes' load as the law
    tested against, to measure the check's power. Raises ``ValueError``
    before simulating when ``cfg`` has fewer sample times than batches.
    """
    if len(cfg.sample_times) < MM1_BATCHES:
        raise ValueError(f"need at least {MM1_BATCHES} sample times for the batch "
                         f"means, got {len(cfg.sample_times)}")
    K = spec.num_classes
    edges = [k for k in range(K) if k != 2]
    rho = traffic_load(traffic) / params.phi
    if target is None:
        target = float(rho[edges[0]])
    fn = dominated_throughput_fn(spec, params, cfg.policy, edges)
    traj, paths = with_integrals(_Separated(spec, fn, traffic), traffic, cfg)

    horizon = traj.final_time
    busy = tuple(paths.busy_time[k] / horizon for k in edges)

    samples = np.array([s.state for s in traj.samples], dtype=float)
    n_samples = samples.shape[0]
    batch_size = n_samples // MM1_BATCHES
    occupancy = samples[:, edges].astype(int)

    # each family (busy fractions, occupancy laws) tests the len(edges)
    # queues at MM1_LEVEL / len(edges) each (Bonferroni), so a true law
    # fails a family at most at MM1_LEVEL
    level = MM1_LEVEL / len(edges)
    per_batch = (occupancy[:MM1_BATCHES * batch_size] > 0).reshape(
        MM1_BATCHES, batch_size, len(edges)).mean(axis=1)
    nu = len(edges) * (MM1_BATCHES - 1)
    busy_se = math.sqrt(float(per_batch.var(axis=0, ddof=1).mean()) / MM1_BATCHES)
    busy_half = (float(t_dist.isf(level / 2, nu)) * busy_se,) * len(edges)

    if target == 0.0:
        pvalues = [1.0 if occ.max() == 0 else 0.0 for occ in occupancy.T]
    else:
        pvalues = geometric_gof_pvalues(occupancy, target)

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

    busy_ok = all(abs(b - target) <= h for b, h in zip(busy, busy_half))
    gof_ok = all(p >= level for p in pvalues)
    corr_ok = abs(corr_mean) <= corr_half + 0.05
    return MM1Report(busy, busy_half, target, tuple(pvalues),
                     corr_mean, corr_half,
                     bool(busy_ok and gof_ok and corr_ok))


# --- complete multipartite networks: the partition, the closed form and
# the drain bound ---

def detect_l_partite(spec: NetworkSpec) -> Optional[tuple[tuple[int, ...], ...]]:
    """Partition the classes of a complete multipartite conflict graph.

    Returns blocks (C_1, ..., C_L) such that classes inside one block never
    conflict while classes of different blocks always conflict, or None when
    the graph has no such structure. Requires identical conflict graphs on all
    channels with every class eligible everywhere.
    """
    g = spec.channel_graphs[0]
    if any(other != g for other in spec.channel_graphs):
        raise ValueError("channel graphs differ; the multipartite test requires "
                         "the same conflict graph on every channel")
    if g.eligible != frozenset(range(spec.num_classes)):
        raise ValueError("the multipartite test requires every class to be eligible "
                         "on every channel")

    K = spec.num_classes
    # a class's block is the class itself plus every class it does not
    # conflict with; the graph is complete multipartite exactly when every
    # member of a block has that same block
    blocks = [frozenset([a, *(b for b in range(K) if not g.conflicts(a, b))])
              for a in range(K)]
    if any(blocks[b] != block for block in blocks for b in block):
        return None
    return tuple(sorted({tuple(sorted(block)) for block in blocks}))


@dataclass
class LPartiteVerdict:
    interior: bool
    slack: float                      # J - sum of block maxima of rho/phi
    multiplier: float                 # largest load multiplier, +inf at zero load


def lpartite_condition(rho: Sequence[float], spec: NetworkSpec,
                       params: CsmaParams) -> LPartiteVerdict:
    """Closed-form membership test for complete multipartite conflict graphs:
    the load is interior iff the per-block maxima of rho_k / phys_rate_k sum
    to less than the number of channels; the capacity LP's margin is then
    the multiplier minus one."""
    partition = detect_l_partite(spec)
    if partition is None:
        raise ValueError("conflict graph is not complete multipartite")
    phi = params.phys_rate
    total = left_sum(max(rho[k] / phi[k] for k in block) for block in partition)
    J = spec.num_channels
    return LPartiteVerdict(total < J, J - total, math.inf if total == 0 else J / total)


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
    rho = traffic_load(traffic)
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


# --- the bow-tie network: two triangles sharing a center class, two channels ---

def center_rate_polynomial(rho1: float) -> float:
    """Long-run service rate of the center class when each of the four edge
    classes is independently active with probability rho1 (unit physical
    rates, infinite attempt-rate limit)."""
    return rho1**4 / 3.0 - 2.0 * rho1**3 / 3.0 - 2.0 * rho1**2 / 3.0 + 1.0


def optimal_center_bound(rho1: float) -> float:
    """Center-class load boundary of the capacity region at edge load rho1."""
    return min(1.0, 2.0 - 2.0 * rho1)


def homogeneous_critical_load() -> float:
    """Fixed point rho = center_rate_polynomial(rho), found by bisection to
    an interval of width 1e-9.

    Above this load the homogeneous bow-tie network (all five classes equally
    loaded) diverges under the shared-queue policy if each edge class is an
    independent M/M/1 queue served at full rate. The edge classes share the
    channels, so this is an approximation: the exact boundary lies lower.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if mid - center_rate_polynomial(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- the coupled pair: stochastic domination, pathwise ---

@dataclass
class CoupledRun:
    dominated: Trajectory            # run with the larger service rates
    base: Trajectory
    ordered: bool                    # componentwise dominated <= base throughout
    dominated_integrals: PathIntegrals
    base_integrals: PathIntegrals


class _Coupled:
    """Coupled pair: ``_run``'s own chain is the base chain, served at
    ``throughput_lo``; the model carries the dominated chain, served at
    ``throughput_hi``, which takes the same arrivals.

    Class k has one coupling clock at the rate bound J * phi_k / sigma_k,
    so the clocks' total rate is constant and ``_run`` picks class k with
    probability bound_k / total. The next uniform of the run's uniform
    stream, scaled to u in [0, bound_k), then decides the departure in both
    chains (nested intervals): a chain holding class-k flows loses one when
    u falls below its own class-k departure rate. ``accrue`` adds the
    dominated chain's flow integrals and both chains' busy time and served
    bits.
    """

    schedule = None

    def __init__(self, spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                 cfg: SimConfig, throughput_hi: ThroughputFn, throughput_lo: ThroughputFn):
        self.num_classes = K = spec.num_classes
        self.sigma = [float(v) for v in traffic.mean_flow_size]
        self.bound = [spec.num_channels * p / s
                      for p, s in zip(params.phi.tolist(), self.sigma)]
        self.acc = list(itertools.accumulate(self.bound))
        self.throughput_hi = throughput_hi
        self.throughput_lo = throughput_lo
        self.y = [0] * K                  # the dominated chain's counts
        self.departures = [0] * K
        self.integral, self.busy, self.served = [0.0] * K, [0.0] * K, [0.0] * K
        self.base_busy, self.base_served = [0.0] * K, [0.0] * K
        self.sampler = _Sampler(cfg.sample_times)
        self.ordered = True

    def rates(self, x: list[int]):
        self.x = tuple(x)                 # the base chain's counts until the next event
        self.phi_lo = self.throughput_lo(self.x).tolist()
        self.phi_hi = self.throughput_hi(tuple(self.y)).tolist()
        return self.acc

    def arrive(self, k: int, t: float) -> None:
        self.sampler.emit(t, self.y)
        self.y[k] += 1

    def fire(self, kind: int, k: int, uniform: Callable[[], float], t: float) -> bool:
        u = uniform() * self.bound[k]
        x, y = self.x, self.y
        base = x[k] > 0 and u < self.phi_lo[k] / self.sigma[k]
        if y[k] > 0 and u < self.phi_hi[k] / self.sigma[k]:
            self.sampler.emit(t, y)
            y[k] -= 1
            self.departures[k] += 1
        self.ordered &= y[k] <= x[k] - base
        return base

    def accrue(self, x: list[int], dt: float) -> None:
        y = self.y
        self.integral = [a + n * dt for a, n in zip(self.integral, y)]
        self.busy, self.served = _busy_served(self.busy, self.served, y, self.phi_hi, dt)
        self.base_busy, self.base_served = _busy_served(
            self.base_busy, self.base_served, x, self.phi_lo, dt)

    def finish(self, traj: Trajectory) -> None:
        self.sampler.emit(math.inf, self.y)
        self.dominated = replace(
            traj, samples=self.sampler.out, departures=tuple(self.departures),
            final_state=tuple(self.y), time_integral_flows=tuple(self.integral))


def simulate_coupled_pair(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                          cfg: SimConfig, throughput_hi: ThroughputFn,
                          throughput_lo: ThroughputFn) -> CoupledRun:
    """Run the separated model under ``throughput_hi`` (the dominated chain)
    and ``throughput_lo`` (the base chain), coupled as in ``_Coupled``: where
    the first dominates the second pointwise on ordered states, the dominated
    chain's flow counts stay below. Used for stochastic-domination spot checks.
    """
    check_policy(spec, cfg.policy)
    model = _Coupled(spec, params, traffic, cfg, throughput_hi, throughput_lo)
    base = _run(model, traffic, cfg)
    return CoupledRun(model.dominated, base, model.ordered,
                      PathIntegrals(tuple(model.busy), tuple(model.served)),
                      PathIntegrals(tuple(model.base_busy), tuple(model.base_served)))
