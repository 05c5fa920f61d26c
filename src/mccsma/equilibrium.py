"""Exact stationary analysis of the packet-level schedule process.

For a fixed network state x, the randomly probing CSMA dynamics form a
reversible Markov process on the feasible schedules, so the stationary
distribution has an explicit product form. Three policies are covered:

``adhoc``
    Every link runs its own CSMA instance. The weight of a schedule is the
    product over flow-holding classes of
    x_k! / (x_k - y_k)! * alpha_k^y_k * prod_j beta_kj^y_kj.

``flow_aware``
    Infrastructure mode in which each access point runs one CSMA instance per
    downlink flow. The weight is the ad-hoc product above, taken over the
    schedule set with the one-downlink-transmission-per-access-point cap.

``standard_infra``
    Infrastructure mode in which each access point runs a single CSMA
    instance for all its downlink flows and picks the flow to serve with
    probability proportional to the per-class flow counts. Local balance
    (attempt rate nu_k * x_k / S_i * beta_kj against release rate phi_k, with
    S_i the total downlink flow count at access point i) gives each active
    downlink slot of class k the factor x_k / S_i in place of the falling
    factorial: the access point's single attempt budget is shared by its S_i
    flows. Uplink classes, and classes of no access point, keep the ad-hoc
    factor. This is the share form; it differs from the falling-factorial
    form x_k! / (x_k - y_k)! * (S_i - a_i)! (a_i the active downlink count,
    0 or 1) only by the state-only factor prod_i S_i!, which normalization
    removes.

Under every policy the empty schedule has log-weight exactly 0.
``PolicyEvaluator.equilibrium`` gives the distribution as one probability
per row of the feasible ``ScheduleSet``, in the set's lexicographic order.
The raw transition rates that the weights balance are the brute-force
oracles' (:mod:`mccsma.oracles`), which check these weights independently.

The weights read the state only through its *throughput key*
(``PolicyEvaluator.throughput_key``): the count of each plain class
(every class under ``adhoc`` and ``flow_aware``; uplink and AP-less classes
under ``standard_infra``), the cap min(x_k, J) of every other class, and the
share x_k / S_i of each shared-queue downlink class (0.0 when S_i = 0, where
the cap already rules the class out). A class alone at its access point has
share x / x = 1.0 and term log 1.0 = 0.0 whether it holds 1 flow or 500, so
it is left out of the share term; its cap is in the key. The
log-weight is computed from the key alone, so two states with equal keys get
bit-identical weights and throughputs by construction. This is what lets
``dynamics.ThroughputCache`` serve every state of one key from one
evaluation.

All weights are kept in log space and normalized through log-sum-exp, so
flow counts in the tens of thousands stay representable. An evaluator reads
every factorial from one table of log n! = lgamma(n + 1) for n = 0, 1, ...,
which doubles as larger states come along, up to ``LOG_FACTORIAL_CAP``
entries (512 KiB). A state whose plain flow total reaches the cap gets its
factorials from lgamma directly, so memory never grows with the flow count.
The table holds exactly lgamma's values, so both ways give the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln, logsumexp

from .schedule import ScheduleSet, ScheduleSpaceError, enumerate_feasible, state_flows
from .topology import CsmaParams, NetworkSpec

POLICIES = ("adhoc", "standard_infra", "flow_aware")

LOG_FACTORIAL_CAP = 1 << 16

# The largest uncapped schedule set an evaluator filters its cap patterns
# from: listing a larger one could cost far more than the patterns that a
# run visits.
UNCAPPED_MAX_SCHEDULES = 1 << 16


def check_policy(spec: NetworkSpec, policy: str) -> str:
    """Resolve and validate a policy name against the network mode."""
    if policy == "auto":
        policy = "standard_infra" if spec.is_infrastructure else "adhoc"
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    if policy == "adhoc" and spec.is_infrastructure:
        raise ValueError("policy 'adhoc' requires an ad-hoc network spec")
    if policy != "adhoc" and not spec.is_infrastructure:
        raise ValueError(f"policy {policy!r} requires an infrastructure network spec")
    return policy


def check_standard_attempt_rates(spec: NetworkSpec, params: CsmaParams) -> None:
    """The shared-queue policy needs one attempt rate per access point."""
    for i, ap in enumerate(spec.access_points):
        rates = {params.attempt_rate[k] for k in ap.downlink}
        if len(rates) > 1:
            raise ValueError(
                f"access point {i}: downlink classes must share one attempt rate "
                f"under the standard infrastructure policy, got {sorted(rates)}")


@dataclass
class EquilibriumResult:
    """Stationary schedule distribution and the induced per-class throughput:
    ``probabilities[i]`` is the probability of schedule ``schedules.active[i]``,
    in the set's lexicographic order."""

    schedules: ScheduleSet
    probabilities: np.ndarray
    throughput: np.ndarray


class PolicyEvaluator:
    """Vectorized stationary-distribution calculator for one (spec, params,
    policy) triple.

    The feasible set depends on the state only through the activation caps
    min(x_k, J). The evaluator enumerates the uncapped set once and filters
    each cap pattern's set from it (see ``_feasible``); each pattern's set is
    cached together with the state-independent log-weight terms, computed
    from the ``ScheduleSet``'s ``active`` and ``per_class`` arrays. Repeated
    evaluations along a simulation trajectory are then a few array
    operations.
    Every evaluation reads the state through ``throughput_key`` (see the
    module docstring), whose layout the evaluator exposes: ``capped`` lists
    the classes whose key entry is the cap min(x_k, J), and ``shared`` the
    classes whose shares follow the first K entries.
    """

    def __init__(self, spec: NetworkSpec, params: CsmaParams, policy: str):
        self.spec = spec
        self.params = params
        self.policy = check_policy(spec, policy)
        if self.policy == "standard_infra":
            check_standard_attempt_rates(spec, params)
        self._log_alpha = np.log(params.alpha)
        # 0 where beta_kj = 0, a channel that class k is not eligible for
        # and so never activates
        self._log_beta = np.log(np.where(params.beta > 0, params.beta, 1.0))
        self._bundles: dict[tuple[int, ...], dict] = {}
        self._uncapped: Optional[ScheduleSet | bool] = None   # see _feasible
        self._log_factorial = gammaln(np.arange(64) + 1.0)
        self._phi = params.phi
        self._K = K = spec.num_classes
        self._J = spec.num_channels
        # the shared-queue downlink classes; every other class is plain
        # (falling-factorial weight)
        groups = [sorted(ap.downlink) for ap in spec.access_points
                  if ap.downlink] if self.policy == "standard_infra" else []
        self._plain = [k for k in range(K) if not any(k in g for g in groups)]
        self.capped = [k for k in range(K) if k not in self._plain]
        # a class alone at its access point has share 1.0, or 0.0 where its
        # cap rules it out, and so log-weight term 0: only access points with
        # two or more downlink classes enter the key and the share term
        self._groups = [g for g in groups if len(g) > 1]
        self.shared = [k for g in self._groups for k in g]

    def _feasible(self, caps: tuple[int, ...]) -> ScheduleSet:
        """``enumerate_feasible(spec, caps)``, read off the uncapped set.

        A schedule is feasible at caps exactly when it is feasible without
        them and activates each class k at most caps[k] times, so filtering
        the uncapped set keeps the same rows in the same lexicographic
        order. The uncapped set is enumerated once per evaluator if it holds
        at most ``UNCAPPED_MAX_SCHEDULES`` schedules, far fewer than the
        enumeration guard allows, so no filtered set could have tripped it.
        Where it holds more, each pattern is enumerated on its own, under the
        guard. ``_uncapped`` is None until the first call, then the uncapped
        set, or False where it is too large.
        """
        if self._uncapped is None:
            try:
                self._uncapped = enumerate_feasible(
                    self.spec, max_schedules=UNCAPPED_MAX_SCHEDULES)
            except ScheduleSpaceError:
                self._uncapped = False
        if self._uncapped is False:
            return enumerate_feasible(self.spec, caps)
        keep = (self._uncapped.per_class <= caps).all(axis=1)
        return self._uncapped if keep.all() else ScheduleSet(self._uncapped.active[keep])

    def _bundle(self, caps: tuple[int, ...]) -> dict:
        b = self._bundles.get(caps)
        if b is not None:
            return b
        schedules = self._feasible(caps)
        per_class = schedules.per_class
        # state-independent part: y_k log alpha_k + sum_kj y_kj log beta_kj
        const = per_class @ self._log_alpha
        const = const + np.einsum("skj,kj->s", schedules.active, self._log_beta)
        b = {"schedules": schedules, "per_class": per_class, "const": const,
             "plain": per_class[:, self._plain],
             "shared": per_class[:, self.shared].astype(np.float64)}
        self._bundles[caps] = b
        return b

    def _log_factorials(self, n: int) -> Optional[np.ndarray]:
        """The table of log k!, holding k = 0..n at least, or None when n + 1
        entries would exceed ``LOG_FACTORIAL_CAP``."""
        lf = self._log_factorial
        if n >= len(lf):
            if n >= LOG_FACTORIAL_CAP:
                return None
            size = min(LOG_FACTORIAL_CAP, max(2 * len(lf), n + 1))
            lf = self._log_factorial = gammaln(np.arange(size) + 1.0)
        return lf

    def throughput_key(self, state) -> tuple:
        """Everything the weights at ``state`` read, as a hashable tuple.

        That is the state with each count x_k of a class that is not plain
        replaced by its cap min(x_k, J), then the share x_k / S_i (0.0 when
        S_i = 0) of each downlink class of an access point with two or more
        of them, grouped by access point. Under ``adhoc`` and ``flow_aware``
        every class is plain, so the key is the flow vector.
        States with equal keys get bit-identical results from every method.
        Integral floats and NumPy integers count as their ints. Raises
        ``ValueError`` naming the state when it does not hold K nonnegative
        integral counts.
        """
        flows = state
        if type(state) is not tuple or type(sum(state)) is not int:
            # a tuple of Python ints skips this; anything else is converted
            # and checked
            flows = state_flows(state)
        if len(flows) != self._K or min(flows) < 0:
            raise ValueError(f"state {flows} must hold {self._K} nonnegative "
                             f"integral flow counts")
        J = self._J
        key = list(flows)
        for k in self.capped:
            if key[k] > J:
                key[k] = J
        for group in self._groups:
            total = sum([flows[k] for k in group])
            key += [flows[k] / total if total else 0.0 for k in group]
        return tuple(key)

    def _logw(self, state) -> tuple[dict, np.ndarray]:
        key = self.throughput_key(state)
        K, J = self._K, self._J
        counts, shares = [key[k] for k in self._plain], key[K:]
        b = self._bundle(tuple([c if c < J else J for c in key[:K]]))
        if counts:
            # every factorial below is of a count in [0, sum(counts)]
            lf = self._log_factorials(sum(counts))
            if lf is None:                          # beyond the table
                x = np.asarray(counts, dtype=np.float64)
                log_factorial = lambda v: gammaln(v + 1.0)
            else:
                x = np.array(counts)
                log_factorial = lf.__getitem__
            # falling factorial x_k!/(x_k - y_k)! per plain class, zero rows
            # contribute 0
            logw = log_factorial(x).sum() - log_factorial(x - b["plain"]).sum(axis=1)
            logw += b["const"]
        else:
            logw = b["const"].copy()
        if shares:
            # y_k log(x_k / S_i); a capped-out class (share 0) has y_k = 0 in
            # every schedule and contributes 0
            logw += b["shared"] @ [math.log(v) if v else 0.0 for v in shares]
        return b, logw

    def log_weights(self, state) -> tuple[ScheduleSet, np.ndarray]:
        """Unnormalized log stationary weights over the feasible set at x."""
        b, logw = self._logw(state)
        return b["schedules"], logw

    def equilibrium(self, state) -> EquilibriumResult:
        """The normalized distribution at ``state`` and the throughputs
        phys_rate_k * E[number of active class-k links]."""
        b, logw = self._logw(state)
        log_z = float(logsumexp(logw))
        probs = np.exp(logw - log_z)
        throughput = self._phi * (probs @ b["per_class"])
        return EquilibriumResult(b["schedules"], probs, throughput)

    def throughput(self, state) -> np.ndarray:
        """Per-class throughput only, without the distribution."""
        b, w = self._logw(state)
        w -= w.max()
        np.exp(w, out=w)
        w /= w.sum()
        return self._phi * (w @ b["per_class"])

