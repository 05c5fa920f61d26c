"""Brute-force Markov-chain oracles.

These build explicit generators from the raw transition rates and solve them
numerically. They are deliberately independent of the closed-form weights in
:mod:`mccsma.equilibrium`: every product-form expression in this package is
tested against a null-space solve of the matching generator, and transient
distributions for convergence studies come from uniformization rather than
from simulation.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

from .equilibrium import PolicyEvaluator, attempt_rate, check_policy
from .schedule import Schedule, enumerate_feasible, state_flows
from .topology import CsmaParams, NetworkSpec, TrafficSpec


def packet_level_generator(state, params: CsmaParams, spec: NetworkSpec,
                           policy: str) -> tuple[list[Schedule], np.ndarray]:
    """Generator of the schedule process at a fixed network state.

    Activation transitions carry the policy's attempt rates (attempts whose
    target schedule is infeasible are carrier-sense blocked and do not appear);
    deactivations carry the per-class physical rate.
    """
    policy = check_policy(spec, policy)
    flows = state_flows(state)
    schedules = list(enumerate_feasible(spec, flows))
    index = {s: i for i, s in enumerate(schedules)}
    n = len(schedules)
    q = np.zeros((n, n))
    for sched, si in index.items():
        for k in range(spec.num_classes):
            for j in range(spec.num_channels):
                if sched.active[k][j]:
                    continue
                ti = index.get(sched.with_slot(k, j))
                if ti is None:
                    continue
                q[si, ti] += attempt_rate(spec, params, policy, flows, sched, k, j)
        for k, j in sched.slots:
            rows = [list(r) for r in sched.active]
            rows[k][j] -= 1
            target = Schedule(tuple(tuple(r) for r in rows))
            q[si, index[target]] += params.phys_rate[k]
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return schedules, q


def stationary_distribution(q: np.ndarray) -> np.ndarray:
    """Solve pi Q = 0, sum(pi) = 1 by least squares."""
    n = q.shape[0]
    a = np.vstack([q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def transient_distribution(q: np.ndarray, p0: np.ndarray, t: float,
                           tol: float = 1e-12) -> np.ndarray:
    """Distribution at time t via uniformization, accurate to ``tol``."""
    if t <= 0:
        return np.array(p0, dtype=float)
    lam = float(np.max(-np.diag(q)))
    if lam == 0.0:
        return np.array(p0, dtype=float)
    lam *= 1.0 + 1e-12
    p_step = np.eye(q.shape[0]) + q / lam
    v = np.array(p0, dtype=float)
    weight = np.exp(-lam * t)
    if weight == 0.0:
        # avoid underflow for large lam*t by scaling in log space
        return _transient_scaled(p_step, p0, lam * t, tol)
    acc = weight * v
    mass = weight
    m = 0
    max_terms = int(lam * t + 20 * np.sqrt(lam * t + 1) + 200)
    while mass < 1.0 - tol and m < max_terms:
        m += 1
        v = v @ p_step
        weight *= lam * t / m
        acc += weight * v
        mass += weight
    return acc / acc.sum()


def _transient_scaled(p_step: np.ndarray, p0: np.ndarray, lt: float,
                      tol: float) -> np.ndarray:
    # Poisson weights computed in log space, renormalized at the end
    from scipy.stats import poisson

    lo, hi = poisson.ppf([tol / 2, 1 - tol / 2], lt).astype(int)
    lo = max(int(lo) - 1, 0)
    v = np.array(p0, dtype=float)
    for _ in range(lo):
        v = v @ p_step
    acc = poisson.pmf(lo, lt) * v
    for m in range(lo + 1, int(hi) + 2):
        v = v @ p_step
        acc += poisson.pmf(m, lt) * v
    return acc / acc.sum()


def _box_states(box: Sequence[int]) -> list[tuple[int, ...]]:
    return [tuple(x) for x in itertools.product(*(range(b + 1) for b in box))]


def flow_level_generator(spec: NetworkSpec, params: CsmaParams,
                         traffic: TrafficSpec, policy: str,
                         box: Sequence[int]
                         ) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Truncated generator of the flow-count process under instantaneous
    packet-level equilibrium.

    Arrivals that would leave the box are dropped, so the result is exact only
    up to the probability mass the untruncated process puts outside the box.
    """
    policy = check_policy(spec, policy)
    ev = PolicyEvaluator(spec, params, policy)
    states = _box_states(box)
    index = {x: i for i, x in enumerate(states)}
    n = len(states)
    q = np.zeros((n, n))
    lam = traffic.arrival_rate
    sigma = traffic.mean_flow_size
    for x, xi in index.items():
        phi_x = ev.throughput(x)
        for k in range(spec.num_classes):
            if lam[k] > 0 and x[k] < box[k]:
                up = list(x)
                up[k] += 1
                q[xi, index[tuple(up)]] += lam[k]
            if x[k] > 0 and phi_x[k] > 0:
                down = list(x)
                down[k] -= 1
                q[xi, index[tuple(down)]] += phi_x[k] / sigma[k]
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return states, q


JointState = tuple[tuple[int, ...], Schedule]


def joint_generator(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                    policy: str, scaling_n: int, box: Sequence[int]
                    ) -> tuple[list[JointState], np.ndarray]:
    """Truncated generator of the joint (flow counts, schedule) process at
    scaling parameter N.

    Transition types: flow arrival, channel access (rate scaled by N), packet
    transmission without flow completion (vanishes when sigma_k N = 1), and
    packet transmission completing the flow.
    """
    policy = check_policy(spec, policy)
    for k, s in enumerate(traffic.mean_flow_size):
        if s * scaling_n < 1.0:
            raise ValueError(f"class {k}: mean packet count sigma*N = {s * scaling_n} "
                             f"is below one packet per flow")
    states: list[JointState] = []
    for x in _box_states(box):
        for y in enumerate_feasible(spec, x):
            states.append((x, y))
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    q = np.zeros((n, n))
    lam = traffic.arrival_rate
    sigma = traffic.mean_flow_size
    phi = params.phys_rate
    big_n = scaling_n
    for (x, y), si in index.items():
        for k in range(spec.num_classes):
            if lam[k] > 0 and x[k] < box[k]:
                up = list(x)
                up[k] += 1
                q[si, index[(tuple(up), y)]] += lam[k]
            for j in range(spec.num_channels):
                if not y.active[k][j]:
                    ti = index.get((x, y.with_slot(k, j)))
                    if ti is not None:
                        q[si, ti] += big_n * attempt_rate(spec, params, policy, x, y, k, j)
        for k, j in y.slots:
            rows = [list(r) for r in y.active]
            rows[k][j] -= 1
            y_down = Schedule(tuple(tuple(r) for r in rows))
            q[si, index[(x, y_down)]] += big_n * phi[k] * (1.0 - 1.0 / (sigma[k] * big_n))
            x_down = list(x)
            x_down[k] -= 1
            q[si, index[(tuple(x_down), y_down)]] += phi[k] / sigma[k]
    np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
    return states, q
