"""Brute-force Markov-chain oracles.

These build explicit generators from the raw transition rates and solve them
numerically. They are deliberately independent of the closed-form weights in
:mod:`mccsma.equilibrium`: transient distributions for convergence studies
come from uniformization of the flow-level generator rather than from
simulation, and the joint generator gives the tests the compensators of the
joint model's events. They also keep their own representation of a
schedule, apart from the ``ScheduleSet`` arrays that the closed form reads:
its activation matrix as a hashable tuple of rows (``Rows``, listed from a
set by ``schedule_rows``), on which the joint generator keys its states.
``attempt_rate`` gives each policy's raw activation rates. The oracles that
only the tests read, the packet-level generator and the stationary solve
that every product form is checked against, live beside the tests, in
``tests/oracles.py``, on the same helpers.

Every generator is a ``scipy.sparse.csr_array`` assembled from (row, column,
rate) triplets: a state has a handful of transitions, so a dense matrix would
be almost all zeros (128 MB for a 4,096-state box).
``transient_distribution`` stays sparse. The flow-level generator builds its
triplets as arrays, with no Python object per transition: one slot for each
state's arrival and departure of each class, in the order of a loop over the
states and classes, masked to the transitions that exist. The joint
generator, whose states are schedules as well, lists its triplets state by
state. The flow-level and joint generators refuse a box of more than
``MAX_ORACLE_STATES`` flow-count vectors with ``OracleSpaceError`` before any
per-state work.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, pdtr, pdtrik, xlogy

from .equilibrium import PolicyEvaluator, check_policy
from .schedule import OracleSpaceError, ScheduleSet, enumerate_feasible
from .topology import CsmaParams, NetworkSpec, TrafficSpec

# Largest box (number of flow-count vectors) the flow-level and joint
# generators accept. The flow-level build solves one packet-level equilibrium
# per throughput key. That is one per state where every state is its own
# key, as under adhoc and flow_aware: on a 2-CPU Xeon, about 23,000 states/s
# on adhoc4. Under standard_infra with one downlink class per access point
# the keys are the cap patterns (8 for ap-line3's 4,096 states, 243 for the
# bow-tie), and computing each state's key dominates: about 260,000
# states/s on the bow-tie. So this bound keeps a build within about 5 s. It
# admits adhoc4's default timescale box (28,561 states, built in 1.3 s) and
# refuses those of bow-tie (759,375), two-ap (2,985,984) and bipartite33
# (4,826,809).
MAX_ORACLE_STATES = 100_000

# Poisson mass that uniformization may leave out of a transient distribution
UNIFORMIZATION_TOL = 1e-12

# A schedule: its K x J activation matrix as a tuple of rows. Tuple order is
# the row-major lexicographic order of the flattened matrix.
Rows = tuple[tuple[int, ...], ...]


def schedule_rows(schedules: ScheduleSet) -> list[Rows]:
    """Each schedule of the set as a tuple of rows, in the set's order."""
    return [tuple(map(tuple, m)) for m in schedules.active.tolist()]


def _toggled(sched: Rows, k: int, j: int) -> Rows:
    """``sched`` with slot (k, j) switched on if it is off, off if it is on."""
    rows = [list(r) for r in sched]
    rows[k][j] = 1 - rows[k][j]
    return tuple(tuple(r) for r in rows)


def _active_slots(sched: Rows) -> list[tuple[int, int]]:
    return [(k, j) for k, row in enumerate(sched) for j, v in enumerate(row) if v]


def attempt_rate(spec: NetworkSpec, params: CsmaParams, policy: str,
                 flows: Sequence[int], sched: Rows, k: int, j: int) -> float:
    """Transition rate for activating slot (k, j) from the given schedule.

    Feasibility of the target schedule is the caller's concern; this is the
    raw attempt rate of the policy's dynamics.
    """
    x_k = flows[k]
    y_k = sum(sched[k])
    beta = params.probe_prob[k][j]
    i = spec.downlink_ap(k)
    if policy == "standard_infra" and i is not None:
        total = sum(flows[m] for m in spec.access_points[i].downlink)
        if total == 0:
            return 0.0
        return params.attempt_rate[k] * (x_k / total) * beta
    return (x_k - y_k) * params.attempt_rate[k] * beta


def poisson_quantile(q: float, mu: float) -> int:
    """Smallest m with P(Poisson(mu) <= m) >= q, for 0 < q < 1 and mu > 0.

    The inverse of the regularized incomplete gamma function gives a real
    m; its ceiling or the integer below is the answer, decided by one exact
    CDF evaluation.
    """
    m = math.ceil(pdtrik(q, mu))
    below = max(m - 1, 0)
    return below if pdtr(below, mu) >= q else m


def _csr_generator(n: int, triplets) -> sp.csr_array:
    """Generator from off-diagonal (row, column, rate) triplets, a list of
    them or an array of one per row; repeated pairs add up and each diagonal
    entry is minus its row's total rate."""
    t = np.asarray(triplets, dtype=float).reshape(-1, 3)
    rows, cols, rates = t[:, 0].astype(np.int64), t[:, 1].astype(np.int64), t[:, 2]
    diag = np.arange(n)
    return sp.csr_array(
        (np.concatenate([rates, -np.bincount(rows, weights=rates, minlength=n)]),
         (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
        shape=(n, n))


def transient_distribution(q, p0: np.ndarray, t: float) -> np.ndarray:
    """Distribution at time t via uniformization, accurate to
    ``UNIFORMIZATION_TOL``.

    ``q`` may be dense or sparse; it is converted to CSR once, and each
    step is one sparse product.
    """
    if t <= 0:
        return np.array(p0, dtype=float)
    q = sp.csr_array(q)
    lam = float(np.max(-q.diagonal()))
    if lam == 0.0:
        return np.array(p0, dtype=float)
    lam *= 1.0 + 1e-12
    # I + Q / lam, dividing each rate (scipy's scalar division multiplies
    # by 1 / lam, which can round differently), transposed so that the
    # row vector times the step is a CSR product
    scaled = sp.csr_array((q.data / lam, q.indices, q.indptr), shape=q.shape)
    step_t = (sp.eye_array(q.shape[0], format="csr") + scaled).T.tocsr()
    v = np.array(p0, dtype=float)
    weight = np.exp(-lam * t)
    if weight == 0.0:
        # avoid underflow for large lam*t by scaling in log space
        return _transient_scaled(step_t, p0, lam * t)
    acc = weight * v
    mass = weight
    m = 0
    max_terms = int(lam * t + 20 * np.sqrt(lam * t + 1) + 200)
    while mass < 1.0 - UNIFORMIZATION_TOL and m < max_terms:
        m += 1
        v = step_t @ v
        weight *= lam * t / m
        acc += weight * v
        mass += weight
    return acc / acc.sum()


def _poisson_pmf(m: int, mu: float) -> float:
    return float(np.exp(xlogy(m, mu) - gammaln(m + 1) - mu))


def _transient_scaled(step_t: sp.csr_array, p0: np.ndarray, lt: float) -> np.ndarray:
    # Poisson weights computed in log space, renormalized at the end
    lo = max(poisson_quantile(UNIFORMIZATION_TOL / 2, lt) - 1, 0)
    hi = poisson_quantile(1 - UNIFORMIZATION_TOL / 2, lt)
    v = np.array(p0, dtype=float)
    for _ in range(lo):
        v = step_t @ v
    acc = _poisson_pmf(lo, lt) * v
    for m in range(lo + 1, hi + 2):
        v = step_t @ v
        acc += _poisson_pmf(m, lt) * v
    return acc / acc.sum()


def _box_states(box: Sequence[int]) -> list[tuple[int, ...]]:
    size = math.prod(int(b) + 1 for b in box)
    if size > MAX_ORACLE_STATES:
        raise OracleSpaceError(
            f"box {tuple(box)} holds {size} flow-count states, more than the "
            f"oracle guard of {MAX_ORACLE_STATES}")
    return [tuple(x) for x in itertools.product(*(range(b + 1) for b in box))]


def flow_level_generator(spec: NetworkSpec, params: CsmaParams,
                         traffic: TrafficSpec, policy: str,
                         box: Sequence[int]
                         ) -> tuple[list[tuple[int, ...]], sp.csr_array]:
    """Truncated generator of the flow-count process under instantaneous
    packet-level equilibrium.

    Arrivals that would leave the box are dropped, so the result is exact only
    up to the probability mass the untruncated process puts outside the box.
    States of one ``throughput_key`` share one packet-level solve, whose
    throughputs they would all get bit for bit. The transitions are built
    as arrays and come out in the order of a loop over the states and then
    the classes, an arrival before a departure, which is the order of the
    per-state reference in ``tests/theory.py``. Raises ``OracleSpaceError``
    when the box holds more than ``MAX_ORACLE_STATES`` states.
    """
    policy = check_policy(spec, policy)
    states = _box_states(box)
    ev = PolicyEvaluator(spec, params, policy)
    keys: dict[tuple, int] = {}         # throughput key -> its row of solves
    solves, of_state = [], []
    for x in states:
        key = ev.throughput_key(x)
        if key not in keys:
            keys[key] = len(solves)
            solves.append(ev.throughput(x))
        of_state.append(keys[key])
    n, K = len(states), spec.num_classes
    side = [int(b) + 1 for b in box]
    x = np.indices(side).reshape(K, n).T                # the states, in their order
    phi = np.array(solves)[of_state]
    lam = np.array(traffic.arrival_rate, dtype=float)
    sigma = np.array(traffic.mean_flow_size, dtype=float)
    # entry [i, k] is state i's class-k arrival, then its class-k departure,
    # which move it by + and - class k's stride in the box's row-major order
    stride = np.cumprod([1, *side[:0:-1]])[::-1]
    rows = np.broadcast_to(np.arange(n)[:, None, None], (n, K, 2))
    cols = rows + stride[:, None] * np.array([1, -1])
    rates = np.stack((np.broadcast_to(lam, (n, K)), phi / sigma), axis=2)
    keep = np.stack(((lam > 0) & (x < np.array(box)), (x > 0) & (phi > 0)), axis=2)
    return states, _csr_generator(n, np.stack((rows[keep], cols[keep], rates[keep]), axis=1))


JointState = tuple[tuple[int, ...], Rows]


def joint_generator(spec: NetworkSpec, params: CsmaParams, traffic: TrafficSpec,
                    policy: str, scaling_n: int, box: Sequence[int]
                    ) -> tuple[list[JointState], sp.csr_array]:
    """Truncated generator of the joint (flow counts, schedule) process at
    scaling parameter N.

    Transition types: flow arrival, channel access (rate scaled by N), packet
    transmission without flow completion (vanishes when sigma_k N = 1), and
    packet transmission completing the flow. Raises ``OracleSpaceError``
    when the box holds more than ``MAX_ORACLE_STATES`` flow-count states.
    """
    policy = check_policy(spec, policy)
    for k, s in enumerate(traffic.mean_flow_size):
        if s * scaling_n < 1.0:
            raise ValueError(f"class {k}: mean packet count sigma*N = {s * scaling_n} "
                             f"is below one packet per flow")
    states: list[JointState] = []
    for x in _box_states(box):
        for y in schedule_rows(enumerate_feasible(spec, x)):
            states.append((x, y))
    index = {s: i for i, s in enumerate(states)}
    triplets: list[tuple[int, int, float]] = []
    lam = traffic.arrival_rate
    sigma = traffic.mean_flow_size
    phi = params.phys_rate
    big_n = scaling_n

    for (x, y), si in index.items():
        for k in range(spec.num_classes):
            if lam[k] > 0 and x[k] < box[k]:
                up = list(x)
                up[k] += 1
                triplets.append((si, index[(tuple(up), y)], lam[k]))
            for j in range(spec.num_channels):
                if not y[k][j]:
                    ti = index.get((x, _toggled(y, k, j)))
                    if ti is not None:
                        rate = big_n * attempt_rate(spec, params, policy, x, y, k, j)
                        triplets.append((si, ti, rate))
        for k, j in _active_slots(y):
            y_down = _toggled(y, k, j)
            triplets.append((si, index[(x, y_down)],
                             big_n * phi[k] * (1.0 - 1.0 / (sigma[k] * big_n))))
            x_down = list(x)
            x_down[k] -= 1
            triplets.append((si, index[(tuple(x_down), y_down)], phi[k] / sigma[k]))
    return states, _csr_generator(len(states), triplets)
