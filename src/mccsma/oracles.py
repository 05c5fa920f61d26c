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

Every generator is a ``Csr``: a compressed-sparse-row matrix of numpy
arrays, laid out as ``scipy.sparse.csr_array`` lays it out (the same
``data``, ``indices`` and ``indptr``, with int32 indices), assembled from
(row, column, rate) triplets, with every row's diagonal entry stored. A
state has a handful of transitions, so a dense matrix would be almost all
zeros (128 MB for a 4,096-state box). ``transient_distribution`` takes
such a ``Csr`` and no other matrix, stays sparse, and each uniformization
step gives scipy's CSR product bit for bit. The flow-level generator builds
its triplets as arrays, with no Python object per transition: one slot for
each state's arrival and departure of each class, in the order of a loop
over the states and classes, masked to the transitions that exist. The
joint generator, whose states are schedules as well, lists its triplets
state by state. The flow-level and joint generators refuse a box of more
than ``MAX_ORACLE_STATES`` flow-count vectors with ``OracleSpaceError``
before any per-state work.

Nothing here imports scipy when the module loads, so a time-scale study
runs on numpy alone: ``poisson_quantile`` sums the Poisson upper tail
itself for the upper quantiles that size a study's box, and leaves only
the rare knife-edge case, and every quantile at or below the median, to
``scipy.special``; ``transient_distribution`` reads no scipy at any λt.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

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


class Csr(NamedTuple):
    """A sparse matrix in compressed sparse row form, laid out as
    ``scipy.sparse`` lays out a canonical ``csr_array``: row i holds the
    values ``data[indptr[i]:indptr[i + 1]]`` at the columns
    ``indices[indptr[i]:indptr[i + 1]]``, which increase along the row."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]


# Mean up to which poisson_quantile sums the Poisson probabilities itself;
# below it exp(-mu) is a normal float.
_SUMMED_MU_MAX = 700.0
# A summed probability within _KNIFE_EDGE, plus 1e-12 of the target's size,
# of its target leaves the quantile to scipy: the sum errs by less than
# about 2e-13 of its size, and the CDF value that scipy compares with q
# rounds at about 1e-16.
_KNIFE_EDGE = 1e-15


def poisson_quantile(q: float, mu: float) -> int:
    """Smallest m with P(Poisson(mu) <= m) >= q, for 0 < q < 1 and finite
    mu >= 0, as scipy's ``poisson.ppf`` gives it.

    For q > 0.5, the upper quantiles that size a time-scale study's box,
    and mu up to 700, the tail beyond m is summed in floats from its far
    end against 1 - q. Where that sum lies within about 1e-15 of 1 - q at
    m or m - 1 (``_KNIFE_EDGE``), rounding decides, and the answer is
    scipy's (``_scipy_poisson_quantile``), as it is for q <= 0.5 and for
    larger mu. Raises ``ValueError`` naming q and mu when q is outside
    (0, 1) or mu is negative or not finite.
    """
    if not (0.0 < q < 1.0 and math.isfinite(mu) and mu >= 0.0):
        raise ValueError(f"poisson_quantile needs 0 < q < 1 and a finite mu >= 0, "
                         f"got q={q}, mu={mu}")
    if mu == 0.0:
        return 0
    if q <= 0.5 or mu > _SUMMED_MU_MAX:
        return _scipy_poisson_quantile(q, mu)
    target = 1.0 - q                        # exact for q >= 0.5
    # the terms p_0..p_M, M past the mean and far enough out that the tail
    # beyond it is negligible against the target
    terms = [math.exp(-mu)]
    while len(terms) <= mu or terms[-1] > 1e-20 * target:
        terms.append(terms[-1] * mu / len(terms))
    m, tail = len(terms) - 1, 0.0           # tail = P(X > m)
    while m > 0 and tail + terms[m] <= target:
        tail += terms[m]
        m -= 1
    if any(abs(s - target) <= _KNIFE_EDGE + 1e-12 * target for s in (tail, tail + terms[m])):
        return _scipy_poisson_quantile(q, mu)
    return m


def _scipy_poisson_quantile(q: float, mu: float) -> int:
    """``poisson_quantile`` by scipy: the inverse of the regularized
    incomplete gamma function gives a real m; its ceiling or the integer
    below is the answer, decided by one exact CDF evaluation."""
    from scipy.special import pdtr, pdtrik

    m = math.ceil(pdtrik(q, mu))
    below = max(m - 1, 0)
    return below if pdtr(below, mu) >= q else m


def _csr_generator(n: int, triplets) -> Csr:
    """Generator from off-diagonal (row, column, rate) triplets, a list of
    them or an array of one per row; each diagonal entry, stored in every
    row, is minus its row's total rate. The ``Csr`` is the one that
    ``scipy.sparse.csr_array`` builds from these entries: in the order of
    the rows and then the columns, explicit zeros kept, with int32 indices.
    No (row, column) pair may repeat."""
    t = np.asarray(triplets, dtype=float).reshape(-1, 3)
    rows, cols, rates = t[:, 0].astype(np.int64), t[:, 1].astype(np.int64), t[:, 2]
    diag = np.arange(n)
    values = np.concatenate([rates, -np.bincount(rows, weights=rates, minlength=n)])
    rows, cols = np.concatenate([rows, diag]), np.concatenate([cols, diag])
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Csr(values, cols.astype(np.int32), indptr, (n, n))


def transient_distribution(q: Csr, p0: np.ndarray, t: float) -> np.ndarray:
    """Distribution at time t via uniformization, accurate to
    ``UNIFORMIZATION_TOL``.

    ``q`` is a generator as the generators here build it: a ``Csr`` whose
    every row stores its diagonal entry (a row with no transition stores
    -0.0); any other raises ``ValueError``. Each step is one sparse
    product, bit for bit the product of scipy's transposed CSR step with
    the vector.

    The sum of the Poisson(λt)-weighted steps starts at term 0, of weight
    e^-λt, and ends once the weights add up to 1 - ``UNIFORMIZATION_TOL``.
    Where e^-λt underflows (λt above about 745), it starts at term
    lo = floor(λt - 8 sqrt(λt)) instead, of weight exp(lo log λt - log lo!
    - λt) from ``math.lgamma``, and goes on by the same recursion: by the
    Chernoff bound the Poisson mass below lo is under e^-32, about 1e-14,
    and the result is renormalized to sum to 1.
    """
    if t <= 0:
        return np.array(p0, dtype=float)
    n = q.shape[0]
    counts = np.diff(q.indptr)
    on_diag = np.repeat(np.arange(n), counts) == q.indices
    stored = np.count_nonzero(on_diag)
    if stored != n:
        raise ValueError(f"transient_distribution needs a generator that stores each "
                         f"row's diagonal entry; {n - stored} of its {n} rows store none")
    lam = float(np.max(-q.data[on_diag]))
    if lam == 0.0:
        return np.array(p0, dtype=float)
    lam *= 1.0 + 1e-12
    # I + Q / lam, dividing each rate. scipy's sum drops the entries that
    # come out 0, which here add 0.0 to sums that start at 0.0 and so
    # change none
    values = q.data / lam
    values[on_diag] += 1.0
    step = counts, q.indices, values
    v = np.array(p0, dtype=float)
    m, weight = 0, np.exp(-lam * t)
    if weight == 0.0:
        # the sum starts at lo, where the weight is a normal float; the
        # Poisson mass below lo is under e^-32
        lt = lam * t
        m = math.floor(lt - 8 * math.sqrt(lt))
        for _ in range(m):
            v = _times_step(step, v)
        weight = math.exp(m * math.log(lt) - math.lgamma(m + 1) - lt)
    acc = weight * v
    mass = weight
    max_terms = int(lam * t + 20 * np.sqrt(lam * t + 1) + 200)
    while mass < 1.0 - UNIFORMIZATION_TOL and m < max_terms:
        m += 1
        v = _times_step(step, v)
        weight *= lam * t / m
        acc += weight * v
        mass += weight
    return acc / acc.sum()


def _times_step(step: tuple[np.ndarray, np.ndarray, np.ndarray], v: np.ndarray) -> np.ndarray:
    """The row vector v times the step, given as the number of entries of
    each row and the (column, value) of each entry in row order: entry c of
    the product is the running sum, in row order, of v[row] * value over
    column c's entries, the sum that scipy's CSR product of the transposed
    step with v forms."""
    counts, cols, values = step
    terms = np.repeat(v, counts)
    terms *= values
    return np.bincount(cols, weights=terms, minlength=len(v))


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
                         ) -> tuple[list[tuple[int, ...]], Csr]:
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
                    ) -> tuple[list[JointState], Csr]:
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
