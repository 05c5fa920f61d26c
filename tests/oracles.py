"""Brute-force oracles that only the tests read.

The packet-level generator of the schedule process at a fixed flow state,
and the stationary distribution of a generator by a dense least-squares
solve. Every product-form expression of :mod:`mccsma.equilibrium` is checked
against the null-space solve of the matching generator. They build on the
schedule helpers of :mod:`mccsma.oracles` (``Rows``, ``schedule_rows``,
``attempt_rate``), which its joint generator reads too, and never on the
closed form they check.

The generators of :mod:`mccsma.oracles` are numpy ``Csr`` tuples that store
every row's diagonal entry, the one input its uniformization takes, and it
runs on them without scipy. ``scipy_csr_generator`` and
``scipy_transient_distribution`` are the same two steps on
``scipy.sparse.csr_array``, the reference that they must equal bit for
bit; ``dense`` reads a ``Csr``, or an array-like, as a dense array.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from mccsma.equilibrium import check_policy
from mccsma.oracles import (UNIFORMIZATION_TOL, Csr, Rows, _active_slots, _csr_generator,
                            _toggled, attempt_rate, schedule_rows)
from mccsma.schedule import enumerate_feasible, state_flows
from mccsma.topology import CsmaParams, NetworkSpec


def packet_level_generator(state, params: CsmaParams, spec: NetworkSpec,
                           policy: str) -> tuple[list[Rows], Csr]:
    """Generator of the schedule process at a fixed network state.

    Activation transitions carry the policy's attempt rates (attempts whose
    target schedule is infeasible are carrier-sense blocked and do not appear);
    deactivations carry the per-class physical rate.
    """
    policy = check_policy(spec, policy)
    flows = state_flows(state)
    schedules = schedule_rows(enumerate_feasible(spec, flows))
    index = {s: i for i, s in enumerate(schedules)}
    triplets: list[tuple[int, int, float]] = []
    for sched, si in index.items():
        for k in range(spec.num_classes):
            for j in range(spec.num_channels):
                if sched[k][j]:
                    continue
                ti = index.get(_toggled(sched, k, j))
                if ti is None:
                    continue
                rate = attempt_rate(spec, params, policy, flows, sched, k, j)
                triplets.append((si, ti, rate))
        for k, j in _active_slots(sched):
            triplets.append((si, index[_toggled(sched, k, j)], params.phys_rate[k]))
    return schedules, _csr_generator(len(schedules), triplets)


def stationary_distribution(q) -> np.ndarray:
    """Solve pi Q = 0, sum(pi) = 1 by least squares on the dense form of
    ``q`` (any generator that ``dense`` reads)."""
    q = dense(q)
    n = q.shape[0]
    a = np.vstack([q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def dense(q) -> np.ndarray:
    """A generator as a dense array: a ``Csr`` or an array-like."""
    if isinstance(q, Csr):
        return sp.csr_array(q[:3], shape=q.shape).toarray()
    return np.asarray(q)


# --- the scipy.sparse reference of the CSR generator and its uniformization ---

def scipy_csr_generator(n: int, triplets) -> sp.csr_array:
    """``oracles._csr_generator`` on ``scipy.sparse``: a generator from
    off-diagonal (row, column, rate) triplets. The coordinates are int32,
    which scipy keeps as int32 indices, as ``Csr`` holds them (scipy 1.17
    keeps int64 coordinates as int64 indices)."""
    t = np.asarray(triplets, dtype=float).reshape(-1, 3)
    rows, cols, rates = t[:, 0].astype(np.int32), t[:, 1].astype(np.int32), t[:, 2]
    diag = np.arange(n, dtype=np.int32)
    return sp.csr_array(
        (np.concatenate([rates, -np.bincount(rows, weights=rates, minlength=n)]),
         (np.concatenate([rows, diag]), np.concatenate([cols, diag]))),
        shape=(n, n))


def scipy_transient_distribution(q: Csr, p0: np.ndarray, t: float) -> np.ndarray:
    """``oracles.transient_distribution`` on ``scipy.sparse``: the ``Csr``
    ``q`` is converted to a ``csr_array`` once, and each step is one product
    of the transposed CSR step with the vector."""
    if t <= 0:
        return np.array(p0, dtype=float)
    q = sp.csr_array(q[:3], shape=q.shape)
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
    m, weight = 0, np.exp(-lam * t)
    if weight == 0.0:
        # start at lo = floor(lam t - 8 sqrt(lam t)), of weight from lgamma
        lt = lam * t
        m = math.floor(lt - 8 * math.sqrt(lt))
        for _ in range(m):
            v = step_t @ v
        weight = math.exp(m * math.log(lt) - math.lgamma(m + 1) - lt)
    acc = weight * v
    mass = weight
    max_terms = int(lam * t + 20 * np.sqrt(lam * t + 1) + 200)
    while mass < 1.0 - UNIFORMIZATION_TOL and m < max_terms:
        m += 1
        v = step_t @ v
        weight *= lam * t / m
        acc += weight * v
        mass += weight
    return acc / acc.sum()

