"""Brute-force oracles that only the tests read.

The packet-level generator of the schedule process at a fixed flow state,
and the stationary distribution of a generator by a dense least-squares
solve. Every product-form expression of :mod:`mccsma.equilibrium` is checked
against the null-space solve of the matching generator. They build on the
schedule helpers of :mod:`mccsma.oracles` (``Rows``, ``schedule_rows``,
``attempt_rate``), which its joint generator reads too, and never on the
closed form they check.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from mccsma.equilibrium import check_policy
from mccsma.oracles import (Rows, _active_slots, _csr_generator, _toggled, attempt_rate,
                            schedule_rows)
from mccsma.schedule import enumerate_feasible, state_flows
from mccsma.topology import CsmaParams, NetworkSpec


def packet_level_generator(state, params: CsmaParams, spec: NetworkSpec,
                           policy: str) -> tuple[list[Rows], sp.csr_array]:
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
    ``q`` (a dense or sparse generator)."""
    q = q.toarray() if sp.issparse(q) else np.asarray(q)
    n = q.shape[0]
    a = np.vstack([q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()
