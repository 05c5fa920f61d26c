"""Feasible schedules.

A schedule is a K x J binary activation matrix: entry (k, j) says that a
class-k link transmits on channel j. Feasibility requires channel
eligibility, per-channel conflict-freeness, at most x_k active links per
class (when a network state x is given), and in infrastructure mode at most
one active downlink transmission per access point.

``enumerate_feasible`` returns a ``ScheduleSet``: every feasible matrix in
one read-only (S, K, J) uint8 array, in lexicographic order, with the
per-class activation counts alongside. The exact computations
(product-form weights, the capacity LP) read those arrays, and an
equilibrium distribution is one probability per row. A single schedule
outside a set, such as a sample of the joint simulator or a state of the
brute-force oracles (:mod:`mccsma.oracles`), is a plain tuple of rows.
"""

from __future__ import annotations

import numbers

import numpy as np

from .topology import NetworkSpec

DEFAULT_MAX_SCHEDULES = 10_000_000

# Candidate (partial schedule, channel subset) pairs tested at once, so the
# enumeration guard trips before a large product is allocated.
_PAIR_BLOCK = 1 << 16


class ScheduleSpaceError(RuntimeError):
    """The feasible-schedule set exceeds the exact-enumeration guard."""


# Defined here, not in mccsma.oracles, so that the CLI can catch it without
# importing the oracles before a run needs them.
class OracleSpaceError(RuntimeError):
    """A brute-force oracle's state space exceeds its guard
    (``mccsma.oracles.MAX_ORACLE_STATES``)."""


class ScheduleSet:
    """The feasible schedules of one enumeration, held as arrays.

    ``active`` is the read-only (S, K, J) uint8 stack of activation matrices
    in the row-major lexicographic order of the flattened matrices, so row 0
    is the empty schedule; ``per_class`` is the read-only (S, K) int64 array
    of per-class activation counts (row sums).
    """

    __slots__ = ("active", "per_class")

    def __init__(self, active: np.ndarray):
        self.active = active
        self.per_class = active.sum(axis=2, dtype=np.int64)
        self.active.flags.writeable = False
        self.per_class.flags.writeable = False

    def __len__(self) -> int:
        return len(self.active)


def state_flows(state) -> tuple[int, ...]:
    """The flow counts of ``state`` as a tuple of ints; integral floats and
    NumPy integers count as their ints. Raises ``ValueError`` naming the
    state when a count is negative or not integral."""
    flows = tuple(state)
    if not all(isinstance(v, numbers.Real) and float(v).is_integer() and v >= 0
               for v in flows):
        raise ValueError(f"state {flows} must hold nonnegative integral flow counts")
    return tuple([int(v) for v in flows])


def _space_error(max_schedules: int) -> ScheduleSpaceError:
    return ScheduleSpaceError(f"more than {max_schedules} feasible schedules; instance "
                              f"too large for exact enumeration")


def _independent_rows(members: list[int], graph, num_classes: int,
                      max_schedules: int) -> np.ndarray:
    """Indicator rows of the conflict-free subsets of ``members``, the empty
    one included.

    Every row, with the other channels idle, is a distinct feasible schedule
    (members are the classes whose cap allows an activation), so more than
    ``max_schedules`` rows raise ScheduleSpaceError while they are listed.
    On a spec where two classes of one access point do not conflict, which
    ``validate_spec`` rejects, the guard may count rows the budget drops.
    """
    subsets: list[list[int]] = []

    def extend(prefix: list[int], start: int) -> None:
        subsets.append(list(prefix))
        if len(subsets) > max_schedules:
            raise _space_error(max_schedules)
        for idx in range(start, len(members)):
            k = members[idx]
            if all(not graph.conflicts(k, m) for m in prefix):
                prefix.append(k)
                extend(prefix, idx + 1)
                prefix.pop()

    extend([], 0)
    rows = np.zeros((len(subsets), num_classes), dtype=np.uint8)
    for i, subset in enumerate(subsets):
        rows[i, subset] = 1
    return rows


def enumerate_feasible(spec: NetworkSpec, state=None, *,
                       max_schedules: int = DEFAULT_MAX_SCHEDULES) -> ScheduleSet:
    """Enumerate the feasible schedules as a ``ScheduleSet``, sorted
    lexicographically; the empty schedule is always present, as row 0.

    With a state, returns the schedules allowed at that state (per-class
    activation capped by the flow count). Without a state, returns the union
    over all states, which equals the state-bound set whenever every class has
    at least J flows.

    The set is built channel by channel: the partial schedules so far are
    combined with every conflict-free subset of the next channel and pruned
    by the per-class caps and the one-downlink-per-access-point limit. A
    partial schedule that breaks a limit stays broken when channels are
    added, and one that keeps them extends to a distinct feasible schedule
    (idle on the remaining channels), so no step holds more partial
    schedules than the final set has schedules.

    Raises ScheduleSpaceError as soon as more than ``max_schedules`` partial
    schedules are kept, or as soon as one channel alone admits more than
    that many; exact methods are not meant for larger instances.
    """
    K, J = spec.num_classes, spec.num_channels
    if state is None:
        caps = np.full(K, J, dtype=np.int64)
    else:
        flows = state_flows(state)
        if len(flows) != K:
            raise ValueError(f"state has {len(flows)} entries, expected {K}")
        caps = np.minimum(np.array(flows, dtype=np.int64), J)
    # Both limits are budgets: an activation of class k spends one unit of
    # the cap of k and, for a downlink class, the access point's single slot.
    A = len(spec.access_points)
    spends = np.eye(K, K + A, dtype=np.int64)
    for i, ap in enumerate(spec.access_points):
        spends[sorted(ap.downlink), K + i] = 1
    budget = np.concatenate([caps, np.ones(A, dtype=np.int64)])

    active = np.zeros((1, K, 0), dtype=np.uint8)   # partial schedules
    spent = np.zeros((1, K + A), dtype=np.int64)   # their use of each budget
    for g in spec.channel_graphs:
        rows = _independent_rows([k for k in sorted(g.eligible) if caps[k] > 0], g, K,
                                 max_schedules)
        row_spends = rows @ spends
        step = max(1, _PAIR_BLOCK // len(rows))
        kept_p, kept_r, n_kept = [], [], 0
        for lo in range(0, len(spent), step):
            cand = spent[lo:lo + step, None, :] + row_spends[None, :, :]
            p, r = np.nonzero((cand <= budget).all(axis=2))
            n_kept += len(p)
            if n_kept > max_schedules:
                raise _space_error(max_schedules)
            kept_p.append(p + lo)
            kept_r.append(r)
        p, r = np.concatenate(kept_p), np.concatenate(kept_r)
        active = np.concatenate([active[p], rows[r, :, None]], axis=2)
        spent = spent[p] + row_spends[r]

    flat = active.reshape(len(active), K * J)
    return ScheduleSet(active[np.lexsort(flat.T[::-1])])
