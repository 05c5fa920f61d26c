"""Feasible schedules and schedule weights.

A schedule is a K x J binary activation matrix: entry (k, j) says that a
class-k link transmits on channel j. Feasibility requires channel
eligibility, per-channel conflict-freeness, at most x_k active links per
class (when a network state x is given), and in infrastructure mode at most
one active downlink transmission per access point.

``enumerate_feasible`` returns a ``ScheduleSet``: every feasible matrix in
one read-only (S, K, J) uint8 array, with the per-class activation counts
alongside. The exact computations (product-form weights, the capacity LP)
read those arrays. A ``Schedule`` is one matrix as a hashable tuple of rows;
the set builds them on demand for the callers that key or print single
schedules: equilibrium distributions and their CSV output, the joint model's
sampled schedules and the brute-force oracles.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .topology import NetworkSpec

DEFAULT_MAX_SCHEDULES = 10_000_000

# Candidate (partial schedule, channel subset) pairs tested at once, so the
# enumeration guard trips before a large product is allocated.
_PAIR_BLOCK = 1 << 16


class ScheduleSpaceError(RuntimeError):
    """The feasible-schedule set exceeds the exact-enumeration guard."""


# Defined here, not in mccsma.oracles, so that the CLI can catch it without
# importing the oracles (and scipy.sparse) before a run needs them.
class OracleSpaceError(RuntimeError):
    """A brute-force oracle's state space exceeds its guard
    (``mccsma.oracles.MAX_ORACLE_STATES``)."""


@dataclass(frozen=True, order=True)
class Schedule:
    """Binary K x J activation matrix, stored as a tuple of rows.

    Tuple ordering of ``active`` is exactly the row-major lexicographic order
    of the flattened matrix, which the package uses everywhere ties must be
    broken deterministically.
    """

    active: tuple[tuple[int, ...], ...]

    @property
    def per_class(self) -> tuple[int, ...]:
        """Number of active links of each class (row sums)."""
        return tuple(sum(row) for row in self.active)

    @property
    def total(self) -> int:
        return sum(self.per_class)

    @property
    def slots(self) -> tuple[tuple[int, int], ...]:
        return tuple((k, j) for k, row in enumerate(self.active)
                     for j, v in enumerate(row) if v)

    def with_slot(self, k: int, j: int) -> "Schedule":
        rows = [list(r) for r in self.active]
        rows[k][j] += 1
        return Schedule(tuple(tuple(r) for r in rows))

    def as_text(self) -> str:
        """Row-major 0/1 string, one character per matrix entry."""
        return "".join(str(v) for row in self.active for v in row)


class ScheduleSet(Sequence[Schedule]):
    """The feasible schedules of one enumeration, held as arrays.

    ``active`` is the read-only (S, K, J) uint8 stack of activation matrices
    in lexicographic order, so row 0 is the empty schedule; ``per_class`` is
    the read-only (S, K) int64 array of per-class activation counts (row
    sums). Indexing and iteration build ``Schedule`` objects on demand.
    """

    __slots__ = ("active", "per_class", "_distinct")

    def __init__(self, active: np.ndarray):
        self.active = active
        self.per_class = active.sum(axis=2, dtype=np.int64)
        self.active.flags.writeable = False
        self.per_class.flags.writeable = False
        self._distinct: Optional[np.ndarray] = None

    @property
    def distinct(self) -> np.ndarray:
        """Ascending indices of the first schedule with each distinct
        ``per_class`` row; index 0, the empty schedule, comes first.
        Computed on first use, so sets that never need it pay nothing."""
        if self._distinct is None:
            # lexsort is stable: each run of equal rows starts at its first
            # occurrence
            order = np.lexsort(self.per_class.T)
            rows = self.per_class[order]
            starts = np.ones(len(order), dtype=bool)
            starts[1:] = (rows[1:] != rows[:-1]).any(axis=1)
            first = np.sort(order[starts])
            first.flags.writeable = False
            self._distinct = first
        return self._distinct

    def __len__(self) -> int:
        return len(self.active)

    def __getitem__(self, i: int) -> Schedule:
        return Schedule(tuple(map(tuple, self.active[operator.index(i)].tolist())))

    def __iter__(self) -> Iterator[Schedule]:
        for rows in self.active.tolist():
            yield Schedule(tuple(map(tuple, rows)))


def state_flows(state) -> tuple[int, ...]:
    return tuple(int(v) for v in state)


def _space_error(max_schedules: int) -> ScheduleSpaceError:
    return ScheduleSpaceError(f"more than {max_schedules} feasible schedules; instance "
                              f"too large for exact enumeration")


def _independent_rows(members: list[int], graph, spec: NetworkSpec,
                      max_schedules: int) -> np.ndarray:
    """Indicator rows of the conflict-free subsets of ``members`` that hold
    at most one downlink class of each access point, the empty one included.

    Every row, with the other channels idle, is a distinct feasible schedule
    (members are the classes whose cap allows an activation), so more than
    ``max_schedules`` rows raise ScheduleSpaceError while they are listed.
    """
    ap_of = [spec.downlink_ap(k) for k in range(spec.num_classes)]
    subsets: list[list[int]] = []

    def extend(prefix: list[int], start: int) -> None:
        subsets.append(list(prefix))
        if len(subsets) > max_schedules:
            raise _space_error(max_schedules)
        for idx in range(start, len(members)):
            k = members[idx]
            if all(not graph.conflicts(k, m) and (ap_of[k] is None or ap_of[k] != ap_of[m])
                   for m in prefix):
                prefix.append(k)
                extend(prefix, idx + 1)
                prefix.pop()

    extend([], 0)
    rows = np.zeros((len(subsets), spec.num_classes), dtype=np.uint8)
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
        rows = _independent_rows([k for k in sorted(g.eligible) if caps[k] > 0], g, spec,
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
