"""Capacity-region membership tests.

The capacity region is the set of throughput vectors obtainable by averaging
per-class service rates over a probability distribution on the feasible
schedules. Without a state, the only feasibility rule that spans channels is
an access point's budget of one downlink transmission: a class is active at
most once per channel, so its cap of J never binds. Two channels therefore
belong to one *group* when one access point has downlink classes eligible on
both, and groups are closed under that link. A feasible schedule is then any
combination of one feasible schedule per group, and the region is the
Minkowski sum of the groups' regions. In ad-hoc mode each channel is a group
of its own; the bow-tie and two-ap networks form one group each.

Membership of a load vector rho is decided by the linear program

    maximize t
    subject to sum_y pi_g(y) = 1, pi_g >= 0     for each group g,
               t * rho_k <= phys_rate_k * sum_g sum_y y_k * pi_g(y)
                                                 for rho_k > 0,

where y ranges over the feasible schedules of group g alone
(``enumerate_feasible`` on the network restricted to the group's channels):
one convexity row per group and one load row per loaded class. t > 1 means
rho is interior, t < 1 exterior, and t within the boundary band means no
verdict: stability results do not cover critical loads and the artifact
refuses to guess there. One group is the LP over the whole feasible set.
With more groups the LP has the same optimum, reached by other pivots, so a
margin agrees with the one of the LP over every schedule up to rounding.

The LP holds one pi column per distinct per-class service vector of each
group, the first schedule that has it (see ``_constraint_block``): 25 of the
bow-tie's 67 schedules, and 2 x 123 columns for the ring C_10 on two
channels, whose product set has 15,129 schedules with 3,281 distinct service
vectors. Dropping the duplicates does not change a single pivot. Identical
columns stay identical under row operations, so a later copy has the same
reduced cost as its first copy and Bland's rule always picks the first; once
that one is basic, the copy's reduced cost is exactly zero. So the optimum
and the verdict are bit for bit those of the LP over every schedule of the
group.

The LP is solved by a dense two-phase-free tableau simplex with Bland's rule:
each group's empty schedule plus the slack variables form an immediately
feasible basis, and Bland's rule guarantees termination despite degeneracy.

The simplex works on a stack of tableaus of one shape and pivots them in
lockstep; ``margins`` solves a whole sweep that way and ``membership`` is
``margins`` on one load vector. Load vectors with the same positive classes
have LPs of the same shape that differ only in the t column, so they share
one constraint block and are solved in stacks of at most ``_STACK_ENTRIES``
entries. Each LP in a stack takes exactly the pivots it
would take alone, with the same arithmetic: the entering column is its first
reduced cost above the tolerance; the leaving row is its smallest ratio, ties
within the tolerance going to the smallest basic variable, as in a scan of the
rows in order; and the elimination is one rank-1 update, entry for entry the
same ``a - f * b`` as row-by-row elimination. So every margin is bit for bit
that of the LP solved on its own. An LP leaves the stack when it reaches its
optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .schedule import ScheduleSet, enumerate_feasible
from .topology import CsmaParams, NetworkSpec

BOUNDARY_TOL = 1e-9
# a reduced cost or pivot-column entry at or below this counts as zero
_PIVOT_TOL = 1e-11
# float64 entries per tableau stack (512 KB); a larger LP is solved alone
_STACK_ENTRIES = 1 << 16


class SolverError(RuntimeError):
    """The simplex did not reach an optimum; results would be unreliable."""


@dataclass
class CapacityVerdict:
    status: str                       # "interior" | "boundary" | "exterior"
    margin: float                     # t - 1, +inf for the zero load vector


def status_of(margin: float) -> str:
    """The verdict on a margin t* - 1: "boundary" within ``BOUNDARY_TOL`` of
    zero, else "interior" or "exterior" by its sign."""
    if abs(margin) <= BOUNDARY_TOL:
        return "boundary"
    return "interior" if margin > 0 else "exterior"


def _leaving_row(col: list[float], rhs: list[float], basis: list[int]) -> int:
    """Bland's ratio test as a scan of the rows in order, on Python floats:
    the smallest ratio wins, a ratio within the tolerance of the best so far
    goes to the smaller basic variable; -1 when no entry is positive."""
    best_ratio = math.inf
    leave_row = -1
    for r in range(len(col)):
        if col[r] > _PIVOT_TOL:
            ratio = rhs[r] / col[r]
            if (ratio < best_ratio - _PIVOT_TOL
                    or (abs(ratio - best_ratio) <= _PIVOT_TOL
                        and (leave_row < 0 or basis[r] < basis[leave_row]))):
                best_ratio = ratio
                leave_row = r
    return leave_row


def _simplex_max(tableaus: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Maximize each tableau of a stack in place; returns the optima.

    ``tableaus`` is a (B, m + 1, n + 1) stack of constraint rows [A | b] with
    an extra bottom row of reduced costs [c | 0]; in each, the columns listed
    in its row of the (B, m) int array ``basis`` must form an identity. Bland's
    rule (smallest eligible index enters, smallest basic variable leaves on
    ties) prevents cycling; more than 100 (n + m + 10) pivots raise
    ``SolverError``, as does an unbounded LP anywhere in the stack.
    """
    m = tableaus.shape[1] - 1
    n = tableaus.shape[2] - 1
    optima = np.empty(len(tableaus))
    live = np.arange(len(tableaus))      # stack index of each LP still pivoting
    T, bas = tableaus, basis
    for _ in range(100 * (n + m + 10)):
        eligible = T[:, m, :n] > _PIVOT_TOL
        entering = eligible.argmax(axis=1)
        # argmax is 0 where column 0 enters and where no column is eligible
        if np.count_nonzero(entering) < len(T):
            done = (entering == 0) & ~eligible[:, 0]
            if done.any():
                optima[live[done]] = -T[done, m, n]
                tableaus[live[done]] = T[done]
                basis[live[done]] = bas[done]
                if done.all():
                    return optima
                go = ~done
                T, bas, live, entering = T[go], bas[go], live[go], entering[go]
        # the entering column holds the ratio test's pivot column and the
        # factors of the elimination
        if len(T) == 1:
            # a lone LP: the ratio test is the scan itself, and plain slices
            # stand in for gathers
            at, entering = slice(None), int(entering[0])
            factors = T[:, :, entering].copy()
            leave = _leaving_row(factors[0, :m].tolist(), T[0, :m, n].tolist(),
                                 bas[0].tolist())
            if leave < 0:
                raise SolverError("linear program unbounded; load vector malformed")
        else:
            at = np.arange(len(T))
            factors = T[at, :, entering]
            col = factors[:, :m]
            ratio = np.divide(T[:, :m, n], col, out=np.full(col.shape, math.inf),
                              where=col > _PIVOT_TOL)
            best = ratio.min(axis=1)
            if best.max() == math.inf:
                raise SolverError("linear program unbounded; load vector malformed")
            gap = ratio - best[:, None]
            # a ratio within half the tolerance of the minimum ties with it and
            # a ratio more than three times the tolerance above it loses to it,
            # in the scan as here; an LP with a ratio in between depends on the
            # scan order and takes the scan itself
            near = gap <= 0.5 * _PIVOT_TOL
            leave = np.where(near, bas, n + 1).argmin(axis=1)
            unclear = (near != (gap <= 3 * _PIVOT_TOL)).any(axis=1)
            for b in np.flatnonzero(unclear).tolist():
                leave[b] = _leaving_row(col[b].tolist(), T[b, :m, n].tolist(),
                                        bas[b].tolist())
        T[at, leave] /= factors[at, leave][:, None]
        factors[at, leave] = 0.0
        # one rank-1 update: every other row r becomes a - f_r * b, the same
        # arithmetic as eliminating row by row (a row with f_r = 0 keeps its
        # values, up to the sign of a zero)
        T -= factors[:, :, None] * T[at, leave][:, None, :]
        bas[at, leave] = entering
    raise SolverError("simplex iteration limit exceeded")


def _loads(rho, num_classes: int, ndim: int = 1) -> np.ndarray:
    """``rho`` as a float array of ``ndim`` dimensions, the last one of
    ``num_classes`` loads; raises ``ValueError`` on any other shape and on a
    load that is not finite and nonnegative."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != ndim or rho.shape[-1] != num_classes:
        raise ValueError(f"expected {num_classes} loads, got shape {rho.shape}")
    if not np.all(np.isfinite(rho) & (rho >= 0)):
        raise ValueError("loads must be finite and nonnegative")
    return rho


def _check_schedules(spec: NetworkSpec, schedules: ScheduleSet) -> None:
    """Raise ``ValueError`` when the (K, J) shape of ``schedules`` is not
    that of ``spec``."""
    shape = (spec.num_classes, spec.num_channels)
    if schedules.active.shape[1:] != shape:
        raise ValueError(f"schedules have (classes, channels) shape "
                         f"{schedules.active.shape[1:]}, network has {shape}")


def _channel_groups(spec: NetworkSpec) -> tuple[tuple[int, ...], ...]:
    """The channel groups, each an ascending tuple of channels, in the order
    of their first channels: channels on which one access point has eligible
    downlink classes share a group."""
    label = list(range(spec.num_channels))
    for ap in spec.access_points:
        linked = {label[j] for j, g in enumerate(spec.channel_graphs)
                  if ap.downlink & g.eligible}
        label = [min(linked) if lab in linked else lab for lab in label]
    groups: dict[int, list[int]] = {}
    for j, lab in enumerate(label):
        groups.setdefault(lab, []).append(j)
    return tuple(map(tuple, groups.values()))


def _group_sets(spec: NetworkSpec) -> list[ScheduleSet]:
    """The feasible schedules of each channel group, enumerated on the
    network restricted to the group's channels."""
    return [enumerate_feasible(
                replace(spec, num_channels=len(channels),
                        channel_graphs=tuple(spec.channel_graphs[j] for j in channels)),
                None)
            for channels in _channel_groups(spec)]


def _constraint_block(sets: Sequence[ScheduleSet], params: CsmaParams,
                      positive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tableau of the LPs over the groups' feasible ``sets`` whose
    positive-load classes are ``positive``, with a zero t column where each
    LP puts its loads, and the column of each group's empty schedule, the
    first of the group's columns."""
    # one pi column per distinct service vector of each group, that of its
    # first schedule (np.unique's index is the first occurrence), in set
    # order: duplicates never enter
    rows = [s.per_class[np.sort(np.unique(s.per_class, axis=0, return_index=True)[1])]
            for s in sets]
    sizes = [len(r) for r in rows]
    starts = np.cumsum([0] + sizes[:-1])
    n_cols = sum(sizes)
    G, p = len(sets), len(positive)
    m = G + p
    n = n_cols + 1 + p                       # pi variables, t, slacks
    block = np.zeros((m + 1, n + 1))
    for g, (start, size) in enumerate(zip(starts.tolist(), sizes)):
        block[g, start:start + size] = 1.0
    block[:G, n] = 1.0
    block[G:m, :n_cols] = (-params.phi[positive][:, None]
                           * np.concatenate(rows)[:, positive].T)
    block[np.arange(G, m), np.arange(n_cols + 1, n)] = 1.0
    block[m, n_cols] = 1.0
    return block, starts


def margins(rhos, spec: NetworkSpec, params: CsmaParams) -> np.ndarray:
    """The margin t* - 1 of each row of the (L, K) load array ``rhos``, +inf
    for a zero row; ``status_of`` gives the verdicts.

    The groups' schedules are enumerated once, and only if some row is
    positive. Rows with the same positive classes share one constraint block
    and are solved in stacks; each margin is bit for bit that of its LP
    solved alone.
    """
    rhos = _loads(rhos, spec.num_classes, ndim=2)
    out = np.full(len(rhos), math.inf)
    patterns, pattern_of = np.unique(rhos > 0, axis=0, return_inverse=True)
    sets = _group_sets(spec) if patterns.any() else []
    for i, pattern in enumerate(patterns):
        positive = np.flatnonzero(pattern)
        if not len(positive):
            continue
        block, starts = _constraint_block(sets, params, positive)
        G, p = len(starts), len(positive)
        t_col = block.shape[1] - 2 - p
        rows = np.flatnonzero(pattern_of.reshape(-1) == i)
        cap = max(1, _STACK_ENTRIES // block.size)
        for start in range(0, len(rows), cap):
            chunk = rows[start:start + cap]
            tableaus = np.repeat(block[None], len(chunk), axis=0)
            tableaus[:, G:G + p, t_col] = rhos[np.ix_(chunk, positive)]
            # each group's empty schedule with the slacks is a feasible basis
            basis = np.tile(np.r_[starts, t_col + 1:t_col + 1 + p], (len(chunk), 1))
            out[chunk] = _simplex_max(tableaus, basis) - 1.0
    return out


def membership(rho: Sequence[float], spec: NetworkSpec, params: CsmaParams, *,
               schedules: Optional[ScheduleSet] = None) -> CapacityVerdict:
    """Classify a load vector against the capacity region: its ``margins``
    row and that margin's ``status_of``. Only the channel groups' own sets
    are enumerated: a feasible set ``schedules`` is checked for its (K, J)
    shape and otherwise unused (a benchmark still passes one).
    """
    rho = _loads(rho, spec.num_classes)
    if schedules is not None:
        _check_schedules(spec, schedules)
    margin = float(margins(rho[None], spec, params)[0])
    return CapacityVerdict(status_of(margin), margin)

