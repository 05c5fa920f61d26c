"""Capacity-region membership tests.

The capacity region is the set of throughput vectors obtainable by averaging
per-class service rates over a probability distribution on the feasible
schedules. Membership of a load vector rho is decided by the linear program

    maximize t
    subject to sum_y pi(y) = 1, pi >= 0,
               t * rho_k <= phys_rate_k * sum_y y_k * pi(y)  for rho_k > 0.

t > 1 means rho is interior, t < 1 exterior, and t within the boundary band
means no verdict: stability results do not cover critical loads and the
artifact refuses to guess there.

The LP is solved by a dense two-phase-free tableau simplex with Bland's rule:
the empty schedule plus the slack variables form an immediately feasible
basis, and Bland's rule guarantees termination despite degeneracy. Each pivot
is a handful of array operations: the entering column is the first reduced
cost above the tolerance (one ``argmax``), the ratio test walks the m <= K + 1
rows in order on Python floats, and the elimination is one rank-1 update,
entry for entry the same ``a - f * b`` as row-by-row elimination.

The LP holds one pi column per distinct per-class service vector, the first
schedule that has it (``ScheduleSet.distinct``): 25 of the bow-tie's 67
schedules, 3,281 of C_10's 15,129. Dropping the duplicates does not change a
single pivot. Identical columns stay identical under row operations, so a
later copy has the same reduced cost as its first copy and Bland's rule always
picks the first; once that one is basic, the copy's reduced cost is exactly
zero. The optimum, the verdict and, with pi scattered back over the full
schedule index before it is normalised, the certificate are bit for bit those
of the LP over every schedule. A few rows and up to about 100k schedule
columns (C_12 on two channels) need no sparse machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .schedule import Schedule, ScheduleSet, enumerate_feasible
from .topology import CsmaParams, NetworkSpec, detect_l_partite

BOUNDARY_TOL = 1e-9
# a reduced cost or pivot-column entry at or below this counts as zero
_PIVOT_TOL = 1e-11


class SolverError(RuntimeError):
    """The simplex did not reach an optimum; results would be unreliable."""


@dataclass
class CapacityVerdict:
    status: str                       # "interior" | "boundary" | "exterior"
    margin: float                     # t - 1, +inf for the zero load vector
    certificate: dict[Schedule, float]


def _simplex_max(tableau: np.ndarray, basis: list[int]) -> float:
    """Maximize over a canonical tableau in place; returns the optimum.

    ``tableau`` holds the constraint rows [A | b] with an extra bottom row of
    reduced costs [c | 0]; the columns listed in ``basis`` must form an
    identity. Bland's rule (smallest eligible index enters, smallest basic
    variable leaves on ties) prevents cycling; more than 100 (n + m + 10)
    pivots raise ``SolverError``.
    """
    m = tableau.shape[0] - 1
    n = tableau.shape[1] - 1
    for _ in range(100 * (n + m + 10)):
        eligible = tableau[m, :n] > _PIVOT_TOL
        entering = int(eligible.argmax())
        if not eligible[entering]:
            return -tableau[m, n]
        # the ratio test runs over the m <= K + 1 constraint rows in order,
        # so its tie-break is sequential; Python floats make that loop cheap
        col = tableau[:m, entering].tolist()
        rhs = tableau[:m, n].tolist()
        best_ratio = math.inf
        leave_row = -1
        for r in range(m):
            if col[r] > _PIVOT_TOL:
                ratio = rhs[r] / col[r]
                if (ratio < best_ratio - _PIVOT_TOL
                        or (abs(ratio - best_ratio) <= _PIVOT_TOL
                            and (leave_row < 0 or basis[r] < basis[leave_row]))):
                    best_ratio = ratio
                    leave_row = r
        if leave_row < 0:
            raise SolverError("linear program unbounded; load vector malformed")
        pivot = tableau[leave_row, entering]
        tableau[leave_row] /= pivot
        # one rank-1 update: every other row r becomes a - f_r * b, the same
        # arithmetic as eliminating row by row (a row with f_r = 0 keeps its
        # values, up to the sign of a zero)
        factors = tableau[:, entering].copy()
        factors[leave_row] = 0.0
        tableau -= factors[:, None] * tableau[leave_row]
        basis[leave_row] = entering
    raise SolverError("simplex iteration limit exceeded")


def membership(rho: Sequence[float], spec: NetworkSpec, params: CsmaParams, *,
               schedules: Optional[ScheduleSet] = None) -> CapacityVerdict:
    """Classify a load vector against the capacity region.

    A margin t* - 1 within ``BOUNDARY_TOL`` of zero is "boundary". The
    certificate is the schedule distribution achieving the optimal load
    multiplier; for an interior verdict it serves every positive-load class
    with strict slack. Passing ``schedules`` skips re-enumeration in sweeps.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.num_classes,):
        raise ValueError(f"expected {spec.num_classes} loads, got shape {rho.shape}")
    if not np.all(np.isfinite(rho) & (rho >= 0)):
        raise ValueError("loads must be finite and nonnegative")
    if schedules is None:
        schedules = enumerate_feasible(spec, None)
    n_sched = len(schedules)

    positive = [k for k in range(spec.num_classes) if rho[k] > 0]
    if not positive:
        # the LP's starting basis: all mass on the empty schedule
        return CapacityVerdict("interior", math.inf, {schedules[0]: 1.0})

    # one pi column per distinct service vector: duplicates never enter
    cols = schedules.distinct
    n_cols = len(cols)
    m = 1 + len(positive)
    n = n_cols + 1 + len(positive)           # pi variables, t, slacks
    t_col = n_cols
    slack_rows = np.arange(1, m)
    tableau = np.zeros((m + 1, n + 1))
    tableau[0, :n_cols] = 1.0
    tableau[0, n] = 1.0
    tableau[1:m, :n_cols] = (-params.phi[positive][:, None]
                             * schedules.per_class[cols][:, positive].T)
    tableau[1:m, t_col] = rho[positive]
    tableau[slack_rows, n_cols + slack_rows] = 1.0
    tableau[m, t_col] = 1.0

    # column 0 is the empty schedule: with the slacks it is a feasible basis
    basis = [0] + [n_cols + r for r in range(1, m)]
    t_star = _simplex_max(tableau, basis)

    # scatter over the full schedule index, so pi.sum() adds in the same order
    # as an LP over every schedule would
    pi = np.zeros(n_sched)
    for r, var in enumerate(basis):
        if var < n_cols:
            pi[cols[var]] = max(tableau[r, n], 0.0)
    total = pi.sum()
    if total > 0:
        pi /= total
    certificate = {schedules[i]: float(pi[i]) for i in np.flatnonzero(pi > 0)}

    margin = t_star - 1.0
    if abs(margin) <= BOUNDARY_TOL:
        status = "boundary"
    elif margin > 0:
        status = "interior"
    else:
        status = "exterior"
    return CapacityVerdict(status, margin, certificate)


def full_support_certificate(verdict: CapacityVerdict,
                             schedules: Sequence[Schedule]) -> dict[Schedule, float]:
    """Mix an interior certificate with the uniform distribution so every
    schedule carries positive mass, keeping feasibility.

    The mixing weight min(margin/2, 1e-3) is small enough that the served rate
    of each positive-load class stays above the load.
    """
    if verdict.status != "interior":
        raise ValueError("full-support smoothing applies to interior verdicts only")
    w = min(verdict.margin / 2.0, 1e-3)  # 1e-3 also at the zero load's infinite margin
    uniform = 1.0 / len(schedules)
    return {s: (1.0 - w) * verdict.certificate.get(s, 0.0) + w * uniform
            for s in schedules}


@dataclass
class LPartiteVerdict:
    interior: bool
    slack: float                      # J - sum of block maxima of rho/phi
    multiplier: float                 # largest load multiplier, +inf at zero load
    partition: tuple[tuple[int, ...], ...]


def lpartite_condition(rho: Sequence[float], spec: NetworkSpec,
                       params: CsmaParams) -> LPartiteVerdict:
    """Closed-form membership test for complete multipartite conflict graphs:
    the load is interior iff the per-block maxima of rho_k / phys_rate_k sum
    to less than the number of channels."""
    partition = detect_l_partite(spec)
    if partition is None:
        raise ValueError("conflict graph is not complete multipartite")
    rho = np.asarray(rho, dtype=float)
    phi = params.phi
    total = sum(max(rho[k] / phi[k] for k in block) for block in partition)
    J = spec.num_channels
    multiplier = math.inf if total == 0 else J / total
    return LPartiteVerdict(total < J, J - total, multiplier, partition)
