"""Stability diagnostics: fluid-slope estimation from replicated
trajectories.

Simulation cannot prove ergodicity, so verdicts here are calibrated evidence:
"unstable-evidence" means the growth-slope confidence interval sits strictly
above zero; anything else is "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Trajectory, left_sum, stream

FIT_WINDOW = 0.6          # final fraction of each run that the slope is fitted over
MIN_REPLICATIONS = 5      # fewest runs a slope verdict accepts


@dataclass
class StabilityVerdict:
    verdict: str                       # unstable-evidence | inconclusive
    slope: float                       # total flow-count growth, flows per second
    ci_lo: float
    ci_hi: float
    per_class_slopes: tuple[float, ...]
    mean_total_flows: float


def _ls_slope(times: np.ndarray, values: np.ndarray) -> float:
    t_bar = times.mean()
    v_bar = values.mean()
    denom = float(((times - t_bar) ** 2).sum())
    if denom == 0.0:
        return 0.0
    return float(((times - t_bar) * (values - v_bar)).sum() / denom)


def in_fit_window(time: float, final_time: float) -> bool:
    """Whether a sample at ``time`` of a run ending at ``final_time`` enters
    the slope fit."""
    return time >= (1 - FIT_WINDOW) * final_time


def check_slope_inputs(replications: int, sample_times: Sequence[float],
                       horizon: float) -> None:
    """Raise ``fluid_slope``'s ``ValueError`` for such runs before any is
    simulated. A run that aborts ends early, which only widens its window."""
    if replications < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications for a "
                         f"slope verdict, got {replications}")
    fit = sum(in_fit_window(t, horizon) for t in sample_times)
    if fit < 3:
        raise ValueError(f"too few samples in the fit window: {fit} of "
                         f"{len(sample_times)}, need 3")


def fluid_slope(trajectories: Sequence[Trajectory]) -> StabilityVerdict:
    """Estimate the linear growth rate of the total flow count.

    Fits a least-squares line to each replication's total flow count over the
    final ``FIT_WINDOW`` fraction of its run and bootstraps a 95% confidence
    interval over replications. A CI strictly above zero is
    unstable-evidence; anything else is inconclusive.
    """
    if len(trajectories) < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications for a "
                         f"slope verdict, got {len(trajectories)}")
    K = len(trajectories[0].final_state)
    slopes = []
    class_slopes = []
    means = []
    for tr in trajectories:
        pts = [(s.time, s.state) for s in tr.samples if in_fit_window(s.time, tr.final_time)]
        if len(pts) < 3:
            raise ValueError("trajectories carry too few samples in the fit window")
        times = np.array([p[0] for p in pts])
        states = np.array([p[1] for p in pts], dtype=float)
        slopes.append(_ls_slope(times, states.sum(axis=1)))
        class_slopes.append([_ls_slope(times, states[:, k]) for k in range(K)])
        means.append(left_sum(tr.time_integral_flows) / tr.final_time)

    slopes_arr = np.array(slopes)
    rng = stream(0, "bootstrap", 0, 0)
    n = len(slopes_arr)
    resampled = slopes_arr[rng.integers(0, n, (1000, n))].mean(axis=1)
    ci_lo, ci_hi = (float(v) for v in np.percentile(resampled, [2.5, 97.5]))
    verdict = "unstable-evidence" if ci_lo > 0.0 else "inconclusive"
    return StabilityVerdict(verdict, float(slopes_arr.mean()), ci_lo, ci_hi,
                            tuple(float(np.mean([c[k] for c in class_slopes]))
                                  for k in range(K)),
                            float(np.mean(means)))

