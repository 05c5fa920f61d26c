"""Multi-channel CSMA networks: exact packet-level equilibria, capacity-region
membership, flow-level simulation and stability diagnostics."""

from .capacity import (CapacityVerdict, LPartiteVerdict, SolverError,
                       full_support_certificate, lpartite_condition, margins,
                       membership, status_of)
from .dynamics import (SimConfig, Trajectory, simulate_joint, simulate_separated,
                       timescale_convergence, uniform_sample_times)
from .equilibrium import (EquilibriumResult, PolicyEvaluator, detailed_balance_check,
                          equilibrium, lemma1_check, stationary_log_weights)
from .schedule import (OracleSpaceError, Schedule, ScheduleSet, ScheduleSpaceError,
                       activity_marginals, alpha_limit_distribution,
                       enumerate_feasible, lemma_gap_bound, log_weight_u, max_weight)
from .stability import (DriftReport, StabilityThresholds, StabilityVerdict,
                        bowtie_boundary, fluid_slope, homogeneous_critical_load,
                        lpartite_fluid_bound, lyapunov_drift, mm1_reduction_check)
from .topology import (AccessPoint, ChannelGraph, CsmaParams, NetworkSpec,
                       TrafficSpec, detect_l_partite, replicate_graph,
                       validate_params, validate_spec, validate_traffic)

__version__ = "0.3.0"
