"""Multi-channel CSMA networks: exact packet-level equilibria, capacity-region
membership, flow-level simulation and stability diagnostics."""

from .capacity import CapacityVerdict, SolverError, margins, membership, status_of
from .dynamics import (SimConfig, Trajectory, simulate_joint, simulate_separated,
                       timescale_convergence, uniform_sample_times)
from .equilibrium import EquilibriumResult, PolicyEvaluator
from .schedule import OracleSpaceError, ScheduleSet, ScheduleSpaceError, enumerate_feasible
from .stability import StabilityVerdict, fluid_slope
from .topology import (AccessPoint, ChannelGraph, CsmaParams, NetworkSpec,
                       TrafficSpec, replicate_graph, validate_params, validate_spec,
                       validate_traffic)

__version__ = "0.6.1"
