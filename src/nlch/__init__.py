"""Pseudospectral simulator and verification harness for the nonlocal
Cahn-Hilliard equation with logarithmic potential on a periodic box."""

from .config import ConfigError, RunConfig, load_config, parse_config, serialize_config
from .degiorgi import (
    DeGiorgiParams,
    admissible_window_length,
    estimate_c_tau,
    geometric_decay_bound,
    level_sequence,
    level_set_measures,
    recursion_coefficient,
    verify_scheme_on_trajectory,
)
from .diagnostics import (
    CSV_COLUMNS,
    DiagnosticsRow,
    TimeSeries,
    energy,
    energy_alt,
    gn_constant_estimate,
    gn_ratio,
    mu_linf,
    poincare_ratio,
    poincare_sweep,
    separation_margin,
)
from .dynamics import (
    InitialData,
    MonitorViolation,
    SimState,
    StepError,
    StepperConfig,
    init_state,
    run,
    standard_monitors,
    step,
)
from .equilibrium import EquilibriumResult, monitor_convergence, solve_stationary
from .grid import (
    Field,
    Grid,
    fd_gradient,
    gradient,
    h1_seminorm_sq,
    lp_norm,
    mean,
)
from .kernels import Kernel, build_kernel, convolve
from .potential import (
    PotentialDomainError,
    PotentialParams,
    check_endpoint_asymptotics,
    derivative,
    inverse_derivative,
    second_derivative,
    value,
)
from .snapshots import SnapshotError, read_snapshot, read_snapshot_dir, write_snapshot

__version__ = "0.1.0"
