"""Optimal lifetime consumption-investment under a wealth-dependent
consumption floor c >= k*X + l in a Black-Scholes market.

Closed forms for the unconstrained and proportional-floor cases, an
exact dual solution for the fixed-floor case, a Newton solver for the
general dual ODE, free-boundary detection, theorem-based verification
checks, and Monte-Carlo attainment tests.
"""

__version__ = "0.1.0"

from . import errors
from .closed_form import (
    StateIndependentSolution,
    homogeneous_coef,
    homogeneous_policy,
    homogeneous_value,
    merton_policy,
    merton_value,
    quadratic_roots,
    solve_state_independent,
)
from .dual_solver import (
    DualGrid,
    SolverConfig,
    default_config,
    find_free_boundary,
    hamiltonian,
    ode_residual,
    solve_dual,
)
from .montecarlo import (
    SimConfig,
    SimReport,
    compare_to_value,
    floor_feedback,
    homogeneous_feedback,
    merton_feedback,
    simulate,
    table_feedback,
)
from .params import (
    ProblemCase,
    ProblemSpec,
    WealthVerdict,
    check_initial_wealth,
    load_config,
    make_spec,
    parse_config,
)
from .policy import PolicyTable, RegionPartition, invert, policy_at, regions, value_at
from .verification import VerificationReport, run_all

__all__ = [
    "__version__",
    "errors",
    # params
    "ProblemCase", "ProblemSpec", "WealthVerdict", "make_spec",
    "check_initial_wealth", "load_config", "parse_config",
    # closed forms
    "merton_value", "merton_policy", "homogeneous_coef", "homogeneous_value",
    "homogeneous_policy", "quadratic_roots", "StateIndependentSolution",
    "solve_state_independent",
    # dual solver
    "SolverConfig", "DualGrid", "default_config", "hamiltonian", "solve_dual",
    "ode_residual", "find_free_boundary",
    # policy
    "PolicyTable", "RegionPartition", "invert", "value_at", "policy_at", "regions",
    # verification
    "VerificationReport", "run_all",
    # monte carlo
    "SimConfig", "SimReport", "simulate", "compare_to_value", "merton_feedback",
    "floor_feedback", "homogeneous_feedback", "table_feedback",
]
