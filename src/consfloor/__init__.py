"""Optimal lifetime consumption-investment under a wealth-dependent
consumption floor c >= k*X + l in a Black-Scholes market.

Closed forms for the unconstrained and proportional-floor cases, an
exact dual solution for the fixed-floor case, a Newton solver for the
general dual ODE, free-boundary detection, theorem-based verification
checks, and Monte-Carlo attainment tests.

Importing the package loads the core every command needs: errors,
params, closed_form, dual_solver and policy.  The names it re-exports
from montecarlo (SimConfig, SimReport, simulate, compare_to_value and
the *_feedback constructors) and from verification (VerificationReport,
run_all) load their module on first access (PEP 562), so `consfloor
solve` compiles and runs neither and `consfloor verify` only the
latter.  `from consfloor import simulate` and `from consfloor import *`
work as before; the submodules themselves are reached by importing
them, e.g. `from consfloor import montecarlo`.
"""

__version__ = "0.1.0"

import importlib

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

# re-exported name -> the module that defines it, imported on first access
_LAZY = {
    "VerificationReport": "verification", "run_all": "verification",
    "SimConfig": "montecarlo", "SimReport": "montecarlo", "simulate": "montecarlo",
    "compare_to_value": "montecarlo", "merton_feedback": "montecarlo",
    "floor_feedback": "montecarlo", "homogeneous_feedback": "montecarlo",
    "table_feedback": "montecarlo",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
