"""Problem parameters, derived constants, and case classification, held
together in one frozen ProblemSpec.

The market is Black-Scholes: a riskless account earning r and one risky
asset with excess drift mu and volatility sigma.  The investor draws
consumption c_t subject to the wealth-dependent floor c_t >= k*X_t + l
and maximizes lifetime discounted CRRA utility E int_0^inf e^{-beta t}
c_t^p / p dt.

Everything downstream keys off a handful of derived constants:

    kappa = (beta - p*(mu^2/(2 sigma^2 (1-p)) + r)) / (1-p)
    merton_fraction = mu / (sigma^2 (1-p))
    x_e = l / (r-k)         sustainable floor wealth (finite iff k < r or l = 0)
    c_e = k*x_e + l         perpetual floor consumption at x_e
    v_xe = c_e^p / (beta p) value of holding wealth x_e forever

ProblemSpec(r, mu, sigma, beta, p, k=0.0, l=0.0) validates the seven
parameters eagerly and sets the derived constants and the case tag as
fields; downstream code assumes validity.  Case boundaries (k = r,
kappa = 0, ...) use exact floating-point comparison: rounding is the
caller's responsibility.
"""

from __future__ import annotations

import enum
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, InfeasibleWealth, ParameterError

__all__ = [
    "ProblemCase",
    "ProblemSpec",
    "WealthVerdict",
    "make_spec",
    "check_initial_wealth",
    "load_config",
    "parse_config",
]


class ProblemCase(enum.Enum):
    """Exhaustive, mutually exclusive classification of parameter tuples."""

    MERTON_UNCONSTRAINED = "MertonUnconstrained"
    HOMOGENEOUS = "Homogeneous"
    STATE_INDEPENDENT = "StateIndependent"
    NON_HOMOGENEOUS = "NonHomogeneous"
    INFEASIBLE_ALL = "InfeasibleAll"
    VALUE_POSSIBLY_INFINITE = "ValuePossiblyInfinite"


@dataclass(frozen=True)
class ProblemSpec:
    """Validated problem instance: the seven parameters, the derived
    constants and the case tag.

    Market: riskless rate r >= 0, excess drift mu > 0, volatility
    sigma > 0.  Preferences: discount rate beta > 0, CRRA exponent
    0 < p < 1.  Floor: c >= k*x + l with k >= 0, l >= 0.  x_e, c_e and
    v_xe are +inf when no finite wealth sustains the floor (k >= r with
    l > 0).  Case: infeasibility (k >= r with l > 0) dominates
    everything; kappa <= 0 dominates the remaining tags.

    Immutable after construction; safe to share between threads.
    """

    r: float
    mu: float
    sigma: float
    beta: float
    p: float
    k: float = 0.0
    l: float = 0.0
    kappa: float = field(init=False)
    merton_fraction: float = field(init=False)
    x_e: float = field(init=False)
    c_e: float = field(init=False)
    v_xe: float = field(init=False)
    case: ProblemCase = field(init=False)

    def __post_init__(self):
        r, mu, sigma, beta, p, k, l = (self.r, self.mu, self.sigma, self.beta,
                                       self.p, self.k, self.l)
        if not (math.isfinite(r) and r >= 0.0):
            raise ParameterError(f"require r >= 0, got r={r}")
        if not (math.isfinite(mu) and mu > 0.0):
            raise ParameterError(f"require mu > 0, got mu={mu}")
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ParameterError(f"require sigma > 0, got sigma={sigma}")
        if not (math.isfinite(beta) and beta > 0.0):
            raise ParameterError(f"require beta > 0, got beta={beta}")
        if not (math.isfinite(p) and 0.0 < p < 1.0):
            raise ParameterError(f"require 0 < p < 1, got p={p}")
        if not (math.isfinite(k) and k >= 0.0):
            raise ParameterError(f"require k >= 0, got k={k}")
        if not (math.isfinite(l) and l >= 0.0):
            raise ParameterError(f"require l >= 0, got l={l}")

        kappa = (beta - p * (mu * mu / (2.0 * sigma * sigma * (1.0 - p)) + r)) / (1.0 - p)
        if l == 0.0:
            x_e, c_e, v_xe = 0.0, 0.0, 0.0
        elif k < r:
            x_e = l / (r - k)
            c_e = k * x_e + l
            v_xe = c_e**p / (beta * p)
        else:
            x_e = c_e = v_xe = math.inf

        if l > 0.0 and k >= r:
            case = ProblemCase.INFEASIBLE_ALL
        elif kappa <= 0.0:
            case = ProblemCase.VALUE_POSSIBLY_INFINITE
        elif l == 0.0:
            case = ProblemCase.MERTON_UNCONSTRAINED if k == 0.0 else ProblemCase.HOMOGENEOUS
        elif k == 0.0:
            case = ProblemCase.STATE_INDEPENDENT
        else:
            case = ProblemCase.NON_HOMOGENEOUS

        set_field = object.__setattr__
        set_field(self, "kappa", kappa)
        set_field(self, "merton_fraction", mu / (sigma * sigma * (1.0 - p)))
        set_field(self, "x_e", x_e)
        set_field(self, "c_e", c_e)
        set_field(self, "v_xe", v_xe)
        set_field(self, "case", case)

    @property
    def half_sharpe_sq(self) -> float:
        """mu^2 / (2 sigma^2), the diffusion coefficient of the dual ODE."""
        return self.mu * self.mu / (2.0 * self.sigma * self.sigma)


# the scalar constructor by its historical name
make_spec = ProblemSpec


@dataclass(frozen=True)
class WealthVerdict:
    """Feasibility verdict for an initial wealth level.

    marginal is True when x0 equals x_e exactly: the only admissible
    strategy is to consume the floor and invest nothing, so the state
    stays at x_e forever.
    """

    x0: float
    feasible: bool
    marginal: bool
    note: str


def check_initial_wealth(spec: ProblemSpec, x0: float) -> WealthVerdict:
    """Check x0 against the sustainability floor x_e.

    Raises InfeasibleWealth when x0 < x_e (which covers every finite x0
    in the InfeasibleAll case, where x_e is +inf).  Because x_e is a
    derived quantity carrying float rounding, an x0 within a few ulps of
    x_e counts as the marginal case.
    """
    if not math.isfinite(x0) or x0 < 0.0:
        raise InfeasibleWealth(f"initial wealth must be finite and >= 0, got {x0}")
    x_e = spec.x_e
    ulp_tol = 4.0 * sys.float_info.epsilon * max(1.0, abs(x_e)) if math.isfinite(x_e) else 0.0
    if x0 < x_e - ulp_tol:
        if not math.isfinite(x_e):
            raise InfeasibleWealth(
                "no admissible strategy for any wealth: k >= r with l > 0")
        raise InfeasibleWealth(f"x0={x0} below sustainable floor x_e={x_e}")
    if x0 <= x_e + ulp_tol:
        note = ("unique admissible strategy: consume the floor c_e, invest zero"
                if spec.l > 0.0 else
                "zero wealth is absorbing; value 0")
        return WealthVerdict(x0=x0, feasible=True, marginal=True, note=note)
    return WealthVerdict(x0=x0, feasible=True, marginal=False, note="")


_CONFIG_KEYS = ("r", "mu", "sigma", "beta", "p", "k", "l")


def parse_config(data: dict) -> tuple[ProblemSpec, float | None]:
    """Build a spec from a config mapping; returns (spec, x0 or None).

    Required keys: r, mu, sigma, beta, p, k, l.  Optional: x0.
    Unknown keys are rejected.
    """
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS) - {"x0"})
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [key for key in _CONFIG_KEYS if key not in data]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")

    def num(key):
        val = data[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ConfigError(f"config key {key!r} must be a number, got {val!r}")
        return float(val)

    try:
        spec = make_spec(r=num("r"), mu=num("mu"), sigma=num("sigma"),
                         beta=num("beta"), p=num("p"), k=num("k"), l=num("l"))
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    x0 = num("x0") if "x0" in data else None
    return spec, x0


def load_config(path: str | Path) -> tuple[ProblemSpec, float | None]:
    """Read a JSON config file and build a ProblemSpec."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)
