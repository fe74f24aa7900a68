"""Numerical solver for the convex dual of the floor-constrained HJB equation.

The concave value function V(x) on (x_e, inf) has convex dual
v(y) = sup_x (V(x) - x y), which satisfies the semi-linear ODE

    beta (v - y v_y) - (mu^2 / (2 sigma^2)) y^2 v_yy
        - G(l - k v_y, y) + r y v_y = 0,        y > 0,

where G(u, y) = sup_{c >= u} (c^p / p - c y) is the consumption
Hamiltonian.  In log price t = ln y the equation is uniformly elliptic
(y v_y = dv/dt, y^2 v_yy = d2v/dt2 - dv/dt) and is discretized here with
centered second-order differences and solved by damped Newton on the
tridiagonal system, each step by odd-even cyclic reduction.

To keep full relative accuracy near the right truncation boundary,
where v approaches the affine asymptote V(x_e) - x_e y, the solver works
in the excess variable

    w(y) = v(y) - (V(x_e) - x_e y)  > 0,  decreasing, convex,

and evaluates the floor-active branch of G in a cancellation-free form.
Trailing nodes where w falls below its floating-point resolution carry
no information about the solution and are trimmed from the returned
grid; they correspond to wealths within ~1e-11 of x_e.

Truncation boundary conditions: w(y_max) = 0 (the exact limit), and
w(y_min) set from the proportional-floor asymptote plus an additive
offset calibrated by one solve / extrapolate / re-solve pass.

For l = 0 (Merton and the proportional floor) the dual is explicit, and
solve_dual evaluates it on the same grid instead of running Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import closed_form
from .errors import (
    ConvexityLoss,
    DomainError,
    InfeasibleProblem,
    KappaNonPositive,
    NoConvergence,
    ParameterError,
)
from .params import ProblemCase, ProblemSpec

__all__ = [
    "SolverConfig",
    "DualGrid",
    "default_config",
    "hamiltonian",
    "solve_dual",
    "ode_residual",
    "find_free_boundary",
    "validate_grid",
    "pchip_coefficients",
    "solve_tridiagonal",
]

# trailing nodes with w below this multiple of eps * max(w) are noise
_TRIM_FACTOR = 64.0
# systems this small are solved by a scalar Thomas sweep; larger ones are
# halved by cyclic reduction until they are this small
_THOMAS_ROWS = 32
# Newton stops once the max residual is below this multiple of
# 1 + beta max|w| (or its rounding floor), and gives up after _MAX_ITER steps
_NEWTON_TOL = 1e-10
_MAX_ITER = 60


@dataclass(frozen=True)
class SolverConfig:
    """Price-grid truncation [y_min, y_max] and node count for solve_dual.

    The Newton tolerance and iteration cap are the module constants
    _NEWTON_TOL and _MAX_ITER.
    """

    y_min: float
    y_max: float
    n_nodes: int = 4096

    def __post_init__(self):
        if not (0.0 < self.y_min < self.y_max):
            raise ParameterError(f"require 0 < y_min < y_max, got [{self.y_min}, {self.y_max}]")
        if self.n_nodes < 64:
            raise ParameterError(f"require n_nodes >= 64, got {self.n_nodes}")


def default_config(spec: ProblemSpec, span: float = 1e4, n_nodes: int = 4096) -> SolverConfig:
    """Log grid centered on the dual price where the floor constraint kinks.

    y_ref = c_e^(p-1) for l > 0 problems; for l = 0 the marginal value at
    x = 1 is used instead.  Raises the typed error of an unsolvable case.
    """
    _require_solvable(spec)
    if span <= 1.0:
        raise ParameterError("span must exceed 1")
    if spec.c_e > 0.0 and math.isfinite(spec.c_e):
        y_ref = spec.c_e ** (spec.p - 1.0)
    else:
        y_ref = spec.p * closed_form.homogeneous_coef(spec)
    return SolverConfig(y_min=y_ref / span, y_max=y_ref * span, n_nodes=n_nodes)


@dataclass(frozen=True)
class DualGrid:
    """Discrete dual solution on strictly increasing price nodes y.

    v_y is reconstructed by fourth-order differences in ln y (second
    order at the edges); v_yy is backed out of the ODE pointwise, which
    is more accurate than differencing twice.  residual_inf is the
    maximum absolute residual of the discretized ODE over interior
    nodes, measured in the truncation-stable excess form.
    """

    y: np.ndarray
    v: np.ndarray
    v_y: np.ndarray
    v_yy: np.ndarray
    residual_inf: float

    def __post_init__(self):
        for name in ("y", "v", "v_y", "v_yy"):
            arr = np.array(getattr(self, name), dtype=float)  # own the data
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.y.ndim == 1 and len(self.y) >= 3):
            raise ParameterError("grid needs at least 3 nodes")
        if any(len(getattr(self, name)) != len(self.y) for name in ("v", "v_y", "v_yy")):
            raise ParameterError("grid arrays must share one length")

    @property
    def n_nodes(self) -> int:
        return len(self.y)


def hamiltonian(spec: ProblemSpec, u, y):
    """Consumption Hamiltonian G(u, y) = sup_{c >= u} (c^p / p - c y).

    Returns (G, G_u, G_y).  The floor u binds exactly when u > 0 and
    y^(1/(p-1)) < u, i.e. y > u^(p-1); a floor u <= 0 never binds, since
    the unconstrained maximizer y^(1/(p-1)) is positive:

        G   = (1-p)/p y^(p/(p-1)) if slack else u^p/p - u y
        G_u = -(y - u^(p-1))^+  (0 where u <= 0)
        G_y = -max(y^(1/(p-1)), u)

    Raises DomainError unless y > 0.
    """
    u, y = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(y, dtype=float))
    if np.any(y <= 0.0):
        raise DomainError("hamiltonian requires y > 0")
    p = spec.p
    pos = u > 0.0
    # 1.0 stands in for a floor u <= 0, whose binding branch is never taken
    u_pos = np.where(pos, u, 1.0)
    ycrit = u_pos ** (p - 1.0)
    binds = pos & (y > ycrit)
    G = np.where(binds, u_pos**p / p - u_pos * y, (1.0 - p) / p * y ** (p / (p - 1.0)))
    G_u = np.where(binds, ycrit - y, 0.0)
    G_y = -np.maximum(y ** (1.0 / (p - 1.0)), u)
    if G.ndim == 0:
        return float(G), float(G_u), float(G_y)
    return G, G_u, G_y


class _ExcessForm:
    """Discretized dual ODE in the excess variable w = v - (v_xe - x_e y)."""

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        self.m = spec.half_sharpe_sq
        self.p = spec.p
        self.pw = spec.p / (spec.p - 1.0)
        self.k = spec.k
        self.x_e = spec.x_e
        self.c_e = spec.c_e
        self.v_xe = spec.v_xe
        self.beta = spec.beta
        self.r = spec.r
        # scalars that vanish analytically; kept for the exact float residue
        self.z1 = spec.beta * spec.v_xe - spec.c_e**self.p / self.p
        self.z0 = spec.c_e - spec.r * spec.x_e
        coef = closed_form.homogeneous_coef(spec)
        self.apow = (self.p * coef) ** (1.0 / (1.0 - self.p))

    def base_w(self, y):
        """Excess form of the proportional-floor dual asymptote."""
        return (1.0 - self.p) / self.p * self.apow * y**self.pw - self.v_xe

    def floor_term(self, s, y):
        """beta v_xe - G(c_e - k s/y, y) - r x_e y, branch-aware and stable.

        s = y w_y.  Returns (term, G_u) with G_u = dG/du used by the
        Jacobian; u <= 0 (possible on intermediate iterates only) is
        treated as a slack floor.
        """
        p, k = self.p, self.k
        u = self.c_e - k * s / y
        term = np.empty_like(y)
        G_u = np.zeros_like(y)
        pos = u > 0.0
        ycrit = np.full_like(y, np.inf)
        ycrit[pos] = u[pos] ** (p - 1.0)
        active = pos & (y > ycrit)
        idle = ~active
        term[idle] = (self.beta * self.v_xe
                      - (1.0 - p) / p * y[idle] ** self.pw
                      - self.r * self.x_e * y[idle])
        if active.any():
            ya, sa, ua = y[active], s[active], u[active]
            if self.c_e > 0.0:
                # [c_e^p - u^p]/p via expm1/log1p keeps relative accuracy
                # when w_y is tiny (u close to c_e)
                dpow = -(self.c_e**p / p) * np.expm1(p * np.log1p(-k * sa / (ya * self.c_e)))
                term[active] = self.z1 + self.z0 * ya + dpow - k * sa
            else:
                term[active] = -(ua**p) / p - k * sa
            G_u[active] = ycrit[active] - ya
        return term, G_u

    def residual(self, t_step, y, w, bc_l, bc_r):
        """Discrete residual of the excess-form ODE; returns (F, G_u)."""
        h = t_step
        s = (w[2:] - w[:-2]) / (2.0 * h)
        d2 = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
        yi = y[1:-1]
        term, G_u = self.floor_term(s, yi)
        F = np.empty_like(w)
        F[1:-1] = self.beta * w[1:-1] - (self.beta - self.r - self.m) * s - self.m * d2 + term
        F[0] = w[0] - bc_l
        F[-1] = w[-1] - bc_r
        return F, G_u

    def jacobian(self, t_step, y, G_u):
        """Rows of dF/dw from residual's G_u: (lower, diag, upper), with
        lower[i] = dF_i/dw_(i-1) and upper[i] = dF_i/dw_(i+1)."""
        h = t_step
        m, beta, r = self.m, self.beta, self.r
        n = len(y)
        lower = np.zeros(n)
        upper = np.zeros(n)
        diag = np.ones(n)
        gu_term = G_u * (self.k / y[1:-1]) / (2.0 * h)
        diag[1:-1] = beta + 2.0 * m / (h * h)
        upper[1:-1] = (-(beta - r - m) / (2.0 * h) - m / (h * h)) + gu_term
        lower[1:-1] = (+(beta - r - m) / (2.0 * h) - m / (h * h)) - gu_term
        return lower, diag, upper

    def pointwise_v_yy(self, y, w, w_y):
        """Back v_yy out of the ODE from pointwise (w, w_y)."""
        s = y * w_y
        term, _ = self.floor_term(s, y)
        return (self.beta * w - (self.beta - self.r) * s + term) / (self.m * y * y)


def solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve lower[i] z[i-1] + diag[i] z[i] + upper[i] z[i+1] = rhs[i].

    Odd-even cyclic reduction (Hockney, J. ACM 1965): one level
    eliminates the odd-numbered unknowns from the even-numbered rows
    with whole-array operations, which halves the system; below
    _THOMAS_ROWS rows a Thomas sweep finishes, and back substitution
    recovers the odd unknowns level by level.  There is no pivoting, as
    in the Thomas algorithm, so the system should be diagonally
    dominant, as the Newton Jacobians are (by beta in each interior
    row); a zero pivot gives non-finite entries rather than an error.
    lower[0] and upper[-1] do not enter the solution.
    """
    n = len(diag)
    if n <= _THOMAS_ROWS:
        return _thomas(lower, diag, upper, rhs)
    n_even, n_odd = (n + 1) // 2, n // 2
    # odd row 2j+1 couples the even unknowns j and j+1 of the reduced system
    a_odd, b_odd, c_odd, d_odd = lower[1::2], diag[1::2], upper[1::2], rhs[1::2]
    # even row 2j: add alpha_j times odd row 2j-1 (j >= 1) and gamma_j
    # times odd row 2j+1 (j < n_odd), cancelling both odd unknowns
    alpha = -lower[2::2] / b_odd[:n_even - 1]
    gamma = -upper[:2 * n_odd:2] / b_odd
    lower2 = np.zeros(n_even)
    upper2 = np.zeros(n_even)
    diag2 = diag[::2].copy()
    rhs2 = rhs[::2].copy()
    lower2[1:] = alpha * a_odd[:n_even - 1]
    diag2[1:] += alpha * c_odd[:n_even - 1]
    rhs2[1:] += alpha * d_odd[:n_even - 1]
    upper2[:n_odd] = gamma * c_odd
    diag2[:n_odd] += gamma * a_odd
    rhs2[:n_odd] += gamma * d_odd
    z_even = solve_tridiagonal(lower2, diag2, upper2, rhs2)
    z = np.empty(n)
    z[::2] = z_even
    r_odd = d_odd - a_odd * z_even[:n_odd]
    r_odd[:n_even - 1] -= c_odd[:n_even - 1] * z_even[1:]
    z[1::2] = r_odd / b_odd
    return z


def _thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Thomas sweep in Python floats, for systems too small to vectorise."""
    a, b, c, d = lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()
    n = len(b)
    try:
        for i in range(1, n):
            f = a[i] / b[i - 1]
            b[i] -= f * c[i - 1]
            d[i] -= f * d[i - 1]
        d[-1] /= b[-1]
        for i in range(n - 2, -1, -1):
            d[i] = (d[i] - c[i] * d[i + 1]) / b[i]
    except ZeroDivisionError:  # a zero pivot, reported as numpy division would
        return np.full(n, np.nan)
    return np.array(d)


def _newton(form: _ExcessForm, t_step: float, y: np.ndarray, w0: np.ndarray,
            bc_l: float, bc_r: float) -> tuple[np.ndarray, float]:
    """Damped Newton on the tridiagonal system; returns (w, residual_inf)."""
    h = t_step
    w = w0.copy()
    F, G_u = form.residual(h, y, w, bc_l, bc_r)
    # residual evaluation noise floor: rounding of the second difference
    # amplified by m / h^2 caps how small |F| can be driven
    eps = float(np.finfo(float).eps)
    noise_floor = 8.0 * eps * (form.m / (h * h)) * max(1.0, float(np.max(np.abs(w0))))
    scale = 1.0 + form.beta * float(np.max(np.abs(w)))
    stop = max(_NEWTON_TOL * scale, noise_floor)
    for _ in range(_MAX_ITER):
        nrm = float(np.max(np.abs(F)))
        if nrm <= stop:
            return w, nrm
        step = solve_tridiagonal(*form.jacobian(h, y, G_u), -F)
        if not np.all(np.isfinite(step)):
            raise NoConvergence(
                f"Newton step not finite at residual {nrm:.3e}: the Jacobian is "
                "singular or the iterate overflowed; shrink the span")
        alpha = 1.0
        while True:
            trial = w + alpha * step
            F_t, G_u_t = form.residual(h, y, trial, bc_l, bc_r)
            if float(np.max(np.abs(F_t))) < nrm or alpha <= 1.0 / 64.0:
                w, F, G_u = trial, F_t, G_u_t
                break
            alpha *= 0.5
    raise NoConvergence(
        f"Newton stalled at residual {float(np.max(np.abs(F))):.3e} "
        f"(tolerance {stop:.3e}) after {_MAX_ITER} iterations")


def _small_y_exponents(spec: ProblemSpec) -> tuple[float, float, float]:
    """Exponents governing the dual near y = 0.

    Where the floor is slack the linearized operator is the one behind
    the characteristic quadratic; where it binds, the same quadratic
    with r replaced by r - k.  Returns (lam1_slack, lam2_slack,
    lam2_binding); which tail regime applies depends on kappa, so the
    offset fit uses both growth exponents.
    """
    lam1, lam2 = closed_form.quadratic_roots(spec)
    m = spec.half_sharpe_sq
    b = m + (spec.r - spec.k) - spec.beta
    disc = math.sqrt(b * b + 4.0 * m * spec.beta)
    lam2_binding = (b + disc) / (2.0 * m)
    return lam1, lam2, lam2_binding


def _calibrate_left_offset(spec: ProblemSpec, form: _ExcessForm, y: np.ndarray,
                           w: np.ndarray) -> float:
    """Extrapolate the interior solution's offset above the asymptote to y_min.

    Fits w - base_w on a window far enough inside that the boundary
    error mode (decaying like (y/y_min)^lam1) is negligible, using the
    power basis {y, y^lam2_slack, y^lam2_binding} (the small-y expansion
    of the offset has no constant term in either tail regime), and
    clips the extrapolated offset to the proven band
    [0, min(v_xe, x_e y_min)].
    """
    lam1, lam2, lam2_bind = _small_y_exponents(spec)
    y_min, y_max = y[0], y[-1]
    f1 = 10.0 ** (4.0 / abs(lam1))
    f1 = min(max(f1, 30.0), (y_max / y_min) ** 0.25)
    window = (y >= y_min * f1) & (y <= y_min * f1 * 10.0)
    if int(window.sum()) < 8:
        n = len(y)
        window = np.zeros(n, dtype=bool)
        window[n // 8: n // 4] = True
    yw = y[window]
    d = w[window] - form.base_w(yw)
    exponents = [1.0, lam2]
    if abs(lam2_bind - lam2) > 1e-6:
        exponents.append(lam2_bind)
    basis = np.column_stack([yw**e for e in exponents])
    col = np.abs(basis).max(axis=0)
    coef, *_ = np.linalg.lstsq(basis / col, d, rcond=None)
    coef = coef / col
    delta = float(sum(c * y_min**e for c, e in zip(coef, exponents)))
    # keep the imposed value strictly inside the band so that both
    # envelopes survive discretization noise at the truncation node
    return min(max(delta, 0.0), 0.95 * _offset_band_top(spec, y_min))


def _offset_band_top(spec: ProblemSpec, y_min: float) -> float:
    """Proven ceiling for the offset of v above the shifted asymptote.

    The sandwich gives v <= base + v_xe, and the global envelope
    V <= V_k caps the offset at x_e * y besides.
    """
    return min(spec.v_xe, spec.x_e * y_min)


def _derivative_arrays(form: _ExcessForm, t_step: float, y: np.ndarray,
                       w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w_y, w_yy): fourth-order dw/dt inside, second-order at the edges;
    w_yy from the pointwise ODE."""
    h = t_step
    n = len(w)
    dwdt = np.empty(n)
    dwdt[2:-2] = (-w[4:] + 8.0 * w[3:-1] - 8.0 * w[1:-3] + w[:-4]) / (12.0 * h)
    dwdt[1] = (w[2] - w[0]) / (2.0 * h)
    dwdt[-2] = (w[-1] - w[-3]) / (2.0 * h)
    dwdt[0] = (-3.0 * w[0] + 4.0 * w[1] - w[2]) / (2.0 * h)
    dwdt[-1] = (3.0 * w[-1] - 4.0 * w[-2] + w[-3]) / (2.0 * h)
    w_y = dwdt / y
    w_yy = form.pointwise_v_yy(y, w, w_y)
    return w_y, w_yy


def _require_solvable(spec: ProblemSpec):
    if spec.case is ProblemCase.INFEASIBLE_ALL:
        raise InfeasibleProblem("k >= r with l > 0: no admissible strategy")
    if spec.case is ProblemCase.VALUE_POSSIBLY_INFINITE:
        raise KappaNonPositive(f"kappa={spec.kappa} <= 0: value may be infinite")


def solve_dual(spec: ProblemSpec, cfg: SolverConfig | None = None) -> DualGrid:
    """Solve the dual ODE on the grid of cfg, for every solvable case.

    For l = 0 the dual is explicit, v = (1-p)/p a y^(p/(p-1)) with
    a = (p * homogeneous_coef)^(1/(1-p)), and is evaluated on the nodes.
    For l > 0, two Newton passes: the first with the left boundary
    offset at the midpoint of its proven band, the second after
    calibrating the offset against the interior solution.  Raises
    InfeasibleProblem or KappaNonPositive for the unsolvable cases, and
    NoConvergence or ConvexityLoss (the latter usually means the
    truncation is too tight).
    """
    _require_solvable(spec)
    if cfg is None:
        cfg = default_config(spec)
    t = np.linspace(math.log(cfg.y_min), math.log(cfg.y_max), cfg.n_nodes)
    y = np.exp(t)
    if spec.l == 0.0:
        return _homogeneous_grid(spec, y)

    form = _ExcessForm(spec)
    h = float(t[1] - t[0])
    bc_r = 0.0

    delta = _offset_band_top(spec, cfg.y_min) / 2.0
    w0 = form.base_w(y) + delta
    w0[-1] = bc_r
    w, _ = _newton(form, h, y, w0, form.base_w(y[0]) + delta, bc_r)

    delta = _calibrate_left_offset(spec, form, y, w)
    w, _ = _newton(form, h, y, w, form.base_w(y[0]) + delta, bc_r)

    # drop trailing nodes where w is below floating-point resolution
    floor = _TRIM_FACTOR * np.finfo(float).eps * float(np.max(w))
    resolved = np.nonzero(w > floor)[0]
    if len(resolved) < 16:
        raise ConvexityLoss("excess dual value unresolved on almost the whole grid")
    last = int(resolved[-1])
    y, w = y[: last + 1], w[: last + 1]

    w_y, w_yy = _derivative_arrays(form, h, y, w)
    v = w + (spec.v_xe - spec.x_e * y)
    v_y = w_y - spec.x_e
    grid = DualGrid(y=y, v=v, v_y=v_y, v_yy=w_yy,
                    residual_inf=_excess_residual_inf(form, h, y, w))
    validate_grid(spec, grid)
    return grid


def _homogeneous_grid(spec: ProblemSpec, y: np.ndarray) -> DualGrid:
    """The exact l = 0 dual on the nodes y, with its discrete residual."""
    p = spec.p
    apow = (p * closed_form.homogeneous_coef(spec)) ** (1.0 / (1.0 - p))
    v = (1.0 - p) / p * apow * y ** (p / (p - 1.0))
    v_y = -apow * y ** (1.0 / (p - 1.0))
    v_yy = apow / (1.0 - p) * y ** ((2.0 - p) / (p - 1.0))
    grid = DualGrid(y=y, v=v, v_y=v_y, v_yy=v_yy, residual_inf=0.0)
    return replace(grid, residual_inf=ode_residual(spec, grid))


def _excess_residual_inf(form: _ExcessForm, t_step: float, y: np.ndarray,
                         w: np.ndarray) -> float:
    F, _ = form.residual(t_step, y, w, w[0], w[-1])
    return float(np.max(np.abs(F[1:-1]))) if len(w) > 2 else 0.0


def ode_residual(spec: ProblemSpec, grid: DualGrid) -> float:
    """Max absolute discretized-ODE residual of grid.v over interior nodes.

    Derivatives are formed by the solver's own centered differences from
    the stored v (the stored v_y / v_yy arrays are the higher-accuracy
    policy reconstructions and would make this check vacuous).  Requires
    a log-uniform grid.  Measured in the excess form, so the affine
    truncation asymptote does not pollute the tail rows.
    """
    t = np.log(grid.y)
    steps = np.diff(t)
    h = float(steps[0])
    if np.max(np.abs(steps - h)) > 1e-8 * h:
        raise ParameterError("ode_residual requires a log-uniform grid")
    form = _ExcessForm(spec)
    w = grid.v - (spec.v_xe - spec.x_e * grid.y)
    return _excess_residual_inf(form, h, grid.y, w)


def pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Monotone cubic (PCHIP) pieces through (x, y), lowest power first.

    Piece i evaluates a[0][i] + a[1][i] dx + a[2][i] dx^2 + a[3][i] dx^3
    at dx = s - x[i]; the derivative's rows are a[1:] * [[1], [2], [3]].
    Interior slopes are Fritsch-Carlson weighted harmonic means of the
    neighbouring secants, zero where those change sign or vanish; end
    slopes come from the one-sided three-point rule, zeroed or clamped
    to 3 m0 to keep shape.  Every operation is scipy's, in the order of
    its PchipInterpolator and CubicHermiteSpline, and the tests check the
    coefficients against scipy bit for bit.  x must be strictly
    increasing; two points give the straight line.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    d = np.empty(len(y))
    if len(y) == 2:
        d[:] = m[0]
    else:
        sm = np.sign(m)
        flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))


def _pchip_end_slope(h0, h1, m0, m1):
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def find_free_boundary(spec: ProblemSpec, grid: DualGrid) -> list[tuple[float, float]]:
    """All crossings of phi(y) = y^(1/(p-1)) - (l - k v_y(y)) on the grid.

    phi > 0 means the floor is slack at x(y) = -v_y(y).  Each sign
    change is refined by bisection (to relative 1e-8 in y) on a
    monotone-cubic interpolant of v_y in ln y; a node where phi is
    exactly zero is itself a crossing.  Returns (y_star, x_star) pairs
    sorted by increasing x_star; an empty list is a valid result.
    """
    p, k, l = spec.p, spec.k, spec.l
    y, v_y = grid.y, grid.v_y
    t = np.log(y)
    phi = y ** (1.0 / (p - 1.0)) - (l - k * v_y)

    crossings = []
    for i in np.nonzero(phi == 0.0)[0]:
        crossings.append((float(y[i]), float(-v_y[i])))
    for i in np.nonzero(phi[:-1] * phi[1:] < 0.0)[0]:
        # the bisection stays in [t_i, t_(i+1)), so only piece i is
        # evaluated, in Python floats and in PPoly's operation order;
        # its coefficients depend on the nodes i-1 .. i+2 alone
        first = max(i - 1, 0)
        window = slice(first, i + 3)
        a0, a1, a2, a3 = pchip_coefficients(t[window], v_y[window])[:, i - first].tolist()
        knot = lo = float(t[i])
        hi = float(t[i + 1])

        def v_y_at(tt: float) -> float:
            s = tt - knot
            s2 = s * s
            return a0 + a1 * s + a2 * s2 + a3 * (s2 * s)

        def phi_at(tt: float) -> float:
            return math.exp(tt / (p - 1.0)) - (l - k * v_y_at(tt))

        f_lo = phi_at(lo)
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            f_mid = phi_at(mid)
            if f_mid == 0.0:
                lo = hi = mid
                break
            if (f_lo < 0.0) == (f_mid < 0.0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        crossings.append((math.exp(t_star), -v_y_at(t_star)))
    crossings.sort(key=lambda pair: pair[1])
    return crossings


def validate_grid(spec: ProblemSpec, grid: DualGrid):
    """Check the structural invariants of a solved grid.

    v strictly decreasing and convex, v_y strictly below -x_e, and v_y
    nondecreasing across nodes.  Raises ConvexityLoss on violation.
    """
    if np.any(grid.v_yy <= 0.0):
        raise ConvexityLoss("v_yy <= 0 on the solved grid; enlarge the domain or refine")
    if np.any(grid.v_y >= 0.0) or np.any(np.diff(grid.v) >= 0.0):
        raise ConvexityLoss("dual value not strictly decreasing")
    if np.any(grid.v_y >= -spec.x_e):
        raise ConvexityLoss("v_y does not stay below -x_e")
    if np.any(np.diff(grid.v_y) <= 0.0):
        raise ConvexityLoss("v_y not increasing across nodes")
