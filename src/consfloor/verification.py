"""Numerical checks of the structural theorems satisfied by a solution.

Each check is a pure function of (spec, grid, table) returning a
CheckResult; run_all bundles the applicable ones into a report.  The
checks cover:

  * the pointwise HJB residual beta V + m V_x^2 / V_xx - G - r x V_x,
  * the sandwich bounds V_k(x - x_e) <= V(x) <= V_k(x - x_e) + V(x_e)
    and the global envelope V(x) <= V_k(x),
  * the marginal-value bound V_x(x) <= max(kappa,k)^p x^p / (kappa (x - x_e))
    plus a growth proxy for V_x(x_e+) = +inf,
  * the region theorems: no free boundary when kappa < k, exactly one
    inside an explicit bracket when kappa >= r (the intermediate regime
    k <= kappa < r is reported without pass/fail semantics),
  * finite-difference consistency of the stored derivative columns,
  * shape: monotonicity/concavity of V, convexity of v, v_y < -x_e,
    and the inverse-function identity V_xx * v_yy = -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import homogeneous_coef
from .dual_solver import DualGrid, hamiltonian
from .params import ProblemSpec
from .policy import PolicyTable

__all__ = [
    "CheckResult",
    "VerificationReport",
    "check_hjb_residual",
    "check_sandwich",
    "check_vx_bound",
    "check_region_theorems",
    "check_gradient_consistency",
    "check_dual_shape",
    "check_primal_shape",
    "check_inverse_identity",
    "run_all",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    location: float | None = None
    note: str = ""

    def to_obj(self) -> dict:
        # JSON has no inf or NaN; a check that could not measure writes null
        worst = self.worst if math.isfinite(self.worst) else None
        return {"name": self.name, "pass": self.passed, "worst": worst,
                "location": self.location, "note": self.note}


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_obj(self) -> dict:
        return {"checks": [c.to_obj() for c in self.checks], "overall": self.overall}

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_hjb_residual(spec: ProblemSpec, table: PolicyTable, tol: float = 1e-6) -> CheckResult:
    """|beta V + m V_x^2/V_xx - G(kx+l, V_x) - r x V_x| <= tol (1 + |beta V|).

    On tables produced by the dual solver this validates the transform
    identities and rounding (the solver drives the same residual to its
    own tolerance in dual variables); on independently built or file
    round-tripped tables it is a genuine consistency check.
    """
    x, V, V_x, V_xx = table.x, table.V, table.V_x, table.V_xx
    sl = slice(1, -1)
    # G(u, y) needs y = V_x > 0; a table that breaks this (say, a corrupted
    # file) fails the check instead of raising
    off_domain = ~(V_x[sl] > 0.0)
    if off_domain.any():
        j = int(np.argmax(off_domain))
        return CheckResult("hjb_residual", False, float(V_x[sl][j]), float(x[sl][j]),
                           note=f"V_x <= 0, outside the Hamiltonian's domain; tol={tol:g}")
    m = spec.half_sharpe_sq
    floor = spec.k * x[sl] + spec.l
    res = (spec.beta * V[sl] + m * V_x[sl] ** 2 / V_xx[sl]
           - hamiltonian(spec, floor, V_x[sl])[0] - spec.r * x[sl] * V_x[sl])
    scaled = np.abs(res) / (1.0 + np.abs(spec.beta * V[sl]))
    i = int(np.argmax(scaled))
    worst = float(scaled[i])
    return CheckResult("hjb_residual", worst <= tol, worst, float(x[sl][i]),
                       note=f"tol={tol:g}")


def check_sandwich(spec: ProblemSpec, table: PolicyTable, tol: float = 1e-9,
                   tol_global: float = 1e-6) -> CheckResult:
    """V_k(x - x_e) <= V <= V_k(x - x_e) + v_xe, and globally V <= V_k(x).

    The sandwich pair is enforced at tol * (1 + |V|).  The global
    envelope gets its own looser default: its true slack x_e y - d(y)
    closes to zero toward the small-price truncation corner, so it can
    only be certified up to the discretization error there.
    """
    coef = homogeneous_coef(spec)
    x, V = table.x, table.V
    shifted = coef * (x - spec.x_e) ** spec.p
    scale = 1.0 + np.abs(V)
    viol = np.maximum(
        (shifted - V) / scale,                          # lower bound
        (V - shifted - spec.v_xe) / scale,              # upper bound
    )
    viol_global = (V - coef * x**spec.p) / scale
    i = int(np.argmax(viol))
    j = int(np.argmax(viol_global))
    worst = float(viol[i])
    worst_global = float(viol_global[j])
    passed = worst <= tol and worst_global <= tol_global
    if worst >= worst_global:
        loc = float(x[i])
    else:
        loc = float(x[j])
    return CheckResult("sandwich_bounds", passed, max(worst, worst_global), loc,
                       note=f"pair worst={worst:.3g} (tol={tol:g}), "
                            f"global worst={worst_global:.3g} (tol={tol_global:g})")


def check_vx_bound(spec: ProblemSpec, table: PolicyTable) -> CheckResult:
    """V_x <= max(kappa,k)^p x^p / (kappa (x - x_e)), plus blow-up proxy.

    The tolerance, 1e-5, is relative: the true slack of the bound
    vanishes like p x_e / x for large wealth, so at the far end of a
    wide table the inequality can only be certified up to the accuracy
    of the node abscissae.

    The proxy for V_x(x_e+) = +inf compares the smallest-wealth node
    against the node a quarter of the way up the table: the first must
    exceed the second at least tenfold.  (No finite grid can assert the
    infinite limit itself.)
    """
    x, V_x = table.x, table.V_x
    mx = max(spec.kappa, spec.k)
    bound = mx**spec.p * x**spec.p / (spec.kappa * (x - spec.x_e))
    rel_viol = (V_x - bound) / bound
    tol = 1e-5
    i = int(np.argmax(rel_viol))
    worst = float(rel_viol[i])
    passed = worst <= tol
    note = f"tol={tol:g}"
    q = len(x) // 4
    if q >= 1:
        ratio = float(V_x[0] / V_x[q])
        if ratio < 10.0:
            passed = False
            note += f"; blow-up proxy failed: V_x[0]/V_x[n/4] = {ratio:.3g} < 10"
        else:
            note += f"; blow-up ratio {ratio:.3g}"
    return CheckResult("vx_upper_bound", passed, worst, float(x[i]), note=note)


def region_bracket(spec: ProblemSpec) -> float:
    """Upper bracket for the free boundary when kappa >= r and k > 0."""
    kappa, k, p, l = spec.kappa, spec.k, spec.p, spec.l
    ratio = k / kappa
    return (spec.x_e + (1.0 - p) * ratio ** (-p) * l / kappa) / (1.0 - ratio ** (1.0 - p))


def check_region_theorems(spec: ProblemSpec, table: PolicyTable) -> CheckResult:
    """Crossing count and location against the kappa regimes.

    kappa < k: no crossings; kappa >= r: exactly one, inside
    (x_e, bracket) with the bracket checked only for k > 0.  The regime
    k <= kappa < r carries no assertion (connectivity is open there);
    the observed interval count is reported as a note.
    """
    stars = table.x_star_list
    n = len(stars)
    if spec.l == 0.0:
        return CheckResult("region_theorems", True, float(n),
                           note=f"no floor kink for l = 0; {n} crossings observed")
    kappa, k, r = spec.kappa, spec.k, spec.r
    if kappa < k:
        return CheckResult("region_theorems", n == 0, float(n),
                           note=f"kappa < k: expected 0 crossings, found {n}")
    if kappa >= r:
        if n != 1:
            return CheckResult("region_theorems", False, float(n),
                               note=f"kappa >= r: expected exactly 1 crossing, found {n}")
        x_star = stars[0]
        ok = x_star > spec.x_e
        note = f"kappa >= r: crossing at {x_star:.6g}"
        if k > 0.0:
            upper = region_bracket(spec)
            ok = ok and x_star < upper
            note += f", bracket upper {upper:.6g}"
        return CheckResult("region_theorems", ok, float(x_star), float(x_star), note=note)
    return CheckResult("region_theorems", True, float(n),
                       note=f"k <= kappa < r: connectivity open, {n} crossings observed "
                            "(informational only)")


def _fd_first(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Second-order first derivative on a non-uniform grid, interior nodes."""
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    return (hm**2 * f[2:] - hp**2 * f[:-2] + (hp**2 - hm**2) * f[1:-1]) / (
        hm * hp * (hm + hp))


def check_gradient_consistency(table: PolicyTable, rel_tol: float = 1e-4) -> CheckResult:
    """Centered differences of V and V_x agree with the stored V_x and V_xx.

    The tolerance at each node is the larger of rel_tol relative and a
    truncation estimate h- h+ |f'''| / 6 (third derivatives estimated by
    differencing the next stored column), inflated by a safety factor of 8.
    Nodes whose spacing is below 1e-7 of the local wealth are skipped
    (in the sliver where x - x_e underruns float resolution no finite
    difference in x is meaningful), as are the two nodes adjacent to
    each end of the table, whose stencils touch boundary values built
    from one-sided reconstructions.
    """
    x = table.x
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    hh = hm * hp
    resolvable = (hm + hp) > 1e-7 * x[1:-1]
    resolvable[:2] = False
    resolvable[-2:] = False
    n_skipped = int(np.count_nonzero(~resolvable))
    if not resolvable.any():
        return CheckResult("gradient_consistency", False, math.inf,
                           note="no node spacing resolvable")

    def column_ratio(f, df, d3_est):
        fd = _fd_first(x, f)
        tol = np.maximum(rel_tol * np.abs(df[1:-1]), 8.0 * hh / 6.0 * np.abs(d3_est))
        ratio = np.abs(fd - df[1:-1]) / tol
        return np.where(resolvable, ratio, 0.0)

    # third derivative estimates from the deepest stored column
    v3 = _fd_first(x, table.V_xx)                       # ~ V'''
    v3_full = np.concatenate([[v3[0]], v3, [v3[-1]]])
    v4 = _fd_first(x, v3_full)                          # ~ V''''
    ratio_v = column_ratio(table.V, table.V_x, v3)
    ratio_vx = column_ratio(table.V_x, table.V_xx, v4)
    worst = float(max(ratio_v.max(), ratio_vx.max()))
    which = ratio_v if ratio_v.max() >= ratio_vx.max() else ratio_vx
    loc = float(x[1:-1][int(np.argmax(which))])
    note = f"rel_tol={rel_tol:g}, worst tolerance ratio"
    if n_skipped:
        note += f"; {n_skipped} unresolvable nodes near x_e skipped"
    return CheckResult("gradient_consistency", worst <= 1.0, worst, loc, note=note)


def check_dual_shape(spec: ProblemSpec, grid: DualGrid) -> CheckResult:
    """v decreasing and strictly convex; v_y < -x_e and nondecreasing."""
    margins = {
        "v_yy > 0": float(np.min(grid.v_yy)),
        "-x_e - v_y > 0": float(np.min(-spec.x_e - grid.v_y)),
        "dv < 0": float(np.min(-np.diff(grid.v))),
        "d v_y > 0": float(np.min(np.diff(grid.v_y))),
    }
    bad = {k: v for k, v in margins.items() if v <= 0.0}
    worst = min(margins.values())
    return CheckResult("dual_shape", not bad, float(worst),
                       note="violated: " + ", ".join(bad) if bad else "all strict")


def check_primal_shape(spec: ProblemSpec, table: PolicyTable) -> CheckResult:
    """V increasing concave; c* >= floor; pi* > 0."""
    floor = spec.k * table.x + spec.l
    margins = {
        "dV > 0": float(np.min(np.diff(table.V))),
        "V_x > 0": float(np.min(table.V_x)),
        "dV_x < 0": float(np.min(-np.diff(table.V_x))),
        "V_xx < 0": float(np.min(-table.V_xx)),
        "c >= floor": float(np.min(table.c_star - floor)),
        "pi > 0": float(np.min(table.pi_star)),
    }
    bad = {k: v for k, v in margins.items() if v < 0.0 or (v == 0.0 and k != "c >= floor")}
    worst = min(margins.values())
    return CheckResult("primal_shape", not bad, float(worst),
                       note="violated: " + ", ".join(bad) if bad else "all hold")


def check_inverse_identity(grid: DualGrid, table: PolicyTable,
                           tol: float = 1e-12) -> CheckResult:
    """V_xx * v_yy = -1 node-by-node (inverse-function derivative)."""
    prod = table.V_xx * grid.v_yy[::-1]
    err = np.abs(prod + 1.0)
    i = int(np.argmax(err))
    worst = float(err[i])
    return CheckResult("inverse_identity", worst <= tol, worst, float(table.x[i]),
                       note=f"tol={tol:g}")


def run_all(spec: ProblemSpec, grid: DualGrid, table: PolicyTable) -> VerificationReport:
    """Run every applicable check and bundle the results."""
    checks = [
        check_hjb_residual(spec, table),
        check_sandwich(spec, table),
        check_vx_bound(spec, table),
        check_region_theorems(spec, table),
        check_gradient_consistency(table),
        check_dual_shape(spec, grid),
        check_primal_shape(spec, table),
        check_inverse_identity(grid, table),
    ]
    return VerificationReport(checks=tuple(checks))
