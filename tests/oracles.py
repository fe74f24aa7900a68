"""Independent high-precision oracles used to freeze expected values.

Everything here is computed from first principles with mpmath at 50
significant digits, deliberately avoiding the package's own code paths:
roots come from bisection rather than the quadratic formula, the
two-branch dual coefficients from the explicit solved expressions rather
than a linear solve, and the consumption Hamiltonian from brute-force
grid maximization.  pchip_policy, pchip_vx, pchip_log_vx_derivatives
and pchip_free_boundary are the floating-point references: the table
policy, its V_x, the derivatives of ln V_x in ln x and the
free-boundary bisection evaluated through scipy's own PchipInterpolator objects and
interval search, which the package must reproduce bit for bit.
lognormal_affine_expectation is the closed-form expectation of the
left-point utility sum that a simulation of an affine policy on exact
log-normal steps estimates, summed in float64 with math.fsum.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf
from scipy.interpolate import PchipInterpolator

mp.dps = 50

BASE = {"r": "0.03", "mu": "0.05", "sigma": "0.2", "beta": "0.1", "p": "0.5"}


def _mp_params(r="0.03", mu="0.05", sigma="0.2", beta="0.1", p="0.5"):
    return mpf(r), mpf(mu), mpf(sigma), mpf(beta), mpf(p)


def kappa_oracle(r="0.03", mu="0.05", sigma="0.2", beta="0.1", p="0.5") -> float:
    r, mu, sigma, beta, p = _mp_params(r, mu, sigma, beta, p)
    return float((beta - p * (mu**2 / (2 * sigma**2 * (1 - p)) + r)) / (1 - p))


def merton_fraction_oracle(mu="0.05", sigma="0.2", p="0.5") -> float:
    mu, sigma, p = mpf(mu), mpf(sigma), mpf(p)
    return float(mu / (sigma**2 * (1 - p)))


def merton_value_oracle(x, r="0.03", mu="0.05", sigma="0.2", beta="0.1", p="0.5") -> float:
    _, _, _, _, pp = _mp_params(r, mu, sigma, beta, p)
    kap = mpf(repr(kappa_oracle(r, mu, sigma, beta, p)))
    # recompute kappa in mp to avoid the float round trip
    rr, mm, ss, bb, pq = _mp_params(r, mu, sigma, beta, p)
    kap = (bb - pq * (mm**2 / (2 * ss**2 * (1 - pq)) + rr)) / (1 - pq)
    return float(kap ** (pq - 1) * mpf(repr(float(x))) ** pq / pq)


def homogeneous_value_oracle(x, k, r="0.03", mu="0.05", sigma="0.2",
                             beta="0.1", p="0.5") -> float:
    rr, mm, ss, bb, pq = _mp_params(r, mu, sigma, beta, p)
    kap = (bb - pq * (mm**2 / (2 * ss**2 * (1 - pq)) + rr)) / (1 - pq)
    mx = max(kap, mpf(k))
    return float(mx**pq / (pq * (kap * (1 - pq) + mx * pq)) * mpf(repr(float(x))) ** pq)


def char_roots_bisect_oracle(r="0.03", mu="0.05", sigma="0.2", beta="0.1") -> tuple[float, float]:
    """Roots of -m lam(lam-1) + (r-beta) lam + beta by mp bisection."""
    rr, mm, ss, bb, _ = _mp_params(r, mu, sigma, beta)
    m = mm**2 / (2 * ss**2)

    def f(lam):
        return -m * lam * (lam - 1) + (rr - bb) * lam + bb

    def bisect(lo, hi):
        flo = f(lo)
        for _ in range(400):
            mid = (lo + hi) / 2
            fm = f(mid)
            if (fm > 0) == (flo > 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2

    # f(0) = beta > 0, leading coefficient negative: one root below 0, one above 1
    lo = mpf(-1)
    while f(lo) > 0:
        lo *= 2
    hi = mpf(2)
    while f(hi) > 0:
        hi *= 2
    return float(bisect(lo, mpf(0))), float(bisect(hi, mpf(1)))


def fixed_floor_dual_oracle(l="1", r="0.03", mu="0.05", sigma="0.2",
                            beta="0.1", p="0.5") -> dict:
    """Exact two-branch dual data for k = 0: coefficients, junction, x*.

    Uses the explicit solved expressions for the branch coefficients, so
    it is an independent route from the package's 2x2 linear solve.
    """
    rr, mm, ss, bb, pq = _mp_params(r, mu, sigma, beta, p)
    ll = mpf(l)
    kap = (bb - pq * (mm**2 / (2 * ss**2 * (1 - pq)) + rr)) / (1 - pq)
    l1, l2 = (mpf(repr(v)) for v in char_roots_bisect_oracle(r, mu, sigma, beta))
    coef_small = ((l1 - 1) / rr - l1 / (bb * pq) + (1 - pq) / pq * l1 / kap + 1 / kap) \
        * ll ** (pq + l2 * (1 - pq)) / (l2 - l1)
    coef_large = ((l2 - 1) / rr - l2 / (bb * pq) + (1 - pq) / pq * l2 / kap + 1 / kap) \
        * ll ** (pq + l1 * (1 - pq)) / (l2 - l1)
    y_star = ll ** (pq - 1)
    x_star = -(coef_large * l1 * y_star ** (l1 - 1) - ll / rr)
    return {
        "lam1": float(l1),
        "lam2": float(l2),
        "coef_small": float(coef_small),
        "coef_large": float(coef_large),
        "y_star": float(y_star),
        "x_star": float(x_star),
    }


def hamiltonian_brute_force(u: float, y: float, p: float, n: int = 2_000_001) -> float:
    """sup_{c >= u} (c^p/p - c y) over a fine consumption grid.

    The grid spans [u, 4 * max(u, y^(1/(p-1)))] which certainly brackets
    the maximizer; the objective decreases beyond the unconstrained
    optimum c = y^(1/(p-1)).
    """
    c_top = 4.0 * max(u, y ** (1.0 / (p - 1.0)))
    c = np.linspace(u, c_top, n)
    vals = c**p / p - c * y
    return float(vals.max())


def lognormal_affine_expectation(c1, pi1, x0, dt, n_steps, r=0.03, mu=0.05, sigma=0.2,
                                 beta=0.1, p=0.5) -> float:
    """E of the left-point utility sum under exact log-normal steps of
    the wealth of c = c1 x, pi = pi1 x: E[X_{i+1}^p] = g E[X_i^p] with
    g = exp(p a dt + p (p-1) b^2 dt / 2), a = r - c1 + mu pi1, b = sigma pi1."""
    a, b = r - c1 + mu * pi1, sigma * pi1
    g = math.exp(p * a * dt + p * (p - 1.0) * b * b * dt / 2.0)
    w = -math.expm1(-beta * dt) / beta
    return math.fsum(math.exp(-beta * i * dt) * w * (c1 * x0)**p / p * g**i
                     for i in range(n_steps))


# Frozen oracle constants for the baseline market
# (r, mu, sigma, beta, p) = (0.03, 0.05, 0.2, 0.1, 0.5), recomputed by the
# functions above; the literals guard against silent oracle edits.
KAPPA_BASE = 0.1075
MERTON_FRACTION_BASE = 2.5
MERTON_VALUE_1 = 6.099942813304187       # V0(1)
HOMOG_VALUE_1_K02 = 5.817412624389696    # V_k(1) at k = 0.2
LAM1_BASE = -2.5132511719262185
LAM2_BASE = 1.2732511719262185
SI_COEF_SMALL = -21.370673169681133      # small-y branch coefficient, l = 1
SI_COEF_LARGE = 1.264985745047549       # large-y branch coefficient, l = 1
SI_X_STAR = 36.512560239544044            # free boundary, k = 0, l = 1
X_E_SI = 33.333333333333336              # l / r
V_XE_SI = 20.0
X_E_NH = 100.0                           # l / (r - k), k = 0.02
C_E_NH = 3.0
V_XE_NH = 34.641016151377546
NH_BRACKET_UPPER = 194.81156068211217    # free-boundary bracket, k = 0.02


def pchip_policy(table, x):
    """(V, c, pi) at wealth array x from PchipInterpolator objects on the
    table nodes, with c = floor where the floor binds and
    max(V_x^(1/(p-1)), floor) elsewhere."""
    spec = table.spec
    knots = np.log(table.x)
    log_vx = PchipInterpolator(knots, np.log(table.V_x))
    s = np.log(x)
    V_x = np.exp(log_vx(s))
    slope = log_vx.derivative()(s)
    floor = spec.k * x + spec.l
    candidate = V_x ** (1.0 / (spec.p - 1.0))
    c = np.where(table.floor_binds(x), floor, np.maximum(candidate, floor))
    pi = -(spec.mu / spec.sigma**2) * x / slope
    return PchipInterpolator(knots, table.V)(s), c, pi


def pchip_vx(table, x):
    """V_x at wealth array x: exp of a PchipInterpolator of ln V_x in ln x."""
    return np.exp(PchipInterpolator(np.log(table.x), np.log(table.V_x))(np.log(x)))


def pchip_log_vx_derivatives(table, x):
    """First and second derivatives in ln x of the PchipInterpolator of
    ln V_x, at wealth array x."""
    log_vx = PchipInterpolator(np.log(table.x), np.log(table.V_x))
    s = np.log(x)
    return log_vx.derivative(1)(s), log_vx.derivative(2)(s)


def pchip_free_boundary(spec, grid):
    """(y_star, x_star) crossings of phi(y) = y^(1/(p-1)) - (l - k v_y),
    bisected to 1e-8 in ln y on a PchipInterpolator of v_y, sorted by
    x_star; node ties count as crossings."""
    p, k, l = spec.p, spec.k, spec.l
    y, v_y = grid.y, grid.v_y
    t = np.log(y)
    phi = y ** (1.0 / (p - 1.0)) - (l - k * v_y)
    interp = PchipInterpolator(t, v_y)

    def phi_at(tt):
        return math.exp(tt / (p - 1.0)) - (l - k * float(interp(tt)))

    crossings = [(float(y[i]), float(-v_y[i])) for i in np.nonzero(phi == 0.0)[0]]
    for i in np.nonzero(phi[:-1] * phi[1:] < 0.0)[0]:
        lo, hi = float(t[i]), float(t[i + 1])
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
        crossings.append((math.exp(t_star), float(-interp(t_star))))
    return sorted(crossings, key=lambda pair: pair[1])
