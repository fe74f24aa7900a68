"""Reference values computed apart from consfloor.

Nothing here imports the package: every constant is derived again from
the market and preference parameters, so a fault in consfloor's own
formulas cannot cancel out of a check.  Each oracle is paired in run.py
with a negative control that must fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Params:
    r: float
    mu: float
    sigma: float
    beta: float
    p: float
    k: float = 0.0
    l: float = 0.0

    @property
    def kappa(self) -> float:
        m = self.mu * self.mu / (2.0 * self.sigma * self.sigma * (1.0 - self.p))
        return (self.beta - self.p * (m + self.r)) / (1.0 - self.p)

    @property
    def fraction(self) -> float:
        """Risky holding per unit wealth, mu / (sigma^2 (1 - p))."""
        return self.mu / (self.sigma * self.sigma * (1.0 - self.p))

    @property
    def x_e(self) -> float:
        return self.l / (self.r - self.k)

    @property
    def v_xe(self) -> float:
        """V(x_e) = (r x_e)^p / (beta p): the floor consumed for ever."""
        return (self.r * self.x_e) ** self.p / (self.beta * self.p)

    def config(self) -> dict:
        return {"r": self.r, "mu": self.mu, "sigma": self.sigma, "beta": self.beta,
                "p": self.p, "k": self.k, "l": self.l}


def vk_coef(q: Params) -> float:
    """Coefficient of x^p in the proportional-floor value V_k."""
    mx = max(q.kappa, q.k)
    return mx**q.p / (q.p * (q.kappa * (1.0 - q.p) + mx * q.p))


def vk(q: Params, x: float) -> float:
    return vk_coef(q) * x**q.p


# --- affine policies on geometric Brownian wealth --------------------------

def _gbm_rates(q: Params) -> tuple[float, float, float]:
    """(c1, a, b): c = c1 x and dX = X (a dt + b dW) under c = max(kappa, k) x."""
    c1 = max(q.kappa, q.k)
    f = q.fraction
    return c1, q.r - c1 + q.mu * f, q.sigma * f


def affine_value(q: Params, x0: float, horizon: float) -> float:
    """Exact E int_0^T e^{-beta t} c_t^p / p dt for c = max(kappa, k) x."""
    c1, a, b = _gbm_rates(q)
    p = q.p
    gamma = q.beta - p * a - p * (p - 1.0) * b * b / 2.0
    return (c1 * x0) ** p / p * -math.expm1(-gamma * horizon) / gamma


def _discrete_value(q: Params, x0: float, dt: float, n_steps: int, growth: float) -> float:
    """Left-point utility sum with the exact in-step discount integral,
    when E[X_{i+1}^p] = growth * E[X_i^p]."""
    c1, _, _ = _gbm_rates(q)
    w_step = -math.expm1(-q.beta * dt) / q.beta
    ratio = math.exp(-q.beta * dt) * growth
    return (c1 * x0) ** q.p / q.p * w_step * (1.0 - ratio**n_steps) / (1.0 - ratio)


def affine_allowance(q: Params, x0: float, dt: float, horizon: float) -> float:
    """Time-stepping allowance for affine_value.

    The larger of the gaps between the exact value and the expectations
    of an Euler scheme (E[(1 + a dt + b sqrt(dt) Z)^p] by 64-node
    Gauss-Hermite quadrature) and of exact log-normal steps, both with
    utility frozen at the left end of each step.  Either scheme then
    scores within the allowance plus its sampling error.
    """
    _, a, b = _gbm_rates(q)
    p = q.p
    n_steps = int(round(horizon / dt))
    z, w = np.polynomial.hermite_e.hermegauss(64)
    # a step below zero wealth is clamped there; its weight is ~e^-100
    factor = np.maximum(1.0 + a * dt + b * math.sqrt(dt) * z, 0.0)
    euler = float(np.sum(w * factor**p)) / math.sqrt(2.0 * math.pi)
    lognormal = math.exp(p * a * dt + p * (p - 1.0) * b * b * dt / 2.0)
    exact = affine_value(q, x0, horizon)
    return max(abs(exact - _discrete_value(q, x0, dt, n_steps, g)) for g in (euler, lognormal))


def floor_policy_value(q: Params, x0: float, horizon: float) -> float:
    """Finite-horizon value of consuming the floor k x + l with no risky holding.

    Wealth is deterministic: x_t - x_e = (x0 - x_e) e^{(r-k) t}.  The
    integral is taken by 64-node Gauss-Legendre quadrature.
    """
    t, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * horizon * (t + 1.0)
    c = q.r * q.x_e + q.k * (x0 - q.x_e) * np.exp((q.r - q.k) * t)
    return 0.5 * horizon * float(np.sum(w * np.exp(-q.beta * t) * c**q.p / q.p))


# --- fixed floor: k = 0, l > 0 ---------------------------------------------

@dataclass(frozen=True)
class FixedFloorDual:
    """Two-branch dual v(y), glued with continuous v and v_y at y* = l^(p-1).

    v = A y^lam2 + D y^(p/(p-1))          for y <= y*
    v = B y^lam1 + l^p/(beta p) - (l/r) y  for y >= y*
    """

    q: Params
    lam1: float
    lam2: float
    a: float
    b: float
    y_star: float
    x_star: float

    def v(self, y):
        q = self.q
        y = np.asarray(y, dtype=float)
        d = (1.0 - q.p) / (q.p * q.kappa)
        small = self.a * y**self.lam2 + d * y ** (q.p / (q.p - 1.0))
        large = self.b * y**self.lam1 + q.l**q.p / (q.beta * q.p) - q.l / q.r * y
        return np.where(y <= self.y_star, small, large)


def fixed_floor_dual(q: Params) -> FixedFloorDual:
    """Explicit solution: roots by the quadratic formula, coefficients by
    elimination of the 2x2 continuity system."""
    if q.k != 0.0 or q.l <= 0.0:
        raise ValueError("fixed floor needs k = 0 and l > 0")
    m = q.mu * q.mu / (2.0 * q.sigma * q.sigma)
    # m lam^2 - (m + r - beta) lam - beta = 0
    bq = m + q.r - q.beta
    disc = math.sqrt(bq * bq + 4.0 * m * q.beta)
    lam1, lam2 = (bq - disc) / (2.0 * m), (bq + disc) / (2.0 * m)
    pw = q.p / (q.p - 1.0)
    d = (1.0 - q.p) / (q.p * q.kappa)
    e, f = q.l**q.p / (q.beta * q.p), q.l / q.r
    ys = q.l ** (q.p - 1.0)
    # unknowns s = A ys^lam2 and t = B ys^lam1
    rhs_v = e - f * ys - d * ys**pw
    rhs_dv = ys * (-f - d * pw * ys ** (pw - 1.0))
    s = (rhs_dv - lam1 * rhs_v) / (lam2 - lam1)
    t = s - rhs_v
    x_star = f - lam1 * t / ys
    return FixedFloorDual(q=q, lam1=lam1, lam2=lam2, a=s / ys**lam2, b=t / ys**lam1,
                          y_star=ys, x_star=x_star)


# --- bounds for the wealth-dependent floor ----------------------------------

def sandwich(q: Params, x: float) -> tuple[float, float]:
    """Proven bounds V_k(x - x_e) <= V(x) <= V_k(x - x_e) + V(x_e)."""
    lower = vk(q, x - q.x_e)
    return lower, lower + q.v_xe


def region_bracket(q: Params) -> float:
    """Upper end of the interval (x_e, bracket) holding x* when kappa >= r, k > 0."""
    kappa, p = q.kappa, q.p
    ratio = q.k / kappa
    return (q.x_e + (1.0 - p) * ratio ** (-p) * q.l / kappa) / (1.0 - ratio ** (1.0 - p))


def expected_crossings(q: Params) -> int | None:
    """Free-boundary count the regime theorems fix: 0 for kappa < k, 1 for
    kappa >= r; None where connectivity is open (k <= kappa < r)."""
    if q.kappa < q.k:
        return 0
    if q.kappa >= q.r:
        return 1
    return None
