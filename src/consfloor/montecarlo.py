"""Monte-Carlo check that a feedback policy attains its claimed value.

Euler-Maruyama on the controlled wealth SDE

    dX = (r X - c + mu pi) dt + sigma pi dW,

accumulating discounted utility with the consumption rate frozen at the
left endpoint of each step and the discount factor integrated exactly
within the step, so a constant-consumption path reproduces its value to
machine precision.

Randomness is counter-based and antithetic.  With n paths, step i fills
n/2 normals from a Philox block keyed by the master seed with counter
i << 128; path j < n/2 reads lane j and path j + n/2 reads the negation
of lane j.  Any (step, path) variate can therefore be regenerated
independently of execution order, and a run is bit-for-bit reproducible
from (spec, config, seed).  Normals are generated in float32
(granularity ~6e-8 of a unit draw, orders of magnitude below both the
Euler bias and the statistical error); against float64 that saves only
3-15% of generator time (Philox, 100k draws per step, 2-core x86-64 VM).
All state arithmetic stays float64.  The estimate is the numpy pairwise
mean over all n paths, a fixed reduction order.  The two paths of a pair
are negatively correlated, so the standard error is taken over the n/2
pair means, (acc_j + acc_{j+n/2}) / 2; a per-path standard error would
ignore that correlation and overstate the error.

When a discretization step lands below the sustainable floor x_e, the
path is clamped to x_e and switched permanently to the floor policy
(c_e, 0), the exact continuation there; the event count diagnoses dt
adequacy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .closed_form import homogeneous_coef
from .errors import (
    KappaNonPositive,
    NumericalBlowup,
    ParameterError,
    PolicyInadmissible,
)
from .params import ProblemSpec, check_initial_wealth
from .policy import PolicyTable, policy_at

__all__ = [
    "SimConfig",
    "SimReport",
    "ValueVerdict",
    "simulate",
    "compare_to_value",
    "merton_feedback",
    "floor_feedback",
    "homogeneous_feedback",
    "table_feedback",
]


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls; seed fixes the full random stream.

    n_paths must be even: paths j and j + n_paths/2 form an antithetic
    pair, and the standard error needs at least two pairs.
    """

    x0: float
    dt: float = 1.0 / 250.0
    horizon: float = 100.0
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ParameterError("dt must be > 0")
        if self.horizon < 100.0 * self.dt:
            raise ParameterError("horizon must cover at least 100 steps")
        if self.n_paths < 4 or self.n_paths % 2:
            raise ParameterError(
                f"n_paths={self.n_paths}: need an even number of paths, at least 4 "
                "(antithetic pairs)")


@dataclass(frozen=True)
class SimReport:
    """Estimate of realized lifetime discounted utility under a policy."""

    estimate: float
    std_error: float
    tail_bound: float
    floor_violations: int
    n_paths: int
    n_steps: int
    dt: float
    horizon: float
    seed: int
    max_wealth: float

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AffinePolicy:
    """Feedback c = max(c1 x + c0, k x + l) (optionally), pi = pi1 x.

    Admissibility is guaranteed at construction (either the consumption
    is clipped to the floor, or c1 >= k and c0 >= l hold scalar-wise),
    which lets the simulator skip the per-step floor check and evaluate
    into preallocated buffers.
    """

    c1: float
    c0: float
    pi1: float
    k: float
    l: float
    clip_to_floor: bool = False

    def __post_init__(self):
        if not self.clip_to_floor and (self.c1 < self.k or self.c0 < self.l):
            raise PolicyInadmissible(
                f"affine consumption ({self.c1} x + {self.c0}) below floor "
                f"({self.k} x + {self.l})")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        c = self.c1 * x + self.c0
        if self.clip_to_floor:
            c = np.maximum(c, self.k * x + self.l)
        return c, self.pi1 * x

    def eval_into(self, x, c, pi, scratch):
        np.multiply(x, self.c1, out=c)
        if self.c0 != 0.0:
            c += self.c0
        # for x >= 0 (all simulated wealth) the clip cannot bind when
        # c1 >= k and c0 >= l, since rounding is monotone
        if self.clip_to_floor and (self.c1 < self.k or self.c0 < self.l):
            np.multiply(x, self.k, out=scratch)
            scratch += self.l
            np.maximum(c, scratch, out=c)
        np.multiply(x, self.pi1, out=pi)


def merton_feedback(spec: ProblemSpec) -> AffinePolicy:
    """Merton consumption clipped to the floor: c = max(kappa x, k x + l)."""
    if spec.kappa <= 0.0:
        raise KappaNonPositive("Merton policy undefined for kappa <= 0")
    return AffinePolicy(c1=spec.kappa, c0=0.0, pi1=spec.merton_fraction,
                        k=spec.k, l=spec.l, clip_to_floor=True)


def floor_feedback(spec: ProblemSpec) -> AffinePolicy:
    """Minimal admissible pair: consume the floor, invest nothing."""
    return AffinePolicy(c1=spec.k, c0=spec.l, pi1=0.0, k=spec.k, l=spec.l)


def homogeneous_feedback(spec: ProblemSpec) -> AffinePolicy:
    """Optimal policy for l = 0: c = max(kappa, k) x."""
    if spec.l != 0.0:
        raise ParameterError("homogeneous feedback requires l = 0")
    if spec.kappa <= 0.0:
        raise KappaNonPositive(f"kappa={spec.kappa} <= 0: value may be infinite")
    return AffinePolicy(c1=max(spec.kappa, spec.k), c0=0.0,
                        pi1=spec.merton_fraction, k=spec.k, l=spec.l)


def table_feedback(table: PolicyTable):
    """Feedback from a solved policy table; refuses out-of-range wealth."""

    def policy(x):
        return policy_at(table, x)

    return policy


def _philox_key(seed: int) -> int:
    state = np.random.SeedSequence(seed).generate_state(4, np.uint32)
    return int.from_bytes(state.tobytes(), "little")


def simulate(spec: ProblemSpec, policy, cfg: SimConfig) -> SimReport:
    """Estimate E int_0^T e^{-beta t} U(c_t) dt under the feedback policy.

    policy maps a wealth vector to a (consumption, risky holding) pair
    and must be admissible (c >= k x + l) on the reachable range.
    Deterministic given (spec, cfg): reruns are bit-identical.
    """
    if spec.kappa <= 0.0:
        raise KappaNonPositive("simulation tail bound requires kappa > 0")
    verdict = check_initial_wealth(spec, cfg.x0)
    # a marginal start snaps to x_e exactly so the degenerate constant
    # path stays on the floor instead of clamping at the first step
    x0 = spec.x_e if verdict.marginal else cfg.x0

    r, mu, sigma, beta, p = spec.r, spec.mu, spec.sigma, spec.beta, spec.p
    k, l, x_e, c_e = spec.k, spec.l, spec.x_e, spec.c_e
    dt = cfg.dt
    n_steps = int(round(cfg.horizon / dt))
    horizon = n_steps * dt
    n = cfg.n_paths
    key = _philox_key(cfg.seed)
    sq_dt = math.sqrt(dt)
    sig_sq_dt = sigma * sq_dt
    # exact in-step discount integral: int_{t_i}^{t_i+dt} e^{-beta s} ds
    w_step = -math.expm1(-beta * dt) / beta

    x = np.full(n, float(x0))
    acc = np.zeros(n)
    absorbed = np.zeros(n, dtype=bool)
    any_absorbed = False
    h = n // 2
    z = np.empty(h, dtype=np.float32)
    c = np.empty(n)
    pi = np.empty(n)
    util = np.empty(n)
    drift = np.empty(n)
    diff = np.empty(n)
    scratch = np.empty(n)
    below = np.empty(n, dtype=bool)
    # rows are the two halves of each antithetic pair
    x_pairs = x.reshape(2, h)
    diff_pairs = diff.reshape(2, h)
    floor_violations = 0
    max_wealth = float(x0)
    adm_slack = 1e-9
    affine = isinstance(policy, AffinePolicy)

    for i in range(n_steps):
        if affine:
            policy.eval_into(x, c, pi, scratch)
        else:
            if any_absorbed:
                # keep absorbed lanes off the policy's domain
                np.copyto(scratch, x)
                scratch[absorbed] = x0
                c_out, pi_out = policy(scratch)
            else:
                c_out, pi_out = policy(x)
            np.copyto(c, c_out)
            np.copyto(pi, pi_out)
            # floor admissibility of the queried policy values
            np.multiply(x, k, out=drift)
            drift += l
            np.multiply(drift, 1.0 - adm_slack, out=diff)
            diff -= adm_slack
            np.less(c, diff, out=below)
            if any_absorbed:
                below &= ~absorbed
            if below.any():
                j = int(np.argmax(below))
                raise PolicyInadmissible(
                    f"policy consumption {c[j]} below floor {drift[j]} at x={x[j]}")
            if l == 0.0:
                # the admissibility slack can leave c a hair below zero
                # when the floor itself is zero
                np.maximum(c, 0.0, out=c)
        if any_absorbed:
            c[absorbed] = c_e
            pi[absorbed] = 0.0

        if p == 0.5:
            np.sqrt(c, out=util)
        else:
            np.power(c, p, out=util)
        util *= math.exp(-beta * i * dt) * w_step / p
        acc += util

        g = np.random.Generator(np.random.Philox(key=key, counter=i << 128))
        g.standard_normal(dtype=np.float32, out=z)
        # non-finite intermediates are detected right below, not warned
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(x, r, out=drift)
            drift -= c
            np.multiply(pi, mu, out=scratch)
            drift += scratch
            drift *= dt
            np.multiply(pi, sig_sq_dt, out=diff)
            diff_pairs *= z
            x += drift
            x_pairs[0] += diff_pairs[0]
            x_pairs[1] -= diff_pairs[1]

        lo = float(x.min())
        hi = float(x.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NumericalBlowup(f"non-finite state at step {i}")
        if lo < x_e:
            np.less(x, x_e, out=below)
            x[below] = x_e
            if any_absorbed:
                below &= ~absorbed
            floor_violations += int(np.count_nonzero(below))
            absorbed |= below
            any_absorbed = True
        # clamping lifts wealth only to x_e <= max_wealth
        if hi > max_wealth:
            max_wealth = hi

    estimate = float(np.mean(acc))
    if np.all(acc == acc[0]):
        # degenerate deterministic paths: variance is exactly zero (the
        # pairwise mean can round one ulp off the common value)
        estimate = float(acc[0])
        std_error = 0.0
    else:
        pair_means = 0.5 * (acc[:h] + acc[h:])
        std_error = float(np.std(pair_means, ddof=1) / math.sqrt(h))
    tail_bound = math.exp(-beta * horizon) * homogeneous_coef(spec) * max_wealth**p
    return SimReport(estimate=estimate, std_error=std_error, tail_bound=tail_bound,
                     floor_violations=floor_violations, n_paths=n, n_steps=n_steps,
                     dt=dt, horizon=horizon, seed=cfg.seed, max_wealth=max_wealth)


@dataclass(frozen=True)
class ValueVerdict:
    """Outcome of scoring a simulation against a claimed value."""

    passed: bool
    gap: float
    tolerance: float
    estimate: float
    value: float


def compare_to_value(report: SimReport, value: float,
                     discretization_allowance: float = 0.0) -> ValueVerdict:
    """Pass iff |estimate - value| <= 3 SE + tail bound + allowance.

    The allowance covers the Euler bias, vanishing as dt -> 0; measure
    it with a dt-halving run when it matters.
    """
    tol = 3.0 * report.std_error + report.tail_bound + discretization_allowance
    gap = abs(report.estimate - value)
    return ValueVerdict(passed=gap <= tol, gap=gap, tolerance=tol,
                        estimate=report.estimate, value=value)
