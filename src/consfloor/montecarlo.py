"""Monte-Carlo check that a feedback policy attains its claimed value.

Two stepping schemes, chosen from the policy and spec alone:

* Exact log-normal steps for an affine policy c = c1 x, pi = pi1 x
  (c1 > 0, c1 >= k, no binding floor clip) on a spec with l = 0, from
  x0 > 0.  There x_e = 0 is never reached and wealth is a geometric
  Brownian motion, dX = X (a dt + b dW) with a = r - c1 + mu pi1 and
  b = sigma pi1, so ln X advances by (a - b^2/2) dt + b sqrt(dt) Z
  without time-stepping bias (Glasserman 2003, sec. 3.2).  This covers
  the Merton policy, the optimal policy max(kappa, k) x of the
  proportional floor, and its floor policy k x.
* Euler-Maruyama on the controlled wealth SDE

      dX = (r X - c + mu pi) dt + sigma pi dW

  for everything else: the solved table, plain callables, affine
  policies whose floor clip binds or with l > 0, and the start x0 = 0.

The Euler loop evaluates every policy at one call site,
policy.eval_into(x, c, pi, scratch), which writes consumption and
holding into the simulator's arrays and returns the policy's V_x at x,
with the first two derivatives of ln V_x in ln x, when it knows them,
None otherwise; a policy that returns them also has value(x), its V.
AffinePolicy (None) and the solved table's TableFeedback (V_x and
derivatives) are admissible by construction (c = max(., k x + l) for
the table).  A plain callable x -> (c, pi) is wrapped in an adapter
that copies its values, checks c >= k x + l at every step and returns
None.  Absorbed lanes (below) are queried at x0 and then set to (c_e,
0), so no policy sees wealth x_e.

Both accumulate discounted utility with the consumption rate frozen at
the left endpoint of each step and the discount factor integrated
exactly within the step, so a constant-consumption path reproduces its
value to machine precision.  That left-point rule is the only bias of
the exact scheme, first order in dt; the Euler scheme adds its own
first-order bias in the wealth step.

Randomness is counter-based and antithetic.  With n paths, step i fills
n/2 normals from a Philox block keyed by the master seed with counter
i << 128; path j < n/2 reads lane j and path j + n/2 reads the negation
of lane j.  Any (step, path) variate can therefore be regenerated
independently of execution order, and a run is bit-for-bit reproducible
from (spec, config, seed).  One generator serves a whole run: before
each step its state is reset to the step's counter, which gives the
normals of a generator built for that step at a fraction of the cost.
Normals are generated in float32 (granularity ~6e-8 of a unit draw,
orders of magnitude below both the time-stepping bias and the
statistical error); against float64 that saves only 3-15% of generator
time (Philox, 100k draws per step, 2-core x86-64 VM).  All state
arithmetic stays float64.  The estimate is the numpy pairwise mean over
all n paths, a fixed reduction order.  The two paths of a pair are
negatively correlated, so the standard error is taken over the n/2 pair
means, (acc_j + acc_{j+n/2}) / 2; a per-path standard error would
ignore that correlation and overstate the error.

Each path is scored by the verification sum of the HJB argument for a
value J(t, x) that the policy supplies,

    sum_i util_i + e^{-beta T} J(T, X_T) - sum_i H_i,

where the hedge H_i is a polynomial in Z_i, the signed normal that
moved the path at step i, with factors known at t_i.  The subtracted
sum is a control variate with coefficient 1 (Clewlow & Carverhill, J.
Derivatives 1994; Glasserman 2003, ch. 4): the powers of Z_i it holds,
Z_i, Z_i^2 - 1 and Z_i^3, have mean zero, so the estimate is unbiased
for E[sum util + e^{-beta T} J(T, X_T)] whatever J is, and its variance
is small when J is the policy's own value and H_i follows the step's
noise in e^{-beta t} J(t, X).  Log-normal runs take the affine policy's
finite-horizon value, J = c1^p x^p (1 - e^{-rho (T-t)}) / (p rho) with
rho = beta - p (a + (p-1) b^2 / 2) (kappa for Merton), and
H_i = e^{-beta t_i} J_x(t_i, X_i) pi_i sigma sqrt(dt) Z_i; as
J(T, .) = 0, tail_bound bounds what lies past T.

An Euler policy that returns V_x has J = V, its value(x), V(x_e) = v_xe
on absorbed lanes and tail_bound = 0.  Its hedge is the Ito-Taylor
expansion of V(X_{i+1}) - V(X_i) along the Euler step
X_{i+1} - X_i = D_i dt + sigma pi_i sqrt(dt) Z_i, D_i = r X_i - c_i +
mu pi_i, to every term of order dt^{3/2} (Kloeden & Platen 1992, ch. 5),
discounted at the step's end:

    H_i = e^{-beta t_{i+1}} [V_x pi_i (sigma sqrt(dt) Z_i - mu dt (Z_i^2 - 1) / 2)
          + V_xx sigma pi_i D_i dt^{3/2} Z_i + V_xxx (sigma pi_i)^3 dt^{3/2} Z_i^3 / 6],

V and its derivatives at X_i.  The paper's main result makes V three
times continuously differentiable, so these terms exist, and the
feedback pi = -(mu / sigma^2) V_x / V_xx puts them in terms of what the
policy returns with V_x: L1 and L2, the first two derivatives of ln V_x
in ln x.  It turns V_xx sigma^2 pi^2 dt (Z_i^2 - 1) / 2 into the Ito
term above (noise that antithetic pairs, sharing Z_i^2, keep), the
V_xx term into -(mu / sigma) sqrt(dt) V_x D_i dt Z_i, and the V_xxx
term into mu^2 dt^{3/2} V_x pi_i A_i Z_i^3 / (6 sigma) with
A_i = 1 - 1/L1 + L2/L1^2.  What is left is of order dt^2 per step.  On
absorbed lanes pi = 0 and D_i is taken as 0, so H_i = 0 there.  Other
runs have J = 0 and no control variate (no V_x, or pi1 = 0).
uncorrected_std_error is the plain utility sum's standard error; an
estimate or standard error that is not finite raises NumericalBlowup.

When an Euler step lands below the sustainable floor x_e, the path is
clamped to x_e and switched permanently to the floor policy (c_e, 0),
the exact continuation there; the event count diagnoses dt adequacy.
A state beyond the float64 range raises NumericalBlowup in either
scheme.
"""

from __future__ import annotations

import math
import numbers
import sys
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
from .policy import PolicyTable, TableFeedback

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


# most Euler or log-normal steps one simulation may take: 133 times the
# 75 000 steps of a 300-year run at dt = 1/250, and far inside the one
# 64-bit word of the Philox counter that holds the step index
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls; seed fixes the full random stream.

    horizon / dt rounds to the step count, between 100 and MAX_STEPS.
    n_paths must be even: paths j and j + n_paths/2 form an antithetic
    pair, and the standard error needs at least two pairs.  seed is a
    non-negative integer.
    """

    x0: float
    dt: float = 1.0 / 250.0
    horizon: float = 100.0
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ParameterError("dt must be > 0")
        if not math.isfinite(self.horizon):
            raise ParameterError(f"horizon={self.horizon} must be finite")
        if not self.horizon / self.dt <= MAX_STEPS:
            raise ParameterError(
                f"horizon={self.horizon!r} at dt={self.dt!r} takes "
                f"{self.horizon / self.dt:.3g} steps; at most {MAX_STEPS} are allowed")
        if self.horizon < 100.0 * self.dt:
            raise ParameterError("horizon must cover at least 100 steps")
        if (not isinstance(self.n_paths, numbers.Integral) or self.n_paths < 4
                or self.n_paths % 2):
            raise ParameterError(
                f"n_paths={self.n_paths!r}: need an even integer number of paths, "
                "at least 4 (antithetic pairs)")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ParameterError(f"seed={self.seed!r} must be a non-negative integer")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class SimReport:
    """Estimate of E[sum of discounted utility to T + e^{-beta T} J(T, X_T)]
    under a policy, J the value it supplies (module docstring).

    For the solved table J = V, so the estimate is V(x0) up to the Euler
    bias and tail_bound is 0; otherwise J(T, .) = 0 and tail_bound
    bounds the utility past T.  control_variate says whether the
    martingale hedge was subtracted: in exact log-normal runs whenever
    the policy holds the risky asset (pi1 != 0), in Euler runs when the
    policy returns V_x, where the hedge takes the Ito-Taylor terms of V
    up to order dt^{3/2}.  uncorrected_std_error is the standard error
    of the plain utility sum, equal to std_error when it was not.
    """

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
    control_variate: bool
    uncorrected_std_error: float

    def to_obj(self) -> dict:
        """The fields as a dict; without the control variate std_error
        is the uncorrected one, and both control-variate fields are left
        out."""
        obj = asdict(self)
        if not self.control_variate:
            del obj["control_variate"], obj["uncorrected_std_error"]
        return obj


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

    @property
    def clips(self) -> bool:
        """Whether the floor clip can bind on x >= 0: with c1 >= k and
        c0 >= l it cannot, since rounding is monotone."""
        return self.clip_to_floor and (self.c1 < self.k or self.c0 < self.l)

    def eval_into(self, x, c, pi, scratch):
        np.multiply(x, self.c1, out=c)
        if self.c0 != 0.0:
            c += self.c0
        if self.clips:
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


def table_feedback(table: PolicyTable) -> TableFeedback:
    """Feedback from a solved policy table; refuses out-of-range wealth.

    The result is callable, policy(x) = policy_at(table, x), and the
    simulator evaluates it through its eval_into.
    """
    return TableFeedback(table)


# relative and absolute slack of the floor check on a plain callable's
# consumption, c >= (k x + l) (1 - slack) - slack
_ADM_SLACK = 1e-9


@dataclass(frozen=True)
class _CheckedPolicy:
    """A plain feedback callable on the eval_into protocol.

    The callable's (c, pi) are copied into the simulator's arrays and c
    is checked against the floor; with l = 0 the check's slack can leave
    c a hair below zero, so c is raised to 0 there.
    """

    policy: object
    k: float
    l: float

    def eval_into(self, x, c, pi, scratch):
        c_out, pi_out = self.policy(x)
        np.copyto(c, c_out)
        np.copyto(pi, pi_out)
        floor = np.multiply(x, self.k, out=scratch)
        floor += self.l
        below = c < floor * (1.0 - _ADM_SLACK) - _ADM_SLACK
        if below.any():
            j = int(np.argmax(below))
            raise PolicyInadmissible(
                f"policy consumption {c[j]} below floor {floor[j]} at x={x[j]}")
        if self.l == 0.0:
            np.maximum(c, 0.0, out=c)


# largest ln x whose x is a finite float64
_LOG_MAX = math.log(sys.float_info.max)


def _philox_key(seed: int) -> int:
    state = np.random.SeedSequence(seed).generate_state(4, np.uint32)
    return int.from_bytes(state.tobytes(), "little")


class _Normals:
    """Step i's antithetic half: Philox keyed by the seed, counter i << 128.

    One generator serves every step; fill resets its state to the step's
    counter, which gives the normals of a fresh Philox(key=key,
    counter=i << 128) without building one (and seeding it from the OS)
    per step.  The step index fills counter word 2, so it must stay
    below 2**64.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=_philox_key(seed))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state  # counter 0, nothing buffered

    def fill(self, i: int, z: np.ndarray):
        self._state["state"]["counter"][2] = i
        self._bitgen.state = self._state
        self._gen.standard_normal(dtype=np.float32, out=z)


def simulate(spec: ProblemSpec, policy, cfg: SimConfig) -> SimReport:
    """Estimate E[int_0^T e^{-beta t} U(c_t) dt + e^{-beta T} J(T, X_T)]
    under the feedback policy, with J = V for a policy that returns V_x
    (the solved table) and J(T, .) = 0 otherwise (module docstring).

    policy maps a wealth vector to a (consumption, risky holding) pair
    and must be admissible (c >= k x + l) on the reachable range.
    Deterministic given (spec, cfg): reruns are bit-identical.  The
    stepping scheme follows from the policy and spec (module docstring).
    """
    if spec.kappa <= 0.0:
        raise KappaNonPositive("simulation tail bound requires kappa > 0")
    verdict = check_initial_wealth(spec, cfg.x0)
    # a marginal start snaps to x_e exactly so the degenerate constant
    # path stays on the floor instead of clamping at the first step
    x0 = spec.x_e if verdict.marginal else cfg.x0

    dt = cfg.dt
    n_steps = cfg.n_steps
    horizon = n_steps * dt
    n = cfg.n_paths
    normals = _Normals(cfg.seed)
    # exact in-step discount integral: int_{t_i}^{t_i+dt} e^{-beta s} ds
    w_step = -math.expm1(-spec.beta * dt) / spec.beta
    lognormal = (isinstance(policy, AffinePolicy) and not policy.clips and policy.c0 == 0.0
                 and policy.c1 > 0.0 and policy.c1 >= spec.k and spec.l == 0.0 and x0 > 0.0)
    steps = _lognormal_steps if lognormal else _euler_steps
    acc, mart, floor_violations, max_wealth = steps(
        spec, policy, x0, dt, n_steps, n, normals, w_step)

    # an overflowed control variate is reported by the check below
    with np.errstate(invalid="ignore", over="ignore"):
        uncorrected = _mean_and_std_error(acc)
        estimate, std_error = uncorrected if mart is None else _mean_and_std_error(acc - mart)
    if not (math.isfinite(estimate) and math.isfinite(std_error)):
        raise NumericalBlowup(
            f"estimate {estimate!r} with standard error {std_error!r} is not finite"
            + ("" if mart is None else " after subtracting the control variate"))
    if mart is not None and not lognormal:
        tail_bound = 0.0    # e^{-beta T} V(X_T) holds the whole tail
    else:
        tail_bound = math.exp(-spec.beta * horizon) * homogeneous_coef(spec) * max_wealth**spec.p
    return SimReport(estimate=estimate, std_error=std_error, tail_bound=tail_bound,
                     floor_violations=floor_violations, n_paths=n, n_steps=n_steps,
                     dt=dt, horizon=horizon, seed=cfg.seed, max_wealth=max_wealth,
                     control_variate=mart is not None, uncorrected_std_error=uncorrected[1])


def _mean_and_std_error(values):
    """Mean of the per-path values, and its standard error over the
    antithetic pair means (module docstring)."""
    if np.all(values == values[0]):
        # degenerate deterministic paths: variance is exactly zero (the
        # pairwise mean can round one ulp off the common value)
        return float(values[0]), 0.0
    h = len(values) // 2
    pair_means = 0.5 * (values[:h] + values[h:])
    return float(np.mean(values)), float(np.std(pair_means, ddof=1) / math.sqrt(h))


def _lognormal_steps(spec, policy, x0, dt, n_steps, n, normals, w_step):
    """Exact steps of the wealth GBM under c = c1 x, pi = pi1 x.

    Each path carries q = p ln x_i - beta t_i + ln(w_step c1^p / p), the
    log of its utility increment at step i, so the increment is exp(q)
    and a step shifts q by p (a - b^2/2) dt - beta dt plus or minus
    p b sqrt(dt) z.  One max per step bounds ln x for max_wealth and the
    float64 range; NaN fails that comparison too.

    Returns what _euler_steps returns.  The control variate's step term
    is util_i dq_i (1 - e^{-rho (T - t_i)}) / (rho w_step) with dq_i the
    signed shift p b sqrt(dt) Z_i of q (module docstring); it is summed
    per antithetic pair, half the difference of the two paths' terms,
    and that pair mean is returned for both paths of the pair.  With
    pi1 = 0 there is no noise to hedge and the control variate is None.
    """
    p, beta = spec.p, spec.beta
    a = spec.r - policy.c1 + spec.mu * policy.pi1
    b = spec.sigma * policy.pi1
    ln_w0 = math.log(w_step * policy.c1**p / p)
    shift = (p * (a - 0.5 * b * b) - beta) * dt
    p_sig_sq_dt = p * b * math.sqrt(dt)
    # the policy's own value discounts at rho = beta - p (a + (p-1) b^2/2),
    # written as a sum of terms that kappa > 0 and c1 > 0 make positive;
    # rho = kappa under Merton
    rho = ((1.0 - p) * spec.kappa + p * policy.c1
           + 0.5 * p * (1.0 - p) * (b - spec.sigma * spec.merton_fraction)**2)

    h = n // 2
    q = np.full(n, p * math.log(x0) + ln_w0)
    q_pairs = q.reshape(2, h)
    acc = np.zeros(n)
    util = np.empty(n)
    util_pairs = util.reshape(2, h)
    z = np.empty(h, dtype=np.float32)
    dq = np.empty(h)
    mart = np.zeros(h) if policy.pi1 != 0.0 else None
    # util is spent once acc holds it; its first half takes the term
    term = util_pairs[0]
    ln_max = -math.inf
    for i in range(n_steps):
        np.exp(q, out=util)
        acc += util
        normals.fill(i, z)
        np.multiply(z, p_sig_sq_dt, out=dq, dtype=np.float64)
        if mart is not None:
            tau = (n_steps - i) * dt
            annuity = -math.expm1(-rho * tau) / rho
            np.subtract(term, util_pairs[1], out=term)
            term *= dq
            term *= 0.5 * annuity / w_step
            mart += term
        q += shift
        q_pairs[0] += dq
        q_pairs[1] -= dq
        ln_hi = (float(q.max()) - ln_w0 + beta * (i + 1) * dt) / p
        if not ln_hi <= _LOG_MAX:
            raise NumericalBlowup(f"wealth beyond the float64 range at step {i}")
        if ln_hi > ln_max:
            ln_max = ln_hi
    if mart is not None:
        mart = np.concatenate((mart, mart))
    return acc, mart, 0, max(x0, math.exp(ln_max))


def _off_edge(x, query, absorbed, x0):
    """x, or a copy in query with the absorbed lanes moved to x0: keeps
    them off the edge x_e of the policy's domain."""
    if not absorbed.size:
        return x
    np.copyto(query, x)
    query[absorbed] = x0
    return query


def _euler_steps(spec, policy, x0, dt, n_steps, n, normals, w_step):
    """Euler-Maruyama steps with clamping at x_e; see the module docstring.

    Returns the per-path utility sums; None when the policy returns no
    V_x, else per path the sum of the hedges H_i (module docstring) less
    the discounted terminal value e^{-beta T} V(X_T) (V(x_e) on absorbed
    lanes); the number of clamped paths; and the highest wealth reached.
    """
    r, mu, sigma, beta, p = spec.r, spec.mu, spec.sigma, spec.beta, spec.p
    x_e, c_e = spec.x_e, spec.c_e
    sig_sq_dt = sigma * math.sqrt(dt)
    # undiscounted weights of the hedge's Z^2 - 1, Z^3 and drift terms
    ito_w = -0.5 * mu * dt
    cube_w = mu * mu * dt * math.sqrt(dt) / (6.0 * sigma)
    drift_w = -(mu / sigma) * math.sqrt(dt)
    if not hasattr(policy, "eval_into"):
        policy = _CheckedPolicy(policy, spec.k, spec.l)

    x = np.full(n, float(x0))
    query = np.empty(n)
    acc = np.zeros(n)
    mart = None
    absorbed = np.empty(0, dtype=np.intp)
    h = n // 2
    z = np.empty(h, dtype=np.float32)
    # the step's normals in float64: a float32 operand costs a cast in
    # every ufunc
    z64 = np.empty(h)
    c = np.empty(n)
    pi = np.empty(n)
    util = np.empty(n)
    drift = np.empty(n)
    diff = np.empty(n)
    scratch = np.empty(n)
    below = np.empty(n, dtype=bool)
    # rows are the two halves of each antithetic pair
    x_pairs = x.reshape(2, h)
    drift_pairs = drift.reshape(2, h)
    diff_pairs = diff.reshape(2, h)
    # the hedge's work: polynomials of Z on half lanes (in diff, which the
    # wealth step is done with), its coefficient on the plus and minus
    # sides of each pair, and its per-lane term (in util)
    ito, cube = diff_pairs
    coef = np.empty(n)
    plus, minus = coef.reshape(2, h)
    term = util
    term_pairs = util.reshape(2, h)
    floor_violations = 0
    max_wealth = float(x0)

    # non-finite values are detected by the state check below, not warned
    with np.errstate(invalid="ignore", over="ignore"):
        for i in range(n_steps):
            grad = policy.eval_into(_off_edge(x, query, absorbed, x0), c, pi, scratch)
            if absorbed.size:
                c[absorbed] = c_e
                pi[absorbed] = 0.0

            if p == 0.5:
                np.sqrt(c, out=util)
            else:
                np.power(c, p, out=util)
            util *= math.exp(-beta * i * dt) * w_step / p
            acc += util

            normals.fill(i, z)
            np.copyto(z64, z)
            np.multiply(x, r, out=drift)
            drift -= c
            np.multiply(pi, mu, out=scratch)
            drift += scratch
            drift *= dt
            np.multiply(pi, sig_sq_dt, out=diff)
            diff_pairs *= z64
            x += drift
            x_pairs[0] += diff_pairs[0]
            x_pairs[1] -= diff_pairs[1]
            if grad is not None:
                # H_i = e^{-beta t_{i+1}} V_x (pi (sigma sqrt(dt) Z - mu dt (Z^2 - 1) / 2
                # + mu^2 dt^{3/2} A Z^3 / (6 sigma)) - (mu / sigma) sqrt(dt) D dt Z),
                # A = 1 + (L2 - L1) / L1^2, with Z's sign per half of each
                # pair, as in the wealth step
                V_x, slope, curv = grad
                if mart is None:
                    mart = np.zeros(n)
                disc = math.exp(-beta * (i + 1) * dt)
                np.multiply(z64, z64, out=ito)
                np.multiply(ito, z64, out=cube)
                cube *= cube_w * disc
                ito -= 1.0
                ito *= ito_w * disc
                np.multiply(z64, disc * sig_sq_dt, out=minus)
                minus += cube
                np.add(ito, minus, out=plus)
                np.subtract(ito, minus, out=minus)
                np.subtract(curv, slope, out=term)
                np.multiply(slope, slope, out=scratch)
                term /= scratch
                term_pairs *= cube
                np.add(plus, term_pairs[0], out=term_pairs[0])
                np.subtract(minus, term_pairs[1], out=term_pairs[1])
                term *= pi
                # D dt is the step's drift, taken as 0 on absorbed lanes
                if absorbed.size:
                    drift[absorbed] = 0.0
                z64 *= drift_w * disc
                drift_pairs *= z64
                term_pairs[0] += drift_pairs[0]
                term_pairs[1] -= drift_pairs[1]
                term *= V_x
                mart += term

            lo = float(x.min())
            hi = float(x.max())
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise NumericalBlowup(f"non-finite state at step {i}")
            if lo < x_e:
                np.less(x, x_e, out=below)
                x[below] = x_e
                below[absorbed] = False
                newly = np.flatnonzero(below)
                floor_violations += newly.size
                absorbed = np.concatenate((absorbed, newly))
            # clamping lifts wealth only to x_e <= max_wealth
            if hi > max_wealth:
                max_wealth = hi
        if mart is not None:
            terminal = policy.value(_off_edge(x, query, absorbed, x0))
            terminal[absorbed] = spec.v_xe
            terminal *= math.exp(-beta * n_steps * dt)
            mart -= terminal
    return acc, mart, floor_violations, max_wealth


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

    The tail bound is 0 for a solved-table run, whose estimate already
    holds e^{-beta T} V(X_T).  The allowance covers the time-stepping
    bias of either scheme, which vanishes as dt -> 0: the left-point
    utility rule under exact log-normal steps, plus the wealth-step bias
    under Euler steps.  Measure it with a dt-halving run when it
    matters.
    """
    tol = 3.0 * report.std_error + report.tail_bound + discretization_allowance
    gap = abs(report.estimate - value)
    return ValueVerdict(passed=gap <= tol, gap=gap, tolerance=tol,
                        estimate=report.estimate, value=value)
