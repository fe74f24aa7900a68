import math
import warnings

import numpy as np
import pytest

from consfloor import (
    PolicyTable,
    SimConfig,
    compare_to_value,
    floor_feedback,
    homogeneous_feedback,
    homogeneous_value,
    invert,
    make_spec,
    merton_feedback,
    merton_value,
    policy_at,
    simulate,
    solve_dual,
    table_feedback,
    value_at,
)
from consfloor.dual_solver import default_config
from consfloor.errors import (
    InfeasibleWealth,
    NumericalBlowup,
    ParameterError,
    PolicyInadmissible,
)
from consfloor.montecarlo import (
    MAX_STEPS,
    AffinePolicy,
    SimReport,
    _CheckedPolicy,
    _euler_steps,
    _Normals,
    _philox_key,
)
from oracles import (
    lognormal_affine_expectation,
    pchip_log_vx_derivatives,
    pchip_policy,
    pchip_vx,
)

BASE = dict(r=0.03, mu=0.05, sigma=0.2, beta=0.1, p=0.5)


def test_sim_config_validation():
    with pytest.raises(ParameterError):
        SimConfig(x0=1.0, dt=0.0)
    with pytest.raises(ParameterError):
        SimConfig(x0=1.0, dt=0.1, horizon=5.0)   # fewer than 100 steps
    with pytest.raises(ParameterError):
        SimConfig(x0=1.0, n_paths=1)
    with pytest.raises(ParameterError, match="even"):
        SimConfig(x0=1.0, n_paths=2001)      # antithetic pairs need even n
    with pytest.raises(ParameterError, match="n_paths"):
        SimConfig(x0=1.0, n_paths=4.0)
    for horizon in (math.inf, math.nan):
        with pytest.raises(ParameterError, match="horizon"):
            SimConfig(x0=1.0, horizon=horizon)
    for seed in (-1, 1.5):
        with pytest.raises(ParameterError, match="seed"):
            SimConfig(x0=1.0, seed=seed)
    # step counts above MAX_STEPS, including one that overflows to inf
    for dt in (1e-300, 5e-324, 1.0 / (MAX_STEPS + 1)):
        with pytest.raises(ParameterError, match=r"horizon=1\.0 at dt="):
            SimConfig(x0=1.0, dt=dt, horizon=1.0)
    assert SimConfig(x0=1.0, dt=1.0, horizon=float(MAX_STEPS)).n_steps == MAX_STEPS


@pytest.mark.parametrize("n", [1000, 5001])
def test_reused_generator_matches_fresh_philox(n):
    """Resetting one generator to counter i << 128 gives the normals of a
    fresh Philox(key, counter=i << 128), in any order of steps."""
    normals = _Normals(seed=11)
    key = _philox_key(11)
    z = np.empty(n, dtype=np.float32)
    for i in (0, 1, 4999, 2**40, 1):
        normals.fill(i, z)
        fresh = np.random.Generator(np.random.Philox(key=key, counter=i << 128))
        expected = fresh.standard_normal(n, dtype=np.float32)
        assert np.array_equal(z.view(np.uint32), expected.view(np.uint32))


def test_degenerate_marginal_wealth_is_exact(spec_nh):
    cfg = SimConfig(x0=spec_nh.x_e, dt=1 / 250, horizon=40.0, n_paths=8, seed=5)
    report = simulate(spec_nh, floor_feedback(spec_nh), cfg)
    exact = (1.0 - math.exp(-spec_nh.beta * report.horizon)) * spec_nh.v_xe
    assert report.estimate == pytest.approx(exact, rel=1e-12)
    assert report.std_error == 0.0
    assert report.floor_violations == 0


def test_reproducibility_bit_identical(spec_merton):
    cfg = SimConfig(x0=1.0, dt=1 / 50, horizon=30.0, n_paths=3000, seed=123)
    a = simulate(spec_merton, merton_feedback(spec_merton), cfg)
    b = simulate(spec_merton, merton_feedback(spec_merton), cfg)
    assert a == b


def test_seed_changes_estimate(spec_merton):
    cfg1 = SimConfig(x0=1.0, dt=1 / 50, horizon=30.0, n_paths=2000, seed=1)
    cfg2 = SimConfig(x0=1.0, dt=1 / 50, horizon=30.0, n_paths=2000, seed=2)
    a = simulate(spec_merton, merton_feedback(spec_merton), cfg1)
    b = simulate(spec_merton, merton_feedback(spec_merton), cfg2)
    assert a.estimate != b.estimate


def test_std_error_is_calibrated(spec_merton, spec_homog):
    """The reported SE matches the spread of estimates across seeds, for
    the control-variate estimator of Merton and of the proportional
    floor's optimal policy, at two horizons.

    A per-path SE would ignore the negative correlation within each
    antithetic pair and overstate the spread."""
    for spec, pol in ((spec_merton, merton_feedback(spec_merton)),
                      (spec_homog, homogeneous_feedback(spec_homog))):
        for horizon in (5.0, 10.0):
            reports = [simulate(spec, pol, SimConfig(x0=1.0, dt=1 / 50, horizon=horizon,
                                                     n_paths=2000, seed=s))
                       for s in range(40)]
            assert all(r.control_variate for r in reports)
            spread = np.std([r.estimate for r in reports], ddof=1)
            rms_se = math.sqrt(np.mean([r.std_error**2 for r in reports]))
            assert 0.7 <= spread / rms_se <= 1.4, (pol, horizon, spread, rms_se)


@pytest.mark.parametrize("params, x0", [
    (dict(k=0.2), 1.0),
    (dict(k=0.02, l=1.0), 101.0),
    (dict(beta=0.06, k=0.02, l=1.0), 101.0),
], ids=["proportional-clip", "clamped", "clip-binds"])
def test_affine_step_matches_callable_policy(params, x0):
    """The affine Euler step (eval_into) gives the report of the same
    policy queried as a plain callable, bit for bit.  On k=0.2, l=0
    Merton consumption (kappa=0.1075) is clipped to k x at every wealth,
    which keeps it off the exact log-normal steps.  From x0=101 on the
    k=0.02, l=1 floor almost every path is clamped to x_e; at beta=0.06
    (kappa=0.0275) the floor clip binds below x=133."""
    spec = make_spec(**dict(BASE, **params))
    pol = merton_feedback(spec)
    cfg = SimConfig(x0=x0, dt=1 / 50, horizon=10.0, n_paths=2000, seed=7)
    report = simulate(spec, pol, cfg)
    assert report == simulate(spec, lambda x: pol(x), cfg)
    assert (report.floor_violations > 1900) == (spec.l > 0.0)


def test_lognormal_floor_policy_is_exact(spec_homog):
    """On l = 0 the floor policy c = k x has deterministic wealth
    x0 e^{(r-k)t}; exact steps reproduce the left-point utility sum."""
    r, beta, p, k = 0.03, 0.1, 0.5, 0.2
    dt, n_steps = 1 / 50, 500
    w = -math.expm1(-beta * dt) / beta
    exact = math.fsum(math.exp(-beta * i * dt) * w * (k * math.exp((r - k) * i * dt))**p / p
                      for i in range(n_steps))
    cfg = SimConfig(x0=1.0, dt=dt, horizon=n_steps * dt, n_paths=8, seed=3)
    report = simulate(spec_homog, floor_feedback(spec_homog), cfg)
    assert report.estimate == pytest.approx(exact, rel=1e-12, abs=0)
    assert report.std_error == 0.0
    assert report.floor_violations == 0


def test_lognormal_merton_matches_discrete_expectation(spec_merton):
    """Merton wealth takes exact log-normal steps: no Euler bias is left,
    so the estimate lies within 4 SE of the left-point expectation, and
    a 5% offset of it is rejected."""
    pol = merton_feedback(spec_merton)
    cfg = SimConfig(x0=1.0, dt=1 / 50, horizon=10.0, n_paths=2000, seed=7)
    report = simulate(spec_merton, pol, cfg)
    expected = lognormal_affine_expectation(pol.c1, pol.pi1, 1.0, cfg.dt, report.n_steps)
    assert abs(report.estimate - expected) <= 4.0 * report.std_error, \
        (report.estimate, expected, report.std_error)
    assert abs(report.estimate - 1.05 * expected) > 4.0 * report.std_error
    assert report.floor_violations == 0


def test_lognormal_control_variate_keeps_the_plain_sum(spec_merton, spec_homog):
    """The control variate leaves the log-normal paths and the plain
    utility sum as they were.  The figures are the standard error,
    highest wealth, tail bound and clamp count of the plain sum of these
    runs, with each step's log-wealth shift rounded once, in float64
    (numpy's AVX-512 kernels; see test_table_policy_report_is_reproduced).
    The floor policy k x holds no risky asset, so it has no control
    variate and keeps its report."""
    cfg = SimConfig(x0=1.0, dt=1 / 50, horizon=10.0, n_paths=2000, seed=7)
    for spec, pol, plain in (
            (spec_merton, merton_feedback(spec_merton),
             (0.018199237913042475, 104.15950651385351, 22.902386442800534, 0)),
            (spec_homog, homogeneous_feedback(spec_homog),
             (0.01857977808899423, 45.22153632263756, 14.391565660736402, 0))):
        report = simulate(spec, pol, cfg)
        assert report.control_variate is True
        assert (report.uncorrected_std_error, report.max_wealth, report.tail_bound,
                report.floor_violations) == plain
    floor = simulate(spec_homog, floor_feedback(spec_homog), cfg)
    assert floor.control_variate is False
    assert (floor.estimate, floor.std_error, floor.max_wealth, floor.tail_bound) == \
        (4.0780036934622075, 0.0, 1.0, 2.1401065053241752)
    assert "control_variate" not in floor.to_obj()


def test_lognormal_control_variate_weight_is_the_policys_own(spec_homog):
    """On the proportional floor the optimal policy consumes c1 = k = 0.2
    above kappa = 0.1075, so its own value discounts at rho = 0.154, and
    the control variate weights with rho.  The corrected standard error
    is then at most a tenth of the plain one (13x and 14x here; a weight
    from kappa gives about 6x).  The estimate lies within 4 SE of the
    exact left-point expectation, and a 0.5% offset of it is rejected."""
    pol = homogeneous_feedback(spec_homog)
    p = spec_homog.p
    a, b = spec_homog.r - pol.c1 + spec_homog.mu * pol.pi1, spec_homog.sigma * pol.pi1
    rho = spec_homog.beta - p * (a + 0.5 * (p - 1.0) * b * b)
    assert rho == pytest.approx(0.154, abs=1e-3) and spec_homog.kappa == pytest.approx(0.1075)
    for seed in (1, 2):
        cfg = SimConfig(x0=1.0, dt=1 / 50, horizon=10.0, n_paths=2000, seed=seed)
        report = simulate(spec_homog, pol, cfg)
        assert report.std_error <= report.uncorrected_std_error / 10.0, \
            (report.std_error, report.uncorrected_std_error)
        expected = lognormal_affine_expectation(pol.c1, pol.pi1, 1.0, cfg.dt, report.n_steps)
        assert abs(report.estimate - expected) <= 4.0 * report.std_error, \
            (report.estimate, expected, report.std_error)
        assert abs(report.estimate - 1.005 * expected) > 4.0 * report.std_error


def test_zero_start_on_homogeneous_spec(spec_merton, spec_homog):
    """x0 = 0 = x_e is absorbing when l = 0: value 0 with zero variance."""
    cfg = SimConfig(x0=0.0, dt=1 / 50, horizon=10.0, n_paths=8, seed=1)
    for spec, pol in ((spec_merton, merton_feedback(spec_merton)),
                      (spec_homog, homogeneous_feedback(spec_homog))):
        report = simulate(spec, pol, cfg)
        assert report.estimate == 0.0
        assert report.std_error == 0.0


def test_merton_attainment_small_scale(spec_merton):
    cfg = SimConfig(x0=1.0, dt=1 / 100, horizon=150.0, n_paths=30_000, seed=9)
    report = simulate(spec_merton, merton_feedback(spec_merton), cfg)
    half = simulate(spec_merton, merton_feedback(spec_merton),
                    SimConfig(x0=1.0, dt=1 / 200, horizon=150.0, n_paths=10_000, seed=9))
    allowance = abs(report.estimate - half.estimate)
    verdict = compare_to_value(report, merton_value(spec_merton, 1.0),
                               discretization_allowance=allowance)
    assert verdict.passed, (verdict.gap, verdict.tolerance)


def test_negative_control_offset_value(spec_merton):
    cfg = SimConfig(x0=1.0, dt=1 / 100, horizon=150.0, n_paths=30_000, seed=9)
    report = simulate(spec_merton, merton_feedback(spec_merton), cfg)
    v0 = merton_value(spec_merton, 1.0)
    assert not compare_to_value(report, 1.15 * v0).passed


def test_homogeneous_attainment(spec_homog):
    """The estimate lies within 3 SE of the exact left-point expectation,
    and V passes with the gap between the two as the allowance for the
    left-point rule's bias."""
    pol = homogeneous_feedback(spec_homog)
    cfg = SimConfig(x0=1.0, dt=1 / 100, horizon=150.0, n_paths=30_000, seed=17)
    report = simulate(spec_homog, pol, cfg)
    expected = lognormal_affine_expectation(pol.c1, pol.pi1, 1.0, cfg.dt, report.n_steps)
    assert abs(report.estimate - expected) <= 3.0 * report.std_error, \
        (report.estimate, expected, report.std_error)
    value = homogeneous_value(spec_homog, 1.0)
    verdict = compare_to_value(report, value, discretization_allowance=abs(value - expected))
    assert verdict.passed, (verdict.gap, verdict.tolerance)


def test_dominance_of_optimal_policy(spec_homog):
    """Optimal beats the floor-only and clipped-Merton alternatives."""
    cfg = SimConfig(x0=1.0, dt=1 / 50, horizon=120.0, n_paths=8000, seed=31)
    best = simulate(spec_homog, homogeneous_feedback(spec_homog), cfg)
    for rival in (floor_feedback(spec_homog), merton_feedback(spec_homog)):
        other = simulate(spec_homog, rival, cfg)
        assert best.estimate >= other.estimate - 3.0 * (best.std_error + other.std_error)


def test_suboptimal_floor_policy_falls_short(spec_nh, nh_table):
    """Consuming at the floor forever in a kappa >= r regime loses value
    at wealth far above the free boundary."""
    x0 = 400.0
    cfg = SimConfig(x0=x0, dt=1 / 50, horizon=150.0, n_paths=8000, seed=13)
    report = simulate(spec_nh, floor_feedback(spec_nh), cfg)
    v_solver = value_at(nh_table, x0)
    assert report.estimate < v_solver - 3.0 * report.std_error


def test_table_policy_runs_admissibly(spec_nh, nh_table):
    cfg = SimConfig(x0=150.0, dt=1 / 50, horizon=20.0, n_paths=400, seed=21)
    report = simulate(spec_nh, table_feedback(nh_table), cfg)
    assert report.floor_violations == 0
    assert report.estimate > 0


class _PchipFeedback:
    """The table's feedback evaluated by scipy's PchipInterpolator, on the
    simulator's eval_into protocol: writes (c, pi), returns V_x and the
    first and second derivatives of ln V_x in ln x, and has value(x),
    the PCHIP of V."""

    def __init__(self, table):
        self.table = table

    def eval_into(self, x, c, pi, scratch):
        _, c_ref, pi_ref = pchip_policy(self.table, x)
        np.copyto(c, c_ref)
        np.copyto(pi, pi_ref)
        return (pchip_vx(self.table, x), *pchip_log_vx_derivatives(self.table, x))

    def value(self, x):
        return pchip_policy(self.table, x)[0]


def test_table_policy_report_is_reproduced(spec_nh, nh_table):
    """The table policy's report, control variate and terminal value
    included, equals bit for bit the same simulation driven by scipy's
    PCHIP evaluation.  The recorded figures come from that evaluation
    with numpy's AVX-512 kernels; numpy's AVX2 kernels round log, exp and
    power differently in the last bit, which moves the floats by about
    1e-12 (relative) after 500 steps."""
    cfg = SimConfig(x0=150.0, dt=1 / 50, horizon=10.0, n_paths=2000, seed=2026)
    report = simulate(spec_nh, table_feedback(nh_table), cfg)
    assert report == simulate(spec_nh, _PchipFeedback(nh_table), cfg)
    recorded = SimReport(
        estimate=59.43030561499167, std_error=0.0002439218753374573,
        tail_bound=0.0, floor_violations=0, n_paths=2000, n_steps=500,
        dt=0.02, horizon=10.0, seed=2026, max_wealth=13717.861812164527,
        control_variate=True, uncorrected_std_error=0.19694254305303094)
    assert report.to_obj() == pytest.approx(recorded.to_obj(), rel=1e-9, abs=0)


@pytest.mark.parametrize("x0", [105.0, 150.0, 300.0])
def test_control_variate_keeps_paths_and_cuts_error(spec_nh, nh_table, x0):
    """The table's V_x and V drive the control variate and the terminal
    value; the same policy as a plain callable runs without them.  Both
    runs take the same paths.  The corrected estimate adds e^{-beta T}
    V(X_T) to the plain one, so it lies above it, and below V(x0) up to
    3 SE (the Euler bias pulls it down); nothing is left out, so its
    tail bound is 0.  Its standard error is at most 1/300 of the plain
    one (649-884x here)."""
    for seed in (3, 4):
        cfg = SimConfig(x0=x0, dt=1 / 50, horizon=10.0, n_paths=2000, seed=seed)
        cv = simulate(spec_nh, table_feedback(nh_table), cfg)
        plain = simulate(spec_nh, lambda x: policy_at(nh_table, x), cfg)
        assert cv.control_variate and not plain.control_variate
        assert (cv.floor_violations, cv.max_wealth) == (plain.floor_violations, plain.max_wealth)
        assert cv.tail_bound == 0.0
        assert cv.uncorrected_std_error == plain.std_error == plain.uncorrected_std_error
        assert plain.estimate < cv.estimate <= value_at(nh_table, x0) + 3.0 * cv.std_error
        assert cv.std_error <= plain.std_error / 300.0, (cv.std_error, plain.std_error)


def _floor_policy_score(spec, table, x0, dt, n_steps):
    """The verification sum of the floor policy (k x + l, 0), whose Euler
    path is deterministic: the left-point utility sum plus e^{-beta T}
    V(X_T) from the table."""
    w = -math.expm1(-spec.beta * dt) / spec.beta
    x, total = x0, 0.0
    for i in range(n_steps):
        c = spec.k * x + spec.l
        total += math.exp(-spec.beta * i * dt) * w * c**spec.p / spec.p
        x += (spec.r * x - c) * dt
    return total + math.exp(-spec.beta * n_steps * dt) * value_at(table, x)


@pytest.mark.parametrize("params, x0", [
    (dict(k=0.02), 105.0),
    (dict(k=0.02), 150.0),
    (dict(beta=0.06, k=0.015), 70.0),
    (dict(beta=0.06, k=0.015), 100.0),
    (dict(beta=0.048, k=0.015), 70.0),
    (dict(beta=0.048, k=0.015), 100.0),
], ids=["kappa>=r-105", "kappa>=r-150", "k<kappa<r-70", "k<kappa<r-100",
        "kappa<k-70", "kappa<k-100"])
def test_table_policy_attains_v(params, x0):
    """The paper's main theorem: on a floor with k > 0 and l > 0 the
    feedback built from V attains V.  Under it the verification sum,
    utility plus e^{-beta T} V(X_T) less the hedge, has mean V(x0) up to
    the Euler bias, a power series in dt.  The three-level Richardson
    estimate (8 est(dt/4) - 6 est(dt/2) + est(dt)) / 3 cancels its
    first- and second-order terms, so it lies within 3 of its standard
    errors of V(x0); a 1% offset of V is rejected, and the floor
    policy's sum falls short of V.  (The two-level estimate
    2 est(dt/2) - est(dt) keeps a second-order remainder of about 2e-4
    at x0 = 105, which is 3-4 of its standard errors.)  At dt = 1/200
    the hedge cuts the standard error at least 100x (220-5382x here; at
    dt = 1/100, 101-2071x, where the hedge of first order only cut it
    26-515x).  For kappa < k the floor binds at every node.  Both
    k = 0.015 floors have x_e = 66.7, so x0 = 70 and 100 are 1.05 x_e
    and 1.5 x_e."""
    spec = make_spec(**dict(BASE, l=1.0, **params))
    table = invert(spec, solve_dual(spec, default_config(spec, span=1e3)))
    if spec.kappa < spec.k:
        assert np.array_equal(table.c_star, spec.k * table.x + spec.l)
    coarse, mid, fine = (simulate(spec, table_feedback(table),
                                  SimConfig(x0=x0, dt=dt, horizon=10.0, n_paths=8000, seed=seed))
                         for dt, seed in ((1 / 50, 1), (1 / 100, 2), (1 / 200, 3)))
    assert coarse.tail_bound == mid.tail_bound == fine.tail_bound == 0.0
    assert fine.std_error <= fine.uncorrected_std_error / 100.0
    richardson = (8.0 * fine.estimate - 6.0 * mid.estimate + coarse.estimate) / 3.0
    se = math.sqrt(64.0 * fine.std_error**2 + 36.0 * mid.std_error**2
                   + coarse.std_error**2) / 3.0
    value = value_at(table, x0)
    assert abs(richardson - value) <= 3.0 * se, (richardson, value, se)
    assert abs(richardson - 1.01 * value) > 3.0 * se
    floor_score = _floor_policy_score(spec, table, x0, 1 / 200, fine.n_steps)
    assert floor_score < value - 3.0 * se, (floor_score, value, se)


@pytest.mark.parametrize("x0", [105.0, 150.0])
def test_control_variate_std_error_is_calibrated(spec_nh, nh_table, x0):
    """Across 40 seeds the corrected estimates spread as their reported
    standard errors say."""
    reports = [simulate(spec_nh, table_feedback(nh_table),
                        SimConfig(x0=x0, dt=1 / 50, horizon=5.0, n_paths=2000, seed=s))
               for s in range(40)]
    spread = np.std([r.estimate for r in reports], ddof=1)
    rms_se = math.sqrt(np.mean([r.std_error**2 for r in reports]))
    assert 0.7 <= spread / rms_se <= 1.4, (spread, rms_se)


def test_only_the_table_returns_v_x(spec_nh, nh_table):
    """eval_into returns V_x and the derivatives of ln V_x for the solved
    table and None for affine policies and wrapped callables, whose
    reports leave the control variate out of their JSON."""
    x = np.array([120.0, 150.0, 300.0, 400.0])
    c, pi, scratch = np.empty(4), np.empty(4), np.empty(4)
    for pol in (merton_feedback(spec_nh), floor_feedback(spec_nh),
                _CheckedPolicy(lambda q: policy_at(nh_table, q), spec_nh.k, spec_nh.l)):
        assert pol.eval_into(x, c, pi, scratch) is None
    V_x, slope, curv = table_feedback(nh_table).eval_into(x, c, pi, scratch)
    assert np.array_equal(V_x, pchip_vx(nh_table, x))
    slope_ref, curv_ref = pchip_log_vx_derivatives(nh_table, x)
    assert np.array_equal(slope, slope_ref) and np.array_equal(curv, curv_ref)
    cfg = SimConfig(x0=150.0, dt=1 / 50, horizon=2.0, n_paths=8, seed=1)
    obj = simulate(spec_nh, floor_feedback(spec_nh), cfg).to_obj()
    assert "control_variate" not in obj and "uncorrected_std_error" not in obj
    obj = simulate(spec_nh, table_feedback(nh_table), cfg).to_obj()
    assert obj["control_variate"] is True and obj["uncorrected_std_error"] > obj["std_error"]


class _AbsorbingFeedback:
    """Consumes 50 x and holds nothing, so every path falls below x_e at
    the first step; on the eval_into protocol it returns V_x = 0 at that
    step and V_x = 1e300 at every later one, with constant derivatives
    of ln V_x, and value(x) = 0."""

    def __init__(self):
        self.calls = 0

    def eval_into(self, x, c, pi, scratch):
        np.multiply(x, 50.0, out=c)
        pi.fill(0.0)
        self.calls += 1
        V_x = np.full_like(x, 0.0 if self.calls == 1 else 1e300)
        return V_x, np.full_like(x, -2.0), np.full_like(x, 1.0)

    def value(self, x):
        return np.zeros_like(x)


def test_hedge_is_zero_on_absorbed_lanes():
    """Once a path is clamped to x_e its hedge is exactly 0: pi = 0 there,
    and the drift term is dropped although r x_e - c_e rounds to 4.4e-16
    on this floor.  Every path is absorbed at the first step, where
    V_x = 0, so even at V_x = 1e300 afterwards the control variate is
    the discounted terminal value V(x_e) alone."""
    spec = make_spec(**dict(BASE, k=0.01, l=2.0))
    assert spec.r * spec.x_e - spec.c_e != 0.0
    dt, n_steps, n = 1 / 50, 100, 8
    w_step = -math.expm1(-spec.beta * dt) / spec.beta
    _, mart, floor_violations, _ = _euler_steps(
        spec, _AbsorbingFeedback(), spec.x_e + 1.0, dt, n_steps, n, _Normals(1), w_step)
    assert floor_violations == n
    assert np.all(mart == -(spec.v_xe * math.exp(-spec.beta * n_steps * dt)))


def test_overflowed_control_variate_is_typed(spec_nh):
    """A hand-built table whose V_x is near the float64 maximum makes the
    control variate overflow: NumericalBlowup, and no numpy warning."""
    x = np.linspace(101.0, 110.0, 10)
    t = PolicyTable(spec=spec_nh, x=x, V=np.arange(1.0, 11.0),
                    V_x=np.geomspace(1.7e308, 1e298, 10), V_xx=-np.ones(10),
                    c_star=np.ones(10), pi_star=np.ones(10), region=np.full(10, "C"))
    cfg = SimConfig(x0=105.0, dt=1 / 50, horizon=2.0, n_paths=8, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowup, match="control variate"):
            simulate(spec_nh, table_feedback(t), cfg)


def test_tail_control_under_horizon_doubling(spec_homog):
    cfg = SimConfig(x0=1.0, dt=1 / 50, horizon=60.0, n_paths=2000, seed=3)
    short = simulate(spec_homog, homogeneous_feedback(spec_homog), cfg)
    cfg2 = SimConfig(x0=1.0, dt=1 / 50, horizon=120.0, n_paths=2000, seed=3)
    long = simulate(spec_homog, homogeneous_feedback(spec_homog), cfg2)
    # the first horizon's steps share the same counters, so the plain
    # sums differ by the added discounted tail utility; the control
    # variates' weights depend on the horizon and add a small difference
    assert abs(long.estimate - short.estimate) <= short.tail_bound


def test_inadmissible_policy_rejected(spec_nh):
    def stingy(x):
        return 0.5 * (spec_nh.k * x + spec_nh.l), np.zeros_like(x)

    cfg = SimConfig(x0=150.0, dt=1 / 50, horizon=10.0, n_paths=8, seed=2)
    with pytest.raises(PolicyInadmissible):
        simulate(spec_nh, stingy, cfg)


def test_affine_policy_construction_guard(spec_nh):
    with pytest.raises(PolicyInadmissible):
        AffinePolicy(c1=0.5 * spec_nh.k, c0=0.0, pi1=1.0, k=spec_nh.k, l=spec_nh.l)


def test_infeasible_wealth_rejected(spec_nh):
    cfg = SimConfig(x0=spec_nh.x_e - 1.0, dt=1 / 50, horizon=10.0, n_paths=8, seed=2)
    with pytest.raises(InfeasibleWealth):
        simulate(spec_nh, floor_feedback(spec_nh), cfg)


def test_numerical_blowup_detected(spec_merton):
    # a holding large enough that one Euler step overflows float64
    def reckless(x):
        return spec_merton.kappa * x, np.full_like(x, np.inf)

    cfg = SimConfig(x0=1.0, dt=1 / 50, horizon=10.0, n_paths=8, seed=2)
    with pytest.raises(NumericalBlowup):
        simulate(spec_merton, reckless, cfg)


@pytest.mark.parametrize("floor", [{}, dict(k=0.02, l=1.0)],
                         ids=["lognormal", "euler-affine"])
def test_overflow_is_typed_without_warnings(floor):
    """Merton from x0=1e306 leaves the float64 range within 20 years;
    both schemes raise NumericalBlowup and leak no numpy warning."""
    spec = make_spec(**dict(BASE, **floor))
    cfg = SimConfig(x0=1e306, dt=1 / 50, horizon=20.0, n_paths=2000, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalBlowup):
            simulate(spec, merton_feedback(spec), cfg)


def test_clamp_counts_and_absorbs(spec_nh):
    cfg = SimConfig(x0=spec_nh.x_e + 0.01, dt=1 / 50, horizon=10.0,
                    n_paths=64, seed=4)
    report = simulate(spec_nh, merton_feedback(spec_nh), cfg)
    assert report.floor_violations > 0
    # absorbed paths consume c_e forever afterwards; estimate well defined
    assert report.estimate > 0
