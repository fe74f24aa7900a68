import math

import numpy as np
import pytest

from consfloor import (
    ProblemCase,
    check_initial_wealth,
    make_spec,
    parse_config,
)
from consfloor.errors import ConfigError, InfeasibleWealth, ParameterError

import oracles

BASE = dict(r=0.03, mu=0.05, sigma=0.2, beta=0.1, p=0.5)


@pytest.mark.parametrize("field,value", [
    ("r", -0.01), ("mu", 0.0), ("mu", -0.1), ("sigma", 0.0),
    ("r", math.nan), ("sigma", math.inf),
])
def test_market_validation(field, value):
    with pytest.raises(ParameterError):
        make_spec(**dict(BASE, **{field: value}))


@pytest.mark.parametrize("beta,p", [(0.0, 0.5), (-0.1, 0.5), (0.1, 0.0), (0.1, 1.0), (0.1, 1.5)])
def test_preference_validation(beta, p):
    with pytest.raises(ParameterError):
        make_spec(**dict(BASE, beta=beta, p=p))


@pytest.mark.parametrize("k,l", [(-0.01, 0.0), (0.0, -1.0)])
def test_constraint_validation(k, l):
    with pytest.raises(ParameterError):
        make_spec(**dict(BASE, k=k, l=l))


def test_derive_baseline_constants():
    spec = make_spec(**BASE)
    assert spec.kappa == pytest.approx(oracles.KAPPA_BASE, rel=1e-14)
    assert spec.merton_fraction == pytest.approx(oracles.MERTON_FRACTION_BASE, rel=1e-14)


def test_kappa_vanishes_at_critical_beta():
    p = 0.5
    inner = 0.05**2 / (2 * 0.2**2 * (1 - p)) + 0.03
    spec = make_spec(r=0.03, mu=0.05, sigma=0.2, beta=p * inner, p=p)
    assert spec.kappa == 0.0
    assert spec.case is ProblemCase.VALUE_POSSIBLY_INFINITE


def test_derive_floor_constants():
    si = make_spec(**BASE, k=0.0, l=1.0)
    assert si.x_e == pytest.approx(oracles.X_E_SI, rel=1e-14)
    assert si.c_e == pytest.approx(1.0, rel=1e-14)
    assert si.v_xe == pytest.approx(oracles.V_XE_SI, rel=1e-14)
    nh = make_spec(**BASE, k=0.02, l=1.0)
    assert nh.x_e == pytest.approx(oracles.X_E_NH, rel=1e-14)
    assert nh.c_e == pytest.approx(oracles.C_E_NH, rel=1e-14)
    assert nh.v_xe == pytest.approx(oracles.V_XE_NH, rel=1e-14)


def test_derive_infeasible_floor_is_infinite():
    spec = make_spec(**BASE, k=0.05, l=1.0)
    assert math.isinf(spec.x_e) and math.isinf(spec.c_e) and math.isinf(spec.v_xe)


@pytest.mark.parametrize("k,l", [(0.0, 1.0), (0.01, 1.0), (0.02, 1.0), (0.029, 2.5)])
def test_ce_equals_r_xe(k, l):
    spec = make_spec(**BASE, k=k, l=l)
    assert spec.c_e == pytest.approx(spec.r * spec.x_e, rel=1e-12)


@pytest.mark.parametrize("k,l,expected", [
    (0.0, 0.0, ProblemCase.MERTON_UNCONSTRAINED),
    (0.2, 0.0, ProblemCase.HOMOGENEOUS),
    (0.0, 1.0, ProblemCase.STATE_INDEPENDENT),
    (0.02, 1.0, ProblemCase.NON_HOMOGENEOUS),
    (0.05, 1.0, ProblemCase.INFEASIBLE_ALL),
    (0.03, 1.0, ProblemCase.INFEASIBLE_ALL),   # k = r boundary is infeasible
])
def test_classify_cases(k, l, expected):
    assert make_spec(**BASE, k=k, l=l).case is expected


def test_classify_kappa_dominates_except_infeasible():
    low_beta = dict(BASE, beta=0.01)   # kappa < 0
    assert make_spec(**low_beta, k=0.02, l=1.0).case is ProblemCase.VALUE_POSSIBLY_INFINITE
    assert make_spec(**low_beta, k=0.0, l=0.0).case is ProblemCase.VALUE_POSSIBLY_INFINITE
    assert make_spec(**low_beta, k=0.05, l=1.0).case is ProblemCase.INFEASIBLE_ALL


def test_classify_is_total_and_unique():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        r = float(rng.uniform(0, 0.08))
        mu = float(rng.uniform(0.01, 0.1))
        sigma = float(rng.uniform(0.05, 0.5))
        beta = float(rng.uniform(0.005, 0.2))
        p = float(rng.uniform(0.05, 0.95))
        k = float(rng.choice([0.0, rng.uniform(0, 0.1)]))
        l = float(rng.choice([0.0, rng.uniform(0, 2.0)]))
        spec = make_spec(r=r, mu=mu, sigma=sigma, beta=beta, p=p, k=k, l=l)
        assert spec.case in ProblemCase


def test_kappa_increasing_in_beta():
    betas = np.linspace(0.02, 0.3, 12)
    kappas = [make_spec(**dict(BASE, beta=float(b))).kappa for b in betas]
    assert np.all(np.diff(kappas) > 0)


def test_check_wealth_marginal():
    spec = make_spec(**BASE, k=0.02, l=1.0)
    verdict = check_initial_wealth(spec, spec.x_e)
    assert verdict.marginal and verdict.feasible
    assert "floor" in verdict.note


def test_check_wealth_infeasible():
    spec = make_spec(**BASE, k=0.02, l=1.0)
    with pytest.raises(InfeasibleWealth):
        check_initial_wealth(spec, 99.0)


def test_check_wealth_degenerate_zero():
    spec = make_spec(**BASE)
    verdict = check_initial_wealth(spec, 0.0)
    assert verdict.feasible and verdict.marginal


def test_check_wealth_infeasible_all():
    spec = make_spec(**BASE, k=0.05, l=1.0)
    with pytest.raises(InfeasibleWealth):
        check_initial_wealth(spec, 1e12)


def test_parse_config_roundtrip():
    data = dict(BASE, k=0.02, l=1.0, x0=150.0)
    spec, x0 = parse_config(data)
    assert spec.case is ProblemCase.NON_HOMOGENEOUS
    assert x0 == 150.0
    spec2, x02 = parse_config(dict(BASE, k=0.0, l=0.0))
    assert spec2.case is ProblemCase.MERTON_UNCONSTRAINED
    assert x02 is None


@pytest.mark.parametrize("mangle", [
    lambda d: d.update(extra=1.0),                    # unknown key
    lambda d: d.pop("sigma"),                         # missing key
    lambda d: d.update(r="high"),                     # non numeric
    lambda d: d.update(p=True),                       # bool rejected
    lambda d: d.update(mu=-0.05),                     # invariant violation
])
def test_parse_config_rejects(mangle):
    data = dict(BASE, k=0.0, l=0.0)
    mangle(data)
    with pytest.raises(ConfigError):
        parse_config(data)
