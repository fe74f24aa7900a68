import json

import numpy as np
import pytest

from consfloor import (
    DualGrid,
    PolicyTable,
    invert,
    make_spec,
    run_all,
    solve_dual,
)
from consfloor.dual_solver import default_config
from consfloor.serialize import json_dumps
from consfloor.verification import (
    check_gradient_consistency,
    check_hjb_residual,
    check_inverse_identity,
    check_region_theorems,
    check_sandwich,
    check_vx_bound,
    VerificationReport,
    region_bracket,
)

import oracles

BASE = dict(r=0.03, mu=0.05, sigma=0.2, beta=0.1, p=0.5)


def _retable(table, **overrides):
    fields = dict(spec=table.spec, x=table.x, V=table.V, V_x=table.V_x,
                  V_xx=table.V_xx, c_star=table.c_star, pi_star=table.pi_star,
                  region=table.region, x_star_list=table.x_star_list)
    fields.update(overrides)
    return PolicyTable(**fields)


def _analytic_table(si_sol, n=2049, y_min=1e-2, y_max=1e2):
    y = np.geomspace(y_min, y_max, n)
    v, v_y, v_yy = si_sol.dual_eval(y)
    grid = DualGrid(y=y, v=v, v_y=v_y, v_yy=v_yy, residual_inf=0.0)
    return grid, invert(si_sol.spec, grid)


def test_run_all_passes_on_baseline(spec_nh, nh_grid, nh_table):
    report = run_all(spec_nh, nh_grid, nh_table)
    assert report.overall, [c for c in report.checks if not c.passed]


def test_run_all_passes_on_fixed_floor(spec_si, si_grid, si_table):
    report = run_all(spec_si, si_grid, si_table)
    assert report.overall, [c for c in report.checks if not c.passed]


def test_run_all_passes_on_homogeneous(spec_homog):
    grid = solve_dual(spec_homog)
    table = invert(spec_homog, grid)
    report = run_all(spec_homog, grid, table)
    assert report.overall, [c for c in report.checks if not c.passed]


def test_analytic_table_passes_tighter(si_sol):
    """The closed form satisfies the equation exactly: checks pass at
    tolerances well below the ones used for numerical solves."""
    grid, table = _analytic_table(si_sol)
    assert check_hjb_residual(si_sol.spec, table, tol=1e-8).passed
    assert check_gradient_consistency(table, rel_tol=1e-6).passed
    assert check_sandwich(si_sol.spec, table, tol=1e-10, tol_global=1e-10).passed
    assert check_inverse_identity(grid, table, tol=1e-13).passed


def test_sandwich_spot_values_fixed_floor(spec_si, si_sol):
    """Explicit closed-form bound comparison at x = 50."""
    from consfloor.closed_form import homogeneous_coef
    coef = homogeneous_coef(spec_si)
    v50 = si_sol.value(50.0)
    lower = coef * (50.0 - spec_si.x_e) ** spec_si.p
    upper = lower + spec_si.v_xe
    assert lower <= v50 <= upper
    assert v50 <= coef * 50.0**spec_si.p


def test_region_theorems_fixed_floor_crossing(spec_si, si_table):
    result = check_region_theorems(spec_si, si_table)
    assert result.passed
    assert result.worst == pytest.approx(oracles.SI_X_STAR, abs=1e-2)
    assert "bracket" not in result.note   # bracket check only applies for k > 0


def test_hjb_residual_negative_control(spec_nh, nh_table):
    V = nh_table.V.copy()
    j = len(V) // 2
    V[j] *= 1.01
    bad = _retable(nh_table, V=V)
    result = check_hjb_residual(spec_nh, bad)
    assert not result.passed
    assert result.location == pytest.approx(nh_table.x[j])


def test_hjb_residual_fails_on_nonpositive_marginal_value(spec_nh, nh_table):
    # V_x <= 0 lies outside the Hamiltonian's domain: the check fails with
    # a finite worst value that a JSON report can carry, and does not raise
    V_x = nh_table.V_x.copy()
    j = len(V_x) // 2
    V_x[j] = -V_x[j]
    result = check_hjb_residual(spec_nh, _retable(nh_table, V_x=V_x))
    assert not result.passed
    assert result.worst == V_x[j]
    assert result.location == nh_table.x[j]


def test_gradient_negative_control(spec_nh, nh_table):
    bad = _retable(nh_table, V_x=np.zeros_like(nh_table.V_x))
    assert not check_gradient_consistency(bad).passed


def test_gradient_check_without_resolvable_nodes_reports_null(nh_table):
    # every node of a 5-node table is skipped as adjacent to an end
    idx = np.linspace(0, len(nh_table.x) - 1, 5).astype(int)
    cut = _retable(nh_table, **{name: getattr(nh_table, name)[idx] for name in
                                ("x", "V", "V_x", "V_xx", "c_star", "pi_star", "region")})
    result = check_gradient_consistency(cut)
    assert not result.passed
    text = json_dumps(VerificationReport((result,)).to_obj())
    assert json.loads(text)["checks"][0]["worst"] is None


def test_sandwich_negative_control(spec_nh, nh_table):
    bad = _retable(nh_table, V=nh_table.V + 2.0 * spec_nh.v_xe)
    assert not check_sandwich(spec_nh, bad).passed


def test_vx_bound_negative_control(spec_nh, nh_table):
    # inflate V_x where the envelope binds (large wealth)
    V_x = nh_table.V_x.copy()
    V_x[-len(V_x) // 4:] *= 10.0
    bad = _retable(nh_table, V_x=V_x)
    assert not check_vx_bound(spec_nh, bad).passed


def test_vx_bound_blowup_proxy(spec_nh, nh_table):
    result = check_vx_bound(spec_nh, nh_table)
    assert result.passed
    assert "blow-up ratio" in result.note
    # flattening the marginal value near x_e defeats the proxy
    V_x = nh_table.V_x.copy()
    q = len(V_x) // 4
    V_x[:q] = V_x[q] * np.linspace(1.05, 1.0, q)
    flat = _retable(nh_table, V_x=V_x)
    res = check_vx_bound(spec_nh, flat)
    assert not res.passed and "proxy failed" in res.note


def test_inverse_identity_negative_control(spec_nh, nh_grid, nh_table):
    bad = _retable(nh_table, V_xx=nh_table.V_xx * 1.0001)
    assert not check_inverse_identity(nh_grid, bad).passed


def test_region_theorems_single_crossing(spec_nh, nh_table):
    result = check_region_theorems(spec_nh, nh_table)
    assert result.passed
    assert "bracket" in result.note
    assert spec_nh.x_e < result.worst < region_bracket(spec_nh)
    assert region_bracket(spec_nh) == pytest.approx(oracles.NH_BRACKET_UPPER, rel=1e-12)


def test_region_theorems_negative_control(spec_nh, nh_table):
    bad = _retable(nh_table, x_star_list=())
    assert not check_region_theorems(spec_nh, bad).passed


def test_region_theorems_no_crossing_regime():
    spec = make_spec(**dict(BASE, beta=0.048), k=0.028, l=1.0)
    table = invert(spec, solve_dual(spec, default_config(spec, span=1e3, n_nodes=2048)))
    result = check_region_theorems(spec, table)
    assert result.passed and "kappa < k" in result.note


def test_region_theorems_open_regime_is_informational():
    spec = make_spec(**dict(BASE, beta=0.06), k=0.015, l=1.0)
    table = invert(spec, solve_dual(spec, default_config(spec, span=1e3, n_nodes=2048)))
    result = check_region_theorems(spec, table)
    assert result.passed and "informational" in result.note


def test_report_structure(spec_nh, nh_grid, nh_table):
    report = run_all(spec_nh, nh_grid, nh_table)
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names))
    obj = report.to_obj()
    assert obj["overall"] is True
    assert {"name", "pass", "worst", "location", "note"} == set(obj["checks"][0])
    assert report["hjb_residual"].passed
    with pytest.raises(KeyError):
        report["nonexistent"]
