"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.
Criterion 3 simulates 100k paths over 75k steps and takes a few minutes.
"""

import json
import math
import time

import numpy as np
import pytest

from consfloor import (
    DualGrid,
    PolicyTable,
    SimConfig,
    SolverConfig,
    compare_to_value,
    find_free_boundary,
    floor_feedback,
    homogeneous_value,
    invert,
    make_spec,
    merton_feedback,
    merton_value,
    ode_residual,
    run_all,
    simulate,
    solve_dual,
)
from consfloor.cli import main
from consfloor.dual_solver import default_config
from consfloor.serialize import sha256_file
from consfloor.verification import (
    check_gradient_consistency,
    check_hjb_residual,
    region_bracket,
)

import oracles

BASE = dict(r=0.03, mu=0.05, sigma=0.2, beta=0.1, p=0.5)

# (k, beta) sweep spanning the kappa < k and kappa >= r regimes plus the
# open middle regime; r = 0.03 throughout
SWEEP = [(k, beta) for beta in (0.048, 0.06, 0.1) for k in (0.005, 0.015, 0.028)]


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_solves():
    out = {}
    for k, beta in SWEEP:
        spec = make_spec(**dict(BASE, beta=beta), k=k, l=1.0)
        grid = solve_dual(spec, default_config(spec, span=1e3))
        out[(k, beta)] = (spec, grid, invert(spec, grid))
    return out


def test_criterion_1_fixed_floor_oracle_equivalence(spec_si, si_sol):
    t0 = time.perf_counter()
    grid = solve_dual(spec_si, SolverConfig(y_min=1e-3, y_max=1e3, n_nodes=4096))
    crossings = find_free_boundary(spec_si, grid)
    elapsed = time.perf_counter() - t0

    v_ex, vy_ex, _ = si_sol.dual_eval(grid.y)
    dv_scaled = float(np.max(np.abs(grid.v - v_ex) / (1.0 + np.abs(v_ex))))
    big = np.abs(v_ex) >= 1.0
    dv_rel = float(np.max(np.abs(grid.v - v_ex)[big] / np.abs(v_ex)[big]))
    dvy_rel = float(np.max(np.abs(grid.v_y - vy_ex) / np.abs(vy_ex)))
    x_star = crossings[0][1] if crossings else math.nan
    dx_star = abs(x_star - oracles.SI_X_STAR)
    dx_star_quoted = abs(x_star - 36.5127)
    ok = (dv_scaled <= 1e-4 and dv_rel <= 1e-4 and dvy_rel <= 1e-3
          and len(crossings) == 1 and dx_star <= 1e-2 and dx_star_quoted <= 1e-2
          and elapsed <= 10.0)
    _verdict(1, ok, f"dual solve vs closed form: |dv|={dv_scaled:.2e} (<=1e-4), "
                    f"|dv_y|={dvy_rel:.2e} (<=1e-3), |x*-oracle|={dx_star:.2e} "
                    f"(<=1e-2), runtime {elapsed:.2f}s (<=10s)")


def test_criterion_2_closed_forms():
    spec0 = make_spec(**BASE)
    spec_k = make_spec(**BASE, k=0.2)
    v0 = merton_value(spec0, 1.0)
    vk = homogeneous_value(spec_k, 1.0)
    err0 = abs(v0 - oracles.MERTON_VALUE_1)
    errk = abs(vk - oracles.HOMOG_VALUE_1_K02)
    cases_ok = (spec0.case.value == "MertonUnconstrained"
                and spec_k.case.value == "Homogeneous")
    ok = cases_ok and err0 <= 1e-10 and errk <= 1e-10
    _verdict(2, ok, f"V0(1)={v0:.10f} (oracle err {err0:.1e} <= 1e-10), "
                    f"Vk(1)={vk:.10f} (oracle err {errk:.1e} <= 1e-10)")


def test_criterion_3_monte_carlo_attainment(spec_merton, spec_nh):
    t0 = time.perf_counter()
    cfg = SimConfig(x0=1.0, dt=1.0 / 250.0, horizon=300.0, n_paths=100_000, seed=2024)
    pol = merton_feedback(spec_merton)
    report = simulate(spec_merton, pol, cfg)
    elapsed = time.perf_counter() - t0

    # the estimate is unbiased for the left-point expectation; V differs
    # from it by the time-stepping bias, which V's check is allowed
    left = oracles.lognormal_affine_expectation(pol.c1, pol.pi1, 1.0, cfg.dt, report.n_steps)
    left_gap = abs(report.estimate - left)
    v0 = merton_value(spec_merton, 1.0)
    verdict = compare_to_value(report, v0, discretization_allowance=abs(v0 - left))
    quoted = compare_to_value(report, 6.09990)
    control = compare_to_value(report, 1.05 * v0)

    deg_cfg = SimConfig(x0=spec_nh.x_e, dt=1.0 / 250.0, horizon=300.0,
                        n_paths=4, seed=7)
    deg = simulate(spec_nh, floor_feedback(spec_nh), deg_cfg)
    deg_exact = (1.0 - math.exp(-spec_nh.beta * deg.horizon)) * spec_nh.v_xe
    deg_err = abs(deg.estimate - deg_exact) / deg_exact

    ok = (left_gap <= 3.0 * report.std_error and verdict.passed and quoted.passed
          and not control.passed and deg_err <= 1e-12 and deg.std_error == 0.0
          and elapsed <= 300.0)
    _verdict(3, ok,
             f"merton estimate {report.estimate:.7f} vs left-point expectation "
             f"{left:.7f} (gap {left_gap:.2e} <= 3SE {3.0 * report.std_error:.2e}) "
             f"and V {v0:.5f} (gap {verdict.gap:.4f} <= 3SE+tail+|V-E_left| "
             f"{verdict.tolerance:.4f}), "
             f"5% offset control rejected={not control.passed}, "
             f"degenerate rel err {deg_err:.1e} (<=1e-12) with zero variance, "
             f"runtime {elapsed:.0f}s (<=300s)")


def test_criterion_4_hjb_residual_and_order(spec_si, spec_nh, si_sol, si_grid,
                                            si_table, nh_grid, nh_table):
    res_si = check_hjb_residual(spec_si, si_table, tol=1e-6)
    res_nh = check_hjb_residual(spec_nh, nh_table, tol=1e-6)

    residuals = []
    sizes = (257, 513, 1025, 2049, 4097)
    for n in sizes:
        y = np.geomspace(1e-3, 1e3, n)
        v, v_y, v_yy = si_sol.dual_eval(y)
        grid = DualGrid(y=y, v=v, v_y=v_y, v_yy=v_yy, residual_inf=0.0)
        residuals.append(ode_residual(spec_si, grid))
    orders = np.log2(np.array(residuals[:-1]) / np.array(residuals[1:]))
    orders_ok = bool(np.all(orders >= 1.7) and np.all(orders <= 2.3))
    ok = res_si.passed and res_nh.passed and orders_ok
    _verdict(4, ok,
             f"HJB residual: fixed floor {res_si.worst:.2e}, baseline "
             f"{res_nh.worst:.2e} (<=1e-6); refinement orders "
             f"{np.round(orders, 2).tolist()} in [1.7, 2.3]")


def test_criterion_5_theorem_suite(spec_nh, nh_grid, nh_table, sweep_solves):
    failures = []
    report = run_all(spec_nh, nh_grid, nh_table)
    if not report.overall:
        failures.append(("baseline", [c.name for c in report.checks if not c.passed]))
    for key, (spec, grid, table) in sweep_solves.items():
        rep = run_all(spec, grid, table)
        if not rep.overall:
            failures.append((key, [c.name for c in rep.checks if not c.passed]))
    ok = not failures
    _verdict(5, ok, "sandwich/global/V_x bounds, shape, convexity, inverse "
                    f"identity pass on baseline and 3x3 sweep; failures={failures}")


def test_criterion_6_region_theorems(sweep_solves):
    lines = []
    ok = True
    for (k, beta), (spec, grid, table) in sweep_solves.items():
        n = len(table.x_star_list)
        if spec.kappa < k:
            good = n == 0
            lines.append(f"kappa<k ({k},{beta}): {n} crossings")
        elif spec.kappa >= spec.r:
            upper = region_bracket(spec)
            good = n == 1 and spec.x_e < table.x_star_list[0] < upper
            lines.append(f"kappa>=r ({k},{beta}): x*={table.x_star_list[0]:.4g} "
                         f"in (x_e, {upper:.4g})")
        else:
            good = True
            lines.append(f"open regime ({k},{beta}): {n} crossings (informational)")
        ok &= good
    _verdict(6, ok, "; ".join(lines))


def test_criterion_7_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(BASE, k=0.02, l=1.0, x0=150.0)))
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", "--config", str(config), "--out", str(out),
                     "--span", "1e3", "--nodes", "1024"]) == 0
        assert main(["simulate", "--config", str(config), "--policy", "floor",
                     "--dt", "0.01", "--horizon", "5", "--paths", "500",
                     "--seed", "11", "--out", str(out)]) == 0
        digests.append(tuple(sha256_file(out / f)
                             for f in ("summary.json", "policy.csv", "dual.csv", "sim.json")))
    ok = digests[0] == digests[1]
    _verdict(7, ok, "repeated solve+simulate byte-identical: "
                    f"summary.json, policy.csv, dual.csv, sim.json ({ok})")


def test_criterion_8_negative_controls(spec_nh, nh_table, tmp_path):
    V = nh_table.V.copy()
    V[len(V) // 2] *= 1.01
    perturbed = PolicyTable(spec=spec_nh, x=nh_table.x, V=V, V_x=nh_table.V_x,
                            V_xx=nh_table.V_xx, c_star=nh_table.c_star,
                            pi_star=nh_table.pi_star, region=nh_table.region,
                            x_star_list=nh_table.x_star_list)
    hjb_fails = not check_hjb_residual(spec_nh, perturbed).passed
    grad_fails = not check_gradient_consistency(perturbed).passed

    infeasible = tmp_path / "infeasible.json"
    infeasible.write_text(json.dumps(dict(BASE, k=0.05, l=1.0)))
    exit_infeasible = main(["solve", "--config", str(infeasible),
                            "--out", str(tmp_path / "x")])

    nh_conf = tmp_path / "nh.json"
    nh_conf.write_text(json.dumps(dict(BASE, k=0.02, l=1.0)))
    exit_wealth = main(["simulate", "--config", str(nh_conf), "--x0", "99.0",
                        "--dt", "0.01", "--horizon", "5", "--paths", "10"])

    out = tmp_path / "run"
    assert main(["solve", "--config", str(nh_conf), "--out", str(out),
                 "--span", "1e3", "--nodes", "1024"]) == 0
    policy_path = out / "policy.csv"
    lines = policy_path.read_text().splitlines()
    parts = lines[len(lines) // 2].split(",")
    parts[1] = f"{float(parts[1]) * 1.05:.16e}"
    lines[len(lines) // 2] = ",".join(parts)
    policy_path.write_text("\n".join(lines) + "\n")
    exit_verify = main(["verify", "--config", str(nh_conf), "--out", str(out)])

    ok = (hjb_fails and grad_fails and exit_infeasible == 2
          and exit_wealth == 2 and exit_verify == 4)
    _verdict(8, ok,
             f"perturbed table fails hjb={hjb_fails} and gradient={grad_fails}; "
             f"infeasible config exit {exit_infeasible} (=2), x0<x_e exit "
             f"{exit_wealth} (=2), corrupted solve verify exit {exit_verify} (=4)")
