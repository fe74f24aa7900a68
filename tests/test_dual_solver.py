import math

import numpy as np
import pytest

from consfloor import (
    DualGrid,
    ProblemCase,
    SolverConfig,
    find_free_boundary,
    hamiltonian,
    homogeneous_value,
    invert,
    make_spec,
    ode_residual,
    solve_dual,
)
from consfloor import dual_solver
from consfloor.dual_solver import (
    default_config,
    pchip_coefficients,
    solve_tridiagonal,
    validate_grid,
)
from consfloor.errors import (
    ConvexityLoss,
    DomainError,
    InfeasibleProblem,
    KappaNonPositive,
    NoConvergence,
    ParameterError,
)

import oracles

BASE = dict(r=0.03, mu=0.05, sigma=0.2, beta=0.1, p=0.5)


# ---------------------------------------------------------------- hamiltonian

def test_hamiltonian_against_brute_force(spec_si):
    rng = np.random.default_rng(7)
    for _ in range(12):
        u = float(rng.uniform(0.2, 5.0))
        y = float(rng.uniform(0.05, 5.0))
        G, _, _ = hamiltonian(spec_si, u, y)
        assert G == pytest.approx(
            oracles.hamiltonian_brute_force(u, y, spec_si.p), rel=2e-7, abs=2e-7)


def test_hamiltonian_known_values(spec_si):
    G, G_u, G_y = hamiltonian(spec_si, 1.0, 0.5)
    assert G == pytest.approx(2.0, rel=1e-14)          # slack branch
    assert G_u == 0.0
    assert G_y == pytest.approx(-4.0, rel=1e-14)
    G2, G_u2, _ = hamiltonian(spec_si, 4.0, 0.5)       # branch junction
    assert G2 == pytest.approx(2.0, rel=1e-14)
    assert G_u2 == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_branch_continuity(spec_si):
    u = 2.0
    y_star = u ** (spec_si.p - 1.0)
    G_lo, _, _ = hamiltonian(spec_si, u, y_star * (1 - 1e-12))
    G_hi, _, _ = hamiltonian(spec_si, u, y_star * (1 + 1e-12))
    assert G_lo == pytest.approx(G_hi, rel=1e-10)


def test_hamiltonian_slack_region_derivative(spec_si):
    y = np.geomspace(0.01, 10.0, 50)
    u = 0.5
    _, G_u, G_y = hamiltonian(spec_si, u, y)
    slack = y <= u ** (spec_si.p - 1.0)
    assert np.all(G_u[slack] == 0.0)
    assert np.all(G_u[~slack] < 0.0)
    assert np.allclose(G_y, -np.maximum(y ** (1 / (spec_si.p - 1)), u))


def test_hamiltonian_domain_errors(spec_si):
    # a floor u <= 0 never binds: the slack value, with G_u = 0
    p = spec_si.p
    for u in (0.0, -1.0):
        for y in (0.5, 2.0):
            G, G_u, G_y = hamiltonian(spec_si, u, y)
            assert G == (1.0 - p) / p * y ** (p / (p - 1.0))
            assert G_u == 0.0
            assert G_y == -(y ** (1.0 / (p - 1.0)))
    with pytest.raises(DomainError):
        hamiltonian(spec_si, 1.0, -2.0)
    with pytest.raises(DomainError):
        hamiltonian(spec_si, 1.0, 0.0)


# ---------------------------------------------------------------- config

def test_solver_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(y_min=0.0, y_max=1.0)
    with pytest.raises(ParameterError):
        SolverConfig(y_min=2.0, y_max=1.0)
    with pytest.raises(ParameterError):
        SolverConfig(y_min=0.1, y_max=1.0, n_nodes=32)


def test_default_config_centering(spec_nh):
    cfg = default_config(spec_nh)
    y_ref = spec_nh.c_e ** (spec_nh.p - 1.0)
    assert cfg.y_min == pytest.approx(y_ref / 1e4)
    assert cfg.y_max == pytest.approx(y_ref * 1e4)
    assert cfg.n_nodes == 4096


# ---------------------------------------------------------------- solve guards

def test_solve_guards():
    # infeasibility outranks kappa <= 0, l = 0 passes no guard, and the
    # default grid is refused as well
    low_beta = dict(BASE, beta=0.01)
    infeasible = make_spec(**low_beta, k=0.05, l=1.0)
    with pytest.raises(InfeasibleProblem):
        solve_dual(infeasible)
    with pytest.raises(InfeasibleProblem):
        default_config(infeasible)
    with pytest.raises(KappaNonPositive):
        solve_dual(make_spec(**low_beta))


# one spec per case: (spec arguments, the typed error solve_dual raises or None)
SOLVE_CASES = {
    ProblemCase.MERTON_UNCONSTRAINED: (BASE, None),
    ProblemCase.HOMOGENEOUS: (dict(BASE, k=0.2), None),
    ProblemCase.STATE_INDEPENDENT: (dict(BASE, k=0.0, l=1.0), None),
    ProblemCase.NON_HOMOGENEOUS: (dict(BASE, k=0.02, l=1.0), None),
    ProblemCase.INFEASIBLE_ALL: (dict(BASE, k=0.05, l=1.0), InfeasibleProblem),
    ProblemCase.VALUE_POSSIBLY_INFINITE: (dict(BASE, beta=0.01, k=0.02, l=1.0),
                                          KappaNonPositive),
}


@pytest.mark.parametrize("case", list(ProblemCase), ids=lambda case: case.value)
def test_solve_dual_takes_every_case(case):
    kwargs, error = SOLVE_CASES[case]
    spec = make_spec(**kwargs)
    assert spec.case is case
    if error is not None:
        with pytest.raises(error):
            solve_dual(spec)
        return
    grid = solve_dual(spec, default_config(spec, span=1e3))
    assert isinstance(grid, DualGrid)
    if spec.l == 0.0:
        table = invert(spec, grid)
        rate = max(spec.kappa, spec.k)
        np.testing.assert_allclose(table.c_star / table.x, rate, rtol=1e-12)
        np.testing.assert_allclose(table.V, homogeneous_value(spec, table.x), rtol=1e-12)


def test_no_convergence_surfaces(spec_nh, monkeypatch):
    monkeypatch.setattr(dual_solver, "_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="after 1 iterations"):
        solve_dual(spec_nh, default_config(spec_nh))


# ---------------------------------------------------------------- oracle equivalence

def test_solver_matches_oracle_at_half_resolution(spec_si, si_sol):
    grid = solve_dual(spec_si, SolverConfig(y_min=1e-3, y_max=1e3, n_nodes=2048))
    v_ex, vy_ex, _ = si_sol.dual_eval(grid.y)
    assert np.max(np.abs(grid.v - v_ex) / (1.0 + np.abs(v_ex))) < 1e-4
    assert np.max(np.abs(grid.v_y - vy_ex) / np.abs(vy_ex)) < 1e-3


def test_solver_matches_fixed_floor_oracle(si_sol, si_grid):
    v_ex, vy_ex, vyy_ex = si_sol.dual_eval(si_grid.y)
    assert np.max(np.abs(si_grid.v - v_ex) / (1.0 + np.abs(v_ex))) < 1e-4
    assert np.max(np.abs(si_grid.v_y - vy_ex) / np.abs(vy_ex)) < 1e-3
    # pointwise curvature away from the truncation edges
    inner = (si_grid.y > 1e-2) & (si_grid.y < 1e2)
    assert np.max(np.abs(si_grid.v_yy - vyy_ex)[inner] / vyy_ex[inner]) < 1e-3


def test_solver_free_boundary_matches_oracle(spec_si, si_grid, si_sol):
    crossings = find_free_boundary(spec_si, si_grid)
    assert len(crossings) == 1
    y_star, x_star = crossings[0]
    assert y_star == pytest.approx(si_sol.y_star, rel=1e-6)
    assert x_star == pytest.approx(oracles.SI_X_STAR, abs=1e-2)


def test_grid_invariants_across_regimes():
    for (k, beta) in [(0.02, 0.1), (0.005, 0.048), (0.028, 0.048),
                      (0.015, 0.06), (0.028, 0.1)]:
        spec = make_spec(**dict(BASE, beta=beta), k=k, l=1.0)
        grid = solve_dual(spec, default_config(spec, span=1e3, n_nodes=2048))
        validate_grid(spec, grid)   # raises on violation
        assert grid.residual_inf < 1e-5


def test_vy_limit_at_large_prices(spec_nh):
    grid = solve_dual(spec_nh)    # default span 1e4
    assert abs(grid.v_y[-1] + spec_nh.x_e) / spec_nh.x_e < 0.01


# ---------------------------------------------------------------- residual

def _analytic_grid(si_sol, y_min, y_max, n):
    y = np.geomspace(y_min, y_max, n)
    v, v_y, v_yy = si_sol.dual_eval(y)
    return DualGrid(y=y, v=v, v_y=v_y, v_yy=v_yy, residual_inf=0.0)


def test_residual_second_order_on_exact_solution(spec_si, si_sol):
    res = []
    sizes = (257, 513, 1025, 2049, 4097)
    for n in sizes:
        grid = _analytic_grid(si_sol, 1e-3, 1e3, n)
        res.append(ode_residual(spec_si, grid))
    rates = np.log2(np.array(res[:-1]) / np.array(res[1:]))
    assert np.all(rates > np.log2(3.0)) and np.all(rates < np.log2(5.0))


def test_residual_of_converged_solve(spec_si, si_grid):
    scale = 1.0 + spec_si.beta * float(np.max(np.abs(
        si_grid.v - (spec_si.v_xe - spec_si.x_e * si_grid.y))))
    assert si_grid.residual_inf <= 1e-10 * scale
    # recomputed from the stored v; differs from the solver's own figure
    # only by the float reconstruction of the excess variable
    assert ode_residual(spec_si, si_grid) <= 1e-10 * scale


def test_residual_negative_control(spec_si):
    y = np.geomspace(0.5, 2.0, 65)
    ones = np.ones_like(y)
    grid = DualGrid(y=y, v=ones, v_y=0 * y, v_yy=0 * y, residual_inf=0.0)
    assert ode_residual(spec_si, grid) > 0.1


def test_residual_requires_log_uniform(spec_si):
    y = np.linspace(0.5, 2.0, 65)
    grid = DualGrid(y=y, v=np.ones_like(y), v_y=0 * y, v_yy=0 * y, residual_inf=0.0)
    with pytest.raises(ParameterError):
        ode_residual(spec_si, grid)


# ---------------------------------------------------------------- truncation stability

def test_domain_extension_stability(spec_nh):
    cfg = default_config(spec_nh, span=1e3, n_nodes=2048)
    grid = solve_dual(spec_nh, cfg)
    h = math.log(cfg.y_max / cfg.y_min) / (cfg.n_nodes - 1)
    extra = int(round(math.log(2.0) / h)) + 1
    cfg2 = SolverConfig(y_min=cfg.y_min * math.exp(-extra * h),
                        y_max=cfg.y_max * math.exp(extra * h),
                        n_nodes=cfg.n_nodes + 2 * extra)
    grid2 = solve_dual(spec_nh, cfg2)
    # compare on the inner half (log measure) of the original domain
    t_lo = math.log(cfg.y_min) + 0.25 * math.log(cfg.y_max / cfg.y_min)
    t_hi = math.log(cfg.y_max) - 0.25 * math.log(cfg.y_max / cfg.y_min)
    sel1 = (grid.y >= math.exp(t_lo)) & (grid.y <= math.exp(t_hi))
    interp = np.interp(np.log(grid.y[sel1]), np.log(grid2.y), grid2.v)
    rel = np.abs(grid.v[sel1] - interp) / (1.0 + np.abs(grid.v[sel1]))
    assert np.max(rel) < 1e-5


# ---------------------------------------------------------------- free boundary

def test_free_boundary_empty_when_kappa_below_k():
    spec = make_spec(**dict(BASE, beta=0.048), k=0.028, l=1.0)
    assert spec.kappa < spec.k
    grid = solve_dual(spec, default_config(spec, span=1e3, n_nodes=2048))
    assert find_free_boundary(spec, grid) == []


def test_free_boundary_single_crossing_structure(spec_nh, nh_grid):
    crossings = find_free_boundary(spec_nh, nh_grid)
    assert len(crossings) == 1
    y_star, x_star = crossings[0]
    assert spec_nh.x_e < x_star < oracles.NH_BRACKET_UPPER
    # floor slack for all prices below the crossing (wealth above x_star)
    phi = nh_grid.y ** (1 / (spec_nh.p - 1)) - (spec_nh.l - spec_nh.k * nh_grid.v_y)
    assert np.all(phi[nh_grid.y < y_star * 0.999] > 0)
    assert np.all(phi[nh_grid.y > y_star * 1.001] < 0)


def test_free_boundary_node_tie(spec_si, si_sol):
    # place the junction price exactly on a node: phi is 0.0 there
    y = np.exp(np.linspace(math.log(0.25), math.log(4.0), 129))
    y[64] = 1.0  # log-midpoint of the symmetric range
    v, v_y, v_yy = si_sol.dual_eval(y)
    grid = DualGrid(y=y, v=v, v_y=v_y, v_yy=v_yy, residual_inf=0.0)
    crossings = find_free_boundary(spec_si, grid)
    assert len(crossings) == 1
    assert crossings[0][0] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- closed-form grids

def test_homogeneous_dual_grid_inverts_to_linear_policy(spec_homog):
    grid = solve_dual(spec_homog)
    validate_grid(spec_homog, grid)
    table = invert(spec_homog, grid)
    rate = table.c_star / table.x
    assert np.allclose(rate, max(spec_homog.kappa, spec_homog.k), rtol=1e-9)
    assert np.allclose(table.pi_star / table.x, spec_homog.merton_fraction, rtol=1e-9)
    assert table.x_star_list == ()


def test_validate_grid_detects_corruption(spec_si, si_sol):
    grid = _analytic_grid(si_sol, 0.01, 100.0, 257)
    bad = DualGrid(y=grid.y, v=grid.v, v_y=grid.v_y,
                   v_yy=-grid.v_yy, residual_inf=0.0)
    with pytest.raises(ConvexityLoss):
        validate_grid(spec_si, bad)


# ---------------------------------------------------------------- tridiagonal solve

def _dense(lower, diag, upper):
    n = len(diag)
    A = np.zeros((n, n))
    i = np.arange(n)
    A[i, i] = diag
    A[i[1:], i[:-1]] = lower[1:]
    A[i[:-1], i[1:]] = upper[:-1]
    return A


def _rel_err(z, ref):
    return float(np.max(np.abs(z - ref)) / np.max(np.abs(ref)))


# around the Thomas hand-over (32 rows) and odd and even sizes at every level
@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 34, 4096, 4097])
def test_tridiagonal_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n))
    diag = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 3.0, n)
    rhs = rng.normal(size=n)
    ref = np.linalg.solve(_dense(lower, diag, upper), rhs)
    # the corner entries lie outside the matrix and must not be read
    lower[0] = upper[-1] = np.nan
    z = solve_tridiagonal(lower, diag, upper, rhs)
    assert _rel_err(z, ref) <= 1e-12


def _newton_systems(spec, cfg):
    """(lower, diag, upper, rhs) of the first Newton step and of one at
    the converged (trimmed) solution."""
    form = dual_solver._ExcessForm(spec)
    t = np.linspace(math.log(cfg.y_min), math.log(cfg.y_max), cfg.n_nodes)
    h, y = float(t[1] - t[0]), np.exp(t)
    w0 = form.base_w(y) + dual_solver._offset_band_top(spec, cfg.y_min) / 2.0
    w0[-1] = 0.0
    grid = solve_dual(spec, cfg)
    w = grid.v - (spec.v_xe - spec.x_e * grid.y)
    for yy, ww in ((y, w0), (grid.y, w)):
        F, G_u = form.residual(h, yy, ww, ww[0], ww[-1])
        assert np.any(G_u != 0.0)  # the floor binds on part of the grid
        yield (*form.jacobian(h, yy, G_u), -F)


@pytest.mark.parametrize("market", [{}, dict(p=0.2, sigma=0.6)], ids=["baseline", "p0.2-sigma0.6"])
def test_tridiagonal_matches_lapack_on_newton_jacobians(market):
    """Both solves are backward stable to a few eps; the Jacobians' condition
    numbers (about 3e6 on the baseline) let the two answers differ by
    about 1e-12, so the forward comparison allows 1e-11."""
    solve_banded = pytest.importorskip("scipy.linalg").solve_banded
    spec = make_spec(**dict(BASE, **market), k=0.02, l=1.0)
    for lower, diag, upper, rhs in _newton_systems(spec, default_config(spec, span=1e3)):
        ab = np.zeros((3, len(diag)))
        ab[0, 1:], ab[1], ab[2, :-1] = upper[:-1], diag, lower[1:]
        z = solve_tridiagonal(lower, diag, upper, rhs)
        assert _rel_err(z, solve_banded((1, 1), ab, rhs)) <= 1e-11
        residual = diag * z - rhs
        residual[1:] += lower[1:] * z[:-1]
        residual[:-1] += upper[:-1] * z[1:]
        row_norm = np.max(np.abs(lower) + np.abs(diag) + np.abs(upper))
        assert np.max(np.abs(residual)) <= 4 * np.finfo(float).eps * row_norm * np.max(np.abs(z))


@pytest.mark.parametrize("n", [8, 100])
def test_tridiagonal_zero_pivot_gives_nonfinite(n):
    ones = np.ones(n)
    with np.errstate(all="ignore"):
        z = solve_tridiagonal(ones, np.zeros(n), ones, ones)
    assert not np.all(np.isfinite(z))


def test_nonfinite_newton_step_raises(spec_nh, monkeypatch):
    cfg = default_config(spec_nh, span=1e3)
    monkeypatch.setattr(dual_solver, "solve_tridiagonal",
                        lambda lower, diag, upper, rhs: np.full(len(diag), np.nan))
    with pytest.raises(NoConvergence, match="not finite"):
        solve_dual(spec_nh, cfg)


def test_nan_iterate_raises_instead_of_propagating(spec_nh):
    cfg = default_config(spec_nh, span=1e3, n_nodes=256)
    form = dual_solver._ExcessForm(spec_nh)
    t = np.linspace(math.log(cfg.y_min), math.log(cfg.y_max), cfg.n_nodes)
    w0 = form.base_w(np.exp(t)) + 1.0
    w0[100] = np.nan
    with pytest.raises(NoConvergence, match="not finite"):
        dual_solver._newton(form, float(t[1] - t[0]), np.exp(t), w0, w0[0], 0.0)


# ---------------------------------------------------------------- PCHIP coefficients

_POWERS = np.array([[1.0], [2.0], [3.0]])


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_pchip_exact(x, y):
    """pchip_coefficients and its derivative rows equal scipy's bit for bit."""
    ref = pytest.importorskip("scipy.interpolate").PchipInterpolator(x, y)
    a = pchip_coefficients(x, y)
    assert np.array_equal(_bits(a), _bits(ref.c[::-1]))
    assert np.array_equal(_bits(a[1:] * _POWERS), _bits(ref.derivative().c[::-1]))
    return a


def test_pchip_flat_segment():
    a = _assert_pchip_exact(np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
                            np.array([0.0, 1.0, 1.0, 2.0, 4.0]))
    assert a[1][1] == a[1][2] == 0.0  # both ends of the flat secant


def test_pchip_interior_sign_change():
    a = _assert_pchip_exact(np.array([0.0, 1.0, 2.5, 3.0, 5.0]),
                            np.array([0.0, 2.0, 1.0, 1.5, 0.5]))
    assert a[1][1] == a[1][2] == a[1][3] == 0.0


def test_pchip_end_slope_zeroed():
    # one-sided estimate (3 m0 - m1) / 2 = -0.5 has the wrong sign
    a = _assert_pchip_exact(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 5.0, 6.0]))
    assert a[1][0] == 0.0 and a[1][1] != 0.0


def test_pchip_end_slope_clamped():
    # secants 1 then -10: the estimate 6.5 exceeds 3 m0 and is clamped
    a = _assert_pchip_exact(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, -9.0, -8.0]))
    assert a[1][0] == 3.0


def test_pchip_three_and_two_points():
    _assert_pchip_exact(np.array([0.0, 0.5, 2.0]), np.array([1.0, 3.0, 2.0]))
    a = _assert_pchip_exact(np.array([1.0, 3.0]), np.array([2.0, -1.0]))
    assert a[2][0] == a[3][0] == 0.0  # the straight line


@pytest.mark.parametrize("seed", range(5))
def test_pchip_random_data(seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.01, 1.0, 200))
    y = np.round(rng.normal(size=200), 1)  # rounding makes some secants flat
    _assert_pchip_exact(x, y)


# ---------------------------------------------------------------- solved markets

# the 3x3 (k, beta) acceptance sweep, the baseline and the fixed floor
SOLVED_MARKETS = (
    [dict(k=k, l=1.0, beta=beta) for k in (0.005, 0.015, 0.028) for beta in (0.048, 0.06, 0.1)]
    + [dict(k=0.02, l=1.0), dict(k=0.0, l=1.0)])


@pytest.fixture(scope="module")
def solved_markets():
    out = []
    for overrides in SOLVED_MARKETS:
        spec = make_spec(**dict(BASE, **overrides))
        out.append((spec, solve_dual(spec, default_config(spec, span=1e3))))
    return out


def test_pchip_exact_on_solved_tables(solved_markets):
    for spec, grid in solved_markets:
        _assert_pchip_exact(np.log(grid.y), grid.v_y)
        table = invert(spec, grid)
        s = np.log(table.x)
        _assert_pchip_exact(s, table.V)
        _assert_pchip_exact(s, np.log(table.V_x))
        pieces = table._pieces
        # one row (a0, a1, a2, a3) per piece; the slope d ln V_x / d ln x
        # is taken from the ln V_x rows at query time
        assert np.array_equal(_bits(pieces.value.T), _bits(pchip_coefficients(s, table.V)))
        assert np.array_equal(_bits(pieces.log_vx.T),
                              _bits(pchip_coefficients(s, np.log(table.V_x))))


def test_free_boundary_bit_identical_to_scipy_bisection(solved_markets):
    for spec, grid in solved_markets:
        crossings = find_free_boundary(spec, grid)
        assert crossings == oracles.pchip_free_boundary(spec, grid)
        # seven of the eleven markets have kappa > k and a boundary to bisect
        assert len(crossings) == (1 if spec.kappa > spec.k else 0)
