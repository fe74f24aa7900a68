import math

import numpy as np
import pytest

from consfloor import (
    DualGrid,
    PolicyTable,
    invert,
    make_spec,
    policy_at,
    regions,
    solve_dual,
    value_at,
)
from consfloor.dual_solver import default_config
from consfloor.errors import ConvexityLoss, OutOfRange
from consfloor.policy import TableFeedback
from oracles import pchip_log_vx_derivatives, pchip_policy, pchip_vx

BASE = dict(r=0.03, mu=0.05, sigma=0.2, beta=0.1, p=0.5)


def test_invert_transform_identities(spec_nh, nh_grid, nh_table):
    t = nh_table
    y_rev = nh_grid.y[::-1]
    assert np.array_equal(t.V_x, y_rev)
    assert np.array_equal(t.x, -nh_grid.v_y[::-1])
    assert np.allclose(t.V, (nh_grid.v - nh_grid.y * nh_grid.v_y)[::-1], rtol=1e-14)
    # inverse-function identity holds exactly by construction
    assert np.max(np.abs(t.V_xx * nh_grid.v_yy[::-1] + 1.0)) < 1e-15
    expected_c = np.maximum(y_rev ** (1 / (spec_nh.p - 1)), spec_nh.k * t.x + spec_nh.l)
    assert np.array_equal(t.c_star, expected_c)
    assert np.allclose(t.pi_star,
                       spec_nh.mu / spec_nh.sigma**2 * y_rev * nh_grid.v_yy[::-1],
                       rtol=1e-14)


def test_invert_shape_invariants(spec_nh, nh_table):
    t = nh_table
    assert np.all(np.diff(t.x) > 0)
    assert np.all(np.diff(t.V) > 0)
    assert np.all(t.V_x > 0) and np.all(np.diff(t.V_x) < 0)
    assert np.all(t.V_xx < 0)
    assert np.all(t.c_star >= spec_nh.k * t.x + spec_nh.l - 1e-12)
    assert np.all(t.pi_star > 0)


def test_invert_rejects_nonconvex(spec_nh, nh_grid):
    bad = DualGrid(y=nh_grid.y, v=nh_grid.v, v_y=nh_grid.v_y,
                   v_yy=-nh_grid.v_yy, residual_inf=0.0)
    with pytest.raises(ConvexityLoss):
        invert(spec_nh, bad)


def test_region_flags_match_feedback_law(spec_nh, nh_table):
    t = nh_table
    floor = spec_nh.k * t.x + spec_nh.l
    candidate = t.V_x ** (1 / (spec_nh.p - 1))
    constrained = t.region == "C"
    assert np.array_equal(constrained, candidate <= floor)
    # consumption equals the floor exactly where constrained
    assert np.array_equal(t.c_star[constrained], floor[constrained])


def test_brute_force_hamiltonian_roundtrip(spec_nh, nh_table):
    """Re-maximizing the primal Hamiltonian on a fine local grid recovers
    (c_star, pi_star) within grid resolution."""
    t = nh_table
    m = spec_nh
    for idx in (200, len(t.x) // 2, len(t.x) - 300):
        x, vx, vxx = t.x[idx], t.V_x[idx], t.V_xx[idx]
        floor = m.k * x + m.l
        c_grid = np.linspace(floor, max(4 * t.c_star[idx], floor + 1.0), 400_001)
        obj_c = c_grid**m.p / m.p - c_grid * vx
        c_best = c_grid[np.argmax(obj_c)]
        step = c_grid[1] - c_grid[0]
        assert abs(c_best - t.c_star[idx]) <= step + 1e-9 * t.c_star[idx]
        pi_span = 4 * abs(t.pi_star[idx])
        pi_grid = np.linspace(-pi_span, pi_span, 400_001)
        obj_pi = 0.5 * m.sigma**2 * pi_grid**2 * vxx + m.mu * pi_grid * vx
        pi_best = pi_grid[np.argmax(obj_pi)]
        assert abs(pi_best - t.pi_star[idx]) <= (pi_grid[1] - pi_grid[0]) + 1e-9 * pi_span


def test_marginal_utility_identity_where_slack(spec_nh, nh_table):
    t = nh_table
    slack = t.region == "U"
    assert slack.any()
    assert np.allclose(t.c_star[slack] ** (spec_nh.p - 1.0), t.V_x[slack], rtol=1e-12)


def test_value_at_reproduces_nodes(nh_table):
    idx = [5, len(nh_table.x) // 3, len(nh_table.x) - 7]
    out = value_at(nh_table, nh_table.x[idx])
    assert np.allclose(out, nh_table.V[idx], rtol=0, atol=1e-9 * np.abs(nh_table.V[idx]).max())


def test_value_near_floor_wealth_approaches_vxe(spec_nh, nh_table):
    assert nh_table.V[0] == pytest.approx(spec_nh.v_xe, abs=1e-6)


def test_policy_at_kink_branch_selection(spec_nh, nh_table):
    (x_star,) = nh_table.x_star_list
    c_lo, pi_lo = policy_at(nh_table, x_star * (1 - 1e-7))
    c_hi, pi_hi = policy_at(nh_table, x_star * (1 + 1e-7))
    assert c_lo == pytest.approx(spec_nh.k * x_star * (1 - 1e-7) + spec_nh.l, rel=1e-12)
    assert c_hi > spec_nh.k * x_star * (1 + 1e-7) + spec_nh.l - 1e-9
    # consumption is continuous across the kink, pi has no jump either
    assert c_hi == pytest.approx(c_lo, rel=1e-5)
    assert pi_hi == pytest.approx(pi_lo, rel=1e-4)
    # exactly at the refined boundary the floor branch is used
    c_at, _ = policy_at(nh_table, x_star)
    assert c_at == pytest.approx(spec_nh.k * x_star + spec_nh.l, rel=1e-12)


def test_fixed_floor_kink_consumption_equals_floor(spec_si, si_table, si_sol):
    """At the free boundary both consumption branches meet at l."""
    (x_star,) = si_table.x_star_list
    c_at, _ = policy_at(si_table, x_star)
    assert c_at == pytest.approx(spec_si.l, rel=1e-10)
    # the slack branch just above the boundary starts from the same value
    c_up, _ = policy_at(si_table, x_star * (1 + 1e-8))
    assert c_up == pytest.approx(spec_si.l, rel=1e-5)


def test_policy_at_matches_fixed_floor_oracle(spec_si, si_table, si_sol):
    x = 50.0
    c_num, pi_num = policy_at(si_table, x)
    c_ex, pi_ex = si_sol.policy(x)
    assert c_num == pytest.approx(c_ex, rel=1e-3)
    assert pi_num == pytest.approx(pi_ex, rel=1e-3)
    assert value_at(si_table, x) == pytest.approx(si_sol.value(x), rel=1e-6)


def test_policy_at_array_and_scalar_forms(nh_table):
    xs = np.array([120.0, 150.0, 300.0])
    c_arr, pi_arr = policy_at(nh_table, xs)
    for i, x in enumerate(xs):
        c, pi = policy_at(nh_table, float(x))
        assert c == c_arr[i] and pi == pi_arr[i]


def _eval_into(feedback, x):
    """(c, pi) from feedback.eval_into at 1-d x, with the simulator's errstate."""
    c, pi = np.empty_like(x), np.empty_like(x)
    with np.errstate(invalid="ignore", over="ignore"):
        feedback.eval_into(x, c, pi, np.empty_like(x))
    return c, pi


def test_extrapolation_refused(nh_table):
    with pytest.raises(OutOfRange):
        value_at(nh_table, nh_table.x[-1] * 1.01)
    with pytest.raises(OutOfRange):
        policy_at(nh_table, nh_table.x[0] * 0.999999999)
    with pytest.raises(OutOfRange):
        policy_at(nh_table, np.array([150.0, np.nan]))


def test_regions_single_crossing(spec_nh, nh_table):
    part = regions(nh_table)
    assert part.n_intervals == 2
    (lo1, hi1, lab1), (lo2, hi2, lab2) = part.intervals
    assert lab1 == "C" and lab2 == "U"
    assert lo1 == spec_nh.x_e and hi1 == nh_table.x_star_list[0] == lo2
    assert hi2 == nh_table.x[-1]


def test_regions_all_constrained_when_kappa_small():
    spec = make_spec(**dict(BASE, beta=0.048), k=0.028, l=1.0)
    table = invert(spec, solve_dual(spec, default_config(spec, span=1e3, n_nodes=2048)))
    part = regions(table)
    assert part.n_intervals == 1
    assert part.intervals[0][2] == "C"
    assert part.n_unconstrained == 0


def test_regions_all_slack_for_merton(spec_merton):
    table = invert(spec_merton, solve_dual(spec_merton))
    part = regions(table)
    assert part.n_intervals == 1
    assert part.intervals[0][2] == "U"


# tables of different node densities, spans and regimes for the
# interval locator: (spec overrides, solver config overrides)
LOCATOR_TABLES = {
    "baseline-span1e3": (dict(k=0.02, l=1.0), dict(span=1e3)),
    "baseline-span1e4": (dict(k=0.02, l=1.0), dict(span=1e4)),
    "fixed-floor-4096": (dict(k=0.0, l=1.0), dict(span=1e3)),
    "fixed-floor-16384": (dict(k=0.0, l=1.0), dict(span=1e3, n_nodes=16384)),
    "no-crossing-sweep": (dict(k=0.028, l=1.0, beta=0.048), dict(span=1e3)),
    "p0.2-sigma0.6": (dict(k=0.02, l=1.0, p=0.2, sigma=0.6), dict(span=1e3)),
}


def _solve_table(spec_kw, cfg_kw):
    spec = make_spec(**dict(BASE, **spec_kw))
    return invert(spec, solve_dual(spec, default_config(spec, **cfg_kw)))


@pytest.fixture(scope="module", params=sorted(LOCATOR_TABLES))
def locator_table(request):
    return _solve_table(*LOCATOR_TABLES[request.param])


def _probe_points(table):
    """Every node, both float neighbours of every node, and the midpoints."""
    x = table.x
    return np.concatenate([x, np.nextafter(x[1:], -np.inf), np.nextafter(x[:-1], np.inf),
                           0.5 * (x[1:] + x[:-1])])


def test_locator_matches_searchsorted(locator_table):
    t = locator_table
    pts = _probe_points(t)
    i, dx = t._pieces.locate(pts, np.log(pts))
    knots = np.log(t.x)
    expected = np.minimum(np.searchsorted(knots, np.log(pts), "right") - 1, t.n_nodes - 2)
    assert np.array_equal(i, expected)
    assert np.array_equal(dx, np.log(pts) - knots[expected])
    assert t._pieces.n_steps <= 3


def test_queries_bit_identical_to_pchip(locator_table):
    t = locator_table
    pts = _probe_points(t)
    V_ref, c_ref, pi_ref = pchip_policy(t, pts)
    c, pi = policy_at(t, pts)
    assert np.array_equal(value_at(t, pts), V_ref)
    assert np.array_equal(c, c_ref) and np.array_equal(pi, pi_ref)
    # the scalar form, on a spread of the same points
    for j in np.linspace(0, len(pts) - 1, 97).astype(int):
        assert value_at(t, float(pts[j])) == V_ref[j]
        assert policy_at(t, float(pts[j])) == (c_ref[j], pi_ref[j])


def test_queries_keep_input_shape(nh_table):
    xs = np.array([[120.0, 150.0], [300.0, 400.0]])
    c, pi = policy_at(nh_table, xs)
    assert c.shape == pi.shape == value_at(nh_table, xs).shape == xs.shape
    assert np.array_equal(c.ravel(), policy_at(nh_table, xs.ravel())[0])


def test_consumption_not_below_floor_just_above_boundary():
    """At span 1e4 the interpolated V_x and the bisected x* disagree by a
    hair; the slack-side rule max(V_x^(1/(p-1)), k x + l) keeps c on the floor."""
    t = _solve_table(*LOCATOR_TABLES["baseline-span1e4"])
    (x_star,) = t.x_star_list
    xs = np.linspace(x_star + 1e-10, x_star + 6e-7, 20_001)
    c, _ = policy_at(t, xs)
    assert np.all(c >= t.spec.k * xs + t.spec.l)


@pytest.mark.parametrize("span", [1e3, 1e4])
def test_collapsed_nodes_raise_typed_error(span):
    """At 16384 nodes the first wealth nodes coincide in ln x: invert
    still succeeds, queries raise ConvexityLoss naming the nodes."""
    t = _solve_table(dict(k=0.02, l=1.0), dict(span=span, n_nodes=16384))
    for query in (policy_at, value_at,
                  lambda t, x: _eval_into(TableFeedback(t), np.array([x, 2.0 * x]))):
        with pytest.raises(ConvexityLoss, match="fewer nodes or a smaller span"):
            query(t, 150.0)


def _bits(a):
    return a.view(np.uint64)


def test_eval_into_bit_identical_to_policy_at(locator_table):
    """One evaluator, reused across two arrays of one length and a third
    of another, gives the bits of policy_at and of scipy's PCHIP (c, pi
    and the returned V_x, and the returned first and second derivatives
    of ln V_x in ln x) at the end nodes, every knot, a few ulps either
    side of each x* and a scan just above it."""
    t = locator_table
    probes = [t.x]
    for x_star in t.x_star_list:
        probes.append(x_star + np.arange(-4, 5) * np.spacing(x_star))
        probes.append(np.linspace(x_star + 1e-10, x_star + 6e-7, 20_001))
    pts = np.concatenate(probes)
    pts = pts[(pts >= t.x[0]) & (pts <= t.x[-1])]
    feedback = TableFeedback(t)
    rng = np.random.default_rng(9)
    for q in (pts, rng.permutation(pts), pts[::7], pts):
        c, pi = np.empty_like(q), np.empty_like(q)
        with np.errstate(invalid="ignore", over="ignore"):
            V_x, slope, curv = feedback.eval_into(q, c, pi, np.empty_like(q))
        assert np.array_equal(_bits(V_x), _bits(pchip_vx(t, q)))
        slope_ref, curv_ref = pchip_log_vx_derivatives(t, q)
        assert np.array_equal(_bits(slope), _bits(slope_ref))
        assert np.array_equal(_bits(curv), _bits(curv_ref))
        c_ref, pi_ref = policy_at(t, q)
        assert np.array_equal(_bits(c), _bits(c_ref))
        assert np.array_equal(_bits(pi), _bits(pi_ref))
        _, c_pchip, pi_pchip = pchip_policy(t, q)
        assert np.array_equal(_bits(c), _bits(c_pchip))
        assert np.array_equal(_bits(pi), _bits(pi_pchip))


@pytest.mark.parametrize("where", ["low", "high", "nan"])
def test_out_of_range_names_the_query(nh_table, where):
    """policy_at, value_at and eval_into refuse the same query with the
    same message: the lowest (or highest) offending wealth, or NaN, and
    the table's range."""
    t = nh_table
    lo, hi = float(t.x[0]), float(t.x[-1])
    bad, asked = {"low": ([lo - 1.0, lo - 2.0], repr(lo - 2.0)),
                  "high": ([1.5 * hi, 2.0 * hi], repr(2.0 * hi)),
                  "nan": ([math.nan, 200.0], "NaN")}[where]
    x = np.array([150.0] + bad)
    messages = set()
    for query in (policy_at, value_at, lambda t, x: _eval_into(TableFeedback(t), x)):
        with pytest.raises(OutOfRange) as info:
            query(t, x)
        messages.add(str(info.value))
    (message,) = messages
    assert message.startswith(f"wealth query {asked} outside table range [{lo!r}, {hi!r}]")


def test_binding_lane_gets_floor_when_candidate_overflows(spec_nh):
    """With V_x near 1e-200 the candidate V_x^(1/(p-1)) = V_x^-2 is inf;
    binding lanes still get the floor (zero times inf would be NaN), and
    slack lanes keep the candidate, as policy_at does."""
    x = np.linspace(101.0, 110.0, 10)
    t = PolicyTable(spec=spec_nh, x=x, V=np.arange(1.0, 11.0),
                    V_x=np.geomspace(1e-200, 1e-210, 10), V_xx=-np.ones(10),
                    c_star=np.ones(10), pi_star=np.ones(10), region=np.full(10, "C"),
                    x_star_list=(106.0,))
    q = np.array([102.5, 105.0, 107.5, 109.0])
    c, _ = _eval_into(TableFeedback(t), q)
    binds = q <= 106.0
    assert np.array_equal(c[binds], spec_nh.k * q[binds] + spec_nh.l)
    assert np.all(c[~binds] == np.inf)
    with np.errstate(over="ignore"):
        assert np.array_equal(c, policy_at(t, q)[0])

