"""Primal value function and feedback policy recovered from the dual grid.

Node-wise the Legendre transform inverts exactly:

    x = -v_y(y),  V(x) = v(y) - y v_y(y),  V_x(x) = y,
    V_xx(x) = -1 / v_yy(y),
    c*(x) = max(y^(1/(p-1)), k x + l),
    pi*(x) = (mu / sigma^2) y v_yy(y).

The primal grid is the image of the dual grid (non-uniform in x, finest
where V_x varies fastest, near x_e); there is no re-gridding.  Between
nodes, V and ln V_x are interpolated by monotone cubics in ln x
(Fritsch-Carlson PCHIP), and c and pi are recomputed from the
interpolated derivatives: pi from d ln V_x / d ln x, and c by the same
rule as at the nodes, c = max(V_x^(1/(p-1)), k x + l), with the floor
taken outright wherever the refined free boundaries say it binds, so
the kink stays exact.  Queries outside the node range are refused
rather than extrapolated.

The cubic pieces are computed once per table, on the first query, by
dual_solver.pchip_coefficients, which repeats the operations of scipy's
PchipInterpolator, and are evaluated in the operation order of scipy's
PPoly; the tests check the values against scipy bit for bit.  A
query's piece is found without a binary search: the dual grid is
uniform in ln y, so the nodes are nearly uniform in u = ln(x - x_e).
A bucket table over u gives a starting node, and a fixed number of
forward comparisons against the ln x knots, worked out from the table
when it is built, lands on the piece
np.searchsorted(ln x_nodes, ln x, "right") - 1 would pick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dual_solver import DualGrid, find_free_boundary, pchip_coefficients
from .errors import ConvexityLoss, OutOfRange
from .params import ProblemSpec

__all__ = ["PolicyTable", "RegionPartition", "invert", "value_at", "policy_at", "regions"]

REGION_CONSTRAINED = "C"
REGION_UNCONSTRAINED = "U"


@dataclass(eq=False)
class PolicyTable:
    """Tabulated optimal value and feedback policy on wealth nodes x > x_e.

    region holds "C" where the consumption floor binds and "U" where it
    is slack; x_star_list carries the refined region boundaries in
    increasing order.  Treat instances as immutable.
    """

    spec: ProblemSpec
    x: np.ndarray
    V: np.ndarray
    V_x: np.ndarray
    V_xx: np.ndarray
    c_star: np.ndarray
    pi_star: np.ndarray
    region: np.ndarray
    x_star_list: tuple[float, ...] = field(default=())

    def __post_init__(self):
        for name in ("x", "V", "V_x", "V_xx", "c_star", "pi_star"):
            arr = np.array(getattr(self, name), dtype=float)  # own the data
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "region", np.array(self.region))
        object.__setattr__(self, "x_star_list", tuple(float(v) for v in self.x_star_list))

    @property
    def n_nodes(self) -> int:
        return len(self.x)

    @cached_property
    def _pieces(self) -> _Pieces:
        return _Pieces(self)

    def _check_range(self, x: np.ndarray):
        # written so that NaN fails too; the locator cannot place it
        if not (np.all(x >= self.x[0]) and np.all(x <= self.x[-1])):
            raise OutOfRange(
                f"wealth query outside table range [{self.x[0]}, {self.x[-1]}]; "
                "enlarge the dual solve domain instead of extrapolating")

    def floor_binds(self, x) -> np.ndarray:
        """True where x lies in a constrained interval (boundaries from
        the refined x_star values, not the nodal flags)."""
        x = np.asarray(x, dtype=float)
        starts_constrained = bool(self.region[0] == REGION_CONSTRAINED)
        binds = np.full(np.shape(x), starts_constrained, dtype=bool)
        for x_star in self.x_star_list:
            binds ^= x > x_star
        return binds


# buckets per interval in the locator's table; more buckets mean fewer
# nodes per bucket, so fewer comparisons per query
_BUCKETS_PER_PIECE = 2
# bucket-coordinate margin that absorbs rounding in ln(x - x_e)
_BUCKET_SLACK = 1e-6
# differentiating a cubic's rows a[1:] multiplies them by their powers
_POWERS = np.array([[1.0], [2.0], [3.0]])


class _Pieces:
    """PCHIP pieces of V and ln V_x in s = ln x, and their interval locator.

    Coefficient rows are stored lowest power first: piece i evaluates
    a[0][i] + a[1][i] dx + a[2][i] dx^2 + a[3][i] dx^3 at dx = s - knots[i].
    """

    def __init__(self, table: PolicyTable):
        x, x_e = table.x, table.spec.x_e
        s = np.log(x)
        collapsed = np.flatnonzero(np.diff(s) <= 0.0) + 1
        if collapsed.size:
            shown = ", ".join(f"{j} (x={float(x[j])!r})" for j in collapsed[:5])
            raise ConvexityLoss(
                f"{collapsed.size} wealth node(s) coincide with the node below in ln x: "
                f"{shown}{', ...' if collapsed.size > 5 else ''}; "
                "solve with fewer nodes or a smaller span")
        if not x[0] > x_e:
            raise ConvexityLoss(f"first wealth node {float(x[0])!r} not above x_e = {x_e!r}")
        self.knots = s
        self.value = pchip_coefficients(s, table.V)
        self.log_vx = pchip_coefficients(s, np.log(table.V_x))
        self.slope = self.log_vx[1:] * _POWERS

        # bucket b holds the queries whose coordinate f = (u - u_0) / h
        # truncates to b; its start is the last node sure to lie below them
        self.last = len(x) - 2
        self.x_e = x_e
        u = np.log(x - x_e)
        self.u0 = u[0]
        self.inv_h = _BUCKETS_PER_PIECE * (len(x) - 1) / (u[-1] - u[0])
        f = (u - self.u0) * self.inv_h
        edges = np.arange(int(f[-1] + _BUCKET_SLACK) + 1)
        below = np.searchsorted(f, edges - _BUCKET_SLACK, "left")
        self.start = np.maximum(below - 1, 0)
        # the piece can lie one node past the bucket when ln x rounds
        # onto the next knot, hence no - 1 on the upper end
        upper = np.minimum(np.searchsorted(f, edges + 1.0 + _BUCKET_SLACK, "left"), self.last)
        self.n_steps = int(np.max(upper - self.start))
        self.next_knot = np.append(s[1:], np.inf)  # i stops at the last node

    def locate(self, x: np.ndarray, s: np.ndarray):
        """Piece index and offset dx = s - knot for in-range 1-d x, s = ln x."""
        f = np.log(x - self.x_e)
        f -= self.u0
        f *= self.inv_h
        i = self.start[f.astype(np.intp)]
        for _ in range(self.n_steps):
            i += self.next_knot[i] <= s
        np.minimum(i, self.last, out=i)
        return i, s - self.knots[i]

    @staticmethod
    def cubic(a: np.ndarray, i: np.ndarray, dx: np.ndarray) -> np.ndarray:
        dx2 = dx * dx
        return a[0][i] + a[1][i] * dx + a[2][i] * dx2 + a[3][i] * (dx2 * dx)

    @staticmethod
    def quadratic(a: np.ndarray, i: np.ndarray, dx: np.ndarray) -> np.ndarray:
        return a[0][i] + a[1][i] * dx + a[2][i] * (dx * dx)


def invert(spec: ProblemSpec, grid: DualGrid) -> PolicyTable:
    """Map a converged dual grid to the primal policy table.

    Nodes are reversed so wealth increases.  Raises ConvexityLoss when
    the dual input is not strictly convex (V would not be concave).
    """
    if np.any(grid.v_yy <= 0.0):
        raise ConvexityLoss("v_yy <= 0: dual grid is not strictly convex")
    order = slice(None, None, -1)
    y = grid.y[order]
    v = grid.v[order]
    v_y = grid.v_y[order]
    v_yy = grid.v_yy[order]

    x = -v_y
    if np.any(np.diff(x) <= 0.0):
        raise ConvexityLoss("wealth nodes x = -v_y not strictly increasing")
    V = v - y * v_y
    V_x = y
    V_xx = -1.0 / v_yy
    floor = spec.k * x + spec.l
    candidate = y ** (1.0 / (spec.p - 1.0))
    c_star = np.maximum(candidate, floor)
    pi_star = (spec.mu / spec.sigma**2) * y * v_yy
    region = np.where(candidate <= floor, REGION_CONSTRAINED, REGION_UNCONSTRAINED)

    if np.any(np.diff(V) <= 0.0):
        raise ConvexityLoss("primal value not strictly increasing across nodes")

    x_star_list = tuple(xs for _, xs in find_free_boundary(spec, grid))
    return PolicyTable(spec=spec, x=x, V=V, V_x=V_x, V_xx=V_xx,
                       c_star=c_star, pi_star=pi_star, region=region,
                       x_star_list=x_star_list)


def value_at(table: PolicyTable, x):
    """Interpolated value V(x) inside the table range."""
    x_arr = np.asarray(x, dtype=float)
    table._check_range(x_arr)
    pieces = table._pieces
    flat = x_arr.ravel()
    i, dx = pieces.locate(flat, np.log(flat))
    out = pieces.cubic(pieces.value, i, dx).reshape(x_arr.shape)
    return float(out) if np.ndim(x) == 0 else out


def policy_at(table: PolicyTable, x):
    """Feedback (c, pi) at wealth x, recomputed from interpolated V_x, V_xx.

    Where the refined free boundaries put x in a constrained interval,
    c is the floor k x + l; elsewhere c = max(V_x^(1/(p-1)), k x + l), so
    c never dips below the floor when the interpolated V_x and the
    bisected boundary disagree by a hair.
    """
    spec = table.spec
    x_arr = np.asarray(x, dtype=float)
    table._check_range(x_arr)
    pieces = table._pieces
    flat = x_arr.ravel()
    i, dx = pieces.locate(flat, np.log(flat))
    V_x = np.exp(pieces.cubic(pieces.log_vx, i, dx))
    slope = pieces.quadratic(pieces.slope, i, dx)  # d ln V_x / d ln x, < 0
    if np.any(slope >= 0.0):
        raise ConvexityLoss("interpolated V_x not strictly decreasing")
    floor = spec.k * flat + spec.l
    candidate = V_x ** (1.0 / (spec.p - 1.0))
    c = np.where(table.floor_binds(flat), floor, np.maximum(candidate, floor))
    pi = -(spec.mu / spec.sigma**2) * flat / slope
    if np.ndim(x) == 0:
        return float(c[0]), float(pi[0])
    return c.reshape(x_arr.shape), pi.reshape(x_arr.shape)


@dataclass(frozen=True)
class RegionPartition:
    """Maximal constrained / unconstrained intervals covering (x_e, x_max]."""

    intervals: tuple[tuple[float, float, str], ...]
    n_constrained: int
    n_unconstrained: int

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)


def regions(table: PolicyTable) -> RegionPartition:
    """Partition the covered wealth range by the refined free boundaries.

    No uniqueness of the boundary is assumed: every crossing found on
    the grid produces an interval break.
    """
    lows = (table.spec.x_e,) + table.x_star_list
    highs = table.x_star_list + (float(table.x[-1]),)
    label = table.region[0]
    intervals = []
    for lo, hi in zip(lows, highs):
        intervals.append((float(lo), float(hi), str(label)))
        label = REGION_CONSTRAINED if label == REGION_UNCONSTRAINED else REGION_UNCONSTRAINED
    n_c = sum(1 for iv in intervals if iv[2] == REGION_CONSTRAINED)
    return RegionPartition(intervals=tuple(intervals), n_constrained=n_c,
                           n_unconstrained=len(intervals) - n_c)
