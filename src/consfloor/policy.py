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

The feedback has one evaluation path, TableFeedback.eval_into(x, c, pi,
scratch), which writes (c, pi) into caller arrays, returns the
interpolated V_x and the first two derivatives of ln V_x in ln x it
computes on the way (the simulator's control variate uses them), and
keeps its work arrays between calls: the simulator calls it once per
step.  policy_at is an allocating wrapper around it.  Each query
gathers its piece's four coefficients of ln V_x in one take; the
derivative rows a1, 2 a2, 3 a3 and 2 a2, 6 a3 come from those (the
products by 2, 3 and 6 round as they would on the differentiated
rows), and binding lanes get the floor through a mask rather than a
branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dual_solver import DualGrid, find_free_boundary, pchip_coefficients
from .errors import ConvexityLoss, OutOfRange
from .params import ProblemSpec

__all__ = ["PolicyTable", "RegionPartition", "TableFeedback", "invert", "value_at", "policy_at",
           "regions"]

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
        # one min and one max; NaN propagates into both and fails too
        lo = x.min(initial=math.inf)
        hi = x.max(initial=-math.inf)
        if not (lo >= self.x[0] and hi <= self.x[-1]):
            raise _out_of_range(lo, hi, self.x)

    def floor_binds(self, x) -> np.ndarray:
        """True where x lies in a constrained interval (boundaries from
        the refined x_star values, not the nodal flags)."""
        x = np.asarray(x, dtype=float)
        out = np.full(np.shape(x), self.region[0] == REGION_CONSTRAINED)
        for x_star in self.x_star_list:
            out ^= x > x_star
        return out


def _out_of_range(lo: float, hi: float, x: np.ndarray) -> OutOfRange:
    """The error for a query whose lowest and highest wealth are lo, hi."""
    if math.isnan(lo) or math.isnan(hi):
        asked = "NaN"
    elif lo < x[0]:
        asked = f"{float(lo)!r}"
    else:
        asked = f"{float(hi)!r}"
    return OutOfRange(
        f"wealth query {asked} outside table range [{float(x[0])!r}, {float(x[-1])!r}]; "
        "enlarge the dual solve domain instead of extrapolating")


# buckets per interval in the locator's table; more buckets mean fewer
# nodes per bucket, so fewer comparisons per query
_BUCKETS_PER_PIECE = 2
# bucket-coordinate margin that absorbs rounding in ln(x - x_e)
_BUCKET_SLACK = 1e-6


class _Pieces:
    """PCHIP pieces of V and ln V_x in s = ln x, and their interval locator.

    Each piece is one row (a0, a1, a2, a3), lowest power first, so that
    a query gathers its coefficients in one take (a 32-byte row, which
    numpy's take copies on a fast path); piece i evaluates
    a0 + a1 dx + a2 dx^2 + a3 dx^3 at dx = s - knots[i].
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
        self.value = np.ascontiguousarray(pchip_coefficients(s, table.V).T)
        self.log_vx = np.ascontiguousarray(pchip_coefficients(s, np.log(table.V_x)).T)

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
        # i stops at the last piece
        self.next_knot = np.append(s[1:-1], np.inf)

    def locate_into(self, x, s, i, dx, work, index, step):
        """Piece index i and offset dx = s - knots[i] for in-range 1-d x,
        s = ln x; work, index and step are float, intp and bool arrays
        of the same length."""
        np.subtract(x, self.x_e, out=work)
        np.log(work, out=work)
        work -= self.u0
        work *= self.inv_h
        np.copyto(index, work, casting="unsafe")  # truncates, as astype does
        # the indices are in bounds by construction; mode="clip" lets
        # take write into out without a temporary
        np.take(self.start, index, out=i, mode="clip")
        for _ in range(self.n_steps):
            np.take(self.next_knot, i, out=work, mode="clip")
            np.less_equal(work, s, out=step)
            i += step
        np.take(self.knots, i, out=dx, mode="clip")
        np.subtract(s, dx, out=dx)

    def locate(self, x: np.ndarray, s: np.ndarray):
        """Allocating form of locate_into: returns (i, dx)."""
        n = len(x)
        i = np.empty(n, dtype=np.intp)
        dx = np.empty(n)
        self.locate_into(x, s, i, dx, np.empty(n), np.empty(n, dtype=np.intp),
                         np.empty(n, dtype=bool))
        return i, dx


def _cubic_into(rows, dx, dx2, out, work):
    """out = a0 + a1 dx + a2 dx^2 + a3 dx^3 for gathered coefficient
    rows, in the operation order of scipy's PPoly."""
    a0, a1, a2, a3 = rows.T
    np.multiply(a1, dx, out=out)
    out += a0
    np.multiply(a2, dx2, out=work)
    out += work
    np.multiply(dx2, dx, out=work)
    work *= a3
    out += work


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
    out = np.empty_like(dx)
    _cubic_into(np.take(pieces.value, i, axis=0), dx, dx * dx, out, np.empty_like(dx))
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(x_arr.shape)


class TableFeedback:
    """The table's feedback law (c, pi) as a simulator policy.

    Calling it is policy_at(table, x), and value(x) is value_at(table,
    x), the V the simulator scores its runs against.  eval_into(x, c,
    pi, scratch) writes (c, pi) at a 1-d float64 x into c and pi,
    returns V_x and the first and second derivatives of ln V_x in ln x
    at x, which the simulator's hedge takes, and uses scratch and
    arrays of its own as work space; those are kept between calls and
    reallocated when len(x) changes, so an instance serves one caller
    at a time.  Run it with invalid-value warnings off (as policy_at and
    the simulator do): the floor mask multiplies an overflowed candidate
    by zero.
    """

    def __init__(self, table: PolicyTable):
        self.table = table
        self._n = -1

    def __call__(self, x):
        return policy_at(self.table, x)

    def eval_into(self, x, c, pi, scratch):
        """Write (c, pi) at x into c and pi and return (V_x, L1, L2) at
        x: V_x is exp of the interpolated ln V_x, and L1 and L2 are its
        first and second derivatives in ln x (scipy's PCHIP value and
        derivatives, bit for bit), in work arrays of the evaluator's that
        the next call overwrites."""
        table = self.table
        spec = table.spec
        table._check_range(x)
        pieces = table._pieces
        n = len(x)
        if n != self._n:
            self._n = n
            self._rows = np.empty((n, 4))
            self._work = np.empty((5, n))
            self._index = np.empty((2, n), dtype=np.intp)
            self._mask = np.empty((2, n), dtype=bool)
        rows = self._rows
        s, dx, dx2, V_x, curv = self._work
        index, i = self._index
        step, slack = self._mask

        np.log(x, out=s)
        pieces.locate_into(x, s, i, dx, dx2, index, step)
        np.take(pieces.log_vx, i, axis=0, out=rows, mode="clip")
        _, a1, a2, a3 = rows.T
        np.multiply(dx, dx, out=dx2)
        _cubic_into(rows, dx, dx2, pi, c)
        np.exp(pi, out=V_x)
        # derivatives in ln x from the same row, L1 = a1 + (2 a2) dx + (3 a3) dx^2
        # and L2 = 2 a2 + (6 a3) dx: the products by 2, 3 and 6 round as
        # on the differentiated rows
        np.multiply(a2, 2.0, out=curv)
        slope = np.multiply(curv, dx, out=s)
        slope += a1
        np.multiply(a3, 3.0, out=scratch)
        scratch *= dx2
        slope += scratch
        if slope.max(initial=-math.inf) >= 0.0:
            raise ConvexityLoss("interpolated V_x not strictly decreasing")
        np.multiply(a3, 6.0, out=scratch)
        scratch *= dx
        curv += scratch

        # c = floor where the refined boundaries say it binds, else
        # max(V_x^(1/(p-1)), floor): the candidate is zeroed on binding
        # lanes, and fmax drops the NaN that zero times inf gives
        candidate = np.power(V_x, 1.0 / (spec.p - 1.0), out=dx)
        # slack = not floor_binds: the first region's "U" flag, flipped at
        # each crossing below x
        crossings = table.x_star_list
        if crossings:
            first = np.greater if table.region[0] == REGION_CONSTRAINED else np.less_equal
            first(x, crossings[0], out=slack)
            for x_star in crossings[1:]:
                np.greater(x, x_star, out=step)
                slack ^= step
        else:
            slack.fill(table.region[0] != REGION_CONSTRAINED)
        candidate *= slack
        np.multiply(x, spec.k, out=c)
        c += spec.l
        np.fmax(candidate, c, out=c)
        np.multiply(x, -(spec.mu / spec.sigma**2), out=pi)
        pi /= slope
        return V_x, slope, curv

    def value(self, x):
        """V at x: value_at(table, x)."""
        return value_at(self.table, x)


def policy_at(table: PolicyTable, x):
    """Feedback (c, pi) at wealth x, recomputed from interpolated V_x, V_xx.

    Where the refined free boundaries put x in a constrained interval,
    c is the floor k x + l; elsewhere c = max(V_x^(1/(p-1)), k x + l), so
    c never dips below the floor when the interpolated V_x and the
    bisected boundary disagree by a hair.  An allocating wrapper around
    TableFeedback.eval_into.
    """
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.ravel()
    c = np.empty_like(flat)
    pi = np.empty_like(flat)
    with np.errstate(invalid="ignore"):
        TableFeedback(table).eval_into(flat, c, pi, np.empty_like(flat))
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
