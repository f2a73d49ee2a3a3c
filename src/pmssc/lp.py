"""Bounded-variable simplex for small dense packing programs, with a warm start.

The solver maximizes ``c . x`` subject to packing rows ``a . x <= b`` with
``b >= 0`` and box bounds ``0 <= x <= hi`` (``hi`` may be infinite), the shape
of every PMC relaxation; ``LinearProgram`` rejects any other shape. Nonbasic
variables sit at either bound; the implementation keeps every nonbasic
variable at zero by complementing columns in place (the classic upper-bound
"flip" trick).

At x = 0 every slack is basic at its row's rhs, so a cold solve runs one
phase from that feasible slack basis (Bixby, Oper. Res. 2002) and reports
``optimal`` or ``unbounded``. Pivoting is primal steepest edge (Goldfarb &
Reid, Math. Programming 1977) with a switch to Bland's rule after ``10 *
(rows + cols)`` degenerate steps, and prices only live columns: a column
whose range is [0, 0] (an infinite-cost pair, or a closed set) never enters
or flips. One engine runs on float64 arrays with a pivot tolerance cascade,
or on ``Fraction`` object arrays with zero tolerance; both share one tableau
layout, one pricing rule and one vectorised ratio test (ties to the lowest
variable index). The tableau is
``T = [M | b ; r | -z]``: M = B^-1 [A | I], the basic values b, the reduced
costs r = c - c_B M and minus the objective value z, so one rank-1 update per
pivot moves all four, and a flip negates a whole column, r included. A float
pivot updates T in place, through one scratch array of two T-shaped planes
that is allocated with the tableau and kept with it (a warm start reuses it),
so no pivot allocates anything of the tableau's size; an exact pivot updates
only the rows with a nonzero multiplier, as ``Fraction`` products are slow
(Bixby, Oper. Res. 2002). ``verify=True`` re-solves exactly from the float
basis (Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 2007): the exact
tableau ``[A | I | rhs ; c | 0 | 0]`` takes the float run's flips and basis,
which must be exactly feasible, and the simplex pivots on until every exact
live reduced cost is <= 0 (no pivot when the float basis is optimal). The vertex
returned is thus exactly feasible and exactly optimal.

A ``WarmStart`` holder passed as ``warm`` keeps the last optimal float
tableau. When the next program has exactly the same objective, bounds and
coefficient rows, and differs only in its right-hand sides, the stored basis
is still dual feasible: the rhs change enters through the slack columns
(``b += B^-1 . change``), a bounded dual simplex (Koberstein, "The dual
simplex method", 2005) restores primal feasibility, leaving by dual steepest
edge over both bounds (Forrest & Goldfarb, Math. Programming 1992) and
entering by the Harris two-pass ratio test (Harris, Math. Programming 1973),
and the primal simplex finishes as in a cold solve. Any other program, and any numerical trouble on
the warm path, solves cold; ``verify=True`` re-solves exactly from the warm
basis just as from a cold one. A warm start may stop at another optimal vertex
than a cold solve where the optimum is not unique. ``LinearProgram.with_rhs``
makes such a program, sharing every other part and its float arrays.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .core import as_fraction
from .errors import DomainError, NumericalFailureError

LESS_EQUAL = "<="

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` over packing rows ``(coeffs, "<=", rhs >= 0)``
    and bounds ``(0, hi)``; any other shape raises ``DomainError`` (exactly)."""

    objective: Tuple
    constraints: Tuple[Tuple[Tuple, str, object], ...]
    bounds: Tuple[Tuple[object, object], ...]

    def __post_init__(self):
        nv = len(self.objective)
        for coeffs, relation, _rhs in self.constraints:
            if len(coeffs) != nv:
                raise ValueError("constraint arity mismatch")
            if relation != LESS_EQUAL:
                raise DomainError("LP rows must be '<=' rows, not %r" % (relation,))
        _check_rhs(rhs for _, _, rhs in self.constraints)
        if len(self.bounds) != nv:
            raise ValueError("need one bound pair per variable")
        if any(lo != 0 for lo, _ in self.bounds):
            raise DomainError("LP lower bounds must be 0")
        if any(hi < 0 for _, hi in self.bounds):
            raise ValueError("bounds must satisfy 0 <= hi")
        try:
            self._floats
        except OverflowError:
            name = next(name for name, value in self._entries() if not _fits_float(value))
            raise DomainError("LP %s lies outside the float range" % name) from None

    @cached_property
    def _floats(self):
        """(objective, rows, rhs, hi) as float64 arrays, converted once."""
        nv, nrows = len(self.objective), len(self.constraints)
        return (
            np.array(self.objective, dtype=float),
            np.array([row for row, _, _ in self.constraints], dtype=float).reshape(nrows, nv),
            np.array([rhs for _, _, rhs in self.constraints], dtype=float),
            np.array([hi for _, hi in self.bounds], dtype=float),
        )

    def with_rhs(self, rhs) -> "LinearProgram":
        """This program at the right-hand sides ``rhs``. The copy shares the
        objective, bounds and coefficient rows, float arrays included, so
        only ``rhs`` is checked and converted."""
        _check_rhs(rhs)
        try:
            rhs_floats = np.array(rhs, dtype=float)
        except OverflowError:
            raise DomainError("LP right-hand side lies outside the float range") from None
        program = copy.copy(self)
        pairs = zip(self.constraints, rhs, strict=True)
        object.__setattr__(program, "constraints", tuple((a, rel, r) for (a, rel, _), r in pairs))
        objective, rows, _, hi = self._floats
        program.__dict__["_floats"] = (objective, rows, rhs_floats, hi)
        return program

    def _entries(self):
        """(name, value) of every coefficient, rhs and upper bound, in the order
        the LP text format writes them."""
        for j, a in enumerate(self.objective):
            yield "objective coefficient %d" % j, a
        for i, (coeffs, _, rhs) in enumerate(self.constraints):
            for j, a in enumerate(coeffs):
                yield "constraint %d coefficient %d" % (i, j), a
            yield "constraint %d right-hand side" % i, rhs
        for j, (_, hi) in enumerate(self.bounds):
            yield "upper bound of x%d" % j, hi


def _check_rhs(rhs):
    if any(r < 0 for r in rhs):
        raise DomainError("LP right-hand sides must be >= 0")


def _fits_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


@dataclass(frozen=True)
class LpSolution:
    values: Tuple
    objective_value: object
    status: str


class _NumericTrouble(Exception):
    pass


class _Unbounded(Exception):
    pass


def _pivot(T, basis, i, j, W=None):
    """Pivot on T[i, j]; one rank-1 update moves M, b, r and -z together. A
    float tableau passes its scratch ``W``, two planes of T's shape, and is
    updated in place; an exact one updates its nonzero rows."""
    T[i] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0
    if W is None:
        rows = col.nonzero()[0]
        T[rows] -= col[rows, None] * T[i]
    else:
        # The planes are filled by assignment: a broadcast operand in the
        # product itself would make numpy buffer it, 64 KB per pivot.
        rows, cols = W
        rows[...] = T[i]
        cols[...] = col[:, None]
        T -= np.multiply(cols, rows, out=rows)
    T[:, j] = 0
    T[i, j] = 1
    basis[i] = j


def _flip_nonbasic(T, u, flipped, j):
    """Move nonbasic column j to its other bound: x_j becomes u_j - x_j."""
    T[:, -1] -= T[:, j] * u[j]
    T[:, j] = -T[:, j]
    flipped[j] = not flipped[j]


def _complement_basic(T, u, basis, flipped, i):
    """Replace the basic variable z of row i (or rows i) by its complement u - z.
    The vertex stays where it is, so the objective row does too."""
    bc = basis[i]
    T[i] = -T[i]
    T[i, bc] = 1
    T[i, -1] += u[bc]
    flipped[bc] = ~flipped[bc]


def _optimize(T, u, basis, flipped, tol, bland_after, W=None):
    """Run primal iterations until no live reduced cost exceeds tol (0: exact
    ties); ``W`` is a float tableau's pivot scratch.

    A column is live when its range is not [0, 0]; a fixed column never
    enters. The entering column is the live one of largest r_j^2 / (1 +
    |M_j|^2) over r_j > tol: primal steepest edge (Goldfarb & Reid, Math.
    Programming 1977), whose weight 1 + |B^-1 a_j|^2 is read exactly from
    the tableau's column, so no update recurrence is kept. Weights within a
    relative ``tie`` of the largest go to the lowest index, so rounding
    noise between equal columns does not decide.
    """
    M, b, r = T[:-1, :-1], T[:-1, -1], T[-1, :-1]
    nrows, ncols = M.shape
    live = u > 0
    tie = 1e-12 if tol else 0
    degenerate = 0
    for _ in range(2000 + 200 * (nrows + ncols)):
        # r is 0 on every basic column: each pivot writes its column as a unit vector
        entering = ((r > tol) & live).nonzero()[0]
        if entering.size == 0:
            return
        if degenerate > bland_after:
            j = int(entering[0])
        else:
            cols, rj = M[:, entering], r[entering]
            weight = rj * rj / (1 + np.einsum("ij,ij->j", cols, cols))
            j = int(entering[(weight >= weight.max() * (1 - tie)).argmax()])
        # Ratio test over the rows whose basic variable bounds the step and column
        # j's own flip (u[j], inf if unbounded); ties within `tie` go to the lowest variable.
        col, ub = M[:, j], u[basis]
        rows = ((col > tol) | ((col < -tol) & (ub < math.inf))).nonzero()[0]
        a = col[rows]
        theta = np.where(a > 0, b[rows], ub[rows] - b[rows]) / np.abs(a)
        if not rows.size and u[j] == math.inf:
            raise _Unbounded()
        cut = min(theta.min(initial=math.inf), u[j])
        tied = (theta <= cut + tie).nonzero()[0]
        pick = tied[basis[rows[tied]].argmin()] if tied.size else None
        if u[j] <= cut + tie and (pick is None or j < basis[rows[pick]]):
            i, step = -1, u[j]
        else:
            i, step = int(rows[pick]), theta[pick]
        if step <= tol:
            degenerate += 1
        if i < 0:
            _flip_nonbasic(T, u, flipped, j)
        else:
            if col[i] < 0:
                _complement_basic(T, u, basis, flipped, i)
            _pivot(T, basis, i, j, W)
    raise _NumericTrouble("iteration limit exceeded")


def _dual_simplex(T, u, basis, flipped, tol, W):
    """Bounded dual simplex from a dual feasible basis until 0 <= b <= u (within tol).

    The leaving row is chosen by dual steepest edge (Forrest & Goldfarb, Math.
    Programming 1992): among the rows with b_i < -tol or b_i > u_i + tol, the
    one of largest violation^2 / |row i of B^-1|^2. B^-1 is the tableau's
    slack block, so each weight is exact and needs no update formula. A
    leaving variable above its bound is complemented, which leaves every
    reduced cost, its violation and its weight as they were and puts it below
    zero. The entering column is chosen among the live columns whose row
    entry lies below -tol by the Harris two-pass ratio test (Harris, Math.
    Programming 1973): theta_max is the least (|r_j| + tol) / |alpha_j|, and
    of the columns whose |r_j| / |alpha_j| is at most theta_max the one of
    largest |alpha_j| enters (ties to the lowest index), so a reduced cost
    <= 0 rises to at most tol and the pivot element is as large as that allows. A
    row with no such entry would prove the program infeasible, which a
    packing program never is (x = 0 is feasible), so it is numerical trouble
    and the caller solves cold.
    """
    M, b, r = T[:-1, :-1], T[:-1, -1], T[-1, :-1]
    nrows, ncols = M.shape
    if not nrows:
        return
    inverse = M[:, ncols - nrows :]
    live = u > 0
    for _ in range(2000 + 200 * (nrows + ncols)):
        violation = np.maximum(-b, b - u[basis])
        infeasible = (violation > tol).nonzero()[0]
        if infeasible.size == 0:
            return
        rows = inverse[infeasible]
        i = int(infeasible[(violation[infeasible] ** 2 / np.einsum("ij,ij->i", rows, rows)).argmax()])
        if b[i] > 0:  # above its bound; below it b_i < -tol
            _complement_basic(T, u, basis, flipped, i)
        row = M[i]
        entering = ((row < -tol) & live).nonzero()[0]
        if entering.size == 0:
            raise _NumericTrouble("dual simplex found no entering column")
        alpha, d = -row[entering], np.abs(r[entering])
        fits = d / alpha <= ((d + tol) / alpha).min()
        j = int(entering[np.where(fits, alpha, 0).argmax()])
        _pivot(T, basis, i, j, W)
    raise _NumericTrouble("dual simplex iteration limit exceeded")


def _fraction(value):
    """Exact value of a coefficient; an infinite upper bound stays ``math.inf``."""
    return value if value == math.inf else as_fraction(value)


def _tableau(lp: LinearProgram, num):
    """The tableau ``[A | I | rhs ; c | 0 | 0]`` on the slack basis, and the
    column ranges (``hi``, then inf per slack).

    ``num`` is ``float`` (float64 arrays, from the program's converted
    arrays) or ``_fraction`` (object arrays of ``Fraction``; slack
    coefficients too, so no division falls back to float).
    """
    nv, nrows = len(lp.objective), len(lp.constraints)
    if num is float:
        objective, rows, rhs, hi = lp._floats
        dtype = float
    else:
        objective = [num(c) for c in lp.objective]
        rows = [[num(a) for a in coeffs] for coeffs, _, _ in lp.constraints]
        rhs = [num(rhs) for _, _, rhs in lp.constraints]
        hi = np.array([num(hi) for _, hi in lp.bounds], dtype=object)
        dtype = object
    T = np.full((nrows + 1, nv + nrows + 1), num(0), dtype=dtype)
    for i in range(nrows):
        T[i, :nv] = rows[i]
        T[i, nv + i] = num(1)
    T[:nrows, -1] = rhs
    T[nrows, :nv] = objective
    u = np.concatenate([hi, np.full(nrows, math.inf, dtype=dtype)])
    return T, u


def _vertex(T, u, basis, flipped, nv):
    """Structural values of the basic solution (flipped columns at u - z)."""
    z = np.zeros(len(u), dtype=T.dtype)
    z[basis] = T[:-1, -1]
    z[flipped] = u[flipped] - z[flipped]
    return z[:nv]


def _cold_start(lp: LinearProgram):
    """The tableau ``(T, u, basis, flipped, W)`` on the slack basis, where
    each row's slack is basic at its rhs (>= 0) and every column is at 0; ``W``
    is the pivot scratch, two planes of T's shape."""
    T, u = _tableau(lp, float)
    nrows, ncols = T.shape[0] - 1, T.shape[1] - 1
    basis, flipped = np.arange(ncols - nrows, ncols), np.zeros(ncols, dtype=bool)
    return T, u, basis, flipped, np.empty((2,) + T.shape)


def _warm_start(lp: LinearProgram, rhs_before, tableau, tol: float):
    """``tableau``, optimal for the right-hand sides ``rhs_before``, made
    primal feasible again for ``lp``'s by the bounded dual simplex.

    Row i's slack column holds column i of B^-1, and its objective entry
    minus the row's dual value, so b and -z move by T[:, slacks] @ change.
    """
    T, u, basis, flipped, W = tableau
    change = lp._floats[2] - rhs_before
    if change.any():
        T[:, -1] += T[:, len(lp.objective) : -1] @ change
    _dual_simplex(T, u, basis, flipped, tol, W)
    return tableau


def _solve_floats(lp: LinearProgram, tol: float, start=None):
    """Float optimum from a cold start, or from ``start = (rhs_before, tableau)``.

    Returns the vertex and the final tableau.
    """
    tableau = _cold_start(lp) if start is None else _warm_start(lp, *start, tol)
    T, u, basis, flipped, W = tableau
    nv, nrows = len(lp.objective), len(lp.constraints)
    _optimize(T, u, basis, flipped, tol, 10 * (nv + 2 * nrows), W)
    _, rows, rhs, hi = lp._floats
    x = _vertex(T, u, basis, flipped, nv)

    # Feasibility backstop: bounds within 1e-9, row residuals within 1e-8.
    if np.any(x < -1e-9) or np.any(x > hi + 1e-9):
        raise _NumericTrouble("bound violation")
    x = np.clip(x, 0, hi)
    resid = rows @ x - rhs
    over = np.flatnonzero(resid > 1e-8)
    if over.size:
        raise _NumericTrouble("constraint residual %g" % resid[over[0]])

    return x, tableau


def _solve_exact(lp: LinearProgram, basis, flipped):
    """Rational simplex from the float run's final flips and basis."""
    T, u = _tableau(lp, _fraction)
    nrows, ncols = T.shape[0] - 1, T.shape[1] - 1
    nv = ncols - nrows
    exact_flipped = np.zeros(ncols, dtype=bool)
    for j in np.flatnonzero(flipped):
        _flip_nonbasic(T, u, exact_flipped, j)
    # Start from the slack basis and pivot each other float-basic column into a
    # row whose slack leaves; a nonsingular basis always has such a row.
    exact_basis = np.arange(nv, nv + nrows)
    target = set(basis)
    for j in sorted(target - set(exact_basis)):
        free = [i for i in range(nrows) if exact_basis[i] not in target and T[i, j] != 0]
        if not free:
            raise _NumericTrouble("float basis is singular in exact arithmetic")
        _pivot(T, exact_basis, free[0], j)
    b = T[:-1, -1]
    if any(v < 0 for v in b) or any(v > u[j] for v, j in zip(b, exact_basis)):
        raise _NumericTrouble("float basis is not exactly feasible")
    _optimize(T, u, exact_basis, exact_flipped, 0, 10 * (nrows + ncols))
    return _vertex(T, u, exact_basis, exact_flipped, nv)


class WarmStart:
    """The last optimal float tableau that ``solve_lp`` reached with this holder.

    One holder serves a run of programs that differ only in their right-hand
    sides, such as one budget ladder. ``solve_lp`` empties it when a solve
    starts and refills it when a solve succeeds.
    """

    def __init__(self):
        self.lp = None  # the program last solved; None while empty
        self.tol = None  # the pivot tolerance it was solved at
        self.tableau = None  # its optimal (T, u, basis, flipped, W)

    def take(self, lp: LinearProgram):
        """Empty the holder; return ``(tol, (rhs_before, tableau))`` when ``lp``
        has exactly the stored program's objective, bounds and coefficient
        rows, else None."""
        last, self.lp = self.lp, None
        if (
            last is None
            or last.objective != lp.objective
            or last.bounds != lp.bounds
            or len(last.constraints) != len(lp.constraints)
            or any(ca != cb for (ca, _, _), (cb, _, _) in zip(last.constraints, lp.constraints))
        ):
            return None
        return self.tol, (last._floats[2], self.tableau)


def solve_lp(
    lp: LinearProgram, verify: bool = False, warm: Optional[WarmStart] = None
) -> LpSolution:
    """Solve to optimality, or report unbounded.

    With ``verify=True`` the values and objective are exact rationals of a
    vertex that is exactly feasible and has exact live reduced costs <= 0; a float
    basis that is not exactly feasible moves on to the next tolerance, and
    ``NumericalFailureError`` is raised when none is left.

    With a ``warm`` holder that matches ``lp`` (see the module docstring) the
    float solve first starts from the holder's tableau at its tolerance; if
    that path meets numerical trouble, the cold cascade follows.
    """
    attempts = [(1e-9, None), (1e-7, None)]
    saved = warm.take(lp) if warm is not None else None
    if saved is not None:
        attempts.insert(0, saved)
    last_trouble = None
    for tol, start in attempts:
        try:
            x, tableau = _solve_floats(lp, tol, start)
            if verify:
                x = _solve_exact(lp, tableau[2], tableau[3])
        except _Unbounded:
            if start is None:
                return LpSolution((), None, UNBOUNDED)
            last_trouble = _NumericTrouble("warm solve reported unbounded")
            continue
        except _NumericTrouble as exc:
            last_trouble = exc
            continue
        if warm is not None:
            warm.lp, warm.tol, warm.tableau = lp, tol, tableau
        if verify:
            values = tuple(map(as_fraction, x))
            objective = sum(map(operator.mul, map(as_fraction, lp.objective), values), Fraction(0))
        else:
            values = tuple(x.tolist())
            objective = float(sum(map(operator.mul, lp._floats[0].tolist(), values)))
        return LpSolution(values, objective, OPTIMAL)
    raise NumericalFailureError("pivot tolerance cascade failed: %s" % last_trouble)


def lp_upper_bounds_ilp(lp_solution: LpSolution, ilp_opt) -> bool:
    """True when the relaxation objective dominates the integral optimum."""
    if lp_solution.status != OPTIMAL:
        return False
    return float(lp_solution.objective_value) >= float(ilp_opt) - 1e-6


def to_lp_format(lp: LinearProgram) -> str:
    """Render in the industry-standard LP text format (for manual cross-checks).

    Every number is written as the shortest text that reads back as its
    float value, so the dump is the program the float solve works on.
    """

    def num(a):
        return repr(float(a))

    def linear(coeffs):
        text = " ".join(
            "%s %s x%d" % ("+" if float(a) >= 0 else "-", num(abs(float(a))), j)
            for j, a in enumerate(coeffs)
            if float(a) != 0.0
        )
        return text[2:] if text.startswith("+ ") else text or "0 x0"

    lines = ["\\ pmssc", "Maximize", " obj: %s" % linear(lp.objective), "Subject To"]
    for i, (coeffs, relation, rhs) in enumerate(lp.constraints):
        lines.append(" c%d: %s %s %s" % (i, linear(coeffs), relation, num(rhs)))
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(lp.bounds):
        hi_txt = "+inf" if float(hi) == math.inf else num(hi)
        lines.append(" %s <= x%d <= %s" % (num(lo), j, hi_txt))
    lines.append("End")
    return "\n".join(lines) + "\n"
