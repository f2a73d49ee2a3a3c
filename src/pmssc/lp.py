"""Bounded-variable two-phase primal simplex for small dense programs.

The solver maximizes ``c . x`` subject to rows ``a . x <= b`` / ``a . x >= b``
and box bounds ``lo <= x <= hi`` (``hi`` may be infinite). Nonbasic variables
sit at either bound; the implementation keeps every nonbasic variable at zero
by complementing columns in place (the classic upper-bound "flip" trick).

Pivoting is Dantzig's rule with a switch to Bland's rule after
``10 * (rows + cols)`` degenerate steps. One engine runs on float64 arrays
with a pivot tolerance cascade, or on ``Fraction`` object arrays with zero
tolerance. ``verify=True`` re-solves exactly from the float basis (Applegate,
Cook, Dash & Espinoza, Oper. Res. Lett. 2007): the exact ``[A | slacks]``
tableau takes the float run's flips and basis, which must be exactly
feasible, and phase 2 pivots on until every exact reduced cost is <= 0 (no
pivot when the float basis is optimal). The vertex returned is thus exactly
feasible and exactly optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .core import as_fraction
from .errors import NumericalFailureError

LESS_EQUAL = "<="
GREATER_EQUAL = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` over the rows and box bounds."""

    objective: Tuple
    constraints: Tuple[Tuple[Tuple, str, object], ...]
    bounds: Tuple[Tuple[object, object], ...]

    def __post_init__(self):
        nv = len(self.objective)
        for coeffs, relation, _rhs in self.constraints:
            if len(coeffs) != nv:
                raise ValueError("constraint arity mismatch")
            if relation not in (LESS_EQUAL, GREATER_EQUAL):
                raise ValueError("relation must be '<=' or '>='")
        if len(self.bounds) != nv:
            raise ValueError("need one bound pair per variable")
        for lo, hi in self.bounds:
            if float(lo) < 0 or float(lo) > float(hi):
                raise ValueError("bounds must satisfy 0 <= lo <= hi")


@dataclass(frozen=True)
class LpSolution:
    values: Tuple
    objective_value: object
    status: str


class _NumericTrouble(Exception):
    pass


class _Unbounded(Exception):
    pass


class _Infeasible(Exception):
    pass


def _pivot(M, b, basis, i, j):
    piv = M[i, j]
    M[i, :] /= piv
    b[i] /= piv
    col = M[:, j].copy()
    col[i] = 0
    # exact tableaux skip rows with multiplier 0, as Fraction products are slow;
    # on small float tableaux that indexing would cost more than it saves
    rows = np.flatnonzero(col) if M.dtype == object else slice(None)
    M[rows] -= np.outer(col[rows], M[i, :])
    b[rows] -= col[rows] * b[i]
    M[:, j] = 0
    M[i, j] = 1
    basis[i] = j


def _flip_nonbasic(M, b, c, u, flipped, j):
    b -= M[:, j] * u[j]
    M[:, j] = -M[:, j]
    c[j] = -c[j]
    flipped[j] = not flipped[j]


def _optimize(M, b, c, u, basis, flipped, tol, bland_after):
    """Run primal iterations until no reduced cost exceeds tol (0: exact ties)."""
    nrows, ncols = M.shape
    tie = 1e-12 if tol else 0
    degenerate = 0
    for _ in range(2000 + 200 * (nrows + ncols)):
        r = c - (c[basis] @ M if nrows else 0)
        r[basis] = 0
        if degenerate > bland_after:
            entering = np.nonzero(r > tol)[0]
            if entering.size == 0:
                return
            j = int(entering[0])
        else:
            j = int(np.argmax(r))
            if r[j] <= tol:
                return
        col = M[:, j]
        candidates = []  # (theta, (var index, kind priority), kind, row)
        if u[j] < math.inf:
            candidates.append((u[j], (j, 2), "flip", -1))
        for i in range(nrows):
            a = col[i]
            if a > tol:
                candidates.append((b[i] / a, (basis[i], 0), "lower", i))
            elif a < -tol and u[basis[i]] < math.inf:
                candidates.append(((u[basis[i]] - b[i]) / (-a), (basis[i], 1), "upper", i))
        if not candidates:
            raise _Unbounded()
        theta_min = min(t for t, _, _, _ in candidates)
        theta, _, kind, i = min(
            (cand for cand in candidates if cand[0] <= theta_min + tie),
            key=lambda cand: cand[1],
        )
        if theta <= tol:
            degenerate += 1
        if kind == "flip":
            _flip_nonbasic(M, b, c, u, flipped, j)
        elif kind == "lower":
            _pivot(M, b, basis, i, j)
        else:
            bc = basis[i]
            b[i] = u[bc] - b[i]
            M[i, :] = -M[i, :]
            M[i, bc] = 1
            c[bc] = -c[bc]
            flipped[bc] = not flipped[bc]
            _pivot(M, b, basis, i, j)
    raise _NumericTrouble("iteration limit exceeded")


def _fraction(value):
    """Exact value of a coefficient; an infinite upper bound stays ``math.inf``."""
    return value if value == math.inf else as_fraction(value)


def _tableau(lp: LinearProgram, num):
    """``[A | slacks]``, the rhs shifted by lo, lo, hi and the column ranges.

    ``num`` is ``float`` (float64 arrays) or ``_fraction`` (object arrays of
    ``Fraction``; slack coefficients too, so no division falls back to float).
    """
    nv, nrows = len(lp.objective), len(lp.constraints)
    dtype = float if num is float else object
    lo = np.array([num(bd[0]) for bd in lp.bounds], dtype=dtype)
    hi = np.array([num(bd[1]) for bd in lp.bounds], dtype=dtype)
    M = np.full((nrows, nv + nrows), num(0), dtype=dtype)
    b = np.full(nrows, num(0), dtype=dtype)
    for i, (coeffs, relation, rhs) in enumerate(lp.constraints):
        M[i, :nv] = [num(a) for a in coeffs]
        M[i, nv + i] = num(1) if relation == LESS_EQUAL else num(-1)
        b[i] = num(rhs) - M[i, :nv] @ lo
    u = np.concatenate([hi - lo, np.full(nrows, math.inf, dtype=dtype)])
    return M, b, lo, hi, u


def _vertex(b, u, basis, flipped, lo):
    """Structural values of the basic solution (flipped columns at hi - z)."""
    z = np.zeros(len(u), dtype=b.dtype)
    z[basis] = b
    flipped = np.array(flipped, dtype=bool)
    z[flipped] = u[flipped] - z[flipped]
    return lo + z[: len(lo)]


def _solve_floats(lp: LinearProgram, tol: float):
    M, b, lo, hi, u = _tableau(lp, float)
    nrows, ncols = M.shape
    nv = ncols - nrows
    rows = M[:, :nv]  # hstack below copies, so these stay the original rows
    M = np.hstack([M, np.zeros((nrows, nrows))])
    negative = b < 0
    M[negative] = -M[negative]
    b[negative] = -b[negative]
    M[range(nrows), range(ncols, ncols + nrows)] = 1.0  # artificials
    u = np.concatenate([u, np.full(nrows, np.inf)])
    flipped = [False] * (ncols + nrows)
    basis = [ncols + i for i in range(nrows)]
    bland_after = 10 * (nrows + ncols)

    # Phase 1: drive the artificials to zero.
    c1 = np.zeros(ncols + nrows)
    c1[ncols:] = -1.0
    try:
        _optimize(M, b, c1, u, basis, flipped, tol, bland_after)
    except _Unbounded:
        raise _NumericTrouble("phase 1 reported unbounded")
    infeasibility = sum(b[i] for i in range(nrows) if basis[i] >= ncols)
    if infeasibility > 1e-7:
        raise _Infeasible()

    redundant = []
    for i in range(nrows):
        if basis[i] >= ncols:
            basic = set(basis)
            nonzero = np.flatnonzero(np.abs(M[i, :ncols]) > tol)
            j = next((int(j) for j in nonzero if j not in basic), None)
            if j is None:
                redundant.append(i)
            else:
                _pivot(M, b, basis, i, j)
    if redundant:
        M = np.delete(M, redundant, axis=0)
        b = np.delete(b, redundant)
        basis = [bv for i, bv in enumerate(basis) if i not in redundant]
    M = M[:, :ncols]
    u = u[:ncols]
    flipped = flipped[:ncols]

    # Phase 2: original objective (sign-adjusted for columns flipped so far).
    c2 = np.zeros(ncols)
    c2[:nv] = [-float(cj) if f else float(cj) for cj, f in zip(lp.objective, flipped)]
    _optimize(M, b, c2, u, basis, flipped, tol, bland_after)
    x = _vertex(b, u, basis, flipped, lo)

    # Feasibility backstop: bounds within 1e-9, row residuals within 1e-8.
    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
        raise _NumericTrouble("bound violation")
    x = np.clip(x, lo, hi)
    for i, (_, relation, rhs) in enumerate(lp.constraints):
        resid = rows[i] @ x - float(rhs)
        if (resid if relation == LESS_EQUAL else -resid) > 1e-8:
            raise _NumericTrouble("constraint residual %g" % resid)

    return x, basis, flipped, redundant


def _solve_exact(lp: LinearProgram, basis, flipped, redundant):
    """Rational phase 2 from the float run's final flips and basis; rows that
    float phase 1 dropped as redundant keep their slack basic."""
    M, b, lo, _, u = _tableau(lp, _fraction)
    nrows, ncols = M.shape
    nv = ncols - nrows
    c = np.array([as_fraction(cj) for cj in lp.objective] + [Fraction(0)] * nrows, dtype=object)
    exact_flipped = [False] * ncols
    for j in np.flatnonzero(flipped):
        _flip_nonbasic(M, b, c, u, exact_flipped, j)
    # Start from the all-slack basis (">=" rows negated so their slack reads
    # +1) and pivot each other float-basic column into a row whose slack
    # leaves; a nonsingular basis always leaves such a row with a nonzero.
    negated = [i for i, (_, rel, _) in enumerate(lp.constraints) if rel == GREATER_EQUAL]
    M[negated] = -M[negated]
    b[negated] = -b[negated]
    exact_basis = [nv + i for i in range(nrows)]
    target = set(basis) | {nv + i for i in redundant}
    for j in sorted(target - set(exact_basis)):
        free = [i for i in range(nrows) if exact_basis[i] not in target and M[i, j] != 0]
        if not free:
            raise _NumericTrouble("float basis is singular in exact arithmetic")
        _pivot(M, b, exact_basis, free[0], j)
    if any(v < 0 for v in b) or any(v > u[j] for v, j in zip(b, exact_basis)):
        raise _NumericTrouble("float basis is not exactly feasible")
    _optimize(M, b, c, u, exact_basis, exact_flipped, 0, 10 * (nrows + ncols))
    return _vertex(b, u, exact_basis, exact_flipped, lo)


def solve_lp(lp: LinearProgram, verify: bool = False) -> LpSolution:
    """Solve to optimality, or report infeasible/unbounded.

    With ``verify=True`` the values and objective are exact rationals of a
    vertex that is exactly feasible and has exact reduced costs <= 0; a float
    basis that is not exactly feasible moves on to the next tolerance, and
    ``NumericalFailureError`` is raised when none is left.
    """
    last_trouble = None
    for tol in (1e-9, 1e-7):
        try:
            x, basis, flipped, redundant = _solve_floats(lp, tol)
            if verify:
                x = _solve_exact(lp, basis, flipped, redundant)
        except _Infeasible:
            return LpSolution((), None, INFEASIBLE)
        except _Unbounded:
            return LpSolution((), None, UNBOUNDED)
        except _NumericTrouble as exc:
            last_trouble = exc
            continue
        num = _fraction if verify else float
        objective = num(sum(num(cj) * xj for cj, xj in zip(lp.objective, x)))
        return LpSolution(tuple(num(v) for v in x), objective, OPTIMAL)
    raise NumericalFailureError("pivot tolerance cascade failed: %s" % last_trouble)


def lp_upper_bounds_ilp(lp_solution: LpSolution, ilp_opt) -> bool:
    """True when the relaxation objective dominates the integral optimum."""
    if lp_solution.status != OPTIMAL:
        return False
    return float(lp_solution.objective_value) >= float(ilp_opt) - 1e-6


def to_lp_format(lp: LinearProgram, name: str = "pmssc") -> str:
    """Render in the industry-standard LP text format (for manual cross-checks)."""

    def linear(coeffs):
        text = " ".join(
            "%s %g x%d" % ("+" if float(a) >= 0 else "-", abs(float(a)), j)
            for j, a in enumerate(coeffs)
            if float(a) != 0.0
        )
        return text[2:] if text.startswith("+ ") else text or "0 x0"

    lines = ["\\ %s" % name, "Maximize", " obj: %s" % linear(lp.objective), "Subject To"]
    for i, (coeffs, relation, rhs) in enumerate(lp.constraints):
        lines.append(" c%d: %s %s %g" % (i, linear(coeffs), relation, float(rhs)))
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(lp.bounds):
        hi_txt = "+inf" if float(hi) == math.inf else "%g" % float(hi)
        lines.append(" %g <= x%d <= %s" % (float(lo), j, hi_txt))
    lines.append("End")
    return "\n".join(lines) + "\n"
