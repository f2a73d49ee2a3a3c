"""Bounded-variable two-phase primal simplex for small dense programs.

The solver maximizes ``c . x`` subject to rows ``a . x <= b`` / ``a . x >= b``
and box bounds ``lo <= x <= hi`` (``hi`` may be infinite). Nonbasic variables
sit at either bound; the implementation keeps every nonbasic variable at zero
by complementing columns in place (the classic upper-bound "flip" trick).

Pivoting is Dantzig's rule with a switch to Bland's rule after
``10 * (rows + cols)`` degenerate steps. Arithmetic is float64 with a pivot
tolerance cascade; ``verify=True`` re-derives the final basic solution in
exact rational arithmetic and fails loudly if the float answer was wrong.
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
    col[i] = 0.0
    M -= np.outer(col, M[i, :])
    b -= col * b[i]
    M[:, j] = 0.0
    M[i, j] = 1.0
    basis[i] = j


def _flip_nonbasic(M, b, c, u, flipped, j):
    b -= M[:, j] * u[j]
    M[:, j] = -M[:, j]
    c[j] = -c[j]
    flipped[j] = not flipped[j]


def _optimize(M, b, c, u, basis, flipped, tol, bland_after):
    """Run primal iterations until no reduced cost exceeds tol."""
    nrows, ncols = M.shape
    degenerate = 0
    max_iters = 2000 + 200 * (nrows + ncols)
    for _ in range(max_iters):
        r = c - (c[basis] @ M if nrows else np.zeros(ncols))
        r[basis] = 0.0
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
        if np.isfinite(u[j]):
            candidates.append((u[j], (j, 2), "flip", -1))
        for i in range(nrows):
            a = col[i]
            if a > tol:
                candidates.append((b[i] / a, (basis[i], 0), "lower", i))
            elif a < -tol and np.isfinite(u[basis[i]]):
                candidates.append(((u[basis[i]] - b[i]) / (-a), (basis[i], 1), "upper", i))
        if not candidates:
            raise _Unbounded()
        theta_min = min(t for t, _, _, _ in candidates)
        theta, _, kind, i = min(
            (cand for cand in candidates if cand[0] <= theta_min + 1e-12),
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
            M[i, bc] = 1.0
            c[bc] = -c[bc]
            flipped[bc] = not flipped[bc]
            _pivot(M, b, basis, i, j)
    raise _NumericTrouble("iteration limit exceeded")


def _as_floats(lp: LinearProgram):
    """(row coefficient vectors, rhs, lower bounds, upper bounds) in float64."""
    return (
        [np.array([float(a) for a in coeffs]) for coeffs, _, _ in lp.constraints],
        [float(rhs) for _, _, rhs in lp.constraints],
        np.array([float(b[0]) for b in lp.bounds]),
        np.array([float(b[1]) for b in lp.bounds]),
    )


def _solve_floats(lp: LinearProgram, floats, tol: float):
    nv = len(lp.objective)
    nrows = len(lp.constraints)
    rows, rhs, lo, hi = floats

    nslack = nrows
    ncols = nv + nslack
    M = np.zeros((nrows, ncols + nrows))
    b = np.zeros(nrows)
    for i, (_, relation, _) in enumerate(lp.constraints):
        M[i, :nv] = rows[i]
        M[i, nv + i] = 1.0 if relation == LESS_EQUAL else -1.0
        b[i] = rhs[i] - rows[i] @ lo
        if b[i] < 0:
            M[i, :] = -M[i, :]
            b[i] = -b[i]
        M[i, ncols + i] = 1.0  # artificial

    u = np.full(ncols + nrows, np.inf)
    u[:nv] = hi - lo
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
        if basis[i] < ncols:
            continue
        pivot_col = None
        for j in range(ncols):
            if abs(M[i, j]) > tol and j not in basis:
                pivot_col = j
                break
        if pivot_col is None:
            redundant.append(i)
        else:
            _pivot(M, b, basis, i, pivot_col)
    if redundant:
        M = np.delete(M, redundant, axis=0)
        b = np.delete(b, redundant)
        basis = [bv for i, bv in enumerate(basis) if i not in redundant]
    kept_rows = [i for i in range(nrows) if i not in redundant]
    M = M[:, :ncols]
    u = u[:ncols]
    flipped = flipped[:ncols]

    # Phase 2: original objective (sign-adjusted for columns flipped so far).
    c2 = np.zeros(ncols)
    for j in range(nv):
        cj = float(lp.objective[j])
        c2[j] = -cj if flipped[j] else cj
    try:
        _optimize(M, b, c2, u, basis, flipped, tol, bland_after)
    except _Unbounded:
        raise _Unbounded()

    z = np.zeros(ncols)
    z[basis] = b
    for j in range(ncols):
        if flipped[j]:
            z[j] = u[j] - z[j]
    x = lo + z[:nv]

    # Feasibility backstop: bounds within 1e-9, row residuals within 1e-8.
    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
        raise _NumericTrouble("bound violation")
    x = np.clip(x, lo, hi)
    for i, (_, relation, _) in enumerate(lp.constraints):
        resid = rows[i] @ x - rhs[i]
        if relation == LESS_EQUAL and resid > 1e-8:
            raise _NumericTrouble("constraint residual %g" % resid)
        if relation == GREATER_EQUAL and resid < -1e-8:
            raise _NumericTrouble("constraint residual %g" % resid)

    return x, basis, flipped, kept_rows


def _verify_exact(lp: LinearProgram, x_float, basis, flipped, kept_rows):
    """Re-derive the basic solution in exact arithmetic and check feasibility."""
    nv = len(lp.objective)
    nrows = len(lp.constraints)
    ncols = nv + nrows
    lo = [as_fraction(bd[0]) for bd in lp.bounds]
    u = []
    for j, bd in enumerate(lp.bounds):
        hi = bd[1]
        u.append(None if float(hi) == math.inf else as_fraction(hi) - lo[j])

    def column(row_idx, j):
        coeffs, relation, _ = lp.constraints[row_idx]
        if j < nv:
            return as_fraction(coeffs[j])
        if j - nv == row_idx:
            return Fraction(1) if relation == LESS_EQUAL else Fraction(-1)
        return Fraction(0)

    basic = list(basis)
    rows = list(kept_rows)
    if len(basic) != len(rows):
        raise NumericalFailureError("basis/row bookkeeping mismatch")

    # rhs of kept rows minus contribution of nonbasic-at-upper columns,
    # in the lo-shifted variable space.
    rhs = []
    for ri in rows:
        coeffs, _, row_rhs = lp.constraints[ri]
        val = as_fraction(row_rhs)
        for j in range(nv):
            val -= as_fraction(coeffs[j]) * lo[j]
        for j in range(ncols):
            if flipped[j] and j not in basic:
                if u[j] is None:
                    raise NumericalFailureError("flipped column with infinite bound")
                val -= column(ri, j) * u[j]
        rhs.append(val)

    size = len(rows)
    aug = [[column(rows[i], basic[q]) for q in range(size)] + [rhs[i]] for i in range(size)]
    for col_i in range(size):
        piv = None
        for r in range(col_i, size):
            if aug[r][col_i] != 0:
                piv = r
                break
        if piv is None:
            raise NumericalFailureError("exactly singular final basis")
        aug[col_i], aug[piv] = aug[piv], aug[col_i]
        inv = Fraction(1) / aug[col_i][col_i]
        aug[col_i] = [v * inv for v in aug[col_i]]
        for r in range(size):
            if r != col_i and aug[r][col_i] != 0:
                factor = aug[r][col_i]
                aug[r] = [a - factor * p for a, p in zip(aug[r], aug[col_i])]
    z = {basic[q]: aug[q][size] for q in range(size)}

    # The system above is posed over original (unflipped) shifted variables,
    # so basic values come straight from the solve; nonbasic variables sit at
    # the bound their flip state encodes.
    x_exact = []
    for j in range(nv):
        if j in z:
            zj = z[j]
        elif flipped[j]:
            zj = u[j]
        else:
            zj = Fraction(0)
        x_exact.append(lo[j] + zj)

    for j in range(nv):
        hi = lp.bounds[j][1]
        if x_exact[j] < lo[j] or (float(hi) != math.inf and x_exact[j] > as_fraction(hi)):
            raise NumericalFailureError("exact verification: bound violated")
        if abs(float(x_exact[j]) - float(x_float[j])) > 1e-6:
            raise NumericalFailureError("exact verification: float drift")
    for coeffs, relation, row_rhs in lp.constraints:
        lhs = sum(
            (as_fraction(coeffs[j]) * x_exact[j] for j in range(nv)), Fraction(0)
        )
        rr = as_fraction(row_rhs)
        if relation == LESS_EQUAL and lhs > rr:
            raise NumericalFailureError("exact verification: row violated")
        if relation == GREATER_EQUAL and lhs < rr:
            raise NumericalFailureError("exact verification: row violated")

    objective = sum(
        (as_fraction(lp.objective[j]) * x_exact[j] for j in range(nv)), Fraction(0)
    )
    return tuple(x_exact), objective


def solve_lp(lp: LinearProgram, verify: bool = False) -> LpSolution:
    """Solve to optimality, or report infeasible/unbounded.

    With ``verify=True`` the returned values and objective are exact
    rationals recomputed from the final basis; any disagreement with the
    float solve raises ``NumericalFailureError``.
    """
    floats = _as_floats(lp)  # converted once, shared by both tolerances
    last_trouble = None
    for tol in (1e-9, 1e-7):
        try:
            x, basis, flipped, kept_rows = _solve_floats(lp, floats, tol)
        except _Infeasible:
            return LpSolution((), None, INFEASIBLE)
        except _Unbounded:
            return LpSolution((), None, UNBOUNDED)
        except _NumericTrouble as exc:
            last_trouble = exc
            continue
        if verify:
            try:
                values, objective = _verify_exact(lp, x, basis, flipped, kept_rows)
            except NumericalFailureError as exc:
                last_trouble = exc
                continue
            return LpSolution(values, objective, OPTIMAL)
        objective = float(
            sum(float(c) * xi for c, xi in zip(lp.objective, x))
        )
        return LpSolution(tuple(float(v) for v in x), objective, OPTIMAL)
    raise NumericalFailureError("pivot tolerance cascade failed: %s" % last_trouble)


def lp_upper_bounds_ilp(lp_solution: LpSolution, ilp_opt) -> bool:
    """True when the relaxation objective dominates the integral optimum."""
    if lp_solution.status != OPTIMAL:
        return False
    return float(lp_solution.objective_value) >= float(ilp_opt) - 1e-6


def to_lp_format(lp: LinearProgram, name: str = "pmssc") -> str:
    """Render in the industry-standard LP text format (for manual cross-checks)."""

    def term(coef, j, lead):
        c = float(coef)
        sign = "+" if c >= 0 else "-"
        if lead and sign == "+":
            return "%g x%d" % (abs(c), j)
        return "%s %g x%d" % (sign, abs(c), j)

    def linear(coeffs):
        parts = []
        lead = True
        for j, a in enumerate(coeffs):
            if float(a) == 0.0:
                continue
            parts.append(term(a, j, lead))
            lead = False
        return " ".join(parts) if parts else "0 x0"

    lines = ["\\ %s" % name, "Maximize", " obj: %s" % linear(lp.objective), "Subject To"]
    for i, (coeffs, relation, rhs) in enumerate(lp.constraints):
        lines.append(" c%d: %s %s %g" % (i, linear(coeffs), relation, float(rhs)))
    lines.append("Bounds")
    for j, (lo, hi) in enumerate(lp.bounds):
        hi_txt = "+inf" if float(hi) == math.inf else "%g" % float(hi)
        lines.append(" %g <= x%d <= %s" % (float(lo), j, hi_txt))
    lines.append("End")
    return "\n".join(lines) + "\n"
