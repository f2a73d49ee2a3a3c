"""Parallel maximum coverage via LP relaxation plus randomized rounding.

Two parameter regimes share the rounding pass:

* poly -- budget-violation factor 1 + delta with
  delta = 4 ln m / ln ln m (clamped, see ``poly_delta``) and
  R = ceil((2 - 2/e) / eps^2 * ln n) rounding repetitions.
* fpt  -- delta = mu, with the repetition count raised to
  max(R, ceil(ln m / -ln(1 - (1 - f(mu))^m))), f(x) = e^x / (1+x)^(1+x).

Every returned assignment satisfies cost_j <= (1 + delta) * B_j on every
machine: iterations violating any budget are discarded, and the kept
iteration covering the most elements wins (ties to the lowest iteration
index). One rounding call draws all R iterations at once from one Philox
stream keyed by the seed: row r of the draw matrix is iteration r, and rows
are padded to a multiple of 4 doubles (one Philox block), so row r can be
replayed alone by advancing a fresh stream r * width / 4 blocks. Loads are
summed in float64; a load within a relative 1e-9 of its limit is re-checked
with exact rationals, so every keep/discard decision is exact.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import (
    Assignment,
    ProblemInstance,
    as_fraction,
    is_finite_cost,
)
from .errors import DomainError, NoIterationKeptError
from .lp import OPTIMAL, LinearProgram, LpSolution, solve_lp, to_lp_format
from .rng import stream

POLY = "poly"
FPT = "fpt"


def poly_delta(m: int) -> float:
    """Clamped 4 ln m / ln ln m: evaluated at max(m, 16) and floored at 1.

    For m <= 15 the raw formula is undefined or wild (ln ln m <= 1), so small
    machine counts borrow the m = 16 value.
    """
    mp = max(m, 16)
    return max(4.0 * math.log(mp) / math.log(math.log(mp)), 1.0)


def concentration_repetitions(n: int, epsilon: float) -> int:
    """ceil((2 - 2/e) / eps^2 * ln n), at least 1."""
    if not 0 < epsilon < 1:
        raise DomainError("epsilon must lie in (0, 1)")
    if n < 1:
        raise DomainError("universe must be nonempty")
    return max(1, math.ceil((2.0 - 2.0 / math.e) / epsilon**2 * math.log(n)))


def fpt_budget_failure_rate(mu: float) -> float:
    """f(mu) = e^mu / (1 + mu)^(1 + mu): per-machine budget overflow bound."""
    if mu <= 0:
        raise DomainError("mu must be positive")
    return math.exp(mu - (1.0 + mu) * math.log1p(mu))


def fpt_repetitions(m: int, mu: float, n: int, epsilon: float) -> float:
    """FPT repetition count; may be astronomically large (handled by r_cap)."""
    r1 = concentration_repetitions(n, epsilon)
    f = fpt_budget_failure_rate(mu)
    all_within = (1.0 - f) ** m
    if all_within <= 0.0:
        return math.inf
    fail = 1.0 - all_within
    if fail <= 0.0:
        return float(r1)
    denom = -math.log(fail)
    if denom <= 0.0:
        return math.inf
    r2 = math.log(m) / denom if m > 1 else 0.0
    return float(max(r1, math.ceil(r2)))


@dataclass(frozen=True)
class PmcParams:
    mode: str = POLY
    epsilon: float = 0.2
    mu: Optional[float] = None
    r_cap: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in (POLY, FPT):
            raise DomainError("mode must be 'poly' or 'fpt'")
        if self.mode == FPT and self.mu is None:
            raise DomainError("fpt mode requires mu")

    def delta(self, m: int) -> float:
        if self.mode == POLY:
            return poly_delta(m)
        return float(self.mu)

    def repetitions(self, m: int, n: int) -> float:
        if self.mode == POLY:
            return float(concentration_repetitions(n, self.epsilon))
        return fpt_repetitions(m, self.mu, n, self.epsilon)

    def attempts(self, m: int, n: int) -> int:
        """Rounding iterations actually run: min(R, r_cap).

        The default cap is 10x the concentration term, which keeps FPT runs
        finite when the formula's repetition count explodes for small mu.
        """
        cap = self.r_cap
        if cap is None:
            cap = 10 * concentration_repetitions(n, self.epsilon)
        return int(min(self.repetitions(m, n), cap))


@dataclass(frozen=True)
class PmcResult:
    assignment: Assignment
    per_machine_cost: Tuple[Fraction, ...]
    covered: int
    lp_objective: float
    iterations_kept: int
    attempts: int


def raw_draws(seed: int, attempts: int, probs: Sequence[float]):
    """Independent Bernoulli draws for all rounding iterations of one call.

    Returns an (attempts, k*m) boolean matrix: pair (s, j) is drawn in
    iteration r when entry [r, s*m + j] is set, with probability
    probs[s*m + j]. All rows come from one stream keyed by ``seed``; each row
    takes ``width`` doubles, k*m rounded up to a multiple of 4, so row r
    starts on a Philox block boundary and is reproduced alone by
    ``stream(seed)`` after ``bit_generator.advance(r * width // 4)``.
    """
    probs = np.asarray(probs, dtype=float)
    km = probs.size
    width = -(-km // 4) * 4
    return stream(seed).random((attempts, width))[:, :km] < probs


def _normalizers(inst: ProblemInstance) -> Tuple[Fraction, ...]:
    """Per machine, the larger of 1 and the sum of its finite costs."""
    totals = [Fraction(0)] * inst.m
    for row in inst.costs:
        for j, c in enumerate(row):
            if is_finite_cost(c):
                totals[j] += c
    return tuple(max(Fraction(1), t) for t in totals)


def build_pmc_lp(inst: ProblemInstance, budgets: Sequence) -> LinearProgram:
    """LP relaxation: maximize sum y_u subject to coverage and budget rows.

    Variable order is x_{s,j} at index s*m + j followed by y_u at k*m + u.
    Costs and budgets are pre-normalized per machine so each machine's total
    finite cost is at most 1 (budgets above the total are clamped, which is
    loss-free); infinite-cost pairs get a frozen [0, 0] bound. Integer
    values (coverage rows, objective, bounds) are plain ints, which convert
    to float far faster than ``Fraction``s of the same value; only the
    normalized budget rows hold ``Fraction``s.
    """
    k, m, n = inst.k, inst.m, inst.n
    budgets = [as_fraction(b) for b in budgets]
    if len(budgets) != m:
        raise ValueError("need one budget per machine")
    if any(b < 0 for b in budgets):
        raise DomainError("budgets must be nonnegative")
    norms = _normalizers(inst)

    nx = k * m
    objective = (0,) * nx + (1,) * n
    bounds = [(0, 1) if is_finite_cost(c) else (0, 0) for row in inst.costs for c in row]
    bounds.extend((0, 1) for _ in range(n))

    constraints = []
    for u in range(n):
        coeffs = [0] * (nx + n)
        for s in range(k):
            if u in inst.members[s]:
                coeffs[s * m : (s + 1) * m] = (1,) * m
        coeffs[nx + u] = -1
        constraints.append((tuple(coeffs), ">=", 0))
    for j in range(m):
        coeffs = [0] * (nx + n)
        for s, row in enumerate(inst.costs):
            if is_finite_cost(row[j]):
                coeffs[s * m + j] = row[j] / norms[j]
        scaled = min(budgets[j] / norms[j], Fraction(1))
        constraints.append((tuple(coeffs), "<=", scaled))

    return LinearProgram(objective, tuple(constraints), tuple(bounds))


def _float_or_inf(value) -> float:
    """Nearest float; inf for a rational past the float range (re-checked exactly)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def round_pmc(
    inst: ProblemInstance,
    budgets: Sequence,
    lp_solution: LpSolution,
    params: PmcParams,
) -> PmcResult:
    """Randomized rounding of the LP solution, all iterations in one pass.

    Iteration r draws set-machine pairs independently with probability
    x_{s,j} (row r of ``raw_draws``); a set drawn on several machines is kept
    on the lowest-index one (the assignment type forbids duplicates, and
    dropping copies only lowers cost). Iterations whose realized cost exceeds
    (1 + delta) * B_j on any machine are discarded. Loads are float64 sums;
    a load within a relative 1e-9 of its limit (or not finite) is summed
    again in exact rationals before the decision. Float conversion and a sum
    of k positive terms err by at most about k * 2^-53 relatively, far inside
    that band, so no decision differs from the exact one; the band's
    absolute 1e-300 covers costs below the normal float range, where only an
    absolute error bound holds.
    """
    if lp_solution.status != OPTIMAL:
        raise DomainError("rounding requires an optimal LP solution")
    k, m, n = inst.k, inst.m, inst.n
    budgets = [as_fraction(b) for b in budgets]
    probs = np.clip(np.asarray(lp_solution.values[: k * m], dtype=float), 0.0, 1.0)
    delta = params.delta(m)
    limit = [(1 + Fraction(delta)) * b for b in budgets]
    costs = inst.costs
    # float32 so the coverage product runs in BLAS; its entries count sets,
    # which float32 holds exactly below 2^24
    incidence = np.zeros((k, n), dtype=np.float32)
    for s in range(k):
        incidence[s, list(inst.members[s])] = 1.0

    attempts = params.attempts(m, n)
    drawn = raw_draws(params.seed, attempts, probs).reshape(attempts, k, m)
    hit = drawn.any(axis=2)  # (R, k): set s is placed in iteration r
    keep = hit[:, :, None] & (drawn.argmax(axis=2)[:, :, None] == np.arange(m))

    cost_f = np.array([[_float_or_inf(c) for c in row] for row in costs])
    limit_f = np.array([_float_or_inf(b) for b in limit])
    loads = np.where(keep, cost_f, 0.0).sum(axis=1)  # (R, m)
    over = loads > limit_f
    with np.errstate(invalid="ignore"):  # inf - inf: not decided, so exact
        decided = np.isfinite(loads) & (np.abs(loads - limit_f) > 1e-9 * limit_f + 1e-300)
    for r, j in zip(*np.nonzero(~decided)):
        exact = sum((costs[s][j] for s in np.flatnonzero(keep[r, :, j])), Fraction(0))
        over[r, j] = exact > limit[j]
    ok = ~over.any(axis=1)
    kept = int(ok.sum())
    if kept == 0:
        raise NoIterationKeptError(attempts)

    covered = (hit.astype(np.float32) @ incidence > 0).sum(axis=1)
    best = int(np.argmax(np.where(ok, covered, -1)))
    assignment = Assignment(
        tuple(tuple(int(s) for s in np.flatnonzero(keep[best, :, j])) for j in range(m))
    )
    per_cost = []
    for j, seq in enumerate(assignment.per_machine):
        per_cost.append(sum((costs[s][j] for s in seq), Fraction(0)))
    return PmcResult(
        assignment=assignment,
        per_machine_cost=tuple(per_cost),
        covered=int(covered[best]),
        lp_objective=float(lp_solution.objective_value),
        iterations_kept=kept,
        attempts=attempts,
    )


def pmc_solve(
    inst: ProblemInstance,
    budgets: Sequence,
    params: PmcParams,
    verify_lp: bool = False,
) -> PmcResult:
    """build_pmc_lp -> solve_lp -> round_pmc, with the zero-objective shortcut."""
    program = build_pmc_lp(inst, budgets)
    dump = os.environ.get("PMSSC_DUMP_LP")
    if dump:
        with open(dump, "a", encoding="utf-8") as fh:
            fh.write(to_lp_format(program))
    solution = solve_lp(program, verify=verify_lp)
    if solution.status != OPTIMAL:
        raise DomainError("PMC relaxation must be feasible and bounded")
    if float(solution.objective_value) <= 1e-12:
        return PmcResult(
            assignment=Assignment.empty(inst.m),
            per_machine_cost=tuple(Fraction(0) for _ in range(inst.m)),
            covered=0,
            lp_objective=float(solution.objective_value),
            iterations_kept=0,
            attempts=0,
        )
    return round_pmc(inst, budgets, solution, params)
