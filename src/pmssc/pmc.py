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
index). One rounding call draws all R iterations from one Philox stream
keyed by the seed: row r of the draw matrix is iteration r, and rows are
padded to a multiple of 4 doubles (one Philox block), so row r can be
replayed alone by advancing a fresh stream r * width / 4 blocks. Rows are
drawn and judged in blocks that continue the same stream, which bounds memory
and leaves every draw unchanged: the first block holds ``ROUND_BLOCK >> 7``
draws, and each later one twice as many, up to ``ROUND_BLOCK``. Only pairs
with x > 0 are drawn, so no iteration covers more than the union U of their
sets; once a kept iteration covers |U| no later one can replace it, and the
rounding stops after that block with the result of all R iterations.
Loads are int sums in the instance's int cost table, so every keep/discard
decision is exact. An integral x (every clipped value 0 or 1) draws the same
pairs in every iteration, so it is decided once in that table, with no
stream: all R iterations are kept, or none. Each call takes a fresh stream,
so skipping one changes no other call's draws, and replay cannot tell.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from .bounds import chernoff_upper
from .core import (
    Assignment,
    INFINITE_COST,
    ProblemInstance,
    as_fraction,
    scaled_floor,
)
from .errors import DomainError, NoIterationKeptError, ValidationError
from .lp import OPTIMAL, LinearProgram, LpSolution, WarmStart, solve_lp, to_lp_format
from .rng import stream

POLY = "poly"
FPT = "fpt"

# Draws (rows x k*m) in the widest rounding block: ~2 MB of float64. The
# first block holds ROUND_BLOCK >> 7 draws, which every related rounding call
# of the bench workloads fits into.
ROUND_BLOCK = 1 << 18


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


def fpt_repetitions(m: int, mu: float, n: int, epsilon: float) -> float:
    """FPT repetition count; may be astronomically large (handled by r_cap)."""
    r1 = concentration_repetitions(n, epsilon)
    f = chernoff_upper(1.0, mu)  # f(mu), the per-machine budget overflow bound
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
        if self.mu is not None and not 0 < self.mu < math.inf:
            raise DomainError("mu must be finite and positive")
        if self.r_cap is not None and self.r_cap < 1:
            raise DomainError("r_cap must be at least 1")

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
    iterations_kept: int  # among the iterations that ran
    attempts: int  # planned
    # How the result was reached, not part of it: the iterations that ran (all
    # of them unless one reached the coverage ceiling), and whether x was all
    # 0/1, so that no iteration drew.
    attempts_run: int = field(default=0, compare=False)
    integral: bool = field(default=False, compare=False)


def raw_draws(gen: np.random.Generator, attempts: int, probs: Sequence[float]):
    """Independent Bernoulli draws for ``attempts`` rounding iterations.

    Returns an (attempts, k*m) boolean matrix: pair (s, j) is drawn in
    iteration r when entry [r, s*m + j] is set, with probability
    probs[s*m + j]. All rows continue the Philox stream ``gen``; each row
    takes ``width`` doubles, k*m rounded up to a multiple of 4, so on a fresh
    ``stream(seed)`` row r starts on a Philox block boundary and is reproduced
    alone by ``stream(seed)`` after ``bit_generator.advance(r * width // 4)``.
    """
    probs = np.asarray(probs, dtype=float)
    width = -(-probs.size // 4) * 4
    return gen.random((attempts, width))[:, : probs.size] < probs


class PmcRelaxation:
    """LP relaxation of one instance, built once, in excess-cover form: with
    X_u = sum_{s ni u, j} x_{s,j}, sum_u min(1, X_u) = sum |S_s| x_{s,j} -
    sum_u max(0, X_u - 1), so it maximizes sum |S_s| x_{s,j} - sum e_u subject
    to X_u - e_u <= 1, e >= 0 and budget rows. Its optimal value and optimal
    x are those of max sum y_u, y_u <= X_u, y <= 1. It is a packing program,
    so a cold solve starts on its feasible slack basis. ``program`` is the
    relaxation at zero budgets; ``at(budgets)`` copies it with new budget
    rhs, sharing all else. ``warm`` keeps the last optimum
    ``pmc_solve`` reached on it, so each later solve re-starts from there.

    Only an element that some set holds (``held``, ascending) gets a coverage
    row and an e_u: an element no set holds has X_u = 0, so its row could
    never bind. A ladder's work instance restricts its sets to the remaining
    elements, so every covered element drops out this way. Variable order is
    x_{s,j} at index s*m + j, then e_u in the order of ``held``; rows are the
    coverage rows in that order, then one budget row per machine.

    Each machine's costs and budget are divided by the larger of 1 and its
    total finite cost, so that total is at most 1 (budgets above it are
    clamped, which is loss-free); infinite-cost pairs get a frozen [0, 0]
    bound. Integer values (coverage rows, objective, bounds) are plain ints,
    which convert to float far faster than ``Fraction``s of the same value;
    only the normalized budget rows hold ``Fraction``s, each an int cost
    over the int norm ``max(scale, total)``.
    """

    def __init__(self, inst: ProblemInstance):
        k, m = inst.k, inst.m
        nx = k * m
        # per machine, the larger of the scale and the sum of its finite icosts
        inorms = [
            max(inst.scale, sum(row[j] for row in inst.icosts if row[j] is not INFINITE_COST))
            for j in range(m)
        ]
        self.inst, self.norms = inst, [Fraction(t, inst.scale) for t in inorms]
        self.held = sorted(set().union(*inst.sets))
        nv = nx + len(self.held)

        cover = {u: [0] * nv for u in self.held}
        for s, members in enumerate(inst.sets):
            for u in members:
                cover[u][s * m : (s + 1) * m] = (1,) * m
        constraints = []
        for h, coeffs in enumerate(cover.values()):
            coeffs[nx + h] = -1
            constraints.append((tuple(coeffs), "<=", 1))
        for j in range(m):
            coeffs = [0] * nv
            for s, row in enumerate(inst.icosts):
                if row[j] is not INFINITE_COST:
                    coeffs[s * m + j] = Fraction(row[j], inorms[j])
            constraints.append((tuple(coeffs), "<=", 0))
        objective = tuple(len(members) for members in inst.sets for _ in range(m))
        objective += (-1,) * len(self.held)
        bounds = [(0, 1) if c is not INFINITE_COST else (0, 0) for row in inst.icosts for c in row]
        bounds += [(0, math.inf)] * len(self.held)
        self.program = LinearProgram(objective, tuple(constraints), tuple(bounds))
        self.warm = WarmStart()

    def at(self, budgets: Sequence) -> LinearProgram:
        budgets = [as_fraction(b) for b in budgets]
        if len(budgets) != self.inst.m:
            raise ValueError("need one budget per machine")
        if any(b < 0 for b in budgets):
            raise DomainError("budgets must be nonnegative")
        scaled = [min(b / norm, Fraction(1)) for b, norm in zip(budgets, self.norms)]
        return self.program.with_rhs([1] * len(self.held) + scaled)


def round_pmc(
    inst: ProblemInstance,
    budgets: Sequence,
    lp_solution: LpSolution,
    params: PmcParams,
) -> PmcResult:
    """Randomized rounding of the LP solution, iterations in growing row blocks.

    Iteration r draws set-machine pairs independently with probability
    x_{s,j} (row r of ``raw_draws``); a set drawn on several machines is kept
    on the lowest-index one (the assignment type forbids duplicates, and
    dropping copies only lowers cost). Iterations whose realized cost exceeds
    (1 + delta) * B_j on any machine are discarded. The blocks stop once the
    best kept iteration covers every element of the sets with some x > 0, the
    most any iteration can; ``attempts_run`` counts the iterations that ran,
    and ``iterations_kept`` the kept ones among them. Machine j's limit is
    ``floor((1 + delta) * B_j * scale)``; its drawn loads are sums of its
    ``icosts`` column and are compared with that limit after both are divided
    by the gcd g of the column's finite costs, which is exact (g * a <= lim
    exactly when a <= lim // g). The sums run in int64 when no reduced column
    total reaches 2^63, and in Python ints otherwise.

    When every clipped x is 0 or 1, each iteration draws exactly the pairs at
    1, so no stream is built: the placement's loads are summed in ``icosts``
    once, and either all ``attempts`` iterations are kept or
    ``NoIterationKeptError`` is raised, as the draws would decide.
    """
    if lp_solution.status != OPTIMAL:
        raise DomainError("rounding requires an optimal LP solution")
    k, m, n = inst.k, inst.m, inst.n
    budgets = [as_fraction(b) for b in budgets]
    probs = np.clip(np.asarray(lp_solution.values[: k * m], dtype=float), 0.0, 1.0)
    factor = 1 + Fraction(params.delta(m))
    costs, scale = inst.icosts, inst.scale
    attempts = params.attempts(m, n)
    limits = [scaled_floor(scale, factor, b) for b in budgets]
    if ((probs == 0.0) | (probs == 1.0)).all():
        # every iteration draws exactly the pairs at 1, so one exact decision
        # stands for all of them
        placed, union = [[] for _ in range(m)], 0
        for s, row in enumerate((probs.reshape(k, m) == 1.0).tolist()):
            if True in row:
                placed[row.index(True)].append(s)
                union |= inst.masks[s]
        per_machine = tuple(map(tuple, placed))
        for j, seq in enumerate(per_machine):
            if sum(costs[s][j] for s in seq) > limits[j]:
                raise NoIterationKeptError(attempts)
        covered = union.bit_count()
        return _result(inst, per_machine, covered, lp_solution, attempts, attempts, attempts, True)

    # float32 so the coverage product runs in BLAS; its entries count sets,
    # which float32 holds exactly below 2^24
    incidence = np.zeros((k, n), dtype=np.float32)
    for s in range(k):
        incidence[s, list(inst.sets[s])] = 1.0
    # only pairs with x > 0 are ever drawn, so no iteration covers more
    support = 0
    for s in np.flatnonzero(probs.reshape(k, m).any(axis=1)):
        support |= inst.masks[s]
    ceiling = support.bit_count()

    # Machine j's costs and limit over the gcd of its finite costs. A limit
    # below 0 or above the column's total decides as that bound does, and an
    # infinite cost exceeds the limit on its own.
    columns, bounds = [], []
    for j, limit in enumerate(limits):
        finite = [row[j] for row in costs if row[j] is not INFINITE_COST]
        g = math.gcd(*finite) or 1
        bound = min(max(limit // g, -1), sum(finite) // g)
        columns.append([bound + 1 if row[j] is INFINITE_COST else row[j] // g for row in costs])
        bounds.append(bound)
    dtype = np.int64 if max(map(sum, columns)) < 2**63 else object
    columns, bounds = np.array(columns, dtype=dtype), np.array(bounds, dtype=dtype)
    gen = stream(params.seed)
    widest = max(1, ROUND_BLOCK // max(1, k * m))
    block = max(1, (ROUND_BLOCK >> 7) // max(1, k * m))
    run, kept, best_covered, best_keep = 0, 0, -1, None
    while run < attempts and best_covered < ceiling:
        rows = min(block, attempts - run)
        drawn = raw_draws(gen, rows, probs).reshape(rows, k, m)
        # machine by machine, a set is kept where it is drawn and no lower
        # machine drew it
        hit = np.zeros((rows, k), dtype=bool)  # set s is placed in iteration r
        keep, loads = [], np.empty((rows, m), dtype=dtype)
        for j in range(m):
            keep.append(drawn[:, :, j] & ~hit)
            hit |= drawn[:, :, j]
            loads[:, j] = np.where(keep[j], columns[j], 0).sum(axis=1)
        ok = ~(loads > bounds).any(axis=1)
        kept += int(ok.sum())
        covered = np.where(ok, (hit.astype(np.float32) @ incidence > 0).sum(axis=1), -1)
        best = int(np.argmax(covered))  # ties go to the earliest kept iteration
        if covered[best] > best_covered:
            best_covered, best_keep = int(covered[best]), [keep_j[best] for keep_j in keep]
        run += rows
        block = min(2 * block, widest)
    if kept == 0:
        raise NoIterationKeptError(attempts)
    per_machine = tuple(tuple(int(s) for s in np.flatnonzero(keep_j)) for keep_j in best_keep)
    return _result(inst, per_machine, best_covered, lp_solution, kept, attempts, run, False)


def _result(
    inst, per_machine, covered, lp_solution, kept, attempts, attempts_run, integral
) -> PmcResult:
    """The rounding's result for the chosen sets, each machine's cost summed in ``icosts``."""
    costs, scale = inst.icosts, inst.scale
    return PmcResult(
        assignment=Assignment(per_machine),
        per_machine_cost=tuple(
            Fraction(sum(costs[s][j] for s in seq), scale) for j, seq in enumerate(per_machine)
        ),
        covered=covered,
        lp_objective=float(lp_solution.objective_value),
        iterations_kept=kept,
        attempts=attempts,
        attempts_run=attempts_run,
        integral=integral,
    )


def pmc_solve(
    relaxation: PmcRelaxation, budgets: Sequence, params: PmcParams, verify_lp: bool = False
) -> PmcResult:
    """relaxation.at(budgets) -> solve_lp -> round_pmc, with the zero-objective
    shortcut. The LP starts warm from the relaxation's last optimum, as it
    differs from it only in the budget rows' rhs.
    """
    inst = relaxation.inst
    program = relaxation.at(budgets)
    dump = os.environ.get("PMSSC_DUMP_LP")
    if dump:
        try:
            with open(dump, "a", encoding="utf-8") as fh:
                fh.write(to_lp_format(program))
        except OSError as exc:
            raise ValidationError("PMSSC_DUMP_LP", "cannot write %s: %s" % (dump, exc))
    solution = solve_lp(program, verify=verify_lp, warm=relaxation.warm)
    if solution.status != OPTIMAL:
        raise DomainError("PMC relaxation must be feasible and bounded")
    if float(solution.objective_value) <= 1e-12:
        return _result(inst, ((),) * inst.m, 0, solution, 0, 0, 0, False)
    return round_pmc(inst, budgets, solution, params)
