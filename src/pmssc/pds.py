"""Parallel densest subfamily solvers.

* identical / unit machines: guess a budget on a geometric ladder, run
  budgeted max coverage with m times the guess, spread the chosen sets over
  the machines.
* related machines: shrink the machine set to O(log m) groups of near-equal
  speed, solve the grouped instance as parallel max coverage in the FPT
  rounding regime, and lift the result back onto the real machines.
* unrelated machines: budget ladder of powers of two with the polynomial
  rounding regime.

Budget guesses are independent; the final argmax re-evaluates every kept
candidate and ties break toward the smaller guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import (
    Assignment,
    INFINITE_COST,
    ProblemInstance,
    UnrelatedCosts,
    as_fraction,
    density,
    element_mask,
    is_finite_cost,
)
from .errors import InvariantError, NoCoverageError, NoIterationKeptError
from .maxcov import budgeted_max_coverage
from .pmc import FPT, POLY, PmcParams, pmc_solve
from .rng import child_seed

RELATED_ROUNDING_CAP = 128  # desk-scale cap on FPT rounding repetitions


@dataclass(frozen=True)
class BudgetLadder:
    """Geometric guesses base**i covering [lo, base*hi]."""

    base: Fraction
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.base <= 1:
            raise ValueError("ladder base must exceed 1")
        if self.lo <= 0 or self.hi < self.lo:
            raise ValueError("ladder needs 0 < lo <= hi")

    def guesses(self) -> Tuple[Fraction, ...]:
        power = Fraction(1)
        while power < self.lo:
            power *= self.base
        while power / self.base >= self.lo:
            power /= self.base
        out = []
        top = self.base * self.hi
        while power <= top:
            out.append(power)
            power *= self.base
        return tuple(out)


def _ladder_for(inst: ProblemInstance, base: Fraction, available) -> BudgetLadder:
    lo = inst.min_positive_cost(available)
    if lo is None:
        raise NoCoverageError("no finite-cost set is available")
    hi = Fraction(0)
    pool = range(inst.k) if available is None else sorted(available)
    for s in pool:
        for j in range(inst.m):
            c = inst.cost(s, j)
            if is_finite_cost(c):
                hi += c
    return BudgetLadder(base=base, lo=lo, hi=max(hi, lo))


def _available_list(inst, available) -> List[int]:
    return sorted(range(inst.k)) if available is None else sorted(available)


def _require_coverage(inst, remaining, pool):
    if not any(inst.members[s] & remaining for s in pool):
        raise NoCoverageError("no available set covers a remaining element")


def _check_best_density(inst, best, remaining) -> None:
    if density(inst, best[1], remaining) != best[0]:
        raise InvariantError("re-evaluated density differs from the kept value")


def _least_loaded_spread(chosen: Sequence[int], cost: Sequence[Fraction], m: int):
    """Place sets largest-first on the currently cheapest identical machine.

    Returns the per-machine families and their loads. This keeps every
    machine at most average + max-set cost, which is the 2B bound the ladder
    analysis relies on; plain index-order round-robin does not achieve that
    with heterogeneous costs.
    """
    order = sorted(chosen, key=lambda s: (-cost[s], s))
    loads = [Fraction(0)] * m
    machines = [[] for _ in range(m)]
    for s in order:
        j = min(range(m), key=lambda q: (loads[q], q))
        machines[j].append(s)
        loads[j] += cost[s]
    return tuple(tuple(seq) for seq in machines), loads


def identical_ladder_delta(epsilon: float) -> float:
    return epsilon * 2.0 * math.e / (math.e - 1.0)


def pds_identical(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
    maxcov_mode: Optional[str] = None,
) -> Assignment:
    """Budget-ladder greedy for identical (or unit) machines."""
    if inst.cost_model.kind not in ("unit", "identical"):
        raise ValueError("pds_identical needs the unit or identical cost model")
    remaining = frozenset(remaining)
    pool = _available_list(inst, available)
    _require_coverage(inst, remaining, pool)
    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    ladder = _ladder_for(inst, base, pool)
    remaining_mask = element_mask(remaining)
    cost = [inst.cost(s, 0) for s in range(inst.k)]
    # Guesses ascend, so the sets that fit a guess grow as a prefix of the
    # pool sorted by cost, and the maxcov arguments change only when it grows.
    by_cost = sorted(pool, key=cost.__getitem__)
    fit = 0

    best = None  # (DensityValue, Assignment)
    for guess in ladder.guesses():
        grown = fit
        while grown < len(by_cost) and cost[by_cost[grown]] <= guess:
            grown += 1
        if not grown:
            continue
        if grown > fit:
            fit = grown
            candidates = sorted(by_cost[:fit])
            cand_masks = [inst.masks[s] for s in candidates]
            cand_costs = [cost[s] for s in candidates]
        result = budgeted_max_coverage(
            remaining_mask, cand_masks, cand_costs, inst.m * guess, mode=maxcov_mode
        )
        if not result.chosen:
            continue
        chosen = [candidates[i] for i in result.chosen]
        per_machine, loads = _least_loaded_spread(chosen, cost, inst.m)
        asg = Assignment(per_machine)
        for j, load in enumerate(loads):
            if load > 2 * guess:
                raise InvariantError(
                    "machine %d load %s exceeds twice the guess %s" % (j, load, guess)
                )
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
    if best is None:
        raise NoCoverageError("every budget guess produced an empty family")
    _check_best_density(inst, best, remaining)
    return best[1]


def pds_unit(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
    maxcov_mode: Optional[str] = None,
) -> Assignment:
    """Unit-cost simplification: balanced split instead of round-robin.

    Each machine receives at most ceil(|C| / m) sets, so the makespan equals
    that ceiling and the factor 2 of the identical-machine split disappears.
    """
    if inst.cost_model.kind != "unit":
        raise ValueError("pds_unit needs the unit cost model")
    remaining = frozenset(remaining)
    pool = _available_list(inst, available)
    _require_coverage(inst, remaining, pool)
    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    ladder = _ladder_for(inst, base, pool)
    remaining_mask = element_mask(remaining)
    pool_masks = [inst.masks[s] for s in pool]
    ones = [Fraction(1)] * len(pool)

    best = None
    for guess in ladder.guesses():
        if guess < 1:
            continue  # every set costs 1
        result = budgeted_max_coverage(
            remaining_mask, pool_masks, ones, inst.m * guess, mode=maxcov_mode
        )
        if not result.chosen:
            continue
        chosen = sorted(pool[i] for i in result.chosen)
        if len(chosen) > inst.m * guess:
            raise InvariantError(
                "%d unit sets exceed the budget %s" % (len(chosen), inst.m * guess)
            )
        machines = [[] for _ in range(inst.m)]
        for i, s in enumerate(chosen):
            machines[i % inst.m].append(s)
        asg = Assignment(tuple(tuple(seq) for seq in machines))
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
    if best is None:
        raise NoCoverageError("every budget guess produced an empty family")
    _check_best_density(inst, best, remaining)
    return best[1]


# ---------------------------------------------------------------------------
# Related machines


@dataclass(frozen=True)
class RelatedReduction:
    """Machine-group reduction for related machines.

    ``groups[p]`` lists the original machines whose cost multiplier
    (fastest speed / own speed) rounds up to ``aux_cost_multiplier[p] =
    (1 + kappa)^p``. Machines slower than kappa/m times the fastest are
    discarded. Positional groups may be empty.
    """

    kept_machines: Tuple[int, ...]
    groups: Tuple[Tuple[int, ...], ...]
    aux_cost_multiplier: Tuple[Fraction, ...]
    kappa: Fraction

    @property
    def t(self) -> int:
        return len(self.groups)


def reduce_related(
    inst: ProblemInstance, kappa
) -> Tuple[RelatedReduction, ProblemInstance]:
    """Group related machines by rounded speed; build the auxiliary instance.

    Returns the reduction plus an unrelated-cost instance on one machine per
    group, with cost multiplier (1 + kappa)^p for group p.
    """
    if inst.cost_model.kind != "related":
        raise ValueError("reduce_related needs the related cost model")
    kappa = as_fraction(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    speeds = inst.cost_model.speeds
    s_max = max(speeds)
    threshold = kappa / inst.m

    kept = []
    multipliers = {}
    for j in range(inst.m):
        normalized_speed = speeds[j] / s_max
        if normalized_speed <= threshold:
            continue  # slow machine, discarded
        kept.append(j)
        multipliers[j] = s_max / speeds[j]

    one_plus = Fraction(1) + kappa
    # smallest t with (1 + kappa)^t >= m / kappa; buckets hold powers 0..t
    # because a kept multiplier just below m/kappa still rounds up to power t.
    bound = Fraction(inst.m) / kappa
    t = 0
    power = Fraction(1)
    while power < bound:
        power *= one_plus
        t += 1
    bucket_multipliers = []
    power = Fraction(1)
    for _ in range(t + 1):
        bucket_multipliers.append(power)
        power *= one_plus

    groups = [[] for _ in range(t + 1)]
    for j in kept:
        q = 0
        power = Fraction(1)
        while power < multipliers[j]:
            power *= one_plus
            q += 1
        groups[q].append(j)

    reduction = RelatedReduction(
        kept_machines=tuple(kept),
        groups=tuple(tuple(g) for g in groups),
        aux_cost_multiplier=tuple(bucket_multipliers),
        kappa=kappa,
    )
    base_costs = inst.cost_model.base_costs
    matrix = tuple(
        tuple(bucket_multipliers[p] * base_costs[s] for p in range(t + 1))
        for s in range(inst.k)
    )
    aux = ProblemInstance(
        n=inst.n,
        sets=inst.sets,
        m=t + 1,
        cost_model=UnrelatedCosts(matrix),
    )
    return reduction, aux


def related_parameters(epsilon: float) -> Tuple[float, float]:
    """(delta, kappa) with delta = eps*2e/(e-1) and kappa = delta/(delta+16)."""
    delta = identical_ladder_delta(epsilon)
    return delta, delta / (delta + 16.0)


def pds_related(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
    seed: int = 0,
) -> Assignment:
    """Machine-group reduction plus FPT-mode parallel max coverage."""
    if inst.cost_model.kind != "related":
        raise ValueError("pds_related needs the related cost model")
    remaining = frozenset(remaining)
    pool = _available_list(inst, available)
    pool_set = set(pool)
    _require_coverage(inst, remaining, pool)
    _, kappa = related_parameters(epsilon)
    kappa_f = Fraction(kappa)
    reduction, aux_full = reduce_related(inst, kappa_f)

    # Presolve: empty groups carry budget zero and can never receive a set,
    # so the PMC instance only keeps the nonempty ones.
    nonempty = [p for p in range(reduction.t) if reduction.groups[p]]
    if not nonempty:
        raise NoCoverageError("all machines were discarded as slow")
    restricted_sets = tuple(
        tuple(sorted(inst.members[s] & remaining)) if s in pool_set else ()
        for s in range(inst.k)
    )

    def aux_matrix(budget_cap: Optional[Fraction]):
        rows = []
        for s in range(inst.k):
            row = []
            for p in nonempty:
                if s not in pool_set:
                    row.append(INFINITE_COST)
                    continue
                c = aux_full.cost(s, p)
                if budget_cap is not None and c > budget_cap:
                    row.append(INFINITE_COST)  # too big to fit any guess-B budget
                else:
                    row.append(c)
            rows.append(tuple(row))
        return tuple(rows)

    compact_probe = ProblemInstance(
        n=inst.n,
        sets=restricted_sets,
        m=len(nonempty),
        cost_model=UnrelatedCosts(aux_matrix(None)),
    )
    usable = [s for s in pool if inst.members[s] & remaining]
    ladder = _ladder_for(compact_probe, Fraction(1) + kappa_f, usable)

    best = None
    skipped = []
    for gi, guess in enumerate(ladder.guesses()):
        budgets = [Fraction(len(reduction.groups[p])) * guess for p in nonempty]
        guess_inst = ProblemInstance(
            n=inst.n,
            sets=restricted_sets,
            m=len(nonempty),
            cost_model=UnrelatedCosts(aux_matrix(guess)),
        )
        params = PmcParams(
            mode=FPT,
            epsilon=kappa,
            mu=kappa,
            r_cap=RELATED_ROUNDING_CAP,
            seed=child_seed(seed, gi),
        )
        try:
            result = pmc_solve(guess_inst, budgets, params)
        except NoIterationKeptError:
            skipped.append(guess)
            continue
        if result.assignment.is_empty:
            continue
        per_machine = [[] for _ in range(inst.m)]
        loads = [Fraction(0)] * inst.m
        feasible = True
        for idx, p in enumerate(nonempty):
            group = reduction.groups[p]
            chosen = result.assignment.per_machine[idx]
            order = sorted(chosen, key=lambda s: (-inst.cost_model.base_costs[s], s))
            for s in order:
                j = min(group, key=lambda q: (loads[q], q))
                per_machine[j].append(s)
                loads[j] += inst.cost(s, j)
            group_budget = Fraction(len(group)) * guess
            cap = (1 + kappa_f) * group_budget / len(group) + guess
            for j in group:
                if loads[j] > cap:
                    feasible = False
        if not feasible:
            raise InvariantError("lift exceeded the per-machine bound")
        asg = Assignment(tuple(tuple(seq) for seq in per_machine))
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
    if best is None:
        raise NoCoverageError(
            "no budget guess produced an assignment (skipped: %s)"
            % [float(g) for g in skipped]
        )
    _check_best_density(inst, best, remaining)
    return best[1]


def pds_unrelated(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
    seed: int = 0,
) -> Assignment:
    """Powers-of-two budget ladder with polynomial-regime max coverage."""
    remaining = frozenset(remaining)
    pool = _available_list(inst, available)
    pool_set = set(pool)
    _require_coverage(inst, remaining, pool)

    restricted_sets = tuple(
        tuple(sorted(inst.members[s] & remaining)) if s in pool_set else ()
        for s in range(inst.k)
    )
    matrix = tuple(
        tuple(
            inst.cost(s, j) if s in pool_set else INFINITE_COST
            for j in range(inst.m)
        )
        for s in range(inst.k)
    )
    work = ProblemInstance(
        n=inst.n, sets=restricted_sets, m=inst.m, cost_model=UnrelatedCosts(matrix)
    )
    usable = [s for s in pool if inst.members[s] & remaining]
    ladder = _ladder_for(work, Fraction(2), usable)

    best = None
    skipped = []
    for gi, guess in enumerate(ladder.guesses()):
        params = PmcParams(mode=POLY, epsilon=epsilon, seed=child_seed(seed, gi))
        try:
            result = pmc_solve(work, [guess] * inst.m, params)
        except NoIterationKeptError:
            skipped.append(guess)
            continue
        if result.assignment.is_empty:
            continue
        asg = result.assignment
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
    if best is None:
        raise NoCoverageError(
            "no budget guess produced an assignment (skipped: %s)"
            % [float(g) for g in skipped]
        )
    _check_best_density(inst, best, remaining)
    return best[1]
