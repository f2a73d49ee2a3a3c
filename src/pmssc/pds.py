"""Parallel densest subfamily solvers.

Every solver walks one geometric budget ladder: each guess yields at most one
assignment from a max-coverage problem within that budget, and ``_densest``
keeps the densest of them (ties break toward the smaller guess, and the
winner's density is re-evaluated).

* identical machines: budgeted max coverage with m times the guess, chosen
  sets spread largest-first over the least-loaded machine. Unit costs take
  this same ladder; with equal costs the spread is index-order round-robin.
* related and unrelated machines share one parallel max coverage ladder
  (``_pmc_ladder``). Related machines shrink to O(log m) groups of near-equal
  speed, use the FPT rounding regime on the grouped instance, and lift each
  result back onto the real machines; unrelated machines use a ladder of
  powers of two and the polynomial rounding regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def _ladder_for(inst: ProblemInstance, base: Fraction, pool) -> BudgetLadder:
    """Guesses from the cheapest finite cost in ``pool``'s rows to their sum."""
    finite = [c for s in pool for c in inst.costs[s] if is_finite_cost(c)]
    if not finite:
        raise NoCoverageError("no finite-cost set is available")
    lo = min(finite)
    return BudgetLadder(base=base, lo=lo, hi=max(sum(finite, Fraction(0)), lo))


def _covering_pool(inst, remaining, available) -> List[int]:
    """The available sets in index order; one of them must cover ``remaining``."""
    pool = sorted(range(inst.k)) if available is None else sorted(available)
    if not any(inst.members[s] & remaining for s in pool):
        raise NoCoverageError("no available set covers a remaining element")
    return pool


def _densest(inst, remaining, candidates: Iterable[Assignment]) -> Assignment:
    """The densest of the ladder's assignments; ties keep the earlier guess."""
    best = None  # (DensityValue, Assignment)
    for asg in candidates:
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
    if best is None:
        raise NoCoverageError("every budget guess produced an empty family")
    if density(inst, best[1], remaining) != best[0]:
        raise InvariantError("re-evaluated density differs from the kept value")
    return best[1]


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
    delta = epsilon * 2.0 * math.e / (math.e - 1.0)
    if not 0 < delta < math.inf:
        raise ValueError("epsilon %r gives no finite positive ladder step" % epsilon)
    return delta


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
    pool = _covering_pool(inst, remaining, available)
    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    ladder = _ladder_for(inst, base, pool)
    remaining_mask = element_mask(remaining)
    cost = [row[0] for row in inst.costs]
    # Guesses ascend, so the sets that fit a guess grow as a prefix of the
    # pool sorted by cost, and the maxcov arguments change only when it grows.
    by_cost = sorted(pool, key=cost.__getitem__)

    def spreads():
        fit = 0
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
            if max(loads) > 2 * guess:
                raise InvariantError("a load %s exceeds twice the guess %s" % (max(loads), guess))
            yield Assignment(per_machine)

    return _densest(inst, remaining, spreads())


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


def _pmc_ladder(inst, remaining, pool, matrix, weights, base, params, clamp):
    """Parallel max coverage at each guess of one budget ladder.

    ``matrix`` has a cost row per set and a column per PMC machine; sets
    outside ``pool`` are closed and elements outside ``remaining`` dropped.
    Guess number ``gi`` gives machine q the budget ``weights[q] * guess`` and
    rounds with seed ``child_seed(params.seed, gi)``; with ``clamp`` a cost
    above the guess is infinite for that guess, as it fits no budget. Yields
    (guess, assignment) for every guess that keeps a nonempty assignment.
    """
    pool_set = set(pool)
    m = len(weights)
    sets = tuple(
        tuple(sorted(inst.members[s] & remaining)) if s in pool_set else ()
        for s in range(inst.k)
    )
    costs = tuple(
        row if s in pool_set else (INFINITE_COST,) * m for s, row in enumerate(matrix)
    )
    work = ProblemInstance(n=inst.n, sets=sets, m=m, cost_model=UnrelatedCosts(costs))
    usable = [s for s in pool if inst.members[s] & remaining]
    ladder = _ladder_for(work, base, usable)

    produced = False
    skipped = []
    for gi, guess in enumerate(ladder.guesses()):
        guess_inst = work
        if clamp:
            clamped = tuple(
                tuple(INFINITE_COST if c > guess else c for c in row) for row in costs
            )
            guess_inst = ProblemInstance(
                n=inst.n, sets=sets, m=m, cost_model=UnrelatedCosts(clamped)
            )
        try:
            result = pmc_solve(
                guess_inst,
                [w * guess for w in weights],
                replace(params, seed=child_seed(params.seed, gi)),
            )
        except NoIterationKeptError:
            skipped.append(guess)
            continue
        if not result.assignment.is_empty:
            produced = True
            yield guess, result.assignment
    if not produced:
        raise NoCoverageError(
            "no budget guess produced an assignment (skipped: %s)"
            % [float(g) for g in skipped]
        )


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
    pool = _covering_pool(inst, remaining, available)
    _, kappa = related_parameters(epsilon)
    kappa_f = Fraction(kappa)
    reduction, aux = reduce_related(inst, kappa_f)

    # Presolve: empty groups carry budget zero and can never receive a set,
    # so the PMC instance only keeps the nonempty ones.
    nonempty = [p for p in range(reduction.t) if reduction.groups[p]]
    if not nonempty:
        raise NoCoverageError("all machines were discarded as slow")
    groups = [reduction.groups[p] for p in nonempty]
    matrix = tuple(tuple(row[p] for p in nonempty) for row in aux.costs)
    params = PmcParams(
        mode=FPT, epsilon=kappa, mu=kappa, r_cap=RELATED_ROUNDING_CAP, seed=seed
    )
    base_costs = inst.cost_model.base_costs
    s_max = max(inst.cost_model.speeds)

    def lift(guess, grouped: Assignment) -> Assignment:
        """Each group's sets, largest first, on the group's least-loaded machine."""
        per_machine = [[] for _ in range(inst.m)]
        loads = [Fraction(0)] * inst.m
        for group, chosen in zip(groups, grouped.per_machine):
            for s in sorted(chosen, key=lambda s: (-base_costs[s], s)):
                j = min(group, key=lambda q: (loads[q], q))
                per_machine[j].append(s)
                loads[j] += inst.costs[s][j]
        # Guesses count the fastest speed as 1, so a real load times s_max is
        # in guess units: a group's average is at most (1 + kappa) * guess,
        # and one set adds at most one guess.
        if max(loads) * s_max > (2 + kappa_f) * guess:
            raise InvariantError("lift exceeded the per-machine bound")
        return Assignment(tuple(tuple(seq) for seq in per_machine))

    ladder = _pmc_ladder(
        inst, remaining, pool, matrix, [len(g) for g in groups],
        Fraction(1) + kappa_f, params, clamp=True,
    )
    return _densest(inst, remaining, (lift(guess, asg) for guess, asg in ladder))


def pds_unrelated(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
    seed: int = 0,
) -> Assignment:
    """Powers-of-two budget ladder with polynomial-regime max coverage."""
    remaining = frozenset(remaining)
    pool = _covering_pool(inst, remaining, available)
    ladder = _pmc_ladder(
        inst, remaining, pool, inst.costs, [1] * inst.m,
        Fraction(2), PmcParams(mode=POLY, epsilon=epsilon, seed=seed), clamp=False,
    )
    return _densest(inst, remaining, (asg for _, asg in ladder))
