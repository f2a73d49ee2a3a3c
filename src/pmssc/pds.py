"""Parallel densest subfamily solvers.

Every solver walks one geometric budget ladder: each guess yields at most one
assignment from a max-coverage problem within that budget. ``_densest``
climbs the ladder until an assignment covers every coverable remaining
element (one held by an available set with a finite cost), runs no later
guess, and keeps the densest assignment seen (ties break toward the smaller
guess, and the winner's density is re-evaluated). The bound survives the
stop: the proof needs the first guess at or above the optimal makespan, and
a full cover at a smaller guess is already at least as dense as the
density the proof derives there.

* identical machines: budgeted max coverage with m times the guess, chosen
  sets spread largest-first over the least-loaded machine. Unit costs take
  this same ladder; with equal costs the spread is index-order round-robin.
* related and unrelated machines share one parallel max coverage ladder
  (``_pmc_ladder``). Related machines shrink to one auxiliary machine per
  nonempty group of near-equal speed, use the FPT rounding regime on that
  instance, and lift each group's sets onto its machines with the identical
  machines' placement; unrelated machines use a ladder of powers of two and
  the polynomial rounding regime.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, List, Optional, Tuple

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
from .errors import InvalidIndexError, InvariantError, NoCoverageError, NoIterationKeptError
from .maxcov import budgeted_max_coverage
from .pmc import FPT, POLY, PmcParams, pmc_solve
from .rng import child_seed

RELATED_ROUNDING_CAP = 128  # desk-scale cap on FPT rounding repetitions


def _ladder_guesses(inst: ProblemInstance, base: Fraction, pool) -> Iterator[Fraction]:
    """Powers of ``base`` spanning the finite costs in ``pool``'s rows, made as pulled.

    The first is the least power at or above the cheapest of them, the last
    the greatest at or below ``base`` times their sum. Ladders stop at their
    first full cover, so later powers are never multiplied out.
    """
    rows = inst.finite_row_costs
    stats = [rows[s] for s in pool if rows[s] is not None]
    if not stats:
        raise NoCoverageError("no finite-cost set is available")
    lo = min(least for least, _ in stats)
    top = base * sum((total for _, total in stats), Fraction(0))
    power = Fraction(1)
    while power < lo:
        power *= base
    while power / base >= lo:
        power /= base
    while power <= top:
        yield power
        power *= base


def _covering_pool(inst, remaining, available) -> Tuple[List[int], int]:
    """The available sets in index order, and how many remaining elements they can cover.

    Sets must lie in [0, k) and elements in [0, n). An element counts as
    coverable when a pool set with some finite cost holds it; there must be
    at least one.
    """
    pool = sorted(range(inst.k) if available is None else available)
    outside = [s for s in pool if not 0 <= s < inst.k]
    if outside:
        raise InvalidIndexError("available set %d outside [0, %d)" % (outside[0], inst.k))
    outside = [e for e in remaining if not 0 <= e < inst.n]
    if outside:
        raise InvalidIndexError("remaining element %d outside [0, %d)" % (min(outside), inst.n))
    rows, masks = inst.finite_row_costs, inst.masks
    held = finite = 0
    for s in pool:
        held |= masks[s]
        if rows[s] is not None:
            finite |= masks[s]
    remaining_mask = element_mask(remaining)
    if not held & remaining_mask:
        raise NoCoverageError("no available set covers a remaining element")
    coverable = (finite & remaining_mask).bit_count()
    if not coverable:
        raise NoCoverageError("no finite-cost set is available")
    return pool, coverable


def _densest(inst, remaining, coverable, candidates: Iterable[Assignment]) -> Assignment:
    """The densest assignment the ladder yields up to its first full cover.

    Candidates are pulled in ascending guess order until one covers all
    ``coverable`` elements; later guesses never run. Ties keep the earlier
    guess. Stopping keeps the ladder's bound: let g0 be the first full-cover
    guess, beta the solver's load factor and g* the first guess at or above
    the optimal family's makespan T*. If g* <= g0, g* ran, and the kept
    result is at least as dense as g*'s. Otherwise g0 < T*, and the full
    cover's density is at least coverable / (beta * g0), which exceeds
    OPT's covered count over beta * T*, the density the analysis derives
    at g*.
    """
    best = None  # (DensityValue, Assignment)
    for asg in candidates:
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
        if d.covered == coverable:
            break
    if best is None:
        raise NoCoverageError("every budget guess produced an empty family")
    if density(inst, best[1], remaining) != best[0]:
        raise InvariantError("re-evaluated density differs from the kept value")
    return best[1]


def _place_largest_first(inst, chosen, machines, per_machine, loads) -> None:
    """Put ``chosen`` largest-first, each set on the least-loaded of ``machines``.

    ``machines`` order every set's costs alike (identical machines, or one
    related speed group), so the first machine's costs give the order.
    ``per_machine`` and ``loads`` are updated in place. Each machine ends at
    most its group's average load plus one set's cost, the 2B bound the
    ladder analysis relies on; index-order round-robin does not achieve that
    with heterogeneous costs.
    """
    first = machines[0]
    for s in sorted(chosen, key=lambda s: (-inst.costs[s][first], s)):
        j = min(machines, key=lambda q: (loads[q], q))
        per_machine[j].append(s)
        loads[j] += inst.costs[s][j]


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
) -> Assignment:
    """Budget-ladder greedy for identical (or unit) machines."""
    if inst.cost_model.kind not in ("unit", "identical"):
        raise ValueError("pds_identical needs the unit or identical cost model")
    remaining = frozenset(remaining)
    pool, coverable = _covering_pool(inst, remaining, available)
    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    remaining_mask = element_mask(remaining)
    cost = [row[0] for row in inst.costs]
    # The sets that fit a guess are the first ``fit`` of the pool sorted by
    # cost; guesses ascend, so the maxcov arguments change only when it grows.
    by_cost = sorted(pool, key=cost.__getitem__)
    sorted_costs = [cost[s] for s in by_cost]
    # Max coverage returns nothing until a set that meets ``remaining`` fits.
    first = next(i for i, s in enumerate(by_cost) if inst.masks[s] & remaining_mask)

    def spreads():
        fit = 0
        for guess in _ladder_guesses(inst, base, pool):
            grown = bisect_right(sorted_costs, guess)
            if grown <= first:
                continue
            if grown > fit:
                fit = grown
                candidates = sorted(by_cost[:fit])
                cand_masks = [inst.masks[s] for s in candidates]
                cand_costs = [cost[s] for s in candidates]
            result = budgeted_max_coverage(
                remaining_mask, cand_masks, cand_costs, inst.m * guess
            )
            if not result.chosen:
                continue
            chosen = [candidates[i] for i in result.chosen]
            per_machine, loads = [[] for _ in range(inst.m)], [Fraction(0)] * inst.m
            _place_largest_first(inst, chosen, range(inst.m), per_machine, loads)
            if max(loads) > 2 * guess:
                raise InvariantError("a load %s exceeds twice the guess %s" % (max(loads), guess))
            yield Assignment(per_machine)

    return _densest(inst, remaining, coverable, spreads())


# ---------------------------------------------------------------------------
# Related machines


@dataclass(frozen=True)
class RelatedReduction:
    """Machine-group reduction for related machines.

    ``groups[p]`` lists the original machines whose cost multiplier
    (fastest speed / own speed) rounds up to ``aux_cost_multiplier[p] =
    (1 + kappa)^p``. Machines slower than kappa/m times the fastest are
    discarded. Positional groups may be empty; the auxiliary instance has a
    machine for the nonempty ones only.
    """

    kept_machines: Tuple[int, ...]
    groups: Tuple[Tuple[int, ...], ...]
    aux_cost_multiplier: Tuple[Fraction, ...]
    kappa: Fraction

    @property
    def t(self) -> int:
        return len(self.groups)


@lru_cache(maxsize=1)
def reduce_related(
    inst: ProblemInstance, kappa
) -> Tuple[RelatedReduction, ProblemInstance]:
    """Group related machines by rounded speed; build the auxiliary instance.

    Returns the reduction plus an unrelated-cost instance with one machine per
    nonempty group, in group order; set s costs (1 + kappa)^p times its base
    cost on the machine of group p. The last (instance, kappa) is cached, as
    the greedy driver asks for the same reduction at every iteration.
    """
    if inst.cost_model.kind != "related":
        raise ValueError("reduce_related needs the related cost model")
    kappa = as_fraction(kappa)
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    speeds = inst.cost_model.speeds
    s_max = max(speeds)
    kept = [j for j in range(inst.m) if speeds[j] / s_max > kappa / inst.m]
    if not kept:
        raise NoCoverageError("all machines were discarded as slow")

    # Powers 0..t of 1 + kappa, t the first with (1 + kappa)^t >= m / kappa: a
    # kept multiplier lies below m / kappa, so it rounds up to at most power t.
    top = inst.m / kappa
    powers = [Fraction(1)]
    while powers[-1] < top:
        powers.append(powers[-1] * (1 + kappa))
    groups = [[] for _ in powers]
    for j in kept:
        groups[bisect_left(powers, s_max / speeds[j])].append(j)

    reduction = RelatedReduction(
        kept_machines=tuple(kept),
        groups=tuple(tuple(g) for g in groups),
        aux_cost_multiplier=tuple(powers),
        kappa=kappa,
    )
    nonempty = [p for p, g in enumerate(groups) if g]
    base_costs = inst.cost_model.base_costs
    matrix = tuple(tuple(powers[p] * c for p in nonempty) for c in base_costs)
    aux = ProblemInstance(
        n=inst.n, sets=inst.sets, m=len(nonempty), cost_model=UnrelatedCosts(matrix)
    )
    return reduction, aux


def related_parameters(epsilon: float) -> Tuple[float, float]:
    """(delta, kappa) with delta = eps*2e/(e-1) and kappa = delta/(delta+16)."""
    delta = identical_ladder_delta(epsilon)
    return delta, delta / (delta + 16.0)


def _pmc_ladder(inst, remaining, pool, table, weights, base, params, clamp):
    """Parallel max coverage at each guess of one budget ladder.

    ``table``'s costs have a row per set and a column per PMC machine; sets
    outside ``pool`` are closed and elements outside ``remaining`` dropped.
    Guess number ``gi`` gives machine q the budget ``weights[q] * guess`` and
    rounds with seed ``child_seed(params.seed, gi)``. With ``clamp`` a cost
    above the guess fits no budget and is infinite, so the work table is
    built once per fit count, the number of pool costs at or below the
    guess. Yields (guess, assignment) for every guess that keeps a nonempty
    assignment.
    """
    pool_set = set(pool)
    m = len(weights)
    sets = tuple(
        tuple(sorted(inst.members[s] & remaining)) if s in pool_set else ()
        for s in range(inst.k)
    )
    # Pool rows that meet no remaining element stay: the LP normalisers sum them.
    rows = [
        row if s in pool_set else (INFINITE_COST,) * m for s, row in enumerate(table.costs)
    ]
    fitting = sorted(c for s in pool for c in table.costs[s] if is_finite_cost(c))
    usable = [s for s in pool if inst.members[s] & remaining]

    produced = False
    skipped = []
    work, work_fit = None, None
    for gi, guess in enumerate(_ladder_guesses(table, base, usable)):
        # The first guess covers a usable set's cheapest cost, so fit >= 1.
        fit = bisect_right(fitting, guess) if clamp else len(fitting)
        if fit != work_fit:
            largest = fitting[fit - 1]
            costs = tuple(tuple(INFINITE_COST if c > largest else c for c in row) for row in rows)
            work = ProblemInstance(n=inst.n, sets=sets, m=m, cost_model=UnrelatedCosts(costs))
            work_fit = fit
        try:
            result = pmc_solve(
                work,
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
    pool, coverable = _covering_pool(inst, remaining, available)
    _, kappa = related_parameters(epsilon)
    kappa_f = Fraction(kappa)
    reduction, aux = reduce_related(inst, kappa_f)
    groups = [g for g in reduction.groups if g]
    params = PmcParams(
        mode=FPT, epsilon=kappa, mu=kappa, r_cap=RELATED_ROUNDING_CAP, seed=seed
    )
    s_max = max(inst.cost_model.speeds)

    def lift(guess, grouped: Assignment) -> Assignment:
        """Each group's sets, largest first, on the group's least-loaded machine."""
        per_machine, loads = [[] for _ in range(inst.m)], [Fraction(0)] * inst.m
        for group, chosen in zip(groups, grouped.per_machine):
            _place_largest_first(inst, chosen, group, per_machine, loads)
        # Guesses count the fastest speed as 1, so a real load times s_max is
        # in guess units: a group's average is at most (1 + kappa) * guess,
        # and one set adds at most one guess.
        if max(loads) * s_max > (2 + kappa_f) * guess:
            raise InvariantError("lift exceeded the per-machine bound")
        return Assignment(per_machine)

    ladder = _pmc_ladder(
        inst, remaining, pool, aux, [len(g) for g in groups],
        Fraction(1) + kappa_f, params, clamp=True,
    )
    return _densest(
        inst, remaining, coverable, (lift(guess, asg) for guess, asg in ladder)
    )


def pds_unrelated(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
    seed: int = 0,
) -> Assignment:
    """Powers-of-two budget ladder with polynomial-regime max coverage."""
    remaining = frozenset(remaining)
    pool, coverable = _covering_pool(inst, remaining, available)
    ladder = _pmc_ladder(
        inst, remaining, pool, inst, [1] * inst.m,
        Fraction(2), PmcParams(mode=POLY, epsilon=epsilon, seed=seed), clamp=False,
    )
    return _densest(inst, remaining, coverable, (asg for _, asg in ladder))
