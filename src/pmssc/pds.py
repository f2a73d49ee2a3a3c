"""Parallel densest subfamily solvers.

Every solver walks one geometric budget ladder, ``_ladder``: each guess yields
at most one assignment from a max-coverage problem within that budget (a guess
whose rounding keeps no iteration is skipped). A guess is an int g on a grid
of step 1 / ``unit`` (``_ladder_guesses``) and the next is ceil(g * base), so
the first guess at or above any grid threshold is within ``base`` of it.
``_densest`` climbs the ladder until an assignment covers every coverable
remaining element (one held by an available set with a finite cost), runs no
later guess, and keeps the densest assignment seen (ties break toward the
smaller guess). The bound survives the stop: the proof needs the first guess
at or above the optimal makespan, and a full cover at a smaller guess is
already at least as dense as the density the proof derives there.
Skipping a guess that would repeat the last assignment (``_pmc_solver``) keeps
both: ties keep the earlier guess, and a full cover had stopped the ladder.

* identical machines: budgeted max coverage with m times the guess, chosen
  sets spread largest-first over the least-loaded machine. Unit costs take
  this same ladder; with equal costs the spread is index-order round-robin.
* related and unrelated machines solve parallel max coverage at each guess
  (``_pmc_solver``). Related machines shrink to one auxiliary machine per
  nonempty group of near-equal speed, use the FPT rounding regime on that
  instance, and lift each group's sets onto its machines with the identical
  machines' placement; unrelated machines use a ladder of base two and the
  polynomial rounding regime.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from .core import (
    Assignment,
    INFINITE_COST,
    ProblemInstance,
    UnrelatedCosts,
    as_fraction,
    available_pool,
    density,
    element_mask,
    remaining_elements,
)
from .errors import InvariantError, NoCoverageError, NoIterationKeptError
from .maxcov import budgeted_max_coverage
from .pmc import FPT, POLY, PmcParams, PmcRelaxation, pmc_solve
from .rng import child_seed

RELATED_ROUNDING_CAP = 128  # desk-scale cap on FPT rounding repetitions


def _ladder_guesses(table: ProblemInstance, base: Fraction, unit: int, pool) -> Iterator[int]:
    """Ints g, each the cost g / ``unit`` (a multiple of ``table.scale``), made as pulled.

    The first is the cheapest finite cost in ``pool``'s rows of ``table``, each
    next one ceil(g * ``base``), for base > 1, and the last the greatest at or
    below ``base`` times those rows' finite total. For every threshold X =
    x / ``unit`` (x an int) from the first guess to the last, the first guess
    at or above X is at most base * X: the guess before it is at most x - 1,
    and ceil((x - 1) * base) < x * base. The last guess is at least the total.
    Ladders stop at their first full cover, so later guesses are never made.
    """
    rows = table.finite_row_icosts
    stats = [rows[s] for s in pool if rows[s] is not None]
    if not stats:
        raise NoCoverageError("no finite-cost set is available")
    ratio, p, q = unit // table.scale, base.numerator, base.denominator
    guess = min(least for least, _ in stats) * ratio
    top = p * sum(total for _, total in stats) * ratio
    while guess * q <= top:
        yield guess
        guess = -(-guess * p // q)


def _covering_pool(inst, remaining, available) -> Tuple[frozenset, int, frozenset, List[int], int]:
    """``remaining`` as a frozenset and a mask, the available sets as a
    frozenset, the available sets that meet ``remaining`` in index order, and
    how many remaining elements they can cover.

    Elements must lie in [0, n). An element counts as coverable when a pool
    set with some finite cost holds it; there must be at least one.
    """
    pool = available_pool(inst, available)
    remaining = remaining_elements(inst, remaining)
    rows, masks = inst.finite_row_icosts, inst.masks
    remaining_mask = element_mask(remaining)
    usable = [s for s in pool if masks[s] & remaining_mask]
    if not usable:
        raise NoCoverageError("no available set covers a remaining element")
    finite = 0
    for s in usable:
        if rows[s] is not None:
            finite |= masks[s]
    coverable = (finite & remaining_mask).bit_count()
    if not coverable:
        raise NoCoverageError("no finite-cost set is available")
    return remaining, remaining_mask, frozenset(pool), usable, coverable


def _ladder(table, base, unit, pool, usable, clamp, solve) -> Iterator[Assignment]:
    """The nonempty assignments of one budget ladder, in guess order.

    The guesses span the finite costs of ``usable`` in ``table`` (see
    ``_ladder_guesses``); guess number ``gi``, the int g standing for
    g / ``unit``, yields ``solve(gi, g, largest)``. ``largest`` is the
    largest finite ``icosts`` entry of a ``pool`` set in ``table`` whose cost
    is at most the guess (guesses ascend, so one pointer walks the entries),
    or the largest of them all when ``clamp`` is off (a cost above the guess
    still fits). A guess whose rounding keeps no iteration is skipped, and a
    repeat (``solve`` returns None) yields nothing; when no guess yields a
    nonempty assignment, ``NoCoverageError`` names the skipped roundings.
    """
    fitting, ratio = [c for c, s in table.icost_order if s in pool], unit // table.scale
    fit = 0 if clamp else len(fitting)
    produced, skipped = False, []
    for gi, guess in enumerate(_ladder_guesses(table, base, unit, usable)):
        while fit < len(fitting) and fitting[fit] * ratio <= guess:
            fit += 1
        # The first guess is a usable set's cheapest cost, so one fits.
        largest = fitting[fit - 1]
        try:
            asg = solve(gi, guess, largest)
        except NoIterationKeptError:
            skipped.append(guess)
            continue
        if asg is not None and not asg.is_empty:
            produced = True
            yield asg
    if not produced:
        raise NoCoverageError(
            "no budget guess produced an assignment (skipped: %s)"
            % [g / unit for g in skipped]
        )


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
    best = None  # (DensityValue, Assignment); ``_ladder`` yields at least one
    for asg in candidates:
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
        if d.covered == coverable:
            break
    return best[1]


def _place_largest_first(inst, chosen, machines, per_machine, loads) -> None:
    """Put ``chosen`` largest-first, each set on the least-loaded of ``machines``.

    ``machines`` order every set's costs alike (identical machines, or one
    related speed group), so the first machine's costs give the order.
    ``per_machine`` and ``loads`` (``icosts``) are updated in place. Each
    machine ends at most its group's average load plus one set's cost, the
    2B bound the ladder analysis relies on; index-order round-robin does not
    achieve that with heterogeneous costs.
    """
    costs, first = inst.icosts, machines[0]
    for s in sorted(chosen, key=lambda s: (-costs[s][first], s)):
        j = min(machines, key=lambda q: (loads[q], q))
        per_machine[j].append(s)
        loads[j] += costs[s][j]


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
    remaining, remaining_mask, pool, usable, coverable = _covering_pool(inst, remaining, available)
    by_cost = [(c, s) for c, s in inst.icost_order if s in pool]

    @lru_cache(maxsize=1)
    def fitting(largest):
        """The pool sets of icost at most ``largest`` in index order, their masks and icosts."""
        sets = sorted(s for _, s in by_cost[: bisect_right(by_cost, largest, key=itemgetter(0))])
        return sets, [inst.masks[s] for s in sets], [inst.icosts[s][0] for s in sets]

    def spread(gi, guess, largest) -> Assignment:
        """The guess's assignment: ``guess`` is in ``icosts`` units."""
        candidates, masks, costs = fitting(largest)
        result = budgeted_max_coverage(remaining_mask, masks, costs, inst.m * guess)
        chosen = [candidates[i] for i in result.chosen]
        per_machine, loads = [[] for _ in range(inst.m)], [0] * inst.m
        _place_largest_first(inst, chosen, range(inst.m), per_machine, loads)
        if max(loads) > 2 * guess:
            load, guess = Fraction(max(loads), inst.scale), Fraction(guess, inst.scale)
            raise InvariantError("a load %s exceeds twice the guess %s" % (load, guess))
        return Assignment(per_machine)

    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    ladder = _ladder(inst, base, inst.scale, pool, usable, clamp=True, solve=spread)
    return _densest(inst, remaining, coverable, ladder)


# ---------------------------------------------------------------------------
# Related machines


def _power(base: Fraction, p: int) -> Fraction:
    """``base ** p``; every power the related reduction builds is built here."""
    return base**p


def _rounded_up_power(kappa: Fraction, x: Fraction) -> int:
    """The least p >= 0 with (1 + kappa)^p >= x: a float estimate, which
    exact powers on either side confirm or move."""
    base = 1 + kappa
    p = max(0, math.ceil((math.log(x.numerator) - math.log(x.denominator)) / math.log1p(kappa)))
    while p > 0 and _power(base, p - 1) >= x:
        p -= 1
    while _power(base, p) < x:
        p += 1
    return p


class _Powers(Sequence):
    """The read-only sequence (1 + kappa)^0, ..., (1 + kappa)^(length - 1),
    which builds a power only when it is read; it equals, and hashes as, the
    tuple of the same values."""

    def __init__(self, kappa: Fraction, length: int):
        self._base, self._length = 1 + kappa, length

    def __len__(self):
        return self._length

    def __getitem__(self, p):
        if not -self._length <= p < self._length:
            raise IndexError("power index out of range")
        return _power(self._base, p % self._length)

    def __eq__(self, other):
        if not isinstance(other, (tuple, _Powers)):
            return NotImplemented
        return len(other) == self._length and all(a == b for a, b in zip(self, other))

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class RelatedReduction:
    """Machine-group reduction for related machines.

    ``groups[p]`` lists the original machines whose cost multiplier
    (fastest speed / own speed) rounds up to ``aux_cost_multiplier[p] =
    (1 + kappa)^p``. Machines slower than kappa/m times the fastest are
    discarded. Positional groups may be empty; the auxiliary instance has a
    machine for the nonempty ones only, each costed by its group's largest
    multiplier. ``aux_cost_multiplier`` holds all t + 1 powers as a
    ``_Powers`` sequence, so only the powers read are built.
    """

    kept_machines: Tuple[int, ...]
    groups: Tuple[Tuple[int, ...], ...]
    aux_cost_multiplier: Sequence[Fraction]

    @property
    def t(self) -> int:
        return len(self.groups)


@lru_cache(maxsize=1)
def reduce_related(
    inst: ProblemInstance, kappa
) -> Tuple[RelatedReduction, ProblemInstance]:
    """Group related machines by rounded speed; build the auxiliary instance.

    Returns the reduction plus an unrelated-cost instance with one machine per
    nonempty group, in group order; set s costs there its base cost times the
    group's largest multiplier, which lies, like (1 + kappa)^p, between each
    member's cost and 1 + kappa times it, and keeps the ladder's grid coarse.
    The last (instance, kappa) is cached, as the greedy driver asks for the
    same reduction at every iteration.
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
    powers = _Powers(kappa, _rounded_up_power(kappa, inst.m / kappa) + 1)
    groups = [[] for _ in range(len(powers))]
    for j in kept:
        groups[_rounded_up_power(kappa, s_max / speeds[j])].append(j)

    reduction = RelatedReduction(
        kept_machines=tuple(kept),
        groups=tuple(tuple(g) for g in groups),
        aux_cost_multiplier=powers,
    )
    multipliers = [s_max / min(speeds[j] for j in g) for g in groups if g]
    matrix = tuple(tuple(mult * c for mult in multipliers) for c in inst.cost_model.base_costs)
    aux = ProblemInstance(
        n=inst.n, sets=inst.sets, m=len(multipliers), cost_model=UnrelatedCosts(matrix)
    )
    return reduction, aux


def related_parameters(epsilon: float) -> Tuple[float, float]:
    """(delta, kappa) with delta = eps*2e/(e-1) and kappa = delta/(delta+16)."""
    delta = identical_ladder_delta(epsilon)
    return delta, delta / (delta + 16.0)


def _pmc_solver(inst, remaining, pool, table, weights, unit, params):
    """A ``_ladder`` step: parallel max coverage over ``table``'s costs.

    ``table``'s costs have a row per set and a column per PMC machine; sets
    outside ``pool`` are closed and elements outside ``remaining`` dropped.
    Guess number ``gi``, an int g, gives machine q the budget ``weights[q] * g
    / unit``, makes every cost above ``largest`` infinite and rounds with seed
    ``child_seed(params.seed, gi)``. The work table and its
    ``PmcRelaxation`` are built only when ``largest`` changes, so guesses
    that share them solve LPs that differ only in their budget rhs, each
    warm from the last one's optimum. A guess returns None, unsolved, when the
    last solved one had the same ``largest``, every budget clamped at its
    machine's norm (``PmcRelaxation.at``) and an integral optimum: the same
    program, a pivot-free warm solve and seed-free rounding would repeat it.
    """
    sets = tuple(
        tuple(u for u in inst.sets[s] if u in remaining) if s in pool else () for s in range(inst.k)
    )

    @lru_cache(maxsize=1)
    def relaxation(largest):
        # Pool rows that meet no remaining element stay: the LP normalisers sum them.
        costs = tuple(
            tuple(INFINITE_COST if s not in pool or i > largest else c for c, i in zip(row, irow))
            for s, (row, irow) in enumerate(zip(table.costs, table.icosts))
        )
        return PmcRelaxation(
            ProblemInstance(n=inst.n, sets=sets, m=len(weights), cost_model=UnrelatedCosts(costs))
        )

    repeat = None  # ``largest`` while the last solved guess was clamped and integral

    def solve(gi, guess, largest) -> Optional[Assignment]:
        nonlocal repeat
        if largest == repeat:
            return None
        relax, budgets = relaxation(largest), [Fraction(w * guess, unit) for w in weights]
        result = pmc_solve(relax, budgets, replace(params, seed=child_seed(params.seed, gi)))
        clamped = all(b >= norm for b, norm in zip(budgets, relax.norms))
        repeat = largest if clamped and result.integral else None
        return result.assignment

    return solve


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
    remaining, _, pool, usable, coverable = _covering_pool(inst, remaining, available)
    _, kappa = related_parameters(epsilon)
    kappa_f = Fraction(kappa)
    reduction, aux = reduce_related(inst, kappa_f)
    groups = [g for g in reduction.groups if g]
    params = PmcParams(
        mode=FPT, epsilon=kappa, mu=kappa, r_cap=RELATED_ROUNDING_CAP, seed=seed
    )
    # The ladder's threshold is the largest aux load per group machine, so its
    # grid steps by 1 / (aux.scale * lcm of the group sizes).
    sizes = [len(g) for g in groups]
    unit = aux.scale * math.lcm(*sizes)
    # Guesses count the fastest speed s_max as 1, so a real load times s_max
    # is in guess units: a group's average is at most (1 + kappa) * guess, and
    # one set adds at most one guess. An ``icosts`` load is at most g times:
    load_per_guess = (2 + kappa_f) * inst.scale / (max(inst.cost_model.speeds) * unit)
    pmc = _pmc_solver(inst, remaining, pool, aux, sizes, unit, params)

    def lift(gi, guess, largest) -> Optional[Assignment]:
        """Each group's sets, largest first, on the group's least-loaded machine."""
        solved = pmc(gi, guess, largest)
        if solved is None:
            return None
        per_machine, loads = [[] for _ in range(inst.m)], [0] * inst.m
        for group, chosen in zip(groups, solved.per_machine):
            _place_largest_first(inst, chosen, group, per_machine, loads)
        if max(loads) > load_per_guess * guess:
            raise InvariantError("lift exceeded the per-machine bound")
        return Assignment(per_machine)

    ladder = _ladder(aux, Fraction(1) + kappa_f, unit, pool, usable, clamp=True, solve=lift)
    return _densest(inst, remaining, coverable, ladder)


def pds_unrelated(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
    seed: int = 0,
) -> Assignment:
    """Base-two budget ladder with polynomial-regime max coverage."""
    remaining, _, pool, usable, coverable = _covering_pool(inst, remaining, available)
    params = PmcParams(mode=POLY, epsilon=epsilon, seed=seed)
    solve = _pmc_solver(inst, remaining, pool, inst, [1] * inst.m, inst.scale, params)
    ladder = _ladder(inst, Fraction(2), inst.scale, pool, usable, clamp=False, solve=solve)
    return _densest(inst, remaining, coverable, ladder)
