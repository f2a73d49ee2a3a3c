"""Budgeted maximum coverage.

Two kernels, chosen by the number k of candidate sets:

* k <= ``PARTIAL_ENUM_MAX_K``: the ratio greedy from the empty family,
  returned when its online bound certifies it (below); otherwise partial
  enumeration over every seed family of at most two sets, each completed by
  the ratio greedy: O(k^2) greedy completions, which keep the full 1 - 1/e
  guarantee under a knapsack constraint (Kulik, Schwartz & Shachnai, Oper.
  Res. Lett. 2021). The greedy run is the enumeration's own first (empty
  seed) completion, so an uncertified call returns what the enumeration
  alone returns. No completion runs on past a family that an earlier one
  reached (below).
* otherwise: the greedy that repeatedly adds the affordable set with the
  best (new elements)/(cost) ratio, and falls back to the best single
  affordable set when that beats the greedy run.

Among equal ratios the lowest set index wins, so results are deterministic.

The kernel is exact and works on integers only:

* Costs and the budget are ints in one cost unit: the identical ladder
  passes an instance's ``icosts`` and ``m * g`` for its int guess g, which
  stands for g / scale cost units. Any other type raises ``TypeError``; a
  caller with rational costs scales them, and floors the budget, by the LCM
  of their denominators, which keeps "fits the budget" exact.
* The universe and every set are int bitmasks (bit ``e`` set for element
  ``e``), and the gain of a set is ``(mask & ~covered).bit_count()``.
* The greedy scans every live set at each pick and compares the ratios
  g/c exactly by cross-multiplying (``g * c_best > g_best * c``); the
  lowest index wins a tie. A set that no longer fits is dropped for good,
  because the remaining budget only shrinks; so is a set whose gain reached
  zero, because coverage only grows.
* A completion is determined by its family of chosen sets (an int bitmask
  over set indices): the covered elements and the cost spent are functions
  of it. So the enumeration keeps one set of the families its completions
  reached, skips a seed whose family is in it, and drops a completion the
  moment it reaches one: its end is an earlier completion's end.
* The certificate is the online bound (Leskovec et al., "Cost-effective
  outbreak detection", KDD 2007). For covered elements C, any family T of
  cost <= budget covers at most |C| plus the sum of its sets' gains over C
  (coverage is submodular), so at most |C| plus the fractional knapsack,
  within the budget, of the gains of the sets that cost <= budget
  (``online_bound``). The greedy's family is returned when it covers at
  least ``CERTIFIED_P / CERTIFIED_Q`` >= 1 - 1/e of that bound, compared
  in ints. The knapsack takes the gains in exact cross-multiplied ratio
  order, lowest index on ties: an order by float ratios can put a worse
  ratio first, which lowers the bound below its true value and can make it
  unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from itertools import combinations
from typing import Sequence, Tuple

from .errors import DomainError

PARTIAL_ENUM_MAX_K = 40

# A greedy family covering >= CERTIFIED_P / CERTIFIED_Q of its online bound
# is returned without the enumeration; 0.6322 >= 1 - 1/e = 0.63212...
CERTIFIED_P, CERTIFIED_Q = 6322, 10000


@dataclass(frozen=True)
class MaxCovResult:
    chosen: Tuple[int, ...]
    total_cost: int
    covered: int


def _greedy_fill(masks, costs, room, family, covered, seen):
    """Extend ``family`` greedily by ratio within ``room``; returns
    (family, covered, room) at its end, or None at a pick that reaches a
    family in ``seen``. Every other family a pick reaches joins ``seen``."""
    live = range(len(masks))
    while True:
        best, g_best, c_best, keep, left = -1, 0, 1, [], ~covered
        for i in live:
            c = costs[i]
            if c <= room:
                g = (masks[i] & left).bit_count()
                if g:
                    keep.append(i)
                    if g * c_best > g_best * c:
                        best, g_best, c_best = i, g, c
        if best < 0:
            return family, covered, room
        family |= 1 << best
        if family in seen:
            return None
        seen.add(family)
        covered |= masks[best]
        room -= c_best
        live = keep


def online_bound(
    masks: Sequence[int], costs: Sequence[int], budget: int, covered: int
) -> Tuple[int, int]:
    """An upper bound (numerator, denominator) on the coverage of any family
    of cost <= ``budget``: the elements of ``covered`` plus the fractional
    knapsack, within ``budget``, of the gains over ``covered`` of the sets
    that cost <= ``budget``, in exact ratio order."""
    left = ~covered
    gains = []
    for mask, c in zip(masks, costs):
        g = (mask & left).bit_count()
        if g and c <= budget:
            gains.append((g, c))
    # Best gain/cost first, compared exactly by cross-multiplying; the sort
    # is stable, so the lowest index wins a tie.
    gains.sort(key=cmp_to_key(lambda a, b: b[0] * a[1] - a[0] * b[1]))
    total, room = covered.bit_count(), budget
    for g, c in gains:
        if c > room:
            return total * c + g * room, c
        total += g
        room -= c
    return total, 1


def _members(family: int, k: int) -> Tuple[int, ...]:
    """The chosen set indices of ``family``, ascending."""
    return tuple(i for i in range(k) if family >> i & 1)


def budgeted_max_coverage(
    universe: int, sets: Sequence[int], costs: Sequence[int], budget: int
) -> MaxCovResult:
    """Pick sets of total cost <= budget maximizing coverage of the universe.

    ``universe`` and each entry of ``sets`` are int bitmasks; ``costs`` and
    ``budget`` are ints (not bools) in one unit, the unit of ``total_cost``.
    """
    if type(budget) is not int or not all(type(c) is int for c in costs):
        raise TypeError("costs and budget must be ints")
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    if any(c <= 0 for c in costs):
        raise DomainError("all costs must be positive")
    if len(costs) != len(sets):
        raise ValueError("need one cost per set")
    masks = [s & universe for s in sets]

    if budget == 0 or not sets:
        return MaxCovResult((), 0, 0)

    k = len(sets)
    # The ratio greedy, which is also the enumeration's empty seed completion.
    seen = {0}
    family, covered, room = _greedy_fill(masks, costs, budget, 0, 0, seen)
    covered_count = covered.bit_count()
    greedy = MaxCovResult(_members(family, k), budget - room, covered_count)

    if k > PARTIAL_ENUM_MAX_K:
        best_single = None
        for i, mask in enumerate(masks):
            size = mask.bit_count()
            if costs[i] <= budget and (best_single is None or size > best_single[0]):
                best_single = (size, i)
        if best_single is not None and best_single[0] > covered_count:
            i = best_single[1]
            return MaxCovResult((i,), costs[i], best_single[0])
        return greedy

    num, den = online_bound(masks, costs, budget, covered)
    if covered_count * CERTIFIED_Q * den >= CERTIFIED_P * num:
        return greedy

    # Partial enumeration: every other affordable seed of size <= 2, greedily
    # completed unless its family, or one its completion reaches, was reached
    # before.
    # ((-covered, total cost), family); ties go to the least chosen tuple
    best = ((-covered_count, budget - room), family)
    for size in (1, 2):
        for seed in combinations(range(k), size):
            family = seed_cost = seed_cover = 0
            for i in seed:
                family |= 1 << i
            if family in seen:
                continue
            for i in seed:
                seed_cost += costs[i]
                seed_cover |= masks[i]
            if seed_cost > budget:
                continue
            seen.add(family)
            done = _greedy_fill(masks, costs, budget - seed_cost, family, seed_cover, seen)
            if done is None:
                continue
            family, covered, room = done
            key = (-covered.bit_count(), budget - room)
            if (
                key < best[0]
                or key == best[0] and _members(family, k) < _members(best[1], k)
            ):
                best = (key, family)
    (uncovered, spent), family = best
    return MaxCovResult(_members(family, k), spent, -uncovered)
