"""Budgeted maximum coverage.

Two kernels, chosen by the number k of candidate sets:

* k <= ``PARTIAL_ENUM_MAX_K``: partial enumeration over every seed family
  of at most two sets, each completed by the ratio greedy: O(k^2) greedy
  completions, which keep the full 1 - 1/e guarantee under a knapsack
  constraint (Kulik, Schwartz & Shachnai, Oper. Res. Lett. 2021). A seed
  that an earlier completion passed through is not completed again.
* otherwise: the greedy that repeatedly adds the affordable set with the
  best (new elements)/(cost) ratio, and falls back to the best single
  affordable set when that beats the greedy run.

Among equal ratios the lowest set index wins, so results are deterministic.

The kernel is exact and works on integers only:

* Int costs (the ladders pass ``icosts``) are used as given. Rational costs
  are scaled by the LCM ``L`` of their denominators (1 for ints), and the
  budget becomes ``floor(budget * L)``. Every sum of chosen costs is a
  multiple of ``1/L``, so "fits the budget" means the same before and after
  scaling.
* The universe and every set are int bitmasks (bit ``e`` set for element
  ``e``), and the gain of a set is ``(mask & ~covered).bit_count()``.
* The greedy is lazy (Minoux's accelerated greedy; CELF, Leskovec et al.
  2007). A heap holds each set under the ratio it had when last evaluated,
  ordered by ratio, then by lowest index. Coverage only grows, so a stale
  ratio is at least the true one: when the top entry is fresh, no other set
  can beat it, nor tie it with a lower index. The pick is therefore the one
  the eager scan over all sets would make. A set that no longer fits is
  dropped for good, because the remaining budget only shrinks; so is a set
  whose gain reached zero.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence, Tuple

from .core import as_fraction
from .errors import DomainError

PARTIAL_ENUM_MAX_K = 40


@dataclass(frozen=True)
class MaxCovResult:
    chosen: Tuple[int, ...]
    total_cost: Fraction
    covered: int


def _greedy_fill(masks, costs, scale, budget, chosen, covered, spent):
    """Extend ``chosen`` lazily-greedily by ratio; returns the new state.

    ``scale`` is at least the square of the largest cost, so the heap key
    ``gain * scale // cost`` orders ratios exactly: two different ratios
    g1/c1 and g2/c2 differ by at least 1/(c1*c2), i.e. their scaled values
    by at least 1, and equal ratios get equal keys.
    """
    chosen = list(chosen)
    in_solution = set(chosen)
    room = budget - spent
    heap = []
    for i, mask in enumerate(masks):
        if i in in_solution or costs[i] > room:
            continue
        gain = (mask & ~covered).bit_count()
        if gain:
            heap.append((-(gain * scale // costs[i]), i, 0))
    heapq.heapify(heap)
    picks = 0
    while heap:
        _, i, stamp = heap[0]
        cost = costs[i]
        if cost > budget - spent:
            heapq.heappop(heap)
            continue
        if stamp != picks:
            gain = (masks[i] & ~covered).bit_count()
            if gain:
                heapq.heapreplace(heap, (-(gain * scale // cost), i, picks))
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        chosen.append(i)
        covered |= masks[i]
        spent += cost
        picks += 1
    return chosen, covered, spent


def budgeted_max_coverage(
    universe: int, sets: Sequence[int], costs: Sequence, budget
) -> MaxCovResult:
    """Pick sets of total cost <= budget maximizing coverage of the universe.

    ``universe`` and each entry of ``sets`` are int bitmasks; ``total_cost`` is
    in the units of ``costs``.
    """
    budget = as_fraction(budget)
    if budget < 0:
        raise DomainError("budget must be nonnegative")
    denom = 1
    if not all(type(c) is int for c in costs):
        rationals = [as_fraction(c) for c in costs]
        denom = lcm(*(c.denominator for c in rationals))
        costs = [c.numerator * (denom // c.denominator) for c in rationals]
    if any(c <= 0 for c in costs):
        raise DomainError("all costs must be positive")
    if len(costs) != len(sets):
        raise ValueError("need one cost per set")
    masks = [s & universe for s in sets]

    if budget == 0 or not sets:
        return MaxCovResult((), Fraction(0), 0)

    ibudget = budget.numerator * denom // budget.denominator
    scale = max(costs) ** 2

    if len(sets) > PARTIAL_ENUM_MAX_K:
        chosen, covered, spent = _greedy_fill(masks, costs, scale, ibudget, [], 0, 0)
        covered_count = covered.bit_count()
        best_single = None
        for i, mask in enumerate(masks):
            size = mask.bit_count()
            if costs[i] <= ibudget and (best_single is None or size > best_single[0]):
                best_single = (size, i)
        if best_single is not None and best_single[0] > covered_count:
            i = best_single[1]
            return MaxCovResult((i,), Fraction(costs[i], denom), best_single[0])
        return MaxCovResult(tuple(sorted(chosen)), Fraction(spent, denom), covered_count)

    # Partial enumeration: every affordable seed of size <= 2, greedily completed.
    # ``_greedy_fill`` is deterministic in its (chosen, covered, spent) state, so
    # a seed whose sets begin an earlier completion would repeat it: skip it.
    best = None  # key: (-covered, total_cost, chosen tuple)
    reached = set()
    for size in range(0, 3):
        for seed in combinations(range(len(sets)), size):
            if seed in reached:
                continue
            seed_cost = sum(costs[i] for i in seed)
            if seed_cost > ibudget:
                continue
            seed_cover = 0
            for i in seed:
                seed_cover |= masks[i]
            chosen, covered, spent = _greedy_fill(
                masks, costs, scale, ibudget, seed, seed_cover, seed_cost
            )
            reached.update((tuple(chosen[:1]), tuple(sorted(chosen[:2]))))
            key = (-covered.bit_count(), spent, tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
    return MaxCovResult(best[2], Fraction(best[1], denom), -best[0])
