from fractions import Fraction
from itertools import combinations

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import pmssc.maxcov as maxcov_module
import pmssc.pds as pds_module
from pmssc.core import IdenticalCosts, ProblemInstance, element_mask
from pmssc.errors import DomainError
from pmssc.fileio import generate_instance
from pmssc.maxcov import (
    PARTIAL_ENUM3,
    RATIO,
    MaxCovResult,
    budgeted_max_coverage,
)
from pmssc.pds import identical_ladder_delta, pds_identical


def brute_force_opt(universe, sets, costs, budget):
    """Independent oracle: enumerate every subset within budget."""
    universe = frozenset(universe)
    best = 0
    for r in range(len(sets) + 1):
        for combo in combinations(range(len(sets)), r):
            if sum(costs[i] for i in combo) > budget:
                continue
            covered = set()
            for i in combo:
                covered |= frozenset(sets[i]) & universe
            best = max(best, len(covered))
    return best


T1_SETS = [{0, 1}, {2}, {0, 1, 2}]
T1_COSTS = [Fraction(1), Fraction(1), Fraction(2)]


def test_t1_budget_two_ratio():
    # exhaustive check: optimum at budget 2 is 3
    assert brute_force_opt({0, 1, 2}, T1_SETS, T1_COSTS, 2) == 3
    result = budgeted_max_coverage({0, 1, 2}, T1_SETS, T1_COSTS, 2, mode=RATIO)
    assert result.covered == 3
    assert result.chosen == (0, 1)  # picks A then B
    assert result.total_cost == 2


def test_budget_zero_returns_empty():
    result = budgeted_max_coverage({0, 1}, [{0}, {1}], [1, 1], 0, mode=RATIO)
    assert result.chosen == () and result.covered == 0


def test_singleton_fallback_value():
    sets = [{0}, {1}, {0, 1, 2, 3}]
    costs = [Fraction(1), Fraction(1), Fraction(3)]
    assert brute_force_opt(range(4), sets, costs, 3) == 4
    result = budgeted_max_coverage(range(4), sets, costs, 3, mode=RATIO)
    assert result.covered == 4
    assert result.total_cost <= 3


def test_budget_is_hard_constraint():
    for seed in range(40):
        inst = generate_instance(n=7, k=5, m=1, model="identical", density=0.4, seed=seed)
        costs = [inst.cost(s, 0) for s in range(inst.k)]
        budget = Fraction(1 + seed % 5)
        for mode in (RATIO, PARTIAL_ENUM3):
            result = budgeted_max_coverage(
                range(inst.n), inst.sets, costs, budget, mode=mode
            )
            assert result.total_cost <= budget


def test_partial_enum_dominates_ratio():
    for seed in range(40):
        inst = generate_instance(n=8, k=6, m=1, model="identical", density=0.35, seed=100 + seed)
        costs = [inst.cost(s, 0) for s in range(inst.k)]
        budget = Fraction(2 + seed % 6)
        ratio = budgeted_max_coverage(range(inst.n), inst.sets, costs, budget, mode=RATIO)
        enum3 = budgeted_max_coverage(
            range(inst.n), inst.sets, costs, budget, mode=PARTIAL_ENUM3
        )
        assert enum3.covered >= ratio.covered


def test_partial_enum_reaches_1_minus_1_over_e():
    import math

    factor = 1 - 1 / math.e
    for seed in range(30):
        k = 6 if seed < 20 else 10
        inst = generate_instance(n=8, k=k, m=1, model="identical", density=0.35, seed=200 + seed)
        costs = [inst.cost(s, 0) for s in range(inst.k)]
        budget = Fraction(2 + seed % 5)
        opt = brute_force_opt(range(inst.n), inst.sets, costs, budget)
        enum3 = budgeted_max_coverage(
            range(inst.n), inst.sets, costs, budget, mode=PARTIAL_ENUM3
        )
        assert enum3.covered >= factor * opt - 1e-9


def test_default_mode_matches_enum_for_small_k():
    result = budgeted_max_coverage({0, 1, 2}, T1_SETS, T1_COSTS, 2, mode=None)
    enum3 = budgeted_max_coverage({0, 1, 2}, T1_SETS, T1_COSTS, 2, mode=PARTIAL_ENUM3)
    assert result == enum3


def test_nonpositive_cost_rejected():
    with pytest.raises(DomainError):
        budgeted_max_coverage({0}, [{0}], [0], 1)
    with pytest.raises(DomainError):
        budgeted_max_coverage({0}, [{0}], [1], -1)


# ---------------------------------------------------------------------------
# Differential tests against the original Fraction / frozenset kernel


def _reference_greedy_fill(members, costs, budget, chosen, covered, spent):
    """The eager ratio scan over Fraction costs and frozenset members."""
    chosen = list(chosen)
    covered = set(covered)
    in_solution = set(chosen)
    while True:
        best = None  # (gain, cost, index)
        for i, mem in enumerate(members):
            if i in in_solution or costs[i] > budget - spent:
                continue
            gain = len(mem - covered)
            if gain == 0:
                continue
            if best is None or gain * best[1] > best[0] * costs[i]:
                best = (gain, costs[i], i)
        if best is None:
            break
        _, cost, i = best
        chosen.append(i)
        in_solution.add(i)
        covered |= members[i]
        spent += cost
    return chosen, covered, spent


def reference_max_coverage(universe, sets, costs, budget, mode):
    """The original kernel: eager greedy, Fraction costs, frozenset coverage."""
    budget = Fraction(budget)
    costs = [Fraction(c) for c in costs]
    universe = frozenset(universe)
    members = [frozenset(s) & universe for s in sets]
    if budget == 0 or not sets:
        return MaxCovResult((), Fraction(0), 0)
    if mode == RATIO:
        chosen, covered, spent = _reference_greedy_fill(
            members, costs, budget, [], set(), Fraction(0)
        )
        best_single = None
        for i, mem in enumerate(members):
            if costs[i] <= budget and (best_single is None or len(mem) > best_single[0]):
                best_single = (len(mem), i)
        if best_single is not None and best_single[0] > len(covered):
            i = best_single[1]
            return MaxCovResult((i,), costs[i], best_single[0])
        return MaxCovResult(tuple(sorted(chosen)), spent, len(covered))
    best = None  # key: (-covered, total_cost, chosen tuple)
    for size in range(0, 4):
        for seed in combinations(range(len(sets)), size):
            seed_cost = sum((costs[i] for i in seed), Fraction(0))
            if seed_cost > budget:
                continue
            seed_cover = set()
            for i in seed:
                seed_cover |= members[i]
            chosen, covered, spent = _reference_greedy_fill(
                members, costs, budget, list(seed), seed_cover, seed_cost
            )
            key = (-len(covered), spent, tuple(sorted(chosen)))
            if best is None or key < best:
                best = key
    return MaxCovResult(best[2], best[1], -best[0])


def _bits(mask):
    return frozenset(e for e in range(mask.bit_length()) if mask >> e & 1)


LADDER_BASES = (0.1, 0.3, identical_ladder_delta(0.1), identical_ladder_delta(0.3))


@st.composite
def maxcov_cases(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    element = st.integers(min_value=0, max_value=max(n - 1, 0))
    pool = draw(st.lists(st.frozensets(element, max_size=n), min_size=1, max_size=4))
    # Picking sets from a small pool forces duplicate sets, hence ratio ties.
    sets = draw(st.lists(st.sampled_from(pool), max_size=7)) if n else []
    cost = st.one_of(
        st.integers(min_value=1, max_value=3).map(Fraction),
        st.builds(
            Fraction,
            st.integers(min_value=1, max_value=9),
            st.integers(min_value=1, max_value=6),
        ),
    )
    costs = draw(st.lists(cost, min_size=len(sets), max_size=len(sets)))
    if draw(st.booleans()):
        base = Fraction(1) + Fraction(draw(st.sampled_from(LADDER_BASES)))
        budget = draw(st.integers(1, 3)) * base ** draw(st.integers(0, 12))
    else:
        budget = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 4)))
    universe = draw(st.frozensets(element, max_size=n)) if draw(st.booleans()) else range(n)
    return universe, sets, costs, budget


@settings(max_examples=300, deadline=None)
@given(case=maxcov_cases())
def test_kernel_matches_reference(case):
    universe, sets, costs, budget = case
    for mode in (RATIO, PARTIAL_ENUM3):
        expected = reference_max_coverage(universe, sets, costs, budget, mode)
        assert budgeted_max_coverage(universe, sets, costs, budget, mode=mode) == expected
        masks = [element_mask(s) for s in sets]
        assert (
            budgeted_max_coverage(element_mask(universe), masks, costs, budget, mode=mode)
            == expected
        )


def test_kernel_matches_reference_on_forced_ties():
    # Sets 0, 1 and 3 tie on ratio 1/1 with set 2 (2/2); the lowest index wins.
    sets = [{0}, {1}, {2, 3}, {4}, {0, 1, 2, 3, 4}]
    costs = [1, 1, 2, 1, 5]
    for budget in (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(5)):
        for mode in (RATIO, PARTIAL_ENUM3):
            expected = reference_max_coverage(range(5), sets, costs, budget, mode)
            assert budgeted_max_coverage(range(5), sets, costs, budget, mode=mode) == expected


def _reference_via_masks(universe, sets, costs, budget, mode=None):
    """Stand-in for ``pmssc.pds.budgeted_max_coverage`` that accepts masks."""
    if mode is None:
        mode = PARTIAL_ENUM3 if len(sets) <= maxcov_module.PARTIAL_ENUM_MAX_K else RATIO
    return reference_max_coverage(
        _bits(universe), [_bits(s) for s in sets], costs, budget, mode
    )


def _pds_corpus():
    """(instance, maxcov mode): None takes the default, enum3 on calls this small;
    RATIO runs the ratio kernel on every call."""
    out = []
    for seed in range(4):
        small = generate_instance(n=14, k=7, m=2, model="identical", density=0.3, seed=seed)
        large = generate_instance(n=40, k=44, m=3, model="identical", density=0.1, seed=seed)
        unit = generate_instance(n=12, k=6, m=2, model="unit", density=0.3, seed=seed)
        fractional = tuple(
            Fraction(small.cost(s, 0), 1 + (s + seed) % 4) for s in range(small.k)
        )
        out += [(small, None), (large, RATIO), (unit, None), (unit, RATIO)]
        out.append((ProblemInstance(small.n, small.sets, 3, IdenticalCosts(fractional)), None))
    return out


@pytest.mark.parametrize("epsilon", [0.1, 0.3])
def test_pds_matches_reference_kernel(epsilon, monkeypatch):
    for inst, mode in _pds_corpus():
        remaining = frozenset(range(0, inst.n, 1 + inst.k % 2))
        with monkeypatch.context() as patch:
            if mode == RATIO:
                # no call has few enough candidates for enum3
                patch.setattr(maxcov_module, "PARTIAL_ENUM_MAX_K", 0)
            actual = pds_identical(inst, remaining, epsilon)
            patch.setattr(pds_module, "budgeted_max_coverage", _reference_via_masks)
            expected = pds_identical(inst, remaining, epsilon)
        assert actual == expected
