import decimal
import math
import sys
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest

from hypothesis import event, given, settings
from hypothesis import strategies as st

import pmssc.maxcov as maxcov_module
import pmssc.pds as pds_module
from pmssc.core import IdenticalCosts, ProblemInstance, element_mask
from pmssc.errors import DomainError
from pmssc.fileio import generate_instance
from pmssc.maxcov import (
    CERTIFIED_P,
    CERTIFIED_Q,
    MaxCovResult,
    budgeted_max_coverage,
    online_bound,
)
from pmssc.pds import identical_ladder_delta, pds_identical
from pmssc.scheduler import pmssc_greedy

# The two kernels, named for the reference below. ``budgeted_max_coverage``
# picks one from the number of sets; a test forces it by moving the cut.
RATIO = "ratio"
PARTIAL_ENUM = "enum"
KERNEL_MAX_K = {RATIO: 0, PARTIAL_ENUM: sys.maxsize}


def scaled(costs, budget):
    """Rational ``costs`` and ``budget`` as the kernel's ints: times the LCM ``L``
    of the costs' denominators, the budget floored. Every sum of chosen costs
    is a multiple of 1/L, so "fits the budget" means the same after scaling."""
    costs = [Fraction(c) for c in costs]
    scale = math.lcm(*(c.denominator for c in costs))
    return [int(c * scale) for c in costs], math.floor(Fraction(budget) * scale), scale


def uncertified():
    """Every call runs the partial enumeration: an infinite online bound
    (denominator 0) certifies no greedy family."""
    return mock.patch.object(maxcov_module, "online_bound", lambda *args: (1, 0))


def maxcov(universe, sets, costs, budget, mode):
    """``budgeted_max_coverage`` on the masks of ``universe`` and ``sets``, with
    the kernel ``mode`` forced, on rational costs and budget scaled to ints
    (``scaled``); ``total_cost`` is given back in the rational units."""
    masks = [element_mask(s) for s in sets]
    icosts, ibudget, scale = scaled(costs, budget)
    with mock.patch.object(maxcov_module, "PARTIAL_ENUM_MAX_K", KERNEL_MAX_K[mode]):
        result = budgeted_max_coverage(element_mask(universe), masks, icosts, ibudget)
    return MaxCovResult(result.chosen, Fraction(result.total_cost, scale), result.covered)


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
    result = maxcov({0, 1, 2}, T1_SETS, T1_COSTS, 2, mode=RATIO)
    assert result.covered == 3
    assert result.chosen == (0, 1)  # picks A then B
    assert result.total_cost == 2


def test_budget_zero_returns_empty():
    result = maxcov({0, 1}, [{0}, {1}], [1, 1], 0, mode=RATIO)
    assert result.chosen == () and result.covered == 0


def test_singleton_fallback_value():
    sets = [{0}, {1}, {0, 1, 2, 3}]
    costs = [Fraction(1), Fraction(1), Fraction(3)]
    assert brute_force_opt(range(4), sets, costs, 3) == 4
    result = maxcov(range(4), sets, costs, 3, mode=RATIO)
    assert result.covered == 4
    assert result.total_cost <= 3


def test_budget_is_hard_constraint():
    for seed in range(40):
        inst = generate_instance(n=7, k=5, m=1, model="identical", density=0.4, seed=seed)
        costs = [inst.cost(s, 0) for s in range(inst.k)]
        budget = Fraction(1 + seed % 5)
        for mode in (RATIO, PARTIAL_ENUM):
            result = maxcov(range(inst.n), inst.sets, costs, budget, mode=mode)
            assert result.total_cost <= budget


def test_partial_enum_dominates_ratio():
    for seed in range(40):
        inst = generate_instance(n=8, k=6, m=1, model="identical", density=0.35, seed=100 + seed)
        costs = [inst.cost(s, 0) for s in range(inst.k)]
        budget = Fraction(2 + seed % 6)
        ratio = maxcov(range(inst.n), inst.sets, costs, budget, mode=RATIO)
        enum = maxcov(range(inst.n), inst.sets, costs, budget, mode=PARTIAL_ENUM)
        assert enum.covered >= ratio.covered


def test_partial_enum_reaches_1_minus_1_over_e():
    import math

    factor = 1 - 1 / math.e
    for seed in range(30):
        k = 6 if seed < 20 else 10
        inst = generate_instance(n=8, k=k, m=1, model="identical", density=0.35, seed=200 + seed)
        costs = [inst.cost(s, 0) for s in range(inst.k)]
        budget = Fraction(2 + seed % 5)
        opt = brute_force_opt(range(inst.n), inst.sets, costs, budget)
        enum = maxcov(range(inst.n), inst.sets, costs, budget, mode=PARTIAL_ENUM)
        assert enum.covered >= factor * opt - 1e-9


def test_default_mode_matches_enum_for_small_k():
    masks = [element_mask(s) for s in T1_SETS]
    result = budgeted_max_coverage(0b111, masks, [1, 1, 2], 2)
    enum = maxcov({0, 1, 2}, T1_SETS, T1_COSTS, 2, mode=PARTIAL_ENUM)
    assert result == enum
    assert type(result.total_cost) is int


def _seen_family_replay(universe, sets, costs, budget):
    """The partial enumeration's seen-family rule, replayed with the eager
    reference greedy: (completions started, completions run to their end).

    A seed whose family an earlier completion reached is skipped, and a
    completion stops at the first family an earlier one reached."""
    members = [frozenset(s) for s in sets]
    seen, started, finished = set(), 0, 0
    for size in range(3):
        for seed in combinations(range(len(sets)), size):
            if frozenset(seed) in seen or sum(costs[i] for i in seed) > budget:
                continue
            started += 1
            seen.add(frozenset(seed))
            covered = frozenset().union(*(members[i] for i in seed))
            chosen, _, _ = _reference_greedy_fill(
                members, costs, budget, list(seed), covered, sum(costs[i] for i in seed)
            )
            for end in range(size + 1, len(chosen) + 1):
                if frozenset(chosen[:end]) in seen:
                    break
                seen.add(frozenset(chosen[:end]))
            else:
                finished += 1
    return started, finished


def _spy_fill():
    """A ``Mock`` around the kernel that records what each call returned."""
    returned = []

    def fill(*args, _inner=maxcov_module._greedy_fill):
        returned.append(_inner(*args))
        return returned[-1]

    return mock.Mock(side_effect=fill), returned


# completions started and run to their end, per k, at the budget that affords
# every family
SEEN_FAMILY_COMPLETIONS = {1: (1, 1), 2: (2, 1), 7: (22, 6), 12: (67, 17)}


@pytest.mark.parametrize("k", sorted(SEEN_FAMILY_COMPLETIONS))
def test_partial_enum_completes_each_unreached_seed_once(k):
    # With the certificate off, the budget affords every family, so every
    # seed of <= 2 sets is started unless an earlier completion reached its
    # family, and no seed of three sets is; a completion that reaches an
    # earlier one's family stops there.
    sets = [element_mask({i, (i + 1) % (k + 1)}) for i in range(k)]
    costs = [Fraction(1 + i % 3, 1 + i % 2) for i in range(k)]
    icosts, ibudget, _ = scaled(costs, sum(costs))
    fill, returned = _spy_fill()
    with mock.patch.object(maxcov_module, "_greedy_fill", fill), uncertified():
        budgeted_max_coverage(element_mask(range(k + 1)), sets, icosts, ibudget)
    members = [{i, (i + 1) % (k + 1)} for i in range(k)]
    replay = _seen_family_replay(range(k + 1), members, costs, sum(costs))
    assert (fill.call_count, sum(r is not None for r in returned)) == replay
    started, finished = SEEN_FAMILY_COMPLETIONS[k]
    assert replay == (started, finished)
    assert finished <= started < 1 + k + k * (k - 1) // 2


def test_partial_enum_skips_the_seeds_a_singletons_completion_begins_with():
    # With the certificate off, the empty seed's completion picks set 0,
    # then set 1: seeds {0} and {0, 1} would repeat it. Seed {1} picks set 0
    # next, a family the first completion reached, so it stops there; seed
    # {2} fills the budget alone, and every other pair is over budget. Three
    # completions start instead of five, two run to their end, and the result
    # is the one all five give.
    sets = [element_mask({0, 1, 2}), element_mask({3}), element_mask({4})]
    costs, budget = [1, 1, 2], 2
    fill, returned = _spy_fill()
    with mock.patch.object(maxcov_module, "_greedy_fill", fill), uncertified():
        result = budgeted_max_coverage(0b11111, sets, costs, budget)
    assert [call.args[3] for call in fill.call_args_list] == [0b000, 0b010, 0b100]
    assert [r and r[0] for r in returned] == [0b011, None, 0b100]
    assert _seen_family_replay(range(5), [{0, 1, 2}, {3}, {4}], costs, budget) == (3, 2)
    assert result == every_seed_max_coverage(0b11111, sets, costs, budget)
    assert result == MaxCovResult((0, 1), 2, 4)


def test_greedy_identical_at_bench_size_makes_fewer_kernel_picks():
    # Completing every unreached seed to its end took 1,125 picks on this
    # solve (452 completions); stopping each at a family reached before, and
    # solving a repeated (largest, floored budget) guess once, took 868.
    # Returning the greedy's family when its online bound certifies it took
    # 95: 17 of the 19 calls were certified, and 2 ran the enumeration. With
    # the ladder's guesses on the grid of whole costs it takes 58: 14 of the
    # 15 calls are certified, and 1 runs the enumeration.
    # A pick adds one family to ``seen``, except one that reaches a family
    # already there and ends its completion. Picks are counted, not seconds,
    # so the test is not timing-flaky.
    picks, certified, enumerated = 0, 0, 0

    def counted(masks, costs, room, family, covered, seen, _inner=maxcov_module._greedy_fill):
        nonlocal picks
        before = len(seen)
        done = _inner(masks, costs, room, family, covered, seen)
        picks += len(seen) - before + (done is None)
        return done

    def bound(masks, costs, budget, covered, _inner=online_bound):
        nonlocal certified, enumerated
        num, den = _inner(masks, costs, budget, covered)
        if covered.bit_count() * CERTIFIED_Q * den >= CERTIFIED_P * num:
            certified += 1
        else:
            enumerated += 1
        return num, den

    inst = generate_instance(n=26, k=10, m=2, model="identical", density=0.25, seed=1)
    with mock.patch.object(maxcov_module, "_greedy_fill", counted), mock.patch.object(
        maxcov_module, "online_bound", bound
    ):
        pmssc_greedy(inst, oracle="identical", epsilon=0.1, seed=1)
    assert (picks, certified, enumerated) == (58, 14, 1)


def test_nonpositive_cost_rejected():
    with pytest.raises(DomainError):
        budgeted_max_coverage(1, [1], [0], 1)
    with pytest.raises(DomainError):
        budgeted_max_coverage(1, [1], [1], -1)


@pytest.mark.parametrize("not_int", [Fraction(1), Fraction(3, 2), 1.0, True, "1"])
def test_costs_and_budget_other_than_int_rejected(not_int):
    # The kernel takes one cost form, ints; a caller with rationals scales them.
    with pytest.raises(TypeError, match="must be ints"):
        budgeted_max_coverage(1, [1], [not_int], 1)
    with pytest.raises(TypeError, match="must be ints"):
        budgeted_max_coverage(1, [1], [1], not_int)


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
    for size in range(0, 3):
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


def _reference_online_bound(members, costs, budget, covered):
    """The online bound in ``Fraction`` arithmetic: ``covered`` plus the
    fractional knapsack, within ``budget``, of the gains over ``covered`` of
    the sets that cost <= ``budget``, best ratio first."""
    gains = [(len(mem - covered), costs[i]) for i, mem in enumerate(members)]
    gains = [(g, c) for g, c in gains if g and c <= budget]
    bound, room = Fraction(len(covered)), budget
    for g, c in sorted(gains, key=lambda gc: Fraction(*gc), reverse=True):
        take = min(c, room)
        bound += Fraction(g * take, c)
        room -= take
    return bound


def reference_certified_max_coverage(universe, sets, costs, budget):
    """The kernel's contract on calls of at most ``PARTIAL_ENUM_MAX_K`` sets:
    the empty seed's greedy family when it covers >= CERTIFIED_P / CERTIFIED_Q
    of its online bound, otherwise ``reference_max_coverage``'s enumeration.

    The budget is floored to a multiple of 1/L first, L the LCM of the
    costs' denominators, as the kernel's int budget is (``scaled``): that
    changes no family's fit, only the knapsack's last fraction."""
    costs = [Fraction(c) for c in costs]
    scale = math.lcm(*(c.denominator for c in costs))
    budget = Fraction(math.floor(Fraction(budget) * scale), scale)
    universe = frozenset(universe)
    members = [frozenset(s) & universe for s in sets]
    if budget > 0 and sets:
        chosen, covered, spent = _reference_greedy_fill(
            members, costs, budget, [], set(), Fraction(0)
        )
        bound = _reference_online_bound(members, costs, budget, covered)
        if len(covered) * CERTIFIED_Q >= CERTIFIED_P * bound:
            return MaxCovResult(tuple(sorted(chosen)), spent, len(covered))
    return reference_max_coverage(universe, sets, costs, budget, PARTIAL_ENUM)


def reference_kernel(universe, sets, costs, budget, mode):
    """What ``budgeted_max_coverage`` returns in ``mode``: the ratio greedy,
    or the certified greedy with the enumeration behind it."""
    if mode == RATIO:
        return reference_max_coverage(universe, sets, costs, budget, RATIO)
    return reference_certified_max_coverage(universe, sets, costs, budget)


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
    for mode in (RATIO, PARTIAL_ENUM):
        expected = reference_kernel(universe, sets, costs, budget, mode)
        assert maxcov(universe, sets, costs, budget, mode=mode) == expected


def test_kernel_matches_reference_on_forced_ties():
    # Sets 0, 1 and 3 tie on ratio 1/1 with set 2 (2/2); the lowest index wins.
    sets = [{0}, {1}, {2, 3}, {4}, {0, 1, 2, 3, 4}]
    costs = [1, 1, 2, 1, 5]
    for budget in (Fraction(1), Fraction(2), Fraction(7, 2), Fraction(5)):
        for mode in (RATIO, PARTIAL_ENUM):
            expected = reference_kernel(range(5), sets, costs, budget, mode)
            assert maxcov(range(5), sets, costs, budget, mode=mode) == expected


# ---------------------------------------------------------------------------
# The online bound and the certificate


@st.composite
def int_maxcov_cases(draw):
    """At most 10 sets over at most 8 elements, int costs and an int budget,
    and one affordable family (a list of set indices)."""
    n = draw(st.integers(min_value=1, max_value=8))
    k = draw(st.integers(min_value=1, max_value=10))
    element = st.integers(min_value=0, max_value=n - 1)
    sets = draw(st.lists(st.frozensets(element), min_size=k, max_size=k))
    costs = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=k, max_size=k))
    budget = draw(st.integers(min_value=0, max_value=30))
    family, spent = [], 0
    for i in draw(st.lists(st.integers(min_value=0, max_value=k - 1), unique=True)):
        if spent + costs[i] <= budget:
            family.append(i)
            spent += costs[i]
    return n, sets, costs, budget, family


@settings(max_examples=300, deadline=None)
@given(case=int_maxcov_cases())
def test_online_bound_is_at_least_the_optimum(case):
    # For the greedy's family and for any affordable one, the bound is at
    # least the best coverage within the budget, and it is the Fraction
    # reference's value.
    n, sets, costs, budget, family = case
    masks = [element_mask(s) for s in sets]
    opt = brute_force_opt(range(n), sets, costs, budget)
    _, greedy_covered, _ = maxcov_module._greedy_fill(masks, costs, budget, 0, 0, set())
    for covered in (greedy_covered, element_mask(set().union(*(sets[i] for i in family)))):
        num, den = online_bound(masks, costs, budget, covered)
        assert num >= opt * den
        assert Fraction(num, den) == _reference_online_bound(sets, costs, budget, _bits(covered))


@settings(max_examples=300, deadline=None)
@given(case=int_maxcov_cases())
def test_certified_results_cover_1_minus_1_over_e_of_the_optimum(case):
    n, sets, costs, budget, _ = case
    masks = [element_mask(s) for s in sets]
    opt = brute_force_opt(range(n), sets, costs, budget)
    family, covered, _ = maxcov_module._greedy_fill(masks, costs, budget, 0, 0, set())
    num, den = online_bound(masks, costs, budget, covered)
    certified = budget > 0 and covered.bit_count() * CERTIFIED_Q * den >= CERTIFIED_P * num
    event("certified" if certified else "not certified")
    result = budgeted_max_coverage((1 << n) - 1, masks, costs, budget)
    if certified:
        assert result.chosen == maxcov_module._members(family, len(sets))
        assert result.covered * CERTIFIED_Q >= CERTIFIED_P * opt
    assert result.covered >= (1 - 1 / math.e) * opt


def test_certified_ratio_is_at_least_1_minus_1_over_e():
    with decimal.localcontext() as context:
        context.prec = 30
        one = decimal.Decimal(1)
        assert decimal.Decimal(CERTIFIED_P) / CERTIFIED_Q >= one - 1 / one.exp()


def test_online_bound_orders_gains_by_exact_ratio():
    # Set 1's ratio 2/(2*10**17 - 1) beats set 0's 1/10**17, though the two
    # are equal as floats. In exact order set 1 fills the budget alone, so
    # the bound is 2, the optimum. A float order keeps the lower index first
    # on the tie: set 0 whole and set 1 in part give 2 - 1/(2*10**17 - 1),
    # below the optimum, an unsound bound.
    costs = [10**17, 2 * 10**17 - 1]
    assert 1 / costs[0] == 2 / costs[1]
    masks = [0b001, 0b110]
    assert brute_force_opt(range(3), [{0}, {1, 2}], costs, costs[1]) == 2
    assert online_bound(masks, costs, costs[1], 0) == (2 * costs[0], costs[0])


@settings(max_examples=300, deadline=None)
@given(case=maxcov_cases())
def test_partial_enum_guarantee_on_random_cases(case):
    # Seeds of <= 2 sets plus the ratio greedy attain 1 - 1/e of the optimum
    # under a knapsack constraint (Kulik, Schwartz & Shachnai 2021).
    universe, sets, costs, budget = case
    result = maxcov(universe, sets, costs, budget, mode=PARTIAL_ENUM)
    assert result.total_cost <= budget
    assert result.covered >= (1 - 1 / math.e) * brute_force_opt(universe, sets, costs, budget)


def _reference_via_masks(universe, sets, costs, budget):
    """Stand-in for ``pmssc.pds.budgeted_max_coverage`` that accepts masks."""
    mode = PARTIAL_ENUM if len(sets) <= maxcov_module.PARTIAL_ENUM_MAX_K else RATIO
    return reference_kernel(_bits(universe), [_bits(s) for s in sets], costs, budget, mode)


def _pds_corpus():
    """(instance, maxcov mode): None takes the default, enumeration on calls this small;
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
                # no call has few enough candidates for enumeration
                patch.setattr(maxcov_module, "PARTIAL_ENUM_MAX_K", 0)
            actual = pds_identical(inst, remaining, epsilon)
            patch.setattr(pds_module, "budgeted_max_coverage", _reference_via_masks)
            expected = pds_identical(inst, remaining, epsilon)
        assert actual == expected


# ---------------------------------------------------------------------------
# Skipping reached seeds against the enumeration that completes every seed


def every_seed_max_coverage(universe, sets, costs, budget):
    """The partial enumeration before reached seeds were skipped, on masks: one
    ``_reference_greedy_fill`` completion for every affordable seed of <= 2 sets."""
    return reference_max_coverage(
        _bits(universe), [_bits(s) for s in sets], costs, budget, PARTIAL_ENUM
    )


@st.composite
def wide_maxcov_cases(draw):
    """Up to ``PARTIAL_ENUM_MAX_K`` sets over at most 12 elements, all int or
    all rational costs: long completions that meet many reached families."""
    n = draw(st.integers(min_value=1, max_value=12))
    element = st.integers(min_value=0, max_value=n - 1)
    pool = draw(st.lists(st.frozensets(element, max_size=4), min_size=1, max_size=12))
    k = draw(st.integers(min_value=1, max_value=maxcov_module.PARTIAL_ENUM_MAX_K))
    sets = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))
    if draw(st.booleans()):
        cost = st.integers(min_value=1, max_value=4)
    else:
        cost = st.builds(Fraction, st.integers(1, 9), st.integers(1, 6))
    costs = draw(st.lists(cost, min_size=k, max_size=k))
    budget = Fraction(draw(st.integers(0, 24)), draw(st.integers(1, 3)))
    universe = draw(st.frozensets(element)) if draw(st.booleans()) else range(n)
    return universe, sets, costs, budget


@settings(max_examples=150, deadline=None)
@given(case=wide_maxcov_cases())
def test_skipping_reached_seeds_matches_completing_every_seed(case):
    universe, sets, costs, budget = case
    universe, masks = element_mask(universe), [element_mask(s) for s in sets]
    expected = every_seed_max_coverage(universe, masks, costs, budget)
    with uncertified():
        got = maxcov(_bits(universe), sets, costs, budget, mode=PARTIAL_ENUM)
    assert repr(got) == repr(expected)
