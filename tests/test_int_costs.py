"""The integer cost table against the exact rationals it stands for.

Each instance's solvers add and compare ``icosts = costs * scale`` as ints.
The references below are the ``Fraction`` bodies of ``machine_loads``,
``density`` and ``evaluate_schedule_cost`` that the table replaced; the int
versions must agree with them on every cost model, with rational costs,
related speeds given as ``[num, den]`` pairs and infinite unrelated entries.
The ladder tests check that a rational budget meets the table as
``floor(budget * scale)``.
"""

import math
import re
from bisect import bisect_right
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmssc.pds as pds_module
from pmssc.core import (
    Assignment,
    DensityValue,
    IdenticalCosts,
    INFINITE_COST,
    ProblemInstance,
    RelatedCosts,
    Schedule,
    UnitCosts,
    UnrelatedCosts,
    coverage,
    density,
    evaluate_schedule_cost,
    machine_loads,
    scaled_floor,
)
from pmssc.errors import (
    EmptyAssignmentError,
    InfiniteCostError,
    InvariantError,
    UncoveredElementError,
)
from pmssc.fileio import instance_from_dict
from pmssc.maxcov import MaxCovResult, budgeted_max_coverage
from pmssc.pds import _ladder_guesses, identical_ladder_delta, pds_identical
from test_maxcov import PARTIAL_ENUM, reference_max_coverage

# -- the Fraction references: the bodies the int table replaced


def reference_machine_loads(inst, per_machine):
    loads = []
    for j, seq in enumerate(per_machine):
        total = Fraction(0)
        for s in seq:
            c = inst.cost(s, j)
            if c == INFINITE_COST:
                raise InfiniteCostError("set %d has infinite cost on machine %d" % (s, j))
            total += c
        loads.append(total)
    return tuple(loads)


def reference_density(inst, asg, restrict_to=None):
    """(covered, makespan) of ``density``'s former body."""
    if asg.is_empty:
        raise EmptyAssignmentError("density undefined for an empty assignment")
    loads = reference_machine_loads(inst, asg.per_machine)
    return len(coverage(inst, asg.all_sets(), restrict_to)), max(loads)


def reference_schedule_cost(inst, sched):
    cover_times = [None] * inst.n
    for j, seq in enumerate(sched.per_machine):
        elapsed = Fraction(0)
        for s in seq:
            c = inst.cost(s, j)
            if c == INFINITE_COST:
                raise InfiniteCostError("set %d has infinite cost on machine %d" % (s, j))
            elapsed += c
            for u in inst.sets[s]:
                if cover_times[u] is None or elapsed < cover_times[u]:
                    cover_times[u] = elapsed
    for u in range(inst.n):
        if cover_times[u] is None:
            raise UncoveredElementError(u)
    return sum(cover_times, Fraction(0)), tuple(cover_times)


def outcome(run):
    """The value ``run`` returns, or the type and message of what it raises."""
    try:
        return run()
    except (EmptyAssignmentError, InfiniteCostError, UncoveredElementError) as err:
        return type(err), str(err)


# -- instances of every cost model, with a placement of some of their sets


@st.composite
def placed_instances(draw):
    n, k, m = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    element = st.integers(0, n - 1)
    sets = [sorted(draw(st.frozensets(element, min_size=1, max_size=n))) for _ in range(k)]
    rational = st.builds(Fraction, st.integers(1, 30), st.integers(1, 7))
    kind = draw(st.sampled_from(["unit", "identical", "related", "unrelated"]))
    if kind == "unit":
        inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=UnitCosts())
    elif kind == "identical":
        costs = tuple(draw(rational) for _ in range(k))
        inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=IdenticalCosts(costs))
    elif kind == "related":
        # speeds as an instance file gives them; base costs there are integers
        pair = st.tuples(st.integers(1, 9), st.integers(1, 7)).map(list)
        doc = {
            "version": 1, "n": n, "m": m, "sets": sets,
            "cost_model": {
                "kind": "related",
                "base_costs": [draw(st.integers(1, 9)) for _ in range(k)],
                "speeds": [draw(pair) for _ in range(m)],
            },
        }
        inst = instance_from_dict(doc)
        # and the same speeds with rational base costs
        costs = tuple(draw(rational) for _ in range(k))
        if draw(st.booleans()):
            inst = ProblemInstance(
                n=n, sets=sets, m=m, cost_model=RelatedCosts(costs, inst.cost_model.speeds)
            )
    else:
        entry = rational | st.just(INFINITE_COST)
        matrix = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(k))
        inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=UnrelatedCosts(matrix))
    # each set unplaced or on any machine, infinite costs included
    labels = [draw(st.sampled_from([None] + list(range(m)))) for _ in range(k)]
    order = draw(st.permutations(range(k)))
    per_machine = tuple(tuple(s for s in order if labels[s] == j) for j in range(m))
    return inst, per_machine


@settings(max_examples=400, deadline=None)
@given(case=placed_instances())
def test_int_table_is_the_cost_table_times_its_scale(case):
    inst, _ = case
    scale = inst.scale
    assert type(scale) is int and scale >= 1
    for row, irow in zip(inst.costs, inst.icosts):
        assert len(irow) == inst.m
        for c, ic in zip(row, irow):
            assert (c == INFINITE_COST) == (ic == INFINITE_COST)
            if c != INFINITE_COST:
                assert type(ic) is int and Fraction(ic, scale) == c
    finite = [c for row in inst.costs for c in row if c != INFINITE_COST]
    assert scale == math.lcm(*(c.denominator for c in finite))


@settings(max_examples=400, deadline=None)
@given(case=placed_instances(), restrict=st.frozensets(st.integers(0, 5)))
def test_loads_density_and_schedule_cost_match_the_fraction_references(case, restrict):
    inst, per_machine = case
    loads = outcome(lambda: machine_loads(inst, per_machine))
    expected = outcome(lambda: reference_machine_loads(inst, per_machine))
    if isinstance(expected[0], Fraction):
        assert all(type(load) is int for load in loads)
        assert tuple(Fraction(load, inst.scale) for load in loads) == expected
    else:
        assert loads == expected

    asg = Assignment(per_machine)
    for restrict_to in (None, restrict):
        got = outcome(lambda: density(inst, asg, restrict_to))
        want = outcome(lambda: reference_density(inst, asg, restrict_to))
        if isinstance(got, DensityValue):
            assert (got.covered, got.makespan) == want
            assert got.as_fraction() == Fraction(want[0]) / want[1]
            covered, makespan = want
            assert got == DensityValue(covered, makespan.numerator, makespan.denominator)
        else:
            assert got == want

    sched = Schedule(per_machine)
    assert outcome(lambda: evaluate_schedule_cost(inst, sched)) == outcome(
        lambda: reference_schedule_cost(inst, sched)
    )


def test_density_values_of_different_scales_compare_exactly():
    # 3 elements over 3/2 (scale 2) against 2 elements over 1: 2 == 2
    assert DensityValue(3, 3, 2) == DensityValue(2, 1)
    assert DensityValue(3, 4, 2) < DensityValue(2, 1) < DensityValue(5, 2, 1)
    # makespan 2 / 15 (load 2/3 at scale 5, so load 2 at scale 15)
    assert DensityValue(1, 2, 15) == DensityValue(15, 2)
    assert DensityValue(3, 3, 2).makespan == Fraction(3, 2)
    values = [DensityValue(c, load, scale) for c in (0, 1, 3) for load in (1, 3, 4)
              for scale in (1, 2, 15)] + [DensityValue(2, 7, 15)]
    for a in values:
        for b in values:
            x, y = a.as_fraction(), b.as_fraction()
            assert ((a < b), (a <= b), (a == b), (a > b), (a >= b)) == (
                (x < y), (x <= y), (x == y), (x > y), (x >= y)
            )
    with pytest.raises(EmptyAssignmentError):
        DensityValue(1, 0, 7)


@pytest.mark.parametrize("load", [Fraction(1), Fraction(2, 3), 1.0, True])
def test_density_value_takes_an_int_load_only(load):
    # A rational makespan is an int load at a scale: 2/3 is load 2 at scale 3.
    with pytest.raises(TypeError, match="load must be an int"):
        DensityValue(1, load, 3)


# -- the identical ladder's budget: m * guess, an int at the instance's scale

# Costs 1/3 and 2/5 give scale 15, so every guess is an int g standing for
# g / 15, and most guesses lie off the multiples of the costs.
FLOOR_COSTS = (Fraction(1, 3), Fraction(2, 5), Fraction(1, 3), Fraction(2, 5), Fraction(1, 3))
FLOOR_SETS = ((0, 1), (1, 2, 3), (3,), (4, 5, 0), (5, 6))


def floor_instance(m):
    return ProblemInstance(n=7, sets=FLOOR_SETS, m=m, cost_model=IdenticalCosts(FLOOR_COSTS))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("epsilon", [0.1, 0.3])
def test_identical_ladder_budget_matches_a_fraction_budget_reference(m, epsilon, monkeypatch):
    inst = floor_instance(m)
    assert inst.scale == 15
    universe = (1 << inst.n) - 1
    base = 1 + Fraction(identical_ladder_delta(epsilon))
    guesses = list(_ladder_guesses(inst, base, 15, range(inst.k)))
    # the int rule against Fraction costs: the cheapest cost, then each guess
    # times base rounded up to the grid of 1/15, up to base times the total
    assert Fraction(guesses[0], 15) == min(FLOOR_COSTS)
    for a, b in zip(guesses, guesses[1:]):
        assert Fraction(b - 1, 15) < Fraction(a, 15) * base <= Fraction(b, 15)
    total = m * sum(FLOOR_COSTS)
    assert Fraction(guesses[-1], 15) <= base * total < Fraction(guesses[-1], 15) * base
    for guess in guesses:
        # the sets that fit the guess: the kernel in icosts at m * guess, the
        # Fraction reference in exact costs at m * guess / 15
        fitting = [s for s in range(inst.k) if FLOOR_COSTS[s] <= Fraction(guess, 15)]
        got = budgeted_max_coverage(
            universe,
            [inst.masks[s] for s in fitting],
            [inst.icosts[s][0] for s in fitting],
            m * guess,
        )
        want = reference_max_coverage(
            range(inst.n),
            [inst.sets[s] for s in fitting],
            [FLOOR_COSTS[s] for s in fitting],
            m * Fraction(guess, 15),
            PARTIAL_ENUM,
        )
        assert (got.chosen, Fraction(got.total_cost, 15), got.covered) == (
            want.chosen, want.total_cost, want.covered
        )

    # pds passes the kernel those int costs and budgets
    calls = []

    def spy(universe, masks, costs, budget):
        result = budgeted_max_coverage(universe, masks, costs, budget)
        calls.append((costs, budget, result))
        return result

    monkeypatch.setattr(pds_module, "budgeted_max_coverage", spy)
    pds_identical(inst, range(inst.n), epsilon)
    assert calls
    budgets = [m * g for g in guesses]
    assert [budget for _, budget, _ in calls] == budgets[: len(calls)]
    for costs, budget, result in calls:
        assert all(type(c) is int for c in costs) and type(budget) is int
        assert sum(costs[i] for i in result.chosen) == result.total_cost <= budget


@pytest.mark.parametrize("m", [1, 2])
def test_identical_ladder_load_bound_raises_as_the_fraction_check(m, monkeypatch):
    # Taking every candidate breaks the 2 * guess load bound at some guess
    # before a full cover; the error names the load and guess as exact
    # rationals.
    def take_everything(universe, sets, costs, budget):
        return MaxCovResult(tuple(range(len(sets))), sum(costs), 0)

    monkeypatch.setattr(pds_module, "budgeted_max_coverage", take_everything)
    inst = floor_instance(m)
    with pytest.raises(InvariantError) as raised:
        pds_identical(inst, range(inst.n), 0.1)

    # the Fraction check: each guess's candidates, largest first, each on the
    # least-loaded machine, up to the first guess that breaks the bound (at
    # the first guess, 1/3, two machines hold its three sets within 2/3)
    base = 1 + Fraction(identical_ladder_delta(0.1))
    for g in _ladder_guesses(inst, base, 15, range(inst.k)):
        guess = Fraction(g, 15)
        candidates = [s for s in range(inst.k) if FLOOR_COSTS[s] <= guess]
        loads = [Fraction(0)] * m
        for s in sorted(candidates, key=lambda s: (-FLOOR_COSTS[s], s)):
            j = min(range(m), key=lambda q: (loads[q], q))
            loads[j] += FLOOR_COSTS[s]
        if max(loads) > 2 * guess:
            break
    assert max(loads) > 2 * guess
    message = "a load %s exceeds twice the guess %s" % (max(loads), guess)
    assert re.fullmatch(re.escape(message), str(raised.value))


def test_scaled_floor_agrees_with_fraction_comparisons():
    for scale in (1, 6, 15, 2**70):
        for guess in (Fraction(7, 3), Fraction(10, 1), Fraction(2**80 + 1, 2**75)):
            bound = scaled_floor(scale, 2, guess)
            for load in range(max(0, bound - 3), bound + 4):
                assert (load <= bound) == (Fraction(load, scale) <= 2 * guess)
                assert (load > bound) == (Fraction(load, scale) > 2 * guess)
    # the ladder's clamp: the largest icost at or below floor(guess * scale)
    inst = floor_instance(2)
    order = [c for c, _ in inst.icost_order]
    for guess in (Fraction(1, 3), Fraction(2, 5), Fraction(7, 20), Fraction(1, 2)):
        fit = order[bisect_right(order, scaled_floor(inst.scale, guess)) - 1]
        assert Fraction(fit, 15) == max(c for c in FLOOR_COSTS if c <= guess)
