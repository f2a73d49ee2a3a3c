import json
import math
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from types import SimpleNamespace
from typing import Iterable, Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import NOT_INDICES, t1_instance
from pmssc.core import (
    Assignment,
    INFINITE_COST,
    IdenticalCosts,
    ProblemInstance,
    RelatedCosts,
    UnitCosts,
    UnrelatedCosts,
    as_fraction,
    density,
    element_mask,
    scaled_floor,
)
from pmssc.errors import InvalidIndexError, InvariantError, NoCoverageError, NoIterationKeptError
from pmssc import cli
from pmssc.fileio import generate_instance, serialize_instance
import pmssc.lp as lp_module
from pmssc.lp import to_lp_format
import pmssc.pds as pds_module
import pmssc.pmc as pmc_module
from pmssc.maxcov import PARTIAL_ENUM_MAX_K, MaxCovResult, budgeted_max_coverage
from pmssc.oracle import exact_pds
from pmssc.pds import (
    RELATED_ROUNDING_CAP,
    RelatedReduction,
    _ladder,
    _ladder_guesses,
    _pmc_solver,
    identical_ladder_delta,
    pds_identical,
    pds_related,
    pds_unrelated,
    reduce_related,
    related_parameters,
)
from pmssc.pmc import FPT, POLY, PmcParams, PmcRelaxation, pmc_solve
from pmssc.rng import child_seed
from pmssc.scheduler import pmssc_greedy

IDENTICAL_GUARANTEE = (math.e - 1) / (2 * math.e + 0.1 * (math.e - 1))


def _grid_ladder(cheapest, total, base, unit):
    """The ladder ``_ladder_guesses`` makes, as exact ``Fraction`` costs: the
    cheapest cost, then each guess times ``base`` rounded up to the grid of
    ``unit``, while a guess is at most ``base`` times the total."""
    guesses = [Fraction(cheapest)]
    while True:
        step = math.ceil(guesses[-1] * base * unit)
        if Fraction(step, unit) > base * total:
            return guesses
        guesses.append(Fraction(step, unit))


def test_budget_ladder_powers():
    # one machine: the cheapest cost is 1 and the costs sum to 10
    inst = ProblemInstance(n=1, sets=((0,), (0,)), m=1, cost_model=IdenticalCosts((1, 9)))
    assert tuple(_ladder_guesses(inst, Fraction(2), 1, [0, 1])) == (1, 2, 4, 8, 16)
    # two machines, an infinite entry and a set outside the pool: the cheapest
    # finite cost is 1/3 and the pool's finite costs sum to 5; the grid steps
    # by half the scale's step
    inst = ProblemInstance(
        n=1,
        sets=((0,), (0,), (0,)),
        m=2,
        cost_model=UnrelatedCosts(
            ((Fraction(1, 3), INFINITE_COST), (2, Fraction(8, 3)), (Fraction(1, 9), 1))
        ),
    )
    base, unit = Fraction(3, 2), 2 * inst.scale
    guesses = tuple(Fraction(g, unit) for g in _ladder_guesses(inst, base, unit, [0, 1]))
    assert guesses == tuple(_grid_ladder(Fraction(1, 3), 5, base, unit))
    assert guesses[0] == Fraction(1, 3)
    assert 5 <= guesses[-1] <= base * 5 < math.ceil(guesses[-1] * base * unit) / unit
    assert any(b != a * base for a, b in zip(guesses, guesses[1:]))  # rounded up
    all_infinite = ProblemInstance(
        n=1, sets=((0,),), m=2, cost_model=UnrelatedCosts(((INFINITE_COST,) * 2,))
    )
    with pytest.raises(NoCoverageError, match="no finite-cost set is available"):
        tuple(_ladder_guesses(all_infinite, base, 1, [0]))


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(2, 400),
    q=st.integers(1, 300),
    cheapest=st.integers(1, 50),
    rows=st.integers(1, 6),
    multiple=st.integers(1, 4),
    data=st.data(),
)
def test_first_guess_at_or_above_a_grid_threshold_is_within_base_of_it(
    p, q, cheapest, rows, multiple, data
):
    # For every threshold X on the grid of ``unit`` between the first guess
    # and the last, the first guess >= X is at most base * X.
    assume(p > q)
    base = Fraction(p, q)
    costs = IdenticalCosts((Fraction(cheapest, 7),) + (Fraction(cheapest + 5, 7),) * (rows - 1))
    inst = ProblemInstance(n=1, sets=((0,),) * rows, m=1, cost_model=costs)
    unit = inst.scale * multiple
    guesses = list(_ladder_guesses(inst, base, unit, range(rows)))
    assert guesses == sorted(set(guesses)) and all(type(g) is int for g in guesses)
    x = data.draw(st.integers(guesses[0], guesses[-1]), label="threshold")
    first = next(g for g in guesses if g >= x)
    assert Fraction(first, unit) <= base * Fraction(x, unit)


def test_ladder_makes_only_the_guesses_pulled():
    class CountingNumerator(int):
        """A base numerator that counts the guesses made from it (``guess * p``)."""

        made = 0

        def __rmul__(self, other):
            CountingNumerator.made += 1
            return int(other) * int(self)

    # the cheapest cost is 1, so the first guess needs no multiplication; the
    # costs sum to 2**20, so the whole ladder would run up to 2**21
    inst = ProblemInstance(n=1, sets=((0,), (0,)), m=1, cost_model=IdenticalCosts((1, 2**20 - 1)))
    base = SimpleNamespace(numerator=CountingNumerator(2), denominator=1)
    assert list(islice(_ladder_guesses(inst, base, 1, [0, 1]), 2)) == [1, 2]
    assert CountingNumerator.made == 1


def test_pds_identical_t1_two_machines():
    inst = t1_instance(m=2)
    asg = pds_identical(inst, frozenset(range(3)), 0.1)
    d = density(inst, asg, frozenset(range(3)))
    assert d.as_fraction() == 3  # exact_pds optimum on this instance


def test_pds_identical_single_covering_set():
    inst = ProblemInstance(
        n=5, sets=((0, 1, 2, 3, 4),), m=3, cost_model=IdenticalCosts((Fraction(4),))
    )
    asg = pds_identical(inst, frozenset(range(5)), 0.1)
    d = density(inst, asg, frozenset(range(5)))
    assert d.as_fraction() == Fraction(5, 4)


def test_pds_identical_fig1_within_guarantee(fig1):
    remaining = frozenset(range(20))
    asg = pds_identical(fig1, remaining, 0.1)
    d = density(fig1, asg, remaining)
    _, opt = exact_pds(fig1, remaining)
    assert d.as_fraction() >= IDENTICAL_GUARANTEE * opt.as_fraction() - Fraction(1, 10**9)
    # measured: the ladder actually reaches the optimum 5 here
    assert d.as_fraction() == opt.as_fraction() == 5


def test_pds_identical_guarantee_sample():
    for seed in range(40):
        inst = generate_instance(
            n=3 + seed % 6, k=2 + seed % 5, m=1 + seed % 2,
            model="identical", density=0.35, seed=seed, max_cost=3,
        )
        assert inst.k <= PARTIAL_ENUM_MAX_K  # max coverage enumerates seeds
        remaining = frozenset(range(inst.n))
        asg = pds_identical(inst, remaining, 0.1)
        d = density(inst, asg, remaining)
        _, opt = exact_pds(inst, remaining)
        ratio = d.as_fraction() / opt.as_fraction()
        assert float(ratio) >= IDENTICAL_GUARANTEE - 1e-9


# Unit costs take the identical ladder: with equal costs its least-loaded
# spread is index-order round-robin, the balanced split of at most
# ceil(|C| / m) sets per machine.


def test_pds_unit_disjoint_sets_one_per_machine():
    inst = ProblemInstance(
        n=6, sets=((0, 1), (2, 3), (4, 5)), m=3, cost_model=UnitCosts()
    )
    asg = pds_identical(inst, frozenset(range(6)), 0.1)
    d = density(inst, asg, frozenset(range(6)))
    assert d.as_fraction() == 6  # all six elements in one unit slot


def test_pds_unit_t1_oracle_decided_value():
    # oracle: unit-cost T1 densities are A=2, B=1, C=3; the full set C wins
    inst = t1_instance(m=1, model="unit")
    _, opt = exact_pds(inst)
    assert opt.as_fraction() == 3
    asg = pds_identical(inst, frozenset(range(3)), 0.1)
    assert density(inst, asg, frozenset(range(3))).as_fraction() == 3


def test_pds_unit_balanced_split_cap():
    inst = ProblemInstance(
        n=8, sets=tuple((u,) for u in range(8)), m=3, cost_model=UnitCosts()
    )
    asg = pds_identical(inst, frozenset(range(8)), 0.1)
    chosen = sum(len(seq) for seq in asg.per_machine)
    cap = -(-chosen // 3)
    assert all(len(seq) <= cap for seq in asg.per_machine)


def test_pds_unit_empty_remaining_raises():
    inst = t1_instance(m=1, model="unit")
    with pytest.raises(NoCoverageError):
        pds_identical(inst, frozenset(), 0.1)


def test_reduce_related_equal_speeds_single_group():
    inst = t1_instance(m=2, model="related", speeds=(1, 1))
    red, aux = reduce_related(inst, Fraction(1, 2))
    nonempty = [g for g in red.groups if g]
    assert nonempty == [(0, 1)]
    assert red.aux_cost_multiplier[0] == 1
    assert red.kept_machines == (0, 1)
    assert aux.m == 1


def test_reduce_related_exact_power_speeds():
    inst = ProblemInstance(
        n=3,
        sets=((0, 1), (2,), (0, 1, 2)),
        m=3,
        cost_model=RelatedCosts((1, 1, 2), (4, 2, 1)),
    )
    red, aux = reduce_related(inst, 1)
    assert len(red.groups) == 3
    assert red.aux_cost_multiplier == (1, 2, 4)
    # machines 0 and 1 land in the exact-power buckets; machine 2's
    # normalized speed 1/4 <= kappa/m = 1/3 classifies it as slow
    assert red.groups[0] == (0,) and red.groups[1] == (1,)
    assert 2 not in red.kept_machines
    # group 2 is empty, so the aux instance has one machine per group 0 and 1
    assert aux.m == 2
    assert aux.cost(2, 1) == 2 * 2  # multiplier 2 times base cost 2


def test_reduce_related_discards_slow_machine():
    inst = ProblemInstance(
        n=2,
        sets=((0,), (1,)),
        m=2,
        cost_model=RelatedCosts((1, 1), (Fraction(1), Fraction(1, 10**6))),
    )
    red, _ = reduce_related(inst, Fraction(1, 2))
    assert red.kept_machines == (0,)


def test_reduce_related_at_epsilon_1e_3_builds_only_the_powers_it_reads(monkeypatch):
    # t is about 46,650 here; multiplying out every power (1 + kappa)^p, as the
    # reduction once did, died of MemoryError. Powers are counted, not seconds.
    inst = ProblemInstance(3, ((0, 1), (2,)), 2, RelatedCosts((1, 1), (1, Fraction(3, 2))))
    kappa = Fraction(related_parameters(1e-3)[1])
    built = []

    def power(base, p, _inner=pds_module._power):
        built.append(p)
        return _inner(base, p)

    monkeypatch.setattr(pds_module, "_power", power)
    red, aux = reduce_related.__wrapped__(inst, kappa)
    assert len(built) < 100
    assert red.t == len(red.aux_cost_multiplier) > 40_000
    slow = [p for p, group in enumerate(red.groups) if group == (0,)]
    assert red.groups[0] == (1,) and len(slow) == 1
    # the slow machine's multiplier 3/2 rounds up to its group's power, not further
    assert red.aux_cost_multiplier[slow[0] - 1] < Fraction(3, 2) <= red.aux_cost_multiplier[slow[0]]
    # the aux machine costs the group's largest multiplier, 3/2 itself
    assert aux.costs == ((1, Fraction(3, 2)),) * 2


def test_related_parameters():
    delta, kappa = related_parameters(0.2)
    assert abs(delta - 0.2 * 2 * math.e / (math.e - 1)) < 1e-12
    assert abs(kappa - delta / (delta + 16)) < 1e-12


def test_pds_related_equal_speeds_matches_identical_density():
    related = t1_instance(m=2, model="related", speeds=(1, 1))
    identical = t1_instance(m=2)
    remaining = frozenset(range(3))
    d_rel = density(related, pds_related(related, remaining, 0.2, seed=3), remaining)
    d_idn = density(identical, pds_identical(identical, remaining, 0.2), remaining)
    assert d_rel == d_idn == density(identical, Assignment(((0,), (1,))), remaining)


def test_pds_related_t1_density_three():
    inst = t1_instance(m=2, model="related", speeds=(1, 1))
    remaining = frozenset(range(3))
    asg = pds_related(inst, remaining, 0.2, seed=11)
    assert density(inst, asg, remaining).as_fraction() == 3


def test_pds_related_unequal_speeds_ratio():
    inst = t1_instance(m=2, model="related", speeds=(2, 1))
    remaining = frozenset(range(3))
    asg = pds_related(inst, remaining, 0.2, seed=5)
    d = density(inst, asg, remaining)
    _, opt = exact_pds(inst, remaining)
    assert d.as_fraction() >= Fraction(3, 10) * opt.as_fraction()


def test_related_ladder_clamps_as_a_fresh_clamp_would_at_every_guess(monkeypatch):
    # Speed 1/2 gives machine 1's group the multiplier 2, so base cost 1
    # costs 2 there, the ladder's second guess, and no other cost lies
    # between 1 and 2: the table must change when a cost first fits the
    # guess by equality. Without the clamp every guess gets the unclamped
    # pool rows.
    inst = ProblemInstance(
        n=4,
        sets=((0,), (1,), (2, 3), (0, 1, 2, 3)),
        m=2,
        cost_model=RelatedCosts((1, 3, 1, 5), (1, Fraction(1, 2))),
    )
    _, kappa = related_parameters(0.2)
    reduction, aux = reduce_related(inst, Fraction(kappa))
    weights = [len(g) for g in reduction.groups if g]
    unit = aux.scale * math.lcm(*weights)
    tables = []

    def spy(relaxation, budgets, params, _inner=pmc_solve, **kwargs):
        tables.append((relaxation, budgets[0] / weights[0]))
        return _inner(relaxation, budgets, params, **kwargs)

    def fit(guess):
        return sum(c <= guess for row in aux.costs for c in row)

    monkeypatch.setattr(pds_module, "pmc_solve", spy)
    params = PmcParams(mode=FPT, epsilon=kappa, mu=kappa, r_cap=RELATED_ROUNDING_CAP, seed=7)
    remaining = frozenset(range(4))
    for clamp in (True, False):
        tables.clear()
        solve = _pmc_solver(inst, remaining, range(4), aux, weights, unit, params)
        list(_ladder(aux, 1 + Fraction(kappa), unit, range(4), range(4), clamp, solve))
        assert len(tables) > 2
        for relaxation, guess in tables:
            assert relaxation.inst.costs == tuple(
                tuple(INFINITE_COST if clamp and c > guess else c for c in row)
                for row in aux.costs
            )
        assert any(
            c == guess for relaxation, guess in tables
            for row in relaxation.inst.costs for c in row
        )
        # guesses share one relaxation object exactly when they share a fit count
        for (relaxation, guess), (later, after) in zip(tables, tables[1:]):
            assert (later is relaxation) == (not clamp or fit(guess) == fit(after))


def test_unrelated_ladder_solves_cold_once_per_pds_call(monkeypatch):
    # Every guess of an unrelated ladder shares one work table, so only the
    # budget rhs changes: the first LP starts cold, every later one warm.
    cold, calls = [], []

    def counted(log, inner):
        def wrapper(*args, **kwargs):
            log.append(1)
            return inner(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(lp_module, "_cold_start", counted(cold, lp_module._cold_start))
    monkeypatch.setattr(pmc_module, "solve_lp", counted(calls, pmc_module.solve_lp))
    ladders = 0
    for seed in range(6):
        inst = generate_instance(
            n=10 + 2 * seed, k=5 + seed % 3, m=2 + seed % 3, model="unrelated",
            density=0.3, seed=60_000 + seed, max_cost=5,
        )
        cold.clear()
        calls.clear()
        pds_unrelated(inst, range(inst.n), 0.2, seed=seed)
        assert len(cold) == 1
        ladders += len(calls) > 1
    assert ladders >= 3  # most ladders re-solve warm at least once


@pytest.mark.parametrize(
    "model, n, k, density, seed", [("unrelated", 30, 12, 0.15, 1), ("related", 14, 6, 0.3, 2)]
)
def test_every_ladder_guess_solves_and_dumps_a_fresh_build(
    model, n, k, density, seed, monkeypatch, tmp_path
):
    # Each work table's relaxation is built once; every guess's program must
    # still equal, float arrays included, the program a fresh build gives.
    dump = tmp_path / "ladder.lp"
    monkeypatch.setenv("PMSSC_DUMP_LP", str(dump))
    guesses, programs = [], []

    def spy_pmc(relaxation, budgets, params, _inner=pmc_solve, **kwargs):
        guesses.append((relaxation, budgets))
        return _inner(relaxation, budgets, params, **kwargs)

    def spy_lp(lp, *args, _inner=pmc_module.solve_lp, **kwargs):
        programs.append(lp)
        return _inner(lp, *args, **kwargs)

    monkeypatch.setattr(pds_module, "pmc_solve", spy_pmc)
    monkeypatch.setattr(pmc_module, "solve_lp", spy_lp)
    inst = generate_instance(n=n, k=k, m=3, model=model, density=density, seed=seed, max_cost=5)
    pds = pds_unrelated if model == "unrelated" else pds_related
    pds(inst, range(inst.n), 0.2, seed=seed)
    assert len(programs) == len(guesses) >= 3
    fresh = [PmcRelaxation(relaxation.inst).at(budgets) for relaxation, budgets in guesses]
    for lp, built in zip(programs, fresh):
        assert lp == built
        for shared, converted in zip(lp._floats, built._floats):
            assert shared.dtype == converted.dtype and np.array_equal(shared, converted)
    # guesses on one relaxation share its coefficient arrays; others do not
    for (relaxation, _), (later, _), lp, after in zip(
        guesses, guesses[1:], programs, programs[1:]
    ):
        assert (lp._floats[1] is after._floats[1]) == (relaxation is later)
    if model == "related":
        assert len({id(relaxation) for relaxation, _ in guesses}) > 1
    # one dumped program per guess, with that guess's budget rhs
    assert dump.read_text() == "".join(to_lp_format(lp) for lp in fresh)


# Instance seeds from 95 on, up to the first (103) whose ladder meets a
# clamped guess with a fractional optimum.
SKIP_LADDER_SEEDS = range(95, 104)


def test_ladder_skips_a_guess_that_repeats_a_clamped_integral_solve(monkeypatch, tmp_path):
    # Seeded so that the ladders together meet every case: clamped integral
    # guesses followed by repeats; a clamped guess with a fractional optimum,
    # and an unclamped one with an integral optimum, each followed by a guess
    # with the same work table; and changes of ``largest``.
    dump = tmp_path / "ladder.lp"
    monkeypatch.setenv("PMSSC_DUMP_LP", str(dump))
    _, kappa = related_parameters(0.2)
    solves, programs = [], []

    def spy_pmc(relaxation, budgets, params, _inner=pmc_solve, **kwargs):
        clamped = all(b >= norm for b, norm in zip(budgets, relaxation.norms))
        record = {"seed": params.seed, "clamped": clamped, "integral": None}
        solves.append(record)
        result = _inner(relaxation, budgets, params, **kwargs)
        record["integral"] = result.integral
        return result

    def spy_lp(lp, *args, _inner=pmc_module.solve_lp, **kwargs):
        programs.append(lp)
        return _inner(lp, *args, **kwargs)

    monkeypatch.setattr(pds_module, "pmc_solve", spy_pmc)
    monkeypatch.setattr(pmc_module, "solve_lp", spy_lp)
    seen = {"skip": 0, "fractional": 0, "unclamped": 0, "new_largest_after_skip": 0}
    for seed in SKIP_LADDER_SEEDS:
        inst = generate_instance(
            n=6, k=5, m=3, model="related", density=0.4, seed=seed, max_cost=3
        )
        reduction, aux = reduce_related(inst, Fraction(kappa))
        weights = [len(g) for g in reduction.groups if g]
        unit = aux.scale * math.lcm(*weights)
        params = PmcParams(
            mode=FPT, epsilon=kappa, mu=kappa, r_cap=RELATED_ROUNDING_CAP, seed=seed
        )
        pool = frozenset(range(inst.k))
        solve = _pmc_solver(inst, frozenset(range(inst.n)), pool, aux, weights, unit, params)
        guesses, first = [], len(solves)

        def logged(gi, guess, largest):
            before = len(solves), len(programs)
            try:
                return solve(gi, guess, largest)
            finally:
                guesses.append((gi, largest, len(solves) - before[0], len(programs) - before[1]))

        list(_ladder(aux, 1 + Fraction(kappa), unit, pool, pool, True, logged))
        repeatable, last_largest, last_skipped = False, None, False
        solved = iter(solves[first:])
        for gi, largest, pmc_calls, lp_calls in guesses:
            assert pmc_calls == lp_calls
            skip = largest == last_largest and repeatable
            assert pmc_calls == (0 if skip else 1)
            if skip:
                seen["skip"] += 1
            else:
                record = next(solved)
                assert record["seed"] == child_seed(params.seed, gi)
                if largest == last_largest:
                    seen["fractional"] += last_clamped and not last_integral
                    seen["unclamped"] += last_integral and not last_clamped
                seen["new_largest_after_skip"] += last_skipped and largest != last_largest
                repeatable = record["clamped"] and record["integral"]
                last_clamped, last_integral = record["clamped"], record["integral"]
            last_largest, last_skipped = largest, skip
    assert all(seen.values()), seen
    # only solved guesses dump a program
    assert dump.read_text() == "".join(to_lp_format(lp) for lp in programs)


def former_pmc_solver(inst, remaining, pool, table, weights, unit, params):
    """``pds._pmc_solver`` as it was before it skipped repeated guesses: every
    guess builds its budgets and solves."""
    sets = tuple(
        tuple(u for u in inst.sets[s] if u in remaining) if s in pool else () for s in range(inst.k)
    )

    @lru_cache(maxsize=1)
    def relaxation(largest):
        costs = tuple(
            tuple(INFINITE_COST if s not in pool or i > largest else c for c, i in zip(row, irow))
            for s, (row, irow) in enumerate(zip(table.costs, table.icosts))
        )
        return PmcRelaxation(
            ProblemInstance(n=inst.n, sets=sets, m=len(weights), cost_model=UnrelatedCosts(costs))
        )

    def solve(gi, guess, largest) -> Assignment:
        return pmc_solve(
            relaxation(largest),
            [Fraction(w * guess, unit) for w in weights],
            replace(params, seed=child_seed(params.seed, gi)),
        ).assignment

    return solve


@st.composite
def clamping_cases(draw):
    """Related and unrelated instances with few sets and costs of 1 or 2, so
    that the top guesses of a ladder clamp every budget."""
    model = draw(st.sampled_from(["related", "unrelated"]))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    element = st.integers(0, n - 1)
    sets = tuple(tuple(sorted(draw(st.frozensets(element, max_size=n)))) for _ in range(k))
    if model == "related":
        base = st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2)])
        speed = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)])
        costs = RelatedCosts(
            tuple(draw(base) for _ in range(k)), tuple(draw(speed) for _ in range(m))
        )
    else:
        entry = st.sampled_from([1, 2, INFINITE_COST])
        costs = UnrelatedCosts(tuple(tuple(draw(entry) for _ in range(m)) for _ in range(k)))
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=costs)
    remaining = draw(st.just(frozenset(range(n))) | st.frozensets(element))
    available = draw(st.none() | st.frozensets(st.integers(0, k - 1), min_size=k // 2))
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.2, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return inst, remaining, available, epsilon, seed


@settings(max_examples=200, deadline=None)
@given(case=clamping_cases())
def test_skipping_repeated_guesses_matches_solving_every_guess(case):
    inst, remaining, available, epsilon, seed = case
    solver = pds_related if inst.cost_model.kind == "related" else pds_unrelated

    def run():
        return _outcome(lambda: solver(inst, remaining, epsilon, available, seed=seed))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pds_module, "_pmc_solver", former_pmc_solver)
        expected = run()
    assert run() == expected


def test_related_greedy_builds_the_reduction_once():
    inst = generate_instance(n=8, k=4, m=2, model="related", density=0.3, seed=1)
    reduce_related.cache_clear()
    _, trace = pmssc_greedy(inst, "related", epsilon=0.1, seed=1)
    assert len(trace.iterations) >= 3
    info = reduce_related.cache_info()
    assert (info.misses, info.hits) == (1, len(trace.iterations) - 1)


def test_slow_machine_discard_loses_little():
    """Dropping machines below the speed threshold keeps density within 1+kappa."""
    kappa = Fraction(1, 2)
    full = ProblemInstance(
        n=4,
        sets=((0, 1), (2,), (3,), (0, 2, 3)),
        m=3,
        cost_model=RelatedCosts((1, 2, 1, 3), (4, 2, Fraction(1, 100))),
    )
    red, _ = reduce_related(full, kappa)
    assert red.kept_machines == (0, 1)
    kept = ProblemInstance(
        n=4, sets=full.sets, m=2, cost_model=RelatedCosts((1, 2, 1, 3), (4, 2))
    )
    _, d_full = exact_pds(full)
    _, d_kept = exact_pds(kept)
    assert d_kept.as_fraction() >= d_full.as_fraction() / (1 + kappa)


def test_pds_unrelated_single_machine_t1():
    inst = ProblemInstance(
        n=3,
        sets=((0, 1), (2,), (0, 1, 2)),
        m=1,
        cost_model=UnrelatedCosts(((Fraction(1),), (Fraction(1),), (Fraction(2),))),
    )
    remaining = frozenset(range(3))
    asg = pds_unrelated(inst, remaining, 0.2, seed=4)
    assert density(inst, asg, remaining).as_fraction() == 2


def test_pds_unrelated_respects_infinite_costs():
    inst = ProblemInstance(
        n=3,
        sets=((0,), (1, 2)),
        m=2,
        cost_model=UnrelatedCosts(
            ((Fraction(1), INFINITE_COST), (INFINITE_COST, Fraction(1)))
        ),
    )
    remaining = frozenset(range(3))
    asg = pds_unrelated(inst, remaining, 0.2, seed=4)
    for j, seq in enumerate(asg.per_machine):
        for s in seq:
            assert inst.cost(s, j) != INFINITE_COST


def test_pds_unrelated_forced_diagonal():
    inst = ProblemInstance(
        n=2,
        sets=((0,), (1,)),
        m=2,
        cost_model=UnrelatedCosts(
            ((Fraction(1), INFINITE_COST), (INFINITE_COST, Fraction(1)))
        ),
    )
    remaining = frozenset(range(2))
    asg = pds_unrelated(inst, remaining, 0.2, seed=0)
    d = density(inst, asg, remaining)
    assert d.as_fraction() == 2 and d.makespan == 1


def test_pds_no_coverage():
    inst = t1_instance(m=2)
    with pytest.raises(NoCoverageError):
        pds_identical(inst, frozenset(), 0.1)


@pytest.mark.parametrize("model", ["identical", "related", "unrelated"])
def test_out_of_range_pool_indices_raise_invalid_index_error(model):
    inst = generate_instance(n=6, k=4, m=2, model=model, density=0.4, seed=2)
    solve = {"identical": pds_identical, "related": pds_related, "unrelated": pds_unrelated}[model]
    everything = frozenset(range(inst.n))
    for available in ([7], [4], [-2], [0, -1]):
        with pytest.raises(InvalidIndexError, match=r"^available set -?\d+ outside \[0, 4\)$"):
            solve(inst, everything, 0.2, available=available)
    for remaining in ({-1, 0}, {6}, everything | {9}):
        with pytest.raises(InvalidIndexError, match=r"^remaining element -?\d+ outside \[0, 6\)$"):
            solve(inst, remaining, 0.2)


@pytest.mark.parametrize("model", ["identical", "related", "unrelated"])
def test_pool_indices_that_are_not_integers_raise_type_error(model):
    inst = generate_instance(n=6, k=4, m=2, model=model, density=0.4, seed=2)
    solve = {"identical": pds_identical, "related": pds_related, "unrelated": pds_unrelated}[model]
    everything = frozenset(range(inst.n))
    for bad, message in NOT_INDICES:
        with pytest.raises(TypeError, match=message):
            solve(inst, everything, 0.2, available=[0, bad])
        with pytest.raises(TypeError, match=message):
            solve(inst, [0, bad], 0.2)
    # numpy integers are indices
    assert solve(inst, np.arange(6), 0.2, available=np.arange(4)) == solve(inst, everything, 0.2)


def test_pds_unrelated_coverable_elements_only_in_infinite_sets():
    # Set 0 holds the remaining element but runs on no machine; set 1 has
    # finite costs but covers nothing remaining.
    inst = ProblemInstance(
        n=2,
        sets=((0,), (1,)),
        m=2,
        cost_model=UnrelatedCosts(((INFINITE_COST, INFINITE_COST), (1, 2))),
    )
    for available in (None, (0,), (0, 1)):
        with pytest.raises(NoCoverageError, match="^no finite-cost set is available$"):
            pds_unrelated(inst, frozenset({0}), 0.2, available=available, seed=1)


def test_identical_ladder_starts_where_the_cheapest_usable_set_fits(monkeypatch):
    # Set 0 is the cheapest but meets no remaining element; the first maxcov
    # call comes at set 1's cost 5, the first guess of the usable sets' ladder.
    inst = ProblemInstance(n=2, sets=((0,), (1,)), m=2, cost_model=IdenticalCosts((1, 5)))
    budgets = []

    def spy(remaining_mask, masks, costs, budget, _inner=budgeted_max_coverage):
        budgets.append(budget)
        return _inner(remaining_mask, masks, costs, budget)

    monkeypatch.setattr(pds_module, "budgeted_max_coverage", spy)
    base = 1 + Fraction(identical_ladder_delta(0.2))
    guesses = _grid_ladder(5, 2 * 5, base, inst.scale)  # set 1 costs 5 on each machine
    assert [Fraction(g, inst.scale) for g in _ladder_guesses(inst, base, inst.scale, [1])] == guesses
    assert pds_identical(inst, frozenset({1}), 0.2) == Assignment(((1,), ()))
    assert budgets == [inst.m * guesses[0] * inst.scale]  # m * guess in icosts units


def _identical_ladder_every_call(inst, remaining, epsilon):
    """``pds_identical`` on one machine with a max-coverage call at every guess
    it runs: the sets that fit the guess, the budget guess * L, the chosen sets
    largest first, the densest kept up to the first full cover."""
    assert inst.m == 1
    base = 1 + Fraction(identical_ladder_delta(epsilon))
    costs = [row[0] for row in inst.icosts]
    cheapest, total = min(inst.costs)[0], sum(row[0] for row in inst.costs)
    best = None
    for guess in _grid_ladder(cheapest, total, base, inst.scale):
        fitting = [s for s in range(inst.k) if costs[s] <= guess * inst.scale]
        result = budgeted_max_coverage(
            element_mask(remaining),
            [inst.masks[s] for s in fitting],
            [costs[s] for s in fitting],
            int(guess * inst.scale),
        )
        chosen = sorted((fitting[i] for i in result.chosen), key=lambda s: (-costs[s], s))
        asg = Assignment((tuple(chosen),))
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
        if d.covered == len(remaining):
            break
    return best[1]


def test_identical_ladder_budgets_strictly_increase(monkeypatch):
    # At epsilon 0.01 the ladder base is about 1.03, so on a grid of whole
    # costs each guess is one more than the last: every guess gets its own
    # budget, and no guess can repeat the assignment of the one before.
    inst = ProblemInstance(
        n=3, sets=((0,), (1,), (2,)), m=1, cost_model=IdenticalCosts((5, 5, 7))
    )
    calls = []

    def spy(remaining_mask, masks, costs, budget, _inner=budgeted_max_coverage):
        calls.append((len(masks), budget))
        return _inner(remaining_mask, masks, costs, budget)

    monkeypatch.setattr(pds_module, "budgeted_max_coverage", spy)
    remaining = frozenset(range(3))
    asg = pds_identical(inst, remaining, 0.01)
    base = 1 + Fraction(identical_ladder_delta(0.01))
    ran = list(_ladder_guesses(inst, base, inst.scale, range(3)))
    ran = ran[: ran.index(17) + 1]  # the full cover
    assert ran == list(range(5, 18))
    assert [budget for _, budget in calls] == ran
    assert [fits for fits, _ in calls] == [2, 2, 3] + [3] * (len(ran) - 3)
    assert asg == _identical_ladder_every_call(inst, remaining, 0.01)


# -- the ladder stops at its first full cover


def _record_oracle_coverage(monkeypatch):
    """Wrap the module's max-coverage oracles; returns each call's covered count."""
    covered = []
    for name in ("budgeted_max_coverage", "pmc_solve"):
        def counted(*args, _inner=getattr(pds_module, name), **kwargs):
            result = _inner(*args, **kwargs)
            covered.append(result.covered)
            return result

        monkeypatch.setattr(pds_module, name, counted)
    return covered


@pytest.mark.parametrize("model", ["identical", "related", "unrelated"])
def test_no_oracle_call_after_the_first_full_cover(model, monkeypatch):
    covered = _record_oracle_coverage(monkeypatch)
    solvers = {
        "identical": lambda inst, rem, seed: pds_identical(inst, rem, 0.1),
        "related": lambda inst, rem, seed: pds_related(inst, rem, 0.2, seed=seed),
        "unrelated": lambda inst, rem, seed: pds_unrelated(inst, rem, 0.2, seed=seed),
    }
    full_covers = 0
    for seed in range(8):
        inst = generate_instance(
            n=8 + seed, k=4 + seed % 3, m=2 + seed % 2, model=model,
            density=0.3, seed=50_000 + seed, max_cost=4,
        )
        remaining = frozenset(range(0, inst.n, 1 + seed % 2))
        coverable = _coverable(inst, remaining, range(inst.k))
        covered.clear()
        solvers[model](inst, remaining, seed)
        assert covered, "the ladder made no oracle call"
        if coverable in covered:
            assert covered.index(coverable) == len(covered) - 1
            full_covers += 1
    assert full_covers >= 6


def test_ladder_skips_guesses_whose_rounding_keeps_nothing(monkeypatch, tmp_path, capsys):
    inst = generate_instance(n=12, k=6, m=2, model="unrelated", density=0.4, seed=3)
    real, budgets, solved = pds_module.pmc_solve, [], []

    def first_two_keep_nothing(relaxation, guess_budgets, params, verify_lp=False):
        budgets.append(guess_budgets)
        if len(budgets) <= 2:
            raise NoIterationKeptError(1)
        result = real(relaxation, guess_budgets, params, verify_lp)
        solved.append(result.assignment)
        return result

    monkeypatch.setattr(pds_module, "pmc_solve", first_two_keep_nothing)
    asg = pds_unrelated(inst, range(inst.n), 0.1, seed=1)
    assert budgets[:2] == [[1, 1], [2, 2]] and asg in solved and not asg.is_empty

    def keeps_nothing(relaxation, guess_budgets, params, verify_lp=False):
        raise NoIterationKeptError(1)

    monkeypatch.setattr(pds_module, "pmc_solve", keeps_nothing)
    skipped = r"\(skipped: \[1\.0, 2\.0, 4\.0, 8\.0, 16\.0, 32\.0\]\)$"
    with pytest.raises(NoCoverageError, match="^no budget guess produced an assignment " + skipped):
        pds_unrelated(inst, range(inst.n), 0.1, seed=1)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    assert cli.main(["solve", "--instance", str(path), "--algo", "greedy-unrelated"]) == 3
    assert capsys.readouterr().err.startswith("solver failure: no budget guess produced")


def test_ladder_stops_at_the_first_full_cover_though_a_later_guess_is_denser(monkeypatch):
    inst = ProblemInstance(
        n=5, sets=((0, 4), (1, 2, 3)), m=3, cost_model=UnrelatedCosts(((4, 5, 1), (2, 5, 1)))
    )
    remaining = frozenset(range(5))
    covered = _record_oracle_coverage(monkeypatch)
    asg = pds_unrelated(inst, remaining, 0.2, seed=20)
    # the first guess, 1, covers all five elements, so guess 2 never runs
    assert covered == [5]
    assert asg == Assignment(((1,), (0,), ()))
    monkeypatch.undo()
    # guess 2 (ladder position 1) would have kept a strictly denser family
    later = pmc_solve(
        PmcRelaxation(inst), [2] * inst.m,
        PmcParams(mode=POLY, epsilon=0.2, seed=child_seed(20, 1)),
    ).assignment
    assert later == Assignment(((1,), (), (0,)))
    assert density(inst, later, remaining) > density(inst, asg, remaining)


@st.composite
def guarantee_cases(draw):
    model = draw(st.sampled_from(["identical", "related"]))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    element = st.integers(0, n - 1)
    sets = tuple(
        tuple(sorted(draw(st.frozensets(element, min_size=1, max_size=n)))) for _ in range(k)
    )
    base = tuple(draw(st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))) for _ in range(k))
    if model == "identical":
        costs = IdenticalCosts(base)
    else:
        speed = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2), Fraction(1, 2)])
        costs = RelatedCosts(base, tuple(draw(speed) for _ in range(m)))
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=costs)
    remaining = draw(st.frozensets(element, min_size=1))
    return inst, remaining, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(case=guarantee_cases())
def test_stopped_ladder_keeps_the_proven_fraction_of_exact_pds(case):
    inst, remaining, seed = case
    assume(any(frozenset(inst.sets[s]) & remaining for s in range(inst.k)))
    _, opt = exact_pds(inst, remaining)
    if inst.cost_model.kind == "identical":
        assert inst.k <= PARTIAL_ENUM_MAX_K  # max coverage enumerates seeds
        asg = pds_identical(inst, remaining, 0.1)
        bound = IDENTICAL_GUARANTEE
    else:
        asg = pds_related(inst, remaining, 0.2, seed=seed)
        bound = 0.25  # acceptance criterion 9's related-machines bound
    got = density(inst, asg, remaining)
    assert float(got.as_fraction() / opt.as_fraction()) >= bound - 1e-9


@pytest.mark.parametrize("solver", [pds_identical])
def test_over_budget_family_raises_invariant_error(solver, monkeypatch):
    # A max-coverage result that takes every candidate breaks the budget the
    # ladder analysis relies on; that must raise even under ``python -O``.
    def take_everything(universe, sets, costs, budget):
        return MaxCovResult(tuple(range(len(sets))), sum(costs), 0)

    monkeypatch.setattr(pds_module, "budgeted_max_coverage", take_everything)
    inst = generate_instance(n=8, k=6, m=1, model="unit", density=0.4, seed=3)
    with pytest.raises(InvariantError):
        solver(inst, range(inst.n), 0.1)


# -- differential test: the shared ladder against the former solvers
#
# Verbatim copies of the former ``pds_unit``, ``pds_related`` and
# ``pds_unrelated``, each with its own ladder loop and argmax. Each loop has
# the additions every ladder now follows: it breaks after the first guess
# whose assignment covers every coverable remaining element, the PMC loops
# solve every guess of one clamped cost table on one ``PmcRelaxation``, so
# each LP starts warm from the last one's optimum (a warm re-solve may stop
# at another optimal vertex than a cold one), and the guesses are the int
# ladder's, on the grid of the instance's scale (the related one's: the aux
# scale times the lcm of the group sizes), with each aux machine costed by
# its group's largest multiplier.


def _available_list(inst, available):
    return sorted(range(inst.k)) if available is None else sorted(available)


def _require_coverage(inst, remaining, pool):
    if not any(frozenset(inst.sets[s]) & remaining for s in pool):
        raise NoCoverageError("no available set covers a remaining element")


def _coverable(inst, remaining, pool) -> int:
    """How many remaining elements the pool's sets with a finite cost hold."""
    finite = [s for s in pool if any(c != INFINITE_COST for c in inst.costs[s])]
    return len(remaining & frozenset().union(*(frozenset(inst.sets[s]) for s in finite)))


def _check_best_density(inst, best, remaining) -> None:
    if density(inst, best[1], remaining) != best[0]:
        raise InvariantError("re-evaluated density differs from the kept value")


def reference_pds_unit(
    inst: ProblemInstance,
    remaining: Iterable[int],
    epsilon: float,
    available: Optional[Iterable[int]] = None,
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
    coverable = _coverable(inst, remaining, pool)
    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    ladder = (Fraction(g, inst.scale) for g in _ladder_guesses(inst, base, inst.scale, pool))
    remaining_mask = element_mask(remaining)
    pool_masks = [inst.masks[s] for s in pool]
    ones = [1] * len(pool)

    best = None
    for guess in ladder:
        if guess < 1:
            continue  # every set costs 1
        # unit costs: the budget m * guess in int cost units is its floor
        result = budgeted_max_coverage(
            remaining_mask, pool_masks, ones, math.floor(inst.m * guess)
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
        if d.covered == coverable:
            break
    if best is None:
        raise NoCoverageError("every budget guess produced an empty family")
    _check_best_density(inst, best, remaining)
    return best[1]


def former_reduce_related(inst: ProblemInstance, kappa):
    """The former reduction: an auxiliary machine for every power, empty or not,
    a nonempty group's costed by its largest multiplier, an empty one's by its
    power."""
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
    )
    base_costs = inst.cost_model.base_costs
    group_multipliers = [
        max(multipliers[j] for j in groups[p]) if groups[p] else bucket_multipliers[p]
        for p in range(t + 1)
    ]
    matrix = tuple(
        tuple(group_multipliers[p] * base_costs[s] for p in range(t + 1))
        for s in range(inst.k)
    )
    aux = ProblemInstance(
        n=inst.n,
        sets=inst.sets,
        m=t + 1,
        cost_model=UnrelatedCosts(matrix),
    )
    return reduction, aux


def reference_pds_related(
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
    coverable = _coverable(inst, remaining, pool)
    _, kappa = related_parameters(epsilon)
    kappa_f = Fraction(kappa)
    reduction, aux_full = former_reduce_related(inst, kappa_f)

    # Presolve: empty groups carry budget zero and can never receive a set,
    # so the PMC instance only keeps the nonempty ones.
    nonempty = [p for p in range(reduction.t) if reduction.groups[p]]
    if not nonempty:
        raise NoCoverageError("all machines were discarded as slow")
    restricted_sets = tuple(
        tuple(sorted(frozenset(inst.sets[s]) & remaining)) if s in pool_set else ()
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
    usable = [s for s in pool if frozenset(inst.sets[s]) & remaining]
    aux_scale = math.lcm(*(aux_full.cost(s, p).denominator for s in range(inst.k) for p in nonempty))
    unit = aux_scale * math.lcm(*(len(reduction.groups[p]) for p in nonempty))
    ladder = (
        Fraction(g, unit)
        for g in _ladder_guesses(compact_probe, Fraction(1) + kappa_f, unit, usable)
    )

    best = None
    skipped = []
    relaxations = {}
    for gi, guess in enumerate(ladder):
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
        if guess_inst not in relaxations:
            relaxations[guess_inst] = PmcRelaxation(guess_inst)
        try:
            result = pmc_solve(relaxations[guess_inst], budgets, params)
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
                # guesses count the fastest speed as 1; loads are in real units
                if loads[j] * max(inst.cost_model.speeds) > cap:
                    feasible = False
        if not feasible:
            raise InvariantError("lift exceeded the per-machine bound")
        asg = Assignment(tuple(tuple(seq) for seq in per_machine))
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
        if d.covered == coverable:
            break
    if best is None:
        raise NoCoverageError(
            "no budget guess produced an assignment (skipped: %s)"
            % [float(g) for g in skipped]
        )
    _check_best_density(inst, best, remaining)
    return best[1]


def reference_pds_unrelated(
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
    coverable = _coverable(inst, remaining, pool)

    restricted_sets = tuple(
        tuple(sorted(frozenset(inst.sets[s]) & remaining)) if s in pool_set else ()
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
    usable = [s for s in pool if frozenset(inst.sets[s]) & remaining]
    ladder = (Fraction(g, inst.scale) for g in _ladder_guesses(work, Fraction(2), inst.scale, usable))

    best = None
    skipped = []
    relaxation = PmcRelaxation(work)
    for gi, guess in enumerate(ladder):
        params = PmcParams(mode=POLY, epsilon=epsilon, seed=child_seed(seed, gi))
        try:
            result = pmc_solve(relaxation, [guess] * inst.m, params)
        except NoIterationKeptError:
            skipped.append(guess)
            continue
        if result.assignment.is_empty:
            continue
        asg = result.assignment
        d = density(inst, asg, remaining)
        if best is None or d > best[0]:
            best = (d, asg)
        if d.covered == coverable:
            break
    if best is None:
        raise NoCoverageError(
            "no budget guess produced an assignment (skipped: %s)"
            % [float(g) for g in skipped]
        )
    _check_best_density(inst, best, remaining)
    return best[1]


def _outcome(solve):
    try:
        return solve()
    except (InvariantError, NoCoverageError, ValueError) as err:
        return (type(err), str(err))


@st.composite
def pds_cases(draw):
    model = draw(st.sampled_from(["unit", "related", "unrelated"]))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    element = st.integers(0, n - 1)
    sets = tuple(tuple(sorted(draw(st.frozensets(element, max_size=n)))) for _ in range(k))
    if model == "unit":
        costs = UnitCosts()
    elif model == "related":
        base = st.builds(Fraction, st.integers(1, 3), st.integers(1, 2))
        # repeated speeds put several machines in one group; 1/50 is discarded
        speed = st.sampled_from([Fraction(1), Fraction(1), Fraction(3, 2), Fraction(1, 50)])
        costs = RelatedCosts(
            tuple(draw(base) for _ in range(k)), tuple(draw(speed) for _ in range(m))
        )
    else:
        entry = st.sampled_from([1, 2, 3, INFINITE_COST])
        costs = UnrelatedCosts(tuple(tuple(draw(entry) for _ in range(m)) for _ in range(k)))
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=costs)
    remaining = draw(st.just(frozenset(range(n))) | st.frozensets(element))
    available = draw(st.none() | st.frozensets(st.integers(0, k - 1), min_size=k // 2))
    epsilon = draw(st.sampled_from([0.1, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return inst, remaining, available, epsilon, seed


def _solver_pairs(kind, seed):
    """(current solver, former solver, extra keyword arguments) for a cost model."""
    if kind == "unit":
        return [(pds_identical, reference_pds_unit, {})]
    pairs = [(pds_unrelated, reference_pds_unrelated, {"seed": seed})]
    if kind == "related":
        pairs.append((pds_related, reference_pds_related, {"seed": seed}))
    return pairs


def assert_matches_former(inst, remaining, available, epsilon, seed):
    for solver, reference, extra in _solver_pairs(inst.cost_model.kind, seed):
        expected = _outcome(
            lambda: reference(inst, remaining, epsilon, available=available, **extra)
        )
        actual = _outcome(
            lambda: solver(inst, remaining, epsilon, available=available, **extra)
        )
        assert actual == expected


@settings(max_examples=100, deadline=None)
@given(case=pds_cases())
def test_pds_matches_former_solvers(case):
    assert_matches_former(*case)


@pytest.mark.parametrize("model", ["unit", "related", "unrelated"])
def test_pds_matches_former_solvers_on_seeded_instances(model):
    for seed in range(6):
        inst = generate_instance(
            n=6 + seed, k=4 + seed % 3, m=2 + seed % 2, model=model,
            density=0.3 + 0.1 * (seed % 3), seed=40_000 + seed, max_cost=3,
        )
        if model == "related" and seed % 2:
            # equal speeds make one group of m machines; costs rising with the
            # index make the lift's largest-first order differ from index order
            rising = tuple(Fraction(10 + s, 10) for s in range(inst.k))
            inst = ProblemInstance(inst.n, inst.sets, inst.m, RelatedCosts(rising, (1,) * inst.m))
        remaining = frozenset(range(0, inst.n, 1 + seed % 2))
        assert_matches_former(inst, remaining, None, (0.1, 0.3)[seed % 2], seed)


@st.composite
def related_reduction_cases(draw):
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    base = st.builds(Fraction, st.integers(1, 3), st.integers(1, 2))
    # rational speeds; 1/50 and 1/1000 fall below kappa/m for most kappa
    speed = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)) | st.sampled_from(
        [Fraction(1, 50), Fraction(1, 1000)]
    )
    inst = ProblemInstance(
        n=3,
        sets=tuple(draw(st.sampled_from([(0,), (1, 2), (0, 1, 2)])) for _ in range(k)),
        m=m,
        cost_model=RelatedCosts(
            tuple(draw(base) for _ in range(k)), tuple(draw(speed) for _ in range(m))
        ),
    )
    kappa = draw(
        st.floats(0.1, 0.9).map(lambda eps: Fraction(related_parameters(eps)[1]))
        | st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))
    )
    return inst, kappa


@settings(max_examples=200, deadline=None)
@given(case=related_reduction_cases())
def test_reduce_related_matches_former_reduction(case):
    inst, kappa = case
    if kappa >= inst.m:
        # the fastest machine's relative speed 1 is at most kappa/m: all are slow
        with pytest.raises(NoCoverageError, match="all machines were discarded as slow"):
            reduce_related(inst, kappa)
        return
    reduction, aux = reduce_related(inst, kappa)
    former, former_aux = former_reduce_related(inst, kappa)
    assert reduction == former
    nonempty = [p for p, g in enumerate(former.groups) if g]
    assert aux.costs == tuple(tuple(row[p] for p in nonempty) for row in former_aux.costs)
    assert aux.sets == former_aux.sets


@settings(max_examples=200, deadline=None)
@given(case=related_reduction_cases())
def test_aux_costs_lie_within_one_plus_kappa_of_each_member_cost(case):
    # A set of base cost c costs c * s_max / s_j on machine j, in the ladder's
    # units; its aux machine's cost must be at least that and below (1 + kappa)
    # times it, for every machine j of the group, and no more than the least
    # such cost: the cost on the group's slowest machine.
    inst, kappa = case
    assume(kappa < inst.m)
    reduction, aux = reduce_related(inst, kappa)
    speeds = inst.cost_model.speeds
    s_max = max(speeds)
    for q, group in enumerate(g for g in reduction.groups if g):
        for c, row in zip(inst.cost_model.base_costs, aux.costs):
            for j in group:
                cost = c * s_max / speeds[j]
                assert cost <= row[q] < (1 + kappa) * cost
            assert row[q] == max(c * s_max / speeds[j] for j in group)


def _ladder_fits(table, base, unit, pool, usable, clamp):
    """Each guess ``_ladder`` makes, with the ``largest`` it hands its step."""
    seen = []

    def step(gi, guess, largest):
        seen.append((guess, largest))  # returns None, a repeat: nothing is yielded

    with pytest.raises(NoCoverageError, match="no budget guess produced"):
        list(_ladder(table, base, unit, pool, usable, clamp, step))
    return seen


@st.composite
def ladder_cases(draw):
    """A cost table, a ladder base, its grid's unit, a pool, its usable sets and
    the clamp flag: related auxiliary tables, also at a small kappa, on the
    related ladder's grid, or random unrelated ones on a multiple of their
    scale's grid."""
    if draw(st.booleans()):
        inst, kappa = draw(related_reduction_cases())
        kappa = draw(st.sampled_from([kappa, Fraction(related_parameters(0.05)[1])]))
        assume(kappa < inst.m)
        reduction, table = reduce_related(inst, kappa)
        base, unit = 1 + kappa, table.scale * math.lcm(*(len(g) for g in reduction.groups if g))
    else:
        k, m = draw(st.integers(1, 6)), draw(st.integers(1, 3))
        cost = st.just(INFINITE_COST) | st.builds(Fraction, st.integers(1, 20), st.integers(1, 10))
        matrix = tuple(tuple(draw(cost) for _ in range(m)) for _ in range(k))
        table = ProblemInstance(n=1, sets=((0,),) * k, m=m, cost_model=UnrelatedCosts(matrix))
        base = draw(st.sampled_from([Fraction(2), Fraction(3, 2), Fraction(1001, 1000)]))
        unit = table.scale * draw(st.integers(1, 3))
    pool = draw(st.frozensets(st.integers(0, table.k - 1), min_size=1))
    usable = sorted(draw(st.frozensets(st.sampled_from(sorted(pool)), min_size=1)))
    assume(any(table.finite_row_icosts[s] is not None for s in usable))
    return table, base, unit, pool, usable, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(case=ladder_cases())
def test_ladder_fits_every_guess_as_the_former_floor_rule(case):
    # the former rule: one bisect over the pool's ascending icosts per guess,
    # at floor(guess * scale) for the guess g / unit as a Fraction
    table, base, unit, pool, usable, clamp = case
    fitting = [c for c, s in table.icost_order if s in pool]
    seen = _ladder_fits(table, base, unit, pool, usable, clamp)
    assert [guess for guess, _ in seen] == list(_ladder_guesses(table, base, unit, usable))
    for guess, largest in seen:
        floor = scaled_floor(table.scale, Fraction(guess, unit))
        fit = bisect_right(fitting, floor) if clamp else len(fitting)
        assert largest == fitting[fit - 1]


def _counted_guesses(monkeypatch):
    """Wrap ``pds._ladder_guesses``; returns the list of every guess it makes."""
    made = []

    def counted(*args, _inner=pds_module._ladder_guesses):
        for guess in _inner(*args):
            made.append(guess)
            yield guess

    monkeypatch.setattr(pds_module, "_ladder_guesses", counted)
    return made


def _solve_report(tmp_path, capsys, doc, *argv):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["solve", "--instance", str(path), *argv]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"]
    return report


def test_identical_solve_at_epsilon_1e_5_keeps_its_report(tmp_path, capsys, monkeypatch):
    # Powers of the float-derived base 1 + delta once made 21,910 guesses over
    # this solve's two pds calls, with numerators growing at every step, and
    # took about 50 s; on the grid of whole costs the ladder is 1, 2, ..., 6.
    made = _counted_guesses(monkeypatch)
    doc = {
        "version": 1, "n": 3, "m": 2,
        "cost_model": {"kind": "identical", "base_costs": [1, 2]},
        "sets": [[0, 1], [2]],
    }
    report = _solve_report(
        tmp_path, capsys, doc, "--algo", "greedy-identical", "--epsilon", "1e-5", "--seed", "1"
    )
    assert report == {
        "algorithm": "greedy-identical",
        "cost": 5,
        "cover_times": [1, 1, 3],
        "iterations": 2,
        "parameters": {"algo": "greedy-identical", "epsilon": 1e-05, "seed": 1},
        "schedule": [[0, 1], []],
        "upper_bound": 5,
    }
    assert len(made) <= 10  # 3 over its two pds calls


def test_related_solve_at_epsilon_1e_2_keeps_its_report(tmp_path, capsys, monkeypatch):
    # Speeds 1/6, 6 and 1/50 give cost ratios 36, 1 and 300, three groups far
    # apart. Aux costs and guesses that were powers of 1 + kappa once made
    # 1,375 guesses over this solve, with denominators growing at every step;
    # the aux machines now cost the ratios themselves, at scale 1.
    made = _counted_guesses(monkeypatch)
    doc = {
        "version": 1, "n": 5, "m": 3,
        "cost_model": {
            "kind": "related", "base_costs": [1, 2, 3, 4], "speeds": [[1, 6], [6, 1], [1, 50]]
        },
        "sets": [[0, 1], [2], [3, 4], [1, 3]],
    }
    report = _solve_report(
        tmp_path, capsys, doc, "--algo", "greedy-related", "--epsilon", "0.01", "--seed", "1"
    )
    assert report == {
        "algorithm": "greedy-related",
        "cost": "8/3",
        "cover_times": ["1/6", "1/6", 1, "2/3", "2/3"],
        "iterations": 3,
        "parameters": {"algo": "greedy-related", "epsilon": 0.01, "seed": 1},
        "schedule": [[], [0, 2, 1], []],
        "upper_bound": "8/3",
    }
    assert len(made) <= 40  # 11 over its three pds calls


def test_related_solve_at_epsilon_1e_3_keeps_its_report(tmp_path, capsys):
    # The aux machines once cost powers of 1 + kappa, with an aux scale of
    # about 133,000 bits, and the solve made 2,054 guesses. They now cost the
    # speed ratios 1 and 3/2, so the ladder's grid is halves of a cost and the
    # solve makes 3 guesses, with the same report.
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "version": 1, "n": 3, "m": 2,
        "cost_model": {"kind": "related", "base_costs": [1, 1], "speeds": [[1, 1], [3, 2]]},
        "sets": [[0, 1], [2]],
    }), encoding="utf-8")
    argv = ["solve", "--instance", str(path), "--algo", "greedy-related", "--epsilon", "1e-3"]
    assert cli.main(argv + ["--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["wall_time_s"]
    assert report == {
        "algorithm": "greedy-related",
        "cost": "8/3",
        "cover_times": ["2/3", "2/3", "4/3"],
        "iterations": 2,
        "parameters": {"algo": "greedy-related", "epsilon": 0.001, "seed": 1},
        "schedule": [[], [0, 1]],
        "upper_bound": "8/3",
    }
