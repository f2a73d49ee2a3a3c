import math
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import t1_instance
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
)
from pmssc.errors import InvalidIndexError, InvariantError, NoCoverageError, NoIterationKeptError
from pmssc.fileio import generate_instance
import pmssc.pds as pds_module
from pmssc.maxcov import PARTIAL_ENUM_MAX_K, MaxCovResult, budgeted_max_coverage
from pmssc.oracle import exact_pds
from pmssc.pds import (
    RELATED_ROUNDING_CAP,
    RelatedReduction,
    _ladder_guesses,
    _pmc_ladder,
    identical_ladder_delta,
    pds_identical,
    pds_related,
    pds_unrelated,
    reduce_related,
    related_parameters,
)
from pmssc.pmc import FPT, POLY, PmcParams, pmc_solve
from pmssc.rng import child_seed
from pmssc.scheduler import pmssc_greedy

IDENTICAL_GUARANTEE = (math.e - 1) / (2 * math.e + 0.1 * (math.e - 1))


def test_budget_ladder_powers():
    # one machine: the cheapest cost is 1 and the costs sum to 10
    inst = ProblemInstance(n=1, sets=((0,), (0,)), m=1, cost_model=IdenticalCosts((1, 9)))
    assert tuple(_ladder_guesses(inst, Fraction(2), [0, 1])) == (1, 2, 4, 8, 16)
    # two machines, an infinite entry and a set outside the pool: the cheapest
    # finite cost is 1/3 and the pool's finite costs sum to 5
    inst = ProblemInstance(
        n=1,
        sets=((0,), (0,), (0,)),
        m=2,
        cost_model=UnrelatedCosts(
            ((Fraction(1, 3), INFINITE_COST), (2, Fraction(8, 3)), (Fraction(1, 9), 1))
        ),
    )
    base = Fraction(3, 2)
    guesses = tuple(_ladder_guesses(inst, base, [0, 1]))
    assert guesses[0] >= Fraction(1, 3) and guesses[0] / base < Fraction(1, 3)
    assert guesses[-1] <= base * 5 < guesses[-1] * base
    for a, b in zip(guesses, guesses[1:]):
        assert b == a * base
    all_infinite = ProblemInstance(
        n=1, sets=((0,),), m=2, cost_model=UnrelatedCosts(((INFINITE_COST,) * 2,))
    )
    with pytest.raises(NoCoverageError, match="no finite-cost set is available"):
        tuple(_ladder_guesses(all_infinite, base, [0]))


def test_ladder_makes_only_the_guesses_pulled():
    class CountingBase(Fraction):
        """A ladder base that counts the powers made from it (``power * base``)."""

        made = 0

        def __rmul__(self, other):
            CountingBase.made += 1
            return Fraction.__rmul__(self, other)

    # the cheapest cost is 1, so the first guess needs no multiplication; the
    # costs sum to 2**20, so the whole ladder would run up to 2**21
    inst = ProblemInstance(n=1, sets=((0,), (0,)), m=1, cost_model=IdenticalCosts((1, 2**20 - 1)))
    assert list(islice(_ladder_guesses(inst, CountingBase(2), [0, 1]), 2)) == [1, 2]
    assert CountingBase.made == 1


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
        assert inst.k <= PARTIAL_ENUM_MAX_K  # max coverage takes enum3
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
    # Speed 1/2 puts machine 1 in group p with (1 + kappa)^p >= 2, so base
    # cost 1 costs exactly ladder guess p there, and no other cost lies
    # between 1 and that guess: the table must change when a cost first
    # fits the guess by equality. Without the clamp every guess gets the
    # unclamped pool rows.
    inst = ProblemInstance(
        n=4,
        sets=((0,), (1,), (2, 3), (0, 1, 2, 3)),
        m=2,
        cost_model=RelatedCosts((1, 3, 1, 5), (1, Fraction(1, 2))),
    )
    _, kappa = related_parameters(0.2)
    reduction, aux = reduce_related(inst, Fraction(kappa))
    weights = [len(g) for g in reduction.groups if g]
    tables = []

    def spy(work, budgets, params, _inner=pmc_solve):
        tables.append((work.costs, budgets[0] / weights[0]))
        return _inner(work, budgets, params)

    def fit(guess):
        return sum(c <= guess for row in aux.costs for c in row)

    monkeypatch.setattr(pds_module, "pmc_solve", spy)
    params = PmcParams(mode=FPT, epsilon=kappa, mu=kappa, r_cap=RELATED_ROUNDING_CAP, seed=7)
    remaining = frozenset(range(4))
    for clamp in (True, False):
        tables.clear()
        list(_pmc_ladder(
            inst, remaining, range(4), aux, weights, 1 + Fraction(kappa), params, clamp=clamp
        ))
        assert len(tables) > 2
        for costs, guess in tables:
            assert costs == tuple(
                tuple(INFINITE_COST if clamp and c > guess else c for c in row)
                for row in aux.costs
            )
        assert any(c == guess for costs, guess in tables for row in costs for c in row)
        # consecutive guesses with one fit count share one table object
        pairs = [
            (costs, later) for (costs, guess), (later, after) in zip(tables, tables[1:])
            if not clamp or fit(guess) == fit(after)
        ]
        assert pairs and all(later is costs for costs, later in pairs)


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


def test_ladder_stops_at_the_first_full_cover_though_a_later_guess_is_denser(monkeypatch):
    inst = ProblemInstance(
        n=5, sets=((0, 4), (1, 2, 3)), m=3, cost_model=UnrelatedCosts(((4, 5, 1), (1, 4, 1)))
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
        inst, [2] * inst.m, PmcParams(mode=POLY, epsilon=0.2, seed=child_seed(20, 1))
    ).assignment
    assert later == Assignment(((0,), (), (1,)))
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
    assume(any(inst.members[s] & remaining for s in range(inst.k)))
    _, opt = exact_pds(inst, remaining)
    if inst.cost_model.kind == "identical":
        assert inst.k <= PARTIAL_ENUM_MAX_K  # max coverage takes enum3
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
    def take_everything(universe, sets, costs, budget, mode=None):
        return MaxCovResult(tuple(range(len(sets))), sum(costs), 0)

    monkeypatch.setattr(pds_module, "budgeted_max_coverage", take_everything)
    inst = generate_instance(n=8, k=6, m=1, model="unit", density=0.4, seed=3)
    with pytest.raises(InvariantError):
        solver(inst, range(inst.n), 0.1)


# -- differential test: the shared ladder against the former solvers
#
# Verbatim copies of the former ``pds_unit``, ``pds_related`` and
# ``pds_unrelated``, each with its own ladder loop and argmax. Each loop has
# one addition, the stop rule every ladder now follows: it breaks after the
# first guess whose assignment covers every coverable remaining element.


def _available_list(inst, available):
    return sorted(range(inst.k)) if available is None else sorted(available)


def _require_coverage(inst, remaining, pool):
    if not any(inst.members[s] & remaining for s in pool):
        raise NoCoverageError("no available set covers a remaining element")


def _coverable(inst, remaining, pool) -> int:
    """How many remaining elements the pool's sets with a finite cost hold."""
    finite = [s for s in pool if any(c != INFINITE_COST for c in inst.costs[s])]
    return len(remaining & frozenset().union(*(inst.members[s] for s in finite)))


def _check_best_density(inst, best, remaining) -> None:
    if density(inst, best[1], remaining) != best[0]:
        raise InvariantError("re-evaluated density differs from the kept value")


def reference_pds_unit(
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
    coverable = _coverable(inst, remaining, pool)
    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    ladder = _ladder_guesses(inst, base, pool)
    remaining_mask = element_mask(remaining)
    pool_masks = [inst.masks[s] for s in pool]
    ones = [Fraction(1)] * len(pool)

    best = None
    for guess in ladder:
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
        if d.covered == coverable:
            break
    if best is None:
        raise NoCoverageError("every budget guess produced an empty family")
    _check_best_density(inst, best, remaining)
    return best[1]


def former_reduce_related(inst: ProblemInstance, kappa):
    """The former reduction: an auxiliary machine for every power, empty or not."""
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
    ladder = _ladder_guesses(compact_probe, Fraction(1) + kappa_f, usable)

    best = None
    skipped = []
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
    ladder = _ladder_guesses(work, Fraction(2), usable)

    best = None
    skipped = []
    for gi, guess in enumerate(ladder):
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
