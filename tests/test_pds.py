import math
from fractions import Fraction
from typing import Iterable, Optional

import pytest
from hypothesis import given, settings
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
    density,
    element_mask,
)
from pmssc.errors import InvariantError, NoCoverageError, NoIterationKeptError
from pmssc.fileio import generate_instance
import pmssc.pds as pds_module
from pmssc.maxcov import PARTIAL_ENUM3, MaxCovResult, budgeted_max_coverage
from pmssc.oracle import exact_pds
from pmssc.pds import (
    RELATED_ROUNDING_CAP,
    BudgetLadder,
    _ladder_for,
    identical_ladder_delta,
    pds_identical,
    pds_related,
    pds_unrelated,
    reduce_related,
    related_parameters,
)
from pmssc.pmc import FPT, POLY, PmcParams, pmc_solve
from pmssc.rng import child_seed

IDENTICAL_GUARANTEE = (math.e - 1) / (2 * math.e + 0.1 * (math.e - 1))


def test_budget_ladder_powers():
    ladder = BudgetLadder(base=Fraction(2), lo=Fraction(1), hi=Fraction(10))
    assert ladder.guesses() == (1, 2, 4, 8, 16)
    ladder = BudgetLadder(base=Fraction(3, 2), lo=Fraction(1, 3), hi=Fraction(5))
    guesses = ladder.guesses()
    assert guesses[0] >= Fraction(1, 3) and guesses[0] / ladder.base < Fraction(1, 3)
    assert guesses[-1] <= ladder.base * 5
    for a, b in zip(guesses, guesses[1:]):
        assert b == a * ladder.base


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
        remaining = frozenset(range(inst.n))
        asg = pds_identical(inst, remaining, 0.1, maxcov_mode=PARTIAL_ENUM3)
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
    assert aux.m == len(red.groups)


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
    assert aux.cost(2, 2) == 4 * 2  # multiplier 4 times base cost 2


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
# ``pds_unrelated``, each with its own ladder loop and argmax.


def _available_list(inst, available):
    return sorted(range(inst.k)) if available is None else sorted(available)


def _require_coverage(inst, remaining, pool):
    if not any(inst.members[s] & remaining for s in pool):
        raise NoCoverageError("no available set covers a remaining element")


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
    base = Fraction(1) + Fraction(identical_ladder_delta(epsilon))
    ladder = _ladder_for(inst, base, pool)
    remaining_mask = element_mask(remaining)
    pool_masks = [inst.masks[s] for s in pool]
    ones = [Fraction(1)] * len(pool)

    best = None
    for guess in ladder.guesses():
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
    if best is None:
        raise NoCoverageError("every budget guess produced an empty family")
    _check_best_density(inst, best, remaining)
    return best[1]


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
    _, kappa = related_parameters(epsilon)
    kappa_f = Fraction(kappa)
    reduction, aux_full = reduce_related(inst, kappa_f)

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
    ladder = _ladder_for(compact_probe, Fraction(1) + kappa_f, usable)

    best = None
    skipped = []
    for gi, guess in enumerate(ladder.guesses()):
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
    ladder = _ladder_for(work, Fraction(2), usable)

    best = None
    skipped = []
    for gi, guess in enumerate(ladder.guesses()):
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
