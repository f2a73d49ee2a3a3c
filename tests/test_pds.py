import math
from fractions import Fraction

import pytest

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
)
from pmssc.errors import InvariantError, NoCoverageError
from pmssc.fileio import generate_instance
import pmssc.pds as pds_module
from pmssc.maxcov import PARTIAL_ENUM3, MaxCovResult
from pmssc.oracle import exact_pds
from pmssc.pds import (
    BudgetLadder,
    pds_identical,
    pds_related,
    pds_unit,
    pds_unrelated,
    reduce_related,
    related_parameters,
)

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


def test_pds_unit_disjoint_sets_one_per_machine():
    inst = ProblemInstance(
        n=6, sets=((0, 1), (2, 3), (4, 5)), m=3, cost_model=UnitCosts()
    )
    asg = pds_unit(inst, frozenset(range(6)), 0.1)
    d = density(inst, asg, frozenset(range(6)))
    assert d.as_fraction() == 6  # all six elements in one unit slot


def test_pds_unit_t1_oracle_decided_value():
    # oracle: unit-cost T1 densities are A=2, B=1, C=3; the full set C wins
    inst = t1_instance(m=1, model="unit")
    _, opt = exact_pds(inst)
    assert opt.as_fraction() == 3
    asg = pds_unit(inst, frozenset(range(3)), 0.1)
    assert density(inst, asg, frozenset(range(3))).as_fraction() == 3


def test_pds_unit_balanced_split_cap():
    inst = ProblemInstance(
        n=8, sets=tuple((u,) for u in range(8)), m=3, cost_model=UnitCosts()
    )
    asg = pds_unit(inst, frozenset(range(8)), 0.1)
    chosen = sum(len(seq) for seq in asg.per_machine)
    cap = -(-chosen // 3)
    assert all(len(seq) <= cap for seq in asg.per_machine)


def test_pds_unit_empty_remaining_raises():
    inst = t1_instance(m=1, model="unit")
    with pytest.raises(NoCoverageError):
        pds_unit(inst, frozenset(), 0.1)


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


@pytest.mark.parametrize("solver", [pds_identical, pds_unit])
def test_over_budget_family_raises_invariant_error(solver, monkeypatch):
    # A max-coverage result that takes every candidate breaks the budget the
    # ladder analysis relies on; that must raise even under ``python -O``.
    def take_everything(universe, sets, costs, budget, mode=None):
        return MaxCovResult(tuple(range(len(sets))), sum(costs), 0)

    monkeypatch.setattr(pds_module, "budgeted_max_coverage", take_everything)
    inst = generate_instance(n=8, k=6, m=1, model="unit", density=0.4, seed=3)
    with pytest.raises(InvariantError):
        solver(inst, range(inst.n), 0.1)
