import math
from fractions import Fraction

import pytest

from conftest import fig1_optimum, t1_instance
from pmssc.core import (
    Assignment,
    IdenticalCosts,
    ProblemInstance,
    UnitCosts,
    evaluate_schedule_cost,
)
from pmssc.errors import StalledOracleError, UncoverableError
from pmssc.fileio import generate_instance
from pmssc.maxcov import PARTIAL_ENUM_MAX_K
from pmssc.oracle import exact_pmssc
from pmssc.scheduler import pmssc_greedy, upper_bound_from_trace

END_TO_END_BOUND = (8 * math.e + 0.4 * (math.e - 1)) / (math.e - 1)  # 4 / guarantee


def test_t1_exact_oracle_schedule():
    inst = t1_instance(m=1)
    sched, trace = pmssc_greedy(inst, oracle="exact")
    cost, _ = evaluate_schedule_cost(inst, sched)
    assert cost == 4
    assert sched.per_machine == ((0, 1),)
    # trace: first iteration removes {a, b} (density 2), second covers c
    assert [it.remaining_before for it in trace.iterations] == [3, 1]
    assert upper_bound_from_trace(trace) == 3 * 1 + 1 * 1 == 4


def test_single_covering_set_single_iteration():
    inst = ProblemInstance(
        n=6, sets=((0, 1, 2, 3, 4, 5),), m=2, cost_model=IdenticalCosts((Fraction(3),))
    )
    sched, trace = pmssc_greedy(inst, oracle="identical", epsilon=0.1)
    cost, _ = evaluate_schedule_cost(inst, sched)
    assert len(trace.iterations) == 1
    assert cost == 3 * 6


def test_upper_bound_single_iteration_shape():
    inst = ProblemInstance(
        n=6, sets=((0, 1, 2, 3, 4, 5),), m=1, cost_model=IdenticalCosts((Fraction(3),))
    )
    _, trace = pmssc_greedy(inst, oracle="exact")
    assert upper_bound_from_trace(trace) == 6 * 3


def test_fig1_identical_ratio(fig1):
    _, opt = fig1_optimum()
    assert opt == 75  # frozen from the branch-and-bound oracle
    assert fig1.k <= PARTIAL_ENUM_MAX_K  # max coverage takes enum3
    sched, trace = pmssc_greedy(fig1, oracle="identical", epsilon=0.1)
    cost, _ = evaluate_schedule_cost(fig1, sched)
    assert cost <= END_TO_END_BOUND * opt
    assert cost >= opt
    assert evaluate_schedule_cost(fig1, sched)[0] <= upper_bound_from_trace(trace)


def test_progress_and_dominance_properties():
    for seed in range(25):
        inst = generate_instance(
            n=3 + seed % 6, k=2 + seed % 5, m=1 + seed % 2,
            model="identical", density=0.35, seed=1000 + seed, max_cost=3,
        )
        sched, trace = pmssc_greedy(inst, oracle="identical", epsilon=0.1)
        cost, _ = evaluate_schedule_cost(inst, sched)
        assert len(trace.iterations) <= inst.n
        assert all(it.newly_covered for it in trace.iterations)
        remaining = [it.remaining_before for it in trace.iterations]
        newly = [len(it.newly_covered) for it in trace.iterations]
        for i in range(1, len(remaining)):
            assert remaining[i] == remaining[i - 1] - newly[i - 1]
        assert cost <= upper_bound_from_trace(trace)


def test_exact_oracle_four_approximation_sample():
    for seed in range(20):
        inst = generate_instance(
            n=3 + seed % 5, k=2 + seed % 4, m=1 + seed % 2,
            model="identical", density=0.4, seed=2000 + seed, max_cost=3,
        )
        sched, _ = pmssc_greedy(inst, oracle="exact")
        cost, _ = evaluate_schedule_cost(inst, sched)
        _, opt = exact_pmssc(inst)
        assert cost <= 4 * opt


def test_uncoverable_rejected():
    inst = ProblemInstance(n=2, sets=((0,),), m=1, cost_model=UnitCosts())
    with pytest.raises(UncoverableError):
        pmssc_greedy(inst, oracle="identical")


def test_stalled_oracle_detected():
    inst = t1_instance(m=1)

    def stalling_oracle(remaining, available, iteration):
        return Assignment(((0,),))  # always set A: never covers element c

    with pytest.raises(StalledOracleError):
        pmssc_greedy(inst, oracle=stalling_oracle)


def test_related_and_unrelated_oracles_run():
    rel = t1_instance(m=2, model="related", speeds=(2, 1))
    sched, _ = pmssc_greedy(rel, oracle="related", epsilon=0.2, seed=4)
    cost, _ = evaluate_schedule_cost(rel, sched)
    _, opt = exact_pmssc(rel)
    assert cost >= opt
    assert cost <= END_TO_END_BOUND * opt

    unr = generate_instance(n=6, k=5, m=2, model="unrelated", density=0.4, seed=77)
    sched, _ = pmssc_greedy(unr, oracle="unrelated", epsilon=0.2, seed=4)
    cost, _ = evaluate_schedule_cost(unr, sched)
    _, opt = exact_pmssc(unr)
    assert cost >= opt


def test_unit_oracle_runs():
    inst = t1_instance(m=1, model="unit")
    sched, trace = pmssc_greedy(inst, oracle="unit", epsilon=0.1)
    cost, _ = evaluate_schedule_cost(inst, sched)
    _, opt = exact_pmssc(inst)
    assert cost <= 4 / ((math.e - 1) / (math.e + 0.1 * (math.e - 1))) * opt
