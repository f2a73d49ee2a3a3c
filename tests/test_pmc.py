import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import t1_instance
from pmssc.core import (
    Assignment,
    IdenticalCosts,
    INFINITE_COST,
    ProblemInstance,
    UnrelatedCosts,
    as_fraction,
    element_mask,
)
from pmssc.bounds import chernoff_upper
from pmssc.errors import DomainError, NoIterationKeptError
from pmssc.fileio import generate_instance
import pmssc.lp as lp_module
from pmssc.lp import OPTIMAL, LinearProgram, LpSolution, solve_lp
from pmssc import pmc
from pmssc.pmc import (
    FPT,
    POLY,
    PmcParams,
    PmcRelaxation,
    PmcResult,
    concentration_repetitions,
    fpt_repetitions,
    pmc_solve,
    poly_delta,
    raw_draws,
    round_pmc,
)
from pmssc.rng import stream
from pmssc.scheduler import pmssc_greedy

U3 = frozenset(range(3))


def test_lp_dimensions_t1():
    inst = t1_instance(m=1)
    lp = PmcRelaxation(inst).at([2])
    assert len(lp.objective) == 3 + 3  # three x vars, three excess vars
    assert len(lp.constraints) == 3 + 1  # coverage rows plus one budget row


def test_lp_dimensions_single_set_two_machines():
    inst = ProblemInstance(
        n=1, sets=((0,),), m=2, cost_model=IdenticalCosts((Fraction(1),))
    )
    lp = PmcRelaxation(inst).at([1, 1])
    assert len(lp.objective) == 2 + 1
    assert len(lp.constraints) == 1 + 2


def test_lp_dimensions_with_an_element_no_set_holds():
    # element 1 has no coverage row and no excess variable: rows = held + m
    inst = ProblemInstance(
        n=3, sets=((0,), (2,)), m=2, cost_model=IdenticalCosts((Fraction(1), Fraction(2)))
    )
    relaxation = PmcRelaxation(inst)
    lp = relaxation.at([1, 1])
    assert relaxation.held == [0, 2]
    assert len(lp.objective) == 2 * 2 + 2
    assert len(lp.constraints) == 2 + 2
    assert lp.objective[4:] == (-1, -1)
    assert [coeffs[:4] for coeffs, _, _ in lp.constraints[:2]] == [(1, 1, 0, 0), (0, 0, 1, 1)]


def test_infinite_cost_pair_frozen_to_zero():
    inst = ProblemInstance(
        n=2,
        sets=((0,), (1,)),
        m=2,
        cost_model=UnrelatedCosts(
            ((Fraction(1), INFINITE_COST), (INFINITE_COST, Fraction(1)))
        ),
    )
    lp = PmcRelaxation(inst).at([1, 1])
    # x_{0,1} and x_{1,0} are pinned to zero
    assert lp.bounds[0 * 2 + 1] == (Fraction(0), Fraction(0))
    assert lp.bounds[1 * 2 + 0] == (Fraction(0), Fraction(0))
    result = pmc_solve(PmcRelaxation(inst), [1, 1], PmcParams(mode=POLY, epsilon=0.2, seed=1))
    assert result.covered == 2
    assert result.assignment.per_machine == ((0,), (1,))


def test_integral_lp_rounds_exactly():
    inst = t1_instance(m=1)
    lp = PmcRelaxation(inst).at([2])
    sol = solve_lp(lp, verify=True)
    result = round_pmc(inst, [2], sol, PmcParams(mode=POLY, epsilon=0.2, seed=0))
    # the relaxation optimum is integral here, so every iteration reproduces it
    assert result.covered == 3
    assert result.iterations_kept == result.attempts
    assert float(sol.objective_value) == 3


def test_t1_poly_covered_three_across_seeds():
    inst = t1_instance(m=1)
    hits = 0
    for seed in range(100):
        result = pmc_solve(PmcRelaxation(inst), [2], PmcParams(mode=POLY, epsilon=0.2, seed=seed))
        hits += result.covered == 3
    assert hits >= 99


def test_t1_two_machines_budget_one_each():
    inst = t1_instance(m=2)
    result = pmc_solve(PmcRelaxation(inst), [1, 1], PmcParams(mode=POLY, epsilon=0.2, seed=7))
    assert result.covered == 3


def test_zero_budgets_give_empty_result():
    inst = t1_instance(m=2)
    result = pmc_solve(PmcRelaxation(inst), [0, 0], PmcParams(mode=POLY, epsilon=0.2, seed=0))
    assert result.assignment.is_empty
    assert result.covered == 0 and result.iterations_kept == 0


def test_poly_delta_m100():
    assert abs(poly_delta(100) - 4 * math.log(100) / math.log(math.log(100))) < 1e-12
    assert abs(poly_delta(100) - 12.0619) < 1e-3


def test_poly_delta_clamped_for_small_m():
    for m in (1, 2, 5, 15):
        assert poly_delta(m) == poly_delta(16)
    assert poly_delta(16) >= 1.0


def test_fpt_term_m3_mu1():
    f = chernoff_upper(1.0, 1.0)  # f(mu) = e^mu / (1 + mu)^(1 + mu) at mu = 1
    assert abs(f - math.e / 4) < 1e-12
    term = math.log(3) / (-math.log(1 - (1 - math.e / 4) ** 3))
    assert math.ceil(term) == 33
    r = fpt_repetitions(3, 1.0, 8, 0.2)
    expected = max(
        math.ceil((2 - 2 / math.e) / 0.2**2 * math.log(8)), math.ceil(term)
    )
    assert r == expected


def test_fpt_repetitions_monotone_in_mu():
    values = [fpt_repetitions(4, mu, 16, 0.3) for mu in (0.08, 0.15, 0.3, 0.6, 1.0, 2.0)]
    for earlier, later in zip(values, values[1:]):
        assert later <= earlier


def test_default_attempts_cap():
    params = PmcParams(mode=FPT, epsilon=0.3, mu=0.01, seed=0)
    r1 = concentration_repetitions(16, 0.3)
    assert params.attempts(4, 16) == 10 * r1  # formula R is astronomically larger


def test_hard_budget_constraint_always_holds():
    for seed in range(30):
        inst = generate_instance(
            n=4 + seed % 5,
            k=3 + seed % 6,
            m=1 + seed % 3,
            model="unrelated" if seed % 2 else "identical",
            density=0.4,
            seed=700 + seed,
        )
        budgets = [Fraction(2 + (seed + j) % 3) for j in range(inst.m)]
        params = PmcParams(mode=POLY, epsilon=0.2, seed=seed)
        result = pmc_solve(PmcRelaxation(inst), budgets, params)
        delta = Fraction(params.delta(inst.m))
        for j in range(inst.m):
            assert result.per_machine_cost[j] <= (1 + delta) * budgets[j]


def test_rounding_unbiasedness():
    """Raw per-pair inclusion frequency matches x within 3 sigma."""
    probs = [0.15, 0.5, 0.85, 0.0, 1.0, 0.3]
    trials = 100_000
    freq = raw_draws(stream(123), trials, probs).mean(axis=0)
    for p, f in zip(probs, freq):
        tol = 3 * math.sqrt(p * (1 - p) / trials)
        assert abs(f - p) <= tol + 1e-12


def test_coverage_expectation_lemma():
    """Mean single-iteration coverage is at least (1 - 1/e) * LP objective."""
    inst = generate_instance(n=8, k=6, m=2, model="identical", density=0.4, seed=31)
    budgets = [Fraction(2), Fraction(2)]
    sol = solve_lp(PmcRelaxation(inst).at(budgets), verify=True)
    probs = [min(1.0, max(0.0, float(v))) for v in sol.values[: inst.k * inst.m]]
    trials = 10_000
    placed = raw_draws(stream(9), trials, probs).reshape(trials, inst.k, inst.m).any(axis=2)
    covered = np.array(
        [
            len(set().union(*(frozenset(inst.sets[s]) for s in np.flatnonzero(row))))
            for row in placed
        ]
    )
    mean = covered.mean()
    slack = 3 * covered.std() / math.sqrt(trials)
    assert mean >= (1 - 1 / math.e) * float(sol.objective_value) - slack


def test_draw_rows_replay_alone():
    # k*m = 7 pads to 8 doubles per row, i.e. 2 Philox blocks
    probs = [0.1, 0.3, 0.5, 0.7, 0.9, 0.4, 0.6]
    draws = raw_draws(stream(5), 10, probs)
    assert draws.shape == (10, 7)
    for r in range(10):
        gen = stream(5)
        gen.bit_generator.advance(r * 8 // 4)
        assert (draws[r] == (gen.random(8)[:7] < probs)).all()


def test_no_iteration_kept_reported():
    inst = ProblemInstance(
        n=1, sets=((0,), (0,)), m=1, cost_model=IdenticalCosts((2, 2))
    )
    fake = LpSolution((0.5, 0.5, 1.0), 1.0, OPTIMAL)
    params = PmcParams(mode=FPT, epsilon=0.2, mu=0.001, r_cap=1, seed=9)
    with pytest.raises(NoIterationKeptError) as err:
        round_pmc(inst, [2], fake, params)
    assert err.value.attempts == 1


@pytest.mark.parametrize("fields", [
    dict(mode=FPT, mu=math.inf),
    dict(mode=FPT, mu=math.nan),
    dict(mode=FPT, mu=0.0),
    dict(mode=POLY, mu=-1.0),
    dict(mode=POLY, r_cap=0),
    dict(mode=FPT, mu=0.5, r_cap=-3),
])
def test_params_reject_values_outside_their_domain(fields):
    with pytest.raises(DomainError):
        PmcParams(epsilon=0.2, **fields)


def test_one_relaxation_solves_cold_once_and_each_program_is_a_fresh_build(monkeypatch):
    # Solves on one relaxation start warm from its last optimum, so only the
    # first LP starts cold; every program still equals a fresh build's.
    inst = generate_instance(n=9, k=5, m=2, model="unrelated", density=0.4, seed=8)
    params = PmcParams(mode=POLY, epsilon=0.2, seed=3)
    relaxation = PmcRelaxation(inst)
    cold, programs = [], []

    def cold_start(*args, _inner=lp_module._cold_start):
        cold.append(1)
        return _inner(*args)

    def spy_lp(lp, *args, _inner=pmc.solve_lp, **kwargs):
        programs.append(lp)
        return _inner(lp, *args, **kwargs)

    monkeypatch.setattr(lp_module, "_cold_start", cold_start)
    monkeypatch.setattr(pmc, "solve_lp", spy_lp)
    for g in (1, 2, 5):
        pmc_solve(relaxation, [g, g], params)
    assert len(cold) == 1
    assert programs == [PmcRelaxation(inst).at([g, g]) for g in (1, 2, 5)]
    with pytest.raises(ValueError):
        relaxation.at([1])
    with pytest.raises(DomainError):
        relaxation.at([1, -1])


def test_determinism_same_seed():
    inst = generate_instance(n=7, k=6, m=2, model="identical", density=0.4, seed=55)
    params = PmcParams(mode=POLY, epsilon=0.2, seed=99)
    a = pmc_solve(PmcRelaxation(inst), [2, 3], params)
    b = pmc_solve(PmcRelaxation(inst), [2, 3], params)
    assert a == b


def test_lp_dump_debug_flag(tmp_path, monkeypatch):
    dump = tmp_path / "relaxation.lp"
    monkeypatch.setenv("PMSSC_DUMP_LP", str(dump))
    inst = t1_instance(m=1)
    pmc_solve(PmcRelaxation(inst), [2], PmcParams(mode=POLY, epsilon=0.2, seed=0))
    text = dump.read_text()
    assert "Maximize" in text and "Subject To" in text


# -- the excess-cover relaxation against the former y-form one, and rows only
# for held elements against a row for every element


def former_program(inst, budgets):
    """The former ``PmcRelaxation(inst).at(budgets)``: maximize sum y_u subject
    to coverage rows y_u - sum_{s ni u, j} x_{s,j} <= 0, 0 <= y <= 1 and the
    same budget rows, variables x then y."""
    k, m, n = inst.k, inst.m, inst.n
    nx = k * m
    inorms = [
        max(inst.scale, sum(row[j] for row in inst.icosts if row[j] is not INFINITE_COST))
        for j in range(m)
    ]
    cover = [[0] * (nx + n) for _ in range(n)]
    for s, members in enumerate(inst.sets):
        for u in members:
            cover[u][s * m : (s + 1) * m] = (-1,) * m
    constraints = []
    for u, coeffs in enumerate(cover):
        coeffs[nx + u] = 1
        constraints.append((tuple(coeffs), "<=", 0))
    for j in range(m):
        coeffs = [0] * (nx + n)
        for s, row in enumerate(inst.icosts):
            if row[j] is not INFINITE_COST:
                coeffs[s * m + j] = Fraction(row[j], inorms[j])
        budget = min(as_fraction(budgets[j]) / Fraction(inorms[j], inst.scale), Fraction(1))
        constraints.append((tuple(coeffs), "<=", budget))
    objective = (0,) * nx + (1,) * n
    bounds = [(0, 1) if c is not INFINITE_COST else (0, 0) for row in inst.icosts for c in row]
    return LinearProgram(objective, tuple(constraints), tuple(bounds + [(0, 1)] * n))


@st.composite
def relaxation_cases(draw):
    """A small unrelated instance, as a ladder's work table may hold it (empty
    sets, closed rows of infinite costs), and a budget per machine."""
    n, k, m = draw(st.integers(1, 8)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    sets = tuple(
        tuple(sorted(draw(st.frozensets(st.integers(0, n - 1), max_size=n)))) for _ in range(k)
    )
    cost = st.one_of(st.integers(1, 4), st.just(INFINITE_COST))
    costs = tuple(tuple(draw(cost) for _ in range(m)) for _ in range(k))
    budget = st.builds(Fraction, st.integers(0, 12), st.integers(1, 3))
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=UnrelatedCosts(costs))
    return inst, [draw(budget) for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(case=relaxation_cases())
def test_excess_form_keeps_the_former_optimum_and_its_x_is_former_optimal(case):
    inst, budgets = case
    former = former_program(inst, budgets)
    expected = solve_lp(former, verify=True)
    sol = solve_lp(PmcRelaxation(inst).at(budgets), verify=True)
    assert expected.status == sol.status == OPTIMAL
    assert sol.objective_value == expected.objective_value
    # x with y_u = min(1, sum x over u's sets) is exactly feasible in the
    # former program and reaches its optimum
    m, nx = inst.m, inst.k * inst.m
    x = sol.values[:nx]
    y = [
        min(Fraction(1), sum((x[s * m + j] for s in range(inst.k) if u in inst.sets[s]
                              for j in range(m)), Fraction(0)))
        for u in range(inst.n)
    ]
    values = list(x) + y
    for v, (lo, hi) in zip(values, former.bounds):
        assert lo <= v <= hi
    for coeffs, _, rhs in former.constraints:
        lhs = sum((as_fraction(a) * v for a, v in zip(coeffs, values)), Fraction(0))
        assert lhs <= rhs
    assert sum(y) == expected.objective_value


def full_row_program(inst, budgets):
    """The former ``PmcRelaxation(inst).at(budgets)``, with a coverage row and
    an e_u for every element, held or not: variables x then e_0 .. e_{n-1}."""
    k, m, n = inst.k, inst.m, inst.n
    nx = k * m
    inorms = [
        max(inst.scale, sum(row[j] for row in inst.icosts if row[j] is not INFINITE_COST))
        for j in range(m)
    ]
    cover = [[0] * (nx + n) for _ in range(n)]
    for s, members in enumerate(inst.sets):
        for u in members:
            cover[u][s * m : (s + 1) * m] = (1,) * m
    constraints = []
    for u, coeffs in enumerate(cover):
        coeffs[nx + u] = -1
        constraints.append((tuple(coeffs), "<=", 1))
    for j in range(m):
        coeffs = [0] * (nx + n)
        for s, row in enumerate(inst.icosts):
            if row[j] is not INFINITE_COST:
                coeffs[s * m + j] = Fraction(row[j], inorms[j])
        budget = min(as_fraction(budgets[j]) / Fraction(inorms[j], inst.scale), Fraction(1))
        constraints.append((tuple(coeffs), "<=", budget))
    objective = tuple(len(members) for members in inst.sets for _ in range(m)) + (-1,) * n
    bounds = [(0, 1) if c is not INFINITE_COST else (0, 0) for row in inst.icosts for c in row]
    return LinearProgram(objective, tuple(constraints), tuple(bounds + [(0, math.inf)] * n))


@st.composite
def held_row_cases(draw):
    """A small unrelated instance in which at least one element no set holds,
    or a ladder's work instance of it: its sets restricted to a random
    remaining subset. A budget per machine."""
    n, k, m = draw(st.integers(2, 9)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    unheld = draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    members = [draw(st.frozensets(st.integers(0, n - 1), max_size=n)) - unheld for _ in range(k)]
    if draw(st.booleans()):
        remaining = draw(st.frozensets(st.integers(0, n - 1)))
        members = [s & remaining for s in members]
    cost = st.one_of(st.integers(1, 4), st.just(INFINITE_COST))
    costs = tuple(tuple(draw(cost) for _ in range(m)) for _ in range(k))
    budget = st.builds(Fraction, st.integers(0, 12), st.integers(1, 3))
    sets = tuple(tuple(sorted(s)) for s in members)
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=UnrelatedCosts(costs))
    return inst, [draw(budget) for _ in range(m)]


@settings(max_examples=200, deadline=None)
@given(case=held_row_cases())
def test_rows_only_for_held_elements_keep_the_full_row_optimum(case):
    inst, budgets = case
    full = full_row_program(inst, budgets)
    expected = solve_lp(full, verify=True)
    relaxation = PmcRelaxation(inst)
    held = sorted(set().union(*inst.sets))
    assert relaxation.held == held and len(held) < inst.n
    program = relaxation.at(budgets)
    assert len(program.constraints) == len(held) + inst.m
    assert len(program.objective) == inst.k * inst.m + len(held)
    sol = solve_lp(program, verify=True)
    assert expected.status == sol.status == OPTIMAL
    assert sol.objective_value == expected.objective_value
    # x with e_u = max(0, X_u - 1) for every element is exactly feasible in
    # the full-row program and reaches its optimum
    m, nx = inst.m, inst.k * inst.m
    x = sol.values[:nx]
    excess = [
        max(Fraction(0), sum((x[s * m + j] for s in range(inst.k) if u in inst.sets[s]
                              for j in range(m)), Fraction(0)) - 1)
        for u in range(inst.n)
    ]
    values = list(x) + excess
    for v, (lo, hi) in zip(values, full.bounds):
        assert lo <= v <= hi
    for coeffs, _, rhs in full.constraints:
        lhs = sum((as_fraction(a) * v for a, v in zip(coeffs, values)), Fraction(0))
        assert lhs <= rhs
    objective = sum((as_fraction(c) * v for c, v in zip(full.objective, values)), Fraction(0))
    assert objective == expected.objective_value


def test_greedy_unrelated_on_the_former_cliff_instance_stays_under_10000_pivots(count_pivots):
    # The former y-form relaxation, whose degenerate rhs-0 coverage rows sent
    # every cold solve through phase 1, took 133,872 pivots (148 s) on this
    # solve; the excess form with a full row per element took 788 primal and
    # 1,615 dual ones. Pivots are counted, not seconds, so the test is not
    # timing-flaky.
    inst = generate_instance(n=160, k=40, m=4, model="unrelated", density=0.1, seed=2)
    pmssc_greedy(inst, oracle="unrelated", epsilon=0.2, seed=1)
    assert count_pivots["primal"] + count_pivots["dual"] <= 10_000
    assert count_pivots["basis"] == 0  # no exact re-solve on this path


def test_greedy_unrelated_at_bench_size_takes_fewer_dual_pivots(count_pivots):
    # With a full coverage row per element and the most negative row leaving,
    # this solve's warm starts took 219 dual pivots (and its solves 112 primal
    # ones); rows only for held elements and dual steepest edge take 154.
    inst = generate_instance(n=80, k=24, m=4, model="unrelated", density=0.12, seed=1)
    pmssc_greedy(inst, oracle="unrelated", epsilon=0.1, seed=1)
    assert 0 < count_pivots["dual"] < 219


def test_greedy_unrelated_at_epsilon_1e_4_stops_each_rounding_at_its_ceiling():
    # Each rounding call plans 138,891,083 attempts here; drawing them all took
    # more than 25 s. Each LP support covers all three elements, which an
    # iteration of the first block (2,048 draws of 4 pairs) reaches. Rows are
    # counted, not seconds, so the test is not timing-flaky.
    inst = ProblemInstance(3, ((0, 1), (2,)), 2, UnrelatedCosts(((2, 2), (1, 1))))
    assert PmcParams(mode=POLY, epsilon=1e-4).attempts(2, 3) == 138_891_083
    with mock.patch.object(pmc, "raw_draws", wraps=pmc.raw_draws) as draws:
        pmssc_greedy(inst, oracle="unrelated", epsilon=1e-4, seed=1)
    assert [call.args[1] for call in draws.call_args_list] == [512, 512]


# -- differential test: vectorised rounding against the former per-iteration loop


def reference_round_pmc(inst, budgets, lp_solution, params, draws):
    """The former rounding loop: iteration r reads row r of ``draws`` and sums
    exact ``Fraction`` loads; coverage is an int-bitmask union."""
    k, m = inst.k, inst.m
    budgets = [as_fraction(b) for b in budgets]
    delta = params.delta(m)
    limit = [(1 + Fraction(delta)) * b for b in budgets]
    costs = [[inst.cost(s, j) for j in range(m)] for s in range(k)]
    masks = [element_mask(frozenset(inst.sets[s])) for s in range(k)]

    attempts = params.attempts(m, inst.n)
    best = None  # (covered, iteration, per-machine tuple of set lists)
    kept = 0
    for r in range(attempts):
        drawn = draws[r]
        per_machine = [[] for _ in range(m)]
        loads = [Fraction(0)] * m
        for s in range(k):
            for j in range(m):
                if drawn[s * m + j]:
                    per_machine[j].append(s)
                    loads[j] += costs[s][j]
                    break  # a duplicate draw keeps only the lowest machine
        if any(loads[j] > limit[j] for j in range(m)):
            continue
        kept += 1
        union = 0
        for j in range(m):
            for s in per_machine[j]:
                union |= masks[s]
        covered = union.bit_count()
        if best is None or covered > best[0]:
            best = (covered, r, tuple(tuple(seq) for seq in per_machine))
    if best is None:
        raise NoIterationKeptError(attempts)
    assignment = Assignment(best[2])
    per_cost = tuple(
        sum((costs[s][j] for s in seq), Fraction(0))
        for j, seq in enumerate(assignment.per_machine)
    )
    return PmcResult(
        assignment=assignment,
        per_machine_cost=per_cost,
        covered=best[0],
        lp_objective=float(lp_solution.objective_value),
        iterations_kept=kept,
        attempts=attempts,
    )


def _outcome(solve):
    try:
        return solve()
    except NoIterationKeptError as err:
        return ("no iteration kept", err.attempts)


def _ceiling(inst, probs):
    """Elements of the sets that have a pair with x > 0: no draw covers more."""
    support = [s for s in range(inst.k) if any(probs[s * inst.m : (s + 1) * inst.m])]
    return len(set().union(*(inst.sets[s] for s in support)))


def assert_same_rounding(inst, budgets, solution, params):
    """round_pmc reaches the reference loop's outcome over all planned
    attempts. Only ``iterations_kept`` differs: it is the reference's kept
    count over the first ``attempts_run`` rows, the iterations that ran, and
    they stop short of ``attempts`` only at the coverage ceiling."""
    probs = [min(1.0, max(0.0, float(v))) for v in solution.values[: inst.k * inst.m]]
    draws = raw_draws(stream(params.seed), params.attempts(inst.m, inst.n), probs)
    expected = _outcome(lambda: reference_round_pmc(inst, budgets, solution, params, draws))
    actual = _outcome(lambda: round_pmc(inst, budgets, solution, params))
    if isinstance(expected, tuple) or isinstance(actual, tuple):
        assert actual == expected
        return actual
    assert replace(actual, iterations_kept=expected.iterations_kept) == expected
    assert 0 < actual.attempts_run <= actual.attempts
    ran = replace(params, r_cap=actual.attempts_run)
    assert actual.iterations_kept == reference_round_pmc(
        inst, budgets, solution, ran, draws
    ).iterations_kept
    if actual.attempts_run < actual.attempts:
        assert actual.covered == _ceiling(inst, probs)
    return actual


@st.composite
def rounding_cases(draw, prob=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-0.01, 1.01))):
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    element = st.integers(0, n - 1)
    sets = tuple(tuple(sorted(draw(st.frozensets(element, max_size=n)))) for _ in range(k))
    cost = st.one_of(
        st.just(INFINITE_COST),
        st.builds(Fraction, st.integers(1, 20), st.integers(1, 10)),
    )
    matrix = tuple(tuple(draw(cost) for _ in range(m)) for _ in range(k))
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=UnrelatedCosts(matrix))
    # LP values may stray just outside [0, 1]; infinite pairs are pinned to 0
    probs = [
        0.0 if matrix[s][j] == INFINITE_COST else draw(prob)
        for s in range(k)
        for j in range(m)
    ]
    solution = LpSolution(tuple(probs) + (0.0,) * n, 1.0, OPTIMAL)
    mode = draw(st.sampled_from([POLY, FPT]))
    params = PmcParams(
        mode=mode,
        epsilon=draw(st.sampled_from([0.2, 0.5])),
        mu=draw(st.sampled_from([0.001, 0.3, 1.0])) if mode == FPT else None,
        r_cap=draw(st.sampled_from([None, 1, 5])),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    # Each limit (1 + delta) * B_j is the load of some placement on machine j,
    # exactly or nudged below float resolution, so float loads meet the limit.
    delta = Fraction(params.delta(m))
    budgets = []
    for j in range(m):
        finite = [row[j] for row in matrix if row[j] != INFINITE_COST]
        chosen = draw(st.lists(st.booleans(), min_size=len(finite), max_size=len(finite)))
        load = sum((c for c, take in zip(finite, chosen) if take), Fraction(0))
        nudge = draw(st.sampled_from([0, 1, -1])) * Fraction(1, 10**18)
        budgets.append(max(Fraction(0), load / (1 + delta) + nudge))
    return inst, budgets, solution, params


@settings(max_examples=400, deadline=None)
@given(case=rounding_cases())
def test_round_pmc_matches_reference_loop(case):
    assert_same_rounding(*case)


def test_round_pmc_matches_reference_when_nothing_is_kept():
    # tiny mu: two certain draws of cost 2 always break the 1.001 * 2 limit
    inst = ProblemInstance(n=2, sets=((0, 1), (0, 1)), m=1, cost_model=IdenticalCosts((2, 2)))
    solution = LpSolution((1.0, 1.0, 1.0, 1.0), 2.0, OPTIMAL)
    params = PmcParams(mode=FPT, epsilon=0.2, mu=0.001, seed=3)
    outcome = assert_same_rounding(inst, [2], solution, params)
    assert outcome == ("no iteration kept", params.attempts(1, 2))
    assert params.attempts(1, 2) > 1


OUTSIDE_FLOAT_RANGE = [
    # past the float range: a float load would overflow to inf
    (Fraction(10**400), Fraction(10**400) + 1),
    (Fraction(10**400), Fraction(10**400)),
    # below it: a float cost would underflow to 0.0
    (Fraction(1, 10**400), Fraction(2, 10**400)),
    (Fraction(1, 10**400), Fraction(1, 10**400)),
]


def _assert_same_rounding_outside_float_range(cost, budget, x, r_cap):
    inst = ProblemInstance(
        n=2, sets=((0,), (1,)), m=1, cost_model=UnrelatedCosts(((cost,), (Fraction(1, 10**400),)))
    )
    solution = LpSolution((x, x, 0.0, 0.0), 2.0 * x, OPTIMAL)
    params = PmcParams(mode=FPT, epsilon=0.2, mu=0.001, r_cap=r_cap, seed=1)
    # the limit is exactly both sets' load (kept) or just below it (not kept)
    limit_budget = (cost + Fraction(1, 10**400)) / (1 + Fraction(params.delta(1)))
    for b in (limit_budget, limit_budget - Fraction(1, 10**420), budget):
        assert_same_rounding(inst, [b], solution, params)


@pytest.mark.parametrize("cost, budget", OUTSIDE_FLOAT_RANGE)
def test_round_pmc_matches_reference_outside_float_range(cost, budget):
    _assert_same_rounding_outside_float_range(cost, budget, 1.0, 3)


@pytest.mark.parametrize("cost, budget", OUTSIDE_FLOAT_RANGE)
def test_drawn_round_pmc_matches_reference_outside_float_range(cost, budget):
    # x = 1/2 draws; at cost 10**400 the icosts column (10**800, 1) has gcd 1,
    # so its loads are summed in Python ints
    _assert_same_rounding_outside_float_range(cost, budget, 0.5, 40)


@pytest.mark.parametrize("budget", [Fraction(-10**30), 0, Fraction(3, 2), Fraction(10**30)])
@pytest.mark.parametrize("cost", [INFINITE_COST, 4])
def test_drawn_round_pmc_matches_reference_at_limits_past_every_load(budget, cost):
    # a drawn infinite pair breaks its iteration's budget, and a limit far
    # below 0 or far above every load decides as the reference's does
    inst = ProblemInstance(
        n=3, sets=((0, 1), (1, 2), (2,)), m=2,
        cost_model=UnrelatedCosts(((1, 2), (3, cost), (1, 1))),
    )
    solution = LpSolution((0.5, 0.5, 0.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0), 2.0, OPTIMAL)
    params = PmcParams(mode=FPT, epsilon=0.2, mu=0.3, r_cap=60, seed=5)
    assert_same_rounding(inst, [budget, budget], solution, params)


@settings(max_examples=50, deadline=None)
@given(case=rounding_cases(), block=st.sampled_from([1, 7, 24]))
def test_round_pmc_blocks_match_reference_loop(case, block):
    # blocks of a few rows continue one stream, so the draws stay those of
    # the one-shot raw_draws matrix the reference reads
    with mock.patch.object(pmc, "ROUND_BLOCK", block):
        assert_same_rounding(*case)


@st.composite
def ceiling_cases(draw):
    """Rounding cases of about a thousand planned attempts, more than the
    first block holds, where every iteration fits its budgets: most calls
    reach the coverage ceiling and stop early."""
    inst, _, solution, params = draw(rounding_cases())
    params = PmcParams(mode=POLY, epsilon=0.05, seed=params.seed)
    budgets = [
        Fraction(sum(row[j] for row in inst.icosts if row[j] != INFINITE_COST), inst.scale)
        for j in range(inst.m)
    ]
    return inst, budgets, solution, params


@settings(max_examples=60, deadline=None)
@given(case=ceiling_cases())
def test_round_pmc_stops_at_the_coverage_ceiling_with_the_reference_result(case):
    assert_same_rounding(*case)


def test_round_pmc_memory_is_bounded():
    # 8,740 FPT iterations of 600 draws: the one-shot draw matrix peaked at 55 MB
    inst = generate_instance(n=1000, k=200, m=3, model="identical", density=0.01, seed=5)
    solution = LpSolution((0.05,) * (inst.k * inst.m) + (0.0,) * inst.n, 1.0, OPTIMAL)
    params = PmcParams(mode=FPT, epsilon=0.1, mu=0.001, seed=2)
    assert params.attempts(inst.m, inst.n) == 8740
    tracemalloc.start()
    try:
        result = round_pmc(inst, [Fraction(20)] * inst.m, solution, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert 0 < result.iterations_kept < result.attempts == 8740


# -- integral LP optima: decided once in the int cost table, with no stream

# values that clip to exactly 0 or 1
INTEGRAL_PROBS = st.sampled_from([0.0, -0.0, -1e-12, 1.0, 1.0000001, 1.5])


def _no_draws(*args, **kwargs):
    raise AssertionError("an integral solution must not draw")


def _placement_loads(inst, solution):
    """Each machine's load when every pair at 1 is placed on its set's lowest machine."""
    loads = [Fraction(0)] * inst.m
    for s in range(inst.k):
        for j in range(inst.m):
            if solution.values[s * inst.m + j] >= 1:
                loads[j] += inst.cost(s, j)
                break
    return loads


@st.composite
def integral_rounding_cases(draw):
    inst, budgets, solution, params = draw(rounding_cases(prob=INTEGRAL_PROBS))
    if draw(st.booleans()):
        # each limit (1 + delta) * B_j exactly at the placement's load on j
        # (kept) or just below it (nothing kept, unless the load is 0)
        delta = Fraction(params.delta(inst.m))
        nudge = st.sampled_from([0, -1]).map(lambda sign: sign * Fraction(1, 10**18))
        budgets = [
            max(Fraction(0), load / (1 + delta) + draw(nudge))
            for load in _placement_loads(inst, solution)
        ]
    return inst, budgets, solution, params


@settings(max_examples=400, deadline=None)
@given(case=integral_rounding_cases())
def test_integral_round_pmc_matches_reference_loop(case):
    with mock.patch.object(pmc, "stream", _no_draws), mock.patch.object(pmc, "raw_draws", _no_draws):
        outcome = assert_same_rounding(*case)
    if not isinstance(outcome, tuple):
        assert outcome.iterations_kept == outcome.attempts


def test_integral_round_pmc_never_draws(monkeypatch):
    inst = ProblemInstance(
        n=3, sets=((0, 1), (1, 2), (2,)), m=2,
        cost_model=UnrelatedCosts(((1, 2), (3, INFINITE_COST), (1, 1))),
    )
    # set 0 is at 1 on both machines (kept on machine 0), set 2 on machine 1
    solution = LpSolution((1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0), 3.0, OPTIMAL)
    small = PmcParams(mode=POLY, epsilon=0.2, seed=4)
    huge = PmcParams(mode=POLY, epsilon=1e-4, seed=4)
    draws = raw_draws(stream(small.seed), small.attempts(2, 3), [1, 1, 0, 0, 0, 1])
    expected = reference_round_pmc(inst, [1, 1], solution, small, draws)
    assert huge.attempts(2, 3) > 10**7

    monkeypatch.setattr(pmc, "stream", _no_draws)
    monkeypatch.setattr(pmc, "raw_draws", _no_draws)
    assert round_pmc(inst, [1, 1], solution, small) == expected
    assert expected.iterations_kept == expected.attempts
    assert expected.assignment.per_machine == ((0,), (2,))
    attempts = huge.attempts(2, 3)
    assert round_pmc(inst, [1, 1], solution, huge) == PmcResult(
        expected.assignment, expected.per_machine_cost, expected.covered,
        expected.lp_objective, attempts, attempts,
    )
    # an infinite pair at 1 breaks every iteration's budget
    infinite = LpSolution((1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0), 3.0, OPTIMAL)
    with pytest.raises(NoIterationKeptError) as err:
        round_pmc(inst, [100, 100], infinite, huge)
    assert err.value.attempts == attempts
    # one entry short of 1 is fractional, so it draws
    almost = LpSolution((1.0, 1.0, 0.0, 0.0, 0.0, 1 - 1e-12, 1.0, 1.0, 1.0), 3.0, OPTIMAL)
    with pytest.raises(AssertionError, match="must not draw"):
        round_pmc(inst, [1, 1], almost, small)
