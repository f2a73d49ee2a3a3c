import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conftest import t1_instance
from pmssc import lp as lp_mod
from pmssc.core import INFINITE_COST, ProblemInstance, UnrelatedCosts, as_fraction
from pmssc.errors import DomainError, NumericalFailureError
from pmssc.lp import (
    LESS_EQUAL,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    WarmStart,
    lp_upper_bounds_ilp,
    solve_lp,
    to_lp_format,
)
from pmssc.oracle import exact_pmc
from pmssc.pmc import PmcRelaxation
from pmssc.fileio import generate_instance


def test_trivial_bounded_maximum():
    lp = LinearProgram((1,), (((1,), "<=", 1),), ((0, 1),))
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert abs(sol.objective_value - 1) < 1e-9
    assert abs(sol.values[0] - 1) < 1e-9


def test_unbounded_detected():
    lp = LinearProgram((1,), (), ((0, math.inf),))
    assert solve_lp(lp).status == UNBOUNDED


def test_pmc_relaxation_t1():
    inst = t1_instance(m=1)
    sol = solve_lp(PmcRelaxation(inst).at([2]), verify=True)
    assert sol.status == OPTIMAL
    assert sol.objective_value == 3  # fractional optimum equals integral here


def test_deterministic_bit_identical():
    lp = LinearProgram(
        (3, -1, 2),
        (((1, 1, 1), "<=", 2), ((-1, 1, 0), "<=", 0)),
        ((0, 2), (0, 1), (0, 3)),
    )
    a, b = solve_lp(lp), solve_lp(lp)
    assert a.values == b.values and a.objective_value == b.objective_value


def _scipy_reference(lp):
    A_ub = [[float(c) for c in coeffs] for coeffs, _, _ in lp.constraints]
    b_ub = [float(rhs) for _, _, rhs in lp.constraints]
    return linprog(
        [-float(c) for c in lp.objective],
        A_ub=A_ub or None,
        b_ub=b_ub or None,
        bounds=[(float(lo), float(hi)) for lo, hi in lp.bounds],
        method="highs",
    )


def test_random_programs_match_scipy():
    rng = np.random.default_rng(42)
    for _ in range(150):
        nv = int(rng.integers(1, 7))
        nr = int(rng.integers(0, 6))
        objective = tuple(int(x) for x in rng.integers(-5, 6, size=nv))
        constraints = []
        for _ in range(nr):
            coeffs = tuple(int(x) for x in rng.integers(-4, 5, size=nv))
            constraints.append((coeffs, "<=", int(rng.integers(0, 10))))
        bounds = tuple((0, int(rng.integers(0, 4))) for _ in range(nv))
        lp = LinearProgram(objective, tuple(constraints), bounds)
        mine = solve_lp(lp, verify=True)
        ref = _scipy_reference(lp)
        assert ref.status == 0 and mine.status == OPTIMAL
        assert abs(float(mine.objective_value) - (-ref.fun)) < 1e-6


def test_primal_feasibility_residuals():
    rng = np.random.default_rng(5)
    for _ in range(50):
        nv = int(rng.integers(2, 6))
        nr = int(rng.integers(1, 5))
        lp = LinearProgram(
            tuple(int(x) for x in rng.integers(-3, 4, size=nv)),
            tuple(
                (
                    tuple(int(x) for x in rng.integers(-3, 4, size=nv)),
                    "<=",
                    int(rng.integers(0, 8)),
                )
                for _ in range(nr)
            ),
            tuple((0, int(rng.integers(1, 4))) for _ in range(nv)),
        )
        sol = solve_lp(lp)
        if sol.status != OPTIMAL:
            continue
        for coeffs, _, rhs in lp.constraints:
            lhs = sum(float(c) * v for c, v in zip(coeffs, sol.values))
            assert lhs <= float(rhs) + 1e-8
        for v, (_, hi) in zip(sol.values, lp.bounds):
            assert -1e-9 <= v <= float(hi) + 1e-9


def test_lp_upper_bounds_ilp_helper():
    sol = LpSolution((1.0,), 3.0, OPTIMAL)
    assert lp_upper_bounds_ilp(sol, 3)
    assert not lp_upper_bounds_ilp(LpSolution((1.0,), 2.5, OPTIMAL), 3)


def test_relaxation_dominates_integral_on_random_instances():
    for seed in range(50):
        inst = generate_instance(
            n=3 + seed % 6,
            k=2 + seed % 5,
            m=1 + seed % 2,
            model="identical",
            density=0.35,
            seed=400 + seed,
        )
        budgets = [Fraction(1 + seed % 4)] * inst.m
        sol = solve_lp(PmcRelaxation(inst).at(budgets), verify=True)
        _, ilp_opt = exact_pmc(inst, budgets)
        assert lp_upper_bounds_ilp(sol, ilp_opt)


def test_lp_format_dump():
    lp = LinearProgram((1, 2), (((1, 1), "<=", 2),), ((0, 1), (0, 1)))
    text = to_lp_format(lp)
    assert "Maximize" in text and "Subject To" in text and "Bounds" in text
    assert "x0" in text and "x1" in text
    # every number reads back as the float of its coefficient, which 6
    # significant digits would not give (333334, 1.23457e+07)
    lp = LinearProgram(
        (Fraction(1, 3), -2, 0.1),
        (
            ((1, Fraction(-1000001, 3), 0), "<=", Fraction(1000001, 3)),
            ((Fraction(-2, 7), 0, -1e-17), "<=", 12345678.9),
        ),
        ((0, Fraction(12345678.9)), (0, Fraction(1, 10**6)), (0, math.inf)),
    )
    lines = to_lp_format(lp).splitlines()

    def parse_linear(text):
        tokens = text.split()
        if tokens[0] not in "+-":
            tokens.insert(0, "+")
        terms = zip(tokens[::3], tokens[1::3], tokens[2::3])
        return {int(x[1:]): float(sign + a) for sign, a, x in terms}

    objective = parse_linear(lines[2].split(":", 1)[1])
    assert objective == {j: float(c) for j, c in enumerate(lp.objective) if c}
    for i, (coeffs, relation, rhs) in enumerate(lp.constraints):
        body, text_rhs = lines[4 + i].split(":", 1)[1].split(" %s " % relation)
        assert parse_linear(body) == {j: float(a) for j, a in enumerate(coeffs) if a}
        assert float(text_rhs) == float(rhs)
    for j, (lo, hi) in enumerate(lp.bounds):
        text_lo, _, _, _, text_hi = lines[5 + len(lp.constraints) + j].split()
        assert float(text_lo) == float(lo) and float(text_hi) == float(hi)


@pytest.mark.parametrize(
    "lp_args, entry",
    [
        (((1,), (), ((0, Fraction(10**400)),)), "upper bound of x0"),
        (((1, 1), (((1, 10**400), "<=", 1),), ((0, 1), (0, 1))), "constraint 0 coefficient 1"),
        (
            ((1,), (((1,), "<=", 1), ((1,), "<=", 10**400)), ((0, 1),)),
            "constraint 1 right-hand side",
        ),
    ],
)
def test_values_outside_the_float_range_raise_domain_error(lp_args, entry):
    with pytest.raises(DomainError, match=entry):
        LinearProgram(*lp_args)


@pytest.mark.parametrize(
    "constraints, bounds",
    [
        ((((1,), ">=", 0),), ((0, 1),)),
        ((((1,), "<=", -1),), ((0, 1),)),
        ((((1,), "<=", Fraction(-1, 10**400)),), ((0, 1),)),  # its float is -0.0
        ((((1,), "<=", 1),), ((1, 2),)),
    ],
)
def test_programs_that_are_not_packing_programs_raise_domain_error(constraints, bounds):
    with pytest.raises(DomainError):
        LinearProgram((1,), constraints, bounds)


def _beale_on_the_slack_basis(num, dtype):
    """Beale's cycling example: maximise 3/4 x1 - 150 x2 + x3/50 - 6 x4 subject to
    x1/4 - 60 x2 - x3/25 + 9 x4 <= 0, x1/2 - 90 x2 - x3/50 + 3 x4 <= 0 and
    x3 <= 1, as the tableau (T, u, basis, flipped) on the slack basis: T is
    [A | I | rhs ; c | 0 | 0]."""
    F = Fraction
    rows = [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 1],
        [F(3, 4), -150, F(1, 50), -6, 0, 0, 0, 0],
    ]
    T = np.array([[num(a) for a in row] for row in rows], dtype=dtype)
    u = np.array([math.inf] * 7, dtype=dtype)
    return T, u, np.arange(4, 7), np.zeros(7, dtype=bool)


@pytest.mark.parametrize("num, dtype, tol", [(float, float, 1e-9), (Fraction, object, 0)])
def test_blands_rule_ends_the_cycle_of_beales_example(num, dtype, tol):
    pivot, pivots = lp_mod._pivot, []

    def counted(*args):
        pivots.append(args[2])
        pivot(*args)

    with mock.patch.object(lp_mod, "_pivot", counted):
        T, u, basis, flipped = _beale_on_the_slack_basis(num, dtype)
        W = np.empty((2,) + T.shape) if dtype is float else None  # the float pivot scratch
        objective = T[-1, :4].copy()
        lp_mod._optimize(T, u, basis, flipped, tol, 10 * (sum(T.shape) - 2), W)
        assert len(pivots) == 103
        x = lp_mod._vertex(T, u, basis, flipped, 4)
        if num is Fraction:
            assert list(x) == [Fraction(1, 25), 0, 1, 0] and objective @ x == Fraction(1, 20)
        else:
            assert np.allclose(x, [1 / 25, 0, 1, 0]) and abs(objective @ x - 1 / 20) < 1e-12
        # Dantzig's rule alone cycles until the iteration limit
        pivots.clear()
        T, u, basis, flipped = _beale_on_the_slack_basis(num, dtype)
        with pytest.raises(lp_mod._NumericTrouble, match="^iteration limit exceeded$"):
            lp_mod._optimize(T, u, basis, flipped, tol, 10**9, W)
        assert len(pivots) == 2000 + 200 * (sum(T.shape) - 2)


def test_float_pivots_allocate_nothing_of_the_tableau_size():
    # 84 x 260 plus the objective row and rhs column is the unrelated bench's
    # former full-row tableau; a pivot that built its update in temporaries
    # allocated about 3 x 175 KB
    rng = np.random.default_rng(3)
    T = rng.random((85, 261)) + np.eye(85, 261)
    basis, W = np.arange(176, 260), np.empty((2,) + T.shape)
    with np.errstate(all="ignore"):
        tracemalloc.start()
        try:
            for r in range(100):
                lp_mod._pivot(T, basis, r % 84, r % 176, W)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 16 * 1024


# -- differential tests: one engine for floats and rationals against the
# former float simplex plus its separate exact re-derivation


def assert_exactly_feasible(lp, sol):
    values = sol.values
    assert all(isinstance(v, Fraction) for v in values)
    for v, (_, hi) in zip(values, lp.bounds):
        assert 0 <= v and (hi == math.inf or v <= as_fraction(hi))
    for coeffs, _, rhs in lp.constraints:
        lhs = sum((as_fraction(a) * v for a, v in zip(coeffs, values)), Fraction(0))
        assert lhs <= rhs
    objective = sum((as_fraction(c) * v for c, v in zip(lp.objective, values)), Fraction(0))
    assert sol.objective_value == objective


real_optimize = lp_mod._optimize


def _reduced_costs_checked(T, u, basis, flipped, tol, bland_after, W=None):
    """The engine's ``_optimize``; on an exact tableau it then asserts an
    exactly feasible basis with every exact reduced cost <= 0."""
    real_optimize(T, u, basis, flipped, tol, bland_after, W)
    if T.dtype == object:
        assert all(0 <= v <= u[j] for v, j in zip(T[:-1, -1], basis))
        assert all(rj <= 0 for j, rj in enumerate(T[-1, :-1]) if j not in basis)


coefficient = st.one_of(
    st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
)
nonnegative_rhs = st.builds(Fraction, st.integers(0, 10), st.integers(1, 3))


@st.composite
def general_lps(draw):
    nv = draw(st.integers(1, 6))
    rows = draw(st.integers(0, 5))
    constraints = tuple(
        (tuple(draw(coefficient) for _ in range(nv)), LESS_EQUAL, draw(nonnegative_rhs))
        for _ in range(rows)
    )
    hi = st.one_of(st.just(math.inf), st.builds(Fraction, st.integers(0, 6), st.integers(1, 2)))
    bounds = tuple((0, draw(hi)) for _ in range(nv))
    return LinearProgram(tuple(draw(coefficient) for _ in range(nv)), constraints, bounds)


@st.composite
def pmc_lps(draw):
    inst = generate_instance(
        n=draw(st.integers(1, 9)),
        k=draw(st.integers(1, 5)),
        m=draw(st.integers(1, 3)),
        model=draw(st.sampled_from(["identical", "related", "unrelated"])),
        density=draw(st.sampled_from([0.2, 0.4, 0.7])),
        seed=draw(st.integers(0, 10**6)),
    )
    budget = st.builds(Fraction, st.integers(0, 8), st.integers(1, 3))
    return PmcRelaxation(inst).at([draw(budget) for _ in range(inst.m)])


@settings(max_examples=100, deadline=None)
@given(lp=st.one_of(general_lps(), pmc_lps()), verify=st.booleans())
def test_solve_lp_matches_former_solver(lp, verify):
    try:
        expected = reference_solve_lp(lp, verify=verify)
    except NumericalFailureError:
        return
    with mock.patch.object(lp_mod, "_optimize", _reduced_costs_checked):
        actual = solve_lp(lp, verify=verify)
    _assert_same_optimum(lp, actual, expected, verify)


def _assert_same_optimum(lp, actual, expected, verify):
    """The status and optimal value of ``expected``, exactly under ``verify``.
    The reference starts with phase 1, so where the optimum is not unique it
    may stop at another vertex."""
    assert actual.status == expected.status
    if actual.status == OPTIMAL and verify:
        assert actual.objective_value == expected.objective_value
        assert_exactly_feasible(lp, actual)
    elif actual.status == OPTIMAL:
        assert actual.objective_value == pytest.approx(expected.objective_value, abs=1e-7)


def _float_phase_2_cut_short(T, u, basis, flipped, tol, bland_after, W=None):
    """``_optimize``, except that a float solve returns before any pivot."""
    if T.dtype == object:
        real_optimize(T, u, basis, flipped, tol, bland_after)


def test_verify_finishes_a_float_phase_2_cut_short():
    rng = np.random.default_rng(11)
    programs = [
        PmcRelaxation(
            generate_instance(n=4 + s % 6, k=2 + s % 4, m=1 + s % 3, model="unrelated",
                              density=0.4, seed=700 + s),
        ).at([Fraction(1 + s % 3, 1 + s % 2)] * (1 + s % 3))
        for s in range(20)
    ]
    for _ in range(20):
        nv = int(rng.integers(2, 6))
        programs.append(LinearProgram(
            tuple(int(x) for x in rng.integers(0, 6, size=nv)),
            tuple(
                (tuple(int(x) for x in rng.integers(0, 4, size=nv)), LESS_EQUAL,
                 int(rng.integers(1, 9)))
                for _ in range(int(rng.integers(1, 4)))
            ),
            tuple((0, int(rng.integers(1, 4))) for _ in range(nv)),
        ))
    cut_short = 0
    for lp in programs:
        optimum = reference_solve_lp(lp, verify=True)
        with mock.patch.object(lp_mod, "_optimize", _float_phase_2_cut_short):
            stopped = solve_lp(lp)
            sol = solve_lp(lp, verify=True)
        assert sol.status == optimum.status == OPTIMAL
        assert sol.objective_value == optimum.objective_value
        assert_exactly_feasible(lp, sol)
        cut_short += stopped.objective_value < float(optimum.objective_value) - 1e-9
    # the cut must bite: most float answers stop below the optimum
    assert cut_short >= len(programs) // 2


# -- warm start: one holder, programs that differ only in their rhs


@st.composite
def rhs_changes(draw, lp):
    """``lp`` with some right-hand sides scaled or redrawn, each still >= 0."""
    scaled = st.builds(Fraction, st.integers(0, 8), st.integers(1, 4))
    constraints = []
    for coeffs, relation, rhs in lp.constraints:
        if draw(st.booleans()):
            rhs = draw(st.one_of(st.builds(lambda f: rhs * f, scaled), nonnegative_rhs))
        constraints.append((coeffs, relation, rhs))
    return LinearProgram(lp.objective, tuple(constraints), lp.bounds)


@st.composite
def warm_pairs(draw):
    lp = draw(st.one_of(general_lps(), pmc_lps()))
    return lp, draw(rhs_changes(lp))


def _filled(lp):
    """A holder that ``lp``'s float solve filled, or None when it stays empty."""
    warm = WarmStart()
    try:
        solve_lp(lp, warm=warm)
    except NumericalFailureError:
        return None
    return warm if warm.lp is not None else None


@settings(max_examples=100, deadline=None)
@given(pair=warm_pairs())
def test_warm_resolve_at_a_new_rhs_reaches_the_exact_optimum(pair):
    first, second = pair
    warm = _filled(first)
    assume(warm is not None)
    try:
        cold = solve_lp(second, verify=True)
    except NumericalFailureError:
        return
    with mock.patch.object(lp_mod, "_cold_start", wraps=lp_mod._cold_start) as cold_start:
        sol = solve_lp(second, verify=True, warm=warm)
    assert sol.status == cold.status
    if sol.status == OPTIMAL:
        assert cold_start.call_count == 0  # the warm path itself reached it
        assert sol.objective_value == cold.objective_value
        assert_exactly_feasible(second, sol)


@st.composite
def other_matrices(draw):
    """A program and a copy of it with one coefficient, bound or objective
    entry changed."""
    lp = draw(st.one_of(general_lps(), pmc_lps()))
    objective, constraints, bounds = list(lp.objective), list(lp.constraints), list(lp.bounds)
    part = draw(st.sampled_from(
        ["objective", "bound"] + (["coefficient"] if constraints else [])
    ))
    j = draw(st.integers(0, len(objective) - 1))
    if part == "objective":
        objective[j] += 1
    elif part == "bound":
        lo, hi = bounds[j]
        bounds[j] = (lo, lo + 5 if hi == math.inf else hi + Fraction(1, 2))
    else:
        i = draw(st.integers(0, len(constraints) - 1))
        coeffs, relation, rhs = constraints[i]
        coeffs = coeffs[:j] + (coeffs[j] + Fraction(1, 3),) + coeffs[j + 1:]
        constraints[i] = (coeffs, relation, rhs)
    return lp, LinearProgram(tuple(objective), tuple(constraints), tuple(bounds))


@settings(max_examples=100, deadline=None)
@given(pair=other_matrices(), verify=st.booleans())
def test_holder_of_another_matrix_gives_the_cold_result(pair, verify):
    first, second = pair
    warm = _filled(first)
    assume(warm is not None)
    try:
        cold = solve_lp(second, verify=verify)
    except NumericalFailureError:
        return
    with mock.patch.object(lp_mod, "_warm_start", side_effect=AssertionError("warm")):
        assert repr(solve_lp(second, verify=verify, warm=warm)) == repr(cold)


@settings(max_examples=100, deadline=None)
@given(lp=st.one_of(general_lps(), pmc_lps()))
def test_identical_program_resolves_from_its_holder_without_a_pivot(lp):
    warm = _filled(lp)
    assume(warm is not None)
    first = solve_lp(lp)
    again = LinearProgram(lp.objective, lp.constraints, lp.bounds)  # equal, not the same
    with mock.patch.object(lp_mod, "_pivot", wraps=lp_mod._pivot) as pivot, \
            mock.patch.object(lp_mod, "_flip_nonbasic", wraps=lp_mod._flip_nonbasic) as flip:
        sol = solve_lp(again, warm=warm)
    assert (pivot.call_count, flip.call_count) == (0, 0)
    assert repr(sol) == repr(first)
    assert warm.lp is again


@settings(max_examples=60, deadline=None)
@given(pair=warm_pairs(), verify=st.booleans())
def test_warm_path_in_numeric_trouble_falls_back_to_the_cold_answer(pair, verify):
    first, second = pair
    warm = _filled(first)
    assume(warm is not None)
    try:
        cold = solve_lp(second, verify=verify)
    except NumericalFailureError:
        return
    trouble = lp_mod._NumericTrouble("forced")
    with mock.patch.object(lp_mod, "_dual_simplex", side_effect=trouble) as dual:
        sol = solve_lp(second, verify=verify, warm=warm)
    assert dual.call_count == 1
    assert repr(sol) == repr(cold)
    # emptied by the warm attempt, refilled only by the successful cold solve
    assert warm.lp is None or (warm.lp is second and sol.status == OPTIMAL)


# -- every row has its own slack: dependent rows keep their place


def _dependent_row_programs():
    row = ((1, 2, 0), LESS_EQUAL, 4)
    box = ((0, 3), (0, 1), (0, math.inf))
    objective = (1, 1, -1)
    inst = generate_instance(n=6, k=4, m=2, model="unrelated", density=0.4, seed=3)
    pmc = PmcRelaxation(inst).at([Fraction(3, 2), 2])
    return [
        LinearProgram(objective, (row, row), box),
        LinearProgram(objective, (row, ((2, 4, 0), LESS_EQUAL, 8)), box),
        LinearProgram(
            objective, (((0, 0, 0), LESS_EQUAL, 0), row, ((0, 0, 0), LESS_EQUAL, 0)), box
        ),
        LinearProgram(pmc.objective, pmc.constraints + pmc.constraints[-1:], pmc.bounds),
    ]


@pytest.mark.parametrize("lp", _dependent_row_programs())
def test_dependent_rows_solve_exactly_and_keep_their_place_in_the_holder(lp):
    sol = solve_lp(lp, verify=True)
    assert sol.status == OPTIMAL
    _assert_same_optimum(lp, sol, reference_solve_lp(lp, verify=True), verify=True)
    warm = WarmStart()
    solve_lp(lp, warm=warm)
    assert warm.lp is lp
    assert warm.tableau[0].shape[0] - 1 == len(warm.tableau[2]) == len(lp.constraints)


def test_with_rhs_shares_all_but_the_rhs():
    lp = LinearProgram((1, 2), (((1, 1), LESS_EQUAL, 4), ((-1, 1), LESS_EQUAL, 0)),
                       ((0, 3), (0, math.inf)))
    other = lp.with_rhs([Fraction(5, 2), 1])
    assert other == LinearProgram(
        lp.objective, (((1, 1), LESS_EQUAL, Fraction(5, 2)), ((-1, 1), LESS_EQUAL, 1)),
        lp.bounds,
    )
    assert lp.constraints[0][2] == 4  # the original is unchanged
    for mine, theirs in zip(lp._floats, other._floats):
        assert (mine is theirs) == (mine is not lp._floats[2])
    assert other._floats[2].tolist() == [2.5, 1.0]
    _assert_same_optimum(
        other, solve_lp(other, verify=True), reference_solve_lp(other, verify=True), verify=True
    )
    with pytest.raises(ValueError):
        lp.with_rhs([1])
    with pytest.raises(DomainError, match="float range"):
        lp.with_rhs([1, Fraction(10**400)])
    with pytest.raises(DomainError):
        lp.with_rhs([1, -1])


# -- the in-place pivot and the vectorised ratio test against the dense pivot
# and the loop ratio test they replaced, but for the names of the functions
# and exceptions they use, the pivot scratch ``W`` they ignore, and the
# tableau layout [M | b ; r | -z]: the pivot updates the objective row and
# rhs column with M, and the reduced costs are read from the objective row


def _dense_pivot(T, basis, i, j, W=None):
    piv = T[i, j]
    T[i, :] /= piv
    col = T[:, j].copy()
    col[i] = 0
    # exact tableaux skip rows with multiplier 0, as Fraction products are slow;
    # on small float tableaux that indexing would cost more than it saves
    rows = np.flatnonzero(col) if T.dtype == object else slice(None)
    T[rows] -= np.outer(col[rows], T[i, :])
    T[:, j] = 0
    T[i, j] = 1
    basis[i] = j


def _loop_optimize(T, u, basis, flipped, tol, bland_after, W=None):
    """Run primal iterations until no reduced cost exceeds tol (0: exact ties)."""
    M, b, r = T[:-1, :-1], T[:-1, -1], T[-1, :-1]
    nrows, ncols = M.shape
    tie = 1e-12 if tol else 0
    degenerate = 0
    for _ in range(2000 + 200 * (nrows + ncols)):
        if degenerate > bland_after:
            entering = np.nonzero(r > tol)[0]
            if entering.size == 0:
                return
            j = int(entering[0])
        else:
            j = int(np.argmax(r))
            if r[j] <= tol:
                return
        col = M[:, j]
        candidates = []  # (theta, (var index, kind priority), kind, row)
        if u[j] < math.inf:
            candidates.append((u[j], (j, 2), "flip", -1))
        for i in range(nrows):
            a = col[i]
            if a > tol:
                candidates.append((b[i] / a, (basis[i], 0), "lower", i))
            elif a < -tol and u[basis[i]] < math.inf:
                candidates.append(((u[basis[i]] - b[i]) / (-a), (basis[i], 1), "upper", i))
        if not candidates:
            raise lp_mod._Unbounded()
        theta_min = min(t for t, _, _, _ in candidates)
        theta, _, kind, i = min(
            (cand for cand in candidates if cand[0] <= theta_min + tie),
            key=lambda cand: cand[1],
        )
        if theta <= tol:
            degenerate += 1
        if kind == "flip":
            lp_mod._flip_nonbasic(T, u, flipped, j)
        elif kind == "lower":
            _dense_pivot(T, basis, i, j)
        else:
            lp_mod._complement_basic(T, u, basis, flipped, i)
            _dense_pivot(T, basis, i, j)
    raise lp_mod._NumericTrouble("iteration limit exceeded")


def _solve_all(programs, verify, warm):
    """repr of each program's solve (or of its failure), one holder for all
    of them when ``warm``, else each solved cold."""
    holder = WarmStart() if warm else None
    out = []
    for lp in programs:
        try:
            out.append(repr(solve_lp(lp, verify=verify, warm=holder)))
        except NumericalFailureError as exc:
            out.append(repr(exc))
    return out


def _matches_the_dense_solver(programs, verify, warm):
    fast = _solve_all(programs, verify, warm)
    with mock.patch.multiple(lp_mod, _pivot=_dense_pivot, _optimize=_loop_optimize):
        assert _solve_all(programs, verify, warm) == fast


@st.composite
def large_pmc_ladders(draw, n=(30, 80), k=(10, 24), m=(2, 4), steps=(1, 5)):
    """The PMC programs of one unrelated instance (12% density, 10% infinite
    costs) at the budgets 1, 2, 4, ... on every machine. As in the bench's
    instances, an element no set holds joins a random set, so every element
    has a coverage row."""
    n, k, m = draw(st.integers(*n)), draw(st.integers(*k)), draw(st.integers(*m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = [set(np.flatnonzero(rng.random(n) < 0.12).tolist()) for _ in range(k)]
    for u in sorted(set(range(n)).difference(*members)):
        members[int(rng.integers(k))].add(u)
    sets = tuple(tuple(sorted(s)) for s in members)
    costs = tuple(
        tuple(INFINITE_COST if rng.random() < 0.1 else int(rng.integers(1, 4)) for _ in range(m))
        for _ in range(k)
    )
    relaxation = PmcRelaxation(ProblemInstance(n, sets, m, UnrelatedCosts(costs)))
    return [relaxation.at([2**g] * m) for g in range(draw(st.integers(*steps)))]


@settings(max_examples=25, deadline=None)
@given(programs=large_pmc_ladders())
def test_fast_paths_match_the_dense_solver_on_large_pmc_ladders(programs):
    lp = programs[0]
    rows = len(lp.constraints)
    # tableaux of at least 2,048 entries, where the former float pivot
    # updated only the rows with a nonzero multiplier
    assert rows * (len(lp.objective) + rows) >= 2048
    _matches_the_dense_solver(programs, verify=False, warm=False)
    _matches_the_dense_solver(programs, verify=False, warm=True)


@settings(max_examples=4, deadline=None)
@given(programs=large_pmc_ladders(n=(30, 34), k=(10, 11), m=(2, 2), steps=(1, 3)),
       warm=st.booleans())
def test_fast_paths_match_the_dense_solver_on_large_pmc_ladders_verified(programs, warm):
    _matches_the_dense_solver(programs, verify=True, warm=warm)


class _Stop(Exception):
    pass


@settings(max_examples=25, deadline=None)
@given(programs=large_pmc_ladders())
def test_objective_row_and_rhs_are_carried_exactly_through_every_float_pivot(programs):
    # After each pivot the carried r equals c - c_B . M and is 0 on basic
    # columns, b equals B^-1 . rhs and -z the vertex's objective, all in the
    # program with its flipped columns negated (x_j -> u_j - x_j)
    state, checked = {}, []

    def cold_start(lp, _inner=lp_mod._cold_start):
        state["tableau"] = _inner(lp)
        return state["tableau"]

    def pivot(T, basis, i, j, W=None, _inner=lp_mod._pivot):
        _inner(T, basis, i, j, W)
        stored, u, stored_basis, flipped, _ = state["tableau"]
        assert T is stored and basis is stored_basis
        objective, rows, rhs, _ = state["lp"]._floats
        nrows, nv = rows.shape
        A = np.hstack([rows, np.eye(nrows)]) * np.where(flipped, -1.0, 1.0)
        c = np.concatenate([objective, np.zeros(nrows)]) * np.where(flipped, -1.0, 1.0)
        M, b, r = T[:-1, :-1], T[:-1, -1], T[-1, :-1]
        assert np.abs(r - (c - c[basis] @ M)).max() <= 1e-9
        assert (r[basis] == 0).all()
        assert np.abs(b - M[:, nv:] @ (rhs + A[:, flipped] @ u[flipped])).max() <= 1e-9
        x = lp_mod._vertex(T, u, basis, flipped, nv)
        assert abs(T[-1, -1] + objective @ x) <= 1e-9
        checked.append(j)

    warm = WarmStart()
    with mock.patch.multiple(lp_mod, _cold_start=cold_start, _pivot=pivot):
        for lp in programs:
            state["lp"] = lp
            solve_lp(lp, warm=warm)
    assert checked


@pytest.mark.parametrize("weights, leaving", [((4, 1), 1), ((1, 4), 0)])
def test_dual_steepest_edge_picks_the_largest_normalized_infeasibility(weights, leaving):
    # x0 and x1 basic in rows 0 and 1 at b = (-2, -1); the slack block, B^-1,
    # is diag(weights). Row 0 is the most negative, but it leaves only when
    # b_0^2 / |B^-1_0|^2 is the larger: 4 / 16 < 1 / 1, and 4 / 1 > 1 / 16.
    T = np.array([
        [1.0, 0.0, -1.0, weights[0], 0.0, -2.0],
        [0.0, 1.0, -1.0, 0.0, weights[1], -1.0],
        [0.0, 0.0, -1.0, -1.0, -1.0, -5.0],
    ])
    u, basis, flipped = np.full(5, math.inf), np.array([0, 1]), np.zeros(5, dtype=bool)
    with mock.patch.object(lp_mod, "_pivot", side_effect=_Stop) as pivot:
        with pytest.raises(_Stop):
            lp_mod._dual_simplex(T, u, basis, flipped, 1e-9, np.empty((2,) + T.shape))
    assert pivot.call_args.args[2:4] == (leaving, 2)


@st.composite
def general_ladders(draw):
    lp = draw(general_lps())
    return [lp] + [draw(rhs_changes(lp)) for _ in range(draw(st.integers(0, 3)))]


@settings(max_examples=100, deadline=None)
@given(programs=general_ladders(), verify=st.booleans(), warm=st.booleans())
def test_fast_paths_match_the_dense_solver_on_general_programs(programs, verify, warm):
    _matches_the_dense_solver(programs, verify=verify, warm=warm)


# -- reference: the former float solve and _verify_exact, verbatim but for
# the name of solve_lp and the constants below, which the packing-only engine
# no longer has

GREATER_EQUAL = ">="
INFEASIBLE = "infeasible"


class _NumericTrouble(Exception):
    pass


class _Unbounded(Exception):
    pass


class _Infeasible(Exception):
    pass


def _pivot(M, b, basis, i, j):
    piv = M[i, j]
    M[i, :] /= piv
    b[i] /= piv
    col = M[:, j].copy()
    col[i] = 0.0
    M -= np.outer(col, M[i, :])
    b -= col * b[i]
    M[:, j] = 0.0
    M[i, j] = 1.0
    basis[i] = j


def _flip_nonbasic(M, b, c, u, flipped, j):
    b -= M[:, j] * u[j]
    M[:, j] = -M[:, j]
    c[j] = -c[j]
    flipped[j] = not flipped[j]


def _optimize(M, b, c, u, basis, flipped, tol, bland_after):
    """Run primal iterations until no reduced cost exceeds tol."""
    nrows, ncols = M.shape
    degenerate = 0
    max_iters = 2000 + 200 * (nrows + ncols)
    for _ in range(max_iters):
        r = c - (c[basis] @ M if nrows else np.zeros(ncols))
        r[basis] = 0.0
        if degenerate > bland_after:
            entering = np.nonzero(r > tol)[0]
            if entering.size == 0:
                return
            j = int(entering[0])
        else:
            j = int(np.argmax(r))
            if r[j] <= tol:
                return
        col = M[:, j]
        candidates = []  # (theta, (var index, kind priority), kind, row)
        if np.isfinite(u[j]):
            candidates.append((u[j], (j, 2), "flip", -1))
        for i in range(nrows):
            a = col[i]
            if a > tol:
                candidates.append((b[i] / a, (basis[i], 0), "lower", i))
            elif a < -tol and np.isfinite(u[basis[i]]):
                candidates.append(((u[basis[i]] - b[i]) / (-a), (basis[i], 1), "upper", i))
        if not candidates:
            raise _Unbounded()
        theta_min = min(t for t, _, _, _ in candidates)
        theta, _, kind, i = min(
            (cand for cand in candidates if cand[0] <= theta_min + 1e-12),
            key=lambda cand: cand[1],
        )
        if theta <= tol:
            degenerate += 1
        if kind == "flip":
            _flip_nonbasic(M, b, c, u, flipped, j)
        elif kind == "lower":
            _pivot(M, b, basis, i, j)
        else:
            bc = basis[i]
            b[i] = u[bc] - b[i]
            M[i, :] = -M[i, :]
            M[i, bc] = 1.0
            c[bc] = -c[bc]
            flipped[bc] = not flipped[bc]
            _pivot(M, b, basis, i, j)
    raise _NumericTrouble("iteration limit exceeded")


def _as_floats(lp: LinearProgram):
    """(row coefficient vectors, rhs, lower bounds, upper bounds) in float64."""
    return (
        [np.array([float(a) for a in coeffs]) for coeffs, _, _ in lp.constraints],
        [float(rhs) for _, _, rhs in lp.constraints],
        np.array([float(b[0]) for b in lp.bounds]),
        np.array([float(b[1]) for b in lp.bounds]),
    )


def _solve_floats(lp: LinearProgram, floats, tol: float):
    nv = len(lp.objective)
    nrows = len(lp.constraints)
    rows, rhs, lo, hi = floats

    nslack = nrows
    ncols = nv + nslack
    M = np.zeros((nrows, ncols + nrows))
    b = np.zeros(nrows)
    for i, (_, relation, _) in enumerate(lp.constraints):
        M[i, :nv] = rows[i]
        M[i, nv + i] = 1.0 if relation == LESS_EQUAL else -1.0
        b[i] = rhs[i] - rows[i] @ lo
        if b[i] < 0:
            M[i, :] = -M[i, :]
            b[i] = -b[i]
        M[i, ncols + i] = 1.0  # artificial

    u = np.full(ncols + nrows, np.inf)
    u[:nv] = hi - lo
    flipped = [False] * (ncols + nrows)
    basis = [ncols + i for i in range(nrows)]
    bland_after = 10 * (nrows + ncols)

    # Phase 1: drive the artificials to zero.
    c1 = np.zeros(ncols + nrows)
    c1[ncols:] = -1.0
    try:
        _optimize(M, b, c1, u, basis, flipped, tol, bland_after)
    except _Unbounded:
        raise _NumericTrouble("phase 1 reported unbounded")
    infeasibility = sum(b[i] for i in range(nrows) if basis[i] >= ncols)
    if infeasibility > 1e-7:
        raise _Infeasible()

    redundant = []
    for i in range(nrows):
        if basis[i] < ncols:
            continue
        pivot_col = None
        for j in range(ncols):
            if abs(M[i, j]) > tol and j not in basis:
                pivot_col = j
                break
        if pivot_col is None:
            redundant.append(i)
        else:
            _pivot(M, b, basis, i, pivot_col)
    if redundant:
        M = np.delete(M, redundant, axis=0)
        b = np.delete(b, redundant)
        basis = [bv for i, bv in enumerate(basis) if i not in redundant]
    kept_rows = [i for i in range(nrows) if i not in redundant]
    M = M[:, :ncols]
    u = u[:ncols]
    flipped = flipped[:ncols]

    # Phase 2: original objective (sign-adjusted for columns flipped so far).
    c2 = np.zeros(ncols)
    for j in range(nv):
        cj = float(lp.objective[j])
        c2[j] = -cj if flipped[j] else cj
    try:
        _optimize(M, b, c2, u, basis, flipped, tol, bland_after)
    except _Unbounded:
        raise _Unbounded()

    z = np.zeros(ncols)
    z[basis] = b
    for j in range(ncols):
        if flipped[j]:
            z[j] = u[j] - z[j]
    x = lo + z[:nv]

    # Feasibility backstop: bounds within 1e-9, row residuals within 1e-8.
    if np.any(x < lo - 1e-9) or np.any(x > hi + 1e-9):
        raise _NumericTrouble("bound violation")
    x = np.clip(x, lo, hi)
    for i, (_, relation, _) in enumerate(lp.constraints):
        resid = rows[i] @ x - rhs[i]
        if relation == LESS_EQUAL and resid > 1e-8:
            raise _NumericTrouble("constraint residual %g" % resid)
        if relation == GREATER_EQUAL and resid < -1e-8:
            raise _NumericTrouble("constraint residual %g" % resid)

    return x, basis, flipped, kept_rows


def _verify_exact(lp: LinearProgram, x_float, basis, flipped, kept_rows):
    """Re-derive the basic solution in exact arithmetic and check feasibility."""
    nv = len(lp.objective)
    nrows = len(lp.constraints)
    ncols = nv + nrows
    lo = [as_fraction(bd[0]) for bd in lp.bounds]
    u = []
    for j, bd in enumerate(lp.bounds):
        hi = bd[1]
        u.append(None if float(hi) == math.inf else as_fraction(hi) - lo[j])

    def column(row_idx, j):
        coeffs, relation, _ = lp.constraints[row_idx]
        if j < nv:
            return as_fraction(coeffs[j])
        if j - nv == row_idx:
            return Fraction(1) if relation == LESS_EQUAL else Fraction(-1)
        return Fraction(0)

    basic = list(basis)
    rows = list(kept_rows)
    if len(basic) != len(rows):
        raise NumericalFailureError("basis/row bookkeeping mismatch")

    # rhs of kept rows minus contribution of nonbasic-at-upper columns,
    # in the lo-shifted variable space.
    rhs = []
    for ri in rows:
        coeffs, _, row_rhs = lp.constraints[ri]
        val = as_fraction(row_rhs)
        for j in range(nv):
            val -= as_fraction(coeffs[j]) * lo[j]
        for j in range(ncols):
            if flipped[j] and j not in basic:
                if u[j] is None:
                    raise NumericalFailureError("flipped column with infinite bound")
                val -= column(ri, j) * u[j]
        rhs.append(val)

    size = len(rows)
    aug = [[column(rows[i], basic[q]) for q in range(size)] + [rhs[i]] for i in range(size)]
    for col_i in range(size):
        piv = None
        for r in range(col_i, size):
            if aug[r][col_i] != 0:
                piv = r
                break
        if piv is None:
            raise NumericalFailureError("exactly singular final basis")
        aug[col_i], aug[piv] = aug[piv], aug[col_i]
        inv = Fraction(1) / aug[col_i][col_i]
        aug[col_i] = [v * inv for v in aug[col_i]]
        for r in range(size):
            if r != col_i and aug[r][col_i] != 0:
                factor = aug[r][col_i]
                aug[r] = [a - factor * p for a, p in zip(aug[r], aug[col_i])]
    z = {basic[q]: aug[q][size] for q in range(size)}

    # The system above is posed over original (unflipped) shifted variables,
    # so basic values come straight from the solve; nonbasic variables sit at
    # the bound their flip state encodes.
    x_exact = []
    for j in range(nv):
        if j in z:
            zj = z[j]
        elif flipped[j]:
            zj = u[j]
        else:
            zj = Fraction(0)
        x_exact.append(lo[j] + zj)

    for j in range(nv):
        hi = lp.bounds[j][1]
        if x_exact[j] < lo[j] or (float(hi) != math.inf and x_exact[j] > as_fraction(hi)):
            raise NumericalFailureError("exact verification: bound violated")
        if abs(float(x_exact[j]) - float(x_float[j])) > 1e-6:
            raise NumericalFailureError("exact verification: float drift")
    for coeffs, relation, row_rhs in lp.constraints:
        lhs = sum(
            (as_fraction(coeffs[j]) * x_exact[j] for j in range(nv)), Fraction(0)
        )
        rr = as_fraction(row_rhs)
        if relation == LESS_EQUAL and lhs > rr:
            raise NumericalFailureError("exact verification: row violated")
        if relation == GREATER_EQUAL and lhs < rr:
            raise NumericalFailureError("exact verification: row violated")

    objective = sum(
        (as_fraction(lp.objective[j]) * x_exact[j] for j in range(nv)), Fraction(0)
    )
    return tuple(x_exact), objective


def reference_solve_lp(lp: LinearProgram, verify: bool = False) -> LpSolution:
    """Solve to optimality, or report infeasible/unbounded.

    With ``verify=True`` the returned values and objective are exact
    rationals recomputed from the final basis; any disagreement with the
    float solve raises ``NumericalFailureError``.
    """
    floats = _as_floats(lp)  # converted once, shared by both tolerances
    last_trouble = None
    for tol in (1e-9, 1e-7):
        try:
            x, basis, flipped, kept_rows = _solve_floats(lp, floats, tol)
        except _Infeasible:
            return LpSolution((), None, INFEASIBLE)
        except _Unbounded:
            return LpSolution((), None, UNBOUNDED)
        except _NumericTrouble as exc:
            last_trouble = exc
            continue
        if verify:
            try:
                values, objective = _verify_exact(lp, x, basis, flipped, kept_rows)
            except NumericalFailureError as exc:
                last_trouble = exc
                continue
            return LpSolution(values, objective, OPTIMAL)
        objective = float(
            sum(float(c) * xi for c, xi in zip(lp.objective, x))
        )
        return LpSolution(tuple(float(v) for v in x), objective, OPTIMAL)
    raise NumericalFailureError("pivot tolerance cascade failed: %s" % last_trouble)
