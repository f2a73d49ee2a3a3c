from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIG1_SCHEDULE, t1_instance
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
    validate_instance,
)
from pmssc.errors import (
    EmptyAssignmentError,
    InfiniteCostError,
    InvalidIndexError,
    UncoveredElementError,
)
from pmssc.fileio import generate_instance


def test_fig1_schedule_cost_is_83(fig1):
    total, times = evaluate_schedule_cost(fig1, FIG1_SCHEDULE)
    assert total == 83
    assert len(times) == 20


def test_single_covering_set_costs_cost_times_n():
    inst = ProblemInstance(
        n=4, sets=((0, 1, 2, 3),), m=1, cost_model=IdenticalCosts((Fraction(5),))
    )
    total, times = evaluate_schedule_cost(inst, Schedule(((0,),)))
    assert total == 5 * 4
    assert set(times) == {Fraction(5)}


def test_t1_schedule_cost():
    inst = t1_instance(m=1)
    total, times = evaluate_schedule_cost(inst, Schedule(((0, 1),)))
    assert total == 4
    assert times == (Fraction(1), Fraction(1), Fraction(2))


def test_uncovered_element_raises(t1):
    with pytest.raises(UncoveredElementError) as err:
        evaluate_schedule_cost(t1, Schedule(((0,),)))
    assert err.value.element == 2


def test_invalid_set_index_raises(t1):
    with pytest.raises(InvalidIndexError):
        evaluate_schedule_cost(t1, Schedule(((0, 7),)))


def test_duplicate_set_rejected():
    with pytest.raises(InvalidIndexError):
        Schedule(((0, 1), (1,)))


def test_coverage_fig1(fig1):
    got = coverage(fig1, {1, 7})  # S2 and S8
    assert got == frozenset({2, 4, 6, 15, 18})
    assert len(got) == 5


def test_coverage_empty_family(fig1):
    assert coverage(fig1, frozenset()) == frozenset()


def test_coverage_restrict(t1):
    assert coverage(t1, {0, 1}, restrict_to={2}) == frozenset({2})


def test_coverage_monotone_random():
    inst = generate_instance(n=8, k=6, m=2, model="identical", density=0.4, seed=3)
    fam1 = {0, 2}
    fam2 = {0, 2, 4, 5}
    assert coverage(inst, fam1) <= coverage(inst, fam2)


@settings(max_examples=60, deadline=None)
@given(
    smaller=st.sets(st.integers(min_value=0, max_value=5)),
    extra=st.sets(st.integers(min_value=0, max_value=5)),
)
def test_coverage_monotone_property(smaller, extra):
    inst = generate_instance(n=9, k=6, m=2, model="identical", density=0.35, seed=17)
    assert coverage(inst, smaller) <= coverage(inst, smaller | extra)


def test_density_t1_single_set():
    inst = t1_instance(m=1)
    d = density(inst, Assignment(((0,),)))
    assert d.covered == 2 and d.makespan == 1


def test_density_t1_two_machines():
    inst = t1_instance(m=2)
    d = density(inst, Assignment(((0,), (1,))))
    assert d.covered == 3 and d.makespan == 1


def test_density_all_on_one_machine(t1):
    d = density(t1, Assignment(((0, 1, 2),)))
    assert d.covered == 3
    assert d.makespan == Fraction(4)


def test_density_empty_assignment(t1):
    with pytest.raises(EmptyAssignmentError):
        density(t1, Assignment.empty(1))


def test_density_ignores_what_is_no_element(t1):
    # -1 must not become bit -1 (a ValueError) nor 99 a bit past n; 1.0 and
    # True equal elements 1 and 1 of U, as they do in ``coverage``.
    asg = Assignment(((0, 1, 2),))
    assert density(t1, asg, {-1, 99, "a"}).covered == 0
    assert density(t1, asg, [1.0, True, -1, 2]).covered == 2
    with pytest.raises(TypeError):
        density(t1, asg, [[0]])
    with pytest.raises(TypeError):
        density(t1, asg, 3)


@st.composite
def restricted_assignments(draw):
    n, k, m = draw(st.integers(1, 9)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    sets = tuple(
        tuple(sorted(draw(st.frozensets(st.integers(0, n - 1), min_size=1)))) for _ in range(k)
    )
    costs = tuple(draw(st.integers(1, 4)) for _ in range(k))
    inst = ProblemInstance(n, sets, m, IdenticalCosts(costs))
    placed = draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True))
    per_machine = [[] for _ in range(m)]
    for s in placed:
        per_machine[draw(st.integers(0, m - 1))].append(s)
    element = st.integers(-3, n + 3) | st.sampled_from([1.0, True, Fraction(2), "a"])
    restrict = draw(st.none() | st.lists(element) | st.frozensets(st.integers(0, n - 1)))
    return inst, Assignment(per_machine), restrict


@settings(max_examples=300, deadline=None)
@given(case=restricted_assignments())
def test_density_counts_what_coverage_covers(case):
    inst, asg, restrict = case
    d = density(inst, asg, restrict)
    assert d.covered == len(coverage(inst, asg.all_sets(), restrict))
    loads = [sum(inst.cost(s, j) for s in seq) for j, seq in enumerate(asg.per_machine)]
    assert d.makespan == max(loads)


def test_density_cross_multiplication():
    assert DensityValue(2, 3) < DensityValue(3, 4)
    assert DensityValue(2, 4) == DensityValue(1, 2)
    assert DensityValue(5, 2) > DensityValue(7, 3)


def test_density_scale_covariance():
    """Scaling all costs by an integer factor divides density, keeps argmax."""
    lam = 3
    base = t1_instance(m=2)
    scaled = ProblemInstance(
        n=3,
        sets=base.sets,
        m=2,
        cost_model=IdenticalCosts(tuple(lam * c for c in (1, 1, 2))),
    )
    candidates = [
        Assignment(((0,), (1,))),
        Assignment(((2,), ())),
        Assignment(((0, 1), ())),
    ]
    base_vals = [density(base, a).as_fraction() for a in candidates]
    scaled_vals = [density(scaled, a).as_fraction() for a in candidates]
    assert scaled_vals == [v / lam for v in base_vals]
    assert base_vals.index(max(base_vals)) == scaled_vals.index(max(scaled_vals))


def test_permuting_within_machine_keeps_final_finish(fig1):
    for perm in permutations((0, 1, 4)):
        sched = Schedule((perm, (3, 5, 6), (2, 7)))
        _, times = evaluate_schedule_cost(fig1, sched)
        # the machine's total load is order-invariant
        last_finish = sum(fig1.cost(s, 0) for s in perm)
        assert last_finish == Fraction(7)


def test_cost_lower_bound_and_per_element_scan():
    """Total equals an independent per-element minimum scan."""
    inst = generate_instance(n=7, k=5, m=2, model="identical", density=0.5, seed=9)
    sched = Schedule(((0, 2, 4), (1, 3)))
    total, times = evaluate_schedule_cost(inst, sched)
    # independent evaluation: explicit finish times then per-element min
    finish = {}
    for j, seq in enumerate(sched.per_machine):
        t = Fraction(0)
        for s in seq:
            t += inst.cost(s, j)
            finish[s] = t
    expected = []
    for u in range(inst.n):
        best = min(finish[s] for s in finish if u in frozenset(inst.sets[s]))
        expected.append(best)
    assert list(times) == expected
    assert total == sum(expected)
    min_first = min(inst.cost(seq[0], j) for j, seq in enumerate(sched.per_machine) if seq)
    assert total >= inst.n * min_first


def test_validate_instance_fig1(fig1):
    report = validate_instance(fig1)
    assert report.coverable and report.valid
    assert report.uncovered_elements == ()


def test_validate_uncoverable_names_element():
    inst = ProblemInstance(n=2, sets=((0,),), m=1, cost_model=UnitCosts())
    report = validate_instance(inst)
    assert not report.coverable
    assert report.uncovered_elements == (1,)


def test_validate_cyclic_dag():
    inst = ProblemInstance(
        n=1, sets=((0,), (0,)), m=1, cost_model=UnitCosts(), dag=((0, 1), (1, 0))
    )
    report = validate_instance(inst)
    assert report.dag_acyclic is False
    assert any("CyclicDag" in e for e in report.entries)
    assert not report.valid


@pytest.mark.parametrize("bad", [0, -1, Fraction(-1, 2), -0.5])
def test_cost_models_reject_nonpositive_entries(bad):
    # so no instance holds a cost that validate_instance would have to report
    for build in (
        lambda: IdenticalCosts((1, bad)),
        lambda: RelatedCosts((1, bad), (1,)),
        lambda: RelatedCosts((1,), (1, bad)),
        lambda: UnrelatedCosts(((1, INFINITE_COST), (bad, 1))),
    ):
        with pytest.raises(ValueError, match="must be positive"):
            build()


def test_infinite_cost_rejected_in_schedule():
    inst = ProblemInstance(
        n=1,
        sets=((0,), (0,)),
        m=1,
        cost_model=UnrelatedCosts(((INFINITE_COST,), (Fraction(1),))),
    )
    with pytest.raises(InfiniteCostError):
        evaluate_schedule_cost(inst, Schedule(((0,),)))
    total, _ = evaluate_schedule_cost(inst, Schedule(((1,),)))
    assert total == 1


def test_element_out_of_range_rejected():
    with pytest.raises(InvalidIndexError):
        ProblemInstance(n=2, sets=((0, 2),), m=1, cost_model=UnitCosts())


def test_out_of_range_error_names_the_smallest_bad_element():
    # Set 1 holds both -1 and n; the message names the smaller, whatever the order.
    for members, bad in (((3, 0, -1), -1), ((-1, 3), -1), ((4, 0, 3), 3), ((-5, 2, -2), -5)):
        with pytest.raises(InvalidIndexError) as err:
            ProblemInstance(n=3, sets=((0,), members), m=1, cost_model=UnitCosts())
        assert str(err.value) == "set 1 contains element %d outside [0, 3)" % bad


# Indices are read with ``operator.index``: floats, strings and bools are
# rejected, not truncated, parsed or read as 0 and 1, while Python and NumPy
# integers are taken.


def test_set_elements_must_be_integers():
    for members in ((1.7, 2), ("2",), (0.0,), (True,)):
        with pytest.raises(TypeError):
            ProblemInstance(n=3, sets=(members, (1,)), m=1, cost_model=UnitCosts())
    inst = ProblemInstance(n=3, sets=((np.int64(2), 0),), m=1, cost_model=UnitCosts())
    assert inst.sets == ((0, 2),) and type(inst.sets[0][1]) is int


def test_dag_edge_ends_must_be_integers():
    for edge in ((0.9, "0"), (0, 1.0), ("0", 1), (False, True)):
        with pytest.raises(TypeError):
            ProblemInstance(n=1, sets=((0,), (0,)), m=1, cost_model=UnitCosts(), dag=(edge,))
    inst = ProblemInstance(
        n=1, sets=((0,), (0,)), m=1, cost_model=UnitCosts(), dag=((np.int32(0), 1),)
    )
    assert inst.dag == ((0, 1),)


def test_assigned_set_indices_must_be_integers():
    for build in (Assignment, Schedule):
        with pytest.raises(TypeError):
            build(((1.5,),))
        with pytest.raises(TypeError):
            build(((0,), ("1",)))
        with pytest.raises(TypeError):
            build(((True,),))
        assert build(((np.int64(1),), (0,))).per_machine == ((1,), (0,))


def test_coverage_set_indices_must_be_integers(t1):
    for family in ([1.5], ["0"], [True]):
        with pytest.raises(TypeError):
            coverage(t1, family)
    assert coverage(t1, [np.int64(1)]) == frozenset({2})


def former_cost(model, s, j):
    """The per-model ``cost`` methods that the cost table replaced."""
    if model.kind == "unit":
        return Fraction(1)
    if model.kind == "identical":
        return model.base_costs[s]
    if model.kind == "related":
        return model.base_costs[s] / model.speeds[j]
    return model.matrix[s][j]


@st.composite
def cost_models(draw):
    k = draw(st.integers(0, 5))
    m = draw(st.integers(1, 4))
    rational = st.builds(Fraction, st.integers(1, 30), st.integers(1, 7))
    positive = st.integers(1, 9) | rational
    kind = draw(st.sampled_from(["unit", "identical", "related", "unrelated"]))
    if kind == "unit":
        model = UnitCosts()
    elif kind == "identical":
        model = IdenticalCosts(tuple(draw(positive) for _ in range(k)))
    elif kind == "related":
        model = RelatedCosts(
            tuple(draw(positive) for _ in range(k)), tuple(draw(positive) for _ in range(m))
        )
    else:
        entry = positive | st.just(INFINITE_COST)
        model = UnrelatedCosts(tuple(tuple(draw(entry) for _ in range(m)) for _ in range(k)))
    return ProblemInstance(n=1, sets=((0,),) * k, m=m, cost_model=model)


@settings(max_examples=300, deadline=None)
@given(inst=cost_models(), blank=st.frozensets(st.integers(0, 4)))
def test_finite_row_icosts_match_a_direct_scan(inst, blank):
    if inst.cost_model.kind == "unrelated":
        # the rows in ``blank`` have no finite cost at all
        matrix = tuple(
            (INFINITE_COST,) * inst.m if s in blank else row for s, row in enumerate(inst.costs)
        )
        inst = ProblemInstance(n=1, sets=inst.sets, m=inst.m, cost_model=UnrelatedCosts(matrix))
    assert len(inst.finite_row_icosts) == inst.k
    assert inst.finite_row_icosts is inst.finite_row_icosts
    for row, stats in zip(inst.costs, inst.finite_row_icosts):
        finite = [c for c in row if c != INFINITE_COST]
        if not finite:
            assert stats is None
            continue
        least, total = stats
        assert type(least) is int and type(total) is int
        assert Fraction(least, inst.scale) == min(finite)
        assert Fraction(total, inst.scale) == sum(finite)


@settings(max_examples=300, deadline=None)
@given(inst=cost_models())
def test_cost_table_matches_former_per_model_costs(inst):
    assert len(inst.costs) == inst.k
    for s, row in enumerate(inst.costs):
        assert len(row) == inst.m
        for j, c in enumerate(row):
            expected = former_cost(inst.cost_model, s, j)
            assert c == expected and type(c) is type(expected)
            assert inst.cost(s, j) is c
