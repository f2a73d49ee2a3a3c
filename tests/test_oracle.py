from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import t1_instance
from pmssc.core import (
    INFINITE_COST,
    Assignment,
    DensityValue,
    IdenticalCosts,
    ProblemInstance,
    Schedule,
    UnitCosts,
    UnrelatedCosts,
    as_fraction,
    evaluate_schedule_cost,
    is_finite_cost,
)
from pmssc.errors import LimitsExceededError, NoCoverageError
from pmssc.fileio import generate_instance
from pmssc.oracle import (
    SUBSET_LIMITS,
    OracleLimits,
    _Budget,
    _check_limits,
    exact_pds,
    exact_pds_precedence,
    exact_pmc,
    exact_pmssc,
)


def brute_force_pmssc(inst):
    """Unpruned enumeration over subsets, labelings and per-machine orders."""
    universe = set(range(inst.n))
    best = None
    for mask in range(1, 1 << inst.k):
        chosen = [s for s in range(inst.k) if mask >> s & 1]
        covered = set()
        for s in chosen:
            covered |= inst.members[s]
        if covered != universe:
            continue
        for labels in product(range(inst.m), repeat=len(chosen)):
            per = [[] for _ in range(inst.m)]
            for s, j in zip(chosen, labels):
                per[j].append(s)
            for orders in product(*[permutations(seq) for seq in per]):
                cost = evaluate_schedule_cost(
                    inst, Schedule(tuple(tuple(o) for o in orders))
                )[0]
                if best is None or cost < best:
                    best = cost
    return best


def test_exact_pmssc_t1():
    inst = t1_instance(m=1)
    sched, cost = exact_pmssc(inst)
    assert cost == 4
    assert sched.per_machine == ((0, 1),)


def test_exact_pmssc_single_set():
    inst = ProblemInstance(
        n=5, sets=((0, 1, 2, 3, 4),), m=2, cost_model=IdenticalCosts((Fraction(3),))
    )
    _, cost = exact_pmssc(inst)
    assert cost == 3 * 5


def test_exact_pmssc_disjoint_halves_run_parallel():
    inst = ProblemInstance(
        n=4, sets=((0, 1), (2, 3)), m=2, cost_model=IdenticalCosts((2, 2))
    )
    sched, cost = exact_pmssc(inst)
    assert cost == 4 * 2
    assert all(len(seq) == 1 for seq in sched.per_machine)


def test_exact_pmssc_matches_unpruned_enumeration():
    for seed in range(20):
        inst = generate_instance(
            n=4 + seed % 3, k=3 + seed % 2, m=1 + seed % 2,
            model="identical", density=0.4, seed=seed, max_cost=3,
        )
        assert exact_pmssc(inst)[1] == brute_force_pmssc(inst)


def brute_force_pds(inst):
    """Unpruned labeling enumeration for the density oracle."""
    best = None
    for labels in product(range(inst.m + 1), repeat=inst.k):
        loads = [Fraction(0)] * inst.m
        covered = set()
        empty = True
        feasible = True
        for s, lab in enumerate(labels):
            if lab == 0:
                continue
            c = inst.cost(s, lab - 1)
            if c == float("inf"):
                feasible = False
                break
            empty = False
            loads[lab - 1] += c
            covered |= inst.members[s]
        if not feasible or empty:
            continue
        value = Fraction(len(covered)) / max(loads)
        if best is None or value > best:
            best = value
    return best


def test_exact_pds_matches_unpruned_enumeration():
    for seed in range(25):
        inst = generate_instance(
            n=4 + seed % 4, k=3 + seed % 3, m=1 + seed % 2,
            model="identical" if seed % 2 else "unrelated",
            density=0.4, seed=40_000 + seed, max_cost=3,
        )
        _, mine = exact_pds(inst)
        assert mine.as_fraction() == brute_force_pds(inst)


def brute_force_pmc(inst, budgets):
    best = 0
    for labels in product(range(inst.m + 1), repeat=inst.k):
        loads = [Fraction(0)] * inst.m
        covered = set()
        feasible = True
        for s, lab in enumerate(labels):
            if lab == 0:
                continue
            c = inst.cost(s, lab - 1)
            if c == float("inf"):
                feasible = False
                break
            loads[lab - 1] += c
            covered |= inst.members[s]
        if feasible and all(l <= b for l, b in zip(loads, budgets)):
            best = max(best, len(covered))
    return best


def test_exact_pmc_matches_unpruned_enumeration():
    for seed in range(25):
        inst = generate_instance(
            n=4 + seed % 4, k=3 + seed % 3, m=1 + seed % 2,
            model="identical" if seed % 2 else "unrelated",
            density=0.4, seed=41_000 + seed, max_cost=3,
        )
        budgets = [Fraction(1 + seed % 4)] * inst.m
        _, mine = exact_pmc(inst, budgets)
        assert mine == brute_force_pmc(inst, budgets)


def test_exact_pmssc_is_a_lower_bound():
    for seed in range(15):
        inst = generate_instance(
            n=5, k=4, m=2, model="identical", density=0.45, seed=8000 + seed
        )
        _, opt = exact_pmssc(inst)
        # any hand-rolled full schedule we can build costs at least the optimum
        every = Schedule((tuple(range(0, inst.k, 2)), tuple(range(1, inst.k, 2))))
        assert evaluate_schedule_cost(inst, every)[0] >= opt


def test_exact_pmssc_limits():
    inst = generate_instance(n=8, k=8, m=2, model="identical", density=0.4, seed=1)
    with pytest.raises(LimitsExceededError):
        exact_pmssc(inst)  # default limit is k <= 6


def test_exact_pds_t1():
    inst = t1_instance(m=1)
    asg, d = exact_pds(inst)
    assert d.covered == 2 and d.makespan == 1
    assert asg.per_machine == ((0,),)  # ties break toward fewer sets


def test_exact_pds_t1_two_machines():
    inst = t1_instance(m=2)
    _, d = exact_pds(inst)
    assert d.as_fraction() == 3


def test_exact_pds_no_coverage():
    inst = ProblemInstance(n=2, sets=((), ()), m=1, cost_model=UnitCosts())
    with pytest.raises(NoCoverageError):
        exact_pds(inst)


def test_exact_pds_dominates_heuristics():
    from pmssc.core import density
    from pmssc.pds import pds_identical

    for seed in range(15):
        inst = generate_instance(
            n=6, k=5, m=2, model="identical", density=0.4, seed=9000 + seed
        )
        remaining = frozenset(range(inst.n))
        _, opt = exact_pds(inst, remaining)
        heur = density(inst, pds_identical(inst, remaining, 0.1), remaining)
        assert opt >= heur


def test_exact_pmc_t1():
    inst = t1_instance(m=1)
    _, covered = exact_pmc(inst, [2])
    assert covered == 3


def test_exact_pmc_zero_budget():
    inst = t1_instance(m=1)
    asg, covered = exact_pmc(inst, [0])
    assert covered == 0 and asg.is_empty


def test_exact_pmc_ample_budget():
    inst = t1_instance(m=1)
    _, covered = exact_pmc(inst, [100])
    assert covered == 3


def test_exact_pds_precedence_empty_dag_matches_exact_pds():
    for seed in range(10):
        inst = generate_instance(
            n=5, k=5, m=2, model="unit", density=0.4, seed=10_000 + seed,
            dag_edge_prob=0.0,
        )
        _, with_dag = exact_pds_precedence(inst)
        _, plain = exact_pds(inst)
        assert with_dag == plain


def test_exact_pds_precedence_chain():
    inst = ProblemInstance(
        n=4, sets=((), (0, 1, 2, 3)), m=1, cost_model=UnitCosts(), dag=((0, 1),)
    )
    _, d = exact_pds_precedence(inst)
    assert d.covered == 4 and d.makespan == 2


def test_exact_pds_precedence_diamond():
    inst = ProblemInstance(
        n=4,
        sets=((), (), (), (0, 1, 2, 3)),
        m=2,
        cost_model=UnitCosts(),
        dag=((0, 1), (0, 2), (1, 3), (2, 3)),
    )
    _, d = exact_pds_precedence(inst)
    assert d.covered == 4 and d.makespan == 3


def test_oracle_determinism():
    inst = generate_instance(n=6, k=5, m=2, model="identical", density=0.4, seed=123)
    assert exact_pmssc(inst) == exact_pmssc(inst)
    assert exact_pds(inst) == exact_pds(inst)
    assert exact_pmc(inst, [2, 2]) == exact_pmc(inst, [2, 2])


# Verbatim copies of the two searches before they shared one labelling DFS;
# the differential test below holds the shared search to them.


def former_exact_pds(
    inst: ProblemInstance,
    remaining: Optional[Iterable[int]] = None,
    limits: Optional[OracleLimits] = None,
    available: Optional[Iterable[int]] = None,
) -> Tuple[Assignment, DensityValue]:
    """Max-density assignment by labeling every set unused or with a machine."""
    limits = limits or SUBSET_LIMITS
    restrict = frozenset(range(inst.n)) if remaining is None else frozenset(remaining)
    pool = range(inst.k) if available is None else sorted(available)
    useful = [s for s in pool if inst.members[s] & restrict]
    if not useful:
        raise NoCoverageError("no set covers any remaining element")
    _check_limits(inst, limits, len(useful))
    budget = _Budget(limits.node_budget)
    m = inst.m

    masks = {}
    for s in useful:
        mask = 0
        for u in inst.members[s] & restrict:
            mask |= 1 << u
        masks[s] = mask
    # suffix_union[i] = coverage still reachable from sets useful[i:]
    suffix_union = [0] * (len(useful) + 1)
    for i in range(len(useful) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[useful[i]]

    best = {"density": None, "count": None, "labels": None}

    loads = [Fraction(0)] * m
    labels = {}

    def consider_leaf():
        if not labels:
            return
        makespan = max(loads)
        covered_mask = 0
        for s, j in labels.items():
            covered_mask |= masks[s]
        cand = DensityValue(covered_mask.bit_count(), makespan)
        count = len(labels)
        if (
            best["density"] is None
            or cand > best["density"]
            or (cand == best["density"] and count < best["count"])
        ):
            best["density"] = cand
            best["count"] = count
            best["labels"] = dict(labels)

    def dfs(idx, covered_mask):
        budget.spend()
        if best["density"] is not None and labels:
            makespan = max(loads)
            if makespan > 0:
                # future sets can only add coverage and grow the makespan
                optimistic = DensityValue(
                    (covered_mask | suffix_union[idx]).bit_count(), makespan
                )
                if optimistic < best["density"]:
                    return
        if idx == len(useful):
            consider_leaf()
            return
        s = useful[idx]
        dfs(idx + 1, covered_mask)  # leave s unused
        for j in range(m):
            c = inst.cost(s, j)
            if not is_finite_cost(c):
                continue
            loads[j] += c
            labels[s] = j
            dfs(idx + 1, covered_mask | masks[s])
            del labels[s]
            loads[j] -= c
    dfs(0, 0)

    if best["density"] is None:
        raise NoCoverageError("no nonempty finite-cost assignment exists")
    per_machine = [[] for _ in range(m)]
    for s in sorted(best["labels"]):
        per_machine[best["labels"][s]].append(s)
    return Assignment(tuple(tuple(x) for x in per_machine)), best["density"]


def former_exact_pmc(
    inst: ProblemInstance,
    budgets,
    limits: Optional[OracleLimits] = None,
    available: Optional[Iterable[int]] = None,
) -> Tuple[Assignment, int]:
    """Max coverage over budget-feasible machine assignments."""
    limits = limits or SUBSET_LIMITS
    pool = range(inst.k) if available is None else sorted(available)
    useful = [s for s in pool if inst.members[s]]
    _check_limits(inst, limits, len(useful))
    caps = [as_fraction(b) for b in budgets]
    if len(caps) != inst.m:
        raise ValueError("need one budget per machine")
    budget = _Budget(limits.node_budget)
    m = inst.m

    masks = {s: 0 for s in useful}
    for s in useful:
        for u in inst.members[s]:
            masks[s] |= 1 << u
    suffix_union = [0] * (len(useful) + 1)
    for i in range(len(useful) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[useful[i]]

    best = {"covered": 0, "count": 0, "labels": {}}
    loads = [Fraction(0)] * m
    labels = {}

    def dfs(idx, covered_mask):
        budget.spend()
        possible = (covered_mask | suffix_union[idx]).bit_count()
        if possible < best["covered"]:
            return
        if idx == len(useful):
            covered = covered_mask.bit_count()
            count = len(labels)
            if covered > best["covered"] or (
                covered == best["covered"] and best["labels"] and count < best["count"]
            ):
                best["covered"] = covered
                best["count"] = count
                best["labels"] = dict(labels)
            return
        s = useful[idx]
        dfs(idx + 1, covered_mask)
        for j in range(m):
            c = inst.cost(s, j)
            if not is_finite_cost(c) or loads[j] + c > caps[j]:
                continue
            loads[j] += c
            labels[s] = j
            dfs(idx + 1, covered_mask | masks[s])
            del labels[s]
            loads[j] -= c

    dfs(0, 0)
    per_machine = [[] for _ in range(m)]
    for s in sorted(best["labels"]):
        per_machine[best["labels"][s]].append(s)
    return Assignment(tuple(tuple(x) for x in per_machine)), best["covered"]


@st.composite
def label_cases(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    element = st.integers(0, n - 1)
    sets = tuple(tuple(sorted(draw(st.frozensets(element, max_size=n)))) for _ in range(k))
    if draw(st.booleans()):
        cost = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))
        model = IdenticalCosts(tuple(draw(cost) for _ in range(k)))
    else:
        entry = st.sampled_from([1, 2, 3, Fraction(3, 2), INFINITE_COST])
        model = UnrelatedCosts(tuple(tuple(draw(entry) for _ in range(m)) for _ in range(k)))
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=model)
    remaining = draw(st.none() | st.frozensets(element))
    available = draw(st.none() | st.frozensets(st.integers(0, k - 1)))
    budgets = [Fraction(draw(st.integers(0, 8)), 2) for _ in range(m)]
    # small node budgets stop both searches part-way, at the same node
    nodes = draw(st.integers(1, 400) | st.just(SUBSET_LIMITS.node_budget))
    limits = OracleLimits(max_k=12, max_m=3, max_n=64, node_budget=nodes)
    return inst, remaining, available, budgets, limits


def _outcome(solve):
    try:
        return solve()
    except (LimitsExceededError, NoCoverageError) as err:
        return (type(err), str(err))


@settings(max_examples=400, deadline=None)
@given(case=label_cases())
def test_label_search_matches_former_searches(case):
    inst, remaining, available, budgets, limits = case
    assert _outcome(lambda: exact_pds(inst, remaining, limits, available)) == _outcome(
        lambda: former_exact_pds(inst, remaining, limits, available)
    )
    assert _outcome(lambda: exact_pmc(inst, budgets, limits, available)) == _outcome(
        lambda: former_exact_pmc(inst, budgets, limits, available)
    )
