from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NOT_INDICES, t1_instance
from pmssc.core import (
    INFINITE_COST,
    Assignment,
    DensityValue,
    IdenticalCosts,
    ProblemInstance,
    RelatedCosts,
    Schedule,
    UnitCosts,
    UnrelatedCosts,
    as_fraction,
    evaluate_schedule_cost,
    topological_order,
    validate_instance,
)
from pmssc.errors import (
    DomainError,
    InfiniteCostError,
    InvalidIndexError,
    InvariantError,
    LimitsExceededError,
    NoCoverageError,
    UncoverableError,
)
from pmssc.fileio import generate_instance
from pmssc.oracle import (
    PMSSC_LIMITS,
    PRECEDENCE_LIMITS,
    SUBSET_LIMITS,
    OracleLimits,
    _Budget,
    _check_limits,
    _greedy_upper_bound,
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
            covered |= frozenset(inst.sets[s])
        if covered != universe:
            continue
        for labels in product(range(inst.m), repeat=len(chosen)):
            per = [[] for _ in range(inst.m)]
            for s, j in zip(chosen, labels):
                per[j].append(s)
            for orders in product(*[permutations(seq) for seq in per]):
                try:
                    cost = evaluate_schedule_cost(
                        inst, Schedule(tuple(tuple(o) for o in orders))
                    )[0]
                except InfiniteCostError:
                    continue
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
    for model, seed in product(["unit", "identical", "related", "unrelated"], range(20)):
        inst = generate_instance(
            n=4 + seed % 3, k=3 + seed % 2, m=1 + seed % 2,
            model=model, density=0.4, seed=seed, max_cost=3,
        )
        assert exact_pmssc(inst)[1] == brute_force_pmssc(inst), (model, seed)


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
            covered |= frozenset(inst.sets[s])
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
            covered |= frozenset(inst.sets[s])
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


def test_exact_pmc_rejects_negative_budgets():
    inst = generate_instance(n=6, k=4, m=2, model="identical", density=0.4, seed=1)
    with pytest.raises(DomainError, match="budgets must be nonnegative"):
        exact_pmc(inst, [-1, 2])


def test_exact_oracles_check_available_like_the_pds_solvers():
    inst = generate_instance(n=6, k=4, m=2, model="unrelated", density=0.4, seed=2)
    everything, budgets = frozenset(range(inst.n)), [2, 3]
    for available in ([7], [4], [-2], [0, -1]):
        with pytest.raises(InvalidIndexError, match=r"^available set -?\d+ outside \[0, 4\)$"):
            exact_pds(inst, everything, available=available)
        with pytest.raises(InvalidIndexError, match=r"^available set -?\d+ outside \[0, 4\)$"):
            exact_pmc(inst, budgets, available=available)
    assert exact_pds(inst, everything, available=[0, 0, 1, 2]) == exact_pds(
        inst, everything, available=[0, 1, 2]
    )
    assert exact_pmc(inst, budgets, available=[0, 0, 1, 2]) == exact_pmc(
        inst, budgets, available=[0, 1, 2]
    )
    for bad, message in NOT_INDICES:
        with pytest.raises(TypeError, match=message):
            exact_pds(inst, everything, available=[0, bad])
        with pytest.raises(TypeError, match=message):
            exact_pmc(inst, budgets, available=[0, bad])
    assert exact_pmc(inst, budgets, available=np.arange(3)) == exact_pmc(
        inst, budgets, available=[0, 1, 2]
    )


def test_exact_pds_checks_remaining_like_the_pds_solvers():
    inst = generate_instance(n=6, k=4, m=2, model="unrelated", density=0.4, seed=2)
    for remaining in ({-1, 0}, {6}, set(range(6)) | {9}):
        with pytest.raises(InvalidIndexError, match=r"^remaining element -?\d+ outside \[0, 6\)$"):
            exact_pds(inst, remaining)
    for bad, message in NOT_INDICES:
        with pytest.raises(TypeError, match=message):
            exact_pds(inst, [0, bad])
    assert exact_pds(inst, np.arange(6)) == exact_pds(inst, range(6))


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
# the differential test below holds the shared search to them. Their rational
# makespans enter ``DensityValue`` as an int load at a scale, via
# ``fraction_density``.


def fraction_density(covered: int, makespan) -> DensityValue:
    """``covered / makespan`` for a rational makespan p/q: load p at scale q."""
    makespan = Fraction(makespan)
    return DensityValue(covered, makespan.numerator, makespan.denominator)


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
    useful = [s for s in pool if frozenset(inst.sets[s]) & restrict]
    if not useful:
        raise NoCoverageError("no set covers any remaining element")
    _check_limits(inst, limits, len(useful))
    budget = _Budget(limits.node_budget)
    m = inst.m

    masks = {}
    for s in useful:
        mask = 0
        for u in frozenset(inst.sets[s]) & restrict:
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
        cand = fraction_density(covered_mask.bit_count(), makespan)
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
                optimistic = fraction_density(
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
            if c == INFINITE_COST:
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
    useful = [s for s in pool if frozenset(inst.sets[s])]
    _check_limits(inst, limits, len(useful))
    caps = [as_fraction(b) for b in budgets]
    if len(caps) != inst.m:
        raise ValueError("need one budget per machine")
    budget = _Budget(limits.node_budget)
    m = inst.m

    masks = {s: 0 for s in useful}
    for s in useful:
        for u in frozenset(inst.sets[s]):
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
            if c == INFINITE_COST or loads[j] + c > caps[j]:
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


# Verbatim copy of the precedence oracle from before its DP kept its own
# argmin batch and its predecessor closure became one pass in topological
# order; the differential test below holds the current oracle to it.


def former_exact_pds_precedence(
    inst: ProblemInstance,
    dag: Optional[Tuple[Tuple[int, int], ...]] = None,
    limits: Optional[OracleLimits] = None,
    remaining: Optional[Iterable[int]] = None,
) -> Tuple[Assignment, DensityValue]:
    """Densest precedence-closed family, unit costs.

    For every downward-closed family the minimum makespan is computed by a
    subset DP over slots; taking a full min(m, available) batch per slot is
    optimal for unit jobs (filling an idle slot never hurts).
    """
    limits = limits or PRECEDENCE_LIMITS
    if inst.cost_model.kind != "unit":
        raise ValueError("precedence oracle requires the unit cost model")
    edges = inst.dag if dag is None else tuple(dag)
    if edges is None:
        edges = ()
    k, m = inst.k, inst.m
    _check_limits(inst, limits, k)
    topological_order(k, edges)  # raises on cycles
    restrict = frozenset(range(inst.n)) if remaining is None else frozenset(remaining)
    if not any(frozenset(inst.sets[s]) & restrict for s in range(k)):
        raise NoCoverageError("no set covers any remaining element")
    budget = _Budget(limits.node_budget)

    pred_mask = [0] * k
    for a, b in edges:
        pred_mask[b] |= 1 << a
    # transitive closure of predecessors
    changed = True
    while changed:
        changed = False
        for s in range(k):
            extra = 0
            mm = pred_mask[s]
            while mm:
                low = mm & -mm
                p = low.bit_length() - 1
                extra |= pred_mask[p]
                mm ^= low
            if extra & ~pred_mask[s]:
                pred_mask[s] |= extra
                changed = True

    cover_mask = [0] * k
    for s in range(k):
        for u in frozenset(inst.sets[s]) & restrict:
            cover_mask[s] |= 1 << u

    def min_makespan(family_mask):
        memo = {family_mask: 0}
        frontier = None

        def rec(done):
            budget.spend()
            if done in memo:
                return memo[done]
            avail = []
            for s in range(k):
                bit = 1 << s
                if family_mask & bit and not done & bit and pred_mask[s] & family_mask & ~done == 0:
                    avail.append(s)
            width = min(m, len(avail))
            best_slots = None
            for batch in combinations(avail, width):
                nd = done
                for s in batch:
                    nd |= 1 << s
                slots = 1 + rec(nd)
                if best_slots is None or slots < best_slots:
                    best_slots = slots
            memo[done] = best_slots
            return best_slots

        return rec(0), memo

    best = None  # (DensityValue, set count, family mask, schedule)
    for family_mask in range(1, 1 << k):
        closed = True
        mm = family_mask
        while mm:
            low = mm & -mm
            s = low.bit_length() - 1
            if pred_mask[s] & ~family_mask:
                closed = False
                break
            mm ^= low
        if not closed:
            continue
        covered = 0
        mm = family_mask
        while mm:
            low = mm & -mm
            covered |= cover_mask[low.bit_length() - 1]
            mm ^= low
        makespan, memo = min_makespan(family_mask)
        cand = fraction_density(covered.bit_count(), makespan)
        count = family_mask.bit_count()
        if best is None or cand > best[0] or (cand == best[0] and count < best[1]):
            # rebuild one optimal slot sequence from the DP table
            schedule = former_extract_slots(family_mask, memo, pred_mask, k, m)
            best = (cand, count, family_mask, schedule)

    # the full family is always closed and covers something by the pre-check
    if best is None or best[0].covered == 0:
        raise InvariantError("no closed family covers a remaining element")
    per_machine = [[] for _ in range(m)]
    for batch in best[3]:
        for q, s in enumerate(sorted(batch)):
            per_machine[q % m].append(s)
    return Assignment(tuple(tuple(x) for x in per_machine)), best[0]


def former_extract_slots(family_mask, memo, pred_mask, k, m):
    done = 0
    slots = []
    while done != family_mask:
        avail = []
        for s in range(k):
            bit = 1 << s
            if family_mask & bit and not done & bit and pred_mask[s] & family_mask & ~done == 0:
                avail.append(s)
        width = min(m, len(avail))
        target = memo[done]
        picked = None
        for batch in combinations(avail, width):
            nd = done
            for s in batch:
                nd |= 1 << s
            if memo.get(nd) == target - 1:
                picked = batch
                break
        if picked is None:
            raise InvariantError("no slot batch reaches the memoised makespan")
        slots.append(picked)
        for s in picked:
            done |= 1 << s
    return slots


@st.composite
def precedence_cases(draw):
    n = draw(st.integers(1, 8))
    inst = generate_instance(
        n=n, k=draw(st.integers(1, 8)), m=draw(st.integers(1, 3)), model="unit",
        density=draw(st.sampled_from([0.2, 0.4, 0.7])),
        seed=draw(st.integers(0, 2**32 - 1)),
        dag_edge_prob=draw(st.sampled_from([0.0, 0.2, 0.4, 0.7])),
    )
    remaining = draw(st.none() | st.frozensets(st.integers(0, n - 1)))
    # small node budgets stop both searches part-way, at the same node
    nodes = draw(st.integers(1, 5000) | st.just(PRECEDENCE_LIMITS.node_budget))
    limits = OracleLimits(max_k=10, max_m=3, max_n=64, node_budget=nodes)
    return inst, remaining, limits


# Only the sink covers, so the winner is the whole diamond, and with one machine
# both middle sets reach the optimum in the second slot: the first one wins.
DIAMOND_ONE_MACHINE = ProblemInstance(
    n=2, sets=((), (), (), (0, 1)), m=1, cost_model=UnitCosts(),
    dag=((0, 1), (0, 2), (1, 3), (2, 3)),
)


@settings(max_examples=300, deadline=None)
@given(case=precedence_cases())
@example(case=(DIAMOND_ONE_MACHINE, None, PRECEDENCE_LIMITS))
def test_exact_pds_precedence_matches_former_oracle(case):
    inst, remaining, limits = case
    assert _outcome(
        lambda: exact_pds_precedence(inst, limits=limits, remaining=remaining)
    ) == _outcome(
        lambda: former_exact_pds_precedence(inst, limits=limits, remaining=remaining)
    )


# Verbatim copy of the min-sum branch-and-bound from before its nodes took
# loads, open machines, unused sets and covering times as values (a shared
# state dict with an undo log and a running cost); the differential test
# below holds the current search to the same tree, schedule and cost.


def former_exact_pmssc(
    inst: ProblemInstance, limits: Optional[OracleLimits] = None
) -> Tuple[Schedule, Fraction]:
    """Minimum-cost schedule by branch-and-bound; exact on small instances."""
    limits = limits or PMSSC_LIMITS
    report = validate_instance(inst)
    if not report.coverable:
        raise UncoverableError("universe is not coverable")
    useful = [s for s in range(inst.k) if frozenset(inst.sets[s])]
    _check_limits(inst, limits, len(useful))
    budget = _Budget(limits.node_budget)

    # integral costs as ints: the same exact values without Fraction overhead
    costs = [
        [None if c == INFINITE_COST else int(c) if c.denominator == 1 else c for c in row]
        for row in inst.costs
    ]
    containing = [
        [s for s in useful if u in frozenset(inst.sets[s])] for u in range(inst.n)
    ]

    incumbent_sched = _greedy_upper_bound(inst, useful, inst.masks, costs)
    if incumbent_sched is None:
        raise UncoverableError("no finite-cost covering exists")
    incumbent_cost = evaluate_schedule_cost(inst, incumbent_sched)[0]

    m = inst.m
    n = inst.n
    state = {
        "loads": [0] * m,
        "closed": [False] * m,
        "sequences": [[] for _ in range(m)],
        "used": set(),
        "ct": [None] * n,  # current covering time (running minimum)
        "partial": 0,
        "best_sched": incumbent_sched,
        "best_cost": incumbent_cost,
    }

    def lower_bound():
        loads = state["loads"]
        closed = state["closed"]
        used = state["used"]
        ct = state["ct"]
        # earliest finish of each unused set on an open machine
        open_machines = [j for j in range(m) if not closed[j]]
        earliest = [None] * inst.k
        for s in useful:
            if s in used:
                continue
            best = None
            for j in open_machines:
                if costs[s][j] is not None:
                    t = loads[j] + costs[s][j]
                    if best is None or t < best:
                        best = t
            earliest[s] = best
        total = 0
        for u in range(n):
            here = ct[u]
            future = None
            for s in containing[u]:
                t = earliest[s]
                if t is not None and (future is None or t < future):
                    future = t
            if here is None:
                if future is None:
                    return None  # element unreachable: dead branch
                total += future
            else:
                total += here if future is None or here <= future else future
        return total

    def dfs():
        budget.spend()
        lb = lower_bound()
        if lb is None or lb >= state["best_cost"]:
            return
        if all(t is not None for t in state["ct"]):
            # A full cover: lb above equals the realizable cost of stopping now.
            cost_now = state["partial"]
            if cost_now < state["best_cost"]:
                state["best_cost"] = cost_now
                state["best_sched"] = Schedule(
                    tuple(tuple(seq) for seq in state["sequences"])
                )
            # continuing can still lower covering times via cheap later sets
        open_machines = [j for j in range(m) if not state["closed"][j]]
        if not open_machines:
            return
        j = min(open_machines, key=lambda q: (state["loads"][q], q))

        # append a set that covers something new or improves a covering
        # time at its finish position (most promising first, so the
        # incumbent tightens early)
        candidates = []
        for s in useful:
            if s in state["used"] or costs[s][j] is None:
                continue
            finish = state["loads"][j] + costs[s][j]
            gain = 0
            improves = False
            for u in frozenset(inst.sets[s]):
                if state["ct"][u] is None:
                    gain += 1
                elif finish < state["ct"][u]:
                    improves = True
            if gain == 0 and not improves:
                continue
            candidates.append((-Fraction(gain) / finish, s, finish))
        candidates.sort()
        for _, s, finish in candidates:
            undo = []
            for u in frozenset(inst.sets[s]):
                old = state["ct"][u]
                if old is None:
                    state["ct"][u] = finish
                    state["partial"] += finish
                    undo.append((u, old))
                elif finish < old:
                    state["ct"][u] = finish
                    state["partial"] -= old - finish
                    undo.append((u, old))
            state["loads"][j] += costs[s][j]
            state["sequences"][j].append(s)
            state["used"].add(s)
            dfs()
            state["used"].discard(s)
            state["sequences"][j].pop()
            state["loads"][j] -= costs[s][j]
            for u, old in undo:
                if old is None:
                    state["partial"] -= state["ct"][u]
                else:
                    state["partial"] += old - state["ct"][u]
                state["ct"][u] = old

        # lastly: close machine j forever
        state["closed"][j] = True
        dfs()
        state["closed"][j] = False

    dfs()
    best_cost, checked = state["best_cost"], state["best_sched"]
    verified = evaluate_schedule_cost(inst, checked)[0]
    if verified != best_cost:
        raise InvariantError("schedule re-evaluates to %s, not %s" % (verified, best_cost))
    return checked, Fraction(best_cost)


@st.composite
def pmssc_cases(draw):
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    sets = [{u for u in range(n) if draw(st.booleans())} for _ in range(k)]
    for u in set(range(n)).difference(*sets):  # coverable, like the generator
        sets[draw(st.integers(0, k - 1))].add(u)
    sets = tuple(tuple(sorted(members)) for members in sets)
    base = st.builds(Fraction, st.integers(1, 4), st.integers(1, 2))
    kind = draw(st.sampled_from(["unit", "identical", "related", "unrelated"]))
    if kind == "unit":
        model = UnitCosts()
    elif kind == "identical":
        model = IdenticalCosts(tuple(draw(base) for _ in range(k)))
    elif kind == "related":
        speed = st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2, 3), Fraction(2)])
        model = RelatedCosts(tuple(draw(base) for _ in range(k)), tuple(draw(speed) for _ in range(m)))
    else:
        entry = st.sampled_from([1, 2, 3, Fraction(3, 2), INFINITE_COST])
        rows = [tuple(draw(entry) for _ in range(m)) for _ in range(k)]
        if draw(st.booleans()):
            rows[0] = (INFINITE_COST,) * m  # set 0 can never run
        model = UnrelatedCosts(tuple(rows))
    inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=model)
    # small node budgets stop both searches part-way, at the same node
    nodes = draw(st.integers(1, 60) | st.integers(1, 2000) | st.just(PMSSC_LIMITS.node_budget))
    return inst, OracleLimits(max_k=6, max_m=3, max_n=10, node_budget=nodes)


def _pmssc_outcome(solve):
    try:
        return solve()
    except (LimitsExceededError, UncoverableError) as err:
        return (type(err), str(err))


# Element 1 lies only in set 0, which has no finite cost on any machine.
ONLY_INFINITE_COVER = ProblemInstance(
    n=2, sets=((0, 1), (0,)), m=2,
    cost_model=UnrelatedCosts(((INFINITE_COST, INFINITE_COST), (1, 2))),
)


@settings(max_examples=400, deadline=None)
@given(case=pmssc_cases())
@example(case=(ONLY_INFINITE_COVER, PMSSC_LIMITS))
def test_exact_pmssc_matches_former_search(case):
    inst, limits = case
    assert _pmssc_outcome(lambda: exact_pmssc(inst, limits)) == _pmssc_outcome(
        lambda: former_exact_pmssc(inst, limits)
    )


def test_exact_pmssc_reports_no_finite_cost_cover():
    with pytest.raises(UncoverableError, match="universe is not coverable"):
        exact_pmssc(ONLY_INFINITE_COVER)


def test_exact_pmssc_refuses_precedence_edges():
    # the search ignores the DAG: it returned [[0, 1]], set 0 before its
    # predecessor 1, as optimal
    dag = ProblemInstance(n=2, sets=((0,), (1,)), m=1, cost_model=UnitCosts(), dag=((1, 0),))
    with pytest.raises(ValueError, match="greedy-precedence"):
        exact_pmssc(dag)
    for no_edges in (None, ()):
        inst = ProblemInstance(n=2, sets=((0,), (1,)), m=1, cost_model=UnitCosts(), dag=no_edges)
        assert exact_pmssc(inst)[1] == 3
