"""Exact solvers for tiny instances: the ground truth behind every ratio test.

All four solvers refuse inputs beyond their limits instead of running
unbounded, and every one is deterministic including tie-breaks.

The min-sum solver is a branch-and-bound over canonical schedule prefixes:
nodes either append an unused set to the currently least-loaded open machine
or close that machine for good. Ordering placements by start time this way
enumerates every schedule exactly once. Because a later set on another
machine can still finish earlier, covering times are maintained as running
minima, and the lower bound accounts for future improvements to already
covered elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Tuple

from .core import (
    Assignment,
    DensityValue,
    ProblemInstance,
    Schedule,
    as_fraction,
    element_mask,
    evaluate_schedule_cost,
    is_finite_cost,
    topological_order,
    validate_instance,
)
from .errors import (
    InvariantError,
    LimitsExceededError,
    NoCoverageError,
    UncoverableError,
)


@dataclass(frozen=True)
class OracleLimits:
    max_k: int
    max_m: int
    max_n: int
    node_budget: int


PMSSC_LIMITS = OracleLimits(max_k=6, max_m=3, max_n=10, node_budget=2_000_000)
SUBSET_LIMITS = OracleLimits(max_k=12, max_m=3, max_n=64, node_budget=8_000_000)
PRECEDENCE_LIMITS = OracleLimits(max_k=10, max_m=3, max_n=64, node_budget=4_000_000)


def _check_limits(inst: ProblemInstance, limits: OracleLimits, k_used: int):
    if k_used > limits.max_k or inst.m > limits.max_m or inst.n > limits.max_n:
        raise LimitsExceededError(
            "instance (k=%d, m=%d, n=%d) exceeds oracle limits (%d, %d, %d)"
            % (k_used, inst.m, inst.n, limits.max_k, limits.max_m, limits.max_n)
        )


class _Budget:
    def __init__(self, nodes: int):
        self.left = nodes

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise LimitsExceededError("oracle node budget exhausted")


# ---------------------------------------------------------------------------
# Exact PMSSC


def _greedy_upper_bound(inst, useful, masks, costs):
    """Cheap feasible schedule for the initial incumbent."""
    uncovered = (1 << inst.n) - 1
    loads = [Fraction(0)] * inst.m
    sequences = [[] for _ in range(inst.m)]
    unused = set(useful)
    while uncovered:
        best = None
        for s in sorted(unused):
            gain_mask = masks[s] & uncovered
            if not gain_mask:
                continue
            gain = gain_mask.bit_count()
            for j in range(inst.m):
                c = costs[s][j]
                if c is None:
                    continue
                finish = loads[j] + c
                key = (finish / gain, finish, s, j)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        _, _, s, j = best
        sequences[j].append(s)
        loads[j] += costs[s][j]
        uncovered &= ~masks[s]
        unused.discard(s)
    return Schedule(tuple(tuple(seq) for seq in sequences))


def exact_pmssc(
    inst: ProblemInstance, limits: Optional[OracleLimits] = None
) -> Tuple[Schedule, Fraction]:
    """Minimum-cost schedule by branch-and-bound; exact on small instances."""
    limits = limits or PMSSC_LIMITS
    report = validate_instance(inst)
    if not report.coverable:
        raise UncoverableError("universe is not coverable")
    useful = [s for s in range(inst.k) if inst.members[s]]
    _check_limits(inst, limits, len(useful))
    budget = _Budget(limits.node_budget)

    costs = [[c if is_finite_cost(c) else None for c in row] for row in inst.costs]
    containing = [
        [s for s in useful if u in inst.members[s]] for u in range(inst.n)
    ]

    incumbent_sched = _greedy_upper_bound(inst, useful, inst.masks, costs)
    if incumbent_sched is None:
        raise UncoverableError("no finite-cost covering exists")
    incumbent_cost = evaluate_schedule_cost(inst, incumbent_sched)[0]

    m = inst.m
    n = inst.n
    state = {
        "loads": [Fraction(0)] * m,
        "closed": [False] * m,
        "sequences": [[] for _ in range(m)],
        "used": set(),
        "ct": [None] * n,  # current covering time (running minimum)
        "partial": Fraction(0),
        "best_sched": incumbent_sched,
        "best_cost": incumbent_cost,
    }

    uniform_costs = inst.cost_model.kind in ("unit", "identical")

    def lower_bound():
        loads = state["loads"]
        closed = state["closed"]
        used = state["used"]
        ct = state["ct"]
        min_open_load = None
        if uniform_costs:
            for j in range(m):
                if not closed[j] and (min_open_load is None or loads[j] < min_open_load):
                    min_open_load = loads[j]
        total = Fraction(0)
        for u in range(n):
            here = ct[u]
            future = None
            if uniform_costs:
                if min_open_load is not None:
                    cheapest = None
                    for s in containing[u]:
                        if s not in used:
                            c = costs[s][0]
                            if cheapest is None or c < cheapest:
                                cheapest = c
                    if cheapest is not None:
                        future = min_open_load + cheapest
            else:
                for s in containing[u]:
                    if s in used:
                        continue
                    for j in range(m):
                        if closed[j] or costs[s][j] is None:
                            continue
                        t = loads[j] + costs[s][j]
                        if future is None or t < future:
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
            for u in inst.members[s]:
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
            for u in inst.members[s]:
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
    return checked, best_cost


# ---------------------------------------------------------------------------
# Exact PDS / PMC


def _label_search(inst, useful, masks, budget, prune, leaf, caps=None):
    """Depth-first search over the labellings of ``useful``, in index order.

    Each set is first left unused, then placed on machines 0..m-1 where its
    cost is finite and, with ``caps``, keeps the machine's load within its
    cap. Every node spends one unit of ``budget``. ``prune(loads, labels,
    reachable)`` may cut a node, where ``reachable`` is the coverage mask of
    the labelled sets and every set after them; ``leaf(loads, labels,
    covered)`` sees each complete labelling. ``labels`` maps a set to its
    machine and, like ``loads``, is live search state that callers copy.
    """
    # suffix_union[i] = coverage still reachable from sets useful[i:]
    suffix_union = [0] * (len(useful) + 1)
    for i in range(len(useful) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[useful[i]]
    loads = [Fraction(0)] * inst.m
    labels = {}

    def dfs(idx, covered_mask):
        budget.spend()
        if prune(loads, labels, covered_mask | suffix_union[idx]):
            return
        if idx == len(useful):
            leaf(loads, labels, covered_mask)
            return
        s = useful[idx]
        dfs(idx + 1, covered_mask)  # leave s unused
        for j, c in enumerate(inst.costs[s]):
            if not is_finite_cost(c) or (caps is not None and loads[j] + c > caps[j]):
                continue
            loads[j] += c
            labels[s] = j
            dfs(idx + 1, covered_mask | masks[s])
            del labels[s]
            loads[j] -= c

    dfs(0, 0)


def _labelled_assignment(m, labels) -> Assignment:
    per_machine = [[] for _ in range(m)]
    for s in sorted(labels):
        per_machine[labels[s]].append(s)
    return Assignment(tuple(tuple(x) for x in per_machine))


def exact_pds(
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
    masks = {s: element_mask(inst.members[s] & restrict) for s in useful}
    best = {"density": None, "count": None, "labels": None}

    def prune(loads, labels, reachable):
        if best["density"] is None or not labels:
            return False
        makespan = max(loads)
        # future sets can only add coverage and grow the makespan
        return makespan > 0 and DensityValue(reachable.bit_count(), makespan) < best["density"]

    def leaf(loads, labels, covered_mask):
        if not labels:
            return
        cand = DensityValue(covered_mask.bit_count(), max(loads))
        count = len(labels)
        if (
            best["density"] is None
            or cand > best["density"]
            or (cand == best["density"] and count < best["count"])
        ):
            best["density"] = cand
            best["count"] = count
            best["labels"] = dict(labels)

    _label_search(inst, useful, masks, _Budget(limits.node_budget), prune, leaf)
    if best["density"] is None:
        raise NoCoverageError("no nonempty finite-cost assignment exists")
    return _labelled_assignment(inst.m, best["labels"]), best["density"]


def exact_pmc(
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
    best = {"covered": 0, "count": 0, "labels": {}}

    def prune(loads, labels, reachable):
        return reachable.bit_count() < best["covered"]

    def leaf(loads, labels, covered_mask):
        covered = covered_mask.bit_count()
        count = len(labels)
        if covered > best["covered"] or (
            covered == best["covered"] and best["labels"] and count < best["count"]
        ):
            best["covered"] = covered
            best["count"] = count
            best["labels"] = dict(labels)

    _label_search(
        inst, useful, inst.masks, _Budget(limits.node_budget), prune, leaf, caps
    )
    return _labelled_assignment(inst.m, best["labels"]), best["covered"]


# ---------------------------------------------------------------------------
# Exact precedence-closed PDS


def exact_pds_precedence(
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
    if not any(inst.members[s] & restrict for s in range(k)):
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
        for u in inst.members[s] & restrict:
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
        cand = DensityValue(covered.bit_count(), Fraction(makespan))
        count = family_mask.bit_count()
        if best is None or cand > best[0] or (cand == best[0] and count < best[1]):
            # rebuild one optimal slot sequence from the DP table
            schedule = _extract_slots(family_mask, memo, pred_mask, k, m)
            best = (cand, count, family_mask, schedule)

    # the full family is always closed and covers something by the pre-check
    if best is None or best[0].covered == 0:
        raise InvariantError("no closed family covers a remaining element")
    per_machine = [[] for _ in range(m)]
    for batch in best[3]:
        for q, s in enumerate(sorted(batch)):
            per_machine[q % m].append(s)
    return Assignment(tuple(tuple(x) for x in per_machine)), best[0]


def _extract_slots(family_mask, memo, pred_mask, k, m):
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
