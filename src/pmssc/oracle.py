"""Exact solvers for tiny instances: the ground truth behind every ratio test.

All four solvers refuse inputs beyond their limits instead of running
unbounded, and every one is deterministic including tie-breaks.

The min-sum solver is a branch-and-bound over canonical schedule prefixes:
nodes either append an unused set to the currently least-loaded open machine
or close that machine for good. Ordering placements by start time this way
enumerates every schedule exactly once. Each node receives its machine loads,
open machines, unused sets and covering times as values, and a child gets
copies with one set appended or one machine closed. Because a later set on
another machine can still finish earlier, covering times are running minima,
and the lower bound accounts for future improvements to covered elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Optional, Tuple

from .core import (
    Assignment,
    DensityValue,
    INFINITE_COST,
    ProblemInstance,
    Schedule,
    as_fraction,
    available_pool,
    element_mask,
    evaluate_schedule_cost,
    remaining_elements,
    scaled_floor,
    validate_instance,
)
from .errors import (
    DomainError,
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
    """Cheap feasible schedule for the initial incumbent. Every element lies in
    a set of ``useful`` with a finite cost, so each pick finds a set."""
    uncovered = (1 << inst.n) - 1
    loads = [0] * inst.m
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
                key = (Fraction(finish, gain), finish, s, j)
                if best is None or key < best:
                    best = key
        _, _, s, j = best
        sequences[j].append(s)
        loads[j] += costs[s][j]
        uncovered &= ~masks[s]
        unused.discard(s)
    return Schedule(tuple(tuple(seq) for seq in sequences))


def exact_pmssc(
    inst: ProblemInstance, limits: Optional[OracleLimits] = None
) -> Tuple[Schedule, Fraction]:
    """Minimum-cost schedule by branch-and-bound; exact on small instances
    without precedence: an instance with DAG edges raises ``ValueError``."""
    if inst.dag:
        raise ValueError("exact_pmssc ignores precedence; use greedy-precedence for dag_edges")
    limits = limits or PMSSC_LIMITS
    if not validate_instance(inst).coverable:
        raise UncoverableError("universe is not coverable")
    useful = [s for s in range(inst.k) if inst.sets[s]]
    _check_limits(inst, limits, len(useful))
    budget = _Budget(limits.node_budget)

    # the search runs in icosts units; the costs it returns are divided by the scale
    scale = inst.scale
    costs = [[None if c is INFINITE_COST else c for c in row] for row in inst.icosts]
    containing = [[s for s in useful if inst.masks[s] >> u & 1] for u in range(inst.n)]

    incumbent = _greedy_upper_bound(inst, useful, inst.masks, costs)
    best = [evaluate_schedule_cost(inst, incumbent)[0] * scale, incumbent]
    sequences = [[] for _ in range(inst.m)]  # the node's prefix, pushed and popped

    def lower_bound(loads, open_machines, unused, ct):
        # earliest finish of each unused set on an open machine
        earliest = [None] * inst.k
        for s in unused:
            for j in open_machines:
                if costs[s][j] is not None:
                    t = loads[j] + costs[s][j]
                    if earliest[s] is None or t < earliest[s]:
                        earliest[s] = t
        total = 0
        for u, here in enumerate(ct):
            for s in containing[u]:
                t = earliest[s]
                if t is not None and (here is None or t < here):
                    here = t
            if here is None:
                return None  # element unreachable: dead branch
            total += here
        return total

    def dfs(loads, open_machines, unused, ct):
        budget.spend()
        lb = lower_bound(loads, open_machines, unused, ct)
        if lb is None or lb >= best[0]:
            return
        if None not in ct and sum(ct) < best[0]:
            # a full cover; continuing can still lower covering times via cheap later sets
            best[:] = sum(ct), Schedule(tuple(tuple(seq) for seq in sequences))
        if not open_machines:
            return
        j = min(open_machines, key=lambda q: (loads[q], q))

        # append a set that covers something new or improves a covering
        # time at its finish position (most promising first, so the
        # incumbent tightens early)
        candidates = []
        for s in unused:
            if costs[s][j] is None:
                continue
            finish = loads[j] + costs[s][j]
            child_ct = list(ct)
            gain = 0
            for u in inst.sets[s]:
                if ct[u] is None or finish < ct[u]:
                    gain += ct[u] is None
                    child_ct[u] = finish
            if child_ct != ct:
                candidates.append((-Fraction(gain) / finish, s, finish, child_ct))
        for _, s, finish, child_ct in sorted(candidates):
            sequences[j].append(s)
            child_loads = loads[:j] + [finish] + loads[j + 1 :]
            dfs(child_loads, open_machines, [t for t in unused if t != s], child_ct)
            sequences[j].pop()
        # lastly: close machine j for good
        dfs(loads, [q for q in open_machines if q != j], unused, ct)

    dfs([0] * inst.m, list(range(inst.m)), useful, [None] * inst.n)
    best_cost, checked = Fraction(best[0], scale), best[1]
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
    cap (loads and caps are in ``icosts``). Every node spends one unit of
    ``budget``. ``prune(loads, labels, reachable)`` may cut a node, where
    ``reachable`` is the coverage mask of the labelled sets and every set
    after them; ``leaf(loads, labels, covered)`` sees each complete
    labelling. ``labels`` maps a set to its machine and, like ``loads``, is
    live search state that callers copy.
    """
    # suffix_union[i] = coverage still reachable from sets useful[i:]
    suffix_union = [0] * (len(useful) + 1)
    for i in range(len(useful) - 1, -1, -1):
        suffix_union[i] = suffix_union[i + 1] | masks[useful[i]]
    loads = [0] * inst.m
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
        for j, c in enumerate(inst.icosts[s]):
            if c is INFINITE_COST or (caps is not None and loads[j] + c > caps[j]):
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
    restrict_mask = element_mask(remaining_elements(inst, remaining))
    useful = [s for s in available_pool(inst, available) if inst.masks[s] & restrict_mask]
    if not useful:
        raise NoCoverageError("no set covers any remaining element")
    _check_limits(inst, limits, len(useful))
    masks = {s: inst.masks[s] & restrict_mask for s in useful}
    best = {"density": None, "count": None, "labels": None}

    def prune(loads, labels, reachable):
        if best["density"] is None or not labels:
            return False
        makespan = max(loads)
        # future sets can only add coverage and grow the makespan
        return makespan > 0 and (
            DensityValue(reachable.bit_count(), makespan, inst.scale) < best["density"]
        )

    def leaf(loads, labels, covered_mask):
        if not labels:
            return
        cand = DensityValue(covered_mask.bit_count(), max(loads), inst.scale)
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
    useful = [s for s in available_pool(inst, available) if inst.masks[s]]
    _check_limits(inst, limits, len(useful))
    budgets = [as_fraction(b) for b in budgets]
    if len(budgets) != inst.m:
        raise ValueError("need one budget per machine")
    if any(b < 0 for b in budgets):
        raise DomainError("budgets must be nonnegative")
    caps = [scaled_floor(inst.scale, b) for b in budgets]
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
    edges = inst.dag or ()
    k, m = inst.k, inst.m
    _check_limits(inst, limits, k)
    inst.dag_order  # raises on cycles
    # Direct predecessors suffice: a family closed under them is closed under
    # all, and a slot prefix built from available sets stays closed.
    pred_mask = [0] * k
    for a, b in edges:
        pred_mask[b] |= 1 << a
    restrict_mask = element_mask(remaining_elements(inst, remaining))
    cover_mask = [mask & restrict_mask for mask in inst.masks]
    if not any(cover_mask):
        raise NoCoverageError("no set covers any remaining element")
    budget = _Budget(limits.node_budget)

    def min_makespan(family_mask):
        """Fewest slots for the family; ``memo[done]`` holds (slots, batch),
        the first batch in ``combinations`` order that reaches that minimum."""
        memo = {family_mask: (0, ())}

        def rec(done):
            budget.spend()
            if done in memo:
                return memo[done][0]
            avail = []
            for s in range(k):
                bit = 1 << s
                if family_mask & bit and not done & bit and pred_mask[s] & family_mask & ~done == 0:
                    avail.append(s)
            width = min(m, len(avail))
            best_here = None
            for batch in combinations(avail, width):
                slots = 1 + rec(done | element_mask(batch))
                if best_here is None or slots < best_here[0]:
                    best_here = (slots, batch)
            memo[done] = best_here
            return best_here[0]

        return rec(0), memo

    best = None  # (DensityValue, set count, family mask, DP table)
    for family_mask in range(1, 1 << k):
        family = [s for s in range(k) if family_mask >> s & 1]
        if any(pred_mask[s] & ~family_mask for s in family):
            continue
        covered = reduce(or_, (cover_mask[s] for s in family))
        makespan, memo = min_makespan(family_mask)
        cand = DensityValue(covered.bit_count(), makespan)
        count = family_mask.bit_count()
        if best is None or cand > best[0] or (cand == best[0] and count < best[1]):
            best = (cand, count, family_mask, memo)

    # the full family is always closed and covers something by the pre-check
    if best is None or best[0].covered == 0:
        raise InvariantError("no closed family covers a remaining element")
    _, _, family_mask, memo = best
    per_machine = [[] for _ in range(m)]
    done = 0
    while done != family_mask:  # follow the stored optimal batches slot by slot
        batch = memo[done][1]
        for q, s in enumerate(batch):
            per_machine[q % m].append(s)
        done |= element_mask(batch)
    return Assignment(tuple(tuple(x) for x in per_machine)), best[0]
