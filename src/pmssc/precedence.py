"""Precedence-constrained scheduling, unit cost sets.

A candidate family is scheduled layer by layer of the precedence DAG: the
n_l sets of depth l occupy ceil(n_l / m) unit slots on the m machines, idle
slots included, so "scheduled before" is well defined across machines. The
density oracle evaluates d depth-prefix candidates plus one closure
candidate per set and keeps the densest, which is within k^(2/3) of the
optimal precedence-closed density.

Families are int bitmasks over set indices. One pass along the instance's
topological order, restricted to the available sets, gives each set its
depth (1 + the largest depth among its available predecessors) and its
closure (its own bit OR'd with their closures); the depth layers' running
unions are the prefixes.

The end-to-end driver aligns each greedy iteration at the global maximum
machine end time (an iteration barrier), because a successor on one machine
must wait for predecessors on another. The plain prefix-sum schedule cost
cannot express that idling, so results carry their own barrier-aligned cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import or_
from typing import Iterable, Optional, Sequence, Tuple

from .core import (
    Assignment,
    DensityValue,
    ProblemInstance,
    Schedule,
    available_pool,
    element_mask,
    remaining_elements,
    validate_instance,
)
from .errors import (
    InvariantError,
    NoCoverageError,
    StalledOracleError,
    UncoverableError,
)


@dataclass(frozen=True)
class LayeredAssignment:
    """Assignment plus the slot structure of its layer-by-layer schedule.

    ``finish`` pairs each set with the unit slot it finishes in, in layout
    order.
    """

    assignment: Assignment
    layer_starts: Tuple[int, ...]
    layer_slots: Tuple[int, ...]
    makespan: int
    finish: Tuple[Tuple[int, int], ...]


def layered_assign(family: int, layers: Sequence[int], m: int) -> LayeredAssignment:
    """Spread a precedence-closed family over m machines layer by layer.

    ``family`` and each of ``layers`` (the sets of depth 1, 2, ...) are int
    bitmasks over set indices. The n_l family sets of a layer take
    ceil(n_l / m) unit slots, dealt to the machines in index order; idle
    slots count toward the makespan.
    """
    machines = [[] for _ in range(m)]
    starts, slots, finish = [], [], []
    clock = 0
    for layer in layers:
        members = family & layer
        batch = [s for s in range(members.bit_length()) if members >> s & 1]
        if not batch:
            continue
        width = -(-len(batch) // m)
        starts.append(clock)
        slots.append(width)
        for i, s in enumerate(batch):
            machines[i % m].append(s)
            finish.append((s, clock + i // m + 1))
        clock += width
    return LayeredAssignment(
        assignment=Assignment(tuple(tuple(seq) for seq in machines)),
        layer_starts=tuple(starts),
        layer_slots=tuple(slots),
        makespan=clock,
        finish=tuple(finish),
    )


def pcds_detailed(
    inst: ProblemInstance,
    remaining: Iterable[int],
    available: Optional[Iterable[int]] = None,
) -> Tuple[LayeredAssignment, DensityValue, int]:
    """Best candidate with its density and the number of candidates tried.

    The candidates are the depth prefixes F_h for h in [d] and one closure
    F_S per set. Each is scored from its coverage and its layered makespan,
    the sum over depths of ceil(sets at that depth / m); only the winner is
    laid out.
    """
    if inst.cost_model.kind != "unit":
        raise ValueError("precedence solver requires the unit cost model")
    if inst.dag is None:
        raise ValueError("instance has no precedence DAG")
    pool = available_pool(inst, available)
    remaining_mask = element_mask(remaining_elements(inst, remaining))
    if not any(inst.masks[s] & remaining_mask for s in pool):
        raise NoCoverageError("no available set covers a remaining element")
    preds = [[] for _ in range(inst.k)]
    for a, b in inst.dag:
        preds[b].append(a)
    in_pool = element_mask(pool)
    depth, closure, cover = {}, {}, {}  # per available set; cover: elements of its closure
    layers, layer_cover = [], []
    for s in inst.dag_order:  # predecessors first, so ``depth`` holds the available ones
        if not in_pool >> s & 1:
            continue
        below = [p for p in preds[s] if p in depth]
        depth[s] = h = 1 + max((depth[p] for p in below), default=0)
        closure[s] = reduce(or_, (closure[p] for p in below), 1 << s)
        cover[s] = reduce(or_, (cover[p] for p in below), inst.masks[s])
        if h > len(layers):
            layers.append(0)
            layer_cover.append(0)
        layers[h - 1] |= 1 << s
        layer_cover[h - 1] |= inst.masks[s]
    candidates = list(zip(accumulate(layers, or_), accumulate(layer_cover, or_)))
    candidates += [(closure[s], cover[s]) for s in pool]

    best = None  # (family mask, DensityValue, makespan)
    for family, covered in candidates:
        makespan = sum(-(-(family & layer).bit_count() // inst.m) for layer in layers)
        value = DensityValue((covered & remaining_mask).bit_count(), makespan)
        if (
            best is None
            or value > best[1]
            or (value == best[1] and makespan < best[2])
        ):
            best = (family, value, makespan)
    layered = layered_assign(best[0], layers, inst.m)
    if layered.makespan != best[2]:
        raise InvariantError(
            "winner lays out in %d slots, not the counted %d" % (layered.makespan, best[2])
        )
    return layered, best[1], len(candidates)


def pcds(
    inst: ProblemInstance,
    remaining: Iterable[int],
    available: Optional[Iterable[int]] = None,
) -> Assignment:
    """Densest precedence-closed candidate (guarantee: within k^(2/3) of opt)."""
    layered, _, _ = pcds_detailed(inst, remaining, available=available)
    return layered.assignment


@dataclass(frozen=True)
class PrecedenceTrace:
    cost: int
    cover_times: Tuple[int, ...]


def pmssc_precedence(inst: ProblemInstance) -> Tuple[Schedule, PrecedenceTrace]:
    """Greedy driver with the precedence-closed density oracle.

    Iterations are barrier-aligned: every machine starts an iteration at the
    global maximum end time of the previous one, so cross-machine precedence
    holds. The trace carries the barrier-aligned cost; the returned schedule's
    plain prefix-sum cost would understate waiting time.
    """
    if inst.cost_model.kind != "unit":
        raise ValueError("precedence solver requires the unit cost model")
    if inst.dag is None:
        raise ValueError("precedence solver requires a DAG")
    report = validate_instance(inst)
    if not report.coverable:
        raise UncoverableError(
            "elements %s cannot be covered" % list(report.uncovered_elements)
        )
    if report.dag_acyclic is False:
        raise UncoverableError("precedence graph is cyclic")

    remaining = set(range(inst.n))
    available = set(range(inst.k))
    machines = [[] for _ in range(inst.m)]
    cover_times = [None] * inst.n
    clock = 0
    step = 0
    while remaining:
        if step > inst.k + 1:
            raise StalledOracleError("precedence greedy failed to make progress")
        layered, _, _ = pcds_detailed(inst, frozenset(remaining), available=frozenset(available))
        newly = set()
        for s, finish in layered.finish:
            absolute = clock + finish
            for u in inst.sets[s]:
                if u in remaining and (cover_times[u] is None or absolute < cover_times[u]):
                    cover_times[u] = absolute
                    newly.add(u)
        if not newly:
            raise StalledOracleError("oracle assignment covers no remaining element")
        for j, seq in enumerate(layered.assignment.per_machine):
            machines[j].extend(seq)
            available.difference_update(seq)
        remaining -= newly
        clock += layered.makespan
        step += 1
    cost = sum(cover_times)
    schedule = Schedule(tuple(tuple(seq) for seq in machines))
    return schedule, PrecedenceTrace(cost, tuple(cover_times))
