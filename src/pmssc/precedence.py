"""Precedence-constrained scheduling, unit cost sets.

A candidate family is scheduled layer by layer of the precedence DAG: the
n_l sets of depth l occupy ceil(n_l / m) unit slots on the m machines, idle
slots included, so "scheduled before" is well defined across machines. The
density oracle evaluates d depth-prefix candidates plus one closure
candidate per set and keeps the densest, which is within k^(2/3) of the
optimal precedence-closed density.

The end-to-end driver aligns each greedy iteration at the global maximum
machine end time (an iteration barrier), because a successor on one machine
must wait for predecessors on another. The plain prefix-sum schedule cost
cannot express that idling, so results carry their own barrier-aligned cost.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Dict, Iterable, Optional, Tuple

from .core import (
    Assignment,
    DensityValue,
    ProblemInstance,
    Schedule,
    element_mask,
    topological_order,
    validate_instance,
)
from .errors import (
    InvalidIndexError,
    InvariantError,
    NoCoverageError,
    NotClosedError,
    StalledOracleError,
    UncoverableError,
)


@dataclass(frozen=True)
class PrecedenceDag:
    """DAG over set indices with longest-path depths (depth 1 = source)."""

    num_nodes: int
    edges: Tuple[Tuple[int, int], ...]
    predecessors: Tuple[Tuple[int, ...], ...]
    depth: Tuple[int, ...]
    nodes: Tuple[int, ...]

    @property
    def d(self) -> int:
        return max((self.depth[v] for v in self.nodes), default=0)

    @staticmethod
    def from_edges(
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
        nodes: Optional[Iterable[int]] = None,
    ) -> "PrecedenceDag":
        """DAG on ``nodes`` (default: all) with the edges between them; one
        topological sort gives the depths inside that view."""
        edges = tuple((index(a), index(b)) for a, b in edges)
        if nodes is None:
            keep = frozenset(range(num_nodes))
        else:
            keep = frozenset(map(index, nodes))
            for v in keep:
                if not 0 <= v < num_nodes:
                    raise InvalidIndexError("node %d out of range" % v)
            edges = tuple((a, b) for a, b in edges if a in keep and b in keep)
        preds = [[] for _ in range(num_nodes)]
        for a, b in edges:
            preds[b].append(a)
        depth = [0] * num_nodes
        for v in topological_order(num_nodes, edges):
            if v in keep:
                depth[v] = 1 + max((depth[p] for p in preds[v]), default=0)
        return PrecedenceDag(
            num_nodes=num_nodes,
            edges=edges,
            predecessors=tuple(tuple(sorted(p)) for p in preds),
            depth=tuple(depth),
            nodes=tuple(sorted(keep)),
        )


def closure(dag: PrecedenceDag, s: int) -> frozenset:
    """All predecessors of s (reflexive-transitive), including s itself."""
    if not 0 <= s < dag.num_nodes:
        raise InvalidIndexError("set index %d out of range" % s)
    node_set = frozenset(dag.nodes)
    if s not in node_set:
        raise InvalidIndexError("set index %d is not part of this DAG view" % s)
    out = set()
    stack = [s]
    while stack:
        v = stack.pop()
        if v in out:
            continue
        out.add(v)
        stack.extend(p for p in dag.predecessors[v] if p in node_set)
    return frozenset(out)


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


def layered_assign(family: Iterable[int], dag: PrecedenceDag, m: int) -> LayeredAssignment:
    """Spread a precedence-closed family over m machines layer by layer.

    Layer l (sets of equal depth) takes ceil(n_l / m) unit slots; idle slots
    count toward the makespan.
    """
    members = sorted(frozenset(map(index, family)))
    node_set = frozenset(dag.nodes)
    fam_set = frozenset(members)
    for s in members:
        if s not in node_set:
            raise InvalidIndexError("set %d is not part of this DAG view" % s)
        for p in dag.predecessors[s]:
            if p in node_set and p not in fam_set:
                raise NotClosedError(
                    "family misses predecessor %d of set %d" % (p, s)
                )
    layers: Dict[int, list] = {}
    for s in members:
        layers.setdefault(dag.depth[s], []).append(s)
    machines = [[] for _ in range(m)]
    starts = []
    slots = []
    finish = []
    clock = 0
    for level in sorted(layers):
        batch = sorted(layers[level])
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
    remaining_mask = element_mask(remaining)
    pool = sorted(range(inst.k)) if available is None else sorted(available)
    if not any(inst.masks[s] & remaining_mask for s in pool):
        raise NoCoverageError("no available set covers a remaining element")
    dag_view = PrecedenceDag.from_edges(inst.k, inst.dag, pool)
    families = [
        [s for s in pool if dag_view.depth[s] <= h] for h in range(1, dag_view.d + 1)
    ]
    families += [closure(dag_view, s) for s in pool]

    best = None  # (family, DensityValue, makespan)
    for fam in families:
        covered = 0
        for s in fam:
            covered |= inst.masks[s]
        per_depth = Counter(dag_view.depth[s] for s in fam)
        makespan = sum(-(-count // inst.m) for count in per_depth.values())
        value = DensityValue((covered & remaining_mask).bit_count(), Fraction(makespan))
        if (
            best is None
            or value > best[1]
            or (value == best[1] and makespan < best[2])
        ):
            best = (fam, value, makespan)
    layered = layered_assign(best[0], dag_view, inst.m)
    if layered.makespan != best[2]:
        raise InvariantError(
            "winner lays out in %d slots, not the counted %d" % (layered.makespan, best[2])
        )
    return layered, best[1], len(families)


def pcds(
    inst: ProblemInstance,
    remaining: Iterable[int],
    available: Optional[Iterable[int]] = None,
) -> Assignment:
    """Densest precedence-closed candidate (guarantee: within k^(2/3) of opt)."""
    layered, _, _ = pcds_detailed(inst, remaining, available=available)
    return layered.assignment


@dataclass(frozen=True)
class PrecedenceIteration:
    layered: LayeredAssignment
    start_time: int
    newly_covered: frozenset
    remaining_before: int


@dataclass(frozen=True)
class PrecedenceTrace:
    iterations: Tuple[PrecedenceIteration, ...]
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
    iterations = []
    clock = 0
    step = 0
    while remaining:
        if step > inst.k + 1:
            raise StalledOracleError("precedence greedy failed to make progress")
        layered, _, _ = pcds_detailed(inst, frozenset(remaining), available=frozenset(available))
        newly = set()
        for s, finish in layered.finish:
            absolute = clock + finish
            for u in inst.members[s]:
                if u in remaining and (cover_times[u] is None or absolute < cover_times[u]):
                    cover_times[u] = absolute
                    newly.add(u)
        if not newly:
            raise StalledOracleError("oracle assignment covers no remaining element")
        for j, seq in enumerate(layered.assignment.per_machine):
            machines[j].extend(seq)
        iterations.append(
            PrecedenceIteration(
                layered=layered,
                start_time=clock,
                newly_covered=frozenset(newly),
                remaining_before=len(remaining),
            )
        )
        remaining -= newly
        for seq in layered.assignment.per_machine:
            available.difference_update(seq)
        clock += layered.makespan
        step += 1
    cost = sum(cover_times)
    schedule = Schedule(tuple(tuple(seq) for seq in machines))
    return schedule, PrecedenceTrace(tuple(iterations), cost, tuple(cover_times))
