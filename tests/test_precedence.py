import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NOT_INDICES
import pmssc.core as core_module
from pmssc import cli
from pmssc.core import (
    Assignment,
    DensityValue,
    ProblemInstance,
    Schedule,
    UnitCosts,
    as_index,
    evaluate_schedule_cost,
    topological_order,
    validate_instance,
)
from pmssc.errors import (
    CyclicDagError,
    InvalidIndexError,
    InvariantError,
    NoCoverageError,
    PmsscError,
    StalledOracleError,
    UncoverableError,
)
from pmssc.fileio import generate_instance, serialize_instance
from pmssc.oracle import exact_pds_precedence
from pmssc.precedence import (
    LayeredAssignment,
    PrecedenceTrace,
    pcds,
    pcds_detailed,
    pmssc_precedence,
)

DIAMOND_EDGES = ((0, 1), (0, 2), (1, 3), (2, 3))


def unit_instance(n, sets, m, dag):
    return ProblemInstance(n=n, sets=sets, m=m, cost_model=UnitCosts(), dag=dag)


def chain_instance(n=4, m=1):
    return unit_instance(n, ((), tuple(range(n))), m, ((0, 1),))


def diamond_instance(m=2):
    return unit_instance(4, ((), (), (), (0, 1, 2, 3)), m, DIAMOND_EDGES)


# Verbatim copies of the DAG view, closure and layout that the density
# oracle used before it worked on bitmasks over set indices; the former_*
# references below read them. The layout's closedness check raised a
# NotClosedError, an error type that left with it; it raises InvariantError.


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
        topological sort of the whole graph gives the depths inside that view."""
        edges = tuple((as_index(a), as_index(b)) for a, b in edges)
        for a, b in edges:
            if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                raise InvalidIndexError("edge (%d, %d) out of range" % (a, b))
        keep = frozenset(range(num_nodes) if nodes is None else map(as_index, nodes))
        for v in keep:
            if not 0 <= v < num_nodes:
                raise InvalidIndexError("node %d out of range" % v)
        return PrecedenceDag.view(num_nodes, edges, keep, topological_order(num_nodes, edges))

    @staticmethod
    def view(num_nodes, edges, keep: frozenset, order) -> "PrecedenceDag":
        """The DAG ``edges`` on the valid nodes ``keep``, depths taken along ``order``,
        a topological order of the whole graph: restricted to ``keep``, it is one of the view."""
        edges = tuple((a, b) for a, b in edges if a in keep and b in keep)
        preds = [[] for _ in range(num_nodes)]
        for a, b in edges:
            preds[b].append(a)
        depth = [0] * num_nodes
        for v in order:
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


def former_layered_assign(family: Iterable[int], dag: PrecedenceDag, m: int) -> LayeredAssignment:
    """Spread a precedence-closed family over m machines layer by layer.

    Layer l (sets of equal depth) takes ceil(n_l / m) unit slots; idle slots
    count toward the makespan.
    """
    members = sorted(frozenset(map(as_index, family)))
    node_set = frozenset(dag.nodes)
    fam_set = frozenset(members)
    for s in members:
        if s not in node_set:
            raise InvalidIndexError("set %d is not part of this DAG view" % s)
        for p in dag.predecessors[s]:
            if p in node_set and p not in fam_set:
                raise InvariantError(
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


CHAIN_EDGES = ((0, 1), (1, 2))


def covered_by(s, k, dag, m=2):
    """k sets under ``dag``; only set s holds the one element."""
    return unit_instance(1, tuple((0,) if t == s else () for t in range(k)), m, dag)


def test_closure_isolated_chain_diamond():
    # The one covering set's closure is the densest candidate; the winner's
    # finish slots are its members' depths.
    layered, _, _ = pcds_detailed(covered_by(0, 3, CHAIN_EDGES), [0])
    assert layered.finish == ((0, 1),)
    layered, _, _ = pcds_detailed(covered_by(2, 3, CHAIN_EDGES), [0])
    assert layered.finish == ((0, 1), (1, 2), (2, 3))
    layered, _, _ = pcds_detailed(covered_by(3, 4, DIAMOND_EDGES), [0])
    assert layered.finish == ((0, 1), (1, 2), (2, 2), (3, 3))
    # an edge to an unavailable set is dropped, so sets 0 and 2 both have
    # depth 1, and the prefix F_1 ties the closure {2} first
    layered, _, _ = pcds_detailed(covered_by(2, 3, CHAIN_EDGES), [0], available=[0, 2])
    assert layered.finish == ((0, 1), (2, 1))


def test_depths_and_d():
    layered, _, count = pcds_detailed(diamond_instance(m=2), range(4))
    assert dict(layered.finish) == {0: 1, 1: 2, 2: 2, 3: 3}  # depths (1, 2, 2, 3)
    assert count == 3 + 4  # d = 3 prefixes, four closures


def test_cycle_rejected():
    inst = unit_instance(2, ((0,), (1,)), 1, ((0, 1), (1, 0)))
    with pytest.raises(CyclicDagError):
        pcds_detailed(inst, [0, 1])
    with pytest.raises(UncoverableError, match="^precedence graph is cyclic$"):
        pmssc_precedence(inst)


@pytest.mark.parametrize("edge", [(-1, 0), (0, 5), (3, 1)])
def test_edge_endpoints_out_of_range_are_rejected(edge):
    # (-1, 0) was once dropped silently and (0, 5) a bare IndexError; the
    # instance refuses such an edge before any precedence solver reads it
    with pytest.raises(InvalidIndexError, match=r"^dag edge 1 references invalid set index$"):
        unit_instance(1, ((0,), (), ()), 1, ((0, 1), edge))


def test_layered_assign_independent_sets():
    inst = unit_instance(4, ((0,), (1,), (2,), (3,)), 2, ())
    layered, _, _ = pcds_detailed(inst, range(4))
    assert layered.makespan == 2


def test_layered_assign_chain_ignores_extra_machines():
    layered, _, _ = pcds_detailed(covered_by(2, 3, CHAIN_EDGES, m=5), [0])
    assert layered.makespan == 3


def test_layered_assign_diamond():
    layered, _, _ = pcds_detailed(covered_by(3, 4, DIAMOND_EDGES), [0])
    assert layered.makespan == 3
    assert layered.layer_slots == (1, 1, 1)


def test_dag_and_family_indices_must_be_integers():
    # read with operator.index: (0.9, "0") was once the self-loop (0, 0)
    for edge in ((0.9, "0"), (0, 1.0), (False, True)):
        with pytest.raises(TypeError):
            unit_instance(1, ((0,), ()), 1, (edge,))
    inst = covered_by(2, 3, CHAIN_EDGES)
    for available in ((0.5,), (True,), (0, 1.2), (0, True)):
        with pytest.raises(TypeError):
            pcds_detailed(inst, [0], available=available)


def _check_finish_times(inst, layered):
    """``finish`` matches the per-machine layout at each set's depth in the
    available view, and every DAG edge inside the family ends before it starts."""
    members = {s for seq in layered.assignment.per_machine for s in seq}
    dag = PrecedenceDag.from_edges(inst.k, inst.dag)
    starts = dict(zip(sorted({dag.depth[s] for s in members}), layered.layer_starts))
    finish = {}
    for seq in layered.assignment.per_machine:
        seen = {}
        for s in seq:
            lvl = dag.depth[s]
            offset = seen.get(lvl, 0)
            finish[s] = starts[lvl] + offset + 1
            seen[lvl] = offset + 1
    assert dict(layered.finish) == finish
    for a, b in inst.dag:
        if b in members:
            assert finish[a] <= finish[b] - 1


def test_layered_start_times_respect_precedence():
    layered, _, _ = pcds_detailed(diamond_instance(m=2), range(4))
    _check_finish_times(diamond_instance(m=2), layered)
    for seed in range(15):
        inst = generate_instance(
            n=6, k=8, m=2, model="unit", density=0.3,
            seed=7000 + seed, dag_edge_prob=0.5,
        )
        layered, _, _ = pcds_detailed(inst, range(inst.n))
        _check_finish_times(inst, layered)


def test_pcds_no_edges_all_sets_one_slot():
    inst = unit_instance(4, ((0,), (1,), (2,), (3,)), 4, ())
    layered, value, count = pcds_detailed(inst, frozenset(range(4)))
    assert value.covered == 4 and value.makespan == 1
    assert count == 1 + 4  # one depth prefix, four closures


def test_pcds_chain_prefers_covering_closure():
    inst = chain_instance(n=4, m=1)
    layered, value, count = pcds_detailed(inst, frozenset(range(4)))
    assert value.covered == 4 and value.makespan == 2  # density n/2
    assert count == 2 + 2


def test_pcds_candidate_count_is_d_plus_k():
    for seed in range(15):
        inst = generate_instance(
            n=5, k=4 + seed % 4, m=2, model="unit", density=0.4,
            seed=3000 + seed, dag_edge_prob=0.3,
        )
        dag = PrecedenceDag.from_edges(inst.k, inst.dag)
        _, _, count = pcds_detailed(inst, frozenset(range(inst.n)))
        assert count == dag.d + inst.k


def test_pcds_output_precedence_closed():
    for seed in range(15):
        inst = generate_instance(
            n=6, k=6, m=2, model="unit", density=0.35,
            seed=4000 + seed, dag_edge_prob=0.5,
        )
        asg = pcds(inst, frozenset(range(inst.n)))
        dag = PrecedenceDag.from_edges(inst.k, inst.dag)
        members = {s for seq in asg.per_machine for s in seq}
        for s in members:
            assert closure(dag, s) <= members


def test_pcds_ratio_sample():
    for seed in range(20):
        inst = generate_instance(
            n=5 + seed % 4, k=3 + seed % 6, m=1 + seed % 2, model="unit",
            density=0.35, seed=5000 + seed, dag_edge_prob=0.2 if seed % 2 else 0.5,
        )
        remaining = frozenset(range(inst.n))
        layered, value, _ = pcds_detailed(inst, remaining)
        _, opt = exact_pds_precedence(inst)
        assert (
            float(value.as_fraction()) >= inst.k ** (-2 / 3) * float(opt.as_fraction()) - 1e-9
        )


def test_pcds_no_coverage():
    inst = unit_instance(2, ((), ()), 1, ((0, 1),))
    with pytest.raises(NoCoverageError):
        pcds(inst, frozenset(range(2)))


def test_precedence_oracles_check_indices_like_the_pds_solvers():
    # n = 4 elements, k = 3 sets; pcds and pcds_detailed take ``available``.
    inst = unit_instance(4, ((0,), (1, 2), (3,)), 2, ((0, 1),))
    solvers = [
        lambda remaining: pcds(inst, remaining),
        lambda remaining: pcds_detailed(inst, remaining),
        lambda remaining: exact_pds_precedence(inst, remaining=remaining),
    ]
    for solve in solvers:
        for remaining in ([0, 1, 2, 3, 9], [0, -1]):
            with pytest.raises(InvalidIndexError, match=r"^remaining element -?\d+ outside \[0, 4\)$"):
                solve(remaining)
        for bad, message in NOT_INDICES:
            with pytest.raises(TypeError, match=message):
                solve([0, bad])
    for pcds_solver in (pcds, pcds_detailed):
        for available in ([7], [3], [0, -1]):
            with pytest.raises(InvalidIndexError, match=r"^available set -?\d+ outside \[0, 3\)$"):
                pcds_solver(inst, [0], available=available)
        for bad, message in NOT_INDICES:
            with pytest.raises(TypeError, match=message):
                pcds_solver(inst, [0], available=[0, bad])
    assert pcds(inst, [0, 3], available=[0, 0, 2]) == pcds(inst, [0, 3], available=[0, 2])
    assert pcds(inst, np.array([0, 3]), available=np.array([0, 2])) == pcds(
        inst, [0, 3], available=[0, 2]
    )


def test_precedence_solver_chain():
    inst = chain_instance(n=4, m=1)
    sched, trace = pmssc_precedence(inst)
    assert sched.per_machine == ((0, 1),)
    assert trace.cost == 2 * 4  # every element covered at time 2


def test_precedence_solver_diamond():
    inst = diamond_instance(m=2)
    sched, trace = pmssc_precedence(inst)
    assert trace.cost == 3 * 4  # layers 1, 2, 1 -> sink finishes at slot 3
    # barrier-aligned cost dominates the prefix-sum evaluation
    prefix_cost, _ = evaluate_schedule_cost(inst, sched)
    assert prefix_cost <= trace.cost


def test_precedence_empty_dag_reduces_to_unit_greedy():
    from pmssc.oracle import exact_pmssc
    from pmssc.scheduler import pmssc_greedy

    inst = unit_instance(5, ((0, 1), (2, 3), (4,), (0, 4)), 2, ())
    sched_p, trace = pmssc_precedence(inst)
    _, opt = exact_pmssc(inst)
    ratio_bound = 4 * inst.k ** (2 / 3)
    assert trace.cost <= ratio_bound * float(opt)
    sched_u, _ = pmssc_greedy(inst, oracle="unit", epsilon=0.1)
    cost_u, _ = evaluate_schedule_cost(inst, sched_u)
    assert float(cost_u) <= ratio_bound * float(opt)


def test_precedence_cover_times_respect_barriers():
    for seed in range(10):
        inst = generate_instance(
            n=6, k=6, m=2, model="unit", density=0.35,
            seed=6000 + seed, dag_edge_prob=0.4,
        )
        sched, trace = pmssc_precedence(inst)
        # every element covered, cost equals the sum of cover times
        assert all(t is not None and t >= 1 for t in trace.cover_times)
        assert trace.cost == sum(trace.cover_times)
        prefix_cost, _ = evaluate_schedule_cost(inst, sched)
        assert prefix_cost <= trace.cost


# Verbatim copies of the driver and its finish-time scan from before the
# layout recorded each set's finish slot; the differential test below holds
# the current driver to them. The driver calls the former oracle below, so
# the whole former pipeline is the reference.


def former_finish_times(layered: LayeredAssignment, dag: PrecedenceDag) -> Dict[int, int]:
    """Absolute unit-slot finish time of each set in the layered schedule."""
    levels = sorted(
        {dag.depth[s] for seq in layered.assignment.per_machine for s in seq}
    )
    starts = dict(zip(levels, layered.layer_starts))
    finishes = {}
    for seq in layered.assignment.per_machine:
        position: Dict[int, int] = {}
        for s in seq:
            lvl = dag.depth[s]
            offset = position.get(lvl, 0)
            finishes[s] = starts[lvl] + offset + 1
            position[lvl] = offset + 1
    return finishes


# Verbatim copies of the DAG view from before ``from_edges`` took the pool:
# the full DAG, then its induced view, each with its own topological sort.


def former_build_dag(num_nodes, edges, nodes) -> PrecedenceDag:
    order = topological_order(num_nodes, edges)
    node_set = frozenset(nodes)
    preds = [[] for _ in range(num_nodes)]
    for a, b in edges:
        preds[b].append(a)
    depth = [0] * num_nodes
    for v in order:
        if v not in node_set:
            continue
        depth[v] = 1 + max((depth[p] for p in preds[v] if p in node_set), default=0)
    return PrecedenceDag(
        num_nodes=num_nodes,
        edges=edges,
        predecessors=tuple(tuple(sorted(p)) for p in preds),
        depth=tuple(depth),
        nodes=tuple(sorted(nodes)),
    )


def former_from_edges(num_nodes, edges) -> PrecedenceDag:
    edges = tuple((int(a), int(b)) for a, b in edges)
    nodes = tuple(range(num_nodes))
    return former_build_dag(num_nodes, edges, nodes)


def former_induced(dag, nodes) -> PrecedenceDag:
    keep = frozenset(int(v) for v in nodes)
    for v in keep:
        if not 0 <= v < dag.num_nodes:
            raise InvalidIndexError("node %d out of range" % v)
    edges = tuple((a, b) for a, b in dag.edges if a in keep and b in keep)
    return former_build_dag(dag.num_nodes, edges, tuple(sorted(keep)))


def former_pmssc_precedence(
    inst: ProblemInstance,
    dag_edges: Optional[Iterable[Tuple[int, int]]] = None,
) -> Tuple[Schedule, PrecedenceTrace]:
    """Greedy driver with the precedence-closed density oracle.

    Iterations are barrier-aligned: every machine starts an iteration at the
    global maximum end time of the previous one, so cross-machine precedence
    holds. The trace carries the barrier-aligned cost; the returned schedule's
    plain prefix-sum cost would understate waiting time.
    """
    if inst.cost_model.kind != "unit":
        raise ValueError("precedence solver requires the unit cost model")
    edges = tuple(dag_edges) if dag_edges is not None else inst.dag
    if edges is None:
        raise ValueError("precedence solver requires a DAG")
    work = ProblemInstance(
        n=inst.n, sets=inst.sets, m=inst.m, cost_model=inst.cost_model, dag=edges
    )
    report = validate_instance(work)
    if not report.coverable:
        raise UncoverableError(
            "elements %s cannot be covered" % list(report.uncovered_elements)
        )
    if report.dag_acyclic is False:
        raise UncoverableError("precedence graph is cyclic")

    full = former_from_edges(work.k, edges)
    remaining = set(range(work.n))
    available = set(range(work.k))
    machines = [[] for _ in range(work.m)]
    cover_times = [None] * work.n
    clock = 0
    step = 0
    while remaining:
        if step > work.k + 1:
            raise StalledOracleError("precedence greedy failed to make progress")
        layered, _, _ = former_pcds_detailed(
            work, frozenset(remaining), available=frozenset(available)
        )
        dag_view = former_induced(full, sorted(available))
        finishes = former_finish_times(layered, dag_view)
        newly = set()
        for s, finish in finishes.items():
            absolute = clock + finish
            for u in frozenset(work.sets[s]):
                if u in remaining and (cover_times[u] is None or absolute < cover_times[u]):
                    cover_times[u] = absolute
                    newly.add(u)
        if not newly:
            raise StalledOracleError("oracle assignment covers no remaining element")
        for j, seq in enumerate(layered.assignment.per_machine):
            machines[j].extend(seq)
        remaining -= newly
        for seq in layered.assignment.per_machine:
            available.difference_update(seq)
        clock += layered.makespan
        step += 1
    cost = sum(cover_times)
    schedule = Schedule(tuple(tuple(seq) for seq in machines))
    return schedule, PrecedenceTrace(cost, tuple(cover_times))


def scale_instance(n, k, m, seed):
    return generate_instance(
        n=n, k=k, m=m, model="unit", density=0.05, seed=seed, dag_edge_prob=0.02
    )


# Seeded cases far above the drawn sizes (k <= 8): many depths, long closures.
SCALE_CASES = [scale_instance(400, 100, 4, 1), scale_instance(1600, 480, 8, 1)]


def scale_picks(inst):
    """All elements and sets, then a seeded half of each."""
    rng = random.Random(inst.k)
    return [(2**inst.n - 1, None), (rng.getrandbits(inst.n), rng.getrandbits(inst.k))]


@st.composite
def dag_instances(draw):
    return generate_instance(
        n=draw(st.integers(1, 8)), k=draw(st.integers(1, 8)), m=draw(st.integers(1, 3)),
        model="unit", density=draw(st.sampled_from([0.2, 0.4, 0.7])),
        seed=draw(st.integers(0, 2**32 - 1)),
        dag_edge_prob=draw(st.sampled_from([0.0, 0.2, 0.4, 0.7])),
    )


def _outcome(solve):
    try:
        return solve()
    except PmsscError as err:
        return (type(err), str(err))


@settings(max_examples=150, deadline=None)
@given(inst=dag_instances())
@example(inst=SCALE_CASES[0])
@example(inst=SCALE_CASES[1])
def test_pmssc_precedence_matches_former_driver(inst):
    assert _outcome(lambda: pmssc_precedence(inst)) == _outcome(
        lambda: former_pmssc_precedence(inst)
    )


# Verbatim copies of the density oracle and its candidate list from before
# candidates were scored by their per-depth counts and only the winner was
# laid out.


def former_candidates(dag_view, pool):
    """Depth prefixes F_h for h in [d] and one closure F_S per set."""
    out = []
    d = dag_view.d
    for h in range(1, d + 1):
        fam = [s for s in pool if dag_view.depth[s] <= h]
        out.append(fam)
    for s in pool:
        out.append(sorted(closure(dag_view, s)))
    return out


def former_pcds_detailed(
    inst: ProblemInstance,
    remaining: Iterable[int],
    available: Optional[Iterable[int]] = None,
) -> Tuple[LayeredAssignment, DensityValue, int]:
    """Best candidate with its density and the number of candidates tried."""
    if inst.cost_model.kind != "unit":
        raise ValueError("precedence solver requires the unit cost model")
    if inst.dag is None:
        raise ValueError("instance has no precedence DAG")
    remaining = frozenset(remaining)
    full = former_from_edges(inst.k, inst.dag)
    pool = sorted(range(inst.k)) if available is None else sorted(available)
    if not any(frozenset(inst.sets[s]) & remaining for s in pool):
        raise NoCoverageError("no available set covers a remaining element")
    dag_view = former_induced(full, pool)

    best = None  # (LayeredAssignment, DensityValue)
    count = 0
    for fam in former_candidates(dag_view, pool):
        count += 1
        if not fam:
            continue
        layered = former_layered_assign(fam, dag_view, inst.m)
        covered = set()
        for s in fam:
            covered |= frozenset(inst.sets[s]) & remaining
        value = DensityValue(len(covered), layered.makespan)
        if (
            best is None
            or value > best[1]
            or (value == best[1] and layered.makespan < best[0].makespan)
        ):
            best = (layered, value)
    if best is None:
        raise InvariantError("every candidate family is empty")
    fam_sets = [s for seq in best[0].assignment.per_machine for s in seq]
    for s in fam_sets:
        if closure(dag_view, s) - frozenset(fam_sets):
            raise InvariantError("winner is not precedence-closed")
    return best[0], best[1], count


def _pcds_outcome(solve):
    result = _outcome(solve)
    if isinstance(result, tuple) and isinstance(result[0], LayeredAssignment):
        layered, value, count = result
        return layered, (value.covered, value.makespan), count
    return result


@settings(max_examples=200, deadline=None)
@given(
    inst=dag_instances(),
    picks=st.tuples(st.integers(0, 2**8 - 1), st.none() | st.integers(0, 2**8 - 1)),
)
@example(inst=SCALE_CASES[0], picks=scale_picks(SCALE_CASES[0])[0])
@example(inst=SCALE_CASES[0], picks=scale_picks(SCALE_CASES[0])[1])
@example(inst=SCALE_CASES[1], picks=scale_picks(SCALE_CASES[1])[0])
@example(inst=SCALE_CASES[1], picks=scale_picks(SCALE_CASES[1])[1])
def test_pcds_detailed_matches_former_oracle(inst, picks):
    remaining = frozenset(u for u in range(inst.n) if picks[0] >> u & 1)
    available = None
    if picks[1] is not None:
        available = frozenset(s for s in range(inst.k) if picks[1] >> s & 1)
    assert _pcds_outcome(lambda: pcds_detailed(inst, remaining, available)) == _pcds_outcome(
        lambda: former_pcds_detailed(inst, remaining, available)
    )


def test_a_precedence_solve_sorts_the_dag_once(monkeypatch, tmp_path):
    # Parsing, validation and every iteration's pass over the available sets
    # share the instance's one topological order (each iteration's DAG view
    # once sorted the whole DAG again).
    sorts = []

    def counted(num_nodes, edges, _inner=topological_order):
        sorts.append(num_nodes)
        return _inner(num_nodes, edges)

    monkeypatch.setattr(core_module, "topological_order", counted)
    inst = generate_instance(n=30, k=12, m=3, model="unit", seed=3, dag_edge_prob=0.2)
    path, out = tmp_path / "dag.json", tmp_path / "report.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    argv = ["solve", "--instance", str(path), "--algo", "greedy-precedence", "--out", str(out)]
    assert cli.main(argv) == 0
    assert sorts == [12]
    schedule, trace = former_pmssc_precedence(inst)
    assert pmssc_precedence(inst) == (schedule, trace)
