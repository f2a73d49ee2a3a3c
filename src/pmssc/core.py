"""Instance and schedule data model for parallel min-sum set cover.

Elements and covering sets are dense integer indices. The four cost models
(unit, identical, related, unrelated) are special cases of the unrelated one:
a k x m table with the cost of set s on machine j in row s, column j. Each
model only validates its own parameters; ``ProblemInstance.costs`` builds
that table once, and every solver reads its costs from it. All finite costs
are exact rationals (`fractions.Fraction`); infinite cost entries use the
``INFINITE_COST`` sentinel (``math.inf``), which compares greater than every
finite rational and is rejected inside any assignment or schedule. No cost or
density comparison ever goes through floating point.

All types here are immutable value data after construction and every
operation is a pure function, so everything is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index
from typing import Iterable, Optional, Sequence, Tuple, Union

from .errors import (
    CyclicDagError,
    EmptyAssignmentError,
    InfiniteCostError,
    InvalidIndexError,
    UncoveredElementError,
)

INFINITE_COST = math.inf

CostValue = Union[Fraction, float]


def is_finite_cost(value: CostValue) -> bool:
    # A Fraction is always finite; testing its type first skips the slow
    # Fraction-vs-float comparison on the common path.
    return type(value) is Fraction or value != INFINITE_COST


def as_fraction(value) -> Fraction:
    """Exact conversion of int/Fraction (and exact binary floats) to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("cannot convert non-finite float to Fraction")
        return Fraction(value)
    raise TypeError("unsupported numeric type: %r" % type(value))


def element_mask(elements: Iterable[int]) -> int:
    """Int bitmask of a collection of element indices."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _positive_fraction(value, what: str) -> Fraction:
    f = as_fraction(value)
    if f <= 0:
        raise ValueError("%s must be positive, got %s" % (what, f))
    return f


# ---------------------------------------------------------------------------
# Cost models


@dataclass(frozen=True)
class UnitCosts:
    kind = "unit"


@dataclass(frozen=True)
class IdenticalCosts:
    base_costs: Tuple[Fraction, ...]

    kind = "identical"

    def __post_init__(self):
        object.__setattr__(
            self,
            "base_costs",
            tuple(_positive_fraction(c, "base cost") for c in self.base_costs),
        )


@dataclass(frozen=True)
class RelatedCosts:
    base_costs: Tuple[Fraction, ...]
    speeds: Tuple[Fraction, ...]

    kind = "related"

    def __post_init__(self):
        object.__setattr__(
            self,
            "base_costs",
            tuple(_positive_fraction(c, "base cost") for c in self.base_costs),
        )
        object.__setattr__(
            self, "speeds", tuple(_positive_fraction(s, "speed") for s in self.speeds)
        )


@dataclass(frozen=True)
class UnrelatedCosts:
    matrix: Tuple[Tuple[CostValue, ...], ...]

    kind = "unrelated"

    def __post_init__(self):
        rows = []
        for row in self.matrix:
            entries = []
            for entry in row:
                if entry == INFINITE_COST:
                    entries.append(INFINITE_COST)
                else:
                    entries.append(_positive_fraction(entry, "cost entry"))
            rows.append(tuple(entries))
        object.__setattr__(self, "matrix", tuple(rows))


CostModel = Union[UnitCosts, IdenticalCosts, RelatedCosts, UnrelatedCosts]


# ---------------------------------------------------------------------------
# Instance


@dataclass(frozen=True)
class ProblemInstance:
    """Universe of ``n`` elements, ``k`` covering sets, ``m`` machines.

    ``dag`` is an optional list of (predecessor, successor) edges over set
    indices; acyclicity is reported by :func:`validate_instance`, not
    enforced at construction time.
    """

    n: int
    sets: Tuple[Tuple[int, ...], ...]
    m: int
    cost_model: CostModel
    dag: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.m < 1:
            raise ValueError("machine count must be at least 1")
        normalized = []
        for i, members in enumerate(self.sets):
            clean = sorted(set(map(index, members)))
            for e in clean:
                if not 0 <= e < self.n:
                    raise InvalidIndexError(
                        "set %d contains element %d outside [0, %d)" % (i, e, self.n)
                    )
            normalized.append(tuple(clean))
        object.__setattr__(self, "sets", tuple(normalized))
        k = len(self.sets)
        model = self.cost_model
        if isinstance(model, (IdenticalCosts, RelatedCosts)):
            if len(model.base_costs) != k:
                raise ValueError("expected %d base costs, got %d" % (k, len(model.base_costs)))
        if isinstance(model, RelatedCosts) and len(model.speeds) != self.m:
            raise ValueError("expected %d speeds, got %d" % (self.m, len(model.speeds)))
        if isinstance(model, UnrelatedCosts):
            if len(model.matrix) != k or any(len(row) != self.m for row in model.matrix):
                raise ValueError("cost matrix must be %d x %d" % (k, self.m))
        if self.dag is not None:
            edges = []
            for e, (a, b) in enumerate(self.dag):
                a, b = index(a), index(b)
                if not (0 <= a < k and 0 <= b < k):
                    raise InvalidIndexError("dag edge %d references invalid set index" % e)
                edges.append((a, b))
            object.__setattr__(self, "dag", tuple(edges))

    @property
    def k(self) -> int:
        return len(self.sets)

    @cached_property
    def members(self) -> Tuple[frozenset, ...]:
        return tuple(frozenset(s) for s in self.sets)

    @cached_property
    def masks(self) -> Tuple[int, ...]:
        """Each set as an int bitmask: bit ``e`` is set for element ``e``."""
        return tuple(element_mask(s) for s in self.sets)

    @cached_property
    def costs(self) -> Tuple[Tuple[CostValue, ...], ...]:
        """The k x m cost table: ``costs[s][j]`` is the cost of set s on machine j.

        Entries are exact ``Fraction``s or ``INFINITE_COST``. Unit costs are 1,
        identical costs ``base_costs[s]``, related costs
        ``base_costs[s] / speeds[j]``, and an unrelated model's validated
        matrix is the table itself.
        """
        model = self.cost_model
        if model.kind == "unit":
            return ((Fraction(1),) * self.m,) * self.k
        if model.kind == "identical":
            return tuple((c,) * self.m for c in model.base_costs)
        if model.kind == "related":
            return tuple(tuple(c / v for v in model.speeds) for c in model.base_costs)
        return model.matrix

    @cached_property
    def finite_row_costs(self) -> Tuple[Optional[Tuple[Fraction, Fraction]], ...]:
        """Per set, the least and the total of its finite costs (None if none)."""
        stats = []
        for row in self.costs:
            finite = [c for c in row if is_finite_cost(c)]
            stats.append((min(finite), sum(finite, Fraction(0))) if finite else None)
        return tuple(stats)

    def cost(self, s: int, j: int) -> CostValue:
        """``costs[s][j]``, for indices that come from outside the instance."""
        if not 0 <= s < self.k:
            raise InvalidIndexError("set index %d out of range" % s)
        if not 0 <= j < self.m:
            raise InvalidIndexError("machine index %d out of range" % j)
        return self.costs[s][j]


def _check_per_machine(per_machine, k: int) -> Tuple[Tuple[int, ...], ...]:
    seen = set()
    rows = []
    for seq in per_machine:
        row = []
        for s in seq:
            s = index(s)
            if not 0 <= s < k:
                raise InvalidIndexError("set index %d out of range" % s)
            if s in seen:
                raise InvalidIndexError("set index %d appears twice" % s)
            seen.add(s)
            row.append(s)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class Assignment:
    """Per-machine families of set indices; a set sits on at most one machine."""

    per_machine: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        k = 1 + max((s for seq in self.per_machine for s in seq), default=-1)
        object.__setattr__(self, "per_machine", _check_per_machine(self.per_machine, k))

    @staticmethod
    def empty(m: int) -> "Assignment":
        return Assignment(tuple(() for _ in range(m)))

    def all_sets(self) -> Tuple[int, ...]:
        return tuple(sorted(s for seq in self.per_machine for s in seq))

    @property
    def is_empty(self) -> bool:
        return all(not seq for seq in self.per_machine)


@dataclass(frozen=True)
class Schedule:
    """Per-machine ordered sequences; unscheduled sets are permitted."""

    per_machine: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        k = 1 + max((s for seq in self.per_machine for s in seq), default=-1)
        object.__setattr__(self, "per_machine", _check_per_machine(self.per_machine, k))


@dataclass(frozen=True, eq=False)
class DensityValue:
    """Exact |coverage| / makespan value, compared by cross-multiplication."""

    covered: int
    makespan: Fraction

    def __post_init__(self):
        if self.covered < 0:
            raise ValueError("covered count must be nonnegative")
        mk = as_fraction(self.makespan)
        if mk <= 0:
            raise EmptyAssignmentError("density undefined for zero makespan")
        object.__setattr__(self, "makespan", mk)

    def as_fraction(self) -> Fraction:
        return Fraction(self.covered) / self.makespan

    def __eq__(self, other):
        if not isinstance(other, DensityValue):
            return NotImplemented
        return self.covered * other.makespan == other.covered * self.makespan

    def __lt__(self, other):
        return self.covered * other.makespan < other.covered * self.makespan

    def __le__(self, other):
        return self.covered * other.makespan <= other.covered * self.makespan

    def __gt__(self, other):
        return other.__lt__(self)

    def __ge__(self, other):
        return other.__le__(self)


# ---------------------------------------------------------------------------
# Operations


def coverage(
    inst: ProblemInstance,
    family: Iterable[int],
    restrict_to: Optional[Iterable[int]] = None,
) -> frozenset:
    """Union of the given sets, intersected with ``restrict_to`` (default: U)."""
    restrict = (
        frozenset(range(inst.n)) if restrict_to is None else frozenset(restrict_to)
    )
    out = set()
    for s in map(index, family):
        if not 0 <= s < inst.k:
            raise InvalidIndexError("set index %d out of range" % s)
        out |= inst.members[s]
    return frozenset(out) & restrict


def machine_loads(inst: ProblemInstance, per_machine) -> Tuple[Fraction, ...]:
    """Exact total cost per machine; rejects infinite-cost placements."""
    if len(per_machine) != inst.m:
        raise InvalidIndexError(
            "expected %d machine sequences, got %d" % (inst.m, len(per_machine))
        )
    loads = []
    for j, seq in enumerate(per_machine):
        total = Fraction(0)
        for s in seq:
            c = inst.cost(s, j)
            if not is_finite_cost(c):
                raise InfiniteCostError(
                    "set %d has infinite cost on machine %d" % (s, j)
                )
            total += c
        loads.append(total)
    return tuple(loads)


def density(
    inst: ProblemInstance,
    asg: Assignment,
    restrict_to: Optional[Iterable[int]] = None,
) -> DensityValue:
    """Covered element count over the cost of the most expensive machine."""
    if asg.is_empty:
        raise EmptyAssignmentError("density undefined for an empty assignment")
    loads = machine_loads(inst, asg.per_machine)
    covered = coverage(inst, asg.all_sets(), restrict_to)
    return DensityValue(len(covered), max(loads))


def evaluate_schedule_cost(
    inst: ProblemInstance, sched: Schedule
) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Total of per-element covering times, plus the per-element times.

    The finish time of a set is the prefix sum of costs along its machine;
    an element's covering time is the minimum finish time over scheduled
    sets containing it. Every element must be covered or
    ``UncoveredElementError`` is raised.
    """
    if len(sched.per_machine) != inst.m:
        raise InvalidIndexError(
            "expected %d machine sequences, got %d" % (inst.m, len(sched.per_machine))
        )
    cover_times = [None] * inst.n
    for j, seq in enumerate(sched.per_machine):
        elapsed = Fraction(0)
        for s in seq:
            c = inst.cost(s, j)
            if not is_finite_cost(c):
                raise InfiniteCostError(
                    "set %d has infinite cost on machine %d" % (s, j)
                )
            elapsed += c
            for u in inst.members[s]:
                if cover_times[u] is None or elapsed < cover_times[u]:
                    cover_times[u] = elapsed
    for u in range(inst.n):
        if cover_times[u] is None:
            raise UncoveredElementError(u)
    total = sum(cover_times, Fraction(0))
    return total, tuple(cover_times)


# ---------------------------------------------------------------------------
# Validation


def topological_order(num_nodes: int, edges: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """Kahn's algorithm; raises CyclicDagError when a directed cycle exists."""
    succs = [[] for _ in range(num_nodes)]
    indeg = [0] * num_nodes
    for a, b in edges:
        succs[a].append(b)
        indeg[b] += 1
    queue = [v for v in range(num_nodes) if indeg[v] == 0]
    queue.sort()
    order = []
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        order.append(v)
        for w in sorted(succs[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(order) != num_nodes:
        raise CyclicDagError("precedence graph contains a directed cycle")
    return tuple(order)


@dataclass(frozen=True)
class ValidationReport:
    coverable: bool
    uncovered_elements: Tuple[int, ...]
    costs_positive: bool
    dag_acyclic: Optional[bool]
    entries: Tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.coverable and self.costs_positive and self.dag_acyclic is not False


def validate_instance(inst: ProblemInstance) -> ValidationReport:
    """Report coverability, cost positivity and DAG acyclicity.

    Solvers reject an instance if and only if it is uncoverable (precedence
    solvers additionally require an acyclic DAG).
    """
    entries = []
    covered = set()
    for members in inst.members:
        covered |= members
    uncovered = tuple(sorted(set(range(inst.n)) - covered))
    if uncovered:
        entries.append("Uncoverable: elements %s belong to no set" % list(uncovered))

    costs_positive = True
    for s, row in enumerate(inst.costs):
        for j, c in enumerate(row):
            if is_finite_cost(c) and c <= 0:
                costs_positive = False
                entries.append("NonPositiveCost: set %d machine %d" % (s, j))

    dag_acyclic = None
    if inst.dag is not None:
        try:
            topological_order(inst.k, inst.dag)
            dag_acyclic = True
        except CyclicDagError as exc:
            dag_acyclic = False
            entries.append("CyclicDag: %s" % exc)

    return ValidationReport(
        coverable=not uncovered,
        uncovered_elements=uncovered,
        costs_positive=costs_positive,
        dag_acyclic=dag_acyclic,
        entries=tuple(entries),
    )
