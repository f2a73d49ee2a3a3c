"""Instance and schedule data model for parallel min-sum set cover.

Elements and covering sets are dense integer indices. The four cost models
(unit, identical, related, unrelated) are special cases of the unrelated one:
a k x m table with the cost of set s on machine j in row s, column j. Each
input value is checked once, here, for API callers and instance files alike:
the cost models make costs and speeds positive `fractions.Fraction`s, and
``ProblemInstance`` sorts each set and range-checks it and the DAG edges. A
rejected value's error carries ``where``, its argument and position, such as
``("sets", 1, 0)``. ``ProblemInstance.costs`` builds the cost table once in
exact rationals. Infinite entries are the ``INFINITE_COST`` sentinel
(``math.inf``), rejected inside any assignment or schedule. The solvers
compute on ints instead: the scale ``L`` is the LCM of the finite costs'
denominators, and ``icosts = costs * L``. Loads, makespans, covering times
and densities are ints at their instance's scale (``DensityValue`` and max
coverage take no other form); a rational bound g meets them as
``floor(g * L)`` (``scaled_floor``); the PMC rounding sums a machine's loads
in numpy int64 arrays (Python ints past 2^63), after dividing its column and
its limit by the column's gcd. ``Fraction`` stays in the cost
models, the public views (``costs``, ``cost()``, ``DensityValue.makespan``
and ``as_fraction``, the values ``evaluate_schedule_cost`` returns), the
report writer and the LP's normalised budget rows. No cost comparison goes
through floating point.

All types here are immutable value data after construction and every
operation is a pure function, so everything is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import index, itemgetter
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


def as_index(value) -> int:
    """``operator.index``, except that ``bool`` is rejected with ``TypeError``."""
    if isinstance(value, bool):
        raise TypeError("an index must be an integer, not bool")
    return index(value)


def element_mask(elements: Iterable[int]) -> int:
    """Int bitmask of a collection of element indices."""
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _positive_fractions(values, what: str, where: tuple, infinite: bool = False) -> tuple:
    """Each of ``values`` as a positive ``Fraction`` (``INFINITE_COST`` kept if
    ``infinite``). A rejected value raises with ``where`` plus its position."""
    out = []
    try:
        for value in values:
            f = value if infinite and value == INFINITE_COST else as_fraction(value)
            if f <= 0:
                raise ValueError("%s must be positive, got %s" % (what, f))
            out.append(f)
    except (TypeError, ValueError) as exc:
        exc.where = where + (len(out),)
        raise
    return tuple(out)


def _sorted_indices(values, bound: int, what: str) -> list:
    """``values`` as sorted distinct ints in [0, bound). A bool, float or string
    raises ``TypeError``; ``InvalidIndexError`` names the smallest value outside."""
    clean = sorted({v if type(v) is int else as_index(v) for v in values})
    if clean and not (0 <= clean[0] and clean[-1] < bound):
        bad = next(v for v in clean if not 0 <= v < bound)
        raise InvalidIndexError("%s %d outside [0, %d)" % (what, bad, bound))
    return clean


def _is_index_below(value, bound: int) -> bool:
    try:
        return 0 <= as_index(value) < bound
    except TypeError:
        return False


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
            self, "base_costs", _positive_fractions(self.base_costs, "base cost", ("base_costs",))
        )


@dataclass(frozen=True)
class RelatedCosts:
    base_costs: Tuple[Fraction, ...]
    speeds: Tuple[Fraction, ...]

    kind = "related"

    def __post_init__(self):
        object.__setattr__(
            self, "base_costs", _positive_fractions(self.base_costs, "base cost", ("base_costs",))
        )
        object.__setattr__(self, "speeds", _positive_fractions(self.speeds, "speed", ("speeds",)))


@dataclass(frozen=True)
class UnrelatedCosts:
    matrix: Tuple[Tuple[CostValue, ...], ...]

    kind = "unrelated"

    def __post_init__(self):
        rows = tuple(
            _positive_fractions(row, "cost entry", ("matrix", i), infinite=True)
            for i, row in enumerate(self.matrix)
        )
        object.__setattr__(self, "matrix", rows)


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
            try:
                what = "set %d contains element" % i
                normalized.append(tuple(_sorted_indices(members, self.n, what)))
            except (TypeError, InvalidIndexError) as exc:
                listed = members if isinstance(members, (list, tuple)) else ()
                exc.where = ("sets", i, next(
                    (q for q, e in enumerate(listed) if not _is_index_below(e, self.n)), None
                ))
                raise
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
            for e, edge in enumerate(self.dag):
                try:
                    a, b = edge
                    a, b = as_index(a), as_index(b)
                    if not (0 <= a < k and 0 <= b < k):
                        raise InvalidIndexError("dag edge %d references invalid set index" % e)
                except (TypeError, ValueError, InvalidIndexError) as exc:
                    exc.where = ("dag", e)
                    raise
                edges.append((a, b))
            object.__setattr__(self, "dag", tuple(edges))

    @property
    def k(self) -> int:
        return len(self.sets)

    @cached_property
    def masks(self) -> Tuple[int, ...]:
        """Each set as an int bitmask: bit ``e`` is set for element ``e``."""
        return tuple(element_mask(s) for s in self.sets)

    @cached_property
    def dag_order(self) -> Tuple[int, ...]:
        """``topological_order`` of the sets under ``dag`` (raises on a cycle)."""
        return topological_order(self.k, self.dag or ())

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

    @property
    def _row_width(self) -> int:
        """1 when each row repeats one cost m times (unit, identical), else m."""
        return 1 if self.cost_model.kind in ("unit", "identical") else self.m

    @cached_property
    def scale(self) -> int:
        """``L``, the LCM of the finite costs' denominators (1 if none)."""
        w = self._row_width
        finite = (c for row in self.costs for c in row[:w] if c is not INFINITE_COST)
        return math.lcm(*{c.denominator for c in finite})

    @cached_property
    def icosts(self) -> Tuple[Tuple[Union[int, float], ...], ...]:
        """``costs`` times ``scale`` as ints; an infinite entry stays ``INFINITE_COST``."""
        scale, w = self.scale, self._row_width
        return tuple(
            tuple(c if c is INFINITE_COST else c.numerator * scale // c.denominator for c in r[:w])
            * (self.m // w)
            for r in self.costs
        )

    @cached_property
    def finite_row_icosts(self) -> Tuple[Optional[Tuple[int, int]], ...]:
        """Per set, the least and the total of its finite ``icosts`` (None if none)."""
        rows = ([c for c in row if c is not INFINITE_COST] for row in self.icosts)
        return tuple((min(row), sum(row)) if row else None for row in rows)

    @cached_property
    def icost_order(self) -> Tuple[Tuple[int, int], ...]:
        """Every finite ``icosts`` entry as an (int cost, set) pair, ascending, ties in
        set order. A unit or identical row repeats one cost m times and gives one pair."""
        w = self._row_width
        pairs = [
            (c, s) for s, row in enumerate(self.icosts) for c in row[:w] if c is not INFINITE_COST
        ]
        return tuple(sorted(pairs, key=itemgetter(0)))

    def cost(self, s: int, j: int) -> CostValue:
        """``costs[s][j]``, for indices that come from outside the instance."""
        if not 0 <= s < self.k:
            raise InvalidIndexError("set index %d out of range" % s)
        if not 0 <= j < self.m:
            raise InvalidIndexError("machine index %d out of range" % j)
        return self.costs[s][j]


def _check_per_machine(self) -> None:
    """``__post_init__`` of ``Assignment`` and ``Schedule``: each machine's set
    indices as ints, none negative and none on two machines or twice on one."""
    seen = set()
    rows = []
    for seq in self.per_machine:
        row = []
        for s in seq:
            s = as_index(s)
            if s < 0:
                raise InvalidIndexError("set index %d out of range" % s)
            if s in seen:
                raise InvalidIndexError("set index %d appears twice" % s)
            seen.add(s)
            row.append(s)
        rows.append(tuple(row))
    object.__setattr__(self, "per_machine", tuple(rows))


@dataclass(frozen=True)
class Assignment:
    """Per-machine families of set indices; a set sits on at most one machine."""

    per_machine: Tuple[Tuple[int, ...], ...]

    __post_init__ = _check_per_machine

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

    __post_init__ = _check_per_machine


@dataclass(frozen=True, eq=False)
class DensityValue:
    """Exact ``covered / makespan`` for the makespan ``load / scale``, compared by
    cross-multiplying ints. ``load`` is an int (not a bool) at its ``scale``."""

    covered: int
    load: int
    scale: int = 1

    def __post_init__(self):
        if self.covered < 0:
            raise ValueError("covered count must be nonnegative")
        if type(self.load) is not int:
            raise TypeError("load must be an int at its scale, got %r" % type(self.load))
        if self.load <= 0:
            raise EmptyAssignmentError("density undefined for zero makespan")

    @property
    def makespan(self) -> Fraction:
        return Fraction(self.load, self.scale)

    def as_fraction(self) -> Fraction:
        return Fraction(self.covered * self.scale, self.load)

    def __eq__(self, other):
        if not isinstance(other, DensityValue):
            return NotImplemented
        return self.covered * self.scale * other.load == other.covered * other.scale * self.load

    def __lt__(self, other):
        return self.covered * self.scale * other.load < other.covered * other.scale * self.load

    def __le__(self, other):
        return self.covered * self.scale * other.load <= other.covered * other.scale * self.load

    def __gt__(self, other):
        return other.__lt__(self)

    def __ge__(self, other):
        return other.__le__(self)


def scaled_floor(scale: int, *factors) -> int:
    """``floor(scale * product of factors)`` for int and ``Fraction`` factors. An
    int c is at most ``x * scale`` exactly when it is at most ``scaled_floor(scale, x)``."""
    num, den = scale, 1
    for f in factors:
        num *= f.numerator
        den *= f.denominator
    return num // den


# ---------------------------------------------------------------------------
# Operations


def available_pool(inst: ProblemInstance, available: Optional[Iterable[int]]) -> list:
    """``available`` (default: all k sets) in index order, once each, all in [0, k)."""
    if available is None:
        return list(range(inst.k))
    return _sorted_indices(available, inst.k, "available set")


def remaining_elements(inst: ProblemInstance, remaining: Optional[Iterable[int]]) -> frozenset:
    """``remaining`` (default: all n elements) as a frozenset, all in [0, n)."""
    if remaining is None:
        return frozenset(range(inst.n))
    return frozenset(_sorted_indices(remaining, inst.n, "remaining element"))


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
    for s in map(as_index, family):
        if not 0 <= s < inst.k:
            raise InvalidIndexError("set index %d out of range" % s)
        out.update(inst.sets[s])
    return frozenset(out) & restrict


def _placed_icost(inst: ProblemInstance, s: int, j: int) -> int:
    """``icosts[s][j]``; rejects a set index out of range and an infinite cost."""
    if not 0 <= s < inst.k:
        raise InvalidIndexError("set index %d out of range" % s)
    c = inst.icosts[s][j]
    if c is INFINITE_COST:
        raise InfiniteCostError("set %d has infinite cost on machine %d" % (s, j))
    return c


def _check_machine_count(inst: ProblemInstance, per_machine) -> None:
    if len(per_machine) != inst.m:
        raise InvalidIndexError(
            "expected %d machine sequences, got %d" % (inst.m, len(per_machine))
        )


def machine_loads(inst: ProblemInstance, per_machine) -> Tuple[int, ...]:
    """Total ``icosts`` per machine; rejects infinite-cost placements."""
    _check_machine_count(inst, per_machine)
    return tuple(
        sum(_placed_icost(inst, s, j) for s in seq) for j, seq in enumerate(per_machine)
    )


@lru_cache(maxsize=1)
def _restriction_mask(n: int, restrict: frozenset) -> int:
    """Mask of the members of ``restrict`` equal to an element of [0, n); as in
    ``coverage``, the others are ignored. The greedy driver passes one
    ``remaining`` to every density call of a ladder, so the last is cached."""
    universe = range(n)
    return element_mask(universe.index(e) for e in restrict if e in universe)


def density(
    inst: ProblemInstance,
    asg: Assignment,
    restrict_to: Optional[Iterable[int]] = None,
) -> DensityValue:
    """Covered element count over the cost of the most expensive machine."""
    if asg.is_empty:
        raise EmptyAssignmentError("density undefined for an empty assignment")
    loads = machine_loads(inst, asg.per_machine)  # checks every index is in [0, k)
    if restrict_to is None:
        restrict = (1 << inst.n) - 1
    else:
        restrict = _restriction_mask(inst.n, frozenset(restrict_to))
    covered = 0
    for s in asg.all_sets():
        covered |= inst.masks[s]
    return DensityValue((covered & restrict).bit_count(), max(loads), inst.scale)


def evaluate_schedule_cost(
    inst: ProblemInstance, sched: Schedule
) -> Tuple[Fraction, Tuple[Fraction, ...]]:
    """Total of per-element covering times, plus the per-element times.

    The finish time of a set is the prefix sum of costs along its machine;
    an element's covering time is the minimum finish time over scheduled
    sets containing it. Every element must be covered or
    ``UncoveredElementError`` is raised. The sums run on ``icosts``.
    """
    _check_machine_count(inst, sched.per_machine)
    cover_times = [None] * inst.n
    for j, seq in enumerate(sched.per_machine):
        elapsed = 0
        for s in seq:
            elapsed += _placed_icost(inst, s, j)
            for u in inst.sets[s]:
                if cover_times[u] is None or elapsed < cover_times[u]:
                    cover_times[u] = elapsed
    if None in cover_times:
        raise UncoveredElementError(cover_times.index(None))
    scale = inst.scale
    return Fraction(sum(cover_times), scale), tuple(Fraction(t, scale) for t in cover_times)


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
    dag_acyclic: Optional[bool]
    entries: Tuple[str, ...]

    @property
    def valid(self) -> bool:
        return self.coverable and self.dag_acyclic is not False


def validate_instance(inst: ProblemInstance) -> ValidationReport:
    """Report coverability and DAG acyclicity.

    An element is coverable when a set with some finite cost holds it.
    Solvers reject an instance if and only if it is uncoverable (precedence
    solvers additionally require an acyclic DAG).
    """
    entries = []
    covered = 0
    for mask, row in zip(inst.masks, inst.finite_row_icosts):
        if row is not None:
            covered |= mask
    uncovered = tuple(u for u in range(inst.n) if not covered >> u & 1)
    if uncovered:
        entries.append(
            "Uncoverable: elements %s belong to no set with a finite cost" % list(uncovered)
        )

    dag_acyclic = None
    if inst.dag is not None:
        try:
            inst.dag_order
            dag_acyclic = True
        except CyclicDagError as exc:
            dag_acyclic = False
            entries.append("CyclicDag: %s" % exc)

    return ValidationReport(
        coverable=not uncovered,
        uncovered_elements=uncovered,
        dag_acyclic=dag_acyclic,
        entries=tuple(entries),
    )
