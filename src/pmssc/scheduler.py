"""Greedy min-sum set cover driver.

Repeatedly asks a densest-subfamily oracle for an assignment against the
still-uncovered elements and appends it to the schedule; any oracle with
density guarantee alpha turns this into a 4/alpha approximation.

Bookkeeping notes:

* sets handed out by the oracle that cover nothing new are dropped before
  appending (harmless for the bound, strictly better realized cost);
* within one iteration each machine's batch is reordered by marginal
  coverage per cost, which the bound also tolerates;
* machines run without synchronization barriers: appended work starts at
  each machine's own current end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Tuple, Union

from .core import (
    Assignment,
    ProblemInstance,
    Schedule,
    validate_instance,
)
from .errors import StalledOracleError, UncoverableError
from .oracle import exact_pds
from .pds import pds_identical, pds_related, pds_unrelated
from .rng import child_seed


@dataclass(frozen=True)
class GreedyIteration:
    assignment: Assignment
    makespan: Fraction
    newly_covered: frozenset
    remaining_before: int


@dataclass(frozen=True)
class GreedyTrace:
    iterations: Tuple[GreedyIteration, ...]


def upper_bound_from_trace(trace: GreedyTrace) -> Fraction:
    """Sum over iterations of |remaining| * makespan: the proof's cost bound."""
    return sum(
        (Fraction(it.remaining_before) * it.makespan for it in trace.iterations),
        Fraction(0),
    )


UNIT_MODEL_ONLY = "the unit oracle needs the unit cost model"


def _pds_unit(inst, remaining, available, epsilon, seed):
    """``unit`` names the identical ladder restricted to unit-cost instances."""
    if inst.cost_model.kind != "unit":
        raise ValueError(UNIT_MODEL_ONLY)
    return pds_identical(inst, remaining, epsilon, available=available)


# Oracle name -> (inst, remaining, available, epsilon, seed) -> Assignment.
# Each entry resolves its solver as a module global at call time, so a
# wrapper installed on that global sees every call.
ORACLES = {
    "identical": lambda inst, remaining, available, epsilon, seed: (
        pds_identical(inst, remaining, epsilon, available=available)
    ),
    "unit": _pds_unit,
    "related": lambda inst, remaining, available, epsilon, seed: (
        pds_related(inst, remaining, epsilon, available=available, seed=seed)
    ),
    "unrelated": lambda inst, remaining, available, epsilon, seed: (
        pds_unrelated(inst, remaining, epsilon, available=available, seed=seed)
    ),
    "exact": lambda inst, remaining, available, epsilon, seed: (
        exact_pds(inst, remaining, available=available)[0]
    ),
}
# The entries that draw random numbers. Only these get a per-iteration child
# seed: deriving one imports numpy.random (about 5 MB and 20 ms), which the
# identical and exact runs otherwise never load.
SEEDED_ORACLES = frozenset({"related", "unrelated"})


def _order_batch(inst, j, sets_on_machine, remaining):
    """Greedy marginal-coverage-per-cost order within one machine's batch."""
    pending = list(sets_on_machine)
    covered = set()
    ordered = []
    while pending:
        best = None
        for s in pending:
            gain = len((inst.members[s] & remaining) - covered)
            cost = inst.costs[s][j]
            if best is None or gain * best[1] > best[0] * cost:
                best = (gain, cost, s)
        _, _, s = best
        pending.remove(s)
        ordered.append(s)
        covered |= inst.members[s] & remaining
    return ordered


def pmssc_greedy(
    inst: ProblemInstance,
    oracle: Union[str, Callable] = "identical",
    epsilon: float = 0.1,
    seed: int = 0,
) -> Tuple[Schedule, GreedyTrace]:
    """Greedy scheme: cover the universe by repeated densest-subfamily calls."""
    report = validate_instance(inst)
    if not report.coverable:
        raise UncoverableError(
            "elements %s cannot be covered" % list(report.uncovered_elements)
        )
    if callable(oracle):
        oracle_fn = oracle
    elif oracle in ORACLES:
        if oracle == "unit" and inst.cost_model.kind != "unit":
            raise ValueError(UNIT_MODEL_ONLY)  # even when nothing is left to cover
        entry, seeded = ORACLES[oracle], oracle in SEEDED_ORACLES

        def oracle_fn(remaining, available, iteration):
            step_seed = child_seed(seed, iteration) if seeded else seed
            return entry(inst, remaining, available, epsilon, step_seed)
    else:
        raise ValueError("unknown oracle %r" % oracle)

    remaining = frozenset(range(inst.n))
    available = set(range(inst.k))
    machines = [[] for _ in range(inst.m)]
    iterations = []
    step = 0
    while remaining:
        if step > inst.n:
            raise StalledOracleError("greedy failed to make progress")
        asg = oracle_fn(remaining=remaining, available=frozenset(available), iteration=step)
        kept = []
        for j, seq in enumerate(asg.per_machine):
            useful = [s for s in seq if inst.members[s] & remaining]
            kept.append(_order_batch(inst, j, useful, remaining))
        newly = frozenset()
        for seq in kept:
            for s in seq:
                newly |= inst.members[s] & remaining
        if not newly:
            raise StalledOracleError("oracle assignment covers no remaining element")
        makespan = Fraction(0)
        for j, seq in enumerate(kept):
            machines[j].extend(seq)
            load = sum((inst.costs[s][j] for s in seq), Fraction(0))
            makespan = max(makespan, load)
        iterations.append(
            GreedyIteration(
                assignment=Assignment(tuple(tuple(seq) for seq in kept)),
                makespan=makespan,
                newly_covered=newly,
                remaining_before=len(remaining),
            )
        )
        remaining -= newly
        for seq in asg.per_machine:
            available.difference_update(seq)
        step += 1
    schedule = Schedule(tuple(tuple(seq) for seq in machines))
    return schedule, GreedyTrace(tuple(iterations))
