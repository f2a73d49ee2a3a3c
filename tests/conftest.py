"""Shared fixtures: the figure-1 instance, the tiny T1 instance, corpora, and
a pivot counter for the LP engine."""

import collections
import functools
from fractions import Fraction
from pathlib import Path

import pytest

from pmssc import lp as lp_mod
from pmssc.core import (
    IdenticalCosts,
    ProblemInstance,
    RelatedCosts,
    Schedule,
    UnitCosts,
)
from pmssc.fileio import generate_instance, parse_instance
from pmssc.oracle import OracleLimits, exact_pmssc

DATA = Path(__file__).parent / "data"

# Values that are not indices, with the message ``core.as_index`` rejects
# each with: a bool is not read as 0 or 1, nor a float or string as an int.
NOT_INDICES = (
    (True, r"^an index must be an integer, not bool$"),
    (1.0, r"^'float' object cannot be interpreted as an integer$"),
    ("1", r"^'str' object cannot be interpreted as an integer$"),
)

# Figure-1 fixture: 10 sets over 20 elements on 3 identical machines, with the
# reference schedule M1=[S1,S2,S5], M2=[S4,S6,S7], M3=[S3,S8] of cost 83.
FIG1_SCHEDULE = Schedule(((0, 1, 4), (3, 5, 6), (2, 7)))

T1_SETS = ((0, 1), (2,), (0, 1, 2))
T1_COSTS = (Fraction(1), Fraction(1), Fraction(2))


@pytest.fixture(scope="session")
def fig1():
    return parse_instance((DATA / "fig1.json").read_bytes())


def t1_instance(m=1, model="identical", speeds=None):
    if model == "identical":
        cost_model = IdenticalCosts(T1_COSTS)
    elif model == "unit":
        cost_model = UnitCosts()
    elif model == "related":
        cost_model = RelatedCosts(T1_COSTS, tuple(Fraction(s) for s in speeds))
    else:
        raise ValueError(model)
    return ProblemInstance(n=3, sets=T1_SETS, m=m, cost_model=cost_model)


@pytest.fixture
def t1():
    return t1_instance(m=1)


@pytest.fixture
def count_pivots(monkeypatch):
    """A Counter of the LP engine's pivots while the test runs: ``primal`` for
    those of ``_optimize`` (cold solves, and the primal finish of a warm
    start), ``dual`` for those of the warm start's ``_dual_simplex``, and
    ``basis`` for the exact re-solve's rebuild of the float basis."""
    counts, phase = collections.Counter(), ["basis"]

    def counted(*args, _inner=lp_mod._pivot):
        counts[phase[-1]] += 1
        return _inner(*args)

    def in_phase(name, inner):
        def run(*args, **kwargs):
            phase.append(name)
            try:
                return inner(*args, **kwargs)
            finally:
                phase.pop()

        return run

    monkeypatch.setattr(lp_mod, "_pivot", counted)
    monkeypatch.setattr(lp_mod, "_optimize", in_phase("primal", lp_mod._optimize))
    monkeypatch.setattr(lp_mod, "_dual_simplex", in_phase("dual", lp_mod._dual_simplex))
    return counts


@functools.lru_cache(maxsize=None)
def fig1_optimum():
    inst = parse_instance((DATA / "fig1.json").read_bytes())
    limits = OracleLimits(max_k=10, max_m=3, max_n=20, node_budget=50_000_000)
    return exact_pmssc(inst, limits)


def identical_corpus(count=200):
    """Seeded instances with n<=8, k<=6, m<=2, integer costs <= 3."""
    out = []
    for seed in range(count):
        inst = generate_instance(
            n=3 + seed % 6,
            k=2 + seed % 5,
            m=1 + seed % 2,
            model="identical",
            density=0.25 + 0.1 * (seed % 4),
            seed=seed,
            max_cost=3,
        )
        out.append(inst)
    return out


def unit_dag_corpus(count=100):
    """Unit-cost DAG instances, k<=8, m<=2, edge probability 0.2 or 0.5."""
    out = []
    for seed in range(count):
        inst = generate_instance(
            n=3 + seed % 6,
            k=3 + seed % 6,
            m=1 + seed % 2,
            model="unit",
            density=0.25 + 0.1 * (seed % 3),
            seed=10_000 + seed,
            dag_edge_prob=0.2 if seed % 2 == 0 else 0.5,
        )
        out.append(inst)
    return out


def related_corpus(count=50):
    out = []
    for seed in range(count):
        inst = generate_instance(
            n=4 + seed % 5,
            k=3 + seed % 4,
            m=2 + seed % 2,
            model="related",
            density=0.3 + 0.1 * (seed % 3),
            seed=20_000 + seed,
            max_cost=3,
        )
        out.append(inst)
    return out


def pmc_corpus(count=100):
    """Mixed identical/unrelated instances for coverage runs, k<=8, m<=3."""
    out = []
    for seed in range(count):
        model = "unrelated" if seed % 2 == 0 else "identical"
        inst = generate_instance(
            n=3 + seed % 6,
            k=3 + seed % 6,
            m=1 + seed % 3,
            model=model,
            density=0.3 + 0.1 * (seed % 3),
            seed=30_000 + seed,
            max_cost=3,
        )
        out.append(inst)
    return out
