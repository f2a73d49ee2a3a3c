"""Invariants stay alive under ``python -O``.

``python -O`` strips ``assert`` statements, so the library states its
invariants as ``InvariantError`` raises instead. One test keeps ``assert``
out of ``src/pmssc``; the breach tests force two invariants to fail and check
that the error is raised both in-process and in an optimised interpreter.
"""

import ast
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import t1_instance
import pmssc.oracle as oracle_module
import pmssc.precedence as precedence_module
from pmssc.core import ProblemInstance, UnitCosts
from pmssc.errors import InvariantError

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def test_library_has_no_assert_statements():
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted((SRC / "pmssc").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def breach_exact_pmssc(patch):
    """The final re-evaluation disagrees with the branch-and-bound cost."""
    evaluate = oracle_module.evaluate_schedule_cost

    def off_by_one(inst, schedule):
        cost, cover_times = evaluate(inst, schedule)
        return cost + 1, cover_times

    patch(oracle_module, "evaluate_schedule_cost", off_by_one)
    oracle_module.exact_pmssc(t1_instance(m=2))


def breach_pcds_detailed(patch):
    """The winner's layout takes one slot more than its per-depth counts give."""
    layered_assign = precedence_module.layered_assign

    def one_slot_late(family, dag, m):
        layered = layered_assign(family, dag, m)
        return replace(layered, makespan=layered.makespan + 1)

    patch(precedence_module, "layered_assign", one_slot_late)
    inst = ProblemInstance(
        n=4, sets=((0,), (1, 2, 3)), m=1, cost_model=UnitCosts(), dag=((0, 1),)
    )
    precedence_module.pcds_detailed(inst, frozenset(range(4)))


BREACHES = [breach_exact_pmssc, breach_pcds_detailed]


@pytest.mark.parametrize("breach", BREACHES, ids=lambda b: b.__name__)
def test_breach_raises_invariant_error(breach, monkeypatch):
    with pytest.raises(InvariantError):
        breach(monkeypatch.setattr)


@pytest.mark.parametrize("breach", BREACHES, ids=lambda b: b.__name__)
def test_breach_raises_invariant_error_under_optimize(breach):
    code = (
        "import sys\n"
        "from pmssc.errors import InvariantError\n"
        "import test_no_asserts as t\n"
        "try:\n"
        "    t.%s(setattr)\n"
        "except InvariantError:\n"
        "    print('InvariantError', sys.flags.optimize)\n" % breach.__name__
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=TESTS, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout.split() == ["InvariantError", "1"], proc.stderr
