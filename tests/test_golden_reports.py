"""CLI reports pinned byte for byte to checked-in goldens.

Each case runs ``cli.main`` on instance files in ``data/golden`` and compares
its stdout, with the ``wall_time_s`` value zeroed, to ``data/golden/<case>.out``.
The first fifteen cases are acceptance criterion 11's invocations; the next
three are larger greedy runs whose budget ladders pass several fit counts:
identical machines with k = 45 (so max coverage also takes its ratio kernel),
related machines with three rational speeds, and unrelated machines with
infinite costs. The last is a related run with base costs up to 6, whose
ladders skip guesses that repeat a clamped integral solve.

A change that means to alter outputs rewrites the goldens with
``PYTHONPATH=src python tests/test_golden_reports.py`` and says why.
"""

import contextlib
import io
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pmssc.pds as pds_module
from pmssc import cli
from pmssc.core import ProblemInstance, RelatedCosts
from pmssc.fileio import generate_instance, serialize_instance

GOLDEN = Path(__file__).parent / "data" / "golden"

# case -> (command, instance file stem, further arguments)
_E1, _E2 = " --epsilon 0.1 --seed 9", " --epsilon 0.2 --seed 9"
CASES = {
    "solve-plain-greedy-identical": ("solve", "plain", "--algo greedy-identical" + _E1),
    "solve-unit-greedy-unit": ("solve", "unit", "--algo greedy-unit" + _E1),
    "solve-related-greedy-related": ("solve", "related", "--algo greedy-related" + _E2),
    "solve-unrelated-greedy-unrelated": ("solve", "unrelated", "--algo greedy-unrelated" + _E2),
    "solve-dag-greedy-precedence": ("solve", "dag", "--algo greedy-precedence" + _E1),
    "solve-plain-exact": ("solve", "plain", "--algo exact" + _E1),
    "pds-plain-identical": ("pds", "plain", "--algo identical" + _E1),
    "pds-unit-unit": ("pds", "unit", "--algo unit" + _E1),
    "pds-related-related": ("pds", "related", "--algo related" + _E2),
    "pds-unrelated-unrelated": ("pds", "unrelated", "--algo unrelated" + _E2),
    "pds-plain-exact": ("pds", "plain", "--algo exact" + _E1),
    "pds-dag-precedence": ("pds", "dag", "--algo precedence" + _E1),
    "pmc-plain-poly": ("pmc", "plain", "--budgets 2,2 --mode poly" + _E2),
    "pmc-plain-fpt": ("pmc", "plain", "--budgets 2,2 --mode fpt --mu 0.5" + _E2),
    "oracle-plain-pmssc": ("oracle", "plain", "--problem pmssc"),
    "solve-identical-k45": ("solve", "identical-k45", "--algo greedy-identical" + _E1),
    "solve-related-3speeds": ("solve", "related-3speeds", "--algo greedy-related" + _E2),
    "solve-unrelated-inf": ("solve", "unrelated-inf", "--algo greedy-unrelated" + _E2),
    "solve-related-cost6": ("solve", "related-cost6", "--algo greedy-related" + _E2),
}


def _instances():
    """The instance files the cases read, by name (written only on regeneration)."""
    related = generate_instance(n=24, k=10, m=3, model="related", density=0.2, seed=13)
    speeds = (Fraction(1), Fraction(3, 2), Fraction(5, 2))
    return {
        "plain": generate_instance(n=6, k=5, m=2, model="identical", density=0.4, seed=1),
        "unit": generate_instance(n=6, k=5, m=2, model="unit", density=0.4, seed=2),
        "related": generate_instance(n=6, k=5, m=2, model="related", density=0.4, seed=3),
        "unrelated": generate_instance(n=6, k=5, m=2, model="unrelated", density=0.4, seed=4),
        "dag": generate_instance(
            n=6, k=5, m=2, model="unit", density=0.4, seed=5, dag_edge_prob=0.4
        ),
        "identical-k45": generate_instance(
            n=50, k=45, m=4, model="identical", density=0.12, seed=11
        ),
        "related-3speeds": ProblemInstance(
            related.n, related.sets, 3, RelatedCosts(related.cost_model.base_costs, speeds)
        ),
        "unrelated-inf": generate_instance(
            n=40, k=16, m=4, model="unrelated", density=0.12, seed=17, max_cost=5
        ),
        "related-cost6": generate_instance(
            n=8, k=5, m=2, model="related", density=0.4, seed=1, max_cost=6
        ),
    }


def _argv(case):
    command, stem, rest = CASES[case]
    return [command, "--instance", str(GOLDEN / (stem + ".json"))] + rest.split()


def _report(case):
    """``cli.main``'s stdout for ``case``, with the wall time zeroed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(_argv(case))
    assert code == 0, case
    return re.sub(r'("wall_time_s": )[^,\n]+', r"\g<1>0", out.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    assert _report(case) == (GOLDEN / (case + ".out")).read_text(encoding="utf-8")


def test_a_related_golden_case_skips_repeated_guesses(monkeypatch):
    # The skip of a guess that repeats a clamped integral solve must be taken
    # on a pinned report, so the goldens show it leaves outputs unchanged. On
    # the int ladder's coarse grid the small related case no longer meets
    # one; its costs up to 6 make this case skip.
    answers = []

    def recording(*args, _inner=pds_module._pmc_solver):
        solve = _inner(*args)

        def recorded(*guess):
            answers.append(solve(*guess))
            return answers[-1]

        return recorded

    monkeypatch.setattr(pds_module, "_pmc_solver", recording)
    case = "solve-related-cost6"
    assert _report(case) == (GOLDEN / (case + ".out")).read_text(encoding="utf-8")
    assert None in answers and any(a is not None for a in answers)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, inst in _instances().items():
        (GOLDEN / (name + ".json")).write_text(serialize_instance(inst), encoding="utf-8")
    for case in CASES:
        (GOLDEN / (case + ".out")).write_text(_report(case), encoding="utf-8")
    sys.exit(0)
