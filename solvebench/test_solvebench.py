"""Tests of the benchmark's own generator, checker and tracer."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from solvebench import checker, instances, run, tracing

ROOT = Path(__file__).resolve().parents[1]

# n=4, k=4, m=2 identical machines; the sets cover every element.
DOC = {
    "version": 1,
    "n": 4,
    "m": 2,
    "cost_model": {"kind": "identical", "base_costs": [1, 2, 1, 3]},
    "sets": [[0, 1], [2], [3], [0, 2, 3]],
}
# Machine 0 runs sets 0 then 1 (finish 1, 3); machine 1 runs set 2 (finish 1).
# Cover times: u0=1, u1=1, u2=3, u3=1, total 6.
GOOD = {
    "schedule": [[0, 1], [2]],
    "cost": 6,
    "cover_times": [1, 1, 3, 1],
    "upper_bound": 10,
}


def _with(**changes):
    report = json.loads(json.dumps(GOOD))
    report.update(changes)
    return report


def test_checker_accepts_a_correct_report():
    assert checker.check_report(DOC, GOOD) == []


@pytest.mark.parametrize(
    "report, needle",
    [
        (_with(schedule=[[0], [2]]), "never covered"),  # dropped set 1
        (_with(schedule=[[0, 1], [2, 0]]), "more than once"),  # duplicated set 0
        (_with(cost=7), "reported cost"),
        (_with(cover_times=[1, 1, 2, 1]), "cover_times"),
        (_with(upper_bound=5), "exceeds reported upper_bound"),
        (_with(schedule=[[0, 1, 9], [2]]), "bad set index"),
        (_with(schedule=[[0, 1]]), "machine sequences"),
        (_with(upper_bound=None), "unreadable"),
    ],
)
def test_checker_rejects_a_corrupted_report(report, needle):
    problems = checker.check_report(DOC, report)
    assert any(needle in p for p in problems), problems


def test_checker_rejects_an_infinite_placement():
    doc = dict(DOC, cost_model={"kind": "unrelated", "matrix": [[1, 1], [2, 2], [1, "inf"], [3, 3]]})
    report = _with(schedule=[[0, 1], [2]])
    assert any("infinite cost" in p for p in checker.check_report(doc, report))


def test_related_costs_and_lower_bound_are_exact():
    doc = dict(DOC, cost_model={"kind": "related", "base_costs": [1, 2, 1, 3], "speeds": [[3, 2], 1]})
    assert checker.cost_table(doc)[1] == [Fraction(4, 3), Fraction(2)]
    # u0, u1 via set 0 at 2/3; u2 via set 1 at 4/3; u3 via set 2 at 2/3.
    assert checker.trivial_lower_bound(doc) == Fraction(2, 3) * 3 + Fraction(4, 3)


def test_checker_accepts_the_programs_own_report(tmp_path):
    cli = pytest.importorskip("pmssc.cli")
    path = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    for name, workload in instances.WORKLOADS.items():
        doc = instances.warmup_document(workload)
        path.write_text(json.dumps(doc))
        argv = ["solve", "--instance", str(path), "--algo", workload.algo, "--out", str(out)]
        assert cli.main(argv) == 0, name
        assert checker.check_report(doc, json.loads(out.read_text())) == [], name


def test_generator_is_deterministic_per_seed_and_keeps_workload_properties():
    for workload in instances.WORKLOADS.values():
        for i in range(workload.pool):
            doc = instances.generate(workload, 3, i)
            assert doc == instances.generate(workload, 3, i)
            assert doc != instances.generate(workload, 4, i)
            instances.check_property(workload, doc)
            assert sorted(set().union(*map(set, doc["sets"]))) == list(range(doc["n"]))


def test_property_check_rejects_inputs_outside_the_workload():
    small = instances.WORKLOADS["identical-small"]
    big = dict(DOC, sets=[[0]] * 41, cost_model={"kind": "identical", "base_costs": [1] * 41})
    with pytest.raises(ValueError):
        instances.check_property(small, big)
    large = instances.WORKLOADS["identical-large"]
    with pytest.raises(ValueError):
        instances.check_property(large, big | {"cost_model": {
            "kind": "identical", "base_costs": [1] * 40 + [2]}})


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [  # (name, parent, start, end) in open order
        ("root", -1, 0, 100),
        ("a", 0, 10, 30),
        ("leaf", 1, 12, 18),
        ("b", 0, 20, 40),  # overlaps a: the union of a and b is [10, 40]
        ("leaf", 3, 21, 22),
        ("c", 0, 90, 120),  # sticks out of root: only [90, 100] counts
    ]
    names, parent, start, end = zip(*spans)
    assert tracing.self_times(parent, start, end) == [100 - 30 - 10, 20 - 6, 6, 19, 1, 30]
    totals = tracing.totals(names, parent, start, end)
    assert totals["leaf"] == (2, 7, 7)
    assert totals["root"] == (1, 100, 60)


def test_tracer_reports_missing_names_and_failed_hooks():
    tracer = tracing.Tracer()
    restore = tracer.install(
        (("solvebench.checker", "no_such_function", "x.gone"),
         ("solvebench.checker", "cost_table", "maxcov.budgeted_max_coverage"))
    )
    try:
        # The maxcov hook expects a second positional argument; it must fail
        # quietly and still let the call through.
        assert tracer.call("cli.main", checker.cost_table, DOC)[0] == [1, 1]
    finally:
        restore()
    assert tracer.missing == {"solvebench.checker.no_such_function"}
    assert tracer.hook_failures == {"maxcov.budgeted_max_coverage"}
    assert checker.cost_table.__name__ == "cost_table"
    assert [tracer.names[i] for i in tracer.name_id] == [
        "cli.main", "maxcov.budgeted_max_coverage", "trace.bookkeeping"]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(instances.WORKLOADS)
