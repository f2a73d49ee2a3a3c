import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmssc.oracle as oracle_module
from pmssc import cli
from pmssc.core import (
    INFINITE_COST,
    IdenticalCosts,
    ProblemInstance,
    RelatedCosts,
    Schedule,
    UnrelatedCosts,
    evaluate_schedule_cost,
    validate_instance,
)
from pmssc.errors import ParseError, ValidationError
from pmssc.fileio import (
    generate_instance,
    instance_to_dict,
    parse_instance,
    serialize_instance,
)


def test_fig1_file_parses(fig1):
    assert fig1.n == 20 and fig1.k == 10 and fig1.m == 3
    assert fig1.cost_model.kind == "identical"
    assert [int(c) for c in fig1.cost_model.base_costs] == [1, 2, 3, 2, 4, 5, 1, 3, 2, 4]


def test_round_trip_all_models():
    for i, model in enumerate(("unit", "identical", "related", "unrelated")):
        for seed in range(250):
            inst = generate_instance(
                n=2 + seed % 7, k=1 + seed % 6, m=1 + seed % 3,
                model=model, density=0.35, seed=seed * 4 + i,
                dag_edge_prob=0.3 if seed % 5 == 0 else None,
            )
            again = parse_instance(serialize_instance(inst))
            assert again == inst


def test_serializing_a_non_integral_cost_raises():
    # The file format holds integer costs only: 5/2 must not be written as 2,
    # nor 1/3 as 0.
    for model, m, entry in (
        (IdenticalCosts((Fraction(5, 2),)), 1, "cost_model.base_costs[0] = 5/2"),
        (IdenticalCosts((1, Fraction(1, 3))), 1, "cost_model.base_costs[1] = 1/3"),
        (RelatedCosts((1, Fraction(1, 3)), (1,)), 1, "cost_model.base_costs[1] = 1/3"),
        (UnrelatedCosts(((1, INFINITE_COST), (2, Fraction(7, 3)))), 2, "cost_model.matrix[1][1] = 7/3"),
    ):
        k = len(model.matrix if model.kind == "unrelated" else model.base_costs)
        inst = ProblemInstance(n=1, sets=((0,),) * k, m=m, cost_model=model)
        with pytest.raises(ValueError, match=re.escape(entry)):
            serialize_instance(inst)
    inst = ProblemInstance(n=1, sets=((0,),), m=1, cost_model=IdenticalCosts((Fraction(4, 2),)))
    assert parse_instance(serialize_instance(inst)) == inst


def test_parse_rejects_element_out_of_range():
    table = [
        (True, "expected an integer"),
        (1.0, "expected an integer"),
        ("1", "expected an integer"),
        (-1, "element -1 outside [0, 2)"),
        (None, "expected an integer"),
        (2, "element 2 outside [0, 2)"),
    ]
    for element, message in table:
        doc = {"version": 1, "n": 2, "m": 1,
               "cost_model": {"kind": "unit"}, "sets": [[1], [0, element]]}
        with pytest.raises(ValidationError) as err:
            parse_instance(json.dumps(doc))
        assert (err.value.path, err.value.message) == ("sets[1][1]", message), element


def test_parse_rejects_cyclic_dag():
    doc = {
        "version": 1, "n": 1, "m": 1, "cost_model": {"kind": "unit"},
        "sets": [[0], [0]], "dag_edges": [[0, 1], [1, 0]],
    }
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    assert "CyclicDag" in str(err.value)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_instance(b"{not json")
    for version in (True, 1.0, 2):
        doc = {"version": version, "n": 1, "m": 1, "cost_model": {"kind": "unit"}, "sets": [[0]]}
        with pytest.raises(ValidationError) as err:
            parse_instance(json.dumps(doc))
        assert (err.value.path, err.value.message) == ("version", "unsupported version %r" % version)


def test_parse_infinite_matrix_entries():
    doc = {
        "version": 1, "n": 1, "m": 2,
        "cost_model": {"kind": "unrelated", "matrix": [[1, "inf"]]},
        "sets": [[0]],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.cost(0, 1) == math.inf
    assert "inf" in serialize_instance(inst)


def test_parse_speed_pairs():
    doc = {
        "version": 1, "n": 1, "m": 2,
        "cost_model": {"kind": "related", "base_costs": [2], "speeds": [2, [1, 2]]},
        "sets": [[0]],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.cost(0, 0) == 1
    assert inst.cost(0, 1) == 4


def test_generator_deterministic():
    a = generate_instance(n=8, k=6, m=2, model="related", density=0.4, seed=42)
    b = generate_instance(n=8, k=6, m=2, model="related", density=0.4, seed=42)
    assert a == b


def test_generator_density_one_gives_full_sets():
    inst = generate_instance(n=6, k=3, m=1, model="unit", density=1.0, seed=0)
    assert all(s == tuple(range(6)) for s in inst.sets)


def test_generator_always_coverable():
    for seed in range(1000):
        inst = generate_instance(n=8, k=6, m=2, model="identical", density=0.3, seed=seed)
        assert validate_instance(inst).coverable


# ---------------------------------------------------------------------------
# CLI


def _write_instance(tmp_path, name="inst.json", **kwargs):
    inst = generate_instance(**kwargs)
    path = tmp_path / name
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return path


def test_cli_gen_validate_solve(tmp_path, capsys):
    out = tmp_path / "gen.json"
    rc = cli.main([
        "gen", "--n", "6", "--k", "5", "--m", "2", "--model", "identical",
        "--density", "0.4", "--seed", "7", "--out", str(out),
    ])
    assert rc == 0
    assert parse_instance(out.read_bytes()).n == 6

    rc = cli.main(["validate", "--instance", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert json.loads(captured.out)["valid"] is True

    rc = cli.main([
        "solve", "--instance", str(out), "--algo", "greedy-identical",
        "--epsilon", "0.1", "--seed", "3",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["algorithm"] == "greedy-identical"
    assert report["cost"] > 0


def test_cli_solve_csv_and_out(tmp_path, capsys):
    path = _write_instance(tmp_path, n=5, k=4, m=1, model="identical", density=0.5, seed=1)
    out = tmp_path / "report.json"
    rc = cli.main([
        "solve", "--instance", str(path), "--algo", "exact",
        "--epsilon", "0.1", "--out", str(out), "--csv",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "instance,algorithm,cost"
    assert json.loads(out.read_text())["optimal"] is True


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    path = _write_instance(tmp_path, n=5, k=4, m=1, model="identical", density=0.5, seed=1)
    missing = tmp_path / "missing" / "r.json"
    rc = cli.main([
        "solve", "--instance", str(path), "--algo", "exact", "--out", str(missing),
    ])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err.startswith("validation error: --out: cannot write")
    rc = cli.main([
        "gen", "--n", "4", "--k", "3", "--m", "1", "--model", "unit",
        "--density", "0.5", "--out", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err.startswith("validation error: --out: cannot write")


@pytest.mark.parametrize("dump", ["missing_dir", "directory"])
@pytest.mark.parametrize(
    "command",
    [
        ["pmc", "--budgets", "2,2", "--mode", "poly"],
        ["solve", "--algo", "greedy-unrelated"],
    ],
    ids=["pmc", "solve"],
)
def test_cli_unwritable_lp_dump_exits_2(tmp_path, capsys, monkeypatch, command, dump):
    path = _write_instance(tmp_path, n=6, k=4, m=2, model="unrelated", density=0.4, seed=1)
    target = tmp_path / "missing" / "x.lp" if dump == "missing_dir" else tmp_path
    monkeypatch.setenv("PMSSC_DUMP_LP", str(target))
    rc = cli.main(command[:1] + ["--instance", str(path)] + command[1:])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err.startswith("validation error: PMSSC_DUMP_LP: cannot write")


@pytest.mark.parametrize("command", ["solve", "gen"])
def test_cli_malformed_seed_variable_exits_2_naming_it(tmp_path, capsys, monkeypatch, command):
    path = _write_instance(tmp_path, n=5, k=4, m=1, model="identical", density=0.5, seed=1)
    monkeypatch.setenv("PMSSC_SEED", "1.5")
    argv = {
        "solve": ["solve", "--instance", str(path), "--algo", "greedy-identical"],
        "gen": ["gen", "--n", "4", "--k", "3", "--m", "1", "--model", "unit",
                "--density", "0.5", "--out", str(tmp_path / "gen.json")],
    }[command]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err.startswith("validation error: PMSSC_SEED: ")
    assert "'1.5'" in captured.err


def test_cli_pds_and_pmc(tmp_path, capsys):
    path = _write_instance(tmp_path, n=5, k=4, m=2, model="identical", density=0.5, seed=2)
    rc = cli.main(["pds", "--instance", str(path), "--algo", "identical", "--epsilon", "0.1"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "density" in json.loads(captured.out)

    rc = cli.main([
        "pmc", "--instance", str(path), "--budgets", "2,2", "--mode", "poly",
        "--epsilon", "0.2", "--seed", "5",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["covered"] >= 0
    assert report["iterations_kept"] >= 1


def test_cli_oracle_and_limits(tmp_path, capsys):
    small = _write_instance(tmp_path, n=5, k=4, m=2, model="identical", density=0.5, seed=3)
    big = _write_instance(
        tmp_path, name="big.json", n=9, k=9, m=2, model="identical", density=0.4, seed=4
    )
    k8 = _write_instance(
        tmp_path, name="k8.json", n=8, k=8, m=2, model="unit", density=0.4, seed=5
    )
    cases = [
        (small, [], cli.EXIT_OK, ""),
        (big, [], cli.EXIT_LIMITS,
         "limits exceeded: instance (k=9, m=2, n=9) exceeds oracle limits (6, 3, 10)"),
        (k8, ["--limits", "2,1,3"], cli.EXIT_LIMITS,
         "limits exceeded: instance (k=8, m=2, n=8) exceeds oracle limits (2, 1, 3)"),
        (k8, ["--limits", "12,2,12"], cli.EXIT_OK, ""),
        (small, ["--limits", "abc"], cli.EXIT_VALIDATION,
         "validation error: --limits: expected k,m,n"),
        (small, ["--problem", "pmc"], cli.EXIT_VALIDATION,
         "validation error: --budgets: required for --problem pmc"),
    ]
    for path, extra, rc, err in cases:
        argv = ["oracle", "--instance", str(path)] + extra
        if "--problem" not in extra:
            argv += ["--problem", "pmssc"]
        assert cli.main(argv) == rc
        captured = capsys.readouterr()
        assert captured.err.strip() == err
        if rc == cli.EXIT_OK:
            assert "cost" in json.loads(captured.out)


@pytest.mark.parametrize("limits", ["-1,3,64", "6,-3,10", "6,3,-1"])
def test_cli_oracle_rejects_negative_limits(tmp_path, capsys, limits):
    # A negative limit is an input error (exit 2), not an instance that
    # exceeds the limits (exit 4).
    small = _write_instance(tmp_path, n=5, k=4, m=2, model="identical", density=0.5, seed=3)
    argv = ["oracle", "--instance", str(small), "--problem", "pmssc", "--limits=" + limits]
    assert cli.main(argv) == cli.EXIT_VALIDATION == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == "validation error: --limits: must be nonnegative"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["pmc", "oracle"])
@pytest.mark.parametrize("budgets", ["1/0", "2,x", "-1,2"])
def test_cli_bad_budgets_exit_code(tmp_path, capsys, command, budgets):
    path = _write_instance(tmp_path, n=5, k=4, m=2, model="identical", density=0.5, seed=2)
    argv = [command, "--instance", str(path), "--budgets=" + budgets]  # "-1,2" is no option
    argv += ["--problem", "pmc"] if command == "oracle" else ["--mode", "poly"]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert "--budgets" in captured.err
    assert "Traceback" not in captured.err + captured.out


GREEDY_SPECS = {
    "greedy-identical": dict(n=5, k=4, m=2, model="identical", density=0.5, seed=2),
    "greedy-related": dict(n=5, k=4, m=2, model="related", density=0.5, seed=2),
    "greedy-unrelated": dict(n=5, k=4, m=2, model="unrelated", density=0.5, seed=2),
}


def _assert_usage_error(argv, capsys, option):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == cli.EXIT_VALIDATION
    assert "usage:" in captured.err and option in captured.err
    assert "Traceback" not in captured.err + captured.out


def _assert_bad_epsilon_exits_2(argv, capsys):
    _assert_usage_error(argv, capsys, "--epsilon")


@pytest.mark.parametrize("algo", list(GREEDY_SPECS))
@pytest.mark.parametrize("epsilon", ["inf", "nan", "0", "-1"])
def test_cli_solve_rejects_bad_epsilon(tmp_path, capsys, algo, epsilon):
    path = _write_instance(tmp_path, **GREEDY_SPECS[algo])
    argv = ["solve", "--instance", str(path), "--algo", algo, "--epsilon", epsilon]
    _assert_bad_epsilon_exits_2(argv, capsys)


@pytest.mark.parametrize("command", ["pds", "pmc", "bench"])
def test_cli_rejects_infinite_epsilon(tmp_path, capsys, command):
    path = _write_instance(tmp_path, **GREEDY_SPECS["greedy-identical"])
    extra = {
        "pds": ["--instance", str(path), "--algo", "identical"],
        "pmc": ["--instance", str(path), "--budgets", "2,2", "--mode", "poly"],
        "bench": ["--corpus", str(tmp_path), "--algo", "greedy-identical"],
    }[command]
    _assert_bad_epsilon_exits_2([command] + extra + ["--epsilon", "inf"], capsys)


def test_cli_epsilon_past_the_ladder_range_exits_2(tmp_path, capsys):
    # finite, but 2e/(e-1) times it overflows the ladder step to inf
    path = _write_instance(tmp_path, **GREEDY_SPECS["greedy-identical"])
    argv = ["solve", "--instance", str(path), "--algo", "greedy-identical", "--epsilon", "1e308"]
    _assert_bad_epsilon_exits_2(argv, capsys)


@pytest.mark.parametrize("algo", list(GREEDY_SPECS))
@pytest.mark.parametrize("epsilon", ["1", "1.5"])
def test_cli_solve_rejects_epsilon_of_one_or_more(tmp_path, capsys, algo, epsilon):
    # (0, 1) on every algorithm: greedy-unrelated used to exit 3, the others 0
    path = _write_instance(tmp_path, **GREEDY_SPECS[algo])
    argv = ["solve", "--instance", str(path), "--algo", algo, "--epsilon", epsilon]
    _assert_bad_epsilon_exits_2(argv, capsys)


def _pmc_argv(tmp_path, *extra):
    path = _write_instance(tmp_path, **GREEDY_SPECS["greedy-identical"])
    return ["pmc", "--instance", str(path), "--budgets", "2,2"] + list(extra)


@pytest.mark.parametrize("command", ["pds", "pmc", "bench"])
def test_cli_rejects_epsilon_of_one_or_more(tmp_path, capsys, command):
    path = _write_instance(tmp_path, **GREEDY_SPECS["greedy-identical"])
    extra = {
        "pds": ["--instance", str(path), "--algo", "identical"],
        "pmc": ["--instance", str(path), "--budgets", "2,2", "--mode", "poly"],
        "bench": ["--corpus", str(tmp_path), "--algo", "greedy-identical"],
    }[command]
    _assert_bad_epsilon_exits_2([command] + extra + ["--epsilon", "1.5"], capsys)


@pytest.mark.parametrize("mu", ["inf", "nan", "0", "-1"])
def test_cli_pmc_rejects_bad_mu(tmp_path, capsys, mu):
    # inf used to end in an OverflowError traceback, 0 and -1 in exit 3
    _assert_usage_error(_pmc_argv(tmp_path, "--mode", "fpt", "--mu", mu), capsys, "--mu")


def test_cli_pmc_fpt_requires_mu(tmp_path, capsys):
    _assert_usage_error(_pmc_argv(tmp_path, "--mode", "fpt"), capsys, "--mu")


@pytest.mark.parametrize("r_cap", ["0", "-2"])
def test_cli_pmc_rejects_r_cap_below_one(tmp_path, capsys, r_cap):
    argv = _pmc_argv(tmp_path, "--mode", "poly", "--r-cap", r_cap)
    _assert_usage_error(argv, capsys, "--r-cap")


def test_cli_pmc_accepts_settings_inside_their_ranges(tmp_path, capsys):
    argv = _pmc_argv(tmp_path, "--mode", "fpt", "--mu", "0.5", "--r-cap", "1", "--epsilon", "0.99")
    assert cli.main(argv) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["attempts"] == 1


def test_cli_related_slow_machines_solve(tmp_path, capsys):
    # every speed below 1: the lift's bound must count the fastest speed as 1
    doc = {
        "version": 1, "n": 4, "m": 2,
        "cost_model": {"kind": "related", "base_costs": [1, 2, 1], "speeds": [[1, 4], [1, 4]]},
        "sets": [[0, 1], [2], [3]],
    }
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = cli.main(["solve", "--instance", str(path), "--algo", "greedy-related"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    report = json.loads(captured.out)
    inst = parse_instance(path.read_bytes())
    cost, _ = evaluate_schedule_cost(inst, Schedule(tuple(map(tuple, report["schedule"]))))
    assert Fraction(report["cost"]) == cost


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({
            "version": 1, "n": 2, "m": 1,
            "cost_model": {"kind": "unit"}, "sets": [[0]],
        }),
        encoding="utf-8",
    )
    rc = cli.main(["validate", "--instance", str(bad)])
    capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION

    rc = cli.main([
        "solve", "--instance", str(bad), "--algo", "greedy-unit", "--epsilon", "0.1",
    ])
    capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION

    missing = tmp_path / "missing.json"
    rc = cli.main(["solve", "--instance", str(missing), "--algo", "greedy-unit"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err.startswith("validation error: cannot read %s" % missing)


def test_cli_solver_failure_exit_code(tmp_path, capsys):
    # empty universe: coverable, but no set covers any remaining element
    empty = tmp_path / "empty.json"
    empty.write_text(
        json.dumps({
            "version": 1, "n": 0, "m": 1,
            "cost_model": {"kind": "identical", "base_costs": [1]},
            "sets": [[]],
        }),
        encoding="utf-8",
    )
    rc = cli.main(["pds", "--instance", str(empty), "--algo", "identical", "--epsilon", "0.1"])
    capsys.readouterr()
    assert rc == cli.EXIT_SOLVER


def test_cli_env_seed(tmp_path, capsys, monkeypatch):
    path = _write_instance(tmp_path, n=5, k=4, m=2, model="identical", density=0.5, seed=6)
    monkeypatch.setenv("PMSSC_SEED", "17")
    rc = cli.main([
        "pmc", "--instance", str(path), "--budgets", "2,2", "--mode", "poly",
        "--epsilon", "0.2",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    assert json.loads(captured.out)["parameters"]["seed"] == 17
    # explicit flag wins over the environment
    rc = cli.main([
        "pmc", "--instance", str(path), "--budgets", "2,2", "--mode", "poly",
        "--epsilon", "0.2", "--seed", "4",
    ])
    captured = capsys.readouterr()
    assert json.loads(captured.out)["parameters"]["seed"] == 4


def test_cli_bench_ratios(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for seed in range(3):
        inst = generate_instance(n=5, k=4, m=2, model="identical", density=0.45, seed=seed)
        (corpus / ("i%d.json" % seed)).write_text(serialize_instance(inst), encoding="utf-8")
    # nine sets exceed the exact oracle's default limits
    big = generate_instance(n=9, k=9, m=2, model="identical", density=0.4, seed=4)
    (corpus / "z_big.json").write_text(serialize_instance(big), encoding="utf-8")
    argv = [
        "bench", "--corpus", str(corpus), "--algo", "greedy-identical",
        "--epsilon", "0.1", "--seed", "0",
    ]
    for ratios in (True, False):
        rc = cli.main(argv + ["--ratios"] if ratios else argv)
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "instance,algo_cost,oracle_cost,ratio"
        assert len(lines) == 5
        for line in lines[1:4]:
            if ratios:
                ratio = float(line.split(",")[3])
                assert 1.0 - 1e-9 <= ratio <= 4.0 / 0.3
            else:
                assert line.endswith(",,")
        assert lines[4].startswith("z_big.json,")
        assert lines[4].endswith(",NA,NA" if ratios else ",,")


DAG_DOC = {
    "version": 1, "n": 2, "m": 1, "cost_model": {"kind": "unit"},
    "sets": [[0], [1]], "dag_edges": [[1, 0]],
}


@pytest.mark.parametrize("command", [
    ["solve", "--algo", "exact"], ["oracle", "--problem", "pmssc"],
])
def test_cli_exact_min_sum_refuses_precedence_edges(tmp_path, capsys, command):
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(DAG_DOC), encoding="utf-8")
    rc = cli.main(command[:1] + ["--instance", str(path)] + command[1:])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err.startswith("validation error: exact_pmssc ignores precedence")
    assert "Traceback" not in captured.err and captured.out == ""
    # with no edges the same sets solve
    path.write_text(json.dumps(dict(DAG_DOC, dag_edges=[])), encoding="utf-8")
    assert cli.main(command[:1] + ["--instance", str(path)] + command[1:]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["cost"] == 3


def test_cli_bench_ratios_write_na_for_precedence_edges(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "dag.json").write_text(json.dumps(DAG_DOC), encoding="utf-8")
    (corpus / "flat.json").write_text(json.dumps(dict(DAG_DOC, dag_edges=[])), encoding="utf-8")
    argv = ["bench", "--corpus", str(corpus), "--algo", "greedy-precedence", "--ratios"]
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert captured.out.splitlines()[1:] == ["dag.json,3.0,NA,NA", "flat.json,3.0,3.0,1.0"]


def test_cli_bench_ratio_of_zero_optimum(tmp_path, capsys):
    # n = 0: the schedule and the optimum both cost 0, which used to end in a
    # ZeroDivisionError traceback
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "empty.json").write_text(json.dumps({
        "version": 1, "n": 0, "m": 1,
        "cost_model": {"kind": "identical", "base_costs": [1]}, "sets": [[]],
    }), encoding="utf-8")
    rc = cli.main(["bench", "--corpus", str(corpus), "--algo", "greedy-identical", "--ratios"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert captured.out.splitlines()[1] == "empty.json,0.0,0.0,1.0"


def test_cli_bench_names_the_instance_it_cannot_take(tmp_path, capsys):
    # used to stop at b_related.json without naming it
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a_identical", "b_related", "c_identical"):
        model = name.split("_")[1]
        inst = generate_instance(n=5, k=4, m=2, model=model, density=0.45, seed=1)
        (corpus / (name + ".json")).write_text(serialize_instance(inst), encoding="utf-8")
    rc = cli.main(["bench", "--corpus", str(corpus), "--algo", "greedy-identical", "--ratios"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err == (
        "validation error: b_related.json: pds_identical needs the unit or identical cost model\n"
    )
    lines = captured.out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("a_identical.json,")


@pytest.mark.parametrize("corpus", ["missing", "file.json"])
def test_cli_bench_corpus_not_a_directory(tmp_path, capsys, corpus):
    # used to print a bare CSV header and exit 0
    (tmp_path / "file.json").write_text("{}", encoding="utf-8")
    path = tmp_path / corpus
    rc = cli.main(["bench", "--corpus", str(path), "--algo", "greedy-identical"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert captured.err == "validation error: --corpus: not a directory: %s\n" % path
    assert captured.out == ""


@pytest.mark.parametrize("option, value", [
    ("--density", "2"), ("--density", "nan"), ("--density", "-0.1"),
    ("--dag-edge-prob", "2"), ("--dag-edge-prob", "nan"),
    ("--max-cost", "0"), ("--max-cost", "-3"),
])
def test_cli_gen_rejects_out_of_range_options(tmp_path, capsys, option, value):
    argv = [
        "gen", "--n", "4", "--k", "3", "--m", "1", "--model", "identical",
        "--density", "0.5", "--out", str(tmp_path / "g.json"), option, value,
    ]
    _assert_usage_error(argv, capsys, option)
    assert not (tmp_path / "g.json").exists()


def test_cli_precedence_solve(tmp_path, capsys):
    inst = generate_instance(
        n=5, k=5, m=2, model="unit", density=0.4, seed=8, dag_edge_prob=0.4
    )
    path = tmp_path / "dag.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    rc = cli.main([
        "solve", "--instance", str(path), "--algo", "greedy-precedence",
        "--epsilon", "0.1",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    report = json.loads(captured.out)
    assert report["barrier_aligned"] is True
    assert report["cost"] == sum(report["cover_times"])


# Element 1 lies only in set 0, which has no finite cost on any machine.
ONLY_INFINITE_COVER = ProblemInstance(
    n=2, sets=((0, 1), (0,)), m=2,
    cost_model=UnrelatedCosts(((INFINITE_COST, INFINITE_COST), (1, 2))),
)


@pytest.mark.parametrize(
    "argv", [["validate"], ["solve", "--algo", "greedy-unrelated"], ["solve", "--algo", "exact"]]
)
def test_cli_rejects_an_element_only_infinite_cost_sets_hold(tmp_path, capsys, argv):
    # One coverability rule for every command: an element is coverable only
    # when a set with some finite cost holds it. The greedy driver refuses the
    # instance before its first iteration.
    path = tmp_path / "inf.json"
    path.write_text(serialize_instance(ONLY_INFINITE_COVER), encoding="utf-8")
    rc = cli.main(argv[:1] + ["--instance", str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert "Traceback" not in captured.err + captured.out
    if argv == ["validate"]:
        report = json.loads(captured.out)
        assert (report["coverable"], report["uncovered_elements"], report["valid"]) == (
            False, [1], False
        )
    else:
        assert "solver failure" not in captured.err


@pytest.mark.parametrize("argv", [["validate"], ["solve", "--algo", "greedy-unit"]])
def test_cli_reports_deeply_nested_json_without_a_traceback(tmp_path, capsys, argv):
    # ``json.loads`` raises RecursionError past the interpreter's depth limit.
    depth = 100_000
    doc = '{"version": 1, "n": 1, "m": 1, "cost_model": {"kind": "unit"}, "sets": %s}' % (
        "[" * depth + "]" * depth
    )
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_instance(doc)
    path = tmp_path / "deep.json"
    path.write_text(doc, encoding="utf-8")
    rc = cli.main(argv[:1] + ["--instance", str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert "nests too deeply" in captured.err


# A schedule cost that re-evaluates above every reported cost breaks the check
# each of these solve paths makes on its own result: ``exact_pmssc`` checks its
# schedule in ``oracle``, the precedence path its prefix in ``cli``.
BREACH_CASES = [
    ("exact", dict(n=4, k=3, m=2, model="identical", density=0.5, seed=4)),
    ("greedy-precedence", dict(n=5, k=5, m=2, model="unit", density=0.4, seed=8, dag_edge_prob=0.4)),
]


@pytest.mark.parametrize("algo, spec", BREACH_CASES)
def test_cli_invariant_breach_exits_3(tmp_path, capsys, monkeypatch, algo, spec):
    path = _write_instance(tmp_path, **spec)
    for module in (cli, oracle_module):
        monkeypatch.setattr(
            module, "evaluate_schedule_cost", lambda inst, schedule: (Fraction(10**9), ())
        )
    rc = cli.main(["solve", "--instance", str(path), "--algo", algo])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_SOLVER
    assert "error:" in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("algo, spec", BREACH_CASES)
def test_cli_invariant_breach_exits_3_under_optimize(tmp_path, algo, spec):
    # ``python -O`` strips asserts; the checks must still run
    path = _write_instance(tmp_path, **spec)
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "import pmssc.cli as cli\n"
        "import pmssc.oracle as oracle\n"
        "cli.evaluate_schedule_cost = lambda inst, schedule: (Fraction(10**9), ())\n"
        "oracle.evaluate_schedule_cost = cli.evaluate_schedule_cost\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "solve", "--instance", str(path), "--algo", algo],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == cli.EXIT_SOLVER
    assert "Traceback" not in proc.stderr + proc.stdout


def test_cli_solves_without_importing_scipy(tmp_path):
    # scipy.optimize takes about 0.9 s to import, four times `import pmssc.cli`;
    # the bench's warm-up solves reach the LP and rounding layers
    costs = {
        "greedy-related": {"kind": "related", "base_costs": [1], "speeds": [[1, 2], [1, 2]]},
        "greedy-unrelated": {"kind": "unrelated", "matrix": [[1, 1]]},
    }
    script = "import sys\nimport pmssc.cli as cli\n"
    for algo, cost_model in costs.items():
        path = tmp_path / ("%s.json" % algo)
        doc = {"version": 1, "n": 3, "m": 2, "cost_model": cost_model, "sets": [[0, 1, 2]]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["solve", "--instance", str(path), "--algo", algo, "--out", str(tmp_path / "r.json")]
        script += "if cli.main(%r) != 0:\n    sys.exit('%s failed')\n" % (argv, algo)
    script += "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- fuzz: no instance document, valid or not, may end the CLI in a traceback

# Each draw is a fresh copy: a later mutation may write into a junk list
# placed earlier, which must neither edit this constant nor make a list
# contain itself.
FUZZ_JUNK = st.sampled_from(
    [None, True, -1, 0, 1, 2, 9, 1.5, "x", "inf", [], [0], [1, 2], [[0, 1]], {}]
).map(copy.deepcopy)


def _paths(doc, prefix=()):
    """Every key/index path into a JSON document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def fuzz_documents(draw):
    inst = generate_instance(
        n=draw(st.integers(1, 8)), k=draw(st.integers(1, 5)), m=draw(st.integers(1, 3)),
        model=draw(st.sampled_from(["unit", "identical", "related", "unrelated"])),
        density=draw(st.sampled_from([0.2, 0.5])), seed=draw(st.integers(0, 2**16)),
        dag_edge_prob=draw(st.sampled_from([None, 0.3, 0.7])),
    )
    doc = instance_to_dict(inst)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(FUZZ_JUNK)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, inst.m


def _fuzz_commands(path, m):
    budgets = ",".join(["2"] * m)
    for algo in cli.SOLVE_ALGOS:
        yield ["solve", "--algo", algo]
    for algo in cli.PDS_ALGOS:
        yield ["pds", "--algo", algo]
    for problem in ("pmssc", "pds", "pcds"):
        yield ["oracle", "--problem", problem]
    yield ["oracle", "--problem", "pmc", "--budgets", budgets]
    yield ["validate"]
    yield ["pmc", "--mode", "poly", "--budgets", budgets]
    yield ["pmc", "--mode", "fpt", "--mu", "0.5", "--r-cap", "50", "--budgets", budgets]


@settings(max_examples=60, deadline=None)
@given(case=fuzz_documents())
def test_cli_fuzz_exits_cleanly(case, tmp_path_factory):
    text, m = case
    path = tmp_path_factory.mktemp("fuzz") / "inst.json"
    path.write_text(text, encoding="utf-8")
    for argv in _fuzz_commands(path, m):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv + ["--instance", str(path)])
        assert rc in (0, 2, 3, 4), (argv, text, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()


# -- report shapes: the fields and the algorithm/parameters of every report kind

SHAPE_SPECS = {
    "identical": dict(n=5, k=4, m=2, model="identical", density=0.5, seed=2),
    "unit": dict(n=5, k=4, m=2, model="unit", density=0.5, seed=2),
    "related": dict(n=5, k=4, m=2, model="related", density=0.5, seed=2),
    "unrelated": dict(n=5, k=4, m=2, model="unrelated", density=0.5, seed=2),
    "dag": dict(n=5, k=5, m=2, model="unit", density=0.4, seed=8, dag_edge_prob=0.4),
}
SOLVE_KEYS = {"algorithm", "parameters", "wall_time_s", "cost", "cover_times", "schedule"}
PDS_KEYS = {"algorithm", "parameters", "wall_time_s", "assignment", "covered", "makespan", "density"}
PMC_KEYS = {
    "algorithm", "parameters", "wall_time_s", "assignment", "covered", "lp_objective",
    "iterations_kept", "attempts", "attempts_run", "per_machine_cost", "delta", "budgets",
}
ORACLE_KEYS = {"algorithm", "parameters", "wall_time_s"}


def _shape_cases():
    solve_extra = {"exact": {"optimal"}, "greedy-precedence": {"barrier_aligned"}}
    for algo in cli.SOLVE_ALGOS:
        spec = {"exact": "identical", "greedy-precedence": "dag"}.get(algo, algo[len("greedy-"):])
        yield (spec, ["solve", "--algo", algo, "--seed", "3"], algo,
               {"epsilon": 0.1, "seed": 3, "algo": algo},
               SOLVE_KEYS | solve_extra.get(algo, {"upper_bound", "iterations"}))
    for algo in cli.PDS_ALGOS:
        spec = {"exact": "identical", "precedence": "dag"}.get(algo, algo)
        yield (spec, ["pds", "--algo", algo, "--seed", "5"], "pds-" + algo,
               {"epsilon": 0.1, "seed": 5}, PDS_KEYS)
    yield ("identical", ["pmc", "--mode", "poly", "--budgets", "2,2", "--seed", "2"], "pmc-poly",
           {"epsilon": 0.2, "mu": None, "seed": 2, "r_cap": None}, PMC_KEYS)
    yield ("identical", ["pmc", "--mode", "fpt", "--mu", "0.5", "--r-cap", "20", "--budgets", "2,2",
                         "--seed", "2", "--epsilon", "0.3"], "pmc-fpt",
           {"epsilon": 0.3, "mu": 0.5, "seed": 2, "r_cap": 20}, PMC_KEYS)
    oracle_keys = {
        "pmssc": {"schedule", "cost"}, "pds": {"assignment", "density"},
        "pmc": {"assignment", "covered"}, "pcds": {"assignment", "density"},
    }
    for problem, keys in oracle_keys.items():
        argv = ["oracle", "--problem", problem] + (["--budgets", "2,2"] if problem == "pmc" else [])
        yield ("dag" if problem == "pcds" else "identical", argv, "oracle-" + problem,
               {"limits": None}, ORACLE_KEYS | keys)
    yield ("identical", ["oracle", "--problem", "pmssc", "--limits", "6,3,10"], "oracle-pmssc",
           {"limits": "6,3,10"}, ORACLE_KEYS | oracle_keys["pmssc"])


@pytest.mark.parametrize("spec, argv, algorithm, parameters, keys", list(_shape_cases()))
def test_cli_report_shape(tmp_path, capsys, monkeypatch, spec, argv, algorithm, parameters, keys):
    monkeypatch.delenv("PMSSC_SEED", raising=False)
    path = _write_instance(tmp_path, **SHAPE_SPECS[spec])
    rc = cli.main(argv + ["--instance", str(path)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_OK, captured.err
    assert captured.out.endswith("}\n")
    report = json.loads(captured.out)
    assert set(report) == keys
    assert report["algorithm"] == algorithm
    assert report["parameters"] == parameters
    assert isinstance(report["wall_time_s"], float)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == captured.out
