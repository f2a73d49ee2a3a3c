import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from pmssc import cli
from pmssc.core import Schedule, evaluate_schedule_cost, validate_instance
from pmssc.errors import ParseError, ValidationError
from pmssc.fileio import generate_instance, parse_instance, serialize_instance


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


def test_parse_rejects_element_out_of_range():
    doc = {"version": 1, "n": 2, "m": 1,
           "cost_model": {"kind": "unit"}, "sets": [[0, 2]]}
    with pytest.raises(ValidationError) as err:
        parse_instance(json.dumps(doc))
    assert err.value.path == "sets[0][1]"


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
    path = _write_instance(tmp_path, n=5, k=4, m=2, model="identical", density=0.5, seed=3)
    rc = cli.main(["oracle", "--instance", str(path), "--problem", "pmssc"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "cost" in json.loads(captured.out)

    big = _write_instance(
        tmp_path, name="big.json", n=9, k=9, m=2, model="identical", density=0.4, seed=4
    )
    rc = cli.main(["oracle", "--instance", str(big), "--problem", "pmssc"])
    capsys.readouterr()
    assert rc == cli.EXIT_LIMITS


@pytest.mark.parametrize("command", ["pmc", "oracle"])
@pytest.mark.parametrize("budgets", ["1/0", "2,x"])
def test_cli_bad_budgets_exit_code(tmp_path, capsys, command, budgets):
    path = _write_instance(tmp_path, n=5, k=4, m=2, model="identical", density=0.5, seed=2)
    argv = [command, "--instance", str(path), "--budgets", budgets]
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


def _assert_bad_epsilon_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    captured = capsys.readouterr()
    assert exited.value.code == cli.EXIT_VALIDATION
    assert "--epsilon" in captured.err
    assert "Traceback" not in captured.err + captured.out


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
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == cli.EXIT_VALIDATION
    assert "Traceback" not in captured.err + captured.out


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
    rc = cli.main([
        "bench", "--corpus", str(corpus), "--algo", "greedy-identical",
        "--epsilon", "0.1", "--seed", "0", "--ratios",
    ])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "instance,algo_cost,oracle_cost,ratio"
    assert len(lines) == 4
    for line in lines[1:]:
        ratio = float(line.split(",")[3])
        assert 1.0 - 1e-9 <= ratio <= 4.0 / 0.3


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


# A schedule cost that re-evaluates above every reported cost breaks the check
# each of these solve paths makes on its own result.
BREACH_CASES = [
    ("exact", dict(n=4, k=3, m=2, model="identical", density=0.5, seed=4)),
    ("greedy-precedence", dict(n=5, k=5, m=2, model="unit", density=0.4, seed=8, dag_edge_prob=0.4)),
]


@pytest.mark.parametrize("algo, spec", BREACH_CASES)
def test_cli_invariant_breach_exits_3(tmp_path, capsys, monkeypatch, algo, spec):
    path = _write_instance(tmp_path, **spec)
    monkeypatch.setattr(cli, "evaluate_schedule_cost", lambda inst, schedule: (Fraction(10**9), ()))
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
        "cli.evaluate_schedule_cost = lambda inst, schedule: (Fraction(10**9), ())\n"
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
