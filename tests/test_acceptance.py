"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conftest import (
    FIG1_SCHEDULE,
    identical_corpus,
    pmc_corpus,
    related_corpus,
    unit_dag_corpus,
)
from pmssc import cli
from pmssc.bounds import LOWER, UPPER, chernoff_lower, chernoff_upper, validate_bound_monte_carlo
from pmssc.core import density, evaluate_schedule_cost
from pmssc.errors import NoCoverageError
from pmssc.fileio import generate_instance, serialize_instance
from pmssc.lp import solve_lp
from pmssc.maxcov import PARTIAL_ENUM_MAX_K
from pmssc.oracle import exact_pds, exact_pds_precedence, exact_pmc, exact_pmssc
from pmssc.pds import pds_identical, pds_related, reduce_related
from pmssc.pmc import PmcParams, PmcRelaxation, fpt_repetitions, pmc_solve
from pmssc.precedence import pcds_detailed
from pmssc.rng import stream
from pmssc.scheduler import pmssc_greedy

E = math.e
PDS_IDENTICAL_GUARANTEE = (E - 1) / (2 * E + 0.1 * (E - 1))  # ~0.3064
END_TO_END_BOUND = (8 * E + 0.4 * (E - 1)) / (E - 1)  # ~13.056


@contextmanager
def criterion(num, description, max_seconds=None):
    started = time.perf_counter()
    info = {}
    try:
        yield info
    except BaseException:
        elapsed = time.perf_counter() - started
        print("ACCEPTANCE %02d FAIL (%.1fs): %s" % (num, elapsed, description))
        raise
    elapsed = time.perf_counter() - started
    detail = info.get("detail", "")
    print("ACCEPTANCE %02d PASS (%.1fs): %s %s" % (num, elapsed, description, detail))
    if max_seconds is not None:
        assert elapsed < max_seconds, "runtime budget exceeded"


@pytest.fixture(scope="module")
def identical_runs():
    """Shared corpus with exact optima for criteria 2-4."""
    runs = []
    for inst in identical_corpus(200):
        _, opt = exact_pmssc(inst)
        runs.append((inst, opt))
    return runs


def test_criterion_01_fig1_cost(fig1):
    with criterion(1, "figure-1 schedule evaluates to exactly 83", 1.0):
        total, _ = evaluate_schedule_cost(fig1, FIG1_SCHEDULE)
        assert total == 83


def test_criterion_02_exact_oracle_four_approx(identical_runs):
    with criterion(2, "greedy with exact oracle is a 4-approximation on 200 instances", 180.0) as info:
        worst = Fraction(0)
        for inst, opt in identical_runs:
            sched, _ = pmssc_greedy(inst, oracle="exact")
            cost, _ = evaluate_schedule_cost(inst, sched)
            assert cost <= 4 * opt  # exact rational comparison, tolerance 0
            worst = max(worst, cost / opt)
        info["detail"] = "max ratio %.4f" % float(worst)


def test_criterion_03_identical_end_to_end(identical_runs):
    with criterion(3, "greedy with identical-machines subfamily stays under 13.056x", 300.0) as info:
        worst = 0.0
        for inst, opt in identical_runs:
            assert inst.k <= PARTIAL_ENUM_MAX_K  # max coverage enumerates seeds
            sched, _ = pmssc_greedy(inst, oracle="identical", epsilon=0.1)
            cost, _ = evaluate_schedule_cost(inst, sched)
            ratio = float(cost / opt)
            assert ratio <= END_TO_END_BOUND + 1e-9
            worst = max(worst, ratio)
        info["detail"] = "max ratio %.4f (bound %.4f)" % (worst, END_TO_END_BOUND)


def test_criterion_04_pds_identical_guarantee(identical_runs):
    with criterion(4, "identical-machines subfamily density within its guarantee", 120.0) as info:
        worst = math.inf
        for inst, _ in identical_runs:
            assert inst.k <= PARTIAL_ENUM_MAX_K  # max coverage enumerates seeds
            remaining = frozenset(range(inst.n))
            asg = pds_identical(inst, remaining, 0.1)
            got = density(inst, asg, remaining)
            _, opt = exact_pds(inst, remaining)
            ratio = float(got.as_fraction() / opt.as_fraction())
            assert ratio >= PDS_IDENTICAL_GUARANTEE - 1e-9
            worst = min(worst, ratio)
        info["detail"] = "min ratio %.4f (bound %.4f)" % (worst, PDS_IDENTICAL_GUARANTEE)


@pytest.fixture(scope="module")
def pmc_runs():
    runs = []
    for seed, inst in enumerate(pmc_corpus(100)):
        budgets = [Fraction(1 + (seed + j) % 3) for j in range(inst.m)]
        params = PmcParams(mode="poly", epsilon=0.2, seed=seed)
        result = pmc_solve(PmcRelaxation(inst), budgets, params, verify_lp=True)
        runs.append((inst, budgets, params, result))
    return runs


def test_criterion_05_pmc_hard_budget(pmc_runs):
    with criterion(5, "rounded coverage never violates (1+delta) budgets") as info:
        violations = 0
        for inst, budgets, params, result in pmc_runs:
            delta = Fraction(params.delta(inst.m))
            for j in range(inst.m):
                if result.per_machine_cost[j] > (1 + delta) * budgets[j]:
                    violations += 1
        assert violations == 0
        info["detail"] = "0 violations over %d runs" % len(pmc_runs)


def test_criterion_06_pmc_coverage_quality(pmc_runs):
    with criterion(6, "mean coverage vs LP and LP vs integral optimum") as info:
        ratios = []
        for inst, budgets, params, result in pmc_runs:
            sol = solve_lp(PmcRelaxation(inst).at(budgets), verify=True)
            _, ilp = exact_pmc(inst, budgets)
            assert float(sol.objective_value) >= ilp - 1e-6  # relaxation dominance
            if float(sol.objective_value) > 1e-9:
                ratios.append(result.covered / float(sol.objective_value))
        mean_ratio = sum(ratios) / len(ratios)
        target = (1 - 1 / E) * (1 - 0.2)
        assert mean_ratio >= target
        info["detail"] = "mean covered/LP %.4f >= %.4f" % (mean_ratio, target)


def test_criterion_07_fpt_repetition_formula():
    with criterion(7, "FPT repetition count matches high-precision evaluation") as info:
        import mpmath

        mpmath.mp.dps = 50
        m, mu, n, eps = 3, 1.0, 8, 0.2
        t1_hp = (2 - 2 / mpmath.e) / mpmath.mpf("0.04") * mpmath.log(n)
        f_hp = mpmath.e / 4
        t2_hp = mpmath.log(m) / (-mpmath.log(1 - (1 - f_hp) ** m))
        expected = max(int(mpmath.ceil(t1_hp)), int(mpmath.ceil(t2_hp)))
        got = fpt_repetitions(m, mu, n, eps)
        assert got == expected == 66

        # both raw terms agree with the float evaluation to 6 significant digits
        t1_float = (2 - 2 / E) / eps**2 * math.log(n)
        t2_float = math.log(m) / (-math.log(1 - (1 - E / 4) ** m))
        assert abs(t1_float - float(t1_hp)) < abs(float(t1_hp)) * 1e-6
        assert abs(t2_float - float(t2_hp)) < abs(float(t2_hp)) * 1e-6
        assert math.ceil(t2_float) == 33
        info["detail"] = "R = %d, terms %.6f / %.6f" % (got, t1_float, t2_float)


def test_criterion_08_precedence_ratio():
    with criterion(8, "closed-subfamily density within k^(-2/3) of optimum", 300.0) as info:
        worst = math.inf
        checked = 0
        for inst in unit_dag_corpus(100):
            remaining = frozenset(range(inst.n))
            _, value, _ = pcds_detailed(inst, remaining)
            _, opt = exact_pds_precedence(inst)
            bound = inst.k ** (-2.0 / 3.0)
            ratio = float(value.as_fraction() / opt.as_fraction())
            assert ratio >= bound - 1e-9
            worst = min(worst, ratio / bound)
            checked += 1
        assert checked >= 100
        info["detail"] = "min ratio/bound %.3f over %d instances" % (worst, checked)


def test_criterion_09_related_pipeline():
    with criterion(9, "machine-group reduction shape and related-machines density") as info:
        from pmssc.core import ProblemInstance, RelatedCosts

        inst = ProblemInstance(
            n=3,
            sets=((0, 1), (2,), (0, 1, 2)),
            m=3,
            cost_model=RelatedCosts((1, 1, 2), (4, 2, 1)),
        )
        red, _ = reduce_related(inst, 1)
        assert len(red.groups) == 3
        assert tuple(int(x) for x in red.aux_cost_multiplier) == (1, 2, 4)

        worst = math.inf
        for seed, inst in enumerate(related_corpus(50)):
            remaining = frozenset(range(inst.n))
            asg = pds_related(inst, remaining, 0.2, seed=seed)
            got = density(inst, asg, remaining)
            _, opt = exact_pds(inst, remaining)
            ratio = float(got.as_fraction() / opt.as_fraction())
            assert ratio >= 0.25
            worst = min(worst, ratio)
        info["detail"] = "min ratio %.4f (conservative bound 0.25)" % worst


def test_criterion_10_chernoff_validation():
    with criterion(10, "closed-form tails match and Monte Carlo never exceeds them", 120.0) as info:
        assert abs(chernoff_upper(1, 1) - E / 4) < 1e-9
        assert abs(chernoff_lower(1, 0.5) - math.exp(-0.5) / math.sqrt(0.5)) < 1e-9

        rng = stream(424242)
        checked = 0
        for side in (UPPER, LOWER):
            for rep in range(50):
                count = int(rng.integers(1, 21))
                weights = rng.random(count)
                probs = rng.random(count)
                delta = float(rng.uniform(0.05, 2.0 if side == UPPER else 0.95))
                check = validate_bound_monte_carlo(
                    weights.tolist(), probs.tolist(), delta, side,
                    trials=100_000, seed=rep,
                )
                assert check.holds, (side, rep, check)
                checked += 1
        info["detail"] = "%d randomized configurations" % checked


def _strip_wall_time(text):
    doc = json.loads(text)
    doc.pop("wall_time_s", None)
    return json.dumps(doc, sort_keys=True)


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    with criterion(11, "identical seeds give byte-identical reports") as info:
        plain = generate_instance(n=6, k=5, m=2, model="identical", density=0.4, seed=1)
        unit = generate_instance(n=6, k=5, m=2, model="unit", density=0.4, seed=2)
        related = generate_instance(n=6, k=5, m=2, model="related", density=0.4, seed=3)
        unrelated = generate_instance(n=6, k=5, m=2, model="unrelated", density=0.4, seed=4)
        dag = generate_instance(
            n=6, k=5, m=2, model="unit", density=0.4, seed=5, dag_edge_prob=0.4
        )
        files = {}
        for name, inst in [
            ("plain", plain), ("unit", unit), ("related", related),
            ("unrelated", unrelated), ("dag", dag),
        ]:
            path = tmp_path / (name + ".json")
            path.write_text(serialize_instance(inst), encoding="utf-8")
            files[name] = str(path)

        invocations = [
            ["solve", "--instance", files["plain"], "--algo", "greedy-identical",
             "--epsilon", "0.1", "--seed", "9"],
            ["solve", "--instance", files["unit"], "--algo", "greedy-unit",
             "--epsilon", "0.1", "--seed", "9"],
            ["solve", "--instance", files["related"], "--algo", "greedy-related",
             "--epsilon", "0.2", "--seed", "9"],
            ["solve", "--instance", files["unrelated"], "--algo", "greedy-unrelated",
             "--epsilon", "0.2", "--seed", "9"],
            ["solve", "--instance", files["dag"], "--algo", "greedy-precedence",
             "--epsilon", "0.1", "--seed", "9"],
            ["solve", "--instance", files["plain"], "--algo", "exact",
             "--epsilon", "0.1", "--seed", "9"],
            ["pds", "--instance", files["plain"], "--algo", "identical",
             "--epsilon", "0.1", "--seed", "9"],
            ["pds", "--instance", files["unit"], "--algo", "unit",
             "--epsilon", "0.1", "--seed", "9"],
            ["pds", "--instance", files["related"], "--algo", "related",
             "--epsilon", "0.2", "--seed", "9"],
            ["pds", "--instance", files["unrelated"], "--algo", "unrelated",
             "--epsilon", "0.2", "--seed", "9"],
            ["pds", "--instance", files["plain"], "--algo", "exact",
             "--epsilon", "0.1", "--seed", "9"],
            ["pds", "--instance", files["dag"], "--algo", "precedence",
             "--epsilon", "0.1", "--seed", "9"],
            ["pmc", "--instance", files["plain"], "--budgets", "2,2",
             "--mode", "poly", "--epsilon", "0.2", "--seed", "9"],
            ["pmc", "--instance", files["plain"], "--budgets", "2,2",
             "--mode", "fpt", "--epsilon", "0.2", "--mu", "0.5", "--seed", "9"],
            ["oracle", "--instance", files["plain"], "--problem", "pmssc"],
        ]
        for argv in invocations:
            assert cli.main(argv) == 0
            first = capsys.readouterr().out
            assert cli.main(argv) == 0
            second = capsys.readouterr().out
            assert _strip_wall_time(first) == _strip_wall_time(second), argv
        info["detail"] = "%d invocations replayed" % len(invocations)


def test_report_unrelated_density_table(tmp_path):
    """The unrelated-machines ratio hides an asymptotic constant, so it is
    reported rather than asserted: a density-ratio table plus a cost-ratio
    CSV from the bench command."""
    import os
    import subprocess
    import sys

    from pmssc.pds import pds_unrelated

    print("\nunrelated density ratios (reported, not asserted):")
    corpus = tmp_path / "unrelated"
    corpus.mkdir()
    for seed in range(10):
        inst = generate_instance(
            n=4 + seed % 4, k=3 + seed % 4, m=2 + seed % 2,
            model="unrelated", density=0.4, seed=50_000 + seed,
        )
        (corpus / ("u%02d.json" % seed)).write_text(
            serialize_instance(inst), encoding="utf-8"
        )
        remaining = frozenset(range(inst.n))
        try:
            asg = pds_unrelated(inst, remaining, 0.2, seed=seed)
        except NoCoverageError:
            continue
        got = density(inst, asg, remaining)
        _, opt = exact_pds(inst, remaining)
        print(
            "  u%02d: density %s of optimum %s (ratio %.3f)"
            % (seed, got.as_fraction(), opt.as_fraction(),
               float(got.as_fraction() / opt.as_fraction()))
        )
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "pmssc.cli", "bench", "--corpus", str(corpus),
         "--algo", "greedy-unrelated", "--epsilon", "0.2", "--seed", "0", "--ratios"],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    print(run.stdout)
    assert run.stdout.splitlines()[0] == "instance,algo_cost,oracle_cost,ratio"
