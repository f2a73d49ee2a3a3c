"""Command-line surface.

Subcommands: solve, pds, pmc, oracle, gen, validate, bench. Exit codes:
0 success, 2 validation error, 3 solver failure, 4 oracle limits exceeded.
``PMSSC_SEED`` provides the default seed; ``--seed`` wins.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import oracle as oracle_mod
from .core import evaluate_schedule_cost, validate_instance
from .errors import (
    InvariantError,
    LimitsExceededError,
    NoCoverageError,
    NoIterationKeptError,
    NumericalFailureError,
    ParseError,
    PmsscError,
    StalledOracleError,
    UncoverableError,
    ValidationError,
)
from .fileio import (
    RunReport,
    fraction_token,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .pmc import PmcParams, pmc_solve
from .precedence import pcds_detailed, pmssc_precedence
from .scheduler import pmssc_greedy, require_oracle_model, upper_bound_from_trace
from .core import density as density_of
from .pds import pds_identical, pds_related, pds_unrelated

SOLVE_ALGOS = (
    "greedy-identical",
    "greedy-unit",
    "greedy-related",
    "greedy-unrelated",
    "greedy-precedence",
    "exact",
)
PDS_ALGOS = ("identical", "unit", "related", "unrelated", "exact", "precedence")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_LIMITS = 4


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("PMSSC_SEED")
    return int(env) if env else 0


def _read_instance(path):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    return parse_instance(data)


def _epsilon(text):
    """``--epsilon``: a finite positive float, else argparse exits 2."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError("must be finite and positive, got %r" % text)
    return value


def _parse_limits(text):
    if text is None:
        return None
    try:
        k, m, n = (int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError("--limits", "expected k,m,n")
    return oracle_mod.OracleLimits(max_k=k, max_m=m, max_n=n, node_budget=20_000_000)


def _emit(report: RunReport, out_path, as_csv, csv_row):
    text = report.to_json()
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    if as_csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_row[0])
        writer.writerow(csv_row[1])
        sys.stdout.write(buf.getvalue())
    elif not out_path:
        sys.stdout.write(text)


def _solve(inst, algo, epsilon, seed):
    """Run one of SOLVE_ALGOS; returns the exact cost and the report payload."""
    if algo == "exact":
        schedule, cost = oracle_mod.exact_pmssc(inst)
        verified, cover_times = evaluate_schedule_cost(inst, schedule)
        if verified != cost:
            raise InvariantError(
                "exact schedule re-evaluates to %s, not its cost %s" % (verified, cost)
            )
        payload = {
            "cost": fraction_token(cost),
            "cover_times": [fraction_token(t) for t in cover_times],
            "optimal": True,
        }
    elif algo == "greedy-precedence":
        schedule, trace = pmssc_precedence(inst)
        # prefix-sum evaluation cannot see barrier idling; it must lower-bound
        prefix_cost, _ = evaluate_schedule_cost(inst, schedule)
        if prefix_cost > trace.cost:
            raise InvariantError(
                "prefix cost %s exceeds the barrier-aligned cost %s" % (prefix_cost, trace.cost)
            )
        cost = Fraction(trace.cost)
        payload = {
            "cost": trace.cost,
            "cover_times": list(trace.cover_times),
            "barrier_aligned": True,
        }
    else:
        oracle_name = algo.split("-", 1)[1]
        schedule, trace = pmssc_greedy(inst, oracle=oracle_name, epsilon=epsilon, seed=seed)
        cost, cover_times = evaluate_schedule_cost(inst, schedule)
        payload = {
            "cost": fraction_token(cost),
            "cover_times": [fraction_token(t) for t in cover_times],
            "upper_bound": fraction_token(upper_bound_from_trace(trace)),
            "iterations": len(trace.iterations),
        }
    payload["schedule"] = [list(seq) for seq in schedule.per_machine]
    return cost, payload


def _cmd_solve(args):
    inst = _read_instance(args.instance)
    seed = _default_seed(args.seed)
    started = time.perf_counter()
    parameters = {"epsilon": args.epsilon, "seed": seed, "algo": args.algo}
    _, payload = _solve(inst, args.algo, args.epsilon, seed)
    report = RunReport(
        algorithm=args.algo,
        parameters=parameters,
        payload=payload,
        wall_time_s=time.perf_counter() - started,
    )
    _emit(
        report,
        args.out,
        args.csv,
        (("instance", "algorithm", "cost"), (args.instance, args.algo, payload["cost"])),
    )
    return EXIT_OK


def _cmd_pds(args):
    inst = _read_instance(args.instance)
    seed = _default_seed(args.seed)
    remaining = frozenset(range(inst.n))
    started = time.perf_counter()
    if args.algo in ("identical", "unit"):
        require_oracle_model(inst, args.algo)
        asg = pds_identical(inst, remaining, args.epsilon)
    elif args.algo == "related":
        asg = pds_related(inst, remaining, args.epsilon, seed=seed)
    elif args.algo == "unrelated":
        asg = pds_unrelated(inst, remaining, args.epsilon, seed=seed)
    elif args.algo == "exact":
        asg, _ = oracle_mod.exact_pds(inst, remaining)
    else:
        asg = pcds_detailed(inst, remaining)[0].assignment
    value = density_of(inst, asg, remaining)
    report = RunReport(
        algorithm="pds-%s" % args.algo,
        parameters={"epsilon": args.epsilon, "seed": seed},
        payload={
            "assignment": [list(seq) for seq in asg.per_machine],
            "covered": value.covered,
            "makespan": fraction_token(value.makespan),
            "density": fraction_token(value.as_fraction()),
        },
        wall_time_s=time.perf_counter() - started,
    )
    _emit(report, None, False, None)
    return EXIT_OK


def _parse_budgets(text):
    try:
        return [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValidationError("--budgets", "expected comma-separated rationals")


def _cmd_pmc(args):
    inst = _read_instance(args.instance)
    seed = _default_seed(args.seed)
    budgets = _parse_budgets(args.budgets)
    params = PmcParams(
        mode=args.mode, epsilon=args.epsilon, mu=args.mu, r_cap=args.r_cap, seed=seed
    )
    started = time.perf_counter()
    result = pmc_solve(inst, budgets, params)
    report = RunReport(
        algorithm="pmc-%s" % args.mode,
        parameters={
            "epsilon": args.epsilon,
            "mu": args.mu,
            "seed": seed,
            "r_cap": args.r_cap,
        },
        payload={
            "assignment": [list(seq) for seq in result.assignment.per_machine],
            "covered": result.covered,
            "lp_objective": result.lp_objective,
            "iterations_kept": result.iterations_kept,
            "attempts": result.attempts,
            "per_machine_cost": [fraction_token(c) for c in result.per_machine_cost],
            "delta": params.delta(inst.m),
            "budgets": [fraction_token(b) for b in budgets],
        },
        wall_time_s=time.perf_counter() - started,
    )
    _emit(report, None, False, None)
    return EXIT_OK


def _cmd_oracle(args):
    inst = _read_instance(args.instance)
    limits = _parse_limits(args.limits)
    started = time.perf_counter()
    if args.problem == "pmssc":
        schedule, cost = oracle_mod.exact_pmssc(inst, limits)
        payload = {
            "schedule": [list(seq) for seq in schedule.per_machine],
            "cost": fraction_token(cost),
        }
    elif args.problem == "pds":
        asg, value = oracle_mod.exact_pds(inst, limits=limits)
        payload = {
            "assignment": [list(seq) for seq in asg.per_machine],
            "density": fraction_token(value.as_fraction()),
        }
    elif args.problem == "pmc":
        if not args.budgets:
            raise ValidationError("--budgets", "required for --problem pmc")
        budgets = _parse_budgets(args.budgets)
        asg, covered = oracle_mod.exact_pmc(inst, budgets, limits)
        payload = {
            "assignment": [list(seq) for seq in asg.per_machine],
            "covered": covered,
        }
    else:
        asg, value = oracle_mod.exact_pds_precedence(inst, limits=limits)
        payload = {
            "assignment": [list(seq) for seq in asg.per_machine],
            "density": fraction_token(value.as_fraction()),
        }
    report = RunReport(
        algorithm="oracle-%s" % args.problem,
        parameters={"limits": args.limits},
        payload=payload,
        wall_time_s=time.perf_counter() - started,
    )
    _emit(report, None, False, None)
    return EXIT_OK


def _cmd_gen(args):
    inst = generate_instance(
        n=args.n,
        k=args.k,
        m=args.m,
        model=args.model,
        density=args.density,
        seed=_default_seed(args.seed),
        dag_edge_prob=args.dag_edge_prob,
        max_cost=args.max_cost,
    )
    text = serialize_instance(inst)
    Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_validate(args):
    inst = _read_instance(args.instance)
    report = validate_instance(inst)
    doc = {
        "coverable": report.coverable,
        "uncovered_elements": list(report.uncovered_elements),
        "costs_positive": report.costs_positive,
        "dag_acyclic": report.dag_acyclic,
        "entries": list(report.entries),
        "valid": report.valid,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report.valid else EXIT_VALIDATION


def _cmd_bench(args):
    seed = _default_seed(args.seed)
    paths = sorted(Path(args.corpus).glob("*.json"))
    writer = csv.writer(sys.stdout)
    writer.writerow(["instance", "algo_cost", "oracle_cost", "ratio"])
    for path in paths:
        inst = _read_instance(path)
        cost, _ = _solve(inst, args.algo, args.epsilon, seed)
        if args.ratios:
            try:
                _, opt = oracle_mod.exact_pmssc(inst)
                writer.writerow(
                    [path.name, float(cost), float(opt), float(cost / opt)]
                )
            except LimitsExceededError:
                writer.writerow([path.name, float(cost), "NA", "NA"])
        else:
            writer.writerow([path.name, float(cost), "", ""])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmssc", description="Parallel min-sum set cover toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve min-sum set cover end to end")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--algo", required=True, choices=SOLVE_ALGOS)
    solve.add_argument("--epsilon", type=_epsilon, default=0.1)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--out", default=None)
    solve.add_argument("--csv", action="store_true")
    solve.set_defaults(func=_cmd_solve)

    pds_p = sub.add_parser("pds", help="run one densest-subfamily solver")
    pds_p.add_argument("--instance", required=True)
    pds_p.add_argument("--algo", required=True, choices=PDS_ALGOS)
    pds_p.add_argument("--epsilon", type=_epsilon, default=0.1)
    pds_p.add_argument("--seed", type=int, default=None)
    pds_p.set_defaults(func=_cmd_pds)

    pmc_p = sub.add_parser("pmc", help="parallel maximum coverage")
    pmc_p.add_argument("--instance", required=True)
    pmc_p.add_argument("--budgets", required=True)
    pmc_p.add_argument("--mode", required=True, choices=("poly", "fpt"))
    pmc_p.add_argument("--epsilon", type=_epsilon, default=0.2)
    pmc_p.add_argument("--mu", type=float, default=None)
    pmc_p.add_argument("--seed", type=int, default=None)
    pmc_p.add_argument("--r-cap", type=int, default=None)
    pmc_p.set_defaults(func=_cmd_pmc)

    oracle_p = sub.add_parser("oracle", help="exact solvers for small instances")
    oracle_p.add_argument("--instance", required=True)
    oracle_p.add_argument(
        "--problem", required=True, choices=("pmssc", "pds", "pmc", "pcds")
    )
    oracle_p.add_argument("--limits", default=None, help="k,m,n")
    oracle_p.add_argument("--budgets", default=None, help="required for pmc")
    oracle_p.set_defaults(func=_cmd_oracle)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument(
        "--model", required=True, choices=("unit", "identical", "related", "unrelated")
    )
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--dag-edge-prob", type=float, default=None)
    gen.add_argument("--max-cost", type=int, default=3)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    val = sub.add_parser("validate", help="validate an instance file")
    val.add_argument("--instance", required=True)
    val.set_defaults(func=_cmd_validate)

    bench = sub.add_parser("bench", help="run an algorithm over a corpus")
    bench.add_argument("--corpus", required=True)
    bench.add_argument("--algo", required=True, choices=SOLVE_ALGOS)
    bench.add_argument("--epsilon", type=_epsilon, default=0.1)
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--ratios", action="store_true")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, UncoverableError, ValueError) as exc:
        sys.stderr.write("validation error: %s\n" % exc)
        return EXIT_VALIDATION
    except (
        NoCoverageError,
        NoIterationKeptError,
        NumericalFailureError,
        StalledOracleError,
    ) as exc:
        sys.stderr.write("solver failure: %s\n" % exc)
        return EXIT_SOLVER
    except LimitsExceededError as exc:
        sys.stderr.write("limits exceeded: %s\n" % exc)
        return EXIT_LIMITS
    except PmsscError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
