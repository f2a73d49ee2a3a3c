"""Command-line surface.

Subcommands: solve, pds, pmc, oracle, gen, validate, bench. Exit codes:
0 success, 2 validation error, 3 solver failure, 4 oracle limits exceeded.
``PMSSC_SEED`` provides the default seed (an integer); ``--seed`` wins.
"""

from __future__ import annotations

import argparse
import csv
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
    fraction_token,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .pmc import PmcParams, PmcRelaxation, pmc_solve
from .precedence import pcds, pmssc_precedence
from .scheduler import ORACLES, pmssc_greedy, upper_bound_from_trace
from .core import density as density_of

SOLVE_ALGOS = (
    "greedy-identical",
    "greedy-unit",
    "greedy-related",
    "greedy-unrelated",
    "greedy-precedence",
    "exact",
)
PDS_ALGOS = tuple(ORACLES) + ("precedence",)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_LIMITS = 4


def _default_seed(value):
    if value is not None:
        return value
    env = os.environ.get("PMSSC_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise ValidationError("PMSSC_SEED", "expected an integer, got %r" % env) from None


def _read_instance(path):
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    return parse_instance(data)


def _write_out(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValidationError("--out", "cannot write %s: %s" % (path, exc))


def _in_range(convert, ok, wanted):
    """An argparse type: ``convert(text)`` if ``ok`` holds, else exit 2 with usage."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError("must be %s, got %r" % (wanted, text))
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_epsilon = _in_range(float, lambda v: 0 < v < 1, "in (0, 1)")
_mu = _in_range(float, lambda v: 0 < v < math.inf, "finite and positive")
_at_least_one = _in_range(int, lambda v: v >= 1, "at least 1")
_probability = _in_range(float, lambda v: 0 <= v <= 1, "in [0, 1]")


def _parse_limits(text):
    if text is None:
        return None
    try:
        k, m, n = (int(x) for x in text.split(","))
    except ValueError:
        raise ValidationError("--limits", "expected k,m,n")
    if min(k, m, n) < 0:
        raise ValidationError("--limits", "must be nonnegative")
    return oracle_mod.OracleLimits(max_k=k, max_m=m, max_n=n, node_budget=20_000_000)


def _report(algorithm, parameters, started, payload, out=None, csv_row=None):
    """Write one run report as JSON: to ``out`` when given, else to stdout;
    ``csv_row`` (instance, algorithm, cost) goes to stdout in its place."""
    doc = dict(payload, algorithm=algorithm, parameters=parameters)
    doc["wall_time_s"] = time.perf_counter() - started
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out:
        _write_out(out, text)
    if csv_row:
        csv.writer(sys.stdout).writerows([("instance", "algorithm", "cost"), csv_row])
    elif not out:
        sys.stdout.write(text)
    return EXIT_OK


def _machines(result):
    """The per-machine set lists of an Assignment or Schedule, as JSON lists."""
    return [list(seq) for seq in result.per_machine]


def _solve(inst, algo, epsilon, seed):
    """Run one of SOLVE_ALGOS; returns the exact cost and the report payload."""
    if algo == "exact":
        schedule, cost = oracle_mod.exact_pmssc(inst)  # re-evaluated and checked there
        _, cover_times = evaluate_schedule_cost(inst, schedule)
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
    payload["schedule"] = _machines(schedule)
    return cost, payload


def _cmd_solve(args):
    inst = _read_instance(args.instance)
    seed = _default_seed(args.seed)
    started = time.perf_counter()
    _, payload = _solve(inst, args.algo, args.epsilon, seed)
    return _report(
        args.algo,
        {"epsilon": args.epsilon, "seed": seed, "algo": args.algo},
        started,
        payload,
        out=args.out,
        csv_row=(args.instance, args.algo, payload["cost"]) if args.csv else None,
    )


def _cmd_pds(args):
    inst = _read_instance(args.instance)
    seed = _default_seed(args.seed)
    remaining = frozenset(range(inst.n))
    started = time.perf_counter()
    if args.algo == "precedence":
        asg = pcds(inst, remaining)
    else:
        asg = ORACLES[args.algo](inst, remaining, None, args.epsilon, seed)
    value = density_of(inst, asg, remaining)
    return _report("pds-%s" % args.algo, {"epsilon": args.epsilon, "seed": seed}, started, {
        "assignment": _machines(asg),
        "covered": value.covered,
        "makespan": fraction_token(value.makespan),
        "density": fraction_token(value.as_fraction()),
    })


def _parse_budgets(text):
    try:
        budgets = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise ValidationError("--budgets", "expected comma-separated rationals")
    if any(b < 0 for b in budgets):
        raise ValidationError("--budgets", "must be nonnegative")
    return budgets


def _cmd_pmc(args):
    inst = _read_instance(args.instance)
    seed = _default_seed(args.seed)
    budgets = _parse_budgets(args.budgets)
    params = PmcParams(
        mode=args.mode, epsilon=args.epsilon, mu=args.mu, r_cap=args.r_cap, seed=seed
    )
    started = time.perf_counter()
    result = pmc_solve(PmcRelaxation(inst), budgets, params)
    parameters = {"epsilon": args.epsilon, "mu": args.mu, "seed": seed, "r_cap": args.r_cap}
    return _report("pmc-%s" % args.mode, parameters, started, {
        "assignment": _machines(result.assignment),
        "covered": result.covered,
        "lp_objective": result.lp_objective,
        "iterations_kept": result.iterations_kept,
        "attempts": result.attempts,
        "attempts_run": result.attempts_run,
        "per_machine_cost": [fraction_token(c) for c in result.per_machine_cost],
        "delta": params.delta(inst.m),
        "budgets": [fraction_token(b) for b in budgets],
    })


def _cmd_oracle(args):
    inst = _read_instance(args.instance)
    limits = _parse_limits(args.limits)
    started = time.perf_counter()
    if args.problem == "pmssc":
        schedule, cost = oracle_mod.exact_pmssc(inst, limits)
        payload = {"schedule": _machines(schedule), "cost": fraction_token(cost)}
    elif args.problem == "pmc":
        if not args.budgets:
            raise ValidationError("--budgets", "required for --problem pmc")
        budgets = _parse_budgets(args.budgets)
        asg, covered = oracle_mod.exact_pmc(inst, budgets, limits)
        payload = {"assignment": _machines(asg), "covered": covered}
    else:
        exact = oracle_mod.exact_pds if args.problem == "pds" else oracle_mod.exact_pds_precedence
        asg, value = exact(inst, limits=limits)
        payload = {"assignment": _machines(asg), "density": fraction_token(value.as_fraction())}
    return _report("oracle-%s" % args.problem, {"limits": args.limits}, started, payload)


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
    _write_out(args.out, serialize_instance(inst))
    return EXIT_OK


def _cmd_validate(args):
    inst = _read_instance(args.instance)
    report = validate_instance(inst)
    doc = {
        "coverable": report.coverable,
        "uncovered_elements": list(report.uncovered_elements),
        "dag_acyclic": report.dag_acyclic,
        "entries": list(report.entries),
        "valid": report.valid,
    }
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return EXIT_OK if report.valid else EXIT_VALIDATION


def _cmd_bench(args):
    seed = _default_seed(args.seed)
    if not Path(args.corpus).is_dir():
        raise ValidationError("--corpus", "not a directory: %s" % args.corpus)
    paths = sorted(Path(args.corpus).glob("*.json"))
    writer = csv.writer(sys.stdout)
    writer.writerow(["instance", "algo_cost", "oracle_cost", "ratio"])
    for path in paths:
        try:
            inst = _read_instance(path)
            cost, _ = _solve(inst, args.algo, args.epsilon, seed)
        except (PmsscError, ValueError) as exc:
            # Name the instance in the message ``main`` writes; the exception
            # type, and so the exit code, stay.
            exc.args = ("%s: %s" % (path.name, exc),)
            raise
        if args.ratios:
            try:
                _, opt = oracle_mod.exact_pmssc(inst)
                ratio = 1.0 if cost == opt else float(cost / opt)  # opt is 0 when n is 0
                writer.writerow([path.name, float(cost), float(opt), ratio])
            except (LimitsExceededError, ValueError):  # beyond limits, or precedence
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
    pmc_p.add_argument("--mu", type=_mu, default=None, help="required with --mode fpt")
    pmc_p.add_argument("--seed", type=int, default=None)
    pmc_p.add_argument("--r-cap", type=_at_least_one, default=None)
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
    gen.add_argument("--density", type=_probability, required=True)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--dag-edge-prob", type=_probability, default=None)
    gen.add_argument("--max-cost", type=_at_least_one, default=3)
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


# Built once: parsing leaves it unchanged, and rebuilding it on every call
# took about a quarter of a small solve.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    if args.command == "pmc" and args.mode == "fpt" and args.mu is None:
        PARSER.error("pmc: --mu is required with --mode fpt")
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
