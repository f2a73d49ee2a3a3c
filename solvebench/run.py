"""pmssc solve benchmark.

Usage, from the repository root:

    python3 solvebench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run is one fresh process on one workload. It generates the workload's
instance pool from --seed, measures set-up in fresh interpreters, solves a
tiny warm-up instance, then times the user path
``pmssc.cli.main(["solve", ...])`` in-process, one call per instance, over
whole passes of the pool while they fit in --seconds (at least one). Each
report is checked independently, and a re-solved instance must repeat its
earlier schedule. Reported times are reference seconds (see hostspeed.py):
wall times with this shared host's speed swings divided out.

--trace 0 reports the end-to-end metrics. --trace 1 solves each instance
untraced and then traced, and reports the per-layer split (counts and
seconds per traced pass) plus the tracing overhead. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".solvebench"
sys.path.insert(0, str(ROOT))

from solvebench import checker, hostspeed, instances, tracing  # noqa: E402

SETUP_PROBES = 5

END_TO_END = (
    ("solves_per_s", "1/s"),
    ("solve_s.p50", "s"),
    ("cost_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("maxcov.calls", "count"),
    ("maxcov.calls_le40", "count"),
    ("maxcov.sets_mean", "count"),
    ("maxcov.busy_s", "s"),
    ("lp.calls", "count"),
    ("lp.vars_mean", "count"),
    ("lp.rows_mean", "count"),
    ("lp.busy_s", "s"),
    ("pmc.calls", "count"),
    ("pmc.lp_build_s", "s"),
    ("pmc.round_self_s", "s"),
    ("pmc.draw_s", "s"),
    ("pmc.attempts", "count"),
    ("pmc.kept_share", "ratio"),
    ("pmc.no_kept", "count"),
    ("pmc.zero_lp", "count"),
    ("pmc.lp_repeat_share", "ratio"),
    ("rng.streams", "count"),
    ("rng.stream_s", "s"),
    ("pds.calls", "count"),
    ("pds.guesses", "count"),
    ("pds.useful_share", "ratio"),
    ("pds.self_s", "s"),
    ("scheduler.iterations", "count"),
    ("scheduler.self_s", "s"),
    ("core.validate_s", "s"),
    ("core.density_calls", "count"),
    ("core.density_s", "s"),
    ("core.evaluate_s", "s"),
    ("fileio.parse_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.missing", "count"),
)


class SetupError(Exception):
    """The run cannot start: no program to measure, or set-up failed."""


class Runner:
    """Solves passes over the pool through the CLI and checks every report."""

    def __init__(self, cli, algo, seed, docs, work):
        self.cli = cli
        self.algo = algo
        self.seed = seed
        self.docs = docs
        self.paths = [work / ("instance-%d.json" % i) for i in range(len(docs))]
        self.out = work / "report.json"
        self.schedules = {}
        self.costs = {}
        self.attempted = 0
        self.problems = []
        self._slowdown = None  # host slowdown measured right after the last solve

    def run_pass(self):
        """Solve every pool instance once; returns one sample per solve."""
        return [self.solve_and_check(i) for i in range(len(self.docs))]

    def solve_and_check(self, i, tracer=None):
        """Solve pool instance ``i`` and check the report.

        Returns (wall seconds, reference seconds, passed). The host slowdown
        is sampled just before, every few tenths of a second during, and just
        after the solve; with evenly spaced samples the reference time is the
        wall time times the mean inverse slowdown.
        """
        before = self._slowdown or hostspeed.slowdown()
        with hostspeed.Sampler() as sampler:
            wall, rc = self.solve(self.paths[i], tracer)
        self._slowdown = hostspeed.slowdown()
        wall -= sampler.spent
        speeds = [1 / s for s in [before, self._slowdown] + sampler.samples]
        self.attempted += 1
        problem = self._check(i, rc)
        if problem:
            self.problems.append("instance %d: %s" % (i, problem))
        return wall, wall * sum(speeds) / len(speeds), problem is None

    def solve(self, path, tracer=None):
        """One timed ``pmssc solve``; returns (wall seconds, exit code or error)."""
        self.out.unlink(missing_ok=True)
        argv = [
            "solve", "--instance", str(path), "--algo", self.algo,
            "--seed", str(self.seed), "--out", str(self.out),
        ]
        started = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = tracer.call(tracing.ROOT_SPAN, self.cli.main, argv)
        except Exception as exc:  # a crash is a failed solve, not a failed run
            traceback.print_exc()
            rc = "%s: %s" % (type(exc).__name__, exc)
        return time.perf_counter() - started, rc

    def _check(self, i, rc):
        if rc != 0:
            return "exit %s" % (rc,)
        try:
            report = json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return "unreadable report: %s" % exc
        found = checker.check_report(self.docs[i], report)
        if found:
            return "; ".join(found)
        first = self.schedules.setdefault(i, report["schedule"])
        if report["schedule"] != first:
            return "schedule differs from an earlier solve with the same seed"
        self.costs[i] = Fraction(report["cost"])
        return None

    @property
    def failed(self):
        return len(self.problems)


def prepare(workload, seed, work):
    """Write the pool and the warm-up instance; returns the pool documents."""
    work.mkdir(parents=True, exist_ok=True)
    docs = []
    for i in range(workload.pool):
        doc = instances.generate(workload, seed, i)
        try:
            instances.check_property(workload, doc)
        except ValueError as exc:
            raise SetupError(str(exc))
        (work / ("instance-%d.json" % i)).write_text(json.dumps(doc), encoding="utf-8")
        docs.append(doc)
    warmup = instances.warmup_document(workload)
    (work / "warmup.json").write_text(json.dumps(warmup), encoding="utf-8")
    return docs


def measure_setup(workload, work):
    """Median over fresh interpreters of import pmssc.cli plus a warm-up solve,
    in reference seconds."""
    probe = [
        sys.executable, str(PACKAGE_DIR / "setup_probe.py"), str(SRC),
        str(work / "warmup.json"), workload.algo, str(work / "probe-report.json"),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise SetupError("setup probe printed no result: %s" % done.stderr.strip())
        if done.returncode != 0 or result["rc"] != 0:
            raise SetupError("setup probe failed: %s %s" % (result["rc"], done.stderr.strip()))
        samples.append(result["setup_s"])
    return statistics.median(samples)


def import_cli():
    if not (SRC / "pmssc" / "__init__.py").is_file():
        raise SetupError("no pmssc package under %s" % SRC)
    sys.path.insert(0, str(SRC))
    from pmssc import cli

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SetupError("pmssc was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def _another_fits(started, begun, seconds):
    """True when one more round as long as the last still ends in time."""
    now = time.perf_counter()
    return now - started + (now - begun) <= seconds


def timed_run(runner, seconds):
    """Whole passes over the pool while they fit in ``seconds``, at least one.

    With a single pass, the pass's quickest instance is solved once more,
    untimed, so that every run compares two schedules solved with the same
    seed.
    """
    samples = []
    started = time.perf_counter()
    passes = 0
    while True:
        begun = time.perf_counter()
        samples += runner.run_pass()
        passes += 1
        if not _another_fits(started, begun, seconds):
            break
    if passes == 1:
        runner.solve_and_check(min(range(len(samples)), key=lambda i: samples[i][1]))
    return samples, passes


def traced_run(runner, seconds, spans_path):
    """Passes in which each instance is solved untraced and then traced, while
    they fit in ``seconds``, at least one. Solving each pair back to back keeps
    the overhead estimate clear of host speed drift.

    Returns the tracer, the number of traced passes, the tracing overhead
    and the factor from the traced solves' wall seconds to reference seconds.
    """
    tracer = tracing.Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    passes = 0
    while True:
        begun = time.perf_counter()
        for i in range(len(runner.docs)):
            untraced.append(runner.solve_and_check(i))
            restore = tracer.install()
            try:
                traced.append(runner.solve_and_check(i, tracer))
            finally:
                restore()
        passes += 1
        if not _another_fits(started, begun, seconds):
            break
    tracer.write(spans_path)
    traced_ref = sum(ref for _, ref, _ in traced)
    overhead = traced_ref / sum(ref for _, ref, _ in untraced) - 1.0
    return tracer, passes, overhead, traced_ref / sum(wall for wall, _, _ in traced)


def layer_metrics(tracer, tot, passes, overhead, to_ref):
    """Per-layer metrics per traced pass: counts, and busy and self times in
    reference seconds (``to_ref`` turns the traced passes' wall seconds into
    reference seconds)."""
    counters = tracer.counters
    scale = to_ref / 1e9 / passes

    def calls(*names):
        return sum(tot.get(n, (0, 0, 0))[0] for n in names)

    def busy(name):
        return tot.get(name, (0, 0, 0))[1] * scale

    def own(*names):
        return sum(tot.get(n, (0, 0, 0))[2] for n in names) * scale

    def ratio(num, den):
        return num / den if den else 0.0

    pds_spans = [n for n in tot if n.startswith("pds.")]
    maxcov_calls = calls("maxcov.budgeted_max_coverage")
    lp_calls = calls("lp.solve_lp")
    pmc_calls = calls("pmc.pmc_solve")
    guesses = maxcov_calls + pmc_calls
    c = counters.get
    return {
        "maxcov.calls": maxcov_calls / passes,
        "maxcov.calls_le40": c("maxcov.calls_le40", 0) / passes,
        "maxcov.sets_mean": ratio(c("maxcov.sets", 0), maxcov_calls),
        "maxcov.busy_s": busy("maxcov.budgeted_max_coverage"),
        "lp.calls": lp_calls / passes,
        "lp.vars_mean": ratio(c("lp.vars", 0), lp_calls),
        "lp.rows_mean": ratio(c("lp.rows", 0), lp_calls),
        "lp.busy_s": busy("lp.solve_lp"),
        "pmc.calls": pmc_calls / passes,
        "pmc.lp_build_s": busy("pmc.build_pmc_lp"),
        "pmc.round_self_s": own("pmc.round_pmc"),
        "pmc.draw_s": own("pmc.raw_draws"),
        "pmc.attempts": c("pmc.attempts", 0) / passes,
        "pmc.kept_share": ratio(c("pmc.kept", 0), c("pmc.attempts", 0)),
        "pmc.no_kept": c("pmc.no_kept", 0) / passes,
        "pmc.zero_lp": c("pmc.zero_lp", 0) / passes,
        "pmc.lp_repeat_share": ratio(c("pmc.lp_repeats", 0), lp_calls),
        "rng.streams": calls("rng.stream") / passes,
        "rng.stream_s": busy("rng.stream"),
        "pds.calls": calls(*pds_spans) / passes,
        "pds.guesses": guesses / passes,
        "pds.useful_share": ratio(c("pds.useful", 0), guesses),
        "pds.self_s": own(*pds_spans),
        "scheduler.iterations": c("scheduler.iterations", 0) / passes,
        "scheduler.self_s": own("scheduler.pmssc_greedy"),
        "core.validate_s": busy("core.validate_instance"),
        "core.density_calls": calls("core.density") / passes,
        "core.density_s": busy("core.density"),
        "core.evaluate_s": busy("core.evaluate_schedule_cost"),
        "fileio.parse_s": busy("fileio.parse_instance"),
        "cli.self_s": own(tracing.ROOT_SPAN),
        "trace.overhead": overhead,
        "trace.missing": float(len(tracer.missing) + len(tracer.hook_failures)),
    }


def layer_shares(tot):
    """Self-time share of each layer in the traced solves' wall time."""
    wall = tot.get(tracing.ROOT_SPAN, (0, 0, 0))[1]
    shares = {}
    for name, (_, _, own) in tot.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0) + own
    return {layer: own / wall for layer, own in shares.items()} if wall else {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="pmssc solve benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args):
    workload = instances.WORKLOADS[args.workload]
    cli = import_cli()
    work = WORK / workload.name
    docs = prepare(workload, args.seed, work)
    setup_s = None if args.trace else measure_setup(workload, work)

    runner = Runner(cli, workload.algo, args.seed, docs, work)
    _, rc = runner.solve(work / "warmup.json")
    if rc != 0:
        raise SetupError("warm-up solve failed: %s" % (rc,))

    if args.trace:
        spans_path = work / ("spans-seed%d.jsonl" % args.seed)
        tracer, passes, overhead, to_ref = traced_run(runner, args.seconds, spans_path)
        tot = tracer.totals()
        values = layer_metrics(tracer, tot, passes, overhead, to_ref)
        table, counts = PER_LAYER, {}
        print("traced passes: %d, spans: %s" % (passes, spans_path.relative_to(ROOT)))
        for layer, share in sorted(layer_shares(tot).items(), key=lambda kv: -kv[1]):
            print("  self-time share %-10s %6.1f%%" % (layer, 100 * share))
        if tracer.missing or tracer.hook_failures:
            print("missing: %s; failed hooks: %s"
                  % (sorted(tracer.missing), sorted(tracer.hook_failures)))
    else:
        samples, passes = timed_run(runner, args.seconds)
        walls = [wall for wall, _, _ in samples]
        refs = [ref for _, ref, _ in samples]
        lower = sum((checker.trivial_lower_bound(d) for d in docs), Fraction(0))
        values = {
            "solves_per_s": sum(ok for _, _, ok in samples) / sum(refs),
            "solve_s.p50": statistics.median(refs),
            "cost_ratio": float(sum(runner.costs.values(), Fraction(0)) / lower),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        table = END_TO_END
        counts = {
            "solves_per_s": len(walls), "solve_s.p50": len(walls),
            "cost_ratio": len(docs), "setup_s": SETUP_PROBES, "peak_rss_mb": 1,
        }
        print("passes: %d over %d instances; wall time: median %.4g s, total %.4g s; "
              "host slowdown: %.3g" % (passes, len(docs), statistics.median(walls),
                                       sum(walls), sum(walls) / sum(refs)))
    for name, unit in table:
        note = " (n=%d)" % counts[name] if name in counts else ""
        print("%-22s %.6g %s%s" % (name, values[name], unit, note))
    print("fail_rate %.6g (%d of %d solves)" % (
        runner.failed / runner.attempted, runner.failed, runner.attempted))
    for problem in runner.problems:
        print("FAILED %s" % problem)
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        sys.stderr.write("solvebench: %s\n" % exc)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
