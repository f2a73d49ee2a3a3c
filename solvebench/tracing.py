"""Span tracer for the traced benchmark run.

The tracer wraps the module-global names through which the pmssc layers call
each other, so a span opens at each layer boundary without any change to the
program. A layer resolves those names at call time, so replacing the module
attribute is enough. Spans live in flat in-memory arrays (name id, parent
index, start, end in ns) and are written out once, when the run ends.

A wrapped name that no longer exists is reported as missing, and a counter
hook that no longer fits the call's arguments or result is reported as
failed; neither stops the run, so the traced run survives refactors.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter_ns

from .instances import ENUM3_MAX_SETS

# (module, attribute, span name). The span name's prefix is the layer the
# callee belongs to, which is not always the module that holds the name.
WRAPPED = (
    ("pmssc.cli", "parse_instance", "fileio.parse_instance"),
    ("pmssc.cli", "pmssc_greedy", "scheduler.pmssc_greedy"),
    ("pmssc.cli", "evaluate_schedule_cost", "core.evaluate_schedule_cost"),
    ("pmssc.scheduler", "validate_instance", "core.validate_instance"),
    ("pmssc.scheduler", "pds_identical", "pds.pds_identical"),
    ("pmssc.scheduler", "pds_unit", "pds.pds_unit"),
    ("pmssc.scheduler", "pds_related", "pds.pds_related"),
    ("pmssc.scheduler", "pds_unrelated", "pds.pds_unrelated"),
    ("pmssc.pds", "budgeted_max_coverage", "maxcov.budgeted_max_coverage"),
    ("pmssc.pds", "pmc_solve", "pmc.pmc_solve"),
    ("pmssc.pds", "density", "core.density"),
    ("pmssc.pmc", "build_pmc_lp", "pmc.build_pmc_lp"),
    ("pmssc.pmc", "solve_lp", "lp.solve_lp"),
    ("pmssc.pmc", "round_pmc", "pmc.round_pmc"),
    ("pmssc.pmc", "raw_draws", "pmc.raw_draws"),
    ("pmssc.pmc", "stream", "rng.stream"),
)

ROOT_SPAN = "cli.main"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    """Records spans and counters; ``install`` patches the layers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self.counters = {}
        self.missing = set()
        self.hook_failures = set()
        self._lp_seen = {}

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    # -- patching ------------------------------------------------------------

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer._run_hook(hook, name, args, kwargs, None, exc)
                raise
            tracer._close(idx)
            tracer._run_hook(hook, name, args, kwargs, result, None)
            return result

        return wrapper

    def _run_hook(self, hook, name, args, kwargs, result, exc):
        if hook is None:
            return
        idx = self._open(BOOKKEEPING_SPAN)
        try:
            hook(self, args, kwargs, result, exc)
        except (AttributeError, TypeError, IndexError, KeyError, ValueError):
            self.hook_failures.add(name)
        finally:
            self._close(idx)

    def install(self, wrapped=WRAPPED):
        """Patch every wrapped name; returns a function that restores them."""
        originals = []
        for module_name, attr, span in wrapped:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.add("%s.%s" % (module_name, attr))
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))

        def restore():
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

        return restore

    # -- output --------------------------------------------------------------

    def totals(self):
        """Per span name: (count, busy ns, self ns)."""
        span_names = [self.names[i] for i in self.name_id]
        return totals(span_names, self.parent, self.start, self.end)

    def write(self, path):
        """Write the spans as JSON lines: [name, parent index, start ns, end ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps(
                    [self.names[self.name_id[i]], self.parent[i], self.start[i], self.end[i]]
                ) + "\n")


def self_times(parent, start, end):
    """Self time per span: its duration minus the union of the parts of its
    interval that its child spans cover.

    Spans are given in the order they opened, so each span's children come
    after it, sorted by start; one pass merges each parent's child intervals.
    """
    n = len(start)
    covered = [0] * n
    run_lo = [0] * n  # the parent's current merged run of child intervals
    run_hi = [0] * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        if hi <= lo:
            continue
        if lo > run_hi[p]:
            covered[p] += run_hi[p] - run_lo[p]
            run_lo[p], run_hi[p] = lo, hi
        else:
            run_hi[p] = max(run_hi[p], hi)
    return [
        end[i] - start[i] - covered[i] - (run_hi[i] - run_lo[i]) for i in range(n)
    ]


def totals(span_names, parent, start, end):
    """Per span name: (count, busy, self), in the units of start and end."""
    out = {}
    for name, s, e, own in zip(span_names, start, end, self_times(parent, start, end)):
        count, busy, total_own = out.get(name, (0, 0, 0))
        out[name] = (count + 1, busy + e - s, total_own + own)
    return out


# -- counter hooks -------------------------------------------------------------
# Call counts come from the spans; a hook records what only the wrapped call's
# arguments, result or exception show.


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pds_hook(tracer, args, kwargs, result, exc):
    # Every LP is solved inside some pds call, so forgetting the seen LPs
    # when a pds call ends makes repeats count within one pds call.
    tracer._lp_seen = {}


def _maxcov_hook(tracer, args, kwargs, result, exc):
    sets = len(_arg(args, kwargs, 1, "sets"))
    tracer.count("maxcov.sets", sets)
    tracer.count("maxcov.calls_le40", int(sets <= ENUM3_MAX_SETS))
    tracer.count("pds.useful", int(exc is None and bool(result.chosen)))


def _pmc_solve_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("pds.useful", int(not result.assignment.is_empty))
        tracer.count("pmc.zero_lp", int(result.attempts == 0))


def _round_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("pmc.attempts", result.attempts)
        tracer.count("pmc.kept", result.iterations_kept)
    elif hasattr(exc, "attempts"):
        tracer.count("pmc.attempts", exc.attempts)
        tracer.count("pmc.no_kept")


def _lp_hook(tracer, args, kwargs, result, exc):
    program = _arg(args, kwargs, 0, "lp")
    tracer.count("lp.vars", len(program.objective))
    tracer.count("lp.rows", len(program.constraints))
    # Bucket by shape and right-hand sides, which is cheap to hash, and
    # compare in full only within a bucket.
    key = (len(program.objective), tuple(rhs for _, _, rhs in program.constraints))
    bucket = tracer._lp_seen.setdefault(key, [])
    if any(program == seen for seen in bucket):
        tracer.count("pmc.lp_repeats")
    else:
        bucket.append(program)


def _greedy_hook(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.count("scheduler.iterations", len(result[1].iterations))


_HOOKS = {
    "pds.pds_identical": _pds_hook,
    "pds.pds_unit": _pds_hook,
    "pds.pds_related": _pds_hook,
    "pds.pds_unrelated": _pds_hook,
    "maxcov.budgeted_max_coverage": _maxcov_hook,
    "pmc.pmc_solve": _pmc_solve_hook,
    "pmc.round_pmc": _round_hook,
    "lp.solve_lp": _lp_hook,
    "scheduler.pmssc_greedy": _greedy_hook,
}
