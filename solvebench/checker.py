"""Independent output checker for ``pmssc solve`` reports.

Works on the instance document the benchmark generated, with its own exact
``Fraction`` prefix-sum evaluator, so a defect in ``pmssc.core`` cannot hide
itself by agreeing with its own evaluation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional


def cost_table(doc: dict) -> List[List[Optional[Fraction]]]:
    """c[s][j] as an exact rational, ``None`` for an infinite entry."""
    k, m = len(doc["sets"]), doc["m"]
    model = doc["cost_model"]
    kind = model["kind"]
    if kind == "unit":
        return [[Fraction(1)] * m for _ in range(k)]
    if kind == "identical":
        return [[Fraction(c)] * m for c in model["base_costs"]]
    if kind == "related":
        speeds = [Fraction(*v) if isinstance(v, list) else Fraction(v) for v in model["speeds"]]
        return [[Fraction(c) / sp for sp in speeds] for c in model["base_costs"]]
    if kind == "unrelated":
        return [[None if c == "inf" else Fraction(c) for c in row] for row in model["matrix"]]
    raise ValueError("unknown cost model %r" % kind)


def trivial_lower_bound(doc: dict) -> Fraction:
    """Sum over elements u of min c(s, j) over sets s containing u and machines j.

    Every element waits at least the cost of the first set that covers it,
    so this bounds the cost of any schedule from below.
    """
    costs = cost_table(doc)
    best = [None] * doc["n"]
    for s, members in enumerate(doc["sets"]):
        finite = [c for c in costs[s] if c is not None]
        if not finite:
            continue
        cheapest = min(finite)
        for u in members:
            if best[u] is None or cheapest < best[u]:
                best[u] = cheapest
    if any(b is None for b in best):
        raise ValueError("instance has an uncoverable element")
    return sum(best, Fraction(0))


def _token(value) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError("not an exact rational token: %r" % (value,))
    return Fraction(value)


def check_report(doc: dict, report: dict) -> List[str]:
    """Problems found in a solve report; an empty list means it passed.

    Checks: one sequence per machine, valid set indices, each set used at
    most once, no infinite-cost placement, every element covered, reported
    cost and cover times equal the recomputed ones, cost <= upper_bound.
    """
    n, k, m = doc["n"], len(doc["sets"]), doc["m"]
    costs = cost_table(doc)
    schedule = report.get("schedule")
    if not isinstance(schedule, list) or len(schedule) != m:
        return ["schedule must list %d machine sequences" % m]
    problems = []
    used = set()
    cover = [None] * n
    for j, seq in enumerate(schedule):
        elapsed = Fraction(0)
        for s in seq:
            if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s < k:
                problems.append("machine %d: bad set index %r" % (j, s))
                continue
            if s in used:
                problems.append("set %d scheduled more than once" % s)
            used.add(s)
            c = costs[s][j]
            if c is None:
                problems.append("set %d placed on machine %d at infinite cost" % (s, j))
                continue
            elapsed += c
            for u in doc["sets"][s]:
                if cover[u] is None or elapsed < cover[u]:
                    cover[u] = elapsed
    uncovered = [u for u in range(n) if cover[u] is None]
    if uncovered:
        problems.append("elements %s never covered" % uncovered[:10])
    if problems:
        return problems

    total = sum(cover, Fraction(0))
    try:
        reported = _token(report.get("cost"))
        bound = _token(report.get("upper_bound"))
        times = [_token(t) for t in report.get("cover_times", ())]
    except (ValueError, ZeroDivisionError) as exc:
        return ["unreadable report field: %s" % exc]
    if reported != total:
        problems.append("reported cost %s != recomputed %s" % (reported, total))
    if times != cover:
        problems.append("reported cover_times differ from recomputed ones")
    if total > bound:
        problems.append("cost %s exceeds reported upper_bound %s" % (total, bound))
    return problems
