"""Seeded instance generator for the solve benchmark.

The benchmark does not call ``pmssc.fileio.generate_instance``: a later change
to the program's generator must not silently change a workload. Instances are
README-format JSON documents (plain dicts), built with the standard library's
``random.Random`` keyed by (workload, seed, index).

All instances of a workload share one size (n, k, m, density); the seed
changes only the sets and costs. A pool of equal-size instances keeps the
median solve time an average over many solves instead of the time of
whichever instance size happens to sit in the middle of a mixed pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# maxcov takes partial enumeration when a call has at most this many
# candidate sets; the identical workloads sit on either side of it.
ENUM3_MAX_SETS = 40

# Base costs are 1..MAX_COST.
MAX_COST = 3

# Machine speeds of the related workload, as [num, den]. They are fixed, not
# drawn: speeds decide how many machine groups the reduction builds and how
# long the budget ladder is, so drawing them would swing the work per solve
# far more than the sets and costs do.
RELATED_SPEEDS = ([1, 1], [3, 2])


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str
    model: str
    pool: int
    n: int
    k: int
    m: int
    density: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identical-small", "greedy-identical", "identical", pool=36,
                 n=26, k=10, m=2, density=0.25),
        Workload("identical-large", "greedy-identical", "identical", pool=5,
                 n=800, k=240, m=8, density=0.15),
        Workload("related", "greedy-related", "related", pool=11,
                 n=8, k=3, m=2, density=0.4),
        Workload("unrelated", "greedy-unrelated", "unrelated", pool=8,
                 n=80, k=24, m=4, density=0.12),
    )
}


def generate(workload: Workload, seed: int, index: int) -> dict:
    """Instance ``index`` of ``workload`` for ``seed``, as an instance document.

    Each set holds each element with probability ``density``; an empty set
    gets one random element, and an element no set holds joins a random set.
    """
    rng = random.Random("%s:%d:%d" % (workload.name, seed, index))
    n, k, m = workload.n, workload.k, workload.m
    sets = [[u for u in range(n) if rng.random() < workload.density] for _ in range(k)]
    for s in sets:
        if not s:
            s.append(rng.randrange(n))
    covered = set().union(*sets)
    for u in range(n):
        if u not in covered:
            sets[rng.randrange(k)].append(u)
    sets = [sorted(set(s)) for s in sets]

    if workload.model == "unrelated":
        matrix = []
        for _ in range(k):
            row = ["inf" if rng.random() < 0.1 else rng.randint(1, MAX_COST) for _ in range(m)]
            if all(c == "inf" for c in row):
                row[rng.randrange(m)] = rng.randint(1, MAX_COST)
            matrix.append(row)
        cost_model = {"kind": "unrelated", "matrix": matrix}
    else:
        # Balanced cost classes: each base cost is held by k / MAX_COST sets
        # (+-1), in seeded order, so every instance has the same cost mix.
        costs = [1 + i % MAX_COST for i in range(k)]
        rng.shuffle(costs)
        cost_model = {"kind": workload.model, "base_costs": costs}
        if workload.model == "related":
            cost_model["speeds"] = [RELATED_SPEEDS[j % len(RELATED_SPEEDS)] for j in range(m)]
    return {"version": 1, "n": n, "m": m, "cost_model": cost_model, "sets": sets}


def warmup_document(workload: Workload) -> dict:
    """A minimal instance of the workload's cost model: one unit-cost set
    covering three elements on two machines. Solving it runs every layer of
    the workload's path once, with as little work as possible."""
    costs = {
        "identical": {"kind": "identical", "base_costs": [1]},
        "related": {"kind": "related", "base_costs": [1], "speeds": [[1, 2], [1, 2]]},
        "unrelated": {"kind": "unrelated", "matrix": [[1, 1]]},
    }
    return {"version": 1, "n": 3, "m": 2, "cost_model": costs[workload.model], "sets": [[0, 1, 2]]}


def check_property(workload: Workload, doc: dict) -> None:
    """Raise ValueError unless ``doc`` has the input property that defines
    ``workload``: the property that decides which code path it exercises."""
    k = len(doc["sets"])
    if workload.name == "identical-small" and k > ENUM3_MAX_SETS:
        raise ValueError("identical-small needs k <= %d, got %d" % (ENUM3_MAX_SETS, k))
    if workload.name == "identical-large":
        classes = {}
        for c in doc["cost_model"]["base_costs"]:
            classes[c] = classes.get(c, 0) + 1
        small = {c: size for c, size in classes.items() if size <= ENUM3_MAX_SETS}
        if small:
            raise ValueError(
                "identical-large needs every cost class > %d sets, got %s"
                % (ENUM3_MAX_SETS, small)
            )
