"""Instance files, random instance generation, and exact-rational tokens.

Instance documents are JSON:

    {"version": 1, "n": 20, "m": 3,
     "cost_model": {"kind": "identical", "base_costs": [1, 2, ...]},
     "sets": [[0, 1], [2, 4, 6], ...],
     "dag_edges": [[0, 3], ...],          # optional
     "names": {...}}                       # optional metadata, never solved on

Costs are integers; related-machine speeds may be [num, den] pairs; infinite
matrix entries are encoded as the string "inf".
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .core import (
    INFINITE_COST,
    IdenticalCosts,
    ProblemInstance,
    RelatedCosts,
    UnitCosts,
    UnrelatedCosts,
    topological_order,
)
from .errors import CyclicDagError, ParseError, ValidationError
from .rng import stream

FORMAT_VERSION = 1

_MODEL_KINDS = ("unit", "identical", "related", "unrelated")


def _expect_int(value, path, minimum=None):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(path, "expected an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(path, "must be at least %d" % minimum)
    return value


def _parse_speed(value, path) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        if value <= 0:
            raise ValidationError(path, "speed must be positive")
        return Fraction(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    ):
        num, den = value
        if num <= 0 or den <= 0:
            raise ValidationError(path, "speed must be positive")
        return Fraction(num, den)
    raise ValidationError(path, "expected integer or [num, den] pair")


def instance_from_dict(doc) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise ValidationError("$", "expected a JSON object")
    version = doc.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValidationError("version", "unsupported version %r" % version)
    n = _expect_int(doc.get("n"), "n", minimum=0)
    m = _expect_int(doc.get("m"), "m", minimum=1)
    raw_sets = doc.get("sets")
    if not isinstance(raw_sets, list):
        raise ValidationError("sets", "expected a list of element lists")
    for i, raw in enumerate(raw_sets):
        if not isinstance(raw, list):
            raise ValidationError("sets[%d]" % i, "expected a list")
        for q, e in enumerate(raw):
            if type(e) is not int or not 0 <= e < n:
                path = "sets[%d][%d]" % (i, q)
                _expect_int(e, path)
                raise ValidationError(path, "element %d outside [0, %d)" % (e, n))
    k = len(raw_sets)

    raw_model = doc.get("cost_model")
    if not isinstance(raw_model, dict):
        raise ValidationError("cost_model", "expected an object")
    kind = raw_model.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValidationError("cost_model.kind", "expected one of %s" % (_MODEL_KINDS,))
    if kind == "unit":
        model = UnitCosts()
    elif kind in ("identical", "related"):
        raw_costs = raw_model.get("base_costs")
        if not isinstance(raw_costs, list) or len(raw_costs) != k:
            raise ValidationError("cost_model.base_costs", "expected %d integers" % k)
        base = []
        for i, c in enumerate(raw_costs):
            c = _expect_int(c, "cost_model.base_costs[%d]" % i)
            if c <= 0:
                raise ValidationError(
                    "cost_model.base_costs[%d]" % i, "cost must be positive"
                )
            base.append(Fraction(c))
        if kind == "identical":
            model = IdenticalCosts(tuple(base))
        else:
            raw_speeds = raw_model.get("speeds")
            if not isinstance(raw_speeds, list) or len(raw_speeds) != m:
                raise ValidationError("cost_model.speeds", "expected %d speeds" % m)
            speeds = tuple(
                _parse_speed(v, "cost_model.speeds[%d]" % i)
                for i, v in enumerate(raw_speeds)
            )
            model = RelatedCosts(tuple(base), speeds)
    else:
        raw_matrix = raw_model.get("matrix")
        if not isinstance(raw_matrix, list) or len(raw_matrix) != k:
            raise ValidationError("cost_model.matrix", "expected %d rows" % k)
        rows = []
        for i, raw_row in enumerate(raw_matrix):
            if not isinstance(raw_row, list) or len(raw_row) != m:
                raise ValidationError(
                    "cost_model.matrix[%d]" % i, "expected %d entries" % m
                )
            row = []
            for j, entry in enumerate(raw_row):
                path = "cost_model.matrix[%d][%d]" % (i, j)
                if entry == "inf":
                    row.append(INFINITE_COST)
                    continue
                entry = _expect_int(entry, path)
                if entry <= 0:
                    raise ValidationError(path, "cost must be positive")
                row.append(Fraction(entry))
            rows.append(tuple(row))
        model = UnrelatedCosts(tuple(rows))

    dag = None
    if doc.get("dag_edges") is not None:
        raw_edges = doc["dag_edges"]
        if not isinstance(raw_edges, list):
            raise ValidationError("dag_edges", "expected a list of [pred, succ] pairs")
        edges = []
        for i, raw in enumerate(raw_edges):
            if not isinstance(raw, list) or len(raw) != 2:
                raise ValidationError("dag_edges[%d]" % i, "expected a [pred, succ] pair")
            a = _expect_int(raw[0], "dag_edges[%d][0]" % i)
            b = _expect_int(raw[1], "dag_edges[%d][1]" % i)
            if not (0 <= a < k and 0 <= b < k):
                raise ValidationError("dag_edges[%d]" % i, "set index out of range")
            edges.append((a, b))
        try:
            topological_order(k, edges)
        except CyclicDagError:
            raise ValidationError("dag_edges", "CyclicDag: edges contain a cycle")
        dag = tuple(edges)

    return ProblemInstance(n=n, sets=tuple(raw_sets), m=m, cost_model=model, dag=dag)


def parse_instance(data) -> ProblemInstance:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("not valid UTF-8: %s" % exc)
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError("not valid JSON: %s" % exc)
    return instance_from_dict(doc)


def instance_to_dict(inst: ProblemInstance) -> dict:
    model = inst.cost_model
    if model.kind == "unit":
        cost_model = {"kind": "unit"}
    elif model.kind == "identical":
        cost_model = {"kind": "identical", "base_costs": [int(c) for c in model.base_costs]}
    elif model.kind == "related":
        speeds = []
        for s in model.speeds:
            speeds.append(int(s) if s.denominator == 1 else [s.numerator, s.denominator])
        cost_model = {
            "kind": "related",
            "base_costs": [int(c) for c in model.base_costs],
            "speeds": speeds,
        }
    else:
        matrix = []
        for row in model.matrix:
            matrix.append(["inf" if c == INFINITE_COST else int(c) for c in row])
        cost_model = {"kind": "unrelated", "matrix": matrix}
    doc = {
        "version": FORMAT_VERSION,
        "n": inst.n,
        "m": inst.m,
        "cost_model": cost_model,
        "sets": [list(s) for s in inst.sets],
    }
    if inst.dag is not None:
        doc["dag_edges"] = [list(e) for e in inst.dag]
    return doc


def serialize_instance(inst: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True, indent=2) + "\n"


def generate_instance(
    n: int,
    k: int,
    m: int,
    model: str = "identical",
    density: float = 0.3,
    seed: int = 0,
    dag_edge_prob: Optional[float] = None,
    max_cost: int = 3,
) -> ProblemInstance:
    """Seeded random instance; coverability is enforced by assigning every
    uncovered element to a random set after sampling."""
    if n < 1 or k < 1 or m < 1:
        raise ValueError("dimensions must be positive")
    if model not in _MODEL_KINDS:
        raise ValueError("unknown model %r" % model)
    rng = stream(seed)
    sets = [set() for _ in range(k)]
    for i in range(k):
        include = rng.random(n) < density
        sets[i] = set(int(u) for u in range(n) if include[u])
    covered = set().union(*sets)
    for u in range(n):
        if u not in covered:
            sets[int(rng.integers(0, k))].add(u)

    if model == "unit":
        cost_model = UnitCosts()
    elif model == "identical":
        base = [int(c) for c in rng.integers(1, max_cost + 1, size=k)]
        cost_model = IdenticalCosts(tuple(Fraction(c) for c in base))
    elif model == "related":
        base = [int(c) for c in rng.integers(1, max_cost + 1, size=k)]
        speeds = []
        for _ in range(m):
            num = int(rng.integers(1, 5))
            den = int(rng.integers(1, 3))
            speeds.append(Fraction(num, den))
        cost_model = RelatedCosts(
            tuple(Fraction(c) for c in base), tuple(speeds)
        )
    else:
        rows = []
        for s in range(k):
            row = []
            for j in range(m):
                if m > 1 and rng.random() < 0.1:
                    row.append(INFINITE_COST)
                else:
                    row.append(Fraction(int(rng.integers(1, max_cost + 1))))
            if all(c == INFINITE_COST for c in row):
                row[int(rng.integers(0, m))] = Fraction(int(rng.integers(1, max_cost + 1)))
            rows.append(tuple(row))
        cost_model = UnrelatedCosts(tuple(rows))

    dag = None
    if dag_edge_prob is not None:
        edges = []
        for a in range(k):
            for b in range(a + 1, k):
                if rng.random() < dag_edge_prob:
                    edges.append((a, b))
        dag = tuple(edges)

    return ProblemInstance(
        n=n,
        sets=tuple(tuple(sorted(s)) for s in sets),
        m=m,
        cost_model=cost_model,
        dag=dag,
    )


# ---------------------------------------------------------------------------
# Report values


def fraction_token(value) -> object:
    """JSON-stable encoding of an exact rational: int or "p/q" string."""
    f = Fraction(value)
    if f.denominator == 1:
        return int(f)
    return "%d/%d" % (f.numerator, f.denominator)
