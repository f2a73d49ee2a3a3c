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
)
from .errors import CyclicDagError, InvalidIndexError, ParseError, ValidationError
from .rng import stream

FORMAT_VERSION = 1

_MODEL_KINDS = ("unit", "identical", "related", "unrelated")


def _listed(value, length=None) -> list:
    """``value`` if it is a list (of ``length`` entries, if given), else ``[None]``."""
    if type(value) is list and (length is None or len(value) == length):
        return value
    return [None]


def _int(value):
    return value if type(value) is int else None


def _is_int_pair(value) -> bool:
    return type(value) is list and len(value) == 2 and all(type(v) is int for v in value)


def _speed(value):
    if _is_int_pair(value) and value[1] > 0:
        return Fraction(*value)
    return _int(value)


def _cost_model(raw, k: int, m: int):
    if not isinstance(raw, dict):
        raise ValidationError("cost_model", "expected an object")
    kind = raw.get("kind")
    if kind not in _MODEL_KINDS:
        raise ValidationError("cost_model.kind", "expected one of %s" % (_MODEL_KINDS,))
    if kind == "unit":
        return UnitCosts()
    if kind == "unrelated":
        return UnrelatedCosts(tuple(
            [INFINITE_COST if c == "inf" else _int(c) for c in _listed(row, m)]
            for row in _listed(raw.get("matrix"), k)
        ))
    base = [_int(c) for c in _listed(raw.get("base_costs"), k)]
    if kind == "identical":
        return IdenticalCosts(tuple(base))
    return RelatedCosts(tuple(base), tuple(map(_speed, _listed(raw.get("speeds"), m))))


def _fault(doc, where) -> ValidationError:
    """The document's error for the value ``core`` rejected at ``where``: the first
    JSON-form fault on the way to that value, else the value rule it broke."""
    field, *at = where
    k, m = len(doc["sets"]), doc["m"]
    # Per index in ``where``, the length that the list it indexes must have (None:
    # any) and the message when it is not such a list.
    path, lists = {
        "sets": ("sets", [(k, "expected a list of element lists"), (None, "expected a list")]),
        "base_costs": ("cost_model.base_costs", [(k, "expected %d integers" % k)]),
        "speeds": ("cost_model.speeds", [(m, "expected %d speeds" % m)]),
        "matrix": (
            "cost_model.matrix", [(k, "expected %d rows" % k), (m, "expected %d entries" % m)]
        ),
        "dag": ("dag_edges", [(None, "expected a list of [pred, succ] pairs")]),
    }[field]
    node = doc
    for key in path.split("."):
        node = node.get(key)
    for (length, message), i in zip(lists, at):
        if type(node) is not list or length is not None and len(node) != length:
            return ValidationError(path, message)
        path, node = "%s[%d]" % (path, i), node[i]
    if field == "dag":
        if type(node) is not list or len(node) != 2:
            return ValidationError(path, "expected a [pred, succ] pair")
        for end in (0, 1):
            if type(node[end]) is not int:
                return ValidationError("%s[%d]" % (path, end), "expected an integer")
        return ValidationError(path, "set index out of range")
    if field == "speeds":
        if type(node) is int or _is_int_pair(node):
            return ValidationError(path, "speed must be positive")
        return ValidationError(path, "expected integer or [num, den] pair")
    if type(node) is not int:
        return ValidationError(path, "expected an integer")
    if field == "sets":
        return ValidationError(path, "element %d outside [0, %d)" % (node, doc["n"]))
    return ValidationError(path, "cost must be positive")


def instance_from_dict(doc) -> ProblemInstance:
    """The instance a JSON document describes. Only the JSON form is checked here
    (version, shapes and lengths, integers only, ``"inf"``, ``[num, den]`` speeds);
    ``core`` checks every value once. A JSON-form fault inside a list reaches
    ``core`` as ``None``, rejected at its position, so faults keep document order."""
    if not isinstance(doc, dict):
        raise ValidationError("$", "expected a JSON object")
    version = doc.get("version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValidationError("version", "unsupported version %r" % (version,))
    for key, least in (("n", 0), ("m", 1)):
        if type(doc.get(key)) is not int:
            raise ValidationError(key, "expected an integer")
        if doc[key] < least:
            raise ValidationError(key, "must be at least %d" % least)
    n, m = doc["n"], doc["m"]
    raw_sets = doc.get("sets")
    if not isinstance(raw_sets, list):
        raise ValidationError("sets", "expected a list of element lists")
    sets = [_listed(s) for s in raw_sets]
    edges = doc.get("dag_edges")
    try:
        try:
            model = _cost_model(doc.get("cost_model"), len(sets), m)
        except (ValidationError, TypeError, ValueError):
            # A fault in the sets comes first in the document.
            ProblemInstance(n=n, sets=sets, m=1, cost_model=UnitCosts())
            raise
        dag = None if edges is None else [_listed(e, 2) for e in _listed(edges)]
        inst = ProblemInstance(n=n, sets=sets, m=m, cost_model=model, dag=dag)
    except (TypeError, ValueError, InvalidIndexError) as exc:
        if not hasattr(exc, "where"):
            raise
        raise _fault(doc, exc.where) from None
    if dag is not None:
        try:
            inst.dag_order
        except CyclicDagError:
            raise ValidationError("dag_edges", "CyclicDag: edges contain a cycle")
    return inst


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
    except RecursionError:
        raise ParseError("JSON nests too deeply to read") from None
    return instance_from_dict(doc)


def _file_cost(cost, path) -> int:
    if cost.denominator != 1:
        raise ValueError("%s = %s: instance files hold integer costs only" % (path, cost))
    return cost.numerator


def instance_to_dict(inst: ProblemInstance) -> dict:
    """The JSON document of ``inst``; a cost that is not an integer raises ``ValueError``."""
    model = inst.cost_model
    cost_model = {"kind": model.kind}
    if model.kind in ("identical", "related"):
        cost_model["base_costs"] = [
            _file_cost(c, "cost_model.base_costs[%d]" % s) for s, c in enumerate(model.base_costs)
        ]
    if model.kind == "related":
        cost_model["speeds"] = [
            int(v) if v.denominator == 1 else [v.numerator, v.denominator] for v in model.speeds
        ]
    if model.kind == "unrelated":
        cost_model["matrix"] = [
            ["inf" if c == INFINITE_COST else _file_cost(c, "cost_model.matrix[%d][%d]" % (s, j))
             for j, c in enumerate(row)]
            for s, row in enumerate(model.matrix)
        ]
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
    sets = []
    for _ in range(k):
        include = rng.random(n) < density
        sets.append({u for u in range(n) if include[u]})
    covered = set().union(*sets)
    for u in range(n):
        if u not in covered:
            sets[int(rng.integers(0, k))].add(u)

    if model in ("identical", "related"):
        base = tuple(int(c) for c in rng.integers(1, max_cost + 1, size=k))
    if model == "unit":
        cost_model = UnitCosts()
    elif model == "identical":
        cost_model = IdenticalCosts(base)
    elif model == "related":
        speeds = []
        for _ in range(m):
            num = int(rng.integers(1, 5))
            den = int(rng.integers(1, 3))
            speeds.append(Fraction(num, den))
        cost_model = RelatedCosts(base, tuple(speeds))
    else:
        rows = []
        for s in range(k):
            row = []
            for j in range(m):
                if m > 1 and rng.random() < 0.1:
                    row.append(INFINITE_COST)
                else:
                    row.append(int(rng.integers(1, max_cost + 1)))
            if all(c == INFINITE_COST for c in row):
                row[int(rng.integers(0, m))] = int(rng.integers(1, max_cost + 1))
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

    return ProblemInstance(n=n, sets=tuple(sets), m=m, cost_model=cost_model, dag=dag)


# ---------------------------------------------------------------------------
# Report values


def fraction_token(value) -> object:
    """JSON-stable encoding of an exact rational: int or "p/q" string."""
    f = value if type(value) is Fraction else Fraction(value)
    if f.denominator == 1:
        return f.numerator
    return "%d/%d" % (f.numerator, f.denominator)
