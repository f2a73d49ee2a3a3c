"""One input pass: the file reader against the two validators it replaced.

``core`` checks every instance value once, and ``fileio`` keeps only the
JSON-form rules, turning the errors ``core`` raises into its
``ValidationError(path, message)``. The references below are the former
``fileio.instance_from_dict``, which checked every value itself before
building the instance, and the former ``ProblemInstance`` and cost-model
checks. On any document the reader must build an equal instance or raise the
same error with the same path and message, faults planted anywhere included;
through the API the same malformed input must raise the same class and text.
"""

import copy
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmssc.core import (
    INFINITE_COST,
    IdenticalCosts,
    ProblemInstance,
    RelatedCosts,
    UnitCosts,
    UnrelatedCosts,
    as_fraction,
    as_index,
    topological_order,
)
from pmssc.errors import CyclicDagError, InvalidIndexError, ValidationError
from pmssc.fileio import generate_instance, instance_from_dict, instance_to_dict
from test_fileio_cli import fuzz_documents

# -- the former file reader, verbatim but for the names and the version check


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


def former_instance_from_dict(doc) -> ProblemInstance:
    if not isinstance(doc, dict):
        raise ValidationError("$", "expected a JSON object")
    version = doc.get("version", 1)
    # The one change: true and 1.0 are no longer read as version 1.
    if type(version) is not int or version != 1:
        raise ValidationError("version", "unsupported version %r" % (version,))
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
    kinds = ("unit", "identical", "related", "unrelated")
    if kind not in kinds:
        raise ValidationError("cost_model.kind", "expected one of %s" % (kinds,))
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


# -- the former ProblemInstance and cost-model checks


def former_positive_fraction(value, what):
    f = as_fraction(value)
    if f <= 0:
        raise ValueError("%s must be positive, got %s" % (what, f))
    return f


def former_sets(n, sets):
    normalized = []
    for i, members in enumerate(sets):
        clean = sorted({e if type(e) is int else as_index(e) for e in members})
        if clean and not (0 <= clean[0] and clean[-1] < n):
            bad = next(e for e in clean if not 0 <= e < n)
            raise InvalidIndexError("set %d contains element %d outside [0, %d)" % (i, bad, n))
        normalized.append(tuple(clean))
    return tuple(normalized)


def former_edges(k, dag):
    edges = []
    for e, (a, b) in enumerate(dag):
        a, b = as_index(a), as_index(b)
        if not (0 <= a < k and 0 <= b < k):
            raise InvalidIndexError("dag edge %d references invalid set index" % e)
        edges.append((a, b))
    return tuple(edges)


def former_cost_model(kind, *args):
    """The normalised fields of the former cost model of ``kind`` built from ``args``."""
    if kind == "identical":
        return (tuple(former_positive_fraction(c, "base cost") for c in args[0]),)
    if kind == "related":
        return (
            tuple(former_positive_fraction(c, "base cost") for c in args[0]),
            tuple(former_positive_fraction(s, "speed") for s in args[1]),
        )
    return (tuple(
        tuple(
            INFINITE_COST if c == INFINITE_COST else former_positive_fraction(c, "cost entry")
            for c in row
        )
        for row in args[0]
    ),)


# -- the file path


def _outcome(read, doc):
    try:
        inst = read(copy.deepcopy(doc))
    except Exception as exc:  # noqa: BLE001 - the class is part of what is compared
        return type(exc), getattr(exc, "path", None), getattr(exc, "message", str(exc))
    return inst, inst.sets, inst.masks, inst.icosts, inst.dag


def _assert_same_outcome(doc):
    new, former = _outcome(instance_from_dict, doc), _outcome(former_instance_from_dict, doc)
    assert new == former, doc


@settings(max_examples=300, deadline=None)
@given(case=fuzz_documents())
def test_reader_matches_the_former_reader_on_fuzz_documents(case):
    text, _ = case
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return
    _assert_same_outcome(doc)


BAD_ELEMENTS = [-1, "n", "n+3", True, False, 1.5, 0.0, "0", None, [0], {}, math.inf]
BAD_COSTS = [0, -2, True, 1.5, 2.0, "x", "inf", None, [1], {}, math.inf]
BAD_SPEEDS = [0, -1, [0, 1], [1, 0], [-1, -2], [1, -2], [True, 1], [1, 2.0], [1], 1.5, True, "x"]
BAD_EDGES = [["k", 0], [0, "k"], [-1, 0], [0], [0, 1, 2], [True, 0], [0, 1.5], "x", None, {}]
BAD_LISTS = [None, 1, "x", {}, [], [None]]


def _value(token, doc):
    """A fresh copy of ``token``, with "n", "n+3" and "k" read off ``doc``."""
    if isinstance(token, list):
        return [_value(t, doc) for t in token]
    sizes = {"n": doc["n"], "n+3": doc["n"] + 3, "k": len(doc["sets"])}
    return sizes.get(token, token) if isinstance(token, str) else copy.deepcopy(token)


@st.composite
def planted_documents(draw):
    """A generated instance's document with one to three faults planted at drawn
    positions: elements, costs, speeds, edges, or a list where one belongs."""
    inst = generate_instance(
        n=draw(st.integers(1, 6)), k=draw(st.integers(1, 4)), m=draw(st.integers(1, 3)),
        model=draw(st.sampled_from(["unit", "identical", "related", "unrelated"])),
        density=0.5, seed=draw(st.integers(0, 2**16)),
        dag_edge_prob=draw(st.sampled_from([None, 0.5, 1.0])),
    )
    doc = instance_to_dict(inst)
    model = doc["cost_model"]
    places = [("sets", i, q) for i, s in enumerate(doc["sets"]) for q in range(len(s))]
    places += [("set", i) for i in range(len(doc["sets"]))]
    places += [("base_costs", i) for i in range(len(model.get("base_costs", ())))]
    places += [("speeds", j) for j in range(len(model.get("speeds", ())))]
    matrix = model.get("matrix", ())
    places += [("matrix", i, j) for i, row in enumerate(matrix) for j in range(len(row))]
    places += [("row", i) for i in range(len(matrix))]
    places += [("dag_edges", e) for e in range(len(doc.get("dag_edges", ())))]
    places += [("list", key) for key in ("base_costs", "speeds", "matrix") if key in model]
    places += [("list", "dag_edges")] if "dag_edges" in doc else []
    kinds = sorted({place[0] for place in places})
    for _ in range(draw(st.integers(1, 3))):
        # the kind first, so the many element positions do not crowd out the rest
        kind = draw(st.sampled_from(kinds))
        _, *at = draw(st.sampled_from([place for place in places if place[0] == kind]))
        try:
            if kind == "sets":
                doc["sets"][at[0]][at[1]] = _value(draw(st.sampled_from(BAD_ELEMENTS)), doc)
            elif kind == "set":
                doc["sets"][at[0]] = copy.deepcopy(draw(st.sampled_from(BAD_LISTS)))
            elif kind == "base_costs":
                model["base_costs"][at[0]] = copy.deepcopy(draw(st.sampled_from(BAD_COSTS)))
            elif kind == "speeds":
                model["speeds"][at[0]] = copy.deepcopy(draw(st.sampled_from(BAD_SPEEDS)))
            elif kind == "matrix":
                model["matrix"][at[0]][at[1]] = copy.deepcopy(draw(st.sampled_from(BAD_COSTS)))
            elif kind == "row":
                model["matrix"][at[0]] = copy.deepcopy(draw(st.sampled_from(BAD_LISTS)))
            elif kind == "dag_edges":
                doc["dag_edges"][at[0]] = _value(draw(st.sampled_from(BAD_EDGES)), doc)
            else:
                target = doc if at[0] == "dag_edges" else model
                target[at[0]] = copy.deepcopy(draw(st.sampled_from(BAD_LISTS)))
        except (TypeError, IndexError, KeyError):
            pass  # an earlier plant replaced the list this position was in
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=planted_documents())
def test_reader_matches_the_former_reader_on_planted_faults(doc):
    _assert_same_outcome(doc)


def test_planted_faults_keep_their_paths_and_messages():
    base = {"version": 1, "n": 2, "m": 2, "sets": [[0], [1]]}
    cases = [
        ({"sets": [[0], [0, 2]], "cost_model": {"kind": "x"}},
         "sets[1][1]", "element 2 outside [0, 2)"),
        ({"cost_model": {"kind": "identical", "base_costs": [0, "x"]}},
         "cost_model.base_costs[0]", "cost must be positive"),
        ({"cost_model": {"kind": "identical", "base_costs": [1.5, 0]}},
         "cost_model.base_costs[0]", "expected an integer"),
        ({"cost_model": {"kind": "related", "base_costs": [0, 1], "speeds": 3}},
         "cost_model.base_costs[0]", "cost must be positive"),
        ({"cost_model": {"kind": "related", "base_costs": [1, 1], "speeds": [[-1, -2], 1]}},
         "cost_model.speeds[0]", "speed must be positive"),
        ({"cost_model": {"kind": "unrelated", "matrix": [[1, 0], None]}},
         "cost_model.matrix[0][1]", "cost must be positive"),
        ({"cost_model": {"kind": "unrelated", "matrix": [[1, "inf"], [1]]}},
         "cost_model.matrix[1]", "expected 2 entries"),
        ({"cost_model": {"kind": "unit"}, "dag_edges": [[0, 2], "x"]},
         "dag_edges[0]", "set index out of range"),
        ({"cost_model": {"kind": "unit"}, "dag_edges": [[0, True]]},
         "dag_edges[0][1]", "expected an integer"),
    ]
    for patch, path, message in cases:
        doc = dict(base, **patch)
        with pytest.raises(ValidationError) as err:
            instance_from_dict(doc)
        assert (err.value.path, err.value.message) == (path, message), patch
        _assert_same_outcome(doc)


# -- the Python API


def _raised(build):
    try:
        return "ok", build()
    except Exception as exc:  # noqa: BLE001 - the class is part of what is compared
        return type(exc), str(exc)


MALFORMED_SETS = [
    (3, ((1.7, 2),)), (3, (("2",),)), (3, ((0.0,),)), (3, ((True,),)), (3, ((None,),)),
    (3, ((0,), (3, 0, -1))), (3, ((0,), (-1, 3))), (3, ((0,), (4, 0, 3))), (3, ((0,), (-5, 2, -2))),
    (3, ((0,), (5, "x"))), (3, ((np.int64(2), 0),)), (3, ((np.int64(7),),)),
    (2, (frozenset({1, 0}),)),
]
NONPOSITIVE = [0, -1, Fraction(-1, 2), -0.5, "x", None, math.nan, math.inf]
MALFORMED_EDGES = [
    (0.9, "0"), (0, 1.0), ("0", 1), (False, True), (0, 2), (-1, 0), (np.int32(0), 1),
    (0, 1, 1), (0,),
]


def test_api_malformed_sets_raise_as_before():
    for n, sets in MALFORMED_SETS:
        new = _raised(lambda: ProblemInstance(n=n, sets=sets, m=1, cost_model=UnitCosts()).sets)
        assert new == _raised(lambda: former_sets(n, sets)), sets


def test_api_malformed_costs_raise_as_before():
    for bad in NONPOSITIVE:
        for kind, build, args in (
            ("identical", IdenticalCosts, ((1, bad),)),
            ("related", RelatedCosts, ((1, bad), (1,))),
            ("related", RelatedCosts, ((1,), (1, bad))),
            ("unrelated", UnrelatedCosts, (((1, INFINITE_COST), (bad, 1)),)),
        ):
            new = _raised(lambda: tuple(vars(build(*args)).values()))
            former = _raised(lambda: former_cost_model(kind, *args))
            assert new == former, (kind, args)


def test_api_malformed_edges_raise_as_before():
    for edge in MALFORMED_EDGES:
        build = lambda: ProblemInstance(  # noqa: E731
            n=1, sets=((0,), (0,)), m=1, cost_model=UnitCosts(), dag=(edge,)
        ).dag
        assert _raised(build) == _raised(lambda: former_edges(2, (edge,))), edge


def test_api_errors_name_the_rejected_argument_and_position():
    cases = [
        (lambda: ProblemInstance(n=3, sets=((0,), (0, 3, -1)), m=1, cost_model=UnitCosts()),
         ("sets", 1, 1)),
        (lambda: ProblemInstance(n=3, sets=((0,), (1, "x")), m=1, cost_model=UnitCosts()),
         ("sets", 1, 1)),
        (lambda: IdenticalCosts((1, 2, 0)), ("base_costs", 2)),
        (lambda: RelatedCosts((1,), (1, -1)), ("speeds", 1)),
        (lambda: UnrelatedCosts(((1,), (INFINITE_COST, "x"))), ("matrix", 1, 1)),
        (lambda: ProblemInstance(
            n=1, sets=((0,),), m=1, cost_model=UnitCosts(), dag=((0, 0), (0, 1))
        ), ("dag", 1)),
    ]
    for build, where in cases:
        with pytest.raises((TypeError, ValueError, InvalidIndexError)) as err:
            build()
        assert err.value.where == where
