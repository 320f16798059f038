"""The public records: their repr, equality, hash, construction and
read-only fields, as callers and printed output see them."""
import copy
import pickle
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

import curvgraph as cg
from curvgraph.cli import IndexExpression, Term
from curvgraph.petrov import DistinctEigenvalue, EigenSolution


def _value_records():
    # (record, the same fields passed by keyword, a record differing in one field)
    term = Term(Fraction(-1, 2), "R", (0, 2, 3, 1))
    distinct = DistinctEigenvalue(0j, 3, 3)
    return [
        (term, Term(coefficient=Fraction(-1, 2), name="R", quad=(0, 2, 3, 1)),
         Term(Fraction(1, 2), "R", (0, 2, 3, 1))),
        (IndexExpression((term,)), IndexExpression(terms=(term,)), IndexExpression(())),
        (cg.PairSlot(0, -1, cg.PairBasis.LEX),
         cg.PairSlot(slot=0, sign=-1, basis=cg.PairBasis.LEX),
         cg.PairSlot(0, -1, cg.PairBasis.DUAD)),
        (distinct, DistinctEigenvalue(value=0j, algebraic=3, geometric=3),
         DistinctEigenvalue(0j, 3, 2)),
        (EigenSolution((0j, 0j, 0j), (distinct,), 1, cg.PetrovType.O),
         EigenSolution(eigenvalues=(0j, 0j, 0j), distinct=(distinct,), nilpotency_degree=1,
                       petrov_type=cg.PetrovType.O),
         EigenSolution((0j, 0j, 0j), (distinct,), 2, cg.PetrovType.N)),
    ]


def _identity_records():
    # (record, a record built from the same input, its fields by name)
    R = cg.zero_riemann()
    S = cg.assemble_six_matrix(R)
    B = cg.blocks(S)
    return [
        (R, cg.RiemannComponents(R.rows), {"rows": R.rows}),
        (S, cg.assemble_six_matrix(R), {"entries": S.entries, "covariant": S.covariant}),
        (B, cg.blocks(S), {"a": B.a, "b": B.b, "c": B.c}),
    ]


def test_value_record_reprs():
    assert repr(cg.parse_expression("R_{iklm} - 1/2*R_{ilmk}")) == (
        "IndexExpression(terms=(Term(coefficient=Fraction(1, 1), name='R', quad=(0, 1, 2, 3)), "
        "Term(coefficient=Fraction(-1, 2), name='R', quad=(0, 2, 3, 1))))")
    assert repr(cg.pair_slot(1, 0)) == "PairSlot(slot=0, sign=-1, basis=<PairBasis.LEX: 'lex'>)"
    assert repr(cg.eigen(np.zeros((3, 3)))) == (
        "EigenSolution(eigenvalues=(0j, 0j, 0j), distinct=(DistinctEigenvalue(value=0j, "
        "algebraic=3, geometric=3),), nilpotency_degree=1, petrov_type=<PetrovType.O: 'O'>)")


def test_identity_record_reprs():
    R = cg.zero_riemann()
    assert repr(R) == f"RiemannComponents(rows={R.rows!r})"
    S = cg.assemble_six_matrix(R)
    assert repr(S) == f"SixMatrix(entries={S.entries!r}, covariant={S.covariant!r})"
    B = cg.blocks(S)
    assert repr(B) == f"Blocks(a={B.a!r}, b={B.b!r}, c={B.c!r})"


@pytest.mark.parametrize("index", range(5))
def test_value_records_compare_and_hash_by_fields(index):
    record, by_keyword, other = _value_records()[index]
    assert record == by_keyword and not record != by_keyword
    assert hash(record) == hash(by_keyword)
    assert record != other and not record == other
    assert {record, by_keyword, other} == {record, other}
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize("index", range(3))
def test_identity_records_compare_and_hash_by_identity(index):
    record, same_input, fields = _identity_records()[index]
    assert record == record and not record != record
    # equal contents, another object: unequal, and no elementwise ndarray test
    assert record != same_input and not record == same_input
    assert record != 0 and record != "record"
    assert record != tuple(fields.values()) and not tuple(fields.values()) == record
    assert len({record, record, same_input}) == 2
    assert hash(record) == hash(record)
    for name, value in fields.items():
        assert getattr(record, name) is value
    restored = pickle.loads(pickle.dumps(record))
    assert restored is not record
    for built in (type(record)(*fields.values()), type(record)(**fields), restored):
        for name, value in fields.items():
            assert np.array_equal(getattr(built, name), value)


#: the first field of each record, in the order of the two lists above
_FIRST_FIELDS = ["coefficient", "terms", "slot", "value", "eigenvalues", "rows", "entries", "a"]


@pytest.mark.parametrize("index", range(8))
def test_records_are_read_only(index):
    records = [r for r, _, _ in _value_records()] + [r for r, _, _ in _identity_records()]
    record, field = records[index], _FIRST_FIELDS[index]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_riemann_components_matrix_is_cached_and_read_only():
    R = cg.RiemannComponents(rows=[[float(s == t) for t in range(6)] for s in range(6)])
    assert R.matrix is R.matrix
    with pytest.raises(AttributeError):
        R.matrix = np.eye(6)
    assert np.array_equal(copy.deepcopy(R).matrix, R.matrix)


# --- graph and fuzzy records -------------------------------------------------

THIRD = Fraction(1, 3)


def _graph_records():
    # (record, the same fields passed by keyword, a record differing in one field)
    spec = cg.RiemannGraphSpec(0, (1, 2, 3), cg.Orientation.CCW)
    variant = cg.enumerate_variants(spec)[1]
    vertex = cg.Vertex(1, "k", Fraction(1, 3))
    edge = cg.Edge(0, 1, 2.5, Fraction(1, 3), True)
    sigma = {0: Fraction(1), 1: Fraction(1, 3)}
    return [
        (spec, cg.RiemannGraphSpec(fixed_vertex=0, permuting=(1, 2, 3),
                                   orientation=cg.Orientation.CCW),
         cg.RiemannGraphSpec(0, (1, 2, 3), cg.Orientation.CW)),
        (variant, cg.GraphVariant(label="G2", quad=(0, 1, 3, 2), sign=-1,
                                  orientation=cg.Orientation.CW),
         cg.GraphVariant("G2", (0, 1, 3, 2), 1, cg.Orientation.CW)),
        (cg.GeneralizedGraphSpec(0, (1, 2, 3, 4)),
         cg.GeneralizedGraphSpec(fixed_vertex=0, permuting=(1, 2, 3, 4)),
         cg.GeneralizedGraphSpec(0, (1, 2, 3))),
        (vertex, cg.Vertex(id=1, label="k", membership=Fraction(1, 3)), cg.Vertex(1, "k")),
        (edge, cg.Edge(u=0, v=1, weight=2.5, membership=Fraction(1, 3), directed=True),
         cg.Edge(0, 1, 2.5, Fraction(1, 3))),
        (cg.Graph((vertex,), (edge,), "H"), cg.Graph(vertices=(vertex,), edges=(edge,), name="H"),
         cg.Graph((vertex,), (edge,))),
        (cg.EpsilonLoop(0, 1), cg.EpsilonLoop(fixed=0, vertex=1), cg.EpsilonLoop(0, 2)),
        (cg.FuzzyGraph(sigma, {frozenset((0, 1)): THIRD}),
         cg.FuzzyGraph(sigma=sigma, mu={frozenset((0, 1)): THIRD}, loops={}),
         cg.FuzzyGraph(sigma, {frozenset((0, 1)): THIRD}, {1: THIRD})),
    ]


#: the first field of each graph record, in the order of the list above
_GRAPH_FIRST_FIELDS = ["fixed_vertex", "label", "fixed_vertex", "id", "u", "vertices", "fixed",
                       "sigma"]


def test_graph_record_reprs():
    assert repr(cg.STANDARD_SPEC) == (
        "RiemannGraphSpec(fixed_vertex=0, permuting=(1, 2, 3), "
        "orientation=<Orientation.CCW: 'ccw'>)")
    assert repr(cg.enumerate_variants(cg.STANDARD_SPEC)[1]) == (
        "GraphVariant(label='G2', quad=(0, 1, 3, 2), sign=-1, orientation=<Orientation.CW: 'cw'>)")
    assert repr(cg.GeneralizedGraphSpec(0, [1, 2, 3, 4])) == (
        "GeneralizedGraphSpec(fixed_vertex=0, permuting=(1, 2, 3, 4))")
    assert repr(cg.Vertex(1)) == "Vertex(id=1, label=None, membership=None)"
    assert repr(cg.Edge(0, 1)) == "Edge(u=0, v=1, weight=None, membership=None, directed=False)"
    assert repr(cg.Graph((), ())) == "Graph(vertices=(), edges=(), name='G')"
    assert repr(cg.variant_graph(cg.STANDARD_SPEC, cg.enumerate_variants(cg.STANDARD_SPEC)[0])) == (
        "Graph(vertices=(Vertex(id=0, label='i', membership=None), "
        "Vertex(id=1, label='k', membership=None), Vertex(id=2, label='l', membership=None), "
        "Vertex(id=3, label='m', membership=None)), "
        "edges=(Edge(u=0, v=1, weight=None, membership=None, directed=False), "
        "Edge(u=1, v=2, weight=None, membership=None, directed=True), "
        "Edge(u=2, v=3, weight=None, membership=None, directed=True), "
        "Edge(u=3, v=1, weight=None, membership=None, directed=True)), name='G1')")
    assert repr(cg.epsilon_loop(0, 1)) == "EpsilonLoop(fixed=0, vertex=1)"
    assert repr(cg.FuzzyGraph({0: 1})) == "FuzzyGraph(sigma={0: Fraction(1, 1)}, mu={}, loops={})"
    assert repr(cg.fuzzy_riemann_graph(cg.STANDARD_SPEC)) == (
        "FuzzyGraph(sigma={0: Fraction(1, 1), 1: Fraction(1, 3), 2: Fraction(1, 3), "
        "3: Fraction(1, 3)}, mu={frozenset({0, 1}): Fraction(1, 3), "
        "frozenset({1, 2}): Fraction(1, 3), frozenset({2, 3}): Fraction(1, 3), "
        "frozenset({1, 3}): Fraction(1, 3)}, loops={})")


@pytest.mark.parametrize("index", range(8))
def test_graph_records_compare_and_hash_by_fields(index):
    record, by_keyword, other = _graph_records()[index]
    assert record == by_keyword and not record != by_keyword
    assert record != other and not record == other
    if isinstance(record, cg.FuzzyGraph):
        # its fields are dicts
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(by_keyword)
        assert {record, by_keyword, other} == {record, other}
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_graph_record_defaults():
    assert cg.Vertex(1) == cg.Vertex(1, None, None)
    assert cg.Edge(0, 1) == cg.Edge(0, 1, None, None, False)
    assert cg.Graph((), ()).name == "G"
    assert cg.RiemannGraphSpec() == cg.STANDARD_SPEC == cg.RiemannGraphSpec(
        0, (1, 2, 3), cg.Orientation.CCW)
    g, h = cg.FuzzyGraph({0: 1}), cg.FuzzyGraph({0: 1})
    assert g.mu == g.loops == {} and g.mu is not h.mu and g.loops is not h.loops


def test_graph_records_normalise_their_fields():
    spec = cg.RiemannGraphSpec(0, [1, 2, 3])
    assert spec.permuting == (1, 2, 3) and isinstance(spec.permuting, tuple)
    assert cg.GeneralizedGraphSpec(0, [1, 2]).permuting == (1, 2)
    g = cg.FuzzyGraph({0: 1, 1: "1/3"}, {(0, 1): 0.25}, {1: 0})
    assert g.sigma == {0: Fraction(1), 1: THIRD}
    assert g.mu == {frozenset((0, 1)): Fraction(1, 4)}
    assert g.loops == {1: Fraction(0)}
    assert all(type(m) is Fraction for m in (*g.sigma.values(), *g.mu.values(), *g.loops.values()))


def test_graph_record_properties():
    gen = cg.GeneralizedGraphSpec(0, (1, 2, 3, 4, 5))
    assert (gen.alpha, gen.edge_count(), gen.pair_vertex_count()) == (5, 11, 15)
    assert cg.Edge(2, 2).is_loop and not cg.Edge(2, 3).is_loop
    g = cg.fuzzy_riemann_graph(cg.STANDARD_SPEC)
    assert g.vertices == (0, 1, 2, 3)
    assert g.mu_of(1, 0) == THIRD and g.mu_of(0, 2) == 0
    assert g.respects_bound()


@pytest.mark.parametrize("index", range(8))
def test_graph_records_are_read_only(index):
    record, field = _graph_records()[index][0], _GRAPH_FIRST_FIELDS[index]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def _exported_graphs():
    spec = cg.STANDARD_SPEC
    yield from (cg.variant_graph(spec, v) for v in cg.enumerate_variants(spec))
    R = cg.from_component_list(4, [((0, 1, 0, 1), 0.1), ((0, 1, 2, 3), -1 / 3), ((1, 2, 1, 2), 7e-300)])
    yield cg.k6_structure(R)
    g = cg.fuzzy_riemann_graph(spec)
    yield cg.fuzzy_to_graph(g)
    yield cg.fuzzy_to_graph(cg.fuzzy_union(cg.epsilon_loop(0, 1), g, 3), name="union")
    yield cg.Graph((), ())


@pytest.mark.parametrize("index", range(10))
def test_structured_export_round_trips(index):
    g = list(_exported_graphs())[index]
    assert cg.parse_structured(cg.export_structured(g)) == g


#: (constructor call, expected ValueError text), in the order the checks run
GRAPH_RECORD_FAULTS = [
    (lambda: cg.RiemannGraphSpec(0, (1, 2, 5)), "index must lie in [0, 4), got 5"),
    (lambda: cg.RiemannGraphSpec(1, (1, 2, 3)), "spec needs 4 distinct vertices"),
    (lambda: cg.RiemannGraphSpec(0, (1, 1, 3)), "spec needs 4 distinct vertices"),
    (lambda: cg.RiemannGraphSpec(0, (1, 2)), "spec needs 4 distinct vertices"),
    (lambda: cg.GeneralizedGraphSpec(0, (1,)), "need at least 2 permuting vertices"),
    (lambda: cg.GeneralizedGraphSpec(0, (1, 0)), "vertices must be distinct"),
    (lambda: cg.FuzzyGraph({0: Fraction(3, 2)}), "vertex membership 3/2 outside [0, 1]"),
    (lambda: cg.FuzzyGraph({0: 1, 1: 1}, {(0, 1): -1}), "edge membership -1 outside [0, 1]"),
    (lambda: cg.FuzzyGraph({0: 1}, {}, {0: 2}), "loop membership 2 outside [0, 1]"),
    (lambda: cg.FuzzyGraph({0: 1}, {frozenset((0, 9)): THIRD}),
     "edge {0, 9} references unknown vertices"),
    (lambda: cg.FuzzyGraph({0: 1}, {(0, 0): THIRD}),
     "edge memberships are defined on distinct vertices"),
    (lambda: cg.FuzzyGraph({0: 2}, {(0, 9): THIRD}), "edge {0, 9} references unknown vertices"),
    # a fourth permuting vertex repeating one of the first three
    (lambda: cg.RiemannGraphSpec(0, (1, 2, 3, 3)), "spec needs 3 permuting vertices, got 4"),
    (lambda: cg.RiemannGraphSpec(0, (1, 2, 3, 0)), "spec needs 3 permuting vertices, got 4"),
    # edge keys that do not hold two vertices
    (lambda: cg.FuzzyGraph({0: 1}, {frozenset((0,)): 1}),
     "edge key frozenset({0}) is not a pair of vertices"),
    (lambda: cg.FuzzyGraph({0: 1, 1: 1, 2: 1}, {(0, 1, 2): 1}),
     "edge key (0, 1, 2) is not a pair of vertices"),
    (lambda: cg.FuzzyGraph({0: 1}, {5: 1}), "edge key 5 is not a pair of vertices"),
    (lambda: cg.FuzzyGraph({"a": 1, "b": 1}, {"ab": 1}), "edge key 'ab' is not a pair of vertices"),
    # a loop on a vertex the graph does not have
    (lambda: cg.FuzzyGraph({0: 1}, {}, {5: 0}), "loop 5 references an unknown vertex"),
    (lambda: cg.FuzzyGraph({0: 1}, {}, {5: 2}), "loop 5 references an unknown vertex"),
    # fields that cannot be read
    (lambda: cg.FuzzyGraph({0: None}), "vertex 0 membership is not a rational number: None"),
    (lambda: cg.FuzzyGraph({0: "x"}), "vertex 0 membership is not a rational number: 'x'"),
    (lambda: cg.FuzzyGraph({0: 1, 1: 1}, {(0, 1): None}),
     "edge {0, 1} membership is not a rational number: None"),
    (lambda: cg.FuzzyGraph({0: 1}, {}, {0: "x"}), "loop 0 membership is not a rational number: 'x'"),
    (lambda: cg.FuzzyGraph({0: float("nan")}), "vertex 0 membership is not a rational number: nan"),
    (lambda: cg.FuzzyGraph({0: float("inf")}), "vertex 0 membership is not a rational number: inf"),
    (lambda: cg.RiemannGraphSpec(0, 5), "permuting must be a sequence of vertices, got 5"),
    (lambda: cg.GeneralizedGraphSpec(0, 5), "permuting must be a sequence of vertices, got 5"),
    # vertices that are not integers
    (lambda: cg.GeneralizedGraphSpec(0, "ab"), "vertex must be an integer, got 'a'"),
    (lambda: cg.GeneralizedGraphSpec([0], (1, 2)), "vertex must be an integer, got [0]"),
    (lambda: cg.GeneralizedGraphSpec(0, (1, 2.0)), "vertex must be an integer, got 2.0"),
]


@pytest.mark.parametrize("index", range(len(GRAPH_RECORD_FAULTS)))
def test_graph_record_validation_texts(index):
    build, message = GRAPH_RECORD_FAULTS[index]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


#: (record, a field change that fails validation, the ValueError text)
_INVALID_REPLACEMENTS = [
    (cg.STANDARD_SPEC, {"permuting": (1, 1, 1)}, "spec needs 4 distinct vertices"),
    (cg.STANDARD_SPEC, {"fixed_vertex": 4}, "index must lie in [0, 4), got 4"),
    (cg.GeneralizedGraphSpec(0, (1, 2)), {"permuting": (1,)}, "need at least 2 permuting vertices"),
    (cg.FuzzyGraph({0: 1}), {"loops": {0: 2}}, "loop membership 2 outside [0, 1]"),
    (cg.FuzzyGraph({0: 1}), {"loops": {5: 0}}, "loop 5 references an unknown vertex"),
    (cg.STANDARD_SPEC, {"permuting": None}, "permuting must be a sequence of vertices, got None"),
]


@pytest.mark.parametrize("index", range(len(_INVALID_REPLACEMENTS)))
def test_validating_records_validate_replace_and_make(index):
    record, change, message = _INVALID_REPLACEMENTS[index]
    fields = {**record._asdict(), **change}
    for build in (lambda: record._replace(**change), lambda: type(record)._make(fields.values())):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    # a valid change builds a record the constructor would build
    same = record._replace()
    assert same == record and type(same) is type(record)
    assert type(record)._make(record) == record
    # as a namedtuple's, _make takes every field, defaults or not
    with pytest.raises(TypeError, match="Expected"):
        type(record)._make(tuple(record)[:-1])


def test_graph_records_are_tuples():
    # what the namedtuple records add over the dataclasses they replace
    assert cg.STANDARD_SPEC == (0, (1, 2, 3), cg.Orientation.CCW)
    fixed, permuting, orientation = cg.STANDARD_SPEC
    assert (fixed, permuting, orientation) == (0, (1, 2, 3), cg.Orientation.CCW)
    assert cg.Edge(0, 1)[:2] == (0, 1) and len(cg.Edge(0, 1)) == 5
    assert cg.Vertex(1)._asdict() == {"id": 1, "label": None, "membership": None}
    assert cg.FuzzyGraph({0: 1})._replace(loops={0: 0.5}).loops == {0: Fraction(1, 2)}


def _namedtuple_records():
    # one record of every namedtuple type, validating or not
    S = cg.assemble_six_matrix(cg.zero_riemann())
    return [record for record, _, _ in _value_records()] + [
        S, cg.blocks(S), cg.STANDARD_SPEC, cg.GeneralizedGraphSpec(0, (1, 2)),
        cg.enumerate_variants(cg.STANDARD_SPEC)[0], cg.Vertex(0), cg.Edge(0, 1),
        cg.Graph((), ()), cg.FuzzyGraph({0: 1}), cg.epsilon_loop(0, 1),
    ]


@pytest.mark.parametrize("index", range(len(_namedtuple_records())))
def test_replace_refuses_an_unknown_field_alike_on_every_record(index):
    # as a plain namedtuple does: a ValueError before Python 3.13, a TypeError from it
    with pytest.raises((ValueError, TypeError)) as plain:
        namedtuple("Plain", "a")(0)._replace(bogus=1)
    assert str(plain.value) == "Got unexpected field names: ['bogus']"
    with pytest.raises(type(plain.value)) as info:
        _namedtuple_records()[index]._replace(bogus=1)
    assert (type(info.value), str(info.value)) == (type(plain.value), str(plain.value))
