import numpy as np
import pytest

import curvgraph as cg
from curvgraph.graphana import Edge, Graph, Vertex


def test_variant_quads_match_layout():
    variants = {v.label: v for v in cg.enumerate_variants(cg.STANDARD_SPEC)}
    assert variants["G1"].quad == (0, 1, 2, 3)
    assert variants["G2"].quad == (0, 1, 3, 2)
    assert variants["G3"].quad == (0, 2, 3, 1)
    assert variants["G4"].quad == (0, 2, 1, 3)
    assert variants["G5"].quad == (0, 3, 1, 2)
    assert variants["G6"].quad == (0, 3, 2, 1)


def test_variant_sign_pairings():
    for spec in (
        cg.STANDARD_SPEC,
        cg.RiemannGraphSpec(0, (1, 2, 3), cg.Orientation.CW),
        cg.RiemannGraphSpec(2, (3, 0, 1)),
    ):
        variants = {v.label: v for v in cg.enumerate_variants(spec)}
        for odd, even in (("G1", "G2"), ("G3", "G4"), ("G5", "G6")):
            assert variants[odd].sign * variants[even].sign < 0
            assert abs(variants[odd].sign) == 1
            assert variants[odd].orientation != variants[even].orientation


def test_ccw_carries_positive_sign():
    variants = {v.label: v for v in cg.enumerate_variants(cg.STANDARD_SPEC)}
    assert variants["G1"].sign == 1
    cw = {v.label: v for v in cg.enumerate_variants(
        cg.RiemannGraphSpec(0, (1, 2, 3), cg.Orientation.CW))}
    assert cw["G1"].sign == -1


def test_spec_validation():
    with pytest.raises(ValueError):
        cg.RiemannGraphSpec(1, (1, 2, 3))
    with pytest.raises(ValueError):
        cg.RiemannGraphSpec(0, (1, 1, 3))
    with pytest.raises(ValueError):
        cg.RiemannGraphSpec(0, (1, 2, 5))


def test_edge_count():
    assert cg.edge_count(3) == 4
    assert cg.edge_count(1) == 1
    assert cg.edge_count(5) == 11
    with pytest.raises(ValueError):
        cg.edge_count(0)
    for alpha in range(1, 8):
        assert cg.edge_count(alpha) - 1 == cg.pair_count(alpha)


def test_pair_vertex_count():
    assert cg.pair_vertex_count(3) == 6
    assert cg.pair_vertex_count(5) == 15
    with pytest.raises(cg.OddParityError):
        cg.pair_vertex_count(4)
    with pytest.raises(ValueError):
        cg.pair_vertex_count(0)
    # six pair vertices is exactly the slot count of the component storage
    assert cg.pair_vertex_count(3) == cg.zero_riemann().matrix.shape[0]


def test_generalized_spec():
    g = cg.GeneralizedGraphSpec(0, (1, 2, 3, 4, 5))
    assert g.alpha == 5
    assert cg.edge_count(g.alpha) == 11
    assert cg.pair_vertex_count(g.alpha) == 15
    with pytest.raises(cg.OddParityError):
        cg.pair_vertex_count(cg.GeneralizedGraphSpec(0, (1, 2, 3, 4)).alpha)
    with pytest.raises(ValueError):
        cg.GeneralizedGraphSpec(0, (1,))
    with pytest.raises(ValueError):
        cg.GeneralizedGraphSpec(0, (1, 1, 2))
    # the four-vertex case reproduces the standard analog counts
    std = cg.GeneralizedGraphSpec(0, (1, 2, 3))
    assert cg.edge_count(std.alpha) == 4
    assert cg.pair_vertex_count(std.alpha) == 6


def test_k6_structure():
    R = cg.random_riemann(6)
    g = cg.k6_structure(R)
    assert len(g.vertices) == 6
    assert len(g.edges) == 15
    weights = {frozenset((e.u, e.v)): e.weight for e in g.edges}
    assert weights[frozenset(("u1", "u6"))] == cg.get_component(R, (0, 1, 2, 3))
    # weights come from a symmetric matrix
    for e in g.edges:
        s = int(e.u[1:]) - 1
        t = int(e.v[1:]) - 1
        assert e.weight == R.matrix[s, t] == R.matrix[t, s]

    zero = cg.k6_structure(cg.zero_riemann())
    assert all(e.weight == 0.0 for e in zero.edges)


def test_variant_graph_and_dot():
    variants = cg.enumerate_variants(cg.STANDARD_SPEC)
    g = cg.variant_graph(cg.STANDARD_SPEC, variants[0])
    assert len(g.vertices) == 4
    assert len(g.edges) == 4
    dot = cg.export_dot(g)
    assert dot.count(" -- ") == 4
    assert dot.count("dir=forward") == 3
    assert 'label="i"' in dot


def test_dot_empty_and_k6():
    empty = Graph((), ())
    dot = cg.export_dot(empty)
    assert dot.startswith('graph "G" {')
    assert dot.rstrip().endswith("}")
    assert " -- " not in dot

    dot = cg.export_dot(cg.k6_structure(cg.random_riemann(1)))
    assert dot.count(" -- ") == 15
    R = cg.from_component_list(4, [((0, 1, 2, 3), 1.5)])
    assert '  "u1" -- "u6" [weight="1.5"];' in cg.export_dot(cg.k6_structure(R)).splitlines()


def test_dot_escapes_backslashes_and_double_quotes():
    g = Graph((Vertex('a"b', label="x\\y"),), (Edge('a"b', 0, weight=2.0),), name='x"y')
    assert cg.export_dot(g).splitlines() == [
        'graph "x\\"y" {',
        '  "a\\"b" [label="x\\\\y"];',
        '  "a\\"b" -- "0" [weight="2.0"];',
        "}",
    ]


@pytest.mark.parametrize("text, message", [
    ("[1]", "document must be an object"),
    ("{", "line 1, column 2: Expecting property name enclosed in double quotes"),
    ("[1", "line 1, column 3: Expecting ',' delimiter"),
    ("", "line 1, column 1: Expecting value"),
    ('{"vertices": [{}]}', "vertices[0]: need 'id'"),
    ('{"vertices": [{"id": 0}, 1]}', "vertices[1]: need 'id'"),
    ('{"vertices": {"id": 0}}', "field 'vertices' must be an array"),
    ('{"edges": [{"u": 0}]}', "edges[0]: need 'u' and 'v'"),
    ('{"edges": [{"u": 0, "v": 1, "membership": "1/0"}]}',
     "edges[0]: 'membership' must be a fraction, got '1/0'"),
    ('{"vertices": [{"id": 0, "membership": [1]}]}',
     "vertices[0]: 'membership' must be a fraction, got [1]"),
    # a membership is written only as a string, so a number is not read as one
    ('{"vertices": [{"id": 0, "membership": 1e400}]}',
     "vertices[0]: 'membership' must be a fraction, got inf"),
    ('{"vertices": [{"id": 0, "membership": Infinity}]}',
     "vertices[0]: 'membership' must be a fraction, got inf"),
    ('{"vertices": [{"id": 0, "membership": true}]}',
     "vertices[0]: 'membership' must be a fraction, got True"),
    ('{"edges": [{"u": 0, "v": 1, "membership": 0.1}]}',
     "edges[0]: 'membership' must be a fraction, got 0.1"),
    ('{"edges": [{"u": 0, "v": 1, "membership": 1}]}',
     "edges[0]: 'membership' must be a fraction, got 1"),
    ("[" * 100000, "document nests too deeply"),
    ('{"edges": [{"u": 0, "v": 1, "directed": "false"}]}',
     "edges[0]: 'directed' must be true or false, got 'false'"),
    ('{"edges": [{"u": 0, "v": 1, "weight": "heavy"}]}',
     "edges[0]: 'weight' must be a finite number, got 'heavy'"),
    ('{"edges": [{"u": 0, "v": 1}, {"u": 1, "v": 2, "weight": true}]}',
     "edges[1]: 'weight' must be a finite number, got True"),
    ('{"edges": [{"u": 0, "v": 1, "weight": 1e999}]}',
     "edges[0]: 'weight' must be a finite number, got inf"),
    # ids, labels and names of kinds no library graph holds
    ('{"vertices": [{"id": [1], "label": 3}, {"id": true}]}',
     "vertices[0]: 'id' must be an integer or a string, got [1]"),
    ('{"vertices": [{"id": 0}, {"id": true}]}',
     "vertices[1]: 'id' must be an integer or a string, got True"),
    ('{"vertices": [{"id": 0, "label": 3}]}',
     "vertices[0]: 'label' must be a string or null, got 3"),
    ('{"edges": [{"u": 0, "v": 1.0}]}', "edges[0]: 'v' must be an integer or a string, got 1.0"),
    ('{"edges": [{"u": null, "v": 9}]}', "edges[0]: 'u' must be an integer or a string, got None"),
    ('{"name": 5, "vertices": [{"id": [1], "label": 3}], "edges": [{"u": 0, "v": 9}]}',
     "field 'name' must be a string, got 5"),
    ('{"name": null}', "field 'name' must be a string, got None"),
], ids=["not-object", "json-open-object", "json-open-array", "json-empty", "vertex-no-id",
        "vertex-not-object", "vertices-not-array", "edge-no-v", "membership-zero-denominator",
        "membership-list", "membership-overflow", "membership-infinity", "membership-bool",
        "membership-float", "membership-int", "deep", "directed-string", "weight-string", "weight-bool",
        "weight-infinite", "id-list", "id-bool", "label-int", "edge-end-float", "edge-end-null",
        "name-int", "name-null"])
def test_parse_structured_names_the_malformed_record(text, message):
    with pytest.raises(ValueError) as info:
        cg.parse_structured(text)
    assert str(info.value) == message


def test_parse_structured_reads_a_null_weight_as_none():
    g = cg.parse_structured('{"edges": [{"u": 0, "v": 1, "weight": null, "directed": false}]}')
    assert g.edges == (Edge(0, 1),)


def test_structured_roundtrip():
    R = cg.random_riemann(2)
    graphs = [
        cg.k6_structure(R),
        cg.variant_graph(cg.STANDARD_SPEC, cg.enumerate_variants(cg.STANDARD_SPEC)[3]),
        Graph((), ()),
        cg.fuzzy_to_graph(cg.fuzzy_riemann_graph(cg.STANDARD_SPEC)),
        Graph((Vertex(0, label=np.str_("a")),),
              (Edge(0, 1, weight=np.float64(1.5)), Edge(1, 2, weight=-3)), name=np.str_("H")),
    ]
    for g in graphs:
        assert cg.parse_structured(cg.export_structured(g)) == g


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_export_structured_refuses_a_non_finite_weight(weight):
    # JSON has no literal for it, and the writer names the edge and the field
    # as parse_structured does for json's NaN and Infinity extensions
    message = f"edges[0]: 'weight' must be a finite number, got {weight!r}"
    with pytest.raises(ValueError) as info:
        cg.export_structured(Graph((), (Edge(0, 1, weight=weight),)))
    assert str(info.value) == message
    literal = "NaN" if weight != weight else "Infinity"
    with pytest.raises(ValueError) as info:
        cg.parse_structured(f'{{"edges": [{{"u": 0, "v": 1, "weight": {literal}}}]}}')
    assert str(info.value) == message


def test_export_graph_dispatch():
    g = Graph((Vertex(0),), (Edge(0, 0),))
    assert cg.export_graph(g, "dot") == cg.export_dot(g)
    assert cg.export_graph(g, "structured") == cg.export_structured(g)
    # the name is compared exactly: no case folding, and None is refused by name
    for format in ("xml", None, "DOT"):
        with pytest.raises(ValueError) as info:
            cg.export_graph(g, format)
        assert str(info.value) == f"unknown export format {format!r}"
    # loops render as self-edges
    assert '"0" -- "0"' in cg.export_dot(g)
