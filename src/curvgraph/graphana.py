"""Crisp graph analogs of the curvature component algebra.

Variant enumeration with orientation signs, the edge and vertex counting
theorems, the complete K6 structure carried by the 6x6 pair matrix, and DOT
plus structured-text export for every graph this package produces.

The records are namedtuples, equal and hashed by their fields, so importing
this module imports neither ``dataclasses`` nor ``typing``. The validating
specs check their fields in ``__new__``, which ``_make``, ``_replace``,
pickle and ``copy`` also go through. ``fractions`` is imported only to read a
membership back from a structured document.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from .jsondoc import dumps, read_object
from .symcore import INDEX_LETTERS, LEX_PAIRS, RiemannComponents, _integer, check_index

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from fractions import Fraction
    from typing import Optional

    Membership = Optional[Fraction]

class Orientation(Enum):
    CW = "cw"
    CCW = "ccw"

    def flipped(self) -> "Orientation":
        return Orientation.CW if self is Orientation.CCW else Orientation.CCW

    @property
    def sign(self) -> int:
        # counter-clockwise cycles carry the positive sign
        return 1 if self is Orientation.CCW else -1


class _Validated:
    # a namedtuple's _make calls tuple.__new__ directly; this one goes through
    # the record's validating __new__, and so does _replace, which calls _make
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)


def _vertices(fixed_vertex, permuting) -> tuple:
    # the fixed vertex, then the permuting ones
    try:
        return (fixed_vertex, *permuting)
    except TypeError:
        raise ValueError(f"permuting must be a sequence of vertices, got {permuting!r}") from None


class RiemannGraphSpec(
    _Validated, namedtuple("RiemannGraphSpec", "fixed_vertex permuting orientation")
):
    """One fixed vertex plus an ordered triple of permuting vertices.

    The first permuting vertex is the bridge: the only one adjacent to the
    fixed vertex. ``orientation`` is the cycle direction in which the
    permuting triple is listed.
    """

    __slots__ = ()

    def __new__(cls, fixed_vertex: int = 0, permuting: tuple[int, int, int] = (1, 2, 3),
                orientation: Orientation = Orientation.CCW):
        verts = _vertices(fixed_vertex, permuting)
        for v in verts:
            check_index(v)
        if len(verts) != 4:
            raise ValueError(f"spec needs 3 permuting vertices, got {len(verts) - 1}")
        if len(set(verts)) != 4:
            raise ValueError("spec needs 4 distinct vertices")
        return super().__new__(cls, fixed_vertex, verts[1:], orientation)


STANDARD_SPEC = RiemannGraphSpec()


class GraphVariant(namedtuple("GraphVariant", "label quad sign orientation")):
    """A labelled variant: its label ('G1'..'G6'), its vertex quad (the fixed
    vertex first), its sign (+1 or -1) and its Orientation."""

    __slots__ = ()


def enumerate_variants(spec: RiemannGraphSpec) -> tuple[GraphVariant, ...]:
    """The six labelled variants of a graph spec.

    Odd labels keep the spec's listed cyclic order; even labels reverse it,
    which flips the orientation and therefore the sign: G1 = -G2, G3 = -G4,
    G5 = -G6.
    """
    f = spec.fixed_vertex
    p1, p2, p3 = spec.permuting
    layout = (
        ("G1", (f, p1, p2, p3), False),
        ("G2", (f, p1, p3, p2), True),
        ("G3", (f, p2, p3, p1), False),
        ("G4", (f, p2, p1, p3), True),
        ("G5", (f, p3, p1, p2), False),
        ("G6", (f, p3, p2, p1), True),
    )
    variants = []
    for label, quad, reversed_cycle in layout:
        orientation = spec.orientation.flipped() if reversed_cycle else spec.orientation
        variants.append(GraphVariant(label, quad, orientation.sign, orientation))
    return tuple(variants)


def edge_count(alpha: int) -> int:
    """Edges of a one-fixed-vertex graph with alpha permuting vertices."""
    alpha = _integer(alpha, "alpha", 1)
    return 1 + alpha * (alpha - 1) // 2


class OddParityError(ValueError):
    """(r+1) is odd, so the pair-vertex count is undefined."""


def pair_vertex_count(r: int) -> int:
    """C(r+1, 2) pair vertices for r permuting indices; needs (r+1) even."""
    r = _integer(r, "r", 1)
    if (r + 1) % 2 != 0:
        raise OddParityError(f"(r+1) = {r + 1} is not divisible by 2")
    return math.comb(r + 1, 2)


class GeneralizedGraphSpec(
    _Validated, namedtuple("GeneralizedGraphSpec", "fixed_vertex permuting")
):
    """One fixed vertex plus r >= 2 cyclically permuting vertices.

    The four-vertex case specialises to ``RiemannGraphSpec``; this form only
    feeds the counting results, so vertex ids are unrestricted ints.
    """

    __slots__ = ()

    def __new__(cls, fixed_vertex: int, permuting: tuple[int, ...]):
        verts = tuple(_integer(v, "vertex") for v in _vertices(fixed_vertex, permuting))
        if len(verts) < 3:
            raise ValueError("need at least 2 permuting vertices")
        if len(set(verts)) != len(verts):
            raise ValueError("vertices must be distinct")
        return super().__new__(cls, verts[0], verts[1:])

    @property
    def alpha(self) -> int:
        return len(self.permuting)


# --- graph container and export --------------------------------------------

class Vertex(namedtuple("Vertex", "id label membership", defaults=(None, None))):
    """A vertex id (int or str) with an optional label (str) and an optional
    membership (Fraction)."""

    __slots__ = ()


class Edge(
    namedtuple("Edge", "u v weight membership directed", defaults=(None, None, False))
):
    """An edge between vertex ids ``u`` and ``v``, with an optional weight
    (float), an optional membership (Fraction) and a ``directed`` flag."""

    __slots__ = ()


class Graph(namedtuple("Graph", "vertices edges name", defaults=("G",))):
    """A named graph: a tuple of Vertex and a tuple of Edge."""

    __slots__ = ()


def variant_graph(spec: RiemannGraphSpec, variant: GraphVariant) -> Graph:
    """Drawable form of one variant: the fixed edge plus the oriented triangle."""
    f, b, c, d = variant.quad
    vertices = tuple(Vertex(v, label=INDEX_LETTERS[v]) for v in (f, b, c, d))
    edges = (
        Edge(f, b),
        Edge(b, c, directed=True),
        Edge(c, d, directed=True),
        Edge(d, b, directed=True),
    )
    return Graph(vertices, edges, name=variant.label)


def k6_structure(R: RiemannComponents) -> Graph:
    """Complete graph on the six pair-slot vertices, edges weighted by the
    off-diagonal pair components. 15 edges; the principal diagonal is not part
    of the structure."""
    vertices = tuple(
        Vertex(f"u{s + 1}", label="".join(str(i) for i in LEX_PAIRS[s])) for s in range(6)
    )
    edges = tuple(
        Edge(f"u{s + 1}", f"u{t + 1}", weight=R.rows[s][t])
        for s in range(6)
        for t in range(s + 1, 6)
    )
    return Graph(vertices, edges, name="K6")


def _quoted(value) -> str:
    # str(value) as a DOT double-quoted string, backslashes and double quotes escaped
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: Graph) -> str:
    """Graph in DOT syntax; oriented cycle edges get arrowheads, loops render
    as self-edges. Every name, id and attribute value is a quoted string."""
    lines = [f"graph {_quoted(g.name)} {{"]
    for v in g.vertices:
        attrs = []
        if v.label is not None:
            attrs.append(f"label={_quoted(v.label)}")
        if v.membership is not None:
            attrs.append(f"sigma={_quoted(v.membership)}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quoted(v.id)}{suffix};")
    for e in g.edges:
        attrs = []
        if e.directed:
            attrs.append("dir=forward")
        if e.weight is not None:
            attrs.append(f"weight={_quoted(repr(e.weight))}")
        if e.membership is not None:
            attrs.append(f"mu={_quoted(e.membership)}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_quoted(e.u)} -- {_quoted(e.v)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _membership_str(m: Membership):
    return None if m is None else str(m)


def _membership_from(s):
    # a membership as export_structured writes it: a str that Fraction reads, or null
    if s is None:
        return None
    if type(s) is not str:
        raise TypeError(s)
    from fractions import Fraction

    return Fraction(s)


def export_structured(g: Graph) -> str:
    """Graph as a structured document, mirroring the component-file style. An
    edge weight that ``parse_structured`` would refuse, such as a NaN, which
    JSON has no literal for, raises the reader's ValueError naming the edge."""
    doc = {
        "name": g.name,
        "vertices": [
            {
                k: v
                for k, v in (
                    ("id", vx.id),
                    ("label", vx.label),
                    ("membership", _membership_str(vx.membership)),
                )
                if v is not None
            }
            for vx in g.vertices
        ],
        "edges": [
            {
                k: v
                for k, v in (
                    ("u", e.u),
                    ("v", e.v),
                    ("weight", _weight(i, e.weight)),
                    ("membership", _membership_str(e.membership)),
                    ("directed", e.directed or None),
                )
                if v is not None
            }
            for i, e in enumerate(g.edges)
        ],
    }
    return dumps(doc) + "\n"


def _records(doc: dict, field: str, need: tuple[str, ...]):
    # (record, membership) of each object in doc[field], which holds every key of need
    records = doc.get(field, [])
    if not isinstance(records, list):
        raise ValueError(f"field {field!r} must be an array")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or not all(k in rec for k in need):
            raise ValueError(f"{field}[{i}]: need {' and '.join(map(repr, need))}")
        try:
            membership = _membership_from(rec.get("membership"))
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError(
                f"{field}[{i}]: 'membership' must be a fraction, got {rec['membership']!r}"
            ) from None
        yield rec, membership


def _vertex_id(field: str, i: int, rec: dict, key: str):
    # a vertex id as the library builds them: an int or a str, never a bool
    value = rec[key]
    if type(value) not in (int, str):
        raise ValueError(f"{field}[{i}]: {key!r} must be an integer or a string, got {value!r}")
    return value


def _vertex(i: int, v: dict, membership: Membership) -> Vertex:
    # vertices[i]: its id an int or a str, its label a str or null
    vid, label = _vertex_id("vertices", i, v, "id"), v.get("label")
    if label is not None and type(label) is not str:
        raise ValueError(f"vertices[{i}]: 'label' must be a string or null, got {label!r}")
    return Vertex(vid, label, membership)


def _weight(i: int, weight):
    # the weight of edges[i], read or written: a finite number or null
    finite = type(weight) is int or isinstance(weight, float) and math.isfinite(weight)
    if weight is not None and not finite:
        raise ValueError(f"edges[{i}]: 'weight' must be a finite number, got {weight!r}")
    return weight


def _edge(i: int, e: dict, membership: Membership) -> Edge:
    # edges[i]: its ends vertex ids, its weight a finite number or null, its
    # flag a bool, none coerced
    weight, directed = _weight(i, e.get("weight")), e.get("directed", False)
    if type(directed) is not bool:
        raise ValueError(f"edges[{i}]: 'directed' must be true or false, got {directed!r}")
    u, v = _vertex_id("edges", i, e, "u"), _vertex_id("edges", i, e, "v")
    return Edge(u, v, weight, membership, directed)


def parse_structured(text: str) -> Graph:
    """Graph from a structured document; malformed text raises ValueError
    naming the record at fault, such as ``vertices[0]: need 'id'``, or the
    line and column of a JSON fault, as the component reader does. Nothing is
    coerced: a vertex id or edge end is an int or a str, a label a str or
    null, the name a str, an edge's weight a finite number or null, its flag a
    bool, a membership a str that ``Fraction`` reads or null. An edge may join
    vertices the document does not list."""
    doc = read_object(text)
    name = doc.get("name", "G")
    if type(name) is not str:
        raise ValueError(f"field 'name' must be a string, got {name!r}")
    vertices = tuple(
        _vertex(i, v, membership)
        for i, (v, membership) in enumerate(_records(doc, "vertices", ("id",)))
    )
    edges = tuple(
        _edge(i, e, membership)
        for i, (e, membership) in enumerate(_records(doc, "edges", ("u", "v")))
    )
    return Graph(vertices, edges, name=name)


def export_graph(g: Graph, format: str = "dot") -> str:
    if format == "dot":
        return export_dot(g)
    if format == "structured":
        return export_structured(g)
    raise ValueError(f"unknown export format {format!r}")
