"""Fuzzy-graph analog: memberships, completeness, strong arcs, domination,
the antisymmetric triple-value function, and the membership-reducing union.

Memberships are exact rationals so the constructed values 1, 1/3 and 1/9
compare exactly, with no tolerance anywhere in this module.

``FuzzyGraph`` and ``EpsilonLoop`` are namedtuples, like the records of
``graphana``, so importing this module imports neither ``dataclasses`` nor
``typing``. ``FuzzyGraph`` validates in ``__new__``, which its ``_make``,
``_replace``, pickle and ``copy`` also go through; its fields are dicts, so
it is equal by its fields and unhashable.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .graphana import Edge, Graph, RiemannGraphSpec, Vertex, INDEX_LETTERS, _Validated
from .symcore import _integer

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Iterable, Optional

ONE = Fraction(1)
THIRD = Fraction(1, 3)
#: the default edge and loop memberships: none, in a mapping nobody can change
_NONE = MappingProxyType({})


def _pair(u, v) -> frozenset:
    if u == v:
        raise ValueError("edge memberships are defined on distinct vertices")
    return frozenset((u, v))


def _membership(m, what: str, where) -> Fraction:
    # a membership as a Fraction; a str such as "1/3" reads as one
    try:
        return Fraction(m)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} {where!r} membership is not a rational number: {m!r}") from None


class FuzzyGraph(_Validated, namedtuple("FuzzyGraph", "sigma mu loops")):
    """Vertex memberships ``sigma``, edge memberships ``mu`` on unordered
    pairs, and loop memberships kept separately so the pair bound stays a
    statement about proper edges: dicts of Fraction keyed by vertex, or for
    ``mu`` by a frozenset of two vertices.

    The bound mu(u,v) <= min(sigma(u), sigma(v)) is checked by
    ``respects_bound`` rather than enforced on construction: the
    membership-reducing union deliberately lowers one vertex membership
    while leaving edges untouched.
    """

    __slots__ = ()

    def __new__(cls, sigma: dict, mu: dict = _NONE, loops: dict = _NONE):
        sigma = {v: _membership(m, "vertex", v) for v, m in sigma.items()}
        pairs = {}
        for key, m in mu.items():
            try:  # a str is one vertex id, not a pair
                u, v = () if isinstance(key, (str, bytes)) else key
            except (TypeError, ValueError):
                raise ValueError(f"edge key {key!r} is not a pair of vertices") from None
            if u not in sigma or v not in sigma:
                raise ValueError(f"edge {set(key)} references unknown vertices")
            pairs[_pair(u, v)] = _membership(m, "edge", set(key))
        for v in loops:
            if v not in sigma:
                raise ValueError(f"loop {v!r} references an unknown vertex")
        loops = {v: _membership(m, "loop", v) for v, m in loops.items()}
        for values, what in ((sigma.values(), "vertex"), (pairs.values(), "edge"), (loops.values(), "loop")):
            for m in values:
                if not 0 <= m <= 1:
                    raise ValueError(f"{what} membership {m} outside [0, 1]")
        return super().__new__(cls, sigma, pairs, loops)

    @property
    def vertices(self):
        return tuple(self.sigma)

    def mu_of(self, u, v) -> Fraction:
        return self.mu.get(_pair(u, v), Fraction(0))

    def respects_bound(self) -> bool:
        return all(
            m <= min(self.sigma[u], self.sigma[v])
            for key, m in self.mu.items()
            for u, v in (tuple(key),)
        )


def fuzzy_riemann_graph(spec: RiemannGraphSpec) -> FuzzyGraph:
    """Fuzzy analog of a graph spec.

    The fixed vertex is certain (membership 1); each permuting vertex is one
    of three equally likely occupants (membership 1/3). Every edge carries
    the minimum of its endpoint memberships: the bridge edge plus the
    complete triangle.
    """
    f = spec.fixed_vertex
    bridge = spec.permuting[0]
    sigma = {f: ONE}
    sigma.update({p: THIRD for p in spec.permuting})
    mu = {_pair(f, bridge): min(sigma[f], sigma[bridge])}
    p1, p2, p3 = spec.permuting
    for u, v in ((p1, p2), (p2, p3), (p3, p1)):
        mu[_pair(u, v)] = min(sigma[u], sigma[v])
    return FuzzyGraph(sigma, mu)


def is_complete(g: FuzzyGraph, on: Optional[Iterable] = None) -> bool:
    """True when every pair in the subset attains mu = min of its sigmas."""
    verts = tuple(g.sigma) if on is None else tuple(on)
    for v in verts:
        if v not in g.sigma:
            raise ValueError(f"vertex {v!r} not in graph")
    return all(
        g.mu_of(u, v) == min(g.sigma[u], g.sigma[v])
        for i, u in enumerate(verts)
        for v in verts[i + 1:]
    )


def strong_arcs(g: FuzzyGraph) -> set:
    """All arcs attaining the endpoint-membership minimum, with mu > 0."""
    out = set()
    for key, m in g.mu.items():
        u, v = tuple(key)
        if m > 0 and m == min(g.sigma[u], g.sigma[v]):
            out.add(key)
    return out


def domination_set(g: FuzzyGraph, fixed) -> set:
    """Vertices adjacent to the fixed vertex and to every other non-fixed
    vertex. For a spec-built graph this is the single bridge vertex."""
    if fixed not in g.sigma:
        raise ValueError(f"vertex {fixed!r} not in graph")
    others = [v for v in g.sigma if v != fixed]
    out = set()
    for v in others:
        if g.mu_of(v, fixed) <= 0:
            continue
        if all(g.mu_of(v, w) > 0 for w in others if w != v):
            out.add(v)
    return out


def cycle_sign(m: int) -> int:
    """(-1)**m for m traversed cycles."""
    m = _integer(m, "m", 0)
    return -1 if m % 2 else 1


_EVEN_ROTATIONS = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def levi_civita(i, x, y, reference=(1, 2, 3)) -> int:
    """Antisymmetric triple value: +1 on the reference cyclic rotations, -1 on
    the reversed ones, 0 whenever two arguments coincide.

    The coincidence rule fires before membership in the reference cycle is
    checked, so loop-shaped arguments evaluate to 0 for any vertex ids.
    """
    if i == x or x == y or y == i:
        return 0
    ref = tuple(reference)
    if len(ref) != 3 or len(set(ref)) != 3:
        raise ValueError("reference cycle must list 3 distinct vertices")
    try:
        positions = (ref.index(i), ref.index(x), ref.index(y))
    except ValueError:
        raise ValueError(f"({i!r}, {x!r}, {y!r}) not drawn from reference {ref!r}") from None
    return 1 if positions in _EVEN_ROTATIONS else -1


class EpsilonLoop(namedtuple("EpsilonLoop", "fixed vertex")):
    """A loop-shaped triple epsilon(fixed, vertex, vertex). ``levi_civita``
    gives it 0 by the coincidence rule; its placement marks where the union
    attaches a loop."""

    __slots__ = ()


def epsilon_loop(fixed, vertex) -> EpsilonLoop:
    return EpsilonLoop(fixed, vertex)


class BridgeMismatch(ValueError):
    """The loop vertex of the union is not the graph's bridge vertex."""


def _find_bridge(g: FuzzyGraph):
    fixed = [v for v, s in g.sigma.items() if s == 1]
    if len(fixed) != 1:
        raise BridgeMismatch("graph has no unique fixed vertex (sigma == 1)")
    neighbours = [v for v in g.sigma if v != fixed[0] and g.mu_of(v, fixed[0]) > 0]
    if len(neighbours) != 1:
        raise BridgeMismatch("fixed vertex is not connected to exactly one vertex")
    return fixed[0], neighbours[0]


def fuzzy_union(eps: EpsilonLoop, g: FuzzyGraph, alpha: int) -> FuzzyGraph:
    """Union with a loop-shaped triple at the bridge vertex.

    The bridge membership is divided by the number of permuting vertices and
    the loop is recorded with that reduced membership; every other membership
    is left untouched.
    """
    alpha = _integer(alpha, "alpha", 1)
    fixed, bridge = _find_bridge(g)
    if eps.vertex != bridge:
        raise BridgeMismatch(
            f"loop vertex {eps.vertex!r} is not the bridge vertex {bridge!r}"
        )
    if eps.fixed != fixed:
        raise BridgeMismatch(
            f"loop is anchored at {eps.fixed!r}, but the fixed vertex is {fixed!r}"
        )
    sigma = dict(g.sigma)
    sigma[bridge] = sigma[bridge] / alpha
    loops = dict(g.loops)
    loops[bridge] = sigma[bridge]
    return FuzzyGraph(sigma, dict(g.mu), loops)


def fuzzy_to_graph(g: FuzzyGraph, name: str = "fuzzy") -> Graph:
    """Exportable view with memberships as vertex/edge attributes."""

    def label(v):
        return INDEX_LETTERS[v] if isinstance(v, int) and 0 <= v < 4 else str(v)

    vertices = tuple(Vertex(v, label=label(v), membership=m) for v, m in g.sigma.items())
    edges = [Edge(u, v, membership=m) for key, m in g.mu.items() for u, v in (sorted(key, key=str),)]
    edges += [Edge(v, v, membership=m) for v, m in g.loops.items()]
    return Graph(vertices, tuple(edges), name=name)
