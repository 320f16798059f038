"""Canonical storage and symmetry algebra for rank-4 curvature-type components.

In four dimensions a curvature-type tensor is fixed by the symmetric 6x6
matrix of its antisymmetric-pair components. Each of the 256 raw components
is a stored entry times an orientation sign; the matrix is always stored in
LEX order, and one route table, built at import, maps every quad to that
(slot, slot, sign) and is the only routing source. This module owns that
storage, its views, the cyclic-identity machinery on top of it, seeded
fixture generators, and the counting formulas; their brute-force oracle
lives in its own module, which no command imports. Each derived quantity is
computed once, from the rows in Python floats; the functions that return
ndarrays only wrap it. ``_square_rows`` is the one reader of a matrix
input: the 6x6 pair matrix of
``RiemannComponents``, ``petrov.blocks`` and ``petrov.trace_b`` and the 3x3
complex matrix of ``petrov.eigen`` and ``petrov.from_omega`` are read,
checked finite and their faults named alike, in one pass, and no caller
checks finiteness again. Sums of floats are added left to right from 0.0,
never by ``sum``, which compensates the rounding from Python 3.12 on: every
Python gives the same floats. numpy
is imported only by ``_ndarray``, which builds every returned array, and by
``random_riemann``, whose Ricci-flat tensors ``petrov.from_omega`` writes.

Indices are plain ints under the fixed identification i,k,l,m -> 0,1,2,3,
which ``INDEX_LETTERS`` states; quads are 4-tuples of them. All values are
immutable after construction and every operation here is a pure function.
``INGEST_TOL`` is the one ingest tolerance: absolute for degenerate and
conflicting records, and relative to max(1, max|M|) for the cyclic residual
that ``bianchi_enforced`` measures. ``_BIANCHI`` is the cyclic identity
solved once, from ``CYCLIC_QUADS``, as the rewrite of one canonical quad.

``PairSlot`` is a namedtuple record, equal and hashed by its fields;
``RiemannComponents`` is a plain read-only class that validates its input and
is equal and hashed by identity. Neither uses ``dataclasses``, whose import
would cost every cold command several milliseconds.
"""
from __future__ import annotations

import cmath
import math
import operator
from collections import namedtuple
from enum import Enum
from functools import cached_property
from itertools import product

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Iterable, Optional, Sequence

    import numpy as np

#: Diagonal frame metric used for every index raising; inverse equals itself.
METRIC_SIGNATURE = (-1, 1, 1, 1)

DIMENSION = 4
#: The index letters of 0..3, the one statement of the identification.
INDEX_LETTERS = "iklm"
INGEST_TOL = 1e-12


class PairBasis(Enum):
    """The two orderings of the six antisymmetric index pairs."""

    LEX = "lex"    # 01, 02, 03, 12, 13, 23
    DUAD = "duad"  # 01, 02, 03, 23, 31, 12


LEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
DUAD_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))

_PAIRS = {PairBasis.LEX: LEX_PAIRS, PairBasis.DUAD: DUAD_PAIRS}

NUM_SLOTS = len(LEX_PAIRS)

#: The three cyclic-permutation quads of (0,1,2,3); their component sum is the
#: one independent first-Bianchi constraint in four dimensions.
CYCLIC_QUADS = ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def _slot_table(pairs):
    table = {}
    for slot, (a, b) in enumerate(pairs):
        table[(a, b)] = (slot, 1)
        table[(b, a)] = (slot, -1)
    return table


_SLOTS = {basis: _slot_table(pairs) for basis, pairs in _PAIRS.items()}


#: quad -> (s, t, sign) with s <= t: R_abcd = sign * matrix[s, t] in the LEX
#: storage, or exactly zero where the table holds None (a repeated index in a pair).
_ROUTE = dict.fromkeys(product(range(DIMENSION), repeat=4))
_ROUTE.update(
    (p + q, (min(s, t), max(s, t), u * v))
    for (p, (s, u)), (q, (t, v)) in product(_SLOTS[PairBasis.LEX].items(), repeat=2)
)

#: (s, t) -> lexicographically smallest quad routed to that slot pair, with its
#: sign (built in reverse quad order, so the smallest quad is written last).
#: The quads sharing (s, t) are exactly the 8-element sign orbit of the skew
#: and block symmetries.
_REPRESENTATIVES = {
    route[:2]: (quad, route[2]) for quad, route in reversed(_ROUTE.items()) if route
}

#: (s, t, sign) of the three entries whose signed sum is the single Bianchi
#: constraint at n = 4.
_CYCLIC_TERMS = tuple(_ROUTE[q] for q in CYCLIC_QUADS)


#: basis -> (s, t, sign) of its 36 pair quads, row by row: entry [i][j] reads
#: pair i against pair j of that basis as sign * rows[s][t] of the LEX storage.
_PAIR_ROUTES = {
    basis: tuple(tuple(_ROUTE[p + q] for q in pairs) for p in pairs)
    for basis, pairs in _PAIRS.items()
}


#: The ten contractions (X, Y) with X <= Y, in row order.
_RICCI_PAIRS = tuple((X, Y) for X in range(DIMENSION) for Y in range(X, DIMENSION))

#: (s, t, eta^aa * sign) of the terms R_aXaY, a = 0..3, of each contraction in
#: _RICCI_PAIRS. A term with a in {X, Y} is identically zero and is left out:
#: the sums start from 0.0, so adding it would change nothing.
_RICCI_TERMS = tuple(
    tuple((s, t, METRIC_SIGNATURE[a] * sign)
          for a in range(DIMENSION) if a not in (X, Y) for s, t, sign in [_ROUTE[a, X, a, Y]])
    for X, Y in _RICCI_PAIRS
)


def basis_pairs(basis: PairBasis):
    """Oriented index pairs of the six slots, in slot order."""
    return _PAIRS[PairBasis(basis)]


def _integer(value, name: str, low: Optional[int] = None, stop: Optional[int] = None) -> int:
    """``value`` as an int through ``operator.index``, at least ``low`` and
    below ``stop`` where they are given; anything that is not an integer, an
    integral float included, or that lies out of bounds raises ValueError
    naming ``name`` and the value: ``n must be >= 1, got 0``, or, with
    ``stop``, ``index must lie in [0, 4), got 5``."""
    try:
        v = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if stop is not None and not low <= v < stop:
        raise ValueError(f"{name} must lie in [{low}, {stop}), got {v}")
    if low is not None and v < low:
        raise ValueError(f"{name} must be >= {low}, got {v}")
    return v


def check_index(value) -> int:
    return _integer(value, "index", 0, DIMENSION)


def check_quad(quad) -> tuple[int, int, int, int]:
    if len(quad) != 4:
        raise ValueError(f"quad must have 4 indices, got {quad!r}")
    return tuple([check_index(v) for v in quad])


class PairSlot(namedtuple("PairSlot", "slot sign basis")):
    """Slot number (int) plus orientation sign (+1 or -1) of an ordered index
    pair in ``basis`` (a PairBasis)."""

    __slots__ = ()


def pair_slot(a: int, b: int, basis: PairBasis = PairBasis.LEX) -> Optional[PairSlot]:
    """Slot and sign of the pair (a, b), or None when a == b.

    A degenerate pair addresses an antisymmetric component that is
    identically zero, so it carries no slot.
    """
    a = check_index(a)
    b = check_index(b)
    if a == b:
        return None
    slot, sign = _SLOTS[PairBasis(basis)][(a, b)]
    return PairSlot(slot, sign, PairBasis(basis))


def _ndarray(values) -> np.ndarray:
    # nested lists of Python numbers as an ndarray, importing numpy on first use
    import numpy as np

    return np.array(values)


def _square_rows(value, n: int, number) -> tuple[tuple, ...]:
    """n tuples of n finite ``number`` (``float`` or ``complex``) read from an
    nxn ndarray, or from a list or tuple of n list, tuple or ndarray rows (an
    ndarray reads through ``tolist``) of n numbers, a str or bytes being no
    number; anything else raises ValueError naming the first fault: the
    shape, then the first entry that does not read, row-major, then a NaN or
    an infinity anywhere."""
    shape = getattr(value, "shape", None)
    if shape is not None and shape != (n, n):  # an ndarray names its shape
        raise ValueError(f"matrix must be {n}x{n}, got {shape}")
    rows = value.tolist() if shape is not None else value
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"matrix must be a list, tuple or ndarray, got {type(rows).__name__}")
    if len(rows) != n or not all(isinstance(row, (list, tuple)) and len(row) == n for row in rows):
        rows = [row.tolist() if hasattr(row, "tolist") else row for row in value]
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                kind = type(value[i]).__name__
                raise ValueError(f"matrix row {i} must be a list, tuple or ndarray, got {kind}")
            if len(row) != len(rows[0]):
                raise ValueError(f"matrix row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
        shape = (len(rows), *map(len, rows[:1]))
        if shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {shape}")
    noun = "a real number" if number is float else "a number"
    read = []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            try:  # float parses a str or bytes, complex a str: text reads as None
                read.append(number(None if isinstance(x, (str, bytes)) else x))
            except OverflowError:
                raise ValueError(f"matrix entry ({i}, {j}) is too large for a float") from None
            except (TypeError, ValueError):
                raise ValueError(f"matrix entry ({i}, {j}) is not {noun}: {x!r}") from None
    if not all(map(cmath.isfinite, read)):
        raise ValueError("matrix must be finite")
    return tuple([tuple(read[i:i + n]) for i in range(0, n * n, n)])


class RiemannComponents:
    """Pair-slot component store of a curvature-type tensor (n = 4).

    ``rows`` is the symmetric 6x6 matrix of pair components in LEX slot order
    (01, 02, 03, 12, 13, 23) as six tuples of six floats. It is built
    positionally from a 6x6 ndarray or a list or tuple of list, tuple or
    ndarray rows; ``_square_rows`` checks its shape, entries and finiteness
    (ValueError naming the fault), and exact symmetry is checked last, so a
    NaN is named as non-finite. The builders of this module that make such
    rows themselves (``from_component_list``, ``project_bianchi`` and
    ``random_riemann``), and ``petrov.from_omega``, store them through
    ``_of_checked`` instead, without a second check. ``matrix`` is the same
    matrix as a read-only float ndarray, built on first access. Other
    orderings are views through ``pair_matrix``. Instances are read-only and
    compare and hash by identity.
    """

    def __init__(self, rows):
        rows = _square_rows(rows, NUM_SLOTS, float)
        if not all(map(operator.eq, sum(rows, ()), sum(zip(*rows), ()))):
            raise ValueError("pair-component matrix must be exactly symmetric")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of_checked(cls, M) -> RiemannComponents:
        # storage from six lists of six finite floats that the caller built
        # exactly symmetric, stored without the checks of __init__
        R = object.__new__(cls)
        object.__setattr__(R, "rows", tuple(map(tuple, M)))
        return R

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(rows={self.rows!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """``rows`` as a read-only float ndarray."""
        m = _ndarray(self.rows)
        m.flags.writeable = False
        return m

    @property
    def bianchi_enforced(self) -> bool:
        """Measured from the matrix: |cyclic residual| <= INGEST_TOL * max(1, max|M|)."""
        rows = self.rows
        return abs(_cyclic_residual(rows)) <= INGEST_TOL * max(1.0, *map(abs, sum(rows, ())))


def zero_riemann() -> RiemannComponents:
    return RiemannComponents(((0.0,) * NUM_SLOTS,) * NUM_SLOTS)


def get_component(R: RiemannComponents, quad) -> float:
    """Raw lowered component R_abcd, read through the routing table.

    Exactly zero when either pair is degenerate; otherwise the same stored
    float up to sign, so the skew and block symmetries hold exactly.
    """
    route = _ROUTE[check_quad(quad)]
    if route is None:
        return 0.0
    s, t, sign = route
    return sign * R.rows[s][t]


def canonical_quad(quad) -> Optional[tuple[tuple[int, int, int, int], int]]:
    """Lexicographically smallest quad of the 8-element sign orbit, plus the
    sign relating it to the input; None when the component vanishes
    identically. A lookup in the routing table: the orbit is the set of quads
    routed to the same slot pair."""
    route = _ROUTE[check_quad(quad)]
    if route is None:
        return None
    s, t, sign = route
    rep, rep_sign = _REPRESENTATIVES[s, t]
    return rep, sign * rep_sign


def _solve_cyclic():
    # the cyclic identity, sum of sign * R_rep over the canonical forms of
    # CYCLIC_QUADS = 0, solved for its largest representative
    (dependent, dep_sign), *rest = sorted(map(canonical_quad, CYCLIC_QUADS), reverse=True)
    return dependent, tuple(sorted((rep, -dep_sign * sign) for rep, sign in rest))


#: (dependent, ((rep, sign), ...)): the one Bianchi rewrite of a canonical quad,
#: R_dependent = sum of sign * R_rep; at n = 4, R_0312 = R_0213 - R_0123.
_BIANCHI = _solve_cyclic()


class ConflictingEntry(ValueError):
    """Two ingested entries imply different values for one slot pair."""


class DegenerateNonzero(ValueError):
    """An ingested entry has a repeated pair index but a nonzero value."""


def from_component_list(n: int, entries: Iterable[tuple[Sequence[int], float]]) -> RiemannComponents:
    """Build component storage from (quad, value) records.

    Each record is routed through the routing table; unspecified components
    default to zero. Records that address the same slot pair must agree
    within INGEST_TOL after sign mapping, and a record with a repeated pair
    index must be within INGEST_TOL of zero; both tests are absolute.
    """
    return _from_routed_records(n, _routed(entries))


def _routed(entries):
    # validated (quad, route, value) records, one at a time, so each record is
    # checked just before its degenerate and conflict tests
    for quad, value in entries:
        quad = check_quad(quad)
        try:
            if isinstance(value, (str, bytes)):  # float would parse it
                raise TypeError
            value = float(value)
        except OverflowError:
            raise ValueError(f"component value for {quad} is too large for a float") from None
        except (TypeError, ValueError):
            raise ValueError(f"component value for {quad} is not a real number: {value!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"component value for {quad} is not finite")
        yield quad, _ROUTE[quad], value


def _from_routed_records(n: int, records) -> RiemannComponents:
    """Storage from (quad, route, value) records whose quad is a tuple of four
    ints, whose route is ``_ROUTE[quad]`` and whose value is a finite float.

    The one place that tests n, degenerate records and conflicts, in that
    order, and builds the matrix; ``records`` is consumed after the n test.
    """
    if _integer(n, "n") != DIMENSION:
        raise ValueError(f"component storage is fixed to n = {DIMENSION}, got {n}")
    M = [[0.0] * NUM_SLOTS for _ in range(NUM_SLOTS)]
    seen: dict[tuple[int, int], float] = {}
    for quad, route, value in records:
        if route is None:
            if abs(value) > INGEST_TOL:
                raise DegenerateNonzero(
                    f"quad {quad} repeats an index within a pair but has value {value}"
                )
            continue
        s, t, sign = route
        slot_value = sign * value
        if (s, t) in seen:
            if abs(seen[s, t] - slot_value) > INGEST_TOL:
                raise ConflictingEntry(
                    f"quad {quad} implies slot value {slot_value} but "
                    f"{seen[s, t]} was already recorded"
                )
            continue
        seen[s, t] = M[s][t] = M[t][s] = slot_value
    return RiemannComponents._of_checked(M)


def _pair_rows(rows, basis: PairBasis) -> list[list[float]]:
    # the pair matrix in ``basis`` as lists of floats, read from LEX ``rows``
    return [[sign * rows[s][t] for s, t, sign in row] for row in _PAIR_ROUTES[basis]]


def pair_matrix(R: RiemannComponents, basis: PairBasis = PairBasis.LEX) -> np.ndarray:
    """Covariant pair-component matrix viewed in the requested basis.

    One signed gather through the routing table: the orderings differ by a
    signed permutation, so every entry is a stored value times +-1, bit for bit.
    """
    return _ndarray(_pair_rows(R.rows, PairBasis(basis)))


def cyclic_quads(quad):
    """The three quads whose components enter the cyclic sum of ``quad``."""
    a, b, c, d = check_quad(quad)
    return ((a, b, c, d), (a, c, d, b), (a, d, b, c))


def cyclic_sum(R: RiemannComponents, quad) -> float:
    """R_abcd + R_acdb + R_adbc; vanishes on Bianchi-enforced storage."""
    q0, q1, q2 = cyclic_quads(quad)
    return 0.0 + get_component(R, q0) + get_component(R, q1) + get_component(R, q2)


def cyclic_symmetrization(R: RiemannComponents, quad) -> float:
    """Cyclic symmetrisation over the last three indices: cyclic_sum / 3!."""
    return cyclic_sum(R, quad) / 6.0


def _cyclic_terms(rows) -> tuple[float, float, float]:
    # the components of CYCLIC_QUADS, read from LEX ``rows``
    (s0, t0, u0), (s1, t1, u1), (s2, t2, u2) = _CYCLIC_TERMS
    return u0 * rows[s0][t0], u1 * rows[s1][t1], u2 * rows[s2][t2]


def _cyclic_residual(rows) -> float:
    x0, x1, x2 = _cyclic_terms(rows)
    return 0.0 + x0 + x1 + x2


def project_bianchi(R: RiemannComponents) -> RiemannComponents:
    """Orthogonal projection onto the subspace where the cyclic sum vanishes.

    Euclidean projection on the 21 upper-triangle slot entries: the single
    constraint touches three off-diagonal entries, so the residual is spread
    equally over them. Idempotent; a tensor with exactly zero residual is
    returned unchanged entry for entry. Raises OverflowError when the residual
    or a corrected entry leaves the float range.
    """
    M = [list(row) for row in R.rows]
    correction = _cyclic_residual(R.rows) / 3.0
    for s, t, sign in _CYCLIC_TERMS:
        M[s][t] -= sign * correction
        M[t][s] = M[s][t]
        if not math.isfinite(M[s][t]):
            raise OverflowError("projecting out the cyclic residual exceeds the float range")
    return RiemannComponents._of_checked(M)


def _ricci_upper(rows) -> list[float]:
    """The contractions of _RICCI_PAIRS, read from LEX ``rows`` through the
    route table, each summed over a in index order from 0.0."""
    upper = []
    for terms in _RICCI_TERMS:
        acc = 0.0
        for s, t, weight in terms:
            acc += weight * rows[s][t]
        upper.append(acc)
    return upper


def _ricci_rows(upper) -> list[list[float]]:
    # the 4x4 contractions mirrored from ``_ricci_upper``, exactly: Ricci[X][Y]
    # and Ricci[Y][X] sum the same routed terms in the same order
    ric = [[0.0] * DIMENSION for _ in range(DIMENSION)]
    for (X, Y), value in zip(_RICCI_PAIRS, upper):
        ric[X][Y] = ric[Y][X] = value
    return ric


def _ricci_max(upper) -> float:
    """max |Ricci| from the contractions ``_ricci_upper`` returns."""
    return max(map(abs, upper))


def ricci(R: RiemannComponents, X: int, Y: int) -> float:
    """Contraction sum_a eta^aa R_aXaY with the fixed frame metric."""
    return _ricci_rows(_ricci_upper(R.rows))[check_index(X)][check_index(Y)]


def ricci_matrix(R: RiemannComponents) -> np.ndarray:
    """All 16 contractions as an ndarray of the values ``ricci`` reads."""
    return _ndarray(_ricci_rows(_ricci_upper(R.rows)))


def _upper_coords():
    return [(s, t) for s in range(NUM_SLOTS) for t in range(s, NUM_SLOTS)]


def random_riemann(seed: int, ricci_flat: bool = False) -> RiemannComponents:
    """Deterministic Bianchi-enforced test tensor for the given seed.

    With ``ricci_flat`` ten uniform draws fill a symmetric traceless W, and
    ``petrov.from_omega`` writes the tensor of that W, in the sector where
    every contraction vanishes (the 10 remaining curvature degrees of
    freedom); otherwise 21 uniform entries are projected onto the cyclic
    constraint.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    if ricci_flat:
        from .petrov import from_omega  # petrov imports this module

        # u0..u9 are the stored rows[s][t], st = 14 15 23 24 25 34 35 44 45 55, read as entries of W
        u0, u1, u2, u3, u4, u5, u6, u7, u8, u9 = rng.uniform(-1.0, 1.0, size=10).tolist()
        re = (-u9, u8, -u6), (u8, -u7, u5), (-u6, u5, u9 + u7)
        im = (u0 - u2, u1, u4), (u1, -u0, -u3), (u4, -u3, u2)
        return from_omega([list(map(complex, x, y)) for x, y in zip(re, im)])
    M = [[0.0] * NUM_SLOTS for _ in range(NUM_SLOTS)]
    coords = _upper_coords()
    for (s, t), v in zip(coords, rng.uniform(-1.0, 1.0, size=len(coords)).tolist()):
        M[s][t] = M[t][s] = v
    return project_bianchi(RiemannComponents._of_checked(M))


# --- counting -------------------------------------------------------------

def pair_count(n: int) -> int:
    """Number of independent antisymmetric index pairs, n(n-1)/2."""
    n = _integer(n, "n", 1)
    return n * (n - 1) // 2


def independent_component_count(n: int) -> int:
    """Independent components after all symmetries: n^2(n^2 - 1)/12."""
    n = _integer(n, "n", 1)
    return n * n * (n * n - 1) // 12


def generalized_count(n: int, r: int) -> int:
    """P(P+1)/2 - C(n, r) with P = n(n-1)/2, for r cyclically permuting indices."""
    P = pair_count(n)  # checks n first
    r = _integer(r, "r")
    if not 0 <= r <= n:
        raise ValueError(f"r must satisfy 0 <= r <= n, got r = {r} with n = {n}")
    return P * (P + 1) // 2 - math.comb(n, r)

