"""Six-basis curvature matrix, its blocks, the three 3x3 contractions read
off those blocks, and eigenstructure-based classification of the complex
symmetric matrix they combine into.

Classification decision table, on the traceless complex 3x3 matrix W:

  three distinct eigenvalues                    -> I
  repeated nonzero eigenvalue, diagonalisable   -> D   (rank(W - lambda I) == 1)
  repeated nonzero eigenvalue, defective        -> II  (rank(W - lambda I) == 2)
  all eigenvalues zero, W^2 == 0, W != 0        -> N
  all eigenvalues zero, W^2 != 0                -> III (W^3 == 0 by tracelessness)
  W == 0                                        -> O

``eigen`` is the single decision procedure: it walks this table once and
returns the type together with the eigenvalues, multiplicities and
nilpotency degree that decided it; ``classify`` returns that type.

Eigenvalues come from the closed-form cubic (trace, second invariant,
determinant, complex Cardano); ranks from modulus-pivoted elimination. A float
cubic determines a double root only to ~sqrt(eps) and a triple root to
~cbrt(eps) relative accuracy, so candidate repeats are detected with floors at
those levels and then confirmed by rank tests, which are well conditioned. A
confirmed repeated root is recomputed from the smooth closed form
-3q/(2p) - a/3 of the near-degenerate cubic rather than taken from the
scattered roots, and a nilpotent matrix reports three exact zeros.

The kernel runs on Python scalars: ``eigen`` reads W once into three rows of
Python complex (an ndarray through ``tolist``, any other array-like by
iteration), rejects a non-finite entry, divides W by the power of two of its
largest real or imaginary part (exact, so no decision depends on the scale of
W and nothing overflows in between), and validates W, forms the
characteristic coefficients, tests W^2 and takes ranks on those nine numbers,
with no numpy call; the eigenvalues are scaled back at the end.
``_duad_read`` reads the covariant duad matrix and its blocks once from the
stored rows of Python floats, and the raised entries only when asked:
``classification_report`` computes its residuals on them, and the functions
that return arrays wrap them with no numpy arithmetic, importing numpy only
when called. ``blocks`` reads its input through the same reader as
``RiemannComponents``, so it needs numpy only to return its three arrays.
``tol`` and the floors below are the same thresholds applied to those scalars.

``tol`` is relative to the max-norm of W and plays three roles: the symmetry
and trace validation threshold, the rank threshold, and a lower bound on the
floors _ZERO_FLOOR, _PAIR_FLOOR and _W2_FLOOR; _P_FLOOR guards the closed-form
repeated root, and ``blocks`` rejects a non-finite entry and checks its block
relation at symcore.INGEST_TOL.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Optional, Union

from .symcore import (
    DUAD_PAIRS,
    INGEST_TOL,
    METRIC_SIGNATURE,
    PairBasis,
    RiemannComponents,
    _cyclic_residual,
    _float_rows,
    _ndarray,
    _pair_rows,
    _ricci_max,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-9
#: eta^aa eta^bb for each duad (a, b): the factor that raises the first pair.
_RAISING = tuple(float(METRIC_SIGNATURE[a] * METRIC_SIGNATURE[b]) for a, b in DUAD_PAIRS)


class PetrovType(Enum):
    I = "I"
    II = "II"
    D = "D"
    III = "III"
    N = "N"
    O = "O"


class BlockInconsistency(ValueError):
    """Lower-left block is not minus the transpose of the upper-right one."""


class NotSymmetric(ValueError):
    pass


class NotTraceless(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SixMatrix:
    """6x6 pair matrix in duad order.

    ``entries`` has the first duad raised with the frame metric (duads
    containing index 0 pick up a factor -1); ``covariant`` is the all-lowered
    symmetric form.
    """

    entries: np.ndarray
    covariant: np.ndarray


@dataclass(frozen=True, eq=False)
class Blocks:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


#: The six-matrix read once from LEX rows, as lists of Python floats: ``C``
#: covariant, the blocks psi ``p``, sigma ``s`` and lambda ``lam``, and
#: W = p + i s as rows of complex. The spatial duads are not raised
#: (``_RAISING[3:]`` is all 1.0), so ``s`` and ``lam`` are slices of ``C``.
class _DuadRead(namedtuple("_DuadRead", "C p s lam W")):
    __slots__ = ()

    @property
    def E(self) -> list[list[float]]:
        """The six-matrix entries: ``C`` with the first duad raised, built on each access."""
        return [[r * x for x in row] for r, row in zip(_RAISING, self.C)]


def _duad_read(rows) -> _DuadRead:
    C = _pair_rows(rows, PairBasis.DUAD)
    p = [row[:3] for row in C[:3]]
    s = [row[:3] for row in C[3:]]
    lam = [row[3:] for row in C[3:]]
    W = tuple(tuple(x + 1j * y for x, y in zip(pr, sr)) for pr, sr in zip(p, s))
    return _DuadRead(C, p, s, lam, W)


def assemble_six_matrix(R: RiemannComponents) -> SixMatrix:
    d = _duad_read(R.rows)
    return SixMatrix(entries=_ndarray(d.E), covariant=_ndarray(d.C))


def blocks(S: Union[SixMatrix, np.ndarray]) -> Blocks:
    """Split a 6x6 matrix (``S.entries``, or ``S`` itself as any input
    ``RiemannComponents`` reads) into its 3x3 quarters, rejecting a non-finite
    entry and checking the block relation at INGEST_TOL."""
    E = _float_rows(S.entries if isinstance(S, SixMatrix) else S)
    if not all(map(math.isfinite, sum(E, ()))):
        raise ValueError("matrix must be finite")
    if max(abs(E[3 + i][j] + E[j][3 + i]) for i in range(3) for j in range(3)) > INGEST_TOL:
        raise BlockInconsistency("lower-left block deviates from -B^T")
    M = _ndarray(E)
    return Blocks(M[:3, :3].copy(), M[:3, 3:].copy(), M[3:, 3:].copy())


def trace_b(S: Union[SixMatrix, np.ndarray]) -> float:
    """Trace of the upper-right block of ``S.entries``, or of ``S`` itself (any
    6x6 nested sequence); the cyclic identity makes it vanish."""
    E = S.entries if isinstance(S, SixMatrix) else S
    return float(E[0][3] + E[1][4] + E[2][5])


def psi(R: RiemannComponents) -> np.ndarray:
    """3x3 matrix of the doubly-temporal components R_0a0b: the covariant
    temporal-duad block of the six-matrix, symmetric by the block symmetry."""
    return _ndarray(_duad_read(R.rows).p)


def sigma(R: RiemannComponents) -> np.ndarray:
    """Half the antisymmetric-triple contraction 1/2 eps_agd R^{gd}_{0b}; the
    two oriented terms per entry are equal, so this is the raised
    spatial-by-temporal block of the six-matrix."""
    return _ndarray(_duad_read(R.rows).s)


def lambda_mat(R: RiemannComponents) -> np.ndarray:
    """Quarter of the double antisymmetric-triple contraction of the all-raised
    spatial components, which collapses to the double-duad block."""
    return _ndarray(_duad_read(R.rows).lam)


def omega(R: RiemannComponents) -> np.ndarray:
    """Complex combination psi + i*sigma; symmetric and traceless for
    Bianchi-enforced, contraction-free input."""
    return _ndarray(_duad_read(R.rows).W)


@dataclass(frozen=True)
class DistinctEigenvalue:
    value: complex
    algebraic: int
    geometric: int


@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalues, their multiplicities and the Petrov type, all read off one
    decision.

    A repeated root is listed once per algebraic multiplicity: three exact
    zeros for O, N and III, and (lambda, lambda, simple) for D and II, the
    simple root being fixed by the trace. ``nilpotency_degree`` is set only
    when all eigenvalues vanish: 1 for the zero matrix, otherwise the least
    power annihilating the matrix.
    """

    eigenvalues: tuple[complex, complex, complex]
    distinct: tuple[DistinctEigenvalue, ...]
    nilpotency_degree: Optional[int]
    petrov_type: PetrovType


def _depressed(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    # x = t - a/3 turns x^3 + a x^2 + b x + c into t^3 + p t + q
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    return p, q


def _cubic_roots(a: complex, b: complex, c: complex) -> tuple[complex, complex, complex]:
    # roots of x^3 + a x^2 + b x + c, complex Cardano
    shift = a / 3.0
    p, q = _depressed(a, b, c)
    s = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + s
    if abs(-q / 2.0 - s) > abs(u3):
        u3 = -q / 2.0 - s
    if u3 == 0:
        # p == q == 0: triple root
        r = -shift
        return (r, r, r)
    u = u3 ** (1.0 / 3.0)
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * w**k
        roots.append(uk - p / (3.0 * uk) - shift)
    return tuple(roots)


def _rank_modulus_pivot(A, thresh: float) -> int:
    # full modulus pivoting on a list copy of the rows; fine at 3x3
    M = [list(row) for row in A]
    rows = [0, 1, 2]
    cols = [0, 1, 2]
    rank = 0
    while rows and cols:
        i_best, j_best, best = rows[0], cols[0], -1.0
        for i in rows:
            for j in cols:
                if abs(M[i][j]) > best:
                    i_best, j_best, best = i, j, abs(M[i][j])
        if best <= thresh:
            break
        rank += 1
        pivot = M[i_best]
        for i in rows:
            if i != i_best:
                f = M[i][j_best] / pivot[j_best]
                M[i] = [x - f * y for x, y in zip(M[i], pivot)]
        rows.remove(i_best)
        cols.remove(j_best)
    return rank


def _rows(W) -> tuple[tuple[complex, ...], ...]:
    # W read once into three rows of Python complex: an ndarray through
    # tolist, any other array-like by iteration
    if hasattr(W, "tolist"):
        W = W.tolist()
    try:
        M = tuple(tuple(map(complex, row)) for row in W)
    except TypeError:
        raise ValueError("expected a 3x3 matrix") from None
    if len(M) != 3 or any(len(row) != 3 for row in M):
        raise ValueError("expected a 3x3 matrix")
    return M


def _normalised(W) -> tuple[tuple[tuple[complex, ...], ...], int]:
    # the rows of W, checked finite and divided by 2**k, the power of two of its
    # largest real or imaginary part; ldexp is exact and keeps signed zeros,
    # so every decision below sees the same numbers at any scale of W
    M = _rows(W)
    flat = M[0] + M[1] + M[2]
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("matrix must be finite")
    k = math.frexp(max([abs(x) for z in flat for x in (z.real, z.imag)]))[1]
    if k:
        flat = [complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)) for z in flat]
        M = (tuple(flat[:3]), tuple(flat[3:6]), tuple(flat[6:]))
    return M, k


def _validated(M, tol: float) -> float:
    scale = max(abs(z) for row in M for z in row)
    if scale > 0.0:
        (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = M
        if max(abs(w01 - w10), abs(w02 - w20), abs(w12 - w21)) > tol * scale:
            raise NotSymmetric("matrix is not symmetric within tolerance")
        if abs(w00 + w11 + w22) > tol * scale:
            raise NotTraceless("matrix trace exceeds tolerance")
    return scale


def _times_power_of_two(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _square(M):
    return [[sum(M[i][k] * M[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _char_coeffs(M) -> tuple[complex, complex, complex]:
    """Monic characteristic coefficients (a, b, c) of x^3 + a x^2 + b x + c,
    from trace, second invariant and determinant."""
    (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = M
    e1 = 0.0 + w00 + w11 + w22  # from 0.0 like numpy's trace, so a zero trace keeps its sign
    tr2 = (
        (w00 * w00 + w01 * w10 + w02 * w20)
        + (w10 * w01 + w11 * w11 + w12 * w21)
        + (w20 * w02 + w21 * w12 + w22 * w22)
    )
    e2 = (e1 * e1 - tr2) / 2.0
    e3 = (
        w00 * (w11 * w22 - w12 * w21)
        - w01 * (w10 * w22 - w12 * w20)
        + w02 * (w10 * w21 - w11 * w20)
    )
    return -e1, e2, -e3


# Relative accuracy floors for eigenvalue-coincidence decisions: a float cubic
# determines a double root to ~sqrt(eps) and a triple root to ~cbrt(eps), so
# sharper coincidence tests would misread exact repeated structure as distinct.
# Measured worst cases for conjugated repeated-root fixtures: 5e-8 and 8e-6.
_PAIR_FLOOR = 5e-7
_ZERO_FLOOR = 1e-4
_W2_FLOOR = 1e-13  # rounding leaves a few eps * scale^2 in W^2 of an exact type-N W
_P_FLOOR = 1e-12  # |p| / scale^2 below it is rounding level: -3q/(2p) would be noise


def eigen(W, tol: float = DEFAULT_TOL) -> EigenSolution:
    """Eigenstructure and Petrov type of a symmetric traceless complex 3x3
    matrix, decided once per the module decision table.

    Thresholds are relative to the max-norm of W. When every root lies within
    max(tol, _ZERO_FLOOR) of zero, W is nilpotent and the W^2 test at
    max(tol, _W2_FLOOR) separates N from III. Otherwise the closest root pair
    within max(tol, _PAIR_FLOOR) is a candidate repeat; it is confirmed by the
    rank of W - lambda I at tol (1 gives D, 2 gives II), and a candidate that
    fails the rank test falls back to three distinct roots, type I.

    W is first divided by the power of two of its largest real or imaginary
    part, exactly, and the eigenvalues are multiplied back at the end: every
    decision is made on entries of magnitude below 1, so no intermediate
    overflows or underflows, and W and 2**j * W get the same type and
    eigenvalues scaled by 2**j whenever both are finite and free of
    subnormal rounding.

    Raises NotSymmetric or NotTraceless when W fails validation at tol, and
    OverflowError when an eigenvalue exceeds the float range.
    """
    M, k = _normalised(W)
    values, distinct, degree, ptype = _decide(M, _validated(M, tol), tol)
    if k:
        try:
            values = tuple(_times_power_of_two(z, k) for z in values)
            distinct = [(_times_power_of_two(z, k), alg, geo) for z, alg, geo in distinct]
        except OverflowError:
            raise OverflowError("eigenvalues exceed the float range") from None
    return EigenSolution(values, tuple(DistinctEigenvalue(*d) for d in distinct), degree, ptype)


def _decide(M, scale: float, tol: float):
    # the module decision table on normalised rows M of max-norm ``scale``:
    # (eigenvalues, (value, algebraic, geometric) per distinct one, degree, type)
    a, b, c = _char_coeffs(M)
    roots = _cubic_roots(a, b, c)
    if max(abs(r) for r in roots) <= max(tol, _ZERO_FLOOR) * scale:
        if scale == 0.0:
            degree, ptype = 1, PetrovType.O
        elif max(abs(z) for row in _square(M) for z in row) <= max(tol, _W2_FLOOR) * scale * scale:
            degree, ptype = 2, PetrovType.N
        else:
            degree, ptype = 3, PetrovType.III
        zero = (0j, 3, 3 - _rank_modulus_pivot(M, tol * scale))
        return (0j, 0j, 0j), (zero,), degree, ptype
    pairs = [(abs(roots[i] - roots[j]), i, j) for i in range(3) for j in range(i + 1, 3)]
    dmin, i, j = min(pairs)
    if dmin <= max(tol, _PAIR_FLOOR) * scale:
        p, q = _depressed(a, b, c)
        if abs(p) > _P_FLOOR * scale * scale:
            repeated = -3.0 * q / (2.0 * p) - a / 3.0
        else:
            repeated = (roots[i] + roots[j]) / 2.0
        shifted = [list(row) for row in M]
        for k in range(3):
            shifted[k][k] -= repeated
        rank = _rank_modulus_pivot(shifted, tol * scale)
        if rank in (1, 2):
            simple = -a - 2.0 * repeated
            return (
                (repeated, repeated, simple),
                ((repeated, 2, 3 - rank), (simple, 1, 1)),
                None,
                PetrovType.D if rank == 1 else PetrovType.II,
            )
    return roots, tuple((r, 1, 1) for r in roots), None, PetrovType.I


def classify(W, tol: float = DEFAULT_TOL) -> PetrovType:
    """Petrov type of the complex matrix: the type ``eigen`` decides."""
    return eigen(W, tol).petrov_type


def classification_report(R: RiemannComponents, tol: float = DEFAULT_TOL) -> dict:
    """Everything the classify command reports: the type with the eigen data
    that decided it, and the residuals of the contraction-free relations."""
    _, p, s, lam, W = _duad_read(R.rows)
    sol = eigen(W, tol)
    return {
        "petrov_type": sol.petrov_type.value,
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in sol.eigenvalues],
        "multiplicities": [
            {
                "eigenvalue": {"re": d.value.real, "im": d.value.imag},
                "algebraic": d.algebraic,
                "geometric": d.geometric,
            }
            for d in sol.distinct
        ],
        "nilpotency_degree": sol.nilpotency_degree,
        "residuals": {
            "trace_psi": abs(p[0][0] + p[1][1] + p[2][2]),
            "sigma_asymmetry": max(abs(s[i][j] - s[j][i]) for i, j in ((0, 1), (0, 2), (1, 2))),
            "psi_plus_lambda": max(abs(x + y) for pr, lr in zip(p, lam) for x, y in zip(pr, lr)),
            "trace_omega": abs(W[0][0] + W[1][1] + W[2][2]),
            "bianchi": abs(_cyclic_residual(R.rows)),
            "ricci_max": _ricci_max(R.rows),
        },
    }
