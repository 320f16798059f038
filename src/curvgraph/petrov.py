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
Python complex through ``symcore._square_rows``, the reader of
``RiemannComponents`` (an ndarray, or a list or tuple of list, tuple or
ndarray rows), which names the first fault of an input it cannot read and
refuses a non-finite entry. It then divides W by the power of two of its
largest real or imaginary part (exact, so no decision depends on the scale of
W and nothing overflows in between), and validates W, forms the
characteristic coefficients, tests W^2 and takes ranks on those nine numbers,
with no numpy call; the eigenvalues are scaled back at the end. That kernel,
``_eigen_rows``, is straight-line code on the nine entries, unpacked into
locals: it runs no generator or Python-level loop, and the cube roots of unity
are module constants. It returns plain tuples, which ``eigen`` wraps in its
records; ``classification_report`` runs it on the rows of W it built itself,
which need no second read.
``_duad_read`` gathers from the stored rows of Python floats only the 27 duad
entries the classify path uses, psi, sigma and lambda, through one table
derived from ``symcore._PAIR_ROUTES``, and forms W = psi + i sigma as
``x + 1j * y``, the expression that fixes the sign of a zero real part.
``classification_report`` computes its residuals on those values by direct
indexing, and ``psi``, ``sigma``, ``lambda_mat`` and ``omega`` wrap them with
no numpy arithmetic, importing numpy only when called. The full six-matrix of
``assemble_six_matrix`` and of the ``check`` and ``matrix`` commands comes
from ``symcore._pair_rows``, and its entries from ``_raised``. ``blocks``
reads its input through the same reader as ``RiemannComponents``, which
checks it finite, so it needs numpy only to return its three arrays. ``tol``
and the floors below are the same thresholds applied to those scalars.

The records are namedtuples, so importing this module does not import
``dataclasses``: ``DistinctEigenvalue`` and ``EigenSolution`` are equal and
hashed by their fields, while ``SixMatrix`` and ``Blocks`` hold ndarrays and
are equal and hashed by identity.

``tol`` must be a finite int or float > 0: ``eigen``, ``classify`` and
``classification_report`` check it where it enters and raise ValueError
otherwise. It is relative to the max-norm of W and plays three roles: the
symmetry and trace validation threshold, the rank threshold, and a lower bound
on the floors _ZERO_FLOOR, _PAIR_FLOOR and _W2_FLOOR; _P_FLOOR guards the
closed-form repeated root, and ``blocks`` checks its block relation at
symcore.INGEST_TOL.
"""
from __future__ import annotations

import cmath
import math
import operator
import sys
from collections import namedtuple
from enum import Enum

from .symcore import (
    DUAD_PAIRS,
    INGEST_TOL,
    METRIC_SIGNATURE,
    PairBasis,
    RiemannComponents,
    _PAIR_ROUTES,
    _cyclic_residual,
    _ndarray,
    _pair_rows,
    _ricci_max,
    _ricci_upper,
    _square_rows,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from typing import Union

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


class _ByIdentity:
    # equality and hash by identity: a tuple of ndarrays compares its fields,
    # and an ndarray comparison has no single truth value
    __slots__ = ()
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other


class SixMatrix(_ByIdentity, namedtuple("SixMatrix", "entries covariant")):
    """6x6 pair matrix in duad order, as two float ndarrays.

    ``entries`` has the first duad raised with the frame metric (duads
    containing index 0 pick up a factor -1); ``covariant`` is the all-lowered
    symmetric form.
    """

    __slots__ = ()


class Blocks(_ByIdentity, namedtuple("Blocks", "a b c")):
    """The upper-left, upper-right and lower-right 3x3 quarters of a 6x6
    matrix, as float ndarrays."""

    __slots__ = ()


#: (s, t, sign) of the 27 duad entries the classify path reads, each block
#: row-major: psi (pairs 0-2 against 0-2), sigma (3-5 against 0-2) and lambda
#: (3-5 against 3-5). The spatial duads are not raised (``_RAISING[3:]`` is
#: all 1.0), so sigma and lambda are covariant entries too.
_DUAD_READ = tuple(_PAIR_ROUTES[PairBasis.DUAD][i0 + i][j0 + j]
                   for i0, j0 in ((0, 0), (3, 0), (3, 3)) for i in range(3) for j in range(3))


def _duad_read(rows):
    # psi, sigma and lambda read from LEX ``rows`` as 27 floats, and
    # W = psi + i sigma as three rows of complex
    v = [sign * rows[s][t] for s, t, sign in _DUAD_READ]
    W = [x + 1j * y for x, y in zip(v, v[9:18])]
    return v, (W[:3], W[3:6], W[6:])


def _raised(C) -> list[list[float]]:
    # the six-matrix entries: the covariant duad matrix C with the first duad raised
    return [[r * x for x in row] for r, row in zip(_RAISING, C)]


def assemble_six_matrix(R: RiemannComponents) -> SixMatrix:
    C = _pair_rows(R.rows, PairBasis.DUAD)
    return SixMatrix(entries=_ndarray(_raised(C)), covariant=_ndarray(C))


def blocks(S: Union[SixMatrix, np.ndarray]) -> Blocks:
    """Split a 6x6 matrix (``S.entries``, or ``S`` itself as any input
    ``RiemannComponents`` reads, with the reader's errors, a non-finite entry
    included) into its 3x3 quarters, checking the block relation at
    INGEST_TOL."""
    E = _square_rows(S.entries if isinstance(S, SixMatrix) else S, 6, float)
    if max(abs(E[3 + i][j] + E[j][3 + i]) for i in range(3) for j in range(3)) > INGEST_TOL:
        raise BlockInconsistency("lower-left block deviates from -B^T")
    M = _ndarray(E)
    return Blocks(M[:3, :3].copy(), M[:3, 3:].copy(), M[3:, 3:].copy())


def trace_b(S: Union[SixMatrix, np.ndarray]) -> float:
    """Trace of the upper-right block of ``S.entries``, or of ``S`` itself (any
    input ``blocks`` reads, with the same errors); the cyclic identity makes it
    vanish."""
    E = _square_rows(S.entries if isinstance(S, SixMatrix) else S, 6, float)
    return _trace_upper_right(E)


def _trace_upper_right(E) -> float:
    return E[0][3] + E[1][4] + E[2][5]


def psi(R: RiemannComponents) -> np.ndarray:
    """3x3 matrix of the doubly-temporal components R_0a0b: the covariant
    temporal-duad block of the six-matrix, symmetric by the block symmetry."""
    return _ndarray(_duad_read(R.rows)[0][:9]).reshape(3, 3)


def sigma(R: RiemannComponents) -> np.ndarray:
    """Half the antisymmetric-triple contraction 1/2 eps_agd R^{gd}_{0b}; the
    two oriented terms per entry are equal, so this is the raised
    spatial-by-temporal block of the six-matrix."""
    return _ndarray(_duad_read(R.rows)[0][9:18]).reshape(3, 3)


def lambda_mat(R: RiemannComponents) -> np.ndarray:
    """Quarter of the double antisymmetric-triple contraction of the all-raised
    spatial components, which collapses to the double-duad block."""
    return _ndarray(_duad_read(R.rows)[0][18:]).reshape(3, 3)


def omega(R: RiemannComponents) -> np.ndarray:
    """Complex combination psi + i*sigma; symmetric and traceless for
    Bianchi-enforced, contraction-free input."""
    return _ndarray(_duad_read(R.rows)[1])


class DistinctEigenvalue(namedtuple("DistinctEigenvalue", "value algebraic geometric")):
    """A distinct eigenvalue (complex) with its algebraic and geometric
    multiplicities (ints)."""

    __slots__ = ()


class EigenSolution(
    namedtuple("EigenSolution", "eigenvalues distinct nilpotency_degree petrov_type")
):
    """Eigenvalues, their multiplicities and the Petrov type, all read off one
    decision.

    ``eigenvalues`` is a 3-tuple of complex: a repeated root is listed once
    per algebraic multiplicity, three exact zeros for O, N and III, and
    (lambda, lambda, simple) for D and II, the simple root being fixed by the
    trace. ``distinct`` is a tuple of DistinctEigenvalue. ``nilpotency_degree``
    is set only when all eigenvalues vanish: 1 for the zero matrix, otherwise
    the least power annihilating the matrix; else None. ``petrov_type`` is a
    PetrovType.
    """

    __slots__ = ()


def _depressed(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    # x = t - a/3 turns x^3 + a x^2 + b x + c into t^3 + p t + q
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    return p, q


#: The cube roots of unity w**k, k = 0, 1, 2, for w = exp(2 pi i / 3), as
#: complex powers compute them.
_UNITY = tuple(complex(-0.5, math.sqrt(3.0) / 2.0) ** k for k in range(3))


def _cubic_roots(a: complex, p: complex, q: complex) -> tuple[complex, complex, complex]:
    # roots of x^3 + a x^2 + b x + c by complex Cardano, from its depressed
    # coefficients (p, q) = _depressed(a, b, c)
    shift = a / 3.0
    h = -q / 2.0
    s = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = h + s
    if abs(h - s) > abs(u3):
        u3 = h - s
    if u3 == 0:
        # p == q == 0: triple root
        return -shift, -shift, -shift
    u = u3 ** (1.0 / 3.0)
    u0, u1, u2 = u * _UNITY[0], u * _UNITY[1], u * _UNITY[2]
    return u0 - p / (3.0 * u0) - shift, u1 - p / (3.0 * u1) - shift, u2 - p / (3.0 * u2) - shift


#: The two other indices of each of 0, 1 and 2, in increasing order.
_OTHER_TWO = ((1, 2), (0, 2), (0, 1))


def _rank_modulus_pivot(A, thresh: float) -> int:
    # full modulus pivoting on the rows of A: each pivot is the first entry of
    # largest modulus, row-major, among the rows and columns not yet used
    mods = list(map(abs, (*A[0], *A[1], *A[2])))
    if max(mods) <= thresh:
        return 0
    r, c = divmod(mods.index(max(mods)), 3)
    (i, k), (j, m), p = _OTHER_TWO[r], _OTHER_TWO[c], A[r]  # p: the pivot row
    fi, fk = A[i][c] / p[c], A[k][c] / p[c]
    # the 2x2 block left after the first elimination, row-major
    b = (A[i][j] - fi * p[j], A[i][m] - fi * p[m], A[k][j] - fk * p[j], A[k][m] - fk * p[m])
    mods = list(map(abs, b))
    if max(mods) <= thresh:
        return 1
    n = mods.index(max(mods))  # n ^ 1 shares its row, n ^ 2 its column, 3 - n neither
    return 3 if abs(b[3 - n] - b[n ^ 2] / b[n] * b[n ^ 1]) > thresh else 2


def _normalised(M) -> tuple[tuple[tuple[complex, ...], ...], int]:
    # three rows of three finite complex divided by 2**k, the power of two of
    # their largest real or imaginary part; ldexp is exact and keeps signed
    # zeros, so every decision below sees the same numbers at any scale
    (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = M
    k = math.frexp(max(abs(w00.real), abs(w00.imag), abs(w01.real), abs(w01.imag), abs(w02.real),
                       abs(w02.imag), abs(w10.real), abs(w10.imag), abs(w11.real), abs(w11.imag),
                       abs(w12.real), abs(w12.imag), abs(w20.real), abs(w20.imag), abs(w21.real),
                       abs(w21.imag), abs(w22.real), abs(w22.imag)))[1]
    if k:
        M = ((_ldexp(w00, -k), _ldexp(w01, -k), _ldexp(w02, -k)),
             (_ldexp(w10, -k), _ldexp(w11, -k), _ldexp(w12, -k)),
             (_ldexp(w20, -k), _ldexp(w21, -k), _ldexp(w22, -k)))
    return M, k


def _validated(M, tol: float) -> float:
    (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = M
    scale = max(map(abs, (w00, w01, w02, w10, w11, w12, w20, w21, w22)))
    if scale > 0.0:
        if max(abs(w01 - w10), abs(w02 - w20), abs(w12 - w21)) > tol * scale:
            raise NotSymmetric("matrix is not symmetric within tolerance")
        if abs(w00 + w11 + w22) > tol * scale:
            raise NotTraceless("matrix trace exceeds tolerance")
    return scale


def _ldexp(z: complex, k: int) -> complex:
    # z * 2**k, exactly unless a part underflows or overflows (OverflowError)
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


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


def _checked_tol(tol) -> float:
    # the one check of ``tol``, made where it enters: ``eigen`` (so ``classify``)
    # and ``classification_report``
    if isinstance(tol, (int, float)) and not isinstance(tol, bool):
        if 0 < tol <= sys.float_info.max:
            return float(tol)
    raise ValueError(f"tol must be a finite number > 0, got {tol!r}")


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

    Raises ValueError unless tol is a finite int or float > 0, NotSymmetric
    or NotTraceless when W fails validation at tol, and OverflowError when an
    eigenvalue exceeds the float range.
    """
    tol = _checked_tol(tol)
    values, distinct, degree, ptype = _eigen_rows(_square_rows(W, 3, complex), tol)
    return EigenSolution(values, tuple(DistinctEigenvalue(*d) for d in distinct), degree, ptype)


def _eigen_rows(W, tol: float):
    # ``eigen`` on three rows of three complex already read and a checked tol:
    # (eigenvalues, (value, algebraic, geometric) per distinct one, degree, type)
    M, k = _normalised(W)
    try:
        return _decide(M, _validated(M, tol), tol, k)
    except OverflowError:
        raise OverflowError("eigenvalues exceed the float range") from None


def _decide(M, scale: float, tol: float, k: int):
    # the module decision table on normalised rows M of max-norm ``scale``:
    # (eigenvalues, (value, algebraic, geometric) per distinct one, degree,
    # type), the eigenvalues multiplied back by 2**k
    a, b, c = _char_coeffs(M)
    p, q = _depressed(a, b, c)
    r0, r1, r2 = _cubic_roots(a, p, q)
    (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = M
    if max(abs(r0), abs(r1), abs(r2)) <= max(tol, _ZERO_FLOOR) * scale:
        if scale == 0.0:
            degree, ptype = 1, PetrovType.O
        elif max(  # the entries of W^2, each summed in index order
            abs(w00 * w00 + w01 * w10 + w02 * w20), abs(w00 * w01 + w01 * w11 + w02 * w21),
            abs(w00 * w02 + w01 * w12 + w02 * w22), abs(w10 * w00 + w11 * w10 + w12 * w20),
            abs(w10 * w01 + w11 * w11 + w12 * w21), abs(w10 * w02 + w11 * w12 + w12 * w22),
            abs(w20 * w00 + w21 * w10 + w22 * w20), abs(w20 * w01 + w21 * w11 + w22 * w21),
            abs(w20 * w02 + w21 * w12 + w22 * w22),
        ) <= max(tol, _W2_FLOOR) * scale * scale:
            degree, ptype = 2, PetrovType.N
        else:
            degree, ptype = 3, PetrovType.III
        return (0j, 0j, 0j), ((0j, 3, 3 - _rank_modulus_pivot(M, tol * scale)),), degree, ptype
    d01, d02, d12 = abs(r0 - r1), abs(r0 - r2), abs(r1 - r2)
    if min(d01, d02, d12) <= max(tol, _PAIR_FLOOR) * scale:
        if abs(p) > _P_FLOOR * scale * scale:
            repeated = -3.0 * q / (2.0 * p) - a / 3.0
        else:  # the closest pair's midpoint, the first of (0, 1), (0, 2), (1, 2) on a tie
            x, y = (r0, r1) if d01 <= min(d02, d12) else (r0, r2) if d02 <= d12 else (r1, r2)
            repeated = (x + y) / 2.0
        shifted = (w00 - repeated, w01, w02), (w10, w11 - repeated, w12), (w20, w21, w22 - repeated)
        rank = _rank_modulus_pivot(shifted, tol * scale)
        if rank in (1, 2):
            simple, repeated = _ldexp(-a - 2.0 * repeated, k), _ldexp(repeated, k)
            distinct = (repeated, 2, 3 - rank), (simple, 1, 1)
            ptype = PetrovType.D if rank == 1 else PetrovType.II
            return (repeated, repeated, simple), distinct, None, ptype
    r0, r1, r2 = _ldexp(r0, k), _ldexp(r1, k), _ldexp(r2, k)
    return (r0, r1, r2), ((r0, 1, 1), (r1, 1, 1), (r2, 1, 1)), None, PetrovType.I


def classify(W, tol: float = DEFAULT_TOL) -> PetrovType:
    """Petrov type of the complex matrix: the type ``eigen`` decides."""
    return eigen(W, tol).petrov_type


def classification_report(R: RiemannComponents, tol: float = DEFAULT_TOL) -> dict:
    """Everything the classify command reports: the type with the eigen data
    that decided it, and the residuals of the contraction-free relations."""
    tol = _checked_tol(tol)
    v, W = _duad_read(R.rows)  # v: psi, sigma and lambda, each row-major
    values, distinct, degree, ptype = _eigen_rows(W, tol)
    return {
        "petrov_type": ptype.value,
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in values],
        "multiplicities": [
            {"eigenvalue": {"re": z.real, "im": z.imag}, "algebraic": alg, "geometric": geo}
            for z, alg, geo in distinct
        ],
        "nilpotency_degree": degree,
        "residuals": {
            "trace_psi": abs(v[0] + v[4] + v[8]),
            "sigma_asymmetry": max(abs(v[10] - v[12]), abs(v[11] - v[15]), abs(v[14] - v[16])),
            "psi_plus_lambda": max(map(abs, map(operator.add, v, v[18:]))),
            "trace_omega": abs(W[0][0] + W[1][1] + W[2][2]),
            "bianchi": abs(_cyclic_residual(R.rows)),
            "ricci_max": _ricci_max(_ricci_upper(R.rows)),
        },
    }
