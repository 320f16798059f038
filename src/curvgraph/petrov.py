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

``tol`` is relative to the max-norm of W and plays three roles: the symmetry
and trace validation threshold, the rank threshold, and a lower bound on the
floors _ZERO_FLOOR, _PAIR_FLOOR and _W2_FLOOR; _P_FLOOR guards the closed-form
repeated root, and ``blocks`` checks its block relation at symcore.INGEST_TOL.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .symcore import (
    DUAD_PAIRS,
    INGEST_TOL,
    METRIC_SIGNATURE,
    PairBasis,
    RiemannComponents,
    cyclic_sum,
    pair_matrix,
    ricci_matrix,
)

DEFAULT_TOL = 1e-9
#: eta^aa eta^bb for each duad (a, b): the factor that raises the first pair.
_RAISING = np.array([float(METRIC_SIGNATURE[a] * METRIC_SIGNATURE[b]) for a, b in DUAD_PAIRS])


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


def assemble_six_matrix(R: RiemannComponents) -> SixMatrix:
    cov = pair_matrix(R, PairBasis.DUAD)
    return SixMatrix(entries=_RAISING[:, None] * cov, covariant=cov)


def _entries(S: Union[SixMatrix, np.ndarray]) -> np.ndarray:
    return S.entries if isinstance(S, SixMatrix) else np.asarray(S, dtype=float)


def blocks(S: Union[SixMatrix, np.ndarray]) -> Blocks:
    """Split a 6x6 matrix into its 3x3 quarters, checking the block relation at INGEST_TOL."""
    E = _entries(S)
    if E.shape != (6, 6):
        raise ValueError("expected a 6x6 matrix")
    b = E[:3, 3:]
    if float(np.abs(E[3:, :3] + b.T).max()) > INGEST_TOL:
        raise BlockInconsistency("lower-left block deviates from -B^T")
    return Blocks(E[:3, :3].copy(), b.copy(), E[3:, 3:].copy())


def trace_b(S: Union[SixMatrix, np.ndarray]) -> float:
    """Trace of the upper-right block; the cyclic identity makes it vanish."""
    E = _entries(S)
    return float(E[0, 3] + E[1, 4] + E[2, 5])


def psi(R: RiemannComponents) -> np.ndarray:
    """3x3 matrix of the doubly-temporal components R_0a0b: the covariant
    temporal-duad block of the six-matrix, symmetric by the block symmetry."""
    return assemble_six_matrix(R).covariant[:3, :3]


def sigma(R: RiemannComponents) -> np.ndarray:
    """Half the antisymmetric-triple contraction 1/2 eps_agd R^{gd}_{0b}; the
    two oriented terms per entry are equal, so this is the raised
    spatial-by-temporal block of the six-matrix."""
    return assemble_six_matrix(R).entries[3:, :3]


def lambda_mat(R: RiemannComponents) -> np.ndarray:
    """Quarter of the double antisymmetric-triple contraction of the all-raised
    spatial components, which collapses to the double-duad block."""
    return assemble_six_matrix(R).entries[3:, 3:]


def omega(R: RiemannComponents) -> np.ndarray:
    """Complex combination psi + i*sigma; symmetric and traceless for
    Bianchi-enforced, contraction-free input."""
    S = assemble_six_matrix(R)
    return S.covariant[:3, :3] + 1j * S.entries[3:, :3]


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


def _rank_modulus_pivot(A: np.ndarray, thresh: float) -> int:
    # full modulus pivoting; fine at 3x3
    M = np.array(A, dtype=complex)
    rows = list(range(M.shape[0]))
    cols = list(range(M.shape[1]))
    rank = 0
    while rows and cols:
        i_best, j_best, best = rows[0], cols[0], -1.0
        for i in rows:
            for j in cols:
                if abs(M[i, j]) > best:
                    i_best, j_best, best = i, j, abs(M[i, j])
        if best <= thresh:
            break
        rank += 1
        for i in rows:
            if i != i_best:
                M[i, :] -= (M[i, j_best] / M[i_best, j_best]) * M[i_best, :]
        rows.remove(i_best)
        cols.remove(j_best)
    return rank


def _validated(W, tol: float) -> tuple[np.ndarray, float]:
    W = np.asarray(W, dtype=complex)
    if W.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    scale = float(np.abs(W).max())
    if scale > 0.0:
        if float(np.abs(W - W.T).max()) > tol * scale:
            raise NotSymmetric("matrix is not symmetric within tolerance")
        if abs(W.trace()) > tol * scale:
            raise NotTraceless("matrix trace exceeds tolerance")
    return W, scale


def _char_coeffs(W: np.ndarray) -> tuple[complex, complex, complex]:
    """Monic characteristic coefficients (a, b, c) of x^3 + a x^2 + b x + c,
    from trace, second invariant and determinant."""
    e1 = complex(W.trace())
    e2 = (e1 * e1 - complex((W @ W).trace())) / 2.0
    e3 = (
        W[0, 0] * (W[1, 1] * W[2, 2] - W[1, 2] * W[2, 1])
        - W[0, 1] * (W[1, 0] * W[2, 2] - W[1, 2] * W[2, 0])
        + W[0, 2] * (W[1, 0] * W[2, 1] - W[1, 1] * W[2, 0])
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

    Raises NotSymmetric or NotTraceless when W fails validation at tol.
    """
    W, scale = _validated(W, tol)
    a, b, c = _char_coeffs(W)
    roots = _cubic_roots(a, b, c)
    if max(abs(r) for r in roots) <= max(tol, _ZERO_FLOOR) * scale:
        if scale == 0.0:
            degree, ptype = 1, PetrovType.O
        elif float(np.abs(W @ W).max()) <= max(tol, _W2_FLOOR) * scale * scale:
            degree, ptype = 2, PetrovType.N
        else:
            degree, ptype = 3, PetrovType.III
        zero = DistinctEigenvalue(0j, 3, 3 - _rank_modulus_pivot(W, tol * scale))
        return EigenSolution((0j, 0j, 0j), (zero,), degree, ptype)
    pairs = [(abs(roots[i] - roots[j]), i, j) for i in range(3) for j in range(i + 1, 3)]
    dmin, i, j = min(pairs)
    if dmin <= max(tol, _PAIR_FLOOR) * scale:
        p, q = _depressed(a, b, c)
        if abs(p) > _P_FLOOR * scale * scale:
            repeated = -3.0 * q / (2.0 * p) - a / 3.0
        else:
            repeated = (roots[i] + roots[j]) / 2.0
        rank = _rank_modulus_pivot(W - repeated * np.eye(3), tol * scale)
        if rank in (1, 2):
            simple = -a - 2.0 * repeated
            return EigenSolution(
                (repeated, repeated, simple),
                (DistinctEigenvalue(repeated, 2, 3 - rank), DistinctEigenvalue(simple, 1, 1)),
                None,
                PetrovType.D if rank == 1 else PetrovType.II,
            )
    distinct = tuple(DistinctEigenvalue(r, 1, 1) for r in roots)
    return EigenSolution(roots, distinct, None, PetrovType.I)


def classify(W, tol: float = DEFAULT_TOL) -> PetrovType:
    """Petrov type of the complex matrix: the type ``eigen`` decides."""
    return eigen(W, tol).petrov_type


def classification_report(R: RiemannComponents, tol: float = DEFAULT_TOL) -> dict:
    """Everything the classify command reports: the type with the eigen data
    that decided it, and the residuals of the contraction-free relations."""
    S = assemble_six_matrix(R)
    p, s, lam = S.covariant[:3, :3], S.entries[3:, :3], S.entries[3:, 3:]
    W = p + 1j * s
    sol = eigen(W, tol)
    ric = ricci_matrix(R)
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
            "trace_psi": abs(float(np.trace(p))),
            "sigma_asymmetry": float(np.abs(s - s.T).max()),
            "psi_plus_lambda": float(np.abs(p + lam).max()),
            "trace_omega": abs(complex(np.trace(W))),
            "bianchi": abs(cyclic_sum(R, (0, 1, 2, 3))),
            "ricci_max": float(np.abs(ric).max()),
        },
    }
