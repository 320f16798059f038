"""Exact Gaussian-rational oracle for the Petrov classifier (test support).

Every finite float is a dyadic rational, so a float matrix W is exactly a
matrix over Q(i). ``exact_type`` decides the Jordan-structure type of such a
matrix with ``Fraction`` arithmetic only: the characteristic coefficients,
the discriminant ``4p^3 + 27q^2`` of the depressed cubic, the double root
``-3q/(2p) - a/3``, the rank of ``W - lambda I`` through
``ratlinalg.rank_sparse`` on the real embedding ``[[A, -B], [B, A]]``, and
exact tests for ``W = 0`` and ``W^2 = 0``. It is an oracle for the float
decision of ``petrov.eigen``, not a second decision path of the library.

Matrices are 3x3 tuples of tuples of ``Gauss``.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from curvgraph import PetrovType
from curvgraph.ratlinalg import rank_sparse


class Gauss(namedtuple("Gauss", "re im")):
    """x + iy with Fraction parts: an exact element of Q(i)."""

    __slots__ = ()

    def __new__(cls, re=0, im=0):
        return super().__new__(cls, Fraction(re), Fraction(im))

    @classmethod
    def of(cls, z) -> Gauss:
        # exact: a float converts to the dyadic rational it holds
        if isinstance(z, Gauss):
            return z
        if isinstance(z, (int, Fraction)):
            return cls(z)
        z = complex(z)
        return cls(z.real, z.imag)

    def __add__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Gauss(-self.re, -self.im)

    def __sub__(self, other):
        return self + -Gauss.of(other)

    def __mul__(self, other):
        other = Gauss.of(other)
        return Gauss(self.re * other.re - self.im * other.im,
                     self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Gauss.of(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * Gauss(other.re / norm, -other.im / norm)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        # each part correctly rounded, as Fraction.__float__ rounds
        return complex(float(self.re), float(self.im))


ZERO, ONE = Gauss(0), Gauss(1)


def matrix(W) -> tuple:
    """The exact 3x3 matrix of a nested sequence or complex ndarray."""
    return tuple(tuple(Gauss.of(z) for z in row) for row in W)


def rounded(X) -> list:
    """float(X): each real and imaginary part rounded to the nearest float,
    as rows of complex."""
    return [[complex(z) for z in row] for row in X]


def identity() -> tuple:
    return tuple(tuple(ONE if i == j else ZERO for j in range(3)) for i in range(3))


def add(X, Y) -> tuple:
    return tuple(tuple(x + y for x, y in zip(rx, ry)) for rx, ry in zip(X, Y))


def scale(c, X) -> tuple:
    c = Gauss.of(c)
    return tuple(tuple(c * x for x in row) for row in X)


def matmul(X, Y) -> tuple:
    cols = tuple(zip(*Y))
    return tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in cols) for row in X)


def transpose(X) -> tuple:
    return tuple(zip(*X))


def det(X) -> Gauss:
    (a, b, c), (d, e, f), (g, h, i) = X
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def inverse(X) -> tuple:
    """Adjugate over determinant; ZeroDivisionError when X is singular."""
    d = det(X)
    if not d:
        raise ZeroDivisionError("singular matrix")
    cof = [[X[(r + 1) % 3][(c + 1) % 3] * X[(r + 2) % 3][(c + 2) % 3]
            - X[(r + 1) % 3][(c + 2) % 3] * X[(r + 2) % 3][(c + 1) % 3]
            for c in range(3)] for r in range(3)]
    return tuple(tuple(cof[c][r] / d for c in range(3)) for r in range(3))


def cayley(k1, k2, k3) -> tuple:
    """Q = (I - K)(I + K)^-1 for the skew K with entries k1, k2, k3, which
    satisfies Q Q^T = I exactly; ZeroDivisionError when I + K is singular."""
    k1, k2, k3 = map(Gauss.of, (k1, k2, k3))
    K = ((ZERO, -k3, k2), (k3, ZERO, -k1), (-k2, k1, ZERO))
    I = identity()
    return matmul(add(I, scale(-1, K)), inverse(add(I, K)))


def char_coeffs(X):
    """(a, b, c) with det(lambda I - X) = lambda^3 + a lambda^2 + b lambda + c."""
    a = -(X[0][0] + X[1][1] + X[2][2])
    b = sum((X[r][r] * X[c][c] - X[r][c] * X[c][r] for r, c in ((0, 1), (0, 2), (1, 2))), ZERO)
    return a, b, -det(X)


def depressed(a, b, c):
    """(p, q) of the depressed cubic mu^3 + p mu + q, with lambda = mu - a/3."""
    return b - a * a / 3, 2 * a * a * a / 27 - a * b / 3 + c


def discriminant(p, q) -> Gauss:
    """4p^3 + 27q^2: zero exactly when the cubic has a repeated root."""
    return 4 * p * p * p + 27 * q * q


def double_root(a, p, q) -> Gauss:
    """The repeated root when the discriminant is zero and p is not."""
    return -3 * q / (2 * p) - a / 3


def rank(X) -> int:
    """Complex rank of X: half the rank of the real embedding [[A, -B], [B, A]]."""
    rows = []
    for row in X:
        rows.append({c: v for j, z in enumerate(row) for c, v in ((j, z.re), (j + 3, -z.im))})
    for row in X:
        rows.append({c: v for j, z in enumerate(row) for c, v in ((j, z.im), (j + 3, z.re))})
    return rank_sparse(rows) // 2


def is_zero(X) -> bool:
    return not any(z for row in X for z in row)


def exact_type(X) -> PetrovType:
    """The type of the exact 3x3 matrix X by its Jordan structure, as the
    decision table of ``petrov.eigen`` reads it: three distinct roots give I;
    a double root gives D when rank(X - lambda I) is 1 and II when it is 2; a
    triple root lambda gives O, N or III as N = X - lambda I has N = 0,
    N^2 = 0 or neither."""
    X = matrix(X)
    a, b, c = char_coeffs(X)
    p, q = depressed(a, b, c)
    if discriminant(p, q):
        return PetrovType.I
    if p:
        lam = double_root(a, p, q)
        return PetrovType.D if rank(add(X, scale(-lam, identity()))) == 1 else PetrovType.II
    nil = add(X, scale(a / 3, identity()))  # the triple root is -a/3
    if is_zero(nil):
        return PetrovType.O
    return PetrovType.N if is_zero(matmul(nil, nil)) else PetrovType.III
