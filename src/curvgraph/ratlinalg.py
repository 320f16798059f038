"""Exact linear algebra over the rationals.

One Gaussian elimination, ``_echelon``, on one row format: sparse
``{column: coefficient}`` rows. ``rank_sparse`` counts its pivots for the
dimension-counting oracle, and ``nullspace`` back-substitutes them, one
vector per free column, for the Weyl-sector basis. All entries are
``fractions.Fraction``; no floating point enters any rank or nullspace
decision.
"""
from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def _echelon(rows) -> dict[int, dict[int, Fraction]]:
    """{pivot column: row normalised to a leading 1} of ``{column:
    coefficient}`` rows, by plain forward elimination. Each pivot row holds
    only columns from its pivot on. Rows may repeat or be dependent; they
    simply reduce to nothing."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for raw in rows:
        row = {c: Fraction(v) for c, v in raw.items() if v != 0}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                lead = row[col]
                pivots[col] = {c: v / lead for c, v in row.items()}
                break
            factor = row[col]
            for c, v in piv.items():
                acc = row.get(c, _ZERO) - factor * v
                if acc:
                    row[c] = acc
                else:
                    row.pop(c, None)
    return pivots


def rank_sparse(rows) -> int:
    """Rank of a sparse rational matrix given as ``{column: coefficient}`` rows."""
    return len(_echelon(rows))


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Nullspace basis of a rational matrix with ``ncols`` columns, given as
    ``{column: coefficient}`` rows.

    Returns one basis vector per free column, in column order, each a list of
    ``ncols`` Fractions: 1 at its free column, 0 at the other free columns,
    and at the pivot columns the values that solve the echelon rows. That is
    the basis the reduced row echelon form reads off, which is unique. The
    basis is exact; callers may convert to float afterwards. A column outside
    ``0..ncols-1`` raises ValueError naming its row.
    """
    rows = list(rows)
    for i, row in enumerate(rows):
        for c in row:
            if not 0 <= c < ncols:
                raise ValueError(f"row {i} has column {c}, but the matrix has {ncols} columns")
    pivots = _echelon(rows)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = [_ZERO] * ncols
            vec[free] = Fraction(1)
            # back-substitute from the last pivot up, over the entries already
            # nonzero: vec[col] itself is still zero, so the leading 1 drops out
            for col in sorted(pivots, reverse=True):
                vec[col] = -sum((v * vec[c] for c, v in pivots[col].items() if vec[c]), _ZERO)
            basis.append(vec)
    return basis
