"""Exact rational rank for the dimension-counting oracle.

One Gaussian elimination on one row format: sparse ``{column: coefficient}``
rows. All entries are ``fractions.Fraction``; no floating point enters a rank
decision.
"""
from __future__ import annotations

from fractions import Fraction

_ZERO = Fraction(0)


def rank_sparse(rows) -> int:
    """Rank of a sparse rational matrix given as ``{column: coefficient}`` rows,
    by plain forward elimination: each pivot row is normalised to a leading 1
    and holds only columns from its pivot on. Rows may repeat or be dependent;
    they simply reduce to nothing."""
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
    return len(pivots)
