"""The brute-force counting oracle: constraint rows and their exact rank.

``symmetry_space_dimension_oracle`` checks the count n^2(n^2 - 1)/12 of
``symcore.independent_component_count`` without the pair-slot storage: it
writes one sparse ``{column: coefficient}`` row per raw-component quad and
symmetry rule over all n**4 components, and takes the nullity of those rows
by one Gaussian elimination. All entries are ``fractions.Fraction``; no
floating point enters a rank decision. No command imports this module.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product

from .symcore import _integer

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


def _flat_index(quad, n):
    a, b, c, d = quad
    return ((a * n + b) * n + c) * n + d


def symmetry_constraint_rows(n: int):
    """Sparse constraint rows over all n**4 raw components.

    One row per quad and symmetry rule: both skew symmetries, the block
    symmetry, and the cyclic identity. Entirely independent of the pair-slot
    storage of ``symcore``; used only for exact-rank verification.
    """
    n = _integer(n, "n")
    rows = []
    for quad in product(range(n), repeat=4):
        a, b, c, d = quad
        for group in (
            ((quad, 1), ((b, a, c, d), 1)),
            ((quad, 1), ((a, b, d, c), 1)),
            ((quad, 1), ((c, d, a, b), -1)),
            ((quad, 1), ((a, c, d, b), 1), ((a, d, b, c), 1)),
        ):
            row: dict[int, int] = {}
            for q, coeff in group:
                col = _flat_index(q, n)
                row[col] = row.get(col, 0) + coeff
            row = {c: v for c, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def symmetry_space_dimension_oracle(n: int) -> int:
    """Nullity of the full constraint system, by exact rational elimination.

    Builds all n**4 coefficients and imposes every symmetry row exactly;
    the result must agree with ``independent_component_count``. Cost grows
    as n**4 rows, hence the small-n guard.
    """
    n = _integer(n, "n")
    if not 1 <= n <= 5:
        raise ValueError("oracle is restricted to 1 <= n <= 5")
    return n**4 - rank_sparse(symmetry_constraint_rows(n))
