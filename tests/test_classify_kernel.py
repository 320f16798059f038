"""The scalar classify kernel against a frozen copy of the kernel it replaced.

``classification_report`` reads only the 27 duad entries it uses, and the
kernel of ``eigen`` decides on straight-line code. The reference below is the
earlier kernel, kept verbatim: ``_duad_read`` gathered all 36 duad entries and
sliced them, and ``_normalised``, ``_validated``, ``_decide``, ``_cubic_roots``
and ``_rank_modulus_pivot`` built their rows, roots and residuals through
generators and lists. Reports, eigen solutions and six-matrices must agree bit
for bit, signed zeros included, and every error must keep its type and text.
The frozen kernel still tells N from III by a test of W^2, where ``_decide``
now takes the rank of W; the two agree on every input here.
"""
import cmath
import math
from collections import namedtuple

import numpy as np
import pytest

import curvgraph as cg
from curvgraph import petrov, symcore
from curvgraph.petrov import PetrovType
from curvgraph.symcore import PairBasis

# --- frozen reference: the generator-based kernel ----------------------------

_RAISING = tuple(
    float(symcore.METRIC_SIGNATURE[a] * symcore.METRIC_SIGNATURE[b]) for a, b in symcore.DUAD_PAIRS
)


class _DuadRead(namedtuple("_DuadRead", "C p s lam W")):
    __slots__ = ()

    @property
    def E(self):
        return [[r * x for x in row] for r, row in zip(_RAISING, self.C)]


def _ref_duad_read(rows):
    C = symcore._pair_rows(rows, PairBasis.DUAD)
    p = [row[:3] for row in C[:3]]
    s = [row[:3] for row in C[3:]]
    lam = [row[3:] for row in C[3:]]
    W = tuple(tuple(x + 1j * y for x, y in zip(pr, sr)) for pr, sr in zip(p, s))
    return _DuadRead(C, p, s, lam, W)


def _ref_depressed(a, b, c):
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    return p, q


def _ref_cubic_roots(a, b, c):
    shift = a / 3.0
    p, q = _ref_depressed(a, b, c)
    s = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + s
    if abs(-q / 2.0 - s) > abs(u3):
        u3 = -q / 2.0 - s
    if u3 == 0:
        r = -shift
        return (r, r, r)
    u = u3 ** (1.0 / 3.0)
    w = complex(-0.5, math.sqrt(3.0) / 2.0)
    roots = []
    for k in range(3):
        uk = u * w**k
        roots.append(uk - p / (3.0 * uk) - shift)
    return tuple(roots)


def _ref_rank_modulus_pivot(A, thresh):
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


def _ref_normalised(M):
    flat = M[0] + M[1] + M[2]
    if not all(map(cmath.isfinite, flat)):
        raise ValueError("matrix must be finite")
    k = math.frexp(max([abs(x) for z in flat for x in (z.real, z.imag)]))[1]
    if k:
        flat = [complex(math.ldexp(z.real, -k), math.ldexp(z.imag, -k)) for z in flat]
        M = (tuple(flat[:3]), tuple(flat[3:6]), tuple(flat[6:]))
    return M, k


def _ref_validated(M, tol):
    scale = max(abs(z) for row in M for z in row)
    if scale > 0.0:
        (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = M
        if max(abs(w01 - w10), abs(w02 - w20), abs(w12 - w21)) > tol * scale:
            raise petrov.NotSymmetric("matrix is not symmetric within tolerance")
        if abs(w00 + w11 + w22) > tol * scale:
            raise petrov.NotTraceless("matrix trace exceeds tolerance")
    return scale


def _ref_times_power_of_two(z, k):
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def _ref_square(M):
    return [[sum(M[i][k] * M[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _ref_char_coeffs(M):
    (w00, w01, w02), (w10, w11, w12), (w20, w21, w22) = M
    e1 = 0.0 + w00 + w11 + w22
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


_PAIR_FLOOR = 5e-7
_ZERO_FLOOR = 1e-4
_W2_FLOOR = 1e-13
_P_FLOOR = 1e-12


def _ref_eigen_rows(W, tol):
    M, k = _ref_normalised(W)
    values, distinct, degree, ptype = _ref_decide(M, _ref_validated(M, tol), tol)
    if k:
        try:
            values = tuple(_ref_times_power_of_two(z, k) for z in values)
            distinct = [(_ref_times_power_of_two(z, k), alg, geo) for z, alg, geo in distinct]
        except OverflowError:
            raise OverflowError("eigenvalues exceed the float range") from None
    return values, distinct, degree, ptype


def _ref_decide(M, scale, tol):
    a, b, c = _ref_char_coeffs(M)
    roots = _ref_cubic_roots(a, b, c)
    if max(abs(r) for r in roots) <= max(tol, _ZERO_FLOOR) * scale:
        if scale == 0.0:
            degree, ptype = 1, PetrovType.O
        elif max(abs(z) for row in _ref_square(M) for z in row) <= max(tol, _W2_FLOOR) * scale * scale:
            degree, ptype = 2, PetrovType.N
        else:
            degree, ptype = 3, PetrovType.III
        zero = (0j, 3, 3 - _ref_rank_modulus_pivot(M, tol * scale))
        return (0j, 0j, 0j), (zero,), degree, ptype
    pairs = [(abs(roots[i] - roots[j]), i, j) for i in range(3) for j in range(i + 1, 3)]
    dmin, i, j = min(pairs)
    if dmin <= max(tol, _PAIR_FLOOR) * scale:
        p, q = _ref_depressed(a, b, c)
        if abs(p) > _P_FLOOR * scale * scale:
            repeated = -3.0 * q / (2.0 * p) - a / 3.0
        else:
            repeated = (roots[i] + roots[j]) / 2.0
        shifted = [list(row) for row in M]
        for k in range(3):
            shifted[k][k] -= repeated
        rank = _ref_rank_modulus_pivot(shifted, tol * scale)
        if rank in (1, 2):
            simple = -a - 2.0 * repeated
            return (
                (repeated, repeated, simple),
                ((repeated, 2, 3 - rank), (simple, 1, 1)),
                None,
                PetrovType.D if rank == 1 else PetrovType.II,
            )
    return roots, tuple((r, 1, 1) for r in roots), None, PetrovType.I


def _ref_eigen(W, tol):
    values, distinct, degree, ptype = _ref_eigen_rows(symcore._square_rows(W, 3, complex), tol)
    return petrov.EigenSolution(
        values, tuple(petrov.DistinctEigenvalue(*d) for d in distinct), degree, ptype
    )


def _ref_classification_report(R, tol):
    _, p, s, lam, W = _ref_duad_read(R.rows)
    values, distinct, degree, ptype = _ref_eigen_rows(W, tol)
    return {
        "petrov_type": ptype.value,
        "eigenvalues": [{"re": z.real, "im": z.imag} for z in values],
        "multiplicities": [
            {"eigenvalue": {"re": z.real, "im": z.imag}, "algebraic": alg, "geometric": geo}
            for z, alg, geo in distinct
        ],
        "nilpotency_degree": degree,
        "residuals": {
            "trace_psi": abs(p[0][0] + p[1][1] + p[2][2]),
            "sigma_asymmetry": max(abs(s[i][j] - s[j][i]) for i, j in ((0, 1), (0, 2), (1, 2))),
            "psi_plus_lambda": max(abs(x + y) for pr, lr in zip(p, lam) for x, y in zip(pr, lr)),
            "trace_omega": abs(W[0][0] + W[1][1] + W[2][2]),
            "bianchi": abs(symcore._cyclic_residual(R.rows)),
            "ricci_max": symcore._ricci_max(symcore._ricci_upper(R.rows)),
        },
    }


# --- comparison --------------------------------------------------------------

TOLS = (1e-9, 1e-6)


def _bits(value):
    """``value`` with every float and complex spelled by its bits, so that two
    results compare equal only when they agree bit for bit, signed zeros and
    NaN payloads included."""
    if isinstance(value, float):
        return ("f", value.hex())
    if isinstance(value, complex):
        return ("c", value.real.hex(), value.imag.hex())
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_bits(v) for v in value]
    return type(value).__name__, value


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _assert_report_matches(R, tol):
    assert _outcome(cg.classification_report, R, tol) == _outcome(
        _ref_classification_report, R, tol)


def _assert_eigen_matches(W, tol):
    assert _outcome(cg.eigen, W, tol) == _outcome(_ref_eigen, W, tol)


# --- inputs ------------------------------------------------------------------

FIXTURES = {
    "I": np.diag([1.0, 2.0, -3.0]).astype(complex),
    "D": np.diag([-2.0, 1.0, 1.0]).astype(complex),
    "II": np.array([[2, 1j, 0], [1j, 0, 0], [0, 0, -2]], dtype=complex),
    "N": np.array([[1, 1j, 0], [1j, -1, 0], [0, 0, 0]], dtype=complex),
    "III": np.array([[0, 0, 1], [0, 0, 1j], [1, 1j, 0]], dtype=complex),
    "O": np.zeros((3, 3), dtype=complex),
}


def _tensor_of(W):
    """The tensor whose covariant duad matrix is [[Re W, Im W^T], [Im W, -Re W]]
    for W made exactly symmetric: Ricci-flat, with omega equal to that W."""
    W = (W + W.T) / 2
    C = np.block([[W.real, W.imag.T], [W.imag, -W.real]])
    rows = np.zeros((6, 6))
    for i, route_row in enumerate(symcore._PAIR_ROUTES[PairBasis.DUAD]):
        for j, (s, t, sign) in enumerate(route_row):
            rows[s, t] = rows[t, s] = sign * C[i, j]
    return cg.RiemannComponents(rows)


def _with_signed_zeros(W, rng, zero_share):
    """W with each off-diagonal real or imaginary part set to zero with
    probability ``zero_share``, symmetrically, and then every zero part, the
    diagonal included, given a random sign: W stays symmetric and traceless."""
    out = np.array(W, dtype=complex)
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)):
        for part in (out.real, out.imag):
            if i != j and rng.random() < zero_share:
                part[i, j] = part[j, i] = 0.0
            if part[i, j] == 0.0:
                part[i, j] = part[j, i] = rng.choice([0.0, -0.0])
    return out


def _rotations(seed, count):
    rng = np.random.default_rng(seed)
    return [np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(count)]


def test_tensor_of_builds_the_requested_omega():
    for W in FIXTURES.values():
        assert np.array_equal(cg.omega(_tensor_of(W)), W)


@pytest.mark.parametrize("ricci_flat", [True, False])
def test_random_tensors_match_frozen_kernel(ricci_flat):
    for seed in range(2000 if ricci_flat else 200):
        R = cg.random_riemann(seed, ricci_flat=ricci_flat)
        for tol in TOLS:
            _assert_report_matches(R, tol)
            _assert_eigen_matches(cg.omega(R), tol)


def test_signed_zeros_match_frozen_kernel():
    # the sign of a zero part decides branch cuts (cmath.sqrt of a negative
    # real) and the signs of exact-zero parts in the report
    rng = np.random.default_rng(5)
    inputs = [_with_signed_zeros(c * W, rng, 0.0) for W in FIXTURES.values()
              for c in (1, -1, 1j, -1j, 3e-7) for _ in range(20)]
    inputs += [_with_signed_zeros(cg.omega(cg.random_riemann(seed, ricci_flat=True)), rng, 1 / 3)
               for seed in range(300)]
    negative_zeros = 0
    for W in inputs:
        R = _tensor_of(W)
        negative_zeros += sum(math.copysign(1.0, x) < 0 for row in R.rows for x in row if x == 0)
        for tol in TOLS:
            _assert_report_matches(R, tol)
            _assert_eigen_matches(W, tol)
    assert negative_zeros > 1000


def test_six_matrix_matches_frozen_read():
    for seed in range(200):
        R = cg.random_riemann(seed, ricci_flat=seed % 2 == 0)
        d = _ref_duad_read(R.rows)
        S = cg.assemble_six_matrix(R)
        assert _bits(S.entries.tolist()) == _bits(d.E)
        assert _bits(S.covariant.tolist()) == _bits(d.C)
        for got, want in ((cg.psi(R), d.p), (cg.sigma(R), d.s), (cg.lambda_mat(R), d.lam),
                          (cg.omega(R), d.W)):
            assert _bits(got.tolist()) == _bits([list(row) for row in want])


@pytest.mark.parametrize("name", list(FIXTURES))
def test_special_fixtures_match_frozen_kernel(name):
    for c in (1, 1j, -1, -1j, 3e-7, 2.5e12):
        for Q in [np.eye(3)] + _rotations(7, 4):
            W = Q.T @ (c * FIXTURES[name]) @ Q
            R = _tensor_of(W)
            for tol in TOLS:
                _assert_eigen_matches(W, tol)
                _assert_report_matches(R, tol)


@pytest.mark.parametrize("name", list(FIXTURES))
def test_scale_sweep_matches_frozen_kernel(name):
    # every decade from 1e-320 (subnormal) to 1e304
    for e in range(-320, 305):
        W = 10.0**e * FIXTURES[name]
        R = _tensor_of(W)
        for tol in TOLS:
            _assert_eigen_matches(W, tol)
            _assert_report_matches(R, tol)


def test_boundary_inputs_match_frozen_kernel():
    a = 1.5e308
    for W in (
        [[0, a, a], [a, 0, a], [a, a, 0]],  # eigenvalues beyond the float range
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[1, 2, 0], [0, -1, 0], [0, 0, 0]],  # not symmetric
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],  # not traceless
        [[math.nan, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, complex(0, math.inf)]],
        [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]],
        np.diag([1e-320, 1e-320, -2e-320]),
        np.diag([1.0, 1.0 + 1e-7, -2.0 - 1e-7]),
        np.diag([1.0, 1.0 + 1e-9, -2.0 - 1e-9]),
    ):
        for tol in TOLS:
            _assert_eigen_matches(W, tol)
