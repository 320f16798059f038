import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import curvgraph as cg
import exact as ex
from curvgraph import petrov, symcore
from curvgraph.petrov import DEFAULT_TOL

I = 1j

# fixtures with Jordan structure pinned by the rank/eigenvalue oracle below
FIX_D = np.diag([-2.0, 1.0, 1.0]).astype(complex)
FIX_I = np.diag([1.0, 2.0, -3.0]).astype(complex)
FIX_N = np.array([[1, I, 0], [I, -1, 0], [0, 0, 0]], dtype=complex)
FIX_II = np.array([[2, I, 0], [I, 0, 0], [0, 0, -2]], dtype=complex)
FIX_III = np.array([[0, 0, 1], [0, 0, I], [1, I, 0]], dtype=complex)
FIX_O = np.zeros((3, 3), dtype=complex)

# each fixture with its exact eigenvalues
EXACT = (
    (FIX_D, (-2, 1, 1)),
    (FIX_I, (1, 2, -3)),
    (FIX_N, (0, 0, 0)),
    (FIX_II, (1, 1, -2)),
    (FIX_III, (0, 0, 0)),
)


def char_roots_oracle(W):
    """Characteristic polynomial roots through numpy, independent of the
    closed-form path under test."""
    e1 = np.trace(W)
    e2 = (e1 * e1 - np.trace(W @ W)) / 2.0
    e3 = np.linalg.det(W)
    return np.roots([1.0, -e1, e2, -e3])


def assert_same_multiset(a, b, tol=1e-8):
    a = sorted(a, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    b = sorted(b, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
    for x, y in zip(a, b):
        assert abs(x - y) <= tol


def implied_type(sol):
    """Type the solution's own multiplicities and nilpotency imply under the
    module decision table; None when they fit no row. A nilpotent W of degree
    d has rank d - 1, so its zero eigenvalue has geometric multiplicity 4 - d."""
    T = cg.PetrovType
    if sol.nilpotency_degree is not None:
        if [d[1:] for d in sol.distinct] != [(3, 4 - sol.nilpotency_degree)]:
            return None
        return {1: T.O, 2: T.N, 3: T.III}.get(sol.nilpotency_degree)
    algebraic = sorted(d.algebraic for d in sol.distinct)
    if algebraic == [1, 1, 1]:
        return T.I
    if algebraic == [1, 2]:
        repeated = next(d for d in sol.distinct if d.algebraic == 2)
        return {2: T.D, 1: T.II}.get(repeated.geometric)
    return None


def assert_self_consistent(W):
    sol = cg.eigen(W)
    assert sol.petrov_type is implied_type(sol)
    assert cg.classify(W) is sol.petrov_type
    return sol


def test_fixture_jordan_structures():
    # the pre-build oracle facts the fixtures rely on
    assert np.abs(FIX_N @ FIX_N).max() == 0.0
    assert np.linalg.matrix_rank(FIX_D - np.eye(3)) == 1
    assert np.linalg.matrix_rank(FIX_II - np.eye(3)) == 2
    assert_same_multiset(np.linalg.eigvals(FIX_II), [1, 1, -2], tol=1e-7)
    assert np.linalg.matrix_rank(FIX_III) == 2
    assert np.linalg.matrix_rank(FIX_III @ FIX_III) == 1
    assert np.abs(FIX_III @ FIX_III @ FIX_III).max() == 0.0
    for W in (FIX_D, FIX_I, FIX_N, FIX_II, FIX_III):
        assert np.abs(W - W.T).max() == 0.0
        assert abs(np.trace(W)) == 0.0


def test_assemble_six_matrix():
    assert np.all(cg.assemble_six_matrix(cg.zero_riemann()).entries == 0.0)

    c = 2.5
    R = cg.from_component_list(4, [((0, 1, 0, 1), c)])
    S = cg.assemble_six_matrix(R)
    assert S.entries[0, 0] == -c  # first duad raised against the time axis
    assert S.covariant[0, 0] == c

    R = cg.random_riemann(0)
    S = cg.assemble_six_matrix(R)
    assert np.array_equal(S.covariant, S.covariant.T)
    # raising flips exactly the three temporal-duad rows
    assert np.array_equal(S.entries[:3], -S.covariant[:3])
    assert np.array_equal(S.entries[3:], S.covariant[3:])


def test_blocks():
    zero = cg.blocks(np.zeros((6, 6)))
    assert np.all(zero.a == 0.0) and np.all(zero.b == 0.0) and np.all(zero.c == 0.0)

    S = cg.assemble_six_matrix(cg.random_riemann(5))
    blk = cg.blocks(S)
    assert np.abs(blk.a - blk.a.T).max() <= 1e-12
    assert np.abs(blk.c - blk.c.T).max() <= 1e-12
    assert np.array_equal(S.entries[3:, :3], -blk.b.T)

    bad = np.zeros((6, 6))
    bad[3, 0] = 1.0
    with pytest.raises(cg.BlockInconsistency):
        cg.blocks(bad)

    # a NaN elsewhere must not hide a broken block relation: non-finite input is refused
    broken = np.zeros((6, 6))
    broken[0, 3] = 5.0
    with pytest.raises(cg.BlockInconsistency):
        cg.blocks(broken)
    for value in (np.nan, np.inf):
        broken[4, 0] = value
        with pytest.raises(ValueError, match="matrix must be finite"):
            cg.blocks(broken)


def test_trace_b():
    assert cg.trace_b(np.zeros((6, 6))) == 0.0
    # hand value: only the 01,23 slot entry set, so the three raised duad
    # components sum to -1
    R = cg.from_component_list(4, [((0, 1, 2, 3), 1.0)])
    assert cg.trace_b(cg.assemble_six_matrix(R)) == pytest.approx(-1.0, abs=0)
    for seed in range(10):
        S = cg.assemble_six_matrix(cg.random_riemann(seed))
        assert abs(cg.trace_b(S)) <= 1e-12
        assert cg.trace_b(S.entries.tolist()) == cg.trace_b(S)


@pytest.mark.parametrize("S, message", [
    ([[0.0] * 3] * 3, "matrix must be 6x6, got (3, 3)"),
    (np.zeros((3, 3)), "matrix must be 6x6, got (3, 3)"),
    ([[0.0] * 6] * 5 + [None], "matrix row 5 must be a list, tuple or ndarray, got NoneType"),
    ([[None] * 6] * 6, "matrix entry (0, 0) is not a real number: None"),
    ([[0.0] * 6] * 3 + [[0.0, math.nan] + [0.0] * 4] + [[0.0] * 6] * 2, "matrix must be finite"),
    (np.full((6, 6), np.inf), "matrix must be finite"),
    ([["0"] * 6] * 6, "matrix entry (0, 0) is not a real number: '0'"),
    ([[0.0] * 6] * 5 + [[0.0] * 5 + [b"0"]], "matrix entry (5, 5) is not a real number: b'0'"),
    ([[0.0] * 6] * 2 + [[0.0] * 4 + [10**400, 0.0]] + [[0.0] * 6] * 3,
     "matrix entry (2, 4) is too large for a float"),
])
def test_trace_b_reads_its_input_like_blocks(S, message):
    for fn in (cg.trace_b, cg.blocks):
        with pytest.raises(ValueError) as info:
            fn(S)
        assert str(info.value) == message


def test_psi():
    assert np.all(cg.psi(cg.zero_riemann()) == 0.0)
    R = cg.random_riemann(7)
    P = cg.psi(R)
    S = cg.assemble_six_matrix(R)
    assert np.array_equal(P, S.covariant[:3, :3])
    assert np.array_equal(P, P.T)
    flat = cg.random_riemann(7, ricci_flat=True)
    assert abs(np.trace(cg.psi(flat))) <= 1e-10


def test_sigma():
    R = cg.random_riemann(11)
    S = cg.assemble_six_matrix(R)
    Sg = cg.sigma(R)
    assert Sg[0, 0] == S.entries[3, 0]  # Sigma_11 reads the raised 23,01 entry
    assert np.array_equal(Sg, S.entries[3:, :3])
    assert np.all(cg.sigma(cg.zero_riemann()) == 0.0)
    flat = cg.random_riemann(21, ricci_flat=True)
    Sf = cg.sigma(flat)
    assert np.abs(Sf - Sf.T).max() <= 1e-10


def test_lambda_mat():
    R = cg.random_riemann(13)
    L = cg.lambda_mat(R)
    assert L[0, 0] == cg.get_component(R, (2, 3, 2, 3))
    S = cg.assemble_six_matrix(R)
    assert np.array_equal(L, S.entries[3:, 3:])
    assert np.array_equal(L, L.T)
    assert np.all(cg.lambda_mat(cg.zero_riemann()) == 0.0)
    flat = cg.random_riemann(33, ricci_flat=True)
    assert np.abs(cg.psi(flat) + cg.lambda_mat(flat)).max() <= 1e-10


def test_omega():
    assert np.all(cg.omega(cg.zero_riemann()) == 0.0)
    flat = cg.random_riemann(44, ricci_flat=True)
    W = cg.omega(flat)
    assert np.array_equal(W.real, cg.psi(flat))
    assert abs(np.trace(W)) <= 1e-10
    assert np.abs(W - W.T).max() <= 1e-10


def test_from_omega_inverts_omega_on_seeded_tensors():
    for seed in range(500):
        R = cg.random_riemann(seed, ricci_flat=True)
        assert cg.from_omega(cg.omega(R)).rows == R.rows


@pytest.mark.parametrize("W, expected", [
    (FIX_D, "D"), (FIX_I, "I"), (FIX_N, "N"), (FIX_II, "II"), (FIX_III, "III"), (FIX_O, "O"),
], ids=["D", "I", "N", "II", "III", "O"])
def test_from_omega_writes_the_fixtures_exactly(W, expected):
    R = cg.from_omega(W)
    assert np.array_equal(cg.omega(R), W)
    assert not cg.ricci_matrix(R).any() and symcore._cyclic_residual(R.rows) == 0.0
    report = cg.classification_report(R)
    assert report["petrov_type"] == expected
    assert not any(report["residuals"].values())


@pytest.mark.parametrize("W", [
    [[0, 1, 0], [0, 0, 0], [0, 0, 0]],  # not symmetric
    [[1, 0, 0], [0, 1, 0], [0, 0, 1j]],  # not traceless
    [[0, 0], [0, 0]],
    [[math.nan, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[1, 0, 0], [0, -1, 0], [0, 0, "x"]],
], ids=["not-symmetric", "not-traceless", "2x2", "nan", "text"])
def test_from_omega_refuses_what_eigen_refuses(W):
    with pytest.raises(ValueError) as expected:
        cg.eigen(W)
    with pytest.raises(ValueError) as info:
        cg.from_omega(W)
    assert (type(info.value), str(info.value)) == (type(expected.value), str(expected.value))


def test_from_omega_runs_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None; import curvgraph as cg\n"
            "R = cg.from_omega([[-2, 0, 0], [0, 1, 0], [0, 0, 1]])\n"
            "print(cg.classification_report(R)['petrov_type'])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(cg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert proc.stdout == "D\n"


def test_eigen_zero_and_diag():
    sol = cg.eigen(np.zeros((3, 3), dtype=complex))
    assert sol.eigenvalues == (0, 0, 0)
    assert sol.distinct[0].algebraic == 3
    assert sol.distinct[0].geometric == 3
    assert sol.nilpotency_degree == 1

    sol = cg.eigen(FIX_D)
    assert_same_multiset(sol.eigenvalues, [-2, 1, 1])
    mults = {round(d.value.real): (d.algebraic, d.geometric) for d in sol.distinct}
    assert mults == {-2: (1, 1), 1: (2, 2)}
    assert sol.nilpotency_degree is None


def test_eigen_nilpotent():
    sol = cg.eigen(FIX_N)
    assert max(abs(z) for z in sol.eigenvalues) <= 1e-9
    assert sol.nilpotency_degree == 2
    sol = cg.eigen(FIX_III)
    assert sol.nilpotency_degree == 3


def test_eigen_validation():
    with pytest.raises(cg.NotSymmetric):
        cg.eigen(np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex))
    with pytest.raises(cg.NotTraceless):
        cg.eigen(np.eye(3, dtype=complex))


@pytest.mark.parametrize("build, fault", [
    (lambda d: [[0.5, d, 0], [0, -0.5, 0], [0, 0, 0]], cg.NotSymmetric),
    (lambda d: [[0.5, 0, 0], [0, -0.5, 0], [0, 0, d]], cg.NotTraceless),
], ids=["symmetry", "trace"])
def test_validation_threshold_is_tol_times_scale(build, fault):
    # the largest entry, 0.5, is the normalised scale: the threshold is 5e-4
    cg.eigen(build(4.5e-4), tol=1e-3)
    with pytest.raises(fault):
        cg.eigen(build(5.5e-4), tol=1e-3)


def test_w2_threshold_is_tol_times_scale_squared():
    # W^3 = 0 and W^2 != 0. Normalised, W is halved: scale 0.5, and the largest
    # entry of W^2 is 0.25, above tol * scale^2 = 0.075 but below tol = 0.3
    assert cg.classify([[0, 1, 0], [1, 0, 1j], [0, 1j, 0]], tol=0.3) is cg.PetrovType.III


@pytest.mark.parametrize("ratio, ptype, degree, geometric", [
    (0.9, cg.PetrovType.N, 2, 2),
    (1.1, cg.PetrovType.III, 3, 1),
])
def test_nilpotent_rank_threshold_is_tol_times_scale(ratio, ptype, degree, geometric):
    # W = v v^T + delta (v e3^T + e3 v^T) with isotropic v = (1, i, 0) is
    # exactly nilpotent of rank 2. Normalised, W is halved: scale 0.5, and the
    # second pivot is delta^2 / 2, against tol * scale = tol / 2
    tol = 1e-6
    d = math.sqrt(ratio * tol)
    sol = cg.eigen([[1, 1j, d], [1j, -1, 1j * d], [d, 1j * d, 0]], tol)
    assert (sol.petrov_type, sol.nilpotency_degree, sol.distinct[0].geometric) == (
        ptype, degree, geometric)


def test_a_root_gap_at_the_pair_threshold_is_a_candidate():
    # the pair test is inclusive. W is divided by 4 (scale 0.5), so the
    # threshold tol * scale meets the normalised gap, gap / 4, at tol = gap / 2
    W = [[1 + 1e-3, 0, 0], [0, 1 - 1e-3, 0], [0, 0, -2]]
    r0, r1, r2 = cg.eigen(W, 1e-12).eigenvalues
    tol = min(abs(r0 - r1), abs(r0 - r2), abs(r1 - r2)) / 2
    assert cg.classify(W, tol) is cg.PetrovType.D
    assert cg.classify(W, math.nextafter(tol, 0.0)) is cg.PetrovType.I


def test_a_pivot_at_the_rank_threshold_counts_as_zero():
    # each of the three pivot tests of the rank counts a pivot at the
    # threshold as zero
    for diagonal, rank in (((0.5, 0, 0), 0), ((1, 0.5, 0), 1), ((1, 1, 0.5), 2)):
        rows = [[complex(x) if i == j else 0j for j in range(3)] for i, x in enumerate(diagonal)]
        assert petrov._rank_modulus_pivot(rows, 0.5) == rank, diagonal


def test_eigen_keeps_a_trace_within_tol_in_the_eigenvalues():
    # the cubic is solved with its trace term a, not as if a were zero
    sol = cg.eigen([[1, 0, 0], [0, 2, 0], [0, 0, -3 + 1e-3]], 1e-3)
    assert_same_multiset(sol.eigenvalues, [1, 2, -3 + 1e-3], tol=1e-12)


def test_eigen_against_char_poly_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        W = A + A.T
        W = W - np.trace(W) / 3.0 * np.eye(3)
        sol = cg.eigen(W)
        assert_same_multiset(sol.eigenvalues, char_roots_oracle(W))
        norm = np.abs(W).max()
        assert abs(sum(sol.eigenvalues)) <= 10 * DEFAULT_TOL
        e1 = np.trace(W)
        e2 = (e1 * e1 - np.trace(W @ W)) / 2.0
        e3 = np.linalg.det(W)
        for z in sol.eigenvalues:
            residual = abs(z**3 - e1 * z**2 + e2 * z - e3)
            assert residual <= 100 * DEFAULT_TOL * norm


def test_classify_fixtures():
    assert cg.classify(np.zeros((3, 3))) is cg.PetrovType.O
    assert cg.classify(FIX_D) is cg.PetrovType.D
    assert cg.classify(FIX_I) is cg.PetrovType.I
    assert cg.classify(FIX_N) is cg.PetrovType.N
    assert cg.classify(FIX_II) is cg.PetrovType.II
    assert cg.classify(FIX_III) is cg.PetrovType.III


def test_classify_scale_invariance():
    rng = np.random.default_rng(1)
    for W, exact in EXACT:
        expected = cg.classify(W)
        for _ in range(5):
            c = complex(rng.normal(), rng.normal())
            if abs(c) < 1e-3:
                continue
            assert cg.classify(c * W) is expected
            sol = assert_self_consistent(c * W)
            assert_same_multiset(sol.eigenvalues, [c * z for z in exact], tol=1e-10 * abs(c))


def test_classify_orthogonal_conjugation_invariance():
    rng = np.random.default_rng(2)
    for W, exact in EXACT + ((np.zeros((3, 3), dtype=complex), (0, 0, 0)),):
        expected = cg.classify(W)
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            assert cg.classify(Q.T @ W @ Q) is expected
            sol = assert_self_consistent(Q.T @ W @ Q)
            assert_same_multiset(sol.eigenvalues, exact, tol=1e-10)


def test_classify_ricci_flat_samples_never_error():
    for seed in range(2000):
        sol = assert_self_consistent(cg.omega(cg.random_riemann(seed, ricci_flat=True)))
        assert isinstance(sol.petrov_type, cg.PetrovType)


def test_classification_report():
    flat = cg.random_riemann(3, ricci_flat=True)
    rep = cg.classification_report(flat)
    assert rep["petrov_type"] in {t.value for t in cg.PetrovType}
    assert len(rep["eigenvalues"]) == 3
    assert sum(m["algebraic"] for m in rep["multiplicities"]) == 3
    for key in ("trace_psi", "sigma_asymmetry", "psi_plus_lambda", "trace_omega"):
        assert rep["residuals"][key] <= 1e-10


def test_generic_tensor_violates_flat_relations():
    # negative control: a generic enforced tensor breaks the contraction-free
    # relations, and its combination matrix is not even symmetric, so the
    # eigenproblem refuses it
    generic = cg.random_riemann(3)
    violations = (
        abs(np.trace(cg.psi(generic))),
        float(np.abs(cg.sigma(generic) - cg.sigma(generic).T).max()),
        float(np.abs(cg.psi(generic) + cg.lambda_mat(generic)).max()),
    )
    assert max(violations) > 1e-6
    with pytest.raises(cg.NotSymmetric):
        cg.classification_report(generic)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)])
@pytest.mark.parametrize("at", [(0, 0), (0, 1), (2, 2)])
def test_eigen_rejects_non_finite(bad, at):
    W = np.zeros((3, 3), dtype=complex)
    W[at] = W[at[::-1]] = bad
    for f in (cg.eigen, cg.classify):
        with pytest.raises(ValueError, match="matrix must be finite"):
            f(W)
        with pytest.raises(ValueError, match="matrix must be finite"):
            f(W.tolist())


def test_eigen_accepts_array_likes():
    for W, _ in EXACT:
        expected = cg.eigen(W)
        forms = [W.tolist(), tuple(map(tuple, W.tolist())), [list(row) for row in W]]
        if not W.imag.any():
            forms.append(W.real.astype(int))
        for form in forms:
            assert cg.eigen(form) == expected
            assert cg.classify(form) is expected.petrov_type


@pytest.mark.parametrize("W", [
    np.zeros((2, 2)),
    [[0, 0], [0, 0]],
    np.zeros((3, 3, 1)),
    [[[0], [0], [0]]] * 3,
    [[0, 0, 0], [0, 0], [0, 0, 0]],
    [0] * 9,
    np.zeros(9),
])
def test_eigen_rejects_non_3x3(W):
    # in the words of the one square-matrix reader RiemannComponents uses too
    shared = r"^matrix (must be 3x3, got |row [01] |entry \(0, 0\) is not a number: )"
    with pytest.raises(ValueError, match=shared):
        cg.eigen(W)


@pytest.mark.parametrize("W, message", [
    ("abc", "matrix must be a list, tuple or ndarray, got str"),
    (None, "matrix must be a list, tuple or ndarray, got NoneType"),
    (np.float64(1.0), "matrix must be 3x3, got ()"),
    ([0] * 9, "matrix row 0 must be a list, tuple or ndarray, got int"),
    (np.zeros(9), "matrix must be 3x3, got (9,)"),
    ([[0] * 3, [0] * 3, "abc"], "matrix row 2 must be a list, tuple or ndarray, got str"),
    ([[0, 0], [0, 0]], "matrix must be 3x3, got (2, 2)"),
    (np.zeros((2, 2)), "matrix must be 3x3, got (2, 2)"),
    ([[0, 0, 0], [0, 0], [0, 0, 0]], "matrix row 1 has 2 entries, row 0 has 3"),
    (np.zeros((3, 3, 1)), "matrix must be 3x3, got (3, 3, 1)"),
    ([[None] * 3] * 3, "matrix entry (0, 0) is not a number: None"),
    (np.full((3, 3), None), "matrix entry (0, 0) is not a number: None"),
    ([[0, 0, 0], [0, 0, "x"], [0, 0, 0]], "matrix entry (1, 2) is not a number: 'x'"),
    # text rows of three characters that each read as a number
    (["000"] * 3, "matrix row 0 must be a list, tuple or ndarray, got str"),
    ([b"\x00\x00\x00"] * 3, "matrix row 0 must be a list, tuple or ndarray, got bytes"),
    ([[0] * 3, [0] * 3, "000"], "matrix row 2 must be a list, tuple or ndarray, got str"),
    # text entries that complex would parse as numbers
    ([["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]], "matrix entry (0, 0) is not a number: '1'"),
    ([[1, 0, 0], [0, -1, 0], [0, 0, b"0"]], "matrix entry (2, 2) is not a number: b'0'"),
    ([[1, 0, 0], [0, -1, "1j"], [0, "1j", 0]], "matrix entry (1, 2) is not a number: '1j'"),
    (np.array([["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "0"]]),
     "matrix entry (0, 0) is not a number: '1'"),
    # dict, set and range rows, which are not read as their keys or items
    ([{2: "a", 0: "b", 1: "c"}, {0: None, -1: None, 3: None}, {1: 0, 3: 0, -1: 0}],
     "matrix row 0 must be a list, tuple or ndarray, got dict"),
    ([[0] * 3, [0] * 3, {0, 1, 2}], "matrix row 2 must be a list, tuple or ndarray, got set"),
    ([[0] * 3, [0] * 3, range(3)], "matrix row 2 must be a list, tuple or ndarray, got range"),
    # iterators, as the whole input or as a row, are refused before they are read
    ((row for row in [[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
     "matrix must be a list, tuple or ndarray, got generator"),
    (iter([[1, 0, 0], [0, -1, 0], [0, 0, "x"]]),
     "matrix must be a list, tuple or ndarray, got list_iterator"),
    ([[1, 0, 0], [0, -1, 0], iter([0, 0, 0])],
     "matrix row 2 must be a list, tuple or ndarray, got list_iterator"),
    # integers too large for a float
    ([[10**400, 0, 0], [0, 0, 0], [0, 0, 0]], "matrix entry (0, 0) is too large for a float"),
    (np.array([[0, 0, 0], [0, 0, -10**400], [0, 0, 0]], dtype=object),
     "matrix entry (1, 2) is too large for a float"),
])
def test_eigen_and_classify_name_the_fault(W, message):
    for fn in (cg.eigen, cg.classify):
        with pytest.raises(ValueError) as info:
            fn(W)
        assert str(info.value) == message


def numpy_char_coeffs(W):
    """The numpy characteristic coefficients the scalar kernel replaced; its
    tr(W @ W) runs through BLAS, so the last bits of e2 depend on the build."""
    W = np.asarray(W, dtype=complex)
    e1 = complex(W.trace())
    e2 = (e1 * e1 - complex((W @ W).trace())) / 2.0
    e3 = (
        W[0, 0] * (W[1, 1] * W[2, 2] - W[1, 2] * W[2, 1])
        - W[0, 1] * (W[1, 0] * W[2, 2] - W[1, 2] * W[2, 0])
        + W[0, 2] * (W[1, 0] * W[2, 1] - W[1, 1] * W[2, 0])
    )
    return -e1, e2, -e3


def numpy_residuals(R):
    """The report residuals as the numpy formulas computed them."""
    S = cg.assemble_six_matrix(R)
    p, s, lam = S.covariant[:3, :3], S.entries[3:, :3], S.entries[3:, 3:]
    W = p + 1j * s
    return {
        "trace_psi": abs(float(np.trace(p))),
        "sigma_asymmetry": float(np.abs(s - s.T).max()),
        "psi_plus_lambda": float(np.abs(p + lam).max()),
        "trace_omega": abs(complex(np.trace(W))),
        "bianchi": abs(cg.cyclic_sum(R, (0, 1, 2, 3))),
        "ricci_max": float(np.abs(cg.ricci_matrix(R)).max()),
    }


#: Allowed drift of the scalar characteristic coefficients from the numpy
#: ones, in units of eps * scale**k for the degree-k coefficient. Measured
#: worst case over the 2000 Ricci-flat samples, numpy 2.4 on scipy-openblas:
#: 3.0, in e2 only.
COEFF_ULPS = 8


def test_scalar_kernel_drift_against_numpy_reference(monkeypatch):
    eps = np.finfo(float).eps
    tensors = [cg.random_riemann(seed, ricci_flat=True) for seed in range(2000)]
    worst = 0.0
    solutions = []
    for R in tensors:
        W = cg.omega(R)
        # the matrix the kernel decides on, read as eigen reads it
        M, _ = petrov._normalised(symcore._square_rows(W, 3, complex))
        scale = petrov._validated(M, DEFAULT_TOL)
        for k, (got, ref) in enumerate(zip(petrov._char_coeffs(M), numpy_char_coeffs(M)), 1):
            worst = max(worst, abs(got - ref) / (eps * scale**k))
        solutions.append(cg.eigen(W))
        residuals = cg.classification_report(R)["residuals"]
        assert {k: v.hex() for k, v in residuals.items()} == {
            k: v.hex() for k, v in numpy_residuals(R).items()
        }
    assert worst <= COEFF_ULPS

    monkeypatch.setattr(petrov, "_char_coeffs", numpy_char_coeffs)
    for R, sol in zip(tensors, solutions):
        ref = cg.eigen(cg.omega(R))
        assert ref.petrov_type is sol.petrov_type
        assert ref.nilpotency_degree == sol.nilpotency_degree
        assert [(d.algebraic, d.geometric) for d in ref.distinct] == [
            (d.algebraic, d.geometric) for d in sol.distinct
        ]


def test_eigen_type_invariant_from_subnormal_to_largest_scale():
    # every decade from 1e-320 (subnormal) to 1e304: the type is decided on W
    # divided by a power of two, so it cannot depend on the scale
    for W, exact in EXACT:
        expected = cg.classify(W)
        for e in range(-320, 305):
            c = 10.0**e
            sol = cg.eigen(c * W)
            assert sol.petrov_type is expected, (expected, e)
            if e >= -300:  # entries of c * W are normal floats
                assert_same_multiset([z / c for z in sol.eigenvalues], exact, tol=1e-12)
    assert cg.classify(np.diag([1e-320, 1e-320, -2e-320])) is cg.PetrovType.D


def test_eigen_power_of_two_scaling_is_exact():
    for W, _ in EXACT + ((cg.omega(cg.random_riemann(7, ricci_flat=True)), None),):
        base = cg.eigen(W)
        for j in (-1000, -7, -1, 1, 9, 1000):
            scaled = cg.eigen(W * 2.0**j)
            assert scaled.petrov_type is base.petrov_type
            assert scaled.eigenvalues == tuple(z * 2.0**j for z in base.eigenvalues)
            assert [d.value for d in scaled.distinct] == [d.value * 2.0**j for d in base.distinct]


def test_eigen_rejects_eigenvalues_beyond_float_range():
    a = 1.5e308
    W = [[0, a, a], [a, 0, a], [a, a, 0]]  # eigenvalues 2a, -a, -a
    with pytest.raises(OverflowError, match="eigenvalues exceed the float range"):
        cg.eigen(W)
    assert cg.classify(np.array(W) / 2) is cg.PetrovType.D


@pytest.mark.parametrize(
    "tol", [math.inf, -math.inf, math.nan, -1, -1e-9, 0, 0.0, True, "1e-9", None, 10**400],
    ids=lambda tol: "10**400" if tol == 10**400 else repr(tol),
)
def test_tol_must_be_finite_and_positive(tol):
    # one check where tol enters, before any other work: inf would read
    # diag(1, -1, 0) as type N, -1 would call it not symmetric, and nan would
    # read it as type I
    W = np.diag([1.0, -1.0, 0.0])
    R = cg.random_riemann(3, ricci_flat=True)
    for call in (lambda: cg.eigen(W, tol), lambda: cg.classify(W, tol),
                 lambda: cg.classification_report(R, tol)):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError
        assert str(info.value) == f"tol must be a finite number > 0, got {tol!r}"


def test_tol_accepts_finite_positive_numbers():
    W = np.diag([1.0, -1.0, 0.0])
    for tol in (1, 1e-9, np.float64(1e-6), 5e-324, 1e308):
        assert cg.eigen(W, tol) == cg.eigen(W, float(tol))
    assert cg.classify(W, np.float64(1e-6)) is cg.PetrovType.I


# --- the exact Gaussian-rational oracle -----------------------------------------

T = cg.PetrovType
FIXTURE_TYPES = (T.D, T.I, T.N, T.II, T.III)  # the types of EXACT, in order
# skew K of the Cayley frames and the scalings of the exact stress set; None is
# the identity frame
CAYLEY_K = (
    None,
    (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4)),
    (ex.Gauss(Fraction(1, 3), Fraction(1, 4)), Fraction(-1, 5),
     ex.Gauss(Fraction(2, 7), Fraction(-1, 3))),
    (ex.Gauss(0, Fraction(1, 2)), Fraction(3, 5),
     ex.Gauss(Fraction(-1, 7), Fraction(1, 6))),
)
SCALINGS = (ex.Gauss(1), ex.Gauss(Fraction(3, 4), Fraction(-5, 7)),
            ex.Gauss(Fraction(-1, 3), 2))


def _stress_set():
    """(fixture type, frame number, X) for X = c Q W Q^T over the EXACT
    fixtures W, the Cayley frames Q of CAYLEY_K and the SCALINGS c."""
    out = []
    for (W, _), ptype in zip(EXACT, FIXTURE_TYPES):
        for frame_no, k in enumerate(CAYLEY_K):
            Q = ex.identity() if k is None else ex.cayley(*k)
            conj = ex.matmul(ex.matmul(Q, ex.matrix(W)), ex.transpose(Q))
            out += [(ptype, frame_no, ex.scale(c, conj)) for c in SCALINGS]
    return out


def test_exact_oracle_reads_the_fixtures():
    for (W, roots), ptype in zip(EXACT, FIXTURE_TYPES):
        X = ex.matrix(W)
        assert ex.exact_type(X) is ptype is cg.classify(W)
        a, b, c = ex.char_coeffs(X)
        for z in roots:  # each exact eigenvalue is a root of the cubic
            assert not (z ** 3 + a * z * z + b * z + c)
        p, q = ex.depressed(a, b, c)
        assert bool(ex.discriminant(p, q)) is (ptype is T.I)
        if ptype in (T.D, T.II):
            assert ex.double_root(a, p, q) == ex.Gauss(1)
    assert ex.exact_type(FIX_O) is T.O
    assert ex.rank(ex.matrix(FIX_II)) == 3 and ex.rank(ex.matrix(FIX_N)) == 1
    # distinct roots 1e-9 apart are exactly type I, whatever a float decision
    # at its floors reads
    assert ex.exact_type(np.diag([1.0, 1.0 + 1e-9, -2.0 - 1e-9])) is T.I


def test_cayley_frames_are_exactly_orthogonal():
    for k in CAYLEY_K[1:]:
        Q = ex.cayley(*k)
        assert ex.matmul(Q, ex.transpose(Q)) == ex.identity()
        assert Q != ex.identity()


def test_eigen_agrees_with_the_exact_oracle_on_the_stress_set():
    stress = _stress_set()
    assert len(stress) == 5 * len(CAYLEY_K) * len(SCALINGS)
    for ptype, frame_no, X in stress:
        assert ex.exact_type(X) is ptype, (ptype, frame_no)
        assert cg.eigen(ex.rounded(X)).petrov_type is ptype, (ptype, frame_no)


def test_rounding_leaves_a_special_type_only_in_the_identity_frame():
    # float(X) is itself an exact matrix; rounding the entries of a Cayley
    # image breaks every degeneracy, so each special answer of eigen on such
    # an input is a tolerance decision, not an exact one
    for ptype, frame_no, X in _stress_set():
        got = ex.exact_type(ex.matrix(ex.rounded(X)))
        assert got is (ptype if frame_no == 0 else T.I), (ptype, frame_no)


def test_eigen_agrees_with_the_exact_oracle_on_ricci_flat_seeds():
    disagree = []
    for seed in range(2000):
        W = cg.omega(cg.random_riemann(seed, ricci_flat=True))
        got, want = cg.eigen(W).petrov_type, ex.exact_type(ex.matrix(W))
        if got is not want:
            disagree.append((seed, got, want))
    assert disagree == []


# The near-floor table: diag(1, 1 + 10^-k, -2 - 10^-k), and each special EXACT
# fixture plus 10^-k E, for k = 3..15, rounded once to floats. The rounded
# input of every row is exactly type I; eigen's type is pinned as measured,
# and each row where it differs is a tolerance decision listed with its
# margin in CHANGES.md.
NEAR_FLOOR_E = ex.matrix([[1, 2 + 1j, -1], [2 + 1j, -3, 0.5j], [-1, 0.5j, 2]])
NEAR_FLOOR_EIGEN = {  # eigen's type for k = 3..15
    "diag": "I I I I I I D D D D D D D",
    "D": "I I I I I I I D D D D D D",
    "N": "I I I I I I I N N N N N N",
    "II": "I I I I I I I I I I I II II",
    "III": "I I I I I I I I I I III III III",
}


def _near_floor_rows():
    """(row, k, X) for every row and k of the near-floor table, X exact."""
    out = [("diag", k, ex.matrix(np.diag([1.0, 1.0 + 10.0**-k, -2.0 - 10.0**-k])))
           for k in range(3, 16)]
    for (W, _), ptype in zip(EXACT, FIXTURE_TYPES):
        if ptype is not T.I:
            out += [(ptype.value, k, ex.add(ex.matrix(W), ex.scale(Fraction(1, 10**k), NEAR_FLOOR_E)))
                    for k in range(3, 16)]
    return out


def test_near_floor_table_as_measured():
    rows = _near_floor_rows()
    assert len(rows) == 5 * 13
    for row, k, X in rows:
        W = ex.rounded(X)
        assert ex.exact_type(ex.matrix(W)) is T.I, (row, k)
        assert cg.eigen(W).petrov_type.value == NEAR_FLOOR_EIGEN[row].split()[k - 3], (row, k)


# --- the one repeated-root formula ----------------------------------------------

def _pair_floor_bound(tol):
    """The least |p| / scale^2 of a validated W whose roots reach the pair
    test. With G = max(tol, _PAIR_FLOOR) and Z = max(tol, _ZERO_FLOOR), the
    depressed roots are m + d, m - d and -2m with |d| <= G/2, and the trace
    is at most tol * scale. When -2m is the root beyond Z, |2m| >= Z - tol/3
    and |p| = |3m^2 + d^2| >= 3|m|^2 - |d|^2, which is this bound; a
    numerical minimisation over the other case, a root of the pair beyond
    Z, finds nothing lower. Its least value, tol^2/12 at tol = _ZERO_FLOOR,
    is 8.3e-10."""
    G, Z = max(tol, petrov._PAIR_FLOOR), max(tol, petrov._ZERO_FLOOR)
    return (3.0 * (Z - tol / 3.0) ** 2 - G * G) / 4.0


def _adversarial_pair_inputs(rng, count):
    """(W, tol) built to reach the pair test with p as small as it can be.

    The roots are c + (m + d, m - d, -2m): a pair of gap up to G, the third
    root placed so that the largest one just clears Z, and d at right angles
    to m, so the triangle is as near equilateral as the two floors let it be;
    the centre c has |3c| just inside tol and points the way of the third
    root. Half the inputs add the isotropic nilpotent piece mu v v^T,
    v = (1, i, 0), across the pair. The frame is the Cayley frame
    Q = (I - K)(I + K)^-1 of a random complex skew K, scaled toward the
    singular I + K until max|Q diag Q^T| is about 1, so the floors above are
    relative to the scale eigen sees. tol is log-uniform over [1e-12, 3]."""
    v = np.array([1.0, 1j, 0.0])
    for i in range(count):
        tol = 10.0 ** rng.uniform(-12.0, math.log10(3.0))
        G, Z = max(tol, petrov._PAIR_FLOOR), max(tol, petrov._ZERO_FLOOR)
        phase = cmath.exp(2j * math.pi * rng.uniform())
        c = tol / 3.0 * rng.uniform(0.9, 1.0) * phase
        m = -(Z * (1.0 + 10.0 ** rng.uniform(-4.0, -1.0)) - abs(c)) / 2.0 * phase
        d = G * rng.uniform(0.25, 0.5) * 1j * phase * cmath.exp(1j * rng.normal(0.0, 0.1))
        t = np.array([m + d, m - d, -2.0 * m]) * (1.0 + rng.normal(0.0, 1e-3, 3))
        D = np.diag(c + t - t.mean())
        if i % 2:
            D = D + rng.uniform() * abs(d) * np.outer(v, v)
        k = rng.normal(size=3) + 1j * rng.normal(size=3)
        eps = math.sqrt(Z) * phase
        for _ in range(5):  # max|Q D Q^T| grows like 1 / |eps|^2
            k1, k2, k3 = k * cmath.sqrt((eps - 1.0) / (k @ k))
            K = np.array([[0, -k3, k2], [k3, 0, -k1], [-k2, k1, 0]])
            Q = (np.eye(3) - K) @ np.linalg.inv(np.eye(3) + K)
            W = Q @ D @ Q.T
            eps *= math.sqrt(np.abs(W).max())
        yield W.tolist(), tol


def test_a_close_pair_never_comes_with_a_near_zero_p():
    # _decide takes the repeated root from -3q/(2p) - a/3 alone: replay its
    # floor tests on adversarial inputs and check that every one reaching the
    # pair test has |p| at or above its bound, far above rounding level
    reached = []
    for W, tol in _adversarial_pair_inputs(np.random.default_rng(24), 3000):
        M, _ = petrov._normalised(W)
        try:
            scale = petrov._validated(M, tol)
        except (cg.NotSymmetric, cg.NotTraceless):
            continue
        a, b, c = petrov._char_coeffs(M)
        p, q = petrov._depressed(a, b, c)
        r0, r1, r2 = petrov._cubic_roots(a, p, q)
        nilpotent = max(abs(r0), abs(r1), abs(r2)) <= max(tol, petrov._ZERO_FLOOR) * scale
        sol = cg.eigen(W, tol)
        if nilpotent:
            # a nilpotent candidate returns a nilpotent solution or type I,
            # never the pair branch with its division by a vanishing p
            assert sol.nilpotency_degree is not None or sol.petrov_type is T.I
            continue
        assert sol.nilpotency_degree is None
        if min(abs(r0 - r1), abs(r0 - r2), abs(r1 - r2)) <= max(tol, petrov._PAIR_FLOOR) * scale:
            reached.append((abs(p) / (scale * scale), tol))
    assert len(reached) >= 100
    for ratio, tol in reached:
        assert ratio >= 0.99 * _pair_floor_bound(tol), (ratio, tol)


def test_every_report_is_consistent_on_the_exact_sets_and_the_adversarial_inputs():
    # the type, the multiplicities and the nilpotency degree of each report
    # fit one row of the decision table; inputs that fail validation are skipped
    inputs = [(ex.rounded(X), tol) for *_, X in _near_floor_rows() + _stress_set()
              for tol in (1e-6, 1e-9, 1e-12, 1e-14, 1e-16)]
    inputs += _adversarial_pair_inputs(np.random.default_rng(24), 3000)
    inconsistent = []
    for W, tol in inputs:
        try:
            sol = cg.eigen(W, tol)
        except (cg.NotSymmetric, cg.NotTraceless):
            continue
        if sol.petrov_type is not implied_type(sol):
            inconsistent.append((W, tol, sol))
    assert inconsistent == []
