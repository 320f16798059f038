import math

import numpy as np
import pytest

import curvgraph as cg
from curvgraph import petrov, symcore
from curvgraph.petrov import DEFAULT_TOL

I = 1j

# fixtures with Jordan structure pinned by the rank/eigenvalue oracle below
FIX_D = np.diag([-2.0, 1.0, 1.0]).astype(complex)
FIX_I = np.diag([1.0, 2.0, -3.0]).astype(complex)
FIX_N = np.array([[1, I, 0], [I, -1, 0], [0, 0, 0]], dtype=complex)
FIX_II = np.array([[2, I, 0], [I, 0, 0], [0, 0, -2]], dtype=complex)
FIX_III = np.array([[0, 0, 1], [0, 0, I], [1, I, 0]], dtype=complex)

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
    module decision table; None when they fit no row."""
    T = cg.PetrovType
    if sol.nilpotency_degree is not None:
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
