import io
import json
import math
import operator
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import curvgraph as cg
from curvgraph import cli, ratlinalg, symcore
from curvgraph.ratlinalg import rank_sparse

ALL_QUADS = list(product(range(4), repeat=4))


def test_pair_slot_examples():
    s = cg.pair_slot(0, 1)
    assert (s.slot, s.sign) == (0, 1)
    s = cg.pair_slot(1, 0)
    assert (s.slot, s.sign) == (0, -1)
    s = cg.pair_slot(1, 3, cg.PairBasis.DUAD)
    assert (s.slot, s.sign) == (4, -1)
    assert cg.pair_slot(2, 2) is None


def test_pair_slot_swap_flips_sign():
    for basis in cg.PairBasis:
        for a, b in product(range(4), repeat=2):
            if a == b:
                assert cg.pair_slot(a, b, basis) is None
                continue
            p, q = cg.pair_slot(a, b, basis), cg.pair_slot(b, a, basis)
            assert p.slot == q.slot
            assert p.sign == -q.sign
            assert abs(p.sign) == 1


def test_pair_slot_range_check():
    with pytest.raises(ValueError):
        cg.pair_slot(0, 4)
    with pytest.raises(ValueError):
        cg.pair_slot(-1, 2)


def test_storage_validation():
    bad = np.zeros((6, 6))
    bad[0, 1] = 1.0  # not symmetric
    with pytest.raises(ValueError):
        cg.RiemannComponents(bad)
    with pytest.raises(ValueError):
        cg.RiemannComponents(np.zeros((5, 5)))
    # rows is the only field, so a stray positional basis is refused
    with pytest.raises(TypeError):
        cg.RiemannComponents(np.zeros((6, 6)), cg.PairBasis.DUAD)
    R = cg.zero_riemann()
    with pytest.raises(ValueError):
        R.matrix[0, 0] = 1.0  # frozen array


def test_get_component_examples():
    R = cg.random_riemann(0)
    assert cg.get_component(R, (1, 0, 2, 3)) == -cg.get_component(R, (0, 1, 2, 3))
    assert cg.get_component(R, (2, 3, 0, 1)) == cg.get_component(R, (0, 1, 2, 3))
    assert cg.get_component(R, (0, 0, 1, 2)) == 0.0


def test_symmetries_exact_all_quads():
    R = cg.random_riemann(1)
    for a, b, c, d in ALL_QUADS:
        v = cg.get_component(R, (a, b, c, d))
        assert cg.get_component(R, (b, a, c, d)) == -v
        assert cg.get_component(R, (a, b, d, c)) == -v
        assert cg.get_component(R, (c, d, a, b)) == v


def test_from_component_list_examples():
    R = cg.from_component_list(4, [((0, 1, 0, 1), -2.0)])
    assert R.matrix[0, 0] == -2.0

    R = cg.from_component_list(4, [((0, 1, 2, 3), 1.0), ((1, 0, 2, 3), -1.0)])
    assert R.matrix[0, 5] == 1.0

    with pytest.raises(cg.ConflictingEntry):
        cg.from_component_list(4, [((0, 1, 2, 3), 1.0), ((1, 0, 2, 3), 1.0)])

    with pytest.raises(cg.DegenerateNonzero):
        cg.from_component_list(4, [((0, 0, 2, 3), 0.5)])
    # degenerate zero entries are fine
    R = cg.from_component_list(4, [((0, 0, 2, 3), 0.0)])
    assert np.all(R.matrix == 0.0)

    with pytest.raises(ValueError):
        cg.from_component_list(3, [])


def test_from_component_list_duplicate_tolerance():
    entries = [((0, 1, 2, 3), 1.0), ((2, 3, 0, 1), 1.0 + 1e-14)]
    R = cg.from_component_list(4, entries)
    assert R.matrix[0, 5] == 1.0
    with pytest.raises(cg.ConflictingEntry):
        cg.from_component_list(4, [((0, 1, 2, 3), 1.0), ((2, 3, 0, 1), 1.0 + 1e-9)])


def test_degenerate_and_conflict_checks_read_ingest_tol():
    tol = cg.INGEST_TOL
    cg.from_component_list(4, [((0, 0, 2, 3), 0.5 * tol)])
    cg.from_component_list(4, [((0, 0, 2, 3), tol)])  # the bound itself is within it
    with pytest.raises(cg.DegenerateNonzero):
        cg.from_component_list(4, [((0, 0, 2, 3), 2.0 * tol)])
    cg.from_component_list(4, [((0, 1, 2, 3), 0.0), ((2, 3, 0, 1), 0.5 * tol)])
    cg.from_component_list(4, [((0, 1, 2, 3), 0.0), ((2, 3, 0, 1), tol)])
    with pytest.raises(cg.ConflictingEntry):
        cg.from_component_list(4, [((0, 1, 2, 3), 0.0), ((2, 3, 0, 1), 2.0 * tol)])


def test_reconstruction_roundtrip_exact():
    R = cg.random_riemann(42)
    entries = [(q, cg.get_component(R, q)) for q in ALL_QUADS]
    back = cg.from_component_list(4, entries)
    assert np.array_equal(back.matrix, R.matrix)
    assert back.bianchi_enforced


def test_cyclic_sum():
    R = cg.random_riemann(9)
    assert R.bianchi_enforced
    for q in ALL_QUADS:
        assert abs(cg.cyclic_sum(R, q)) <= 1e-12

    single = cg.from_component_list(4, [((0, 1, 2, 3), 1.0)])
    assert not single.bianchi_enforced
    assert cg.cyclic_sum(single, (0, 1, 2, 3)) == pytest.approx(1.0, abs=0)
    assert cg.cyclic_sum(single, (0, 0, 2, 3)) == 0.0


def test_cyclic_sums_add_left_to_right(tmp_path):
    # 1e16 + 1.0 rounds back to 1e16, so the three cyclic terms add to 0.0
    # left to right; a compensated sum (builtin sum() from Python 3.12 on)
    # gives 1.0. Every reader of the cyclic residual must give 0.0 on every
    # Python. Uses only the standard library, so it also runs without pytest.
    records = [((0, 1, 2, 3), 1e16), ((0, 2, 3, 1), 1.0), ((0, 3, 1, 2), -1e16)]
    R = cg.from_component_list(4, records)
    assert [sign * R.rows[s][t] for s, t, sign in symcore._CYCLIC_TERMS] == [1e16, 1.0, -1e16]
    assert symcore._cyclic_residual(R.rows) == 0.0
    assert cg.cyclic_sum(R, (0, 1, 2, 3)) == 0.0
    assert cg.classification_report(R)["residuals"]["bianchi"] == 0.0
    doc = {"n": 4, "components": [{"idx": list(q), "value": v} for q, v in records]}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["check", "--input", str(path)], out=out, err=err) == 0, err.getvalue()
    assert json.loads(out.getvalue())["bianchi_residual"] == 0.0


def test_bianchi_flag_is_measured_not_stored():
    assert cg.RiemannComponents(np.zeros((6, 6))).bianchi_enforced is True
    with pytest.raises(TypeError):
        cg.RiemannComponents(np.zeros((6, 6)), bianchi_enforced=True)
    # lex slot pair (01, 23) is R_0123, one term of the cyclic sum; the bound is
    # INGEST_TOL up to max|M| = 1 and INGEST_TOL * max|M| above it
    for scale in (1e-6, 1.0, 1e6):
        for factor, expected in ((0.5, True), (2.0, False)):
            M = np.zeros((6, 6))
            M[4, 4] = scale
            M[0, 5] = M[5, 0] = factor * cg.INGEST_TOL * max(1.0, scale)
            assert cg.RiemannComponents(M).bianchi_enforced is expected


def _bianchi_rule(R):
    residual = cg.cyclic_sum(R, (0, 1, 2, 3))
    return abs(residual) <= cg.INGEST_TOL * max(1.0, float(np.abs(R.matrix).max()))


def test_bianchi_flag_matches_rule_on_every_constructor():
    enforced, other = [cg.zero_riemann()], []
    for seed in range(40):
        R = cg.random_riemann(seed)
        enforced += [R, cg.random_riemann(seed, ricci_flat=True)]
        for scale in (1e-200, 1e200):
            enforced.append(cg.project_bianchi(cg.RiemannComponents(R.matrix * scale)))
        enforced.append(cg.from_component_list(4, [(q, cg.get_component(R, q)) for q in ALL_QUADS]))
        rng = np.random.default_rng(seed)
        M = rng.uniform(-1.0, 1.0, (6, 6))
        other.append(cg.RiemannComponents(M + M.T))
        quad = tuple(int(v) for v in rng.permutation(4))
        other.append(cg.from_component_list(4, [(quad, rng.uniform(0.5, 1.0))]))
    for R in enforced + other:
        assert R.bianchi_enforced is _bianchi_rule(R)
    assert all(R.bianchi_enforced for R in enforced)
    assert not any(R.bianchi_enforced for R in other)


def test_cyclic_symmetrization():
    R = cg.random_riemann(4)
    assert abs(cg.cyclic_symmetrization(R, (0, 1, 2, 3))) <= 1e-12
    single = cg.from_component_list(4, [((0, 1, 2, 3), 6.0)])
    assert cg.cyclic_symmetrization(single, (0, 1, 2, 3)) == pytest.approx(1.0, abs=1e-15)
    assert cg.cyclic_symmetrization(single, (0, 0, 1, 2)) == 0.0


def test_project_bianchi_least_squares_value():
    R = cg.from_component_list(4, [((0, 1, 2, 3), 1.0)])
    P = cg.project_bianchi(R)
    assert P.matrix[0, 5] == pytest.approx(2.0 / 3.0, abs=1e-15)  # lex 01,23
    assert P.matrix[1, 4] == pytest.approx(1.0 / 3.0, abs=1e-15)  # lex 02,13
    assert P.matrix[2, 3] == pytest.approx(-1.0 / 3.0, abs=1e-15)  # lex 03,12
    assert P.bianchi_enforced
    # every other entry untouched
    mask = np.ones((6, 6), dtype=bool)
    for s, t in ((0, 5), (1, 4), (2, 3)):
        mask[s, t] = mask[t, s] = False
    assert np.array_equal(P.matrix[mask], R.matrix[mask])


def test_project_bianchi_fixes_enforced_exactly():
    # residual is exactly zero in floating point: 1 - 1 + 0
    R = cg.from_component_list(4, [((0, 1, 2, 3), 1.0), ((0, 2, 1, 3), 1.0)])
    assert cg.cyclic_sum(R, (0, 1, 2, 3)) == 0.0
    P = cg.project_bianchi(R)
    assert np.array_equal(P.matrix, R.matrix)

    Z = cg.project_bianchi(cg.zero_riemann())
    assert np.all(Z.matrix == 0.0)


def test_project_bianchi_idempotent():
    P = cg.project_bianchi(cg.random_riemann(17))
    P2 = cg.project_bianchi(P)
    assert np.abs(P2.matrix - P.matrix).max() <= 1e-15


def test_ricci():
    Z = cg.zero_riemann()
    assert all(cg.ricci(Z, x, y) == 0.0 for x in range(4) for y in range(4))

    c = 3.5
    diag = cg.from_component_list(4, [((0, 1, 0, 1), c)])
    assert cg.ricci(diag, 0, 0) == pytest.approx(c, abs=0)

    flat = cg.random_riemann(8, ricci_flat=True)
    for x in range(4):
        for y in range(4):
            assert abs(cg.ricci(flat, x, y)) <= 1e-10


def test_random_riemann_deterministic_and_enforced():
    a = cg.random_riemann(123)
    b = cg.random_riemann(123)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.bianchi_enforced
    # generically non-flat
    assert np.abs(cg.ricci_matrix(a)).max() > 1e-6

    fa = cg.random_riemann(123, ricci_flat=True)
    fb = cg.random_riemann(123, ricci_flat=True)
    assert np.array_equal(fa.matrix, fb.matrix)
    assert np.array_equal(a.matrix, b.matrix)
    assert max(abs(cg.cyclic_sum(fa, q)) for q in ALL_QUADS) <= 1e-12


def _ricci_constraint_rows():
    # the flatness conditions eta^aa R_aXaY = 0, X <= Y, as sparse rows over the
    # 256 raw components, in the column order of ratlinalg.symmetry_constraint_rows
    rows = []
    for X in range(4):
        for Y in range(X, 4):
            row = {}
            for a in range(4):
                col = ((a * 4 + X) * 4 + a) * 4 + Y
                row[col] = row.get(col, 0) + cg.METRIC_SIGNATURE[a]
            rows.append(row)
    return rows


def test_constraint_ranks_confirm_sector_dimensions():
    # raw-component route, independent of the pair-slot storage
    sym = ratlinalg.symmetry_constraint_rows(4)
    assert 4**4 - rank_sparse(sym) == 20
    both = sym + _ricci_constraint_rows()
    assert 4**4 - rank_sparse(both) == 10


def test_symmetry_constraint_rows_hold_no_zero_coefficient():
    # a coefficient that cancels, as in the block row of (a, b, a, b), is left out
    for n in range(1, 5):
        rows = ratlinalg.symmetry_constraint_rows(n)
        assert rows and all(row and 0 not in row.values() for row in rows)


def test_pair_count():
    assert cg.pair_count(4) == 6
    assert cg.pair_count(1) == 0
    assert cg.pair_count(6) == 15
    with pytest.raises(ValueError):
        cg.pair_count(0)


def test_independent_component_count():
    assert cg.independent_component_count(4) == 20
    assert cg.independent_component_count(1) == 0
    assert cg.independent_component_count(3) == 6
    assert cg.independent_component_count(2) == 1


def test_generalized_count():
    assert cg.generalized_count(4, 4) == 21 - 1
    assert cg.generalized_count(4, 3) == 21 - 4
    assert cg.generalized_count(4, 0) == 20
    with pytest.raises(ValueError):
        cg.generalized_count(4, 5)


@pytest.mark.parametrize("fn, args, message", [
    (cg.pair_count, (0,), "n must be >= 1, got 0"),
    (cg.independent_component_count, (-3,), "n must be >= 1, got -3"),
    # n is checked before r: the fault is n even where r is out of range too
    (cg.generalized_count, (-3, 0), "n must be >= 1, got -3"),
    (cg.generalized_count, (0, 5), "n must be >= 1, got 0"),
    (cg.generalized_count, (4, 9), "r must satisfy 0 <= r <= n, got r = 9 with n = 4"),
    (cg.generalized_count, (4, -1), "r must satisfy 0 <= r <= n, got r = -1 with n = 4"),
    # a count is an integer: a float, even an integral one, or a str is refused
    (cg.pair_count, (4.0,), "n must be an integer, got 4.0"),
    (cg.independent_component_count, (4.0,), "n must be an integer, got 4.0"),
    (cg.independent_component_count, ("4",), "n must be an integer, got '4'"),
    (cg.generalized_count, (4.0, 9), "n must be an integer, got 4.0"),
    (cg.generalized_count, (4, 2.5), "r must be an integer, got 2.5"),
    (cg.symmetry_space_dimension_oracle, (4.0,), "n must be an integer, got 4.0"),
    (cg.edge_count, (2.5,), "alpha must be an integer, got 2.5"),
    (cg.pair_vertex_count, (3.0,), "r must be an integer, got 3.0"),
    (cg.cycle_sign, (1.5,), "m must be an integer, got 1.5"),
    (cg.fuzzy_union, (cg.epsilon_loop(0, 1), cg.fuzzy_riemann_graph(cg.STANDARD_SPEC), 1.5),
     "alpha must be an integer, got 1.5"),
    # the dimension of the storage and of the constraint rows is an integer too
    (cg.from_component_list, (4.0, [((0, 1, 2, 3), 1.0)]), "n must be an integer, got 4.0"),
    (ratlinalg.symmetry_constraint_rows, (4.0,), "n must be an integer, got 4.0"),
    # the oracle's rows grow as n**4: it counts 1 <= n <= 5 only
    (cg.symmetry_space_dimension_oracle, (0,), "oracle is restricted to 1 <= n <= 5"),
    (cg.symmetry_space_dimension_oracle, (6,), "oracle is restricted to 1 <= n <= 5"),
    # the fuzzy analog names a vertex, a reference cycle, a bridge or an alpha it refuses
    (cg.domination_set, (cg.fuzzy_riemann_graph(cg.STANDARD_SPEC), 9), "vertex 9 not in graph"),
    (cg.levi_civita, (1, 2, 3, (1, 2)), "reference cycle must list 3 distinct vertices"),
    (cg.fuzzy_union, (cg.epsilon_loop(0, 1), cg.FuzzyGraph({1: Fraction(1, 3)}), 1),
     "graph has no unique fixed vertex (sigma == 1)"),
    (cg.fuzzy_union, (cg.epsilon_loop(0, 1), cg.FuzzyGraph(
        {0: 1, 1: Fraction(1, 3), 2: Fraction(1, 3)},
        {frozenset((0, 1)): Fraction(1, 3), frozenset((0, 2)): Fraction(1, 3)}), 1),
     "fixed vertex is not connected to exactly one vertex"),
    (cg.fuzzy_union, (cg.epsilon_loop(0, 1), cg.fuzzy_riemann_graph(cg.STANDARD_SPEC), 0),
     "alpha must be >= 1, got 0"),
    (cg.symmetry_space_dimension_oracle, ("4",), "n must be an integer, got '4'"),
    (cg.pair_vertex_count, (-1,), "r must be >= 1, got -1"),
], ids=lambda v: getattr(v, "__name__", None))
def test_counts_name_the_rule_and_the_numbers(fn, args, message):
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert str(info.value) == message


def test_count_identity_binomial_form():
    for n in range(2, 9):
        lhs = math.comb(n, 2) + 3 * math.comb(n, 3) + 2 * math.comb(n, 4)
        assert lhs == n * n * (n * n - 1) // 12
        assert lhs == cg.independent_component_count(n)


def test_dimension_oracle_agrees_with_formula():
    for n in (2, 3, 4):
        assert cg.symmetry_space_dimension_oracle(n) == cg.independent_component_count(n)
    with pytest.raises(ValueError):
        cg.symmetry_space_dimension_oracle(6)


def _ref_nullspace_dense(rows, ncols):
    # a dense reduced-echelon nullspace on coefficient lists, frozen: the
    # elimination that built the sector basis below
    mat = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != ncols for row in mat):
        raise ValueError("rows must all have length ncols")
    pivot_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(mat):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivot_cols):
            vec[pc] = -mat[i][free]
        basis.append(vec)
    return basis


def _ref_weyl_sector_basis():
    # the basis of the Ricci-flat, cyclic sector that seeded tensors were
    # drawn in, frozen: the constraints probed on the 21 upper-triangle unit
    # matrices, transposed, and solved by the frozen dense nullspace
    columns = []
    for s, t in symcore._upper_coords():
        E = [[0.0] * 6 for _ in range(6)]
        E[s][t] = E[t][s] = 1.0
        columns.append([symcore._cyclic_residual(E), *symcore._ricci_upper(E)])
    null = _ref_nullspace_dense(list(zip(*columns)), len(columns))
    return np.array([[float(x) for x in vec] for vec in null])


def test_random_ricci_flat_tensors_are_the_frozen_basis_build():
    # every seed gives, bit for bit with the sign of zero, the tensor the
    # rational sector basis gave: ten uniform draws times the basis rows
    basis = _ref_weyl_sector_basis()
    for seed in range(2000):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, size=10) @ basis
        M = np.zeros((6, 6))
        for (s, t), v in zip(symcore._upper_coords(), values):
            M[s, t] = M[t, s] = v
        assert np.array(cg.random_riemann(seed, ricci_flat=True).rows).tobytes() == M.tobytes()


#: the 10 unit Gaussian-integer W that span the symmetric traceless 3x3 matrices
UNIT_OMEGAS = [
    [[unit * x for x in row] for row in E]
    for E in ([[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
              [[0, 1, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
              [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    for unit in (1, 1j)
]


def test_from_omega_of_unit_omegas_is_exactly_flat_and_cyclic():
    # the cyclic sum and the 16 contractions, in Fractions on each tensor,
    # read through pair_slot rather than the route tables
    for W in UNIT_OMEGAS:
        M = [[Fraction(x) for x in row] for row in cg.from_omega(W).rows]

        def R(a, b, c, d):
            if a == b or c == d:
                return Fraction(0)
            p, q = cg.pair_slot(a, b), cg.pair_slot(c, d)
            return p.sign * q.sign * M[p.slot][q.slot]

        assert R(0, 1, 2, 3) + R(0, 2, 3, 1) + R(0, 3, 1, 2) == 0
        for X, Y in product(range(4), repeat=2):
            assert sum(symcore.METRIC_SIGNATURE[a] * R(a, X, a, Y) for a in range(4)) == 0
    # and the ten tensors span the 10-dimensional sector
    columns = {st: k for k, st in enumerate(symcore._upper_coords())}
    rows = [{columns[s, t]: cg.from_omega(W).rows[s][t] for s, t in columns} for W in UNIT_OMEGAS]
    assert rank_sparse(rows) == 10


def test_pair_matrix_signed_permutation():
    R = cg.random_riemann(29)
    duad = cg.pair_matrix(R, cg.PairBasis.DUAD)
    # the conversion is a signed permutation: build it from the slot maps
    P = np.zeros((6, 6))
    for k, (a, b) in enumerate(symcore.DUAD_PAIRS):
        slot = cg.pair_slot(a, b, cg.PairBasis.LEX)
        P[k, slot.slot] = slot.sign
    assert np.array_equal(duad, P @ R.matrix @ P.T)
    assert np.array_equal(cg.pair_matrix(R), R.matrix)
    assert np.array_equal(cg.pair_matrix(R, cg.PairBasis.LEX), R.matrix)


@pytest.mark.parametrize(
    "quad", [(0, 1, 2, 4), (-1, 1, 2, 3), (0, 1, 2), (0, 1, 2, 3, 0), (0, 1.0, 2, 3)]
)
def test_routing_rejects_invalid_quads(quad):
    # 1.0 hashes like 1, so a bare table lookup would accept it
    R = cg.random_riemann(0)
    with pytest.raises(ValueError):
        cg.get_component(R, quad)
    with pytest.raises(ValueError):
        cg.from_component_list(4, [(quad, 1.0)])


def test_routing_accepts_numpy_integer_indices():
    R = cg.random_riemann(0)
    entries = []
    for q in ALL_QUADS:
        nq = tuple(np.int64(i) for i in q)
        assert cg.get_component(R, nq) == cg.get_component(R, q)
        entries.append((nq, cg.get_component(R, q)))
    assert np.array_equal(cg.from_component_list(4, entries).matrix, R.matrix)


def _per_index_check_quad(quad):
    # reference: check_quad as one operator.index and range test per index
    if len(quad) != 4:
        raise ValueError(f"quad must have 4 indices, got {quad!r}")
    checked = []
    for value in quad:
        try:
            v = operator.index(value)
        except TypeError:
            raise ValueError(f"index must be an integer, got {value!r}") from None
        if not 0 <= v < 4:
            raise ValueError(f"index must lie in [0, 4), got {v}")
        checked.append(v)
    return tuple(checked)


# accepted (bool, numpy integers in range) and rejected index entries alike
_ODD_ENTRIES = [True, False, np.int64(2), np.int8(-1), np.uint8(4), 1.0, np.float64(2.0),
                0.5, "1", None, -1, 4, 7, 10**30]


def _check_quad_inputs():
    yield from ALL_QUADS
    for quad in ALL_QUADS[::17]:
        for pos, entry in product(range(4), _ODD_ENTRIES):
            yield quad[:pos] + (entry,) + quad[pos + 1:]
    yield from [(), (0, 1, 2), (0, 1, 2, 3, 0), (5, "a", 0, 0), ("a", 5, 0, 0), (-1, 9, 0, 0)]


def _outcome(fn, quad):
    try:
        got = fn(quad)
    except Exception as exc:
        return type(exc), str(exc)
    return got, tuple(map(type, got))


def test_check_quad_matches_per_index_validation():
    for quad in _check_quad_inputs():
        for arg in (quad, list(quad)):
            assert _outcome(symcore.check_quad, arg) == _outcome(_per_index_check_quad, arg), arg


def test_from_component_list_rejects_value_too_large_for_float():
    with pytest.raises(ValueError) as info:
        cg.from_component_list(4, [((0, 1, 0, 1), 10**400)])
    assert str(info.value) == "component value for (0, 1, 0, 1) is too large for a float"


def _loop_pair_matrix(R, basis):
    pairs = cg.basis_pairs(basis)
    return np.array([[cg.get_component(R, (*p, *q)) for q in pairs] for p in pairs])


def _loop_ricci_matrix(R):
    # plain left-to-right accumulation; builtin sum() compensates from 3.12 on
    ric = np.zeros((4, 4))
    for X, Y in product(range(4), repeat=2):
        acc = 0.0
        for a in range(4):
            acc += symcore.METRIC_SIGNATURE[a] * cg.get_component(R, (a, X, a, Y))
        ric[X, Y] = acc
    return ric


def _gather_reference_tensors():
    for seed in range(100):
        for R in (cg.random_riemann(seed, ricci_flat=True), cg.random_riemann(seed)):
            yield R
            # the DUAD-permuted matrix, stored as a LEX matrix of its own
            yield cg.RiemannComponents(cg.pair_matrix(R, cg.PairBasis.DUAD))
    # sparse storage with exact (and negative) zeros, as stored and DUAD-permuted
    rng = np.random.default_rng(11)
    for k in range(60):
        M = np.zeros((6, 6))
        for _ in range(1 + k % 4):
            s, t = rng.integers(0, 6, size=2)
            M[s, t] = M[t, s] = rng.choice([-1.5, -0.0, 2.0, rng.uniform(-1, 1)])
        yield from _stored_and_duad_permuted(M)
    upper = np.triu(np.ones((6, 6), dtype=bool))
    for _ in range(20):
        Z = np.where(rng.random((6, 6)) < 0.5, -0.0, 0.0)
        yield from _stored_and_duad_permuted(np.where(upper, Z, Z.T))


def _stored_and_duad_permuted(M):
    R = cg.RiemannComponents(M)
    yield R
    yield cg.RiemannComponents(cg.pair_matrix(R, cg.PairBasis.DUAD))


def _bitwise_equal(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(a, b)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def test_gathers_match_component_loops_bitwise():
    # values and signed zeros, so a matmul rewrite (which drops -0.0) fails
    for R in _gather_reference_tensors():
        for basis in cg.PairBasis:
            assert _bitwise_equal(cg.pair_matrix(R, basis), _loop_pair_matrix(R, basis))
        assert _bitwise_equal(cg.ricci_matrix(R), _loop_ricci_matrix(R))
