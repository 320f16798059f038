"""The pair matrix stored as Python rows, and a CLI without numpy.

``RiemannComponents.rows`` holds the LEX pair matrix as six tuples of six
floats; ``matrix`` is the same matrix as a read-only ndarray, built on first
access. The references below are frozen copies of the numpy gathers that read
an ndarray store: every array function and the classify report must agree
with them bit for bit, signed zeros included. Every CLI command, and every
library call that returns no ndarray, must give the same result with numpy
blocked from import, and none may try to import it; the calls that return
ndarrays must fail with ImportError there. A cold ``python -m curvgraph``
command loads only the curvgraph and standard-library modules it runs.
"""
import inspect
import io
import json
import math
import os
import subprocess
import sys
from functools import reduce
from itertools import product
from operator import add
from pathlib import Path

import numpy as np
import pytest

import curvgraph as cg
from conftest import DIGIT_LIMIT
from curvgraph import cli, petrov, symcore

FIXTURE = Path(__file__).parent / "fixtures" / "ricci_flat.json"
PACKAGE_ROOT = str(Path(cg.__file__).resolve().parents[1])


# --- frozen reference: numpy gathers over an ndarray store ---------------------

def _ref_gather(quads, shape, weights=1.0):
    routes = np.array([symcore._ROUTE[q] or (0, 0, 0) for q in quads])
    S, T, sign = routes.T.reshape(3, *shape)
    return S, T, sign * np.asarray(weights, dtype=float)


_REF_PAIR = {
    basis: _ref_gather([(*p, *q) for p in pairs for q in pairs], (6, 6))
    for basis, pairs in ((cg.PairBasis.LEX, symcore.LEX_PAIRS),
                         (cg.PairBasis.DUAD, symcore.DUAD_PAIRS))
}
_REF_RICCI = _ref_gather([(a, X, a, Y) for X, Y, a in product(range(4), repeat=3)],
                         (4, 4, 4), cg.METRIC_SIGNATURE)
_REF_RAISING = np.array([float(cg.METRIC_SIGNATURE[a] * cg.METRIC_SIGNATURE[b])
                         for a, b in symcore.DUAD_PAIRS])


def _ref_pair_matrix(M, basis):
    S, T, sign = _REF_PAIR[basis]
    return sign * M[S, T]


def _ref_ricci_matrix(M):
    S, T, sign = _REF_RICCI
    return np.add.reduce(sign * M[S, T], axis=2, initial=0.0)


def _ref_six(M):
    cov = _ref_pair_matrix(M, cg.PairBasis.DUAD)
    return _REF_RAISING[:, None] * cov, cov


def _ref_omega(M):
    entries, cov = _ref_six(M)
    return cov[:3, :3] + 1j * entries[3:, :3]


def _ref_report(M, tol=petrov.DEFAULT_TOL):
    C = _ref_six(M)[1].tolist()
    p = [row[:3] for row in C[:3]]
    s = [row[:3] for row in C[3:]]
    lam = [row[3:] for row in C[3:]]
    W = tuple(tuple(x + 1j * y for x, y in zip(pr, sr)) for pr, sr in zip(p, s))
    sol = cg.eigen(W, tol)
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
            "trace_psi": abs(p[0][0] + p[1][1] + p[2][2]),
            "sigma_asymmetry": max(abs(s[i][j] - s[j][i]) for i, j in ((0, 1), (0, 2), (1, 2))),
            "psi_plus_lambda": max(abs(x + y) for pr, lr in zip(p, lam) for x, y in zip(pr, lr)),
            "trace_omega": abs(W[0][0] + W[1][1] + W[2][2]),
            # left to right from 0.0: builtin sum() compensates from Python 3.12 on
            "bianchi": abs(reduce(add, [sign * M.item(s, t)
                                        for s, t, sign in symcore._CYCLIC_TERMS], 0.0)),
            "ricci_max": max(abs(x) for row in _ref_ricci_matrix(M).tolist() for x in row),
        },
    }


# --- seeded inputs ---------------------------------------------------------------

def _symmetric(upper):
    M = np.triu(upper)
    return M + np.triu(M, 1).T


#: The omegas of the special fixtures of tests/test_petrov.py: D, I, N, II, III and O.
_SPECIAL_OMEGAS = [np.diag([-2.0, 1.0, 1.0]), np.diag([1.0, 2.0, -3.0]),
                   np.array([[1, 1j, 0], [1j, -1, 0], [0, 0, 0]]),
                   np.array([[2, 1j, 0], [1j, 0, 0], [0, 0, -2]]),
                   np.array([[0, 0, 1], [0, 0, 1j], [1, 1j, 0]]), np.zeros((3, 3))]


def _with_omega(W):
    # the LEX matrix whose duad six-matrix is [[Re W, Im W^T], [Im W, -Re W]]
    W = np.asarray(W, dtype=complex)
    S, T, sign = _REF_PAIR[cg.PairBasis.DUAD]
    M = np.zeros((6, 6))
    M[S, T] = M[T, S] = sign * np.block([[W.real, W.imag.T], [W.imag, -W.real]])
    return M


def _seeded_matrices():
    """Float ndarrays: seeded tensors, their DUAD permutations, wide magnitudes
    (so any change of summation order shows), signed zeros, and tensors whose
    omega is a special fixture at scales that do and do not need scaling back."""
    rng = np.random.default_rng(7)
    for W in _SPECIAL_OMEGAS:
        for c in (1.0, 1j, 3e-7, 2.5e12):
            yield _with_omega(c * W)
    for seed in range(40):
        for R in (cg.random_riemann(seed), cg.random_riemann(seed, ricci_flat=True)):
            yield R.matrix
            yield _ref_pair_matrix(R.matrix, cg.PairBasis.DUAD)
    for _ in range(40):
        wide = rng.choice([-1.0, 1.0], size=(6, 6)) * 10.0 ** rng.uniform(-8, 8, size=(6, 6))
        yield _symmetric(wide)
        zeros = np.where(rng.random((6, 6)) < 0.5, -0.0, 0.0)
        sparse = np.where(rng.random((6, 6)) < 0.3, rng.uniform(-2, 2, size=(6, 6)), zeros)
        yield _symmetric(sparse)
        # a scaled Ricci-flat tensor reaches eigen at another scale
        flat = cg.random_riemann(int(rng.integers(1000)), ricci_flat=True).matrix
        yield flat * 10.0 ** rng.uniform(-5, 5)


def _bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype.kind == "c":
        return _bitwise_equal(a.real, b.real) and _bitwise_equal(a.imag, b.imag)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _report_outcome(fn, *args):
    try:
        return json.dumps(fn(*args))  # repr-exact floats, -0.0 included
    except ValueError as exc:
        return type(exc).__name__, str(exc)


# --- storage contract ------------------------------------------------------------

def _inputs_of(M):
    rows = M.tolist()
    return {"ndarray": M, "list": rows, "tuple": tuple(map(tuple, rows))}


@pytest.mark.parametrize("kind", ["ndarray", "list", "tuple"])
def test_rows_hold_exact_floats_and_matrix_is_their_frozen_copy(kind):
    for M in _seeded_matrices():
        R = cg.RiemannComponents(_inputs_of(M)[kind])
        assert type(R.rows) is tuple and len(R.rows) == 6
        assert all(type(row) is tuple and len(row) == 6 for row in R.rows)
        assert all(type(x) is float for row in R.rows for x in row)
        assert _bitwise_equal(np.array(R.rows), M)
        assert _bitwise_equal(R.matrix, M)
        assert R.matrix.flags.writeable is False
        assert R.matrix is R.matrix  # built once
        with pytest.raises(ValueError):
            R.matrix[0, 0] = 1.0


def test_integer_and_numpy_scalar_entries_become_floats():
    ints = [[int(s == t) for t in range(6)] for s in range(6)]
    for value in (ints, np.array(ints), [[np.float32(x) for x in row] for row in ints]):
        R = cg.RiemannComponents(value)
        assert all(type(x) is float for row in R.rows for x in row)
        assert R.rows == tuple(tuple(float(x) for x in row) for row in ints)


def _constructor_error(value, *more):
    with pytest.raises((ValueError, TypeError)) as info:
        cg.RiemannComponents(value, *more)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind", ["ndarray", "list", "tuple"])
def test_constructor_error_texts(kind):
    shape = (ValueError, "matrix must be 6x6, got (5, 5)")
    symmetric = (ValueError, "pair-component matrix must be exactly symmetric")
    finite = (ValueError, "matrix must be finite")
    assert _constructor_error(_inputs_of(np.zeros((5, 5)))[kind]) == shape
    skew = np.zeros((6, 6))
    skew[0, 1] = 1.0
    assert _constructor_error(_inputs_of(skew)[kind]) == symmetric
    for value in (math.inf, -math.inf, math.nan):
        for s, t in ((2, 2), (1, 4)):
            M = np.zeros((6, 6))
            M[s, t] = M[t, s] = value
            assert _constructor_error(_inputs_of(M)[kind]) == finite, (value, s, t)
    # a NaN is named as non-finite, although it also fails the exact symmetry
    # test, even when both entries are one object
    nan_rows = [[0.0] * 6 for _ in range(6)]
    nan_rows[0][3] = nan_rows[3][0] = math.nan
    assert _constructor_error(nan_rows) == finite
    assert _constructor_error(_inputs_of(np.zeros((6, 6)))[kind], cg.PairBasis.DUAD) == (
        TypeError, "RiemannComponents.__init__() takes 2 positional arguments but 3 were given")


#: List and scalar inputs that do not read as a 6x6 matrix of numbers, as source
#: text with the error each raises: the numpy-blocked child below evaluates the
#: same text.
SHAPE_FAULTS = [
    ("[0.0] * 6", "matrix row 0 must be a list, tuple or ndarray, got float"),
    ("0.0", "matrix must be a list, tuple or ndarray, got float"),
    ("[[[0.0]] * 6] * 6", "matrix entry (0, 0) is not a real number: [0.0]"),
    ('["000000"] * 6', "matrix row 0 must be a list, tuple or ndarray, got str"),
    ('[b"000000"] * 6', "matrix row 0 must be a list, tuple or ndarray, got bytes"),
]
ROW_FAULTS = [
    ("[dict.fromkeys(range(6), 0.0)] * 6", "matrix row 0 must be a list, tuple or ndarray, got dict"),
    ("[set(range(6))] * 6", "matrix row 0 must be a list, tuple or ndarray, got set"),
    ('[[0.0] * 6] * 5 + ["000000"]', "matrix row 5 must be a list, tuple or ndarray, got str"),
    ("[[0.0] * 6] * 5 + [[0.0] * 5]", "matrix row 5 has 5 entries, row 0 has 6"),
    ("[range(6)] * 6", "matrix row 0 must be a list, tuple or ndarray, got range"),
    ("[[None] * 6] * 6", "matrix entry (0, 0) is not a real number: None"),
    ("[[0.0] * 6] * 5 + [[0.0] * 5 + ['x']]", "matrix entry (5, 5) is not a real number: 'x'"),
    # text entries that float would parse as numbers
    ('[["0"] * 6] * 6', "matrix entry (0, 0) is not a real number: '0'"),
    ("[[0.0] * 6] * 5 + [[0.0] * 5 + [b'1e3']]", "matrix entry (5, 5) is not a real number: b'1e3'"),
    ("[[0.0] * 6] * 2 + [[0.0, ' 2 '] + [0.0] * 4] + [[0.0] * 6] * 3",
     "matrix entry (2, 1) is not a real number: ' 2 '"),
    # integers too large for a float
    ("[[10**400] * 6] * 6", "matrix entry (0, 0) is too large for a float"),
    ("[[0.0] * 6] * 5 + [[0.0] * 5 + [-10**400]]", "matrix entry (5, 5) is too large for a float"),
]


def test_other_shapes_name_the_ndarray_shape_or_the_list_fault():
    for value, shape in ((np.zeros((6, 6, 1)), "(6, 6, 1)"), (np.zeros((6, 5)), "(6, 5)"),
                         (np.float64(0.0), "()")):
        assert _constructor_error(value) == (ValueError, f"matrix must be 6x6, got {shape}")
    for source, message in SHAPE_FAULTS:
        assert _constructor_error(eval(source)) == (ValueError, message), source


def test_bad_rows_and_entries_are_named():
    for source, message in ROW_FAULTS:
        assert _constructor_error(eval(source)) == (ValueError, message), source
    # ndarray rows read through tolist
    assert cg.RiemannComponents(list(np.eye(6))).rows == cg.RiemannComponents(np.eye(6)).rows
    assert _constructor_error(list(np.zeros((6, 5)))) == (ValueError, "matrix must be 6x6, got (6, 5)")
    assert _constructor_error(np.full((6, 6), 10**400, dtype=object)) == (
        ValueError, "matrix entry (0, 0) is too large for a float")


# --- bitwise agreement with the numpy gathers -------------------------------------

def test_array_functions_match_numpy_gathers_bitwise():
    for M in _seeded_matrices():
        R = cg.RiemannComponents(M)
        for basis in cg.PairBasis:
            assert _bitwise_equal(cg.pair_matrix(R, basis), _ref_pair_matrix(M, basis))
        assert _bitwise_equal(cg.ricci_matrix(R), _ref_ricci_matrix(M))
        entries, cov = _ref_six(M)
        six = cg.assemble_six_matrix(R)
        assert _bitwise_equal(six.entries, entries) and _bitwise_equal(six.covariant, cov)
        assert _bitwise_equal(cg.omega(R), _ref_omega(M))


def test_classification_report_matches_numpy_gathers_bitwise():
    for M in _seeded_matrices():
        R = cg.RiemannComponents(M)
        for tol in (petrov.DEFAULT_TOL, 1e-6):
            assert _report_outcome(cg.classification_report, R, tol) == _report_outcome(
                _ref_report, M, tol)


def test_report_ricci_max_is_the_numpy_contraction_max():
    rng = np.random.default_rng(3)
    for _ in range(200):
        M = _symmetric(rng.choice([-1.0, 1.0], size=(6, 6)) * 10.0 ** rng.uniform(-12, 12, (6, 6)))
        want = float(np.abs(_ref_ricci_matrix(M)).max())
        assert symcore._ricci_max(symcore._ricci_upper(cg.RiemannComponents(M).rows)) == want


def test_project_bianchi_names_the_overflow():
    M = np.zeros((6, 6))
    M[0, 5] = M[5, 0] = 1.7e308  # R_0123
    M[1, 4] = M[4, 1] = -1.7e308  # R_0231 = -M[1, 4]: the residual is inf
    with pytest.raises(OverflowError, match="cyclic residual"):
        cg.project_bianchi(cg.RiemannComponents(M))
    # finite residual, corrected entry past the float range
    M[2, 3] = M[3, 2] = -1.7e308
    M[1, 4] = M[4, 1] = 1.7e308
    assert math.isfinite(symcore._cyclic_residual(cg.RiemannComponents(M).rows))
    with pytest.raises(OverflowError, match="cyclic residual"):
        cg.project_bianchi(cg.RiemannComponents(M))


# --- the CLI without numpy --------------------------------------------------------

def _full_document(seed):
    """perfbench-style: all 256 raw components of a Ricci-flat tensor, shuffled."""
    rng = np.random.default_rng(seed)
    R = cg.random_riemann(seed, ricci_flat=True)
    quads = list(product(range(4), repeat=4))
    comps = [{"idx": list(quads[i]), "value": cg.get_component(R, quads[i])}
             for i in rng.permutation(len(quads))]
    return json.dumps({"n": 4, "components": comps}, indent=2) + "\n"


NUMPY_FREE = [["classify"], ["classify", "--enforce-bianchi"], ["graph", "--kind", "k6"],
              ["graph", "--kind", "k6", "--format", "structured", "--enforce-bianchi"],
              ["check"], ["check", "--enforce-bianchi"], ["matrix", "--basis", "lex"],
              ["matrix", "--basis", "duad"]]
NO_INPUT = [["count", "--n", "4"], ["count", "--n", "4", "--r", "2"],
            ["count", "--n", "4", "--r", "3"],
            ["canon", "--expr", "R_{imkl} + 2*R_{kilm}", "--bianchi"],
            ["fuzzy", "--union"], ["fuzzy", "--format", "structured"],
            ["graph", "--kind", "variant"], ["graph", "--label", "G4", "--format", "structured"]]

def _outcome(job):
    """(exit code, stdout, stderr) of a CLI argv, or ("ok", repr of the value)
    or (exception name, message) of a library expression over cg, cli and math."""
    if isinstance(job, list):
        out, err = io.StringIO(), io.StringIO()
        return [cli.run(job, out=out, err=err), out.getvalue(), err.getvalue()]
    try:
        return ["ok", repr(eval(job, {"cg": cg, "cli": cli, "math": math}))]
    except Exception as exc:
        return [type(exc).__name__, str(exc)]


#: Child-process prelude: any import of numpy raises ImportError, and
#: ``NoNumpy.tried`` records whether one was tried.
_NO_NUMPY = """
import sys

class NoNumpy:
    tried = False

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            cls.tried = True
            raise ImportError("numpy is blocked")

sys.meta_path.insert(0, NoNumpy)
"""

#: Runs each job through ``_outcome`` with numpy blocked; the second field
#: records whether the job tried to import it.
_CHILD = _NO_NUMPY + """
import io, json, math
import curvgraph as cg
from curvgraph import cli
""" + inspect.getsource(_outcome) + """
results = []
for job in json.loads(sys.argv[1]):
    NoNumpy.tried = False
    results.append([_outcome(job), NoNumpy.tried or "numpy" in sys.modules])
print(json.dumps(results))
"""


def _run_child(child, *args):
    # child source run in a fresh interpreter with these arguments -> its JSON stdout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", child, *args],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def _argvs(tmp_path):
    docs = []
    for name, text in (("fixture", FIXTURE.read_text()), ("full", _full_document(5)),
                       ("ricci-overflow", json.dumps({"n": 4, "components": [
                           {"idx": [1, 2, 1, 2], "value": 1.7e308},
                           {"idx": [1, 3, 1, 3], "value": 1.7e308}]})),
                       ("cyclic-overflow", json.dumps({"n": 4, "components": [
                           {"idx": [0, 1, 2, 3], "value": 1.7e308},
                           {"idx": [0, 2, 3, 1], "value": 1.7e308}]}))):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        docs.append(str(path))
    return [[*argv, "--input", doc] for doc in docs for argv in NUMPY_FREE] + NO_INPUT


def test_cli_without_numpy_matches_in_process_run(tmp_path):
    argvs = _argvs(tmp_path)
    child = _run_child(_CHILD, json.dumps(argvs))
    assert len(child) == len(argvs)
    for argv, (outcome, numpy_tried) in zip(argvs, child):
        assert outcome == _outcome(argv), argv
        assert not numpy_tried, argv
    assert [c[0][0] for c in child] == (
        [0] * 16 + [1, 1, 0, 0, 1, 1, 0, 0] + [1, 1, 0, 1, 1, 1, 0, 0] + [0] * len(NO_INPUT))


def _matrix(entries):
    # source text of a 6x6 list of lists, zero except at the (s, t) keys of
    # ``entries``, whose values are source text too
    table = ", ".join(f"{st}: {value}" for st, value in entries.items())
    return f"[[{{{table}}}.get((s, t), 0.0) for t in range(6)] for s in range(6)]"


_IDENTITY = "[[float(s == t) for t in range(6)] for s in range(6)]"
_FIXTURE_R = f"cli.ingest(cli._read_input({str(FIXTURE)!r}))"
_SINGLE_R = "cg.from_component_list(4, [((0, 1, 2, 3), 1.0)])"
_STANDARD_G = "cg.fuzzy_riemann_graph(cg.STANDARD_SPEC)"
_NEAR_N = ("[[n + 1e-9 * e for n, e in zip(rn, re)] for rn, re in zip("
           "[[1, 1j, 0], [1j, -1, 0], [0, 0, 0]], "
           "[[1, 2 + 1j, -1], [2 + 1j, -3, 0.5j], [-1, 0.5j, 2]])]")

#: Library calls that must not import numpy, and give the same result without it.
NUMPY_FREE_CALLS = [
    f"cg.RiemannComponents({_IDENTITY}).rows",
    f"cg.RiemannComponents(tuple(map(tuple, {_IDENTITY}))).bianchi_enforced",
    f"cg.RiemannComponents(rows={_IDENTITY}).rows",
    # every constructor error text pinned above, from lists and tuples
    "cg.RiemannComponents([[0.0] * 5] * 5)",
    "cg.RiemannComponents(((0.0,) * 5,) * 5)",
    f"cg.RiemannComponents({_matrix({(0, 1): '1.0'})})",
    *[f"cg.RiemannComponents({_matrix({(s, t): value, (t, s): value})})"
      for value in ("math.inf", "-math.inf", "math.nan") for s, t in ((2, 2), (1, 4))],
    *[f"cg.RiemannComponents({source})" for source, _ in SHAPE_FAULTS + ROW_FAULTS],
    "cg.from_component_list(4, [((0, 1, 2, 3), 1.0), ((1, 0, 3, 2), 1.0)]).rows",
    "cg.from_component_list(4, [((0, 1, 2, 3), 1.0), ((1, 0, 2, 3), 1.0)])",
    "cg.from_component_list(4, [((0, 0, 2, 3), 1.0)])",
    f"cg.classification_report({_FIXTURE_R})",
    f"cg.classification_report(cg.project_bianchi({_FIXTURE_R}), tol=1e-6)",
    f"[cg.get_component({_FIXTURE_R}, q) for q in ((0, 1, 0, 1), (1, 0, 2, 3), (2, 2, 0, 1))]",
    # the two errors of blocks: a broken block relation, and a non-finite entry
    f"cg.blocks({_matrix({(3, 0): '1.0'})})",
    f"cg.blocks({_matrix({(0, 3): '5.0', (4, 0): 'math.nan'})})",
    # the 3x3 matrices of eigen and classify go through the same reader
    "cg.classify([[1, 0, 0], [0, -1, 0], [0, 0, 0]])",
    "cg.eigen([[0, 0], [0, 0]])",
    "cg.classify([[1, 0, 0], [0, -1, 0], [0, 0, 'x']])",
    # the README library tour: the tensor of one record, its projection and its K6
    f"cg.cyclic_sum({_SINGLE_R}, (0, 1, 2, 3))",
    f"{_SINGLE_R}.bianchi_enforced",
    f"cg.project_bianchi({_SINGLE_R}).bianchi_enforced",
    f"cg.classification_report(cg.project_bianchi({_SINGLE_R}))",
    f"cg.export_dot(cg.k6_structure({_SINGLE_R}))",
    f"cg.parse_structured(cg.export_structured(cg.k6_structure({_FIXTURE_R})))",
    "cg.symmetry_space_dimension_oracle(4)",
    f"cg.domination_set({_STANDARD_G}, 0)",
    "[cg.levi_civita(0, v, v) for v in (1, 2, 3)]",
    "cli.format_expression(cli.canonicalize_expression(cli.parse_expression('R_{imkl}'), True))",
    # nilpotent W: III, N, and N + 1e-9 E near the zero floor
    "cg.eigen([[0, 0, 1], [0, 0, 1j], [1, 1j, 0]])",
    "cg.eigen([[1, 1j, 0], [1j, -1, 0], [0, 0, 0]])",
    f"cg.eigen({_NEAR_N})",
    # refusals, each named
    "cg.eigen([[10**400, 0, 0], [0, 0, 0], [0, 0, 0]])",
    "cg.eigen([[math.nan, 0, 0], [0, 0, 0], [0, 0, 0]])",
    "cg.GeneralizedGraphSpec(0, 'ab')",
    "cg.GeneralizedGraphSpec([0], (1, 2))",
    "cli.parse_expression('²*R_{0123}')",
    "cg.independent_component_count(4.0)",
    "cg.from_component_list(4.0, [((0, 1, 2, 3), 1.0)])",
    "cg.ratlinalg.symmetry_constraint_rows(4.0)",
    f"cg.fuzzy_union(cg.epsilon_loop(0, 1), {_STANDARD_G}, 1.5)",
    # a sum whose denominator has more digits than str() converts, if it has a limit
    "cli.format_expression(cli.canonicalize_expression(cli.parse_expression("
    f"f'1/{{10**{DIGIT_LIMIT // 2 + 1} + 1}}*R_{{{{0123}}}} "
    f"+ 1/{{10**{DIGIT_LIMIT // 2 + 1} + 3}}*R_{{{{0123}}}}')))",
    """cg.parse_structured('{"edges": [{"u": 0, "v": 1, "directed": "false"}]}')""",
]
#: Library calls that return ndarrays: without numpy they raise ImportError.
ARRAY_CALLS = ["cg.pair_matrix(cg.zero_riemann())", "cg.zero_riemann().matrix",
               "cg.random_riemann(0)"]


def test_library_without_numpy_matches_in_process_run():
    child = _run_child(_CHILD, json.dumps(NUMPY_FREE_CALLS + ARRAY_CALLS))
    assert len(child) == len(NUMPY_FREE_CALLS) + len(ARRAY_CALLS)
    for call, (outcome, numpy_tried) in zip(NUMPY_FREE_CALLS, child):
        assert outcome == _outcome(call), call
        assert not numpy_tried, call
    # three constructions, one from_component_list, two reports, get_component,
    # classify, and the thirteen values of the tour; and the long sum where str()
    # has no digit limit
    assert sum(outcome[0] == "ok" for outcome, _ in child) == 21 + (not DIGIT_LIMIT)
    for call, (outcome, numpy_tried) in zip(ARRAY_CALLS, child[len(NUMPY_FREE_CALLS):]):
        assert outcome == ["ImportError", "numpy is blocked"] and numpy_tried, call
        assert _outcome(call)[0] == "ok", call


# --- what a cold command imports ---------------------------------------------------

#: Runs ``python -m curvgraph`` with its command line taken from the arguments,
#: in a fresh process, as the interpreter runs ``-m`` (through runpy), with
#: numpy blocked and the command's own stdout discarded. Prints the modules
#: loaded before the run, those the run added, the exit code, and whether
#: numpy was tried. Nothing is imported between the two snapshots.
_COLD_CHILD = _NO_NUMPY + """
import os, runpy

bare = set(sys.modules)
sys.argv = ["curvgraph", *sys.argv[1:]]
sys.stdout = open(os.devnull, "w")
try:
    runpy.run_module("curvgraph", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sys.modules.keys() - bare
sys.stdout = sys.__stdout__
import json
print(json.dumps([sorted(bare), sorted(loaded), code, NoNumpy.tried]))
"""

#: Standard-library modules whose import a command pays for: the classes (and
#: the introspection ``dataclasses`` imports), the rational arithmetic, the
#: parser, the document format and the annotations.
WATCHED = {"dataclasses", "inspect", "fractions", "decimal", "argparse", "json", "typing"}
_CORE = {"curvgraph", "curvgraph.cli", "curvgraph.expressions", "curvgraph.jsondoc",
         "curvgraph.petrov", "curvgraph.symcore"}
_BASE = {"argparse", "json"}
#: what the graph commands add: graphana; the fuzzy command adds its rational
#: memberships too
_GRAPH = {"curvgraph.graphana"}
_RATIONAL = {"fractions", "decimal"}

#: argv -> (the curvgraph modules, the WATCHED modules) a cold run of it loads
COLD_IMPORTS = [
    pytest.param(["count", "--n", "4"], _CORE, _BASE, id="count"),
    pytest.param(["canon", "--expr", "R_{imkl} + 2*R_{kilm}", "--bianchi"], _CORE,
                 _BASE | _RATIONAL, id="canon"),
    pytest.param(["check", "--input", str(FIXTURE)], _CORE, _BASE, id="check"),
    pytest.param(["matrix", "--basis", "duad", "--input", str(FIXTURE)], _CORE, _BASE,
                 id="matrix"),
    pytest.param(["classify", "--input", str(FIXTURE)], _CORE, _BASE, id="classify"),
    pytest.param(["graph", "--kind", "variant"], _CORE | _GRAPH, _BASE, id="graph-variant"),
    pytest.param(["graph", "--kind", "k6", "--input", str(FIXTURE)], _CORE | _GRAPH, _BASE,
                 id="graph-k6"),
    pytest.param(["fuzzy", "--union"], _CORE | _GRAPH | {"curvgraph.fuzzy"}, _BASE | _RATIONAL,
                 id="fuzzy"),
]


@pytest.mark.parametrize("argv, modules, stdlib", COLD_IMPORTS)
def test_cold_command_loads_only_what_it_runs(argv, modules, stdlib):
    bare, loaded, code, numpy_tried = _run_child(_COLD_CHILD, *argv)
    assert code == 0 and not numpy_tried
    assert {m for m in loaded if m.partition(".")[0] == "curvgraph"} == modules
    # a module the interpreter loaded before the run costs the command
    # nothing (here ``site`` imports ``typing``)
    assert WATCHED & set(loaded) == stdlib - set(bare)


#: Calls ``cg.classify`` in a fresh process and prints the modules that the
#: import and the call added; json is imported only after the snapshot.
_CLASSIFY_CHILD = """
import sys

bare = set(sys.modules)
import curvgraph as cg
cg.classify([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
loaded = sys.modules.keys() - bare
import json
print(json.dumps([sorted(bare), sorted(loaded)]))
"""


def test_classify_loads_no_document_format():
    # the document reader and writer, and json under them, serve the CLI and
    # the graph export; the library's classify path reaches neither
    bare, loaded = _run_child(_CLASSIFY_CHILD)
    assert "json" not in bare and "curvgraph.petrov" in loaded
    assert not {"json", "curvgraph.jsondoc"} & set(loaded)


#: Parses, rewrites, writes and evaluates an expression through the public
#: names in a fresh process, and prints the results and the modules that the
#: import and the calls added; json is imported only after the snapshot.
_EXPRESSION_CHILD = """
import sys

bare = set(sys.modules)
import curvgraph as cg
e = cg.canonicalize_expression(cg.parse_expression("R_{imkl} + 2*R_{kilm}"), True)
results = [cg.format_expression(e), cg.evaluate_expression(e, cg.zero_riemann())]
loaded = sys.modules.keys() - bare
import json
print(json.dumps([sorted(bare), sorted(loaded), results]))
"""


def test_expressions_load_no_command_line_or_document_format():
    # the expression language needs symcore alone: not the command line, the
    # classifier or the document format
    bare, loaded, results = _run_child(_EXPRESSION_CHILD)
    assert results == ["-3*R_{0123} + R_{0213}", 0.0]
    assert not {"json", "argparse"} & set(bare)
    assert {m for m in loaded if m.partition(".")[0] == "curvgraph"} == {
        "curvgraph", "curvgraph.expressions", "curvgraph.symcore"}
    assert not {"json", "argparse"} & set(loaded)
