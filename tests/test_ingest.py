"""Single-pass ingest against a frozen copy of the two-pass ingest it replaced.

``cli.ingest`` checks and routes every record in one loop and builds the
matrix through ``symcore._from_routed_records``. The reference below is the
earlier path, kept verbatim: ``parse_component_document`` checked each record,
and ``from_component_list`` checked it again, routed it and built the matrix.
Matrices must agree bit for bit, signed zeros included, and every document
error must keep its text, its exit code and its precedence.
"""
import io
import json
import math
from itertools import product

import numpy as np
import pytest

import curvgraph as cg
from curvgraph import cli, symcore

ALL_QUADS = list(product(range(4), repeat=4))


# --- frozen reference: the two-pass ingest ---------------------------------

def _ref_parse_component_document(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise cli.DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise cli.DocumentError("document must be an object")
    if "n" not in doc or isinstance(doc["n"], bool) or not isinstance(doc["n"], int):
        raise cli.DocumentError("field 'n' must be an integer")
    comps = doc.get("components", [])
    if not isinstance(comps, list):
        raise cli.DocumentError("field 'components' must be an array")
    entries = []
    for rec_no, rec in enumerate(comps):
        if not isinstance(rec, dict) or "idx" not in rec or "value" not in rec:
            raise cli.DocumentError(f"components[{rec_no}]: need 'idx' and 'value'")
        idx = rec["idx"]
        if not isinstance(idx, list) or len(idx) != 4:
            raise cli.DocumentError(f"components[{rec_no}]: 'idx' must list 4 indices")
        if {*map(type, idx)} != {int}:
            raise cli.DocumentError(f"components[{rec_no}]: 'idx' entries must be integers")
        if not frozenset(range(4)).issuperset(idx):
            raise cli.DocumentError(f"components[{rec_no}]: 'idx' entries must lie in 0..3")
        value = rec["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise cli.DocumentError(f"components[{rec_no}]: 'value' must be a number")
        try:
            value = float(value)
        except OverflowError:
            raise cli.DocumentError(
                f"components[{rec_no}]: 'value' is an integer too large for a float"
            ) from None
        if not math.isfinite(value):
            raise cli.DocumentError(f"components[{rec_no}]: 'value' must be finite")
        entries.append((tuple(idx), value))
    return doc["n"], entries, doc.get("metadata")


def _ref_from_component_list(n, entries):
    if n != 4:
        raise ValueError(f"component storage is fixed to n = 4, got {n}")
    M = [[0.0] * 6 for _ in range(6)]
    seen = {}
    for quad, value in entries:
        quad = symcore.check_quad(quad)
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"component value for {quad} is too large for a float") from None
        if not math.isfinite(value):
            raise ValueError(f"component value for {quad} is not finite")
        route = symcore._ROUTE[quad]
        if route is None:
            if abs(value) > symcore.INGEST_TOL:
                raise cg.DegenerateNonzero(
                    f"quad {quad} repeats an index within a pair but has value {value}"
                )
            continue
        s, t, sign = route
        slot_value = sign * value
        if (s, t) in seen:
            if abs(seen[s, t] - slot_value) > symcore.INGEST_TOL:
                raise cg.ConflictingEntry(
                    f"quad {quad} implies slot value {slot_value} but "
                    f"{seen[s, t]} was already recorded"
                )
            continue
        seen[s, t] = M[s][t] = M[t][s] = slot_value
    return cg.RiemannComponents(M)


def _ref_ingest(text, enforce_bianchi=False):
    n, entries, _ = _ref_parse_component_document(text)
    R = _ref_from_component_list(n, entries)
    return cg.project_bianchi(R) if enforce_bianchi else R


# --- documents ---------------------------------------------------------------

def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _full_document(seed):
    """All 256 raw components, shuffled, so each slot value arrives up to
    eight times under different orientation signs; a third of the slots hold
    a zero of random sign, so sign-routed duplicates of +0.0 and -0.0 meet."""
    rng = np.random.default_rng(seed)
    M = cg.random_riemann(seed).matrix.copy()
    for s, t in zip(*np.triu_indices(6)):
        if rng.random() < 1 / 3:
            M[s, t] = M[t, s] = rng.choice([0.0, -0.0])
    R = cg.RiemannComponents(M)
    comps = []
    for i in rng.permutation(len(ALL_QUADS)):
        q = ALL_QUADS[i]
        value = cg.get_component(R, q)
        if symcore._ROUTE[q] is None:
            value = rng.choice([0.0, -0.0])
        comps.append({"idx": list(q), "value": value})
    return json.dumps({"n": 4, "components": comps}, indent=2) + "\n"


def _short_document(seed):
    """The 21-record dump of a Ricci-flat tensor, as the classify path reads it."""
    return cli.dump_component_document(cg.random_riemann(seed, ricci_flat=True))


@pytest.mark.parametrize("seed", range(12))
def test_single_pass_ingest_matches_two_pass_bitwise(seed):
    for text in (_full_document(seed), _short_document(seed)):
        for enforce in (False, True):
            got = cli.ingest(text, enforce_bianchi=enforce).matrix
            assert _bitwise_equal(got, _ref_ingest(text, enforce).matrix), (seed, enforce)


def _hex_rows(rows):
    # repr-exact floats, signed zeros included
    return [[x.hex() for x in row] for row in rows]


@pytest.mark.parametrize("seed", range(12))
def test_builders_store_rows_the_constructor_would_store(seed):
    # _from_routed_records and project_bianchi store the rows they build
    # without the checks of RiemannComponents: each must hold six tuples of
    # six Python floats, exactly symmetric, that the constructor stores as is
    for text in (_full_document(seed), _short_document(seed)):
        n, records, _ = cli.parse_component_document(text)
        R = symcore._from_routed_records(n, records)
        from_list = cg.from_component_list(n, [(q, np.float64(v)) for q, _, v in records])
        for rows in (R.rows, cg.project_bianchi(R).rows, from_list.rows):
            assert type(rows) is tuple and len(rows) == 6
            assert all(type(row) is tuple and len(row) == 6 for row in rows)
            assert all(type(x) is float for row in rows for x in row)
            assert _hex_rows(rows) == _hex_rows(zip(*rows))
            assert _hex_rows(rows) == _hex_rows(cg.RiemannComponents(rows).rows)
        assert _hex_rows(from_list.rows) == _hex_rows(R.rows)


def test_signed_zero_duplicates_keep_the_first_record():
    # (1, 0, 2, 3) routes with sign -1: +0.0 maps to -0.0 and agrees with it
    for first, second, want in ((-0.0, 0.0, True), (0.0, 0.0, False), (0.0, -0.0, False)):
        text = json.dumps({"n": 4, "components": [
            {"idx": [0, 1, 2, 3], "value": first},
            {"idx": [1, 0, 2, 3], "value": second},
            {"idx": [0, 0, 1, 2], "value": -0.0},
        ]})
        got = cli.ingest(text).matrix
        assert _bitwise_equal(got, _ref_ingest(text).matrix)
        assert bool(np.signbit(got[0, 5])) is want


def test_records_are_routed_while_parsed():
    text = _full_document(0)
    n, records, meta = cli.parse_component_document(text)
    comps = json.loads(text)["components"]
    assert (n, meta) == (4, None)
    assert len(records) == len(comps)
    for (quad, route, value), rec in zip(records, comps):
        assert quad == tuple(rec["idx"]) and route == symcore._ROUTE[quad]
        assert type(value) is float and value == rec["value"]


def test_ingest_does_not_validate_records_twice(monkeypatch):
    text = _full_document(1)
    want = cli.ingest(text).matrix

    def second_pass(*args):
        raise AssertionError("second validation pass")

    monkeypatch.setattr(symcore, "from_component_list", second_pass)
    monkeypatch.setattr(symcore, "check_quad", second_pass)
    assert _bitwise_equal(cli.ingest(text).matrix, want)


# --- errors ------------------------------------------------------------------

def _doc(*records, n=4):
    return json.dumps({"n": n, "components": [{"idx": i, "value": v} for i, v in records]})


GOOD = ([0, 1, 0, 1], 1.0)

#: (id, document text, expected error text)
ERROR_CASES = [
    ("not-json", "{not json",
     "line 1, column 2: Expecting property name enclosed in double quotes"),
    ("not-object", "[]", "document must be an object"),
    ("n-missing", '{"components": []}', "field 'n' must be an integer"),
    ("n-bool", '{"n": true}', "field 'n' must be an integer"),
    ("n-float", '{"n": 4.0}', "field 'n' must be an integer"),
    ("components-object", '{"n": 4, "components": {}}', "field 'components' must be an array"),
    ("record-number", '{"n": 4, "components": [1]}', "components[0]: need 'idx' and 'value'"),
    ("record-no-value", '{"n": 4, "components": [{"idx": [0, 1, 0, 1]}]}',
     "components[0]: need 'idx' and 'value'"),
    ("idx-string", _doc(GOOD, ("0101", 1.0)), "components[1]: 'idx' must list 4 indices"),
    ("idx-short", _doc(GOOD, ([0, 1, 0], 1.0)), "components[1]: 'idx' must list 4 indices"),
    ("idx-long", _doc(GOOD, ([0, 1, 0, 1, 0], 1.0)), "components[1]: 'idx' must list 4 indices"),
    ("idx-bool", _doc(GOOD, ([0, 1, True, 3], 1.0)),
     "components[1]: 'idx' entries must be integers"),
    ("idx-float", _doc(GOOD, ([0, 1, 2, 1.0], 1.0)),
     "components[1]: 'idx' entries must be integers"),
    ("idx-string-entry", _doc(GOOD, (["0", 1, 2, 3], 1.0)),
     "components[1]: 'idx' entries must be integers"),
    ("idx-null", _doc(GOOD, ([0, None, 2, 3], 1.0)),
     "components[1]: 'idx' entries must be integers"),
    ("idx-nested", _doc(GOOD, ([[0], 1, 2, 3], 1.0)),
     "components[1]: 'idx' entries must be integers"),
    ("idx-float-out-of-range", _doc(GOOD, ([0, 1, 2, 4.0], 1.0)),
     "components[1]: 'idx' entries must be integers"),
    ("idx-4", _doc(GOOD, ([0, 1, 2, 4], 1.0)), "components[1]: 'idx' entries must lie in 0..3"),
    ("idx-negative", _doc(GOOD, ([-1, 1, 2, 3], 1.0)),
     "components[1]: 'idx' entries must lie in 0..3"),
    ("idx-huge", _doc(GOOD, ([0, 10**30, 2, 3], 1.0)),
     "components[1]: 'idx' entries must lie in 0..3"),
    ("value-string", _doc(GOOD, ([0, 1, 2, 3], "1")), "components[1]: 'value' must be a number"),
    ("value-bool", _doc(GOOD, ([0, 1, 2, 3], True)), "components[1]: 'value' must be a number"),
    ("value-null", _doc(GOOD, ([0, 1, 2, 3], None)), "components[1]: 'value' must be a number"),
    ("value-list", _doc(GOOD, ([0, 1, 2, 3], [1.0])), "components[1]: 'value' must be a number"),
    ("value-huge-int", _doc(GOOD, ([0, 1, 2, 3], 10**400)),
     "components[1]: 'value' is an integer too large for a float"),
    ("value-nan", _doc(GOOD, ([0, 1, 2, 3], math.nan)), "components[1]: 'value' must be finite"),
    ("value-inf", _doc(GOOD, ([0, 1, 2, 3], -math.inf)), "components[1]: 'value' must be finite"),
    ("value-1e400", '{"n": 4, "components": [{"idx": [0, 1, 2, 3], "value": 1e400}]}',
     "components[0]: 'value' must be finite"),
    ("n-5", _doc(GOOD, n=5), "component storage is fixed to n = 4, got 5"),
    ("degenerate", _doc(GOOD, ([0, 0, 2, 3], 0.5)),
     "quad (0, 0, 2, 3) repeats an index within a pair but has value 0.5"),
    ("conflict", _doc(([0, 1, 2, 3], 1.0), ([1, 0, 2, 3], 1.0)),
     "quad (1, 0, 2, 3) implies slot value -1.0 but 1.0 was already recorded"),
    # precedence: every record is checked before n, and n before the
    # degenerate and conflict tests, which run in record order
    ("n-5-bad-record", _doc(GOOD, ([0, 1, 2, 3], "x"), n=5),
     "components[1]: 'value' must be a number"),
    ("n-5-conflict", _doc(([0, 1, 2, 3], 1.0), ([1, 0, 2, 3], 1.0), n=5),
     "component storage is fixed to n = 4, got 5"),
    ("n-5-degenerate", _doc(([0, 0, 2, 3], 1.0), n=5),
     "component storage is fixed to n = 4, got 5"),
    ("conflict-then-bad-index", _doc(([0, 1, 2, 3], 1.0), ([1, 0, 2, 3], 1.0), ([0, 1, 2, 7], 1.0)),
     "components[2]: 'idx' entries must lie in 0..3"),
    ("conflict-then-bad-value", _doc(([0, 1, 2, 3], 1.0), ([1, 0, 2, 3], 1.0), GOOD, ([0, 2, 0, 2], math.inf)),
     "components[3]: 'value' must be finite"),
    ("degenerate-then-conflict", _doc(([1, 1, 0, 2], -3.0), ([0, 1, 2, 3], 1.0), ([2, 3, 0, 1], 2.0)),
     "quad (1, 1, 0, 2) repeats an index within a pair but has value -3.0"),
    ("conflict-then-degenerate", _doc(([0, 1, 2, 3], 1.0), ([2, 3, 0, 1], 2.0), ([1, 1, 0, 2], -3.0)),
     "quad (2, 3, 0, 1) implies slot value 2.0 but 1.0 was already recorded"),
]


def _raised(fn, text):
    with pytest.raises(ValueError) as info:
        fn(text)
    return str(info.value)


each_error_case = pytest.mark.parametrize(
    "text,message", [c[1:] for c in ERROR_CASES], ids=[c[0] for c in ERROR_CASES]
)
INPUT_COMMANDS = [["check"], ["check", "--enforce-bianchi"], ["matrix", "--basis", "duad"],
                  ["classify"], ["graph", "--kind", "k6"]]


@each_error_case
def test_ingest_errors_match_two_pass(text, message):
    assert _raised(_ref_ingest, text) == message
    assert _raised(cli.ingest, text) == message


#: Documents deeper than the JSON decoder's recursion limit: checked through
#: the CLI only, since the frozen two-pass reference does not catch the error.
NESTING_CASES = [
    ("nested-array", "[" * 200000, "document nests too deeply"),
    ("nested-metadata", '{"n": 4, "components": [], "metadata": %s}' % ("[" * 200000 + "]" * 200000),
     "document nests too deeply"),
]


@pytest.mark.parametrize("text,message", [c[1:] for c in ERROR_CASES + NESTING_CASES],
                         ids=[c[0] for c in ERROR_CASES + NESTING_CASES])
def test_document_errors_through_run(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    for argv in INPUT_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run([*argv, "--input", str(path)], out=out, err=err)
        assert (code, out.getvalue(), err.getvalue()) == (1, "", f"curvgraph: error: {message}\n"), argv


# --- the library constructor keeps its own checks -----------------------------

#: (n, records) that ``from_component_list`` builds or refuses as the reference
#: does; a value ``float`` does not read is named as VALUE_FAULTS lists instead
LIBRARY_CASES = [
    (4, [((0, 1, 2, 4), 1.0)]),
    (4, [((0, 1.0, 2, 3), 1.0)]),
    (4, [((0, True, 2, 3), 1.0)]),
    (4, [((0, 1, 2), 1.0)]),
    (4, [(("a", 1, 2, 3), 1.0)]),
    (4, [((0, 1, 0, 1), 10**400)]),
    (4, [((0, 1, 0, 1), math.nan)]),
    (4, [((0, 1, 0, 1), -math.inf)]),
    (4, [((0, 0, 2, 3), 0.5)]),
    (4, [((0, 1, 2, 3), 1.0), ((1, 0, 2, 3), 1.0)]),
    # a conflict in an earlier record wins over a bad later record, as before
    (4, [((0, 1, 2, 3), 1.0), ((1, 0, 2, 3), 1.0), ((0, 1, 2, 9), 1.0)]),
    (4, [((0, 1, 2, 3), 1.0), ((0, 1, 2, 9), 1.0)]),
    (5, [((0, 1, 2, 9), 1.0)]),
    (3, []),
    (4, [((np.int64(0), np.int8(1), np.uint8(2), 3), np.float32(0.5)), ((1, 0, 2, 3), -0.5)]),
    (4, [([0, 1, 0, 1], 2), ((1, 0, 1, 0), np.float64(2.0)), ((0, 0, 1, 1), -0.0)]),
]


def _library_outcome(fn, n, entries):
    try:
        R = fn(n, iter(entries))
    except Exception as exc:
        return type(exc), str(exc)
    return R.matrix.tolist(), np.signbit(R.matrix).tolist()


@pytest.mark.parametrize("n,entries", LIBRARY_CASES)
def test_from_component_list_keeps_messages_and_order(n, entries):
    assert _library_outcome(cg.from_component_list, n, entries) == _library_outcome(
        _ref_from_component_list, n, entries
    )


#: (record value, the ValueError text): a value float does not read, and text
#: that it would parse, are named with the record's quad
VALUE_FAULTS = [
    ("x", "component value for (0, 1, 0, 1) is not a real number: 'x'"),
    ("1.5", "component value for (0, 1, 0, 1) is not a real number: '1.5'"),
    (b"2", "component value for (0, 1, 0, 1) is not a real number: b'2'"),
    (" 3 ", "component value for (0, 1, 0, 1) is not a real number: ' 3 '"),
    (None, "component value for (0, 1, 0, 1) is not a real number: None"),
    ([1.0], "component value for (0, 1, 0, 1) is not a real number: [1.0]"),
    (1j, "component value for (0, 1, 0, 1) is not a real number: 1j"),
]


@pytest.mark.parametrize("value, message", VALUE_FAULTS)
def test_from_component_list_names_a_value_that_is_no_number(value, message):
    for entries in ([((0, 1, 0, 1), value)], [((0, 1, 2, 3), 1.0), ((0, 1, 0, 1), value)]):
        with pytest.raises(ValueError) as info:
            cg.from_component_list(4, iter(entries))
        assert str(info.value) == message
    # the n test, a bad quad and an earlier conflict still come first
    for n, entries, first in (
        (5, [((0, 1, 0, 1), value)], "component storage is fixed to n = 4, got 5"),
        (4, [((0, 1, 0, 9), value)], "index must lie in [0, 4), got 9"),
        (4, [((0, 1, 2, 3), 1.0), ((1, 0, 2, 3), 1.0), ((0, 1, 0, 1), value)],
         "quad (1, 0, 2, 3) implies slot value -1.0 but 1.0 was already recorded"),
    ):
        with pytest.raises(ValueError) as info:
            cg.from_component_list(n, iter(entries))
        assert str(info.value) == first
