"""The document reader and the indented writer: the writer against
``json.dumps(o, indent=2, allow_nan=False)`` as the reference, and the
reader's refusals as both document readers give them."""
import io
import json
from collections import OrderedDict, namedtuple
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import curvgraph as cg
from conftest import DIGIT_LIMIT
from curvgraph import jsondoc
from curvgraph.cli import parse_component_document
from curvgraph.jsondoc import DocumentError


def reference(o):
    return json.dumps(o, indent=2, allow_nan=False)


EDGE_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7, 0.1,
                2**200, -2**200, 2**63, -1, True, False]
EDGE_STRINGS = ["", "é", "∞ and \U0001d11e", "  ", "\x00\x01\x1f\x7f",
                'quote " backslash \\ slash /', "tab\tnewline\ncr\r", "\ud800"]

scalars = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_NUMBERS + EDGE_STRINGS)
)
documents = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=4) | st.sampled_from(EDGE_STRINGS),
                                     inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300)
@given(documents)
@example([])
@example({})
@example(())
@example({"a": [], "b": {}, "c": (), "d": [[], [{}]]})
@example([EDGE_NUMBERS, tuple(EDGE_STRINGS), {s: s for s in EDGE_STRINGS}])
def test_dumps_writes_what_json_writes(o):
    assert jsondoc.dumps(o) == reference(o)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   np.float64("nan"), np.float64("-inf")], ids=repr)
def test_dumps_refuses_a_non_finite_float_in_json_text(value):
    for o in (value, [1.0, {"x": (value,)}]):
        with pytest.raises(ValueError) as expected:
            reference(o)
        with pytest.raises(ValueError) as got:
            jsondoc.dumps(o)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)], ids=repr)
def test_dumps_refuses_a_key_that_is_not_a_str(key):
    with pytest.raises(TypeError, match=f"keys must be str, not {type(key).__name__}"):
        jsondoc.dumps({"outer": {key: 1}})


Pair = namedtuple("Pair", "a b")


class Level(IntEnum):
    HIGH = 7


class Name(str):
    pass


class Rows(list):
    pass


class Table(dict):
    pass


@pytest.mark.parametrize("o", [
    np.float64(0.1), np.float64(-0.0), np.str_("é\n"), Level.HIGH, Pair(1.5, [Level.HIGH]),
    OrderedDict([("b", 1), ("a", Pair(2, 3))]), {Name("k"): Name("v"), np.str_("x"): ()},
    Rows([Rows(), (None,), Table(z=Rows([0.5]))]), Table(), Table(y=[Table(x=False)]),
], ids=repr)
def test_dumps_writes_a_subclass_as_json_writes_it(o):
    assert jsondoc.dumps(o) == reference(o)


@pytest.mark.parametrize("value", [{1, 2}, object(), 1j, np.int64(1), np.bool_(True)],
                         ids=["{1, 2}", "object()", "1j", "np.int64(1)",
                              "np.bool_(True)"])  # no address in an id
def test_dumps_refuses_any_other_type(value):
    with pytest.raises(TypeError, match=f"Object of type {type(value).__name__} is not JSON"):
        jsondoc.dumps([value])


@pytest.mark.parametrize("text, message", [
    ('{"n": 4,', "line 1, column 9: Expecting property name enclosed in double quotes"),
    ("[" * 100000, "document nests too deeply"),
    ("[]", "document must be an object"),
    ("4", "document must be an object"),
])
def test_both_document_readers_give_the_readers_refusals(text, message):
    with pytest.raises(DocumentError) as info:
        jsondoc.read_object(text)
    assert str(info.value) == message
    for reader in (parse_component_document, cg.parse_structured):
        with pytest.raises(DocumentError) as info:
            reader(text)
        assert str(info.value) == message, reader
    assert issubclass(DocumentError, ValueError) and cg.cli.DocumentError is DocumentError


#: an integer literal past the interpreter's int() digit limit
_LONG = "9" * (DIGIT_LIMIT + 1)
_TOO_MANY_DIGITS = "document holds a number with too many digits"
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int() has no digit limit")


@needs_digit_limit
def test_check_refuses_a_number_with_too_many_digits(tmp_path):
    # json.loads raises a bare ValueError that asks for sys.set_int_max_str_digits()
    path = tmp_path / "long.json"
    path.write_text(f'{{"n": 4, "components": [{{"idx": [0, 1, 0, 1], "value": {_LONG}}}]}}')
    out, err = io.StringIO(), io.StringIO()
    assert cg.cli.run(["check", "--input", str(path)], out=out, err=err) == 1
    assert (out.getvalue(), err.getvalue()) == ("", f"curvgraph: error: {_TOO_MANY_DIGITS}\n")


@needs_digit_limit
def test_parse_structured_refuses_a_number_with_too_many_digits():
    with pytest.raises(DocumentError) as info:
        cg.parse_structured(f'{{"vertices": [{{"id": {_LONG}}}]}}')
    assert str(info.value) == _TOO_MANY_DIGITS
