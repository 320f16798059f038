"""JSON documents as the package reads and writes them: one reader of a
document object and one indented writer.

``read_object`` states the refusals that every document reader shares: a
JSON fault by line and column, a number with more digits than ``int()``
reads, a document that nests too deeply, and a document that is not an
object. ``dumps`` writes exactly what ``json.dumps(o, indent=2,
allow_nan=False)`` writes, in one recursive pass that joins strings, where
the standard library falls back to its generator-based pure-Python encoder
whenever it indents. One ``isinstance`` chain picks how each value is
written, so an exact type and its subclasses take the same branch.

``classify`` reaches neither this module nor ``json``: only ``cli`` and
``graphana`` import it.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string

_INF = float("inf")
_float_repr = float.__repr__
_int_repr = int.__repr__


class DocumentError(ValueError):
    pass


def read_object(text: str) -> dict:
    """The object a JSON document holds; anything else raises DocumentError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an int past sys.get_int_max_str_digits()
        raise DocumentError("document holds a number with too many digits") from None
    except RecursionError:
        raise DocumentError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be an object")
    return doc


def dumps(o) -> str:
    """``json.dumps(o, indent=2, allow_nan=False)`` of dicts with str keys,
    lists, tuples, str, int, float, bool and None, and of their subclasses.
    A NaN or infinity raises ValueError with json's text; a key that is not a
    str, or any other value, raises TypeError."""
    return _text(o, "\n")


def _text(o, newline: str) -> str:
    # newline: a line break and the indent of the line that holds o. A
    # subclass of a JSON type, such as numpy's float64 or str_, an IntEnum or
    # a namedtuple, takes the branch of its base, as in json.dumps. The
    # branches go in the order of how often the command outputs write each
    # type; float, str, int, dict and list or tuple share no subclass, and
    # bool, the one subclass of int, is tested inside the int branch.
    if isinstance(o, float):
        return _float(o)
    if isinstance(o, str):
        return _string(o)
    if isinstance(o, int):
        if o is True:
            return "true"
        if o is False:
            return "false"
        return _int_repr(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = newline + "  "
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(_string(k) + ": " + _text(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_text(v, inner) for v in o]) + newline + "]"
    if o is None:
        return "null"
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _float(o: float) -> str:
    if o != o or o == _INF or o == -_INF:
        raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
    return _float_repr(o)
