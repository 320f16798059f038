"""Index expressions: sums of rational multiples of curvature components,
their text form and their canonical form.

Expressions follow the grammar

    expr  := ['+'|'-'] term (('+'|'-') term)*   |  '0'
    term  := [coeff '*'] name '_' '{' idx idx idx idx '}'
    coeff := int ['/' int]
    int   := decimal digit+
    name  := letter (letter | digit)*
    idx   := 'i' | 'k' | 'l' | 'm' | '0'..'3'

whitespace-insensitive, letters mapped through ``symcore.INDEX_LETTERS``
(i,k,l,m -> 0,1,2,3). Canonicalization rewrites each term once, through
``symcore.canonical_quad`` and, on request, the one Bianchi rewrite
``symcore._BIANCHI``, and combines the terms once.

The module imports only ``symcore``; the rational coefficients load
``fractions`` on the first parse.
"""
from __future__ import annotations

from collections import namedtuple

from . import symcore
from .symcore import DIMENSION, RiemannComponents, canonical_quad

_INDEX_CHARS = {c: v for v in range(DIMENSION) for c in (symcore.INDEX_LETTERS[v], str(v))}


class ExpressionSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class UnknownIndexLetter(ExpressionSyntaxError):
    pass


class Term(namedtuple("Term", "coefficient name quad")):
    """One term: a Fraction coefficient, the tensor name and its index quad
    (a 4-tuple of ints)."""

    __slots__ = ()


class IndexExpression(namedtuple("IndexExpression", "terms")):
    """A sum of terms, as a tuple of Term; ``()`` is the zero expression."""

    __slots__ = ()


# The scanner: each step takes the text and a position, and returns the
# position it reached with what it read.

def _next(text: str, pos: int) -> tuple[int, str | None]:
    # the position of the next character that is not whitespace, and that
    # character, or None at the end of the text
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos, text[pos] if pos < len(text) else None


def _expect(text: str, pos: int, ch: str) -> int:
    pos, got = _next(text, pos)
    if got != ch:
        raise ExpressionSyntaxError(f"expected {ch!r}, got {got!r}", pos)
    return pos + 1


def _integer(text: str, start: int) -> tuple[int, int]:
    end = start
    while end < len(text) and text[end].isdecimal():
        end += 1
    if end == start:
        raise ExpressionSyntaxError("expected an integer", start)
    try:
        return int(text[start:end]), end
    except ValueError:  # more digits than int() converts
        raise ExpressionSyntaxError("integer has too many digits", start) from None


def _parse_term(text: str, pos: int, sign: int) -> tuple[Term, int]:
    from fractions import Fraction

    num = den = 1
    pos, ch = _next(text, pos)
    if ch is not None and ch.isdecimal():
        num, pos = _integer(text, pos)
        pos, ch = _next(text, pos)
        if ch == "/":
            den, pos = _integer(text, _next(text, pos + 1)[0])
            if den == 0:
                raise ExpressionSyntaxError("zero denominator", pos)
        pos, ch = _next(text, _expect(text, pos, "*"))
    if ch is None or not ch.isalpha():
        raise ExpressionSyntaxError("expected a tensor name", pos)
    start = pos
    while pos < len(text) and text[pos].isalnum():
        pos += 1
    name = text[start:pos]
    pos = _expect(text, _expect(text, pos, "_"), "{")
    quad = []
    for _ in range(4):
        pos, ch = _next(text, pos)
        if ch is None or ch == "}":
            raise ExpressionSyntaxError("expected 4 index characters", pos)
        if ch not in _INDEX_CHARS:
            raise UnknownIndexLetter(f"unknown index letter {ch!r}", pos)
        pos += 1
        quad.append(_INDEX_CHARS[ch])
    return Term(Fraction(sign * num, den), name, tuple(quad)), _expect(text, pos, "}")


def parse_expression(text: str) -> IndexExpression:
    """Parse the expression grammar into a term list; '0' is the empty sum."""
    if not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    if text.strip() == "0":
        return IndexExpression(())
    terms = []
    pos, ch = _next(text, 0)
    while True:
        # a sign is optional before the first term and separates the others
        if ch in ("+", "-"):
            pos += 1
        elif terms:
            raise ExpressionSyntaxError(f"expected '+' or '-', got {ch!r}", pos)
        term, pos = _parse_term(text, pos, -1 if ch == "-" else 1)
        terms.append(term)
        pos, ch = _next(text, pos)
        if ch is None:
            return IndexExpression(tuple(terms))


def format_expression(e: IndexExpression) -> str:
    """Canonical text form; reparses to the identical term list."""
    if not e.terms:
        return "0"
    parts = []
    for i, t in enumerate(e.terms):
        mag = abs(t.coefficient)
        tensor = f"{t.name}_{{{''.join(str(v) for v in t.quad)}}}"
        try:  # str() refuses an int past sys.get_int_max_str_digits()
            body = ("" if mag == 1 else f"{mag}*") + tensor
        except ValueError:
            raise ValueError(f"coefficient of {tensor} has too many digits") from None
        if i == 0:
            parts.append(("-" if t.coefficient < 0 else "") + body)
        else:
            parts.append(("- " if t.coefficient < 0 else "+ ") + body)
    return " ".join(parts)


def _combine(terms) -> tuple[Term, ...]:
    from fractions import Fraction

    acc: dict[tuple[str, tuple], Fraction] = {}
    for t in terms:
        key = (t.name, t.quad)
        acc[key] = acc.get(key, Fraction(0)) + t.coefficient
    return tuple(
        Term(coeff, name, quad)
        for (name, quad), coeff in sorted(acc.items())
        if coeff != 0
    )


def canonicalize_expression(e: IndexExpression, assume_bianchi: bool = False) -> IndexExpression:
    """Rewrite every term to its canonical orbit representative and combine.

    With ``assume_bianchi`` the cyclic identity also rewrites the one
    dependent representative, ``symcore._BIANCHI``: R_0312 = R_0213 - R_0123.
    """
    rewrites = dict([symcore._BIANCHI]) if assume_bianchi else {}
    rewritten = []
    for t in e.terms:
        canon = canonical_quad(t.quad)
        if canon is None:
            continue
        quad, sign = canon
        for rep, s in rewrites.get(quad, ((quad, 1),)):
            rewritten.append(Term(t.coefficient * (sign * s), t.name, rep))
    return IndexExpression(_combine(rewritten))


def evaluate_expression(e: IndexExpression, R: RiemannComponents) -> float:
    """Numeric value of the expression against a component store; every term
    name is read with the same curvature symmetries. The terms are added left
    to right from 0.0, as ``symcore`` adds its cyclic sums."""
    value = 0.0
    for t in e.terms:
        value += float(t.coefficient) * symcore.get_component(R, t.quad)
    return value
