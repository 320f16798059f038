import io
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvgraph as cg
from conftest import DIGIT_LIMIT
from curvgraph import symcore
from curvgraph.cli import run
from curvgraph.expressions import (
    ExpressionSyntaxError,
    IndexExpression,
    Term,
    UnknownIndexLetter,
    canonicalize_expression,
    evaluate_expression,
    format_expression,
    parse_expression,
)
from curvgraph.symcore import canonical_quad


def terms_of(text):
    return parse_expression(text).terms


def test_parse_single_term():
    assert terms_of("R_{iklm}") == (Term(Fraction(1), "R", (0, 1, 2, 3)),)
    assert terms_of("R_{0123}") == (Term(Fraction(1), "R", (0, 1, 2, 3)),)
    assert terms_of("R_{i1l3}") == (Term(Fraction(1), "R", (0, 1, 2, 3)),)


def test_parse_sum_and_signs():
    terms = terms_of("R_{iklm}+R_{ilmk}+R_{imkl}")
    assert [t.quad for t in terms] == [(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)]
    terms = terms_of("-R_{iklm} + 3*G_{0011} - 5/2*T_{lmik}")
    assert terms[0].coefficient == -1
    assert terms[1] == Term(Fraction(3), "G", (0, 0, 1, 1))
    assert terms[2] == Term(Fraction(-5, 2), "T", (2, 3, 0, 1))


def test_parse_whitespace_insensitive():
    a = terms_of("  R _ { i k l m }  +  2 * G_{0 1 2 3}")
    b = terms_of("R_{iklm}+2*G_{0123}")
    assert a == b


def test_parse_errors():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse_expression("R_{ikl}")
    assert exc.value.position == 6
    with pytest.raises(UnknownIndexLetter):
        parse_expression("R_{abcd}")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("R_{iklmm}")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("R_{iklm} +")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("2R_{iklm}")
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1/0*R_{iklm}")


def test_zero_expression():
    assert parse_expression("0") == IndexExpression(())
    assert parse_expression(" 0 ") == IndexExpression(())
    assert format_expression(IndexExpression(())) == "0"
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("0 + R_{iklm}")


def test_leading_zero_coefficient():
    assert terms_of("0*R_{0123}") == (Term(Fraction(0), "R", (0, 1, 2, 3)),)
    assert terms_of("07*R_{0123}") == (Term(Fraction(7), "R", (0, 1, 2, 3)),)
    zero_term = IndexExpression((Term(Fraction(0), "R", (0, 1, 2, 3)),))
    assert format_expression(zero_term) == "0*R_{0123}"
    assert parse_expression(format_expression(zero_term)) == zero_term
    # after the first term, a zero coefficient is written with '+'
    terms = (Term(Fraction(1), "R", (0, 1, 2, 3)), Term(Fraction(0), "R", (0, 2, 1, 3)))
    assert format_expression(IndexExpression(terms)) == "R_{0123} + 0*R_{0213}"


@pytest.mark.parametrize(
    "expr, expected", [("0*R_{0123}", "0\n"), ("07*R_{0123}", "7*R_{0123}\n")]
)
def test_canon_command_leading_zero(expr, expected):
    out, err = io.StringIO(), io.StringIO()
    assert run(["canon", "--expr", expr], out=out, err=err) == 0
    assert (out.getvalue(), err.getvalue()) == (expected, "")


def test_canonical_quad_orbit():
    assert canonical_quad((2, 3, 0, 1)) == ((0, 1, 2, 3), 1)
    assert canonical_quad((1, 0, 2, 3)) == ((0, 1, 2, 3), -1)
    assert canonical_quad((0, 0, 1, 2)) is None
    # orbit exhaustion: the representative is minimal and consistent
    for quad in product(range(4), repeat=4):
        canon = canonical_quad(quad)
        if canon is None:
            assert quad[0] == quad[1] or quad[2] == quad[3]
            continue
        rep, sign = canon
        assert rep <= quad
        assert sign in (-1, 1)
        assert canonical_quad(rep) == (rep, 1)


def _orbit_minimum(quad):
    # the 8-element sign orbit of the skew and block symmetries, written out
    a, b, c, d = quad
    if a == b or c == d:
        return None
    return min(
        ((a, b, c, d), 1), ((b, a, c, d), -1), ((a, b, d, c), -1), ((b, a, d, c), 1),
        ((c, d, a, b), 1), ((d, c, a, b), -1), ((c, d, b, a), -1), ((d, c, b, a), 1),
    )


def test_canonical_quad_matches_orbit_minimum_on_all_quads():
    for quad in product(range(4), repeat=4):
        assert canonical_quad(quad) == _orbit_minimum(quad)
    assert cg.canonical_quad is canonical_quad


@pytest.mark.parametrize("quad", [(0, 1, 2, 4), (-1, 1, 2, 3), (0, 1, 2), (0, 1.0, 2, 3)])
def test_canonical_quad_rejects_invalid_quads(quad):
    with pytest.raises(ValueError):
        canonical_quad(quad)


def test_canonicalize_examples():
    zero = canonicalize_expression(parse_expression("R_{iklm}+R_{ikml}"))
    assert zero.terms == ()
    bianchi = canonicalize_expression(
        parse_expression("R_{iklm}+R_{ilmk}+R_{imkl}"), assume_bianchi=True
    )
    assert format_expression(bianchi) == "0"
    # the one Bianchi rewrite: R_0312 = R_0213 - R_0123
    rewritten = canonicalize_expression(parse_expression("R_{imkl}"), assume_bianchi=True)
    assert format_expression(rewritten) == "-R_{0123} + R_{0213}"
    block = canonicalize_expression(parse_expression("R_{lmik}"))
    assert format_expression(block) == "R_{0123}"
    # without the cyclic identity the triple survives as two terms
    no_bianchi = canonicalize_expression(parse_expression("R_{iklm}+R_{ilmk}+R_{imkl}"))
    assert len(no_bianchi.terms) > 0


def test_canonicalize_drops_degenerate():
    e = canonicalize_expression(parse_expression("R_{0012} + R_{0122}"))
    assert e.terms == ()


def test_evaluation_matches_component_read():
    R = cg.random_riemann(19)
    for quad in product(range(4), repeat=4):
        digits = "".join(str(v) for v in quad)
        canon = canonicalize_expression(parse_expression(f"R_{{{digits}}}"))
        assert evaluate_expression(canon, R) == cg.get_component(R, quad)


def test_empty_expression_evaluates_to_float_zero():
    e = parse_expression("0")
    assert e.terms == ()
    value = evaluate_expression(e, cg.zero_riemann())
    assert type(value) is float and value == 0.0


def test_evaluation_with_bianchi_rewrite():
    R = cg.random_riemann(23)
    for quad in product(range(4), repeat=4):
        digits = "".join(str(v) for v in quad)
        canon = canonicalize_expression(parse_expression(f"R_{{{digits}}}"), True)
        assert evaluate_expression(canon, R) == pytest.approx(
            cg.get_component(R, quad), abs=1e-12
        )


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=9).filter(
    lambda f: f != 0
)
names = st.sampled_from(["R", "G", "T", "W2"])
quads = st.tuples(*(st.integers(0, 3),) * 4)
terms = st.builds(Term, coefficients, names, quads)
expressions = st.builds(lambda ts: IndexExpression(tuple(ts)), st.lists(terms, max_size=5))


@given(expressions)
def test_format_parse_roundtrip(e):
    assert parse_expression(format_expression(e)) == e


@given(expressions, st.booleans())
def test_canonicalize_idempotent(e, bianchi):
    once = canonicalize_expression(e, bianchi)
    assert canonicalize_expression(once, bianchi) == once


@given(expressions, expressions, st.booleans())
def test_canonicalize_linear(a, b, bianchi):
    joined = IndexExpression(a.terms + b.terms)
    direct = canonicalize_expression(joined, bianchi)
    staged = canonicalize_expression(
        IndexExpression(
            canonicalize_expression(a, bianchi).terms
            + canonicalize_expression(b, bianchi).terms
        ),
        bianchi,
    )
    assert direct == staged


@given(expressions)
@settings(max_examples=30)
def test_canonicalization_preserves_value(e):
    R = cg.random_riemann(77)
    plain = evaluate_expression(e, R)
    canon = evaluate_expression(canonicalize_expression(e), R)
    assert canon == pytest.approx(plain, abs=1e-9)


#: (input, exception class, str(exception), position): every parse error text
PARSE_ERRORS = [
    ("", ExpressionSyntaxError, "at position 0: empty expression", 0),
    ("   ", ExpressionSyntaxError, "at position 0: empty expression", 0),
    ("1/*R_{0123}", ExpressionSyntaxError, "at position 2: expected an integer", 2),
    ("1/0*R_{iklm}", ExpressionSyntaxError, "at position 3: zero denominator", 3),
    ("1/ 0 *R_{iklm}", ExpressionSyntaxError, "at position 4: zero denominator", 4),
    ("2R_{iklm}", ExpressionSyntaxError, "at position 1: expected '*', got 'R'", 1),
    ("0 + R_{iklm}", ExpressionSyntaxError, "at position 2: expected '*', got '+'", 2),
    ("1/2/3*R_{0123}", ExpressionSyntaxError, "at position 3: expected '*', got '/'", 3),
    ("+", ExpressionSyntaxError, "at position 1: expected a tensor name", 1),
    ("+-R_{0123}", ExpressionSyntaxError, "at position 1: expected a tensor name", 1),
    ("*R_{0123}", ExpressionSyntaxError, "at position 0: expected a tensor name", 0),
    ("2*", ExpressionSyntaxError, "at position 2: expected a tensor name", 2),
    ("R_{iklm} +", ExpressionSyntaxError, "at position 10: expected a tensor name", 10),
    ("R_{iklm} - ", ExpressionSyntaxError, "at position 11: expected a tensor name", 11),
    ("R{iklm}", ExpressionSyntaxError, "at position 1: expected '_', got '{'", 1),
    ("R", ExpressionSyntaxError, "at position 1: expected '_', got None", 1),
    ("R_iklm", ExpressionSyntaxError, "at position 2: expected '{', got 'i'", 2),
    ("R_{ikl}", ExpressionSyntaxError, "at position 6: expected 4 index characters", 6),
    ("R_{ik", ExpressionSyntaxError, "at position 5: expected 4 index characters", 5),
    ("R_{ik m}", ExpressionSyntaxError, "at position 7: expected 4 index characters", 7),
    ("R_{abcd}", UnknownIndexLetter, "at position 3: unknown index letter 'a'", 3),
    ("R_{iklmm}", ExpressionSyntaxError, "at position 7: expected '}', got 'm'", 7),
    ("R_{iklm", ExpressionSyntaxError, "at position 7: expected '}', got None", 7),
    ("R_{iklm} R_{iklm}", ExpressionSyntaxError, "at position 9: expected '+' or '-', got 'R'", 9),
    ("R_{iklm}*2", ExpressionSyntaxError, "at position 8: expected '+' or '-', got '*'", 8),
    # an integer that runs to the end of the text
    ("12", ExpressionSyntaxError, "at position 2: expected '*', got None", 2),
    ("R_{0123} + 1/2", ExpressionSyntaxError, "at position 14: expected '*', got None", 14),
]


@pytest.mark.parametrize("index", range(len(PARSE_ERRORS)))
def test_parse_error_texts_and_positions(index):
    text, cls, message, position = PARSE_ERRORS[index]
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression(text)
    assert (type(info.value), str(info.value), info.value.position) == (cls, message, position)


#: an integer literal past the interpreter's int() digit limit
_LONG = "9" * (DIGIT_LIMIT + 1)
_TOO_MANY_DIGITS = "integer has too many digits"

#: (input, str(exception), position): digit characters that int() does not read,
#: superscripts and more digits than int() converts
UNREADABLE_INTEGERS = [
    ("²*R_{0123}", "at position 0: expected a tensor name", 0),
    ("1/²*R_{0123}", "at position 2: expected an integer", 2),
    ("R_{0123} + ³*R_{0123}", "at position 11: expected a tensor name", 11),
    (_LONG + "*R_{0123}", f"at position 0: {_TOO_MANY_DIGITS}", 0),
    ("R_{0123} - 1/" + _LONG + "*R_{0123}", f"at position 13: {_TOO_MANY_DIGITS}", 13),
]


@pytest.mark.parametrize("index", range(len(UNREADABLE_INTEGERS)))
def test_unreadable_integers_are_syntax_errors(index):
    text, message, position = UNREADABLE_INTEGERS[index]
    if message.endswith(_TOO_MANY_DIGITS) and not DIGIT_LIMIT:
        pytest.skip("int() has no digit limit")
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression(text)
    assert (str(info.value), info.value.position) == (message, position)


def _ref_combine(terms):
    acc = {}
    for t in terms:
        key = (t.name, t.quad)
        acc[key] = acc.get(key, Fraction(0)) + t.coefficient
    return tuple(Term(c, name, quad) for (name, quad), c in sorted(acc.items()) if c != 0)


def _ref_canonicalize(e, assume_bianchi=False):
    # the canonicaliser before the cyclic rewrite moved into symcore, frozen:
    # combine, then search each distinct-index support a<b<c<d for the quad
    # (a,d,b,c), expand it as (a,c,b,d) - (a,b,c,d) and combine again
    rewritten = []
    for t in e.terms:
        canon = canonical_quad(t.quad)
        if canon is None:
            continue
        quad, sign = canon
        rewritten.append(Term(t.coefficient * sign, t.name, quad))
    combined = _ref_combine(rewritten)
    if assume_bianchi:
        expanded = []
        for t in combined:
            a, b, c, d = t.quad
            support = sorted(t.quad)
            if len(set(t.quad)) == 4 and (a, b, c, d) == (
                support[0], support[3], support[1], support[2]
            ):
                sa, sb, sc, sd = support
                expanded.append(Term(t.coefficient, t.name, (sa, sc, sb, sd)))
                expanded.append(Term(-t.coefficient, t.name, (sa, sb, sc, sd)))
            else:
                expanded.append(t)
        combined = _ref_combine(expanded)
    return IndexExpression(combined)


@given(expressions, st.booleans())
def test_canonicalize_matches_frozen_reference(e, bianchi):
    canon = canonicalize_expression(e, bianchi)
    assert canon == _ref_canonicalize(e, bianchi)
    assert format_expression(canon) == format_expression(_ref_canonicalize(e, bianchi))


@pytest.mark.parametrize("bianchi", [False, True])
def test_canonicalize_matches_frozen_reference_on_every_quad(bianchi):
    for quad in product(range(4), repeat=4):
        for coefficient in (Fraction(1), Fraction(-3, 2)):
            e = IndexExpression((Term(coefficient, "R", quad),))
            assert canonicalize_expression(e, bianchi) == _ref_canonicalize(e, bianchi)


def test_bianchi_rewrite_is_the_cyclic_identity_solved_for_R_0312():
    # R_0123 + R_0231 + R_0312 = 0 and R_0231 = -R_0213, so R_0312 = R_0213 - R_0123
    assert symcore._BIANCHI == ((0, 3, 1, 2), (((0, 1, 2, 3), -1), ((0, 2, 1, 3), 1)))
