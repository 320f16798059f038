import io
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvgraph as cg
from curvgraph.cli import (
    ExpressionSyntaxError,
    IndexExpression,
    Term,
    UnknownIndexLetter,
    canonical_quad,
    canonicalize_expression,
    evaluate_expression,
    format_expression,
    parse_expression,
    run,
)


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
