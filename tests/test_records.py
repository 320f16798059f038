"""The public records: their repr, equality, hash, construction and
read-only fields, as callers and printed output see them."""
import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

import curvgraph as cg
from curvgraph.cli import IndexExpression, Term
from curvgraph.petrov import DistinctEigenvalue, EigenSolution


def _value_records():
    # (record, the same fields passed by keyword, a record differing in one field)
    term = Term(Fraction(-1, 2), "R", (0, 2, 3, 1))
    distinct = DistinctEigenvalue(0j, 3, 3)
    return [
        (term, Term(coefficient=Fraction(-1, 2), name="R", quad=(0, 2, 3, 1)),
         Term(Fraction(1, 2), "R", (0, 2, 3, 1))),
        (IndexExpression((term,)), IndexExpression(terms=(term,)), IndexExpression(())),
        (cg.PairSlot(0, -1, cg.PairBasis.LEX),
         cg.PairSlot(slot=0, sign=-1, basis=cg.PairBasis.LEX),
         cg.PairSlot(0, -1, cg.PairBasis.DUAD)),
        (distinct, DistinctEigenvalue(value=0j, algebraic=3, geometric=3),
         DistinctEigenvalue(0j, 3, 2)),
        (EigenSolution((0j, 0j, 0j), (distinct,), 1, cg.PetrovType.O),
         EigenSolution(eigenvalues=(0j, 0j, 0j), distinct=(distinct,), nilpotency_degree=1,
                       petrov_type=cg.PetrovType.O),
         EigenSolution((0j, 0j, 0j), (distinct,), 2, cg.PetrovType.N)),
    ]


def _identity_records():
    # (record, a record built from the same input, its fields by name)
    R = cg.zero_riemann()
    S = cg.assemble_six_matrix(R)
    B = cg.blocks(S)
    return [
        (R, cg.RiemannComponents(R.rows), {"rows": R.rows}),
        (S, cg.assemble_six_matrix(R), {"entries": S.entries, "covariant": S.covariant}),
        (B, cg.blocks(S), {"a": B.a, "b": B.b, "c": B.c}),
    ]


def test_value_record_reprs():
    assert repr(cg.parse_expression("R_{iklm} - 1/2*R_{ilmk}")) == (
        "IndexExpression(terms=(Term(coefficient=Fraction(1, 1), name='R', quad=(0, 1, 2, 3)), "
        "Term(coefficient=Fraction(-1, 2), name='R', quad=(0, 2, 3, 1))))")
    assert repr(cg.pair_slot(1, 0)) == "PairSlot(slot=0, sign=-1, basis=<PairBasis.LEX: 'lex'>)"
    assert repr(cg.eigen(np.zeros((3, 3)))) == (
        "EigenSolution(eigenvalues=(0j, 0j, 0j), distinct=(DistinctEigenvalue(value=0j, "
        "algebraic=3, geometric=3),), nilpotency_degree=1, petrov_type=<PetrovType.O: 'O'>)")


def test_identity_record_reprs():
    R = cg.zero_riemann()
    assert repr(R) == f"RiemannComponents(rows={R.rows!r})"
    S = cg.assemble_six_matrix(R)
    assert repr(S) == f"SixMatrix(entries={S.entries!r}, covariant={S.covariant!r})"
    B = cg.blocks(S)
    assert repr(B) == f"Blocks(a={B.a!r}, b={B.b!r}, c={B.c!r})"


@pytest.mark.parametrize("index", range(5))
def test_value_records_compare_and_hash_by_fields(index):
    record, by_keyword, other = _value_records()[index]
    assert record == by_keyword and not record != by_keyword
    assert hash(record) == hash(by_keyword)
    assert record != other and not record == other
    assert {record, by_keyword, other} == {record, other}
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


@pytest.mark.parametrize("index", range(3))
def test_identity_records_compare_and_hash_by_identity(index):
    record, same_input, fields = _identity_records()[index]
    assert record == record and not record != record
    # equal contents, another object: unequal, and no elementwise ndarray test
    assert record != same_input and not record == same_input
    assert record != 0 and record != "record"
    assert record != tuple(fields.values()) and not tuple(fields.values()) == record
    assert len({record, record, same_input}) == 2
    assert hash(record) == hash(record)
    for name, value in fields.items():
        assert getattr(record, name) is value
    restored = pickle.loads(pickle.dumps(record))
    assert restored is not record
    for built in (type(record)(*fields.values()), type(record)(**fields), restored):
        for name, value in fields.items():
            assert np.array_equal(getattr(built, name), value)


#: the first field of each record, in the order of the two lists above
_FIRST_FIELDS = ["coefficient", "terms", "slot", "value", "eigenvalues", "rows", "entries", "a"]


@pytest.mark.parametrize("index", range(8))
def test_records_are_read_only(index):
    records = [r for r, _, _ in _value_records()] + [r for r, _, _ in _identity_records()]
    record, field = records[index], _FIRST_FIELDS[index]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


def test_riemann_components_matrix_is_cached_and_read_only():
    R = cg.RiemannComponents(rows=[[float(s == t) for t in range(6)] for s in range(6)])
    assert R.matrix is R.matrix
    with pytest.raises(AttributeError):
        R.matrix = np.eye(6)
    assert np.array_equal(copy.deepcopy(R).matrix, R.matrix)
