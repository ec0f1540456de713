"""Field arithmetic: axioms, canonical forms, parsing, construction errors."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pointideal.fields import (
    DivisionByZero,
    FieldError,
    NotPrime,
    PrimeField,
    QQ,
    RationalField,
    field_from_descriptor,
    is_probable_prime,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
residues5 = st.integers(min_value=0, max_value=4)
residues_big = st.integers(min_value=0, max_value=32002)

GF5 = PrimeField(5)
GF = PrimeField(32003)


def test_rational_examples():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.parse("5/6") == Fraction(5, 6)
    assert QQ.parse("-3") == Fraction(-3)
    with pytest.raises(DivisionByZero):
        QQ.inv(QQ.zero)
    with pytest.raises(DivisionByZero):
        QQ.inv(0)


def test_rational_inverse_is_exact():
    # ints and Fractions alike give a Fraction, never a float
    for a, want in ((3, Fraction(1, 3)), (-4, Fraction(-1, 4)), (1, Fraction(1)),
                    (Fraction(2, 3), Fraction(3, 2)), (Fraction(-5, 7), Fraction(-7, 5))):
        got = QQ.inv(a)
        assert type(got) is Fraction and got == want


def test_rational_exponent_bound():
    assert QQ.parse("0.1") == Fraction(1, 10)
    assert QQ.parse("1e-07") == Fraction(1, 10**7)
    assert QQ.parse("-2.5E2") == Fraction(-250)
    assert QQ.parse("1e4000") == 10**4000
    # rejected before 10**exponent is computed, however large the exponent
    for text in ("1e1000000", "1e999999", "1e-999999", "0e5000", "1e4300",
                 "1e" + "9" * 5000, "1e"):
        with pytest.raises(ValueError):
            QQ.parse(text)


def test_rational_read_takes_format_at_any_length():
    for c in (Fraction(-(10**6000) - 7, 3 * 10**5000 + 1), Fraction(1, 10**9000), Fraction(10**5000)):
        text = QQ.format(c)
        assert QQ.read(text) == c and len(text) > 5000
    # point coordinates keep the interpreter's limit on digits
    with pytest.raises(ValueError):
        QQ.parse("7" * 5000)
    for text in ("1/" + "0" * 5000, "1e4300", "7" * 5000 + ".5", "x" * 5000):
        with pytest.raises(ValueError):
            QQ.read(text)
    assert QQ.read("-3/4") == Fraction(-3, 4) and GF5.read("7") == 2


def test_prime_examples():
    assert GF5.inv(2) == 3
    assert GF5.parse("7") == 2
    assert GF5.neg(0) == 0
    with pytest.raises(DivisionByZero):
        GF5.inv(0)
    with pytest.raises(DivisionByZero):
        GF5.inv(10)


@pytest.mark.parametrize("fld,elems", [(QQ, rationals), (GF5, residues5), (GF, residues_big)])
def test_axioms(fld, elems):
    @given(a=elems, b=elems, c=elems)
    def inner(a, b, c):
        assert fld.add(a, fld.add(b, c)) == fld.add(fld.add(a, b), c)
        assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
        assert fld.add(a, b) == fld.add(b, a)
        assert fld.mul(a, b) == fld.mul(b, a)
        assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
        assert fld.add(a, fld.neg(a)) == fld.zero
        if a != fld.zero:
            assert fld.mul(a, fld.inv(a)) == fld.one

    inner()


def test_canonical_forms():
    # Fraction canonicalizes on construction; residues are canonical ints
    assert QQ.parse("2/4") == QQ.parse("1/2")
    assert GF5.canonical(-1) == 4
    assert GF5.add(3, 4) == 2


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        PrimeField(1)
    with pytest.raises(NotPrime):
        PrimeField(32004)
    with pytest.raises(FieldError):
        PrimeField(1 << 64)


def test_primality_check():
    assert is_probable_prime(2)
    assert is_probable_prime(32003)
    assert is_probable_prime((1 << 61) - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael


def test_descriptors_round_trip():
    for fld in (QQ, GF5):
        assert field_from_descriptor(fld.to_descriptor()) == fld
    with pytest.raises(ValueError):
        field_from_descriptor({"type": "real"})
    with pytest.raises(ValueError):
        field_from_descriptor({"type": "prime"})


def test_parse_errors():
    with pytest.raises(ValueError):
        QQ.parse("1/0")
    with pytest.raises(ValueError):
        QQ.parse("abc")
    with pytest.raises(ValueError):
        GF5.parse("x")


def test_field_equality_and_hash():
    assert PrimeField(5) == GF5 and hash(PrimeField(5)) == hash(GF5)
    assert RationalField() == QQ
    assert GF5 != GF and GF5 != QQ
