"""Fields: canonical forms, parsing, construction errors."""

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pointideal import fileio
from pointideal.bm import PointSet
from pointideal.fields import (
    MAX_DIGITS,
    FieldError,
    NotPrime,
    PrimeField,
    QQ,
    RationalField,
    field_from_descriptor,
    is_probable_prime,
    read_integer,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)
# any ints, not only residues: canonical takes every int to [0, p)
ints = st.integers(min_value=-(10**30), max_value=10**30)

GF5 = PrimeField(5)
GF = PrimeField(32003)


def test_rational_examples():
    assert QQ.parse("5/6") == Fraction(5, 6)
    assert QQ.parse("-3") == Fraction(-3)
    # Python's arithmetic on the elements is the field's, exactly
    assert QQ.canonical(Fraction(1, 2) + Fraction(1, 3)) == Fraction(5, 6)
    for bad in (0.5, "1/2", None):
        with pytest.raises(TypeError):
            QQ.canonical(bad)


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


def test_rational_parse_takes_format_at_any_length():
    # one reader: points, like results, take any numeral that format writes
    for c in (Fraction(-(10**6000) - 7, 3 * 10**5000 + 1), Fraction(1, 10**9000), Fraction(10**5000)):
        text = QQ.format(c)
        assert QQ.parse(text) == c and QQ.parse(f" {text}\n") == c and len(text) > 5000
    pts = PointSet(QQ, 2, [(Fraction(7 * 10**5000 + 1, 3), 1), (-(10**4400), Fraction(1, 2))])
    assert fileio.parse_points(fileio.serialize_points(pts)) == pts
    # one grammar at every length: a long decimal reads like a short one
    assert QQ.parse("7" * 5000 + ".5") == Fraction(7 * (10**5000 - 1) // 9 * 10 + 5, 10)
    for text in ("1/" + "0" * 5000, "1e4300", "x" * 5000):
        with pytest.raises(ValueError):
            QQ.parse(text)
    assert QQ.parse("-3/4") == Fraction(-3, 4) and GF5.parse("7") == 2


def test_prime_parse_takes_integers_of_any_length():
    # past the interpreter's limit on text-to-int digits, as over QQ
    GF7, nines = PrimeField(7), "9" * 5000
    assert GF7.parse(nines) == (10**5000 - 1) % 7 == 1
    assert GF7.parse(f" -{nines}\n") == -(10**5000 - 1) % 7
    doc = {"field": {"type": "prime", "p": 7}, "n": 1, "points": [[nines], ["2"]]}
    assert fileio.parse_points(json.dumps(doc)).points == ((1,), (2,))
    # a long decimal or a/b is still no element of GF(p)
    for text in (nines + ".0", "1/" + nines, nines + "e1", "x" * 5000):
        with pytest.raises(ValueError, match="bad integer literal"):
            GF7.parse(text)


def test_prime_examples():
    assert GF5.parse("7") == 2
    assert GF5.canonical(-0) == 0 and GF5.canonical(2 * 3) == 1
    for bad in (Fraction(1, 2), 2.0, True):
        with pytest.raises(TypeError):
            GF5.canonical(bad)


@pytest.mark.parametrize("fld,elems", [(QQ, rationals), (GF5, ints), (GF, ints)])
def test_axioms(fld, elems):
    # the library computes with Python's operators and canonicalises once:
    # that equals canonicalising after every operation
    canon = fld.canonical

    @given(a=elems, b=elems, c=elems)
    def inner(a, b, c):
        assert canon(canon(a) + canon(b)) == canon(a + b)
        assert canon(canon(a) * canon(b)) == canon(a * b)
        assert canon(-canon(a)) == canon(-a)
        assert canon(canon(a + b * c) + canon(-c)) == canon(a + b * c - c)
        assert canon(canon(a)) == canon(a)
        assert type(canon(a)) is type(a)
        if fld.kind == "prime":
            assert 0 <= canon(a) < fld.p

    inner()


def test_canonical_forms():
    # Fraction canonicalizes on construction; residues are canonical ints
    assert QQ.parse("2/4") == QQ.parse("1/2")
    assert GF5.canonical(-1) == 4
    assert GF5.canonical(3 + 4) == 2


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
    # one ASCII grammar: no "_", no other script's digits, no other spaces
    for text in ("1_0", "\u0661\u0662", "1\u00a0", "\u20031", "1/2_0", "1e1_0", "\uff11"):
        for fld in (QQ, GF5):
            with pytest.raises(ValueError, match=f"bad (integer|rational) literal {re.escape(repr(text))}"):
                fld.parse(text)
        with pytest.raises(ValueError, match="bad integer literal"):
            read_integer(text)


Z = "0" * 5000  # zeros that take a literal past MAX_DIGITS, its value kept
# (short, long, value): every form of the grammar, at both lengths
LITERALS = [
    ("10", Z + "10", 10), ("-7", "-" + Z + "7", -7), ("+0012", "+" + Z + "12", 12),
    ("3/4", Z + "3/" + Z + "4", Fraction(3, 4)), ("-6/08", "-" + Z + "6/" + Z + "8", Fraction(-3, 4)),
    ("2.5", Z + "2.5" + Z, Fraction(5, 2)), ("-.5e-1", "-.5" + Z + "e-" + Z + "1", Fraction(-1, 20)),
    ("5.", Z + "5.", 5), ("1E+2", Z + "1E+" + Z + "2", 100),
]


def test_a_literal_reads_the_same_at_10_and_at_5000_digits():
    for short, long, value in LITERALS:
        assert len(long) > MAX_DIGITS
        assert QQ.parse(short) == QQ.parse(long) == value
        if type(value) is int and "." not in short and "E" not in short:
            assert GF5.parse(short) == GF5.parse(long) == value % 5
            assert read_integer(short) == read_integer(long) == value
    for text in ("1_0", "\u0661\u0662", "x"):  # refused at both lengths
        for literal in (text, Z + text):
            for reader in (QQ.parse, GF5.parse, read_integer):
                with pytest.raises(ValueError):
                    reader(literal)


def test_a_long_bad_literal_is_refused_in_linear_time():
    # a pattern in which two parts could split one run of digits backtracks
    # quadratically: 0.8 s for 5,000 digits, about 13 s for these 20,000
    long = "1" * 20000
    for text in (long + "x", long + "." + long + "x", long + "e" + long + "x", long + "/" + long + "x"):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            QQ.parse(text)
        assert time.perf_counter() - start < 1


def test_field_equality_and_hash():
    assert PrimeField(5) == GF5 and hash(PrimeField(5)) == hash(GF5)
    assert RationalField() == QQ
    assert GF5 != GF and GF5 != QQ
