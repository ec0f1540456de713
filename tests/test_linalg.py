"""Incremental row reduction with provenance over the inserted originals."""

import random
from fractions import Fraction

import pytest

from pointideal.fields import PrimeField, QQ
from pointideal.linalg import EchelonAccumulator, InsertZero, IntRows, PackedRows
from pointideal.oracles import ListRows

GF = PrimeField(101)


def random_vector(rng, fld, m):
    if fld.kind == "prime":
        return [rng.randrange(fld.p) for _ in range(m)]
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]


def recombine(fld, originals, coeffs, residual):
    out = list(residual)
    for idx, c in coeffs.items():
        for k in range(len(out)):
            out[k] = fld.add(out[k], fld.mul(c, originals[idx][k]))
    return out


def test_reduce_on_empty():
    acc = EchelonAccumulator(4, QQ)
    v = [QQ.one] * 4
    residual, coeffs = acc.reduce(v)
    assert residual == v and coeffs == {}


def test_known_dependence():
    # rows: all-ones and the last coordinate of four sample points; the
    # second coordinate column is then ones + last = (1,2,0,3)
    acc = EchelonAccumulator(4, QQ)
    ones = [Fraction(1)] * 4
    x5 = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    acc.insert(*acc.reduce(ones))
    acc.insert(*acc.reduce(x5))
    residual, coeffs = acc.reduce([Fraction(1), Fraction(2), Fraction(0), Fraction(3)])
    assert all(x == 0 for x in residual)
    assert coeffs == {0: Fraction(1), 1: Fraction(1)}


@pytest.mark.parametrize("fld", [QQ, GF])
def test_reduce_recombination_invariant(fld):
    rng = random.Random(5)
    for m in (1, 3, 6):
        acc = EchelonAccumulator(m, fld)
        originals = []
        for _ in range(3 * m):
            v = random_vector(rng, fld, m)
            residual, coeffs = acc.reduce(v)
            assert recombine(fld, originals, coeffs, residual) == [
                fld.add(x, fld.zero) for x in v
            ]
            if any(x != fld.zero for x in residual):
                acc.insert(residual, coeffs)
                originals.append(v)
            assert acc.rank <= m
            _check_echelon(acc, fld)
        if acc.rank == m:
            v = random_vector(rng, fld, m)
            residual, _ = acc.reduce(v)
            assert all(x == fld.zero for x in residual)


def _check_echelon(acc, fld):
    """Semi-echelon: pivot entry 1, zero before it and on earlier pivots."""
    store = acc.store
    for r, (row, piv) in enumerate(zip(store.rows(), store.pivots)):
        assert row[piv] == fld.one
        assert all(x == fld.zero for x in row[:piv])
        assert all(row[p] == fld.zero for p in store.pivots[:r])


def test_insert_zero_rejected():
    acc = EchelonAccumulator(3, QQ)
    with pytest.raises(InsertZero):
        acc.insert([QQ.zero] * 3, {})


def test_rank_saturates():
    acc = EchelonAccumulator(2, GF)
    for v in ([1, 0], [0, 1]):
        acc.insert(*acc.reduce(v))
    assert acc.rank == 2
    residual, coeffs = acc.reduce([7, 9])
    assert residual == [0, 0] and coeffs == {0: 7, 1: 9}


def test_coordinates_over_originals_not_residuals():
    # the second residual is (0, 1); over the originals (1,1) and (1,2),
    # (2,3) = 1*(1,1) + 1*(1,2), whereas over (1,1) and (0,1) it is 2, 1
    acc = EchelonAccumulator(2, GF)
    acc.insert(*acc.reduce([1, 1]))
    acc.insert(*acc.reduce([1, 2]))
    residual, coeffs = acc.reduce([2, 3])
    assert residual == [0, 0] and coeffs == {0: 1, 1: 1}


# 2**61 - 1 and the largest prime below 2**63 give packed slots wider than
# 64 bits
PACKED_PRIMES = (2, 3, 101, 32003, 2**61 - 1, 9223372036854775783)


def _mixed_vector(rng, p, m, originals):
    """Uniform, extreme (entries 0, 1 and p - 1), sparse or dependent."""
    kind = rng.random()
    if kind < 0.35 and originals:
        # a combination of inserted vectors: reduces to zero
        out = [0] * m
        for v in rng.sample(originals, min(len(originals), 4)):
            c = rng.randrange(p)
            out = [(a + c * b) % p for a, b in zip(out, v)]
        return out
    if kind < 0.55:
        return [rng.choice((0, 1, p - 1, p - 1)) for _ in range(m)]
    if kind < 0.7:
        out = [0] * m
        for k in rng.sample(range(m), min(m, 3)):
            out[k] = rng.randrange(p)
        return out
    return [rng.randrange(p) for _ in range(m)]


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_rows_match_list_rows(p):
    fld = PrimeField(p)
    rng = random.Random(p % 997)
    for m, count in ((1, 4), (5, 20), (40, 60), (200, 120)):
        packed, listed = PackedRows(m, fld), ListRows(m, fld)
        originals = []
        for _ in range(count):
            v = _mixed_vector(rng, p, m, originals)
            got = packed.reduce(v)
            assert got == listed.reduce(v)  # residual, coeffs and field ops
            residual, coeffs, _ops = got
            if any(residual):
                assert packed.insert(residual, coeffs) == listed.insert(residual, coeffs)
                originals.append(v)
            assert packed.rank == listed.rank
        assert packed.pivots == listed.pivots
        assert packed.rows() == listed.rows()
        assert 0 < packed.rank < count


def _rational_vector(rng, m, originals):
    """Small height or up to 2**200, sparse, zero or dependent; signs mixed.

    Entries of up to 2**200 are kept to three per vector: dense ones would
    make every row thousands of bits long after a few inserts.
    """
    kind = rng.random()
    if kind < 0.3 and originals:
        # a combination of inserted vectors: reduces to zero
        out = [Fraction(0)] * m
        for v in rng.sample(originals, min(len(originals), 4)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            out = [a + c * b for a, b in zip(out, v)]
        return out
    if kind < 0.35:
        return [Fraction(0)] * m
    if kind < 0.65:
        # sparse: up to three entries, of up to 2**200 or small
        h = 2**200 if kind < 0.5 else 9
        out = [Fraction(0)] * m
        for k in rng.sample(range(m), min(m, 3)):
            out[k] = Fraction(rng.randint(-h, h), rng.randint(1, h))
        return out
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]


def test_int_rows_match_list_rows():
    rng = random.Random(7)
    for m, count in ((1, 4), (5, 20), (40, 50)):
        ints, listed = IntRows(m, QQ), ListRows(m, QQ)
        originals = []
        for _ in range(count):
            v = _rational_vector(rng, m, originals)
            got = ints.reduce(v)
            assert got == listed.reduce(v)  # residual, coeffs and field ops
            residual, coeffs, _ops = got
            if any(residual):
                assert ints.insert(residual, coeffs) == listed.insert(residual, coeffs)
                originals.append(v)
            assert ints.rank == listed.rank
        assert ints.pivots == listed.pivots
        assert ints.rows() == listed.rows()
        assert 0 < ints.rank < count


def test_accumulator_store_follows_field_kind():
    assert isinstance(EchelonAccumulator(3, GF).store, PackedRows)
    assert isinstance(EchelonAccumulator(3, QQ).store, IntRows)
