"""Incremental row reduction with provenance over the inserted originals."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from pointideal import linalg
from pointideal._oracles import ListRows
from pointideal._selftest import boolean_vectors
from pointideal.fields import PrimeField, QQ
from pointideal.linalg import EchelonAccumulator, InsertZero, IntRows, PackedRows

GF = PrimeField(101)


def random_vector(rng, fld, m):
    if fld.kind == "prime":
        return [rng.randrange(fld.p) for _ in range(m)]
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]


def elements(store, residual, coords):
    """A residual of ``store.reduce`` as field elements."""
    if isinstance(store, IntRows):
        return [Fraction(r, coords[1]) for r in residual]
    return residual


def reduce_elements(acc, v):
    """(residual, coeffs) of the field-element vector v, as field elements."""
    residual, coords = acc.reduce(acc.vector(v))
    return elements(acc.store, residual, coords), acc.coordinates(coords)


def recombine(fld, originals, coeffs, residual):
    out = list(residual)
    for idx, c in coeffs.items():
        for k in range(len(out)):
            out[k] = fld.add(out[k], fld.mul(c, originals[idx][k]))
    return out


def test_reduce_on_empty():
    for fld in (QQ, GF):
        acc = EchelonAccumulator(4, fld)
        v = [fld.one] * 4
        assert reduce_elements(acc, v) == (v, {})


def test_known_dependence():
    # rows: all-ones and the last coordinate of four sample points; the
    # second coordinate column is then ones + last = (1,2,0,3)
    acc = EchelonAccumulator(4, QQ)
    ones = [Fraction(1)] * 4
    x5 = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2)]
    acc.insert(*acc.reduce(acc.vector(ones)))
    acc.insert(*acc.reduce(acc.vector(x5)))
    residual, coords = acc.reduce(acc.vector([Fraction(1), Fraction(2), Fraction(0), Fraction(3)]))
    assert not any(residual)
    assert acc.coordinates(coords) == {0: Fraction(1), 1: Fraction(1)}


@pytest.mark.parametrize("fld", [QQ, GF])
def test_reduce_recombination_invariant(fld):
    rng = random.Random(5)
    for m in (1, 3, 6):
        acc = EchelonAccumulator(m, fld)
        originals = []
        for _ in range(3 * m):
            v = random_vector(rng, fld, m)
            residual, coords = acc.reduce(acc.vector(v))
            coeffs = acc.coordinates(coords)
            assert recombine(fld, originals, coeffs, elements(acc.store, residual, coords)) == [
                fld.add(x, fld.zero) for x in v
            ]
            if any(residual):
                acc.insert(residual, coords)
                originals.append(v)
            assert acc.rank <= m
            _check_echelon(acc, fld)
        if acc.rank == m:
            v = random_vector(rng, fld, m)
            residual, _ = acc.reduce(acc.vector(v))
            assert not any(residual)


def _check_echelon(acc, fld):
    """Semi-echelon: pivot entry 1, zero before it and on earlier pivots."""
    store = acc.store
    for r, (row, piv) in enumerate(zip(store.rows(), store.pivots)):
        assert row[piv] == fld.one
        assert all(x == fld.zero for x in row[:piv])
        assert all(row[p] == fld.zero for p in store.pivots[:r])


def test_insert_zero_rejected():
    with pytest.raises(InsertZero):
        EchelonAccumulator(3, QQ).insert([0] * 3, ([], 1))
    with pytest.raises(InsertZero):
        EchelonAccumulator(3, GF).insert([0] * 3, [])


def test_rank_saturates():
    acc = EchelonAccumulator(2, GF)
    for v in ([1, 0], [0, 1]):
        acc.insert(*acc.reduce(acc.vector(v)))
    assert acc.rank == 2
    assert reduce_elements(acc, [7, 9]) == ([0, 0], {0: 7, 1: 9})


def test_coordinates_over_originals_not_residuals():
    # the second residual is (0, 1); over the originals (1,1) and (1,2),
    # (2,3) = 1*(1,1) + 1*(1,2), whereas over (1,1) and (0,1) it is 2, 1
    acc = EchelonAccumulator(2, GF)
    acc.insert(*acc.reduce(acc.vector([1, 1])))
    acc.insert(*acc.reduce(acc.vector([1, 2])))
    assert reduce_elements(acc, [2, 3]) == ([0, 0], {0: 1, 1: 1})


def _reduce_both(store, listed, v, vec):
    """Reduce store vector vec and its elements v alike; insert if nonzero.

    Residuals, coordinates and field ops must agree, and so must the ops of
    the insert.  Returns whether v was inserted.
    """
    residual, coords, ops = store.reduce(vec)
    want = listed.reduce(v)
    assert (elements(store, residual, coords), store.coordinates(coords), ops) == want
    if not any(residual):
        return False
    assert store.insert(residual, coords) == listed.insert(*want[:2])
    return True


@pytest.mark.parametrize("fld", [QQ, GF, PrimeField(2**61 - 1)])
def test_step_is_entrywise_product(fld):
    rng = random.Random(11)
    store = EchelonAccumulator(6, fld).store
    for k in range(60):
        xs, ys = (random_vector(rng, fld, 6) for _ in range(2))
        if fld.kind == "rational" and k % 3 == 0:
            # unrelated large denominators
            xs = [Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 2**70)) for _ in xs]
        if k % 10 == 0:
            ys = [fld.zero] * 6
        products = [fld.mul(x, y) for x, y in zip(xs, ys)]
        got = store.step(store.vector(xs), store.vector(ys))
        assert got == store.vector(products)
        if fld.kind == "rational":
            ints, D = got
            assert D > 0 and gcd(D, *ints) == 1
            assert [Fraction(x, D) for x in ints] == products
        else:
            assert got == products


# 2**61 - 1 and the largest prime below 2**63 give packed slots wider than
# 64 bits; 2**31 - 1 leaves the 64-bit lanes between m = 4 and m = 5
PACKED_PRIMES = (2, 3, 101, 32003, 2**31 - 1, 2**61 - 1, 9223372036854775783)
PACKED_SIZES = ((1, 4), (5, 20), (40, 60), (200, 120))
# (m, vectors, bound below 2**64) on either side of the lane bound
LANE_EDGE = {2**31 - 1: ((4, 16, True), (5, 20, False))}


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


def _packed_matches_list_rows(fld, m, count, lanes, rng):
    p = fld.p
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    assert packed.lanes == lanes
    # slots are 64-bit lanes, or the fewest whole bytes above the bound
    width = 64 if lanes else -(-(m * (p - 1) ** 2 + p).bit_length() // 8) * 8
    assert packed._w == width
    originals = []
    for _ in range(count):
        v = _mixed_vector(rng, p, m, originals)
        if _reduce_both(packed, listed, v, packed.vector(v)):
            originals.append(v)
        assert packed.rank == listed.rank
    assert packed.pivots == listed.pivots
    assert packed.rows() == listed.rows()
    assert 0 < packed.rank < count


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_rows_match_list_rows(p):
    fld = PrimeField(p)
    rng = random.Random(p % 997)
    little = sys.byteorder == "little"
    sizes = [(m, count, m * (p - 1) ** 2 + p < 2**64) for m, count in PACKED_SIZES]
    for m, count, fits in [*LANE_EDGE.get(p, ()), *sizes]:
        _packed_matches_list_rows(fld, m, count, fits and little, rng)


def test_packed_rows_byte_path_below_lane_bound(monkeypatch):
    # a big-endian machine packs whole-byte slots even where a lane would do
    monkeypatch.setattr(linalg, "_LITTLE_ENDIAN", False)
    fld = PrimeField(32003)
    rng = random.Random(7)
    for m, count in PACKED_SIZES:
        _packed_matches_list_rows(fld, m, count, False, rng)


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "bytes"])
def test_packed_store_vectors_are_residues(monkeypatch, lanes):
    if lanes and sys.byteorder != "little":
        pytest.skip("64-bit lanes need a little-endian machine")
    monkeypatch.setattr(linalg, "_LITTLE_ENDIAN", lanes)
    p, m = 32003, 40
    fld = PrimeField(p)
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    assert packed.lanes == lanes
    rng = random.Random(13)
    # negative entries and entries of p and above become their residues
    raw = [rng.choice((-1, -p, -p - 5, p, p + 1, 3 * p - 1, 2**70 + 9, 5)) for _ in range(m)]
    vec = packed.vector(raw)
    assert vec == [x % p for x in raw]
    assert _reduce_both(packed, listed, vec, vec)
    # a residual with many leading zeros, its leading entry repeated later:
    # the pivot is the first nonzero entry, not a later equal one
    a, b = rng.randrange(2, p), rng.randrange(2, p)
    v = [0] * (m - 4) + [a, b, a, 0]
    assert _reduce_both(packed, listed, v, packed.vector(v))
    assert packed.pivots == listed.pivots and packed.pivots[-1] == m - 4
    assert packed.rows() == listed.rows()
    # a combination of the two reduces to zero, and zero is not inserted
    dep = [(3 * x + 7 * y) % p for x, y in zip(vec, v)]
    assert not _reduce_both(packed, listed, dep, packed.vector(dep))
    residual, coords, _ops = packed.reduce(packed.vector(dep))
    with pytest.raises(InsertZero):
        packed.insert(residual, coords)
    assert packed.rank == 2


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "bytes"])
def test_packed_rows_end_at_their_pivots(monkeypatch, lanes):
    # index k sits in slot m - 1 - k, so a row, zero before its pivot, is
    # no longer than the m - piv slots from its pivot on
    if lanes and sys.byteorder != "little":
        pytest.skip("64-bit lanes need a little-endian machine")
    monkeypatch.setattr(linalg, "_LITTLE_ENDIAN", lanes)
    fld, m = PrimeField(32003), 60
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    assert packed.lanes == lanes
    rng = random.Random(17)
    originals = []
    for _ in range(120):
        v = _mixed_vector(rng, fld.p, m, originals)
        if _reduce_both(packed, listed, v, packed.vector(v)):
            originals.append(v)
    assert min(packed.pivots) == 0 and max(packed.pivots) >= m - 2
    for piv, (_shift, _low, negrow, _hist, _ops) in zip(packed.pivots, packed._rows):
        assert 0 < negrow.bit_length() <= (m - piv) * packed._w


@pytest.mark.parametrize("lanes", [True, False], ids=["lanes", "bytes"])
def test_packed_rows_match_list_rows_on_boolean_points(monkeypatch, lanes):
    # the gfp-boolean shape: products of coordinate columns of 0/1 points;
    # full rank, so pivots lie in both halves and both reads are taken
    if lanes and sys.byteorder != "little":
        pytest.skip("64-bit lanes need a little-endian machine")
    monkeypatch.setattr(linalg, "_LITTLE_ENDIAN", lanes)
    fld, m = PrimeField(32003), 160
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    assert packed.lanes == lanes
    for v in boolean_vectors(random.Random(3), m, 10, 400):
        _reduce_both(packed, listed, v, packed.vector(v))
    assert packed.rank == m
    assert packed.pivots == listed.pivots
    assert packed.rows() == listed.rows()


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
        columns = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)] for _ in range(3)]
        originals, vectors = [], []
        for _ in range(count):
            if vectors and rng.random() < 0.3:
                # as in bm: an inserted vector times a coordinate column
                k, col = rng.randrange(len(vectors)), rng.choice(columns)
                vec = ints.step(vectors[k], ints.vector(col))
                v = [x * y for x, y in zip(originals[k], col)]
            else:
                v = _rational_vector(rng, m, originals)
                vec = ints.vector(v)
            if _reduce_both(ints, listed, v, vec):
                originals.append(v)
                vectors.append(vec)
            assert ints.rank == listed.rank
        assert ints.pivots == listed.pivots
        assert ints.rows() == listed.rows()
        assert 0 < ints.rank < count


def test_accumulator_store_follows_field_kind():
    assert isinstance(EchelonAccumulator(3, GF).store, PackedRows)
    assert isinstance(EchelonAccumulator(3, QQ).store, IntRows)
