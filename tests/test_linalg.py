"""Incremental row reduction with provenance over the inserted originals."""

import random
from fractions import Fraction
from math import gcd

import pytest

from pointideal._oracles import ListRows
from pointideal.fields import PrimeField, QQ
from pointideal.linalg import EchelonAccumulator, InsertZero, IntRows, PackedRows

GF = PrimeField(101)


def random_vector(rng, fld, m):
    if fld.kind == "prime":
        return [rng.randrange(fld.p) for _ in range(m)]
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]


def elements(store, residual, coords):
    """A residual of ``store.reduce`` as field elements; the zero residual is 0."""
    if not residual:
        return [0] * store.m
    if isinstance(store, IntRows):
        return [Fraction(r, coords[1]) for r in residual]
    return store.unpack(residual, store.m)[::-1]


def reduce_elements(acc, v):
    """(residual, coeffs) of the field-element vector v, as field elements."""
    residual, coords = acc.reduce(acc.vector(v))
    return elements(acc.store, residual, coords), acc.coordinates(coords)


def recombine(fld, originals, coeffs, residual):
    out = list(residual)
    for idx, c in coeffs.items():
        for k in range(len(out)):
            out[k] = fld.canonical(out[k] + c * originals[idx][k])
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
    assert residual == 0
    assert acc.coordinates(coords) == {0: Fraction(1), 1: Fraction(1)}


@pytest.mark.parametrize("fld", [QQ, GF])
def test_reduce_recombination_invariant(fld):
    rng = random.Random(5)
    for m in (1, 3, 6):
        acc = EchelonAccumulator(m, fld)
        originals, pivots = [], []
        for _ in range(3 * m):
            v = random_vector(rng, fld, m)
            residual, coords = acc.reduce(acc.vector(v))
            coeffs = acc.coordinates(coords)
            entries = elements(acc.store, residual, coords)
            assert recombine(fld, originals, coeffs, entries) == [fld.canonical(x) for x in v]
            # every residual vanishes on the pivots of the rows before it
            assert not any(entries[piv] for piv in pivots)
            if residual:
                acc.insert(residual, coords)
                originals.append(v)
                pivots.append(first_nonzero(entries))
        assert len(pivots) <= m
        if len(pivots) == m:
            v = random_vector(rng, fld, m)
            residual, _ = acc.reduce(acc.vector(v))
            assert residual == 0


def test_insert_zero_rejected():
    # reduce returns the zero residual as 0 in both stores
    with pytest.raises(InsertZero):
        EchelonAccumulator(3, QQ).insert(0, ([], 1))
    with pytest.raises(InsertZero):
        EchelonAccumulator(3, GF).insert(0, 0)


def test_rank_saturates():
    # two inserts span GF(101)^2: every vector then reduces to zero
    acc = EchelonAccumulator(2, GF)
    for v in ([1, 0], [0, 1]):
        acc.insert(*acc.reduce(acc.vector(v)))
    assert reduce_elements(acc, [7, 9]) == ([0, 0], {0: 7, 1: 9})


def test_coordinates_over_originals_not_residuals():
    # the second residual is (0, 1); over the originals (1,1) and (1,2),
    # (2,3) = 1*(1,1) + 1*(1,2), whereas over (1,1) and (0,1) it is 2, 1
    acc = EchelonAccumulator(2, GF)
    acc.insert(*acc.reduce(acc.vector([1, 1])))
    acc.insert(*acc.reduce(acc.vector([1, 2])))
    assert reduce_elements(acc, [2, 3]) == ([0, 0], {0: 1, 1: 1})


def first_nonzero(residual):
    """The pivot an insert of residual takes: its first nonzero entry."""
    return next(k for k, x in enumerate(residual) if x)


def _reduce_both(store, listed, v, vec, pivots):
    """Reduce store vector vec and its elements v alike; insert if nonzero.

    Residuals, coordinates and field ops must agree, and so must the ops of
    the insert.  The residual must vanish on every pivot in ``pivots``, the
    pivots of the earlier inserts, to which an insert appends its own.
    Returns whether v was inserted.
    """
    residual, coords, ops = store.reduce(vec)
    want = listed.reduce(v)
    entries = elements(store, residual, coords)
    assert (entries, store.coordinates(coords), ops) == want
    assert not any(entries[piv] for piv in pivots)
    if not residual:
        return False
    assert store.insert(residual, coords) == listed.insert(*want[:2])
    pivots.append(first_nonzero(entries))
    return True


def _same_rows(store, listed, fld, m):
    """Each unit vector reduces alike in store and listed.

    Reduction by fixed rows is linear, so equal results on e_0..e_{m-1},
    residual, coordinates and field ops, mean equal results on every vector.
    """
    for k in range(m):
        e = [fld.zero] * m
        e[k] = fld.one
        residual, coords, ops = store.reduce(store.vector(e))
        assert (elements(store, residual, coords), store.coordinates(coords), ops) == listed.reduce(e)


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
        products = [fld.canonical(x * y) for x, y in zip(xs, ys)]
        got = store.step(store.vector(xs), store.vector(ys))
        assert got == store.vector(products)
        if fld.kind == "rational":
            ints, D = got
            assert D > 0 and gcd(D, *ints) == 1
            assert [Fraction(x, D) for x in ints] == products
        else:
            assert got == products


# the slots of GF(32003) at m <= 536 are one 64-bit lane each; those of
# 2**61 - 1 are 17 bytes or more, spread byte by byte over the lanes
SLOTS = {"lanes": 32003, "bytes": 2**61 - 1}


def width_bits(p, m):
    """The slot width: the fewest whole bytes that hold the Barrett product."""
    s = (m * (p - 1) ** 2 + p).bit_length()
    return -(-(2 * s - p.bit_length() + 1) // 8) * 8


@pytest.mark.parametrize("fld", [*map(PrimeField, SLOTS.values()), QQ], ids=[*SLOTS, "QQ"])
def test_combiner_is_exact_past_m_terms(fld):
    # 20m + 1 terms, the first 10m of them (p-1)*(p-1) in every slot, the
    # most a slot can gain: summed without reducing, they would pass 2**s,
    # the slot bound below which the sum is reduced, after 8 of them
    rng = random.Random(13)
    m, count = 7, 141
    store = EchelonAccumulator(m, fld).store
    if fld.kind == "prime":
        assert store._w == width_bits(fld.p, m)
        top = fld.p - 1
        vecs = [[top] * m] + [random_vector(rng, fld, m) for _ in range(5)]
        coeffs = [top] * 70 + [rng.randrange(fld.p) for _ in range(count - 70)]
        at = [0] * 70 + [rng.randrange(6) for _ in range(count - 70)]
    else:
        # unrelated large denominators, and int coefficients beside Fractions
        vecs = [[Fraction(rng.randint(-2**70, 2**70), rng.randint(1, 2**70)) for _ in range(m)] for _ in range(6)]
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 2**40)) for _ in range(count - m)]
        coeffs += [rng.randint(-9, 9) for _ in range(m)]
        at = [rng.randrange(6) for _ in range(count)]
    combine = store.combiner([store.vector(v) for v in vecs])
    expect = [fld.canonical(sum(c * vecs[j][k] for c, j in zip(coeffs, at))) for k in range(m)]
    assert store.coordinates(combine(coeffs, at)) == {k: x for k, x in enumerate(expect) if x}
    # the empty sum, and a sum that cancels, are the zero vector
    assert store.coordinates(combine([], [])) == {}
    minus_one = fld.canonical(-1)
    assert store.coordinates(combine([fld.one, minus_one] * (m + 1), [2, 2] * (m + 1))) == {}


# 2**61 - 1 and the largest prime below 2**63 give packed slots wider than
# 64 bits; small primes and small m give slots of fewer than 8 bytes
PACKED_PRIMES = (2, 3, 101, 32003, 2**31 - 1, 2**61 - 1, 9223372036854775783)
PACKED_SIZES = ((1, 4), (5, 20), (40, 60), (200, 120))


def width_steps(p, top):
    """Each m <= top whose slots are wider than those of m - 1."""
    return [m for m in range(2, top + 1) if width_bits(p, m) > width_bits(p, m - 1)]


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_residues_at_slot_edges(p):
    # every slot below 2**s comes back as its residue, the edges of the
    # Barrett reduction included, on both sides of each step of the width
    rng = random.Random(p % 991)
    steps = width_steps(p, 1000)
    if p == 32003:
        assert 537 in steps and 536 not in steps
    for m in sorted({1, *steps, *(m - 1 for m in steps)}):
        store = PackedRows(m, PrimeField(p))
        s, w = store._s, store._w
        assert w == width_bits(p, m)
        assert (2**s - 1) * store._mu < 2**w
        edges = [0, 1, p - 1, p, 2 * p - 1, (p - 1) ** 2, m * (p - 1) ** 2 + p - 1, 2**s - 1]
        values = edges * 2 + [rng.randrange(2**s) for _ in range(m)]
        rng.shuffle(values)
        for k in range(0, len(values), m):
            slots = values[k : k + m]
            want = [x % p for x in slots]
            got = store.residues(sum(x << i * w for i, x in enumerate(slots)))
            assert got == sum(x << i * w for i, x in enumerate(want))
            assert store.unpack(got, len(slots)) == want
            assert store.count_nonzero(got) == len(slots) - want.count(0)


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
    for m, count in PACKED_SIZES:
        packed, listed = PackedRows(m, fld), ListRows(m, fld)
        assert packed._w == width_bits(p, m)
        originals, pivots = [], []
        for _ in range(count):
            v = _mixed_vector(rng, p, m, originals)
            if _reduce_both(packed, listed, v, packed.vector(v), pivots):
                originals.append(v)
        _same_rows(packed, listed, fld, m)
        assert 0 < len(pivots) < count


@pytest.mark.parametrize("p", SLOTS.values(), ids=SLOTS)
def test_packed_store_vectors_are_residues(p):
    m = 40
    fld = PrimeField(p)
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    rng = random.Random(13)
    # negative entries and entries of p and above become their residues
    raw = [rng.choice((-1, -p, -p - 5, p, p + 1, 3 * p - 1, 2**70 + 9, 5)) for _ in range(m)]
    vec = packed.vector(raw)
    assert vec == [x % p for x in raw]
    pivots = []
    assert _reduce_both(packed, listed, vec, vec, pivots)
    # a residual with many leading zeros, its leading entry repeated later:
    # the pivot is the first nonzero entry, not a later equal one
    a, b = rng.randrange(2, p), rng.randrange(2, p)
    v = [0] * (m - 4) + [a, b, a, 0]
    assert _reduce_both(packed, listed, v, packed.vector(v), pivots)
    assert pivots[-1] == m - 4
    _same_rows(packed, listed, fld, m)
    # a combination of the two reduces to zero, and zero is not inserted
    dep = [(3 * x + 7 * y) % p for x, y in zip(vec, v)]
    assert not _reduce_both(packed, listed, dep, packed.vector(dep), pivots)
    residual, coords, _ops = packed.reduce(packed.vector(dep))
    assert residual == 0
    with pytest.raises(InsertZero):
        packed.insert(residual, coords)
    assert len(pivots) == 2
    _same_rows(packed, listed, fld, m)


@pytest.mark.parametrize("p", SLOTS.values(), ids=SLOTS)
def test_packed_rows_end_at_their_pivots(p):
    # index k sits in slot m - 1 - k, so a row, zero before its pivot, is
    # no longer than the m - piv slots from its pivot on
    fld, m = PrimeField(p), 60
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    rng = random.Random(17)
    originals, pivots = [], []
    for _ in range(120):
        v = _mixed_vector(rng, fld.p, m, originals)
        if _reduce_both(packed, listed, v, packed.vector(v), pivots):
            originals.append(v)
    assert min(pivots) == 0 and max(pivots) >= m - 2
    for piv, (shift, _low, negrow, _hist, _ops) in zip(pivots, packed._rows):
        # the pivot sits in slot m - 1 - piv, shift // w
        assert shift == (m - 1 - piv) * packed._w
        assert 0 < negrow.bit_length() <= (m - piv) * packed._w


def boolean_vectors(rng, m, n, count):
    """count evaluation vectors of monomials at m distinct 0/1 points.

    Each is the product of up to four coordinate columns of the n-variable
    points, as the vectors of ``bm`` are products of coordinate columns.
    """
    points = rng.sample(range(1 << n), m)
    columns = [[x >> j & 1 for x in points] for j in range(n)]
    vectors = []
    for _ in range(count):
        v = [1] * m
        for j in rng.sample(range(n), rng.randint(0, 4)):
            v = [a * b for a, b in zip(v, columns[j])]
        vectors.append(v)
    return vectors


@pytest.mark.parametrize("p", SLOTS.values(), ids=SLOTS)
def test_packed_rows_match_list_rows_on_boolean_points(p):
    # the gfp-boolean shape: products of coordinate columns of 0/1 points;
    # full rank, so pivots lie in both halves and both reads are taken
    fld, m = PrimeField(p), 160
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    pivots = []
    for v in boolean_vectors(random.Random(3), m, 10, 400):
        _reduce_both(packed, listed, v, packed.vector(v), pivots)
    assert sorted(pivots) == list(range(m))
    _same_rows(packed, listed, fld, m)


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
        originals, vectors, pivots = [], [], []
        for _ in range(count):
            if vectors and rng.random() < 0.3:
                # as in bm: an inserted vector times a coordinate column
                k, col = rng.randrange(len(vectors)), rng.choice(columns)
                vec = ints.step(vectors[k], ints.vector(col))
                v = [x * y for x, y in zip(originals[k], col)]
            else:
                v = _rational_vector(rng, m, originals)
                vec = ints.vector(v)
            if _reduce_both(ints, listed, v, vec, pivots):
                originals.append(v)
                vectors.append(vec)
        assert 0 < len(pivots) < count
        if m < 40:
            _same_rows(ints, listed, QQ, m)
        else:
            # at m = 40 the rows reach full rank with 5,000-bit entries, and
            # the m unit vectors take 9 s; one dense vector of 64-bit
            # integers tells two different reduce maps apart as well, except
            # on a set it falls in with probability below 2**-64
            w = [Fraction(rng.randint(-2**64, 2**64)) for _ in range(m)]
            _reduce_both(ints, listed, w, ints.vector(w), pivots)


def test_int_rows_row_step_branches():
    # rows built so that each branch of the row step is taken: v0 gives a
    # row with d = 1, v1 one with d = 2, and v2 = 1*v0 + 1/2*v1 + its
    # residual one with d = 6; each row is [*N, *-H], histories of 1, 2, 3
    ints, listed, pivots = IntRows(4, QQ), ListRows(4, QQ), []
    for v in ([1, 0, 3, 0], [0, 2, 0, 1], [1, 1, 0, 0]):
        v = [Fraction(x) for x in v]
        assert _reduce_both(ints, listed, v, ints.vector(v), pivots)
    assert [(piv, NH, d) for piv, NH, d, _ops in ints._rows] == [
        (0, [1, 0, 3, 0, -1], 1),
        (1, [0, 2, 0, 1, 0, -1], 2),
        (2, [0, 0, 6, 1, -2, -1, 2], 6),
    ]
    # (vector, D of its coords): [2,0,0,0] uses rows 0 (a = 2) and 2
    # (a = -6), both with d' = 1, so D stays 1, and RC grows from a history
    # of 1 to one of 3; [0,1,1,0] uses row 1 (d' = 2), where NH is 0 at the
    # vector's entry 2, then row 2 (d' = 3); [3,0,0,5] uses row 0 (d' = 1),
    # where NH is 0 at entry 3, then row 2 (d' = 2)
    for w, D in (([2, 0, 0, 0], 1), ([0, 1, 1, 0], 6), ([3, 0, 0, 5], 2)):
        w = [Fraction(x) for x in w]
        residual, (C, got), ops = ints.reduce(ints.vector(w))
        assert got == D and len(C) == 3 and ops == 12
        assert (elements(ints, residual, (C, got)), ints.coordinates((C, got)), ops) == listed.reduce(w)
    _same_rows(ints, listed, QQ, 4)


def test_accumulator_store_follows_field_kind():
    assert isinstance(EchelonAccumulator(3, GF).store, PackedRows)
    assert isinstance(EchelonAccumulator(3, QQ).store, IntRows)


@pytest.mark.parametrize("fld", [QQ, PrimeField(5), GF])
def test_list_rows_sub_scaled_is_entrywise_sub_mul(fld):
    # the oracle's own row update: y - c*x in the field, entry by entry
    ys = [fld.parse(str(k)) for k in (3, -7, 0, 11, 4)]
    xs = [fld.parse(str(k)) for k in (0, 5, -2, 9, 1)]
    inv3 = Fraction(1, 3) if fld == QQ else pow(3, -1, fld.p)
    for c in (fld.zero, fld.one, fld.parse("-6"), inv3):
        want = [fld.canonical(y - c * x) for y, x in zip(ys, xs)]
        assert ListRows(5, fld).sub_scaled(ys, c, xs) == want


def test_list_rows_inverse_is_exact():
    # over QQ, ints and Fractions alike give a Fraction, never a float
    rows = ListRows(1, QQ)
    for a, want in ((3, Fraction(1, 3)), (-4, Fraction(-1, 4)), (1, Fraction(1)),
                    (Fraction(2, 3), Fraction(3, 2)), (Fraction(-5, 7), Fraction(-7, 5))):
        got = rows.inverse(a)
        assert type(got) is Fraction and got == want
    # over GF(p), the residue whose product with a is 1
    gf5 = ListRows(1, PrimeField(5))
    assert [gf5.inverse(a) for a in (1, 2, 3, 4, 9)] == [1, 3, 2, 4, 4]
