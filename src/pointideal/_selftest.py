"""Known-answer data and the self-check suite behind ``selftest``.

The golden merge instance and the golden basis instance are exported so the
test suite can reuse them; ``run_selftest`` cross-checks the optimized paths
against the naive oracles and the known answers.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import orders
from ._oracles import (
    ListRows,
    abbott_basis,
    membership_by_evaluation,
    naive_deltas,
    random_field,
    random_point_set,
)
from .bm import PointSet, bm
from .deltamerge import DeltaList
from .fields import QQ, PrimeField
from .linalg import PackedRows
from .oracles import naive_merge
from .poly import Polynomial

# A merge instance with a known interleaving, including a duplicate pair
# that exercises the tie rule (items of the second list go first).
GOLDEN_MERGE_A = [
    (1, 0, 2, 2, 0),
    (1, 0, 3, 0, 0),
    (2, 0, 0, 1, 0),
    (2, 1, 0, 0, 1),
    (2, 1, 0, 2, 1),
    (3, 0, 0, 0, 0),
]
GOLDEN_MERGE_B = [
    (1, 0, 0, 0, 0),
    (1, 0, 2, 0, 0),
    (2, 1, 0, 1, 1),
    (2, 1, 0, 2, 1),
]
# b1, b2, a1, a2, a3, a4, b3, b4, a5, a6
GOLDEN_MERGE_ITEMS = [
    GOLDEN_MERGE_B[0],
    GOLDEN_MERGE_B[1],
    GOLDEN_MERGE_A[0],
    GOLDEN_MERGE_A[1],
    GOLDEN_MERGE_A[2],
    GOLDEN_MERGE_A[3],
    GOLDEN_MERGE_B[2],
    GOLDEN_MERGE_B[3],
    GOLDEN_MERGE_A[4],
    GOLDEN_MERGE_A[5],
]
GOLDEN_MERGE_DELTAS = (3, 4, 3, 1, 2, 4, 4, 6, 1)

# Four rational points in five variables whose ideal under lex has a
# univariate quotient basis in the smallest variable.
GOLDEN_POINTS = PointSet(
    field=QQ,
    n=5,
    points=(
        (Fraction(1), Fraction(1), Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(2), Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(0), Fraction(1), Fraction(1), Fraction(-1)),
        (Fraction(5), Fraction(3), Fraction(4), Fraction(1), Fraction(2)),
    ),
)

GOLDEN_B = [
    (0, 0, 0, 0, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 0, 0, 2),
    (0, 0, 0, 0, 3),
]


def golden_G(spec):
    """The five reduced basis elements, ascending by leading monomial."""
    f = Fraction

    def poly(coeffs):
        return Polynomial.from_dict(coeffs, spec, QQ)

    x5 = lambda e: (0, 0, 0, 0, e)
    return [
        poly({x5(4): f(1), x5(3): f(-2), x5(2): f(-1), x5(1): f(2)}),
        poly({(0, 0, 0, 1, 0): f(1), x5(0): f(-1)}),
        poly({(0, 0, 1, 0, 0): f(1), x5(2): f(-1)}),
        poly({(0, 1, 0, 0, 0): f(1), x5(1): f(-1), x5(0): f(-1)}),
        poly({(1, 0, 0, 0, 0): f(1), x5(2): f(-1), x5(0): f(-1)}),
    ]


# Projected-ring answers for the golden points: essential variables,
# projected coordinates and the two-variable basis.
GOLDEN_ESS = (3, 5)
GOLDEN_PROJECTED = (
    (Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(-1)),
    (Fraction(4), Fraction(2)),
)


def golden_sub_G(sub_spec):
    f = Fraction
    return [
        Polynomial.from_dict(
            {(0, 4): f(1), (0, 3): f(-2), (0, 2): f(-1), (0, 1): f(2)},
            sub_spec,
            QQ,
        ),
        Polynomial.from_dict({(1, 0): f(1), (0, 2): f(-1)}, sub_spec, QQ),
    ]


def _random_sorted_list(rng, n, max_len):
    items = sorted(
        tuple(rng.randint(0, 3) for _ in range(n))
        for _ in range(rng.randint(0, max_len))
    )
    return items


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


def packed_rows_agree(fld, vectors):
    """Whether ``PackedRows`` eliminates vectors as the test oracle ``ListRows`` does.

    Every reduce must give the same residual, coordinates and field ops,
    every insert the same field ops, and the rows and pivots must agree.
    """
    m = len(vectors[0])
    packed, listed = PackedRows(m, fld), ListRows(m, fld)
    for v in vectors:
        residual, coords, ops = packed.reduce(packed.vector(v))
        want = listed.reduce(v)
        if (residual, packed.coordinates(coords), ops) != want:
            return False
        if any(residual) and packed.insert(residual, coords) != listed.insert(*want[:2]):
            return False
    return packed.pivots == listed.pivots and packed.rows() == listed.rows()


def run_selftest(seed=0, report=print):
    """Cross-check optimized paths against oracles; returns the failure count.

    Each check prints one ``ok``/``FAIL`` line through ``report``.
    """
    rng = random.Random(seed)
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        if ok:
            report(f"ok   {name}")
        else:
            failures += 1
            report(f"FAIL {name}" + (f": {detail}" if detail else ""))

    # golden merge
    A = DeltaList.from_items(GOLDEN_MERGE_A)
    B = DeltaList.from_items(GOLDEN_MERGE_B)
    merged = A.merge(B)
    check(
        "merge golden instance",
        merged.items == GOLDEN_MERGE_ITEMS
        and tuple(merged.deltas) == GOLDEN_MERGE_DELTAS,
        f"items={merged.items} deltas={merged.deltas}",
    )

    # random merges against the naive oracle
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        la = _random_sorted_list(rng, n, 30)
        lb = _random_sorted_list(rng, n, 30)
        da = DeltaList.from_items(la, arity=n)
        db = DeltaList.from_items(lb, arity=n)
        out = da.merge(db)
        expect, _cost = naive_merge(la, lb)
        s, t = len(la), len(lb)
        bound = max(s, t) + min(s, t) * n
        if (
            out.items != expect
            or out.deltas != naive_deltas(expect)
            or out.element_cmps > bound
        ):
            bad += 1
    check("merge vs naive oracle (200 seeded)", bad == 0, f"{bad} mismatches")

    # golden basis, direct and projected
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    check(
        "basis golden instance",
        res.B == GOLDEN_B and res.G == golden_G(spec),
        "basis mismatch",
    )
    from .projection import bm_projected, essential_variables, project

    es = essential_variables(GOLDEN_POINTS, spec)
    sub = project(GOLDEN_POINTS, es)
    check(
        "projection golden instance",
        es.ess == GOLDEN_ESS and sub.points == GOLDEN_PROJECTED,
        f"ess={es.ess} pts={sub.points}",
    )
    proj = bm_projected(GOLDEN_POINTS, spec, mode="on")
    check(
        "projected pipeline equals direct run",
        proj.B == res.B and proj.G == res.G,
        "lifted result differs",
    )

    # the packed GF(p) store against list rows on 0/1 points: GF(32003)
    # packs 64-bit lanes on little-endian machines and whole bytes on
    # big-endian ones; GF(2**61 - 1) packs whole bytes on every machine
    vectors = boolean_vectors(random.Random(seed), 40, 8, 80)
    bad = [p for p in (32003, 2**61 - 1) if not packed_rows_agree(PrimeField(p), vectors)]
    check("packed rows vs list rows (0/1 points)", not bad, f"differ over GF{bad}")

    # agreement with the Abbott-style oracle on random point sets
    bad = 0
    for _ in range(10):
        fld = random_field(rng)
        n = rng.randint(1, 4)
        m = rng.randint(1, 8)
        pts = random_point_set(rng, fld, n, m)
        sp = rng.choice(
            [orders.lex(n), orders.deglex(n), orders.degrevlex(n)]
        )
        r1 = bm(pts, sp)
        r2 = abbott_basis(pts, sp)
        if r1.B != r2.B or r1.G != r2.G:
            bad += 1
    check("agreement with abbott_basis (10 seeded)", bad == 0, f"{bad} mismatches")

    # every basis element vanishes on its points
    bad = 0
    for _ in range(5):
        fld = random_field(rng)
        n = rng.randint(1, 3)
        pts = random_point_set(rng, fld, n, rng.randint(1, 6))
        sp = orders.deglex(n)
        r = bm(pts, sp)
        if not membership_by_evaluation(r.G, pts):
            bad += 1
    check("basis elements vanish (5 seeded)", bad == 0, f"{bad} bad runs")

    return failures
