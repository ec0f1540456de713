"""Known-answer data and the self-check suite behind ``selftest``.

The golden merge instance and the golden basis instance are exported so the
test suite can reuse them.  ``run_selftest`` checks the merge against the
golden instance and the naive merge, the basis and the projection against
the golden answers, and certifies seeded runs over GF(p) and QQ, direct
and projected, with ``certify.verify_result``; on the GF(p) run it checks
one ``normal_form`` of a random combination of B and the leads of G.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import orders
from ._oracles import naive_deltas, random_point_set
from .bm import PointSet, PointSetError, bm, normal_form
from .certify import VerificationError, verify_result
from .deltamerge import DeltaList
from .fields import QQ, PrimeField
from .oracles import naive_merge
from .poly import Polynomial, combine
from .projection import bm_projected, essential_variables, project

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


def run_selftest(seed=0, report=print):
    """Run the checks, seeded by ``seed``; returns the failure count.

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
    es = essential_variables(GOLDEN_POINTS, spec)
    sub = project(GOLDEN_POINTS, es)
    check(
        "projection golden instance",
        es.ess == GOLDEN_ESS and sub.points == GOLDEN_PROJECTED,
        f"ess={es.ess} pts={sub.points}",
    )
    proj = bm_projected(GOLDEN_POINTS, spec)
    check(
        "projected pipeline equals direct run",
        proj.B == res.B and proj.G == res.G,
        "lifted result differs",
    )

    # seeded runs, direct and projected, each certified without elimination;
    # five of the projected run's eight coordinates are affine in the others
    gf = PrimeField(32003)
    free = random_point_set(rng, gf, 3, 100).points
    affine = [(a, b, c, a + b, b - c, 2 * a + 1, c + 5, a + b + c) for a, b, c in free]
    runs = [
        ("GF(32003) (8, 200, degrevlex)", bm, random_point_set(rng, gf, 8, 200)),
        ("projected GF(32003) (8, 100, degrevlex)", bm_projected, PointSet(gf, 8, affine)),
        ("QQ (4, 40, degrevlex)", bm, random_point_set(rng, QQ, 4, 40)),
    ]
    results = []
    for name, run, pts in runs:
        results.append(run(pts, orders.degrevlex(pts.n)))
        try:
            verify_result(results[-1], pts)
            detail = ""
        except VerificationError as exc:
            detail = str(exc)
        check(f"certified {name}", not detail, detail)

    # sum r_g*lead(g) + sum s_b*b has the normal form sum r_g*(lead(g) - g) + sum s_b*b
    res, pts = results[0], runs[0][2]
    r = [(rng.randrange(gf.p), g) for g in res.G]
    s = [(rng.randrange(gf.p), Polynomial.monomial(b, gf)) for b in res.B]
    f = combine([(c, Polynomial(g.terms[:1])) for c, g in r] + s, res.spec, gf)
    expect = combine([(gf.canonical(-c), Polynomial(g.terms[1:])) for c, g in r] + s, res.spec, gf)
    try:
        nf = normal_form(f, res, pts)
    except PointSetError as exc:
        nf = exc
    check(
        f"normal form of {len(f.terms)} terms on {runs[0][0]}",
        nf == expect,
        f"{nf}"[:200],
    )

    return failures
