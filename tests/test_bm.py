"""The basis computation itself: known answers, oracle agreement, invariants."""

import logging
import random
import re
from fractions import Fraction

import pytest

from conftest import counted_steps, random_instance, random_order
import importlib

bm_mod = importlib.import_module("pointideal.bm")
from pointideal import fileio, orders
from pointideal._oracles import (
    abbott_basis,
    evaluate,
    lex_basis,
    random_matrix_order,
    random_monomial,
    random_point_set,
)
from pointideal._selftest import GOLDEN_B, GOLDEN_POINTS, golden_G
from pointideal.bm import (
    DuplicatePoints,
    EmptyPointSet,
    GroebnerResult,
    PointSet,
    PointSetError,
    RunStats,
    bm,
    normal_form,
    occ_skip,
    probe_deltas,
)
from pointideal.certify import verify_result
from pointideal.deltamerge import compare_from
from pointideal.fields import PrimeField, QQ
from pointideal.linalg import EchelonAccumulator
from pointideal.poly import Polynomial, combine
from pointideal.projection import bm_projected


def test_single_point():
    pts = PointSet(field=QQ, n=2, points=((Fraction(2), Fraction(3)),))
    spec = orders.lex(2)
    res = bm(pts, spec)
    assert res.B == [(0, 0)]
    assert res.G == [
        Polynomial.from_dict({(0, 1): Fraction(1), (0, 0): Fraction(-3)}, spec, QQ),
        Polynomial.from_dict({(1, 0): Fraction(1), (0, 0): Fraction(-2)}, spec, QQ),
    ]


def test_two_points_on_a_line():
    pts = PointSet(field=QQ, n=1, points=((Fraction(0),), (Fraction(1),)))
    spec = orders.lex(1)
    res = bm(pts, spec)
    assert res.B == [(0,), (1,)]
    assert res.G == [
        Polynomial.from_dict({(2,): Fraction(1), (1,): Fraction(-1)}, spec, QQ)
    ]


@pytest.mark.parametrize("basis", [bm, abbott_basis], ids=["mmm", "abbott"])
def test_known_five_variable_instance(basis):
    spec = orders.lex(5)
    res = basis(GOLDEN_POINTS, spec)
    assert res.B == GOLDEN_B
    assert res.G == golden_G(spec)
    verify_result(res, GOLDEN_POINTS)


def test_point_set_validation():
    with pytest.raises(EmptyPointSet):
        PointSet(field=QQ, n=2, points=())
    with pytest.raises(DuplicatePoints):
        PointSet(field=QQ, n=1, points=((Fraction(1),), (Fraction(1),)))
    with pytest.raises(Exception):
        PointSet(field=QQ, n=2, points=((Fraction(1),),))
    pts = PointSet(field=QQ, n=1, points=((Fraction(0),),))
    with pytest.raises(orders.OrderError):
        bm(pts, orders.lex(2))


def test_point_set_coordinates_are_field_elements():
    gf101 = PrimeField(101)
    # 102 is 1 in GF(101): once taken for a third point, giving |B| = 2 for m = 3
    with pytest.raises(DuplicatePoints):
        PointSet(field=gf101, n=1, points=[(1,), (102,), (5,)])
    pts = PointSet(field=gf101, n=1, points=[(-1,), (102,), (5,)])
    assert pts.points == ((100,), (1,), (5,))
    assert len(bm(pts, orders.lex(1)).B) == 3
    # a canonical value is kept, not rebuilt
    big = PrimeField(2**61 - 1)
    x = 2**60 + 12345
    assert PointSet(field=big, n=1, points=[(x,)]).points[0][0] is x
    half, three = Fraction(1, 2), 3
    (p,) = PointSet(field=QQ, n=2, points=[(half, three)]).points
    assert p[0] is half and p[1] is three
    with pytest.raises(DuplicatePoints):
        PointSet(field=QQ, n=1, points=[(Fraction(2),), (2,)])
    # over QQ a float once failed inside linalg with an AttributeError
    for fld, bad in [(gf101, True), (gf101, 1.0), (gf101, Fraction(1)), (gf101, "1"),
                     (QQ, 0.5), (QQ, "1/2"), (QQ, False)]:
        with pytest.raises(PointSetError, match=re.escape(f"not in {fld}: {type(bad).__name__} is")):
            PointSet(field=fld, n=2, points=[(0, bad)])


def test_point_set_is_a_value():
    f = Fraction
    a = PointSet(field=QQ, n=2, points=[[f(1), f(2)], (f(3), f(4))])
    b = PointSet(QQ, 2, ((f(1), f(2)), (f(3), f(4))))
    assert a.points == b.points and all(type(p) is tuple for p in a.points)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != PointSet(QQ, 2, a.points[:1])
    assert a != PointSet(PrimeField(5), 2, ((1, 2), (3, 4)))
    assert a != (QQ, 2, a.points)


def test_run_stats_keys_and_equality():
    stats = RunStats(field_ops=5, n_essential=2)
    assert list(stats.to_dict()) == [
        "element_cmps", "delta_cmps", "field_ops", "functional_calls",
        "L_max", "n_essential", "wall_time",
    ]
    assert list(stats.to_dict().values()) == [0, 0, 5, 0, 0, 2, 0.0]
    assert RunStats(**stats.to_dict()) == stats and RunStats() != stats
    with pytest.raises(TypeError):
        RunStats(**{**stats.to_dict(), "bogus": 1})
    with pytest.raises(TypeError):
        hash(stats)


def test_result_is_compared_by_value():
    res = bm(GOLDEN_POINTS, orders.lex(5))
    copy = GroebnerResult(list(res.G), list(res.B), RunStats(**res.stats.to_dict()), res.spec, res.field)
    assert copy == res
    # the run report takes no part in the value
    copy.stats.wall_time += 1
    assert copy == res
    copy.B.pop()
    assert copy != res
    with pytest.raises(TypeError):
        hash(res)


def test_result_requires_spec_and_field():
    # without them it failed only later, in serialize_result or normal_form
    res = bm(GOLDEN_POINTS, orders.lex(5))
    with pytest.raises(TypeError):
        GroebnerResult(res.G, res.B, res.stats)
    with pytest.raises(TypeError):
        GroebnerResult(res.G, res.B, res.stats, res.spec)


def test_two_runs_on_one_input_are_equal():
    # their wall times differ; once part of the result, they made it unequal
    pts = random_point_set(random.Random(5), PrimeField(32003), 5, 80)
    spec = orders.degrevlex(5)
    assert bm(pts, spec) == bm(pts, spec)
    assert bm_projected(pts, spec) == bm_projected(pts, spec)


def test_arity_mismatch_rejected():
    with pytest.raises(orders.OrderError):
        bm(GOLDEN_POINTS, orders.lex(4))


def test_occ_skip_unit():
    # (parent, variable): the run's monomial is parent * x_variable
    assert not occ_skip((1, 0, 0), 2, 2)  # x1*x2: |supp| = Occ, process
    assert occ_skip((1, 0, 0), 2, 1)  # x1*x2: |supp| > Occ, skip
    assert not occ_skip((1, 1, 0), 1, 2)  # x1**2*x2: x1 already in the support
    assert occ_skip((1, 1, 0), 3, 2)  # x1*x2*x3: |supp| = 3 > Occ
    assert not occ_skip((0, 0, 0), 3, 1)  # x3: |supp| = 1 = Occ


def test_occ_skip_agrees_with_divisibility(monkeypatch):
    """Every skip decision matches a scan against the final leading terms."""
    rng = random.Random(99)
    calls = []
    real = occ_skip

    def spy(pe, var, occ):
        out = real(pe, var, occ)
        calls.append((orders.monomial_mul_var(pe, var), out))
        return out

    monkeypatch.setattr(bm_mod, "occ_skip", spy)
    seen = set()
    for _ in range(30):
        pts = random_instance(rng, n_max=5, m_max=10)
        spec = random_order(rng, pts.n)
        calls.clear()
        res = bm(pts, spec)
        ini = [g.leading_monomial for g in res.G]
        for exps, skipped in calls:
            expect = any(
                l != exps and all(a <= b for a, b in zip(l, exps)) for l in ini
            )
            assert skipped == expect, (pts, exps)
            seen.add(skipped)
    # the spy saw both decisions, so the loop above checked something
    assert seen == {True, False}


def test_variant_agreement_random():
    rng = random.Random(4)
    for _ in range(25):
        pts = random_instance(rng, n_max=5, m_max=10)
        spec = random_order(rng, pts.n)
        r1 = bm(pts, spec)
        r2 = abbott_basis(pts, spec)
        assert r1.B == r2.B and r1.G == r2.G
        verify_result(r1, pts)


PROBE_ORDERS = {
    "lex": orders.lex(5),
    "deglex": orders.deglex(5),
    "degrevlex": orders.degrevlex(5),
    "lex-perm": orders.lex(5, (3, 1, 5, 2, 4)),
    "matrix": random_matrix_order(random.Random(9), 5),
}


@pytest.mark.parametrize("name", sorted(PROBE_ORDERS))
def test_probe_deltas_are_those_of_every_monomial(name):
    # the deltas of x_i*t over vars_increasing, and the entries compare_from
    # reads to find them, do not depend on t
    spec = PROBE_ORDERS[name]
    vars_increasing = tuple(reversed(orders.varord(spec)))
    deltas, cost = probe_deltas(spec, vars_increasing)
    rng = random.Random(5)
    for _ in range(40):
        t = random_monomial(rng, spec.n, max_deg=12)
        ov = orders.order_vector(spec, t)
        probes = [orders.order_vector_step(spec, ov, i) for i in vars_increasing]
        got = [compare_from(u, w, 1, spec.n) for u, w in zip(probes, probes[1:])]
        assert [d for d, _s, _c in got] == deltas
        assert sum(c for _d, _s, c in got) == cost
        assert all(s < 0 for _d, s, _c in got)


def test_progress_logging(caplog):
    pts = random_point_set(random.Random(3), PrimeField(101), 3, 25)
    spec = orders.degrevlex(3)
    quiet = bm(pts, spec)
    with caplog.at_level(logging.DEBUG, logger="pointideal.bm"):
        loud = bm(pts, spec)
    assert loud.B == quiet.B and loud.G == quiet.G
    msgs = [r.getMessage() for r in caplog.records if r.name == "pointideal.bm"]
    # one message per tenth of m = 25 crossed (|B| = 3, 5, 8, ..., 25), then the end
    found = [int(msg.split()[2]) for msg in msgs[:-1]]
    assert found == [3, 5, 8, 10, 13, 15, 18, 20, 23, 25]
    assert all(msg.endswith("of m = 25") for msg in msgs[:-1])
    assert msgs[-1] == f"done: |B| = 25 of m = 25, |G| = {len(quiet.G)}"


def _bm_against_oracle(fld, n, m, order, seed):
    """bm (integer rows) and abbott_basis (list rows) on seeded points."""
    pts = random_point_set(random.Random(seed), fld, n, m)
    spec = fileio.parse_order(order, n)
    res = bm(pts, spec)
    ref = abbott_basis(pts, spec)
    assert res.B == ref.B and res.G == ref.G
    verify_result(res, pts)
    return res


def test_lex_basis_equals_bm_under_every_lex_order():
    # the lex game groups points by their smallest coordinate and shares no
    # code with bm; GF(2) and GF(3) make many points share a coordinate
    rng = random.Random(7)
    for fld in (PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003), QQ):
        for _ in range(40):
            n = rng.randint(1, 5)
            m = rng.randint(1, min(40, fld.p**n if fld.kind == "prime" else 40))
            pts = random_point_set(rng, fld, n, m)
            spec = orders.lex(n, rng.sample(range(1, n + 1), n))
            assert lex_basis(pts, spec) == bm(pts, spec).B, (fld, n, m, spec)


@pytest.fixture(scope="module")
def real_size_lex():
    pts = random_point_set(random.Random(1), PrimeField(32003), 12, 600)
    return bm(pts, orders.lex(12)), pts


def test_real_size_gf32003_lex_is_certified(real_size_lex, monkeypatch):
    # long candidate lists: the merge shows in the time only at this size;
    # the verifier, not abbott_basis, checks the result, with one step per
    # monomial of B but 1 and per corner
    res, pts = real_size_lex
    steps = counted_steps(monkeypatch)
    verify_result(res, pts)
    assert len(res.B) == 600 and len(res.G) == 13 and res.stats.L_max == 6594
    assert len(steps) == 599 + 13
    assert res.B == lex_basis(pts, res.spec)


def test_real_size_normal_form_of_a_high_power(real_size_lex, monkeypatch):
    # B holds x_12^592, so x_12^593 is one step past it; evaluated from
    # scratch this normal form took ten times as long as the run
    res, pts = real_size_lex
    assert (0,) * 11 + (592,) in res.B
    f = Polynomial.monomial((0,) * 11 + (593,), pts.field)
    steps = counted_steps(monkeypatch)
    nf = normal_form(f, res, pts)
    assert len(steps) == 599 + 1
    assert {e for _c, e in nf.terms} <= set(res.B) and len(nf.terms) > 500
    for p in pts.points:
        assert evaluate(nf, pts.field, p) == evaluate(f, pts.field, p)


@pytest.mark.parametrize("order", ["lex", "degrevlex"])
def test_61_bit_prime_against_oracle(order):
    # the packed rows' slots are 16 bytes wide here, twice a machine word
    res = _bm_against_oracle(PrimeField(2**61 - 1), 5, 60, order, 2)
    assert len(res.B) == 60


@pytest.mark.parametrize("n, m, order", [(3, 40, "lex"), (4, 30, "degrevlex")])
def test_real_size_rationals_against_oracle(n, m, order):
    # small-height coordinates; the coefficients of G reach hundreds of bits
    res = _bm_against_oracle(QQ, n, m, order, 1)
    assert len(res.B) == m
    assert max(c.denominator.bit_length() for g in res.G for c, _ in g.terms) > 100


def test_stats_bounds():
    from pointideal.projection import bm_projected, essential_variables

    rng = random.Random(12)
    for _ in range(20):
        pts = random_instance(rng, n_max=6, m_max=12)
        spec = random_order(rng, pts.n)
        res = bm(pts, spec)
        n, m = pts.n, pts.m
        # raw run: one batch of n candidates per basis element found
        assert res.stats.L_max <= n * m + 1
        assert len(res.G) <= n + min(n, m - 1) * m
        assert res.stats.functional_calls <= len(res.G) + m
        # in the projected ring the batch width is at most min(n, m-1)
        piped = bm_projected(pts, spec)
        assert piped.stats.L_max <= min(n, m - 1) * m + n


def test_evaluate_matches_naive():
    # PointSet.evaluate steps along parent chains, the oracle uses pow
    rng = random.Random(8)
    for k in range(40):
        fld = (PrimeField(32003), QQ)[k % 2]
        n = rng.randint(1, 4)
        pts = random_point_set(rng, fld, n, rng.randint(1, 6))
        monos = [random_monomial(rng, n, max_deg=8) for _ in range(6)]
        acc = EchelonAccumulator(pts.m, fld)
        got = pts.evaluate(acc, monos)
        for e, v in zip(monos, got):
            f = Polynomial.monomial(e, fld)
            assert v == acc.vector([evaluate(f, fld, p) for p in pts.points])
    p, x = (3, Fraction(1, 2)), Polynomial([(QQ.one, (2, 3))])
    assert evaluate(x, QQ, p) == 9 * Fraction(1, 8)


# ---------------------------------------------------------------------------
# normal forms

def _x(spec, exps):
    return Polynomial.monomial(exps, QQ)


def test_normal_form_known():
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    f = _x(spec, (1, 1, 0, 0, 0))  # product of the two largest variables
    nf = normal_form(f, res, GOLDEN_POINTS)
    assert nf == Polynomial.from_dict(
        {
            (0, 0, 0, 0, 3): Fraction(1),
            (0, 0, 0, 0, 2): Fraction(1),
            (0, 0, 0, 0, 1): Fraction(1),
            (0, 0, 0, 0, 0): Fraction(1),
        },
        spec,
        QQ,
    )


def test_normal_form_rejects_arity_mismatch():
    pts = random_point_set(random.Random(3), PrimeField(7), 2, 5)
    res = bm(pts, orders.lex(2))
    # the exponents were once zipped against the shorter point
    with pytest.raises(PointSetError, match="arity"):
        normal_form(Polynomial([(1, (1, 0, 5))]), res, pts)
    with pytest.raises(PointSetError, match="arity"):
        normal_form(Polynomial([(1, (1,))]), res, pts)
    other = bm(random_point_set(random.Random(3), PrimeField(7), 3, 5), orders.lex(3))
    with pytest.raises(PointSetError, match="arity"):
        normal_form(Polynomial([(1, (1, 0))]), other, pts)
    # B padded to 3 exponents or cut to 1 once let a bare StopIteration out of evaluate
    for B in ([(*b, 0) for b in res.B], [b[:1] for b in res.B]):
        bad = GroebnerResult(G=res.G, B=B, stats=res.stats, spec=res.spec, field=res.field)
        with pytest.raises(PointSetError, match="point arity 2"):
            normal_form(Polynomial([(1, (1, 0))]), bad, pts)
    assert normal_form(Polynomial([(1, (1, 0))]), res, pts).terms


def test_normal_form_rejects_a_coefficient_outside_the_field():
    # these once raised AttributeError and TypeError from inside the run
    for fld, bad in ((QQ, 0.5), (PrimeField(7), Fraction(1, 2))):
        pts = random_point_set(random.Random(3), fld, 1, 4)
        res = bm(pts, orders.lex(1))
        f = Polynomial([(fld.one, (3,)), (bad, (2,))])
        with pytest.raises(PointSetError, match=re.escape(f"term {bad!r}*x^[2] is not over {fld}")):
            normal_form(f, res, pts)


def test_normal_form_rejects_an_exponent_that_is_not_a_non_negative_int():
    # x^-1 once read as 1, True as 1 and a float leaked a TypeError
    pts = random_point_set(random.Random(3), PrimeField(7), 2, 5)
    res = bm(pts, orders.lex(2))
    for bad in ((-1, 0), (True, 0), (1.0, 0), (0, 2.5)):
        f = Polynomial([(1, (1, 1)), (3, bad)])
        message = f"term 3*x^{list(bad)} is not over GF(7): an exponent is not a non-negative integer"
        with pytest.raises(PointSetError, match=re.escape(message)):
            normal_form(f, res, pts)


@pytest.mark.parametrize("fld", [PrimeField(32003), QQ])
def test_normal_form_of_more_than_m_terms_is_the_sum_of_theirs(fld):
    rng = random.Random(19)
    pts = random_point_set(rng, fld, 3, 12)
    spec = orders.degrevlex(3)
    res = bm(pts, spec)
    coeffs = {random_monomial(rng, 3, 9): fld.canonical(rng.randint(-9, 9) or 1) for _ in range(40)}
    f = Polynomial.from_dict(coeffs, spec, fld)
    assert len(f.terms) > pts.m
    parts = [(c, normal_form(Polynomial([(fld.one, e)]), res, pts)) for c, e in f.terms]
    assert normal_form(f, res, pts) == combine(parts, spec, fld)


def test_normal_form_rejects_a_basis_dependent_at_the_points():
    # B = 1, x, x^2 of three points on the line y = 0 is dependent at
    # three points where x^2 = x; this once leaked linalg.InsertZero
    gf7 = PrimeField(7)
    line = PointSet(field=gf7, n=2, points=((0, 0), (1, 0), (2, 0)))
    res = bm(line, orders.lex(2))
    assert res.B == [(0, 0), (1, 0), (2, 0)]
    pts = PointSet(field=gf7, n=2, points=((0, 0), (1, 0), (0, 1)))
    with pytest.raises(PointSetError, match=re.escape("(2, 0) is dependent at the points")):
        normal_form(Polynomial([(1, (0, 1))]), res, pts)


def test_normal_form_rejects_a_result_over_another_field():
    # it once computed silently over the points' field
    pts = random_point_set(random.Random(3), PrimeField(7), 2, 5)
    res = bm(random_point_set(random.Random(3), PrimeField(11), 2, 5), orders.lex(2))
    with pytest.raises(PointSetError, match=re.escape("result over GF(11), points over GF(7)")):
        normal_form(Polynomial([(1, (1, 0))]), res, pts)


def test_normal_form_fixed_points_and_kernel():
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    for b in res.B:
        assert normal_form(_x(spec, b), res, GOLDEN_POINTS) == _x(spec, b)
    for g in res.G:
        assert normal_form(g, res, GOLDEN_POINTS) == Polynomial(())


def test_normal_form_idempotent_and_linear():
    rng = random.Random(17)
    for _ in range(10):
        pts = random_instance(rng, n_max=4, m_max=8)
        fld = pts.field
        spec = random_order(rng, pts.n)
        res = bm(pts, spec)
        def rand_poly():
            d = {
                random_monomial(rng, pts.n, 4): fld.canonical(
                    rng.randint(-5, 5)
                )
                for _ in range(4)
            }
            return Polynomial.from_dict(d, spec, fld)

        f, g = rand_poly(), rand_poly()
        nf = lambda h: normal_form(h, res, pts)
        assert nf(nf(f)) == nf(f)
        fg = combine([(fld.one, f), (fld.one, g)], spec, fld)
        assert nf(fg) == combine([(fld.one, nf(f)), (fld.one, nf(g))], spec, fld)
        for p in pts.points:
            assert evaluate(nf(f), fld, p) == evaluate(f, fld, p)
