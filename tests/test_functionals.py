"""The functional-driven loop: point evaluation and matrix actions."""

import random
from fractions import Fraction

import pytest

from conftest import random_instance, random_order
from pointideal import orders
from pointideal._selftest import GOLDEN_POINTS
from pointideal.bm import PointEvaluationSystem, algorithm1, bm, normal_form
from pointideal.fields import PrimeField, QQ
from pointideal.functionals import InconsistentSystem, MatrixActionSystem
from pointideal.poly import Polynomial


def test_point_system_equals_direct_known():
    spec = orders.lex(5)
    res = algorithm1(PointEvaluationSystem(GOLDEN_POINTS), spec)
    direct = bm(GOLDEN_POINTS, spec)
    assert res.B == direct.B and res.G == direct.G


def test_point_system_equals_direct_random():
    rng = random.Random(44)
    for _ in range(30):
        pts = random_instance(rng, n_max=5, m_max=10)
        spec = random_order(rng, pts.n)
        res = algorithm1(PointEvaluationSystem(pts), spec)
        direct = bm(pts, spec)
        assert res.B == direct.B and res.G == direct.G
        stats, direct_stats = res.stats.to_dict(), direct.stats.to_dict()
        del stats["wall_time"], direct_stats["wall_time"]
        assert stats == direct_stats
        assert res.stats.functional_calls <= len(res.G) + pts.m


def test_all_zero_matrices():
    fld = QQ
    sys = MatrixActionSystem(fld, [Fraction(1)], [[[Fraction(0)]]] * 3)
    res = algorithm1(sys, orders.deglex(3))
    assert res.B == [(0, 0, 0)]
    assert [g.leading_monomial for g in res.G] == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]
    assert all(len(g.terms) == 1 for g in res.G)


def _multiplication_matrices(points, spec):
    """Matrices of multiplication by each variable on the quotient basis."""
    res = bm(points, spec)
    fld = points.field
    B = res.B
    index = {b: j for j, b in enumerate(B)}
    mats = []
    for i in range(1, points.n + 1):
        cols = []
        for b in B:
            f = Polynomial.monomial(orders.monomial_mul_var(b, i), fld)
            nf = normal_form(f, res, points)
            col = [fld.zero] * len(B)
            for c, mo in nf.terms:
                col[index[mo]] = c
            cols.append(col)
        mats.append([[cols[j][r] for j in range(len(B))] for r in range(len(B))])
    psi1 = [fld.zero] * len(B)
    psi1[index[(0,) * points.n]] = fld.one
    return psi1, mats


def test_matrix_action_order_conversion():
    """Multiplication matrices from a lex run reproduce the deglex basis."""
    lex_spec = orders.lex(5)
    psi1, mats = _multiplication_matrices(GOLDEN_POINTS, lex_spec)
    sys = MatrixActionSystem(QQ, psi1, mats)
    m = len(psi1)
    for target in (orders.deglex(5), orders.degrevlex(5)):
        before = sys.field_ops
        res = algorithm1(sys, target)
        direct = bm(GOLDEN_POINTS, target)
        assert res.B == direct.B and res.G == direct.G
        # every call but psi_one is one m x m matrix-vector product
        step_ops = 2 * m * m * (res.stats.functional_calls - 1)
        assert sys.field_ops - before == step_ops
        assert res.stats.field_ops > step_ops


def test_non_commuting_matrices_rejected():
    A = [[0, 1], [0, 0]]
    B = [[1, 0], [0, 0]]
    with pytest.raises(InconsistentSystem):
        MatrixActionSystem(PrimeField(5), [1, 0], [A, B])
    with pytest.raises(InconsistentSystem):
        MatrixActionSystem(PrimeField(5), [1, 0], [[[1, 0]]])


def test_non_surjective_system_terminates():
    # the reachable span has rank 1 < m = 2
    fld = QQ
    Z = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    sys = MatrixActionSystem(fld, [Fraction(1), Fraction(0)], [Z, Z])
    res = algorithm1(sys, orders.lex(2))
    assert res.B == [(0, 0)]
    assert [g.leading_monomial for g in res.G] == [(0, 1), (1, 0)]


def test_arity_mismatch_rejected():
    sys = PointEvaluationSystem(GOLDEN_POINTS)
    with pytest.raises(orders.OrderError):
        algorithm1(sys, orders.lex(4))
