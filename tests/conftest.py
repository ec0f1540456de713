"""Shared helpers: result invariant checks and seeded corpora."""

import random

import pytest

from pointideal import orders
from pointideal._oracles import (
    abbott_basis,
    membership_by_evaluation,
    random_field,
    random_matrix_order,
    random_point_set,
)
from pointideal.bm import PointSet, bm
from pointideal.projection import bm_projected


def check_result_invariants(result, points):
    """The full correctness suite for a basis computation."""
    spec, fld = result.spec, result.field
    n, m = points.n, points.m
    B = result.B
    assert len(B) == m
    assert (0,) * n in B
    # ascending and duplicate-free
    ovs = [orders.order_vector(spec, b) for b in B]
    assert ovs == sorted(ovs) and len(set(B)) == len(B)
    # order ideal: every divisor of a basis monomial is a basis monomial
    Bset = set(B)
    for b in B:
        for i in range(n):
            if b[i] > 0:
                assert b[: i] + (b[i] - 1,) + b[i + 1 :] in Bset
    ini = [g.leading_monomial for g in result.G]
    # G sorted ascending by leading monomial, monic, pairwise indivisible
    gvs = [orders.order_vector(spec, lt) for lt in ini]
    assert gvs == sorted(gvs)
    for g in result.G:
        assert g.leading_coeff == fld.one
        assert all(mo in Bset for _c, mo in g.terms[1:])
    assert membership_by_evaluation(result.G, points)
    for a in range(len(ini)):
        for b in range(len(ini)):
            if a != b:
                assert not orders.monomial_divides(ini[a], ini[b])
    # leading terms are exactly the minimal generators outside B: the
    # corners, whose every divisor by one variable lies in B
    for lt in ini:
        assert lt not in Bset
    border = {b[:i] + (b[i] + 1,) + b[i + 1 :] for b in B for i in range(n)} - Bset
    corners = {
        c
        for c in border
        if all(c[:i] + (c[i] - 1,) + c[i + 1 :] in Bset for i in range(n) if c[i])
    }
    assert set(ini) == corners and len(ini) == len(corners)


def random_instance(rng, n_max=10, m_max=30, big_field_cutoff=12):
    """A random (points, spec) pair; rationals only for small m."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    if m > big_field_cutoff:
        fld = random_field(rng)
        if fld.kind == "rational":
            from pointideal.fields import PrimeField

            fld = PrimeField(32003)
    else:
        fld = random_field(rng)
    points = random_point_set(rng, fld, n, m)
    return points


def dependent_point_set(rng, fld, n_free, n_dep, m):
    """m distinct points, n_dep of whose coordinates are affine in the others.

    The n_free free coordinates are drawn as by ``random_point_set``; each
    dependent one is c0 + sum c_j*x_j with small integer c's, and the
    coordinates are then shuffled.
    """
    free = random_point_set(rng, fld, n_free, m)
    rel = [
        [fld.from_int(rng.randint(-3, 3)) for _ in range(n_free + 1)]
        for _ in range(n_dep)
    ]
    perm = list(range(n_free + n_dep))
    rng.shuffle(perm)
    points = []
    for x in free.points:
        p = list(x)
        for c in rel:
            v = c[0]
            for a, xj in zip(c[1:], x):
                v = fld.add(v, fld.mul(a, xj))
            p.append(v)
        points.append(tuple(p[k] for k in perm))
    return PointSet(field=fld, n=n_free + n_dep, points=tuple(points))


def random_order(rng, n, matrix_every=4):
    if rng.randrange(matrix_every) == 0:
        return random_matrix_order(rng, n)
    kind = rng.choice([orders.lex, orders.deglex, orders.degrevlex])
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return kind(n, tuple(perm))


@pytest.fixture(scope="session")
def variant_corpus():
    """Shared runs for the oracle-agreement and basis-count criteria."""
    rng = random.Random(20260826)
    runs = []
    for k in range(200):
        points = random_instance(rng, m_max=30 if k % 3 else 12)
        spec = random_order(rng, points.n)
        r_mmm = bm(points, spec)
        r_abb = abbott_basis(points, spec)
        runs.append((points, spec, r_mmm, r_abb))
    return runs


@pytest.fixture(scope="session")
def projection_corpus():
    """Shared runs with m < n for the projection criteria."""
    rng = random.Random(20260827)
    runs = []
    for _ in range(200):
        n = rng.randint(2, 10)
        m = rng.randint(1, n - 1)
        fld = random_field(rng)
        points = random_point_set(rng, fld, n, m)
        spec = random_order(rng, n)
        direct = bm(points, spec)
        piped = bm_projected(points, spec, mode="on")
        runs.append((points, spec, direct, piped))
    return runs
