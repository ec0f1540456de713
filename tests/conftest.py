"""Shared helpers: seeded instances, orders and corpora."""

import random

import pytest

from pointideal import linalg, orders
from pointideal._oracles import (
    abbott_basis,
    random_field,
    random_matrix_order,
    random_point_set,
)
from pointideal.bm import bm
from pointideal.projection import bm_projected


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


def counted_steps(monkeypatch):
    """A list that grows by one at each ``step`` of an accumulator made from now on."""
    steps, init = [], linalg.EchelonAccumulator.__init__

    def counting_init(acc, m, field):
        init(acc, m, field)
        step = acc.step
        acc.step = lambda vec, column: steps.append(1) or step(vec, column)

    monkeypatch.setattr(linalg.EchelonAccumulator, "__init__", counting_init)
    return steps


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
        piped = bm_projected(points, spec)
        runs.append((points, spec, direct, piped))
    return runs
