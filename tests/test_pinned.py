"""Exact outputs and counters, pinned so that refactors cannot move them.

Each case is run direct (``bm``) and through the projection pipeline
(``bm_projected``), in the columns "direct" and "on".  The pinned values
are every ``RunStats`` field except ``wall_time`` plus a digest of B and G.
"""

import hashlib
import json
import random

import pytest

from pointideal import orders
from pointideal._oracles import random_matrix_order, random_point_set
from pointideal._selftest import GOLDEN_POINTS
from pointideal.bm import PointSet, bm
from pointideal.fields import PrimeField, QQ
from pointideal.projection import bm_projected


def _dependent_points(rng, fld, free, m):
    """Points whose last coordinates are affine in the first ``free`` ones."""
    n = free + 3
    pts = set()
    while len(pts) < m:
        x = [fld.canonical(rng.randrange(50)) for _ in range(free)]
        y = [
            fld.canonical(c + a * x[j % free])
            for j, (a, c) in enumerate([(2, 1), (3, 0), (5, 7)])
        ]
        pts.add(tuple(x + y))
    return PointSet(field=fld, n=n, points=tuple(sorted(pts)))


def _boolean_points(rng, fld, n, m):
    """m distinct points with 0/1 coordinates, as on the gfp-boolean benchmark."""
    codes = rng.sample(range(2**n), m)
    pts = (tuple(fld.canonical(k >> i & 1) for i in range(n)) for k in codes)
    return PointSet(field=fld, n=n, points=tuple(pts))


def _cases():
    gf = PrimeField(32003)
    yield "golden-lex", GOLDEN_POINTS, orders.lex(5)
    rng = random.Random(2024)
    yield "gf-n4-m40-degrevlex", random_point_set(rng, gf, 4, 40), orders.degrevlex(4)
    yield "qq-n3-m12-lex", random_point_set(rng, QQ, 3, 12), orders.lex(3)
    yield "gf-n5-m25-lexperm", random_point_set(rng, gf, 5, 25), orders.lex(5, (3, 1, 5, 2, 4))
    yield "qq-n4-m10-degrevlex", random_point_set(rng, QQ, 4, 10), orders.degrevlex(4)
    yield "gf101-n3-m30-matrix", random_point_set(rng, PrimeField(101), 3, 30), random_matrix_order(rng, 3)
    yield "gf-dependent-deglex", _dependent_points(rng, gf, 3, 20), orders.deglex(6)
    yield "qq-dependent-degrevlex", _dependent_points(rng, QQ, 2, 8), orders.degrevlex(5)
    yield "gf-dependent-matrix", _dependent_points(rng, gf, 2, 16), random_matrix_order(rng, 5)
    # L_max 1100: long candidate lists with long equal-delta runs in the walk
    yield "gf-n12-m100-lex", random_point_set(rng, PrimeField(32003), 12, 100), orders.lex(12)
    # the size of a qq-random benchmark instance; last, so earlier draws stay
    yield "qq-n3-m36-lex", random_point_set(rng, QQ, 3, 36), orders.lex(3)
    # 0/1 points: about 40 % of the row multipliers in reduce are zero.  Its
    # own generator, so the draws of the cases above stay the same
    yield "gf-n8-m80-boolean-degrevlex", _boolean_points(random.Random(80), gf, 8, 80), orders.degrevlex(8)


def _digest(result):
    fld = result.field
    doc = {
        "B": [list(b) for b in result.B],
        "G": [[[fld.format(c), list(mo)] for c, mo in g.terms] for g in result.G],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def _observed(result):
    stats = result.stats.to_dict()
    del stats["wall_time"]
    return {"digest": _digest(result), **stats}


def observe_all():
    """{case: {"direct": ..., "on": ...}} for every pinned case."""
    out = {}
    for name, points, spec in _cases():
        out[name] = {
            "direct": _observed(bm(points, spec)),
            "on": _observed(bm_projected(points, spec)),
        }
    return out


# recorded before the candidate loop was unified; every value must hold.
# field_ops was re-pinned when elimination switched to semi-echelon rows
# with history over the inserted vectors and the lift stopped eliminating
PINNED = {
    "golden-lex": {
        "direct": {"digest": "68fbffa1a2b7ec22", "element_cmps": 109, "delta_cmps": 22, "field_ops": 145, "functional_calls": 9, "L_max": 17, "n_essential": None},
        "on": {"digest": "68fbffa1a2b7ec22", "element_cmps": 16, "delta_cmps": 4, "field_ops": 86, "functional_calls": 6, "L_max": 5, "n_essential": 2},
    },
    "gf-n4-m40-degrevlex": {
        "direct": {"digest": "6cdcfd423d16833e", "element_cmps": 951, "delta_cmps": 1782, "field_ops": 144780, "functional_calls": 75, "L_max": 91, "n_essential": None},
        "on": {"digest": "6cdcfd423d16833e", "element_cmps": 951, "delta_cmps": 1782, "field_ops": 144780, "functional_calls": 75, "L_max": 91, "n_essential": 4},
    },
    "qq-n3-m12-lex": {
        "direct": {"digest": "be50468e618e5abe", "element_cmps": 203, "delta_cmps": 121, "field_ops": 2714, "functional_calls": 16, "L_max": 24, "n_essential": None},
        "on": {"digest": "be50468e618e5abe", "element_cmps": 203, "delta_cmps": 121, "field_ops": 2714, "functional_calls": 16, "L_max": 24, "n_essential": 3},
    },
    "gf-n5-m25-lexperm": {
        "direct": {"digest": "57ace5e24028fcca", "element_cmps": 1789, "delta_cmps": 1177, "field_ops": 19550, "functional_calls": 30, "L_max": 101, "n_essential": None},
        "on": {"digest": "57ace5e24028fcca", "element_cmps": 1789, "delta_cmps": 1177, "field_ops": 19550, "functional_calls": 30, "L_max": 101, "n_essential": 5},
    },
    "qq-n4-m10-degrevlex": {
        "direct": {"digest": "6f0fa2d7f5cedc98", "element_cmps": 179, "delta_cmps": 115, "field_ops": 2995, "functional_calls": 21, "L_max": 28, "n_essential": None},
        "on": {"digest": "6f0fa2d7f5cedc98", "element_cmps": 179, "delta_cmps": 115, "field_ops": 2995, "functional_calls": 21, "L_max": 28, "n_essential": 4},
    },
    "gf101-n3-m30-matrix": {
        "direct": {"digest": "fa9da261a3d5e760", "element_cmps": 752, "delta_cmps": 821, "field_ops": 27230, "functional_calls": 34, "L_max": 55, "n_essential": None},
        "on": {"digest": "fa9da261a3d5e760", "element_cmps": 752, "delta_cmps": 821, "field_ops": 27230, "functional_calls": 34, "L_max": 55, "n_essential": 3},
    },
    "gf-dependent-deglex": {
        "direct": {"digest": "be5feae3897c21a7", "element_cmps": 826, "delta_cmps": 707, "field_ops": 17809, "functional_calls": 38, "L_max": 78, "n_essential": None},
        "on": {"digest": "be5feae3897c21a7", "element_cmps": 256, "delta_cmps": 278, "field_ops": 17390, "functional_calls": 35, "L_max": 30, "n_essential": 3},
    },
    "qq-dependent-degrevlex": {
        "direct": {"digest": "fe89ed65cb0eadf6", "element_cmps": 151, "delta_cmps": 67, "field_ops": 1178, "functional_calls": 15, "L_max": 22, "n_essential": None},
        "on": {"digest": "fe89ed65cb0eadf6", "element_cmps": 38, "delta_cmps": 16, "field_ops": 1040, "functional_calls": 12, "L_max": 7, "n_essential": 2},
    },
    # a matrix order with dropped variables: exercises restrict and the lift
    "gf-dependent-matrix": {
        "direct": {"digest": "19bd8ff89347cb2b", "element_cmps": 344, "delta_cmps": 292, "field_ops": 5875, "functional_calls": 24, "L_max": 38, "n_essential": None},
        "on": {"digest": "19bd8ff89347cb2b", "element_cmps": 89, "delta_cmps": 64, "field_ops": 5604, "functional_calls": 21, "L_max": 10, "n_essential": 2},
    },
    # recorded with the stepwise walk, one compare_from call per equal-delta step
    "gf-n12-m100-lex": {
        "direct": {"digest": "1c9592d47d3f4971", "element_cmps": 67595, "delta_cmps": 54351, "field_ops": 1048874, "functional_calls": 113, "L_max": 1100, "n_essential": None},
        "on": {"digest": "1c9592d47d3f4971", "element_cmps": 67595, "delta_cmps": 54351, "field_ops": 1048874, "functional_calls": 113, "L_max": 1100, "n_essential": 12},
    },
    "qq-n3-m36-lex": {
        "direct": {"digest": "873e1fd886af1da7", "element_cmps": 1189, "delta_cmps": 1180, "field_ops": 46446, "functional_calls": 41, "L_max": 66, "n_essential": None},
        "on": {"digest": "873e1fd886af1da7", "element_cmps": 1189, "delta_cmps": 1180, "field_ops": 46446, "functional_calls": 41, "L_max": 66, "n_essential": 3},
    },
    # recorded before GF(p) store vectors became residues and insert became one pass
    "gf-n8-m80-boolean-degrevlex": {
        "direct": {"digest": "fbe416f5e54ab99b", "element_cmps": 6482, "delta_cmps": 17340, "field_ops": 370530, "functional_calls": 130, "L_max": 406, "n_essential": None},
        "on": {"digest": "fbe416f5e54ab99b", "element_cmps": 6482, "delta_cmps": 17340, "field_ops": 370530, "functional_calls": 130, "L_max": 406, "n_essential": 8},
    },
}


@pytest.fixture(scope="module")
def observed():
    return observe_all()


@pytest.mark.parametrize("name", sorted(PINNED))
@pytest.mark.parametrize("run", ["direct", "on"])
def test_pinned_counters(observed, name, run):
    assert observed[name][run] == PINNED[name][run]


def test_pinned_cases_cover_every_case(observed):
    assert sorted(observed) == sorted(PINNED)


if __name__ == "__main__":
    print(json.dumps(observe_all(), indent=1))
