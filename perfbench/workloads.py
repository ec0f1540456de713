"""Seeded workloads: instance lists and the point files they generate.

Every instance is generated from ``random.Random("<workload>:<seed>:<index>")``
so one seed always gives the same points, independent of PYTHONHASHSEED and
of the other instances.  The program only ever sees the written JSON files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

P = 32003
QQ_HEIGHT = 9  # numerators in [-9, 9], denominators in [1, 9]


@dataclass(frozen=True)
class Instance:
    field: str  # "gfp" (GF(32003)) or "qq"
    n: int
    m: int
    order: str  # "lex" or "degrevlex", identity variable permutation
    project: str  # value of `pointideal basis --project`
    coords: str  # how coordinates are drawn, see make_points
    free: int = 0  # for coords == "affine": number of free coordinates


def _gfp(n, m, order, coords="uniform", free=0):
    return Instance("gfp", n, m, order, "auto", coords, free)


def _qq(n, m, order):
    return Instance("qq", n, m, order, "auto", "small-height")


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    "gfp-random": [
        _gfp(5, 80, "degrevlex"),
        _gfp(12, 100, "lex"),
        _gfp(4, 60, "degrevlex"),
        _gfp(8, 70, "lex"),
    ],
    # gfp-boolean and qq-random repeat each shape, the largest four or six
    # times: the cost of one random subset of the cube, or of one draw of
    # denominators, varies by 8-17 % (standard deviation over seeds), and
    # slowest_instance_s averages over the instances of one shape
    "gfp-boolean": [
        *[_gfp(10, 160, "lex", "0..1")] * 4,
        *[_gfp(6, 60, "degrevlex", "0..2")] * 2,
        *[_gfp(8, 80, "degrevlex", "0..1")] * 2,
    ],
    "qq-random": [
        *[_qq(3, 36, "lex")] * 6,
        *[_qq(4, 22, "degrevlex")] * 2,
        *[_qq(2, 30, "lex")] * 2,
    ],
    "gfp-dependent": [
        _gfp(8, 100, "degrevlex", "affine", free=3),
        _gfp(8, 70, "degrevlex", "affine", free=3),
        _gfp(8, 50, "degrevlex", "affine", free=3),
    ],
}


def make_points(inst: Instance, rng: random.Random) -> list:
    """m distinct points: ints in [0, P) for GF(p), Fractions for QQ."""
    if inst.coords == "affine":
        # coordinate k >= free is c_k0 + sum_j c_kj * x_j over the free ones
        rel = [
            [rng.randrange(P) for _ in range(inst.free + 1)]
            for _ in range(inst.n - inst.free)
        ]
    seen, pts = set(), []
    while len(pts) < inst.m:
        if inst.field == "qq":
            p = tuple(
                Fraction(rng.randint(-QQ_HEIGHT, QQ_HEIGHT), rng.randint(1, QQ_HEIGHT))
                for _ in range(inst.n)
            )
        elif inst.coords == "uniform":
            p = tuple(rng.randrange(P) for _ in range(inst.n))
        elif inst.coords == "affine":
            x = [rng.randrange(P) for _ in range(inst.free)]
            p = tuple(x) + tuple(
                (c[0] + sum(a * b for a, b in zip(c[1:], x))) % P for c in rel
            )
        else:  # "0..k"
            hi = int(inst.coords.split("..")[1])
            p = tuple(rng.randint(0, hi) for _ in range(inst.n))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return pts


def points_document(inst: Instance, points) -> str:
    if inst.field == "qq":
        field = {"type": "rational"}
        rows = [[str(x) for x in p] for p in points]
    else:
        field = {"type": "prime", "p": P}
        rows = [list(p) for p in points]
    return json.dumps({"field": field, "n": inst.n, "points": rows})


def generate(workload: str, seed: int) -> list:
    """[(Instance, points)] for the workload, deterministic in seed."""
    return [
        (inst, make_points(inst, random.Random(f"{workload}:{seed}:{i}")))
        for i, inst in enumerate(WORKLOADS[workload])
    ]
