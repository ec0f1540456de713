"""Essential-variable detection, point projection and result lifting.

A variable is essential when its evaluation vector is independent of the
all-ones vector and the smaller variables already kept.  Non-essential
variables come with an affine relation over strictly smaller essential
variables; the quotient structure lives entirely in the essential
coordinates, so the base algorithm can run in the projected ring and the
result is lifted back by reindexing plus one substitution per dropped
variable.
"""

from __future__ import annotations

import time

from . import orders
from ._record import Record
from .bm import GroebnerResult, PointSet, RunStats, bm
from .linalg import EchelonAccumulator
# combine stays bound here so that perfbench's tracer can patch projection.combine
from .poly import Polynomial, combine  # noqa: F401


class EssentialSet(Record):
    """The essential variables and the affine relation of each dropped one."""

    __slots__ = _fields = ("ess", "relations")

    def __init__(self, ess: tuple, relations: dict):
        self.ess = ess  # essential variable indices, descending in the order
        self.relations = relations  # var index -> (constant, {essential var index: coeff})


def essential_variables(points: PointSet, spec) -> EssentialSet:
    """Scan variables small to large, keeping those outside the running span."""
    if spec.n != points.n:
        raise orders.OrderError(
            f"order has {spec.n} variables, the points have {points.n}"
        )
    fld = points.field
    acc = EchelonAccumulator(points.m, fld)
    one, *columns = points.generators(acc)
    # raw id of each inserted vector: 0 for all-ones, else the variable index
    raw_ids = [0]
    acc.insert(*acc.reduce(one))
    ess = []
    relations = {}
    for i in reversed(orders.varord(spec)):
        residual, coords = acc.reduce(columns[i - 1])
        if residual:
            acc.insert(residual, coords)
            raw_ids.append(i)
            ess.append(i)
        else:
            flat = {raw_ids[l]: c for l, c in acc.coordinates(coords).items()}
            const = flat.pop(0, fld.zero)
            relations[i] = (const, flat)
    ess_desc = tuple(reversed(ess))
    return EssentialSet(ess=ess_desc, relations=relations)


def project(points: PointSet, es: EssentialSet) -> PointSet:
    """Keep the essential coordinates, largest variable first."""
    projected = tuple(tuple(p[i - 1] for i in es.ess) for p in points.points)
    return PointSet(field=points.field, n=len(es.ess), points=projected)


def _embed(exps_sub, es: EssentialSet, n: int):
    out = [0] * n
    for e, i in zip(exps_sub, es.ess):
        out[i - 1] = e
    return tuple(out)


def lift(sub: GroebnerResult, es: EssentialSet, spec) -> GroebnerResult:
    """Lift a projected-ring result of ``bm`` back to the full ring.

    The embedding keeps B's order, so each element of ``sub.G``, held on
    ``sub.B`` (``Polynomial.held_on`` indexes one made by user code once),
    keeps its tail indices and coefficients, the same lists, over the
    lifted B; only its lead is embedded.  A dropped variable
    with relation x_k = c0 + sum c_j*x_j contributes x_k - c0 - sum
    c_j*NF(x_j), its tail summed by B index: -c0 at 1, the first of B; -c_j
    at x_j when x_j is in B, and otherwise c_j times the tail of the element
    of G led by x_j (a degree-1 monomial outside B is a corner).  Every
    element of the lifted G is held on the lifted B.
    """
    fld = sub.field
    n = spec.n
    B = [_embed(b, es, n) for b in sub.B]
    index = {b: k for k, b in enumerate(sub.B)}
    held = [g.held_on(sub.B, index) for g in sub.G]
    G = [Polynomial.on_basis((g.lead[0], _embed(g.lead[1], es, n)), g.at, g.coeffs, B) for g in held]
    by_lead = {g.lead[1]: g for g in held}
    for k in sorted(es.relations):
        const, rel = es.relations[k]
        tail = {0: -const}  # B index -> coefficient
        for j, c in rel.items():
            x_j = tuple(int(i == j) for i in es.ess)  # in the projected ring
            g = by_lead.get(x_j)  # None when x_j is in B: NF(x_j) is x_j
            for a, d in [(index[x_j], -1)] if g is None else zip(g.at, g.coeffs):
                tail[a] = tail.get(a, 0) + c * d
        tail = {a: e for a, d in sorted(tail.items()) if (e := fld.canonical(d))}
        lead = (fld.one, orders.monomial_mul_var(B[0], k))
        G.append(Polynomial.on_basis(lead, list(tail), list(tail.values()), B))
    G.sort(key=lambda g: orders.order_vector(spec, g.leading_monomial))
    stats = RunStats(**sub.stats.to_dict())
    return GroebnerResult(G=G, B=B, stats=stats, spec=spec, field=fld)


def bm_projected(points: PointSet, spec) -> GroebnerResult:
    """Essential-variable pipeline around the base algorithm.

    The scan always runs; the points are projected when it drops a variable.
    ``n_essential`` is the scan's count (n when none drops) and ``wall_time``
    covers the whole call: scan, projection, sub-run and lift.
    """
    t0 = time.perf_counter()
    es = essential_variables(points, spec)
    if len(es.ess) == points.n:
        result = bm(points, spec)
    else:
        sub_points = project(points, es)
        sub_spec = orders.restrict(spec, es.ess)
        result = lift(bm(sub_points, sub_spec), es, spec)
    result.stats.n_essential = len(es.ess)
    result.stats.wall_time = time.perf_counter() - t0
    return result
