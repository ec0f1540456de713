"""Essential-variable detection, point projection and result lifting.

A variable is essential when its evaluation vector is independent of the
all-ones vector and the smaller variables already kept.  Non-essential
variables come with an affine relation over strictly smaller essential
variables; the quotient structure lives entirely in the essential
coordinates, so the base algorithm can run in the projected ring and the
result is lifted back by reindexing plus one linear solve per dropped
variable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import orders
from .bm import (
    GroebnerResult,
    PointSet,
    RunStats,
    basis_combination_engine,
    bm,
)
from .linalg import EchelonAccumulator
from .poly import Polynomial, combine


@dataclass
class EssentialSet:
    ess: tuple  # essential variable indices, descending in the order
    relations: dict  # var index -> (constant, {essential var index: coeff})

    def __len__(self):
        return len(self.ess)


def essential_variables(points: PointSet, spec) -> EssentialSet:
    """Scan variables small to large, keeping those outside the running span."""
    fld = points.field
    acc = EchelonAccumulator(points.m, fld)
    # exprs[j]: the j'th inserted residual expanded over the raw vectors,
    # keyed 0 for the all-ones vector and by variable index otherwise
    exprs = []

    def insert_raw(raw_id, residual, coeffs):
        e = {raw_id: fld.one}
        for l, c in coeffs.items():
            for rid, h in exprs[l].items():
                e[rid] = fld.sub(e.get(rid, fld.zero), fld.mul(c, h))
        exprs.append({k: v for k, v in e.items() if v != fld.zero})
        acc.insert(residual)

    ones = [fld.one] * points.m
    residual, coeffs = acc.reduce(ones)
    insert_raw(0, residual, coeffs)
    ess = []
    relations = {}
    for i in reversed(orders.varord(spec)):
        v = points.coordinate_column(i)
        residual, coeffs = acc.reduce(v)
        if any(x != fld.zero for x in residual):
            insert_raw(i, residual, coeffs)
            ess.append(i)
        else:
            # x_i(P) = sum coeffs[l] * residual_l, expanded over raw vectors
            flat = {}
            for l, c in coeffs.items():
                for rid, h in exprs[l].items():
                    flat[rid] = fld.add(flat.get(rid, fld.zero), fld.mul(c, h))
            flat = {k: v for k, v in flat.items() if v != fld.zero}
            const = flat.pop(0, fld.zero)
            relations[i] = (const, flat)
    ess_desc = tuple(reversed(ess))
    return EssentialSet(ess=ess_desc, relations=relations)


def project(points: PointSet, es: EssentialSet) -> PointSet:
    """Keep the essential coordinates, largest variable first."""
    projected = tuple(
        tuple(p[i - 1] for i in es.ess) for p in points.points
    )
    if len(set(projected)) != len(projected):
        raise AssertionError("projected points collide; essential set is broken")
    return PointSet(field=points.field, n=len(es.ess), points=projected)


def _embed(exps_sub, es: EssentialSet, n: int):
    out = [0] * n
    for e, i in zip(exps_sub, es.ess):
        out[i - 1] = e
    return tuple(out)


def lift(sub: GroebnerResult, es: EssentialSet, points: PointSet, spec) -> GroebnerResult:
    """Lift a projected-ring result back to the full ring.

    B is reindexed verbatim.  Every dropped variable contributes one basis
    element x_k minus the B-supported combination matching its evaluation
    vector, found by reducing against the lifted basis evaluations.
    """
    fld = points.field
    n = spec.n
    B = [_embed(b, es, n) for b in sub.B]
    G = [
        g.map_monomials(lambda m: _embed(m, es, n), spec, fld)
        for g in sub.G
    ]
    acc = EchelonAccumulator(points.m, fld)
    rpolys = basis_combination_engine(B, spec, points, acc)
    for k in sorted(es.relations):
        w = points.coordinate_column(k)
        residual, coeffs = acc.reduce(w)
        if any(x != fld.zero for x in residual):
            raise AssertionError(f"variable x_{k} is not in the basis span")
        tail = combine([(c, rpolys[i]) for i, c in coeffs.items()], spec, fld)
        head = Polynomial.monomial(orders.monomial_mul_var((0,) * n, k), fld)
        G.append(combine([(fld.one, head), (fld.neg(fld.one), tail)], spec, fld))
    G.sort(key=lambda g: orders.order_vector(spec, g.leading_monomial))
    stats = RunStats(
        element_cmps=sub.stats.element_cmps,
        delta_cmps=sub.stats.delta_cmps,
        field_ops=sub.stats.field_ops + acc.field_ops,
        functional_calls=sub.stats.functional_calls,
        L_max=sub.stats.L_max,
        n_essential=len(es.ess),
        wall_time=sub.stats.wall_time,
    )
    return GroebnerResult(G=G, B=B, stats=stats, spec=spec, field=fld)


def bm_projected(points: PointSet, spec, mode="auto") -> GroebnerResult:
    """Essential-variable pipeline around the base algorithm.

    mode "auto" projects only when it shrinks the ring, "on" always runs the
    pipeline, "off" delegates to the direct algorithm.  The result's
    ``wall_time`` covers the whole call: scan, projection, sub-run and lift.
    """
    if mode not in ("auto", "on", "off"):
        raise ValueError(f"unknown projection mode {mode!r}")
    if mode == "off":
        return bm(points, spec)
    t0 = time.perf_counter()
    es = essential_variables(points, spec)
    if mode == "auto" and len(es.ess) == points.n:
        result = bm(points, spec)
    else:
        sub_points = project(points, es)
        sub_spec = orders.restrict(spec, es.ess)
        result = lift(bm(sub_points, sub_spec), es, points, spec)
    result.stats.wall_time = time.perf_counter() - t0
    return result
