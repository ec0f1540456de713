"""Gröbner bases of vanishing ideals of finite point sets.

``bm`` is the one candidate loop.  The evaluation vector of a candidate
x_i*t is the vector of t times the coordinate column of x_i, both in the
elimination store's own format, so it is eliminated without conversion.
The candidate list is a delta-memoized sorted list of order vectors that
keeps duplicates; the length of the run of equal minimal elements decides,
through the support-vs-multiplicity test, whether a candidate is an
initial-ideal multiple.  The n new candidates of each basis monomial are
made by one call of ``orders.children`` and merged in bulk: ``orders`` owns
order-vector arithmetic, and this loop reads no order-vector entry.
Nothing rides through the merge besides the order vectors:
``pending``, keyed by order vector, holds each candidate's (parent in B,
variable).  The skip test needs no more, so a monomial is built only for a
run that is not skipped.
"""

from __future__ import annotations

import time
from functools import reduce
from sys import modules

from . import orders
from ._record import FrozenRecord, Record
from .deltamerge import merge_with_sources
from .linalg import EchelonAccumulator
# combine stays bound here so that perfbench's tracer can patch bm.combine
from .poly import Polynomial, combine  # noqa: F401


class PointSetError(ValueError):
    pass


class DuplicatePoints(PointSetError):
    pass


class EmptyPointSet(PointSetError):
    pass


class PointSet(FrozenRecord):
    """m distinct points of n coordinates each, over ``field``.

    A value: equal point sets compare equal and hash alike.  Coordinates go
    through ``field.canonical``, so points equal in the field are duplicates.
    """

    __slots__ = _fields = ("field", "n", "points")

    def __init__(self, field, n: int, points):
        try:  # m tuples of field elements
            pts = tuple(tuple(map(field.canonical, p)) for p in points)
        except TypeError as exc:
            raise PointSetError(f"coordinate not in {field}: {exc}") from None
        if not pts:
            raise EmptyPointSet("at least one point is required")
        if any(len(p) != n for p in pts):
            raise PointSetError("point arity mismatch")
        if len(set(pts)) != len(pts):
            raise DuplicatePoints("points must be pairwise distinct")
        self.field, self.n, self.points = field, n, pts

    @property
    def m(self):
        return len(self.points)

    def generators(self, acc):
        """The vectors of 1, x_1, ..., x_n at the points, in the format of ``acc``."""
        return [acc.vector([self.field.one] * self.m), *map(acc.vector, zip(*self.points))]

    def evaluate(self, acc, monomials, known=None):
        """The vectors of the monomials at the points, in the format of ``acc``.

        x^a is one ``step`` from x^a / x_i, x_i its first variable, and so on down to 1,
        a monomial of the dict ``known`` of vectors, or a monomial asked for, evaluated
        first by degree: a power holds one vector.
        """
        one, *columns = self.generators(acc)
        value = {(0,) * self.n: one, **(known or {})}
        for a in sorted(set(monomials), key=sum):
            e, up = a, []
            while e not in value:
                i = next(i for i, x in enumerate(e) if x)
                up.append(columns[i])
                e = e[:i] + (e[i] - 1,) + e[i + 1 :]
            value[a] = reduce(acc.step, reversed(up), value[e])
        return [value[a] for a in monomials]


class RunStats(Record):
    """Counters and wall time of one run; ``to_dict`` keeps this key order."""

    __slots__ = _fields = (
        "element_cmps",
        "delta_cmps",
        "field_ops",
        "functional_calls",
        "L_max",
        "n_essential",
        "wall_time",
    )

    def __init__(
        self,
        element_cmps: int = 0,
        delta_cmps: int = 0,
        field_ops: int = 0,
        functional_calls: int = 0,
        L_max: int = 0,
        n_essential: int | None = None,
        wall_time: float = 0.0,
    ):
        self.element_cmps = element_cmps
        self.delta_cmps = delta_cmps
        self.field_ops = field_ops
        self.functional_calls = functional_calls
        self.L_max = L_max
        self.n_essential = n_essential
        self.wall_time = wall_time

    def to_dict(self):
        return dict(zip(self._fields, self._key()))


class GroebnerResult(Record):
    """G (Polynomials, ascending leading monomials) and B (ascending monomials)."""

    _fields = ("G", "B", "spec", "field")  # not stats: the run report
    __slots__ = _fields + ("stats",)

    def __init__(self, G: list, B: list, stats: RunStats, spec, field):
        self.G, self.B, self.stats, self.spec, self.field = G, B, stats, spec, field


def occ_skip(pe, var: int, occ: int) -> bool:
    """True iff the run's monomial pe * x_var is an initial-ideal multiple.

    Valid only for the minimal element of the duplicate-preserving candidate
    list: the monomial has |supp| divisors of one degree less, each divisor
    in B contributed one copy.
    """
    return len(pe) - pe.count(0) + (pe[var - 1] == 0) > occ


def _progress_log():
    """This module's logger when it logs at DEBUG, else None.

    A ``logging`` that was never imported cannot have been configured, so
    the check imports nothing: the CLI stays free of the module.
    """
    logging = modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(__name__)
    return log if log.isEnabledFor(logging.DEBUG) else None


def bm(points: PointSet, spec) -> GroebnerResult:
    """Reduced Gröbner basis and quotient monomial basis of I(points).

    B has exactly m elements.  ``functional_calls`` counts the evaluation
    vectors computed; ``field_ops`` counts m per step and the elimination.
    """
    if spec.n != points.n:
        raise orders.OrderError("order arity differs from point arity")
    fld = points.field
    n, m = points.n, points.m
    stats = RunStats()
    t0 = time.perf_counter()
    acc = EchelonAccumulator(m, fld)
    step = acc.step
    one_vec, *columns = points.generators(acc)
    variables, new_deltas, new_cost, children = orders.children(spec)
    # progress at DEBUG: |B| each time it crosses a tenth of m, and at the end
    log = _progress_log()
    next_tenth = 1

    one = (0,) * n
    L_items = [orders.order_vector(spec, one)]
    L_deltas = []
    # order vector -> (parent index in B or None, multiplied variable); a
    # later write is the copy the merge puts first, since new items go
    # before equal old ones, and a popped run is never made again
    pending = {L_items[0]: (None, None)}

    B, B_vec, G = [], [], []
    stats.L_max = 1

    while L_items:
        # pop the whole run of equal minimal elements; its length is Occ(t)
        run = 1
        while run < len(L_items) and L_deltas[run - 1] == n + 1:
            run += 1
        t_ov = L_items[0]
        parent, var = pending.pop(t_ov)
        del L_items[:run]
        del L_deltas[:run]
        if parent is None:
            t_exps = one
            v = one_vec
        else:
            pe = B[parent]
            if occ_skip(pe, var, run):
                continue
            t_exps = orders.monomial_mul_var(pe, var)
            v = step(B_vec[parent], columns[var - 1])
            stats.field_ops += m
        stats.functional_calls += 1

        residual, coords = acc.reduce(v)
        if not residual:
            # t - sum coords[i]*B[i]: t exceeds all of the ascending B
            G.append(Polynomial.on_basis((fld.one, t_exps), *acc.tail(coords), B))
            continue
        acc.insert(residual, coords)
        b_index = len(B)
        B.append(t_exps)
        B_vec.append(v)
        if log is not None and 10 * len(B) >= next_tenth * m:
            log.debug("|B| = %d of m = %d", len(B), m)
            next_tenth = 10 * len(B) // m + 1

        new_items = children(t_ov)
        for ov, i in zip(new_items, variables):
            pending[ov] = (b_index, i)
        stats.element_cmps += new_cost
        L_items, L_deltas, _, ec, dc = merge_with_sources(
            L_items, L_deltas, new_items, new_deltas, n
        )
        stats.element_cmps += ec
        stats.delta_cmps += dc
        stats.L_max = max(stats.L_max, len(L_items))

    stats.field_ops += acc.field_ops
    stats.wall_time = time.perf_counter() - t0
    if log is not None:
        log.debug("done: |B| = %d of m = %d, |G| = %d", len(B), m, len(G))
    return GroebnerResult(G=G, B=B, stats=stats, spec=spec, field=fld)


def normal_form(f: Polynomial, result: GroebnerResult, points: PointSet) -> Polynomial:
    """The unique representative of [f] supported on the quotient basis.

    One call of ``certify.Quotient``, which eliminates B; to reduce many
    polynomials against one result, keep a ``Quotient``.
    """
    from .certify import Quotient  # certify stays off the CLI's imports

    return Quotient(result, points).normal_form(f)
