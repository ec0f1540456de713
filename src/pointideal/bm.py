"""Gröbner bases of vanishing ideals of finite point sets.

``bm`` is the one candidate loop.  The evaluation vector of a candidate
x_i*t is the vector of t times the coordinate column of x_i, both in the
elimination store's own format, so it is eliminated without conversion.
The candidate list is a delta-memoized sorted list of order vectors that
keeps duplicates; the length of the run of equal minimal elements decides,
through the support-vs-multiplicity test, whether a candidate is an
initial-ideal multiple, and the n new candidates of each basis monomial are
merged in bulk.  Nothing rides through the merge besides the order vectors:
a dict keyed by order vector holds each pending candidate's monomial and
the basis element and variable it was made from.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from sys import modules

from . import orders
from .deltamerge import compare_from, merge_with_sources
from .linalg import EchelonAccumulator
# combine stays bound here so that perfbench's tracer can patch bm.combine
from .poly import Polynomial, combine, evaluate_monomial  # noqa: F401


class PointSetError(ValueError):
    pass


class DuplicatePoints(PointSetError):
    pass


class EmptyPointSet(PointSetError):
    pass


@dataclass(frozen=True)
class PointSet:
    field: object
    n: int
    points: tuple  # m tuples of field elements

    def __post_init__(self):
        pts = tuple(tuple(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise EmptyPointSet("at least one point is required")
        if any(len(p) != self.n for p in pts):
            raise PointSetError("point arity mismatch")
        if len(set(pts)) != len(pts):
            raise DuplicatePoints("points must be pairwise distinct")

    @property
    def m(self):
        return len(self.points)

    def coordinate_column(self, i: int):
        """Evaluation vector of the variable x_i (1-based)."""
        return [p[i - 1] for p in self.points]


@dataclass
class RunStats:
    element_cmps: int = 0
    delta_cmps: int = 0
    field_ops: int = 0
    functional_calls: int = 0
    L_max: int = 0
    n_essential: int | None = None
    wall_time: float = 0.0

    def to_dict(self):
        return asdict(self)


@dataclass
class GroebnerResult:
    G: list  # Polynomial, ascending leading monomials
    B: list  # monomial tuples, ascending
    stats: RunStats
    spec: object = None
    field: object = None


def occ_skip(exps, occ: int) -> bool:
    """True iff the run's monomial is an initial-ideal multiple.

    Valid only for the minimal element of the duplicate-preserving candidate
    list: the monomial has |supp| divisors of one degree less, each divisor
    in B contributed one copy.
    """
    return orders.support_size(exps) > occ


def _make_poly(t_exps, coeffs, B, fld):
    """t - sum coeffs[i] * B[i]; t exceeds every monomial of the ascending B.

    ``coeffs`` is {index in B: coordinate} with ascending indices, as
    ``coordinates`` gives it, so one reversed pass writes the tail in
    descending order with no sort.
    """
    neg = fld.neg
    terms = [(fld.one, t_exps)]
    terms += [(neg(c), B[i]) for i, c in reversed(coeffs.items())]
    return Polynomial(terms)


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


def probe_deltas(spec, vars_increasing):
    """Deltas of the candidates x_i*t, i in ``vars_increasing``, and their cost.

    The order vectors of x_i*t and x_j*t differ where columns i and j of the
    order matrix differ, so the deltas of consecutive candidates and the
    entries ``compare_from`` reads to find them are the same for every t.
    """
    cols = [spec.columns[i - 1] for i in vars_increasing]
    deltas, cost = [], 0
    for u, w in zip(cols, cols[1:]):
        d, _s, c = compare_from(u, w, 1, spec.n)
        deltas.append(d)
        cost += c
    return deltas, cost


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
    columns = [acc.vector(points.coordinate_column(i)) for i in range(1, n + 1)]
    vars_increasing = tuple(reversed(orders.varord(spec)))
    new_deltas, new_cost = probe_deltas(spec, vars_increasing)
    # progress at DEBUG: |B| each time it crosses a tenth of m, and at the end
    log = _progress_log()
    next_tenth = 1

    one = (0,) * n
    L_items = [orders.order_vector(spec, one)]
    L_deltas = []
    # order vector -> (exps, parent index in B or None, multiplied variable);
    # a later write is the copy the merge puts first, since new items go
    # before equal old ones, and a popped run is never made again
    pending = {L_items[0]: (one, None, None)}
    nvec = len(L_items[0])

    B, B_vec, G = [], [], []
    stats.L_max = 1

    while L_items:
        # pop the whole run of equal minimal elements; its length is Occ(t)
        run = 1
        while run < len(L_items) and L_deltas[run - 1] == nvec + 1:
            run += 1
        t_ov = L_items[0]
        t_exps, parent, var = pending.pop(t_ov)
        del L_items[:run]
        del L_deltas[: min(run, len(L_deltas))]
        if occ_skip(t_exps, run):
            continue

        if parent is None:
            v = acc.vector([fld.one] * m)
        else:
            v = step(B_vec[parent], columns[var - 1])
            stats.field_ops += m
        stats.functional_calls += 1

        residual, coords = acc.reduce(v)
        if not any(residual):
            G.append(_make_poly(t_exps, acc.coordinates(coords), B, fld))
            continue
        acc.insert(residual, coords)
        b_index = len(B)
        B.append(t_exps)
        B_vec.append(v)
        if log is not None and 10 * len(B) >= next_tenth * m:
            log.debug("|B| = %d of m = %d", len(B), m)
            next_tenth = 10 * len(B) // m + 1

        new_items = []
        for i in vars_increasing:
            ov = orders.order_vector_step(spec, t_ov, i)
            new_items.append(ov)
            pending[ov] = (orders.monomial_mul_var(t_exps, i), b_index, i)
        stats.element_cmps += new_cost
        L_items, L_deltas, _, ec, dc = merge_with_sources(
            L_items, L_deltas, new_items, new_deltas, nvec
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

    Works through evaluations: expresses f(P) in the coordinates of the
    basis evaluation vectors.
    """
    fld, pts = points.field, points.points
    acc = EchelonAccumulator(points.m, fld)
    for b in result.B:
        acc.insert(*acc.reduce(acc.vector([evaluate_monomial(fld, b, p) for p in pts])))
    residual, coords = acc.reduce(acc.vector([f.evaluate(fld, p) for p in pts]))
    if any(residual):
        raise PointSetError("basis does not span the evaluation space")
    coeffs = acc.coordinates(coords)
    B = result.B
    return Polynomial([(coeffs[i], B[i]) for i in sorted(coeffs, reverse=True)])
