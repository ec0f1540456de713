"""A certificate that a result is the reduced Gröbner basis of its points.

The dimension argument of Cox, Little and O'Shea (*Ideals, Varieties, and
Algorithms*, ch. 5 §3): if B is an order ideal of m monomials, G leads with
its corners, and each g is monic, has its tail on B and vanishes at the m
points, then the corners lie in the initial ideal, whose m standard
monomials are therefore B, and G is the reduced basis.

No elimination is run.  The check holds an ``EchelonAccumulator``, the one
door into the row stores, only for its vector format: the monomials of B
and the corners are evaluated by ``points.evaluate``, each by one ``step``
from a parent in B, and the values of each g are one sum by ``combiner``.
"""

from __future__ import annotations

from operator import lt

from .linalg import EchelonAccumulator
from .orders import monomial_mul_var, order_vector


class VerificationError(ValueError):
    """A result fails the certificate; the message names the first condition."""


def _below(e, i):
    """e divided by the variable of 0-based index i."""
    return e[:i] + (e[i] - 1,) + e[i + 1 :]


def _elements(field, coeffs):
    """Whether every c of coeffs is a nonzero element of field, in canonical form."""
    try:
        return field.zero not in coeffs and list(map(field.canonical, coeffs)) == coeffs
    except TypeError:
        return False


def verify_result(result, points) -> None:
    """Return None when result holds the reduced basis of I(points), else raise.

    A ``VerificationError`` names the first condition that fails, in order:
    1. the order's arity and the field are the points', and so is the arity
       of every monomial of B;
    2. |B| = m, and B is strictly ascending, contains 1 and is an order ideal;
    3. the leading monomials of G are exactly the corners of B, ascending;
    4. each g is monic, its other coefficients are nonzero field elements,
       and its tail lies on B, strictly descending below its lead;
    5. each g vanishes at every point.
    """
    spec, fld, B, G = result.spec, result.field, result.B, result.G
    n, m = points.n, points.m
    if spec.n != n or fld != points.field:
        raise VerificationError(
            f"result is over {fld} in {spec.n} variables, the points over {points.field} in {n}"
        )
    if any(len(b) != n for b in B):
        raise VerificationError(f"a monomial of B does not have {n} exponents")

    if len(B) != m:
        raise VerificationError(f"|B| = {len(B)}, not m = {m}")
    ovs = [order_vector(spec, b) for b in B]
    if not all(map(lt, ovs, ovs[1:])):
        raise VerificationError("B is not strictly ascending")
    if any(B[0]):
        raise VerificationError("B does not contain 1")
    index = {b: k for k, b in enumerate(B)}
    for b in B[1:]:
        if any(b[i] and _below(b, i) not in index for i in range(n)):
            raise VerificationError(f"B is not an order ideal at {b}")

    # the monomials x_i*b, b in B, outside B whose every divisor x_j lies on B
    border = {monomial_mul_var(b, i) for b in B for i in range(1, n + 1)} - index.keys()
    corners = {c for c in border if all(not c[j] or _below(c, j) in index for j in range(n))}
    leads = [g.leading_monomial if g.basis is not None or g.terms else None for g in G]  # None: a zero g
    if len(leads) != len(corners) or set(leads) != corners:
        raise VerificationError(
            f"the leading monomials of G are not the {len(corners)} corners of B"
        )
    lead_ovs = [order_vector(spec, e) for e in leads]
    if not all(map(lt, lead_ovs, lead_ovs[1:])):
        raise VerificationError("G is not ascending by leading monomial")

    rows = []  # per g: its coefficients, and the index of each term's vector: m + k, then B's
    for k, g in enumerate(G):
        try:  # held on B: its tail indices, ascending
            g = g.held_on(B, index)
        except ValueError as exc:
            raise VerificationError(f"the tail of G[{k}] leaves B: {exc}") from None
        (c0, _e), at, tail = g.lead, g.at, g.coeffs
        if c0 != fld.one:
            raise VerificationError(f"G[{k}] is not monic: its lead coefficient is {c0!r}")
        if not all(map(lt, at, at[1:])) or at and ovs[at[-1]] >= lead_ovs[k]:
            raise VerificationError(f"the terms of G[{k}] do not strictly descend")
        coeffs = [c0, *tail]
        if not _elements(fld, coeffs):
            raise VerificationError(f"a coefficient of G[{k}] is not a nonzero element of {fld}")
        rows.append((coeffs, [m + k, *at]))

    acc = EchelonAccumulator(m, fld)
    total = acc.combiner(points.evaluate(acc, [*B, *leads]))
    for k, (coeffs, at) in enumerate(rows):
        if nonzero := acc.coordinates(total(coeffs, at)):
            raise VerificationError(f"G[{k}] does not vanish at point {min(nonzero)}")
