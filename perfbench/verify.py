"""Independent checks of a `pointideal basis` result document.

Nothing here imports pointideal: the checks read the JSON the program wrote
and the points the benchmark generated.  A document passes `verify` exactly
when it holds the reduced Gröbner basis G and the standard monomials B of
the vanishing ideal of the points:

* B has m distinct exponent vectors, ascending in the order, and is an
  order ideal;
* every g is monic, its terms strictly descend in the order, its leading
  monomial lies outside B and its tail lies on B;
* the leading monomials are exactly the corners of B (the minimal monomials
  outside B), so they are also pairwise indivisible;
* every g vanishes at every point.

Then in(I) contains the ideal of the corners, whose m standard monomials
are B, so G is the reduced basis.
"""

from __future__ import annotations

import hashlib
import json
import sys
from array import array
from fractions import Fraction
from math import lcm

from workloads import P


class VerifyError(Exception):
    pass


def _check(cond, msg):
    if not cond:
        raise VerifyError(msg)


def order_key(order: str):
    """Sort key of the order with x1 > x2 > ... > xn."""
    if order == "lex":
        return tuple
    if order == "degrevlex":
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    raise ValueError(f"no key for order {order!r}")


def digest(doc) -> str:
    """sha256 of B and G as written; the stats are left out."""
    body = json.dumps({"B": doc["B"], "G": doc["G"]}, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _minus(e, i):
    return e[:i] + (e[i] - 1,) + e[i + 1 :]


def _parse_coeff(field, text):
    if field == "qq":
        return Fraction(text)
    c = int(text)
    _check(0 <= c < P, f"coefficient {text} is not a residue mod {P}")
    return c


def verify(doc, inst, points) -> None:
    """Raise VerifyError unless doc is the reduced basis of I(points)."""
    n, m = inst.n, len(points)
    key = order_key(inst.order)
    _check(doc.get("n") == n, "wrong number of variables")
    B = [tuple(b) for b in doc["B"]]
    _check(len(B) == m, f"|B| = {len(B)}, expected {m}")
    _check(
        all(len(b) == n and all(type(e) is int and e >= 0 for e in b) for b in B),
        "B holds a malformed exponent vector",
    )
    keys = [key(b) for b in B]
    _check(all(a < b for a, b in zip(keys, keys[1:])), "B is not strictly ascending")
    Bset = set(B)
    for b in B:
        for i in range(n):
            _check(b[i] == 0 or _minus(b, i) in Bset, f"B is not an order ideal at {b}")
    corners = set()
    for b in B:
        for i in range(n):
            c = b[:i] + (b[i] + 1,) + b[i + 1 :]
            if c not in Bset and all(c[j] == 0 or _minus(c, j) in Bset for j in range(n)):
                corners.add(c)

    G = []
    for gi, raw in enumerate(doc["G"]):
        _check(len(raw) > 0, f"G[{gi}] is zero")
        terms = [(_parse_coeff(inst.field, str(c)), tuple(e)) for c, e in raw]
        lead = terms[0][1]
        _check(terms[0][0] == 1, f"G[{gi}] is not monic")
        _check(lead not in Bset, f"leading monomial of G[{gi}] lies in B")
        _check(all(e in Bset for _c, e in terms[1:]), f"tail of G[{gi}] leaves B")
        _check(all(c != 0 for c, _e in terms), f"G[{gi}] has a zero coefficient")
        tk = [key(e) for _c, e in terms]
        _check(all(a > b for a, b in zip(tk, tk[1:])), f"terms of G[{gi}] do not descend")
        G.append(terms)
    leads = [g[0][1] for g in G]
    _check(
        len(leads) == len(corners) and set(leads) == corners,
        "leading monomials are not the corners of B",
    )
    lk = [key(e) for e in leads]
    _check(all(a < b for a, b in zip(lk, lk[1:])), "G is not ascending by leading monomial")
    if inst.field == "qq":
        _vanish_qq(G, B, leads, points, n)
    else:
        _vanish_gfp(G, B, leads, points, n)


def _parent(e):
    """(divisor, variable) with e = divisor * x_var, for e != 1."""
    i = next(i for i, x in enumerate(e) if x)
    return _minus(e, i), i


def _vanish_gfp(G, B, leads, points, n):
    """Evaluate all of G at all points with one big-int sum per polynomial.

    The values of a monomial at the m points are packed into 64-bit slots of
    one integer, so a polynomial's values are a linear combination of packed
    integers.  With coefficients and values below P and at most m+1 terms, no
    slot overflows (m * P**2 < 2**64).
    """
    m = len(points)
    cols = [[p[i] for p in points] for i in range(n)]
    vals = {}
    for e in list(B) + leads:  # B ascends, so divisors come first
        if not any(e):
            vals[e] = [1] * m
            continue
        d, i = _parent(e)
        vals[e] = [a * x % P for a, x in zip(vals[d], cols[i])]
    packed = {
        e: int.from_bytes(array("Q", v).tobytes(), sys.byteorder)
        for e, v in vals.items()
    }
    for gi, g in enumerate(G):
        acc = sum(c * packed[e] for c, e in g)
        slots = memoryview(acc.to_bytes(8 * m, sys.byteorder)).cast("Q")
        _check(all(x % P == 0 for x in slots), f"G[{gi}] does not vanish on the points")


def _vanish_qq(G, B, leads, points, n):
    """Exact check over the integers after clearing denominators.

    Point j is a_j / d_j with integer a_j; a monomial e takes the value
    A_e(j) / d_j**deg(e).  Scaling g(P_j) by d_j**deg(g) and by the lcm of
    g's coefficient denominators leaves an integer sum that must be 0.
    """
    dens = [lcm(*(x.denominator for x in p)) for p in points]
    nums = [[int(x * d) for x in p] for p, d in zip(points, dens)]
    vals = {}
    for e in list(B) + leads:
        if not any(e):
            vals[e] = [1] * len(points)
            continue
        d, i = _parent(e)
        vals[e] = [a * row[i] for a, row in zip(vals[d], nums)]
    for gi, g in enumerate(G):
        scale = lcm(*(c.denominator for c, _e in g))
        ints = [(int(c * scale), e, sum(e)) for c, e in g]
        top = max(deg for _c, _e, deg in ints)
        for j, d in enumerate(dens):
            total = sum(c * vals[e][j] * d ** (top - deg) for c, e, deg in ints)
            _check(total == 0, f"G[{gi}] does not vanish at point {j}")


def tamper(doc, field) -> None:
    """Change one coefficient of G in place: a tail one if any, else a leading one."""
    g = next((g for g in doc["G"] if len(g) > 1), doc["G"][0])
    c = g[-1][0]
    g[-1][0] = str(Fraction(c) + 1) if field == "qq" else str(int(c) % (P - 1) + 1)
