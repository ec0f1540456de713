"""A fixed pure-Python computation that times the machine, not the program.

The benchmark runs it just before every instance and reports each
instance's time as a multiple of it.  On a shared machine other tenants
slow every interpreter-bound computation at once, for seconds at a time;
the ratio cancels most of that, while a change to pointideal moves the
instance time and leaves this one alone.  It mixes what pointideal spends
its time on: row elimination mod p over lists, Fraction arithmetic, dict
updates keyed by tuples, and sorting tuples.
"""

from __future__ import annotations

import random
from fractions import Fraction

# median duration of reference() between instances on the 2-core Xeon VM
# the bounds were tuned on; ratios are scaled by it to read as seconds there
NOMINAL_S = 0.015


def reference() -> int:
    rng = random.Random(0)
    p, n = 32003, 40
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        top = [x * inv % p for x in rows[c]]
        rows[c] = top
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], top)]
    total = Fraction(0)
    terms = {}
    for k in range(1, 1200):
        total += Fraction(k % 7 - 3, k % 11 + 1)
        key = (k % 5, k % 7, k % 11)
        terms[key] = terms.get(key, 0) + k
    order = sorted(terms, key=lambda t: (sum(t), t), reverse=True)
    return sum(row[0] for row in rows) + total.numerator + len(order)
