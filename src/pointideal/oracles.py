"""The merge oracle: a classical two-pointer merge and its comparison cost.

``bench-spoly`` reports its comparison count and the benchmark's tracer
replays every merge through it, so every CLI process loads this module.
The test oracles live in ``_oracles``, which the CLI never loads; tests
import them from there by name.  Everything here is deliberately simple
and shares no code with the library.
"""

from __future__ import annotations


def tuple_cmp_cost(u, v):
    """(sign, cost) of a plain entrywise comparison: cost counts entries read."""
    n = len(u)
    for j in range(n):
        if u[j] != v[j]:
            return ((-1 if u[j] < v[j] else 1), j + 1)
    return (0, n)


def naive_merge(a_items, b_items):
    """Classical two-pointer merge; b-items go first on ties.

    Returns (items, cost) with cost the total number of tuple entries
    inspected across all comparisons.
    """
    out = []
    cost = 0
    i = j = 0
    while i < len(a_items) and j < len(b_items):
        sign, c = tuple_cmp_cost(b_items[j], a_items[i])
        cost += c
        if sign <= 0:
            out.append(b_items[j])
            j += 1
        else:
            out.append(a_items[i])
            i += 1
    out.extend(a_items[i:])
    out.extend(b_items[j:])
    return out, cost
