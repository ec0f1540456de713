"""Sorted tuple lists that memoize first-difference indices.

A DeltaList keeps, next to its lexicographically sorted items, the sequence
delta(c_k, c_{k+1}) of 1-based first-difference indices (n+1 for equal
neighbours).  Locating a single element and merging two lists exploit these
memos so that merging costs at most max(s,t) + min(s,t)*n element
comparisons instead of the classical max(s,t)*n.

The merge walks only the probes of the shorter list; the runs of the longer
list between two probes are copied as slices, items and deltas alike.  It
moves tuples and nothing else: a caller that keeps data per item looks it
up by the tuple.

``locate`` walks the memos without a call per step: the first comparison
and each resumed one are inlined, memos above the running first difference
are skipped in one loop, and a run of memos equal to it is stepped by
reading the one entry where the items differ.  On a host list longer than
``LONG_LIST``, a stretch of items that precede the probe with the same first
difference is crossed by one ``bisect_left`` and its counts charged in bulk;
bisection re-reads the prefixes the memos skip, so it pays only on the long
stretches of long lists (Hwang-Lin binary merging).
``compare_from`` stays the comparison of ``delta`` and ``DeltaList``;
``locate`` counts what it would.

The loops that locate and merge count their work:

* ``elem``   -- one count per pair of tuple entries inspected
* ``dcmps``  -- one count per comparison of memoized first-difference indices
"""

from __future__ import annotations

from bisect import bisect_left

from ._record import Record

# the merge kernel is pure Python; reported by benchmarks next to timings
BACKEND = "python"

# host lists longer than this cross each stretch of the walk by bisection
LONG_LIST = 400


class ArityMismatch(ValueError):
    pass


def compare_from(u, v, k, n):
    """Compare u and v entrywise from 1-based index k.

    Returns (delta, sign, cost): first differing index (n+1 if the tuples
    agree from k on), the comparison outcome of u vs v, and the number of
    entry comparisons used.
    """
    cost = 0
    for j in range(k - 1, n):
        cost += 1
        x = u[j]
        y = v[j]
        if x != y:
            return (j + 1, (-1 if x < y else 1), cost)
    return (n + 1, 0, cost)


def locate(items, deltas, b, n, start=0, hint=1, before_equal=True):
    """Find the insertion position of b in items[start:].

    items is sorted ascending with deltas[i] = first-difference index of
    items[i] and items[i+1].  Entries of b before ``hint`` are known to agree
    with items[start].  Returns (pos, delta_left, delta_right, elem, dcmps)
    where items[start:pos] all precede b (weakly when ``before_equal`` is
    false), delta_left = delta(items[pos-1], b) for pos > start and
    delta_right = delta(b, items[pos]) for pos < len(items).

    With ``before_equal`` b is placed in front of any equal run (the list's
    own contract a_i < b <= a_{i+1}); without it b goes after equal items.

    The walk carries dab = delta(items[i], b) and reads one memo per step.
    A memo above dab (or n+1, an equal neighbour) means items[i+1] precedes
    b with the same dab; a memo below dab means b precedes items[i+1].  An
    equal memo means items[i+1] and b agree before dab, so the comparison
    resumes at entry dab; while items[i+1] is smaller there, dab is
    unchanged and the step reads that one entry.  These comparisons are
    inlined: ``elem`` and ``dcmps`` count exactly what one ``compare_from``
    call per first and per equal-delta comparison would count.

    On a list longer than ``LONG_LIST``, while dab <= n, a stretch of items
    that precede b with the same dab (those below b[:dab]) starting at
    items[i+1] is crossed by one ``bisect_left`` to its last item ie.  It
    charges what the walk would: ie - i ``dcmps`` and one ``elem`` per memo
    equal to dab among them.  Short lists keep the walk: their stretches are
    short, and each bisection step re-reads the prefix the memos skip.
    """
    t = len(items)
    if start >= t:
        return (start, None, None, 0, 0)
    u = items[start]
    j = hint - 1
    while j < n and u[j] == b[j]:
        j += 1
    if j == n:
        elem = n - hint + 1
        if before_equal:
            return (start, None, n + 1, elem, 0)
        dab = n + 1  # items[start] == b (after-equal mode)
    else:
        elem = j - hint + 2
        if u[j] > b[j]:
            return (start, None, j + 1, elem, 0)
        dab = j + 1
    last = t - 1
    i = start
    dcmps = 0
    jump_below = n + 1 if t > LONG_LIST else 0  # jump while dab <= n, on long lists
    while True:
        if dab < jump_below and i < last:
            d = deltas[i]
            if d > dab or (d == dab and items[i + 1][dab - 1] < b[dab - 1]):
                # items[i+1..ie] precede b with the same dab: those below b[:dab]
                ie = bisect_left(items, b[:dab], i + 2) - 1
                dcmps += ie - i
                elem += deltas[i:ie].count(dab)
                i = ie
        # items[i+1] precedes b with the same delta, or equals items[i]
        i0 = i
        while i < last and deltas[i] > dab:
            i += 1
        dcmps += i - i0
        if i == last:
            return (t, dab, None, elem, dcmps)
        dnext = deltas[i]
        if dnext < dab:  # b precedes items[i+1]
            return (i + 1, dab, dnext, elem, dcmps + 1)
        if dab > n:  # items[i+1] == items[i] == b (after-equal mode)
            dcmps += 1
            i += 1
            continue
        # equal deltas: items[i+1] and b agree before entry k = dab-1; while
        # items[i+1] is smaller there, it precedes b and dab is unchanged
        k = dab - 1
        bk = b[k]
        i0 = i
        while i < last and deltas[i] == dab and items[i + 1][k] < bk:
            i += 1
        elem += i - i0
        dcmps += i - i0
        if i == last:
            return (t, dab, None, elem, dcmps)
        if deltas[i] != dab:
            continue
        # resume the entrywise comparison of b and items[i+1] at entry k
        dcmps += 1
        v = items[i + 1]
        if v[k] > bk:
            return (i + 1, dab, dab, elem + 1, dcmps)
        j = k + 1
        while j < n and v[j] == b[j]:
            j += 1
        if j == n:
            elem += n - k
            if before_equal:
                return (i + 1, dab, n + 1, elem, dcmps)
            dab = n + 1
        else:
            elem += j - k + 1
            if v[j] > b[j]:
                return (i + 1, dab, j + 1, elem, dcmps)
            dab = j + 1
        i += 1


def merge_with_sources(items_a, deltas_a, items_b, deltas_b, n):
    """Merge two sorted tuple lists, maintaining the delta sequence.

    The shorter list is inserted probe by probe into the longer one; each
    probe re-enters the walk where the previous one stopped, carrying a
    lower bound on the next first-difference index.  Ties place b-items
    before a-items regardless of which list is shorter.  The host items
    between two probes, and their deltas, are copied as one slice each.

    Returns (items, deltas, None, elem, dcmps).
    """
    if not items_a:
        return (list(items_b), list(deltas_b), None, 0, 0)
    if not items_b:
        return (list(items_a), list(deltas_a), None, 0, 0)

    swapped = len(items_b) > len(items_a)
    if swapped:
        host, hostd, probes, probed = items_b, deltas_b, items_a, deltas_a
    else:
        host, hostd, probes, probed = items_a, deltas_a, items_b, deltas_b

    out_items = []
    out_deltas = []
    elem = 0
    dcmps = 0
    t = len(host)
    s = len(probes)
    start = 0
    hint = 1
    link_host = None  # delta(last output item, host[start]) when a host item comes next
    for j in range(s):
        b = probes[j]
        pos, dl, dr, e, dc = locate(host, hostd, b, n, start, hint, not swapped)
        elem += e
        dcmps += dc
        if pos > start:
            if out_items:
                out_deltas.append(link_host)
            out_items += host[start:pos]
            out_deltas += hostd[start : pos - 1]
            out_deltas.append(dl)
        elif out_items:
            out_deltas.append(probed[j - 1])
        out_items.append(b)
        if pos >= t:
            out_items += probes[j + 1 :]
            out_deltas += probed[j:]
            break
        start = pos
        link_host = dr
        if j + 1 < s:
            # delta(probe_{j+1}, host[start]) >= min(delta(probe_j, host[start]),
            # delta(probe_j, probe_{j+1})); both are at hand
            hint = min(dr, probed[j])
    else:
        out_deltas.append(link_host)
        out_items += host[start:]
        out_deltas += hostd[start:]
    # slot 2 stays None: perfbench's tracer reads elem and dcmps at 3 and 4
    return (out_items, out_deltas, None, elem, dcmps)


def delta(v, w) -> int:
    """First 1-based index where v and w differ; n+1 when equal."""
    if len(v) != len(w):
        raise ArityMismatch(f"tuples of arity {len(v)} and {len(w)}")
    d, _sign, _cost = compare_from(v, w, 1, len(v))
    return d


class DeltaList(Record):
    """Lexicographically ascending tuples plus their delta sequence.

    Duplicates are allowed and preserved.  ``element_cmps`` and
    ``delta_cmps`` describe the merge that made this value.
    """

    _fields = ("arity", "items", "deltas")
    __slots__ = _fields + ("element_cmps", "delta_cmps")

    def __init__(self, arity, items, deltas, element_cmps=0, delta_cmps=0):
        self.arity = arity
        self.items = list(items)
        self.deltas = list(deltas)
        self.element_cmps = element_cmps
        self.delta_cmps = delta_cmps

    @classmethod
    def from_items(cls, items, arity=None):
        """Build from raw sorted items, recomputing every delta."""
        items = [tuple(it) for it in items]
        if arity is None:
            if not items:
                raise ValueError("arity required for an empty list")
            arity = len(items[0])
        deltas = []
        for u, v in zip(items, items[1:]):
            if not u <= v:
                raise ValueError("items are not sorted ascending")
            deltas.append(delta(u, v))
        if any(len(it) != arity for it in items):
            raise ArityMismatch("mixed arities in one list")
        return cls(arity, items, deltas)

    def merge(self, other: "DeltaList") -> "DeltaList":
        """Merge with another list; on ties the other list's items go first."""
        if self.arity != other.arity:
            raise ArityMismatch(f"arities {self.arity} and {other.arity}")
        items, deltas, _, elem, dc = merge_with_sources(
            self.items, self.deltas, other.items, other.deltas, self.arity
        )
        return DeltaList(self.arity, items, deltas, elem, dc)
