"""Kernel for locating into and merging sorted tuple lists.

``deltamerge`` wraps these loops in the DeltaList interface.  Counters:

* ``elem``   -- one count per pair of tuple entries inspected
* ``dcmps``  -- one count per comparison of memoized first-difference indices

All first-difference ("delta") indices are 1-based, with n+1 meaning equal.
"""


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
    """
    t = len(items)
    if start >= t:
        return (start, None, None, 0, 0)
    d, sign, elem = compare_from(items[start], b, hint, n)
    dcmps = 0
    if sign > 0 or (sign == 0 and before_equal):
        return (start, None, d, elem, dcmps)
    dab = d  # delta(items[i], b); n+1 encodes items[i] == b (after-equal mode)
    i = start
    while True:
        if i == t - 1:
            return (t, dab, None, elem, dcmps)
        dnext = deltas[i]
        dcmps += 1
        if dnext == n + 1:  # items[i+1] == items[i]: carry delta forward
            i += 1
            continue
        if dab > dnext:  # b precedes items[i+1]
            return (i + 1, dab, dnext, elem, dcmps)
        if dab < dnext:  # items[i+1] still precedes b, same delta
            i += 1
            continue
        # equal deltas: resume entrywise comparison at index dab
        d2, sign2, cost = compare_from(b, items[i + 1], dab, n)
        elem += cost
        if sign2 < 0:
            return (i + 1, dab, d2, elem, dcmps)
        if sign2 == 0:
            if before_equal:
                return (i + 1, dab, n + 1, elem, dcmps)
            dab = n + 1
        else:
            dab = d2
        i += 1


def merge(items_a, deltas_a, items_b, deltas_b, n):
    """Merge two sorted tuple lists, maintaining the delta sequence.

    The shorter list is inserted probe by probe into the longer one; each
    probe re-enters the walk where the previous one stopped, carrying a
    lower bound on the next first-difference index.  Ties place b-items
    before a-items regardless of which list is shorter.

    Returns (items, deltas, sources, elem, dcmps); sources[k] is (0, i) for
    items_a[i] and (1, j) for items_b[j].
    """
    if not items_a:
        return (list(items_b), list(deltas_b), [(1, j) for j in range(len(items_b))], 0, 0)
    if not items_b:
        return (list(items_a), list(deltas_a), [(0, i) for i in range(len(items_a))], 0, 0)

    if len(items_b) <= len(items_a):
        host, hostd, hsrc = items_a, deltas_a, 0
        probes, probed, psrc = items_b, deltas_b, 1
        before_equal = True
    else:
        host, hostd, hsrc = items_b, deltas_b, 1
        probes, probed, psrc = items_a, deltas_a, 0
        before_equal = False

    out_items = []
    out_deltas = []
    sources = []

    def emit(item, src, link):
        if out_items:
            out_deltas.append(link)
        out_items.append(item)
        sources.append(src)

    elem = 0
    dcmps = 0
    t = len(host)
    s = len(probes)
    start = 0
    hint = 1
    link_host = None  # delta(last emitted, host[start]) when a host item comes next
    link_probe = None  # delta(last emitted probe, next probe)
    for j in range(s):
        b = probes[j]
        pos, dl, dr, e, dc = locate(host, hostd, b, n, start, hint, before_equal)
        elem += e
        dcmps += dc
        if pos > start:
            emit(host[start], (hsrc, start), link_host)
            for i in range(start + 1, pos):
                emit(host[i], (hsrc, i), hostd[i - 1])
            emit(b, (psrc, j), dl)
        else:
            emit(b, (psrc, j), link_probe)
        if pos >= t:
            for jj in range(j + 1, s):
                emit(probes[jj], (psrc, jj), probed[jj - 1])
            return (out_items, out_deltas, sources, elem, dcmps)
        start = pos
        link_host = dr
        if j + 1 < s:
            # delta(probe_{j+1}, host[start]) >= min(delta(probe_j, host[start]),
            # delta(probe_j, probe_{j+1})); both are at hand
            hint = min(dr, probed[j])
            link_probe = probed[j]
    emit(host[start], (hsrc, start), link_host)
    for i in range(start + 1, t):
        emit(host[i], (hsrc, i), hostd[i - 1])
    return (out_items, out_deltas, sources, elem, dcmps)
