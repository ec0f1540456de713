"""Delta-memoized lists: locate, merge, counters, and the naive oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from pointideal._oracles import naive_deltas, stepwise_locate
from pointideal._selftest import (
    GOLDEN_MERGE_A,
    GOLDEN_MERGE_B,
    GOLDEN_MERGE_DELTAS,
    GOLDEN_MERGE_ITEMS,
)
from pointideal.deltamerge import (
    ArityMismatch,
    DeltaList,
    LocateResult,
    delta,
    locate,
    merge_with_sources,
)
from pointideal.oracles import naive_merge


def tuples(n, max_entry=3):
    return st.lists(st.integers(0, max_entry), min_size=n, max_size=n).map(tuple)


def sorted_lists(n, max_len=25):
    return st.lists(tuples(n), max_size=max_len).map(sorted)


list_pairs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), sorted_lists(n), sorted_lists(n))
)


# ---------------------------------------------------------------------------
# delta

def test_delta_examples():
    assert delta((1, 0, 0, 0, 0), (1, 0, 2, 2, 0)) == 3
    assert delta((2, 1, 0, 1, 1), (2, 1, 0, 2, 1)) == 4
    assert delta((7, 7), (7, 7)) == 3
    with pytest.raises(ArityMismatch):
        delta((1, 2), (1, 2, 3))


# ---------------------------------------------------------------------------
# locate

def test_locate_known_split():
    a = DeltaList.from_items(GOLDEN_MERGE_A)
    res = a.locate((2, 1, 0, 1, 1))
    assert res == LocateResult(index=4, delta_left=4, delta_right=4)
    assert res != LocateResult(4, 4, None)


def test_locate_equal_element():
    a = DeltaList.from_items([(1, 2, 3)])
    res = a.locate((1, 2, 3))
    assert res.index == 0 and res.delta_right == 4 and res.delta_left is None


def test_locate_past_the_end():
    a = DeltaList.from_items(GOLDEN_MERGE_A)
    b = (9, 0, 0, 0, 0)
    res = a.locate(b)
    assert res.index == len(a)
    assert res.delta_left == delta(GOLDEN_MERGE_A[-1], b)
    assert res.delta_right is None


def test_locate_before_everything():
    a = DeltaList.from_items(GOLDEN_MERGE_A)
    res = a.locate((0, 0, 0, 0, 0))
    assert res.index == 0 and res.delta_right == 1


@settings(max_examples=300)
@given(data=list_pairs, b=st.data())
def test_locate_matches_definition(data, b):
    n, items, _ = data
    if not items:
        return
    probe = b.draw(tuples(n))
    dl = DeltaList.from_items(items, arity=n)
    res = dl.locate(probe)
    i = res.index
    assert all(x < probe for x in items[:i])
    assert all(probe <= x for x in items[i:])
    if i >= 1:
        assert res.delta_left == delta(items[i - 1], probe)
    if i < len(items):
        assert res.delta_right == delta(probe, items[i])


def test_locate_refuses_impossible_hints():
    a = DeltaList.from_items([(0, 0, 5), (0, 1, 0), (1, 0, 0)])
    assert a.locate((0, 1, 0)).index == 1
    assert a.locate((0, 1, 0), hint=2).index == 1  # (0,) is a true common prefix
    for hint in (0, -1, 5):  # outside 1..arity+1
        with pytest.raises(ValueError):
            a.locate((0, 1, 0), hint=hint)
    with pytest.raises(ValueError):  # (0, 1) is not a prefix of (0, 0, 5)
        a.locate((0, 1, 0), hint=3)
    with pytest.raises(ValueError):
        a.locate((0, 1, 0), hint=4)
    assert DeltaList.from_items([], arity=3).locate((0, 1, 0), hint=4).index == 0


@st.composite
def walk_cases(draw):
    """A sorted list with long equal-delta runs and duplicates, and a probe.

    Most items share a prefix and differ at one late entry k; their tails
    are either one fixed tail, so that equal k entries make duplicates, or
    small random tails.  The probe shares the prefix most of the time.
    """
    n = draw(st.integers(1, 8))
    base = draw(tuples(n))
    k = draw(st.integers(0, n - 1))
    fixed_tail = draw(st.booleans())
    run = []
    length = draw(st.integers(0, 40))
    for x in draw(st.lists(st.integers(0, 30), min_size=length, max_size=length)):
        tail = base[k + 1 :] if fixed_tail else draw(tuples(n - k - 1, max_entry=1))
        run.append(base[:k] + (x,) + tail)
    items = sorted(run + draw(st.lists(tuples(n), max_size=6)))
    kind = draw(st.sampled_from(["prefix", "item", "random"]))
    if kind == "item" and items:
        b = draw(st.sampled_from(items))
    elif kind == "random":
        b = draw(tuples(n))
    else:
        b = base[:k] + (draw(st.integers(0, 31)),) + draw(tuples(n - k - 1, max_entry=1))
    return n, items, b


@settings(max_examples=500, deadline=None)
@given(case=walk_cases(), before_equal=st.booleans(), data=st.data())
def test_locate_matches_stepwise_oracle(case, before_equal, data):
    # the inline walk returns the stepwise walk's 5-tuple, counters included
    n, items, b = case
    deltas = naive_deltas(items)
    start = data.draw(st.integers(0, len(items)))
    hint = 1
    if start < len(items):
        common = next((j for j in range(n) if items[start][j] != b[j]), n)
        hint = data.draw(st.integers(1, common + 1))
    got = locate(items, deltas, b, n, start, hint, before_equal)
    assert got == stepwise_locate(items, deltas, b, n, start, hint, before_equal)


# ---------------------------------------------------------------------------
# merge

def test_merge_known_instance():
    a = DeltaList.from_items(GOLDEN_MERGE_A)
    b = DeltaList.from_items(GOLDEN_MERGE_B)
    c = a.merge(b)
    assert c.items == GOLDEN_MERGE_ITEMS
    assert tuple(c.deltas) == GOLDEN_MERGE_DELTAS


def test_merge_with_empty():
    a = DeltaList.from_items(GOLDEN_MERGE_A)
    e = DeltaList.from_items([], arity=5)
    c = a.merge(e)
    assert c.items == a.items and c.deltas == a.deltas
    assert c.element_cmps == 0 and c.delta_cmps == 0
    c = e.merge(a)
    assert c.items == a.items and (c.element_cmps, c.delta_cmps) == (0, 0)


def test_merge_equal_singletons():
    a = DeltaList.from_items([(1, 2)])
    b = DeltaList.from_items([(1, 2)])
    c = a.merge(b)
    assert c.items == [(1, 2), (1, 2)] and c.deltas == [3]


def _merge(la, lb, n):
    da = DeltaList.from_items(la, arity=n)
    db = DeltaList.from_items(lb, arity=n)
    return merge_with_sources(da.items, da.deltas, db.items, db.deltas, n)


def _copies(items):
    """New tuple objects equal to items: equal entries become distinct objects."""
    return [tuple(list(it)) for it in items]


def _sources(items, la, lb):
    """Per output item, "a" or "b": the input list that holds that very object.

    Asserts that the output interleaves la and lb, each in its own order.
    """
    src = []
    i = j = 0
    for x in items:
        if i < len(la) and x is la[i]:
            src.append("a")
            i += 1
        else:
            assert j < len(lb) and x is lb[j]
            src.append("b")
            j += 1
    assert (i, j) == (len(la), len(lb))
    return src


def test_merge_tie_rule():
    # equal items: the second list's copy is emitted first
    a = _copies([(0, 0), (1, 1), (2, 2)])
    b = _copies([(1, 1)])
    items, deltas, _, _e, _dc = _merge(a, b, 2)
    assert items == [(0, 0), (1, 1), (1, 1), (2, 2)]
    assert deltas == [1, 3, 1]
    assert _sources(items, a, b) == list("abaa")


def test_merge_tie_rule_swapped_host():
    # len(b) > len(a): b hosts the walk and a's items are the probes, yet
    # equal items still put the b copies first
    a = _copies([(1, 1), (1, 1)])
    b = _copies([(0, 0), (1, 1), (1, 1), (2, 2)])
    items, deltas, _, _e, _dc = _merge(a, b, 2)
    assert items == [(0, 0)] + [(1, 1)] * 4 + [(2, 2)]
    assert deltas == [1, 3, 3, 3, 1]
    assert _sources(items, a, b) == list("bbbaab")


def test_merge_arity_mismatch():
    a = DeltaList.from_items([(1, 2)])
    b = DeltaList.from_items([(1, 2, 3)])
    with pytest.raises(ArityMismatch):
        a.merge(b)


@settings(max_examples=400, deadline=None)
@given(data=list_pairs)
def test_merge_matches_naive_oracle(data):
    n, la, lb = data
    a = DeltaList.from_items(la, arity=n)
    b = DeltaList.from_items(lb, arity=n)
    c = a.merge(b)
    expect, _cost = naive_merge(la, lb)
    assert c.items == expect
    assert c.deltas == naive_deltas(expect)
    s, t = len(la), len(lb)
    assert c.element_cmps <= max(s, t) + min(s, t) * n


@settings(max_examples=300)
@given(data=list_pairs)
def test_merge_sources_permutation(data):
    # every input object appears once, each list in its own order, and in
    # a run of equal items every b-item precedes every a-item, whichever
    # list hosts the walk
    n, la, lb = data
    la, lb = _copies(la), _copies(lb)
    items, _deltas, _, _e, _dc = _merge(la, lb, n)
    src = _sources(items, la, lb)
    for k in range(len(items) - 1):
        if items[k] == items[k + 1]:
            assert (src[k], src[k + 1]) != ("a", "b")


# ---------------------------------------------------------------------------
# structural facts the walk relies on

@given(u=tuples(6), v=tuples(6), w=tuples(6))
def test_later_difference_orders_three_tuples(u, v, w):
    if u < v and u < w and delta(u, w) < delta(u, v):
        assert v < w
        assert delta(v, w) == delta(u, w)


@given(u=tuples(6), v=tuples(6), w=tuples(6))
def test_delta_satisfies_min_inequality(u, v, w):
    if u < v and u < w:
        assert delta(v, w) >= min(delta(u, v), delta(u, w))


@settings(max_examples=200)
@given(data=list_pairs)
def test_from_items_reproduces_deltas(data):
    n, la, lb = data
    c = DeltaList.from_items(la, arity=n).merge(DeltaList.from_items(lb, arity=n))
    rebuilt = DeltaList.from_items(c.items, arity=n)
    assert rebuilt.deltas == c.deltas


def test_from_items_rejects_unsorted():
    with pytest.raises(ValueError):
        DeltaList.from_items([(2, 0), (1, 0)])
