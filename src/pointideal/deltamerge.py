"""Sorted tuple lists that memoize first-difference indices.

A DeltaList keeps, next to its lexicographically sorted items, the sequence
delta(c_k, c_{k+1}) of 1-based first-difference indices (n+1 for equal
neighbours).  Locating a single element and merging two lists exploit these
memos so that merging costs at most max(s,t) + min(s,t)*n element
comparisons instead of the classical max(s,t)*n.

The inner loops live in the kernel module ``_merge_py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _merge_py

# the merge kernel is pure Python; reported by benchmarks next to timings
BACKEND = "python"


class ArityMismatch(ValueError):
    pass


def delta(v, w) -> int:
    """First 1-based index where v and w differ; n+1 when equal."""
    if len(v) != len(w):
        raise ArityMismatch(f"tuples of arity {len(v)} and {len(w)}")
    d, _sign, _cost = _merge_py.compare_from(v, w, 1, len(v))
    return d


@dataclass
class LocateResult:
    index: int  # number of list items preceding b
    delta_left: int | None  # delta(a_index, b), when index >= 1
    delta_right: int | None  # delta(b, a_{index+1}), when index < len


class DeltaList:
    """Lexicographically ascending tuples plus their delta sequence.

    Duplicates are allowed and preserved.  ``element_cmps`` and
    ``delta_cmps`` describe the most recent top-level locate/merge call on
    this value.
    """

    __slots__ = ("arity", "items", "deltas", "element_cmps", "delta_cmps")

    def __init__(self, arity, items, deltas, element_cmps=0, delta_cmps=0):
        self.arity = arity
        self.items = list(items)
        self.deltas = list(deltas)
        self.element_cmps = element_cmps
        self.delta_cmps = delta_cmps

    @classmethod
    def from_items(cls, items, arity=None, check=True):
        """Build from raw sorted items, recomputing every delta."""
        items = [tuple(it) for it in items]
        if arity is None:
            if not items:
                raise ValueError("arity required for an empty list")
            arity = len(items[0])
        deltas = []
        for u, v in zip(items, items[1:]):
            if check and not u <= v:
                raise ValueError("items are not sorted ascending")
            deltas.append(delta(u, v))
        if any(len(it) != arity for it in items):
            raise ArityMismatch("mixed arities in one list")
        return cls(arity, items, deltas)

    def __len__(self):
        return len(self.items)

    def __eq__(self, other):
        return (
            isinstance(other, DeltaList)
            and self.arity == other.arity
            and self.items == other.items
            and self.deltas == other.deltas
        )

    def locate(self, b, hint=1) -> LocateResult:
        """Split position of b per the staged walk over the delta memos."""
        b = tuple(b)
        if len(b) != self.arity:
            raise ArityMismatch(f"probe arity {len(b)} != {self.arity}")
        pos, dl, dr, elem, dc = _merge_py.locate(
            self.items, self.deltas, b, self.arity, 0, hint, True
        )
        self.element_cmps = elem
        self.delta_cmps = dc
        return LocateResult(pos, dl, dr)

    def merge(self, other: "DeltaList") -> "DeltaList":
        """Merge with another list; on ties the other list's items go first."""
        if self.arity != other.arity:
            raise ArityMismatch(f"arities {self.arity} and {other.arity}")
        items, deltas, _src, elem, dc = _merge_py.merge(
            self.items, self.deltas, other.items, other.deltas, self.arity
        )
        return DeltaList(self.arity, items, deltas, elem, dc)


def merge_with_sources(items_a, deltas_a, items_b, deltas_b, n):
    """Kernel merge exposing the provenance of each output slot.

    Returns (items, deltas, sources, element_cmps, delta_cmps) with
    sources[k] = (0, i) for an a-item or (1, j) for a b-item; callers use it
    to permute payloads carried alongside the tuples.
    """
    return _merge_py.merge(items_a, deltas_a, items_b, deltas_b, n)
