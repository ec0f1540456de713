"""Spans around the public calls into each pointideal module.

The tracer replaces each traced name where its caller looks it up (``bm.py``
and ``projection.py`` bind ``combine``, ``merge_with_sources`` and ``bm`` by
``from ... import``), records one span per call and restores the originals
on ``uninstall``.  A span is (id, instance, name, parent id, start, end);
spans stay in memory until the benchmark writes them out.

Every merge is replayed through ``oracles.naive_merge`` right after it
returns, inside a ``trace.naive_merge`` span of its own, so the replay is
left out of the self time of the layer that called the merge.
"""

from __future__ import annotations

import itertools
import sys
from collections import defaultdict
from time import perf_counter

# span name -> per-layer self-time metric
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "fileio.load_points": "fileio.parse_s",
    "fileio.serialize_result": "fileio.serialize_s",
    "projection.bm_projected": "projection.self_s",
    "projection.essential_variables": "projection.scan_s",
    "projection.lift": "projection.lift_s",
    "bm.bm": "bm.self_s",
    "linalg.reduce": "linalg.reduce_s",
    "linalg.insert": "linalg.insert_s",
    "poly.combine": "poly.combine_s",
    "deltamerge.merge_with_sources": "deltamerge.merge_s",
}
# span name -> inclusive-time metric, for layers whose cost sits in children
INCLUSIVE_METRIC = {
    "projection.essential_variables": "projection.scan_incl_s",
    "projection.lift": "projection.lift_incl_s",
}
REPLAY = "trace.naive_merge"
# counters read at the layer boundaries
COUNTERS = (
    "linalg.field_ops",
    "poly.G_terms",
    "projection.n_dropped",
    "deltamerge.element_cmps",
    "deltamerge.delta_cmps",
    "deltamerge.naive_cmps",
    "fileio.bytes_out",
    "bm.functional_calls",
    "bm.L_max",
)
# span name -> call-count metric
CALL_METRIC = {
    "linalg.reduce": "linalg.reduce_calls",
    "linalg.insert": "linalg.insert_calls",
    "poly.combine": "poly.combine_calls",
    "deltamerge.merge_with_sources": "deltamerge.merge_calls",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.instance = None
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.replay_mismatches = 0
        self._stack = []
        self._ids = itertools.count()
        self._undo = []

    def call(self, name, fn, args, kwargs=None):
        """Run fn(*args, **kwargs) inside a span called name."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, self.instance, name, parent, start, end))

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the traced calls of the currently imported pointideal."""
        fileio = sys.modules["pointideal.fileio"]
        projection = sys.modules["pointideal.projection"]
        bm_mod = sys.modules["pointideal.bm"]
        acc_cls = sys.modules["pointideal.linalg"].EchelonAccumulator
        naive_merge = sys.modules["pointideal.oracles"].naive_merge
        counts = self.counts

        def spanned(name, fn, after=None):
            def wrapper(*args, **kwargs):
                out = self.call(name, fn, args, kwargs)
                if after is not None:
                    after(out)
                return out

            return wrapper

        def count_bytes(text):
            counts["fileio.bytes_out"] += len(text.encode())

        def count_terms(result):
            counts["poly.G_terms"] += sum(len(g.terms) for g in result.G)

        def count_dropped(es):
            counts["projection.n_dropped"] += len(es.relations)

        def count_bm(result):
            counts["bm.functional_calls"] += result.stats.functional_calls
            counts["bm.L_max"] = max(counts["bm.L_max"], result.stats.L_max)

        self._patch(fileio, "load_points", spanned("fileio.load_points", fileio.load_points))
        self._patch(
            fileio,
            "serialize_result",
            spanned("fileio.serialize_result", fileio.serialize_result, count_bytes),
        )
        self._patch(
            projection,
            "bm_projected",
            spanned("projection.bm_projected", projection.bm_projected, count_terms),
        )
        self._patch(
            projection,
            "essential_variables",
            spanned(
                "projection.essential_variables",
                projection.essential_variables,
                count_dropped,
            ),
        )
        self._patch(projection, "lift", spanned("projection.lift", projection.lift))
        self._patch(projection, "bm", spanned("bm.bm", projection.bm, count_bm))
        combine = spanned("poly.combine", bm_mod.combine)
        self._patch(bm_mod, "combine", combine)
        self._patch(projection, "combine", combine)

        for meth in ("reduce", "insert"):

            def method(acc, *args, _fn=getattr(acc_cls, meth), _name=f"linalg.{meth}", **kw):
                before = acc.field_ops
                out = self.call(_name, _fn, (acc,) + args, kw)
                counts["linalg.field_ops"] += acc.field_ops - before
                return out

            self._patch(acc_cls, meth, method)

        merge = bm_mod.merge_with_sources

        def merge_with_sources(items_a, deltas_a, items_b, deltas_b, n):
            out = self.call(
                "deltamerge.merge_with_sources",
                merge,
                (items_a, deltas_a, items_b, deltas_b, n),
            )
            counts["deltamerge.element_cmps"] += out[3]
            counts["deltamerge.delta_cmps"] += out[4]
            naive_items, naive_cost = self.call(REPLAY, naive_merge, (items_a, items_b))
            counts["deltamerge.naive_cmps"] += naive_cost
            if naive_items != out[0]:
                self.replay_mismatches += 1
            return out

        self._patch(bm_mod, "merge_with_sources", merge_with_sources)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def summarize(spans):
    """Times per layer metric, call counts and replay time of a span list.

    A span's self time is its duration minus the durations of its children.
    """
    child = defaultdict(float)
    for _sid, _inst, _name, parent, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    seconds = dict.fromkeys([*SELF_METRIC.values(), *INCLUSIVE_METRIC.values()], 0.0)
    calls = dict.fromkeys(CALL_METRIC.values(), 0)
    replay_s = 0.0
    for sid, _inst, name, _parent, start, end in spans:
        if name == REPLAY:
            replay_s += end - start
            continue
        seconds[SELF_METRIC[name]] += end - start - child[sid]
        if name in INCLUSIVE_METRIC:
            seconds[INCLUSIVE_METRIC[name]] += end - start
        if name in CALL_METRIC:
            calls[CALL_METRIC[name]] += 1
    return seconds, calls, replay_s
