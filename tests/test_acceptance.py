"""Acceptance gate: one test per acceptance criterion, with runtime limits.

Each test prints a single PASS line on success; a failure raises with the
offending instance in the message.
"""

import json
import random
import time

import pytest

from conftest import check_result_invariants
from pointideal import orders
from pointideal._oracles import naive_deltas
from pointideal._selftest import (
    GOLDEN_B,
    GOLDEN_ESS,
    GOLDEN_MERGE_A,
    GOLDEN_MERGE_B,
    GOLDEN_MERGE_DELTAS,
    GOLDEN_MERGE_ITEMS,
    GOLDEN_POINTS,
    GOLDEN_PROJECTED,
    golden_G,
    golden_sub_G,
)
from pointideal.bm import bm
from pointideal.cli import main
from pointideal.deltamerge import DeltaList, compare_from
from pointideal.oracles import naive_merge
from pointideal.projection import essential_variables, project


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds {self.limit}s"
            )


def ok(msg):
    print(f"PASS {msg}")


def test_criterion_1_golden_basis(capsys, tmp_path):
    """Golden five-variable instance through the CLI, with intermediates."""
    with Timer(1.0):
        pts_file = tmp_path / "points.json"
        pts_file.write_text(
            json.dumps(
                {
                    "field": {"type": "rational"},
                    "n": 5,
                    "points": [
                        ["1", "1", "0", "1", "0"],
                        ["2", "2", "1", "1", "1"],
                        ["2", "0", "1", "1", "-1"],
                        ["5", "3", "4", "1", "2"],
                    ],
                }
            )
        )
        code = main(
            ["basis", str(pts_file), "--order", "lex", "--project", "on"]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        spec = orders.lex(5)
        assert doc["B"] == [list(b) for b in GOLDEN_B]
        assert doc["G"] == [
            [["%s" % c, list(m)] for c, m in g.terms] for g in golden_G(spec)
        ]
        # intermediates of the projected pipeline
        es = essential_variables(GOLDEN_POINTS, spec)
        assert es.ess == GOLDEN_ESS
        sub_pts = project(GOLDEN_POINTS, es)
        assert sub_pts.points == GOLDEN_PROJECTED
        sub_spec = orders.restrict(spec, es.ess)
        sub = bm(sub_pts, sub_spec)
        assert sub.G == golden_sub_G(sub_spec)
    with capsys.disabled():
        ok("criterion 1: golden basis instance incl. projection intermediates")


def test_criterion_2_golden_merge(capsys):
    """Known merge instance: exact order and memo sequence."""
    with Timer(0.1):
        a = DeltaList.from_items(GOLDEN_MERGE_A)
        b = DeltaList.from_items(GOLDEN_MERGE_B)
        c = a.merge(b)
        assert c.items == GOLDEN_MERGE_ITEMS
        assert tuple(c.deltas) == GOLDEN_MERGE_DELTAS
    with capsys.disabled():
        ok("criterion 2: golden merge instance, memo sequence (3,4,3,1,2,4,4,6,1)")


def test_criterion_3_bench_counters(capsys):
    """Benchmark family: memoized counters linear, naive quadratic."""
    with Timer(1.0):
        def run(s):
            code = main(["bench-spoly", "--s", str(s)])
            out = capsys.readouterr().out
            assert code == 0
            doc = json.loads(out)
            return doc["delta"]["total"], doc["naive"]["element_cmps"]

        d10, n10 = run(10)
        assert d10 <= 29, d10
        assert n10 == 96, n10
        d50, n50 = run(50)
        d100, n100 = run(100)
        assert d100 / d50 < 2.5, (d50, d100)
        assert n100 / n50 > 3.5, (n50, n100)
    with capsys.disabled():
        ok(
            "criterion 3: bench counters "
            f"(s=10: delta {d10} <= 29, naive {n10} == 96; "
            f"doubling ratios {d100 / d50:.2f} / {n100 / n50:.2f})"
        )


def test_criterion_4_merge_bound(capsys):
    """1000 seeded merges: comparison bound and naive-oracle equality."""
    with Timer(10.0):
        rng = random.Random(1000)
        for k in range(1000):
            n = rng.randint(1, 12)
            def rnd():
                return sorted(
                    tuple(rng.randint(0, 20) for _ in range(n))
                    for _ in range(rng.randint(0, 60))
                )

            la, lb = rnd(), rnd()
            c = DeltaList.from_items(la, arity=n).merge(
                DeltaList.from_items(lb, arity=n)
            )
            expect, _cost = naive_merge(la, lb)
            s, t = len(la), len(lb)
            assert c.items == expect, f"instance {k}"
            assert c.deltas == naive_deltas(expect), f"instance {k}"
            assert c.element_cmps <= max(s, t) + min(s, t) * n, f"instance {k}"
    with capsys.disabled():
        ok("criterion 4: 1000 seeded merges within bound, equal to naive oracle")


def test_criterion_5_variant_agreement(capsys, variant_corpus):
    """The library loop agrees with the Abbott-style oracle; full invariant suite per run."""
    with Timer(60.0):
        assert len(variant_corpus) >= 200
        for k, (points, spec, r_mmm, r_abb) in enumerate(variant_corpus):
            assert r_mmm.B == r_abb.B and r_mmm.G == r_abb.G, f"instance {k}"
            check_result_invariants(r_mmm, points)
    with capsys.disabled():
        ok(f"criterion 5: oracle agreement + invariants on {len(variant_corpus)} runs")


def test_criterion_6_projection_equivalence(capsys, projection_corpus):
    """Projected pipeline equals the direct run on every m < n instance."""
    with Timer(60.0):
        assert len(projection_corpus) >= 200
        for k, (points, spec, direct, piped) in enumerate(projection_corpus):
            assert piped.B == direct.B, f"instance {k}"
            assert piped.G == direct.G, f"instance {k}"
            es = essential_variables(points, spec)
            assert len(es.ess) <= min(points.m - 1, points.n), f"instance {k}"
            ess_set = set(es.ess)
            for b in direct.B:
                for i, e in enumerate(b, start=1):
                    if e:
                        assert i in ess_set, f"instance {k}"
    with capsys.disabled():
        ok(
            "criterion 6: projection pipeline equals direct run on "
            f"{len(projection_corpus)} instances"
        )


def test_criterion_7_basis_count_bound(capsys, variant_corpus, projection_corpus):
    """|G| stays within the arithmetic-complexity bound on every run."""
    with Timer(60.0):
        runs = [(p, r) for p, _s, r, _a in variant_corpus]
        runs += [(p, r) for p, _s, r, _pp in projection_corpus]
        for k, (points, res) in enumerate(runs):
            n, m = points.n, points.m
            bound = n + min(n, m - 1) * m + 1
            assert len(res.G) <= bound, f"instance {k}: {len(res.G)} > {bound}"
    with capsys.disabled():
        ok(f"criterion 7: |G| bound holds on {len(runs)} runs")


def test_criterion_9_matrix_order_fidelity(capsys):
    """Standard-order matrices replicate the built-in kinds exhaustively."""
    with Timer(10.0):
        n, max_deg = 3, 10
        monos = [
            (a, b, c)
            for a in range(max_deg + 1)
            for b in range(max_deg + 1 - a)
            for c in range(max_deg + 1 - a - b)
        ]
        pairs = 0
        for kind in ("lex", "deglex", "degrevlex"):
            std = orders.OrderSpec(n, kind)
            mat = orders.matrix_order(orders.standard_matrix(kind, n))
            std_ov = {m: orders.order_vector(std, m) for m in monos}
            mat_ov = {m: orders.order_vector(mat, m) for m in monos}
            for x in monos:
                for y in monos:
                    _d1, s1, _ = compare_from(std_ov[x], std_ov[y], 1, n)
                    _d2, s2, _ = compare_from(mat_ov[x], mat_ov[y], 1, n)
                    assert s1 == s2, (kind, x, y)
                    pairs += 1
    with capsys.disabled():
        ok(f"criterion 9: matrix orders match standard kinds on {pairs} pairs")
