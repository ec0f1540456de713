"""Command-line front end.

Subcommands::

    basis        compute G and B for a point-set file, in the essential variables
    merge        merge two sorted tuple-list files, showing the memo sequence
    bench-spoly  comparison-count benchmark on a structured merge family
    selftest     check known answers and the naive merge; certify seeded runs

Exit codes: 0 success, 1 validation error, 2 parse error or a file that
cannot be read or written, 3 selftest failure.  ``main(argv)`` may be called
many times in one process; it builds its parser once, on the first call.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from . import fileio, orders, projection
from .deltamerge import ArityMismatch, BACKEND, DeltaList
from .fields import FieldError, read_integer
from .oracles import naive_merge

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_SELFTEST = 3
SPOLY_MAX_S = 1000


def build_spoly_lists(s: int):
    """The benchmark merge family: one probe tuple against s-2 host tuples.

    In 2s variables under graded reverse order, the probe agrees with every
    host tuple on the first s+1 entries while consecutive host tuples differ
    late, so the memoized merge pays the long common prefix once and the
    entrywise merge pays it s-2 times.  Returns (a_items, b_items) of
    ascending order vectors (negated so they ascend).  s runs from 3 to
    ``SPOLY_MAX_S``; a larger s is refused before anything is built.

    Each monomial has at most three nonzero exponents, all on x_2 .. x_n,
    and column i >= 2 of the degrevlex matrix (rows (1, ..., 1), -e_n, ...,
    -e_2) is 1 in entry 0 and -1 in entry n+1-i: O(s) per tuple, where the
    matrix alone is O(s^2), and no matrix is built.
    """
    if not 3 <= s <= SPOLY_MAX_S:
        raise ValueError(f"s must be between 3 and {SPOLY_MAX_S}")
    n = 2 * s

    def neg_ov(pairs):
        ov = [0] * n
        # a variable listed twice has the later exponent (s = 4 lists x_3 twice)
        for var, e in dict(pairs).items():
            ov[0] -= e
            ov[n + 1 - var] += e
        return tuple(ov)

    a_items = [neg_ov([(2, 2), (s, 1)])]
    b_items = [neg_ov([(2, 1), (3, 2)])]
    if s >= 5:
        b_items.append(neg_ov([(3, 2), (4, 1)]))
    for j in range(3, s - 2):
        b_items.append(neg_ov([(3, 1), (j + 1, 1), (j + 2, 1)]))
    if s >= 4:
        b_items.append(neg_ov([(3, 1), (s - 1, 2)]))
    return a_items, b_items


def cmd_basis(args) -> int:
    points = fileio.load_points(args.points_file)
    spec = fileio.parse_order(args.order, points.n)
    result = projection.bm_projected(points, spec)
    text = fileio.serialize_result(result)
    if args.out:
        with Path(args.out).open("w") as out:
            out.write(text)
            out.write("\n")
    else:
        print(text)
    if args.stats:
        Path(args.stats).write_text(
            json.dumps(result.stats.to_dict(), indent=2) + "\n"
        )
    return EXIT_OK


def cmd_merge(args) -> int:
    items_a = fileio.load_merge_list(args.list_a)
    items_b = fileio.load_merge_list(args.list_b)
    if items_a and items_b and len(items_a[0]) != len(items_b[0]):
        raise ArityMismatch("the two lists have different tuple arities")
    arity = len(items_a[0]) if items_a else (len(items_b[0]) if items_b else 0)
    da = DeltaList.from_items(items_a, arity=arity)
    db = DeltaList.from_items(items_b, arity=arity)
    merged = da.merge(db)
    for it in merged.items:
        print(",".join(map(str, it)))
    print(f"deltas: {','.join(map(str, merged.deltas))}".rstrip())
    print(f"element_cmps: {merged.element_cmps}")
    print(f"delta_cmps: {merged.delta_cmps}")
    return EXIT_OK


def cmd_bench_spoly(args) -> int:
    s = args.s
    a_items, b_items = build_spoly_lists(s)
    n = 2 * s
    da = DeltaList.from_items(a_items, arity=n)
    db = DeltaList.from_items(b_items, arity=n)
    merged = da.merge(db)
    _expect, naive_cost = naive_merge(a_items, b_items)
    report = {
        "s": s,
        "n": n,
        "backend": BACKEND,
        "delta": {
            "element_cmps": merged.element_cmps,
            "delta_cmps": merged.delta_cmps,
            "total": merged.element_cmps + merged.delta_cmps,
        },
        "naive": {"element_cmps": naive_cost},
    }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from ._selftest import run_selftest

    failures = run_selftest(seed=args.seed)
    if failures:
        print(f"selftest: {failures} failure(s)", file=sys.stderr)
        return EXIT_SELFTEST
    print("selftest: all checks passed")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pointideal",
        description="Gröbner bases of vanishing ideals of finite point sets.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("basis", help="compute G and B for a point-set file")
    b.add_argument("points_file")
    b.add_argument("--order", default="lex", help="order spec, e.g. deglex:2,1,3")
    # hidden, ignored: frozen perfbench/workloads.py passes it; ROADMAP item 5 drops both
    b.add_argument("--project", choices=("auto",), help=argparse.SUPPRESS)
    b.add_argument("--out", help="result file (default: stdout)")
    b.add_argument("--stats", help="also write run statistics to this file")
    b.set_defaults(func=cmd_basis)

    m = sub.add_parser("merge", help="merge two sorted tuple-list files")
    m.add_argument("list_a")
    m.add_argument("list_b")
    m.set_defaults(func=cmd_merge)

    s = sub.add_parser("bench-spoly", help="comparison-count benchmark")
    s.add_argument("--s", type=read_integer, required=True, help=f"size parameter, 3 to {SPOLY_MAX_S}")
    s.set_defaults(func=cmd_bench_spoly)

    t = sub.add_parser("selftest", help="run the built-in checks")
    t.add_argument("--seed", type=read_integer, default=0)
    t.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (fileio.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (orders.OrderError, FieldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
