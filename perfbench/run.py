"""Seeded end-to-end benchmark of `pointideal basis`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gfp-random --seed 1 --seconds 25 --trace 0

Set-up imports pointideal from ``src/`` and writes the seeded point files.
The measured loop is closed: it runs every instance of the workload in turn
through ``pointideal.cli.main(["basis", ...])`` in this process, and starts
the next pass only when the previous one has ended, until ``--seconds`` have
passed.  Every output is checked outside the timed region: the first pass
runs the independent verifier on each result and, for the default seed,
compares its digest with the recorded one; later passes must reproduce the
verified digest.

With ``--trace 0`` the end-to-end metrics are printed.  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics of the
fastest traced pass are printed.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import tracer as tracing
import verify
import workloads
from reference import NOMINAL_S, reference

DEFAULT_SEED = 1
SETUP_REPS = 9
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DECLARED = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class Case:
    """One instance: its generated points, the command line and its output file."""

    def __init__(self, inst, points, src, out):
        self.inst, self.points, self.out = inst, points, out
        self.argv = [
            "basis", str(src), "--order", inst.order,
            "--project", inst.project, "--out", str(out),
        ]
        self.digest = None  # digest of the verified output


def set_up(root: Path, workload: str, seed: int, work: Path):
    """Import pointideal afresh, then generate and write the inputs."""
    for name in [k for k in sys.modules if k.split(".")[0] == "pointideal"]:
        del sys.modules[name]
    cli = importlib.import_module("pointideal.cli")
    cases = []
    for i, (inst, points) in enumerate(workloads.generate(workload, seed)):
        src = work / f"in{i}.json"
        src.write_text(workloads.points_document(inst, points))
        cases.append(Case(inst, points, src, work / f"out{i}.json"))
    return cli, cases


def run_pass(cli, cases, tracer=None, label=""):
    """Seconds per instance, seconds of the reference run just before each,
    and the error text of each failed instance."""
    times, refs, errors = [], [], {}
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.instance = f"{label}.i{i}"
        t0 = perf_counter()
        reference()
        refs.append(perf_counter() - t0)
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = cli.main(case.argv)
            else:
                rc = tracer.call("cli.main", cli.main, (case.argv,))
        except Exception:  # one failed instance must not stop the run
            rc, errors[i] = None, traceback.format_exc()
        times.append(perf_counter() - t0)
        if rc not in (0, None):
            errors[i] = f"pointideal basis exited with code {rc}"
    return times, refs, errors


def check_outputs(cases, errors, recorded, tamper):
    """Verify each output not already failed; returns the number that fail."""
    failed = len(errors)
    for i, case in enumerate(cases):
        if i in errors:
            continue
        try:
            doc = json.loads(case.out.read_text())
            if tamper:
                verify.tamper(doc, case.inst.field)
                tamper = False
            d = verify.digest(doc)
            if case.digest is None:
                verify.verify(doc, case.inst, case.points)
                if recorded is not None and d != recorded[i]:
                    raise verify.VerifyError("output differs from the recorded digest")
                case.digest = d
            elif d != case.digest:
                raise verify.VerifyError("output differs from the verified one")
        except (verify.VerifyError, OSError, ValueError, KeyError, TypeError) as exc:
            errors[i] = f"{type(exc).__name__}: {exc}"
            failed += 1
    for i, err in errors.items():
        print(f"instance {i} failed: {err}", file=sys.stderr)
    return failed


def git_sha(root: Path):
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args, cases):
    import pointideal

    src = sha256()
    for path in sorted((root / "src" / "pointideal").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "backend": pointideal.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "src_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": [asdict(c.inst) for c in cases],
    }


class Run:
    """Closed loop over the cases; with trace, untraced and traced passes alternate."""

    def __init__(self, cli, cases, recorded, tamper):
        self.cli, self.cases, self.recorded, self.tamper = cli, cases, recorded, tamper
        self.plain, self.traced, self.spans, self.problems = [], [], [], []
        self.attempted = self.failed = 0
        self.peak_rss_mb = None

    def one_pass(self, traced: bool):
        tracer = tracing.Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            label = f"p{len(self.plain) + len(self.traced)}"
            times, refs, errors = run_pass(self.cli, self.cases, tracer, label)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.peak_rss_mb is None:
            # before the verifier's own allocations raise the process peak
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tamper = self.tamper and not self.attempted
        self.attempted += len(self.cases)
        self.failed += check_outputs(self.cases, errors, self.recorded, tamper)
        if tracer is None:
            self.plain.append({"wall": sum(times), "times": times, "refs": refs})
            return
        seconds, calls, replay_s = tracing.summarize(tracer.spans)
        self.traced.append({
            "wall": sum(times) - replay_s,
            "refs": refs,
            "seconds": seconds,
            "replay_s": replay_s,
            "counts": {**calls, **tracer.counts},
        })
        self.spans.extend(tracer.spans)
        if tracer.replay_mismatches:
            self.problems.append(f"{tracer.replay_mismatches} merges differ from naive_merge")

    def end_to_end(self, setup_ratios):
        """Times are medians in units of the reference run, scaled to seconds
        at the reference's nominal speed (see reference.py)."""
        per_instance = [
            statistics.median(t / r for t, r in pairs) * NOMINAL_S
            for pairs in zip(*(zip(p["times"], p["refs"]) for p in self.plain))
        ]
        by_shape = {}
        for case, seconds in zip(self.cases, per_instance):
            by_shape.setdefault(case.inst, []).append(seconds)
        return {
            "wall_s": sum(per_instance),
            "slowest_instance_s": max(statistics.mean(v) for v in by_shape.values()),
            "setup_s": statistics.median(setup_ratios) * NOMINAL_S,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self):
        for name in self.traced[0]["counts"]:
            # bytes_out varies with the digits of the written wall_time stat
            seen = {t["counts"][name] for t in self.traced}
            if name != "fileio.bytes_out" and len(seen) > 1:
                self.problems.append(f"{name} differs between traced passes: {sorted(seen)}")
        best = min(self.traced, key=lambda t: t["wall"])
        metrics = {**best["seconds"], **best["counts"]}
        naive = metrics["deltamerge.naive_cmps"]
        memo = metrics["deltamerge.element_cmps"] + metrics["deltamerge.delta_cmps"]
        metrics["deltamerge.cmps_per_naive"] = memo / naive if naive else 0.0
        metrics["trace.wall_s"] = best["wall"]
        metrics["trace.replay_s"] = best["replay_s"]
        # in reference units, like the end-to-end times: on a shared machine
        # raw pass times differ by more than the tracing costs
        def scaled(passes):
            return statistics.median(p["wall"] / statistics.median(p["refs"]) for p in passes)

        metrics["trace.overhead_s"] = (scaled(self.traced) - scaled(self.plain)) * NOMINAL_S
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--tamper", action="store_true",
        help="change one G coefficient of the first output; the run must then fail",
    )
    ap.add_argument(
        "--record", action="store_true",
        help="run one pass with the default seed and record its verified digests",
    )
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pointideal" / "__init__.py").is_file():
        print(f"error: no pointideal sources under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_ratios = []  # set-up time over the time of the reference run before it
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        cli, cases = set_up(root, args.workload, args.seed, work)
        setup_ratios.append((perf_counter() - t1) / (t1 - t0))
    if args.record:
        return record(cli, cases, args)

    recorded, problems = None, []
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(DIGESTS.read_text()).get(args.workload)
        if recorded is None:
            problems.append(f"no recorded digests for {args.workload}")
    run = Run(cli, cases, recorded, args.tamper)
    deadline = perf_counter() + args.seconds
    while not run.plain or perf_counter() < deadline or (args.trace and len(run.traced) < 2):
        run.one_pass(traced=args.trace == 1 and len(run.plain) > len(run.traced))

    if args.trace == 0:
        metrics, kind = run.end_to_end(setup_ratios), "end_to_end"
    else:
        metrics, kind = run.per_layer(), "per_layer"
        with open(work / "spans.jsonl", "w") as fh:
            for span in run.spans:
                fh.write(json.dumps(span) + "\n")
    units = {m["name"]: m["unit"] for m in json.loads(DECLARED.read_text())[kind]}
    if set(metrics) != set(units):
        problems.append(f"metrics differ from the {kind} list in BENCHMARK.json")
    problems += run.problems
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    env = environment(root, args, cases)
    for name, value in metrics.items():
        print(f"{name} {value} {units.get(name)}")
    print("env " + json.dumps(env))
    result = {
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {"env": env, "result": result, "plain": run.plain, "traced": run.traced}, indent=1
    ))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def record(cli, cases, args) -> int:
    """Verify one pass with the default seed and store its digests."""
    if args.seed != DEFAULT_SEED:
        print(f"error: digests are recorded for seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2
    _times, _refs, errors = run_pass(cli, cases)
    if check_outputs(cases, errors, None, False):
        return 1
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[args.workload] = [c.digest for c in cases]
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} digests for {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
