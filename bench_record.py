"""Record the benchmark of this checkout in BENCH_<LABEL>.json.

    python3 bench_record.py LABEL [--seconds S] [--expect FILE]

For every workload that BENCHMARK.json declares, this runs
``perfbench/run.py --workload W --seed 1`` twice, each in its own process
from the root of the checkout: with ``--trace 0`` for the end-to-end
metrics, and with ``--trace 1`` for the time of each layer and the
counters.  ``--seconds`` is passed on to every run; without it each run
takes the benchmark's default length.

Every run must exit 0 and report ``"correct": true`` with no failed
instance: its outputs passed the independent verifier, matched the digests
in ``perfbench/digests.json`` and, traced, kept the counters equal across
passes.  Otherwise nothing is written and the exit code is 1.

The file holds the label, the commit the checkout is on and whether its
sources differ from it, the hash of ``src/pointideal``, the Python version,
the core count and, per workload, the metrics as {name: {value, unit}}.

With ``--expect FILE``, every counter of every workload in the new file is
then compared with FILE, an earlier record: each difference is printed, and
any difference makes the exit code 1.  Counters are per pass, so a short
run must reproduce a full-length record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SEED = 1


def run(workload: str, trace: int, seconds):
    """(env, result) of one benchmark run; None, reported, if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
        result = json.loads(lines[-1])
    except (StopIteration, IndexError, ValueError):
        env = result = None
    if proc.returncode == 0 and isinstance(result, dict) and result.get("correct") is True \
            and result.get("failed") == 0:
        return env, result
    print(f"{workload} --trace {trace}: exit {proc.returncode}, not correct with no failure",
          file=sys.stderr)
    print(proc.stderr[-2000:], file=sys.stderr)
    return None


def counter_drift(expected: dict, recorded: dict) -> list:
    """One line per (workload, counter) whose value differs between two records."""

    def counters(doc):
        return {(w, k): v["value"] for w, run in doc["workloads"].items()
                for k, v in run["counters"].items()}

    ref, new = counters(expected), counters(recorded)
    return [f"{w} {k}: {ref.get((w, k), 'missing')} expected, {new.get((w, k), 'missing')} now"
            for w, k in sorted(set(ref) | set(new)) if ref.get((w, k)) != new.get((w, k))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label")
    ap.add_argument("--seconds", type=float, help="length of each run (default: the benchmark's)")
    ap.add_argument("--expect", type=Path, help="exit 1 unless every counter equals this record's")
    args = ap.parse_args(argv)
    expected = json.loads(args.expect.read_text()) if args.expect else None

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, env = {}, None
    for w in (entry["name"] for entry in declared["workloads"]):
        runs = [run(w, trace, args.seconds) for trace in (0, 1)]
        if None in runs:
            return 1
        (env, plain), (_env, traced) = runs
        layers = traced["metrics"]
        workloads[w] = {
            "attempted": [plain["attempted"], traced["attempted"]],
            "end_to_end": plain["metrics"],
            "per_layer": {k: v for k, v in layers.items() if v["unit"] == "s"},
            "counters": {k: v for k, v in layers.items() if v["unit"] != "s"},
        }
    changed = subprocess.run(
        ["git", "status", "--porcelain", "--", "src"], cwd=ROOT, capture_output=True, text=True
    ).stdout
    doc = {
        "label": args.label,
        "git_sha": env["git_sha"],
        "src_differs_from_commit": bool(changed.strip()),
        "src_sha256": env["src_sha256"],
        "python": env["python"],
        "nproc": env["nproc"],
        "seed": SEED,
        "seconds": env["seconds"],
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}")
    if expected is None:
        return 0
    drift = counter_drift(expected, doc)
    counted = sum(len(run["counters"]) for run in workloads.values())
    print("\n".join(drift) or f"{counted} counters equal {args.expect}")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
