"""``bench_record.py --expect``: traced counters compared with a record.

Hand-written records stand in for the benchmark runs, so nothing here runs
``perfbench/``.
"""

import copy
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

RECORD = {
    "workloads": {
        "w1": {"counters": {"bm.L_max": {"value": 40, "unit": "count"},
                            "deltamerge.cmps_per_naive": {"value": 0.25, "unit": "ratio"}}},
        "w2": {"counters": {"bm.L_max": {"value": 7, "unit": "count"}}},
    }
}


def test_equal_records_have_no_drift():
    assert bench_record.counter_drift(RECORD, copy.deepcopy(RECORD)) == []


def test_a_changed_counter_is_named_with_both_values():
    new = copy.deepcopy(RECORD)
    new["workloads"]["w1"]["counters"]["deltamerge.cmps_per_naive"]["value"] = 0.5
    assert bench_record.counter_drift(RECORD, new) == [
        "w1 deltamerge.cmps_per_naive: 0.25 expected, 0.5 now"
    ]


def test_a_missing_or_extra_counter_is_drift():
    new = copy.deepcopy(RECORD)
    del new["workloads"]["w2"]["counters"]["bm.L_max"]
    new["workloads"]["w1"]["counters"]["poly.G_terms"] = {"value": 3, "unit": "count"}
    assert bench_record.counter_drift(RECORD, new) == [
        "w1 poly.G_terms: missing expected, 3 now",
        "w2 bm.L_max: 7 expected, missing now",
    ]


def _fake_checkout(tmp_path, monkeypatch, l_max):
    """A checkout with one workload whose runs report ``bm.L_max`` = l_max."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "w2"}]}))
    env = {"git_sha": "0" * 40, "src_sha256": "0" * 64, "python": "3", "nproc": 1, "seconds": 1}
    metrics = {"wall_s": {"value": 0.1, "unit": "s"},
               "bm.L_max": {"value": l_max, "unit": "count"}}
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    monkeypatch.setattr(bench_record, "run",
                        lambda w, trace, seconds: (env, {"attempted": 1, "metrics": metrics}))
    expect = tmp_path / "BENCH_ref.json"
    expect.write_text(json.dumps({"workloads": {"w2": RECORD["workloads"]["w2"]}}))
    return expect


def test_expect_exits_1_on_drift_after_writing_the_record(tmp_path, monkeypatch, capsys):
    expect = _fake_checkout(tmp_path, monkeypatch, 8)
    assert bench_record.main(["t", "--expect", str(expect)]) == 1
    assert "w2 bm.L_max: 7 expected, 8 now" in capsys.readouterr().out
    assert json.loads((tmp_path / "BENCH_t.json").read_text())["workloads"]["w2"]["counters"] == {
        "bm.L_max": {"value": 8, "unit": "count"}
    }


def test_expect_exits_0_when_every_counter_is_equal(tmp_path, monkeypatch, capsys):
    expect = _fake_checkout(tmp_path, monkeypatch, 7)
    assert bench_record.main(["t", "--expect", str(expect)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"1 counters equal {expect}"


def test_ci_expects_a_committed_record_that_readme_names():
    # the record CI's smoke run is held to is at the root, and README's
    # account of that step names the same one
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    expected = re.findall(r"bench_record\.py ci .*--expect (\S+)", workflow)
    assert len(expected) == 1 and (ROOT / expected[0]).is_file(), expected
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert f"bench_record.py ci --seconds 1 --expect {expected[0]}" in readme
    assert set(re.findall(r"--expect (BENCH_\w+\.json)", readme)) == set(expected)
