"""``bench_record.py``: traced counters compared with a record, and ``--real``.

Hand-written records stand in for the benchmark runs, so nothing here runs
``perfbench/``.  ``--real`` runs one small substituted case through the CLI.
"""

import copy
import hashlib
import importlib.util
import json
import random
import re
from pathlib import Path

import pytest

from pointideal import fileio, orders
from pointideal._oracles import random_point_set
from pointideal.certify import VerificationError
from pointideal.fields import PrimeField
from pointideal.projection import bm_projected

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


def _gf7(rng):
    return random_point_set(rng, PrimeField(7), 2, 5)


GF7_CASE = {"gf7 (2, 5) lex": ("lex", _gf7)}


def test_real_records_each_case_run_by_the_cli_in_a_child(tmp_path, monkeypatch):
    _fake_checkout(tmp_path, monkeypatch, 7)
    monkeypatch.setattr(bench_record, "REAL_CASES", GF7_CASE)
    assert bench_record.main(["t", "--real"]) == 0
    case = json.loads((tmp_path / "BENCH_t.json").read_text())["real"]["gf7 (2, 5) lex"]
    points = _gf7(random.Random(bench_record.SEED))
    result = bm_projected(points, orders.lex(2))
    document = fileio.serialize_result(result) + "\n"
    assert case.pop("result_sha256") == hashlib.sha256(document.encode()).hexdigest()
    stats, expected = case.pop("stats"), result.stats.to_dict()
    assert stats.pop("wall_time") > 0 and stats == {k: v for k, v in expected.items() if k != "wall_time"}
    assert case.pop("verify_result") == "pass"
    assert case.pop("wall_s")["value"] > 0 and case.pop("peak_rss_mb")["value"] > 0
    assert case == {"field": "GF(7)", "n": 2, "m": 5, "order": "lex"}


def _refuted(result, points):
    raise VerificationError("refuted")


@pytest.mark.parametrize("fault", ["child exit", "verdict"])
def test_a_failed_real_case_writes_no_record(tmp_path, monkeypatch, capsys, fault):
    _fake_checkout(tmp_path, monkeypatch, 7)
    if fault == "child exit":
        monkeypatch.setattr(bench_record, "REAL_CASES", {"bad order": ("lex:9", _gf7)})
        message = "real bad order: exit 1"
    else:
        monkeypatch.setattr(bench_record, "REAL_CASES", GF7_CASE)
        monkeypatch.setattr(bench_record, "verify_result", _refuted)
        message = "real gf7 (2, 5) lex: verify_result: refuted"
    assert bench_record.main(["t", "--real"]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_ci_expects_a_committed_record_that_readme_names():
    # the record CI's smoke run is held to is at the root, and README's
    # account of that step names the same one
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    expected = re.findall(r"bench_record\.py ci .*--expect (\S+)", workflow)
    assert len(expected) == 1 and (ROOT / expected[0]).is_file(), expected
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert f"bench_record.py ci --seconds 1 --expect {expected[0]}" in readme
    assert set(re.findall(r"--expect (BENCH_\w+\.json)", readme)) == set(expected)
