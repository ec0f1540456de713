"""CLI commands, file formats, and exit codes."""

import argparse
import importlib.util
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pointideal
from conftest import dependent_point_set
from pointideal import fileio, orders
from pointideal._oracles import random_point_set
from pointideal._selftest import GOLDEN_B, GOLDEN_POINTS, golden_G
from pointideal.bm import RunStats, bm
from pointideal.certify import verify_result
from pointideal.cli import build_spoly_lists, main
from pointideal.fields import EXCERPT, PrimeField, QQ
from pointideal.linalg import PackedRows
from pointideal.oracles import naive_merge
from pointideal.poly import Polynomial
from pointideal.projection import bm_projected

GOLDEN_POINTS_JSON = """
{"field": {"type": "rational"}, "n": 5,
 "points": [["1","1","0","1","0"],
            ["2","2","1","1","1"],
            ["2","0","1","1","-1"],
            ["5","3","4","1","2"]]}
"""


@pytest.fixture
def points_file(tmp_path):
    p = tmp_path / "points.json"
    p.write_text(GOLDEN_POINTS_JSON)
    return p


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# basis

RESULT_KEYS = ["order", "field", "n", "B", "G"]


def expected_result_dict():
    spec = orders.lex(5)
    return {
        "B": [list(b) for b in GOLDEN_B],
        "G": [
            [[QQ.format(c), list(m)] for c, m in g.terms] for g in golden_G(spec)
        ],
    }


def test_basis_known_instance(capsys, points_file):
    code, out, _ = run_cli(capsys, "basis", str(points_file), "--order", "lex")
    assert code == 0
    doc = json.loads(out)
    exp = expected_result_dict()
    assert doc["B"] == exp["B"] and doc["G"] == exp["G"]


def test_basis_project_is_hidden_and_accepts_only_auto(capsys, points_file):
    # perfbench/workloads.py passes --project auto; the run is the same
    plain = run_cli(capsys, "basis", str(points_file), "--order", "lex")
    assert plain[0] == 0
    assert run_cli(capsys, "basis", str(points_file), "--order", "lex", "--project", "auto") == plain
    for project in ("on", "off"):
        with pytest.raises(SystemExit) as exc:
            main(["basis", str(points_file), "--project", project])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--help"])
    assert exc.value.code == 0 and "--project" not in capsys.readouterr().out


def test_basis_output_and_stats_files(capsys, points_file, tmp_path):
    out_file = tmp_path / "result.json"
    stats_file = tmp_path / "stats.json"
    code, out, _ = run_cli(
        capsys, "basis", str(points_file),
        "--out", str(out_file), "--stats", str(stats_file),
    )
    assert code == 0 and out == ""
    doc = json.loads(out_file.read_text())
    stats = json.loads(stats_file.read_text())
    # the run report goes to --stats alone
    assert list(doc) == RESULT_KEYS
    assert list(stats) == [
        "element_cmps", "delta_cmps", "field_ops", "functional_calls",
        "L_max", "n_essential", "wall_time",
    ]
    assert stats["functional_calls"] > 0 and type(stats["wall_time"]) is float


def test_basis_twice_writes_identical_bytes(capsys, tmp_path):
    # once the document held the run's wall time, so no two runs agreed
    pts = random_point_set(random.Random(5), PrimeField(32003), 5, 80)
    src = tmp_path / "points.json"
    src.write_text(fileio.serialize_points(pts))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert run_cli(capsys, "basis", str(src), "--order", "degrevlex", "--out", str(out))[0] == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_basis_bad_arity_names_row(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"field":{"type":"rational"},"n":2,"points":[["1","2"],["3"]]}')
    code, _, err = run_cli(capsys, "basis", str(p))
    assert code == 2
    assert "point 1" in err


def test_basis_boolean_n_is_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"field":{"type":"rational"},"n":true,"points":[["1"],["2"]]}')
    code, out, err = run_cli(capsys, "basis", str(p))
    assert code == 2 and out == ""
    assert "'n' must be a positive integer" in err


def test_basis_bad_json_position(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"field": \n oops}')
    code, _, err = run_cli(capsys, "basis", str(p))
    assert code == 2
    assert "line 2" in err


def test_basis_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "basis", str(tmp_path / "nope.json"))
    assert code == 2


# bytes no UTF-8 text has: a UTF-16 byte-order mark
NOT_UTF8 = b"\xff\xfe{\x00}\x00"


def test_basis_undecodable_points_file_is_parse_error(capsys, tmp_path):
    p = tmp_path / "utf16.json"
    # the offset of a bad byte after a UTF-8 byte-order mark counts the mark
    for data, at in ((NOT_UTF8, 0), ("\ufeff".encode() + NOT_UTF8, 3)):
        p.write_bytes(data)
        code, out, err = run_cli(capsys, "basis", str(p))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {p}: not UTF-8 text: byte {at}:")


def test_basis_undecodable_order_matrix_is_parse_error(capsys, points_file, tmp_path):
    grid = tmp_path / "A.txt"
    grid.write_bytes(NOT_UTF8)
    code, out, err = run_cli(capsys, "basis", str(points_file), "--order", f"matrix:{grid}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {grid}: not UTF-8 text: byte 0:")


def test_basis_bad_order(capsys, points_file, tmp_path):
    code, _, err = run_cli(capsys, "basis", str(points_file), "--order", "lex:1,1,3,4,5")
    assert code == 1
    code, _, err = run_cli(capsys, "basis", str(points_file), "--order", "zigzag")
    assert code == 1
    grid = tmp_path / "A.txt"
    grid.write_text("1 1 1 1 1\n1 0 x 0 0\n")
    code, _, err = run_cli(capsys, "basis", str(points_file), "--order", f"matrix:{grid}")
    assert code == 2 and "line 2" in err
    # matrix files whose size differs from the points' two variables
    two = tmp_path / "two.json"
    two.write_text('{"field":{"type":"prime","p":101},"n":2,"points":[[0,1],[1,0]]}')
    for text in ("1\n", "1 0 0\n0 1 0\n0 0 1\n", ""):
        grid.write_text(text)
        code, out, err = run_cli(capsys, "basis", str(two), "--order", f"matrix:{grid}")
        assert code == 1 and out == ""
        assert err.startswith("error: order matrix must be 2x2")


def test_basis_bad_order_perm_is_parse_error(capsys, tmp_path):
    two = tmp_path / "two.json"
    two.write_text('{"field":{"type":"prime","p":101},"n":2,"points":[[0,1],[1,0]]}')
    for order, pos in (("lex:a,b", 1), ("degrevlex:1,x", 2), ("deglex:2,,1", 2),
                       ("lex:\u0661,2", 1), ("lex:2,1_0", 2), ("lex:1,\u20032", 2)):
        code, out, err = run_cli(capsys, "basis", str(two), "--order", order)
        assert code == 2 and out == ""
        assert err.startswith(f"error: --order {order!r}: perm position {pos}: bad integer literal")


@pytest.mark.parametrize("order", ["matrix:", "matrix: \t "])
def test_basis_matrix_order_naming_no_file_is_parse_error(capsys, points_file, monkeypatch, order):
    # an empty path is Path(""), the working directory: nothing may be read
    code, out, err = run_cli(capsys, "basis", str(points_file), "--order", order)
    assert code == 2 and out == ""
    assert err == f"error: --order {order!r}: no matrix file is named\n"

    def refuse(path):
        raise AssertionError(f"read {path!r}")

    monkeypatch.setattr(fileio, "read_text", refuse)
    with pytest.raises(fileio.ParseError, match="no matrix file is named"):
        fileio.parse_order(order, 5)


def test_basis_bad_order_is_quoted_short(capsys, points_file):
    # a long --order is cut in the message, as every literal quoted there is
    for order, want in (("lex:" + "0" * 3000 + "x", 2), ("foo" + "x" * 3000, 1)):
        code, out, err = run_cli(capsys, "basis", str(points_file), "--order", order)
        assert code == want and out == "" and err.count("\n") == 1 and len(err) < 200
        assert f"{order[:EXCERPT]!r}... ({len(order)} characters)" in err


@pytest.mark.parametrize("field", [{"type": "rational"}, {"type": "prime", "p": 7}], ids=["QQ", "GFp"])
@pytest.mark.parametrize("literal", ["1_0", "\u0661\u0662", "2\u00a0"], ids=["underscore", "arabic-indic", "nbsp"])
def test_basis_reads_ascii_literals_only(capsys, tmp_path, field, literal):
    # a literal has one grammar: ASCII digits, and ASCII spaces around them
    p, grid = tmp_path / "points.json", tmp_path / "A.txt"
    p.write_text(json.dumps({"field": field, "n": 2, "points": [["0", "1"], ["2", literal]]}))
    code, out, err = run_cli(capsys, "basis", str(p))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {p}: point 1, coordinate 1: bad ")
    p.write_text(json.dumps({"field": field, "n": 2, "points": [[0, 1], [2, 3]]}))
    grid.write_text(f"1 1\n0 {literal}\n")
    code, out, err = run_cli(capsys, "basis", str(p), "--order", f"matrix:{grid}")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {grid}: line 2, entry 2: bad integer literal")


def test_basis_bad_modulus(capsys, tmp_path):
    p = tmp_path / "bad.json"
    for modulus in ("3.7", '"7"', "true"):
        p.write_text(f'{{"field":{{"type":"prime","p":{modulus}}},"n":1,"points":[[0]]}}')
        code, out, err = run_cli(capsys, "basis", str(p))
        assert code == 2 and out == ""
        assert "integer 'p'" in err
    p.write_text('{"field":{"type":"prime","p":15},"n":1,"points":[[0]]}')
    code, _, err = run_cli(capsys, "basis", str(p))
    assert code == 1 and "not prime" in err


def test_basis_overlong_integer_is_parse_error(capsys, tmp_path):
    # n, p and exponents must be ints; one longer than the interpreter's
    # int-conversion limit reads as its text, and is refused as text is
    big = "7" * 5000
    p = tmp_path / "big.json"
    for doc in (
        '{"field":{"type":"rational"},"n":' + big + ',"points":[["1"]]}',
        '{"field":{"type":"prime","p":' + big + '},"n":1,"points":[["1"]]}',
    ):
        p.write_text(doc)
        code, out, err = run_cli(capsys, "basis", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err) < 200
    with pytest.raises(fileio.ParseError, match="B\\[0\\]"):
        fileio.parse_result('{"order":"lex:1","field":{"type":"rational"},"n":1,"B":[[' + big + ']],"G":[]}', orders.lex(1))


@pytest.mark.parametrize(
    "field", [{"type": "rational"}, {"type": "prime", "p": 7}], ids=["QQ", "GFp"]
)
def test_basis_reads_a_bare_integer_of_any_length(capsys, tmp_path, field):
    # a bare JSON integer past the int-conversion limit reads like the quoted one
    big = "9" * 5000
    outs = []
    for cell in (big, '"' + big + '"'):
        p = tmp_path / "big.json"
        p.write_text('{"field":' + json.dumps(field) + ',"n":1,"points":[[0],[' + cell + "]]}")
        code, out, err = run_cli(capsys, "basis", str(p))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["B"] == [[0], [1]]


def test_basis_writes_and_reads_back_coefficients_of_any_length(capsys, tmp_path):
    # G holds x^2 - 10^6000, past the interpreter's limit on int-to-text digits
    p = tmp_path / "big.json"
    p.write_text('{"field":{"type":"rational"},"n":1,"points":[["1e3000"],["-1e3000"]]}')
    out = tmp_path / "out.json"
    code, _, err = run_cli(capsys, "basis", str(p), "--out", str(out))
    assert code == 0 and err == ""
    doc = json.loads(out.read_text())
    assert doc["G"] == [[["1", [2]], ["-1" + "0" * 6000, [0]]]]
    spec = orders.lex(1)
    res = bm_projected(fileio.load_points(p), spec)
    assert fileio.parse_result(out.read_text(), spec) == res
    assert fileio.parse_result(fileio.serialize_result(res), spec) == res


def test_basis_deeply_nested_json_is_parse_error(capsys, tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "basis", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


def test_basis_exponent_bomb_is_parse_error(capsys, tmp_path):
    p = tmp_path / "bomb.json"
    for literal in ("1e999999", "1e1000000000"):
        p.write_text('{"field":{"type":"rational"},"n":1,"points":[["' + literal + '"]]}')
        code, out, err = run_cli(capsys, "basis", str(p))
        assert code == 2 and out == ""
        assert "point 0, coordinate 0" in err


@pytest.mark.parametrize(
    "field", [{"type": "rational"}, {"type": "prime", "p": 32003}], ids=["QQ", "GFp"]
)
# a 20,000-digit integer is a rational coordinate, so the digits have a zero denominator
@pytest.mark.parametrize("cell", ["1/" + "0" * 19998, "x" * 20000], ids=["digits", "letters"])
def test_basis_long_bad_cell_gives_short_error(capsys, tmp_path, field, cell):
    p = tmp_path / "long.json"
    p.write_text(json.dumps({"field": field, "n": 2, "points": [["1", "2"], ["3", cell]]}))
    code, out, err = run_cli(capsys, "basis", str(p))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and len(line.encode()) < 200
    assert "point 1, coordinate 1" in line and "20000 characters" in line


def test_basis_long_field_type_gives_short_error(capsys, tmp_path):
    p = tmp_path / "long.json"
    for kind in ("x" * 20000, ["x"] * 20000):
        p.write_text(json.dumps({"field": {"type": kind}, "n": 1, "points": [["1"]]}))
        code, out, err = run_cli(capsys, "basis", str(p))
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert "unknown field type" in line and len(line.encode()) < 200


@pytest.mark.parametrize(
    "field, kind",
    [("[]", "an array"), ('"prime"', "a string"), ("7", "a number"), ("7.5", "a number"),
     ("null", "null"), ("true", "a boolean")],
)
def test_field_descriptor_that_is_not_an_object_is_parse_error(capsys, tmp_path, field, kind):
    message = f"the field descriptor must be an object, not {kind}"
    p = tmp_path / "points.json"
    p.write_text('{"field": %s, "n": 1, "points": [["1"]]}' % field)
    code, out, err = run_cli(capsys, "basis", str(p))
    assert code == 2 and out == "" and err == f"error: {p}: {message}\n"
    with pytest.raises(fileio.ParseError, match=f"^<result>: {message}$"):
        fileio.parse_result('{"field": %s, "B": [[0]], "G": []}' % field, orders.lex(1))


def test_basis_duplicate_points(capsys, tmp_path):
    p = tmp_path / "dup.json"
    p.write_text('{"field":{"type":"rational"},"n":1,"points":[["1"],["1"]]}')
    code, _, err = run_cli(capsys, "basis", str(p))
    assert code == 1


def test_basis_rational_numbers_keep_every_digit(capsys, tmp_path):
    # both literals are the same float; as rationals they are distinct points
    p = tmp_path / "close.json"
    p.write_text('{"field":{"type":"rational"},"n":1,"points":[[0.10000000000000001],[0.1]]}')
    assert fileio.load_points(p).points == ((Fraction("0.10000000000000001"),), (Fraction(1, 10),))
    code, out, _ = run_cli(capsys, "basis", str(p))
    assert code == 0
    assert json.loads(out)["B"] == [[0], [1]]


def test_basis_long_rational_number_is_exact(capsys, tmp_path):
    # through a float the first point read as 12345678901234567000
    p = tmp_path / "long.json"
    p.write_text('{"field":{"type":"rational"},"n":1,"points":[[12345678901234567890.5],[2]]}')
    code, out, _ = run_cli(capsys, "basis", str(p))
    assert code == 0
    a = Fraction("12345678901234567890.5")
    # (x - a)(x - 2) = x^2 - (a + 2) x + 2a
    (g,) = json.loads(out)["G"]
    assert g == [["1", [2]], [str(-(a + 2)), [1]], [str(2 * a), [0]]]


def test_basis_prime_field_rejects_decimal_number(capsys, tmp_path):
    p = tmp_path / "decimal.json"
    p.write_text('{"field":{"type":"prime","p":7},"n":1,"points":[[1.0],[2]]}')
    code, out, err = run_cli(capsys, "basis", str(p))
    assert code == 2 and out == ""
    assert err == f"error: {p}: point 0, coordinate 0: bad integer literal '1.0'\n"


# ---------------------------------------------------------------------------
# merge

# the UTF-8 byte-order mark that Notepad and PowerShell 5 write
BOM = "\ufeff".encode()


def test_basis_points_file_with_byte_order_mark(capsys, points_file, tmp_path):
    bom = tmp_path / "bom.json"
    bom.write_bytes(BOM + points_file.read_bytes())
    assert fileio.load_points(bom) == fileio.load_points(points_file)
    plain = run_cli(capsys, "basis", str(points_file))
    assert plain[0] == 0 and run_cli(capsys, "basis", str(bom)) == plain


def test_basis_order_matrix_with_byte_order_mark(capsys, points_file, tmp_path):
    grid, bom = tmp_path / "A.txt", tmp_path / "bom.txt"
    grid.write_text("1 1 1 1 1\n0 0 0 0 -1\n0 0 0 -1 0\n0 0 -1 0 0\n0 -1 0 0 0\n")
    bom.write_bytes(BOM + grid.read_bytes())
    assert fileio.parse_order(f"matrix:{bom}", 5) == fileio.parse_order(f"matrix:{grid}", 5)
    plain = run_cli(capsys, "basis", str(points_file), "--order", f"matrix:{grid}")
    assert plain[0] == 0
    assert run_cli(capsys, "basis", str(points_file), "--order", f"matrix:{bom}") == plain


def write_list(path, items):
    path.write_text("".join(",".join(map(str, t)) + "\n" for t in items))


def test_merge_known_lists(capsys, tmp_path):
    from pointideal._selftest import (
        GOLDEN_MERGE_A,
        GOLDEN_MERGE_B,
        GOLDEN_MERGE_DELTAS,
        GOLDEN_MERGE_ITEMS,
    )

    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fa, GOLDEN_MERGE_A)
    write_list(fb, GOLDEN_MERGE_B)
    code, out, _ = run_cli(capsys, "merge", str(fa), str(fb))
    assert code == 0
    lines = out.strip().splitlines()
    items = [tuple(int(x) for x in l.split(",")) for l in lines[:-3]]
    assert items == GOLDEN_MERGE_ITEMS
    assert lines[-3] == "deltas: " + ",".join(map(str, GOLDEN_MERGE_DELTAS))


def test_merge_identical_singletons(capsys, tmp_path):
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fa, [(1, 2, 3)])
    write_list(fb, [(1, 2, 3)])
    code, out, _ = run_cli(capsys, "merge", str(fa), str(fb))
    assert code == 0
    assert "deltas: 4" in out


def test_merge_empty_second_list(capsys, tmp_path):
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fa, [(1, 2), (3, 4)])
    fb.write_text("")
    code, out, _ = run_cli(capsys, "merge", str(fa), str(fb))
    assert code == 0
    assert "element_cmps: 0" in out and "delta_cmps: 0" in out


@pytest.mark.parametrize("items_a", [[], [(1, 2)]])
def test_merge_without_deltas(capsys, tmp_path, items_a):
    # one item or none in all: the deltas line has no trailing space
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fa, items_a)
    fb.write_text("")
    code, out, _ = run_cli(capsys, "merge", str(fa), str(fb))
    assert code == 0
    lines = ["1,2"] * len(items_a) + ["deltas:", "element_cmps: 0", "delta_cmps: 0"]
    assert out == "".join(line + "\n" for line in lines)


def test_merge_arity_mismatch(capsys, tmp_path):
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fa, [(1, 2)])
    write_list(fb, [(1, 2, 3)])
    code, _, err = run_cli(capsys, "merge", str(fa), str(fb))
    assert code == 1


def test_merge_bad_tuple(capsys, tmp_path):
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fb, [(1, 2)])
    for text, pos in (("1,x", 2), ("1_0,2", 1), ("1,\u0662", 2), ("\u20031,2", 1)):
        fa.write_text(text + "\n")
        code, _, err = run_cli(capsys, "merge", str(fa), str(fb))
        assert code == 2 and err.startswith(f"error: {fa}: line 1, entry {pos}: bad integer literal")


def test_merge_undecodable_list_is_parse_error(capsys, tmp_path):
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fa, [(1, 2)])
    # valid UTF-8 up to byte 4
    fb.write_bytes(b"1,2\n\xe9\n")
    code, out, err = run_cli(capsys, "merge", str(fa), str(fb))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {fb}: not UTF-8 text: byte 4:")


def test_merge_list_with_byte_order_mark(capsys, tmp_path):
    fa, fb, bom = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "bom.txt"
    write_list(fa, [(1, 2), (3, 4)])
    write_list(fb, [(2, 2)])
    bom.write_bytes(BOM + fa.read_bytes())
    assert fileio.load_merge_list(bom) == fileio.load_merge_list(fa)
    plain = run_cli(capsys, "merge", str(fa), str(fb))
    assert plain[0] == 0 and run_cli(capsys, "merge", str(bom), str(fb)) == plain


# ---------------------------------------------------------------------------
# bench-spoly

def test_bench_spoly_small(capsys):
    code, out, _ = run_cli(capsys, "bench-spoly", "--s", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"]["total"] <= 3 * 10 - 1
    assert doc["naive"]["element_cmps"] == 10 * 10 - 4


def test_bench_spoly_counts_on_a_list_past_long_list(capsys):
    # the host list of s - 2 = 498 items is crossed by deltamerge's jump;
    # it charges the counts the step-by-step walk charges
    code, out, _ = run_cli(capsys, "bench-spoly", "--s", "500")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"]["element_cmps"] == 502 and doc["delta"]["delta_cmps"] == 497
    assert doc["naive"]["element_cmps"] == 249996


def test_bench_spoly_degenerate(capsys):
    code, out, _ = run_cli(capsys, "bench-spoly", "--s", "3")
    doc = json.loads(out)
    assert doc["delta"]["total"] <= doc["n"]
    assert doc["naive"]["element_cmps"] <= doc["n"]
    code, _, _ = run_cli(capsys, "bench-spoly", "--s", "2")
    assert code == 1


def test_bench_spoly_rejects_huge_s_before_building(capsys, monkeypatch):
    # the order and the lists for s = 10**11 would not fit in memory
    def refuse(n):
        raise AssertionError("an order was built")

    monkeypatch.setattr(orders, "degrevlex", refuse)
    code, out, err = run_cli(capsys, "bench-spoly", "--s", "100000000000")
    assert code == 1 and out == ""
    assert err == "error: s must be between 3 and 1000\n"
    code, out, _ = run_cli(capsys, "bench-spoly", "--s", "1001")
    assert code == 1 and out == ""


def test_integer_options_take_the_literal_grammar(capsys):
    # --s and --seed are read as every other integer is: ASCII digits only
    for argv in (["bench-spoly", "--s", "\u0661\u0660"], ["selftest", "--seed", "1_0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and f"argument {argv[1]}: invalid" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "bench-spoly", "--s", " +010 ")
    assert code == 0 and json.loads(out)["s"] == 10


def _spoly_lists_by_order_vector(s):
    # the family as the paper states it, one full order vector per monomial
    n = 2 * s
    spec = orders.degrevlex(n)

    def neg_ov(pairs):
        exps = [0] * n
        for var, e in pairs:
            exps[var - 1] = e
        return tuple(-x for x in orders.order_vector(spec, tuple(exps)))

    b = [neg_ov([(2, 1), (3, 2)])]
    if s >= 5:
        b.append(neg_ov([(3, 2), (4, 1)]))
    b += [neg_ov([(3, 1), (j + 1, 1), (j + 2, 1)]) for j in range(3, s - 2)]
    if s >= 4:
        b.append(neg_ov([(3, 1), (s - 1, 2)]))
    return [neg_ov([(2, 2), (s, 1)])], b


def test_spoly_lists_match_order_vectors():
    for s in range(3, 41):
        assert build_spoly_lists(s) == _spoly_lists_by_order_vector(s), s


def test_bench_spoly_computes_no_order_vector(capsys, monkeypatch):
    # an order vector is a 2s x 2s matrix product: s = 1000 took minutes;
    # the 2s x 2s matrix alone took 0.4 s and 76 MB at s = 1000
    def refuse(*args):
        raise AssertionError("an order vector or an order was built")

    monkeypatch.setattr(orders, "order_vector", refuse)
    monkeypatch.setattr(orders, "degrevlex", refuse)
    code, out, _ = run_cli(capsys, "bench-spoly", "--s", "40")
    assert code == 0
    assert json.loads(out)["naive"]["element_cmps"] == 40 * 40 - 4


def test_spoly_lists_shape():
    for s in (3, 4, 5, 8):
        a, b = build_spoly_lists(s)
        assert len(a) == 1 and len(b) == max(1, s - 2)
        assert b == sorted(b)
        merged, _ = naive_merge(a, b)
        assert merged == sorted(a + b)


# ---------------------------------------------------------------------------
# many calls of main in one process

def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch, points_file):
    assert run_cli(capsys, "basis", str(points_file))[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in (["basis", str(points_file)], ["bench-spoly", "--s", "5"],
                 ["basis", str(points_file), "--order", "degrevlex"]):
        assert run_cli(capsys, *argv)[0] == 0
    assert built == []


def test_main_carries_no_state_from_one_call_to_the_next(capsys, points_file, tmp_path):
    stats = tmp_path / "s.json"
    code, first, err = run_cli(capsys, "basis", str(points_file), "--stats", str(stats))
    assert code == 0 and err == "" and stats.exists()
    stats.unlink()
    assert run_cli(capsys, "basis", str(points_file)) == (0, first, "")
    assert not stats.exists()
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_list(fa, [(1, 2)])
    write_list(fb, [(0, 3)])
    assert run_cli(capsys, "merge", str(fa), str(fb))[0] == 0
    assert run_cli(capsys, "basis", str(points_file)) == (0, first, "")
    with pytest.raises(SystemExit) as exc:
        main(["basis", str(points_file), "--no-such-flag"])
    assert exc.value.code == 2 and "--no-such-flag" in capsys.readouterr().err
    assert run_cli(capsys, "basis", str(points_file)) == (0, first, "")


# ---------------------------------------------------------------------------
# selftest and file round trips

def test_selftest_passes(capsys):
    for seed in ("3", "0"):
        code, out, _ = run_cli(capsys, "selftest", "--seed", seed)
        assert code == 0
        assert out.splitlines()[-1] == "selftest: all checks passed"


def test_selftest_failure_exit_code(capsys, monkeypatch):
    from pointideal import _selftest

    monkeypatch.setattr(_selftest, "run_selftest", lambda seed: 1)
    code, out, err = run_cli(capsys, "selftest")
    assert code == 3 and out == ""
    assert "selftest: 1 failure(s)" in err


def test_selftest_catches_a_broken_packed_store(capsys, monkeypatch):
    # one wrong coordinate in every GF(p) reduce that has coordinates; a
    # wrong residual would keep bm inserting rows
    reduce = PackedRows.reduce

    def broken(self, vec):
        residual, coords, ops = reduce(self, vec)
        if self._rows:
            # coordinate 0 is the lowest slot of the packed coordinates
            c = coords & self._mask
            coords += (c + 1) % self.p - c
        return residual, coords, ops

    monkeypatch.setattr(PackedRows, "reduce", broken)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 3
    assert "FAIL certified GF(32003) (8, 200, degrevlex): G[0] does not vanish at point 0" in out.splitlines()


def test_points_round_trip():
    pts = fileio.parse_points(GOLDEN_POINTS_JSON)
    assert pts == GOLDEN_POINTS
    again = fileio.parse_points(fileio.serialize_points(pts))
    assert again == pts


def test_result_round_trip():
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    text = fileio.serialize_result(res)
    back = fileio.parse_result(text, spec)
    assert back == res
    doc = json.loads(text)
    malformed = [
        "{}",
        json.dumps({**doc, "B": 5}),
        json.dumps({**doc, "G": [[["1"]]]}),
        json.dumps([doc]),
        json.dumps({**doc, "field": {"type": "bogus"}}),
        json.dumps({**doc, "field": {"type": "prime", "p": 3.7}}),
        json.dumps({**doc, "field": {"type": "prime", "p": True}}),
        # exponent vectors: lists of n = 5 non-negative, non-bool ints
        json.dumps({**doc, "B": ["ab", *doc["B"]]}),
        json.dumps({**doc, "B": [[1.5, -2], *doc["B"]]}),
        json.dumps({**doc, "B": [[True], *doc["B"]]}),
        json.dumps({**doc, "B": [[0, 0, 0, 0, True]]}),
        json.dumps({**doc, "B": [[0, 0, 0, 0, -1]]}),
        json.dumps({**doc, "B": [[0, 0, 0, 0, 1.0]]}),
        json.dumps({**doc, "B": [[0, 0, 0, 0]]}),
        json.dumps({**doc, "B": [[0, 0, 0, 0, 0, 0]]}),
        json.dumps({**doc, "B": {"0": [0, 0, 0, 0, 0]}}),
        json.dumps({**doc, "G": [[["1", "abcde"]]]}),
        json.dumps({**doc, "G": [[["1", [0, 0, 0, 0, -1]]]]}),
        json.dumps({**doc, "G": [[["1", [0, 0, 0, 0, False]]]]}),
        json.dumps({**doc, "G": [[["1", [0, 0, 0, 1]]]]}),
    ]
    for text in malformed:
        with pytest.raises(fileio.ParseError):
            fileio.parse_result(text, spec)


def test_parse_result_rejects_a_document_of_another_order():
    spec = orders.degrevlex(5)
    text = fileio.serialize_result(bm(GOLDEN_POINTS, spec))
    with pytest.raises(fileio.ParseError, match="order is 'degrevlex:1,2,3,4,5', not 'lex:1,2,3,4,5'"):
        fileio.parse_result(text, orders.lex(5))
    with pytest.raises(fileio.ParseError, match="order is .5., not"):
        fileio.parse_result(json.dumps({**json.loads(text), "order": 5}), spec)
    # a document without an order member is read in the order given
    doc = json.loads(text)
    del doc["order"]
    assert fileio.parse_result(json.dumps(doc), spec) == fileio.parse_result(text, spec)


def test_parse_result_ignores_a_legacy_stats_member():
    # older documents carry the run report; none of it is read, not even a
    # key or a value that ``RunStats`` would not hold
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    doc = json.loads(fileio.serialize_result(res))
    for stats in [
        res.stats.to_dict(),
        {"L_min": 1, "L_max": "abc", "field_ops": 1.5, "n_essential": [3], "wall_time": "soon"},
    ]:
        back = fileio.parse_result(json.dumps({**doc, "stats": stats}), spec)
        assert back == res and back.stats == RunStats()


@pytest.mark.parametrize("literal", ["12345678901234567890.5", "0.10000000000000001", "-7", "1e-3"])
def test_parse_result_reads_number_coefficients_exactly(literal):
    # through a float the first two read as 12345678901234567000 and 1/10
    text = '{"field": {"type": "rational"}, "B": [[0]], "G": [[["1", [1]], [%s, [0]]]]}'
    (g,) = fileio.parse_result(text % literal, orders.lex(1)).G
    assert g.terms == ((Fraction(1), (1,)), (Fraction(literal), (0,)))


def test_parse_result_prime_field_rejects_decimal_number():
    text = '{"field": {"type": "prime", "p": 7}, "B": [[0]], "G": [[["1", [1]], [1.0, [0]]]]}'
    with pytest.raises(fileio.ParseError, match="bad integer literal '1.0'"):
        fileio.parse_result(text, orders.lex(1))


@pytest.mark.parametrize("wall_time", [0.1, 0.123456789012345, 1e-05, 2.0])
def test_result_document_leaves_out_the_run_report(wall_time):
    # the digits of wall_time once moved the document's bytes
    spec = orders.lex(5)
    res = bm(GOLDEN_POINTS, spec)
    text = fileio.serialize_result(res)
    res.stats.wall_time = wall_time
    assert fileio.serialize_result(res) == text
    assert list(json.loads(text)) == RESULT_KEYS
    back = fileio.parse_result(text, spec)
    assert back == res and back.stats == RunStats()
    assert fileio.serialize_result(back) == text


def reference_serialize(result):
    """The per-term document that serialize_result writes byte for byte."""
    fld = result.field
    doc = {
        "order": str(result.spec),
        "field": fld.to_descriptor(),
        "n": result.spec.n,
        "B": [list(b) for b in result.B],
        "G": [[[fld.format(c), list(m)] for c, m in g.terms] for g in result.G],
    }
    return json.dumps(doc)


@pytest.mark.parametrize("shape", ["direct", "projected", "single", "single-projected"])
@pytest.mark.parametrize("order", ["lex", "degrevlex"])
@pytest.mark.parametrize("fld", [PrimeField(32003), QQ], ids=["GFp", "QQ"])
def test_serialize_result_matches_per_term_document(fld, order, shape):
    rng = random.Random(11)
    spec = fileio.parse_order(order, 5)
    if shape == "projected":
        # 2 free coordinates and 3 affine in them
        pts = dependent_point_set(rng, fld, 2, 3, 15)
        res = bm_projected(pts, spec)
        assert res.stats.n_essential == 2
    elif shape == "single-projected":
        pts = random_point_set(rng, fld, 5, 1)
        res = bm_projected(pts, spec)
        assert res.stats.n_essential == 0
    else:
        pts = random_point_set(rng, fld, 5, 1 if shape == "single" else 15)
        res = bm(pts, spec)
    if fld == QQ and not shape.startswith("single"):
        coeffs = [c for g in res.G for c, _m in g.terms]
        assert any(c < 0 for c in coeffs) and any(c.denominator > 1 for c in coeffs)
    text = fileio.serialize_result(res)
    assert text == reference_serialize(res)
    assert fileio.parse_result(text, spec) == res


@pytest.mark.parametrize("projected", [False, True], ids=["direct", "projected"])
@pytest.mark.parametrize("order", ["lex", "degrevlex"])
@pytest.mark.parametrize("fld", [PrimeField(32003), QQ], ids=["GFp", "QQ"])
def test_parsed_result_writes_the_same_text(fld, order, projected):
    # the run's G is held on B and written by index, the dropped variables'
    # elements too; the parsed G is held on the parsed B and written alike
    rng = random.Random(5)
    spec = fileio.parse_order(order, 5)
    if projected:
        res = bm_projected(dependent_point_set(rng, fld, 2, 3, 20), spec)
    else:
        res = bm(random_point_set(rng, fld, 5, 20), spec)
    assert all(g.basis is res.B for g in res.G)
    text = fileio.serialize_result(res)
    back = fileio.parse_result(text, spec)
    assert all(g.basis is back.B for g in back.G)
    assert fileio.serialize_result(back) == text


def test_writer_indexes_a_hand_built_element_or_refuses_it():
    # an element made from its terms is indexed against B once and written
    # alike; one the reader would refuse is held_on's ValueError
    res = bm(random_point_set(random.Random(5), PrimeField(32003), 3, 12), orders.degrevlex(3))
    text = fileio.serialize_result(res)
    k = max(range(len(res.G)), key=lambda k: len(res.G[k].terms))
    g, lead = res.G[k].terms, res.G[-1].leading_monomial
    assert len(g) > 1 and lead not in res.B
    for made, message in [
        (Polynomial(g), None),
        (Polynomial([*g[:-1], (g[-1][0], lead)]), f"the tail monomial {list(lead)} is not in B"),
        (Polynomial([]), "the polynomial is zero"),
    ]:
        res.G[k] = made
        if message is None:
            assert fileio.serialize_result(res) == text
        else:
            with pytest.raises(ValueError, match=re.escape(message)):
                fileio.serialize_result(res)


@pytest.mark.parametrize("fld", [PrimeField(32003), QQ], ids=["GFp", "QQ"])
def test_run_write_and_verify_build_no_terms(monkeypatch, fld):
    # bm, lift, serialize_result and verify_result read a G element held on
    # B by its indices: its per-term tuples are built only when asked for,
    # and the run makes no polynomial from terms
    built, terms, made, init = [], Polynomial.terms, [], Polynomial.__init__

    def counted(g):
        if g.basis is not None and g._terms is None:
            built.append(g)
        return terms.fget(g)

    def counted_init(g, ts):
        made.append(g)
        init(g, ts)

    monkeypatch.setattr(Polynomial, "terms", property(counted))
    monkeypatch.setattr(Polynomial, "__init__", counted_init)
    rng = random.Random(3)
    for pts in (dependent_point_set(rng, fld, 3, 3, 40), random_point_set(rng, fld, 4, 40)):
        res = bm_projected(pts, orders.degrevlex(pts.n))
        assert made == []
        fileio.serialize_result(res)
        verify_result(res, pts)
        held = [g for g in res.G if g.basis is res.B]
        assert built == [] and len(held) == len(res.G) > 1
        held[0].terms  # the count sees a build
        assert built == held[:1]
        built.clear()


# ``oracles`` is loaded because the benchmark's tracer reads it from
# sys.modules; ``_selftest`` loads only when the selftest command runs
CLI_MODULES = [
    "pointideal", "pointideal._record", "pointideal.bm", "pointideal.cli",
    "pointideal.deltamerge", "pointideal.fields", "pointideal.fileio",
    "pointideal.linalg", "pointideal.oracles", "pointideal.orders",
    "pointideal.poly", "pointideal.projection",
]
# source lines those modules hold: every CLI process compiles them
CLI_LINES = 2103


def test_cli_import_loads_exactly_these_modules():
    # a fresh interpreter, so that no other test's imports count; a new
    # import, or more lines to compile, then shows up here as a deliberate diff
    src = str(Path(pointideal.__file__).resolve().parent.parent)
    code = "import sys, pointideal.cli; print(*sorted(k for k in sys.modules if k.split('.')[0] == 'pointideal'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == CLI_MODULES
    lines = sum(
        len(Path(importlib.util.find_spec(name).origin).read_text(encoding="utf-8").splitlines())
        for name in CLI_MODULES
    )
    assert lines <= CLI_LINES


def test_cli_import_loads_no_dataclasses_and_no_test_oracles():
    # both cost set-up time in every CLI process: ``dataclasses`` compiles
    # code per class and pulls in ``inspect``, and the test oracles are
    # hundreds of lines nobody runs there
    src = str(Path(pointideal.__file__).resolve().parent.parent)
    code = "; ".join([
        "import sys",
        "before = 'dataclasses' in sys.modules",
        "import pointideal.cli",
        "from pointideal import oracles",
        "print(before or 'dataclasses' not in sys.modules)",
        "print('pointideal._oracles' in sys.modules)",
        "print(oracles.naive_merge is pointideal.cli.naive_merge)",
        "print(hasattr(oracles, '__path__'), hasattr(oracles, '__wrapped__'))",
        "print('pointideal._oracles' in sys.modules)",
        "print(hasattr(oracles, 'nope'))",
    ])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:-1] == [
        "True", "False", "True", "False False", "False", "False",
    ]
