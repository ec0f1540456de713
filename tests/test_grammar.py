"""The input grammar, generated: literals, the documents built from them, and their mutations.

Literals are drawn from the grammar in the ``fields`` docstring, at lengths
on both sides of ``MAX_DIGITS``; each reference value is computed chunk by
chunk, sharing no code with the readers.  A mutation inserts "_", a
non-ASCII digit or a stray character into one literal, or truncates a
document; the reader must then refuse it with a short message that names
the position.
"""

import json
import re
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from pointideal import fileio, orders
from pointideal.bm import GroebnerResult, PointSet, RunStats
from pointideal.cli import main
from pointideal.fields import MAX_DIGITS, QQ, PrimeField, read_integer
from pointideal.poly import Polynomial

GF = PrimeField(32003)
DIGITS = "0123456789"
# digit counts: mostly short, and on both sides of MAX_DIGITS
lengths = st.one_of(st.integers(1, 6), st.sampled_from([MAX_DIGITS - 1, MAX_DIGITS, MAX_DIGITS + 1, 5000]))
signs = st.sampled_from(["", "+", "-"])
spaces = st.sampled_from(["", " ", "\t", "\r\n", " \n "])
in_line = st.sampled_from(["", " ", "\t"])  # the spaces a merge list or an order spec may have
# what a mutation inserts: each is outside the grammar wherever it lands
INSERTS = ["_", "\u0663", "\uff11", "\u07c0", "x", "\u00a0", "\u2003", "'"]
GENERATED = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def digits(draw):
    """(text, value): ASCII digits of a drawn length and the integer they write."""
    pattern = draw(st.text(DIGITS, min_size=1, max_size=6))
    n = draw(lengths)
    text = (pattern * (n // len(pattern) + 1))[:n]
    value = 0
    for i in range(0, n, 1000):  # chunks within the interpreter's int-conversion limit
        value = value * 10 ** len(text[i : i + 1000]) + int(text[i : i + 1000])
    return text, value


@st.composite
def integers(draw, around=spaces):
    """(text, value) of an integer literal, signed, with ASCII spaces ``around`` it."""
    sign, (text, value) = draw(signs), draw(digits())
    return draw(around) + sign + text + draw(around), -value if sign == "-" else value


@st.composite
def rationals(draw):
    """(text, value) of a rational literal; value None when its exponent is out of bounds."""
    form = draw(st.sampled_from(["integer", "ratio", "decimal"]))
    if form == "integer":
        return draw(integers())
    sign = draw(signs)
    (a, va), (b, vb) = draw(digits()), draw(digits())
    if form == "ratio":
        b, vb = (b, vb) if vb else (b + "1", 10 * vb + 1)
        text, value = f"{a}/{b}", Fraction(va, vb)
    else:  # D+(.D*)? or .D+, then an optional exponent
        forms = [(a, "", 0), (a, ".", 0), (a, "." + b, len(b)), ("", "." + b, len(b))]
        whole, frac, scale = draw(st.sampled_from(forms))
        mantissa = (va if whole else 0) * 10**scale + (vb if scale else 0)
        text, e = whole + frac, 0
        if draw(st.booleans()):
            (etext, e), esign = draw(digits()), draw(signs)
            text += draw(st.sampled_from("eE")) + esign + etext
            e = -e if esign == "-" else e
        if abs(e) >= MAX_DIGITS:
            return draw(spaces) + sign + text, None
        value = Fraction(mantissa) * Fraction(10) ** (e - scale)
    return draw(spaces) + sign + text + draw(spaces), -value if sign == "-" else value


def literal_of(fld):
    """(text, element) pairs that ``fld`` reads."""
    if fld is GF:
        return integers().map(lambda t: (t[0], t[1] % GF.p))
    return rationals().filter(lambda t: t[1] is not None)


@GENERATED
@given(integers())
def test_integer_literals_read_to_their_value(lit):
    text, value = lit
    assert read_integer(text) == value and QQ.parse(text) == value and GF.parse(text) == value % GF.p


@GENERATED
@given(rationals())
def test_rational_literals_read_to_their_value(lit):
    text, value = lit
    if value is None:  # |exponent| >= MAX_DIGITS
        try:
            QQ.parse(text)
        except ValueError as exc:
            assert str(exc).startswith("bad rational literal") and len(str(exc)) < 100
        else:
            raise AssertionError(f"read {text[:30]!r}")
    else:
        assert QQ.parse(text) == value


@st.composite
def point_documents(draw):
    """(document, points): a point document of drawn literals, bare JSON integers among them."""
    fld = draw(st.sampled_from([QQ, GF]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [[draw(literal_of(fld)) for _ in range(n)] for _ in range(m)]
    points = [tuple(value for _t, value in row) for row in rows]
    assume(len(set(points)) == m)
    bare = draw(st.booleans())  # a short integer literal written as a JSON number
    cells = [[int(t) if bare and re.fullmatch(r"\s*-?[0-9]{1,9}\s*", t) else t for t, _v in row] for row in rows]
    doc = json.dumps({"field": fld.to_descriptor(), "n": n, "points": cells})
    return doc, PointSet(fld, n, points)


@GENERATED
@given(point_documents())
def test_point_documents_round_trip(case):
    doc, points = case
    assert fileio.parse_points(doc) == points
    text = fileio.serialize_points(points)
    assert fileio.parse_points(text) == points and fileio.serialize_points(fileio.parse_points(text)) == text


@st.composite
def result_documents(draw):
    """(document, result): a result document of drawn coefficients over lex."""
    fld, n = draw(st.sampled_from([QQ, GF])), draw(st.integers(1, 3))
    exponents = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    B = draw(st.lists(exponents, min_size=1, max_size=3))
    G = draw(st.lists(st.lists(st.tuples(literal_of(fld), exponents), min_size=1, max_size=3), max_size=3))
    spec = orders.lex(n)
    doc = {"order": str(spec), "field": fld.to_descriptor(), "n": n, "B": B,
           "G": [[[text, m] for (text, _c), m in g] for g in G]}
    polys = [Polynomial([(c, tuple(m)) for (_t, c), m in g]) for g in G]
    return json.dumps(doc), GroebnerResult(polys, [tuple(b) for b in B], RunStats(), spec, fld)


@GENERATED
@given(result_documents())
def test_result_documents_round_trip(case):
    doc, result = case
    assert fileio.parse_result(doc, result.spec) == result
    text = fileio.serialize_result(result)
    again = fileio.parse_result(text, result.spec)
    assert again == result and fileio.serialize_result(again) == text


def mutate(draw, literals):
    """The index of the literal changed, and the literals with one insertion into it."""
    k = draw(st.integers(0, len(literals) - 1))
    at = draw(st.integers(0, len(literals[k])))
    bad = literals[k][:at] + draw(st.sampled_from(INSERTS)) + literals[k][at:]
    return k, literals[:k] + [bad] + literals[k + 1 :]


def refused(capsys, argv, position, echoed=""):
    """Run the CLI: exit 2, one short line naming ``position``, no traceback.

    The line may also echo ``echoed``, an argument the user typed.
    """
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 400 + len(echoed)
    assert re.search(position, err), err


@GENERATED
@given(data=st.data())
def test_mutated_point_documents_are_refused(capsys, tmp_path, data):
    doc, points = data.draw(point_documents())
    n, cells = points.n, [c for row in json.loads(doc)["points"] for c in row]
    if data.draw(st.booleans()):
        doc, position = doc[: data.draw(st.integers(0, len(doc) - 1))], r"line \d+, column \d+"
    else:
        k, cells = mutate(data.draw, [str(c) for c in cells])
        rows = [cells[i : i + n] for i in range(0, len(cells), n)]
        doc = json.dumps({"field": points.field.to_descriptor(), "n": n, "points": rows})
        position = f"point {k // n}, coordinate {k % n}: bad"
    path = tmp_path / "points.json"
    path.write_text(doc)
    refused(capsys, ["basis", str(path)], position)


@GENERATED
@given(data=st.data())
def test_mutated_result_documents_are_refused(data):
    # the library reads result documents; a ParseError is what the CLI turns into exit 2
    doc, result = data.draw(result_documents())
    parsed = json.loads(doc)
    terms = [(k, t) for k, g in enumerate(parsed["G"]) for t in range(len(g))]
    if not terms or data.draw(st.booleans()):
        doc, position = doc[: data.draw(st.integers(0, len(doc) - 1))], r"line \d+, column \d+"
    else:
        i, texts = mutate(data.draw, [parsed["G"][k][t][0] for k, t in terms])
        for (k, t), text in zip(terms, texts):
            parsed["G"][k][t][0] = text
        doc, position = json.dumps(parsed), rf"G\[{terms[i][0]}\] term {terms[i][1]}: bad"
    try:
        fileio.parse_result(doc, result.spec)
    except fileio.ParseError as exc:
        assert len(str(exc)) < 400 and re.search(position, str(exc)), exc
    else:
        raise AssertionError("a mutated result document was read")


@GENERATED
@given(data=st.data())
def test_merge_lists_read_and_mutated(capsys, tmp_path, data):
    arity = data.draw(st.integers(1, 3))
    rows = data.draw(st.lists(st.lists(integers(in_line), min_size=arity, max_size=arity), min_size=1, max_size=4))
    lines = [",".join(text for text, _v in row) for row in rows]
    text = "# a comment\n\n" + "\n".join(lines)
    assert fileio.parse_merge_list(text) == [tuple(v for _t, v in row) for row in rows]
    k, entries = mutate(data.draw, [t for row in rows for t, _v in row])
    fa, fb = tmp_path / "a.txt", tmp_path / "b.txt"
    fa.write_text("\n".join(",".join(entries[i : i + arity]) for i in range(0, len(entries), arity)))
    fb.write_text(",".join(["1"] * arity) + "\n")
    position = rf"{re.escape(str(fa))}: line {k // arity + 1}, entry {k % arity + 1}: bad"
    refused(capsys, ["merge", str(fa), str(fb)], position)


@GENERATED
@given(data=st.data())
def test_order_specs_read_and_mutated(capsys, tmp_path, data):
    n = data.draw(st.integers(1, 4))
    perm = data.draw(st.permutations(range(1, n + 1)))
    kind = data.draw(st.sampled_from(["lex", "deglex", "degrevlex"]))
    # each entry with leading zeros, a "+" and ASCII spaces
    zeros = st.sampled_from(["", "0", "0" * 5000])
    entries = [data.draw(in_line) + data.draw(st.sampled_from(["", "+"])) + data.draw(zeros) + str(i) for i in perm]
    assert fileio.parse_order(f"{kind}:{','.join(entries)}", n) == orders.OrderSpec(n, kind, tuple(perm))
    k, entries = mutate(data.draw, entries)
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"field": {"type": "prime", "p": 7}, "n": n, "points": [[0] * n]}))
    spec = f"{kind}:{','.join(entries)}"
    refused(capsys, ["basis", str(path), "--order", spec], f"perm position {k + 1}: bad", echoed=spec)
