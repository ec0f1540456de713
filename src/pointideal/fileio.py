"""The user's text: point-set JSON, result JSON, order specs and merge-list files.

Every literal in them is read by ``fields``; its docstring has the grammar.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .bm import GroebnerResult, PointSet, RunStats
from .fields import MAX_DIGITS, SPACE, _quote, field_from_descriptor, read_integer
from .orders import STANDARD_KINDS, OrderError, OrderSpec
from .poly import Polynomial


class ParseError(ValueError):
    pass


def _integers(entries, where: str) -> tuple:
    """Each entry by ``read_integer``; a bad one is a ParseError naming ``where`` and its position."""
    out = []
    for pos, x in enumerate(entries, start=1):
        try:
            out.append(read_integer(x))
        except ValueError as exc:
            raise ParseError(f"{where} {pos}: {exc}") from exc
    return tuple(out)


def _integer_rows(text: str, sep: str, source: str) -> list:
    """The entries, apart by the pattern ``sep``, of each line not blank or a "#" comment."""
    rows = []
    for ln, line in enumerate(text.split("\n"), start=1):
        if (line := line.strip(SPACE)) and not line.startswith("#"):
            rows.append(_integers(re.split(sep, line), f"{source}: line {ln}, entry"))
    return rows


def read_text(path) -> str:
    """The file's UTF-8 text, less any byte-order mark; bad bytes are a ParseError naming it."""
    try:
        # not "utf-8-sig": its error offsets would not count the mark
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from exc


def parse_order(text: str, n: int) -> OrderSpec:
    """Parse the textual order grammar: lex[:i1,i2,...] etc, matrix:<path>.

    The order must have n variables; a matrix file must hold an n x n matrix,
    a row per line that is not blank or a "#" comment, entries apart by ASCII
    spaces or tabs.  A perm or matrix entry that ``read_integer`` refuses is
    a ParseError naming its position.
    """
    kind, _, rest = text.partition(":")
    kind = kind.strip(SPACE)
    if kind in STANDARD_KINDS:
        perm = None
        if rest.strip(SPACE):
            perm = _integers(rest.split(","), f"--order {_quote(text)}: perm position")
        return OrderSpec(n, kind, perm)
    if kind == "matrix":
        path = Path(rest.strip(SPACE))
        return OrderSpec(n, "matrix", matrix=_integer_rows(read_text(path), "[ \t]+", str(path)))
    raise OrderError(f"cannot parse order spec {_quote(text)}")


class _Numeral(str):
    """A JSON number kept as its text: a non-integer, or an integer past ``MAX_DIGITS``."""


def _load_json(text: str, source: str):
    """The JSON value; a number ``json`` would not read exactly is a ``_Numeral``."""
    try:
        try:
            return json.loads(text, parse_float=_Numeral)
        except json.JSONDecodeError:
            raise
        except ValueError:
            # an integer past the int-conversion limit: only then a Python call per int
            long_as_text = lambda t: _Numeral(t) if len(t) > MAX_DIGITS else read_integer(t)  # noqa: E731
            return json.loads(text, parse_float=_Numeral, parse_int=long_as_text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{source}: unreadable JSON: nested too deeply") from exc


def _load_document(text: str, source: str, keys):
    """The top-level object, checked for ``keys``, and its field."""
    doc = _load_json(text, source)
    if not isinstance(doc, dict):
        raise ParseError(f"{source}: top level must be an object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"{source}: missing key {key!r}")
    if not isinstance(desc := doc["field"], dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}.get(type(desc), "a number")
        raise ParseError(f"{source}: the field descriptor must be an object, not {kind}")
    try:
        fld = field_from_descriptor(desc)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{source}: bad field descriptor: {exc}") from exc
    return doc, fld


def parse_points(text: str, source: str = "<points>") -> PointSet:
    """Parse the point-set document.

    Expected shape::

        {"field": {"type": "rational"} | {"type": "prime", "p": ...},
         "n": N,
         "points": [["a/b", ...], ...]}

    A quoted coordinate is read by ``field.parse`` (see ``fields``).  It may
    also be a JSON number.  A JSON integer, read by ``json``, goes straight
    to ``PointSet``, which takes it through ``field.canonical``.  A
    non-integer number, or an integer of more than ``MAX_DIGITS``
    characters, reaches ``field.parse`` as its literal text, never through
    a float, so a rational keeps every digit and a prime field rejects it.
    """
    doc, fld = _load_document(text, source, ("field", "n", "points"))
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"{source}: 'n' must be a positive integer")
    raw = doc["points"]
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{source}: 'points' must be a non-empty list")
    parse = fld.parse
    points = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{source}: point {r} is not a list of {n} coordinates")
        coords = []
        for c, cell in enumerate(row):
            try:
                coords.append(cell if type(cell) is int else parse(str(cell)))
            except ValueError as exc:
                raise ParseError(
                    f"{source}: point {r}, coordinate {c}: {exc}"
                ) from exc
        points.append(tuple(coords))
    return PointSet(field=fld, n=n, points=tuple(points))


def load_points(path) -> PointSet:
    return parse_points(read_text(path), str(path))


def serialize_points(points: PointSet) -> str:
    doc = {
        "field": points.field.to_descriptor(),
        "n": points.n,
        "points": [[points.field.format(x) for x in p] for p in points.points],
    }
    return json.dumps(doc, indent=2)


def serialize_result(result: GroebnerResult) -> str:
    """Result document: B ascending, G as descending [coeff, exponents] terms.

    The text is ``json.dumps`` of the object with keys order, field, n, B
    (exponent lists) and G (lists of [coefficient text, exponent list]),
    byte for byte.  A monomial's text is ``str`` of its exponent list, its
    JSON for int exponents; each B monomial's is made once.  An element
    held on ``result.B`` (every one ``bm`` and ``lift`` return, see
    ``Polynomial``) is written from its lead and its tail indices, and its
    terms are never built; one held as terms (parsed, or made by user code)
    writes each monomial's text anew.  The coefficient is quoted by hand;
    ``field.format`` writes only ``-0123456789/``, which JSON writes
    between quotes unescaped.
    ``result.stats`` is not written.
    """
    fld, B = result.field, result.B
    fmt = fld.format
    enc = [str(list(b)) for b in B]
    head = json.dumps(
        {"order": str(result.spec), "field": fld.to_descriptor(), "n": result.spec.n}
    )
    G = []
    for g in result.G:
        if g.basis is B:
            coeffs = [g.lead[0], *reversed(g.coeffs)]
            texts = [str(list(g.lead[1])), *map(enc.__getitem__, reversed(g.at))]
        else:
            coeffs = [c for c, _m in g.terms]
            texts = [str(list(m)) for _c, m in g.terms]
        G.append("[" + ", ".join([f'["{fmt(c)}", {t}]' for c, t in zip(coeffs, texts)]) + "]")
    # the head's closing brace moves to the end of the document
    return f'{head[:-1]}, "B": [{", ".join(enc)}], "G": [{", ".join(G)}]}}'


def _exponents(v, n: int, what: str) -> tuple:
    """The exponent vector ``v`` as a tuple; a list of n non-negative ints."""
    if not (
        isinstance(v, list)
        and len(v) == n
        and all(type(e) is int and e >= 0 for e in v)
    ):
        raise ValueError(f"{what} is not a list of {n} non-negative integers")
    return tuple(v)


def _term(fld, term, n: int, what: str) -> tuple:
    """(coefficient, exponents) of the G term [c, exponents]; else a ValueError naming ``what``."""
    try:
        c, m = term
        c = fld.parse(str(c))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{what}: {exc}") from None
    return c, _exponents(m, n, what)


def parse_result(text: str, spec, source: str = "<result>") -> GroebnerResult:
    """Round-trip parse of a result document produced by serialize_result.

    Every exponent vector in B and G must be a list of ``spec.n``
    non-negative integers (booleans excluded).  ``field.parse`` reads each
    coefficient from its text (see ``fields``), so one written as a JSON
    number keeps every digit; a bad one is named by its G element and term.
    An order member must be ``str(spec)``; n and an older document's stats
    are not read.
    """
    doc, fld = _load_document(text, source, ("field", "B", "G"))
    if (named := doc.get("order", str(spec))) != str(spec):
        raise ParseError(f"{source}: the document's order is {_quote(str(named))}, not {str(spec)!r}")
    n = spec.n
    try:
        B = [_exponents(b, n, f"B[{k}]") for k, b in enumerate(doc["B"])]
        G = [
            Polynomial([_term(fld, term, n, f"G[{k}] term {t}") for t, term in enumerate(terms)])
            for k, terms in enumerate(doc["G"])
        ]
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{source}: bad B or G: {exc}") from exc
    return GroebnerResult(G=G, B=B, stats=RunStats(), spec=spec, field=fld)


def parse_merge_list(text: str, source: str = "<list>"):
    """One tuple per line, entries comma-separated integers (``read_integer``)."""
    items = _integer_rows(text, ",", source)
    if items and any(len(it) != len(items[0]) for it in items):
        raise ParseError(f"{source}: rows of differing arity")
    return items


def load_merge_list(path):
    return parse_merge_list(read_text(path), str(path))
