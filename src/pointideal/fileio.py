"""File formats: point-set JSON, result JSON, and plain merge-list files."""

from __future__ import annotations

import json
from pathlib import Path

from .bm import GroebnerResult, PointSet, RunStats
from .fields import field_from_descriptor
from .poly import Polynomial


class ParseError(ValueError):
    pass


def read_text(path) -> str:
    """The file's text as UTF-8; undecodable bytes are a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from exc


def _load_json(text: str, source: str):
    """The JSON value; a non-integer number is left as its literal text."""
    try:
        return json.loads(text, parse_float=str)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal too long to convert
        raise ParseError(f"{source}: unreadable JSON: {exc}") from exc
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
    try:
        fld = field_from_descriptor(doc["field"])
    except (ValueError, TypeError, AttributeError) as exc:
        raise ParseError(f"{source}: bad field descriptor: {exc}") from exc
    return doc, fld


def parse_points(text: str, source: str = "<points>") -> PointSet:
    """Parse the point-set document.

    Expected shape::

        {"field": {"type": "rational"} | {"type": "prime", "p": ...},
         "n": N,
         "points": [["a/b", ...], ...]}

    A coordinate may also be a JSON number.  A non-integer number reaches
    ``field.parse`` as its literal text, never through a float, so a
    rational keeps every digit and a prime field rejects it.
    """
    doc, fld = _load_document(text, source, ("field", "n", "points"))
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f"{source}: 'n' must be a positive integer")
    raw = doc["points"]
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{source}: 'points' must be a non-empty list")
    points = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{source}: point {r} is not a list of {n} coordinates")
        coords = []
        for c, cell in enumerate(row):
            try:
                coords.append(fld.parse(str(cell)))
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


class _MonomialText(dict):
    """JSON text of monomials: filled with B, any other one encoded on lookup."""

    def __missing__(self, m):
        return json.dumps(list(m))


def serialize_result(result: GroebnerResult) -> str:
    """Result document: B ascending, G as descending [coeff, exponents] terms.

    The text is ``json.dumps`` of the object with keys order, field, n, B
    (exponent lists) and G (lists of [coefficient text, exponent list]),
    byte for byte, but written once per monomial rather than once per term:
    every tail of a G element lies on B, so each B monomial is encoded once
    and its text is reused for every term on it, and only the leading
    monomials, which lie outside B, are encoded one by one.  The coefficient
    is quoted by hand; ``field.format`` writes only ``-0123456789/``, which
    JSON writes between quotes unescaped.  ``result.stats`` is not written.
    """
    fld = result.field
    fmt = fld.format
    enc = _MonomialText((b, json.dumps(list(b))) for b in result.B)
    head = json.dumps(
        {"order": str(result.spec), "field": fld.to_descriptor(), "n": result.spec.n}
    )
    B = ", ".join([enc[b] for b in result.B])
    G = ", ".join(
        [
            "[" + ", ".join([f'["{fmt(c)}", {enc[m]}]' for c, m in g.terms]) + "]"
            for g in result.G
        ]
    )
    # the head's closing brace moves to the end of the document
    return f'{head[:-1]}, "B": [{B}], "G": [{G}]}}'


def _exponents(v, n: int, what: str) -> tuple:
    """The exponent vector ``v`` as a tuple; a list of n non-negative ints."""
    if not (
        isinstance(v, list)
        and len(v) == n
        and all(type(e) is int and e >= 0 for e in v)
    ):
        raise ValueError(f"{what} is not a list of {n} non-negative integers")
    return tuple(v)


def parse_result(text: str, spec, source: str = "<result>") -> GroebnerResult:
    """Round-trip parse of a result document produced by serialize_result.

    Every exponent vector in B and G must be a list of ``spec.n``
    non-negative integers (booleans excluded).  As in ``parse_points``, a
    coefficient written as a JSON number keeps every digit.  The members
    order, n and an older document's stats are not read; stats are zero.
    """
    doc, fld = _load_document(text, source, ("field", "B", "G"))
    n = spec.n
    try:
        B = [_exponents(b, n, f"B[{k}]") for k, b in enumerate(doc["B"])]
        G = [
            Polynomial(
                [
                    (fld.read(str(c)), _exponents(m, n, f"G[{k}] term {t}"))
                    for t, (c, m) in enumerate(terms)
                ]
            )
            for k, terms in enumerate(doc["G"])
        ]
    except (ValueError, TypeError) as exc:
        raise ParseError(f"{source}: bad B or G: {exc}") from exc
    return GroebnerResult(G=G, B=B, stats=RunStats(), spec=spec, field=fld)


def parse_merge_list(text: str, source: str = "<list>"):
    """One tuple per line, entries comma-separated integers."""
    items = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            items.append(tuple(int(x.strip()) for x in line.split(",")))
        except ValueError as exc:
            raise ParseError(f"{source}: line {ln}: {exc}") from exc
    if items and any(len(it) != len(items[0]) for it in items):
        raise ParseError(f"{source}: rows of differing arity")
    return items


def load_merge_list(path):
    return parse_merge_list(read_text(path), str(path))
