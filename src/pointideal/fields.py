"""Exact coefficient fields: the rationals and prime fields Z_p.

Elements are plain Python values (``fractions.Fraction`` for the rationals,
canonical residues ``int`` in ``[0, p)`` for prime fields), so equality is
bit-for-bit after canonicalization and everything hashes.  The field objects
only bundle the operations.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from ._record import FrozenRecord


# CPython's default limit on the digits of an int converted from or to text.
# A result's coefficients outgrow its points, so format and read convert
# longer numerals through decimal, which has no such limit
MAX_DIGITS = 4300

# what RationalField.format writes: an integer, or a/b with b not zero
_RATIO = re.compile(r"[-+]?\d+(/0*[1-9]\d*)?")


# characters of a bad literal that an error message quotes
EXCERPT = 20


def _quote(text: str) -> str:
    """``text`` quoted for an error message: whole when short, else cut.

    A literal longer than ``EXCERPT`` characters is shown as its first
    ``EXCERPT`` characters and its length, so the message stays short
    however long the input is.
    """
    if len(text) <= EXCERPT:
        return repr(text)
    return f"{text[:EXCERPT]!r}... ({len(text)} characters)"


class FieldError(Exception):
    pass


class DivisionByZero(FieldError):
    pass


class NotPrime(FieldError):
    pass


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(p: int) -> bool:
    """Miller-Rabin; deterministic for p < 2**64 with the fixed base set."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d = p - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class RationalField(FrozenRecord):
    """The field of arbitrary-precision rationals."""

    kind = "rational"

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / Fraction(a)

    def sub_scaled(self, ys, c, xs):
        """[sub(y, mul(c, x)) for y, x in zip(ys, xs)], skipping zero x."""
        return [y - c * x if x else y for y, x in zip(ys, xs)]

    def from_int(self, k: int):
        return Fraction(k)

    def canonical(self, a):
        """``a`` itself when it is an int or a Fraction, else a TypeError."""
        if type(a) is Fraction or type(a) is int:
            return a
        raise TypeError(f"{type(a).__name__} is not a rational")

    def parse(self, text: str):
        """Parse "a/b", an integer or a decimal such as "0.1" or "1e-07".

        A literal whose exponent would make more than ``MAX_DIGITS`` digits
        is rejected before 10**exponent is computed.
        """
        text = text.strip()
        mantissa, _e, exponent = text.lower().partition("e")
        try:
            if exponent and abs(int(exponent)) + len(mantissa) > MAX_DIGITS:
                raise ValueError("exponent too large")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {_quote(text)}") from exc

    def read(self, text: str):
        """``parse``, and an integer or "a/b" of any length, as ``format`` writes."""
        if len(text) > MAX_DIGITS and _RATIO.fullmatch(text):
            return Fraction(*[int(Decimal(k)) for k in text.split("/")])
        return self.parse(text)

    def format(self, a) -> str:
        """``str(a)``: "a/b", or the integer when b is 1, of any length."""
        try:
            return str(a)
        except ValueError:  # more than MAX_DIGITS digits
            num, den = Decimal(a.numerator), Decimal(a.denominator)
            return f"{num}" if den == 1 else f"{num}/{den}"

    def __repr__(self):
        return "QQ"

    def to_descriptor(self) -> dict:
        return {"type": "rational"}


class PrimeField(FrozenRecord):
    """Z_p for a prime p below 2**63."""

    kind = "prime"
    _fields = ("p",)

    def __init__(self, p: int):
        if p < 2:
            raise NotPrime(f"modulus {p} < 2")
        if p >= 1 << 63:
            raise FieldError(f"modulus {p} exceeds 63 bits")
        if not is_probable_prime(p):
            raise NotPrime(f"modulus {p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def sub_scaled(self, ys, c, xs):
        """[sub(y, mul(c, x)) for y, x in zip(ys, xs)]."""
        p = self.p
        return [(y - c * x) % p for y, x in zip(ys, xs)]

    def from_int(self, k: int):
        return k % self.p

    def canonical(self, a):
        """The residue of the int ``a``; ``a`` itself when it is one already."""
        if type(a) is not int:
            raise TypeError(f"{type(a).__name__} is not an integer")
        return a if 0 <= a < self.p else a % self.p

    def parse(self, text: str):
        try:
            return int(text.strip(), 10) % self.p
        except ValueError as exc:
            raise ValueError(f"bad integer literal {_quote(text)}") from exc

    read = parse  # format writes residues below p, never long numerals

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return f"GF({self.p})"

    def to_descriptor(self) -> dict:
        return {"type": "prime", "p": self.p}


QQ = RationalField()


def field_from_descriptor(desc: dict):
    """Build a field from the {"type": ...} descriptor used in point files."""
    kind = desc.get("type")
    if kind == "rational":
        return RationalField()
    if kind == "prime":
        p = desc.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("prime field descriptor needs an integer 'p'")
        return PrimeField(p)
    shown = _quote(kind) if isinstance(kind, str) else f"of type {type(kind).__name__}"
    raise ValueError(f"unknown field type {shown}")
