"""Exact coefficient arithmetic over Q and over Q(w), where w^2 = -w - 1.

Every scalar is stored as a pair (a, b) of `fractions.Fraction` values and
means a + b*w with w a primitive cube root of unity kept purely symbolic.
Rationals are the b == 0 case, so one arithmetic layer serves both fields;
the `FieldTag` carried by polynomials and arrangements records the smallest
field a given object actually needs. The arrangement path works on Z[w]
integer pairs (a, b) instead, from the parsed line on: `integer_pairs`
clears denominators, `pair_mul` multiplies, `pair_det2` takes a 2x2
determinant and `primitive_pairs` gives a vector's canonical multiple,
which is a line's identity (`poly.LinearForm.ints`), the key of a lattice
point and the form of a kernel vector; a polynomial is Z[w] integer
pairs over one denominator (`poly.Poly`). Scalars are made only where text
enters or leaves the library: parsed literals, a line's normalized
coefficients, the library's lattice points and the entries of `--poly`
relation matrices. Scalar arithmetic runs only in the parsers
(`parse_scalar` and the expression parser's term maps, `poly._map_*`).
The scalar grammar and `INTEGER` read ASCII digits only.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import DivisionByZero, ParseError

RationalLike = Union[int, Fraction]
DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit() also admits '²' and '٣'
INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII only: int() also takes '1_000' and '٣'


class FieldTag(Enum):
    Q = "Q"
    QW = "Qw"


class Scalar:
    """Element a + b*w of Q(w), with exact Fraction components.

    Supports +, -, * and / against other scalars, ints and Fractions.
    All operations are exact; there is no floating point anywhere.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def is_rational(self) -> bool:
        return not self.b

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        return NotImplemented

    def __add__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Scalar(o.a - self.a, o.b - self.b)

    def __neg__(self):
        return Scalar(-self.a, -self.b)

    def __mul__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # (a1 + b1 w)(a2 + b2 w) with w^2 = -1 - w
        if not self.b and not o.b:
            return Scalar(self.a * o.a)
        p = self.a * o.a
        q = self.b * o.b
        return Scalar(p - q, self.a * o.b + self.b * o.a - q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def norm(self) -> Fraction:
        """Field norm a^2 - a*b + b^2; zero iff the scalar is zero."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self) -> "Scalar":
        n = self.norm()
        if not n:
            raise DivisionByZero("cannot invert zero")
        return Scalar((self.a - self.b) / n, -self.b / n)

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        o = Scalar._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if not self.b:
            return hash(self.a)
        return hash((self.a, self.b))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar({format_scalar(self)!r})"


ZERO = Scalar(0)
ONE = Scalar(1)
OMEGA = Scalar(0, 1)


# -- Z[w] integer pairs (a, b), meaning a + b*w ------------------------------


def integer_pairs(scalars: Sequence[Scalar]) -> list:
    """The scalars scaled by the lcm of their denominators, as Z[w] pairs."""
    # the shared ZERO fills most matrix cells; any other zero takes the general path
    nonzero = [s for s in scalars if s is not ZERO]
    scale = lcm(*(s.a.denominator for s in nonzero), *(s.b.denominator for s in nonzero))
    return [
        (0, 0) if s is ZERO else (
            s.a.numerator * (scale // s.a.denominator),
            s.b.numerator * (scale // s.b.denominator),
        )
        for s in scalars
    ]


def pair_mul(x: tuple, y: tuple) -> tuple:
    """Product of two Z[w] pairs, with w^2 = -1 - w."""
    xa, xb = x
    ya, yb = y
    if xb == 0 and yb == 0:
        return (xa * ya, 0)
    q = xb * yb
    return (xa * ya - q, xa * yb + xb * ya - q)


def pair_det2(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple:
    """a*b - c*d for Z[w] pairs."""
    p, q = pair_mul(a, b), pair_mul(c, d)
    return (p[0] - q[0], p[1] - q[1])


def primitive_pairs(vec: Sequence[tuple]) -> tuple:
    """The canonical representative of the Q(w)-line through a nonzero Z[w]
    vector: vec times the conjugate of its first nonzero entry, which turns
    that entry into its positive norm, divided by the gcd of all its
    integers. Two vectors that differ by a scalar lambda have products that
    differ by the positive rational N(lambda), which the gcd removes; so the
    result is the vector with lead entry 1 times the lcm s of its
    denominators, its lead entry (s, 0). A lead (s, 0), s > 0, skips the product."""
    la, lb = next(x for x in vec if x != (0, 0))
    conj = (la - lb, -lb)
    out = vec if lb == 0 < la else [x if x == (0, 0) else pair_mul(x, conj) for x in vec]
    g = gcd(*(n for x in out for n in x))
    return tuple((a // g, b // g) for a, b in out)


def smallest_tag(scalars: Iterable[Scalar]) -> FieldTag:
    """Q if every scalar is rational, Qw otherwise."""
    for s in scalars:
        if s.b:
            return FieldTag.QW
    return FieldTag.Q


def format_scalar(s: Scalar) -> str:
    """Canonical text form; parse_scalar(format_scalar(s)) == s."""
    if not s.b:
        return str(s.a)
    mag = abs(s.b)
    wpart = "w" if mag == 1 else f"{mag}*w"
    if not s.a:
        return wpart if s.b > 0 else "-" + wpart
    sign = "+" if s.b > 0 else "-"
    return f"{s.a}{sign}{wpart}"


def _scan_rational(text: str, i: int) -> tuple[Fraction, int]:
    start = i
    n = len(text)
    while i < n and text[i] in DIGITS:
        i += 1
    if i == start:
        raise ParseError("expected a digit", position=start)
    num = int(text[start:i])
    if i < n and text[i] == "/":
        j = i + 1
        while j < n and text[j] in DIGITS:
            j += 1
        if j == i + 1:
            raise ParseError("expected digits after '/'", position=i + 1)
        den = int(text[i + 1:j])
        if den == 0:
            raise ParseError("zero denominator", position=i + 1)
        return Fraction(num, den), j
    return Fraction(num), i


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar grammar: signed rationals and w-terms joined by +/-.

    Accepted terms are `p/q`, `p/q*w`, and bare `w`; a sign may prefix the
    first term. Anything else (in particular `w^2`) is a ParseError carrying
    the offset of the offending character.
    """
    s = text.replace("−", "-")  # tolerate the typographic minus
    n = len(s)
    i = 0
    result = Scalar(0)
    first = True
    while True:
        while i < n and s[i].isspace():
            i += 1
        sign = 1
        if first:
            if i < n and s[i] in "+-":
                if s[i] == "-":
                    sign = -1
                i += 1
        else:
            if i >= n:
                break
            if s[i] == "+":
                i += 1
            elif s[i] == "-":
                sign = -1
                i += 1
            else:
                raise ParseError(f"unexpected character {s[i]!r}", position=i)
        while i < n and s[i].isspace():
            i += 1
        if i >= n:
            raise ParseError("expected a term", position=i)
        if s[i] == "w":
            term = Scalar(0, sign)
            i += 1
        else:
            value, i = _scan_rational(s, i)
            if i < n and s[i] == "*":
                if i + 1 < n and s[i + 1] == "w":
                    term = Scalar(0, sign * value)
                    i += 2
                else:
                    raise ParseError("expected 'w' after '*'", position=i + 1)
            else:
                term = Scalar(sign * value)
        if i < n and s[i] == "^":
            raise ParseError("powers are not allowed in scalar literals", position=i)
        result = result + term
        first = False
        while i < n and s[i].isspace():
            i += 1
        if i >= n:
            break
        if s[i] not in "+-":
            raise ParseError(f"unexpected character {s[i]!r}", position=i)
    return result
