"""Exact coefficients over Q and over Q(w), where w^2 = -w - 1.

Every command computes on Z[w] integer pairs (a, b), meaning a + b*w with
w a primitive cube root of unity kept symbolic, from the first character
of its input: `tokenize` is the one tokenizer of scalar literals and
expressions, and `parse_scalar` reads the scalar grammar from its tokens
as ((a, b), den), meaning (a + b*w) / den, which `scaled_pairs` brings to
one denominator. `pair_mul` multiplies, `pair_det2` takes a 2x2
determinant and `primitive_pairs` gives a vector's canonical multiple,
which is a line's identity (`poly.LinearForm.ints`), the key of a lattice
point and the form of a kernel vector; a polynomial is Z[w] pairs over one
denominator (`poly.Poly`). A `Scalar`, a pair of Fractions, is only a view
of a value read back out: the coefficients of a Poly (`Poly.coefficient`,
which fills the `--poly` relation matrices that `integer_pairs` scales
back) and the points of `arrangement.singular_points`. No command does
Scalar arithmetic or prints a Scalar; +, * and negation serve the tests'
reference arithmetic. `FieldTag` records the smallest field an object needs. The
tokens and `INTEGER` read ASCII digits only.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

from .errors import ParseError

RationalLike = Union[int, Fraction]
INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII only: int() also takes '1_000' and '٣'


class FieldTag(Enum):
    Q = "Q"
    QW = "Qw"


class Scalar:
    """Element a + b*w of Q(w), with exact Fraction components.

    Supports + and * against other scalars, ints and Fractions, and
    negation. All operations are exact; there is no floating point anywhere.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0):
        self.a = a if type(a) is Fraction else Fraction(a)
        self.b = b if type(b) is Fraction else Fraction(b)

    # -- predicates ---------------------------------------------------

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


# -- the one tokenizer, and the scalar grammar on its tokens ------------------

NUM, VAR, W, OP, BAD = "num", "var", "w", "op", "bad"
# a rational p or p/q, or one character; ASCII digits only, as str.isdigit()
# also admits '²' and '٣'
_TOKEN = re.compile(r"([0-9]+)(?:/([0-9]*))?|\S")


def tokenize(text: str) -> list:
    """The tokens of a scalar literal or an expression, as (kind, payload,
    offset): a rational p or p/q is NUM with the integers (p, q), q = 1 for
    p; x, y, z, w and + - * ^ ( ) are VAR, W and OP with their character.
    Whitespace separates tokens; the typographic minus reads as '-'. Any
    other character, a '/' without digits or a zero denominator ends the
    list as a BAD token holding its ParseError."""
    out = []
    for m in _TOKEN.finditer(text.replace("−", "-")):
        p, q, i = m[1], m[2], m.start()
        if p is None:
            ch = m[0]
            kind = OP if ch in "+-*^()" else VAR if ch in "xyz" else W if ch == "w" else None
            if kind is None:
                out.append((BAD, ParseError(f"unexpected character {ch!r}", position=i), i))
                break
            out.append((kind, ch, i))
        elif q is None or q and int(q):
            out.append((NUM, (int(p), int(q or 1)), i))
        else:
            error = "zero denominator" if q else "expected digits after '/'"
            out.append((BAD, ParseError(error, position=m.start(2)), i))
            break
    return out


def parse_scalar(text: str) -> tuple:
    """Read the scalar grammar [+|-] term ((+|-) term)*, a term p/q, p/q*w
    or w, from the tokens: the value ((a, b), den) of (a + b*w) / den, with
    den > 0 and gcd(a, b, den) = 1. Anything else, `w^2` among it, is a
    ParseError at the first token that does not fit."""
    tokens = tokenize(text) + [(None, None, len(text))]  # and the end
    a = b = 0
    den = sign = 1
    k = 0
    if tokens[0][1] in ("+", "-"):
        sign, k = -1 if tokens[0][1] == "-" else 1, 1
    while True:
        kind, value, pos = tokens[k]
        if kind is NUM:
            p, q = value
            if q != den:
                m = lcm(den, q)
                a, b, p, den = a * (m // den), b * (m // den), p * (m // q), m
            if tokens[k + 1][1] != "*":
                a, k = a + sign * p, k + 1
            elif tokens[k + 2][0] is W:
                b, k = b + sign * p, k + 3
            else:
                raise ParseError("expected 'w' after '*'", position=tokens[k + 2][2])
        elif kind is W:
            b, k = b + sign * den, k + 1
        elif kind is BAD and value.position > pos:  # a '/' without digits, or over 0
            raise value
        else:
            raise ParseError("expected a digit" if kind else "expected a term", position=pos)
        kind, value, pos = tokens[k]
        if kind is None:
            g = gcd(a, b, den)
            return (a // g, b // g), den // g
        if value not in ("+", "-"):
            raise ParseError("powers are not allowed in scalar literals" if value == "^"
                             else f"unexpected character {text[pos]!r}", position=pos)
        sign, k = -1 if value == "-" else 1, k + 1


def scaled_pairs(values: Sequence[tuple]) -> list:
    """Values ((a, b), den), as `parse_scalar` reads them, times the lcm of
    their denominators: Z[w] pairs with the ratios of the values."""
    scale = lcm(*(den for _, den in values))
    return [(a * (scale // den), b * (scale // den)) for (a, b), den in values]
