"""Sparse homogeneous polynomials in x, y, z over an exact coefficient field.

Monomials are exponent triples (i, j, k) meaning x^i y^j z^k, ordered
graded-lexicographically with x > y > z; that order fixes every basis
enumeration and therefore every matrix layout downstream. Polynomials are
immutable values held as Z[w] integers over one denominator: `Poly.terms`
maps each monomial to a pair (a, b) meaning (a + b*w) / `Poly.den`. The
product of an arrangement's lines (`product_of_forms`) is expanded from
their primitive Z[w] triples (`LinearForm.ints`) on two term maps of Z[w]
integers, the real and the w part. The expression parser reads the
tokens of `field.tokenize` into term maps of that form, Z[w] pairs over
one denominator (`_map_add`, `_map_mul`). `format_poly` prints from the
integers, and `Poly.coefficient`, the Scalar view, serves `--poly`
relation matrices.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Sequence

from .errors import (
    FieldMismatch,
    NotHomogeneous,
    ParseError,
    ZeroDerivativeDomain,
)
from .field import (
    BAD,
    NUM,
    OP,
    VAR,
    W,
    FieldTag,
    Scalar,
    pair_mul,
    primitive_pairs,
    tokenize,
)

Monomial = tuple  # (i, j, k) exponents
VARIABLES = ("x", "y", "z")


@lru_cache(maxsize=None)
def graded_basis(r: int) -> tuple:
    """All monomials of total degree r in descending graded-lex order.

    Length is (r+1)(r+2)/2; the first entry is x^r, the last z^r.
    """
    if r < 0:
        raise ValueError("degree must be non-negative")
    return tuple(
        (i, j, r - i - j) for i in range(r, -1, -1) for j in range(r - i, -1, -1)
    )


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


# -- term-map arithmetic of the expression parser -----------------------------
#
# A term map is (terms, den): monomial -> Z[w] pair (a, b), meaning
# (a + b*w) / den, den > 0. Zero pairs may stay in terms; parse_poly drops them.


def _map_neg(m):
    terms, den = m
    return {mono: (-a, -b) for mono, (a, b) in terms.items()}, den


def _map_add(m1, m2):
    (t1, d1), (t2, d2) = m1, m2
    den = lcm(d1, d2)
    s1, s2 = den // d1, den // d2
    out = dict(t1) if s1 == 1 else {mono: (a * s1, b * s1) for mono, (a, b) in t1.items()}
    for mono, (a, b) in t2.items():
        prev = out.get(mono)
        a, b = (a * s2, b * s2) if prev is None else (prev[0] + a * s2, prev[1] + b * s2)
        if a or b:
            out[mono] = (a, b)
        elif prev is not None:
            del out[mono]
    return out, den


def _map_mul(m1, m2):
    (t1, d1), (t2, d2) = m1, m2
    out: dict = {}
    for mono1, c1 in t1.items():
        for mono2, c2 in t2.items():
            mono = _mono_mul(mono1, mono2)
            a, b = pair_mul(c1, c2)
            prev = out.get(mono)
            if prev is not None:
                a, b = prev[0] + a, prev[1] + b
            if a or b:
                out[mono] = (a, b)
            elif prev is not None:
                del out[mono]
    return out, d1 * d2


@lru_cache(maxsize=None)
def _mono_str(m: Monomial) -> str:
    parts = []
    for name, e in zip(VARIABLES, m):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


class Poly:
    """A homogeneous polynomial: fixed degree, term map monomial -> Z[w]
    integer pair (a, b), all over the positive integer `den`.

    The representation is canonical: zero pairs are dropped and den has no
    common factor with all the pairs, so equal polynomials have equal
    fields. The zero polynomial of degree d keeps its degree, has no terms
    and den 1.
    """

    __slots__ = ("degree", "terms", "tag", "den")

    def __init__(self, degree: int, terms: dict, tag: FieldTag, den: int = 1):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if den < 1:
            raise ValueError("the denominator must be a positive integer")
        clean = {}
        for mono, (a, b) in terms.items():
            if not (a or b):
                continue
            if sum(mono) != degree:
                raise NotHomogeneous(
                    f"monomial {_mono_str(mono) or '1'} has degree {sum(mono)}, expected {degree}"
                )
            if tag is FieldTag.Q and b:
                raise FieldMismatch("non-rational coefficient in a Q-tagged polynomial")
            clean[mono] = (a, b)
        g = gcd(den, *(n for pair in clean.values() for n in pair))
        if g > 1:
            clean = {mono: (a // g, b // g) for mono, (a, b) in clean.items()}
        self.degree = degree
        self.terms = clean
        self.tag = tag
        self.den = den // g

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def partial(self, var: int) -> "Poly":
        """Partial derivative with respect to variable index 0, 1 or 2."""
        if self.degree == 0:
            raise ZeroDerivativeDomain("cannot differentiate a degree-0 polynomial")
        terms: dict = {}
        for mono, (a, b) in self.terms.items():
            e = mono[var]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[var] = e - 1
            terms[tuple(lowered)] = (a * e, b * e)
        return Poly(self.degree - 1, terms, self.tag, self.den)

    # -- views ----------------------------------------------------------

    def coefficient(self, mono: Monomial) -> Scalar:
        a, b = self.terms.get(mono, (0, 0))
        return Scalar(Fraction(a, self.den), Fraction(b, self.den))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.tag is other.tag
            and self.den == other.den
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.degree, self.tag, self.den, frozenset(self.terms.items())))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<Poly deg={self.degree} {self.tag.value}: {format_poly(self)}>"


class LinearForm:
    """A projective line a*x + b*y + c*z = 0, held as `ints`, its primitive
    Z[w] triple (`field.primitive_pairs`: lead (s, 0) with s > 0, content 1).
    Q(w)-multiples of one line share it, so == and hash use it. The
    coefficients are three ints or three Z[w] pairs (a, b)."""

    __slots__ = ("ints",)

    def __init__(self, cx, cy, cz):
        if type(cx) is int and type(cy) is int and type(cz) is int:
            pairs = [(cx, 0), (cy, 0), (cz, 0)]
        else:
            pairs = [cx, cy, cz]
        if pairs == [(0, 0)] * 3:
            raise ValueError("a linear form needs at least one nonzero coefficient")
        self.ints = primitive_pairs(pairs)

    @classmethod
    def from_poly(cls, p: Poly) -> "LinearForm":
        if p.degree != 1 or p.is_zero():
            raise ValueError("expected a nonzero degree-1 polynomial")
        # the Z[w] pairs of p.terms; p.den scales the line and does not change it
        return cls(*(p.terms.get(mono, (0, 0)) for mono in graded_basis(1)))

    @classmethod
    def parse(cls, text: str) -> "LinearForm":
        p = parse_poly(text)
        if p.degree != 1 or p.is_zero():
            raise ParseError(f"expected a linear form, got degree {p.degree}")
        return cls.from_poly(p)

    def to_poly(self, tag: FieldTag = None) -> Poly:
        if tag is None:
            tag = FieldTag.Q if self.is_rational() else FieldTag.QW
        s = next(a for a, _ in self.ints if a)
        return Poly(1, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), self.ints)), tag, s)

    def is_rational(self) -> bool:
        return not any(b for _, b in self.ints)

    def __eq__(self, other):
        if not isinstance(other, LinearForm):
            return NotImplemented
        return self.ints == other.ints

    def __hash__(self):
        return hash(self.ints)

    def __str__(self):
        return format_poly(self.to_poly())

    def __repr__(self):
        return f"LinearForm({self})"


def product_of_forms(forms: Sequence[LinearForm], tag: FieldTag = None) -> Poly:
    """Expand the product of the given linear forms.

    The forms' `ints`, each with lead (L, 0), are multiplied in one at a
    time into two integer term maps, the real and the w part, x^i y^j
    z^(d-i-j) under the key i*(d+1) + j: times x adds d + 1 to a key, times
    y adds 1, times z adds 0. The pairs, in ascending key order, are f
    over the product of the L.
    """
    if not forms:
        raise ValueError("need at least one linear form")
    if tag is None:
        tag = FieldTag.Q if all(form.is_rational() for form in forms) else FieldTag.QW
    lines = [form.ints for form in forms]
    d = len(lines)
    scale = 1
    re, im = {0: 1}, {}
    for line in lines:
        scale *= next(a for a, _ in line if a)
        new_re, new_im = {}, {}
        for (a, b), step in zip(line, (d + 1, 1, 0)):
            if not (a or b):
                continue
            # (s + t w)(a + b w) = s a - t b + (s b + t a - t b) w, w^2 = -1 - w
            for key, s in re.items():
                k = key + step
                new_re[k] = new_re.get(k, 0) + s * a
                if b:
                    new_im[k] = new_im.get(k, 0) + s * b
            for key, t in im.items():
                k = key + step
                new_im[k] = new_im.get(k, 0) + t * (a - b)
                if b:
                    new_re[k] = new_re.get(k, 0) - t * b
        re, im = new_re, new_im
    terms = {}
    for key in sorted(re.keys() | im.keys()):
        i, j = divmod(key, d + 1)
        terms[(i, j, d - i - j)] = (re.get(key, 0), im.get(key, 0))
    return Poly(d, terms, tag, scale)


# ---------------------------------------------------------------------------
# Expression parser
#
# expr   := ['-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nat)?
# base   := '(' expr ')' | 'x' | 'y' | 'z' | 'w' | rational
#
# over the tokens of `field.tokenize`, the reader of scalar literals too
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser producing a (possibly inhomogeneous) term map."""

    def __init__(self, tokens, length):
        self.tokens = tokens
        self.pos = 0
        self.length = length

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", position=self.length)
        self.pos += 1
        return tok

    def _expect_op(self, symbol):
        tok = self._take()
        if tok[0] is not OP or tok[1] != symbol:
            raise ParseError(f"expected {symbol!r}", position=tok[2])

    def parse(self):
        value = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError("trailing input", position=tok[2])
        return value

    def expr(self):
        tok = self._peek()
        negate = False
        if tok is not None and tok[0] is OP and tok[1] == "-":
            self.pos += 1
            negate = True
        value = self.term()
        if negate:
            value = _map_neg(value)
        while True:
            tok = self._peek()
            if tok is None or tok[0] is not OP or tok[1] not in "+-":
                return value
            self.pos += 1
            rhs = self.term()
            if tok[1] == "-":
                rhs = _map_neg(rhs)
            value = _map_add(value, rhs)

    def term(self):
        value = self.factor()
        while True:
            tok = self._peek()
            if tok is None or tok[0] is not OP or tok[1] != "*":
                return value
            self.pos += 1
            value = _map_mul(value, self.factor())

    def factor(self):
        value = self.base()
        tok = self._peek()
        if tok is not None and tok[0] is OP and tok[1] == "^":
            self.pos += 1
            exp_tok = self._take()
            # a literal p/q is an exponent when q divides p: x^4/2 is x^2
            if exp_tok[0] is not NUM or exp_tok[1][0] % exp_tok[1][1]:
                raise ParseError("exponent must be a non-negative integer", position=exp_tok[2])
            value = _map_pow(value, exp_tok[1][0] // exp_tok[1][1])
        return value

    def base(self):
        tok = self._take()
        kind, payload, pos = tok
        if kind is OP and payload == "(":
            value = self.expr()
            self._expect_op(")")
            return value
        if kind is VAR:
            return {tuple(int(v == payload) for v in "xyz"): (1, 0)}, 1
        if kind is W:
            return {(0, 0, 0): (0, 1)}, 1
        if kind is NUM:
            return {(0, 0, 0): (payload[0], 0)}, payload[1]
        raise ParseError(f"unexpected token {payload!r}", position=pos)


def _map_pow(m, e):
    out = {(0, 0, 0): (1, 0)}, 1
    for _ in range(e):
        out = _map_mul(out, m)
    return out


def parse_poly(text: str, tag: FieldTag = None) -> Poly:
    """Parse and expand an expression into a homogeneous polynomial.

    With tag=None the smallest field is read off the w parts of the result;
    an explicit Q tag rejects any expression involving w with FieldMismatch.
    A non-homogeneous expansion raises NotHomogeneous.
    """
    tokens = tokenize(text)
    if tokens and tokens[-1][0] is BAD:
        raise tokens[-1][1]
    terms, den = _Parser(tokens, len(text)).parse()
    terms = {m: (a, b) for m, (a, b) in terms.items() if a or b}
    if tag is None:
        tag = FieldTag.QW if any(b for _, b in terms.values()) else FieldTag.Q
    if not terms:
        return Poly(0, {}, tag)
    degrees = {sum(m) for m in terms}
    if len(degrees) > 1:
        raise NotHomogeneous(
            f"expression mixes degrees {sorted(degrees)}"
        )
    return Poly(degrees.pop(), terms, tag, den)


def format_poly(f: Poly) -> str:
    """Canonical text: terms in descending graded-lex order, explicit * and ^.

    Each coefficient (a + b*w) / den is printed from its integers: a
    rational a/den or b/den in lowest terms (one gcd each), "w" for
    b = ±den, and a coefficient with both parts in parentheses."""
    if not f.terms:
        return "0"
    den = f.den

    def ratio(n):  # n / den in lowest terms, as Fraction prints it
        g = gcd(n, den)
        return str(n // g) if g == den else f"{n // g}/{den // g}"

    out = []
    for mono in sorted(f.terms, reverse=True):
        a, b = f.terms[mono]
        mono_s = _mono_str(mono)
        w_s = "" if not b else "w" if abs(b) == den else ratio(abs(b)) + "*w"
        if not b:
            negative, coef_s = a < 0, "" if abs(a) == den and mono_s else ratio(abs(a))
        elif not a:
            negative, coef_s = b < 0, w_s
        else:
            negative, coef_s = False, f"({ratio(a)}{'+' if b > 0 else '-'}{w_s})"
        sign = "-" if negative else "+" if out else ""
        out.append(sign + "*".join(p for p in (coef_s, mono_s) if p))
    return "".join(out)
