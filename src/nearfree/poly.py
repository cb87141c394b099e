"""Sparse homogeneous polynomials in x, y, z over an exact coefficient field.

Monomials are exponent triples (i, j, k) meaning x^i y^j z^k, ordered
graded-lexicographically with x > y > z; that order fixes every basis
enumeration and therefore every matrix layout downstream. Polynomials are
immutable values held as Z[w] integers over one denominator: `Poly.terms`
maps each monomial to a pair (a, b) meaning (a + b*w) / `Poly.den`. The
product of an arrangement's lines (`product_of_forms`) is expanded from
their primitive Z[w] triples (`LinearForm.ints`) on two term maps of Z[w]
integers, the real and the w part. Scalars are made only where text
enters: the expression parser works on Scalar term maps (`_map_add`,
`_map_mul`) and converts its result once. `format_poly` prints from the
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
    DIGITS,
    ONE,
    FieldTag,
    Scalar,
    _scan_rational,
    integer_pairs,
    primitive_pairs,
    smallest_tag,
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


def _map_neg(m):
    return {mono: -c for mono, c in m.items()}


def _map_add(m1, m2):
    out = dict(m1)
    for mono, c in m2.items():
        prev = out.get(mono)
        c = c if prev is None else prev + c
        if c:
            out[mono] = c
        elif prev is not None:
            del out[mono]
    return out


def _map_mul(m1, m2):
    out: dict = {}
    for mono1, c1 in m1.items():
        for mono2, c2 in m2.items():
            mono = _mono_mul(mono1, mono2)
            c = c1 * c2
            prev = out.get(mono)
            c = c if prev is None else prev + c
            if c:
                out[mono] = c
            elif prev is not None:
                del out[mono]
    return out


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
    coefficients are ints, Scalars or Fractions, or three Z[w] pairs."""

    __slots__ = ("ints",)

    def __init__(self, cx, cy, cz):
        if type(cx) is int and type(cy) is int and type(cz) is int:
            pairs = [(cx, 0), (cy, 0), (cz, 0)]
        elif type(cx) is tuple:  # three Z[w] pairs (a, b), as `from_poly` passes them
            pairs = [cx, cy, cz]
        else:
            pairs = integer_pairs([c if isinstance(c, Scalar) else Scalar(c) for c in (cx, cy, cz)])
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
# ---------------------------------------------------------------------------

_NUM, _VAR, _W, _OP = "num", "var", "w", "op"


def _tokenize(text: str):
    s = text.replace("−", "-")
    tokens = []
    i = 0
    n = len(s)
    while i < n:
        ch = s[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((_OP, ch, i))
            i += 1
        elif ch in "xyz":
            tokens.append((_VAR, "xyz".index(ch), i))
            i += 1
        elif ch == "w":
            tokens.append((_W, None, i))
            i += 1
        elif ch in DIGITS:
            value, j = _scan_rational(s, i)
            tokens.append((_NUM, value, i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", position=i)
    return tokens


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
        if tok[0] is not _OP or tok[1] != symbol:
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
        if tok is not None and tok[0] is _OP and tok[1] == "-":
            self.pos += 1
            negate = True
        value = self.term()
        if negate:
            value = _map_neg(value)
        while True:
            tok = self._peek()
            if tok is None or tok[0] is not _OP or tok[1] not in "+-":
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
            if tok is None or tok[0] is not _OP or tok[1] != "*":
                return value
            self.pos += 1
            value = _map_mul(value, self.factor())

    def factor(self):
        value = self.base()
        tok = self._peek()
        if tok is not None and tok[0] is _OP and tok[1] == "^":
            self.pos += 1
            exp_tok = self._take()
            if exp_tok[0] is not _NUM or exp_tok[1].denominator != 1:
                raise ParseError("exponent must be a non-negative integer", position=exp_tok[2])
            value = _map_pow(value, int(exp_tok[1]))
        return value

    def base(self):
        tok = self._take()
        kind, payload, pos = tok
        if kind is _OP and payload == "(":
            value = self.expr()
            self._expect_op(")")
            return value
        if kind is _VAR:
            mono = tuple(1 if k == payload else 0 for k in range(3))
            return {mono: ONE}
        if kind is _W:
            return {(0, 0, 0): Scalar(0, 1)}
        if kind is _NUM:
            return {(0, 0, 0): Scalar(payload)}
        raise ParseError(f"unexpected token {payload!r}", position=pos)


def _map_pow(m, e):
    out = {(0, 0, 0): ONE}
    for _ in range(e):
        out = _map_mul(out, m)
    return out


def parse_poly(text: str, tag: FieldTag = None) -> Poly:
    """Parse and expand an expression into a homogeneous polynomial.

    With tag=None the smallest field is inferred from the result; an
    explicit Q tag rejects any expression involving w with FieldMismatch.
    A non-homogeneous expansion raises NotHomogeneous.
    """
    terms = _Parser(_tokenize(text), len(text)).parse()
    terms = {m: c for m, c in terms.items() if c}
    if tag is None:
        tag = smallest_tag(terms.values())
    if not terms:
        return Poly(0, {}, tag)
    degrees = {sum(m) for m in terms}
    if len(degrees) > 1:
        raise NotHomogeneous(
            f"expression mixes degrees {sorted(degrees)}"
        )
    den = lcm(*(c.a.denominator for c in terms.values()), *(c.b.denominator for c in terms.values()))
    return Poly(degrees.pop(), dict(zip(terms, integer_pairs(list(terms.values())))), tag, den)


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
