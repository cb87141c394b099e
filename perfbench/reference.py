"""Exact arithmetic written for the benchmark alone, so that its checks do
not rest on the code under test.

* Q(w) scalars are pairs (a, b) of Fractions meaning a + b*w, w^2 = -w - 1.
* Polynomials are dicts {(i, j, k): scalar} for x^i y^j z^k.
* `witness_holds` checks a syzygy a*f_x + b*f_y + c*f_z = 0 exactly.
* `full_column_rank_mod_p` shows that the degree-r relation matrix has no
  kernel, by its rank over F_p with w sent to a cube root of unity. Rank can
  only drop under reduction mod p, so full rank mod p proves full rank over
  Q(w); an unlucky prime only costs a retry with the next one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

# -- Q(w) scalars -------------------------------------------------------------


def s_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def s_mul(x, y):
    q = x[1] * y[1]
    return (x[0] * y[0] - q, x[0] * y[1] + x[1] * y[0] - q)


def s_scale(x, n):
    return (x[0] * n, x[1] * n)


_RATIONAL = re.compile(r"\d+(?:/\d+)?")


def parse_scalar(text: str):
    """`rat`, `rat*w`, `w` terms joined by + and -, as in `.lines` files."""
    s = text.replace(" ", "")
    i, out = 0, ZERO
    while i < len(s):
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        if s.startswith("w", i):
            out = s_add(out, (Fraction(0), Fraction(sign)))
            i += 1
            continue
        m = _RATIONAL.match(s, i)
        if not m:
            raise ValueError(f"bad scalar {text!r}")
        value = Fraction(m.group()) * sign
        i = m.end()
        if s.startswith("*w", i):
            out = s_add(out, (Fraction(0), value))
            i += 2
        else:
            out = s_add(out, (value, Fraction(0)))
    return out


def format_scalar(x) -> str:
    """Text for a .lines file; inverse of parse_scalar."""
    a, b = x
    if not b:
        return str(a)
    wpart = f"{b}*w"
    if not a:
        return wpart
    return f"{a}{'+' if b > 0 else ''}{wpart}"


# -- polynomials ----------------------------------------------------------------


def p_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[m] = s_add(out.get(m, ZERO), s_mul(c1, c2))
    return {m: c for m, c in out.items() if c != ZERO}


def p_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = s_add(out.get(m, ZERO), c)
    return {m: c for m, c in out.items() if c != ZERO}


def p_partial(f: dict, var: int) -> dict:
    out = {}
    for m, c in f.items():
        if m[var]:
            mm = list(m)
            mm[var] -= 1
            out[tuple(mm)] = s_scale(c, m[var])
    return out


def product_of_lines(lines) -> dict:
    """Expand the product of the linear forms (three scalars each)."""
    f = {(0, 0, 0): ONE}
    for a, b, c in lines:
        form = {m: v for m, v in zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (a, b, c)) if v != ZERO}
        f = p_mul(f, form)
    return f


_TERM = re.compile(r"[+-]?(?:\([^()]*\)|[^+\-()])+")


def parse_poly(text: str) -> dict:
    """Parse the witness text the CLI prints: signed terms such as
    `-3/2*x^2*y`, `w*z`, `(1+2*w)*x*y^3`, or `0`."""
    text = text.strip()
    if text == "0":
        return {}
    terms = _TERM.findall(text)
    if "".join(terms) != text:
        raise ValueError(f"cannot split polynomial {text!r}")
    out: dict = {}
    for term in terms:
        sign = -1 if term[0] == "-" else 1
        body = term.lstrip("+-")
        coef, mono = s_scale(ONE, sign), [0, 0, 0]
        factors = _split_paren(body) if body.startswith("(") else body.split("*")
        for factor in factors:
            if factor.startswith("("):
                coef = s_mul(coef, parse_scalar(factor[1:-1]))
            elif factor == "w":
                coef = s_mul(coef, (Fraction(0), Fraction(1)))
            elif factor[0] in "xyz":
                name, _, exp = factor.partition("^")
                mono["xyz".index(name)] += int(exp or 1)
            else:
                coef = s_mul(coef, (Fraction(factor), Fraction(0)))
        key = tuple(mono)
        out[key] = s_add(out.get(key, ZERO), coef)
    return {m: c for m, c in out.items() if c != ZERO}


def _split_paren(body: str) -> list:
    close = body.index(")")
    rest = body[close + 1:].lstrip("*")
    return [body[:close + 1]] + (rest.split("*") if rest else [])


def witness_holds(f: dict, witness, r: int) -> bool:
    """True iff (a, b, c) is nonzero, homogeneous of degree r, and
    a*f_x + b*f_y + c*f_z == 0 exactly."""
    if not any(witness):
        return False
    if any(sum(m) != r for p in witness for m in p):
        return False
    total: dict = {}
    for var, p in enumerate(witness):
        total = p_add(total, p_mul(p, p_partial(f, var)))
    return not total


# -- rank mod p --------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):  # exact below 3.3e24
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_1_mod_3(start: int = 2**31 - 1):
    """Primes p >= start with p = 1 (mod 3), in increasing order."""
    p = start
    while True:
        if p % 3 == 1 and _is_prime(p):
            yield p
        p += 1


def cube_root_of_unity(p: int) -> int:
    for g in range(2, p):
        z = pow(g, (p - 1) // 3, p)
        if z != 1:
            return z
    raise ValueError(f"no primitive cube root of unity mod {p}")


def _reduce(x, p: int, w: int) -> int:
    a, b = x
    num = (a.numerator * b.denominator + b.numerator * a.denominator * w) % p
    return num * pow(a.denominator * b.denominator, -1, p) % p


def monomials(r: int) -> list:
    """Degree-r monomials; any fixed order serves for a rank."""
    return [(i, j, r - i - j) for i in range(r, -1, -1) for j in range(r - i, -1, -1)]


def relation_shape(d: int, r: int) -> tuple:
    """(rows, cols) of the degree-r Jacobian relation matrix of a degree-d f."""
    return (len(monomials(r + d - 1)), 3 * len(monomials(r)))


def _rank_mod_p(columns: list, p: int) -> int:
    """Rank of the matrix whose columns are given as dicts {row: value}."""
    pivots: dict = {}  # pivot row -> reduced column with 1 at that row
    rank = 0
    for col in columns:
        v = {i: x % p for i, x in col.items() if x % p}
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], -1, p)
                pivots[lead] = {i: x * inv % p for i, x in v.items()}
                rank += 1
                break
            t = v[lead]
            for i, x in piv.items():
                y = (v.get(i, 0) - t * x) % p
                if y:
                    v[i] = y
                else:
                    v.pop(i, None)
    return rank


def full_column_rank_mod_p(f: dict, r: int, tries: int = 3):
    """Return the prime that shows the degree-r relation matrix of f has a
    zero kernel, or None if `tries` primes all failed to show it."""
    d = sum(next(iter(f)))
    source = monomials(r)
    row = {m: k for k, m in enumerate(monomials(r + d - 1))}
    partials = [p_partial(f, var) for var in range(3)]
    for p, _ in zip(primes_1_mod_3(), range(tries)):
        w = cube_root_of_unity(p)
        columns = []
        for part in partials:
            reduced = [(m, _reduce(c, p, w)) for m, c in part.items()]
            for s in source:
                col: dict = {}
                for m, c in reduced:
                    k = row[(m[0] + s[0], m[1] + s[1], m[2] + s[2])]
                    col[k] = (col.get(k, 0) + c) % p
                columns.append(col)
        if _rank_mod_p(columns, p) == len(columns):
            return p
    return None


# -- lattice census ------------------------------------------------------------------


def det3(u, v, t):
    """Determinant of three integer coefficient triples."""
    return (u[0] * (v[1] * t[2] - v[2] * t[1])
            - u[1] * (v[0] * t[2] - v[2] * t[0])
            + u[2] * (v[0] * t[1] - v[1] * t[0]))


def no_three_concurrent(lines) -> bool:
    """True iff no three of the integer lines pass through one point."""
    return all(det3(u, v, t) for u, v, t in combinations(lines, 3))
