"""Exact dense linear algebra: rank and right-kernel bases.

`rank` runs Bareiss one-step fraction-free elimination on integer pairs
a + b*w (denominators cleared per row), which avoids gcd churn.

`kernel_basis` returns the canonical kernel basis: pivot columns are taken
left to right, and there is one vector per free column with the other free
coordinates zero, rescaled so its first nonzero entry is 1. It works
modulo primes p = 1 (mod 3) first, with w sent to a cube root of unity in
F_p, and every answer carries a certificate that has been checked:

* "full rank mod p" - the rows, scaled to Z[w], have full column rank mod
  p. Reduction can only lower the rank, so the kernel over Q(w) is zero.
* "verified reconstruction (k primes)" - the RREF kernel mod p (under both
  embeddings w -> ω and w -> ω² over Q(w)) from k primes sharing one pivot
  profile is lifted by CRT and rational reconstruction, each vector to
  Z[w] integers over one common denominator (`_lift`), and each lifted
  vector is checked exactly, in integer arithmetic, against every row.
  There are as many as the kernel dimension mod p, which bounds the exact
  dimension from above, so they span the exact kernel; each one's last
  nonzero entry sits in its own free column, so those are the exact free
  columns and the vectors are the canonical basis.
* "exact elimination" - the primes ran out without a verified basis, so
  the basis comes from Bareiss elimination and fraction-free back
  substitution over Z[w].

Every route ends in Z[w] integers: each vector is normalized by the
conjugate of its lead entry and its content (`Kernel.integral`), and the
Scalar vectors are built from those only when a caller reads them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

from .errors import ToolkitError
from .field import (
    ZERO,
    FieldTag,
    Scalar,
    integer_pairs,
    pack_slots,
    pair_mul,
    smallest_tag,
    unpack_slots,
)


@dataclass(frozen=True)
class ExactMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major scalars, length rows*cols
    tag: FieldTag

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], tag: FieldTag = None) -> "ExactMatrix":
        flat = []
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for v in row:
                flat.append(v if isinstance(v, Scalar) else Scalar(v))
        if tag is None:
            tag = smallest_tag(flat)
        return cls(len(rows), ncols, tuple(flat), tag)

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols:(i + 1) * self.cols])

    def matvec(self, vec: Sequence[Scalar]) -> list:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        out = []
        for i in range(self.rows):
            acc = ZERO
            base = i * self.cols
            for j in range(self.cols):
                e = self.entries[base + j]
                v = vec[j]
                if e and v:
                    acc = acc + e * v
            out.append(acc)
        return out


# -- integer-pair helpers (a + b*w with integer a, b) -----------------------


def _ediv_exact(x, y):
    xa, xb = x
    ya, yb = y
    if yb == 0:
        qa, ra = divmod(xa, ya)
        qb, rb = divmod(xb, ya)
        if ra or rb:
            raise ToolkitError("internal: fraction-free division left a remainder")
        return (qa, qb)
    # multiply by the conjugate, then divide by the integer norm
    na, nb = pair_mul(x, (ya - yb, -yb))
    n = ya * ya - ya * yb + yb * yb
    qa, ra = divmod(na, n)
    qb, rb = divmod(nb, n)
    if ra or rb:
        raise ToolkitError("internal: fraction-free division left a remainder")
    return (qa, qb)


def _integer_rows(m: ExactMatrix) -> list:
    """Scale each row by the lcm of its denominators (kernel unchanged)."""
    return [integer_pairs(m.row(i)) for i in range(m.rows)]


def _bareiss(data: list, ncols: int):
    """Bareiss elimination of integer-pair rows, in place.

    Returns (pivot column list, echelon rows as integer pairs).
    """
    nrows = len(data)
    pivots = []
    prev = (1, 0)
    pr = 0
    for c in range(ncols):
        if pr >= nrows:
            break
        candidates = [i for i in range(pr, nrows) if data[i][c] != (0, 0)]
        if not candidates:
            continue
        best = min(candidates, key=lambda i: (sum(1 for e in data[i] if e != (0, 0)), i))
        if best != pr:
            data[pr], data[best] = data[best], data[pr]
        piv = data[pr][c]
        for i in range(pr + 1, nrows):
            row_i = data[i]
            row_p = data[pr]
            t = row_i[c]
            if t == (0, 0):
                for j in range(c + 1, ncols):
                    e = row_i[j]
                    if e != (0, 0):
                        row_i[j] = _ediv_exact(pair_mul(piv, e), prev)
            else:
                for j in range(c + 1, ncols):
                    ua, ub = pair_mul(piv, row_i[j])
                    va, vb = pair_mul(t, row_p[j])
                    row_i[j] = _ediv_exact((ua - va, ub - vb), prev)
                row_i[c] = (0, 0)
        pivots.append(c)
        prev = piv
        pr += 1
    return pivots, data[:len(pivots)]


def rank(m: ExactMatrix) -> int:
    pivots, _ = _bareiss(_integer_rows(m), m.cols)
    return len(pivots)


def _bareiss_kernel(data: list, ncols: int) -> list:
    """Kernel vectors, one per free column, as Z[w] pairs up to scale.

    Back substitution keeps the vector up to a rational factor: solving
    pivot row i, x_pc = -(row i . x) / piv, multiplies the vector by the
    norm N(piv) and sets x_pc = -(row i . x) * conj(piv), so no division is
    needed; the vector is then divided by the gcd of its parts.
    """
    pivots, rows = _bareiss(data, ncols)
    pivot_set = set(pivots)
    basis = []
    for jf in (j for j in range(ncols) if j not in pivot_set):
        vec = [(0, 0)] * ncols
        vec[jf] = (1, 0)
        for pc, row in zip(reversed(pivots), reversed(rows)):
            if pc > jf:
                continue
            acc_a = acc_b = 0
            for j in range(pc + 1, jf + 1):
                if vec[j] != (0, 0) and row[j] != (0, 0):
                    a, b = pair_mul(row[j], vec[j])
                    acc_a, acc_b = acc_a + a, acc_b + b
            if acc_a or acc_b:
                pa, pb = row[pc]
                norm = pa * pa - pa * pb + pb * pb
                vec = [(a * norm, b * norm) for a, b in vec]
                vec[pc] = pair_mul((-acc_a, -acc_b), (pa - pb, -pb))
                g = gcd(*(n for x in vec for n in x))
                vec = [(a // g, b // g) for a, b in vec]
        basis.append(vec)
    return basis


# -- modular kernel ---------------------------------------------------------

# Primes p = 1 (mod 3) just above 2^127, so F_p holds a cube root of unity.
PRIMES = (2**127 + 29, 2**127 + 65, 2**127 + 101, 2**127 + 251)

FULL_RANK_MOD_P = "full rank mod p"
EXACT_ELIMINATION = "exact elimination"


class Kernel(Sequence):
    """A kernel basis, a sequence of Scalar vectors, with the certificate
    that settled it. `integral` holds the same vectors in Z[w]: each one
    times the lcm s of its denominators, as integer pairs, its lead entry
    (s, 0). The Scalar vectors are built once, on first access, so a caller
    that reads only `integral` never builds them."""

    def __init__(self, vectors, certificate: str):
        self.integral = [_canonical(vec) for vec in vectors]
        self.certificate = certificate
        self._scalars = None

    def __len__(self):
        return len(self.integral)

    def __getitem__(self, k):
        if self._scalars is None:
            self._scalars = [_scalar_vector(vec) for vec in self.integral]
        return self._scalars[k]

    def __eq__(self, other):
        if not isinstance(other, (list, Kernel)):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def __repr__(self):
        return f"Kernel({list(self)!r}, {self.certificate!r})"


def _lead(vec: list) -> tuple:
    return next(x for x in vec if x != (0, 0))


def _scalar_vector(vec: list) -> list:
    s = _lead(vec)[0]
    return [ZERO if x == (0, 0) else Scalar(Fraction(x[0], s), Fraction(x[1], s)) for x in vec]


def _canonical(vec: list) -> list:
    """A nonzero Z[w] vector rescaled so its lead entry is a positive integer
    and its parts have no common factor: the vector with lead 1, times the
    lcm of its denominators. Multiplying by the conjugate of the lead entry
    turns it into its norm; the gcd division then leaves the lead (s, 0)."""
    la, lb = _lead(vec)
    conj = (la - lb, -lb)
    out = [x if x == (0, 0) else pair_mul(x, conj) for x in vec]
    g = gcd(*(n for x in out for n in x))
    return [(a // g, b // g) for a, b in out]


def _cube_root(p: int) -> int:
    """A primitive cube root of unity mod p, for p = 1 (mod 3)."""
    g = 2
    while (root := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    return root


def _echelon_mod(data: list, ncols: int, p: int, w: int):
    """Row echelon form of integer-pair rows a + b*w mod p, w sent to the
    residue w: (pivot columns, pivot rows).

    Pivot rows are full-length residue lists with leading entry 1. While
    pending, a row is packed into one integer with a fixed-width slot per
    column, so a row operation is one big-integer multiply-add. Slots only
    ever grow by adding products of two residues, at most once per pivot,
    so they stay below the slot width and never carry into each other; they
    are reduced mod p only when read. The lowest slot is shifted out after
    each column, so slot 0 always holds the current column.
    """
    nbytes = (2 * p.bit_length() + ncols.bit_length() + 8) // 8
    shift, mask = 8 * nbytes, (1 << 8 * nbytes) - 1
    packed_rows = (pack_slots([(a + b * w) % p for a, b in row], nbytes) for row in data)
    pending = [row for row in packed_rows if row]
    pivots, echelon = [], []
    for c in range(ncols):
        if not pending:
            break
        leads = [(row & mask) % p for row in pending]
        k = next((i for i, t in enumerate(leads) if t), None)
        if k is not None:
            tail = unpack_slots(pending.pop(k), ncols - c, nbytes)
            inv = pow(leads.pop(k), -1, p)
            tail = [x * inv % p for x in tail]
            pivots.append(c)
            echelon.append([0] * c + tail)
            packed = pack_slots(tail, nbytes)
            pending = [row + (p - t) * packed if t else row for row, t in zip(pending, leads)]
        pending = [row >> shift for row in pending]
    return pivots, echelon


def _kernel_from_echelon(pivots: list, echelon: list, ncols: int, p: int) -> list:
    """Kernel vectors mod p, one per free column, that entry 1, other free 0."""
    pivot_set = set(pivots)
    basis = []
    for jf in (j for j in range(ncols) if j not in pivot_set):
        vec = [0] * ncols
        vec[jf] = 1
        support = [(jf, 1)]  # nonzero entries so far, all right of the next pivot
        for pc, row in zip(reversed(pivots), reversed(echelon)):
            if pc < jf:
                v = -sum(row[j] * x for j, x in support) % p
                if v:
                    vec[pc] = v
                    support.append((pc, v))
        basis.append(vec)
    return basis


def _crt(x: int, m: int, y: int, p: int) -> int:
    """The residue mod m*p that is x mod m and y mod p."""
    return x + m * ((y - x) * pow(m, -1, p) % p)


def _rational(u: int, m: int, bound: int):
    """(n, e) with n = e*u (mod m), |n| <= bound and 0 < e <= bound, in lowest
    terms (Wang's algorithm), or None."""
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    g = gcd(r1, s1)
    return (r1 // g, s1 // g) if s1 > 0 else (-r1 // g, -s1 // g)


def _lift(residues: list, m: int):
    """Integers v and D with v = D*u (mod m) for the residue list u, |v_k| and
    D at most sqrt(m/2), or None. Two such lifts v/D and v'/D' agree, as
    |v*D' - v'*D| < m, so this is the rational vector u if it fits at all.

    One running common denominator D is kept: an entry is u*D mod m in the
    symmetric range when that fits the bound, and only otherwise runs
    Wang's algorithm, whose denominator then multiplies D.
    """
    bound = isqrt(m // 2)
    den, out = 1, []
    for u in residues:
        v = u * den % m
        if v > bound and m - v > bound:
            found = _rational(v, m, bound)
            if found is None:
                return None
            v, e = found
            den *= e
            if den > bound:
                return None
            out = [x * e for x in out]
        elif v > bound:
            v -= m
        out.append(v)
    return out if max(map(abs, out)) <= bound else None


def _annihilates(data: list, vectors: list) -> bool:
    """Exact check that every Z[w] vector kills every integer-pair row.

    Entry j of all the vectors is packed into one integer per part, vector
    k in signed slot k, so a row's products with every vector are one sum
    over the row's nonzero entries. The slots are wide enough for any such
    product, and a nonzero slot below 2^(width-1) in magnitude cannot be
    cancelled by the slots above it, so the sum is 0 iff every product is.
    """
    if not data:
        return True
    mbits = max(map(abs, chain.from_iterable(chain.from_iterable(data)))).bit_length()
    vbits = max(map(abs, chain.from_iterable(chain.from_iterable(vectors)))).bit_length()
    nbytes = (mbits + vbits + (3 * len(data[0])).bit_length()) // 8 + 1
    half = 1 << (8 * nbytes - 1)
    offset = pack_slots([half] * len(vectors), nbytes)
    packed = [[pack_slots([x[k] + half for x in entry], nbytes) - offset for k in (0, 1)]
              for entry in zip(*vectors)]
    for row in data:
        re = im = 0
        for (ra, rb), (xa, xb) in zip(row, packed):
            # (ra + rb w)(xa + xb w) = ra xa - rb xb + (ra xb + rb xa - rb xb) w
            if rb:
                t = rb * xb
                re += ra * xa - t
                im += ra * xb + rb * xa - t
            elif ra:
                re += ra * xa
                im += ra * xb
        if re or im:
            return False
    return True


def _residue_kernel(data: list, ncols: int, p: int, qw: bool):
    """Kernel mod p as (pivot columns, residue vectors), None at full rank.

    Over Q(w) the rows are reduced under both embeddings w -> ω and w -> ω²;
    a kernel entry a + b*w then reads a + bω and a + bω², which give a and
    b because ω - ω² is a unit mod p. Each vector becomes one residue
    list, its a-part followed by its b-part (zeros over Q). When the two
    embeddings disagree on the pivot columns, the pivots returned are None.
    """
    w1 = _cube_root(p)
    found = []
    for w in ((w1, p - 1 - w1) if qw else (0,)):
        pivots, echelon = _echelon_mod(data, ncols, p, w)
        if len(pivots) == ncols:
            return None
        found.append((pivots, _kernel_from_echelon(pivots, echelon, ncols, p)))
    pivots, vectors = found[0]
    if not qw:
        return pivots, [v + [0] * ncols for v in vectors]
    if found[1][0] != pivots:
        return None, []
    inv = pow(2 * w1 + 1, -1, p)  # w1 - w2 = 2*w1 + 1 mod p
    parts = []
    for v1, v2 in zip(vectors, found[1][1]):
        b = [(x - y) * inv % p for x, y in zip(v1, v2)]
        parts.append([(x - y * w1) % p for x, y in zip(v1, b)] + b)
    return pivots, parts


def kernel_basis(m: ExactMatrix | list) -> Kernel:
    """Canonical basis of the right kernel; rank + len(basis) == cols.

    m is an ExactMatrix, or a non-empty list of equal-length rows of Z[w]
    integer pairs (a, b) meaning a + b*w, such as the logarithmic-derivation
    rows that `nearfree.criteria` builds without going through scalars.
    The result's `certificate` says how it was settled (see the module
    docstring); every route gives the same basis.
    """
    if isinstance(m, ExactMatrix):
        data, ncols = _integer_rows(m), m.cols
    else:
        data, ncols = m, len(m[0])
    qw = any(b for row in data for _, b in row)
    best, modulus, primes, lifted = None, 1, 0, []
    for p in PRIMES:
        found = _residue_kernel(data, ncols, p, qw)
        if found is None:
            return Kernel([], FULL_RANK_MOD_P)
        pivots, parts = found
        if pivots is None:
            continue
        # Only primes with the same pivot columns are combined; a prime that
        # disagrees starts afresh. Verification decides which one was right.
        if pivots != best:
            best, modulus, primes = pivots, 1, 0
        lifted = parts if primes == 0 else [
            [_crt(x, modulus, y, p) for x, y in zip(old, new)] for old, new in zip(lifted, parts)
        ]
        modulus *= p
        primes += 1
        vectors = [_lift(u, modulus) for u in lifted]
        if any(v is None for v in vectors):
            continue
        vectors = [list(zip(v[:ncols], v[ncols:])) for v in vectors]
        if _annihilates(data, vectors):
            plural = "s" if primes > 1 else ""
            return Kernel(vectors, f"verified reconstruction ({primes} prime{plural})")
    # Bareiss works in place; the rows may be the caller's
    return Kernel(_bareiss_kernel([list(row) for row in data], ncols), EXACT_ELIMINATION)
