"""Exact linear algebra: certified right-kernel bases.

`kernel_basis(rows, ncols)`, the one elimination entry point, takes sparse
Z[w] rows: each a dict {column: (a, b)} of its nonzero cells a + b*w, with
columns below ncols, which fixes the width (an empty dict is a zero row).
Every pass below walks the stored cells only.

`kernel_basis` returns the canonical kernel basis: pivot columns are taken
left to right, and there is one vector per free column with the other free
coordinates zero, rescaled so its first nonzero entry is 1. It works
modulo the primes of `prime_stream`, each proven prime by Proth's theorem
and p = 1 (mod 3), with w sent to a cube root of unity in F_p. It takes
primes until one of two certificates holds, and each has been checked:

* "full rank mod p" - the rows have full column rank mod p. Reduction can
  only lower the rank, so the kernel over Q(w) is zero.
* "verified reconstruction (k primes)" - the RREF kernel mod p from k
  primes sharing one pivot profile is lifted to Z[w] vectors, and each is
  checked exactly, in integer arithmetic, against every row
  (`_annihilates`). Over Q(w) the first prime is eliminated under w -> ω
  alone, and each residue becomes its nearest remainder mod the prime
  element π = gcd(p, w - ω) of Z[w] (`_one_embedding_lift`; 1 and 0 stay
  1 and 0); only when that fails the check is w -> ω² eliminated too,
  reusing the ω elimination. The two embeddings give each entry's a and b
  parts, and those of k primes are lifted by CRT and rational
  reconstruction over one common denominator (`_lift`).
  There are as many as the kernel dimension mod p, which bounds the exact
  dimension from above, so they span the exact kernel; each one's last
  nonzero entry sits in its own free column, so those are the exact free
  columns and the vectors are the canonical basis.

The loop always ends: only finitely many primes change the rank or the
pivot columns, and the Hadamard bound caps the entries of the canonical
basis, so enough primes with the right pivots lift it and the check holds.
The basis stays in Z[w] integers: each vector is returned times the lcm
of its denominators (`Kernel`), and no Scalar is made. `span_basis` gives
the same canonical basis to a kernel known as a span rather than as the
kernel of rows, such as the one `mdr` derives from the kernel a degree up.

Every elimination mod p (`_echelon_mod`) reduces the stored cells to dicts
of the nonzero residues, eliminated as they are when at most a third are
nonzero (`SPARSE_SHARE`, `_echelon_sparse`), else as rows packed into big
integers, a slot per column (`_echelon_dense`); both give the same pivots
and kernel residues. Back-substitution (`_kernel_from_echelon`) and the
exact check (`_annihilates`, whose signed slots are wide enough for a
proof) pack the k kernel vectors by column too, and run once per kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt

from .field import primitive_pairs

FULL_RANK_MOD_P = "full rank mod p"
# `_echelon_mod` eliminates sparsely when at most this share of the residues
# is nonzero. On the perfbench matrices (CPython 3.11, a shared 2-core VM),
# those up to a third nonzero (reflection arrangements, pencils, the
# catalog) were eliminated 1.7-4.2x faster sparse, and the generic
# workload's nodal rows, 40-50% nonzero, 1.2-2x faster dense.
SPARSE_SHARE = Fraction(1, 3)

# Every p = k*2^64 + 1 with 3 | k is 1 mod 8 and 1 mod 3, so 2 and 3 are
# squares mod p and can never prove it prime; the bases start at 5.
_PROTH_BASES = (5, 7, 11, 13, 17, 19, 23, 29)
_PROVEN = []  # the stream so far, so each prime is proven once per process


def _proth_prime(p: int) -> bool:
    """True when Proth's theorem proves p = k*2^n + 1, k < 2^n, prime: some
    base a has a^((p-1)/2) = -1 (mod p). False when a residue other than
    +-1 proves p composite, or when no base decides."""
    for a in _PROTH_BASES:
        x = pow(a, p >> 1, p)
        if x == p - 1:
            return True
        if x != 1:
            return False
    return False


def prime_stream():
    """The proven primes p = k*2^64 + 1 with 3 | k < 2^63, largest first.

    Each is 127 bits long and 1 (mod 3), so F_p holds a cube root of unity.
    The stream does not end: there are about 2^63/3 candidates.
    """
    for i in count():
        if i == len(_PROVEN):
            # (1 << 63) - 2 is the largest multiple of 3 below 2^63
            k = (_PROVEN[-1] >> 64) - 3 if _PROVEN else (1 << 63) - 2
            while not _proth_prime((k << 64) + 1):
                k -= 3
            _PROVEN.append((k << 64) + 1)
        yield _PROVEN[i]


class Kernel(list):
    """A kernel basis, a list of the canonical vectors in Z[w], with the
    certificate that settled it. Each vector is the kernel vector with lead
    entry 1 times the lcm s of its denominators: a tuple of integer pairs
    with lead entry (s, 0) and no common factor (`field.primitive_pairs`)."""

    def __init__(self, vectors, certificate: str):
        super().__init__(primitive_pairs(vec) for vec in vectors)
        self.certificate = certificate


@cache
def _cube_root(p: int) -> int:
    """A primitive cube root of unity mod p, for p = 1 (mod 3)."""
    g = 2
    while (root := pow(g, (p - 1) // 3, p)) == 1:
        g += 1
    return root


def _echelon_mod(data: list, ncols: int, p: int, w: int):
    """Row echelon form of sparse Z[w] rows a + b*w mod p, w sent to the
    residue w: (pivot columns, pivot rows).

    Pivot rows are full-length residue lists with 1 at the pivot and 0 to
    its left. The stored cells are reduced mod p once, into dicts of the
    nonzero residues (rarely a + b*w = 0 mod p, and the cell is dropped).
    When at most a third of the cells are nonzero (`SPARSE_SHARE`) the dicts
    are eliminated as they are (`_echelon_sparse`), otherwise packed into
    big integers (`_echelon_dense`). The routes may pick different pivot
    rows, but not different pivot columns: column c is a pivot iff it
    is not in the span mod p of the columns to its left, whichever rows are
    used. The kernel vector with 1 at a free column and 0 at the others is
    unique, so back-substitution gives the same residues on both routes.
    """
    rows = [{j: x for j, (a, b) in row.items() if (x := (a + b * w) % p)} for row in data]
    nonzero = sum(map(len, rows))
    route = _echelon_sparse if nonzero <= SPARSE_SHARE * len(rows) * ncols else _echelon_dense
    return route(rows, ncols, p)


def _pack_slots(values: list, nbytes: int) -> int:
    """The non-negative integers `values` packed into one integer, value k in
    the k-th slot of nbytes bytes, lowest slot first."""
    return int.from_bytes(b"".join([v.to_bytes(nbytes, "little") for v in values]), "little")


def _unpack_slots(packed: int, nslots: int, nbytes: int) -> list:
    """The nslots slots of nbytes bytes of the non-negative packed integer,
    lowest first; the inverse of _pack_slots, in one pass."""
    raw = packed.to_bytes(nslots * nbytes, "little")
    return [int.from_bytes(raw[k:k + nbytes], "little") for k in range(0, len(raw), nbytes)]


def _echelon_dense(rows: list, ncols: int, p: int):
    """`_echelon_mod` on residue dicts, each pending row packed from its dict
    into one integer, a fixed-width slot per column, so a row operation is one
    big-integer multiply-add; the first row with a nonzero lead is the
    pivot row.

    Slots only ever grow by adding products of two residues, at most once
    per pivot, so they stay below the slot width and never carry into each
    other; they are reduced mod p only when read. The lowest slot is
    shifted out after each column, so slot 0 always holds the current
    column. Every pending row is shifted at every column, so the cost does
    not fall with the share of zero cells.
    """
    nbytes = (2 * p.bit_length() + ncols.bit_length() + 8) // 8
    shift, mask = 8 * nbytes, (1 << 8 * nbytes) - 1
    pending = []
    for row in filter(None, rows):
        full = [0] * ncols
        for j, x in row.items():
            full[j] = x
        pending.append(_pack_slots(full, nbytes))
    pivots, echelon = [], []
    for c in range(ncols):
        if not pending:
            break
        leads = [(row & mask) % p for row in pending]
        k = next((i for i, t in enumerate(leads) if t), None)
        if k is not None:
            tail = _unpack_slots(pending.pop(k), ncols - c, nbytes)
            inv = pow(leads.pop(k), -1, p)
            tail = [x * inv % p for x in tail]
            pivots.append(c)
            echelon.append([0] * c + tail)
            packed = _pack_slots(tail, nbytes)
            pending = [row + (p - t) * packed if t else row for row, t in zip(pending, leads)]
        pending = [row >> shift for row in pending]
    return pivots, echelon


def _echelon_sparse(rows: list, ncols: int, p: int):
    """`_echelon_mod` on residue dicts {column: residue} of the nonzero
    entries, taken as they are (and consumed), each in the bucket of its
    lead column.

    At column c the bucket's row with the fewest nonzeros is the pivot row,
    which keeps fill-in low (Markowitz's rule, by rows). It is normalised to
    lead 1 and cleared from the bucket's other rows; entries that become 0
    are dropped, and each row moves to the bucket of its new lead, or goes
    when it is empty. Work is spent only on the nonzero entries.
    """
    buckets = [[] for _ in range(ncols)]
    for row in filter(None, rows):
        buckets[min(row)].append(row)
    pivots, echelon = [], []
    for c, bucket in enumerate(buckets):
        if not bucket:
            continue
        pivot = min(bucket, key=len)
        inv = pow(pivot[c], -1, p)
        fill = [(j, x * inv % p) for j, x in pivot.items() if j != c]
        full = [0] * ncols
        full[c] = 1
        for j, x in fill:
            full[j] = x
        pivots.append(c)
        echelon.append(full)
        for row in bucket:
            if row is pivot:
                continue
            t = p - row.pop(c)
            for j, x in fill:
                # t*x is nonzero mod p, so a sum of 0 means row held j
                if v := (row.get(j, 0) + t * x) % p:
                    row[j] = v
                else:
                    del row[j]
            if row:
                buckets[min(row)].append(row)
    return pivots, echelon


def _kernel_from_echelon(pivots: list, echelon: list, ncols: int, p: int) -> list:
    """Kernel vectors mod p, one per free column, that entry 1, other free 0,
    all at once: slot i (`width` bits) of column j's integer holds entry j of
    vector i. Right to left, a pivot column takes one multiply-add pass over
    the nonzero columns right of it, and its slots are then reduced mod p; a
    slot sums at most ncols products of two residues, so none carries."""
    width = 2 * p.bit_length() + ncols.bit_length()
    shifts = range(0, (ncols - len(pivots)) * width, width)
    mask, upper, free = (1 << width) - 1, shifts[1:], reversed(shifts)
    rows, packed, support = dict(zip(pivots, echelon)), [0] * ncols, []
    for c in reversed(range(ncols)):
        if (row := rows.get(c)) is None:
            v = 1 << next(free)
        elif s := sum(row[j] * x for j, x in support):
            v = -(s & mask) % p
            for shift in upper:
                v |= -(s >> shift & mask) % p << shift
        else:
            continue
        if v:
            packed[c] = v
            support.append((c, v))  # nonzero so far, all right of the next column
    return [packed] if len(shifts) == 1 else [[x >> i & mask for x in packed] for i in shifts]


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
    """Exact check that every Z[w] vector kills every sparse Z[w] row: each
    vector's sum of Z[w] products over the row's stored cells must be 0.
    All at once: column j's a and b parts are each packed as sum_i x_i 2^(iS),
    so a row's two sums hold vector i's sum y_i in signed slot i. A part of
    y_i is at most 2*N*X <= 4*L*E*X < 2^(S-1), for N the row's L1 norm, L the
    most cells in a row, and E, X the largest |a| | |b| (>= |a|, |b|) of the
    cells and of the entries. Below a top nonzero slot m the others add up to
    less than 2^(S-1) * (2^(mS) - 1) / (2^S - 1) < 2^(mS), so a zero packed sum
    proves every y_i = 0, in Z[w] with no modulus; one vector needs no bound."""
    if not vectors:
        return True
    columns = vectors[0]
    if len(vectors) > 1:
        e = max([abs(a) | abs(b) for row in data for a, b in row.values()], default=0)
        x = max([abs(a) | abs(b) for vec in vectors for a, b in vec])
        width = e.bit_length() + x.bit_length() + max(map(len, data), default=0).bit_length() + 3
        columns = []
        for column in zip(*vectors):
            pa = pb = 0
            for xa, xb in reversed(column):
                pa, pb = (pa << width) + xa, (pb << width) + xb
            columns.append((pa, pb))
    for row in data:
        re = im = 0
        for j, (ra, rb) in row.items():
            xa, xb = columns[j]
            # (ra + rb w)(xa + xb w) = ra xa - rb xb + (ra xb + rb xa - rb xb) w
            if rb:
                t = rb * xb
                re += ra * xa - t
                im += ra * xb + rb * xa - t
            else:
                re += ra * xa
                im += ra * xb
        if re or im:
            return False
    return True


def _residue_kernel(data: list, ncols: int, p: int, w: int):
    """Kernel mod p, w sent to the residue w, as (pivot columns, residue
    vectors); None at full rank."""
    pivots, echelon = _echelon_mod(data, ncols, p, w)
    if len(pivots) == ncols:
        return None
    return pivots, _kernel_from_echelon(pivots, echelon, ncols, p)


def _nearest_remainder(x: tuple, m: tuple) -> tuple:
    """x - q*m in Z[w], q = x*conj(m)/N(m) with conj(m) = ma - mb - mb*w and
    each part rounded to the nearest integer: a norm at most 3/4 of N(m)."""
    (xa, xb), (ma, mb) = x, m
    n = ma * ma - ma * mb + mb * mb
    qa = (2 * (xa * (ma - mb) + xb * mb) + n) // (2 * n)
    qb = (2 * (xb * ma - xa * mb) + n) // (2 * n)
    return xa - qa * ma + qb * mb, xb - qa * mb - qb * ma + qb * mb


@cache
def _prime_element(p: int, w: int) -> tuple:
    """π = gcd(p, w - ω) in Z[w] by Euclid's algorithm, ω the residue w: the
    kernel of the ring map w -> ω from Z[w] onto F_p is (π), and N(π) = p."""
    x, y = (p, 0), (-w, 1)
    while y != (0, 0):
        x, y = y, _nearest_remainder(x, y)
    return x


def _one_embedding_lift(data: list, vectors: list, p: int, w: int):
    """The residue vectors of w -> ω as Z[w] vectors, each entry u its
    nearest remainder mod π, the small Z[w] integer that w -> ω sends to u;
    None unless every part is at most sqrt(p/2), the bound of a one-prime
    `_lift`, and the vectors pass `_annihilates`."""
    pi, bound = _prime_element(p, w), isqrt(p // 2)
    out = [[_nearest_remainder((u, 0), pi) if u else (0, 0) for u in vec] for vec in vectors]
    fits = all(abs(x) <= bound for vec in out for pair in vec for x in pair)
    return out if fits and _annihilates(data, out) else None


def span_basis(combinations: list, vectors: list, certificate: str) -> Kernel:
    """The canonical basis, as `kernel_basis` returns it, of the span of the
    independent Z[w] vectors sum_j u_j*vectors[j], u in combinations, with
    the given certificate. A fraction-free reduction leaves each vector a
    last nonzero entry of its own, zero in the others: those are the free
    columns, and `Kernel` scales each vector to its canonical form."""
    def combine(terms):  # the sum of x*vec, (xa + xb w)(a + b w) with w^2 = -1 - w
        out = [(0, 0)] * len(terms[0][1])
        for (xa, xb), vec in terms:
            out = [(sa + xa * a - xb * b, sb + xa * b + xb * a - xb * b)
                   for (sa, sb), (a, b) in zip(out, vec)]
        return out

    def clear(vec, j, by):  # vec cleared at j by the vector by, which is nonzero there
        a, b = vec[j]
        return primitive_pairs(combine([(by[j], vec), ((-a, -b), by)])) if a or b else vec

    reduced = {}  # last nonzero entry -> vector
    for u in combinations:
        vec = combine([(x, v) for x, v in zip(u, vectors) if x != (0, 0)])
        for j, other in reduced.items():
            vec = clear(vec, j, other)
        j = max(k for k, x in enumerate(vec) if x != (0, 0))
        reduced = {k: clear(other, j, vec) for k, other in reduced.items()}
        reduced[j] = vec
    return Kernel([reduced[j] for j in sorted(reduced)], certificate)


def kernel_basis(data: list, ncols: int) -> Kernel:
    """Canonical basis of the right kernel, as Z[w] integer vectors of
    length ncols (see `Kernel`); rank + len(basis) == ncols.

    data is a list of sparse rows, dicts {column: (a, b)} of the nonzero
    Z[w] cells a + b*w with columns below ncols, such as
    `nearfree.criteria.derivation_rows` gives; see the module docstring.
    Primes are taken from `prime_stream` until the rank is full mod p or a
    reconstruction is verified; the result's `certificate` says which (see
    the module docstring). Over Q(w) the first prime's kernel is lifted from
    w -> ω alone, and w -> ω² is eliminated only when that lift fails.
    """
    qw = any(b for row in data for _, b in row.values())
    best, modulus, primes, lifted = None, 1, 0, []
    for p in prime_stream():
        w1 = _cube_root(p) if qw else 0
        if (found := _residue_kernel(data, ncols, p, w1)) is None:
            return Kernel([], FULL_RANK_MOD_P)
        pivots, parts = found
        if qw and primes == 0 and (vectors := _one_embedding_lift(data, parts, p, w1)):
            return Kernel(vectors, "verified reconstruction (1 prime)")
        if qw:
            # a + b*w reads a + bω and a + bω², which give a and b because
            # ω - ω² = 2ω + 1 is a unit mod p
            if (other := _residue_kernel(data, ncols, p, p - 1 - w1)) is None:
                return Kernel([], FULL_RANK_MOD_P)
            if other[0] != pivots:
                continue
            inv, split = pow(2 * w1 + 1, -1, p), []
            for v1, v2 in zip(parts, other[1]):
                b = [(x - y) * inv % p for x, y in zip(v1, v2)]
                split.append([(x - y * w1) % p for x, y in zip(v1, b)] + b)
            parts = split
        # Only primes with the same pivot columns are combined; a prime that
        # disagrees starts afresh. Verification decides which one was right.
        if pivots != best:
            best, modulus, primes = pivots, 1, 0
        # by CRT, the residue mod modulus*p that is x mod modulus and y mod p
        inv = pow(modulus, -1, p)
        lifted = parts if primes == 0 else [
            [x + modulus * ((y - x) * inv % p) for x, y in zip(old, new)]
            for old, new in zip(lifted, parts)
        ]
        modulus *= p
        primes += 1
        vectors = []
        for u in lifted:  # stop at the first vector that does not lift yet
            if (v := _lift(u, modulus)) is None:
                break
            vectors.append(list(zip(v[:ncols], v[ncols:] or [0] * ncols)))
        if len(vectors) == len(lifted) and _annihilates(data, vectors):
            plural = "s" if primes > 1 else ""
            return Kernel(vectors, f"verified reconstruction ({primes} prime{plural})")
