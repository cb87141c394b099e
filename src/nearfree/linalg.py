"""Exact linear algebra: certified first vectors of right kernels.

`kernel_basis(rows, ncols, divide=None)`, the one elimination entry point,
takes sparse Z[w] rows: each a dict {column: (a, b)} of its nonzero cells
a + b*w, with columns below ncols, which fixes the width (an empty dict is
a zero row). Every pass below walks the stored cells only.

It returns at most one vector of the canonical kernel basis, the first:
pivot columns are taken left to right, and the vector of the first free
column f has 1 at f and 0 at the other free columns. The rows are
eliminated once modulo a word-size prime p of `prime_stream` (proven by
Proth's theorem, p = 1 mod 3), w sent to a cube root of unity ω in F_p,
and one of four checked certificates settles the kernel:

* "full rank mod p" - reduction only lowers the rank, so the kernel is 0.
* "verified reconstruction (mod p^s) of the first vector" (FIRST) - with
  no divide, the kernel vector mod p at the first free column f' mod p,
  lifted to precision p^s and on to a Z[w] vector, checked exactly against
  every row (`_annihilates`) and with its last nonzero entry at f'. The
  first exact free column f is >= f' (columns 0..f stay dependent mod p),
  the vector's last nonzero entry makes f' exactly free, so f' = f, and as
  the columns left of f are independent it is v_f.
* FIRST_VECTOR, FIRST and "; remainders full rank mod p" - given divide,
  the remainders of a vector on division by a line l monic in x, the k
  vectors v_j mod p are divided. Remainders of full column rank mod p prove
  K' = {t : l*t in K} = 0: an exact t != 0 in K', integral and not
  divisible by π, has l*t = sum u_j v_j != 0 mod π, and division by l,
  linear, leaves sum u_j rem(v_j) = 0 with u != 0. This needs no
  saturation, so it holds on both routes and for any p. v_f is then lifted
  as under FIRST.
* "open: remainders not full rank mod p" (OPEN) - given divide, remainders
  that do not prove K' = 0: nothing is lifted and no vector returned.

Over Q(w), step 0 (s = 1) reads each residue as its nearest remainder mod
π = gcd(p, w - ω) in Z[w]. Every other lift is over Q (`_padic_kernel`):
Dixon's p-adic lift of the echelon form (`_padic_digits`), with `_lift`,
over one common denominator, tried at s = 1, 2, 4, 8, ... A Q(w) kernel
that step 0 leaves open goes through the real rows R (`_real_rows`), the Q
matrix of A in the coordinates x_j, y_j of x_j + y_j*w. Columns 2j, 2j + 1
are the images of e_j, w*e_j; those left of them span a w-stable S, and
over the field Q(w) u is in S iff w*u is in S + Q*u. So R's free columns
pair up as (2f, 2f + 1), f free for A, with canonical vectors v_f (read as
pairs) and w*v_f: the one at the first 2f is lifted. Mod p, where ω and ω²
split F_p[w] into two fields, they pair iff both embeddings give the same
pivots; else p is dropped. The first-vector argument holds for R as a Q
matrix, and columns of A dependent over Q(w) left of f would make those
of R left of 2f dependent over Q: read as pairs, R's v_2f is A's v_f.

The loop ends. If p keeps the exact pivot columns, each canonical entry is
a quotient of r x r minors (r the rank), at most H by Hadamard's bound, so
`_lift` gives the exact vector once p^s reaches 3H^2 (for R, its own H at
rank 2r). There, or when a residual is not divisible or a zero row meets a
nonzero right-hand side, p is dropped for the next prime. Each dropped
prime (> 2^19) divides the nonzero norm (<= H^2) of an r x r minor, so the
1652 primes run out only for H beyond 2^16000, and then `kernel_basis` raises.
Vectors stay Z[w] integers, times the lcm of their denominators (`Kernel`).

Each elimination mod p (`_echelon_mod`) reduces the stored cells to dicts
of the nonzero residues, eliminated as they are when at most a third are
nonzero (`_echelon_sparse`), else packed into big integers, a 64-bit slot
per column, folded down by packed steps every few pivots, before a slot
can carry (`_echelon_dense`); both give the same pivots and kernel residues.
The remainders that divide gives, at most some 16 x 7 and up to two thirds
nonzero, are ranked sparse alone, 1.2-1.7x faster there than dense.
Back-substitution packs the k residue vectors that divide takes by column
too, and runs once per kernel.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from math import gcd, isqrt
from operator import mul

from .errors import InternalFault
from .field import primitive_pairs

FULL_RANK_MOD_P = "full rank mod p"
FIRST = "verified reconstruction (mod p^{}) of the first vector"
FIRST_VECTOR = FIRST + "; remainders full rank mod p"
OPEN = "open: remainders not full rank mod p"

# Every p = k*2^15 + 1 with 3 | k is 1 mod 8 and 1 mod 3, so 2 and 3 are
# squares mod p and can never prove it prime; the bases start at 5.
_PROTH_BASES = (5, 7, 11, 13, 17, 19, 23, 29)


@cache  # so each candidate is tested once per process
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
    """The 1652 proven primes p = k*2^15 + 1 with 3 | k < 2^15, largest
    first, from 1073479681 down to 786433. Each is 1 (mod 3), so F_p holds
    a cube root of unity."""
    for k in range(32766, 0, -3):  # 32766 is the largest multiple of 3 below 2^15
        if _proth_prime(p := (k << 15) + 1):
            yield p


class Kernel(list):
    """The first canonical kernel vector in Z[w], or none, and the
    certificate that settled it. The vector is the one with lead entry 1
    times the lcm s of its denominators: integer pairs, lead entry (s, 0),
    no common factor (`field.primitive_pairs`)."""

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
    residue w: (pivot columns, pivot rows, row operations, cells).

    Pivot rows are full-length residue lists with 1 at the pivot and 0 to
    its left. The cells are reduced mod p once, into dicts of the nonzero
    residues; that pass gives cells = (qw, E, L): whether some b is nonzero,
    the largest |a| | |b| and the most cells in a row. The two routes
    (module docstring) may pick different pivot rows, not pivot columns: c
    is a pivot iff it is not in the span mod p of the columns to its left.
    The kernel vector with 1 at a free column and 0 at the others is unique,
    so back-substitution gives the same residues on both routes. A row
    operation (i, inv, rows, leads) scales row i, the next pivot row, by inv
    and subtracts t times it from each of the rows (indices into data) whose
    lead t is nonzero; rows that are never a pivot row end as zero rows.
    """
    rows, qw, e = [], 0, 0
    for row in data:
        rows.append(residues := {})
        for j, (a, b) in row.items():
            qw |= b
            e |= abs(a) | abs(b)
            if x := (a + b * w) % p:
                residues[j] = x
    # sparse when at most a third of the residues are nonzero: on the
    # perfbench matrices mod the stream's first prime (CPython 3.11, a shared
    # 2-core VM), those up to 33% nonzero were eliminated 1.1-2.7x faster
    # sparse, and the generic workload's nodal rows, 37-47% nonzero, 1.9-2.9x
    # faster dense
    nonzero = sum(map(len, rows))
    route = _echelon_sparse if 3 * nonzero <= len(rows) * ncols else _echelon_dense
    return *route(rows, ncols, p), (qw != 0, e, max(map(len, data), default=0))


def _little(slots: array) -> array:
    """slots with the little-endian byte order of the packed integers."""
    if sys.byteorder == "big":  # array("Q") is native-endian
        slots.byteswap()
    return slots


def _echelon_dense(rows: list, ncols: int, p: int):
    """`_echelon_mod` on residue dicts, each pending row one integer with a
    64-bit slot per column, packed from an `array("Q")` by one
    `int.from_bytes` and read back by one `to_bytes`: a row operation is one
    multiply-add, the pivot row the first with a nonzero lead, and slot 0
    the current column, shifted out after it. An operation adds at most
    (p - 1)^2 to a slot, so one below 2^(b+1), b = bits(p), takes `fresh`
    with no carry, and so does one below 2^room. Every fresh pivots, packed
    steps row -= q*p, q the bits b..63 of each slot, bring all rows below
    2^room: q*p <= q*2^b <= the slot, so nothing borrows, and the slot keeps
    its residue and becomes q*(2^b - p) + (the slot mod 2^b)."""
    b = p.bit_length()
    fresh = ((1 << 64) - (2 << b)) // (p - 1) ** 2
    if not fresh or array("Q").itemsize != 8:
        raise InternalFault(f"internal: no 64-bit slots for a dense elimination mod {p}")
    room = ((1 << 64) - fresh * (p - 1) ** 2).bit_length() - 1
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * ncols, "little")  # 1 in every slot
    low, high, mask = ones * ((1 << 64 - b) - 1), ones * ((1 << 64) - (1 << room)), (1 << 64) - 1
    ids, pending, pivots, echelon, ops = [i for i, row in enumerate(rows) if row], [], [], [], []
    for i in ids:
        slots = array("Q", bytes(8 * ncols))
        for j, x in rows[i].items():
            slots[j] = x
        pending.append(int.from_bytes(_little(slots), "little"))
    for c in range(ncols):
        leads = [(row & mask) % p for row in pending]
        k = next((i for i, t in enumerate(leads) if t), None)
        if k is not None:
            slots = _little(array("Q", pending.pop(k).to_bytes(8 * (ncols - c), "little")))
            inv = pow(leads.pop(k), -1, p)
            tail = [x * inv % p for x in slots]
            pivots.append(c)
            echelon.append([0] * c + tail)
            ops.append((ids.pop(k), inv, tuple(ids), leads))
            packed = int.from_bytes(_little(array("Q", tail)), "little")
            pending = [row + (p - t) * packed if t else row for row, t in zip(pending, leads)]
            if len(pivots) % fresh == 0:
                for n, row in enumerate(pending):
                    while row & high:
                        row -= (row >> b & low) * p
                    pending[n] = row
        pending = [row >> 64 for row in pending]
    return pivots, echelon, ops


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
    where = {id(row): i for i, row in enumerate(rows)}
    buckets = [[] for _ in range(ncols)]
    for row in filter(None, rows):
        buckets[min(row)].append(row)
    pivots, echelon, ops = [], [], []
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
        others = [row for row in bucket if row is not pivot]
        ops.append((where[id(pivot)], inv, [where[id(row)] for row in others],
                    [row[c] for row in others]))
        for row in others:
            t = p - row.pop(c)
            for j, x in fill:
                # t*x is nonzero mod p, so a sum of 0 means row held j
                if v := (row.get(j, 0) + t * x) % p:
                    row[j] = v
                else:
                    del row[j]
            if row:
                buckets[min(row)].append(row)
    return pivots, echelon, ops


def _slot_residues(x: int, shifts, mask: int, p: int, factor: int) -> int:
    """x with each non-negative slot v (mask wide, at shifts) made v*factor mod p."""
    return sum([(x >> shift & mask) * factor % p << shift for shift in shifts])


def _kernel_from_echelon(pivots: list, echelon: list, ncols: int, p: int, width: int,
                         free: list, targets: dict = None) -> list:
    """Kernel vectors mod p, one per column f of free (in order): 1 at f, 0
    at the other free columns, all at once, slot i (`width` >= 2*bits(p) +
    bits(ncols) bits) of column j's integer holding entry j of vector i. With
    targets {pivot column: packed t}, the solutions of echelon rows = -t, 0 at
    the free columns, instead. Right to left, a pivot column takes one
    multiply-add pass over the nonzero columns right of it, then its slots are
    reduced mod p: a slot sums <= ncols products of residues and a t, no carry."""
    shifts, mask = range(0, len(free) * width, width), (1 << width) - 1
    given = dict(zip(free, (1 << shift for shift in shifts))) if targets is None else targets
    rows, packed, support, values = dict(zip(pivots, echelon)), [0] * ncols, [], []
    for c in reversed(range(ncols)):
        v = given.get(c, 0)
        if (row := rows.get(c)) is not None:
            s = sum(map(mul, map(row.__getitem__, support), values)) + v
            v = s and _slot_residues(s, shifts, mask, p, -1)
        if v:
            packed[c] = v
            support.append(c)  # nonzero so far, all right of the next column
            values.append(v)
    return packed


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


def _annihilates(data: list, vec: list) -> bool:
    """Exact check that the Z[w] vector kills every sparse Z[w] row: its sum
    of Z[w] products over the row's stored cells must be 0, in Z[w] with no
    modulus."""
    for row in data:
        re = im = 0
        for j, (ra, rb) in row.items():
            xa, xb = vec[j]
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


def _padic_digits(data: list, ncols: int, p: int, echelon: tuple, f: int, first=None):
    """The p-adic digits of the kernel vector of the integer rows A = data
    (cells (a, 0)) at the free column f, from their echelon form mod p: v_f
    mod p (or first, if given), then one step at a time, until a sign of a
    bad prime. The vector u so far has A*u = p^s*R. A step adds A times the
    digit to R and divides by p, exact when every entry is 0 mod p, then
    solves A*digit = -R mod p: R's residues follow the row operations (a
    zero row must end at 0) into back-substitution, 0 at the free columns."""
    pivots, rows, ops, _ = echelon
    width = 2 * p.bit_length() + ncols.bit_length()
    yield (digit := first or _kernel_from_echelon(pivots, rows, ncols, p, width, [f]))
    zero_rows = set(range(len(data))).difference(op[0] for op in ops)
    cells = [(list(row), [a for a, _ in row.values()]) for row in data]
    ops = [(i, inv, [(j, p - t) for j, t in zip(others, leads) if t]) for i, inv, others, leads in ops]
    residual = [0] * len(data)
    while True:
        rhs = []
        for n, (columns, coeffs) in enumerate(cells):
            re, x = divmod(residual[n] + sum(map(mul, map(digit.__getitem__, columns), coeffs)), p)
            if x:
                return
            residual[n] = re
            rhs.append(re)
        for i, inv, updates in ops:
            rhs[i] = y = rhs[i] * inv % p
            for j, t in updates:
                rhs[j] += t * y
        if any(rhs[i] % p for i in zero_rows):
            return
        yield (digit := _kernel_from_echelon(pivots, rows, ncols, p, width, [f],
                                             {c: rhs[op[0]] for c, op in zip(pivots, ops)}))


def _reconstruct(digits: list, p: int, m: int, f: int):
    """The vector as integer pairs (a, 0), by `_lift` of sum p^i*digits_i
    mod m = p^s; None if it does not lift or has a nonzero entry right of
    its free column f."""
    u = [0] * len(digits[0])
    for digit in reversed(digits):
        u = [a * p + x for a, x in zip(u, digit)]
    if (v := _lift(u, m)) is None or any(v[f + 1:]):
        return None
    return [(a, 0) for a in v]


def _padic_kernel(data: list, ncols: int, p: int, echelon: tuple, f: int, first=None):
    """(s, vector): the kernel vector of the integer rows data at the free
    column f, lifted from their echelon form mod p (or first) to p^s, s =
    1, 2, 4, ... and at the stop bound, and checked exactly; None if p
    turns out bad."""
    pivots, _, _, (_, e, longest) = echelon
    # Hadamard's bound H^2 on an r x r minor: a row meets at most min(L, r) columns
    bound, digits, m = 3 * (min(longest, len(pivots)) * e * e) ** len(pivots), [], 1
    for s, digit in enumerate(_padic_digits(data, ncols, p, echelon, f, first), 1):
        digits.append(digit)
        m *= p
        if (done := m >= bound) or s & (s - 1) == 0:
            vec = _reconstruct(digits, p, m, f)
            if vec is not None and _annihilates(data, vec):
                return s, vec
            if done:
                return None


def _real_rows(data: list) -> list:
    """The real rows: x_j + y_j*w at columns 2j and 2j + 1, each Z[w] row as its real
    part and its w part, (a + b*w)(x + y*w) = a*x - b*y + (b*x + (a - b)*y)*w."""
    real = []
    for row in data:
        cells = [(c, x, y) for j, (a, b) in row.items() for c, x, y in ((2 * j, a, b), (2 * j + 1, -b, a - b))]
        real += [{c: (x, 0) for c, x, _ in cells if x}, {c: (y, 0) for c, _, y in cells if y}]
    return real


def _kernel_mod(data: list, ncols: int, p: int, divide=None):
    """`kernel_basis` at the prime p, or None when p turns out bad."""
    w = _cube_root(p)
    echelon = pivots, rows, _, (qw, _, _) = _echelon_mod(data, ncols, p, w)
    if len(pivots) == ncols:
        return Kernel([], FULL_RANK_MOD_P)
    free, certificate = sorted(set(range(ncols)).difference(pivots)), FIRST
    k = len(free) if divide else 1  # the kernel mod p, a residue vector per free column, for divide
    width = 2 * p.bit_length() + ncols.bit_length()
    packed, mask = _kernel_from_echelon(pivots, rows, ncols, p, width, free[:k]), (1 << width) - 1
    residues = [[x >> i & mask for x in packed] for i in range(0, k * width, width)]
    if divide:  # remainders of full column rank mod p prove K_(r-1) = 0, else the kernel stays open
        rest = [{j: y for j, x in enumerate(row) if (y := x % p)} for row in zip(*map(divide, residues))]
        if len(_echelon_sparse(rest, k, p)[0]) < k:
            return Kernel([], OPEN)
        certificate = FIRST_VECTOR
    first = residues[0]  # digit 0 of v_f
    if qw:  # step 0: each residue u as its nearest remainder mod π, in Z[w]
        pi, cap = _prime_element(p, w), isqrt(p // 2)
        vec = [_nearest_remainder((u, 0), pi) if u else (0, 0) for u in first]
        if all(abs(x) <= cap for y in vec for x in y) and _annihilates(data, vec):
            return Kernel([vec], certificate.format(1))
        # the real rows, whose free columns pair up as (2f, 2f + 1): lift the first at 2f
        data, ncols = _real_rows(data), 2 * ncols
        echelon = _echelon_mod(data, ncols, p, w)
        paired = set(range(ncols)).difference(echelon[0])
        if {c ^ 1 for c in paired} != paired:
            return None
        free, first = sorted(paired), None
    if found := _padic_kernel(data, ncols, p, echelon, free[0], first):
        s, vec = found  # over Q(w), x_j at 2j and y_j at 2j + 1 back to x_j + y_j*w
        return Kernel([[(x, y) for (x, _), (y, _) in zip(vec[::2], vec[1::2])] if qw else vec],
                      certificate.format(s))


def kernel_basis(data: list, ncols: int, divide=None) -> Kernel:
    """The first canonical vector of the right kernel, as a Z[w] integer
    vector of length ncols (see `Kernel`), or none when the kernel is 0 or
    stays open. data is a list of sparse rows, dicts {column: (a, b)} of the
    nonzero Z[w] cells a + b*w with columns below ncols, such as
    `nearfree.criteria.derivation_rows` gives. The next prime of
    `prime_stream` is taken only when one turns out bad; the result's
    `certificate` says how the kernel was settled (module docstring).
    divide, if given, maps a kernel vector mod p, a residue list, to its
    remainders on division by a line; unless those of the kernel mod p have
    full column rank, nothing is lifted (OPEN)."""
    for p in prime_stream():
        if (kernel := _kernel_mod(data, ncols, p, divide)) is not None:
            return kernel
    raise InternalFault("internal: every prime of the stream is bad for these rows")
