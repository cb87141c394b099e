import random
from array import array
from fractions import Fraction
from itertools import islice
from math import comb, gcd, isqrt
from types import SimpleNamespace

import pytest

from nearfree import (
    FieldTag,
    LineArrangement,
    LinearForm,
    Scalar,
    catalog,
    catalog_names,
    derivation_rows,
    kernel_basis,
    linalg,
    weak_combinatorics,
)
from nearfree.errors import ToolkitError
from nearfree.field import OMEGA, ONE, ZERO, integer_pairs, pair_mul

from bareiss import _bareiss_kernel, exact_kernel, rank
from support import (
    coeffs,
    dense_rows,
    div,
    random_arrangement,
    random_nonzero_scalar,
    random_rational_scalar,
    random_scalar,
    reference_annihilates,
    reference_echelon_dense,
    reference_kernel_from_echelon,
    reflection_arrangement,
    scalar_vector,
    sparse_rows,
    unlucky_primes_first,
    zw_rows,
)


def test_rank_identity():
    m = zw_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m) == 3
    assert kernel_basis(*sparse_rows(m)) == []


def test_rank_dependent_rows():
    assert rank(zw_rows([[1, 2], [2, 4]])) == 1


def test_rank_zero_row_matrix():
    # mdr never builds a matrix without rows, so one zero row of width 4
    m = [[(0, 0)] * 4]
    assert rank(m) == 0
    assert len(kernel_basis(*sparse_rows(m))) == 4


def test_kernel_of_zero_row():
    basis = kernel_basis(*sparse_rows(zw_rows([[0, 0, 0]])))
    assert len(basis) == 3
    assert basis == [((1, 0), (0, 0), (0, 0)), ((0, 0), (1, 0), (0, 0)), ((0, 0), (0, 0), (1, 0))]
    expected = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert [scalar_vector(vec) for vec in basis] == expected


def test_kernel_vectors_lead_with_one():
    # in Z[w] the lead entry is (s, 0) with s > 0, so it reads 1 over s
    kernels = [kernel_basis(*sparse_rows(zw_rows(rows))) for rows in ([[1, 2, 3], [0, 0, 1]], [[OMEGA, 1, 0]])]
    assert [len(k) for k in kernels] == [1, 2]
    for vec in kernels[0] + kernels[1]:
        lead = next(v for v in vec if v != (0, 0))
        assert lead[0] > 0 and lead[1] == 0
        assert next(v for v in scalar_vector(vec) if v) == ONE


def _random_matrix(rng, nrows, ncols, rational=True):
    make = (lambda: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))) if rational else (
        lambda: random_scalar(rng, 4)
    )
    return [[make() for _ in range(ncols)] for _ in range(nrows)]


def _matvec(rows, vec):
    return [sum((e * v for e, v in zip(row, vec)), ZERO) for row in rows]


def test_kernel_annihilates_randomized():
    rng = random.Random(3001)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rational = rng.random() < 0.5
        rows = _random_matrix(rng, nrows, ncols, rational)
        m = zw_rows(rows)
        basis = kernel_basis(*sparse_rows(m))
        assert rank(m) + len(basis) == ncols
        for vec in basis:
            assert all(not v for v in _matvec(rows, scalar_vector(vec)))


def test_kernel_basis_is_independent():
    rng = random.Random(3002)
    for _ in range(25):
        m = zw_rows(_random_matrix(rng, rng.randint(1, 5), rng.randint(2, 6)))
        basis = kernel_basis(*sparse_rows(m))
        if not basis:
            continue
        stacked = zw_rows([scalar_vector(vec) for vec in basis])
        assert rank(stacked) == len(basis)


def test_rank_invariant_under_row_ops():
    rng = random.Random(3003)
    for _ in range(25):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        rows = _random_matrix(rng, nrows, ncols)
        m = zw_rows(rows)
        rng.shuffle(rows)
        scaled = [[random_nonzero_scalar(rng, 3) * v for v in row] for row in rows]
        m2 = zw_rows(scaled)
        assert rank(m2) == rank(m)


def test_singular_square_matrices():
    rng = random.Random(3005)
    for _ in range(20):
        # build a rank-deficient matrix as an outer-ish product
        u = [random_scalar(rng, 3) for _ in range(4)]
        v = [random_scalar(rng, 3) for _ in range(4)]
        rows = [[u[i] * v[j] for j in range(4)] for i in range(4)]
        m = zw_rows(rows)
        assert rank(m) <= 1
        assert len(kernel_basis(*sparse_rows(m))) == 4 - rank(m)


def test_prime_stream_is_proven_distinct_and_descending():
    # every "full rank mod p" certificate rests on these primes, so a
    # missing sympy must fail this test, not skip it
    import sympy

    primes = list(linalg.prime_stream())
    assert len(primes) == 1652 and (primes[0], primes[-1]) == (32760 * 2**15 + 1, 24 * 2**15 + 1)
    for p in primes:
        assert sympy.isprime(p)
        assert p % 3 == 1 and p < 2**30 and (p >> 15) % 3 == 0
    assert primes == sorted(set(primes), reverse=True)
    assert list(islice(linalg.prime_stream(), 64)) == primes[:64]
    candidates = [(k << 15) + 1 for k in range(32766, 0, -3)]
    composites = [n for n in candidates if not sympy.isprime(n)]
    assert len(composites) > 9000
    assert not any(linalg._proth_prime(n) for n in composites)
    # a prime modulo which 5, 7, ..., 29 are all squares is not proven, so
    # the stream skips it; seven candidate primes are such
    unproven = [n for n in candidates if sympy.isprime(n) and n not in primes]
    assert len(unproven) == 7 and 30885 * 2**15 + 1 in unproven
    assert not any(linalg._proth_prime(n) for n in unproven)


def _deficient_matrix(rng, make):
    """Rows are combinations of a few random rows, so kernels are often large."""
    ncols = rng.randint(1, 7)
    base = [[make() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
    rows = []
    for _ in range(rng.randint(1, 7)):
        coeffs = [random_scalar(rng, 3) for _ in base]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), ZERO) for j in range(ncols)])
    return zw_rows(rows)



def test_kernel_basis_takes_the_width_from_ncols():
    # a column that no row stores is a zero column and an empty dict a zero
    # row: the kernel is the Bareiss basis of the dense rows, with the
    # certificate of the same rows with every cell stored, zeros included
    rng = random.Random(3018)
    certificates = set()
    for trial in range(40):
        make = (lambda: random_scalar(rng, 4)) if trial % 2 else (lambda: random_rational_scalar(rng, 5))
        empty = rng.randint(1, 3)
        dense = [row + [(0, 0)] * empty for row in _deficient_matrix(rng, make)]
        dense.insert(rng.randrange(len(dense) + 1), [(0, 0)] * len(dense[0]))
        rows, ncols = sparse_rows(dense)
        assert {} in rows and not any(j >= ncols - empty for row in rows for j in row)
        kernel = kernel_basis(rows, ncols)
        stored = kernel_basis([dict(enumerate(row)) for row in dense], ncols)
        assert kernel == stored == exact_kernel(dense)
        assert kernel.certificate == stored.certificate
        certificates.add(kernel.certificate)
    assert len(certificates) >= 2
    # only empty rows, or none: every column is free
    for rows, ncols in [([{}], 1), ([{}, {}, {}], 4), ([], 3)]:
        kernel = kernel_basis(rows, ncols)
        assert kernel == exact_kernel([[(0, 0)] * ncols]) and len(kernel) == ncols

def test_modular_matches_bareiss():
    rng = random.Random(3004)
    p, _, _, q = islice(linalg.prime_stream(), 4)
    makers = [
        lambda: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        lambda: random_scalar(rng, 4),
        # large denominators and numerators, beyond one prime's reach
        lambda: Scalar(Fraction(rng.randint(-2**140, 2**140), rng.randint(1, 2**130))),
        lambda: Scalar(Fraction(rng.randint(-9, 9), 2**200 + rng.randint(0, 9)),
                       Fraction(rng.randint(-2**90, 2**90), 7)),
        # entries divisible by the primes
        lambda: Scalar(p * rng.randint(-2, 2), q * rng.randint(-1, 1)),
        lambda: Scalar(rng.choice([0, 1, p, 2 * p, p * p]), rng.choice([0, 0, p])),
    ]
    certificates = set()
    for trial in range(120):
        make = makers[trial % len(makers)]
        if trial % 2:
            m = _deficient_matrix(rng, make)
        else:
            ncols, nrows = rng.randint(1, 6), rng.randint(1, 6)
            m = zw_rows([[make() for _ in range(ncols)] for _ in range(nrows)])
        kernel = kernel_basis(*sparse_rows(m))
        assert kernel == exact_kernel(m)
        certificates.add(kernel.certificate)
    assert linalg.FULL_RANK_MOD_P in certificates
    assert "verified reconstruction (mod p^1)" in certificates
    assert {_precision(c) for c in certificates} >= {1, 2, 4, 8, 16, 32, 64}


@pytest.mark.parametrize("primes", [(7,), (7, 13)])
def test_unlucky_primes_are_never_trusted(monkeypatch, primes):
    # singular mod 7 but not over Q; the second matrix's kernel mod 7 is
    # larger than the exact one and cannot be verified
    matrices = [zw_rows(rows) for rows in (
        [[1, 0], [0, 7]], [[1, 0], [0, 7 * OMEGA]], [[14, 3], [7, 5]], [[1, 0, 0], [0, 7, 0]],
    )]
    expected = [kernel_basis(*sparse_rows(m)) for m in matrices]
    claims = unlucky_primes_first(monkeypatch, primes)
    kernels = [kernel_basis(*sparse_rows(m)) for m in matrices]
    assert kernels == expected == [exact_kernel(m) for m in matrices]
    assert kernels[-1] == [((0, 0), (0, 0), (1, 0))]
    # the lift from 7 fails its check, and the next prime starts afresh
    assert [k.certificate for k in kernels] == [linalg.FULL_RANK_MOD_P] * 3 + [
        "verified reconstruction (mod p^1)"]
    # no zero kernel is claimed mod 7; 13 is a lucky prime for them all
    assert [p for p, _, _ in claims] == ([] if primes == (7,) else [13, 13, 13])


def _kernel_with_denominators(rng, dens):
    # rows (-a_i, 0, ..., q_i at column i, ...) span the complement of
    # v = (1, a_1/q_1, ..., a_k/q_k), so the kernel is spanned by v, whose
    # entries have pairwise different denominators; random combinations of
    # the rows hide the structure from the elimination
    k = len(dens)
    numerators = [Scalar(rng.choice([-3, -1, 1, 2]), rng.choice([0, 1])) for _ in dens]
    base = []
    for i, q in enumerate(dens):
        row = [ZERO] * (k + 1)
        row[0], row[i + 1] = -numerators[i], Scalar(q)
        base.append(row)
    mix = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
    rows = [[sum((c * r[j] for c, r in zip(mix[i][i + 1:], base[i + 1:])), base[i][j])
             for j in range(k + 1)] for i in range(k)]
    v = [ONE] + [div(n, q) for n, q in zip(numerators, dens)]
    return zw_rows(rows), v


def _counted_eliminations(monkeypatch):
    # the (p, w) of every elimination mod p, as the kernels are computed
    calls = []
    eliminate = linalg._echelon_mod

    def spy(data, ncols, p, w):
        calls.append((p, w))
        return eliminate(data, ncols, p, w)

    monkeypatch.setattr(linalg, "_echelon_mod", spy)
    return calls


def _precision(certificate):
    # s of "verified reconstruction (mod p^s)", 0 for "full rank mod p"
    return int(certificate.split("^")[1].rstrip(")")) if "^" in certificate else 0


@pytest.mark.parametrize("dens, certificate", [
    # a common denominator near 2^18, beyond sqrt(p/2) < 2^15 for the word prime
    ((3, 5, 7, 11, 13, 17), "verified reconstruction (mod p^2)"),
    # near 2^84, though every entry alone would fit in p^4
    ((2**21 + 7, 2**21 + 17, 2**21 + 27, 2**21 + 29), "verified reconstruction (mod p^8)"),
    # near 2^780, so some 53 p-adic steps
    (tuple(2**130 + k for k in (3, 5, 7, 11, 13, 17)), "verified reconstruction (mod p^64)"),
])
def test_kernel_with_distinct_denominators_matches_bareiss(monkeypatch, dens, certificate):
    # a kernel with denominators is not settled by step 0: over Q(w) the
    # rows are eliminated once under w -> ω and their real rows once, and
    # those are lifted p-adically
    rng = random.Random(3006)
    calls = _counted_eliminations(monkeypatch)
    qw_seen = False
    for _ in range(3):
        m, v = _kernel_with_denominators(rng, dens)
        qw = any(b for row in m for _, b in row)
        qw_seen |= qw
        calls.clear()
        kernel = kernel_basis(*sparse_rows(m))
        assert len(calls) == (2 if qw else 1)
        assert kernel == exact_kernel(m)
        assert kernel.certificate == certificate
        (vec,) = kernel
        s = vec[0][0]
        assert [Scalar(Fraction(a, s), Fraction(b, s)) for a, b in vec] == v
    assert qw_seen


def test_lift_bounds_the_common_denominator():
    # the modulus after four p-adic steps at the first prime, below 2^150
    m = next(linalg.prime_stream()) ** 5
    bound = isqrt(m // 2)
    q1, q2 = 2**40 + 15, 2**40 + 21  # each fits the bound, their product does not
    assert q1 < bound < q1 * q2
    assert linalg._lift([pow(q1, -1, m), pow(q2, -1, m)], m) is None
    assert linalg._lift([pow(q1, -1, m), 5 * pow(q1, -1, m) % m], m) == [1, 5]
    # numerators scaled by a later denominator must stay in bound too
    assert linalg._lift([2**62 % m, pow(q1, -1, m)], m) is None


def test_integral_vectors_are_the_scaled_canonical_basis():
    # against Bareiss's own kernel vectors, divided by their lead in Q(w)
    rng = random.Random(3007)
    for _ in range(30):
        m = _deficient_matrix(rng, lambda: random_scalar(rng, 4))
        kernel = kernel_basis(*sparse_rows(m))
        raw = _bareiss_kernel([list(row) for row in m], len(m[0]))
        assert len(kernel) == len(raw)
        for ints, exact in zip(kernel, raw):
            s = next(a for a, b in ints if a or b)
            assert s > 0 and gcd(*(x for pair in ints for x in pair)) == 1
            lead = Scalar(*next(x for x in exact if x != (0, 0)))
            assert scalar_vector(ints) == [div(Scalar(a, b), lead) for a, b in exact]


def _annihilates(data, vectors):
    # linalg._annihilates with E and L read off the cells, as `_echelon_mod`
    # gives them to it
    e = 0
    for row in data:
        for a, b in row.values():
            e |= abs(a) | abs(b)
    return linalg._annihilates(data, vectors, e, max(map(len, data), default=0))


def _annihilated_by_scalars(rows, vectors):
    # the reference: every row times every vector in Scalar arithmetic
    return all(not sum((Scalar(*e) * Scalar(*x) for e, x in zip(row, vec)), ZERO)
               for row in rows for vec in vectors)


@pytest.mark.parametrize("qw", [False, True])
def test_annihilates_matches_a_scalar_reference(qw):
    rng = random.Random(3012 + qw)
    make = (lambda: random_scalar(rng, 4)) if qw else (lambda: random_rational_scalar(rng, 5))
    checked = 0
    for _ in range(40):
        # rank at most ncols - 2, so every kernel has two vectors or more
        ncols = rng.randint(3, 7)
        base = [[make() for _ in range(ncols)] for _ in range(rng.randint(1, ncols - 2))]
        rows = zw_rows([[sum((c * row[j] for c, row in zip(coeffs, base)), ZERO)
                         for j in range(ncols)]
                        for coeffs in ([make() for _ in base] for _ in range(rng.randint(1, 6)))])
        filled = [j for j in range(ncols) if any(row[j] != (0, 0) for row in rows)]
        if not filled:
            continue
        kernel = [list(vec) for vec in exact_kernel(rows)]
        j, k = rng.choice(filled), rng.randrange(len(kernel))

        def changed(vec, da, db):
            (a, b), out = vec[j], list(vec)
            out[j] = (a + da, b + db)
            return out

        # a column that is not zero turns any change of its entry into a
        # nonzero product with some row
        cases = [
            (kernel, True),
            (kernel[:k] + [changed(kernel[k], 1, 0)] + kernel[k + 1:], False),
            (kernel[:k] + [changed(kernel[k], 0, 1)] + kernel[k + 1:], False),
            ([kernel[0], changed(kernel[1], -1, 0)], False),
        ]
        if not qw:
            # a w part outside the kernel beside a real kernel vector: the
            # real parts of the products vanish, their w parts do not
            cases.append(([changed(kernel[k], 0, rng.choice([-2, 1, 3]))], False))
        for vectors, expected in cases:
            assert _annihilates(sparse_rows(rows)[0], vectors) is expected
            assert _annihilated_by_scalars(rows, vectors) is expected
        checked += 1
    assert checked >= 30


def _pair_rows(rng, nrows, ncols, share, qw, p):
    """Random Z[w] integer-pair rows (b = 0 over Q) with about `share` of the
    cells nonzero, some of them divisible by p, then a zero row, a duplicate
    row and a row that is p times another."""
    def cell():
        if rng.random() >= share:
            return (0, 0)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9) if qw else 0
        return (a * p, b * p) if rng.random() < 0.1 else (a, b)

    rows = [[cell() for _ in range(ncols)] for _ in range(nrows)]
    rows[rng.randrange(nrows)] = [(0, 0)] * ncols
    rows[rng.randrange(nrows)] = list(rows[rng.randrange(nrows)])
    rows[rng.randrange(nrows)] = [(a * p, b * p) for a, b in rows[rng.randrange(nrows)]]
    return rows


def _kernel_residues(pivots, echelon, ncols, p, free=None):
    # linalg._kernel_from_echelon at its narrowest slot width, unpacked into
    # one residue list per vector, for every free column or the given ones
    width = 2 * p.bit_length() + ncols.bit_length()
    free = [j for j in range(ncols) if j not in pivots] if free is None else free
    packed = linalg._kernel_from_echelon(pivots, echelon, ncols, p, width, free)
    mask = (1 << width) - 1
    return [[x >> i & mask for x in packed] for i in range(0, len(free) * width, width)]


@pytest.mark.parametrize("prime", ["word", "stream"])
def test_sparse_and_dense_eliminations_agree(prime):
    # the routes may choose different pivot rows, never different pivot
    # columns or kernel residues
    # 3*2^30 + 1, a prime 1 mod 3 above the stream, besides the stream's first
    p = 3 * 2**30 + 1 if prime == "word" else next(linalg.prime_stream())
    w1 = linalg._cube_root(p)
    rng = random.Random(3010)
    for trial in range(90):
        n = rng.randint(2, 10)
        nrows, ncols = [(n + rng.randint(1, n), n), (n, n + rng.randint(1, n)), (n, n)][trial % 3]
        qw = trial % 2 == 1
        rows = _pair_rows(rng, nrows, ncols, rng.uniform(0.05, 0.6), qw, p)
        for w in ((w1, p - 1 - w1) if qw else (0,)):
            # residue dicts of the stored cells, without those that vanish mod p
            residues = [{j: x for j, (a, b) in row.items() if (x := (a + b * w) % p)}
                        for row in sparse_rows(rows)[0]]
            found = []
            for eliminate in (linalg._echelon_dense, linalg._echelon_sparse):
                pivots, echelon, _ = eliminate([dict(row) for row in residues], ncols, p)
                for pc, row in zip(pivots, echelon):
                    assert row[pc] == 1 and not any(row[:pc]) and all(0 <= x < p for x in row)
                found.append((pivots, _kernel_residues(pivots, echelon, ncols, p)))
            assert found[0] == found[1]


def _fresh(p):
    # the pivots a 64-bit slot below 2^(b+1) takes with no carry, b = bits(p)
    return ((1 << 64) - (2 << p.bit_length())) // (p - 1) ** 2


def _dense_cases(rng, p, n):
    """n x n residue dicts (and the wide and tall cuts) of three kinds:
    "worst", A = L*U with L unit lower and U unit upper triangular, 1 below
    and -1 above the diagonal, so at every pivot the lead is 1 and every
    pending slot gains exactly (p - 1)^2; "p - 1", a random support whose
    residues are all p - 1; and "random", random residues in random places."""
    worst = [[(1 - j if j <= i else -(i + 1)) % p for j in range(n)] for i in range(n)]
    minus = [[p - 1 if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
    other = [[rng.randrange(1, p) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
    for kind, full in [("worst", worst), ("p - 1", minus), ("random", other)]:
        for rows, ncols in [(full, n), (full[:n - 3], n), ([row[:n - 3] for row in full], n - 3)]:
            yield kind, [{j: x for j, x in enumerate(row) if x} for row in rows], ncols


def _check_dense_route(rows, ncols, p):
    # the packed route keeps the reference's every pivot, echelon row and row
    # operation, and the sparse route its pivots and kernel residues
    found = linalg._echelon_dense([dict(row) for row in rows], ncols, p)
    assert found == reference_echelon_dense(rows, ncols, p)
    pivots, echelon, _ = found
    sparse_pivots, sparse_echelon, _ = linalg._echelon_sparse([dict(row) for row in rows], ncols, p)
    assert sparse_pivots == pivots
    assert _kernel_residues(pivots, sparse_echelon, ncols, p) == _kernel_residues(pivots, echelon, ncols, p)
    return pivots


STREAM = list(linalg.prime_stream())


@pytest.mark.parametrize("p", [STREAM[0], STREAM[-1], 3 * 2**30 + 1, 2**32 - 5, 7, 13],
                         ids=["stream first", "stream last", "3*2^30+1", "2^32-5", "7", "13"])
def test_dense_route_reduces_its_slots_without_changing_a_pivot(p):
    # 52 columns give the stream's first prime (fresh = 16) its slot
    # reduction at least three times; 3*2^30 + 1 and 2^32 - 5 (fresh = 1)
    # reduce after every pivot; the others never fill a slot, and take the
    # same route unreduced
    assert [_fresh(q) for q in (STREAM[0], 3 * 2**30 + 1, 2**32 - 5)] == [16, 1, 1]
    rng = random.Random(3020)
    for kind, rows, ncols in _dense_cases(rng, p, 52):
        pivots = _check_dense_route(rows, ncols, p)
        if kind != "p - 1" and _fresh(p) <= 16:
            assert len(pivots) >= 3 * _fresh(p)


def test_dense_route_on_heavy_rows_forced_both_ways():
    # random span-4 d = 16 at r = 13: 210 x 210 rows about a third nonzero,
    # each route forced on them mod the stream's first prime
    a = random_arrangement(random.Random(1), 16, span=4)
    data, ncols = derivation_rows([integer_pairs(coeffs(form)) for form in a.lines], 13)
    p = STREAM[0]
    rows = [{j: x for j, (n, _) in row.items() if (x := n % p)} for row in data]
    assert (len(rows), ncols) == (210, 210) and len(_check_dense_route(rows, ncols, p)) > 3 * _fresh(p)


def test_dense_route_needs_64_bit_slots(monkeypatch):
    # above 2^32 one product of residues fills a 64-bit slot, so no pivot fits
    # (fresh = 0), and an array("Q") whose items are not 8 bytes packs no
    # 64-bit slots: both are raised errors, not wrong pivots
    with pytest.raises(ToolkitError, match="internal"):
        linalg._echelon_dense([{0: 1}], 1, 2**32 + 15)
    monkeypatch.setattr(linalg, "array", lambda code, *init: array("I", *init))
    with pytest.raises(ToolkitError, match="internal"):
        linalg._echelon_dense([{0: 1}], 1, STREAM[0])


class _BigEndianSlots:
    """array("Q") as a big-endian host lays it out, each slot's eight bytes
    most significant first; int.from_bytes reads it through __bytes__."""
    itemsize = 8

    def __init__(self, code, init=b""):
        assert code == "Q"
        self.raw = bytearray(init if isinstance(init, bytes) else b"".join(x.to_bytes(8, "big") for x in init))

    def __setitem__(self, k, x):
        self.raw[8 * k:8 * k + 8] = x.to_bytes(8, "big")

    def __iter__(self):
        return (int.from_bytes(self.raw[k:k + 8], "big") for k in range(0, len(self.raw), 8))

    def __bytes__(self):
        return bytes(self.raw)

    def byteswap(self):
        for k in range(0, len(self.raw), 8):
            self.raw[k:k + 8] = self.raw[k:k + 8][::-1]


def test_dense_route_swaps_the_slot_bytes_on_a_big_endian_host(monkeypatch):
    # with array("Q") laid out big-endian, the packed integers are still read
    # and written little-endian: the same pivots, echelon rows and record
    rng, p = random.Random(3021), STREAM[0]
    cases = [(rows, ncols) for _, rows, ncols in _dense_cases(rng, p, 40)]
    expected = [linalg._echelon_dense([dict(row) for row in rows], ncols, p) for rows, ncols in cases]
    assert bytes(_BigEndianSlots("Q", [1, 2])) == bytes(7) + b"\1" + bytes(7) + b"\2"
    monkeypatch.setattr(linalg, "array", _BigEndianSlots)
    monkeypatch.setattr(linalg, "sys", SimpleNamespace(byteorder="big"))
    for (rows, ncols), want in zip(cases, expected):
        assert linalg._echelon_dense([dict(row) for row in rows], ncols, p) == want


def _big(rng):
    """A nonzero integer of up to 200 bits, of either sign."""
    return rng.choice([-1, 1]) * rng.choice([1, 2, 3, rng.getrandbits(200) | 1 << 199])


def _ranked_rows(rng, nrows, ncols, rank, qw):
    """nrows dense Z[w] rows of the given rank over Q(w) (for small random
    entries, barring an unlucky draw): rank random rows, then random
    combinations of them, all scaled by integers of up to 200 bits."""
    def pair():
        return (rng.randint(-3, 3), rng.randint(-3, 3) if qw else 0)

    base = [[pair() for _ in range(ncols)] for _ in range(rank)]
    rows = base + [[(0, 0)] * ncols for _ in range(nrows - rank)]
    for row in rows[rank:]:
        for other in base:
            c = pair()
            row[:] = [(a + x, b + y) for (a, b), (x, y) in zip(row, (pair_mul(c, e) for e in other))]
    rng.shuffle(rows)
    return [[(a * t, b * t) for a, b in row] for row, t in zip(rows, (_big(rng) for _ in rows))]


@pytest.mark.parametrize("prime", ["word", "stream"])
def test_packed_back_substitution_matches_the_per_vector_loop(prime):
    # every kernel dimension k from 0 to ncols, over Q and under both
    # embeddings of w, from the echelons of both routes
    p = 3 * 2**30 + 1 if prime == "word" else next(linalg.prime_stream())
    w1 = linalg._cube_root(p)
    rng = random.Random(3020)
    seen = set()
    for trial in range(100):
        qw = trial % 2 == 1
        ncols = rng.randint(1, 13)
        k = min(ncols, [0, 1, 2, 7, ncols, rng.randint(0, ncols)][trial % 6])
        rows = _ranked_rows(rng, ncols - k + rng.randint(1, 3), ncols, ncols - k, qw)
        for w in ((w1, p - 1 - w1) if qw else (0,)):
            residues = [{j: x for j, (a, b) in row.items() if (x := (a + b * w) % p)}
                        for row in sparse_rows(rows)[0]]
            for eliminate in (linalg._echelon_dense, linalg._echelon_sparse):
                pivots, echelon, _ = eliminate([dict(row) for row in residues], ncols, p)
                expected = reference_kernel_from_echelon(pivots, echelon, ncols, p)
                assert _kernel_residues(pivots, echelon, ncols, p) == expected
                assert len(expected) == ncols - len(pivots)
                seen.add(len(expected))
                # some of the free columns alone, as the real rows lift those at 2f
                free = [j for j in range(ncols) if j not in pivots]
                some = sorted(random.Random(trial).sample(range(len(free)), len(free) // 2))
                assert _kernel_residues(pivots, echelon, ncols, p, [free[i] for i in some]) == [
                    expected[i] for i in some]
    assert {0, 1, 2, 7} <= seen and max(seen) >= 10


def _one_failing_row(rng, ncols, k, qw):
    """Dense Z[w] rows A and one more row r0, such that A and r0 have a
    kernel of dimension k and A alone one of dimension k + 1: the canonical
    basis of the first kernel, and a vector u of the second that r0 does
    not kill."""
    while True:
        rows = _ranked_rows(rng, ncols - k, ncols, ncols - k, qw)
        base, r0 = rows[1:], rows[0]
        identity = [[(int(i == j), 0) for j in range(ncols)] for i in range(ncols)]
        wider = exact_kernel(base) if base else identity
        kernel = exact_kernel(rows)
        if len(kernel) == k and len(wider) == k + 1:
            u = next(v for v in wider if not reference_annihilates(sparse_rows([r0])[0], [v]))
            return base, r0, [list(v) for v in kernel], list(u)


@pytest.mark.parametrize("qw", [False, True])
def test_packed_check_finds_the_one_failing_pair_in_every_slot(qw):
    # k kernel vectors, which kill every row, then the same with a multiple
    # of u added to vector i, which then fails on row r0 alone: at every
    # slot i, the last included, with r0 anywhere among the rows
    rng = random.Random(3021 + qw)
    for ncols, k in [(3, 0), (3, 1), (4, 2), (9, 7), (11, 9), (12, 1), (12, 3)]:
        base, r0, kernel, u = _one_failing_row(rng, ncols, k, qw)
        rows = base[:]
        rows.insert(rng.randint(0, len(rows)), r0)
        data = sparse_rows(rows)[0]
        vectors = [[(a * t, b * t) for a, b in vec] for vec, t in zip(kernel, (_big(rng) for _ in kernel))]
        assert _annihilates(data, vectors) is reference_annihilates(data, vectors) is True
        for i in range(k):
            c = (_big(rng), rng.randint(-2, 2) if qw else 0)
            failing = [list(vec) for vec in vectors]
            failing[i] = [(a + x, b + y) for (a, b), (x, y) in zip(failing[i], (pair_mul(c, e) for e in u))]
            assert _annihilates(data, failing) is reference_annihilates(data, failing) is False


@pytest.mark.parametrize("side", ["row", "vector"])
@pytest.mark.parametrize("part", [0, 1])
def test_packed_check_is_exact_when_a_sum_is_a_power_of_two_times_the_next(side, part):
    # one row and two vectors with sums 2^t and -1 in the a or the w part,
    # which slots of exactly t bits would add up to 0. The factor 2^t sits
    # in the row or in the vector, for every t up to 260, and zero vectors
    # around the two put them in any two neighbouring slots
    rng = random.Random(3023)

    def cell(n):
        return (n, 0) if part == 0 else (0, n)

    zero = [(0, 0), (0, 0)]
    for t in range(261):
        if side == "row":
            row, pair = {0: (1 << t, 0), 1: (1, 0)}, [[cell(1), (0, 0)], [(0, 0), cell(-1)]]
        else:
            row, pair = {0: (1, 0)}, [[cell(1 << t), (0, 0)], [cell(-1), (0, 0)]]
        before, after = [zero] * rng.randint(0, 3), [zero] * rng.randint(0, 3)
        assert reference_annihilates([row], before + pair + after) is False
        assert _annihilates([row], before + pair + after) is False
        assert _annihilates([row], before + [zero, zero] + after) is True


def test_packed_check_at_the_largest_sums_its_bound_allows():
    # cells a + b*w with |a| = |b| = E and entries a + b*w with |a|, |b| in
    # {0, X}: a product's w part reaches 3*E*X in absolute value. Rows and
    # vectors of every sign pattern, and pairs of vectors that cancel
    rng = random.Random(3024)
    E, X = (1 << 200) - 1, (1 << 150) + 7
    outcomes = set()
    for trial in range(200):
        ncols = rng.randint(1, 6)
        data = [{j: (rng.choice([-E, E]), rng.choice([-E, E])) for j in range(ncols)}
                for _ in range(rng.randint(1, 3))]
        vectors = [[(rng.choice([-X, 0, X]), rng.choice([-X, 0, X])) for _ in range(ncols)]
                   for _ in range(rng.randint(2, 5))]
        if trial % 3 == 0:
            # two equal cells, and each vector x at one and -x at the other
            data = [{0: (E, -E), 1: (E, -E)}]
            vectors = [[(x, y), (-x, -y)] for x, y in ((rng.choice([-X, X]), rng.choice([-X, 0, X]))
                                                    for _ in range(rng.randint(2, 5)))]
        expected = reference_annihilates(data, vectors)
        assert _annihilates(data, vectors) is expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_span_basis_is_the_canonical_basis_of_any_basis_of_the_span():
    # the rows of a triangular matrix with a nonzero diagonal, shuffled, are
    # independent combinations of a kernel basis in any order of their last
    # nonzero entries; span_basis must give back the basis kernel_basis gave
    rng = random.Random(3017)
    seen = set()
    for trial in range(60):
        qw = trial % 2 == 1
        ncols = rng.randint(3, 8)
        rows = [[(rng.randint(-3, 3), rng.randint(-3, 3) if qw else 0) for _ in range(ncols)]
                for _ in range(rng.randint(1, ncols - 2))]
        kernel = kernel_basis(*sparse_rows(rows))
        n = len(kernel)
        combinations = []
        for k in range(n):
            u = [(rng.randint(-4, 4), rng.randint(-4, 4) if qw else 0) for _ in range(k)]
            combinations.append(u + [(rng.choice([-2, -1, 1, 3]), 1 if qw else 0)] + [(0, 0)] * (n - 1 - k))
        rng.shuffle(combinations)
        derived = linalg.span_basis(combinations, kernel, "given")
        assert list(derived) == list(kernel) and derived.certificate == "given"
        seen.add(n)
    assert max(seen) >= 3


def _nodal_without_zero_coefficients(rng, d):
    """d lines with coefficients in [-4, 4] other than 0 and only nodes, like
    the arrangements of the benchmark's generic workload."""
    while True:
        forms = [LinearForm(*(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(3)))
                 for _ in range(d)]
        if len(set(forms)) == d:
            a = LineArrangement(forms)
            if weak_combinatorics(a).counts == ((2, comb(d, 2)),):
                return a


def test_benchmark_rows_take_the_faster_route(monkeypatch):
    # 9% of the cells of A(6,1,3)'s rows at its mdr 7 are nonzero, and the
    # sparse route eliminated them about 2x faster; a nodal octic's rows at
    # its mdr 6 are about 40% nonzero, and the dense route was 3.3x faster
    routes = []
    for name in ("_echelon_dense", "_echelon_sparse"):
        def spy(*args, name=name, eliminate=getattr(linalg, name)):
            routes.append(name)
            return eliminate(*args)
        monkeypatch.setattr(linalg, name, spy)
    for a, r, route in [
        (reflection_arrangement(6, True), 7, "_echelon_sparse"),
        (_nodal_without_zero_coefficients(random.Random(3011), 8), 6, "_echelon_dense"),
    ]:
        rows = derivation_rows([integer_pairs(coeffs(form)) for form in a.lines], r)
        routes.clear()
        assert kernel_basis(*rows)
        assert routes and set(routes) == {route}


def _norm(x):
    a, b = x
    return a * a - a * b + b * b


@pytest.mark.parametrize("p", [*islice(linalg.prime_stream(), 4), 7, 13],
                         ids=["stream0", "stream1", "stream2", "stream3", "7", "13"])
def test_prime_element_has_norm_p_and_divides_w_minus_omega(p):
    rng = random.Random(3013)
    w1 = linalg._cube_root(p)
    for w in (w1, p - 1 - w1):
        pi = linalg._prime_element(p, w)
        assert _norm(pi) == p and (pi[0] + pi[1] * w) % p == 0
        # (w - ω)/π = (w - ω) conj(π) / p, conj(π) = π_a - π_b - π_b w
        quotient = pair_mul((-w, 1), (pi[0] - pi[1], -pi[1]))
        assert all(x % p == 0 for x in quotient)
        # a small Z[w] integer is the nearest remainder mod π of its residue
        # under w -> ω: below 2^12 over the stream's primes, the units and 0
        # (norm below 3p/16) mod 7 and 13
        span = 2**12
        for _ in range(50):
            x = ((rng.randint(-span, span), rng.randint(-span, span)) if p > 13 else
                 rng.choice([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]))
            u = (x[0] + x[1] * w) % p
            remainder = linalg._nearest_remainder((u, 0), pi)
            assert (remainder[0] + remainder[1] * w - u) % p == 0
            assert _norm(remainder) <= 3 * p / 4
            assert remainder == x
        assert [linalg._nearest_remainder((u, 0), pi) for u in (0, 1)] == [(0, 0), (1, 0)]


def _qw_arrangements():
    # (arrangement, mdr, shuffled): the Q(w) catalog entries, and A(m,m,3) and
    # A(m,1,3) (exponents {m+1, 2m-2} and {m+1, 2m+1}) in their order and
    # shuffled, which changes the first line alpha_0 and so the rows
    cases = [(catalog(name), 4, False) for name in catalog_names()
             if catalog(name).tag is FieldTag.QW]
    for m in (2, 3, 6):
        for full in (False, True):
            a = reflection_arrangement(m, full)
            lines = list(a.lines)
            random.Random(4).shuffle(lines)
            r = m + 1 if full else min(m + 1, 2 * m - 2)
            cases += [(a, r, False), (LineArrangement(lines), r, True)]
    return cases


def test_one_embedding_settles_the_qw_kernels_at_and_below_mdr(monkeypatch):
    # at mdr the canonical kernel vectors have Z[w] entries of a bit or two,
    # so one elimination under w -> ω settles them; one degree below, that
    # elimination has full rank, so r is the mdr. A(6,6,3) at r = 7 is the
    # benchmark's case. Bareiss checks the kernels of the lines in their
    # order; the shuffled ones pin the certificates and the eliminations
    cases = _qw_arrangements()
    assert len(cases) == 14 and (reflection_arrangement(6, False), 7, False) in cases
    calls = _counted_eliminations(monkeypatch)
    for a, r, shuffled in cases:
        ints = [form.ints for form in a.lines]
        for degree, certificate in [(r - 1, linalg.FULL_RANK_MOD_P),
                                    (r, "verified reconstruction (mod p^1)")]:
            rows, ncols = derivation_rows(ints, degree)
            calls.clear()
            kernel = kernel_basis(rows, ncols)
            assert len(calls) == 1
            assert kernel.certificate == certificate
            if not shuffled:
                assert kernel == exact_kernel(dense_rows(rows, ncols))


def _integral_kernel_rows(rng, rank, nfree):
    """Z[w] rows whose canonical kernel basis is integral: rows (e_i, -B_i)
    have the kernel spanned by the vectors (B e_j, e_j), 1 at free column j,
    and are hidden by a unit lower triangular Z[w] mix and extra
    combinations of them."""
    def small():
        return rng.randint(-3, 3), rng.randint(-3, 3)

    def combine(coeffs, rows):
        return [tuple(map(sum, zip(*(pair_mul(c, row[j]) for c, row in zip(coeffs, rows)))))
                for j in range(rank + nfree)]

    base = [[(int(i == j), 0) for j in range(rank)] + [(-a, -b) for a, b in
                                                       (small() for _ in range(nfree))]
            for i in range(rank)]
    rows = [combine([(1, 0)] + [small() for _ in base[i + 1:]], base[i:]) for i in range(rank)]
    rows += [combine([small() for _ in base], base) for _ in range(rng.randint(0, 3))]
    rng.shuffle(rows)
    return rows


def _canonical_is_integral(kernel):
    # each canonical vector is the Kernel vector over its last nonzero entry y;
    # x/y = x conj(y)/N(y) is in Z[w] iff N(y) divides both parts
    for vec in kernel:
        y = next(x for x in reversed(vec) if x != (0, 0))
        conj = (y[0] - y[1], -y[1])
        if any(n % _norm(y) for x in vec for n in pair_mul(x, conj)):
            return False
    return True


def test_random_qw_kernels_with_and_without_denominators_match_bareiss(monkeypatch):
    # an integral canonical basis takes one elimination; one with
    # denominators takes a second one, of the real rows, and p-adic steps
    rng = random.Random(3014)
    calls = _counted_eliminations(monkeypatch)
    seen = set()
    for trial in range(60):
        if trial % 2:
            m = _integral_kernel_rows(rng, rng.randint(1, 5), rng.randint(1, 3))
        else:
            m = _deficient_matrix(rng, lambda: random_scalar(rng, 4))
        calls.clear()
        kernel = kernel_basis(*sparse_rows(m))
        assert kernel == exact_kernel(m)
        if not kernel or not any(b for row in m for _, b in row):
            continue
        integral = _canonical_is_integral(kernel)
        assert integral or not trial % 2
        assert len(calls) == (1 if integral else 2)
        seen.add(integral)
    assert seen == {False, True}


def _lifted_kernel_rows(rng, rank, nfree, qw, share, den):
    """Z[w] rows (den*e_i, -B_i), den a Z[w] pair, B about `share` nonzero,
    hidden by a unit lower triangular mix and, when tall, extra combinations
    of two rows: the canonical kernel vectors are (B e_j/den, e_j), entries
    over the common denominator den, as Bareiss finds them."""
    def small():
        if rng.random() >= share:
            return (0, 0)
        return rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-2, 2) if qw else 0

    def combine(coeffs, rows):
        return [tuple(map(sum, zip(*(pair_mul(c, row[j]) for c, row in zip(coeffs, rows)))))
                for j in range(rank + nfree)]

    base = [[den if i == j else (0, 0) for j in range(rank)] + [(-a, -b) for a, b in
                                                                (small() for _ in range(nfree))]
            for i in range(rank)]
    rows = [combine([(1, 0)] + [small() for _ in base[i + 1:]], base[i:]) for i in range(rank)]
    for _ in range(rng.randint(0, 3) if rank else 1):
        picks = rng.sample(range(rank), min(2, rank)) if rank else []
        rows.append(combine([small() or (1, 0) for _ in picks], [rows[i] for i in picks]) if picks
                    else [(0, 0)] * (rank + nfree))
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("qw", [False, True])
def test_padic_kernels_match_bareiss(monkeypatch, qw):
    # tall and wide rows, sparse and dense, kernel dimensions 0 to 12, and
    # canonical entries over a common denominator of up to 200 bits, which
    # takes p-adic steps past step 0; over Q(w) those steps lift the real rows
    rng = random.Random(3030 + qw)
    routes, real = [], []
    for name in ("_echelon_dense", "_echelon_sparse"):
        def spy(*args, name=name, eliminate=getattr(linalg, name)):
            routes.append(name)
            return eliminate(*args)
        monkeypatch.setattr(linalg, name, spy)

    def real_spy(data, real_rows=linalg._real_rows):
        real.append(len(data))
        return real_rows(data)

    monkeypatch.setattr(linalg, "_real_rows", real_spy)
    seen = {"route": set(), "dim": set(), "precision": set(), "shape": set()}
    for trial in range(52):
        nfree, rank = trial % 13, rng.randint(0, 7)
        share = rng.choice([0.15, 0.9])
        den = (rng.choice([1, 7, 2**31 + 11, rng.getrandbits(200) | 1]), 0)
        rows = _lifted_kernel_rows(rng, rank, nfree, qw, share, den)
        if not rows:
            continue
        routes.clear()
        kernel = kernel_basis(*sparse_rows(rows))
        assert kernel == exact_kernel(rows)
        seen["route"] |= set(routes)
        seen["dim"].add(len(kernel))
        seen["precision"].add(_precision(kernel.certificate))
        seen["shape"].add("tall" if len(rows) > rank else "wide")
    assert seen["route"] == {"_echelon_dense", "_echelon_sparse"} and seen["shape"] == {"tall", "wide"}
    assert seen["dim"] >= set(range(13)) and max(seen["precision"]) >= 16
    assert bool(real) is qw and (not qw or len(real) >= 20)


def test_real_rows_are_the_zw_product_in_real_coordinates():
    # a Z[w] row times a Z[w] vector is the real row pair times the vector's
    # (x, y) pairs: the real part, then the w part, with every stored cell
    # nonzero, b = 0, in the columns 2j and 2j + 1 of a stored j
    rng = random.Random(3040)
    for trial in range(200):
        ncols, c = rng.randint(1, 6), 2**120 if trial % 2 else 4
        rows = [{j: (rng.randint(-c, c), rng.randint(-c, c)) for j in range(ncols) if rng.random() < 0.7}
                for _ in range(rng.randint(1, 3))]
        vec = [(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(ncols)]
        real = linalg._real_rows(rows)
        assert len(real) == 2 * len(rows)
        xy = [x for pair in vec for x in pair]
        for row, re, im in zip(rows, real[::2], real[1::2]):
            product = [sum(parts) for parts in zip((0, 0), *(pair_mul(x, vec[j]) for j, x in row.items()))]
            assert [sum(a * xy[k] for k, (a, _) in r.items()) for r in (re, im)] == product
            assert all(a and not b and k // 2 in row for r in (re, im) for k, (a, b) in r.items())


def test_qw_denominators_lift_through_the_real_rows(monkeypatch):
    # canonical entries over a Z[w] denominator with parts of up to 200 bits,
    # kernel dimensions 0 to 12, sparse and dense rows: step 0 leaves them
    # open, and the real rows, eliminated on both routes, are lifted
    # p-adically at their even free columns
    rng = random.Random(3041)
    routes, real = [], []
    for name in ("_echelon_dense", "_echelon_sparse"):
        def spy(rows, ncols, p, name=name, eliminate=getattr(linalg, name)):
            routes.append((name, ncols))
            return eliminate(rows, ncols, p)
        monkeypatch.setattr(linalg, name, spy)

    def real_spy(data, real_rows=linalg._real_rows):
        real.append(len(data))
        return real_rows(data)

    monkeypatch.setattr(linalg, "_real_rows", real_spy)
    seen = {"dim": set(), "precision": set(), "real routes": set()}
    for trial in range(39):
        nfree, rank = trial % 13, rng.randint(1, 6)
        bits = rng.choice([8, 60, 200])
        den = (rng.getrandbits(bits), rng.getrandbits(bits) | 1)
        rows = _lifted_kernel_rows(rng, rank, nfree, True, rng.choice([0.15, 0.9]), den)
        routes.clear()
        real.clear()
        kernel = kernel_basis(*sparse_rows(rows))
        assert kernel == exact_kernel(rows)
        seen["dim"].add(len(kernel))
        if real:
            seen["precision"].add(_precision(kernel.certificate))
            seen["real routes"] |= {name for name, ncols in routes if ncols == 2 * (rank + nfree)}
    assert seen["dim"] >= set(range(13)) and max(seen["precision"]) >= 16
    assert len(seen["precision"]) >= 3 and seen["real routes"] == {"_echelon_dense", "_echelon_sparse"}


def test_a_prime_with_one_deficient_embedding_is_dropped(monkeypatch):
    # w - ω vanishes mod 7 under w -> ω, not under w -> ω², so the two
    # embeddings have different pivots: step 0 fails its check, the real
    # rows' free columns do not pair, and 7 is dropped with no p-adic step;
    # the stream's first prime gives Bareiss's basis
    omega, first = linalg._cube_root(7), next(linalg.prime_stream())
    cases = [[[(-omega, 1)]], [[(-omega, 1), (1, 0)]],
             [[(-omega, 1), (1, 0), (2, 1)], [(0, 0), (1, 1), (3, 0)]]]
    for m in cases:
        data, ncols = sparse_rows(m)
        free = sorted(set(range(2 * ncols)).difference(
            linalg._echelon_mod(linalg._real_rows(data), 2 * ncols, 7, omega)[0]))
        assert free != [c + k for c in free[::2] for k in (0, 1)]
    expected = [exact_kernel(m) for m in cases]
    unlucky_primes_first(monkeypatch, (7,))
    calls, steps = _counted_eliminations(monkeypatch), _targets_calls(monkeypatch)
    lifted = []

    def lift_spy(data, ncols, p, echelon, free, *first, lift=linalg._padic_kernel):
        lifted.append(p)
        return lift(data, ncols, p, echelon, free, *first)

    monkeypatch.setattr(linalg, "_padic_kernel", lift_spy)
    for m, want in zip(cases, expected):
        calls.clear()
        lifted.clear()
        kernel = kernel_basis(*sparse_rows(m))
        assert kernel == want
        assert [p for p, _ in calls][:2] == [7, 7] and {p for p, _ in calls[2:]} == {first}
        assert 7 not in lifted and 7 not in steps
    assert [len(k) for k in expected] == [0, 1, 1]


def _targets_calls(monkeypatch):
    # the primes of every back-substitution for a p-adic step
    calls = []
    back_substitute = linalg._kernel_from_echelon

    def spy(pivots, echelon, ncols, p, width, free, targets=None):
        if targets is not None:
            calls.append(p)
        return back_substitute(pivots, echelon, ncols, p, width, free, targets)

    monkeypatch.setattr(linalg, "_kernel_from_echelon", spy)
    return calls


@pytest.mark.parametrize("rows, steps_at_7", [
    # 7 divides a pivot minor: mod 7 column 1 is free, not 2, and the rows
    # stay consistent, so 7 lifts (-1, 1, -7), which kills the rows but has
    # a nonzero entry right of its free column; the lift is refused until
    # the bound, where 7 is dropped
    ([[1, 1, 0], [1, 8, 1]], True),
    ([[7, 1, 1]], True),
    ([[7, OMEGA, 1], [0, 1, 1]], True),
    # inconsistent mod 7: the second row is a zero row mod 7 whose
    # right-hand side is not, so 7 is dropped before any p-adic step
    ([[1, 0], [0, 7]], False),
    ([[1, 0, 0], [0, 7, 0]], False),
])
def test_bad_primes_are_dropped_for_the_next(monkeypatch, rows, steps_at_7):
    m, first = zw_rows(rows), next(linalg.prime_stream())
    expected = exact_kernel(m)
    unlucky_primes_first(monkeypatch, (7,))
    calls, steps = _counted_eliminations(monkeypatch), _targets_calls(monkeypatch)
    kernel = kernel_basis(*sparse_rows(m))
    assert kernel == expected
    primes = [p for p, _ in calls]
    assert primes[0] == 7 and primes == sorted(primes) and set(primes) == {7, first}
    assert (7 in steps) is steps_at_7
