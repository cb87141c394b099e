import random
from fractions import Fraction

import pytest

from nearfree import ExactMatrix, FieldTag, Scalar, kernel_basis, linalg, rank
from nearfree.field import OMEGA, ONE, ZERO

from support import random_nonzero_scalar, random_scalar


def _mat(rows, tag=None):
    return ExactMatrix.from_rows(rows, tag)


def test_rank_identity():
    m = _mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert rank(m) == 3
    assert kernel_basis(m) == []


def test_rank_dependent_rows():
    assert rank(_mat([[1, 2], [2, 4]])) == 1


def test_rank_zero_row_matrix():
    m = ExactMatrix(0, 4, (), FieldTag.Q)
    assert rank(m) == 0
    assert len(kernel_basis(m)) == 4


def test_kernel_of_zero_row():
    basis = kernel_basis(_mat([[0, 0, 0]]))
    assert len(basis) == 3
    expected = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert basis == expected


def test_kernel_vectors_lead_with_one():
    m = _mat([[1, 2, 3], [0, 0, 1]])
    for vec in kernel_basis(m):
        lead = next(v for v in vec if v)
        assert lead == ONE


def _random_matrix(rng, nrows, ncols, rational=True):
    make = (lambda: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))) if rational else (
        lambda: random_scalar(rng, 4)
    )
    rows = [[make() for _ in range(ncols)] for _ in range(nrows)]
    return ExactMatrix.from_rows(rows)


def test_kernel_annihilates_randomized():
    rng = random.Random(3001)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rational = rng.random() < 0.5
        m = _random_matrix(rng, nrows, ncols, rational)
        basis = kernel_basis(m)
        assert rank(m) + len(basis) == ncols
        for vec in basis:
            assert all(not v for v in m.matvec(vec))


def test_kernel_basis_is_independent():
    rng = random.Random(3002)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(2, 6))
        basis = kernel_basis(m)
        if not basis:
            continue
        stacked = ExactMatrix.from_rows(basis)
        assert rank(stacked) == len(basis)


def test_rank_invariant_under_row_ops():
    rng = random.Random(3003)
    for _ in range(25):
        nrows, ncols = rng.randint(2, 5), rng.randint(2, 5)
        m = _random_matrix(rng, nrows, ncols)
        rows = [m.row(i) for i in range(nrows)]
        rng.shuffle(rows)
        scaled = [[random_nonzero_scalar(rng, 3) * v for v in row] for row in rows]
        m2 = ExactMatrix.from_rows(scaled)
        assert rank(m2) == rank(m)


def test_singular_square_matrices():
    rng = random.Random(3005)
    for _ in range(20):
        # build a rank-deficient matrix as an outer-ish product
        u = [random_scalar(rng, 3) for _ in range(4)]
        v = [random_scalar(rng, 3) for _ in range(4)]
        rows = [[u[i] * v[j] for j in range(4)] for i in range(4)]
        m = ExactMatrix.from_rows(rows)
        assert rank(m) <= 1
        assert len(kernel_basis(m)) == 4 - rank(m)


def test_primes_are_prime_and_one_mod_three():
    sympy = pytest.importorskip("sympy")
    assert linalg.PRIMES
    for p in linalg.PRIMES:
        assert sympy.isprime(p)
        assert p % 3 == 1


def _exact_kernel(m, monkeypatch):
    """kernel_basis with no primes left, i.e. Bareiss elimination alone."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "PRIMES", ())
        kernel = kernel_basis(m)
    assert kernel.certificate == linalg.EXACT_ELIMINATION
    return kernel


def _deficient_matrix(rng, make):
    """Rows are combinations of a few random rows, so kernels are often large."""
    ncols = rng.randint(1, 7)
    base = [[make() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
    rows = []
    for _ in range(rng.randint(1, 7)):
        coeffs = [random_scalar(rng, 3) for _ in base]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, base)), ZERO) for j in range(ncols)])
    return ExactMatrix.from_rows(rows)


def test_modular_matches_bareiss(monkeypatch):
    rng = random.Random(3004)
    p = linalg.PRIMES[0]
    makers = [
        lambda: Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
        lambda: random_scalar(rng, 4),
        # large denominators and numerators, beyond one prime's reach
        lambda: Scalar(Fraction(rng.randint(-2**140, 2**140), rng.randint(1, 2**130))),
        lambda: Scalar(Fraction(rng.randint(-9, 9), 2**200 + rng.randint(0, 9)),
                       Fraction(rng.randint(-2**90, 2**90), 7)),
        # entries divisible by the primes
        lambda: Scalar(p * rng.randint(-2, 2), linalg.PRIMES[-1] * rng.randint(-1, 1)),
        lambda: Scalar(rng.choice([0, 1, p, 2 * p, p * p]), rng.choice([0, 0, p])),
    ]
    certificates = set()
    for trial in range(120):
        make = makers[trial % len(makers)]
        if trial % 2:
            m = _deficient_matrix(rng, make)
        else:
            ncols, nrows = rng.randint(1, 6), rng.randint(1, 6)
            m = ExactMatrix.from_rows([[make() for _ in range(ncols)] for _ in range(nrows)])
        kernel = kernel_basis(m)
        assert kernel == _exact_kernel(m, monkeypatch)
        certificates.add(kernel.certificate)
    assert linalg.FULL_RANK_MOD_P in certificates
    assert "verified reconstruction (1 prime)" in certificates
    assert any(c.endswith("primes)") for c in certificates)


def test_unlucky_prime_falls_back_to_exact_elimination(monkeypatch):
    monkeypatch.setattr(linalg, "PRIMES", (7,))
    # singular mod 7 but not over Q: no zero kernel may be claimed mod 7
    for rows in ([[1, 0], [0, 7]], [[1, 0], [0, 7 * OMEGA]], [[14, 3], [7, 5]]):
        kernel = kernel_basis(_mat(rows))
        assert kernel == []
        assert kernel.certificate == linalg.EXACT_ELIMINATION
    # a kernel mod 7 larger than the exact one cannot be verified
    kernel = kernel_basis(_mat([[1, 0, 0], [0, 7, 0]]))
    assert kernel == [[ZERO, ZERO, ONE]]
    assert kernel.certificate == linalg.EXACT_ELIMINATION
    # a second prime settles what the unlucky first one could not
    monkeypatch.setattr(linalg, "PRIMES", (7, 13))
    assert kernel_basis(_mat([[1, 0], [0, 7]])).certificate == linalg.FULL_RANK_MOD_P
    kernel = kernel_basis(_mat([[1, 0, 0], [0, 7, 0]]))
    assert kernel == [[ZERO, ZERO, ONE]]
    assert kernel.certificate == "verified reconstruction (1 prime)"
