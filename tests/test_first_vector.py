"""The remainder certificate of `criteria.mdr`: one lifted vector at mdr.

`mdr` passes `kernel_basis` a division of each kernel vector mod p by
l = x - c*y. When the remainders of the kernel mod p have full column rank,
K_(r-1) = 0 exactly: an exact theta != 0 in K_(r-1), scaled so that the
prime does not divide it, would give l*theta mod p != 0 in the kernel mod p
at r with zero remainders. Then only the first canonical vector is lifted,
and the certificate reads "verified reconstruction (mod p^s) of the first
vector; remainders full rank mod p". Otherwise the whole basis is lifted
and the walk derives the kernels below.

On every input here r and the witness must be those of the plain scan on
whole bases (`support.whole_bases`), and wherever the remainders certified
degree r - 1 empty, Bareiss elimination of its rows must find full column
rank.
"""

import random

import pytest

from nearfree import (
    catalog,
    catalog_names,
    criteria,
    defining_polynomial,
    linalg,
    mdr,
    parse_poly,
    weak_combinatorics,
)
from nearfree.arrangement import delete_line

from bareiss import rank
from support import (
    FIRST_VECTOR,
    dense_rows,
    mdr_rows,
    off_the_lines,
    random_arrangement,
    random_nodal_arrangement,
    reflection_arrangement,
    unlucky_primes_first,
    whole_bases,
    window_top,
)
from test_golden import POLY


def _certified(monkeypatch, f, lines, tau):
    """mdr with tau against the plain scan on whole bases: the same r and
    witness. Returns whether the remainders certified degree r - 1, which
    Bareiss then confirms, and whether mdr < hi."""
    result = mdr(f, lines, tau=tau)
    with monkeypatch.context() as patch:
        whole_bases(patch)
        plain = mdr(f, lines)
    assert (result.r, result.witness) == (plain.r, plain.witness)
    certified = FIRST_VECTOR.fullmatch(result.certificates[result.r]) is not None
    if certified and result.r:
        rows, ncols = mdr_rows(f, lines)(result.r - 1)
        assert rank(dense_rows(rows, ncols)) == ncols
    return certified, result.r < window_top(f.degree, tau)


def _arrangement(monkeypatch, a):
    return _certified(monkeypatch, defining_polynomial(a), a.lines, weak_combinatorics(a).mu)


def _random_draw(seed):
    rng = random.Random(seed)
    return random_arrangement(rng, rng.randint(4, 11), rng.choice([1, 2, 3]))


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_is_certified_by_the_remainders(monkeypatch, name):
    assert _arrangement(monkeypatch, catalog(name)) == (True, False)


@pytest.mark.parametrize("name", catalog_names())
def test_deletions_match_the_plain_scan(monkeypatch, name):
    a = catalog(name)
    for i in range(a.d):
        _arrangement(monkeypatch, delete_line(a, i))


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("full", [False, True])
def test_reflection_arrangements_are_certified_by_the_remainders(monkeypatch, m, full):
    assert _arrangement(monkeypatch, reflection_arrangement(m, full)) == (True, False)


@pytest.mark.parametrize("d", [6, 7, 8, 9])
def test_nodal_arrangements_are_certified_by_the_remainders(monkeypatch, d):
    assert _arrangement(monkeypatch, random_nodal_arrangement(random.Random(d), d)) == (True, False)


@pytest.mark.parametrize("name", sorted(POLY))
def test_poly_curves_are_certified_by_the_remainders(monkeypatch, name):
    text, tau = POLY[name]
    assert _certified(monkeypatch, parse_poly(text), None, tau) == (True, False)


def test_random_arrangements_match_the_plain_scan(monkeypatch):
    # the draws with mdr = hi are certified at hi, the others fall back to
    # the whole basis there and walk down
    outcomes = [_arrangement(monkeypatch, _random_draw(seed)) for seed in range(200)]
    assert outcomes.count((True, False)) == 178 and outcomes.count((False, True)) == 22


def test_first_vector_is_the_first_of_the_whole_basis():
    # the one lifted vector has its last nonzero entry at its own free
    # column, so it is the canonical v_f of the whole basis
    for a in [catalog(name) for name in catalog_names()] + [_random_draw(seed) for seed in range(20)]:
        f = defining_polynomial(a)
        r = mdr(f, a.lines).r
        rows, ncols = mdr_rows(f, a.lines)(r)
        c = off_the_lines(a)
        whole = linalg.kernel_basis(rows, ncols)
        first = linalg.kernel_basis(rows, ncols, lambda vec: criteria._divide_by_line(vec, r, c)[1])
        assert FIRST_VECTOR.fullmatch(first.certificate)
        assert list(first) == whole[:1]


def test_the_first_vector_is_back_substituted_once(monkeypatch):
    # over Q the lift takes v_f mod p, whose remainders certified the
    # kernel, as its digit 0: one back-substitution without targets (the k
    # residue vectors) per certified kernel, none again for the lift
    calls, back_substitute = [], linalg._kernel_from_echelon
    monkeypatch.setattr(linalg, "_kernel_from_echelon",
                        lambda *args: calls.append(len(args) == 6) or back_substitute(*args))
    for a in [_random_draw(seed) for seed in range(20)]:
        f = defining_polynomial(a)
        r = mdr(f, a.lines).r
        rows, ncols, c = *mdr_rows(f, a.lines)(r), off_the_lines(a)
        calls.clear()
        first = linalg.kernel_basis(rows, ncols, lambda vec: criteria._divide_by_line(vec, r, c)[1])
        assert FIRST_VECTOR.fullmatch(first.certificate) and calls.count(True) == 1
        calls.clear()
        assert list(first) == linalg.kernel_basis(rows, ncols)[:1] and calls.count(True) == 1


@pytest.mark.parametrize("primes", [(), (7,)])
def test_fallback_below_hi_matches_the_plain_scan(monkeypatch, primes):
    # draw 112 has 11 lines and mdr = 5 < hi = 6: at hi the remainders are
    # rank-deficient, K_5 being nonzero, so the whole basis comes back and
    # the walk derives K_5; with 7 first that basis is lifted 7-adically
    a = _random_draw(112)
    f, tau = defining_polynomial(a), weak_combinatorics(a).mu
    hi = window_top(a.d, tau)
    assert (a.d, hi) == (11, 6)
    rows, ncols = mdr_rows(f, a.lines)(hi)
    c = off_the_lines(a)
    whole = linalg.kernel_basis(rows, ncols)
    with monkeypatch.context() as patch:
        whole_bases(patch)
        plain = mdr(f, a.lines)
    unlucky_primes_first(monkeypatch, primes)
    lifted, lift = [], linalg._padic_kernel
    monkeypatch.setattr(linalg, "_padic_kernel", lambda data, ncols, p, echelon, free, *first: lifted.append(
        (p, len(free))) or lift(data, ncols, p, echelon, free, *first))
    kernel = linalg.kernel_basis(rows, ncols, lambda vec: criteria._divide_by_line(vec, hi, c)[1])
    assert list(kernel) == list(whole) and not FIRST_VECTOR.fullmatch(kernel.certificate)
    assert lifted == [(primes[0] if primes else next(linalg.prime_stream()), len(whole))]
    result = mdr(f, a.lines, tau=tau)
    assert (result.r, result.witness) == (plain.r, plain.witness)
    assert result.certificates[result.r] == f"derived from the kernel at {hi}" and result.r == 5
