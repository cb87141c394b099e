"""The remainder certificate of `criteria.mdr`: one lifted vector at mdr.

Where degree r - 1 is not known to be empty, `mdr` passes `kernel_basis` a
division of each kernel vector mod p by l = x - c*y. When the remainders
of the kernel mod p have full column rank, K_(r-1) = 0 exactly: an exact
theta != 0 in K_(r-1), scaled so that the prime does not divide it, would
give l*theta mod p != 0 in the kernel mod p at r with zero remainders.
Then only the first canonical vector is lifted, and the certificate reads
"verified reconstruction (mod p^s) of the first vector; remainders full
rank mod p". Otherwise nothing is lifted, the kernel stays open, and the
walk steps down to eliminate degree r - 1.

On every input here r and the witness must be those of the plain scan
from degree 0, and wherever the remainders certified degree r - 1 empty,
Bareiss elimination of its rows must find full column rank.
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

from bareiss import exact_kernel, rank
from support import (
    FIRST,
    FIRST_VECTOR,
    dense_rows,
    mdr_rows,
    off_the_lines,
    random_arrangement,
    random_nodal_arrangement,
    reflection_arrangement,
    unlucky_primes_first,
    window_top,
)
from test_golden import POLY


def _certified(f, lines, tau):
    """mdr with tau against the plain scan: the same r and witness. Returns
    whether the remainders certified degree r - 1, which Bareiss then
    confirms, and whether mdr < hi."""
    result, plain = mdr(f, lines, tau=tau), mdr(f, lines)
    assert (result.r, result.witness) == (plain.r, plain.witness)
    certified = FIRST_VECTOR.fullmatch(result.certificates[result.r]) is not None
    if certified and result.r:
        rows, ncols = mdr_rows(f, lines)(result.r - 1)
        assert rank(dense_rows(rows, ncols)) == ncols
    return certified, result.r < window_top(f.degree, tau)


def _arrangement(a):
    return _certified(defining_polynomial(a), a.lines, weak_combinatorics(a).mu)


def _random_draw(seed):
    rng = random.Random(seed)
    return random_arrangement(rng, rng.randint(4, 11), rng.choice([1, 2, 3]))


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_is_certified_by_the_remainders(name):
    assert _arrangement(catalog(name)) == (True, False)


@pytest.mark.parametrize("name", catalog_names())
def test_deletions_match_the_plain_scan(name):
    a = catalog(name)
    for i in range(a.d):
        _arrangement(delete_line(a, i))


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("full", [False, True])
def test_reflection_arrangements_are_certified_by_the_remainders(m, full):
    assert _arrangement(reflection_arrangement(m, full)) == (True, False)


@pytest.mark.parametrize("d", [6, 7, 8, 9])
def test_nodal_arrangements_are_certified_by_the_remainders(d):
    assert _arrangement(random_nodal_arrangement(random.Random(d), d)) == (True, False)


@pytest.mark.parametrize("name", sorted(POLY))
def test_poly_curves_are_certified_by_the_remainders(name):
    text, tau = POLY[name]
    assert _certified(parse_poly(text), None, tau) == (True, False)


def test_random_arrangements_match_the_plain_scan():
    # the draws with mdr = hi are certified at hi, the others leave the
    # kernel at hi open, walk down and are certified at mdr
    outcomes = [_arrangement(_random_draw(seed)) for seed in range(200)]
    assert outcomes.count((True, False)) == 178 and outcomes.count((True, True)) == 22


def test_first_vector_is_the_first_of_the_whole_basis():
    # the one lifted vector has its last nonzero entry at its own free
    # column, so it is the canonical v_f of the whole basis, with or
    # without the remainders
    for a in [catalog(name) for name in catalog_names()] + [_random_draw(seed) for seed in range(20)]:
        f = defining_polynomial(a)
        r = mdr(f, a.lines).r
        rows, ncols = mdr_rows(f, a.lines)(r)
        c = off_the_lines(a)
        whole = exact_kernel(dense_rows(rows, ncols))
        first = linalg.kernel_basis(rows, ncols, lambda vec: criteria._remainders(vec, r, c))
        alone = linalg.kernel_basis(rows, ncols)
        assert FIRST_VECTOR.fullmatch(first.certificate) and FIRST.fullmatch(alone.certificate)
        assert list(first) == list(alone) == whole[:1]


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
        first = linalg.kernel_basis(rows, ncols, lambda vec: criteria._remainders(vec, r, c))
        assert FIRST_VECTOR.fullmatch(first.certificate) and calls.count(True) == 1
        calls.clear()
        assert list(first) == linalg.kernel_basis(rows, ncols) and calls.count(True) == 1


def test_remainders_are_eliminated_sparse(monkeypatch):
    # the remainders of a nodal kernel, up to 16 x 7 and about two thirds
    # nonzero, are ranked by the sparse route alone, 1.2-1.7x faster there
    # than dense; the relation rows themselves, 37-47% nonzero, still go
    # dense, and they are eliminated before divide is first called
    routes, divided = [], []
    for name in ("_echelon_dense", "_echelon_sparse"):
        def spy(*args, name=name, eliminate=getattr(linalg, name)):
            routes.append((name, bool(divided)))
            return eliminate(*args)
        monkeypatch.setattr(linalg, name, spy)
    for d in (6, 7, 8):
        a = random_nodal_arrangement(random.Random(d), d)
        r, c = d - 2, off_the_lines(a)
        routes.clear()
        divided.clear()
        kernel = linalg.kernel_basis(*mdr_rows(defining_polynomial(a), a.lines)(r),
                                     lambda vec: divided.append(vec) or criteria._remainders(vec, r, c))
        assert FIRST_VECTOR.fullmatch(kernel.certificate)
        assert routes == [("_echelon_dense", False), ("_echelon_sparse", True)]


@pytest.mark.parametrize("primes", [(), (7,)])
def test_fallback_below_hi_matches_the_plain_scan(monkeypatch, primes):
    # draw 112 has 11 lines and mdr = 5 < hi = 6: at hi the remainders are
    # rank-deficient, K_5 being nonzero, so the kernel stays open and
    # nothing is lifted, at 7 first or not, and the walk eliminates degree
    # 5, whose remainders certify degree 4
    a = _random_draw(112)
    f, tau = defining_polynomial(a), weak_combinatorics(a).mu
    hi = window_top(a.d, tau)
    assert (a.d, hi) == (11, 6)
    rows, ncols = mdr_rows(f, a.lines)(hi)
    c = off_the_lines(a)
    plain = mdr(f, a.lines)
    unlucky_primes_first(monkeypatch, primes)
    lifted, lift = [], linalg._padic_kernel
    monkeypatch.setattr(linalg, "_padic_kernel", lambda data, ncols, p, echelon, free, *first: lifted.append(
        (p, len(data))) or lift(data, ncols, p, echelon, free, *first))
    kernel = linalg.kernel_basis(rows, ncols, lambda vec: criteria._remainders(vec, hi, c))
    assert kernel == [] and kernel.certificate == "open: remainders not full rank mod p"
    assert lifted == []
    result = mdr(f, a.lines, tau=tau)
    assert (result.r, result.witness) == (plain.r, plain.witness)
    assert FIRST_VECTOR.fullmatch(result.certificates[result.r]) and result.r == 5
    # one vector is lifted, from the rows of degree 5, at the first prime of
    # the stream: 7-adically when 7 comes first
    assert lifted == [(next(linalg.prime_stream()), len(mdr_rows(f, a.lines)(5)[0]))]
