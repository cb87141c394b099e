"""The tau-guided degree search of `criteria.mdr`.

Given tau, hi is the largest r whose du Plessis-Wall bounds admit tau. When
the rows of degree hi - 1 have full rank modulo the word-size screening
prime, degrees 0..hi-1 are recorded as empty and the scan starts at hi;
otherwise it starts at 0. Whatever tau is, r, relation_dims and the witness
must be those of the plain scan from degree 0; only the certificates of the
skipped degrees differ.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
import sympy

from nearfree import (
    catalog,
    catalog_names,
    criteria,
    defining_polynomial,
    linalg,
    mdr,
    parse_poly,
    tau_bounds,
    weak_combinatorics,
)
from nearfree.arrangement import delete_line
from nearfree.cli import main

from bareiss import exact_kernel
from support import CERTIFICATE, random_nodal_arrangement, reflection_arrangement, relation_rows
from test_golden import POLY

SCREEN_PRIME = 3 * 2**30 + 1
BRAID_SEXTIC = "x*y*z*(x-y)*(y-z)*(x-z)"


def _window_top(d, tau):
    return max(r for r in range(d) if tau_bounds(d, r)[0] <= tau <= tau_bounds(d, r)[1])


def _screened_like_plain(f, lines, tau):
    """mdr with tau skips the degrees below hi and otherwise equals mdr without
    (mdr = hi on every input here, so the screen at hi - 1 certifies)."""
    plain, screened = mdr(f, lines), mdr(f, lines, tau=tau)
    assert screened.r == plain.r
    assert screened.relation_dims == plain.relation_dims
    assert screened.witness == plain.witness
    hi = _window_top(f.degree, tau)
    assert screened.certificates[:hi] == [f"implied by full rank at {hi - 1}"] * hi
    assert screened.certificates[hi:] == plain.certificates[hi:]
    assert all(CERTIFICATE.fullmatch(c) for c in screened.certificates)


def _arrangement_search(a):
    _screened_like_plain(defining_polynomial(a), a.lines, weak_combinatorics(a).mu)


@pytest.mark.parametrize("name", catalog_names())
def test_screened_search_matches_plain_scan_on_catalog(name):
    _arrangement_search(catalog(name))


@pytest.mark.parametrize("name", catalog_names())
def test_screened_search_matches_plain_scan_on_deletions(name):
    a = catalog(name)
    for i in range(a.d):
        _arrangement_search(delete_line(a, i))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("full", [False, True])
def test_screened_search_matches_plain_scan_on_reflection_arrangements(m, full):
    _arrangement_search(reflection_arrangement(m, full))


@pytest.mark.parametrize("d", [6, 7, 8, 9])
def test_screened_search_matches_plain_scan_on_nodal_arrangements(d):
    _arrangement_search(random_nodal_arrangement(random.Random(d), d))


@pytest.mark.parametrize("name", sorted(POLY))
def test_screened_search_matches_plain_scan_on_poly_curves(name):
    text, tau = POLY[name]
    _screened_like_plain(parse_poly(text), None, tau)


def test_screen_prime_is_proven_once(monkeypatch):
    proofs, proth = [], linalg._proth_prime
    monkeypatch.setattr(linalg, "_proth_prime", lambda p: proofs.append(p) or proth(p))
    linalg.screen_prime.cache_clear()
    assert linalg.screen_prime() == linalg.screen_prime() == SCREEN_PRIME
    assert proofs == [SCREEN_PRIME]
    assert sympy.isprime(SCREEN_PRIME) and SCREEN_PRIME % 3 == 1


def test_full_rank_mod_screen_is_a_certificate():
    # True only where the exact kernel is zero, over Q and over Q(w)
    rng = random.Random(8)
    seen = set()
    for trial in range(60):
        rows, cols = rng.randint(2, 6), rng.randint(2, 5)
        m = [[(rng.randint(-2, 2), rng.randint(-1, 1) * (trial % 2)) for _ in range(cols)]
             for _ in range(rows)]
        full = linalg.full_rank_mod_screen(m)
        assert full == (not exact_kernel(m))
        seen.add(full)
    assert seen == {True, False}


def test_screen_prime_multiple_falls_back_to_the_full_scan():
    # p*f makes every relation matrix vanish mod the screen prime
    f = parse_poly(BRAID_SEXTIC)
    pf = parse_poly(f"{SCREEN_PRIME}*{BRAID_SEXTIC}")
    assert not linalg.full_rank_mod_screen(relation_rows(pf, 1))
    want, got = mdr(f), mdr(pf, tau=19)
    assert (got.r, got.relation_dims, got.witness, got.certificates) == (
        want.r, want.relation_dims, want.witness, want.certificates)
    assert not any(c.startswith("implied") for c in got.certificates)


def test_a_screen_that_never_certifies_changes_nothing(monkeypatch):
    cases = [(defining_polynomial(catalog(n)), catalog(n).lines, weak_combinatorics(catalog(n)).mu)
             for n in ("A1_6", "MacLane8", "DualHesse9")]
    cases += [(parse_poly(text), None, tau) for text, tau in POLY.values()]
    want = [mdr(f, lines) for f, lines, _ in cases]
    monkeypatch.setattr(criteria, "full_rank_mod_screen", lambda m: False)
    for (f, lines, tau), plain in zip(cases, want):
        assert mdr(f, lines, tau=tau) == plain


@pytest.mark.parametrize("poly, tau, err", [
    # mdr < hi: the screen at hi - 1 meets the syzygy and the scan runs from 0
    (BRAID_SEXTIC, 10, "error: tau=10 is impossible for a reduced curve of degree 6 with mdr=2:"
                       " the du Plessis-Wall bounds give 15 <= tau <= 19\n"),
    # mdr > hi: the screen certifies degree 0 and the scan runs on past hi = 1
    (BRAID_SEXTIC, 21, "error: tau=21 is impossible for a reduced curve of degree 6 with mdr=2:"
                       " the du Plessis-Wall bounds give 15 <= tau <= 19\n"),
    ("y^2*z-x^3", 1, "error: tau=1 is impossible for a reduced curve of degree 3 with mdr=1:"
                     " the du Plessis-Wall bounds give 2 <= tau <= 3\n"),
])
def test_wrong_tau_is_rejected_with_the_true_mdr(poly, tau, err):
    out, errout = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(errout):
        code = main(["analyze", "--poly", poly, "--tau", str(tau), "--witness"])
    assert (code, out.getvalue(), errout.getvalue()) == (2, "", err)
