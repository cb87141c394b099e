"""The degree search of `criteria.mdr`: one walk over the degrees.

Given tau, hi is the largest r whose du Plessis-Wall bounds admit tau, and
the walk starts there (at 0 without tau). A zero kernel at r proves every
degree up to r empty, so the walk steps up. A nonzero kernel at r stops it
at mdr = r when r = 0, when degree r - 1 is known to be empty, or when the
restriction of the kernel basis at r to the line x = c*y has full rank
modulo the screening prime; otherwise it steps down. x - c*y multiplies
any relation of degree r - 1 into the kernel at r, and the product vanishes
on that line, so full rank proves degree r - 1 empty (sound for every c).
With c chosen so that x - c*y is not a line of the arrangement, the exact
kernel of the restriction is the kernel one degree lower (complete), which
these tests check against Bareiss elimination.

Whatever tau is, r, relation_dims and the witness must be those of the
plain scan from degree 0; only the certificates of the degrees the walk
never eliminated differ.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import count

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
from nearfree.criteria import derivation_rows
from nearfree.field import integer_pairs

from bareiss import exact_kernel
from support import (
    CERTIFICATE,
    random_arrangement,
    random_nodal_arrangement,
    reflection_arrangement,
    relation_rows,
)
from test_golden import POLY

SCREEN_PRIME = 3 * 2**30 + 1
BRAID_SEXTIC = "x*y*z*(x-y)*(y-z)*(x-z)"
# the seeds of range(120) whose `_random_case` has mdr = hi - 1; every other
# one has mdr = hi
BELOW_HI = [0, 17, 38, 68, 74, 83, 92, 96, 105, 112, 116, 119]


def _window_top(d, tau):
    return max(r for r in range(d) if tau_bounds(d, r)[0] <= tau <= tau_bounds(d, r)[1])


def _walked_like_plain(f, lines, tau):
    """mdr with tau equals mdr without in r, relation_dims and witness; each
    certificate is the plain scan's or names what implied it."""
    plain, walked = mdr(f, lines), mdr(f, lines, tau=tau)
    assert (walked.r, walked.relation_dims, walked.witness) == (
        plain.r, plain.relation_dims, plain.witness)
    for got, want in zip(walked.certificates, plain.certificates, strict=True):
        assert got == want or got.startswith("implied by ")
    assert all(CERTIFICATE.fullmatch(c) for c in walked.certificates)
    return walked


def _screened_like_plain(f, lines, tau):
    """mdr = hi on every input here, so the kernel at hi certifies the
    degrees below it."""
    walked = _walked_like_plain(f, lines, tau)
    hi = _window_top(f.degree, tau)
    assert walked.r == hi
    assert walked.certificates[:hi] == [f"implied by the kernel at {hi}"] * hi


def _arrangement_search(a):
    _screened_like_plain(defining_polynomial(a), a.lines, weak_combinatorics(a).mu)


def _ints(a):
    return [integer_pairs(form.coeffs) for form in a.lines]


def _off_the_lines(a):
    """The least c >= 0 for which x - c*y is not a line of a."""
    return next(c for c in count() if not any(
        form.coeffs[2] == 0 and form.coeffs[1] == -c * form.coeffs[0] for form in a.lines))


def _random_case(seed):
    rng = random.Random(seed)
    return random_arrangement(rng, rng.randint(4, 10), rng.choice([1, 2, 3]))


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


CROSS_CHECK = [(name, catalog(name)) for name in catalog_names()] + [
    (f"A({m},{1 if full else m},3)", reflection_arrangement(m, full))
    for m in (2, 3) for full in (False, True)]


@pytest.mark.parametrize("a", [a for _, a in CROSS_CHECK], ids=[name for name, _ in CROSS_CHECK])
def test_restriction_off_the_lines_has_the_kernel_one_degree_lower(a):
    ints, c = _ints(a), _off_the_lines(a)
    top = mdr(defining_polynomial(a), a.lines).r
    for r in range(top, min(top + 3, a.d)):
        restricted = criteria._restriction_rows(linalg.kernel_basis(derivation_rows(ints, r)), r, c)
        lower = linalg.kernel_basis(derivation_rows(ints, r - 1)) if r else []
        assert len(exact_kernel(restricted)) == len(lower)


@pytest.mark.parametrize("name", sorted(POLY))
def test_restriction_of_syzygies_to_x_has_the_kernel_one_degree_lower(name):
    # AR(f) is saturated by every linear form, so x serves on the --poly route
    f = parse_poly(POLY[name][0])
    top = mdr(f).r
    for r in range(top, min(top + 2, f.degree)):
        restricted = criteria._restriction_rows(linalg.kernel_basis(relation_rows(f, r)), r, 0)
        lower = linalg.kernel_basis(relation_rows(f, r - 1)) if r else []
        assert len(exact_kernel(restricted)) == len(lower)


@pytest.mark.parametrize("a, r, c, lower, restricted", [
    (catalog("A4_free"), 2, 1, 1, 2),  # x - y is a line
    (reflection_arrangement(2, True), 5, 0, 3, 4),  # x is a line
], ids=["A4_free", "A(2,1,3)"])
def test_restriction_to_a_line_can_have_a_larger_kernel(a, r, c, lower, restricted):
    ints = _ints(a)
    assert len(linalg.kernel_basis(derivation_rows(ints, r - 1))) == lower
    kernel = linalg.kernel_basis(derivation_rows(ints, r))
    assert len(exact_kernel(criteria._restriction_rows(kernel, r, c))) == restricted
    assert len(exact_kernel(criteria._restriction_rows(kernel, r, _off_the_lines(a)))) == lower


@pytest.mark.parametrize("m", [2, 3])
def test_reflection_arrangements_certify_off_their_lines(monkeypatch, m):
    # A(m,1,3) contains x and x - y, so the restriction is to x = 2y
    a = reflection_arrangement(m, True)
    assert _off_the_lines(a) == 2
    slopes, screens = [], []
    restrict, screen = criteria._restriction_rows, criteria.full_rank_mod_screen
    monkeypatch.setattr(criteria, "_restriction_rows",
                        lambda k, r, c: slopes.append((r, c)) or restrict(k, r, c))
    monkeypatch.setattr(criteria, "full_rank_mod_screen",
                        lambda rows: screens.append(screen(rows)) or screens[-1])
    result = mdr(defining_polynomial(a), a.lines, tau=weak_combinatorics(a).mu)
    assert slopes == [(result.r, 2)] and screens == [True]


def _rows_built(monkeypatch):
    built, build = [], criteria.derivation_rows
    monkeypatch.setattr(criteria, "derivation_rows", lambda ints, r: built.append(r) or build(ints, r))
    return built


def test_catalog_builds_rows_only_at_hi(monkeypatch):
    built = _rows_built(monkeypatch)
    for name in catalog_names():
        a = catalog(name)
        tau = weak_combinatorics(a).mu
        built.clear()
        mdr(defining_polynomial(a), a.lines, tau=tau)
        assert built == [_window_top(a.d, tau)], name


def test_random_arrangements_below_hi_walk_down_one_degree(monkeypatch):
    built = _rows_built(monkeypatch)
    below = []
    for seed in range(120):
        a = _random_case(seed)
        tau = weak_combinatorics(a).mu
        hi = _window_top(a.d, tau)
        walked = _walked_like_plain(defining_polynomial(a), a.lines, tau)
        if walked.r == hi - 1:
            below.append(seed)
            assert built[-2:] == [hi, hi - 1]
            assert walked.certificates[:hi - 1] == [f"implied by the kernel at {hi - 1}"] * (hi - 1)
        else:
            assert walked.r == hi and built[-1:] == [hi]
    assert below == BELOW_HI


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
    # p*f makes every relation matrix vanish mod the screen prime, but the
    # restriction is built from primitive kernel vectors, so it certifies
    f = parse_poly(BRAID_SEXTIC)
    pf = parse_poly(f"{SCREEN_PRIME}*{BRAID_SEXTIC}")
    assert not linalg.full_rank_mod_screen(relation_rows(pf, 1))
    want, got = mdr(f), mdr(pf, tau=19)
    assert (got.r, got.relation_dims, got.witness) == (want.r, want.relation_dims, want.witness)
    assert got.certificates == ["implied by the kernel at 2"] * 2 + want.certificates[2:]


def test_a_screen_that_never_certifies_changes_nothing(monkeypatch):
    cases = [(defining_polynomial(catalog(n)), catalog(n).lines, weak_combinatorics(catalog(n)).mu)
             for n in ("A1_6", "MacLane8", "DualHesse9")]
    cases += [(parse_poly(text), None, tau) for text, tau in POLY.values()]
    want = [mdr(f, lines) for f, lines, _ in cases]
    monkeypatch.setattr(criteria, "full_rank_mod_screen", lambda m: False)
    for (f, lines, tau), plain in zip(cases, want):
        got = mdr(f, lines, tau=tau)
        assert (got.r, got.relation_dims, got.witness) == (plain.r, plain.relation_dims, plain.witness)
        assert all(CERTIFICATE.fullmatch(c) for c in got.certificates)


@pytest.mark.parametrize("poly, tau, err", [
    # mdr < hi = 5: the walk steps down from 5 to the true mdr
    (BRAID_SEXTIC, 10, "error: tau=10 is impossible for a reduced curve of degree 6 with mdr=2:"
                       " the du Plessis-Wall bounds give 15 <= tau <= 19\n"),
    # mdr > hi = 1: degree 1 is empty and the walk steps up past hi
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
