"""The degree search of `criteria.mdr`: one walk over the degrees.

Given tau, hi is the largest r whose du Plessis-Wall bounds admit tau, and
the walk starts there (at 0 without tau). A zero kernel at r proves every
degree up to r empty, so the walk steps up. A nonzero kernel at r stops it
at mdr = r when r = 0 or when degree r - 1 is known to be empty. Otherwise
each vector of the kernel basis at r is divided by x - c*y, with c chosen
so that x - c*y is not a line of the arrangement. x - c*y multiplies the
kernel one degree lower onto the combinations of the basis whose
remainders cancel, so a zero kernel of the remainders stops the walk at r,
and otherwise the same combinations of the quotients span the kernel at
r - 1, where the walk steps down without eliminating its rows. Those
divisions are of whole bases: where the remainders of the kernel mod p
have full column rank, `kernel_basis` lifts the first vector alone and the
walk ends at r (tests/test_first_vector.py). These tests check the
remainders against Bareiss elimination and the derived kernels against
direct elimination, and that rows are built only at hi.

Whatever tau is, r and the witness must be those of the plain scan from
degree 0; only the certificates of the degrees the walk never eliminated
differ.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

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
    FIRST_VECTOR,
    coeffs,
    off_the_lines,
    random_arrangement,
    random_nodal_arrangement,
    reflection_arrangement,
    relation_rows,
    sparse_rows,
    window_top,
)
from test_golden import POLY

BRAID_SEXTIC = "x*y*z*(x-y)*(y-z)*(x-z)"
# the seeds of range(120) whose `_random_case` has mdr = hi - 1; every other
# one has mdr = hi
BELOW_HI = [0, 17, 38, 68, 74, 83, 92, 96, 105, 112, 116, 119]


def _walked_like_plain(f, lines, tau):
    """mdr with tau equals mdr without in r and witness; each certificate
    is the plain scan's or names what implied it."""
    plain, walked = mdr(f, lines), mdr(f, lines, tau=tau)
    assert (walked.r, walked.witness) == (plain.r, plain.witness)
    for got, want in zip(walked.certificates, plain.certificates, strict=True):
        assert got == want or got.startswith(("implied by ", "derived from "))
    assert all(CERTIFICATE.fullmatch(c) for c in walked.certificates)
    return walked


def _walk_ends_at_hi(f, lines, tau):
    """mdr = hi on every input here, so the kernel at hi certifies the
    degrees below it."""
    walked = _walked_like_plain(f, lines, tau)
    hi = window_top(f.degree, tau)
    assert walked.r == hi
    assert walked.certificates[:hi] == [f"implied by the kernel at {hi}"] * hi


def _arrangement_search(a):
    _walk_ends_at_hi(defining_polynomial(a), a.lines, weak_combinatorics(a).mu)


def _ints(a):
    return [integer_pairs(coeffs(form)) for form in a.lines]


def _random_case(seed):
    rng = random.Random(seed)
    return random_arrangement(rng, rng.randint(4, 10), rng.choice([1, 2, 3]))


def _remainders(kernel, r, c):
    """The remainders of the kernel basis at r on division by x - c*y, a row
    per block and coefficient, a column per vector."""
    return list(zip(*(criteria._divide_by_line(vec, r, c)[1] for vec in kernel)))


def _derived(kernel, r, c):
    """The kernel at r - 1 as the walk of `mdr` derives it from the one at
    r: [] when the remainders have full column rank."""
    quotients = [criteria._divide_by_line(vec, r, c)[0] for vec in kernel]
    combinations = linalg.kernel_basis(*sparse_rows(_remainders(kernel, r, c)))
    return combinations and linalg.span_basis(combinations, quotients, f"derived from the kernel at {r}")


def _derived_like_direct(rows, d, c, top):
    """From degree top + 2 down (at most d - 1) to the first zero kernel,
    each kernel derived from the one above equals the direct elimination of
    its rows; returns the number of degrees compared."""
    compared = 0
    for r in range(min(top + 2, d - 1), 0, -1):
        above, direct = linalg.kernel_basis(*rows(r)), linalg.kernel_basis(*rows(r - 1))
        derived = _derived(above, r, c)
        assert list(derived) == list(direct), r
        assert not derived or derived.certificate == f"derived from the kernel at {r}"
        compared += 1
        if not direct:
            return compared
    return compared


@pytest.mark.parametrize("name", catalog_names())
def test_walk_from_hi_matches_plain_scan_on_catalog(name):
    _arrangement_search(catalog(name))


@pytest.mark.parametrize("name", catalog_names())
def test_walk_from_hi_matches_plain_scan_on_deletions(name):
    a = catalog(name)
    for i in range(a.d):
        _arrangement_search(delete_line(a, i))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("full", [False, True])
def test_walk_from_hi_matches_plain_scan_on_reflection_arrangements(m, full):
    _arrangement_search(reflection_arrangement(m, full))


@pytest.mark.parametrize("d", [6, 7, 8, 9])
def test_walk_from_hi_matches_plain_scan_on_nodal_arrangements(d):
    _arrangement_search(random_nodal_arrangement(random.Random(d), d))


@pytest.mark.parametrize("name", sorted(POLY))
def test_walk_from_hi_matches_plain_scan_on_poly_curves(name):
    text, tau = POLY[name]
    _walk_ends_at_hi(parse_poly(text), None, tau)


CROSS_CHECK = [(name, catalog(name)) for name in catalog_names()] + [
    (f"A({m},{1 if full else m},3)", reflection_arrangement(m, full))
    for m in (2, 3) for full in (False, True)]


@pytest.mark.parametrize("a", [a for _, a in CROSS_CHECK], ids=[name for name, _ in CROSS_CHECK])
def test_restriction_off_the_lines_has_the_kernel_one_degree_lower(a):
    ints, c = _ints(a), off_the_lines(a)
    top = mdr(defining_polynomial(a), a.lines).r
    for r in range(top, min(top + 3, a.d)):
        restricted = _remainders(linalg.kernel_basis(*derivation_rows(ints, r)), r, c)
        lower = linalg.kernel_basis(*derivation_rows(ints, r - 1)) if r else []
        assert len(exact_kernel(restricted)) == len(lower)


@pytest.mark.parametrize("name", sorted(POLY))
def test_restriction_of_syzygies_to_x_has_the_kernel_one_degree_lower(name):
    # AR(f) is saturated by every linear form, so x serves on the --poly route
    f = parse_poly(POLY[name][0])
    top = mdr(f).r
    for r in range(top, min(top + 2, f.degree)):
        restricted = _remainders(linalg.kernel_basis(*sparse_rows(relation_rows(f, r))), r, 0)
        lower = linalg.kernel_basis(*sparse_rows(relation_rows(f, r - 1))) if r else []
        assert len(exact_kernel(restricted)) == len(lower)


@pytest.mark.parametrize("a, r, c, lower, restricted", [
    (catalog("A4_free"), 2, 1, 1, 2),  # x - y is a line
    (reflection_arrangement(2, True), 5, 0, 3, 4),  # x is a line
], ids=["A4_free", "A(2,1,3)"])
def test_restriction_to_a_line_can_have_a_larger_kernel(a, r, c, lower, restricted):
    ints = _ints(a)
    assert len(linalg.kernel_basis(*derivation_rows(ints, r - 1))) == lower
    kernel = linalg.kernel_basis(*derivation_rows(ints, r))
    assert len(exact_kernel(_remainders(kernel, r, c))) == restricted
    assert len(exact_kernel(_remainders(kernel, r, off_the_lines(a)))) == lower


@pytest.mark.parametrize("m", [2, 3])
def test_reflection_arrangements_certify_off_their_lines(monkeypatch, m):
    # A(m,1,3) contains x and x - y, so the division is by x - 2y: the
    # kernel at mdr mod p, w sent to ω, is divided vector by vector, its
    # remainders certify degree mdr - 1, and those of the exact kernel have
    # full column rank too
    a = reflection_arrangement(m, True)
    assert off_the_lines(a) == 2
    divisions, divide = [], criteria._divide_by_line
    monkeypatch.setattr(criteria, "_divide_by_line",
                        lambda vec, r, c: divisions.append((vec, r, c)) or divide(vec, r, c))
    result = mdr(defining_polynomial(a), a.lines, tau=weak_combinatorics(a).mu)
    assert FIRST_VECTOR.fullmatch(result.certificates[result.r])
    kernel = linalg.kernel_basis(*derivation_rows(_ints(a), result.r))
    p = next(linalg.prime_stream())
    omega = linalg._cube_root(p)
    residues = []  # each vector mod p, w sent to ω, with 1 at its last nonzero entry
    for vec in kernel:
        la, lb = next(x for x in reversed(vec) if x != (0, 0))
        unit = pow(la + lb * omega, -1, p)
        residues.append([((xa + xb * omega) * unit % p, 0) for xa, xb in vec])
    assert divisions == [(vec, result.r, 2) for vec in residues]
    assert not exact_kernel(_remainders(kernel, result.r, 2))


@pytest.mark.parametrize("a", [a for _, a in CROSS_CHECK], ids=[name for name, _ in CROSS_CHECK])
def test_derived_kernels_equal_direct_elimination(a):
    ints = _ints(a)
    top = mdr(defining_polynomial(a), a.lines).r
    assert _derived_like_direct(lambda r: derivation_rows(ints, r), a.d, off_the_lines(a), top)


def test_derived_kernels_equal_direct_elimination_on_random_arrangements():
    for seed in range(120):
        a = _random_case(seed)
        ints = _ints(a)
        top = mdr(defining_polynomial(a), a.lines).r
        _derived_like_direct(lambda r: derivation_rows(ints, r), a.d, off_the_lines(a), top)


def test_braid_sextic_walks_down_from_5_to_2_on_derived_kernels(monkeypatch):
    # tau = 10 puts hi at 5, three degrees above mdr = 2: the kernels at 4, 3
    # and 2 are derived, each equal to the direct elimination of its degree
    f = parse_poly(BRAID_SEXTIC)
    assert _derived_like_direct(lambda r: sparse_rows(relation_rows(f, r)), f.degree, 0, 3) == 4
    plain, built = mdr(f), _matrices_built(monkeypatch)
    walked = mdr(f, tau=10)
    assert built == [5]
    assert (walked.r, walked.witness) == (plain.r, plain.witness)
    assert walked.certificates == ["implied by the kernel at 2"] * 2 + ["derived from the kernel at 3"]


def _rows_built(monkeypatch):
    built, build = [], criteria.derivation_rows
    monkeypatch.setattr(criteria, "derivation_rows", lambda ints, r: built.append(r) or build(ints, r))
    return built


def _matrices_built(monkeypatch):
    built, build = [], criteria.relation_matrix
    monkeypatch.setattr(criteria, "relation_matrix", lambda f, r: built.append(r) or build(f, r))
    return built


def _taus_at_or_above(d, r):
    """{hi: tau} with one tau for each window top hi >= r that some tau has;
    the walk depends on tau only through hi."""
    taus = {}
    for tau in range((d - 1) ** 2 + 1):
        hi = max((k for k in range(d) if tau_bounds(d, k)[0] <= tau <= tau_bounds(d, k)[1]),
                 default=-1)
        if hi >= r:
            taus.setdefault(hi, tau)
    return taus


def _built_once_at_hi(built, f, lines):
    """For every tau whose window top hi is at least mdr, the walk builds
    rows once, at hi: every kernel below hi is derived."""
    plain = mdr(f, lines)
    taus = _taus_at_or_above(f.degree, plain.r)
    assert plain.r in taus
    for hi, tau in taus.items():
        built.clear()
        walked = mdr(f, lines, tau=tau)
        assert built == [hi], (hi, tau)
        assert (walked.r, walked.witness) == (plain.r, plain.witness)


def test_catalog_builds_rows_only_at_hi(monkeypatch):
    built = _rows_built(monkeypatch)
    for name in catalog_names():
        a = catalog(name)
        _built_once_at_hi(built, defining_polynomial(a), a.lines)


@pytest.mark.parametrize("name", sorted(POLY))
def test_poly_curves_build_one_relation_matrix_at_hi(monkeypatch, name):
    _built_once_at_hi(_matrices_built(monkeypatch), parse_poly(POLY[name][0]), None)


def test_random_arrangements_below_hi_walk_down_one_degree(monkeypatch):
    built = _rows_built(monkeypatch)
    below = []
    for seed in range(120):
        a = _random_case(seed)
        tau = weak_combinatorics(a).mu
        hi = window_top(a.d, tau)
        walked = _walked_like_plain(defining_polynomial(a), a.lines, tau)
        if walked.r == hi - 1:
            below.append(seed)
            assert built[-1:] == [hi]
            assert walked.certificates[hi - 1] == f"derived from the kernel at {hi}"
            assert walked.certificates[:hi - 1] == [f"implied by the kernel at {hi - 1}"] * (hi - 1)
        else:
            assert walked.r == hi and built[-1:] == [hi]
    assert below == BELOW_HI


def test_first_stream_prime_multiple_is_settled_at_hi_by_later_primes():
    # p*f, p the first prime of the stream, makes every relation matrix
    # vanish mod p, so the kernel at hi = 2 is settled by a later prime,
    # whose kernel residues give the remainders that certify degree 1
    f = parse_poly(BRAID_SEXTIC)
    p = next(linalg.prime_stream())
    pf = parse_poly(f"{p}*{BRAID_SEXTIC}")
    assert all(a % p == 0 and b % p == 0 for row in relation_rows(pf, 2) for a, b in row)
    want, got = mdr(f), mdr(pf, tau=19)
    assert (got.r, got.witness) == (want.r, want.witness)
    assert got.certificates == ["implied by the kernel at 2"] * 2 + want.certificates[2:]
    assert FIRST_VECTOR.fullmatch(got.certificates[2])


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
