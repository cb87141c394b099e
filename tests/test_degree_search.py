"""The degree search of `criteria.mdr`: one walk over the degrees.

Given tau, hi is the largest r whose du Plessis-Wall bounds admit tau, and
the walk starts there (at 0 without tau), or at the pencil bound d - m
when the arrangement's largest multiplicity m is given and d - m < hi. A
zero kernel at r proves every degree up to r empty, so the walk steps up.
A nonzero kernel at r stops it at mdr = r when r = 0 or when degree r - 1
is known to be empty. Otherwise the kernel vectors mod p are divided by
x - c*y, with c chosen so that x - c*y is not a line of the arrangement.
x - c*y multiplies the kernel one degree lower onto the combinations of
the kernel at r whose remainders cancel, so remainders of full column
rank mod p stop the walk at r, with the first vector lifted
(tests/test_first_vector.py), and otherwise the kernel stays open and the
walk steps down to eliminate degree r - 1. These tests check the
remainders and the kernels they give one degree lower against Bareiss
elimination, where rows are built, and the walk against the plain scan on
the 13-line subsets that start above mdr.

Whatever tau and m are, r and the witness must be those of the plain scan
from degree 0; only the certificates of the degrees the walk never
eliminated, and the remainder certificate at r, differ.
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
from nearfree.field import pair_mul
from nearfree.arrangement import delete_line
from nearfree.cli import main
from nearfree.criteria import derivation_rows
from nearfree.field import integer_pairs

from bareiss import exact_kernel, rank
from support import (
    CERTIFICATE,
    FIRST,
    FIRST_VECTOR,
    coeffs,
    dense_rows,
    divide_by_line,
    off_the_lines,
    random_arrangement,
    random_nodal_arrangement,
    reference_annihilates,
    reflection_arrangement,
    relation_rows,
    sparse_rows,
    thirteen_lines,
    thirteen_orbit,
    window_top,
)
from test_golden import POLY

BRAID_SEXTIC = "x*y*z*(x-y)*(y-z)*(x-z)"
# the seeds of range(120) whose `_random_case` has mdr = hi - 1; every other
# one has mdr = hi
BELOW_HI = [0, 17, 38, 68, 74, 83, 92, 96, 105, 112, 116, 119]
# one subset of each orbit under the 48 signed permutations of (x, y, z) of
# the 13-line subsets whose hi is above mdr, as masks of `support.THIRTEEN`
ABOVE_MDR = (335, 933, 1022, 1359, 1371, 1389, 1516, 1807, 1821, 1846, 1901, 1925, 1933, 1957,
             1961, 2028, 2854, 2908, 2981, 2988, 3013, 3052, 3932, 4077, 4079, 7080, 7084, 7149,
             7150, 7151, 7166, 8172, 8173, 8175)


def _walked_like_plain(f, lines, tau, m=None):
    """mdr with tau (and m) equals mdr without in r and witness; each
    certificate is the plain scan's, names what implied it, or at r adds
    the remainder certificate to the plain scan's lift."""
    walked, plain = mdr(f, lines, tau=tau, m=m), mdr(f, lines)
    assert (walked.r, walked.witness) == (plain.r, plain.witness)
    for got, want in zip(walked.certificates[:-1], plain.certificates[:-1], strict=True):
        assert got == want or got.startswith("implied by ")
    assert FIRST.fullmatch(plain.certificates[-1])
    assert walked.certificates[-1] in (plain.certificates[-1], plain.certificates[-1] + "; remainders full rank mod p")
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
    """The remainders of the Z[w] kernel vectors at r on division by x - c*y,
    a row per block and coefficient, a column per vector: `criteria._remainders`
    on the a and on the b parts, as the division by a line over Z is
    Z-linear, and equal to the reference division's."""
    columns = []
    for vec in kernel:
        parts = [criteria._remainders([x[i] for x in vec], r, c) for i in (0, 1)]
        columns.append(list(zip(*parts)))
        assert columns[-1] == divide_by_line(vec, r, c)[1]
    return list(zip(*columns))


def _derived(kernel, r, c):
    """K_(r-1) = {theta : (x - c*y)*theta in K_r} from a basis of K_r: the
    quotients of the combinations of the basis whose remainders cancel,
    which the Bareiss kernel of the remainders gives; [] when those have
    full column rank."""
    quotients = [divide_by_line(vec, r, c)[0] for vec in kernel]
    rest = _remainders(kernel, r, c)
    combinations = exact_kernel(rest) if kernel else []
    return [[tuple(map(sum, zip(*(pair_mul(u, q[j]) for u, q in zip(combination, quotients)))))
             for j in range(len(quotients[0]))] for combination in combinations]


def _exact(rows, r):
    """The Bareiss kernel of the rows in degree r."""
    return exact_kernel(dense_rows(*rows(r)))


def _derived_like_direct(rows, d, c, top, bottom=0):
    """From degree top + 2 down (at most d - 1) to the first zero kernel, or
    to bottom, each kernel derived from the one above spans the kernel of
    the direct Bareiss elimination of its rows: its vectors kill those rows
    and are as many as a basis, and independent; returns the number of
    degrees compared."""
    compared, above = 0, _exact(rows, min(top + 2, d - 1))
    for r in range(min(top + 2, d - 1), max(bottom, 0), -1):
        direct, (lower, _) = _exact(rows, r - 1), rows(r - 1)
        derived = _derived(above, r, c)
        assert len(derived) == len(direct), r
        assert reference_annihilates(lower, derived)
        assert not derived or rank(derived) == len(derived)
        compared += 1
        if not direct:
            return compared
        above = direct
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
    rows = lambda r: derivation_rows(ints, r)  # noqa: E731
    for r in range(top, min(top + 3, a.d)):
        restricted = _remainders(_exact(rows, r), r, c)
        lower = _exact(rows, r - 1) if r else []
        assert len(exact_kernel(restricted)) == len(lower)


@pytest.mark.parametrize("name", sorted(POLY))
def test_restriction_of_syzygies_to_x_has_the_kernel_one_degree_lower(name):
    # AR(f) is saturated by every linear form, so x serves on the --poly route
    f = parse_poly(POLY[name][0])
    top = mdr(f).r
    for r in range(top, min(top + 2, f.degree)):
        restricted = _remainders(exact_kernel(relation_rows(f, r)), r, 0)
        lower = exact_kernel(relation_rows(f, r - 1)) if r else []
        assert len(exact_kernel(restricted)) == len(lower)


@pytest.mark.parametrize("a, r, c, lower, restricted", [
    (catalog("A4_free"), 2, 1, 1, 2),  # x - y is a line
    (reflection_arrangement(2, True), 5, 0, 3, 4),  # x is a line
], ids=["A4_free", "A(2,1,3)"])
def test_restriction_to_a_line_can_have_a_larger_kernel(a, r, c, lower, restricted):
    ints = _ints(a)
    assert len(exact_kernel(dense_rows(*derivation_rows(ints, r - 1)))) == lower
    kernel = exact_kernel(dense_rows(*derivation_rows(ints, r)))
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
    divisions, divide = [], criteria._remainders
    monkeypatch.setattr(criteria, "_remainders",
                        lambda vec, r, c: divisions.append((vec, r, c)) or divide(vec, r, c))
    result = mdr(defining_polynomial(a), a.lines, tau=weak_combinatorics(a).mu)
    assert FIRST_VECTOR.fullmatch(result.certificates[result.r])
    kernel = exact_kernel(dense_rows(*derivation_rows(_ints(a), result.r)))
    p = next(linalg.prime_stream())
    omega = linalg._cube_root(p)
    residues = []  # each vector mod p, w sent to ω, with 1 at its last nonzero entry
    for vec in kernel:
        la, lb = next(x for x in reversed(vec) if x != (0, 0))
        unit = pow(la + lb * omega, -1, p)
        residues.append([(xa + xb * omega) * unit % p for xa, xb in vec])
    assert divisions == [(vec, result.r, 2) for vec in residues]
    assert not exact_kernel(_remainders(kernel, result.r, 2))


@pytest.mark.parametrize("a", [a for _, a in CROSS_CHECK], ids=[name for name, _ in CROSS_CHECK])
def test_derived_kernels_equal_direct_elimination(a):
    ints = _ints(a)
    top = mdr(defining_polynomial(a), a.lines).r
    assert _derived_like_direct(lambda r: derivation_rows(ints, r), a.d, off_the_lines(a), top)


def test_derived_kernels_equal_direct_elimination_on_random_arrangements():
    # from one degree above mdr down to mdr - 1, on the draws of up to 8
    # lines: Bareiss on the larger ones would take seconds each
    compared = 0
    for seed in range(120):
        a = _random_case(seed)
        if a.d <= 8:
            ints = _ints(a)
            top = mdr(defining_polynomial(a), a.lines).r
            compared += _derived_like_direct(lambda r: derivation_rows(ints, r), a.d,
                                             off_the_lines(a), top - 1, top - 1)
    assert compared >= 150


def test_braid_sextic_walks_down_from_5_to_2_on_open_kernels(monkeypatch):
    # tau = 10 puts hi at 5, three degrees above mdr = 2: the kernels at 5, 4
    # and 3 stay open, their remainders rank-deficient mod p, and the walk
    # eliminates each degree down to 2, whose remainders certify degree 1;
    # the kernels derived from the one above equal direct elimination
    f = parse_poly(BRAID_SEXTIC)
    assert _derived_like_direct(lambda r: sparse_rows(relation_rows(f, r)), f.degree, 0, 3) == 4
    plain, built = mdr(f), _matrices_built(monkeypatch)
    settled, kernel_basis = [], criteria.kernel_basis
    monkeypatch.setattr(criteria, "kernel_basis", lambda *args: settled.append(
        kernel_basis(*args)) or settled[-1])
    walked = mdr(f, tau=10)
    assert built == [5, 4, 3, 2]
    assert [k.certificate for k in settled[:3]] == ["open: remainders not full rank mod p"] * 3
    assert [len(k) for k in settled] == [0, 0, 0, 1]
    assert (walked.r, walked.witness) == (plain.r, plain.witness)
    assert walked.certificates[:2] == ["implied by the kernel at 2"] * 2
    assert FIRST_VECTOR.fullmatch(walked.certificates[2])


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


def _built_from_hi_down(built, f, lines):
    """For every tau whose window top hi is at least mdr, the walk builds
    rows once in each degree from hi down to mdr."""
    plain = mdr(f, lines)
    taus = _taus_at_or_above(f.degree, plain.r)
    assert plain.r in taus
    for hi, tau in taus.items():
        built.clear()
        walked = mdr(f, lines, tau=tau)
        assert built == list(range(hi, plain.r - 1, -1)), (hi, tau)
        assert (walked.r, walked.witness) == (plain.r, plain.witness)


def test_catalog_builds_rows_only_at_hi(monkeypatch):
    # at tau = mu, as the commands pass it, hi is mdr
    built = _rows_built(monkeypatch)
    for name in catalog_names():
        a = catalog(name)
        built.clear()
        result = mdr(defining_polynomial(a), a.lines, tau=weak_combinatorics(a).mu)
        assert built == [result.r] == [window_top(a.d, weak_combinatorics(a).mu)]


def test_catalog_builds_rows_once_per_degree_from_hi_down_to_mdr(monkeypatch):
    built = _rows_built(monkeypatch)
    for name in catalog_names():
        a = catalog(name)
        _built_from_hi_down(built, defining_polynomial(a), a.lines)


@pytest.mark.parametrize("name", sorted(POLY))
def test_poly_curves_build_one_relation_matrix_at_hi(monkeypatch, name):
    # at the curve's tau hi is mdr
    text, tau = POLY[name]
    built = _matrices_built(monkeypatch)
    result = mdr(parse_poly(text), tau=tau)
    assert built == [result.r] == [window_top(parse_poly(text).degree, tau)]


@pytest.mark.parametrize("name", sorted(POLY))
def test_poly_curves_build_one_relation_matrix_per_degree_from_hi_down_to_mdr(monkeypatch, name):
    _built_from_hi_down(_matrices_built(monkeypatch), parse_poly(POLY[name][0]), None)


def test_random_arrangements_below_hi_walk_down_one_degree(monkeypatch):
    # at hi the kernel stays open, and the remainders at hi - 1 certify hi - 2;
    # the plain scan then builds rows from 0 up to mdr
    built = _rows_built(monkeypatch)
    below = []
    for seed in range(120):
        a = _random_case(seed)
        tau = weak_combinatorics(a).mu
        hi = window_top(a.d, tau)
        built.clear()
        walked = _walked_like_plain(defining_polynomial(a), a.lines, tau)
        if walked.r == hi - 1:
            below.append(seed)
            assert built == [hi, hi - 1] + list(range(hi))
            assert FIRST_VECTOR.fullmatch(walked.certificates[hi - 1])
            assert walked.certificates[:hi - 1] == [f"implied by the kernel at {hi - 1}"] * (hi - 1)
        else:
            assert walked.r == hi and built == [hi] + list(range(hi + 1))
    assert below == BELOW_HI


def test_first_stream_prime_multiple_is_settled_at_hi_by_later_primes():
    # p*f, p the first prime of the stream, makes every relation matrix
    # vanish mod p: the remainders of the whole space mod p are deficient,
    # so the kernels at hi = 2 and at 1 stay open, and the walk steps down
    # to 0. There p's lift fails, and a later prime proves full rank, as at
    # 1 on the way up, so the kernel at 2 is settled by a later prime too
    f = parse_poly(BRAID_SEXTIC)
    p = next(linalg.prime_stream())
    pf = parse_poly(f"{p}*{BRAID_SEXTIC}")
    assert all(a % p == 0 and b % p == 0 for row in relation_rows(pf, 2) for a, b in row)
    want, got = mdr(f), mdr(pf, tau=19)
    assert (got.r, got.witness) == (want.r, want.witness)
    assert got.certificates == want.certificates
    assert got.certificates[:2] == [linalg.FULL_RANK_MOD_P] * 2 and FIRST.fullmatch(got.certificates[2])


def test_walk_from_the_pencil_bound_matches_the_plain_scan_on_13_line_subsets():
    # the 385 subsets of the 13 lines whose hi is above mdr: on 216 the
    # pencil bound d - m is mdr and the walk starts there, on 169 it is
    # above mdr too and the walk steps down; mdr <= d - m on each. r is the
    # same on each orbit, so Bareiss elimination on one subset of each
    # finds full rank wherever any walk certified a degree below r empty,
    # by full rank mod p or by the remainders at r
    starts = []
    for rep in ABOVE_MDR:
        found, empty = set(), set()
        for mask in thirteen_orbit(rep):
            a, census = thirteen_lines(mask)
            m = max(dict(census.counts))
            walked = _walked_like_plain(defining_polynomial(a), a.lines, census.mu, m)
            hi = window_top(a.d, census.mu)
            assert walked.r < hi and walked.r <= a.d - m
            starts.append(min(hi, a.d - m) - walked.r)
            found.add(walked.r)
            empty.update(k for k, c in enumerate(walked.certificates) if c == linalg.FULL_RANK_MOD_P)
            if FIRST_VECTOR.fullmatch(walked.certificates[-1]):
                empty.add(walked.r - 1)
        assert len(found) == 1 and empty
        ints = [form.ints for form in thirteen_lines(rep)[0].lines]
        for k in empty:
            rows, ncols = derivation_rows(ints, k)
            assert rank(dense_rows(rows, ncols)) == ncols
    assert len(starts) == 385 and starts.count(0) == 216


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
