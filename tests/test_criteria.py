import random

import pytest

from nearfree import (
    FieldTag,
    Poly,
    VerdictKind,
    analyze_curve,
    eta,
    kernel_basis,
    linalg,
    mdr,
    parse_poly,
    relation_matrix,
    tau_bounds,
    verdict,
)
from nearfree.arrangement import catalog, catalog_names, defining_polynomial
from nearfree.errors import OutOfRange, TauOutOfRange
from nearfree.poly import graded_basis

from bareiss import rank
from support import (
    CERTIFICATE,
    FIRST_VECTOR,
    jacobian_image,
    kernel_dims,
    milnor_number,
    poly_mul,
    poly_scale,
    random_nonzero_scalar,
    relation_rows,
    sparse_rows,
    unlucky_primes_first,
)
from test_golden import POLY

BRAID_SEXTIC = "x*y*z*(x-y)*(y-z)*(x-z)"
MACLANE_OCTIC = "(x^2+x*y+y^2)*(y^3-z^3)*(z^3-x^3)"
DEFORMED_SEXTIC = "x*y*z*(y-z)*(x-z)*(x-1/2*y)"
CUSPIDAL_CUBIC = "y^2*z-x^3"


def test_relation_matrix_shape_and_rank_for_smooth_quadric():
    f = parse_poly("x^2+y^2+z^2")
    m = relation_matrix(f, 0)
    assert (m.rows, m.cols) == (3, 3)
    assert rank(relation_rows(f, 0)) == 3
    assert kernel_basis(*sparse_rows(relation_rows(f, 0))) == []


def test_relation_matrix_column_count_formula():
    f = parse_poly(BRAID_SEXTIC)
    for r in range(4):
        m = relation_matrix(f, r)
        assert m.cols == 3 * (r + 1) * (r + 2) // 2
        assert m.rows == (r + f.degree) * (r + f.degree + 1) // 2


@pytest.mark.parametrize("f", [defining_polynomial(catalog(n)) for n in catalog_names()]
                         + [parse_poly(text) for text, _ in POLY.values()])
def test_relation_matrix_columns_are_shifted_partials(f):
    # column (b, s) holds the coefficients of x^s * d_b f, against Scalar arithmetic
    for r in range(4):
        m = relation_matrix(f, r)
        source, target = graded_basis(r), graded_basis(r + f.degree - 1)
        assert (m.rows, m.cols, m.tag) == (len(target), 3 * len(source), f.tag)
        for b in range(3):
            for s, mono in enumerate(source):
                col = b * len(source) + s
                shifted = poly_mul(Poly(r, {mono: (1, 0)}, f.tag), f.partial(b))
                assert [m.entries[i * m.cols + col] for i in range(m.rows)] == [
                    shifted.coefficient(t) for t in target]


def test_braid_sextic_kernel_dimension_at_two():
    assert len(kernel_basis(*sparse_rows(relation_rows(parse_poly(BRAID_SEXTIC), 2)))) == 1


@pytest.mark.parametrize(
    "text,expected",
    [
        (BRAID_SEXTIC, 2),
        (MACLANE_OCTIC, 4),
        (DEFORMED_SEXTIC, 3),
        (CUSPIDAL_CUBIC, 1),
    ],
)
def test_mdr_values(text, expected):
    assert mdr(parse_poly(text)).r == expected


def test_mdr_rejects_low_degree():
    with pytest.raises(OutOfRange):
        mdr(parse_poly("x"))


def test_mdr_witness_satisfies_relation():
    for text in [BRAID_SEXTIC, MACLANE_OCTIC, DEFORMED_SEXTIC, CUSPIDAL_CUBIC]:
        f = parse_poly(text)
        result = mdr(f)
        assert jacobian_image(f, *result.witness).is_zero()
        assert all(p.degree == result.r for p in result.witness)


def test_mdr_relation_dims_profile():
    # mdr keeps the first vector at r; the whole kernels of the same rows
    f = parse_poly(MACLANE_OCTIC)
    assert mdr(f).r == 4
    assert kernel_dims(f, None, 4) == [0, 0, 0, 0, 3]


def test_mdr_records_how_each_degree_was_settled():
    result = mdr(parse_poly(MACLANE_OCTIC))
    assert result.certificates[:-1] == [linalg.FULL_RANK_MOD_P] * 4
    assert result.certificates[-1].startswith("verified reconstruction (")


@pytest.mark.parametrize("primes", [(7,), (7, 13)])
def test_mdr_exact_when_degrees_below_are_deficient_mod_p(monkeypatch, primes):
    # 7*f makes every relation matrix vanish mod 7, so each degree below mdr
    # is rank-deficient mod the first prime and must be settled by the next
    f = parse_poly("7*" + BRAID_SEXTIC)
    want = mdr(f)
    assert kernel_dims(f, None, 2) == [0, 0, 1]
    claims = unlucky_primes_first(monkeypatch, primes)
    result = mdr(f)
    assert (result.r, result.witness) == (want.r, want.witness)
    assert result.r == 2
    assert jacobian_image(f, *result.witness).is_zero()
    assert all(CERTIFICATE.fullmatch(c) for c in result.certificates)
    assert result.certificates[:2] == [linalg.FULL_RANK_MOD_P] * 2
    assert FIRST_VECTOR.fullmatch(result.certificates[2])
    # no zero kernel is claimed mod 7: its one full-rank claim is the
    # remainders at degree 0 of the whole space, the kernel mod 7, before the
    # lift drops 7; 13 settles the empty degrees (3 and 9 columns), and the
    # remainders of its kernel at 2 (one vector) have full column rank
    assert [(p, ncols) for p, _, ncols in claims] == [(7, 3)] + (
        [] if primes == (7,) else [(13, 3), (13, 9), (13, 1)])


def test_kernel_dimension_monotonicity_beyond_mdr():
    for text in [BRAID_SEXTIC, DEFORMED_SEXTIC, CUSPIDAL_CUBIC]:
        f = parse_poly(text)
        r = mdr(f).r
        if r + 1 <= f.degree - 1:
            beyond = kernel_basis(*sparse_rows(relation_rows(f, r + 1)))
            assert len(beyond) >= 1


@pytest.mark.parametrize(
    "d,r,expected", [(8, 4, 37), (6, 2, 19), (7, 3, 27), (3, 1, 3), (2, 0, 1)]
)
def test_eta_values(d, r, expected):
    assert eta(d, r) == expected


def test_eta_out_of_range():
    with pytest.raises(OutOfRange):
        eta(5, 5)
    with pytest.raises(OutOfRange):
        eta(5, -1)


def test_eta_symmetric_rewriting():
    for d in range(2, 13):
        for r in range(d):
            assert eta(d, r) == (d - 1) ** 2 - r * (d - 1 - r)


def test_verdict_nearly_free_maclane():
    v = verdict(8, 4, 36)
    assert v.kind is VerdictKind.NEARLY_FREE
    assert v.exponents == (4, 4)
    assert v.b == -2


def test_verdict_free_braid():
    v = verdict(6, 2, 19)
    assert v.kind is VerdictKind.FREE
    assert v.exponents == (2, 3)
    assert v.b is None


def test_verdict_nearly_free_d7():
    v = verdict(7, 3, 26)
    assert v.kind is VerdictKind.NEARLY_FREE
    assert v.exponents == (3, 4)
    assert v.b == -1


def test_verdict_nearly_free_cubic():
    v = verdict(3, 1, 2)
    assert v.kind is VerdictKind.NEARLY_FREE
    assert v.exponents == (1, 2)
    assert v.b == 1


def test_verdict_neither_and_inapplicable():
    assert verdict(6, 2, 17).kind is VerdictKind.NEITHER
    v = verdict(4, 3, 7)
    assert v.kind is VerdictKind.INAPPLICABLE
    assert v.reason


def test_verdict_exponent_sums():
    v = verdict(6, 2, 19)
    assert sum(v.exponents) == 5  # free: d1 + d2 = d - 1
    v = verdict(8, 4, 36)
    assert sum(v.exponents) == 8  # nearly free: d1 + d2 = d
    assert v.b == v.exponents[1] - 8 + 2


def test_analyze_curve_cuspidal_cubic():
    report = analyze_curve(parse_poly(CUSPIDAL_CUBIC), tau=2)
    assert report.verdict.kind is VerdictKind.NEARLY_FREE
    assert report.verdict.exponents == (1, 2)
    assert report.verdict.b == 1
    assert report.eta_value == 3


def test_analyze_curve_braid_free():
    report = analyze_curve(parse_poly(BRAID_SEXTIC), tau=19)
    assert report.verdict.kind is VerdictKind.FREE
    assert report.verdict.exponents == (2, 3)


def test_analyze_curve_maclane():
    report = analyze_curve(parse_poly(MACLANE_OCTIC), tau=36)
    assert report.verdict.kind is VerdictKind.NEARLY_FREE
    assert report.verdict.exponents == (4, 4)
    assert "boundary case: 2*mdr == d" in report.notes


def test_analyze_curve_degree_one_is_inapplicable():
    report = analyze_curve(parse_poly("x"), tau=0)
    assert report.verdict.kind is VerdictKind.INAPPLICABLE
    assert report.mdr_result is None


def test_tjurina_tracks_eta_gap():
    # eta - tau is 0 on free verdicts and 1 on nearly free ones
    for name in catalog_names():
        a = catalog(name)
        mu = milnor_number(a)
        report = analyze_curve(defining_polynomial(a), tau=mu)
        if report.verdict.kind is VerdictKind.FREE:
            assert report.eta_value == mu
        elif report.verdict.kind is VerdictKind.NEARLY_FREE:
            assert report.eta_value == mu + 1


def test_mdr_scaling_invariance():
    rng = random.Random(4001)
    for text in [BRAID_SEXTIC, CUSPIDAL_CUBIC]:
        f = parse_poly(text)
        base = mdr(f).r
        for _ in range(5):
            c = random_nonzero_scalar(rng, 4)
            g = poly_scale(Poly(f.degree, f.terms, FieldTag.QW, f.den), c)
            assert mdr(g).r == base


def test_dual_hesse_syzygy_degree_is_the_unique_eta_solution():
    # tau(dual Hesse) = 48; r = 4 is the only value with eta(9, r) = 48,
    # and the direct computation lands on the same degree
    solutions = [r for r in range(9) if eta(9, r) == 48]
    assert solutions == [4]
    f = defining_polynomial(catalog("DualHesse9"))
    assert mdr(f).r == 4


def _monomial_ideal_colength(generators, box=6):
    """Count monomials u^i v^j outside the staircase of the generators."""
    count = 0
    for i in range(box):
        for j in range(box):
            if any(i >= gi and j >= gj for gi, gj in generators):
                continue
            count += 1
    assert count < box * box  # the box was large enough
    return count


def test_cusp_tau_oracle():
    # local equation u^3 - v^2 at the cusp of y^2*z = x^3: the Tjurina ideal
    # <u^3 - v^2, 3u^2, 2v> equals the monomial ideal <u^2, v>, so tau is its
    # colength; that is the tau fed to the cuspidal-cubic fixture
    assert _monomial_ideal_colength([(2, 0), (0, 1)]) == 2


def test_analyze_two_lines_is_free():
    report = analyze_curve(parse_poly("x*y"), tau=1)
    assert report.mdr_result.r == 0
    assert report.verdict.kind is VerdictKind.FREE
    assert report.verdict.exponents == (0, 1)


def test_tau_bounds():
    # the upper bound is eta(d, r), lowered by C(2r-d+2, 2) once 2r >= d
    assert tau_bounds(3, 1) == (2, 3)
    assert tau_bounds(6, 2) == (15, eta(6, 2))
    assert tau_bounds(8, 4) == (21, eta(8, 4) - 1)
    assert tau_bounds(2, 1) == (0, 0)  # smooth conic


def test_analyze_curve_rejects_tau_outside_bounds():
    with pytest.raises(TauOutOfRange):
        analyze_curve(parse_poly(CUSPIDAL_CUBIC), tau=7)
    with pytest.raises(TauOutOfRange):
        analyze_curve(parse_poly(CUSPIDAL_CUBIC), tau=1)
    with pytest.raises(TauOutOfRange):
        analyze_curve(parse_poly(BRAID_SEXTIC), tau=20)


def test_catalog_mu_lies_within_tau_bounds():
    # for arrangements the check is an invariant on tau = mu
    for name in catalog_names():
        a = catalog(name)
        f = defining_polynomial(a)
        lower, upper = tau_bounds(a.d, mdr(f).r)
        assert lower <= milnor_number(a) <= upper
