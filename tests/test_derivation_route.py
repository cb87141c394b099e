"""The two mdr routes cross-check each other: the Jacobian relation matrices
of the expanded f, and the logarithmic derivations of the arrangement that
kill its first line (same kernel dimension in every degree)."""

import random
from fractions import Fraction

import pytest

from nearfree import (
    OMEGA,
    FieldTag,
    criteria,
    kernel_basis,
    LinearForm,
    LineArrangement,
    Poly,
    Scalar,
    catalog,
    catalog_names,
    defining_polynomial,
    graded_basis,
    linalg,
    mdr,
    weak_combinatorics,
)
from nearfree.criteria import derivation_rows, verify_syzygy
from nearfree.errors import NotASyzygy
from nearfree.field import integer_pairs, pair_mul

import bareiss
from support import (
    CERTIFICATE,
    FIRST_VECTOR,
    coeffs,
    dense_rows,
    divide_exact,
    integer_terms,
    jacobian_image,
    kernel_dims,
    poly_add,
    poly_mul,
    poly_scale,
    poly_sub,
    random_arrangement,
    random_nodal_arrangement,
    random_poly,
    reference_derivation_rows,
    reflection_arrangement,
    scalar_form,
    scalar_poly,
    scalar_vector,
    sparse_rows,
    unlucky_primes_first,
)


def _is_syzygy(f, witness):
    # independent of verify_syzygy: the Scalar product over Q(w)
    return jacobian_image(f, *witness).is_zero()


def _xyz(tag):
    return tuple(Poly(1, {mono: (1, 0)}, tag) for mono in graded_basis(1))


def _both_routes(a):
    f = defining_polynomial(a)
    jacobian, derivation = mdr(f), mdr(f, a.lines)
    assert derivation.r == jacobian.r
    # both kernels at r whole: mdr keeps the first vector of each
    assert kernel_dims(f, a.lines, derivation.r, derivation.r) == kernel_dims(f, None, jacobian.r, jacobian.r)
    for result in (jacobian, derivation):
        assert all(p.degree == result.r and p.tag is f.tag for p in result.witness)
        assert any(result.witness)
        assert _is_syzygy(f, result.witness)
    return derivation


def _with_triple_points(rng, qw, count):
    values = [Scalar(v) for v in (0, 1, -1, 2, Fraction(1, 2))]
    if qw:
        values += [OMEGA, -OMEGA, Scalar(1, 1), Scalar(Fraction(1, 3), Fraction(-1, 3))]
    found = []
    while len(found) < count:
        d = rng.randint(5, 8)
        forms = set()
        while len(forms) < d:
            coeffs = [rng.choice(values) for _ in range(3)]
            if any(coeffs):
                forms.add(scalar_form(*coeffs))
        a = LineArrangement(sorted(forms, key=lambda form: form.ints))
        if weak_combinatorics(a).t3 and (a.tag is FieldTag.QW) == qw:
            found.append(a)
    return found


@pytest.mark.parametrize("name", catalog_names())
def test_routes_agree_on_catalog(name):
    _both_routes(catalog(name))


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("full", [False, True])
def test_routes_agree_on_reflection_arrangements(m, full):
    # free with exponents (m+1, 2m-2) for A(m,m,3), (m+1, 2m+1) for A(m,1,3)
    result = _both_routes(reflection_arrangement(m, full))
    assert result.r == (m + 1 if full else min(m + 1, 2 * m - 2))


@pytest.mark.parametrize("d", [6, 7, 8, 9])
def test_routes_agree_on_nodal_arrangements(d):
    a = random_nodal_arrangement(random.Random(9000 + d), d)
    assert _both_routes(a).r == d - 2


@pytest.mark.parametrize("qw", [False, True])
def test_routes_agree_on_arrangements_with_triple_points(qw):
    for a in _with_triple_points(random.Random(9100 + qw), qw, 6):
        _both_routes(a)


@pytest.mark.parametrize("primes", [(7,), (7, 13)])
def test_derivation_route_with_unlucky_primes(monkeypatch, primes):
    cases = [catalog(name) for name in catalog_names()]
    cases += [random_arrangement(random.Random(9200), 7, span=3), reflection_arrangement(3, True)]
    expected = [mdr(defining_polynomial(a), a.lines) for a in cases]
    claims = unlucky_primes_first(monkeypatch, primes)
    certificates, full, row_claims, remainder_claims = [], 0, 0, 0
    for a, want in zip(cases, expected):
        ints, f = [form.ints for form in a.lines], defining_polynomial(a)

        def of_rows(claim):  # the rows of a degree k, ncols = (k + 1)(k + 2), or remainders
            _, rows, ncols = claim
            return any(rows == dense_rows(*derivation_rows(ints, k)) for k in range(a.d)
                       if (k + 1) * (k + 2) == ncols)

        # the plain scan eliminates every degree up to mdr; the walk from hi,
        # as the commands run it, divides the kernels mod p by a line
        start = len(claims)
        got = mdr(f, a.lines)
        row_claims += sum(map(of_rows, claims[start:]))
        full += got.certificates.count(linalg.FULL_RANK_MOD_P)
        start = len(claims)
        walked = mdr(f, a.lines, tau=weak_combinatorics(a).mu)
        remainder_claims += sum(not of_rows(claim) for claim in claims[start:])
        for result in got, walked:
            assert (result.r, result.witness) == (want.r, want.witness)
            certificates += result.certificates
            if FIRST_VECTOR.fullmatch(result.certificates[-1]) and result.r:  # degree r - 1 is empty
                rows, ncols = derivation_rows(ints, result.r - 1)
                assert bareiss.rank(dense_rows(rows, ncols)) == ncols
    assert all(CERTIFICATE.fullmatch(c) for c in certificates)
    # mod 7 a kernel of the catalog lifts 7-adically past its first step
    assert any(int(c.split("^")[1].split(")")[0]) > 1 for c in certificates if "^" in c)
    # full rank mod a small prime is a proof too, and each matrix claimed
    # there has full rank over Q(w); in the plain scans mod 7 alone one empty
    # degree is rank-deficient and a later prime settles it, with 13 next
    # 13 does
    for _, rows, ncols in claims:
        assert len(bareiss._bareiss(rows, ncols)[0]) == ncols
    assert row_claims == full - (primes == (7,))
    # the walks' claims are of remainders, whose full rank mod 7 proves the
    # degree below empty whether or not 7 then lifts the kernel
    assert remainder_claims > 0


def _scalar_witness(a, r):
    # theta - (g/d)(x, y, z) from the first canonical kernel vector, in
    # Scalar arithmetic over Q(w): theta_p0 from theta(alpha_0) = 0, and
    # g = sum theta(alpha_i)/alpha_i by exact division
    f = defining_polynomial(a)
    ints = [integer_pairs(coeffs(form)) for form in a.lines]
    vec = scalar_vector(kernel_basis(*derivation_rows(ints, r))[0])
    nb = len(vec) // 2
    alpha0 = coeffs(a.lines[0])
    p0 = next(k for k in range(3) if alpha0[k])
    j1, j2 = (k for k in range(3) if k != p0)
    theta = [None] * 3
    theta[j1] = scalar_poly(r, dict(zip(graded_basis(r), vec[:nb])), f.tag)
    theta[j2] = scalar_poly(r, dict(zip(graded_basis(r), vec[nb:])), f.tag)
    theta[p0] = poly_scale(poly_add(poly_scale(theta[j1], alpha0[j1]),
                                    poly_scale(theta[j2], alpha0[j2])), -1)
    images = [poly_add(*map(poly_scale, theta, coeffs(form))) for form in a.lines[1:]]
    if not r:  # a constant theta(alpha_i) in (alpha_i) is 0, and so is g
        assert not any(images)
        return tuple(theta)
    g = poly_add(*(divide_exact(image, form) for image, form in zip(images, a.lines[1:])))
    g = poly_scale(g, Fraction(-1, a.d))
    return tuple(poly_add(theta[k], poly_mul(g, v)) for k, v in enumerate(_xyz(f.tag)))


@pytest.mark.parametrize("name", ["A1_6", "MacLane8", "DualHesse9", "B7_deformed"])
def test_witness_is_theta_minus_g_over_d_times_euler(name):
    a = catalog(name)
    result = mdr(defining_polynomial(a), a.lines)
    assert result.witness == _scalar_witness(a, result.r)


def test_witness_map_over_non_primitive_qw_lines():
    # (1 - w)/3 scales to the pair coefficient 1 - w beside the pivot 3:
    # the scaled line has content 1 - w, so the exact division needs the
    # factor L = 3
    for a in _with_triple_points(random.Random(9300), True, 4):
        result = mdr(defining_polynomial(a), a.lines)
        assert result.witness == _scalar_witness(a, result.r)


def _witness_cases():
    # seeded nodal arrangements at d = 6..9, the reflection families in
    # shuffled line orders, the non-primitive Q(w) lines above, three and
    # five concurrent lines (r = 0), and pencils with one line off their
    # centre (r = 1), that line last or first
    rng = random.Random(9310)
    cases = [random_nodal_arrangement(rng, d) for d in (6, 7, 8, 9)]
    for m in (2, 3, 6):
        for full in (False, True):
            lines = list(reflection_arrangement(m, full).lines)
            rng.shuffle(lines)
            cases.append(LineArrangement(lines))
    cases += _with_triple_points(random.Random(9300), True, 4)
    cases += [LineArrangement([LinearForm(1, 0, 0), LinearForm(0, 1, 0), LinearForm(1, 1, 0)]),
              LineArrangement([LinearForm(0, 1, -s) for s in range(5)])]
    for d in (4, 7, 12):
        lines = [LinearForm(1, -s, 0) for s in rng.sample(range(-9, 10), d - 1)]
        cases += [LineArrangement(lines + [LinearForm(3, -2, 1)]),
                  LineArrangement([LinearForm(2, 5, -3)] + lines)]
    return cases


def test_witness_build_matches_the_scalar_reference():
    degrees = set()
    for a in _witness_cases():
        result = mdr(defining_polynomial(a), a.lines)
        assert result.witness == _scalar_witness(a, result.r)
        degrees.add(result.r)
    assert {0, 1, 7} <= degrees


def _kills(rows, vec):
    # every sparse Z[w] row is zero on vec
    return all(sum(pair_mul(x, vec[j])[0] for j, x in row.items()) == 0
               and sum(pair_mul(x, vec[j])[1] for j, x in row.items()) == 0 for row in rows)


def test_derivation_witness_rejects_a_nudged_kernel_vector():
    # each entry of a canonical kernel vector changed by 1, and by w over
    # Q(w): theta leaves D_H0(A)_r, so some theta(alpha_i) is not divisible
    # by alpha_i, and the Horner pass must raise rather than return
    cases = [catalog("A1_6"), random_nodal_arrangement(random.Random(9320), 6),
             reflection_arrangement(3, True)] + _with_triple_points(random.Random(9300), True, 1)
    for a in cases:
        ints = [form.ints for form in a.lines]
        r = mdr(defining_polynomial(a), a.lines).r
        rows, ncols = derivation_rows(ints, r)
        vec = kernel_basis(rows, ncols)[0]
        criteria._derivation_witness(a.d, ints, r, vec)
        for c in range(ncols):
            for step in ((1, 0), (0, 1))[:1 + (a.tag is FieldTag.QW)]:
                nudged = list(vec)
                nudged[c] = (vec[c][0] + step[0], vec[c][1] + step[1])
                assert not _kills(rows, nudged)
                with pytest.raises(NotASyzygy):
                    criteria._derivation_witness(a.d, ints, r, tuple(nudged))


def test_derivation_witness_checks_every_horner_step():
    # lines z and 2x + y (pivot L = 2, lam = y): theta = (0, x^2 + x*y, 0)
    # has theta(2x + y) = x^2 + x*y, not a multiple of 2x + y; the step at
    # x^1 divides (2y - y) by 2 and must raise, since a floor division
    # there would leave P_0 = 0 and pass the remainder test 2*h_0 = y*P_0.
    # theta = (0, 2x^2 + x*y, 0) is tangent, and its witness a syzygy
    lines = [((0, 0), (0, 0), (1, 0)), ((2, 0), (1, 0), (0, 0))]
    zero = [(0, 0)] * 6
    with pytest.raises(NotASyzygy):
        criteria._derivation_witness(2, lines, 2, tuple(zero + [(1, 0), (1, 0)] + zero[2:]))
    blocks, den = criteria._derivation_witness(2, lines, 2, tuple(zero + [(2, 0), (1, 0)] + zero[2:]))
    f = {(1, 0, 1): (2, 0), (0, 1, 1): (1, 0)}  # z*(2x + y)
    witness = [{mono: x for mono, x in zip(graded_basis(2), b) if x != (0, 0)} for b in blocks]
    verify_syzygy(f, witness)


def test_mdr_checks_the_derivation_witness(monkeypatch):
    a = catalog("A1_6")
    f = defining_polynomial(a)
    good = criteria._derivation_witness

    def scaled(*args):  # (a, 2b, 3c) over the same denominator
        blocks, den = good(*args)
        return [[(a * (k + 1), b * (k + 1)) for a, b in block]
                for k, block in enumerate(blocks)], den

    monkeypatch.setattr(criteria, "_derivation_witness", scaled)
    with pytest.raises(NotASyzygy):
        mdr(f, a.lines)


def test_derivation_rows_shapes():
    # d = 8, r = 6: 7 lines times 7 rows on 2*C(8,2) unknowns
    a = random_nodal_arrangement(random.Random(9008), 8)
    # (rows, ncols), the shape of the dense rows they stand for
    rows, ncols = derivation_rows([integer_pairs(coeffs(form)) for form in a.lines], 6)
    assert (len(rows), ncols) == (49, 56)
    rows, ncols = derivation_rows(
        [integer_pairs(coeffs(form)) for form in reflection_arrangement(6, True).lines], 7)
    assert (len(rows), ncols) == (160, 72)
    pencil = [LinearForm(1, -s, 0) for s in range(-29, 30)] + [LinearForm(1, 2, 1)]
    rows, ncols = derivation_rows([integer_pairs(coeffs(form)) for form in pencil], 1)
    assert (len(rows), ncols) == (118, 6)


def test_pencil_is_free_with_exponents_one_and_d_minus_two():
    pencil = LineArrangement([LinearForm(1, -s, 0) for s in range(-29, 30)] + [LinearForm(1, 2, 1)])
    f = defining_polynomial(pencil)
    assert mdr(f, pencil.lines).r == 1 and kernel_dims(f, pencil.lines, 1) == [0, 1]


def _near_pencil():
    # 59 lines x - s*y with slopes s drawn from [-40, 40] and one line off
    # their centre: f has 119 terms with coefficients of up to 234 bits
    slopes = random.Random(9400).sample(range(-40, 41), 59)
    return LineArrangement([LinearForm(1, -s, 0) for s in slopes] + [LinearForm(3, -2, 1)])


@pytest.mark.parametrize("name", ["A1_6", "near_pencil"])
def test_exact_witness_check_rejects_a_non_syzygy(name):
    a = _near_pencil() if name == "near_pencil" else catalog(name)
    f = defining_polynomial(a)
    (f_terms,) = integer_terms(f)
    witness = mdr(f, a.lines).witness
    r = witness[0].degree
    verify_syzygy(f_terms, integer_terms(*witness))
    with pytest.raises(NotASyzygy):  # Euler: x f_x + y f_y + z f_z = d f
        verify_syzygy(f_terms, integer_terms(*_xyz(f.tag)))
    tiny = Poly(r, {(0, r, 0): (1, 0)}, f.tag, 10**30)
    nudged = (poly_add(witness[0], tiny), witness[1], witness[2])
    with pytest.raises(NotASyzygy):
        verify_syzygy(f_terms, integer_terms(*nudged))


@pytest.mark.parametrize("name", ["A1_6", "DualHesse9", "near_pencil", "no_zero_coefficient"])
def test_exact_witness_check_rejects_a_nudged_corner(name):
    # the coefficient of x^r or of z^r in one component, changed by 1 and,
    # over Q(w), by w: their products reach the ends of the flat lists
    # (index 0 is z^(r+d-1), which f_z times z^r reaches when f has a z^d
    # term), the widest index range on the d = 60 near pencil (r = 1)
    if name == "near_pencil":
        a = _near_pencil()
    elif name == "no_zero_coefficient":
        a = LineArrangement([LinearForm(1, 1, 1), LinearForm(1, 2, 3), LinearForm(2, -1, 1),
                             LinearForm(1, -3, 2), LinearForm(3, 1, -2), LinearForm(1, 4, -1)])
    else:
        a = catalog(name)
    f = defining_polynomial(a)
    (f_terms,) = integer_terms(f)
    result = mdr(f, a.lines)
    r, witness = result.r, integer_terms(*result.witness)
    verify_syzygy(f_terms, witness)
    for k in range(3):
        for mono in ((r, 0, 0), (0, 0, r)):
            for step in ((1, 0), (0, 1))[:1 + (f.tag is FieldTag.QW)]:
                nudged = [dict(t) for t in witness]
                x = nudged[k].get(mono, (0, 0))
                nudged[k][mono] = (x[0] + step[0], x[1] + step[1])
                with pytest.raises(NotASyzygy):
                    verify_syzygy(f_terms, nudged)


def _koszul_combination(rng, f, k):
    # g1 (f_y, -f_x, 0) + g2 (f_z, 0, -f_x) + g3 (0, f_z, -f_y) for random
    # forms g1, g2, g3 of degree k: a syzygy of degree d - 1 + k
    fx, fy, fz = (f.partial(v) for v in range(3))
    g1, g2, g3 = (random_poly(rng, k, f.tag, span=3) for _ in range(3))
    return (poly_add(poly_mul(g1, fy), poly_mul(g2, fz)),
            poly_sub(poly_mul(g3, fz), poly_mul(g1, fx)),
            poly_scale(poly_add(poly_mul(g2, fx), poly_mul(g3, fy)), -1))


def _change_one_term(rng, witness, pure_w):
    # add c*m to one component: c = n*w with pure_w, else a rational c
    k = rng.randrange(3)
    mono = rng.choice(graded_basis(witness[k].degree))
    n = rng.choice([-2, -1, 1, 2])
    c = Scalar(0, n) if pure_w else Scalar(Fraction(n, rng.randint(1, 5)))
    changed = list(witness)
    changed[k] = poly_add(witness[k], scalar_poly(witness[k].degree, {mono: c}, witness[k].tag))
    return tuple(changed)


@pytest.mark.parametrize("tag", [FieldTag.Q, FieldTag.QW])
def test_exact_witness_check_matches_the_poly_product(tag):
    # verify_syzygy against the Scalar route on random forms: Koszul
    # combinations pass, and one changed term fails exactly when the Scalar
    # product says so (it need not, where that partial of f is zero)
    rng = random.Random(9500 + (tag is FieldTag.QW))
    outcomes = set()
    for _ in range(40):
        f = random_poly(rng, rng.randint(2, 5), tag, span=4)
        if f.is_zero():
            continue
        (f_terms,) = integer_terms(f)
        witness = _koszul_combination(rng, f, rng.randint(0, 2))
        candidates = [witness, _change_one_term(rng, witness, pure_w=False)]
        if tag is FieldTag.QW:
            candidates.append(_change_one_term(rng, witness, pure_w=True))
        for candidate in candidates:
            expected = any(candidate) and _is_syzygy(f, candidate)
            try:
                verify_syzygy(f_terms, integer_terms(*candidate))
                passed = True
            except NotASyzygy:
                passed = False
            assert passed == expected
            outcomes.add(passed)
    assert outcomes == {True, False}


def test_exact_witness_check_reads_the_w_part_of_f():
    # f = w*x^2 + y^2 and the real witness (1, 0, 0): a*f_x = 2w*x has a
    # zero real part, so only the w list sees it
    f = {(2, 0, 0): (0, 1), (0, 2, 0): (1, 0)}
    with pytest.raises(NotASyzygy):
        verify_syzygy(f, ({(0, 0, 0): (1, 0)}, {}, {}))
    verify_syzygy(f, ({}, {}, {(0, 0, 0): (1, 0)}))  # f_z = 0


def test_exact_witness_check_over_qw():
    a = catalog("DualHesse9")
    f = defining_polynomial(a)
    (f_terms,) = integer_terms(f)
    witness = mdr(f, a.lines).witness
    verify_syzygy(f_terms, integer_terms(*witness))
    w = Scalar(0, 1)
    with pytest.raises(NotASyzygy):  # the w part alone breaks it
        verify_syzygy(f_terms, integer_terms(poly_scale(witness[0], w), witness[1], witness[2]))
    with pytest.raises(NotASyzygy):
        verify_syzygy(f_terms, integer_terms(witness[0], witness[1], poly_scale(witness[2], 1 + w)))


def test_derivation_route_rejects_wrong_line_count():
    a = catalog("A1_6")
    with pytest.raises(ValueError):
        mdr(defining_polynomial(a), a.lines[:-1])


def test_two_lines():
    a = LineArrangement([LinearForm(1, 0, 0), LinearForm(1, 1, 1)])
    result = _both_routes(a)
    assert result.r == 0


def test_exact_witness_check_rejects_the_zero_triple():
    f = defining_polynomial(catalog("A1_6"))
    zero = Poly(2, {}, f.tag)
    with pytest.raises(NotASyzygy):
        verify_syzygy(integer_terms(f)[0], integer_terms(zero, zero, zero))
    with pytest.raises(NotASyzygy):  # zero coefficients are no witness either
        verify_syzygy(integer_terms(f)[0], ({(2, 0, 0): (0, 0)}, {}, {}))


def _reference_cases():
    # every catalog entry, A(m,m,3) and A(m,1,3) in shuffled line orders, and
    # seeded arrangements over Q (nodal and with triple points) and Q(w),
    # whose lines have pivots L > 1 and zero coefficients
    rng = random.Random(9010)
    cases = [catalog(name) for name in catalog_names()]
    for m in (2, 3, 6):
        for full in (False, True):
            lines = list(reflection_arrangement(m, full).lines)
            rng.shuffle(lines)
            cases.append(LineArrangement(lines))
    cases += [random_arrangement(rng, rng.randint(3, 9), 3) for _ in range(4)]
    cases += [random_nodal_arrangement(rng, 7)]
    cases += _with_triple_points(rng, False, 2) + _with_triple_points(rng, True, 4)
    return cases


def test_derivation_rows_are_the_nonzero_cells_of_the_reference():
    # the Pascal recurrence against binomials times powers, cell by cell
    cases = _reference_cases()
    assert {a.tag for a in cases} == {FieldTag.Q, FieldTag.QW}
    assert any(next(x for x in form.ints if x != (0, 0))[0] > 1 for a in cases for form in a.lines)
    for a in cases:
        ints = [form.ints for form in a.lines]
        for r in range(a.d):
            rows, ncols = derivation_rows(ints, r)
            reference = reference_derivation_rows(ints, r)
            assert (len(rows), ncols) == (len(reference), len(reference[0]))
            assert rows == sparse_rows(reference)[0]
            assert not any((0, 0) in row.values() for row in rows)
