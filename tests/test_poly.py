import random
from fractions import Fraction
from math import gcd

import pytest

from nearfree import (
    OMEGA,
    ONE,
    FieldTag,
    LinearForm,
    Poly,
    Scalar,
    format_poly,
    graded_basis,
    parse_lines,
    parse_poly,
    product_of_forms,
)
from nearfree.errors import (
    FieldMismatch,
    NotHomogeneous,
    ParseError,
    ZeroDerivativeDomain,
)
from nearfree.field import integer_pairs, primitive_pairs

from support import (
    NotDivisible,
    divide_exact,
    jacobian_image,
    poly_add,
    poly_mul,
    poly_scale,
    poly_sub,
    random_form,
    random_poly,
    random_rational_scalar,
    reference_format_poly,
    reflection_arrangement,
)

X, Y, Z = (parse_poly(v) for v in "xyz")


def test_mul_difference_of_squares():
    assert poly_mul(poly_sub(X, Y), poly_add(X, Y)) == parse_poly("x^2-y^2")


def test_omega_factorization_of_quadratic():
    # (x - w*y)(x - w^2*y) = x^2 + x*y + y^2 since w + w^2 = -1 and w^3 = 1;
    # -w is the pair (0, -1) and -w^2 = 1 + w the pair (1, 1)
    f1 = Poly(1, {(1, 0, 0): (1, 0), (0, 1, 0): (0, -1)}, FieldTag.QW)
    f2 = Poly(1, {(1, 0, 0): (1, 0), (0, 1, 0): (1, 1)}, FieldTag.QW)
    assert poly_mul(f1, f2) == parse_poly("x^2+x*y+y^2", FieldTag.QW)


def test_equal_polys_have_equal_fields():
    # (2x^2 + (-4 + 2w) y^2) / 6 and (x^2 + (-2 + w) y^2) / 3 are one polynomial
    f = Poly(2, {(2, 0, 0): (2, 0), (0, 2, 0): (-4, 2), (1, 1, 0): (0, 0)}, FieldTag.QW, 6)
    g = Poly(2, {(2, 0, 0): (1, 0), (0, 2, 0): (-2, 1)}, FieldTag.QW, 3)
    assert f == g and hash(f) == hash(g)
    assert (f.terms, f.den) == (g.terms, g.den) == ({(2, 0, 0): (1, 0), (0, 2, 0): (-2, 1)}, 3)
    assert f == parse_poly("1/3*x^2+(-2/3+1/3*w)*y^2")
    assert Poly(2, {}, FieldTag.Q, 5).den == 1
    with pytest.raises(ValueError):
        Poly(2, {(2, 0, 0): (1, 0)}, FieldTag.Q, 0)


def test_coefficient_is_the_scalar_view():
    f = Poly(2, {(2, 0, 0): (2, 0), (0, 2, 0): (-4, 2)}, FieldTag.QW, 6)
    assert f.coefficient((0, 2, 0)) == Scalar(Fraction(-2, 3), Fraction(1, 3))
    assert f.coefficient((2, 0, 0)) == Scalar(Fraction(1, 3))
    assert f.coefficient((0, 0, 2)) == Scalar(0)


def test_partial_and_product_keep_the_denominator_in_lowest_terms():
    f = parse_poly("1/2*x^2+1/3*y^2")
    assert (f.terms, f.den) == ({(2, 0, 0): (3, 0), (0, 2, 0): (2, 0)}, 6)
    assert (f.partial(0).terms, f.partial(0).den) == ({(1, 0, 0): (1, 0)}, 1)
    assert (f.partial(1).terms, f.partial(1).den) == ({(0, 1, 0): (2, 0)}, 3)
    # 3x + (1 - w)y has the Z[w] content 1 - w, and (1 - w)^2 = -3w, so its
    # square, over the leads' product 9, has all its coefficients divisible by 3
    form = LinearForm(1, Scalar(Fraction(1, 3), Fraction(-1, 3)), 0)
    square = product_of_forms([form, form])
    assert square.terms == {(2, 0, 0): (3, 0), (1, 1, 0): (2, -2), (0, 2, 0): (0, -1)}
    assert square.den == 3
    assert square == poly_mul(form.to_poly(), form.to_poly())


def test_partial_powers():
    assert parse_poly("x^3").partial(0) == parse_poly("3*x^2")


def test_partial_of_cuspidal_cubic():
    f = parse_poly("y^2*z-x^3")
    assert f.partial(1) == parse_poly("2*y*z")
    assert f.partial(0) == parse_poly("-3*x^2")


def test_partial_degree_zero_rejected():
    with pytest.raises(ZeroDerivativeDomain):
        Poly(0, {(0, 0, 0): (3, 0)}, FieldTag.Q).partial(0)


def test_euler_identity_braid_sextic():
    f = parse_poly("x*y*z*(x-y)*(y-z)*(x-z)")
    assert jacobian_image(f, X, Y, Z) == poly_scale(f, 6)


def test_euler_identity_randomized():
    rng = random.Random(2001)
    for _ in range(25):
        d = rng.randint(1, 5)
        f = random_poly(rng, d)
        if f.is_zero():
            continue
        assert jacobian_image(f, X, Y, Z) == poly_scale(f, d)


def test_product_of_forms_braid():
    forms = [LinearForm.parse(s) for s in ["x", "y", "z", "x-y", "y-z", "x-z"]]
    assert product_of_forms(forms) == parse_poly("x*y*z*(x-y)*(y-z)*(x-z)")


def test_product_of_single_form():
    assert product_of_forms([LinearForm.parse("x")]) == parse_poly("x")


def _iterated_product(forms, tag):
    # the reference: one product per line, in Scalar arithmetic
    result = forms[0].to_poly(tag)
    for form in forms[1:]:
        result = poly_mul(result, form.to_poly(tag))
    return result


def _near_pencil(rng, d):
    slopes = rng.sample(range(-40, 41), d - 1)
    return [LinearForm(1, -s, 0) for s in slopes] + [LinearForm(rng.randint(-4, 4), 3, 1)]


def _expansion_cases():
    rng = random.Random(4401)
    cases = []
    for d in (3, 5, 7, 9):  # Q, fractional coefficients
        cases.append([LinearForm(*(random_rational_scalar(rng) for _ in range(3)))
                      for _ in range(d)])
    # Q(w); (1 - w)/3 scales to 1 - w beside the pivot 3, so the scaled
    # line has the Z[w] content 1 - w
    values = [ONE, -ONE, OMEGA, Scalar(1, 1), Scalar(Fraction(1, 3), Fraction(-1, 3)),
              Scalar(Fraction(2, 7), Fraction(5, 3)), Scalar(0)]
    for d in (4, 6, 8):
        cases.append([LinearForm(ONE, rng.choice(values), rng.choice(values)) for _ in range(d)])
    for m in (2, 3, 6):
        for full in (False, True):
            cases.append(list(reflection_arrangement(m, full).lines))
    cases += [_near_pencil(rng, 40), _near_pencil(rng, 60)]
    cases += [[LinearForm(0, 0, 1)], [LinearForm(3, Fraction(-1, 2), Scalar(0, 1))]]
    # Q(w) lines whose pivot is y or z, so the first coefficients are zero
    cases.append([LinearForm(0, 1, OMEGA), LinearForm(0, 0, 1), LinearForm(1, OMEGA, -ONE),
                  LinearForm(0, 1, Scalar(Fraction(2, 3), -1))])
    # (x - y)(x - wy)(x - w^2 y) = x^3 - y^3: the middle terms cancel
    cases.append([LinearForm(1, -ONE, 0), LinearForm(1, -OMEGA, 0),
                  LinearForm(1, -OMEGA * OMEGA, 0), LinearForm(1, 0, 1)])
    # coefficients near 2^40, so those of the products run to 160 bits
    big = 2**40
    cases.append([LinearForm(1, big - 3, -(big - 5))])
    cases.append([LinearForm(1, big - k, k - big) for k in range(1, 5)])
    cases.append([LinearForm(1, Scalar(big - 7, big - 11), Scalar(-big, 3 - big)),
                  LinearForm(1, Scalar(1 - big, big), -big)])
    return cases


EXPANSION_CASES = _expansion_cases()


@pytest.mark.parametrize("case", range(len(EXPANSION_CASES)))
def test_product_of_forms_equals_iterated_product(case):
    forms = EXPANSION_CASES[case]
    tag = FieldTag.Q if all(f.is_rational() for f in forms) else FieldTag.QW
    for t in {tag, FieldTag.QW}:
        assert product_of_forms(forms, t) == _iterated_product(forms, t)


def test_wide_line_keeps_exact_ints_through_parse_and_product():
    # x + (2^40 - 3) y - (2^40 - 5) z: the integers come back unchanged
    # from the .lines text, through the expansion and back to a line
    big = 2**40
    ints = ((1, 0), (big - 3, 0), (5 - big, 0))
    form = parse_lines(f"1 {big - 3} {5 - big}\n").lines[0]
    assert form.ints == ints
    f = product_of_forms([form])
    assert f.terms == {(1, 0, 0): (1, 0), (0, 1, 0): (big - 3, 0), (0, 0, 1): (5 - big, 0)}
    assert f.den == 1
    assert LinearForm.from_poly(f).ints == ints



@pytest.mark.parametrize("text, coeffs", [
    ("1/2*x - 3/4*y + z", (Fraction(1, 2), Fraction(-3, 4), 1)),
    ("2/3*y - 5*z", (0, Fraction(2, 3), -5)),
    ("1/3*x + 1/2*w*y - (1/6 + 1/6*w)*z", (Fraction(1, 3), Scalar(0, Fraction(1, 2)),
                                   Scalar(Fraction(-1, 6), Fraction(-1, 6)))),
    ("(2/5 - 1/5*w)*x + y", (Scalar(Fraction(2, 5), Fraction(-1, 5)), 1, 0)),
])
def test_parsed_forms_with_fractions_equal_the_forms_of_their_coefficients(text, coeffs):
    form, expected = LinearForm.parse(text), LinearForm(*coeffs)
    assert form == expected and form.ints == expected.ints and form.coeffs == expected.coeffs


def test_from_poly_makes_no_scalar(monkeypatch):
    # the line comes from the Z[w] pairs of p.terms; p.den does not matter
    polys = [parse_poly(text) for text in ("1/2*x - 3/4*y + z", "1/3*x + 1/2*w*y - (1/6 + 1/6*w)*z")]
    expected = [LinearForm.from_poly(p) for p in polys]
    made = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    assert [LinearForm.from_poly(p).ints for p in polys] == [form.ints for form in expected]
    assert made == []

def _is_primitive(ints):
    lead = next(x for x in ints if x != (0, 0))
    return lead[0] > 0 and lead[1] == 0 and gcd(*(n for x in ints for n in x)) == 1


def test_ints_are_the_primitive_integer_pairs_of_the_coefficients():
    for forms in EXPANSION_CASES:
        for form in forms:
            assert form.ints == tuple(integer_pairs(form.coeffs))
            assert _is_primitive(form.ints) and primitive_pairs(form.ints) == form.ints


def test_multiples_of_a_line_are_equal_and_hash_alike():
    assert LinearForm(OMEGA, 2 * OMEGA, 0) == LinearForm(1, 2, 0)
    assert hash(LinearForm(OMEGA, 2 * OMEGA, 0)) == hash(LinearForm(1, 2, 0))
    assert LinearForm(-3, Fraction(3, 2), 0) == LinearForm(2, -1, 0)
    assert LinearForm(1, OMEGA, 0) != LinearForm(1, OMEGA * OMEGA, 0)
    rng = random.Random(4402)
    for _ in range(30):
        if rng.random() < 0.5:
            form = LinearForm(*(random_rational_scalar(rng) for _ in range(3)))
        else:
            form = LinearForm(ONE, Scalar(rng.randint(-3, 3), rng.randint(-3, 3)), OMEGA)
        scalar = Scalar(Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-4, 4))
        multiple = LinearForm(*(scalar * c for c in form.coeffs))
        assert multiple == form and hash(multiple) == hash(form)
        assert multiple.ints == form.ints and multiple.coeffs == form.coeffs
        assert str(multiple) == str(form)


def _dual_hesse_raw_factors():
    # -1, -w and -w^2 = 1 + w as Z[w] pairs
    fams = []
    for k in ((-1, 0), (0, -1), (1, 1)):
        fams.append(Poly(1, {(1, 0, 0): (1, 0), (0, 1, 0): k}, FieldTag.QW))  # x - w^k y
    for k in ((-1, 0), (0, -1), (1, 1)):
        fams.append(Poly(1, {(0, 1, 0): (1, 0), (0, 0, 1): k}, FieldTag.QW))  # y - w^k z
    for k in ((-1, 0), (0, -1), (1, 1)):
        fams.append(Poly(1, {(0, 0, 1): (1, 0), (1, 0, 0): k}, FieldTag.QW))  # z - w^k x
    return fams


def test_dual_hesse_forms_multiply_to_nonic():
    raw = _dual_hesse_raw_factors()
    prod = poly_mul(*raw)
    assert prod == parse_poly("(x^3-y^3)*(y^3-z^3)*(z^3-x^3)", FieldTag.QW)
    # through normalized LinearForms the z - w^k x family flips sign once
    forms = [LinearForm.from_poly(p) for p in raw]
    assert product_of_forms(forms) == poly_scale(prod, -1)


def test_dual_hesse_expansion_term_count():
    # independent expansion: multiply the three cubics step by step
    a = parse_poly("x^3-y^3")
    b = parse_poly("y^3-z^3")
    c = parse_poly("z^3-x^3")
    expanded = poly_mul(poly_mul(a, b), c)
    assert expanded == parse_poly("(x^3-y^3)*(y^3-z^3)*(z^3-x^3)")
    # the two x^3*y^3*z^3 contributions cancel, leaving 6 monomials
    assert len(expanded.terms) == 6
    assert expanded.degree == 9


def test_parse_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        parse_poly("x+1")


def test_parse_degree_seven_arrangement_polynomial():
    f = parse_poly("z*(x^2-z^2)*(y^2-z^2)*(y^2-x^2)")
    assert f.degree == 7
    assert len(f.terms) == 6


@pytest.mark.parametrize(
    "bad", ["x^", "(x", "x*", "x^1/2", "x+", "q", "x^-1", "2x"]
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_poly(bad)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x^2 + q")
    assert err.value.position == 6


@pytest.mark.parametrize("text, position", [("x^²*y", 2), ("٣*x", 0), ("x+1/٣*y", 4)])
def test_parse_rejects_non_ascii_digits_with_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_poly(text)
    assert err.value.position == position


def test_parse_field_inference_and_rejection():
    assert parse_poly("x-y").tag is FieldTag.Q
    assert parse_poly("x-w*y").tag is FieldTag.QW
    with pytest.raises(FieldMismatch):
        parse_poly("x-w*y", FieldTag.Q)


def test_format_parse_round_trip_randomized():
    rng = random.Random(2002)
    for _ in range(40):
        d = rng.randint(0, 4)
        tag = FieldTag.Q if rng.random() < 0.5 else FieldTag.QW
        f = random_poly(rng, d, tag)
        assert parse_poly(format_poly(f), tag) == f


def test_format_round_trip_catalog_style_polynomials():
    for text in [
        "x*y*z*(x-y)*(y-z)*(x-z)",
        "(x^2+x*y+y^2)*(y^3-z^3)*(z^3-x^3)",
        "z*(x^2-z^2)*(y^2-z^2)*(y^2-x^2)",
        "y^2*z-x^3",
    ]:
        f = parse_poly(text)
        assert parse_poly(format_poly(f), f.tag) == f


def _printed_cases():
    # seeded random forms over Q and Q(w), all with den > 1; then +-1 on
    # constant and non-constant monomials, pure-w and mixed coefficients
    # over den 1 and den 6, and the zero polynomial
    rng = random.Random(2003)
    cases = []
    while len(cases) < 60:
        tag = (FieldTag.Q, FieldTag.QW)[len(cases) % 2]
        f = random_poly(rng, rng.randint(0, 4), tag, span=rng.choice([1, 5, 40]))
        if f.den > 1:
            cases.append(f)
    for den in (1, 6):
        for a, b in [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1),
                     (6, 0), (-6, 0), (0, 6), (0, -6), (6, -6), (-3, 4), (4, -3), (12, 18)]:
            tag = FieldTag.QW if b else FieldTag.Q
            for degree in (0, 1, 2):  # alone on 1, z, z^2, and after a term on x, x^2
                cases.append(Poly(degree, {graded_basis(degree)[-1]: (a, b)}, tag, den))
                if degree:
                    terms = {graded_basis(degree)[0]: (b - a, b), graded_basis(degree)[-1]: (a, b)}
                    cases.append(Poly(degree, terms, tag, den))
    cases.append(Poly(3, {}, FieldTag.Q))
    cases.append(Poly(0, {}, FieldTag.QW))
    return cases


def test_format_poly_prints_the_text_of_its_scalar_view():
    cases = _printed_cases()
    assert sum(f.den > 1 for f in cases) > 60
    assert {f.tag for f in cases if f.den > 1} == {FieldTag.Q, FieldTag.QW}
    for f in cases:
        assert format_poly(f) == reference_format_poly(f)
    assert format_poly(Poly(2, {}, FieldTag.Q)) == "0"
    assert format_poly(Poly(0, {(0, 0, 0): (-6, 0)}, FieldTag.Q, 6)) == "-1"
    assert format_poly(Poly(1, {(0, 0, 1): (3, -4)}, FieldTag.QW, 6)) == "(1/2-2/3*w)*z"
    assert format_poly(Poly(2, {(2, 0, 0): (0, 2), (0, 0, 2): (-2, 0)}, FieldTag.QW, 2)) == "w*x^2-z^2"


def test_divide_exact_linear():
    q = divide_exact(parse_poly("x^2-y^2"), LinearForm.parse("x-y"))
    assert q == parse_poly("x+y")


def test_divide_exact_rejects_non_divisor():
    with pytest.raises(NotDivisible):
        divide_exact(parse_poly("x^2+y^2"), LinearForm.parse("x-y"))


def test_divide_exact_dual_hesse_deletion():
    big = parse_poly("(x^3-y^3)*(y^3-z^3)*(z^3-x^3)")
    quotient = divide_exact(big, LinearForm.parse("x-y"))
    assert quotient == parse_poly("(x^2+x*y+y^2)*(y^3-z^3)*(z^3-x^3)")


def test_divide_exact_inverts_mul_randomized():
    rng = random.Random(2003)
    for _ in range(40):
        d = rng.randint(0, 3)
        q = random_poly(rng, d)
        form = random_form(rng)
        product = poly_mul(q, form.to_poly(FieldTag.Q))
        if product.is_zero():
            assert divide_exact(product, form).is_zero()
        else:
            assert divide_exact(product, form) == q


def test_graded_basis_shapes():
    assert graded_basis(0) == ((0, 0, 0),)
    assert len(graded_basis(2)) == 6
    assert len(graded_basis(6)) == 28
    # descending graded-lex with x > y > z
    assert graded_basis(2)[0] == (2, 0, 0)
    assert graded_basis(2)[-1] == (0, 0, 2)
    b = graded_basis(3)
    assert list(b) == sorted(b, reverse=True)


def test_degree_and_field_mismatch_errors():
    # a term off the declared degree
    with pytest.raises(NotHomogeneous):
        Poly(2, {(2, 0, 0): (1, 0), (1, 0, 0): (1, 0)}, FieldTag.Q)
    with pytest.raises(FieldMismatch):
        Poly(1, {(1, 0, 0): (0, 1)}, FieldTag.Q)
    with pytest.raises(FieldMismatch):
        poly_add(parse_poly("x"), parse_poly("x", FieldTag.QW))
    with pytest.raises(FieldMismatch):
        poly_scale(parse_poly("x"), OMEGA)


def test_linear_form_normalization():
    assert LinearForm(0, 2, 4) == LinearForm(0, 1, 2)
    assert LinearForm(-1, 1, 0) == LinearForm(1, -1, 0)
    with pytest.raises(ValueError):
        LinearForm(0, 0, 0)


def test_factored_product_parses_back_for_all_catalog_entries():
    from nearfree import catalog, catalog_names, defining_polynomial

    for name in catalog_names():
        a = catalog(name)
        factored = "*".join(f"({form})" for form in a.lines)
        assert parse_poly(factored, a.tag) == defining_polynomial(a)
