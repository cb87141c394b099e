import random
from fractions import Fraction

import pytest

from nearfree import OMEGA, ONE, ZERO, FieldTag, Scalar, format_scalar, parse_poly, parse_scalar
from nearfree.errors import ParseError
from nearfree.arrangement import _CATALOG
from nearfree.field import primitive_pairs

from support import (
    DivisionByZero,
    conjugate_primitive_pairs,
    div,
    format_lines,
    inverse,
    norm,
    random_nonzero_scalar,
    random_scalar,
    reference_parse_scalar,
    reflection_arrangement,
    scalar_of,
    sub,
)


def test_rational_addition():
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 3)) == Scalar(Fraction(5, 6))


def test_omega_square_is_minus_one_minus_omega():
    assert OMEGA * OMEGA == Scalar(-1, -1)


def test_additive_inverse_cancels():
    x = Scalar(1, 1)
    assert x + (-x) == ZERO
    assert not sub(x, x)


def test_omega_cubed_is_one():
    assert OMEGA * OMEGA * OMEGA == ONE


def test_inverse_of_rational():
    assert inverse(Scalar(Fraction(2, 3))) == Scalar(Fraction(3, 2))


def test_inverse_of_omega():
    assert inverse(OMEGA) == Scalar(-1, -1)
    assert OMEGA * inverse(OMEGA) == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        inverse(ZERO)
    with pytest.raises(DivisionByZero):
        div(Scalar(1), ZERO)


def test_parse_signed_rational():
    assert scalar_of(parse_scalar("-1/2")) == Scalar(Fraction(-1, 2))
    # tolerate the typographic minus of printed sources
    assert scalar_of(parse_scalar("−1/2")) == Scalar(Fraction(-1, 2))


def test_parse_eisenstein_sum():
    assert scalar_of(parse_scalar("1+2*w")) == Scalar(1, 2)
    assert scalar_of(parse_scalar("w")) == OMEGA
    assert scalar_of(parse_scalar("-w")) == -OMEGA
    assert scalar_of(parse_scalar("3/2-1/2*w")) == Scalar(Fraction(3, 2), Fraction(-1, 2))


def test_parse_scalar_gives_the_lowest_terms_over_a_positive_denominator():
    # ((a, b), den) with den > 0 and gcd(a, b, den) = 1, so equal values
    # read alike
    assert parse_scalar("3/2-1/2*w") == ((3, -1), 2)
    assert parse_scalar("2/4+6/4*w") == parse_scalar("1/2+3/2*w") == ((1, 3), 2)
    assert parse_scalar("-0") == parse_scalar("0/7") == ((0, 0), 1)
    assert parse_scalar("1/2+1/3-5/6*w") == ((5, -5), 6)


def test_parse_rejects_powers_with_position():
    with pytest.raises(ParseError) as err:
        parse_scalar("w^2")
    assert err.value.position == 1


@pytest.mark.parametrize("text, position", [("²", 0), ("٣", 0), ("1+٣*w", 2), ("1/²", 2)])
def test_parse_rejects_non_ascii_digits_with_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_scalar(text)
    assert err.value.position == position


@pytest.mark.parametrize("bad", ["", "1+", "2*", "x", "1//2", "1/0", "w*2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_format_parse_idempotent():
    samples = ["0", "5/6", "-3", "w", "-w", "1+2*w", "-1-w", "2/3-5*w", "7*w"]
    for s in samples:
        once = format_scalar(scalar_of(parse_scalar(s)))
        assert format_scalar(scalar_of(parse_scalar(once))) == once


def test_field_axioms_randomized():
    rng = random.Random(1001)
    for _ in range(200):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x


def test_multiplicative_inverse_randomized():
    rng = random.Random(1002)
    for _ in range(100):
        x = random_nonzero_scalar(rng)
        assert x * inverse(x) == ONE
        assert div(x, x) == ONE


def test_canonical_form_stability():
    rng = random.Random(1003)
    for _ in range(50):
        x = random_scalar(rng)
        y = x + ZERO
        assert y.a == x.a and y.b == x.b
        # Fraction keeps gcd-reduced, positive-denominator components
        assert y.a.denominator > 0 and y.b.denominator > 0


def test_norm_multiplicativity_randomized():
    rng = random.Random(1004)
    for _ in range(150):
        x, y = random_scalar(rng), random_scalar(rng)
        assert norm(x * y) == norm(x) * norm(y)


def test_norm_zero_only_at_zero():
    rng = random.Random(1005)
    assert norm(ZERO) == 0
    for _ in range(100):
        x = random_nonzero_scalar(rng)
        assert norm(x) != 0


def test_parse_poly_reads_the_tag_off_the_w_parts():
    # Q when every coefficient is rational, Qw otherwise; a w that cancels
    # leaves Q
    assert parse_poly("x + 2/3*y").tag is FieldTag.Q
    assert parse_poly("x + w*y").tag is FieldTag.QW
    assert parse_poly("x + w*y - w*y").tag is FieldTag.Q


def test_primitive_pairs_shortcut_matches_the_conjugate_product():
    # a lead (s, 0) with s > 0 skips the product by its conjugate; any other
    # lead, (s, 0) with s < 0 among them, takes it, and both give one tuple
    rng = random.Random(1006)
    leads = set()
    for trial in range(600):
        n = rng.randint(1, 6)
        span = rng.choice([3, 40, 1 << 80])
        vec = [(rng.randint(-span, span), rng.randint(-span, span) if trial % 3 else 0)
               for _ in range(n)]
        vec[rng.randrange(n)] = (rng.randint(-span, span) or 1, rng.randint(-2, 2))
        if trial % 2:
            # a common factor, and a lead entry (s, 0) with s > 0
            t = rng.choice([1, 6, span])
            vec = [(0, 0)] * rng.randint(0, 2) + [(t * rng.randint(1, span), 0)] + [(a * t, b * t) for a, b in vec]
        lead = next(x for x in vec if x != (0, 0))
        leads.add((lead[0] > 0, lead[1] == 0))
        assert primitive_pairs(vec) == conjugate_primitive_pairs(vec)
    assert leads == {(True, True), (True, False), (False, True), (False, False)}


# every string the parse tests above read
PARSE_TEST_STRINGS = ["-1/2", "−1/2", "1+2*w", "w", "-w", "3/2-1/2*w", "w^2", "²", "٣", "1+٣*w",
                      "1/²", "", "1+", "2*", "x", "1//2", "1/0", "w*2", "0", "5/6", "-3",
                      "-1-w", "2/3-5*w", "7*w", "2/4+6/4*w", "1/2+3/2*w", "0/7", "-0",
                      "1/2+1/3-5/6*w"]


def _reading(read, text):
    # the value as a Scalar, or the position and message of the error
    try:
        value = read(text)
    except ParseError as exc:
        return "error", exc.position, str(exc)
    return "value", value if isinstance(value, Scalar) else scalar_of(value)


def _file_tokens():
    rows = [row for _, rows, _ in _CATALOG.values() for row in rows]
    rows += [line for m in (2, 3, 6) for full in (False, True)
             for line in format_lines(reflection_arrangement(m, full)).splitlines()[1:]]
    return sorted({token for row in rows for token in row.split()})


def test_parse_scalar_agrees_with_the_character_scanner():
    # the token reader against the scanner it replaced: accept or reject,
    # the value, and the position and message of the error, on the strings
    # of the parse tests, the tokens of the catalog and of the reflection
    # arrangements, random strings over the characters of both grammars,
    # and random sums of terms with one character replaced
    tokens = _file_tokens()
    assert {"1+w", "-1-w", "w", "-w", "-1/2"} <= set(tokens)
    rng = random.Random(1007)
    alphabet = "0123456789/+-*w^x()²"
    noise = ["".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9))) for _ in range(3000)]
    terms = ["w", "1", "0", "12", "3/4", "5/1", "2*w", "7/3*w", "0*w"]
    near = []
    for _ in range(2000):
        text = rng.choice(["", "-", "+"]) + rng.choice(terms)
        for _ in range(rng.randint(0, 3)):
            text += rng.choice("+-") + rng.choice(terms)
        if rng.random() < 0.3:  # one character replaced
            k = rng.randrange(len(text) + 1)
            text = text[:k] + rng.choice(alphabet) + text[k + 1:]
        near.append(text)
    outcomes = set()
    for text in PARSE_TEST_STRINGS + tokens + noise + near:
        got = _reading(parse_scalar, text)
        assert got == _reading(reference_parse_scalar, text), text
        outcomes.add(got[0])
    assert outcomes == {"value", "error"}


def test_whitespace_between_the_tokens_of_a_scalar_is_accepted():
    # the one widening: whitespace between a scalar's tokens, which the
    # scanner rejected, as an expression has always allowed
    assert parse_scalar("2 * w") == parse_scalar("2*w") == ((0, 2), 1)
    assert parse_scalar(" 1/2 - 3 * w ") == parse_scalar("1/2-3*w")
    with pytest.raises(ParseError):
        reference_parse_scalar("2 * w")
