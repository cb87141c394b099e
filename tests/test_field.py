import random
from fractions import Fraction

import pytest

from nearfree import OMEGA, ONE, ZERO, FieldTag, Scalar, format_scalar, parse_scalar
from nearfree.errors import DivisionByZero, ParseError
from nearfree.field import primitive_pairs, smallest_tag

from support import conjugate_primitive_pairs, random_nonzero_scalar, random_scalar


def test_rational_addition():
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 3)) == Scalar(Fraction(5, 6))


def test_omega_square_is_minus_one_minus_omega():
    assert OMEGA * OMEGA == Scalar(-1, -1)


def test_additive_inverse_cancels():
    x = Scalar(1, 1)
    assert x + (-x) == ZERO
    assert not (x - x)


def test_omega_cubed_is_one():
    assert OMEGA * OMEGA * OMEGA == ONE


def test_inverse_of_rational():
    assert Scalar(Fraction(2, 3)).inverse() == Scalar(Fraction(3, 2))


def test_inverse_of_omega():
    assert OMEGA.inverse() == Scalar(-1, -1)
    assert OMEGA * OMEGA.inverse() == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        Scalar(1) / ZERO


def test_parse_signed_rational():
    assert parse_scalar("-1/2") == Scalar(Fraction(-1, 2))
    # tolerate the typographic minus of printed sources
    assert parse_scalar("−1/2") == Scalar(Fraction(-1, 2))


def test_parse_eisenstein_sum():
    assert parse_scalar("1+2*w") == Scalar(1, 2)
    assert parse_scalar("w") == OMEGA
    assert parse_scalar("-w") == -OMEGA
    assert parse_scalar("3/2-1/2*w") == Scalar(Fraction(3, 2), Fraction(-1, 2))


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
        once = format_scalar(parse_scalar(s))
        assert format_scalar(parse_scalar(once)) == once


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
        assert x * x.inverse() == ONE
        assert x / x == ONE


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
        assert (x * y).norm() == x.norm() * y.norm()


def test_norm_zero_only_at_zero():
    rng = random.Random(1005)
    assert ZERO.norm() == 0
    for _ in range(100):
        x = random_nonzero_scalar(rng)
        assert x.norm() != 0


def test_smallest_tag():
    assert smallest_tag([Scalar(1), Scalar(Fraction(2, 3))]) is FieldTag.Q
    assert smallest_tag([Scalar(1), OMEGA]) is FieldTag.QW


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
