"""Cyclotomic scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsforge.scalars import (
    ONE,
    ZERO,
    from_rational,
    make_scalar,
    parse_scalar,
    root_of_unity,
    scalar_to_json,
)


def test_root_of_unity_has_exact_order():
    for n in range(1, 13):
        z = root_of_unity(n, 1)
        power = ONE
        for k in range(1, n):
            power = power * z
            assert not power.is_one(), f"zeta_{n}^{k} collapsed to 1"
        assert (power * z).is_one()


def test_sixth_root_reduces_to_conductor_three_field():
    # zeta_6 = -zeta_3^2, so arithmetic mixing both lands in Q(zeta_3) values
    z6 = root_of_unity(6, 1)
    z3 = root_of_unity(3, 1)
    assert z6 == -(z3 * z3)


def test_conductor_lifting_is_transparent():
    a = root_of_unity(4, 1)   # i
    b = root_of_unity(3, 1)
    prod = a * b
    assert prod == root_of_unity(12, 7)  # 1/4 + 1/3 = 7/12 of a turn


def test_inverse_of_root_is_conjugate_power():
    z = root_of_unity(5, 2)
    assert (z * z.inverse()).is_one()
    assert z.inverse() == root_of_unity(5, 3)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_scalars_are_not_hashable():
    with pytest.raises(TypeError):
        hash(ONE)


def test_integer_powers():
    z = root_of_unity(8, 1)
    assert z**0 == ONE
    assert z**-1 == root_of_unity(8, 7)
    assert z**10 == root_of_unity(8, 2)


def test_parse_scalar_forms():
    assert parse_scalar("zeta(3)") == root_of_unity(3, 1)
    assert parse_scalar("-zeta(4)") == -root_of_unity(4, 1)
    assert parse_scalar("zeta(5)^3") == root_of_unity(5, 3)
    assert parse_scalar("2/3") == from_rational(Fraction(2, 3))
    assert parse_scalar(-7) == from_rational(-7)
    assert parse_scalar({"conductor": 4, "coeffs": ["0", "1"]}) == root_of_unity(4, 1)


def test_json_round_trip():
    value = root_of_unity(12, 5) * from_rational(Fraction(3, 7)) + ONE
    assert parse_scalar(scalar_to_json(value)) == value


def test_make_scalar_reduces_overflow_powers():
    # zeta_3^2 + zeta_3 + 1 = 0 inside the conductor-3 field
    assert make_scalar(3, [1, 1, 1]).is_zero()


rationals = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 9)
).map(from_rational)
roots = st.tuples(st.integers(1, 8), st.integers(0, 7)).map(
    lambda p: root_of_unity(p[0], p[1] % p[0])
)
scalars = st.one_of(rationals, roots, st.tuples(rationals, roots).map(lambda p: p[0] * p[1]))


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_field_identities(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    assert a - a == ZERO


@settings(max_examples=40, deadline=None)
@given(scalars)
def test_multiplicative_inverse(a):
    if a.is_zero():
        return
    assert (a * a.inverse()).is_one()
