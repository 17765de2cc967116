"""Cyclotomic scalar arithmetic."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nicholsforge.scalars import (
    MAX_CONDUCTOR,
    ONE,
    ZERO,
    FieldTooLarge,
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


def test_fields_past_the_conductor_bound_are_refused():
    z = root_of_unity(MAX_CONDUCTOR, 1)
    assert (z ** MAX_CONDUCTOR).is_one()
    for build in (lambda: root_of_unity(MAX_CONDUCTOR + 1, 1),
                  lambda: make_scalar(10**8, [0, 1]),
                  lambda: parse_scalar("zeta(100000000)^99999999"),
                  # each operand is admitted, their least common conductor is not
                  lambda: root_of_unity(509, 1) * root_of_unity(503, 1),
                  lambda: root_of_unity(256, 1) + root_of_unity(3, 1)):
        with pytest.raises(FieldTooLarge, match=f"largest supported conductor, {MAX_CONDUCTOR}"):
            build()


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


@pytest.mark.parametrize("text, value", [
    (" -3 / 4 ", Fraction(-3, 4)),
    ("1/-2", Fraction(-1, 2)),
    ("+6/4", Fraction(3, 2)),
    ("-0", Fraction(0)),
    (" 12 ", Fraction(12)),
])
def test_rational_text_forms(text, value):
    # the pair parsed from text is in lowest terms with a positive denominator
    assert parse_scalar(text).coeffs == (value.numerator, value.denominator)


@pytest.mark.parametrize("text", ["1_000", "\u0663", "zeta(\u0663)", "1/\u0663", "- 3", "", "1/"])
def test_scalar_text_takes_ascii_digits_only(text):
    # int() alone would read "1_000" as 1000 and the Arabic-Indic digit three as 3
    with pytest.raises(ValueError):
        parse_scalar(text)


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


# -- an independent reference: Fraction lists modulo Phi_N --------------------


def _ref_divmod(num, den):
    num = list(num)
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(num) - 1, len(den) - 2, -1):
        q = num[i] / den[-1]
        quot[i - len(den) + 1] = q
        for k, d in enumerate(den):
            num[i - len(den) + 1 + k] -= q * d
    return quot, num[: len(den) - 1]


def _ref_cyclotomic(n):
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rest = _ref_divmod(poly, _ref_cyclotomic(d))
            assert not any(rest)
    return poly


def _ref_reduce(raw, n):
    phi_n = _ref_cyclotomic(n)
    padded = [Fraction(c) for c in raw] + [Fraction(0)] * len(phi_n)
    return _ref_divmod(padded, phi_n)[1]


def _ref_mul(a, b, n):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, n)


def _ref_lift(a, n, target):
    step = target // n
    raw = [Fraction(0)] * ((len(a) - 1) * step + 1)
    for k, c in enumerate(a):
        raw[k * step] = c
    return _ref_reduce(raw, target)


def _ref_of(s):
    doc = scalar_to_json(s)
    return doc["conductor"], [Fraction(c) for c in doc["coeffs"]]


# Every coefficient has a denominator above 1, so no test leans on integers.
fractions_ = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(2, 9))
elements = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(fractions_ | st.just(Fraction(0)), min_size=1, max_size=n + 2))
)


@settings(max_examples=80, deadline=None)
@given(elements, elements)
def test_arithmetic_matches_fraction_reference(x, y):
    (n, raw_a), (m, raw_b) = x, y
    a, b = make_scalar(n, raw_a), make_scalar(m, raw_b)
    ref_a, ref_b = _ref_reduce(raw_a, n), _ref_reduce(raw_b, m)
    assert _ref_of(a) == (n, ref_a)
    assert _ref_of(b) == (m, ref_b)

    top = lcm(n, m)
    lift_a, lift_b = _ref_lift(ref_a, n, top), _ref_lift(ref_b, m, top)
    assert _ref_of(a + b) == (top, [p + q for p, q in zip(lift_a, lift_b)])
    assert _ref_of(a - b) == (top, [p - q for p, q in zip(lift_a, lift_b)])
    assert _ref_of(a * b) == (top, _ref_mul(lift_a, lift_b, top))

    assert (a == b) == (lift_a == lift_b)
    assert a == make_scalar(top, lift_a)
    assert b == make_scalar(top, lift_b)

    if any(ref_a):
        conductor, inv = _ref_of(a.inverse())
        assert conductor == n
        assert _ref_mul(ref_a, inv, n) == [Fraction(1)] + [Fraction(0)] * (len(ref_a) - 1)


@settings(max_examples=60, deadline=None)
@given(elements, st.integers(2, 30))
def test_scaled_inputs_share_one_canonical_form(x, k):
    n, raw = x
    value = make_scalar(n, raw)
    scaled = make_scalar(n, [c * k for c in raw]) * from_rational(Fraction(1, k))
    assert scaled.conductor == value.conductor
    assert scaled.coeffs == value.coeffs
    assert scalar_to_json(scaled) == scalar_to_json(value)


def test_one_value_has_one_internal_tuple():
    forms = [
        make_scalar(6, ["1/2", "3/4"]),
        make_scalar(6, ["2/4", "6/8"]),
        make_scalar(6, [Fraction(1, 2), Fraction(3, 4)]),
        make_scalar(6, [2, 3]) * from_rational(Fraction(1, 4)),
        make_scalar(6, [4, 6]) / 8,
        make_scalar(6, ["-1/4", 0, "3/4"]) + make_scalar(6, ["3/2", 0, 0]),  # zeta_6^2 = zeta_6 - 1
    ]
    for form in forms:
        assert form.coeffs == forms[0].coeffs
        assert scalar_to_json(form) == {"conductor": 6, "coeffs": ["1/2", "3/4"]}
