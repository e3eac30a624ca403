import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcube.cyclo import Cyclo
from symcube.satake import (
    SatakeClass, contragredient, inverse, is_tempered, satake_from_hecke, twist)

# frozen from the built-in q-expansion: a_2 = -24, weight 12
A2_OVER_SCALE = -0.530330085889911


def test_perfect_square_case():
    c = satake_from_hecke(2 * 7 ** 5, 7, 11, 1.0)   # a_p = 2 p^{(k-1)/2}, k odd
    assert abs(c.alpha - 1) < 1e-12 and abs(c.beta - 1) < 1e-12


def test_delta_at_two():
    c = satake_from_hecke(-24, 2, 12, 1.0)
    assert abs((c.alpha + c.beta).real - A2_OVER_SCALE) < 1e-12
    assert abs(c.alpha + c.beta - (c.alpha + c.beta).real) < 1e-12
    assert abs(abs(c.alpha) - 1) < 1e-12 and abs(abs(c.beta) - 1) < 1e-12
    assert is_tempered(c, 1e-8)


def test_ap_zero_gives_i_minus_i():
    c = satake_from_hecke(0, 5, 12, 1.0)
    assert {round(c.alpha.imag, 12), round(c.beta.imag, 12)} == {1.0, -1.0}
    assert abs(c.alpha.real) < 1e-12 and abs(c.beta.real) < 1e-12
    assert c.alpha.imag > 0   # deterministic tie-break


def test_satake_from_hecke_refuses_bad_p_and_omega():
    with pytest.raises(ValueError, match="p must be a prime >= 2"):
        satake_from_hecke(1, 1, 12)
    with pytest.raises(ValueError, match="omega_p"):
        satake_from_hecke(1, 5, 12, 1.5)


@pytest.mark.parametrize("a_p, message", [
    (10 ** 400, "a_2 is beyond the float range"),
    (1.5e300, "a_2 is too large: its Satake parameters leave the float range"),
    (complex(1e308, 1e308), "a_2 is too large: its Satake parameters leave the float range"),
])
def test_satake_from_hecke_refuses_an_a_p_past_the_float_range(a_p, message):
    with pytest.raises(ValueError) as exc:
        satake_from_hecke(a_p, 2, 12)
    assert str(exc.value) == message


def test_same_class_needs_the_same_q():
    assert SatakeClass(1j, -1j, 5).same_class(SatakeClass(-1j, 1j, 5))
    assert not SatakeClass(1j, -1j, 5).same_class(SatakeClass(1j, -1j, 7))


def test_vieta_product_always_exact():
    rng = random.Random(31)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11, 10007])
        k = rng.choice([2, 4, 12, 16, 24])
        bound = int(2 * p ** ((k - 1) / 2))
        a_p = rng.randrange(-bound, bound + 1)
        omega = cmath.exp(2j * math.pi * rng.random())
        c = satake_from_hecke(a_p, p, k, omega)
        assert abs(c.alpha * c.beta - omega) < 1e-12
        t = a_p / math.sqrt(p ** (k - 1))
        assert abs((c.alpha + c.beta) - t) < 1e-10 * max(1.0, abs(t))


def test_ramanujan_range_is_tempered():
    rng = random.Random(8)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        k = 12
        bound = 2 * p ** 5.5
        a_p = rng.randrange(-int(bound), int(bound) + 1)
        c = satake_from_hecke(a_p, p, k, 1.0)
        assert is_tempered(c, 1e-8)


def test_is_tempered_examples():
    assert is_tempered(SatakeClass(1j, -1j, 3))
    q4 = 3 ** 0.25
    assert not is_tempered(SatakeClass(q4, 1 / q4, 3), 1e-8)
    with pytest.raises(ValueError):
        is_tempered(SatakeClass(1, 1, 2), tol=0.0)


def test_twist_algebra():
    c = SatakeClass(0.5 + 0.1j, 2.0 - 0.3j, 3)
    assert twist(c, 1.0).same_class(c)
    om = c.central_character()
    tw = twist(c, om)
    assert abs(tw.alpha - c.alpha * om) < 1e-15
    back = twist(twist(c, 2j), 1 / 2j)
    assert back.same_class(c)
    with pytest.raises(ValueError):
        twist(c, 0.0)


def test_contragredient():
    c = SatakeClass(cmath.exp(0.7j), cmath.exp(-0.7j), 5)
    cc = contragredient(c)
    assert cc.same_class(SatakeClass(c.alpha.conjugate(), c.beta.conjugate(), 5))
    c2 = SatakeClass(2.0, 0.5, 2)
    assert contragredient(c2).same_class(c2)   # omega = 1
    assert abs(contragredient(c).central_character()
               - 1 / c.central_character()) < 1e-12
    with pytest.raises(ValueError):
        contragredient(SatakeClass(0.0, 1.0, 2))


def test_contragredient_keeps_a_rational_partner_of_a_cyclo_exact():
    zeta3 = Cyclo.root_of_unity(1, 3)
    cc = contragredient(SatakeClass(zeta3, 3, 5))
    assert type(cc.beta) is Fraction and cc.beta == Fraction(1, 3)
    assert cc.alpha == Cyclo.root_of_unity(2, 3)
    beta = contragredient(SatakeClass(zeta3, Fraction(2, 7), 5)).beta
    assert type(beta) is Fraction and beta == Fraction(7, 2)


@pytest.mark.parametrize("alpha, beta", [
    (2.0, 0.5), (3, 0.25), (0.3 + 1.7j, 0.1 - 2.2j), (cmath.exp(0.7j), 4),
    (7, 3),
])
def test_contragredient_of_float_and_complex_classes_is_one_over_x(alpha, beta):
    """float and complex parameters take 1 / x; an int is inverted exactly."""
    cc = contragredient(SatakeClass(alpha, beta, 3))
    for got, x in ((cc.alpha, alpha), (cc.beta, beta)):
        want = Fraction(1, x) if type(x) is int else 1 / x
        assert type(got) is type(want) and repr(got) == repr(want)


def _outcome(f, x):
    """(type, repr) of f(x), or the type of what it raises."""
    try:
        value = f(x)
    except ArithmeticError as exc:
        return type(exc)
    return type(value), repr(value)


# a Cyclo inverts only single-term values
_cyclo = st.builds(lambda k, n, c: Cyclo.root_of_unity(k, n) * c,
                   st.integers(0, 11), st.integers(1, 12),
                   st.fractions(-9, 9, max_denominator=9).filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(), st.complex_numbers(), _cyclo))
def test_inverse_of_a_float_complex_or_cyclo_is_one_over_x(x):
    assert _outcome(inverse, x) == _outcome(lambda y: 1 / y, x)


@given(st.one_of(st.integers().filter(bool), st.fractions().filter(bool)))
def test_inverse_of_an_int_or_fraction_is_an_exact_fraction(x):
    got = inverse(x)
    assert type(got) is Fraction and got * x == 1
