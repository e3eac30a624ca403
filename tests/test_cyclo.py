import cmath
import functools
import math
import random
import time
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcube.cyclo import Cyclo, _is_zero


def z(k, n):
    return Cyclo.root_of_unity(k, n)


def test_arithmetic_basics():
    a = z(1, 3)
    assert a ** 3 == 1
    assert a * a == z(2, 3)
    assert a + (-a) == 0
    assert (a - a) == Cyclo.zero()
    assert 2 * a + a == 3 * a
    assert a ** 0 == 1
    assert a ** -1 == z(2, 3)
    assert a.inverse() * a == 1


def test_equality_is_complete():
    # relations across different representations of the same number
    assert z(1, 2) == -1
    assert z(1, 2) == Cyclo.from_rational(-1)
    assert z(0, 1) + z(1, 2) == 0
    assert z(0, 1) + z(1, 3) + z(2, 3) == 0
    assert sum((z(k, 5) for k in range(5)), Cyclo.zero()) == 0
    # the hexagonal identities: zeta_6 = -zeta_3^2 = 1 + zeta_3
    assert z(1, 6) == -z(2, 3)
    assert z(1, 6) == 1 + z(1, 3)
    assert z(1, 6) != z(1, 3)
    # real quadratic relation: zeta_8 + zeta_8^{-1} = sqrt(2) is irrational
    assert z(1, 8) + z(7, 8) != 1
    assert bool(z(0, 1) + z(1, 3) + z(2, 3)) is False
    assert bool(z(1, 3) + z(2, 3)) is True      # equals -1


def test_equality_fuzz_against_complex_evaluation():
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.choice([2, 3, 4, 5, 6, 8, 12])
        a = sum((rng.randrange(-2, 3) * z(k, n) for k in range(n)),
                Cyclo.zero())
        b = sum((rng.randrange(-2, 3) * z(k, n) for k in range(n)),
                Cyclo.zero())
        same = (a == b)
        numeric = abs(a.to_complex() - b.to_complex()) < 1e-9
        assert same == numeric


def test_conjugate_and_abs():
    a = z(1, 5)
    assert a.conjugate() == z(4, 5)
    assert abs(a) == pytest.approx(1.0)
    assert (a * a.conjugate()) == 1
    b = 2 * z(1, 8)
    assert abs(b) == pytest.approx(2.0)


def test_to_complex():
    assert z(1, 4).to_complex() == pytest.approx(1j)
    got = z(1, 3).to_complex()
    assert got == pytest.approx(cmath.exp(2j * math.pi / 3))
    assert (z(1, 3) + z(2, 3)).to_complex() == pytest.approx(-1.0)


def test_inverse_requires_monomial():
    with pytest.raises(ValueError):
        (z(1, 3) + 1).inverse()
    with pytest.raises(ValueError):
        Cyclo.zero().inverse()
    assert (Q(3, 2) * z(1, 7)).inverse() == Q(2, 3) * z(6, 7)


def test_unhashable():
    with pytest.raises(TypeError):
        hash(z(1, 3))


def test_gaussian_rationals():
    i = Cyclo({0: 0, Q(1, 4): 1})
    assert i == z(1, 4)
    assert i * i == -1
    v = Cyclo({0: Q(1, 2), Q(1, 4): Q(-3, 4)})
    assert v.to_complex() == pytest.approx(0.5 - 0.75j)
    assert v + v.conjugate() == 1


def test_coercion():
    assert Cyclo.coerce(5) == Cyclo.from_rational(5)
    assert Cyclo.coerce(Q(1, 2)) * 2 == 1
    assert (Cyclo.one() + 1) == 2


def test_repr():
    assert repr(Cyclo.zero()) == "Cyclo(0)"
    assert repr(Cyclo.from_rational(Q(-3, 2))) == "Cyclo(-3/2)"
    assert repr(2 * z(1, 3) + Q(1, 2)) == "Cyclo(1/2 + 2*zeta^(1/3))"
    assert repr(z(5, 12) * Q(-2, 7) + z(1, 4) - 3) == \
        "Cyclo(-3 + zeta^(1/4) + -2/7*zeta^(5/12))"
    assert repr(Cyclo({0: 1, Q(1, 4): -1})) == "Cyclo(1 + -1*zeta^(1/4))"
    assert repr(z(1, 6).conjugate()) == "Cyclo(zeta^(5/6))"


# --- properties over orders 1..60, int and Fraction coefficients -----------

ORDERS = st.integers(1, 60)
COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=6))
NONZERO = COEFFS.filter(bool)


@st.composite
def at_order(draw, n, max_terms=4):
    """A sum of up to max_terms c * zeta_d^k with d dividing n."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    v = Cyclo.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        d = draw(st.sampled_from(divisors))
        v = v + draw(COEFFS) * z(draw(st.integers(0, d - 1)), d)
    return v


cyclos = ORDERS.flatmap(at_order)


@st.composite
def same_field_pair(draw):
    n = draw(ORDERS)
    return n, draw(at_order(n)), draw(at_order(n))


@st.composite
def monomials(draw):
    n = draw(ORDERS)
    return draw(NONZERO) * z(draw(st.integers(-n, 2 * n)), n)


@st.composite
def relations(draw):
    """c * zeta_n^j * (1 + zeta_p + ... + zeta_p^(p-1)) for a prime p | n: zero."""
    n = draw(ORDERS.filter(lambda m: m > 1))
    p = next(d for d in range(2, n + 1) if n % d == 0)
    ring = sum((z(i, p) for i in range(p)), Cyclo.zero())
    return n, draw(NONZERO) * z(draw(st.integers(0, n - 1)), n) * ring


@settings(deadline=None)
@given(cyclos, cyclos, cyclos)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a - a == 0 and not (a - a)
    assert 0 + a == a and a * 1 == a and a * 0 == 0


@settings(deadline=None)
@given(monomials(), st.integers(1, 5))
def test_monomial_inverse_and_negative_powers(m, k):
    assert m * m.inverse() == 1
    assert m ** -k == (m ** k).inverse()
    assert m ** -k * m ** k == 1
    assert m ** -1 == m.inverse()


@settings(deadline=None)
@given(cyclos, cyclos)
def test_conjugate(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert a.conjugate().conjugate().terms == a.terms
    assert abs(a.conjugate().to_complex() - a.to_complex().conjugate()) < 1e-9


@settings(deadline=None)
@given(same_field_pair())
def test_eq_and_bool_agree_with_complex_value(pair):
    _, a, b = pair
    near = abs(a.to_complex() - b.to_complex()) < 1e-9
    assert (a == b) is near
    assert bool(a - b) == (not near)
    assert complex(a) == a.to_complex()


@settings(deadline=None)
@given(relations(), cyclos)
def test_cyclotomic_relations_vanish(rel, a):
    _, r = rel
    assert not r and r == 0
    assert a + r == a
    assert bool(a + r) is bool(a)


@settings(deadline=None)
@given(cyclos)
def test_terms_round_trip(a):
    terms = a.terms
    assert all(type(e) is Q and 0 <= e < 1 for e in terms)
    assert all(type(c) is Q and c != 0 for c in terms.values())
    back = Cyclo(terms)
    assert back == a and back.terms == terms and repr(back) == repr(a)


@settings(deadline=None)
@given(cyclos, monomials(), NONZERO)
def test_division_by_monomials_and_rationals(x, m, q):
    assert (x / m) * m == x
    assert 1 / m == m.inverse() and repr(1 / m) == repr(m.inverse())
    assert x / q == x * Q(1, q)
    assert q / m == q * m.inverse()


@settings(deadline=None)
@given(cyclos, cyclos.filter(lambda d: not d.is_monomial()))
def test_division_by_a_non_monomial_raises(x, d):
    # zero (no terms) included, as for inverse()
    with pytest.raises(ValueError):
        x / d
    with pytest.raises(ValueError):
        1 / d
    with pytest.raises(ValueError):
        x / 0


@pytest.mark.parametrize("op", [
    lambda x: x * 0.1, lambda x: 0.1 * x, lambda x: x + 0.5, lambda x: 0.5 - x,
    lambda x: x / 0.5, lambda x: Cyclo.from_rational(0.25),
    lambda x: Cyclo({Q(1, 3): 0.5}),
])
def test_float_operand_is_refused(op):
    # a float taken at its binary value would make an exact result inexact
    with pytest.raises(TypeError):
        op(Cyclo.one())


# --- the fast paths against the general sum, product and negation -----------

def reference_make(n, coeffs):
    out = {}
    for k, c in coeffs.items():
        if c:
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            out[k] = c
    g = math.gcd(n, *out) if out else n
    if g > 1:
        n //= g
        out = {k // g: c for k, c in out.items()}
    self = object.__new__(Cyclo)
    self._n = n
    self._c = out
    return self


def reference_add(a, b):
    n1, n2 = a._n, b._n
    n = math.lcm(n1, n2)
    m1, m2 = n // n1, n // n2
    out = {k * m1: c for k, c in a._c.items()}
    for k, c in b._c.items():
        k *= m2
        out[k] = out.get(k, 0) + c
    return reference_make(n, out)


def reference_neg(a):
    return reference_make(a._n, {k: -c for k, c in a._c.items()})


def reference_mul(a, b):
    n1, n2 = a._n, b._n
    n = math.lcm(n1, n2)
    m1, m2 = n // n1, n // n2
    right = [(k * m2, c) for k, c in b._c.items()]
    out = {}
    for k1, c1 in a._c.items():
        k1 *= m1
        for k2, c2 in right:
            k = (k1 + k2) % n
            out[k] = out.get(k, 0) + c1 * c2
    return reference_make(n, out)


def rep(x):
    """Everything a result is made of: order, terms in dict order, coefficient types."""
    return x._n, list(x._c.items()), [type(c) for c in x._c.values()]


SMALL = st.one_of(st.integers(-2, 2),
                  st.fractions(min_value=-2, max_value=2, max_denominator=4))


@st.composite
def canonical(draw):
    """A value of order up to 24 built by the reference constructor; empty
    values, single terms and few-term sums are all likely."""
    n = draw(st.integers(1, 24))
    keys = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    return reference_make(n, {k: draw(SMALL) for k in keys})


RATIONALS = st.sampled_from([0, 1, -1, 2, Q(1), Q(-1), Q(1, 2), Q(-3, 2)])


def reference_inverse(m):
    (k, c), = m._c.items()
    return reference_make(m._n, {-k % m._n: Q(1, c)})


@settings(deadline=None, max_examples=400)
@given(canonical(), canonical(), RATIONALS)
def test_fast_paths_equal_the_general_rebuild(a, b, q):
    assert rep(a + b) == rep(reference_add(a, b))
    assert rep(a - b) == rep(reference_add(a, reference_neg(b)))
    assert rep(a * b) == rep(reference_mul(a, b))
    assert rep(b * a) == rep(reference_mul(b, a))
    assert rep(-a) == rep(reference_neg(a))
    assert rep(a + (-a) + b) == rep(reference_add(reference_add(a, reference_neg(a)), b))
    # a rational operand on either side, as the order-1 value it stands for;
    # q * a and q + a are reflected to a * q and a + q
    r = reference_make(1, {0: q})
    assert rep(a * q) == rep(q * a) == rep(reference_mul(a, r))
    assert rep(a + q) == rep(q + a) == rep(reference_add(a, r))
    assert rep(a - q) == rep(reference_add(a, reference_neg(r)))
    assert rep(q - a) == rep(reference_add(r, reference_neg(a)))
    for m in (a, b):
        if m.is_monomial():
            assert rep(m.inverse()) == rep(reference_inverse(m))


def test_fast_path_cases():
    # a monomial product reduces its order
    assert rep(z(1, 4) * z(1, 4)) == (2, [(1, 1)], [int])
    assert rep((z(1, 4) + z(3, 4)) * z(1, 4)) == (2, [(1, 1), (0, 1)], [int, int])
    # an integral Fraction product becomes an int
    assert rep(Q(1, 2) * z(1, 3) * (2 * z(2, 3))) == (1, [(0, 1)], [int])
    # a sum is lazy: 1 + zeta_2 keeps both terms, yet it is zero
    one_plus = Cyclo.one() + z(1, 2)
    assert rep(one_plus) == (2, [(0, 1), (1, 1)], [int, int])
    assert bool(one_plus) is False
    # a sum of one order that cancels down to a lower order
    assert rep((z(1, 4) + z(1, 2)) + (-z(1, 4))) == (2, [(1, 1)], [int])
    # a product by the rational 1 is the operand itself; by -1 it has the
    # rep of the negation
    x = Q(1, 2) * z(1, 3) + 2 * z(1, 4)
    assert x * 1 is x and 1 * x is x and x * Q(1) is x
    assert rep(x * -1) == rep(-x) == (12, [(4, Q(-1, 2)), (3, -2)], [Q, int])
    # the inverse of a monomial keeps its order and an integral coefficient
    # as an int
    assert rep((-z(1, 6)).inverse()) == (6, [(5, -1)], [int])
    assert rep((Q(-1, 3) * z(1, 6)).inverse()) == (6, [(5, -3)], [int])


# --- the constructor against its one-loop reference -------------------------

def reference_constructor(terms):
    """Cyclo(terms) as one loop built it: the lcm of the exponent
    denominators, then each coefficient summed onto its key, first seen first."""
    items, n = [], 1
    for e, c in terms.items():
        if isinstance(c, float):
            raise TypeError(f"exact arithmetic does not take the float {c!r}")
        c = Q(c)
        if c:
            e = Q(e)
            items.append((e, c))
            n = math.lcm(n, e.denominator)
    coeffs = {}
    for e, c in items:
        k = e.numerator * (n // e.denominator) % n
        coeffs[k] = coeffs.get(k, 0) + c
    return reference_make(n, coeffs)


def returns_after_cancelling(terms):
    """Whether an exponent's running sum, read mod 1, cancels to 0 and a later
    term brings it back: the sum of root_of_unity terms then places that key
    last, where the one loop keeps it at its first place."""
    sums = {}
    for e, c in terms.items():
        if c:
            key = Q(e) % 1
            if sums.get(key, 1) == 0:
                return True
            sums[key] = sums.get(key, 0) + c
    return False


@st.composite
def constructor_terms(draw):
    """Up to six terms; exponents in [-2, 2] often agree mod 1, coefficients
    may be 0, and one draw in ten brings in a float coefficient."""
    coeffs = SMALL if draw(st.integers(0, 9)) else st.one_of(SMALL, st.floats(-2, 2))
    return draw(st.dictionaries(st.fractions(min_value=-2, max_value=2, max_denominator=12),
                                coeffs, max_size=6))


@settings(deadline=None, max_examples=400)
@given(constructor_terms())
def test_constructor_equals_its_one_loop_reference(terms):
    try:
        want = reference_constructor(terms)
    except TypeError as exc:
        with pytest.raises(TypeError) as err:
            Cyclo(terms)
        assert str(err.value) == str(exc)
        return
    got = Cyclo(terms)
    assert repr(got) == repr(want)
    if returns_after_cancelling(terms):
        assert sorted(rep(got)[1]) == sorted(rep(want)[1]) and got._n == want._n
    else:
        assert rep(got) == rep(want)


def test_constructor_places_a_key_that_returns_last():
    terms = {Q(1, 3): 1, Q(1, 2): 2, Q(4, 3): -1, Q(-2, 3): Q(1, 2)}
    assert rep(Cyclo(terms)) == (6, [(3, 2), (2, Q(1, 2))], [int, Q])
    assert rep(reference_constructor(terms)) == (6, [(2, Q(1, 2)), (3, 2)], [Q, int])


# --- the zero test against reduction modulo the cyclotomic polynomial -------

def reference_divmod(num, den):
    """Quotient and remainder of ascending coefficient lists by a monic divisor."""
    num = list(num)
    dd = len(den) - 1
    low = [(k, c) for k, c in enumerate(den[:dd]) if c]
    quo = [0] * max(len(num) - dd, 0)
    for j in range(len(num) - 1, dd - 1, -1):
        f = num[j]
        if f:
            quo[j - dd] = f
            for k, c in low:
                num[j - dd + k] -= f * c
    return quo, num[:dd]


@functools.lru_cache(maxsize=None)
def reference_cyclotomic(n):
    """Phi_n: x^n - 1 divided by Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = reference_divmod(poly, reference_cyclotomic(d))
            assert not any(rem)
    return tuple(poly)


def reference_is_zero(n, coeffs):
    """Whether sum_k c_k zeta_n^k vanishes: its remainder modulo Phi_n, in ints."""
    den = math.lcm(1, *(Q(c).denominator for c in coeffs.values()))
    poly = [0] * n
    for k, c in coeffs.items():
        poly[k] = int(c * den)
    return not any(reference_divmod(poly, reference_cyclotomic(n))[1])


def test_reference_cyclotomic():
    assert reference_cyclotomic(1) == (-1, 1)
    assert reference_cyclotomic(2) == (1, 1)
    assert reference_cyclotomic(6) == (1, -1, 1)
    assert reference_cyclotomic(12) == (1, 0, -1, 0, 1)
    # degree is Euler phi
    for n, phi in ((5, 4), (8, 4), (9, 6), (10, 4), (15, 8), (2310, 480)):
        assert len(reference_cyclotomic(n)) - 1 == phi


# orders up to 2310 = 2*3*5*7*11: small ones, lcms of small ones (as a sum
# of two values is formed at), and products of many primes
ZERO_TEST_ORDERS = st.one_of(
    st.integers(1, 60),
    st.lists(st.integers(1, 60), min_size=2, max_size=3).map(
        lambda ds: math.lcm(*ds)).filter(lambda n: n <= 2310),
    st.sampled_from([210, 1155, 2048, 2310]))


@st.composite
def zero_test_sums(draw):
    """(n, relations, strays): relations sums c * sum_{t<d} zeta_n^(j + t*n/d)
    over divisors d > 1 of n, which vanish; strays adds a few lone terms."""
    n = draw(ZERO_TEST_ORDERS)
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    relations, strays = {}, {}
    for _ in range(draw(st.integers(0, 3)) if divisors else 0):
        d, j, c = draw(st.sampled_from(divisors)), draw(st.integers(0, n - 1)), draw(NONZERO)
        for t in range(d):
            k = (j + t * n // d) % n
            relations[k] = relations.get(k, 0) + c
    for _ in range(draw(st.integers(0, 2))):
        strays[draw(st.integers(0, n - 1))] = draw(NONZERO)
    return n, relations, strays


@settings(deadline=None, max_examples=400)
@given(zero_test_sums())
def test_is_zero_matches_reduction_modulo_phi(case):
    n, relations, strays = case
    assert _is_zero(n, {k: c for k, c in relations.items() if c})
    total = dict(relations)
    for k, c in strays.items():
        total[k] = total.get(k, 0) + c
    total = {k: c for k, c in total.items() if c}
    assert _is_zero(n, total) is reference_is_zero(n, total)


def test_equality_at_order_30030_is_fast():
    # the reduction modulo Phi_30030 took 8.2 s for the first comparison
    a = 1 + z(1, 30030) + 2 * z(30029, 30030)
    b = z(7, 30030)
    ring = sum((z(t, 13) for t in range(13)), Cyclo.zero())
    start = time.perf_counter()
    assert a != b and a - b != 0
    assert z(1, 30030) * ring == 0 and a + z(11, 30030) * ring == a
    assert time.perf_counter() - start < 0.05
