import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcube.cyclo import Cyclo
from symcube.localfactor import (
    RepTag, ReciprocalPoly, check_gj_identity,
    check_triple_identity, check_twist_identity, eigenvalues, local_factor,
    poly_from_eigenvalues, poly_mul, rankin_selberg)
from symcube.satake import SatakeClass, contragredient


def _random_class(rng, bound=4.0, q_choices=(2, 3, 5, 7)):
    def draw():
        mod = math.exp(rng.uniform(-math.log(bound), math.log(bound)))
        return mod * cmath.exp(2j * math.pi * rng.random())
    return SatakeClass(draw(), draw(), rng.choice(q_choices))


def _unitary_class(rng, q_choices=(2, 3, 5)):
    a = cmath.exp(2j * math.pi * rng.random())
    b = cmath.exp(2j * math.pi * rng.random())
    return SatakeClass(a, b, rng.choice(q_choices))


def _poly_mul_chain(eigen):
    """Reference: prod (1 - e T) as a chain of full dense products by [1, -e],
    products by 1 and sums onto 0 included."""
    coeffs = [1]
    for e in eigen:
        out = [0] * (len(coeffs) + 1)
        for i, x in enumerate(coeffs):
            for j, y in enumerate([1, -e]):
                out[i + j] = out[i + j] + x * y
        coeffs = out
    return coeffs


_cyclo_values = st.builds(
    lambda n, k, num, den: Cyclo.root_of_unity(k, n) * Fraction(num, den),
    st.integers(1, 16), st.integers(0, 15), st.integers(-3, 3), st.integers(1, 4))
_float_parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-1e3, 1e3, allow_nan=False))
_complex_values = st.builds(complex, _float_parts, _float_parts)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_cyclo_values, max_size=8), st.lists(_complex_values, max_size=8)))
@example([1 + 0j])              # a lone real factor: the top coefficient reads -1+0j
@example([complex(-0.0, 0.0), 2 + 0j, complex(0.0, -0.0)])
def test_poly_from_eigenvalues_equals_the_product_chain(eigen):
    # bit for bit, signed zeros included: the one-factor recurrence adds the
    # same nonzero products in the same roundings as the full product
    assert repr(poly_from_eigenvalues(eigen)) == repr(_poly_mul_chain(eigen))


def test_degree_contract():
    rng = random.Random(1)
    c = _random_class(rng)
    degrees = {RepTag.STANDARD: 2, RepTag.SYM2: 3, RepTag.SYM3: 4, RepTag.ADJOINT_CUBE: 4,
               RepTag.WEDGE2: 1, RepTag.GJ_ADJOINT: 3, RepTag.TRIPLE: 8}
    assert set(degrees) == set(RepTag)
    for tag, deg in degrees.items():
        assert local_factor(tag, c).degree == deg
    lift = eigenvalues(RepTag.GJ_ADJOINT, c)
    assert rankin_selberg(c, lift).degree == 6


def test_constant_coefficient_is_one():
    rng = random.Random(2)
    for _ in range(20):
        c = _random_class(rng)
        for tag in (RepTag.STANDARD, RepTag.SYM3, RepTag.ADJOINT_CUBE,
                    RepTag.WEDGE2, RepTag.TRIPLE):
            assert local_factor(tag, c).coeffs[0] == 1.0


def test_sym3_trivial_class():
    c = SatakeClass(1.0, 1.0, 2)
    poly = local_factor(RepTag.SYM3, c)
    # (1-T)^4 = 1 - 4T + 6T^2 - 4T^3 + T^4
    want = [1, -4, 6, -4, 1]
    assert all(abs(x - w) < 1e-14 for x, w in zip(poly.coeffs, want))


def test_adjoint_cube_eigenvalues_2_half():
    c = SatakeClass(2.0, 0.5, 3)
    ev = eigenvalues(RepTag.ADJOINT_CUBE, c)
    assert sorted(abs(e) for e in ev) == pytest.approx([0.125, 0.5, 2.0, 8.0])
    # matches (1-8T)(1-2T)(1-T/2)(1-T/8) coefficientwise
    want = poly_from_eigenvalues([8.0, 2.0, 0.5, 0.125])
    got = local_factor(RepTag.ADJOINT_CUBE, c)
    assert max(abs(a - b) for a, b in zip(got.coeffs, want)) < 1e-13


def test_sym2_eigenvalues():
    c = SatakeClass(2.0 + 0j, 0.5 + 0j, 3)
    ev = eigenvalues(RepTag.SYM2, c)
    assert [abs(e) for e in ev] == pytest.approx([4.0, 1.0, 0.25])
    e1 = -local_factor(RepTag.SYM2, c).coeffs[1]
    assert abs(e1 - (4.0 + 1.0 + 0.25)) < 1e-14


def test_eigenvalues_refuses_an_unknown_tag():
    with pytest.raises(ValueError, match="unknown representation tag 'sym3'"):
        eigenvalues("sym3", SatakeClass(2.0 + 0j, 0.5 + 0j, 3))


def test_wedge2_is_central_character():
    rng = random.Random(3)
    c = _random_class(rng)
    poly = local_factor(RepTag.WEDGE2, c)
    assert poly.degree == 1
    assert abs(poly.coeffs[1] + c.central_character()) < 1e-14


def test_rankin_selberg_examples():
    c = SatakeClass(1.0, 1.0, 2)
    assert rankin_selberg(c, [1.0]).degree == 2
    got = rankin_selberg(c, [1.0]).coeffs
    assert all(abs(x - w) < 1e-14 for x, w in zip(got, [1, -2, 1]))
    ci = SatakeClass(1j, -1j, 2)
    got = rankin_selberg(ci, [1.0]).coeffs          # (1-iT)(1+iT) = 1 + T^2
    assert abs(got[1]) < 1e-14 and abs(got[2] - 1) < 1e-14
    with pytest.raises(ValueError):
        rankin_selberg(c, [])


def test_rankin_selberg_gj_multiset():
    rng = random.Random(4)
    c = _unitary_class(rng)
    lift = eigenvalues(RepTag.GJ_ADJOINT, c)
    a, b = c.alpha, c.beta
    want = poly_from_eigenvalues([a * a / b, a, a, b, b, b * b / a])
    got = rankin_selberg(c, lift)
    assert max(abs(x - y) for x, y in zip(got.coeffs, want)) < 1e-12


def test_triple_product_structure():
    c = SatakeClass(1.0, 1.0, 2)
    got = local_factor(RepTag.TRIPLE, c).coeffs
    want = poly_from_eigenvalues([1.0] * 8)         # (1-T)^8
    assert all(abs(x - w) < 1e-12 for x, w in zip(got, want))
    rng = random.Random(5)
    c = _random_class(rng)
    e1 = -local_factor(RepTag.TRIPLE, c).coeffs[1]
    assert abs(e1 - (c.alpha + c.beta) ** 3) < 1e-12 * max(1, abs(e1))


def test_triple_product_unitary_roots_on_circle():
    import numpy as np
    rng = random.Random(6)
    for _ in range(10):
        c = _unitary_class(rng)
        roots = np.roots(list(local_factor(RepTag.TRIPLE, c).coeffs)[::-1])
        # clustered triple eigenvalues make the extracted roots
        # ill-conditioned; the test separates on-circle from q^(1/4)-scale
        assert max(abs(abs(r) - 1.0) for r in roots) < 5e-3


def test_identity_suites_seeded():
    rng = random.Random(97)
    for _ in range(100):
        c = _random_class(rng)
        assert check_triple_identity(c) < 1e-12
        assert check_twist_identity(c) < 1e-12
        assert check_gj_identity(c) < 1e-12


def test_identity_suites_unitary():
    rng = random.Random(98)
    for _ in range(100):
        c = _unitary_class(rng)
        assert check_triple_identity(c) < 1e-12
        assert check_twist_identity(c) < 1e-12
        assert check_gj_identity(c) < 1e-12


def test_identities_trivial_and_nonunitary_points():
    assert check_triple_identity(SatakeClass(1.0, 1.0, 2)) == 0.0
    assert check_triple_identity(SatakeClass(2.0, 0.5, 2)) < 1e-13
    z8 = cmath.exp(2j * math.pi / 8)
    assert check_twist_identity(SatakeClass(z8, z8 ** 3, 2)) < 1e-14
    th = 2j * math.pi * 0.381
    assert check_gj_identity(SatakeClass(cmath.exp(th), cmath.exp(-th), 3)) < 1e-13
    assert check_gj_identity(SatakeClass(5 ** -0.25, 5 ** 0.25, 5)) < 1e-13


def test_exact_mode_identities_return_zero():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.choice([3, 4, 5, 6, 8, 12])
        a = Cyclo.root_of_unity(rng.randrange(n), n)
        b = Cyclo.root_of_unity(rng.randrange(n), n)
        c = SatakeClass(a, b, rng.choice([2, 3, 5]))
        assert check_triple_identity(c) == 0.0
        assert check_twist_identity(c) == 0.0
        assert check_gj_identity(c) == 0.0


def test_contragredient_inverts_eigenvalues():
    rng = random.Random(7)
    for tag in (RepTag.STANDARD, RepTag.SYM3, RepTag.ADJOINT_CUBE, RepTag.TRIPLE):
        c = _random_class(rng)
        ev = eigenvalues(tag, c)
        ev_dual = eigenvalues(tag, contragredient(c))
        inv = sorted((1 / e for e in ev), key=lambda z: (round(abs(z), 9), z.real, z.imag))
        dual = sorted(ev_dual, key=lambda z: (round(abs(z), 9), z.real, z.imag))
        assert max(abs(x - y) for x, y in zip(inv, dual)) < 1e-10


def test_tempered_reciprocal_roots_on_unit_circle():
    import numpy as np
    rng = random.Random(8)
    for _ in range(10):
        c = _unitary_class(rng)
        for tag in (RepTag.SYM3, RepTag.ADJOINT_CUBE, RepTag.GJ_ADJOINT):
            roots = np.roots(list(local_factor(tag, c).coeffs)[::-1])
            assert max(abs(abs(r) - 1.0) for r in roots) < 1e-8


def test_reciprocal_poly_contracts():
    # P(0) is exactly 1: a Fraction or a complex within 1e-12 of 1 used to pass
    for lead in (2.0, Fraction(10 ** 13 + 1, 10 ** 13), 1 + 1e-13j):
        with pytest.raises(ValueError, match="constant coefficient must be 1"):
            ReciprocalPoly([lead, 1.0])
    with pytest.raises(ValueError):
        ReciprocalPoly([])
    for one in (1, 1.0, 1 + 0j, Fraction(1), Cyclo.one()):
        assert ReciprocalPoly([one, -0.5]).coeffs == (one, -0.5)


def reference_max_coeff_diff(p, q):
    """The earlier body: padded list copies and max() calls; unequal
    polynomials with a coefficient that is not finite give NaN."""
    n = max(len(p.coeffs), len(q.coeffs))
    a = list(p.coeffs) + [0] * (n - len(p.coeffs))
    b = list(q.coeffs) + [0] * (n - len(q.coeffs))
    if all(x == y for x, y in zip(a, b)):
        return 0.0
    if not all(cmath.isfinite(complex(c)) for c in a + b):
        return math.nan
    worst = 0.0
    scale = 1.0
    for x, y in zip(a, b):
        xc, yc = complex(x), complex(y)
        worst = max(worst, abs(xc - yc))
        scale = max(scale, abs(xc), abs(yc))
    return worst / scale


_odd_parts = st.one_of(_float_parts, st.sampled_from([math.nan, math.inf, -math.inf]))
_exact_values = st.one_of(st.integers(-3, 3),
                          st.fractions(min_value=-3, max_value=3, max_denominator=4),
                          _cyclo_values)
_diff_polys = st.one_of(
    st.lists(st.builds(complex, _odd_parts, _odd_parts), max_size=8),
    st.lists(_exact_values, max_size=8),
    st.lists(st.one_of(_exact_values, _complex_values), max_size=8),
).map(lambda tail: ReciprocalPoly([1, *tail]))


@settings(max_examples=400, deadline=None)
@given(_diff_polys, _diff_polys)
@example(ReciprocalPoly([1, complex(math.nan, 0)]), ReciprocalPoly([1, 2.0]))
@example(ReciprocalPoly([1, complex(math.nan, 0), 3.0]), ReciprocalPoly([1, 2.0]))
# an inf coefficient on both sides: the difference is NaN and the scale inf,
# which read 0.0, a pass, before non-finite coefficients gave NaN
@example(ReciprocalPoly([1, complex(math.inf, 0), 3.0]),
         ReciprocalPoly([1, complex(math.inf, 0), 2.0]))
@example(ReciprocalPoly([1, 2.0, complex(0.0, -math.inf)]), ReciprocalPoly([1, 2.5]))
# 1 + zeta_2 equals 0 but reads about 1.2e-16j as a complex number
@example(ReciprocalPoly([1, 1 + Cyclo.root_of_unity(1, 2), 2]), ReciprocalPoly([1, 0]))
def test_max_coeff_diff_equals_the_padded_body(p, q):
    # the same float bit for bit, NaN and signed zero included
    assert repr(p.max_coeff_diff(q)) == repr(reference_max_coeff_diff(p, q))
    assert repr(q.max_coeff_diff(p)) == repr(reference_max_coeff_diff(q, p))
    assert repr(p.max_coeff_diff(p)) == repr(reference_max_coeff_diff(p, p))


@pytest.mark.parametrize("p, q, want", [
    ([1, complex(1.7e308, 1.7e308)], [1, 0], 1.0),  # |x| past the float range: abs() raised
    ([1, 1.7e308], [1, -1.7e308], 2.0),              # x - y past it: read inf
    ([1, 1.7e308, math.nan], [1, -1.7e308], math.nan),
])
def test_max_coeff_diff_of_finite_coefficients_past_the_float_range(p, q, want):
    for a, b in ((p, q), (q, p)):
        assert repr(ReciprocalPoly(a).max_coeff_diff(ReciprocalPoly(b))) == repr(want)


def test_max_coeff_diff_still_refuses_a_coefficient_with_no_float():
    # a Cyclo value has no exact modulus to fall back on
    with pytest.raises(OverflowError):
        ReciprocalPoly([1, 10 ** 400 * Cyclo.root_of_unity(1, 3)]).max_coeff_diff(
            ReciprocalPoly([1, 0]))


@pytest.mark.parametrize("p, q, want", [
    ([1, 10 ** 400], [1, 0], 1.0),
    ([1, Fraction(10 ** 400, 3)], [1, 1], 1.0),
    ([1, 10 ** 400, Fraction(1, 3)], [1, -10 ** 400], 2.0),
    ([1, 3 * 10 ** 400], [1, 10 ** 400, 5 * 10 ** 400], 1.0),
])
def test_max_coeff_diff_of_exact_coefficients_past_the_float_range(p, q, want):
    """int and Fraction coefficients with no float: the ratio exactly, rounded once."""
    for a, b in ((p, q), (q, p)):
        assert repr(ReciprocalPoly(a).max_coeff_diff(ReciprocalPoly(b))) == repr(want)


def _quartered(p):
    """p's coefficients as complex numbers with each part divided by 4."""
    return SimpleNamespace(coeffs=[complex(c.real / 4, c.imag / 4) for c in map(complex, p.coeffs)])


_wide_parts = st.one_of(st.floats(), st.sampled_from([1.7e308, -1.7e308, 9e307, -9e307, 5e-324]))
_wide_polys = st.lists(st.one_of(_wide_parts, st.builds(complex, _wide_parts, _wide_parts)),
                       max_size=6).map(lambda tail: ReciprocalPoly([1, *tail]))


@settings(max_examples=400, deadline=None)
@given(_wide_polys, _wide_polys)
def test_max_coeff_diff_keeps_its_bits_where_the_padded_body_stayed_in_range(p, q):
    """The padded body's float, bit for bit; where finite coefficients took it
    past the float range (OverflowError or inf), the same ratio on quartered
    coefficients, which is finite."""
    try:
        want = reference_max_coeff_diff(p, q)
    except OverflowError:
        want = math.inf
    if want == math.inf:
        want = reference_max_coeff_diff(_quartered(p), _quartered(q))
        assert math.isfinite(want)
    assert repr(p.max_coeff_diff(q)) == repr(want)


def reference_times_linear_chain(eigen):
    """The earlier expansion: a new list per linear factor (1 + m T), m = -e."""
    coeffs = [1]
    for e in eigen:
        m = -e
        coeffs = [coeffs[0], *(c + p * m for c, p in zip(coeffs[1:], coeffs)),
                  0 + coeffs[-1] * m]
    return coeffs


def reference_poly_mul(a, b):
    """The poly_mul body as written when poly_from_eigenvalues went in place;
    a faster body must match it rep for rep."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _rep(x):
    """x to the last bit: a Cyclo's n and its terms in dict order with their
    types, any other value's type and repr (signed zeros, NaN and inf kept)."""
    if isinstance(x, Cyclo):
        return Cyclo, x._n, [(k, type(c), c) for k, c in x._c.items()]
    return type(x), repr(x)


_odd_scalars = st.one_of(st.builds(complex, _odd_parts, _odd_parts), st.floats(-1e3, 1e3),
                         st.sampled_from([-0.0, math.nan, math.inf, -math.inf]))
_eigen_lists = st.one_of(st.lists(_exact_values, max_size=9), st.lists(_odd_scalars, max_size=9))


@settings(max_examples=400, deadline=None)
@given(_eigen_lists)
@example([complex(-0.0, math.nan), complex(math.inf, -0.0), -0.0, 1])
@example([Cyclo.root_of_unity(1, 3), 1, Fraction(1, 2), Cyclo.root_of_unity(2, 3)])
def test_poly_from_eigenvalues_equals_the_new_list_chain_rep_for_rep(eigen):
    assert list(map(_rep, poly_from_eigenvalues(eigen))) == \
        list(map(_rep, reference_times_linear_chain(eigen)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.lists(_exact_values, min_size=1, max_size=6),
                           st.lists(_exact_values, min_size=1, max_size=6)),
                 st.tuples(st.lists(_odd_scalars, min_size=1, max_size=6),
                           st.lists(_odd_scalars, min_size=1, max_size=6))))
def test_poly_mul_equals_its_earlier_body_rep_for_rep(pair):
    a, b = pair
    assert list(map(_rep, poly_mul(a, b))) == list(map(_rep, reference_poly_mul(a, b)))


def test_degenerate_parameter_rejected():
    with pytest.raises(ZeroDivisionError):
        local_factor(RepTag.ADJOINT_CUBE, SatakeClass(0.0, 1.0, 2))


def _identity_classes(seed=7, samples=100, bound=4.0):
    """The classes `symcube identity --seed 7` draws, in its order."""
    rng = random.Random(seed)

    def draw():
        mod = math.exp(rng.uniform(-math.log(bound), math.log(bound)))
        return mod * cmath.exp(2j * math.pi * rng.random())
    return [SatakeClass(draw(), draw(), rng.choice([2, 3, 5, 7])) for _ in range(samples)]


def test_float_inverse_eigenvalues_keep_their_bits():
    # the identity command prints errors at the rounding level, so the float
    # lists must equal the x * (1 / y) expressions bit for bit
    for c in _identity_classes():
        a, b = c.alpha, c.beta
        assert repr(eigenvalues(RepTag.ADJOINT_CUBE, c)) == \
            repr([a * a * (1 / b), a, b, (1 / a) * b * b])
        assert repr(eigenvalues(RepTag.GJ_ADJOINT, c)) == repr([a * (1 / b), 1, (1 / a) * b])


def test_an_int_parameter_beside_a_cyclo_is_inverted_exactly():
    z = Cyclo.root_of_unity(1, 3)
    zz = Cyclo.root_of_unity(2, 3)
    for c, adjoint_cube, gj in (
            (SatakeClass(1, z, 2), [zz, 1, z, zz], [zz, 1, z]),
            (SatakeClass(z, 1, 2), [zz, z, 1, zz], [z, 1, zz]),
            (SatakeClass(Fraction(1), z, 2), [zz, 1, z, zz], [zz, 1, z])):
        for tag, want in ((RepTag.ADJOINT_CUBE, adjoint_cube), (RepTag.GJ_ADJOINT, gj)):
            got = eigenvalues(tag, c)
            assert got == want
            assert not any(isinstance(x, (float, complex)) for x in got)


_nonzero_rational = st.one_of(st.integers(-60, 60).filter(bool),
                              st.fractions(-60, 60, max_denominator=60).filter(bool))


@settings(max_examples=150, deadline=None)
@given(_nonzero_rational, _nonzero_rational, st.sampled_from([2, 3, 5, 7]))
@example(2, 3, 5)
@example(3, 7, 5)
@example(2, Fraction(3, 7), 5)
def test_rational_classes_check_exactly(alpha, beta, q):
    # an int parameter was inverted as a float, so these read 1.87e-16 (gj at
    # (2, 3)) and 1.74e-16 (twist at (3, 7))
    c = SatakeClass(alpha, beta, q)
    assert check_triple_identity(c) == 0.0
    assert check_twist_identity(c) == 0.0
    assert check_gj_identity(c) == 0.0
    for tag in (RepTag.ADJOINT_CUBE, RepTag.GJ_ADJOINT):
        assert not any(isinstance(x, (float, complex)) for x in eigenvalues(tag, c))


def test_is_prime_is_false_below_2():
    # in a fresh interpreter with a timeout: the Miller-Rabin loop never ended on 1
    code = ("from symcube.localfactor import is_prime; "
            "print([is_prime(n) for n in (-7, 0, 1, 2, 3)])")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=30, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout == "[False, False, False, True, True]\n"
