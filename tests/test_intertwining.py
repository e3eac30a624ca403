import cmath
import math
import random
import re
import sys
from fractions import Fraction
from fractions import Fraction as Q
from numbers import Integral, Rational

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcube import intertwining, satake
from symcube.cyclo import Cyclo
from symcube.g2root import POSITIVE_ROOTS, lambda_weight, pairing
from symcube.intertwining import (
    BOUNDARY, FORBIDDEN_VERTICES, LOWER, LOWER_VERTICES, MU_ORDER2,
    MU_TRIVIAL, OUTSIDE, UPPER, UPPER_VERTICES, IntertwiningPole,
    POLE_TOL, PrincipalParams, forbidden_triangle_contains,
    gk_coefficient, gk_pole_set, l_ratio, langlands_quotient_unitary,
    principal_series_pole_set, region_grid, region_membership,
    _cleared, _GK_TABLE, _p_value)
from symcube.localfactor import RepTag, eigenvalues
from symcube.satake import SatakeClass


def test_gk_equals_l_ratio_at_spec_point():
    p = PrincipalParams(1.0, 2, 0.1, 2.0)
    g, l = gk_coefficient(p), l_ratio(p)
    assert abs(g - l) <= 1e-12 * abs(l)


def test_gk_equals_l_ratio_seeded_samples():
    rng = random.Random(50)
    count = 0
    while count < 50:
        q = rng.choice([2, 3, 5])
        r = rng.uniform(0.01, 0.49)
        s = rng.uniform(0.05, 3.0)
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        mu = cmath.exp(2j * math.pi * rng.randrange(n) / n)
        p = PrincipalParams(mu, q, r, s)
        try:
            g = gk_coefficient(p)
            l = l_ratio(p)
        except IntertwiningPole:
            continue
        count += 1
        assert abs(g - l) < 1e-10 * max(abs(l), 1e-30)


def _table_pairing(name, r, s):
    c0, cr, cs, _ = _GK_TABLE[name]
    return c0 + cr * r + cs * s


@settings(max_examples=300, deadline=None)
@given(st.floats(), st.floats())
@example(-0.0, -0.0)   # the sign of a zero pairing shows the constant term's 0.0 +
def test_float_pairings_equal_the_affine_forms(r, s):
    # the integer table must round exactly as Fraction-times-float evaluation
    assert list(_GK_TABLE) == ["beta2", "beta3", "beta4", "beta5", "beta6"]
    for name in _GK_TABLE:
        form = pairing(lambda_weight(), POSITIVE_ROOTS[name])
        assert repr(_table_pairing(name, r, s)) == repr(form(r, s))


@settings(max_examples=300, deadline=None)
@given(st.fractions(), st.fractions())
def test_table_pairings_are_exact_on_rationals(r, s):
    for name in _GK_TABLE:
        t = _table_pairing(name, r, s)
        assert type(t) is Q
        assert t == pairing(lambda_weight(r, s), POSITIVE_ROOTS[name])


def _plain_gk(p):
    """The per-root product as evaluated before a huge q had its own form."""
    value = 1.0 + 0j
    mu, q = complex(p.mu), complex(p.q)
    for name, (c0, cr, cs, c6) in _GK_TABLE.items():
        t = c0 + cr * p.r + cs * p.s
        if t == 0 and p.mu ** c6 == 1:
            raise IntertwiningPole(name, t)
        chi, tc = mu ** c6, complex(t)
        den = 1.0 - chi * q ** (-tc)
        if abs(den) < POLE_TOL:
            raise IntertwiningPole(name, t)
        num = 1.0 - chi * q ** (-tc - 1)
        value *= num / den
    return value


_Q = st.one_of(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 25, 2 ** 61, 2 ** 1023, 3 ** 645]),
               st.builds(pow, st.sampled_from([2, 3, 5]), st.integers(1, 400)))


@settings(deadline=None, max_examples=400)
@given(_Q, st.integers(0, 11), st.integers(1, 23), st.sampled_from([1, 2, 3, 4, 6, 12]),
       st.integers(0, 11), st.floats(-1e-3, 1e-3))
@example(2 ** 1023, 11, 1, 1, 0, 0.0)   # q^(-t) overflows
@example(3 ** 600, 10, 1, 2, 1, 0.0)
@example(2 ** 1023, 6, 12, 1, 0, 0.0)   # an integer t: q^(-t) is NaN
def test_gk_is_bit_identical_wherever_the_plain_product_is_finite(q, i, j, order, k, jitter):
    """Only a q^(-t) past the float range (OverflowError) or the NaN of an
    underflowing integer power takes the other form; every other value keeps
    its bits."""
    mu = cmath.exp(2j * math.pi * k / order)
    p = PrincipalParams(mu, q, i / 24, j / 8 + jitter)
    try:
        want = _plain_gk(p)
    except IntertwiningPole as exc:
        with pytest.raises(IntertwiningPole) as got:
            gk_coefficient(p)
        assert got.value.root_name == exc.root_name
        return
    except OverflowError:
        want = None
    got = gk_coefficient(p)
    assert cmath.isfinite(got)
    if want is not None and not cmath.isnan(want):
        assert repr(got) == repr(want)


@pytest.mark.parametrize("q", [2 ** 1023, 3 ** 600])
def test_gk_takes_a_q_near_the_float_bound(q):
    """The CLI's --grid 12 points, against the product in 60-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    for i in range(1, 12):
        for j in range(1, 12):
            r, s = 0.5 * i / 12, 3.0 * j / 12
            try:
                got = gk_coefficient(PrincipalParams(1.0, q, r, s))
            except IntertwiningPole:
                continue
            want = mpmath.mpf(1)
            for c0, cr, cs, _ in _GK_TABLE.values():
                t = c0 + cr * mpmath.mpf(r) + cs * mpmath.mpf(s)
                want *= (1 - mpmath.mpf(q) ** (-t - 1)) / (1 - mpmath.mpf(q) ** (-t))
            if abs(want) > 1e-200:  # else the float product underflows on its way
                assert abs(got - complex(want)) <= 1e-12 * abs(want)


def test_contragredient_convention_is_pinned():
    # the L-ratio built on the contragredient class does NOT reproduce the
    # per-root product for generic mu; the shipped convention does
    mu = cmath.exp(2j * math.pi / 5)
    p = PrincipalParams(mu, 3, 0.17, 1.3)
    g = gk_coefficient(p)
    assert abs(g - l_ratio(p)) < 1e-12 * abs(g)
    # the same ratio on the contragredient class (mu q^{-r}, mu q^{r})^vee
    qr = p.q ** p.r
    cls = satake.contragredient(satake.SatakeClass(mu / qr, mu * qr, p.q))
    r30 = eigenvalues(RepTag.ADJOINT_CUBE, cls)
    w2 = eigenvalues(RepTag.WEDGE2, cls)
    s = complex(p.s)
    wrong = (_p_value(r30, p.q ** (-1 - s)) * _p_value(w2, p.q ** (-1 - 2 * s))
             / (_p_value(r30, p.q ** (-s)) * _p_value(w2, p.q ** (-2 * s))))
    assert abs(g - wrong) > 1e-3 * abs(g)


def test_gk_limit_large_s_is_one():
    p = PrincipalParams(1.0, 2, 0.1, 60.0)
    assert abs(gk_coefficient(p) - 1.0) < 1e-15


def test_gk_pole_flagged_at_beta6():
    with pytest.raises(IntertwiningPole) as err:
        gk_coefficient(PrincipalParams(1.0, 2, 0.1, 0.3))
    assert err.value.root_name == "beta6"


@pytest.mark.parametrize("mu, s", [(1.0, 0.0), (1.0, 0.1), (1.0, -0.3), (-1.0, 0.0)])
def test_l_ratio_refuses_its_poles(mu, s):
    # the L-ratio's denominator vanishes on the locus where gk_coefficient has a pole
    with pytest.raises(IntertwiningPole) as err:
        l_ratio(PrincipalParams(mu, 2, 0.1, s))
    assert err.value.root_name == "numerator-L-value" and err.value.pairing_value == s


def test_gk_exact_pole_decision():
    from symcube.cyclo import Cyclo
    # rational parameters exactly on the pole locus: decided without tolerance
    p = PrincipalParams(Cyclo.one(), 2, Q(1, 10), Q(3, 10))
    with pytest.raises(IntertwiningPole) as err:
        gk_coefficient(p)
    assert err.value.root_name == "beta6"
    assert err.value.pairing_value == 0
    # order-2 mu poles only at s = 0
    p = PrincipalParams(Cyclo.root_of_unity(1, 2), 3, Q(1, 10), Q(0))
    with pytest.raises(IntertwiningPole) as err:
        gk_coefficient(p)
    assert err.value.root_name == "beta4"
    val = gk_coefficient(PrincipalParams(Cyclo.root_of_unity(1, 2), 3,
                                         Q(1, 10), Q(3, 10)))
    assert abs(val) > 0


def test_gk_finite_at_tempered_s_one():
    p = PrincipalParams(1.0, 2, 0.0, 1.0)
    val = gk_coefficient(p)
    assert abs(val) > 0 and abs(val - l_ratio(p)) < 1e-12


def test_pole_sets():
    assert principal_series_pole_set(1, Q(1, 10)) == \
        {Q(1, 10), Q(-1, 10), Q(3, 10), Q(-3, 10), Q(0)}
    assert principal_series_pole_set(2, Q(1, 5)) == {Q(0)}
    assert principal_series_pole_set(5, Q(1, 5)) == set()
    assert principal_series_pole_set(1, Q(0)) == {Q(0)}
    with pytest.raises(ValueError):
        principal_series_pole_set(1, Q(3, 4))
    # an r past the float range raised OverflowError from float(r), and a
    # negative r that float() rounds to -0.0 was taken
    for r in (10 ** 400, -(10 ** 400), Q(10 ** 400, 7), Q(-1, 10 ** 400)):
        with pytest.raises(ValueError, match=r"^r must lie in \[0, 1/2\)"):
            principal_series_pole_set(1, r)


def test_pole_sets_match_per_root_derivation():
    rng = random.Random(60)
    samples = [Q(0), Q(1, 10), Q(1, 7), Q(2, 5)]
    samples += [Q(rng.randrange(0, 50), 100) for _ in range(30)]
    for r in samples:
        assert gk_pole_set(1, r) == principal_series_pole_set(1, r)
        assert gk_pole_set(2, r) == principal_series_pole_set(2, r)
    for order in (3, 4, 5, 7):
        assert gk_pole_set(order, Q(1, 10)) == set()
        assert principal_series_pole_set(order, Q(1, 10)) == set()


def test_gk_numerics_blow_up_near_pole():
    # |gk| grows without bound approaching s = 3r with mu = 1
    r = 0.1
    vals = [abs(gk_coefficient(PrincipalParams(1.0, 2, r, 3 * r + eps)))
            for eps in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e4


def test_unitarity_cases():
    mu_generic = cmath.exp(0.7j)
    mu_cubic = cmath.exp(2j * math.pi / 3)
    generic = SatakeClass(mu_generic, 1 / mu_generic, 3)
    cubic = SatakeClass(mu_cubic, 1 / mu_cubic, 3)
    one_minus_one = SatakeClass(1, -1.0, 3)

    assert not langlands_quotient_unitary(generic, 0.7)
    assert langlands_quotient_unitary(generic, 0.5)
    assert langlands_quotient_unitary(cubic, 1.0)
    assert not langlands_quotient_unitary(cubic, 0.9)
    assert langlands_quotient_unitary(cubic, 0.3)
    assert langlands_quotient_unitary(one_minus_one, 0.9)
    assert langlands_quotient_unitary(one_minus_one, 1.0)
    assert not langlands_quotient_unitary(one_minus_one, 1.5)
    assert not langlands_quotient_unitary(generic, 0.0)
    assert not langlands_quotient_unitary(generic, -0.3)

    with pytest.raises(ValueError):   # pi(1, i) is not self-dual
        langlands_quotient_unitary(SatakeClass(1, 1j, 3), 0.5)
    with pytest.raises(ValueError):   # self-dual but not tempered
        langlands_quotient_unitary(SatakeClass(3 ** 0.25, 3 ** -0.25, 3), 0.5)


MU_MUINV, ONE_MU = "mu-muinv", "one-mu"   # pi(mu, mu^-1), pi(1, mu)


def _table_unitary(mu, pair_form, s):
    """The principal-series rows of the case table that the reducibility rule
    replaced, kept as its reference."""
    s, mu = float(s), complex(mu)
    if pair_form == ONE_MU:
        if abs(mu + 1) > satake.DEFAULT_TOL:
            raise ValueError("pi(1, mu) case requires mu of order two")
        return 0 < s <= 1
    if abs(mu ** 3 - 1) <= satake.DEFAULT_TOL:
        return 0 < s <= 0.5 or s == 1
    return 0 < s <= 0.5


def _verdict(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return "refused"


# mu = e^{2 pi i k/n} for n <= 12, s over -1/4 ... 2 in steps of 1/12 and a
# few floats between the reducibility points
GRID_MU = [(k, n) for n in range(1, 13) for k in range(n)]
GRID_S = [Q(j, 12) for j in range(-3, 25)] + [0.3, 0.5, 0.7, 0.9, 1.0, 1.1, 1.5]


def _mu(k, n, exact):
    return Cyclo.root_of_unity(k, n) if exact else cmath.exp(2j * math.pi * k / n)


def _pair(mu, pair_form):
    return (mu, 1 / mu) if pair_form == MU_MUINV else (1, mu)


@pytest.mark.parametrize("exact", [False, True])
def test_unitarity_rule_reproduces_the_principal_series_table(exact):
    for k, n in GRID_MU:
        mu = _mu(k, n, exact)
        for pair_form in (MU_MUINV, ONE_MU):
            alpha, beta = _pair(mu, pair_form)
            # pi(1, 1) is the class pi(mu, mu^-1) at mu = 1, which the table
            # refused in its pi(1, mu) form only
            table_form = MU_MUINV if (k, pair_form) == (0, ONE_MU) else pair_form
            for s in GRID_S:
                want = _verdict(_table_unitary, mu, table_form, s)
                for c in (SatakeClass(alpha, beta, 5), SatakeClass(beta, alpha, 5)):
                    assert _verdict(langlands_quotient_unitary, c, s) == want, (k, n, pair_form, s)


@pytest.mark.parametrize("mu, pair_form, s, unitary", [
    (cmath.exp(2j * math.pi / 3), MU_MUINV, 1.0, True),
    (cmath.exp(-2j * math.pi / 3), MU_MUINV, 1.0, True),
    (1.0, MU_MUINV, 1.0, True),
    (cmath.exp(0.7j), MU_MUINV, 1.0, False),
    (-1.0, ONE_MU, 1.0, True),
    (-1.0, ONE_MU, 1.5, False),
])
def test_directly_built_principal_classes_read_their_order_from_mu(
        mu, pair_form, s, unitary):
    """A class built straight from its mu gets the verdict its mu implies."""
    c = SatakeClass(*_pair(mu, pair_form), 3)
    assert langlands_quotient_unitary(c, s) is unitary


def _float_grid_verdicts():
    return [_verdict(langlands_quotient_unitary, SatakeClass(*_pair(_mu(k, n, False), form), 5), s)
            for k, n in GRID_MU for form in (MU_MUINV, ONE_MU) for s in GRID_S]


@pytest.mark.parametrize("table, changes", [
    (((1, RepTag.ADJOINT_CUBE),), True),                            # drop r_2
    (((1, RepTag.WEDGE2), (2, RepTag.ADJOINT_CUBE)), True),         # swap r_1, r_2
    (((1, RepTag.SYM2), (2, RepTag.WEDGE2)), True),                 # sym^2 for r_1
    # sym^3 = adjoint cube (x) omega, and omega = +-1 on a self-dual class:
    # the eigenvalue 1 is in both lists or in neither, so this is no mutation
    (((1, RepTag.SYM3), (2, RepTag.WEDGE2)), False),
])
def test_each_mutation_of_the_reducibility_table_changes_a_verdict(monkeypatch, table, changes):
    shipped = _float_grid_verdicts()
    monkeypatch.setattr(intertwining, "_REDUCIBILITY", table)
    assert (_float_grid_verdicts() != shipped) is changes


def test_region_vertices_are_boundary():
    for vr, vs in UPPER_VERTICES + LOWER_VERTICES:
        assert region_membership(vr, vs) == BOUNDARY


def test_region_examples():
    assert region_membership(Q(1, 10), Q(4, 5)) == UPPER
    assert region_membership(Q(1, 20), Q(4, 5)) == OUTSIDE
    assert region_membership(Q(1, 20), Q(1, 4)) == LOWER
    assert region_membership(Q(1, 10), Q(4, 5), MU_ORDER2) == OUTSIDE
    assert region_membership(Q(1, 20), Q(1, 4), MU_ORDER2) == LOWER
    with pytest.raises(ValueError):
        region_membership(Q(1, 10), Q(1, 2), "order3")


def test_upper_triangle_interior_properties():
    # every interior point has 1/2 < s < 1 and 0 < r < 1/4
    rng = random.Random(61)
    found = 0
    while found < 200:
        r = Q(rng.randrange(0, 250), 1000)
        s = Q(rng.randrange(0, 1000), 1000)
        if region_membership(r, s) == UPPER:
            found += 1
            assert Q(1, 2) < s < 1
            assert 0 < r < Q(1, 4)
            assert not forbidden_triangle_contains(r, s)


def _barycentric_sample(rng, v0, v1, v2):
    a, b = rng.random(), rng.random()
    if a + b > 1:
        a, b = 1 - a, 1 - b
    c = 1 - a - b
    r = a * v0[0] + b * v1[0] + c * v2[0]
    s = a * v0[1] + b * v1[1] + c * v2[1]
    return r, s


def test_forbidden_triangle_membership():
    assert forbidden_triangle_contains(0.05, 0.8)
    assert not forbidden_triangle_contains(0.1, 0.8)
    for s in (0.55, 0.75, 0.95):
        assert not forbidden_triangle_contains(0.0, s)   # r = 0 edge excluded
    # barycentric oracle: strictly interior samples must test True
    rng = random.Random(62)
    v = [(float(a), float(b)) for a, b in FORBIDDEN_VERTICES]
    for _ in range(200):
        r, s = _barycentric_sample(rng, *v)
        if min(abs(r), abs(s - 0.5)) < 1e-9:
            continue
        inside = forbidden_triangle_contains(r, s)
        # independent barycentric check
        def cross(o, p, q):
            return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])
        signs = [cross(v[i], v[(i + 1) % 3], (r, s)) for i in range(3)]
        strict = all(x > 1e-12 for x in signs) or all(x < -1e-12 for x in signs)
        assert inside == strict


def test_upper_and_forbidden_disjoint_on_grid():
    n = 250
    for i in range(n):
        r = Q(i, 2 * (n - 1))
        for j in range(n):
            s = Q(j, n - 1)
            both = (region_membership(r, s) == UPPER
                    and forbidden_triangle_contains(r, s))
            assert not both


def _oracle_region(r, s, mu_case):
    """The docstring inequalities of region_membership in Fraction arithmetic."""
    r, s = Q(r), Q(s)
    upper_open = s + 3 * r > 1 and s + r < 1 and r > 0 and s - 3 * r > 0
    upper_closed = s + 3 * r >= 1 and s + r <= 1 and s - 3 * r >= 0
    lower_open = r > 0 and s < Q(1, 2) and s > 3 * r
    lower_closed = r >= 0 and s <= Q(1, 2) and s >= 3 * r
    if mu_case == MU_TRIVIAL and upper_open:
        return UPPER
    if lower_open:
        return LOWER
    if (mu_case == MU_TRIVIAL and upper_closed) or lower_closed:
        return BOUNDARY
    return OUTSIDE


def _oracle_forbidden(r, s):
    """Strict interior of (0,1), (1/6,1/2), (0,1/2): r > 0, s > 1/2, s + 3r < 1."""
    r, s = Q(r), Q(s)
    return r > 0 and s > Q(1, 2) and s + 3 * r < 1


# Fractions with small denominators land on edges and vertices; int and
# dyadic float coordinates (k/64, exact in binary) reach the float branch
# with float arithmetic that is exact, so the Fraction oracle applies to it.
COORDS = st.one_of(
    st.fractions(min_value=Q(-1, 2), max_value=Q(3, 2), max_denominator=12),
    st.integers(-1, 2),
    st.integers(-32, 96).map(lambda k: k / 64))
EDGES = (lambda r: 1 - 3 * r, lambda r: 1 - r, lambda r: 3 * r,
         lambda r: Q(1, 2) if isinstance(r, Q) else 0.5)


@st.composite
def rs_points(draw):
    r = draw(COORDS)
    if draw(st.booleans()):
        return r, draw(st.sampled_from(EDGES))(r)
    return r, draw(COORDS)


@settings(deadline=None, max_examples=400)
@given(rs_points())
def test_region_classifiers_match_the_inequalities(point):
    r, s = point
    for mu_case in (MU_TRIVIAL, MU_ORDER2):
        assert region_membership(r, s, mu_case) == _oracle_region(r, s, mu_case)
    assert forbidden_triangle_contains(r, s) == _oracle_forbidden(r, s)


class _Ratio:
    """A Rational by registration only: a numerator and a denominator."""

    def __init__(self, q):
        self.numerator, self.denominator = q.numerator, q.denominator

    def __float__(self):
        return self.numerator / self.denominator


Rational.register(_Ratio)


# bool, numpy integers and other Rationals are Rational through the ABC only,
# not by type, and must take the exact branch as well
ABC_RATIONALS = st.one_of(
    st.booleans(), st.integers(-1, 2).map(np.int64), st.integers(-1, 2).map(np.int32),
    st.fractions(min_value=Q(-1, 2), max_value=Q(3, 2), max_denominator=12).map(_Ratio))


@st.composite
def abc_rs_points(draw):
    point = (draw(ABC_RATIONALS), draw(st.one_of(ABC_RATIONALS, COORDS)))
    return point[::-1] if draw(st.booleans()) else point


@settings(deadline=None, max_examples=200)
@given(abc_rs_points())
def test_region_classifiers_take_bool_and_numpy_integers(point):
    r, s = point
    for mu_case in (MU_TRIVIAL, MU_ORDER2):
        assert region_membership(r, s, mu_case) == _oracle_region(r, s, mu_case)
    assert forbidden_triangle_contains(r, s) == _oracle_forbidden(r, s)
    exact = not isinstance(r, float) and not isinstance(s, float)
    assert all(isinstance(v, Integral) for v in _cleared(r, s)) == exact
    if exact:
        assert _cleared(r, s)[2] > 0
        assert _cleared(r, s) == _cleared(Q(r), Q(s))


def _inline_float_forms(r, s):
    """The float edge forms as written out before ``_forms`` was shared."""
    rf, sf = float(r), float(s)
    return sf + 3 * rf - 1.0, 1.0 - (sf + rf), sf - 3 * rf, rf, 1.0 - 2.0 * sf


# random floats, and boundary values that are rounded in binary
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [1 / 6, 0.5, 1 / 3, 1 / 4, 3 / 4, 2 / 3, 1 / 12, 1.0, 0.0, -0.0, 1 - 1 / 3, 1 - 3 / 6]))


@settings(deadline=None, max_examples=400)
@given(FLOATS, st.one_of(FLOATS, st.fractions(), st.integers(-3, 3)), st.booleans())
def test_float_forms_are_bit_identical_to_the_inline_expressions(x, y, swap):
    r, s = (y, x) if swap else (x, y)
    got = _cleared(r, s)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [float(r).hex(), float(s).hex(), (1.0).hex()]
    assert [v.hex() for v in _forms(*got)] == [v.hex() for v in _inline_float_forms(r, s)]


# --- the point classifiers before one-pass clearing, kept verbatim as the
# reference: five edge forms per point, then the class from their signs ---

_EXACT_TYPES = frozenset((int, Fraction))


def _forms(R, S, D):
    """The five edge forms ``(a, b, d, r, half)`` at (R/D, S/D), times D > 0.

    a = s+3r-1, b = 1-(s+r), d = s-3r, r = r, half = 1-2s (twice 1/2-s).
    For integer R, S, D each entry is an integer with the sign of its form.
    """
    return S + 3 * R - D, D - (S + R), S - 3 * R, R, D - 2 * S


def _sign_values(r, s):
    """The five edge forms at (r, s), sign-exactly for rational input.

    Rational (r, s) are cleared to the common denominator of r and s, so each
    entry is an integer with the sign of its form; other input gives floats.
    int and Fraction are read by ``as_integer_ratio()``, one call each; other
    Rationals (bool, numpy integers) go through the ABC check and the
    numerator and denominator properties.
    """
    if type(r) in _EXACT_TYPES and type(s) in _EXACT_TYPES:
        rn, rd = r.as_integer_ratio()
        sn, sd = s.as_integer_ratio()
    elif isinstance(r, Rational) and isinstance(s, Rational):
        rn, rd, sn, sd = r.numerator, r.denominator, s.numerator, s.denominator
    else:
        return _forms(float(r), float(s), 1.0)
    return _forms(rn * sd, sn * rd, rd * sd)


def _upper_applies(mu_case: str) -> bool:
    if mu_case not in (MU_TRIVIAL, MU_ORDER2):
        raise ValueError("mu_case must be trivial or order2")
    return mu_case == MU_TRIVIAL


def _classify(a, b, d, rr, half, upper):
    """The region class from the signs of the edge forms; see region_membership."""
    if upper and a > 0 and b > 0 and d > 0 and rr > 0:
        return UPPER
    if rr > 0 and half > 0 and d > 0:
        return LOWER
    # closed upper triangle: a >= 0, b >= 0, d >= 0 (r >= 0 follows)
    if upper and a >= 0 and b >= 0 and d >= 0 and (a == 0 or b == 0 or d == 0):
        return BOUNDARY
    # closed lower triangle: r >= 0, s <= 1/2, s >= 3r
    if rr >= 0 and half >= 0 and d >= 0 and (rr == 0 or half == 0 or d == 0):
        return BOUNDARY
    return OUTSIDE


def _reference_membership(r, s, mu_case):
    upper = _upper_applies(mu_case)
    return _classify(*_sign_values(r, s), upper)


def _reference_forbidden(r, s):
    a, _, _, rr, half = _sign_values(r, s)
    return rr > 0 and half < 0 and a < 0


def _outcome(f, *args):
    """f's result, or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)


# points on the edges and vertices, and a step of 1/10^k off them either way
_CORNERS = [v for tri in (UPPER_VERTICES, LOWER_VERTICES, FORBIDDEN_VERTICES) for v in tri]
NEAR_EDGES = st.builds(
    lambda point, k, dr, ds: (point[0] + dr * Q(1, 10 ** k), point[1] + ds * Q(1, 10 ** k)),
    st.one_of(st.sampled_from(_CORNERS), rs_points().filter(
        lambda p: all(type(v) is Q for v in p))),
    st.integers(1, 30), st.integers(-1, 1), st.integers(-1, 1))


class _FractionSubclass(Fraction):
    """Not ``type(x) is Fraction``: the classifiers clear it through _cleared."""


ANY_COORD = st.one_of(
    COORDS, ABC_RATIONALS, FLOATS, st.floats(-2, 2),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, None]),
    st.integers(400, 500).map(lambda k: Q(10 ** k, 3)),   # past the float range
    st.fractions(), st.integers(), st.fractions().map(_FractionSubclass))
# one int and one Fraction, either way round: the fallback beside the fast path
INT_FRACTION_MIXES = st.builds(lambda i, q, swap: (q, i) if swap else (i, q),
                               st.integers(), st.fractions(), st.booleans())


@settings(deadline=None, max_examples=600)
@given(st.one_of(NEAR_EDGES, rs_points(), abc_rs_points(), INT_FRACTION_MIXES,
                 st.tuples(ANY_COORD, ANY_COORD)))
@example((Q(10 ** 400, 3), 0.25))
@example((_FractionSubclass(1, 10), Q(1, 2)))
@example((Q(1, 12), _FractionSubclass(1, 2)))
@example((0, Q(1, 3)))
@example((Q(1, 7), 1))
@example((Q(-10 ** 400, 3), Q(10 ** 400, 7)))
@example((0.25, Q(-10 ** 400, 7)))
@example((math.nan, Q(1, 4)))
@example((-0.0, 0.0))
@example((True, np.int64(1)))
@example((np.int64(0), 10 ** 400))
@example((Q(-10 ** 400, 3), np.int32(2)))
def test_point_classifiers_equal_the_five_form_reference(point):
    """Same result, or the same exception type, as the reference.  The one
    exception: the reference raised OverflowError at a rational point where a
    numpy integer met an int past 64 bits; there the exact answer is given."""
    r, s = point
    exact = isinstance(r, Rational) and isinstance(s, Rational)

    def check(got, want, oracle):
        if exact and want is OverflowError:
            assert got == oracle(*(Q(int(v.numerator), int(v.denominator)) for v in point))
        else:
            assert got == want

    for mu_case in (MU_TRIVIAL, MU_ORDER2):
        check(_outcome(region_membership, r, s, mu_case),
              _outcome(_reference_membership, r, s, mu_case),
              lambda r, s: _oracle_region(r, s, mu_case))
    check(_outcome(forbidden_triangle_contains, r, s), _outcome(_reference_forbidden, r, s),
          _oracle_forbidden)


def test_fraction_keeps_the_slots_the_classifiers_read():
    """region_membership and forbidden_triangle_contains read these two slots
    of an exact Fraction in place of as_integer_ratio(); a Python that renames
    them fails here."""
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.fractions(), st.integers(-10 ** 400, 10 ** 400),
                 st.builds(Q, st.integers(-10 ** 400, 10 ** 400), st.integers(1, 10 ** 400))))
@example(Q(-1, 3))
@example(Q(-10 ** 400, 7))
def test_fraction_slots_hold_its_integer_ratio(value):
    f = Q(value)
    assert (f._numerator, f._denominator) == f.as_integer_ratio()
    assert type(f._numerator) is int and type(f._denominator) is int


@pytest.mark.parametrize("r", [Q(1, 10), 0.1, None, "r", object()])
def test_unknown_mu_case_is_refused_before_the_point_is_read(r):
    with pytest.raises(ValueError):
        region_membership(r, Q(1, 2), "order3")


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 60))
@example(1)
@example(2)
@example(200)
def test_region_grid_equals_the_point_classifiers(n):
    step = max(n - 1, 1)
    points = [(Q(i, 2 * step), Q(j, step)) for i in range(n) for j in range(n)]
    for mu_case in (MU_TRIVIAL, MU_ORDER2):
        assert region_grid(n, mu_case) == [
            (region_membership(r, s, mu_case), forbidden_triangle_contains(r, s))
            for r, s in points]


@given(st.integers(1, 10**6), st.integers(1, 10**6), st.data())
def test_points_below_s_equals_3r_are_outside_and_not_forbidden(D, R, data):
    # region_grid answers (outside, False) for these without classifying them;
    # R = 0 leaves no S with 0 <= S < 3R
    S = data.draw(st.integers(0, 3 * R - 1))
    assert intertwining._classify(R, S, D, True) == OUTSIDE
    assert intertwining._classify(R, S, D, False) == OUTSIDE
    assert not forbidden_triangle_contains(Q(R, D), Q(S, D))


def test_region_grid_refuses_an_empty_grid_and_an_unknown_mu_case():
    with pytest.raises(ValueError):
        region_grid(0)
    with pytest.raises(ValueError):
        region_grid(3, "order3")


def test_region_classifiers_match_the_inequalities_at_the_vertices():
    for r, s in UPPER_VERTICES + LOWER_VERTICES + FORBIDDEN_VERTICES:
        for mu_case in (MU_TRIVIAL, MU_ORDER2):
            assert region_membership(r, s, mu_case) == _oracle_region(r, s, mu_case)
        assert forbidden_triangle_contains(r, s) == _oracle_forbidden(r, s)


def test_principal_params_validation():
    with pytest.raises(ValueError):
        PrincipalParams(1.0, 1, 0.1, 1.0)
    with pytest.raises(ValueError):
        PrincipalParams(1.0, 2, 0.6, 1.0)
    with pytest.raises(ValueError):
        PrincipalParams(2.0, 2, 0.1, 1.0)


@pytest.mark.parametrize("mu, s, field", [
    (math.nan, 1.0, "mu"), (complex(math.nan, 0.0), 1.0, "mu"), (math.inf, 1.0, "mu"),
    (1.0, math.inf, "s"), (1.0, -math.inf, "s"), (1.0, math.nan, "s"),
    (1.0, complex(0.3, math.nan), "s"), (1.0, 10 ** 400, "s"), (1.0, -(10 ** 400), "s"),
    (1.0, Fraction(10 ** 400, 3), "s"), (10 ** 400, 1.0, "mu"), (-(10 ** 400), 1.0, "mu"),
])
def test_principal_params_refuse_non_finite_mu_and_s(mu, s, field):
    # at s = +-inf gk_coefficient read 1 and l_ratio NaN; a NaN mu passed |mu| = 1;
    # an s or mu beyond the float range raised OverflowError from complex()
    with pytest.raises(ValueError, match=rf"^\|?{field}\b"):
        PrincipalParams(mu, 2, 0.1, s)


@pytest.mark.parametrize("q, r, match", [
    (2 ** 1100, 0.1, "q is beyond the float range"), (3 ** 700, 0.1, "q is beyond the float range"),
    (2, 10 ** 400, r"r must lie in \[0, 1/2\)"), (2, -(10 ** 400), r"r must lie in \[0, 1/2\)"),
    (2, Fraction(10 ** 400, 3), r"r must lie in \[0, 1/2\)"),
    (2, Fraction(-1, 10 ** 400), r"r must lie in \[0, 1/2\)"),
])
def test_principal_params_refuse_a_huge_q_and_test_r_exactly(q, r, match):
    # a q past the float range built, and gk_coefficient and l_ratio then raised
    # OverflowError; an r past it raised OverflowError from float(r), and a
    # negative r that float() rounds to -0.0 was taken
    with pytest.raises(ValueError, match="^" + match):
        PrincipalParams(1.0, q, r, 1.0)


def test_an_r_that_floats_to_one_half_is_inside_the_range():
    # the range test is exact: 1/2 - 10^-30 lies in [0, 1/2), though float() gives 0.5
    r = Fraction(1, 2) - Fraction(1, 10 ** 30)
    p = PrincipalParams(1.0, 2, r, 1.0)
    assert cmath.isfinite(gk_coefficient(p))
    assert principal_series_pole_set(1, r) == gk_pole_set(1, r)


def test_a_q_that_rounds_to_the_largest_float_is_kept():
    # float(q) rounds to the largest float, so both routes still run
    q = int(sys.float_info.max) + 1
    p = PrincipalParams(1.0, q, 0.1, 1.0)
    assert cmath.isfinite(gk_coefficient(p))


def reference_l_ratio(p):
    """The earlier l_ratio body: each P-value a product from 1.0 + 0j, no refusal."""
    def p_value(eigen, t):
        value = 1.0 + 0j
        for lam in eigen:
            value *= 1 - lam * t
        return value
    mu = complex(p.mu)
    qr = float(p.q) ** float(p.r)
    cls = SatakeClass(mu / qr, mu * qr, p.q)
    r30 = eigenvalues(RepTag.ADJOINT_CUBE, cls)
    w2 = eigenvalues(RepTag.WEDGE2, cls)
    s = complex(p.s)
    den = p_value(r30, p.q ** (-s)) * p_value(w2, p.q ** (-2 * s))
    if abs(den) < POLE_TOL:
        raise IntertwiningPole("numerator-L-value", p.s)
    return p_value(r30, p.q ** (-1 - s)) * p_value(w2, p.q ** (-1 - 2 * s)) / den


_OUT_OF_RANGE = [(2, -400), (2, -500), (2 ** 1023, 2.5), (2 ** 1023, -50),
                 (5, -400), (5, -1e300)]


@pytest.mark.parametrize("q, s", _OUT_OF_RANGE)
def test_l_ratio_refuses_a_ratio_beyond_the_float_range(q, s):
    # these read (nan+nanj) or raised OverflowError; the per-root product is finite
    p = PrincipalParams(1.0, q, 0.1, s)
    assert cmath.isfinite(gk_coefficient(p))
    with pytest.raises(ValueError, match=re.escape(f"q = {q:.6g}, s = {s!r}")):
        l_ratio(p)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([2, 3, 5, 7, 3 ** 600, 2 ** 1023]),
       r=st.floats(0, 0.49), s=st.floats(-1e4, 1e4), order=st.integers(1, 12),
       k=st.integers(0, 11))
@example(q=2, r=0.1, s=2.5, order=1, k=0)
def test_l_ratio_keeps_every_finite_value_and_refuses_the_rest(q, r, s, order, k):
    p = PrincipalParams(cmath.exp(2j * math.pi * (k % order) / order), q, r, s)
    try:
        want = reference_l_ratio(p)
    except IntertwiningPole:
        with pytest.raises(IntertwiningPole):
            l_ratio(p)
        return
    except OverflowError:
        want = cmath.nan
    if cmath.isfinite(want):
        assert repr(l_ratio(p)) == repr(want)
    else:
        with pytest.raises(ValueError, match="leaves the float range"):
            l_ratio(p)

