"""Unramified constant-term calculus and unitarity regions in the rs-plane.

The intertwining coefficient is computed two independent ways: as a per-root
product over the five roots inverted by the parabolic Weyl element, and as a
ratio of local L-values built in ``localfactor``.  The module's central
contract is that the two closed forms agree identically.

Convention note: the per-root factor is (1 - chi q^{-t-1}) / (1 - chi q^{-t})
with t the coroot pairing of the parameter weight, which is the orientation
whose poles (vanishing denominators) land exactly on the known reducibility
locus {mu = 1, s in {+-r, +-3r}} or {mu^2 = 1, s = 0}.  Matching the L-ratio
requires building it from the Satake class (mu q^{-r}, mu q^{r}) itself, not
its contragredient; both orientations were tried and this is the one that
agrees identically (see tests).

Each inverted root b contributes one row (c0, cr, cs, c6) of integers: the
pairing t_b = c0 + cr*r + cs*s and the character chi_b = mu^c6.  One loop
serves every scalar type of (mu, r, s): a factor is a pole when t_b == 0 and
mu^c6 == 1 hold exactly, or else when its denominator is below POLE_TOL.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from numbers import Rational
from typing import Set

from . import satake as sk
from .g2root import (ROOT_NAMES, RootVector, coroot_decomposition, inverted_roots,
                     lambda_weight, pairing, parabolic_weyl_element)
from .localfactor import RepTag, eigenvalues
from .satake import Record, set_field


def _gk_row(beta: RootVector):
    """(c0, cr, cs, c6): the pairing t_b = c0 + cr*r + cs*s and chi_b = mu^c6."""
    form = pairing(lambda_weight(), beta)
    coeffs = (form.const, form.r_coeff, form.s_coeff)
    assert all(c.denominator == 1 for c in coeffs)
    return (*map(int, coeffs), coroot_decomposition(beta)[1])


# one row per root the parabolic Weyl element inverts, by name (product order
# beta2 ... beta6); integer coefficients: c0 + cr*r + cs*s is exact on rational
# (r, s) and, on float (r, s), rounds as the Fraction-coefficient form does
_GK_TABLE = {ROOT_NAMES[b]: _gk_row(b)
             for b in sorted(inverted_roots(parabolic_weyl_element()), key=ROOT_NAMES.get)}

POLE_TOL = 1e-10


class PrincipalParams(Record):
    """Unramified principal-series datum (mu, q, r, s)."""

    def __init__(self, mu: complex, q: int, r: float, s: complex):
        set_field(self, "mu", mu)
        set_field(self, "q", q)
        set_field(self, "r", r)
        set_field(self, "s", s)
        if self.q < 2:
            raise ValueError("q must be >= 2")
        _in_float_range(float, self.q, "q")  # both routes compute with a float q
        if not 0 <= self.r < 0.5:  # exact: no rounding, no overflow, NaN refused
            raise ValueError("r must lie in [0, 1/2)")
        if not abs(abs(_in_float_range(complex, self.mu, "mu")) - 1.0) <= 1e-8:  # NaN too
            raise ValueError(f"|mu| must be 1, got mu = {self.mu!r}")
        if not cmath.isfinite(_in_float_range(complex, self.s, "s")):
            raise ValueError(f"s must be finite, got s = {self.s!r}")


def _in_float_range(convert, value, name: str):
    """convert(value), for convert float or complex; a value beyond the float
    range raises ValueError naming it, in place of OverflowError."""
    try:
        return convert(value)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None


class IntertwiningPole(ArithmeticError):
    """Raised when the assembled coefficient has a pole at the parameters."""

    def __init__(self, root_name: str, pairing_value):
        self.root_name = root_name
        self.pairing_value = pairing_value
        super().__init__(
            f"pole from root {root_name}: 1 - chi q^(-t) vanishes at t = {pairing_value}")


def gk_coefficient(p: PrincipalParams) -> complex:
    """Per-root product of (1 - chi_b q^{-t_b - 1}) / (1 - chi_b q^{-t_b}).

    t_b runs over the coroot pairings of the parameter weight with the five
    inverted roots.  A vanishing denominator factor raises IntertwiningPole
    naming the offending root.  Root by root, the pole test is first exact,
    t_b == 0 and mu^c6 == 1 in the rings of (r, s) and mu (decisive for a
    root-of-unity mu and rational r, s), then a denominator below POLE_TOL in
    modulus.  A root whose q^(-t) overflows (a huge q) takes the factor in
    the equal form (q^t - chi q^-1) / (q^t - chi).
    """
    value = 1.0 + 0j
    mu, q = complex(p.mu), complex(p.q)
    for name, (c0, cr, cs, c6) in _GK_TABLE.items():
        t = c0 + cr * p.r + cs * p.s
        if t == 0 and p.mu ** c6 == 1:
            raise IntertwiningPole(name, t)
        chi, tc = mu ** c6, complex(t)
        try:
            den = 1.0 - chi * _power(q, -tc)
        except OverflowError:   # q^(-t) past the float range: take the factor
            qt = _power(q, tc)  # as (q^t - chi q^-1) / (q^t - chi), near q^-1
            value *= (qt - chi / q) / (qt - chi)
            continue
        if abs(den) < POLE_TOL:
            raise IntertwiningPole(name, t)
        num = 1.0 - chi * _power(q, -tc - 1)
        value *= num / den
    return value


def _power(q: complex, x: complex) -> complex:
    """q ** x, or 0 where q^x underflows but Python's integer-exponent route
    (1 / q^|x|, with q^|x| past the float range) gives NaN."""
    value = q ** x
    return value if value == value or x != x else 0j


def l_ratio(p: PrincipalParams) -> complex:
    """L(s,r30) L(2s,wedge2) / [L(1+s,r30) L(1+2s,wedge2)] at the class of p.

    The class used is (mu q^{-r}, mu q^{r}), not its contragredient (see the
    module docstring).  A denominator below POLE_TOL in modulus raises
    IntertwiningPole, a ratio that is not finite in floats ValueError.
    """
    mu = complex(p.mu)
    qr = float(p.q) ** float(p.r)
    cls = sk.SatakeClass(mu / qr, mu * qr, p.q)
    r30 = eigenvalues(RepTag.ADJOINT_CUBE, cls)
    w2 = eigenvalues(RepTag.WEDGE2, cls)
    s = complex(p.s)
    try:
        # L(s) = 1/P(q^{-s}); the assembled ratio is a quotient of P-values
        den = _p_value(r30, p.q ** (-s)) * _p_value(w2, p.q ** (-2 * s))
        if abs(den) < POLE_TOL:
            raise IntertwiningPole("numerator-L-value", p.s)
        num = _p_value(r30, p.q ** (-1 - s)) * _p_value(w2, p.q ** (-1 - 2 * s))
        ratio = num / den
    except OverflowError:
        ratio = cmath.nan
    if not cmath.isfinite(ratio):
        raise ValueError(f"L-ratio at q = {p.q:.6g}, s = {p.s!r} leaves the float range")
    return ratio


def _p_value(eigen, t: complex) -> complex:
    """P(t) = prod (1 - lambda t), kept as a product.

    Near the pole locus a factor 1 - lambda t is small; the expanded
    polynomial evaluated by Horner loses that factor's relative accuracy to
    cancellation, the product keeps it.
    """
    value = 1
    for lam in eigen:
        value *= 1 - lam * t
    return value


def principal_series_pole_set(mu_order, r) -> Set:
    """Real pole locus of the intertwining coefficient at complementary data.

    mu trivial: {+-r, +-3r, 0}; mu of exact order 2: {0}; otherwise empty.
    Exact Fractions in, exact Fractions out.
    """
    if not 0 <= r < 0.5:
        raise ValueError("r must lie in [0, 1/2)")
    if mu_order == 1:
        return {r, -r, 3 * r, -3 * r, 0 * r}
    if mu_order == 2:
        return {0 * r}
    return set()


def gk_pole_set(mu_order, r) -> Set:
    """Pole locus re-derived root by root from the per-root product.

    For each inverted root, the denominator 1 - chi_b q^{-t_b} vanishes at a
    real s exactly when chi_b = 1 and t_b = 0; solving c0 + cr*r + cs*s = 0
    for s gives the locus, as Fractions.  Independent route used to
    cross-check principal_series_pole_set.
    """
    return {-(c0 + cr * Fraction(r)) / cs
            for c0, cr, cs, c6 in _GK_TABLE.values()
            if c6 % mu_order == 0}  # else chi_b = mu^c6 != 1


# --- unitarity of the degenerate-quotient family --------------------------

# (i, r_i): s = 1/i is a reducibility point of I(s, pi) when r_i has the
# eigenvalue 1 at the class of pi (r_1 the adjoint cube, r_2 = omega)
_REDUCIBILITY = ((1, RepTag.ADJOINT_CUBE), (2, RepTag.WEDGE2))


def langlands_quotient_unitary(c: sk.SatakeClass, s) -> bool:
    """Unitarity of the Langlands quotient of I(s, pi) at real s.

    By Shahidi's rule (Ann. of Math. 132, 1990) s = 1/i > 0 is a reducibility
    point exactly when L(1 - is, pi, r_i) has a pole, that is when r_i has the
    eigenvalue 1 at the class c, and the complementary series runs up to the
    first such point.  The quotient is unitary on (0, first point] and, by the
    paper's theorem, at each further point: for pi(mu, mu^{-1}) this is
    (0, 1/2], and also s = 1 when mu^3 = 1; for pi(1, mu) with mu of order two
    it is (0, 1].  A class that is not tempered, or not self-dual (it has no
    complementary series), raises ValueError.
    """
    if not sk.is_tempered(c) or not c.same_class(sk.contragredient(c)):
        raise ValueError("the reducibility rule needs a tempered self-dual class")
    points = [Fraction(1, i) for i, tag in _REDUCIBILITY
              if any(abs(complex(lam) - 1) <= sk.DEFAULT_TOL
                     for lam in eigenvalues(tag, c))]
    return 0 < s <= min(points, default=0) or s in points


# --- rs-plane regions ------------------------------------------------------

UPPER = "upper-triangle"
LOWER = "lower-triangle"
BOUNDARY = "boundary"
OUTSIDE = "outside"

MU_TRIVIAL = "trivial"
MU_ORDER2 = "order2"

UPPER_VERTICES = ((Fraction(1, 6), Fraction(1, 2)),
                  (Fraction(1, 4), Fraction(3, 4)),
                  (Fraction(0), Fraction(1)))
LOWER_VERTICES = ((Fraction(0), Fraction(1, 2)),
                  (Fraction(1, 6), Fraction(1, 2)),
                  (Fraction(0), Fraction(0)))
FORBIDDEN_VERTICES = ((Fraction(0), Fraction(1)),
                      (Fraction(1, 6), Fraction(1, 2)),
                      (Fraction(0), Fraction(1, 2)))


def _cleared(r, s):
    """``(R, S, D)`` with r = R/D, s = S/D and D > 0.

    Rational (r, s), ints and Fractions alike, are cleared to their common
    denominator as ints (so a numpy integer beside a huge int does not
    overflow), and each edge form, times D, is an integer with the sign of
    its form; other input gives ``(float(r), float(s), 1.0)``.  The
    classifiers clear a point of two exact Fractions inline.
    """
    if not (isinstance(r, Rational) and isinstance(s, Rational)):
        return float(r), float(s), 1.0
    rn, rd, sn, sd = map(int, (r.numerator, r.denominator, s.numerator, s.denominator))
    return rn * sd, sn * rd, rd * sd


def _classify(R, S, D, upper):
    """The region class of (R/D, S/D), D > 0; see region_membership.

    Edge forms times D: d = s-3r, a = s+3r-1, b = 1-(s+r), half = 1-2s
    (twice 1/2-s), and r itself.  Each class lies in d >= 0.
    """
    d = S - 3 * R
    if not d >= 0:  # NaN too
        return OUTSIDE
    if upper:
        a, b = S + 3 * R - D, D - (S + R)
        if a > 0 and b > 0 and d > 0 and R > 0:
            return UPPER
    half = D - 2 * S
    if R > 0 and half > 0 and d > 0:
        return LOWER
    # closed upper triangle: a >= 0, b >= 0, d >= 0 (r >= 0 follows)
    if upper and a >= 0 and b >= 0 and (a == 0 or b == 0 or d == 0):
        return BOUNDARY
    # closed lower triangle: r >= 0, s <= 1/2, s >= 3r
    if R >= 0 and half >= 0 and (R == 0 or half == 0 or d == 0):
        return BOUNDARY
    return OUTSIDE


def region_membership(r, s, mu_case: str = MU_TRIVIAL) -> str:
    """Classify (r, s) against the unitary triangles of the rs-plane.

    Upper triangle (mu trivial only), open: s+3r > 1, s+r < 1, r > 0, s-3r > 0;
    vertices (1/6,1/2), (1/4,3/4), (0,1).  Lower triangle (both mu cases),
    open: r > 0, s < 1/2, s > 3r; vertices (0,1/2), (1/6,1/2), (0,0).
    Points on the edges of an applicable closed triangle classify as boundary.
    """
    if mu_case not in (MU_TRIVIAL, MU_ORDER2):
        raise ValueError("mu_case must be trivial or order2")
    if type(r) is Fraction and type(s) is Fraction:  # cleared here, as _cleared would
        rd, sd = r._denominator, s._denominator
        R, S, D = r._numerator * sd, s._numerator * rd, rd * sd
    else:
        R, S, D = _cleared(r, s)
    return _classify(R, S, D, mu_case == MU_TRIVIAL)


def forbidden_triangle_contains(r, s) -> bool:
    """Strict interior of the triangle (0,1), (1/6,1/2), (0,1/2).

    Its inside meets no unitary region: edges r = 0, s = 1/2 shifted, and the
    line s = 1 - 3r shared with the upper triangle, so the two are disjoint.
    """
    if type(r) is Fraction and type(s) is Fraction:  # cleared here, as _cleared would
        rd, sd = r._denominator, s._denominator
        R, S, D = r._numerator * sd, s._numerator * rd, rd * sd
    else:
        R, S, D = _cleared(r, s)
    return R > 0 and D - 2 * S < 0 and S + 3 * R - D < 0


def region_grid(n: int, mu_case: str = MU_TRIVIAL) -> list:
    """``(region_membership, forbidden_triangle_contains)`` on the n x n grid.

    The points are r = i/2(n-1), s = j/(n-1) for 0 <= i, j < n, row-major
    (r outer); a one-point grid is the origin.  Every point has the common
    denominator 2(n-1), so the forms are evaluated in integers.
    """
    if n < 1:
        raise ValueError(f"grid size must be >= 1, got {n}")
    if mu_case not in (MU_TRIVIAL, MU_ORDER2):
        raise ValueError("mu_case must be trivial or order2")
    upper = mu_case == MU_TRIVIAL
    den = 2 * max(n - 1, 1)
    # (R/den, S/den) = (i/2(n-1), j/(n-1)); the second entry is forbidden_triangle_contains.
    # S < 3R is (outside, False): _classify's d = S - 3R < 0, and forbidden needs
    # 2S > den > S + 3R, but S + 3R > 2S there.  That is each row's first k points.
    out = []
    for R in range(n):
        k = min(n, (3 * R + 1) // 2)
        out += [(OUTSIDE, False)] * k
        out += [(_classify(R, S, den, upper), R > 0 and den - 2 * S < 0 and S + 3 * R - den < 0)
                for S in range(2 * k, 2 * n, 2)]
    return out
