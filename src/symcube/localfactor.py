"""Local L-factors as reciprocal polynomials in T = q^{-s}.

Every factor is stored through the polynomial P(T) = prod_i (1 - lambda_i T)
over its eigenvalue list, so the local L-value is 1/P(q^{-s}) and
factorization identities become exact polynomial equalities, checked
coefficientwise.  Coefficients live in the scalar ring of the parameters:
complex doubles, exact Cyclo values when the Satake parameters are roots of
unity, or any commutative ring whose values take int operands; the ring's 1
and 0 are the ints 1 and 0.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from fractions import Fraction
from typing import Sequence

from .satake import Record, SatakeClass, inverse, set_field, twist


class RepTag(enum.Enum):
    STANDARD = "standard"
    SYM2 = "sym2"
    SYM3 = "sym3"
    ADJOINT_CUBE = "adjoint-cube"
    WEDGE2 = "wedge2"
    GJ_ADJOINT = "gj-adjoint"
    TRIPLE = "triple"


# for eigenvalues(): on Python 3.11 a RepTag.X lookup costs several global reads
_STANDARD, _SYM2, _SYM3, _ADJOINT_CUBE, _WEDGE2, _GJ_ADJOINT, _TRIPLE = RepTag


def primes_upto(n: int) -> list:
    """The primes p <= n in ascending order (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return list(itertools.compress(range(n + 1), sieve))


# Miller-Rabin with the first 13 prime bases decides every n below this bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 2 <= n < MR_BOUND."""
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def poly_mul(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_from_eigenvalues(eigen: Sequence) -> list:
    """Coefficients of prod (1 - e T), in the order given, one factor 1 + m T
    (m = -e) at a time, in place: a new top 0 + c_d m, then c_k + c_{k-1} m from
    the top down, so no product by the 1 and no coefficient is a negative zero."""
    coeffs = [1]
    for e in eigen:
        m = -e
        coeffs.append(0 + coeffs[-1] * m)
        for k in range(len(coeffs) - 2, 0, -1):
            coeffs[k] = coeffs[k] + coeffs[k - 1] * m
    return coeffs


class ReciprocalPoly(Record):
    """Dense polynomial P(T) with P(0) = 1; the local factor is 1/P."""

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("empty coefficient list")
        if coeffs[0] != 1:
            raise ValueError("constant coefficient must be 1")
        set_field(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_complex(self) -> "ReciprocalPoly":
        return ReciprocalPoly([complex(c) for c in self.coeffs])

    def evaluate(self, t: complex) -> complex:
        val = 0j
        for c in reversed(self.coeffs):
            val = val * t + complex(c)
        return val

    def __mul__(self, other: "ReciprocalPoly") -> "ReciprocalPoly":
        return ReciprocalPoly(poly_mul(self.coeffs, other.coeffs))

    def max_coeff_diff(self, other: "ReciprocalPoly") -> float:
        """Largest coefficient discrepancy, scaled by the largest coefficient.

        The scaling keeps the tolerance meaningful away from the unitary
        locus: with parameters bounded by B the coefficients themselves grow
        like B^(3 deg), far past any fixed absolute tolerance.  Equal
        exact-mode polynomials return exactly 0.0; unequal ones with a
        coefficient that is not finite return NaN.  Past the float range, int
        and Fraction coefficients give the exact ratio, rounded once; a Cyclo
        one raises OverflowError.
        """
        pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        if all(x == y for x, y in pairs):
            return 0.0
        try:
            return _max_scaled_diff(self.coeffs, other.coeffs, 1.0)
        except OverflowError:  # a finite modulus or difference past the float range
            both = self.coeffs + other.coeffs
            if all(type(c) in (int, Fraction) for c in both):
                pairs = itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
                return float(max(abs(x - y) for x, y in pairs) / max(1, *map(abs, both)))
            # the ratio is scale-free, and a quarter of each value keeps all in range
            return _max_scaled_diff([complex(c) / 4 for c in self.coeffs],
                                    [complex(c) / 4 for c in other.coeffs], 0.25)


def _max_scaled_diff(a, b, scale: float) -> float:
    """max |x - y| / max(scale, |x|, |y|) over the padded coefficient pairs:
    NaN where a coefficient is not finite, and OverflowError where finite
    ones give a modulus or difference past the float range."""
    worst = 0.0
    for x, y in itertools.zip_longest(a, b, fillvalue=0):
        xc, yc = complex(x), complex(y)
        diff = abs(xc - yc)
        # max() passes over a NaN; a part that is not finite makes diff
        # inf or NaN, as does a difference past the float range
        if not diff < math.inf:
            if not (cmath.isfinite(xc) and cmath.isfinite(yc)):
                return math.nan
            raise OverflowError("coefficient difference past the float range")
        worst = max(worst, diff)
        scale = max(scale, abs(xc), abs(yc))
    return worst / scale


class LocalPoleError(ArithmeticError):
    """A local L-value 1/P(p^{-s}) requested at a zero of P."""

    def __init__(self, p: int, s: complex):
        self.p, self.s = p, s
        super().__init__(f"local factor at p={p} has a pole at s={s}")


def eigenvalues(tag: RepTag, c: SatakeClass) -> list:
    """Eigenvalue list of the representation at the class (alpha, beta)."""
    a, b = c.alpha, c.beta
    if tag is _STANDARD:
        return [a, b]
    if tag is _WEDGE2:
        return [a * b]
    if tag is _ADJOINT_CUBE or tag is _GJ_ADJOINT:
        # x * (1 / y), not x / y: complex division rounds differently
        ia, ib = inverse(a), inverse(b)
        if tag is _ADJOINT_CUBE:
            return [a * a * ib, a, b, ia * b * b]
        return [a * ib, 1, ia * b]
    # each product once, grouped left to right as a * a * b is
    aa, ab, bb = a * a, a * b, b * b
    if tag is _SYM2:
        return [aa, ab, bb]
    aab, abb = aa * b, ab * b
    if tag is _SYM3:
        return [aa * a, aab, abb, bb * b]
    if tag is _TRIPLE:
        # tensor cube: alpha^3 once, alpha^2 beta and alpha beta^2 three times
        return [aa * a, aab, aab, aab, abb, abb, abb, bb * b]
    raise ValueError(f"unknown representation tag {tag!r}")


def local_factor(tag: RepTag, c: SatakeClass) -> ReciprocalPoly:
    return ReciprocalPoly(poly_from_eigenvalues(eigenvalues(tag, c)))


def rankin_selberg(a: SatakeClass, b_eigen: Sequence) -> ReciprocalPoly:
    """P(T) = prod_{i,j} (1 - a_i b_j T) over pairwise parameter products."""
    if not b_eigen:
        raise ValueError("empty eigenvalue list")
    pairs = [x * y for x in (a.alpha, a.beta) for y in b_eigen]
    return ReciprocalPoly(poly_from_eigenvalues(pairs))


def check_triple_identity(c: SatakeClass) -> float:
    """Triple product against sym-cube times the squared twisted standard factor."""
    omega = c.central_character()
    twisted = twist(c, omega)
    std = local_factor(RepTag.STANDARD, twisted)
    rhs = local_factor(RepTag.SYM3, c) * std * std
    return local_factor(RepTag.TRIPLE, c).max_coeff_diff(rhs)


def check_twist_identity(c: SatakeClass) -> float:
    """Sym-cube factor against the adjoint-cube factor of the central twist."""
    lhs = local_factor(RepTag.SYM3, c)
    rhs = local_factor(RepTag.ADJOINT_CUBE, twist(c, c.central_character()))
    return lhs.max_coeff_diff(rhs)


def check_gj_identity(c: SatakeClass) -> float:
    """Division-free form of: adjoint-cube = (pi x adjoint-lift) / standard."""
    lift = eigenvalues(RepTag.GJ_ADJOINT, c)
    lhs = rankin_selberg(c, lift)
    rhs = local_factor(RepTag.ADJOINT_CUBE, c) * local_factor(RepTag.STANDARD, c)
    return lhs.max_coeff_diff(rhs)
