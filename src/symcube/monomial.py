"""The dihedral case: local parameters induced from quadratic-field Hecke data.

Splitting types and character values are input data (class field theory is
not performed here).  The sym^3 and adjoint-cube factors come from the trace
and determinant of the induced Frobenius matrix, so no square roots of
character values are ever materialized; the trace is 0 at an inert prime, so
all inert factors come out as polynomials in T^2, matching the norm of an
inert prime being p^2.  With root-of-unity character values the whole
pipeline runs in exact cyclotomic arithmetic and the factorization checks
return error 0 exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .localfactor import MR_BOUND, ReciprocalPoly, is_prime, poly_from_eigenvalues
from .satake import Record, set_field

SPLIT = "split"
INERT = "inert"


class HeckeLocalData(Record):
    """Character data above one rational prime p: chi_p is the value at a
    prime above p (complex or exact), chi_pbar the second value, split case only."""

    def __init__(self, p: int, splitting: str, chi_p, chi_pbar=None):
        set_field(self, "p", p)
        set_field(self, "splitting", splitting)
        set_field(self, "chi_p", chi_p)
        set_field(self, "chi_pbar", chi_pbar)
        if not (2 <= self.p < MR_BOUND and is_prime(self.p)):
            raise ValueError(f"p must be a prime below {MR_BOUND:.4g}, got {self.p}")
        if self.splitting not in (SPLIT, INERT):
            raise ValueError(f"splitting must be split or inert, got {self.splitting!r}")
        if self.splitting == SPLIT and self.chi_pbar is None:
            raise ValueError(f"split entry at p={self.p} needs two character values")
        if self.splitting == INERT and self.chi_pbar is not None:
            raise ValueError(f"inert entry at p={self.p} takes one character value")
        # the exact path needs both values in one ring; a mixed split pair demotes
        if self.splitting == SPLIT and type(self.chi_p) is not type(self.chi_pbar):
            set_field(self, "chi_p", complex(self.chi_p))
            set_field(self, "chi_pbar", complex(self.chi_pbar))
        if not self.chi_p or (self.splitting == SPLIT and not self.chi_pbar):
            raise ValueError("character values must be nonzero")


def induced_local(d: HeckeLocalData):
    """Frobenius matrix of the induced two-dimensional local parameter.

    Split: diag(chi_P, chi_Pbar).  Inert: [[0, chi_P], [1, 0]].
    """
    if d.splitting == SPLIT:
        return ((d.chi_p, 0), (0, d.chi_pbar))
    return ((0, d.chi_p), (1, 0))


def _sym3_invariants(m):
    """(d, e1, q) of a 2x2 matrix M with t = tr M and d = det M.

    e1 = t^3 - 2td is the trace of sym^3(M) and q = t^4 - 3t^2 d + 2d^2; with
    them det(I - sym^3(M) T) = 1 - e1 T + d q T^2 - d^3 e1 T^3 + d^6 T^4.  The
    coefficients are integer polynomials in t and d: no division and no square
    root, in the scalar ring of the entries.
    """
    (a, b), (c, d) = m
    t, det = a + d, a * d - b * c
    t2 = t * t
    return det, t * (t2 - 2 * det), t2 * t2 - 3 * (t2 * det) + 2 * (det * det)


def symcube_char_poly(m) -> ReciprocalPoly:
    """det(I - sym^3(M) T) as a degree-4 polynomial in T."""
    d, e1, q = _sym3_invariants(m)
    d3 = d * d * d
    return ReciprocalPoly([1, -e1, d * q, -(d3 * e1), d3 * d3])


def adjointcube_char_poly(m) -> ReciprocalPoly:
    """det(I - sym^3(M) det(M)^{-1} T), the determinant-twisted cube: the
    sym^3 coefficient k divided by d^k."""
    d, e1, q = _sym3_invariants(m)
    if not d:
        raise ValueError("singular matrix has no adjoint-cube factor")
    dinv = 1 / d
    return ReciprocalPoly([1, -(e1 * dinv), q * dinv, -e1, d * d])


def hecke_factor(d: HeckeLocalData, exponents: Tuple[int, int]) -> ReciprocalPoly:
    """Local factor at p of the character chi^a * (chi')^b, in T = p^{-s}.

    The conjugate character chi' swaps the two primes above a split p and
    fixes an inert prime, so the inert factor is 1 - chi^{a+b}(p) T^2.
    """
    a, b = exponents
    if d.splitting == SPLIT:
        v1 = d.chi_p ** a * d.chi_pbar ** b
        v2 = d.chi_pbar ** a * d.chi_p ** b
        coeffs = poly_from_eigenvalues([v1, v2])
    else:
        v = d.chi_p ** (a + b)
        coeffs = [1, 0, -v]
    return ReciprocalPoly(coeffs)


def check_monomial_r3(d: HeckeLocalData) -> float:
    """Sym-cube factor of the induced class against chi^3 times chi^2 chi'."""
    lhs = symcube_char_poly(induced_local(d))
    rhs = hecke_factor(d, (3, 0)) * hecke_factor(d, (2, 1))
    return lhs.max_coeff_diff(rhs)


def check_monomial_r30(d: HeckeLocalData) -> float:
    """Adjoint-cube factor of the induced class against chi^2 chi'^{-1} times chi."""
    lhs = adjointcube_char_poly(induced_local(d))
    rhs = hecke_factor(d, (2, -1)) * hecke_factor(d, (1, 0))
    return lhs.max_coeff_diff(rhs)


HAS_POLE = "has-pole-at-0-and-1"
ENTIRE = "entire"


class PoleVerdict(Record):
    def __init__(self, kind: str, poles: Tuple[Fraction, ...] = ()):
        set_field(self, "kind", kind)
        set_field(self, "poles", poles)


def pole_criterion(order_of_chi: int) -> PoleVerdict:
    """Pole locus of the completed sym-cube L-function in the dihedral case.

    Poles (simple, at s = 0 and 1) occur exactly when chi^3 = 1; a trivial
    chi is rejected because the induced representation is then not cuspidal.
    """
    if order_of_chi < 1:
        raise ValueError("character order must be >= 1")
    if order_of_chi == 1:
        raise ValueError("trivial chi gives a non-cuspidal induced representation")
    if order_of_chi == 3:
        return PoleVerdict(HAS_POLE, poles=(Fraction(0), Fraction(1)))
    return PoleVerdict(ENTIRE)
