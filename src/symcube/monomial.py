"""The dihedral case: local parameters induced from quadratic-field Hecke data.

Splitting types and character values are input data (class field theory is
not performed here).  Inert primes are handled on the 4x4 matrix level so no
square roots of character values are ever materialized; all inert factors
come out as polynomials in T^2, matching the norm of an inert prime being
p^2.  With root-of-unity character values the whole pipeline runs in exact
cyclotomic arithmetic and the factorization checks return error 0 exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .localfactor import ReciprocalPoly, poly_from_eigenvalues, times_linear

SPLIT = "split"
INERT = "inert"


@dataclass(frozen=True)
class HeckeLocalData:
    """Character data above one rational prime p."""

    p: int
    splitting: str
    chi_p: object                 # value at a prime above p (complex or exact)
    chi_pbar: object = None       # second value, split case only

    def __post_init__(self):
        if self.splitting not in (SPLIT, INERT):
            raise ValueError(f"splitting must be split or inert, got {self.splitting!r}")
        if self.splitting == SPLIT and self.chi_pbar is None:
            raise ValueError(f"split entry at p={self.p} needs two character values")
        if self.splitting == INERT and self.chi_pbar is not None:
            raise ValueError(f"inert entry at p={self.p} carries a single value")
        # the exact path needs both values in one ring; a mixed split pair demotes
        if self.splitting == SPLIT and type(self.chi_p) is not type(self.chi_pbar):
            object.__setattr__(self, "chi_p", complex(self.chi_p))
            object.__setattr__(self, "chi_pbar", complex(self.chi_pbar))
        if not self.chi_p or (self.splitting == SPLIT and not self.chi_pbar):
            raise ValueError("character values must be nonzero")


def induced_local(d: HeckeLocalData):
    """Frobenius matrix of the induced two-dimensional local parameter.

    Split: diag(chi_P, chi_Pbar).  Inert: [[0, chi_P], [1, 0]].
    """
    if d.splitting == SPLIT:
        return ((d.chi_p, 0), (0, d.chi_pbar))
    return ((0, d.chi_p), (1, 0))


def sym_cube_matrix(m):
    """Explicit 4x4 matrix of sym^3 on the basis x^3, x^2 y, x y^2, y^3."""
    (a, b), (c, d) = m
    # x -> a x + c y,  y -> b x + d y; expand images of the four monomials
    cols = [
        [a * a * a, 3 * (a * a * c), 3 * (a * c * c), c * c * c],
        [a * a * b, a * a * d + 2 * (a * b * c), b * c * c + 2 * (a * c * d), c * c * d],
        [a * b * b, b * b * c + 2 * (a * b * d), a * d * d + 2 * (b * c * d), c * d * d],
        [b * b * b, 3 * (b * b * d), 3 * (b * d * d), d * d * d],
    ]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


# (permutation, sign) pairs of S4; the sign is (-1)^(number of inversions)
_PERMS4 = [(perm, (-1) ** sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4)))
           for perm in itertools.permutations(range(4))]


def _char_poly_4x4(n):
    """det(I - N T) by permutation expansion; division-free, in the scalar
    ring of the entries.

    A permutation through an exact-zero off-diagonal entry contributes zero
    and is skipped: of the 24 terms, a diagonal (split) induced matrix keeps
    one and an anti-diagonal (inert) one keeps four.  A term is built one
    factor at a time, a diagonal (1 - n_ii T) by times_linear and an
    off-diagonal (-n_ij T) by a shift: no product by the factor's 0 or 1.
    """
    zero_at = [[i != j and not n[i][j] for j in range(4)] for i in range(4)]
    out = [0] * 5
    for perm, sign in _PERMS4:
        if any(zero_at[i][perm[i]] for i in range(4)):
            continue
        term = [1]  # polynomial in T
        for i in range(4):
            m = -n[i][perm[i]]
            if i == perm[i]:
                term = times_linear(term, m)               # (1 - n_ii T)
            else:
                term = [0, *(t * m for t in term)]         # (0 - n_ij T)
        if sign < 0:
            term = [-t for t in term]
        for k, t in enumerate(term):
            out[k] = out[k] + t
    return out


def symcube_char_poly(m) -> ReciprocalPoly:
    """det(I - sym^3(M) T) as a degree-4 polynomial in T."""
    return ReciprocalPoly(_char_poly_4x4(sym_cube_matrix(m)))


def adjointcube_char_poly(m) -> ReciprocalPoly:
    """det(I - sym^3(M) det(M)^{-1} T), the determinant-twisted cube."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if not det:
        raise ValueError("singular matrix has no adjoint-cube factor")
    dinv = 1 / det
    n = sym_cube_matrix(m)
    n = tuple(tuple(x * dinv for x in row) for row in n)
    return ReciprocalPoly(_char_poly_4x4(n))


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


@dataclass(frozen=True)
class PoleVerdict:
    kind: str
    poles: Tuple[Fraction, ...] = ()


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
