"""Unramified local parameters of GL(2): construction and classification.

A Satake class is the unordered pair {alpha, beta} together with the residue
cardinality q.  Classes built from Hecke eigenvalues use the arithmetic
normalization a_p = p^{(k-1)/2} (alpha + beta), so alpha*beta equals the
central character value (1 for trivial nebentypus).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

DEFAULT_TOL = 1e-8
_ONE = Fraction(1)

# A record's __init__ sets each field with this, which keeps the values
# inline in the instance (fast to read), and is a little faster than the
# object.__setattr__ lookup a frozen dataclass makes per field.
set_field = object.__setattr__


class Record:
    """Named fields with the equality, hash, repr and refusal of assignment
    that @dataclass(frozen=True) gives, written out because importing
    dataclasses (and with it inspect) costs a cold command about 6.5 ms.
    The fields are the instance attributes `__init__` sets, in that order, so
    a record holds no other instance attribute (a cached_property would
    become a field); copy and pickle refill __dict__ in the same order."""

    def _key(self):
        return tuple(self.__dict__.values())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        args = ", ".join(f"{f}={v!r}" for f, v in self.__dict__.items())
        return f"{type(self).__qualname__}({args})"


class SatakeClass(Record):
    """Unramified parameter (alpha, beta, q); (alpha, beta) unordered."""

    def __init__(self, alpha: complex, beta: complex, q: int):
        set_field(self, "alpha", alpha)
        set_field(self, "beta", beta)
        set_field(self, "q", q)

    def central_character(self):
        """omega(uniformizer) = alpha * beta."""
        return self.alpha * self.beta

    def same_class(self, other: "SatakeClass") -> bool:
        """Equality as unordered pairs, up to 1e-12 in each parameter."""
        if self.q != other.q:
            return False
        a, b = complex(self.alpha), complex(self.beta)
        c, d = complex(other.alpha), complex(other.beta)
        return (abs(a - c) <= 1e-12 and abs(b - d) <= 1e-12) or \
               (abs(a - d) <= 1e-12 and abs(b - c) <= 1e-12)


def satake_from_hecke(a_p, p: int, k: int, omega_p=1.0) -> SatakeClass:
    """Satake class of the local component attached to Hecke eigenvalue a_p.

    alpha, beta are the roots of X^2 - (a_p p^{-(k-1)/2}) X + omega_p.
    a_p is converted to complex first and then divided by the float
    sqrt(p^(k-1)); the power p^(k-1) itself is an exact integer.  ValueError,
    naming p, when that power, a_p or a Satake parameter is beyond the float
    range.
    """
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    if abs(abs(complex(omega_p)) - 1.0) > 1e-6:
        raise ValueError("|omega_p| must be 1")
    # p^{(k-1)/2} via exact integer power under the square root
    try:
        scale = math.sqrt(float(p ** (k - 1)))
    except OverflowError:
        raise ValueError(f"weight {k}: {p}^{k - 1} is beyond the float range") from None
    try:
        t = complex(a_p) / scale
    except OverflowError:
        raise ValueError(f"a_{p} is beyond the float range") from None
    omega = complex(omega_p)
    disc = t * t - 4 * omega
    if not cmath.isfinite(disc):  # the roots would be inf or NaN
        raise ValueError(f"a_{p} is too large: its Satake parameters leave the float range")
    sq = cmath.sqrt(disc)
    # larger-magnitude root first for stability, partner by Vieta
    r1 = (t + sq) / 2 if abs(t + sq) >= abs(t - sq) else (t - sq) / 2
    r2 = omega / r1 if r1 != 0 else t - r1
    alpha, beta = _order_pair(r1, r2)
    return SatakeClass(alpha, beta, p)


def _order_pair(a: complex, b: complex):
    """Deterministic tie-break: alpha has Im >= 0; if both real, |alpha| >= |beta|."""
    if abs(a.imag) < 1e-14 and abs(b.imag) < 1e-14:
        return (a, b) if abs(a) >= abs(b) else (b, a)
    return (a, b) if a.imag >= b.imag else (b, a)


def is_tempered(c: SatakeClass, tol: float = DEFAULT_TOL) -> bool:
    """Both parameters on the unit circle, up to tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return (abs(abs(complex(c.alpha)) - 1.0) <= tol
            and abs(abs(complex(c.beta)) - 1.0) <= tol)


def twist(c: SatakeClass, chi_p) -> SatakeClass:
    """Class of the twist by an unramified character with value chi_p."""
    if not chi_p:
        raise ValueError("twist by zero")
    return SatakeClass(c.alpha * chi_p, c.beta * chi_p, c.q)


def inverse(x):
    """1 / x for a Satake parameter x; an int or Fraction is inverted exactly,
    as a Fraction, and any other x as 1 / x."""
    return _ONE / x if type(x) in (int, Fraction) else 1 / x


def contragredient(c: SatakeClass) -> SatakeClass:
    """Class with inverted parameters (see inverse); inverts the central character."""
    a, b = c.alpha, c.beta
    if not a or not b:
        raise ValueError("zero Satake parameter has no contragredient")
    return SatakeClass(inverse(a), inverse(b), c.q)

