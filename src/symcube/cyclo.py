"""Exact arithmetic with Q-linear combinations of roots of unity.

A value is stored as an integer order n and a dict {k: coefficient} with
0 <= k < n, meaning sum_k  coeff_k * exp(2*pi*i*k/n).  Coefficients are
plain ints when integral and Fractions otherwise, and n is kept minimal
(the lcm of the exponent denominators), so one formal sum has exactly one
representation.  Sums and products align their operands at the lcm of the
two orders with integer key arithmetic.  Short routes give the same result,
order, term order and coefficient types included, as the general rebuild:

- a product by the rational 1 returns the other operand (values are
  immutable);
- a product of two single terms c1*zeta^k1 and c2*zeta^k2 is the one term
  c1*c2 at key k1*m1 + k2*m2 mod n, reduced by gcd(n, key);
- a product with one single term c*zeta^k only shifts the other operand's
  keys by k and scales its coefficients by c, so no keys collide and none
  vanish; only the gcd reduction (zeta_4 * zeta_4 = zeta_2) and the int form
  of an integral Fraction are left to do;
- a sum of two values of one order starts from a copy of the first dict, as
  the lift by m1 = 1 would build it;
- a sum in which no coefficient cancels is already minimal: at n = lcm(n1, n2)
  the lifted keys of the two operands have gcds n/n1 and n/n2 with n, which
  are coprime, so the union of the keys has gcd 1 with n; `+ 0` returns
  the other operand;
- a negation flips the coefficients of a value that is already minimal;
- the inverse of a single term keeps its order (gcd(n, -k) = gcd(n, k) = 1).

The representation is lazy (ties
like 1 + zeta_2 = 0 are not collapsed on construction, which keeps
monomials monomial), but equality and the zero test are complete: the
difference is decided by peeling one prime of its order at a time down to
order 1 (`_is_zero`), so two values compare equal exactly when they are the
same algebraic number.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction


def _is_zero(n: int, coeffs: dict) -> bool:
    """Whether sum_k c_k zeta_n^k vanishes, decided one prime p of n at a time.

    With m = n/p, the value lies in Q(zeta_n), which has degree p over
    Q(zeta_m) when p divides m and degree p - 1 when it does not.

    - p | m: 1, zeta_n, ..., zeta_n^(p-1) is a basis of Q(zeta_n) over
      Q(zeta_m), and zeta_n^(j+pi) = zeta_n^j zeta_m^i, so the sum vanishes
      exactly when, for each j, the terms with k = j mod p vanish at order m.
    - p does not divide m: with x = m^-1 mod p and y = p^-1 mod m,
      xm + yp = 1 mod p and mod m, so zeta_n^k = zeta_p^(kx) zeta_m^(ky), and
      k -> (kx mod p, ky mod m) is a bijection (CRT).  Write the sum as
      sum_a zeta_p^a S_a with S_a in Q(zeta_m).  Over Q(zeta_m) the basis is
      1, ..., zeta_p^(p-2), and zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)), so
      the sum is sum_{a<p-1} zeta_p^a (S_a - S_(p-1)): it vanishes exactly
      when every S_a - S_(p-1) vanishes at order m.
    - Order 1: the sum is the rational c_0.

    The coefficients are only added and subtracted, so int and Fraction
    coefficients are taken as they are.
    """
    if not coeffs:
        return True
    if n == 1:
        return not coeffs.get(0)
    p = next(d for d in range(2, n + 1) if n % d == 0)
    m = n // p
    parts = [{} for _ in range(p)]
    if m % p == 0:
        for k, c in coeffs.items():
            parts[k % p][k // p] = c
        return all(_is_zero(m, part) for part in parts)
    x, y = pow(m, -1, p), pow(p, -1, m)
    for k, c in coeffs.items():
        parts[k * x % p][k * y % m] = c
    last = parts.pop()
    for part in parts:
        for i, c in last.items():
            part[i] = part.get(i, 0) - c
        if not _is_zero(m, {i: c for i, c in part.items() if c}):
            return False
    return True


def _make(n: int, coeffs: dict) -> "Cyclo":
    """Cyclo from an order and {k: coeff} with 0 <= k < n, coefficients int or Fraction.

    The one trusted constructor: drops zero coefficients, turns integral
    Fractions into ints and reduces n to its minimal value.
    """
    out = {}
    for k, c in coeffs.items():
        if c:
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            out[k] = c
    return _lowest(n, out)


def _lowest(n: int, coeffs: dict) -> "Cyclo":
    """Cyclo from nonzero normalized coefficients, its order reduced by gcd(n, *keys)."""
    g = math.gcd(n, *coeffs)
    if g > 1:
        n //= g
        coeffs = {k // g: c for k, c in coeffs.items()}
    return _raw(n, coeffs)


def _raw(n: int, coeffs: dict) -> "Cyclo":
    """Cyclo holding n and coeffs as they are; the caller vouches that they are canonical."""
    self = object.__new__(Cyclo)
    self._n = n
    self._c = coeffs
    return self


def _rational(q):
    """q as an int when integral, else as a Fraction (ints pass through untouched).

    A float is refused with TypeError: taken at its exact binary value it
    would make an exact result silently inexact.
    """
    if type(q) is int:
        return q
    if isinstance(q, float):
        raise TypeError(f"exact arithmetic does not take the float {q!r}")
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


class Cyclo:
    """Formal rational combination of roots of unity."""

    __slots__ = ("_n", "_c")

    def __init__(self, terms=None):
        """From a {exponent: coefficient} mapping, exponents rational and read mod 1."""
        value = Cyclo.zero()
        for e, c in (terms or {}).items():
            e = Fraction(e)
            value = value + Cyclo.root_of_unity(e.numerator, e.denominator) * c
        self._n, self._c = value._n, value._c

    @property
    def terms(self) -> dict:
        """The value as {Fraction exponent in [0, 1): Fraction coefficient}."""
        n = self._n
        return {Fraction(k, n): Fraction(c) for k, c in self._c.items()}

    @classmethod
    def root_of_unity(cls, k, n) -> "Cyclo":
        """exp(2*pi*i*k/n)."""
        if n == 0:
            raise ZeroDivisionError("root_of_unity order 0")
        if n < 0:
            k, n = -k, -n
        return _make(n, {k % n: 1})

    @classmethod
    def from_rational(cls, q) -> "Cyclo":
        return _make(1, {0: _rational(q)})

    @classmethod
    def one(cls) -> "Cyclo":
        return _make(1, {0: 1})

    @classmethod
    def zero(cls) -> "Cyclo":
        return _make(1, {})

    @staticmethod
    def coerce(x) -> "Cyclo":
        if isinstance(x, Cyclo):
            return x
        return Cyclo.from_rational(x)

    def __bool__(self):
        if len(self._c) < 2:
            return bool(self._c)   # a single c*zeta^k with c != 0 never vanishes
        return not _is_zero(self._n, self._c)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_rational(other)
        if not isinstance(other, Cyclo):
            return NotImplemented
        if self._n == other._n and self._c == other._c:
            return True
        return not (self - other)

    # equal values can carry different term dictionaries, so there is no
    # cheap representation-independent hash
    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            if type(other) is int and other == 0:
                return self
            other = Cyclo.from_rational(other)
        if not other._c:
            return self
        if not self._c:
            return other
        n1, n2 = self._n, other._n
        if n1 == n2:
            n, m2, out = n1, 1, dict(self._c)
        else:
            n = math.lcm(n1, n2)
            m1, m2 = n // n1, n // n2
            out = {k * m1: c for k, c in self._c.items()}
        cancelled = False
        for k, c in other._c.items():
            k *= m2
            if k in out:
                c = out[k] + c
                if not c:
                    cancelled = True
                elif type(c) is not int and c.denominator == 1:
                    c = c.numerator
            out[k] = c
        return _make(n, out) if cancelled else _raw(n, out)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self._n, {k: -c for k, c in self._c.items()})

    def __sub__(self, other):
        return self + (-Cyclo.coerce(other))

    def __rsub__(self, other):
        return Cyclo.coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Cyclo):
            q = _rational(other)
            if q == 1:
                return self
            return _make(self._n, {k: c * q for k, c in self._c.items()})
        n1, n2 = self._n, other._n
        n = math.lcm(n1, n2)
        m1, m2 = n // n1, n // n2
        if len(self._c) == 1 and len(other._c) == 1:
            (k1, c1), = self._c.items()
            (k2, c2), = other._c.items()
            k, c = (k1 * m1 + k2 * m2) % n, c1 * c2
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            g = math.gcd(n, k)
            return _raw(n // g, {k // g: c})
        if len(self._c) == 1 or len(other._c) == 1:
            if len(self._c) == 1:
                (k0, c0), = self._c.items()
                k0, step, many = k0 * m1, m2, other._c
            else:
                (k0, c0), = other._c.items()
                k0, step, many = k0 * m2, m1, self._c
            out = {}
            for k, c in many.items():
                c *= c0
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                out[(k0 + k * step) % n] = c
            return _lowest(n, out)
        right = [(k * m2, c) for k, c in other._c.items()]
        out = {}
        for k1, c1 in self._c.items():
            k1 *= m1
            for k2, c2 in right:
                k = (k1 + k2) % n
                out[k] = out.get(k, 0) + c1 * c2
        return _make(n, out)

    __rmul__ = __mul__

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    def inverse(self) -> "Cyclo":
        """Multiplicative inverse; defined for single-term values only."""
        if not self.is_monomial():
            raise ValueError("inverse defined only for monomial values")
        (k, c), = self._c.items()
        c = Fraction(1, c)
        if c.denominator == 1:
            c = c.numerator
        return _raw(self._n, {-k % self._n: c})

    def __truediv__(self, other):
        """Division by a monomial or a nonzero rational; other divisors
        raise as inverse() does."""
        return self * Cyclo.coerce(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int) -> "Cyclo":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclo.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Cyclo":
        n = self._n
        return _make(n, {-k % n: c for k, c in self._c.items()})

    def to_complex(self) -> complex:
        n = self._n
        return sum((complex(c) * cmath.exp(2j * cmath.pi * (k / n))
                    for k, c in self._c.items()), 0j)

    __complex__ = to_complex

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __repr__(self):
        if not self._c:
            return "Cyclo(0)"
        bits = []
        for k, c in sorted(self._c.items()):
            if k == 0:
                bits.append(str(c))
            else:
                pre = "" if c == 1 else f"{c}*"
                bits.append(f"{pre}zeta^({Fraction(k, self._n)})")
        return "Cyclo(" + " + ".join(bits) + ")"

