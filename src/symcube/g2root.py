"""Exact model of the G2 root system and its rank-2 weight calculus.

One vector type, ``RootVector``, serves roots and weights.  Coordinates are
taken in the simple-root basis (beta1, beta6), beta1 long and beta6 short,
with Gram matrix [[6, -3], [-3, 2]]; the paper's (beta3, beta4) coordinates
of a weight are its ``a3``/``a4``.  Everything here is exact: a coordinate is
a rational (a root) or an affine form a + b*r + c*s with rational a, b, c
(a weight), so pairings like <Lambda, beta6^vee> come out as literal affine
expressions (e.g. "s - 3r") rather than floats.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from .satake import Record, set_field


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {x!r}")


class Affine:
    """Rational affine form  const + r_coeff*r + s_coeff*s."""

    __slots__ = ("const", "r_coeff", "s_coeff")

    def __init__(self, const=0, r_coeff=0, s_coeff=0):
        self.const = _frac(const)
        self.r_coeff = _frac(r_coeff)
        self.s_coeff = _frac(s_coeff)

    @staticmethod
    def coerce(x) -> "Affine":
        if isinstance(x, Affine):
            return x
        return Affine(x)

    def __add__(self, other):
        o = Affine.coerce(other)
        return Affine(self.const + o.const, self.r_coeff + o.r_coeff,
                      self.s_coeff + o.s_coeff)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Affine.coerce(other))

    def __rsub__(self, other):
        return Affine.coerce(other) + (-self)

    def __neg__(self):
        return Affine(-self.const, -self.r_coeff, -self.s_coeff)

    def __mul__(self, other):
        # only a rational factor keeps the product affine; _frac refuses the rest
        c = _frac(other)
        return Affine(self.const * c, self.r_coeff * c, self.s_coeff * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / _frac(other))

    def __eq__(self, other):
        if not isinstance(other, (Affine, Rational)):
            return NotImplemented
        o = Affine.coerce(other)
        return (self.const == o.const and self.r_coeff == o.r_coeff
                and self.s_coeff == o.s_coeff)

    def __hash__(self):
        # a constant form equals its Fraction, so it hashes as one
        if self.is_constant():
            return hash(self.const)
        return hash((self.const, self.r_coeff, self.s_coeff))

    def is_constant(self) -> bool:
        return self.r_coeff == 0 and self.s_coeff == 0

    def __call__(self, r, s):
        """Evaluate at numeric (r, s); works for Fraction, float or complex."""
        return self.const + self.r_coeff * r + self.s_coeff * s

    def __repr__(self):
        terms = []
        for coeff, name in ((self.s_coeff, "s"), (self.r_coeff, "r")):
            if coeff == 0:
                continue
            if coeff == 1:
                terms.append(f"+ {name}")
            elif coeff == -1:
                terms.append(f"- {name}")
            elif coeff > 0:
                terms.append(f"+ {coeff}{name}")
            else:
                terms.append(f"- {-coeff}{name}")
        if self.const != 0 or not terms:
            terms.append(f"+ {self.const}" if self.const >= 0 else f"- {-self.const}")
        out = " ".join(terms)
        if out.startswith("+ "):
            out = out[2:]
        elif out.startswith("- "):
            out = "-" + out[2:]
        return out


def _coord(x):
    """Canonical coordinate: a Fraction, or an Affine form that is not constant."""
    if isinstance(x, Affine):
        return x.const if x.is_constant() else x
    return _frac(x)


class RootVector(Record):
    """Vector c1*beta1 + c6*beta6; rational for a root, affine in (r, s) for a weight."""

    def __init__(self, c1: Fraction | Affine, c6: Fraction | Affine):
        set_field(self, "c1", _coord(c1))
        set_field(self, "c6", _coord(c6))

    def __add__(self, other):
        return RootVector(self.c1 + other.c1, self.c6 + other.c6)

    def __sub__(self, other):
        return RootVector(self.c1 - other.c1, self.c6 - other.c6)

    def __neg__(self):
        return RootVector(-self.c1, -self.c6)

    def __mul__(self, c):
        """Product by a rational or an affine scalar."""
        return RootVector(self.c1 * c, self.c6 * c)

    @property
    def a3(self):
        """Coefficient of beta3 in the basis (beta3, beta4)."""
        return 2 * self.c1 - self.c6

    @property
    def a4(self):
        """Coefficient of beta4 in the basis (beta3, beta4)."""
        return -3 * self.c1 + 2 * self.c6

    def __repr__(self):
        return f"RootVector({self.c1}, {self.c6})"


BETA1 = RootVector(1, 0)
BETA6 = RootVector(0, 1)
BETA2 = RootVector(1, 1)
BETA3 = RootVector(2, 3)
BETA4 = RootVector(1, 2)
BETA5 = RootVector(1, 3)

POSITIVE_ROOTS = {
    "beta1": BETA1, "beta2": BETA2, "beta3": BETA3,
    "beta4": BETA4, "beta5": BETA5, "beta6": BETA6,
}

ROOT_NAMES = {v: k for k, v in POSITIVE_ROOTS.items()}


def is_root(v: RootVector) -> bool:
    """Membership in the twelve roots, by table lookup."""
    return v in ROOT_NAMES or (-v) in ROOT_NAMES


def lambda_weight(r=None, s=None) -> RootVector:
    """The principal-series parameter 2r*beta3 + (s - 3r)*beta4.

    With no arguments the coefficients stay symbolic in (r, s); passing
    rationals substitutes them.
    """
    rr = Affine(0, 1, 0) if r is None else Affine.coerce(r)
    ss = Affine(0, 0, 1) if s is None else Affine.coerce(s)
    return BETA3 * (2 * rr) + BETA4 * (ss - 3 * rr)


def gram(u, v):
    """Symmetric bilinear form with matrix [[6,-3],[-3,2]] on (beta1, beta6)."""
    return _coord(6 * u.c1 * v.c1 - 3 * (u.c1 * v.c6 + u.c6 * v.c1) + 2 * u.c6 * v.c6)


def pairing(lam, alpha: RootVector):
    """Coroot pairing <lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha)."""
    if not isinstance(alpha, RootVector) or not is_root(alpha):
        raise ValueError(f"{alpha!r} is not a root")
    return 2 * gram(lam, alpha) / gram(alpha, alpha)


def reflect(alpha: RootVector, v):
    """Simple reflection v - <v, alpha^vee> alpha; an involution and isometry."""
    return v - alpha * pairing(v, alpha)


def pairing_table():
    """Pairings of the symbolic Lambda(r,s) with all six coroots."""
    lam = lambda_weight()
    return {name: pairing(lam, beta) for name, beta in POSITIVE_ROOTS.items()}


class WeylElement(Record):
    """Group element, canonical by its integer matrix on (c1, c6) coordinates."""

    def __init__(self, matrix: tuple, word: tuple = ()):
        set_field(self, "matrix", matrix)
        set_field(self, "word", word)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        a, b = self.matrix, other.matrix
        m = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(2))
                        for j in range(2)) for i in range(2))
        return WeylElement(m, self.word + other.word)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def apply(self, v: RootVector) -> RootVector:
        m = self.matrix
        return RootVector(m[0][0] * v.c1 + m[0][1] * v.c6,
                          m[1][0] * v.c1 + m[1][1] * v.c6)

    def __repr__(self):
        return "WeylElement(%s)" % ("*".join(self.word) or "1")


IDENTITY = WeylElement(((1, 0), (0, 1)), ())
RHO1 = WeylElement(((-1, 1), (0, 1)), ("rho1",))
RHO6 = WeylElement(((1, 0), (3, -1)), ("rho6",))


@lru_cache(maxsize=1)
def weyl_group():
    """All twelve elements: the alternating words in rho1 and rho6 of length
    0 to 6, each one letter longer on the left than the word before it.  The
    two of length 6 are one element, kept as rho6*rho1*rho6*rho1*rho6*rho1."""
    group = [IDENTITY]
    for letters in ((RHO1, RHO6) * 3, (RHO6, RHO1) * 2 + (RHO6,)):
        w = IDENTITY
        for g in letters:
            w = g * w
            group.append(w)
    return tuple(sorted(group, key=lambda w: (len(w.word), w.word)))


def inverted_roots(w: WeylElement):
    """Positive roots alpha with w^{-1} alpha negative: the -w(gamma) for the
    positive gamma that w sends to a negative root."""
    return {-im for im in map(w.apply, POSITIVE_ROOTS.values()) if im.c1 <= 0 and im.c6 <= 0}


def parabolic_weyl_element() -> WeylElement:
    """The element w0 * s_beta1 of the constant-term sum: w0 = -1 is the last
    listed element and s_beta1 = rho1 the longest of the Levi's Weyl group.
    The listed element is returned, with its reduced word rho6*rho1*rho6*rho1*rho6."""
    group = weyl_group()
    return group[group.index(group[-1] * RHO1)]


def rho_parabolic() -> RootVector:
    """Half the sum of the roots of the unipotent radical, those the parabolic
    Weyl element inverts: {beta2,...,beta6}."""
    return sum(inverted_roots(parabolic_weyl_element()), RootVector(0, 0)) * Fraction(1, 2)


def coroot_decomposition(beta: RootVector):
    """Integers (c1, c6) with beta^vee = c1*beta1^vee + c6*beta6^vee.

    For beta = c1*beta1 + c6*beta6 the coroot coefficients are
    c_i * (alpha_i, alpha_i) / (beta, beta).
    """
    if beta not in ROOT_NAMES:
        raise ValueError(f"{beta!r} is not a positive root")
    nb = gram(beta, beta)
    d1 = beta.c1 * gram(BETA1, BETA1) / nb
    d6 = beta.c6 * gram(BETA6, BETA6) / nb
    assert d1.denominator == 1 and d6.denominator == 1
    return (int(d1), int(d6))
