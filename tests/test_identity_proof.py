"""The five local identities proved for every unramified class.

Each identity is a polynomial identity in the Satake parameters, so running
the unchanged checks on the generators of Z[x^±1, y^±1] (alpha, beta, or the
two character values chi_P, chi_Pbar) proves it for all classes at once.

The same ring proves the trace-and-determinant closed form of `monomial`
against the eigenvalue expansions of `localfactor` on M = diag(x, y).  Both
sides are polynomials in the entries of M (the adjoint cube also in
1/det M), and both are invariant under conjugation, so agreement on every
diagonal matrix extends to every diagonalizable one and, these being dense,
to every invertible 2x2 matrix (and, for sym^3, to every 2x2 matrix).
"""

import pytest

from symcube.localfactor import (ReciprocalPoly, RepTag, check_gj_identity,
                                 check_triple_identity, check_twist_identity,
                                 local_factor, poly_from_eigenvalues)
from symcube import monomial
from symcube.monomial import (INERT, SPLIT, HeckeLocalData, adjointcube_char_poly,
                              check_monomial_r3, check_monomial_r30, symcube_char_poly)
from symcube.satake import SatakeClass

# where __complex__ evaluates: off the unit circle, no small relation between x, y
POINT = (1.3 + 0.4j, -0.6 + 0.9j)


class L:
    """Laurent polynomial over Z in x, y, stored as {(i, j): nonzero int}."""

    __hash__ = None

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @staticmethod
    def of(v):
        if isinstance(v, L):
            return v
        if type(v) is not int:
            raise TypeError(f"unsupported operand types: {type(v).__name__!r} and 'L'")
        return L({(0, 0): v})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in L.of(other).terms.items():
            out[e] = out.get(e, 0) + c
        return L(out)

    __radd__ = __add__

    def __neg__(self):
        return L({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -L.of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for (i, j), c in self.terms.items():
            for (k, l), d in L.of(other).terms.items():
                out[i + k, j + l] = out.get((i + k, j + l), 0) + c * d
        return L(out)

    __rmul__ = __mul__

    def inverse(self):
        """The units of Z[x^±1, y^±1] are the monomials ±x^i y^j."""
        if len(self.terms) != 1 or set(self.terms.values()) - {1, -1}:
            raise ZeroDivisionError(f"{self.terms} is not a unit")
        ((i, j), c), = self.terms.items()
        return L({(-i, -j): c})

    def __truediv__(self, other):
        return self * L.of(other).inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n):
        base, out = (self if n >= 0 else self.inverse()), L.of(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        return not (self - other).terms

    def __bool__(self):
        return bool(self.terms)

    def __complex__(self):
        x, y = POINT
        return sum((c * x ** i * y ** j for (i, j), c in self.terms.items()), 0j)


X, Y = L({(1, 0): 1}), L({(0, 1): 1})


def test_the_ring_is_a_ring_with_int_operands():
    assert X * (1 / X) == 1 and (X - Y) ** 2 == X * X - 2 * (X * Y) + Y * Y
    assert 0 + X == X and X * 0 == 0 and not (X - X) and (-X) ** -1 == -(1 / X)
    assert complex(3 * X - 1) == 3 * POINT[0] - 1
    with pytest.raises(TypeError):
        X + 1.0


def test_the_ring_unit_and_zero_are_ints():
    coeffs = poly_from_eigenvalues([X, Y])
    assert coeffs[0] == 1 and type(coeffs[0]) is int
    assert coeffs == [1, -(X + Y), X * Y]


@pytest.mark.parametrize("check", [check_triple_identity, check_twist_identity,
                                   check_gj_identity])
def test_gl2_identities_hold_for_every_class(check):
    assert check(SatakeClass(X, Y, 5)) == 0.0


@pytest.mark.parametrize("entry", [HeckeLocalData(7, SPLIT, X, Y),
                                   HeckeLocalData(7, INERT, X)], ids=[SPLIT, INERT])
@pytest.mark.parametrize("check", [check_monomial_r3, check_monomial_r30])
def test_dihedral_identities_hold_for_every_character(check, entry):
    assert check(entry) == 0.0


def test_a_false_identity_is_reported_not_raised():
    c = SatakeClass(X, Y, 5)
    sym3, adj3 = local_factor(RepTag.SYM3, c), local_factor(RepTag.ADJOINT_CUBE, c)
    assert sym3.max_coeff_diff(adj3) > 0.1
    dropped = ReciprocalPoly(poly_from_eigenvalues([X * X * X, X * X * Y, Y * Y * Y]))
    assert sym3.max_coeff_diff(dropped) > 0.1


@pytest.mark.parametrize("closed_form, tag", [(symcube_char_poly, RepTag.SYM3),
                                              (adjointcube_char_poly, RepTag.ADJOINT_CUBE)],
                         ids=["sym3", "adjoint-cube"])
def test_the_trace_determinant_form_holds_for_every_matrix(closed_form, tag):
    got = closed_form(((X, 0), (0, Y))).coeffs
    assert got == local_factor(tag, SatakeClass(X, Y, 5)).coeffs


def test_a_false_closed_form_is_reported_not_raised(monkeypatch):
    # t^4 - 2t^2 d in place of t^4 - 3t^2 d; at an inert prime t = 0 hides
    # the change, so only the split entry can show it
    exact = monomial._sym3_invariants

    def mutated(m):
        (a, _), (_, d) = m
        det, e1, q = exact(m)
        return det, e1, q + (a + d) * (a + d) * det

    monkeypatch.setattr(monomial, "_sym3_invariants", mutated)
    assert check_monomial_r3(HeckeLocalData(7, SPLIT, X, Y)) > 0.1
    assert check_monomial_r30(HeckeLocalData(7, SPLIT, X, Y)) > 0.1
    assert check_monomial_r3(HeckeLocalData(7, INERT, X)) == 0.0
