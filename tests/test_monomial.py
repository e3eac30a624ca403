import cmath
import itertools
import math
import random
from fractions import Fraction as Q

import pytest

from symcube.cyclo import Cyclo
from symcube.localfactor import RepTag, local_factor, poly_from_eigenvalues, poly_mul
from symcube.monomial import (
    ENTIRE, HAS_POLE, INERT, SPLIT, HeckeLocalData, adjointcube_char_poly,
    check_monomial_r3, check_monomial_r30, hecke_factor, induced_local,
    pole_criterion, symcube_char_poly)
from symcube.satake import SatakeClass


def test_induced_split_diagonal():
    d = HeckeLocalData(7, SPLIT, 1.0 + 0j, 1.0 + 0j)
    m = induced_local(d)
    assert m[0][0] == 1 and m[1][1] == 1 and m[0][1] == 0 and m[1][0] == 0


def test_induced_inert_structure():
    d = HeckeLocalData(11, INERT, 1.0 + 0j)
    m = induced_local(d)
    assert m[0][0] == 0 and m[1][1] == 0 and m[0][1] == 1 and m[1][0] == 1
    assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == -1   # det = -chi
    # eigenvalues of [[0,1],[1,0]] are +-1
    import numpy as np
    ev = np.linalg.eigvals(np.array(m, dtype=complex))
    assert sorted(e.real for e in ev) == pytest.approx([-1.0, 1.0])


def test_induced_inert_square_is_chi_times_identity():
    c = Cyclo.root_of_unity(2, 7)
    d = HeckeLocalData(13, INERT, c)
    m = induced_local(d)
    sq = [[sum(m[i][k] * m[k][j] for k in range(2)) for j in range(2)]
          for i in range(2)]
    assert sq[0][0] == c and sq[1][1] == c
    assert not sq[0][1] and not sq[1][0]


def test_induced_validation():
    with pytest.raises(ValueError):
        HeckeLocalData(7, SPLIT, 1.0)                  # missing second value
    with pytest.raises(ValueError):
        HeckeLocalData(7, INERT, 1.0, 1.0)             # extra value
    with pytest.raises(ValueError):
        HeckeLocalData(7, "ramified", 1.0)
    with pytest.raises(ValueError):
        HeckeLocalData(7, INERT, 0.0)


def test_induced_takes_primes_only():
    assert HeckeLocalData(2, INERT, 1.0).p == 2
    assert HeckeLocalData(1_000_000_007, INERT, 1.0).p == 1_000_000_007
    # the range guard runs before is_prime
    for p in (1, 4, 561, 1_000_000_007 * 998_244_353, -7, 0):
        with pytest.raises(ValueError, match="p must be a prime"):
            HeckeLocalData(p, INERT, 1.0)


def _sym_cube_matrix(m):
    """Explicit 4x4 matrix of sym^3 on the basis x^3, x^2 y, x y^2, y^3: the
    reference the trace-and-determinant closed form is checked against."""
    (a, b), (c, d) = m
    # x -> a x + c y,  y -> b x + d y; expand images of the four monomials
    cols = [
        [a * a * a, 3 * (a * a * c), 3 * (a * c * c), c * c * c],
        [a * a * b, a * a * d + 2 * (a * b * c), b * c * c + 2 * (a * c * d), c * c * d],
        [a * b * b, b * b * c + 2 * (a * b * d), a * d * d + 2 * (b * c * d), c * d * d],
        [b * b * b, 3 * (b * b * d), 3 * (b * d * d), d * d * d],
    ]
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def test_sym_cube_matrix_diagonal_case():
    a, b = 2.0 + 0j, -0.5 + 0j
    m = ((a, 0j), (0j, b))
    n = _sym_cube_matrix(m)
    diag = [n[i][i] for i in range(4)]
    assert diag == [a ** 3, a * a * b, a * b * b, b ** 3]
    off = [n[i][j] for i in range(4) for j in range(4) if i != j]
    assert all(abs(x) < 1e-15 for x in off)


def test_symcube_char_poly_matches_local_factor():
    rng = random.Random(12)
    for _ in range(20):
        a = cmath.exp(2j * math.pi * rng.random()) * rng.uniform(0.5, 2.0)
        b = cmath.exp(2j * math.pi * rng.random()) * rng.uniform(0.5, 2.0)
        got = symcube_char_poly(((a, 0j), (0j, b)))
        want = local_factor(RepTag.SYM3, SatakeClass(a, b, 2))
        assert got.max_coeff_diff(want) < 1e-13


def test_symcube_char_poly_identity_matrix():
    got = symcube_char_poly(((1.0 + 0j, 0j), (0j, 1.0 + 0j)))
    want = poly_from_eigenvalues([1.0] * 4)           # (1-T)^4
    assert max(abs(x - y) for x, y in zip(got.coeffs, want)) < 1e-14


def test_symcube_inert_is_poly_in_t_squared():
    # [[0,c],[1,0]] must give (1 - c^3 T^2)^2
    c = Cyclo.root_of_unity(3, 7)
    poly = symcube_char_poly(induced_local(HeckeLocalData(5, INERT, c)))
    c3 = c ** 3
    want = [Cyclo.one(), Cyclo.zero(), -2 * c3, Cyclo.zero(), c3 * c3]
    assert list(poly.coeffs) == want


def test_adjointcube_inert_poly():
    # [[0,c],[1,0]] twisted by det^{-1} gives (1 - c T^2)^2
    c = Cyclo.root_of_unity(1, 5)
    poly = adjointcube_char_poly(induced_local(HeckeLocalData(7, INERT, c)))
    want = [Cyclo.one(), Cyclo.zero(), -2 * c, Cyclo.zero(), c * c]
    assert list(poly.coeffs) == want


def test_adjointcube_diag_matches_local_factor():
    rng = random.Random(13)
    for _ in range(10):
        a = cmath.exp(2j * math.pi * rng.random())
        b = cmath.exp(2j * math.pi * rng.random())
        got = adjointcube_char_poly(((a, 0j), (0j, b)))
        want = local_factor(RepTag.ADJOINT_CUBE, SatakeClass(a, b, 3))
        assert got.max_coeff_diff(want) < 1e-13
    with pytest.raises(ValueError):
        adjointcube_char_poly(((1.0, 1.0), (1.0, 1.0)))


def test_hecke_factor_split_cube_roots():
    d = HeckeLocalData(7, SPLIT, Cyclo.root_of_unity(1, 3), Cyclo.root_of_unity(2, 3))
    poly = hecke_factor(d, (3, 0))                    # chi^3 = 1 at both primes
    want = poly_from_eigenvalues([Cyclo.one(), Cyclo.one()])
    assert list(poly.coeffs) == want


def test_hecke_factor_split_equals_the_two_factor_product():
    # oracle: (1 - v1 T)(1 - v2 T) as one dense poly_mul of the two factors
    for chi_p, chi_pbar in ((Cyclo.root_of_unity(1, 5), Cyclo.root_of_unity(3, 8)),
                            (cmath.exp(0.3j), cmath.exp(-1.1j)),
                            (1 + 0j, -1 + 0j)):
        d = HeckeLocalData(7, SPLIT, chi_p, chi_pbar)
        for a, b in ((3, 0), (2, 1), (2, -1), (1, 0)):
            v1, v2 = chi_p ** a * chi_pbar ** b, chi_pbar ** a * chi_p ** b
            want = poly_mul([1, -v1], [1, -v2])
            assert repr(hecke_factor(d, (a, b)).coeffs) == repr(tuple(want))


def test_hecke_factor_inert_examples():
    d = HeckeLocalData(11, INERT, Cyclo.one())
    poly = hecke_factor(d, (2, 1))
    assert list(poly.coeffs) == [Cyclo.one(), Cyclo.zero(), -Cyclo.one()]  # 1 - T^2


def test_hecke_factor_split_i():
    d = HeckeLocalData(5, SPLIT, 1j, -1j)
    poly = hecke_factor(d, (1, 0))                    # (1-iT)(1+iT) = 1+T^2
    assert abs(poly.coeffs[1]) < 1e-15 and abs(poly.coeffs[2] - 1) < 1e-15


def test_monomial_r3_examples():
    d = HeckeLocalData(7, SPLIT, Cyclo.root_of_unity(1, 3), Cyclo.root_of_unity(-1, 3))
    assert check_monomial_r3(d) == 0.0
    d = HeckeLocalData(11, INERT, Cyclo.root_of_unity(2, 9))
    assert check_monomial_r3(d) == 0.0
    d = HeckeLocalData(13, SPLIT, Cyclo.one(), Cyclo.one())
    assert check_monomial_r3(d) == 0.0


def test_monomial_r30_examples():
    d = HeckeLocalData(7, SPLIT, Cyclo.one(), Cyclo.one())
    assert check_monomial_r30(d) == 0.0
    d = HeckeLocalData(11, INERT, Cyclo.root_of_unity(1, 6))
    assert check_monomial_r30(d) == 0.0
    d = HeckeLocalData(13, SPLIT, Cyclo.root_of_unity(1, 5), Cyclo.root_of_unity(3, 5))
    assert check_monomial_r30(d) == 0.0


def test_monomial_checks_random_roots_of_unity():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 12])
        p = rng.choice([3, 5, 7, 11, 13])
        if rng.random() < 0.5:
            d = HeckeLocalData(p, SPLIT,
                               Cyclo.root_of_unity(rng.randrange(n), n),
                               Cyclo.root_of_unity(rng.randrange(n), n))
        else:
            d = HeckeLocalData(p, INERT, Cyclo.root_of_unity(rng.randrange(n), n))
        assert check_monomial_r3(d) == 0.0
        assert check_monomial_r30(d) == 0.0


def test_monomial_checks_float_mode():
    rng = random.Random(56)
    for _ in range(50):
        phase = cmath.exp(2j * math.pi * rng.random())
        phase2 = cmath.exp(2j * math.pi * rng.random())
        if rng.random() < 0.5:
            d = HeckeLocalData(7, SPLIT, phase, phase2)
        else:
            d = HeckeLocalData(7, INERT, phase)
        assert check_monomial_r3(d) < 1e-12
        assert check_monomial_r30(d) < 1e-12


def test_mixed_split_pair_demotes_to_float_mode():
    # one exact and one complex value: the constructor demotes both to complex
    d = HeckeLocalData(5, SPLIT, Cyclo.root_of_unity(1, 3), 1j)
    e3, e30 = check_monomial_r3(d), check_monomial_r30(d)
    assert type(e3) is float and e3 < 1e-12
    assert type(e30) is float and e30 < 1e-12
    assert type(d.chi_p) is complex and type(d.chi_pbar) is complex


def test_split_induced_equals_direct_sym3_exactly():
    rng = random.Random(58)
    for _ in range(20):
        n = rng.choice([3, 4, 5, 7, 12])
        v1 = Cyclo.root_of_unity(rng.randrange(n), n)
        v2 = Cyclo.root_of_unity(rng.randrange(n), n)
        d = HeckeLocalData(7, SPLIT, v1, v2)
        got = symcube_char_poly(induced_local(d))
        want = local_factor(RepTag.SYM3, SatakeClass(v1, v2, 7))
        assert got.max_coeff_diff(want) == 0.0


def test_inert_chi_cubed_equals_chi2_chiprime():
    # the conjugate fixes inert primes, so (2,1) and (3,0) give equal factors
    rng = random.Random(57)
    for _ in range(20):
        n = rng.choice([3, 5, 7, 8])
        d = HeckeLocalData(11, INERT, Cyclo.root_of_unity(rng.randrange(n), n))
        assert hecke_factor(d, (2, 1)).coeffs == hecke_factor(d, (3, 0)).coeffs


def _full_char_poly_4x4(n, one, zero):
    """det(I - N T) over all 24 permutations, zero entries included."""
    out = [zero] * 5
    for perm in itertools.permutations(range(4)):
        inversions = sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        term = [one, zero, zero, zero, zero]
        for i in range(4):
            diag, off = (one if perm[i] == i else zero), -n[i][perm[i]]
            term = [term[0] * diag] + [term[k] * diag + term[k - 1] * off
                                       for k in range(1, 5)]
        for k in range(5):
            out[k] = out[k] - term[k] if inversions % 2 else out[k] + term[k]
    return out


def _char_poly_cases():
    """Split, inert and dense 2x2 matrices whose sym^3 and adjoint-cube
    polynomials are computed without rounding: Cyclo or Fraction entries,
    and complex entries with small Gaussian-integer parts.  Every case has a
    determinant whose inverse is exact (a root of unity, a nonzero rational,
    or a Gaussian unit), so each serves both factors."""
    rng = random.Random(71)
    z = Cyclo.root_of_unity
    cases = []
    for k in range(1, 7):
        cases.append(((z(k, 7), 0), (0, z(2 * k, 9))))                 # split
        cases.append(((0, z(k, 12)), (1, 0)))                          # inert
        off = rng.randrange(-2, 3) * z(rng.randrange(12), 12) + z(rng.randrange(5), 5)
        cases.append(((z(k, 8), off), (0, z(k + 1, 5))))               # triangular
        cases.append(tuple(tuple(Q(rng.randrange(-9, 10), rng.randrange(1, 5))
                                 for _ in range(2)) for _ in range(2)))  # dense
    units = (1 + 0j, -1 + 0j, 1j, -1j)
    while len(cases) < 42:
        a, b, c, d = (complex(rng.randrange(-3, 4), rng.randrange(-3, 4))
                      for _ in range(4))
        if a * d - b * c in units:
            cases.append(((a, b), (c, d)))                             # dense
        if a in units and b in units:
            cases.append(((a, 0j), (0j, b)))                           # split
            cases.append(((0j, a), (1 + 0j, 0j)))                      # inert
    return cases


@pytest.mark.parametrize("m", _char_poly_cases())
def test_sym3_char_poly_equals_the_4x4_expansion(m):
    want = _full_char_poly_4x4(_sym_cube_matrix(m), 1, 0)
    assert list(symcube_char_poly(m).coeffs) == want


@pytest.mark.parametrize("m", _char_poly_cases())
def test_adjointcube_char_poly_equals_the_4x4_expansion(m):
    (a, b), (c, d) = m
    dinv = 1 / (a * d - b * c)
    n = tuple(tuple(x * dinv for x in row) for row in _sym_cube_matrix(m))
    assert list(adjointcube_char_poly(m).coeffs) == _full_char_poly_4x4(n, 1, 0)


def test_pole_criterion():
    assert pole_criterion(3).kind == HAS_POLE
    assert pole_criterion(3).poles == (Q(0), Q(1))
    assert pole_criterion(4).kind == ENTIRE
    assert pole_criterion(2).kind == ENTIRE
    assert pole_criterion(6).kind == ENTIRE    # chi^3 has order 2, not 1
    with pytest.raises(ValueError):
        pole_criterion(1)
    with pytest.raises(ValueError):
        pole_criterion(0)
