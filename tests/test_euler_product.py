"""The factor map as the whole Euler product: the slice expansion of
dirichlet_coeffs and the degree-0 skip of partial_L against the earlier
implementations, which left out a separate set of ramified primes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcube.analytic import MissingPrimeError, dirichlet_coeffs, partial_L
from symcube.cyclo import Cyclo
from symcube.localfactor import ReciprocalPoly, primes_upto


def reference_coeffs(local_factors, N):
    """Smallest-prime-factor sieve, prime-power recurrence, then lambda(n) =
    lambda(p^e) lambda(n / p^e) for each n in turn; a factor of degree 0 is
    left out, as a ramified prime was."""
    lam = np.zeros(N + 1, dtype=np.complex128)
    lam[1] = 1.0
    plist = primes_upto(N)
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in plist:
        sel = spf[p::p]
        sel[sel == 0] = p
        spf[p::p] = sel
    for p in plist:
        if p not in local_factors:
            raise MissingPrimeError(p)
        poly = local_factors[p].to_complex()
        if poly.degree == 0:
            continue
        c = poly.coeffs
        vals = {0: 1.0 + 0j}
        k, pk = 1, p
        while pk <= N:
            v = 0j
            for j in range(1, min(k, poly.degree) + 1):
                v -= c[j] * vals[k - j]
            vals[k] = v
            lam[pk] = v
            k += 1
            pk *= p
    for n in range(2, N + 1):
        p = int(spf[n])
        m, pk = n, 1
        while m % p == 0:
            m //= p
            pk *= p
        if m > 1:
            lam[n] = lam[pk] * lam[m]
    return lam


def reference_partial_L(s, X, local_factors, ramified):
    """The compensated log-space product that skipped a set of ramified primes."""
    total, comp, checkpoints, next_mark = 0j, 0j, [], 2
    for p in primes_upto(X):
        if p in ramified:
            continue
        while p > next_mark:
            checkpoints.append((next_mark, np.exp(total)))
            next_mark *= 2
        term = -np.log(local_factors[p].to_complex().evaluate(p ** (-s))) - comp
        t = total + term
        comp = (t - total) - term
        total = t
    value = np.exp(total)
    checkpoints.append((X, value))
    return complex(value), checkpoints


# no part below 1e-3 in size other than 0, so no product underflows into
# subnormals, where a relative tolerance means nothing
part = st.floats(-2, 2).filter(lambda x: x == 0 or abs(x) > 1e-3)
complex_coeff = st.builds(complex, part, part)
cyclo_coeff = st.builds(lambda a, k, n: a * Cyclo.root_of_unity(k, n), st.integers(-3, 3),
                        st.integers(0, 11), st.sampled_from([1, 2, 3, 4, 6, 12]))


@st.composite
def factor_maps(draw, n_min=1):
    N = draw(st.integers(n_min, 400))
    factors = {}
    for p in primes_upto(N):
        degree = draw(st.sampled_from([0, 0, 1, 2, 3, 4]))
        coeff = cyclo_coeff if draw(st.booleans()) else complex_coeff
        factors[p] = ReciprocalPoly([1, *(draw(coeff) for _ in range(degree))])
    return N, factors


@settings(deadline=None, max_examples=150)
@given(factor_maps())
def test_slice_expansion_matches_the_per_n_loop(case):
    N, factors = case
    got = dirichlet_coeffs(factors, N).values
    want = reference_coeffs(factors, N)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@settings(deadline=None, max_examples=100)
@given(factor_maps(n_min=2), st.data())
def test_missing_prime_is_the_smallest(case, data):
    N, factors = case
    gone = data.draw(st.sets(st.sampled_from(sorted(factors)), min_size=1))
    for p in gone:
        del factors[p]
    with pytest.raises(MissingPrimeError) as err:
        dirichlet_coeffs(factors, N)
    assert err.value.p == min(gone)
    with pytest.raises(MissingPrimeError) as err:
        partial_L(3.0, N, factors)
    assert err.value.p == min(gone)


def test_delta_sym3_real_parts_are_bit_equal(delta_sym3_factors_8k, delta_sym3_coeffs_8k):
    want = reference_coeffs(delta_sym3_factors_8k, 8192)
    got = delta_sym3_coeffs_8k.values
    assert np.array_equal(got.real.view(np.int64), want.real.view(np.int64))
    # the imaginary parts are rounding noise of an exactly real series
    assert np.max(np.abs(got.imag)) < 1e-14


@pytest.mark.parametrize("s", [3.0, 2.5 + 1j, 0.9])
def test_degree_0_factors_leave_partial_L_bits_unchanged(delta_sym3_factors_8k, s):
    # level 35: the factor 1 sits past the first primes, where the Kahan
    # compensation is already nonzero
    factors = dict(delta_sym3_factors_8k)
    factors[5] = ReciprocalPoly([1])
    factors[7] = ReciprocalPoly([1])
    trace = partial_L(s, 8192, factors)
    value, checkpoints = reference_partial_L(s, 8192, factors, {5, 7})
    assert trace.value == value and trace.checkpoints == checkpoints
