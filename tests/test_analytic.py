import dataclasses
import gc
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import loggamma

import symcube
from symcube import analytic
from symcube.analytic import (
    AFEConfig, CoefficientTable, CutoffTooSmall, LocalPoleError, MissingPrimeError,
    VERDICT_CONSISTENT, VERDICT_FLAGGED, _BABY, _BLOCK, _CONTOUR, _GIANT, _NODES,
    _STEP, _VMAX, _afe_block, _kernel_sums, _kernel_weights, _loggamma, _powers, afe_value, afe_values,
    analytic_conductor, default_cutoff, delta_sym3_config,
    dirichlet_coeffs, dirichlet_sum, epsilon_probe, gamma_completed,
    inject_pole_factor, partial_L, pole_scan, primes_upto)
from symcube.localfactor import RepTag, ReciprocalPoly, local_factor
from symcube.satake import SatakeClass

EPS = np.finfo(np.float64).eps


def _at_cutoff(cutoff):
    """The shipped sym3 config with another cutoff."""
    return dataclasses.replace(delta_sym3_config(), cutoff=cutoff)

# frozen oracle value: e1 of the sym-cube eigenvalues at p=2 for a_2 = -24,
# weight 12: with t = -24 * 2^{-11/2} and alpha*beta = 1 it equals t^3 - 2t
LAMBDA2_SYM3 = 0.9115048351232837


def test_lambda_one_and_two(delta_sym3_coeffs_8k):
    assert complex(delta_sym3_coeffs_8k.values[1]) == 1.0
    assert abs(complex(delta_sym3_coeffs_8k.values[2]) - LAMBDA2_SYM3) < 1e-12


def test_multiplicativity_random_pairs(delta_sym3_coeffs_8k):
    rng = random.Random(70)
    t = delta_sym3_coeffs_8k
    for _ in range(200):
        m = rng.randrange(2, 90)
        n = rng.randrange(2, 90)
        if math.gcd(m, n) != 1:
            continue
        v = t.values
        assert abs(complex(v[m * n]) - complex(v[m]) * complex(v[n])) < 1e-10


def test_recurrence_reexpansion(delta_sym3_factors_8k, delta_sym3_coeffs_8k):
    # P_p(T) * sum_k lambda(p^k) T^k = 1 + O(T^{K+1})
    t = delta_sym3_coeffs_8k
    for p in (2, 3, 5, 7):
        poly = delta_sym3_factors_8k[p]
        K = int(math.log(t.n_max) / math.log(p))
        series = [complex(t.values[p ** k]) for k in range(K + 1)]
        prod = np.convolve(np.array(poly.to_complex().coeffs), np.array(series))
        assert abs(prod[0] - 1.0) < 1e-12
        assert np.max(np.abs(prod[1:K + 1])) < 1e-10


def test_missing_prime_signaled():
    factors = {2: local_factor(RepTag.SYM3, SatakeClass(1.0, 1.0, 2))}
    with pytest.raises(MissingPrimeError) as err:
        dirichlet_coeffs(factors, 10)
    assert err.value.p == 3


def test_ramified_primes_contribute_one():
    factors = {p: local_factor(RepTag.SYM3, SatakeClass(1.0, 1.0, p))
               for p in primes_upto(30)}
    factors[2] = ReciprocalPoly([1])
    t = dirichlet_coeffs(factors, 30)
    assert complex(t.values[2]) == 0.0 and complex(t.values[4]) == 0.0
    assert complex(t.values[6]) == 0.0
    assert complex(t.values[3]) == 4.0     # e1 of four unit eigenvalues, then Hecke growth


def test_partial_product_trivia(delta_sym3_factors_8k):
    trace = partial_L(3.0, 1, {})
    assert trace.value == 1.0          # empty product
    trace = partial_L(0.9, 100, delta_sym3_factors_8k)
    assert trace.outside_convergence


def test_partial_product_checkpoints_converge(delta_sym3_factors_8k):
    trace = partial_L(3.0, 8192, delta_sym3_factors_8k)
    xs = [x for x, _ in trace.checkpoints]
    assert xs == sorted(xs)
    v_half = next(v for x, v in trace.checkpoints if x >= 4096)
    assert abs(trace.value - v_half) < 1e-6 * abs(trace.value)


def test_euler_dirichlet_agreement(delta_sym3_factors_8k, delta_sym3_coeffs_8k):
    prod = partial_L(3.0, 8192, delta_sym3_factors_8k).value
    ds = dirichlet_sum(3.0, delta_sym3_coeffs_8k)
    assert abs(prod - ds) < 1e-6 * abs(ds)


def test_local_pole_error():
    # eigenvalue 2^{s0} at p=2 puts a zero of P at s = s0
    poly = ReciprocalPoly([1.0, -2.0 ** 1.5])
    with pytest.raises(LocalPoleError):
        partial_L(1.5, 3, {2: poly, 3: ReciprocalPoly([1.0, -1.0])})


def test_afe_config_validation():
    for bad in ({"gamma_shifts": ()}, {"gamma_shifts": (math.nan, 16.5)},
                {"gamma_shifts": (5.5, math.inf)}, {"x_scale": 0.0}, {"x_scale": -3.0},
                {"x_scale": math.inf}, {"x_scale": math.nan}, {"conductor": 0},
                {"conductor": math.nan}, {"cutoff": -5}):
        with pytest.raises(ValueError):
            AFEConfig(**{"gamma_shifts": (5.5, 16.5), **bad})
    cfg = delta_sym3_config()
    assert analytic_conductor(0.5, cfg) > 1


def test_smoothing_weights_against_quadrature_oracle():
    # independent oracle: adaptive quadrature of the same line integral
    import mpmath
    cfg = delta_sym3_config()
    s = 0.5 + 1j
    for y in (0.25, 2.0):
        got = _kernel_sums([_powers(np.log([y]))], [_kernel_weights(s, cfg)], [1])[0][0]

        def integrand(v):
            u = mpmath.mpc(2.5, v)
            w = 1
            for k in cfg.gamma_shifts:
                z = s + u + k
                w *= 2 * (2 * mpmath.pi) ** (-z) * mpmath.gamma(z)
            return w * mpmath.mpf(y) ** (-u) / u / (2 * mpmath.pi)

        want = mpmath.quad(integrand, [-40, 0, 40])
        assert abs(got - complex(want)) < 1e-12 * max(1.0, abs(complex(want)))


@pytest.mark.parametrize("s", [0.55, 0.5 + 2j, 3 + 1.3j])
def test_smoothing_weights_against_a_finer_trapezoid(s):
    # oracle: the step-1/8 trapezoid sum of the contour integral at 30 digits,
    # which the shipped step 1/4 must reach to rounding.  The float weights
    # w_k carry their own rounding (about 10 eps sum |w_k| here, on either
    # step); that part is carried through exactly and added to the bound
    # the kernel meets on exact weights
    import mpmath
    cfg = delta_sym3_config()
    ys = [1 / 16, 1.0, 16.0, 250.0]
    w = _kernel_weights(s, cfg)
    got = _kernel_sums([_powers(np.log(ys))], [w], [len(ys)])[0]
    with mpmath.workdps(30):
        fine = mpmath.mpf(1) / 8
        sm = mpmath.mpc(s)
        nodes, g = [], []
        for k in range(int(2 * _VMAX / fine) + 1):
            u = mpmath.mpc(_CONTOUR, -_VMAX + k * fine)
            val = mpmath.mpf(cfg.conductor) ** ((sm + u) / 2) / u / (2 * mpmath.pi)
            for kappa in cfg.gamma_shifts:
                z = sm + u + kappa
                val *= 2 * (2 * mpmath.pi) ** (-z) * mpmath.gamma(z)
            nodes.append(u)
            g.append(val)
        r = round(_STEP / fine)     # the shipped nodes are every r-th fine node
        assert [complex(u) for u in nodes[::r]] == _NODES.tolist()
        for y, v in zip(ys, got):
            ly = mpmath.log(y)
            want = fine * mpmath.fsum(gk * mpmath.exp(-u * ly) for u, gk in zip(nodes, g))
            rounded = mpmath.fsum((mpmath.mpc(complex(wk)) - _STEP * gk) * mpmath.exp(-u * ly)
                                  for wk, u, gk in zip(w, nodes[::r], g[::r]))
            bound = 8 * EPS * np.sum(np.abs(w)) * y ** -_CONTOUR + abs(complex(rounded))
            assert abs(v - complex(want)) <= bound


def test_afe_value_against_direct_series(delta_sym3_coeffs_8k):
    # in the region of absolute convergence the completed value must match
    # gamma(s) times the plain Dirichlet sum
    cfg = delta_sym3_config()
    s = 2.5
    direct = gamma_completed(s, cfg) * dirichlet_sum(s, delta_sym3_coeffs_8k)
    got = afe_value(s, cfg, delta_sym3_coeffs_8k)
    assert abs(got - direct) < 1e-7 * abs(direct)


def test_afe_conjugate_symmetry(delta_sym3_coeffs_8k):
    cfg = delta_sym3_config()
    s = 0.7 + 0.9j
    a = afe_value(s, cfg, delta_sym3_coeffs_8k)
    b = afe_value(s.conjugate(), cfg, delta_sym3_coeffs_8k)
    assert abs(b - a.conjugate()) < 1e-12 * abs(a)


def test_afe_cutoff_stability(delta_sym3_coeffs_8k):
    big = delta_sym3_config()
    small = _at_cutoff(2000)
    v1 = afe_value(0.5, small, delta_sym3_coeffs_8k)
    v2 = afe_value(0.5, big, delta_sym3_coeffs_8k)
    assert abs(v1 - v2) < 1e-6 * max(abs(v2), 1e-30)


def test_afe_degree2_sanity_oracle(delta_8k):
    # single Gamma_C factor: the degree-2 completed function of the built-in
    # form itself, validated against an independent series evaluation
    from symcube.ingest import satake_table
    table = satake_table(delta_8k)
    factors = {p: local_factor(RepTag.STANDARD, c) for p, c in table.items()}
    coeffs = dirichlet_coeffs(factors, 8192)
    cfg = AFEConfig(gamma_shifts=(5.5,), conductor=1,
                    self_dual=True, cutoff=2000)
    s = 3.0
    direct = gamma_completed(s, cfg) * dirichlet_sum(s, coeffs)
    got = afe_value(s, cfg, coeffs)
    assert abs(got - direct) < 1e-6 * abs(direct)
    # and the root number of the full completed function is +1
    rep = epsilon_probe([0.5 + 0.5j, 0.5 + 1j], cfg, coeffs)
    assert all(abs(e - 1.0) < 1e-6 for e in rep.estimates)


def test_afe_out_of_strip_rejected(delta_sym3_coeffs_8k):
    with pytest.raises(ValueError):
        afe_value(-2.0, delta_sym3_config(), delta_sym3_coeffs_8k)


def _unbatched_afe(s, cfg, coeffs, step=_STEP):
    """Reference: one point's smoothed sum with its own matrix of
    exponentials exp(-outer(log y, u)), built in 2048-row blocks, on the
    module's contour and truncation with trapezoid step `step`.  Returns the
    value and the rounding scale S = sum_n |lambda_n n^{-s}| y_n^{-Re u}
    sum_k |w_k| of the sum."""
    s = complex(s)
    cutoff = cfg.cutoff or default_cutoff(s, cfg)
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    u = _CONTOUR + 1j * np.arange(-_VMAX, _VMAX + step / 2, step)
    lg = 0.5 * (s + u) * math.log(cfg.conductor)
    for k in cfg.gamma_shifts:
        w = s + u + k
        lg = lg + math.log(2.0) - w * math.log(2.0 * math.pi) + loggamma(w)
    weights = np.exp(lg) / u * (step / (2 * math.pi))
    logy = np.log(n / cfg.x_scale)
    V = np.concatenate([np.exp(-np.outer(logy[i:i + 2048], u)) @ weights
                        for i in range(0, cutoff, 2048)])
    terms = coeffs.values[1:cutoff + 1] * n ** (-s)
    scale = np.sum(np.abs(terms) * np.exp(-_CONTOUR * logy)) * np.sum(np.abs(weights))
    return complex(np.sum(terms * V)), float(scale)


PROBE_POINTS = [z for s in (0.5 + 0.5j, 0.5 + 1j, 0.5 + 2j) for z in (s, 1 - s)]
SCAN_POINTS = [0.55 + 0.05 * i for i in range(9)]
# with cutoff = 0 and x_scale 64 these derive cutoffs on both sides of 2048
MIXED_POINTS = [0.6, 0.5 + 0.5j, 3.0, 2.0 - 1j, 0.5 + 2j]
MIXED_CONFIG = dataclasses.replace(delta_sym3_config(), cutoff=0, x_scale=64.0)


@pytest.mark.parametrize("cfg, points", [
    (delta_sym3_config(), PROBE_POINTS),
    (delta_sym3_config(), SCAN_POINTS),
    (MIXED_CONFIG, MIXED_POINTS),
], ids=["probe-cutoff4000", "scan-cutoff4000", "mixed-cutoff0"])
def test_afe_values_equal_per_point_sums(delta_sym3_coeffs_8k, cfg, points):
    coeffs = delta_sym3_coeffs_8k
    got = afe_values(points, cfg, coeffs)
    assert got == [afe_value(s, cfg, coeffs) for s in points]
    # the reference forms every y^{-u} as its own exponential, so the two
    # routes agree to rounding: 0.33 eps S measured, 8 eps S allowed
    for s, value in zip(points, got):
        ref, scale = _unbatched_afe(s, cfg, coeffs)
        assert abs(value - ref) <= 8 * EPS * scale


@pytest.mark.parametrize("cfg, points", [
    (delta_sym3_config(), PROBE_POINTS),
    (MIXED_CONFIG, MIXED_POINTS),
], ids=["probe-cutoff4000", "mixed-cutoff0"])
def test_afe_values_against_a_finer_quadrature(delta_sym3_coeffs_8k, cfg, points):
    # the step-1/8 trapezoid aliases the pole of 1/u at e^{-40 pi}, the
    # shipped step at e^{-20 pi}: both far below rounding, so the sums agree
    # to the rounding scale S
    coeffs = delta_sym3_coeffs_8k
    for s, value in zip(points, afe_values(points, cfg, coeffs)):
        ref, scale = _unbatched_afe(s, cfg, coeffs, step=1 / 8)
        assert abs(value - ref) <= 8 * EPS * scale


def test_afe_values_support_im_s_up_to_6(delta_sym3_factors_8k, delta_sym3_coeffs_8k):
    # oracle: gamma(s) times the Euler product, at Re(s) = 3 where it converges
    # absolutely; the smoothed sum is 8.7e-10 off it at |Im s| = 6, 2e-9 at 7
    cfg = delta_sym3_config()
    for s in (3 + 6j, 3 - 6j):
        want = gamma_completed(s, cfg) * partial_L(s, 8192, delta_sym3_factors_8k).value
        assert abs(afe_value(s, cfg, delta_sym3_coeffs_8k) - want) < 1e-9 * abs(want)
    with pytest.raises(ValueError, match=r"\|Im\(s\)\| <= 6"):
        afe_value(3 + 7j, cfg, delta_sym3_coeffs_8k)


def test_afe_values_support_re_s_up_to_12(delta_sym3_coeffs_8k):
    # oracle: gamma(s) times the plain Dirichlet series, which converges
    # absolutely here; the error grows with Re(s), to 1.9e-9 on [14, 15].
    # The corner with |Im s| = 6 is less accurate than either axis: 1.9e-9
    # at 11 +- 6i and 5.8e-10 at 12 +- 6i, so those points get their own bound
    cfg = delta_sym3_config()
    for s, bound in ((3.0, 1e-9), (6.0, 1e-9), (9.0, 1e-9), (12.0, 1e-9),
                     (11 + 6j, 3e-9), (11 - 6j, 3e-9), (12 + 6j, 3e-9), (12 - 6j, 3e-9)):
        want = gamma_completed(s, cfg) * dirichlet_sum(s, delta_sym3_coeffs_8k)
        assert abs(afe_value(s, cfg, delta_sym3_coeffs_8k) - want) < bound * abs(want)


@pytest.mark.parametrize("s", [12.5, 100.0, 1e300, 1e300 + 1j])
def test_afe_values_refuse_a_point_above_re_s_12_before_any_sum(delta_sym3_coeffs_8k, s):
    cfg = delta_sym3_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no overflow in the kernel weights
        with pytest.raises(ValueError, match=r"above the supported Re\(s\) <= 12"):
            afe_values([3.0, s], cfg, delta_sym3_coeffs_8k)
        with pytest.raises(ValueError, match=r"above the supported Re\(s\) <= 12"):
            default_cutoff(s, AFEConfig(gamma_shifts=(5.5, 16.5)))


@pytest.mark.parametrize("s", [float("nan"), complex(3, float("nan")), float("inf"),
                               complex(3, float("-inf")), complex(float("nan"), float("inf"))])
def test_afe_values_refuse_a_non_finite_point_before_any_sum(delta_sym3_coeffs_8k, s):
    # every comparison with NaN is false, so the range checks alone let it through
    cfg = delta_sym3_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not a finite point"):
            afe_values([3.0, s], cfg, delta_sym3_coeffs_8k)
        with pytest.raises(ValueError, match="is not a finite point"):
            default_cutoff(s, AFEConfig(gamma_shifts=(5.5, 16.5)))


@pytest.mark.parametrize("s", [float("nan"), complex(3, float("nan")), float("inf"),
                               complex(float("-inf"), 1)])
def test_gamma_factor_and_conductor_refuse_a_non_finite_point(s):
    # both are valid outside the afe_values strip, so only finiteness is checked
    cfg = delta_sym3_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: gamma_completed(s, cfg), lambda: gamma_completed([3.0, s], cfg),
                     lambda: analytic_conductor(s, cfg)):
            with pytest.raises(ValueError, match=re.escape(f"s = {complex(s)} is not a "
                                                           "finite point")):
                call()
        assert analytic_conductor(-40.0, cfg) > 0
        assert np.isfinite(gamma_completed([-40.25, 20.0 + 30j], cfg)).all()


def test_mixed_points_derive_cutoffs_across_a_block():
    cutoffs = {default_cutoff(s, MIXED_CONFIG) for s in MIXED_POINTS}
    assert len(cutoffs) == len(MIXED_POINTS)
    assert min(cutoffs) < 2048 < max(cutoffs) <= 8192


def test_afe_values_empty_batch(delta_sym3_coeffs_8k):
    afe_value(3, delta_sym3_config(), delta_sym3_coeffs_8k)
    info = _afe_block.cache_info()
    assert afe_values([], delta_sym3_config(), delta_sym3_coeffs_8k) == []
    assert _afe_block.cache_info() == info   # the cached blocks stay
    assert _kernel_sums([_powers(np.log(np.arange(1.0, 9.0)))], [], []) == []


def test_nodes_are_an_exact_arithmetic_progression():
    # _kernel_sums factors y^{-u_k} into a giant and a baby step, which is
    # exact only while the real parts are equal and the imaginary parts are
    # exactly _STEP apart
    k = np.arange(len(_NODES))
    assert np.all(_NODES.real == _CONTOUR)
    assert np.array_equal(_NODES.imag, -_VMAX + _STEP * k)
    m = k % _BABY
    assert np.array_equal(_NODES, _NODES[k - m] + 1j * _STEP * m)
    assert _BABY * (_GIANT - 1) < len(_NODES) <= _BABY * _GIANT


def test_kernel_sums_against_exact_discrete_sum():
    # oracle: sum_k w_k y^{-u_k} at 40 digits, with the same float weights
    # and nodes, at y = exp(logy) for the float logy the kernel is given
    import mpmath
    cfg = delta_sym3_config()
    weights = [_kernel_weights(s, cfg) for s in (0.55, 0.5 + 2j, 3 + 1.3j)]
    logy = np.log(np.array([1, 2, 16, 800, 3999]) / 16.0)
    got = _kernel_sums([_powers(logy)], weights, [len(logy)] * len(weights))
    with mpmath.workdps(40):
        nodes = [mpmath.mpc(complex(u)) for u in _NODES]
        for w, V in zip(weights, got):
            for t, v in zip(logy, V):
                exact = mpmath.fsum(mpmath.mpc(complex(wk)) * mpmath.exp(-u * mpmath.mpf(t))
                                    for wk, u in zip(w, nodes))
                bound = 8 * EPS * np.sum(np.abs(w)) * math.exp(-_CONTOUR * t)
                assert abs(v - complex(exact)) <= bound


# --- the kernel-power blocks afe_values keeps between calls ----------------

PROBE_POINTS = [0.5 + 0.5j, 0.5 + 1j, 0.5 + 2j]
# bytes of kernel powers per row: _GIANT + _BABY complex128 values
ROW_BYTES = (_GIANT + _BABY) * 16
BLOCK_BYTES = _BLOCK * ROW_BYTES
# more rows than the four blocks the cache keeps; the last block has one row
LONG_ROWS = 8 * _BLOCK + 1


def _unit_table(rows):
    """lambda(1) = 1 and 0 elsewhere, so every smoothed sum passes the tail check."""
    table = CoefficientTable(np.zeros(rows + 1, dtype=np.complex128))
    table.values[1] = 1
    return table


def _afe_calls(cfg, coeffs):
    """The three callers of afe_values, each as a call without arguments."""
    return [lambda: epsilon_probe(PROBE_POINTS, cfg, coeffs),
            lambda: pole_scan((0.55, 0.95), 9, cfg, coeffs),
            lambda: afe_values([3, 3 + 1.3j, 0.7 - 5j], cfg, coeffs)]


def _afe_results(cfg, coeffs):
    return [call() for call in _afe_calls(cfg, coeffs)]


def test_afe_results_equal_from_a_cold_a_warm_and_an_evicted_cache(delta_sym3_coeffs_8k):
    cfg = delta_sym3_config()
    cold = []
    for call in _afe_calls(cfg, delta_sym3_coeffs_8k):
        _afe_block.cache_clear()
        cold.append(call())
    _afe_results(cfg, delta_sym3_coeffs_8k)
    info = _afe_block.cache_info()
    assert _afe_results(cfg, delta_sym3_coeffs_8k) == cold
    # the probe's two 64-row blocks (x_scale 1/2 and 2) and the two blocks of
    # 4000 rows fill the four the cache keeps, and each call finds its two
    assert _afe_block.cache_info().hits == info.hits + 6
    assert _afe_block.cache_info().misses == info.misses
    afe_values([3.0], _at_cutoff(LONG_ROWS), _unit_table(LONG_ROWS))
    info = _afe_block.cache_info()
    assert _afe_results(cfg, delta_sym3_coeffs_8k) == cold
    assert _afe_block.cache_info().misses == info.misses + 4


def test_a_second_probe_and_scan_round_draws_no_new_block(delta_sym3_coeffs_8k):
    # the probe's two x_scale keys and the scan's two blocks of 4000 rows fit
    # the four blocks the cache keeps; a third probe key would evict the scan's
    cfg = delta_sym3_config()

    def probe_and_scan():
        return (epsilon_probe(PROBE_POINTS, cfg, delta_sym3_coeffs_8k),
                pole_scan((0.55, 0.95), 9, cfg, delta_sym3_coeffs_8k))

    first = probe_and_scan()
    misses = _afe_block.cache_info().misses
    assert probe_and_scan() == first
    assert _afe_block.cache_info().misses == misses


@pytest.mark.parametrize("change", [{"x_scale": 20.0}, {"cutoff": 3000}])
def test_afe_cache_keys_blocks_on_cutoff_and_x_scale(delta_sym3_coeffs_8k, change):
    # the scan and afe_values follow both keys; the probe's sums read neither
    cfg = dataclasses.replace(delta_sym3_config(), **change)
    calls = _afe_calls(cfg, delta_sym3_coeffs_8k)[1:]
    _afe_block.cache_clear()
    fresh = [call() for call in calls]
    info = _afe_block.cache_info()
    for call in _afe_calls(delta_sym3_config(), delta_sym3_coeffs_8k)[1:]:
        call()
    # a new x_scale builds both blocks of 4000 rows; a new cutoff its last one
    assert _afe_block.cache_info().misses == info.misses + (2 if "x_scale" in change else 1)
    # both tables fit in the four blocks the cache keeps
    info = _afe_block.cache_info()
    assert [call() for call in calls] == fresh
    assert _afe_block.cache_info().misses == info.misses
    probe = epsilon_probe(PROBE_POINTS, cfg, delta_sym3_coeffs_8k)
    info = _afe_block.cache_info()
    assert epsilon_probe(PROBE_POINTS, delta_sym3_config(), delta_sym3_coeffs_8k) == probe
    assert _afe_block.cache_info().misses == info.misses


def test_afe_blocks_are_read_only_and_equal_a_fresh_powers():
    for start, stop in ((0, _BLOCK), (_BLOCK, 4000), (3 * _BLOCK, 3 * _BLOCK + 1)):
        P, Q = _afe_block(start, stop, 16.0)
        # the rows of the whole table, as one array, then sliced
        logy = np.log(np.arange(1, stop + 1, dtype=np.float64) / 16.0)[start:]
        P0, Q0 = _powers(logy)
        assert P.shape == (stop - start, _GIANT) and Q.shape == (stop - start, _BABY)
        assert np.array_equal(P, P0) and np.array_equal(Q, Q0)
        for factor in (P, Q):
            assert not factor.flags.writeable
            with pytest.raises(ValueError):
                factor[0, 0] = 1


def test_a_short_table_gets_its_own_last_block(delta_sym3_coeffs_8k):
    short = dataclasses.replace(delta_sym3_config(), cutoff=3000)
    _afe_block.cache_clear()
    cold = afe_values(PROBE_POINTS, short, delta_sym3_coeffs_8k)
    _afe_block.cache_clear()
    afe_values(PROBE_POINTS, dataclasses.replace(short, cutoff=5000), delta_sym3_coeffs_8k)
    info = _afe_block.cache_info()
    assert afe_values(PROBE_POINTS, short, delta_sym3_coeffs_8k) == cold
    # the full block (0, 2048] is shared; (2048, 3000] is not cut from (2048, 4096]
    assert _afe_block.cache_info().hits == info.hits + 1
    assert _afe_block.cache_info().misses == info.misses + 1
    assert _afe_block(_BLOCK, 3000, 16.0)[0].shape == (3000 - _BLOCK, _GIANT)


def test_afe_values_past_four_blocks_cycle_the_cache_like_kernel_sums():
    rows = LONG_ROWS
    coeffs = CoefficientTable(np.random.default_rng(7).normal(size=rows + 1) + 0j)
    points = [3 + 1j, 0.6 + 0j, 2 - 0.5j]
    _afe_block.cache_clear()
    got = afe_values(points, _at_cutoff(rows), coeffs)
    got += afe_values(points[:1], _at_cutoff(4 * _BLOCK + 1), coeffs)
    info = _afe_block.cache_info()
    # 9 blocks, then 5 more: the first four were evicted by the long table
    assert (info.hits, info.misses, info.currsize) == (0, 14, 4)
    n = np.arange(1, rows + 1, dtype=np.float64)
    logy = np.log(n / 16.0)
    lengths = [rows] * len(points) + [4 * _BLOCK + 1]
    V = _kernel_sums([_powers(logy[i:i + _BLOCK]) for i in range(0, rows, _BLOCK)],
                     _kernel_weights(points + points[:1], delta_sym3_config()), lengths)
    for s, value, V_p in zip(points + points[:1], got, V):
        terms = coeffs.values[1:len(V_p) + 1] * n[:len(V_p)] ** (-s) * V_p
        assert value == complex(np.sum(terms))


def test_afe_cache_holds_at_most_four_blocks_after_any_sequence(delta_sym3_coeffs_8k):
    # numpy reports its buffers to tracemalloc; each kind of call is made once
    # before tracing, so that one-time state (lazy numpy tables) is not counted
    long_table = _unit_table(LONG_ROWS)
    long_cfg = _at_cutoff(LONG_ROWS)
    calls = [  # (rows, points, call)
        (4000, 1, lambda: afe_values([3.0], delta_sym3_config(), delta_sym3_coeffs_8k)),
        (LONG_ROWS, 1, lambda: afe_values([3.0], long_cfg, long_table)),
        (LONG_ROWS, 3, lambda: afe_values([3.0, 2 + 1j, 0.6], long_cfg, long_table)),
        (3000, 1, lambda: afe_values(
            [3.0], dataclasses.replace(long_cfg, cutoff=3000, x_scale=20.0), long_table)),
        (4000, 1, lambda: afe_values([3.0], delta_sym3_config(), delta_sym3_coeffs_8k)),
    ]
    for _, _, call in calls:
        call()
    _afe_block.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        # what building one block takes at its peak (outer products and logs)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _afe_block.__wrapped__(0, _BLOCK, 16.0)
        build = tracemalloc.get_traced_memory()[1] - before
        assert BLOCK_BYTES <= build <= 1.3 * BLOCK_BYTES
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        for k, (rows, n_points, call) in enumerate(calls):
            tracemalloc.reset_peak()
            call()
            current, peak = tracemalloc.get_traced_memory()
            held = current - base
            if k == 0:     # the two blocks of the 4000-row table
                assert 4000 * ROW_BYTES <= held <= 1.01 * 4000 * ROW_BYTES
            assert held <= 4 * BLOCK_BYTES + 4096
            # beside the 4 held blocks: the one being built, the call's arrays
            # of one value per row (n, and a kernel sum per point) and 64 KiB
            # of small ones (the quadrature weights of the points, ...)
            per_row = rows * (8 + 16 * n_points)
            assert peak - base <= 4 * BLOCK_BYTES + build + per_row + 65536
    finally:
        tracemalloc.stop()


def test_afe_values_rejects_a_batch_with_an_out_of_strip_point(delta_sym3_coeffs_8k):
    cfg = delta_sym3_config()
    with pytest.raises(ValueError) as single:
        afe_value(-2.0, cfg, delta_sym3_coeffs_8k)
    with pytest.raises(ValueError) as batch:
        afe_values([0.5 + 1j, -2.0, 0.7], cfg, delta_sym3_coeffs_8k)
    assert type(batch.value) is type(single.value)
    assert str(batch.value) == str(single.value)


def test_afe_cutoff_too_small(delta_sym3_coeffs_8k):
    cfg = _at_cutoff(16)
    with pytest.raises(CutoffTooSmall):
        afe_value(0.5, cfg, delta_sym3_coeffs_8k)


def test_afe_values_refuse_a_cutoff_past_the_table(delta_sym3_coeffs_8k):
    cfg = _at_cutoff(delta_sym3_coeffs_8k.n_max + 1)
    with pytest.raises(CutoffTooSmall) as err:
        afe_values([0.5 + 1j], cfg, delta_sym3_coeffs_8k)
    assert (err.value.needed, err.value.given) == (8193, 8192)


def test_a_derived_cutoff_is_redone_once_at_twice_its_length():
    # the degree-6 GL2 x GL3 series of Delta: at the first four points the
    # derived length leaves a tail past 1e-9, and twice that length passes
    from symcube.ingest import delta_form, satake_table
    from symcube.localfactor import eigenvalues, rankin_selberg
    coeffs = dirichlet_coeffs({p: rankin_selberg(c, eigenvalues(RepTag.GJ_ADJOINT, c))
                               for p, c in satake_table(delta_form(20000)).items()}, 20000)
    points = [0.5 + 0.5j, 0.5 + 2j, 0.7, 0.5 + 6j, 3.0]
    cfg = AFEConfig((5.5, 5.5, 16.5), cutoff=0)
    lengths = [default_cutoff(s, cfg) for s in points]
    assert lengths == [400, 448, 432, 848, 912]
    got = afe_values(points, cfg, coeffs)
    fixed = afe_values(points, dataclasses.replace(cfg, cutoff=16000), coeffs)
    for value, want in zip(got, fixed):
        assert abs(value - want) <= 1e-10 * abs(want)
    # the redone points at twice their length, the passing one at its own
    for s, n, value in zip(points, [2 * n for n in lengths[:4]] + lengths[4:], got):
        assert value == afe_value(s, dataclasses.replace(cfg, cutoff=n), coeffs)
    # a configured length, or a table too short for the doubled one, is refused
    with pytest.raises(CutoffTooSmall) as err:
        afe_value(points[0], dataclasses.replace(cfg, cutoff=400), coeffs)
    assert (err.value.needed, err.value.given) == (800, 400)
    with pytest.raises(CutoffTooSmall) as err:
        afe_value(points[0], cfg, CoefficientTable(coeffs.values[:800]))
    assert (err.value.needed, err.value.given) == (800, 400)


def test_epsilon_probe_skips_points_where_lambda_vanishes():
    # every Lambda(1 - s) of the zero series is below the noise floor
    zero = CoefficientTable(np.zeros(4001, dtype=complex))
    points = [0.5 + 1j, 0.7 + 2j]
    rep = epsilon_probe(points, delta_sym3_config(), zero)
    assert (rep.points, rep.estimates, rep.skipped) == ([], [], points)
    assert rep.max_pairwise_deviation == rep.modulus_deviation == math.inf


def test_epsilon_probe_positive_control(delta_sym3_coeffs_8k):
    cfg = delta_sym3_config()
    points = [0.5 + 0.5j, 0.5 + 1j, 0.5 + 2j]
    rep = epsilon_probe(points, cfg, delta_sym3_coeffs_8k)
    assert rep.max_pairwise_deviation < 1e-3
    assert rep.modulus_deviation < 1e-3
    assert not rep.skipped
    # the measured root number of this family is -1
    assert all(abs(e + 1.0) < 1e-3 for e in rep.estimates)


def test_epsilon_probe_negative_control(delta_sym3_coeffs_8k):
    cfg = AFEConfig(gamma_shifts=(6.5, 16.5), conductor=1,
                    self_dual=True, cutoff=4000)
    rep = epsilon_probe([0.5 + 0.5j, 0.5 + 1j, 0.5 + 2j], cfg,
                        delta_sym3_coeffs_8k)
    assert rep.max_pairwise_deviation > 1e-1


def test_epsilon_probe_center_is_real(delta_sym3_coeffs_8k):
    cfg = delta_sym3_config()
    rep = epsilon_probe([0.6], cfg, delta_sym3_coeffs_8k)
    if rep.estimates:
        assert abs(rep.estimates[0].imag) < 1e-6


def test_epsilon_probe_stable_under_cutoff_doubling(delta_sym3_coeffs_8k):
    # the probe sizes its own sums, so cfg.cutoff does not reach it
    points = [0.5 + 0.5j, 0.5 + 1j]
    small = epsilon_probe(points, _at_cutoff(2000),
                          delta_sym3_coeffs_8k)
    big = epsilon_probe(points, delta_sym3_config(),
                        delta_sym3_coeffs_8k)
    assert small.estimates == big.estimates and len(small.estimates) == 2


def test_epsilon_probe_refuses_the_point_that_is_its_own_reflection(delta_sym3_coeffs_8k):
    # at s = 1/2, 1 - s = s and the scales are reciprocal, so G_X = F_{1/X} and
    # the solve divides F_{1/2} - F_2 by itself: eps = 1 for any data
    with pytest.raises(ValueError, match="own reflection"):
        epsilon_probe([0.5 + 1j, 0.5], delta_sym3_config(), delta_sym3_coeffs_8k)
    afe_value(0.5, delta_sym3_config(), delta_sym3_coeffs_8k)   # the value itself is fine


@pytest.mark.parametrize("points", [[0.5 + 1j], [0.5 - 2j, 0.5 - 2j], []])
def test_epsilon_probe_refuses_one_point_on_the_critical_line(delta_sym3_coeffs_8k, points):
    # there 1 - s is the conjugate of s and the scales are reciprocal, so
    # G_X(s) is the conjugate of F_{1/X}(s) and the solved eps is a quotient
    # of conjugates: a wrong gamma shift still reads |eps| = 1, with no
    # second estimate to disagree with
    wrong = AFEConfig(gamma_shifts=(6.5, 16.5), cutoff=4000)
    for cfg in (delta_sym3_config(), wrong):
        with pytest.raises(ValueError, match="checks nothing"):
            epsilon_probe(points, cfg, delta_sym3_coeffs_8k)


def test_epsilon_probe_runs_off_the_line_or_on_two_points(delta_sym3_coeffs_8k):
    # each of these probes tells the shipped shifts from a wrong one
    wrong = AFEConfig(gamma_shifts=(6.5, 16.5), cutoff=4000)
    for points in ([0.6], [0.5 + 1j, 0.5 + 2j], [0.5 + 1j, 0.5 - 1j]):
        good = epsilon_probe(points, delta_sym3_config(), delta_sym3_coeffs_8k)
        bad = epsilon_probe(points, wrong, delta_sym3_coeffs_8k)
        assert max(good.max_pairwise_deviation, good.modulus_deviation) < 1e-5
        assert max(bad.max_pairwise_deviation, bad.modulus_deviation) > 1e-2


@pytest.mark.parametrize("index", [0, 1])
def test_solved_root_number_tells_each_shift_moved_by_one(delta_sym3_coeffs_8k, index):
    # measured spreads: 1.20 with the first shift moved and 0.78 with the second
    shifts = [5.5, 16.5]
    shifts[index] += 1
    moved = AFEConfig(gamma_shifts=tuple(shifts))
    assert epsilon_probe(PROBE_POINTS, moved, delta_sym3_coeffs_8k).max_pairwise_deviation > 0.1
    # (6.5, 16.5) off the line or at two points on it: 0.2 (|eps| - 1), 0.61 and 2.0
    wrong = AFEConfig(gamma_shifts=(6.5, 16.5))
    for points in ([0.6], [0.5 + 1j, 0.5 + 2j], [0.5 + 1j, 0.5 - 1j]):
        bad = epsilon_probe(points, wrong, delta_sym3_coeffs_8k)
        assert max(bad.max_pairwise_deviation, bad.modulus_deviation) > 0.1


def test_epsilon_probe_requires_self_dual(delta_sym3_coeffs_8k):
    cfg = AFEConfig(gamma_shifts=(5.5, 16.5), self_dual=False,
                    cutoff=4000)
    with pytest.raises(ValueError):
        epsilon_probe([0.5 + 1j], cfg, delta_sym3_coeffs_8k)


def test_pole_scan_genuine(delta_sym3_coeffs_8k):
    cfg = delta_sym3_config()
    report = pole_scan((0.55, 0.95), 9, cfg, delta_sym3_coeffs_8k)
    assert report.verdict == VERDICT_CONSISTENT
    assert report.max_normalized < 3.0
    assert len(report.grid) == 9


def test_pole_scan_injected_pole_flagged(delta_sym3_coeffs_8k):
    cfg = delta_sym3_config()
    bad = inject_pole_factor(delta_sym3_coeffs_8k, 2, 0.75)
    report = pole_scan((0.55, 0.95), 9, cfg, bad)
    assert report.verdict == VERDICT_FLAGGED
    assert report.flagged_points


def test_pole_scan_single_point(delta_sym3_coeffs_8k):
    report = pole_scan((0.7, 0.7), 5, delta_sym3_config(), delta_sym3_coeffs_8k)
    assert len(report.grid) == 1


@pytest.mark.parametrize("interval", [(-1.7e308, 1.7e308), (1.7e308, -1.7e308),
                                      (float("nan"), 0.7), (0.7, float("inf"))])
def test_pole_scan_refuses_an_interval_without_a_finite_length(delta_sym3_coeffs_8k,
                                                               interval):
    # b - a = inf would put nan and inf on the grid, points nobody asked for
    a, b = interval
    with pytest.raises(ValueError, match=re.escape(f"interval [{a}, {b}]")):
        pole_scan(interval, 9, delta_sym3_config(), delta_sym3_coeffs_8k)


def test_inject_pole_factor_series():
    # injecting at p with weight w multiplies the p-part by sum w^k T^k
    vals = np.zeros(17, dtype=np.complex128)
    vals[1:] = 1.0
    from symcube.analytic import CoefficientTable
    t = CoefficientTable(vals)
    out = inject_pole_factor(t, 2, 1.0)
    assert abs(out.values[2] - (1 + 2.0)) < 1e-14
    assert abs(out.values[4] - (1 + 2.0 + 4.0)) < 1e-14
    assert abs(out.values[3] - 1.0) < 1e-14
    assert abs(out.values[12] - (1 + 2 + 4)) < 1e-14   # 12 = 4 * 3


@pytest.mark.parametrize("p", [1, 0, -2, 2.0])
def test_inject_pole_factor_needs_an_integer_p_at_least_2(delta_sym3_coeffs_8k, p):
    with pytest.raises(ValueError):
        inject_pole_factor(delta_sym3_coeffs_8k, p, 0.75)


def test_inject_pole_factor_overflow_is_a_value_error(delta_sym3_coeffs_8k):
    with pytest.raises(ValueError, match="overflows"):
        inject_pole_factor(delta_sym3_coeffs_8k, 2, 1000.0)


def test_import_does_not_load_scipy_special():
    """Neither the import nor an afe run, which evaluates every Gamma factor,
    loads scipy: log Gamma is computed in the package."""
    src = os.path.dirname(os.path.dirname(symcube.__file__))
    repo = os.path.dirname(src)
    code = ("import sys, symcube\n"
            "print('scipy' in sys.modules)\n"
            "from symcube.cli import main\n"
            "code = main(['afe', '--coeffs', 'builtin:delta:4000',\n"
            "             '--config', 'data/delta_sym3_afe.cfg'])\n"
            "print(code, 'scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=repo, env=dict(os.environ, PYTHONPATH=src), check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 False"


@pytest.mark.parametrize("re_w", [-3.3, 0.5, 2.5, 8.0, 19.5])
def test_loggamma_against_mpmath(re_w):
    # the principal branch too: mpmath.loggamma is continuous off the
    # negative real axis, as scipy.special.loggamma is
    import mpmath
    w = re_w + 1j * np.linspace(-62.0, 62.0, 497)
    got = _loggamma(w)
    with mpmath.workdps(40):
        for wi, g in zip(w, got):
            exact = complex(mpmath.loggamma(mpmath.mpc(wi.real, wi.imag)))
            assert abs(g - exact) <= 1e-14 * max(1.0, abs(exact))


def test_loggamma_of_a_batch_is_elementwise():
    # a point's weights do not depend on the other points of its batch
    cfg = delta_sym3_config()
    points = [0.55, 0.5 + 2j, 1 - (0.5 + 2j), 3 + 1.3j, -0.4 + 7j]
    w = np.add.outer(np.array(points), _NODES)[..., None] + np.array(cfg.gamma_shifts)
    batch = _loggamma(w)
    for i, s in enumerate(points):
        assert np.array_equal(_loggamma(w[i]), batch[i])
        assert np.array_equal(_kernel_weights(s, cfg), _kernel_weights(points, cfg)[i])
        assert gamma_completed(s, cfg) == gamma_completed(points, cfg)[i]


def test_primes_upto_matches_a_numpy_sieve():
    def numpy_sieve(n):
        if n < 2:
            return []
        sieve = np.ones(n + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(n ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        return np.nonzero(sieve)[0].tolist()
    for n in list(range(-1, 200)) + [9973, 10007, 100000]:
        got = primes_upto(n)
        assert got == numpy_sieve(n)
        assert all(type(p) is int for p in got)
    assert len(primes_upto(100000)) == 9592
