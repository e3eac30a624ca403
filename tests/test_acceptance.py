"""End-to-end acceptance criteria.

Each test prints one ``[PASS] criterion-N`` line (run with ``-s`` to see them
live) and enforces its stated runtime budget.
"""

import cmath
import math
import random
import time
from fractions import Fraction as Q

from symcube.analytic import (
    AFEConfig, VERDICT_CONSISTENT, VERDICT_FLAGGED, delta_sym3_config,
    dirichlet_coeffs, dirichlet_sum, epsilon_probe, inject_pole_factor,
    partial_L, pole_scan)
from symcube.cyclo import Cyclo
from symcube.g2root import (
    Affine, BETA2, BETA3, BETA4, BETA5, BETA6, POSITIVE_ROOTS, inverted_roots,
    lambda_weight, pairing, parabolic_weyl_element, reflect, rho_parabolic,
    weyl_group)
from symcube.ingest import delta_form, satake_table
from symcube.intertwining import (
    BOUNDARY, IntertwiningPole, OUTSIDE, PrincipalParams, UPPER,
    UPPER_VERTICES, FORBIDDEN_VERTICES, forbidden_triangle_contains,
    gk_coefficient, gk_pole_set, l_ratio, principal_series_pole_set,
    region_membership)
from symcube.localfactor import (
    RepTag, check_gj_identity, check_triple_identity, check_twist_identity,
    local_factor)
from symcube.monomial import (
    HAS_POLE, INERT, SPLIT, HeckeLocalData, check_monomial_r3,
    check_monomial_r30, pole_criterion)
from symcube.satake import SatakeClass


class _Budget:
    def __init__(self, name, seconds):
        self.name, self.seconds = name, seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name}: {elapsed:.2f}s over the {self.seconds}s budget"
            print(f"[PASS] {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_1_pairing_table():
    with _Budget("criterion-1 pairing table", 1.0):
        lam = lambda_weight()
        want = {
            "beta1": Affine(0, 2, 0),    # 2r
            "beta2": Affine(0, 3, 1),    # s + 3r
            "beta3": Affine(0, 1, 1),    # s + r
            "beta4": Affine(0, 0, 2),    # 2s
            "beta5": Affine(0, -1, 1),   # s - r
            "beta6": Affine(0, -3, 1),   # s - 3r
        }
        for name, beta in POSITIVE_ROOTS.items():
            assert pairing(lam, beta) == want[name]


def test_criterion_2_reflection_and_rho():
    with _Budget("criterion-2 reflection and rho_P", 1.0):
        ref = reflect(BETA6, lambda_weight())
        assert ref.a3 == Affine(0, -1, 1)     # (s - r) beta3
        assert ref.a4 == Affine(0, 3, -1)     # (3r - s) beta4
        rp = rho_parabolic()
        assert rp.a3 == Affine(0) and rp.a4 == Affine(Q(5, 2))


def test_criterion_3_weyl_group():
    with _Budget("criterion-3 weyl group", 1.0):
        group = weyl_group()
        assert len(group) == 12
        assert len({w.matrix for w in group}) == 12
        long_w = parabolic_weyl_element()
        assert inverted_roots(long_w) == {BETA2, BETA3, BETA4, BETA5, BETA6}


def test_criterion_4_identity_suites():
    with _Budget("criterion-4 identity suites", 5.0):
        rng = random.Random(7)

        def rand_class():
            def draw():
                mod = math.exp(rng.uniform(-math.log(4.0), math.log(4.0)))
                return mod * cmath.exp(2j * math.pi * rng.random())
            return SatakeClass(draw(), draw(), rng.choice([2, 3, 5, 7]))

        worst = 0.0
        for _ in range(100):
            c = rand_class()
            worst = max(worst, check_triple_identity(c),
                        check_twist_identity(c), check_gj_identity(c))
        assert worst < 1e-12, f"float-mode worst error {worst:.3e}"

        for _ in range(100):
            n = rng.choice([2, 3, 4, 5, 6, 8, 12])
            c = SatakeClass(Cyclo.root_of_unity(rng.randrange(n), n),
                            Cyclo.root_of_unity(rng.randrange(n), n),
                            rng.choice([2, 3, 5]))
            assert check_triple_identity(c) == 0.0
            assert check_twist_identity(c) == 0.0
            assert check_gj_identity(c) == 0.0


def test_criterion_5_monomial_factorizations():
    with _Budget("criterion-5 monomial factorizations", 5.0):
        rng = random.Random(11)
        primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        for i in range(50):
            n = rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 12, 16])
            d = HeckeLocalData(primes[i % len(primes)], SPLIT,
                               Cyclo.root_of_unity(rng.randrange(n), n),
                               Cyclo.root_of_unity(rng.randrange(n), n))
            assert check_monomial_r3(d) == 0.0
            assert check_monomial_r30(d) == 0.0
        for i in range(50):
            n = rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 12, 16])
            d = HeckeLocalData(primes[i % len(primes)], INERT,
                               Cyclo.root_of_unity(rng.randrange(n), n))
            assert check_monomial_r3(d) == 0.0
            assert check_monomial_r30(d) == 0.0
        for order in range(2, 13):
            verdict = pole_criterion(order)
            assert (verdict.kind == HAS_POLE) == (order == 3)


def test_criterion_6_gk_equals_l_ratio():
    with _Budget("criterion-6 constant-term coefficient", 5.0):
        rng = random.Random(13)
        count = 0
        while count < 50:
            q = rng.choice([2, 3, 5])
            r = rng.uniform(0.01, 0.49)
            s = rng.uniform(0.05, 3.0)
            n = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
            mu = cmath.exp(2j * math.pi * rng.randrange(n) / n)
            p = PrincipalParams(mu, q, r, s)
            try:
                g = gk_coefficient(p)
                l = l_ratio(p)
            except IntertwiningPole:
                continue
            count += 1
            assert abs(g - l) < 1e-10 * max(abs(l), 1e-30)
        for r in (Q(0), Q(1, 10), Q(1, 7), Q(2, 5), Q(49, 100)):
            assert gk_pole_set(1, r) == principal_series_pole_set(1, r)
            assert gk_pole_set(2, r) == principal_series_pole_set(2, r)


def test_criterion_7_region_suite():
    with _Budget("criterion-7 region suite", 10.0):
        for vr, vs in UPPER_VERTICES:
            assert region_membership(vr, vs) == BOUNDARY
        rng = random.Random(17)
        v = FORBIDDEN_VERTICES
        found = 0
        while found < 100:
            a, b = rng.random(), rng.random()
            if a + b > 1:
                a, b = 1 - a, 1 - b
            c = 1 - a - b
            r = a * float(v[0][0]) + b * float(v[1][0]) + c * float(v[2][0])
            s = a * float(v[0][1]) + b * float(v[1][1]) + c * float(v[2][1])
            if not forbidden_triangle_contains(r, s):
                continue   # landed on an edge; resample
            found += 1
            assert region_membership(r, s, "trivial") == OUTSIDE
            assert region_membership(r, s, "order2") == OUTSIDE
        n = 500
        for i in range(n):
            r = Q(i, 2 * (n - 1))
            for j in range(n):
                s = Q(j, n - 1)
                if region_membership(r, s) == UPPER:
                    assert not forbidden_triangle_contains(r, s)
                elif forbidden_triangle_contains(r, s):
                    assert region_membership(r, s) != UPPER


def test_criterion_8_euler_dirichlet_agreement():
    with _Budget("criterion-8 two-method agreement", 60.0):
        form = delta_form(100_000)
        table = satake_table(form)
        factors = {p: local_factor(RepTag.SYM3, c) for p, c in table.items()}
        coeffs = dirichlet_coeffs(factors, 100_000)
        trace = partial_L(3.0, 100_000, factors)
        series = dirichlet_sum(3.0, coeffs)
        assert abs(trace.value - series) / abs(series) < 1e-6
        half = next(v for x, v in trace.checkpoints if x >= 50_000)
        assert abs(trace.value - half) / abs(trace.value) < 1e-6
        assert not trace.outside_convergence


def test_criterion_9_epsilon_probe(delta_sym3_coeffs_8k):
    with _Budget("criterion-9 root-number probe", 120.0):
        cfg = delta_sym3_config()
        points = [0.5 + 0.5j, 0.5 + 1j, 0.5 + 2j]
        rep = epsilon_probe(points, cfg, delta_sym3_coeffs_8k)
        assert len(rep.estimates) == 3
        assert rep.max_pairwise_deviation < 1e-3
        assert rep.modulus_deviation < 1e-3
        perturbed = AFEConfig(gamma_shifts=(6.5, 16.5), conductor=1,
                              self_dual=True, cutoff=4000)
        bad = epsilon_probe(points, perturbed, delta_sym3_coeffs_8k)
        assert bad.max_pairwise_deviation > 1e-1


def test_criterion_10_pole_scan(delta_sym3_coeffs_8k):
    with _Budget("criterion-10 boundedness scan", 120.0):
        cfg = delta_sym3_config()
        report = pole_scan((0.55, 0.95), 9, cfg, delta_sym3_coeffs_8k)
        assert report.verdict == VERDICT_CONSISTENT
        assert report.max_normalized < report.threshold
        injected = inject_pole_factor(delta_sym3_coeffs_8k, 2, 0.75)
        bad = pole_scan((0.55, 0.95), 9, cfg, injected)
        assert bad.verdict == VERDICT_FLAGGED
        assert bad.flagged_points
