"""The four workloads of the benchmark.

Each workload turns its seed into inputs, makes one verification pass
through symcube's public API (one call at a time, each call through the
tracer), names the README CLI commands and exit-code probes that go with it,
and checks a compact record of the pass with the oracles.  Inputs are built
in ``__init__``, outside the timed pass.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import random
from fractions import Fraction

from symcube import analytic, g2root, ingest, intertwining, localfactor, monomial
from symcube.cyclo import Cyclo
from symcube.localfactor import RepTag
from symcube.satake import SatakeClass

import oracles

AFE_CONFIG = "data/delta_sym3_afe.cfg"
HECKE_FILE = "data/hecke_q_sqrt_minus23.txt"
SMALL_COEFFS = "data/delta_coeffs_small.txt"


def _delta_pipeline(T, N):
    """q-expansion -> Satake table -> sym3 factors -> Dirichlet coefficients."""
    form = T.call("ingest.qexp_s", ingest.delta_form, N)
    T.count("ingest.qexp_terms", N)
    table = T.call("satake.table_s", ingest.satake_table, form)
    T.count("satake.classes", len(table))
    factors = {p: T.call("localfactor.sym3_s", localfactor.local_factor, RepTag.SYM3, c)
               for p, c in table.items()}
    T.count("localfactor.factors", len(factors))
    coeffs = T.call("analytic.coeffs_s", analytic.dirichlet_coeffs, factors, N,
                    rep_tag=RepTag.SYM3, source=form.source_path)
    return form, factors, coeffs


def _tau_at_primes(form, N):
    return {p: form.coefficients[p] for p in oracles.primes_upto(N)}


def _delta_record(form, N):
    c = form.coefficients
    tau_p = _tau_at_primes(form, N)
    return {"residues": [c[n] % 691 for n in range(1, N + 1)], "tau_p": tau_p,
            "tau_p2": {p: c[p * p] for p in tau_p if p * p <= N}}


def _check_delta(rec, values, N):
    """tau against its congruence, Hecke relation and Deligne bound; partial_L
    against dirichlet_sum and against the sym3 Euler product of tau(p)."""
    problems = oracles.check_tau_mod_691(rec["residues"])
    problems += oracles.check_tau_primes(rec["tau_p"], rec["tau_p2"], N)
    for s, euler, series in values:
        want = oracles.sym3_euler_product(rec["tau_p"], s, N)
        problems += oracles.close(f"partial_L({s}) vs dirichlet_sum", euler, series, 1e-6)
        problems += oracles.close(f"partial_L({s}) vs sym3 product of tau(p)",
                                  euler, want, 1e-9)
    return problems


def _euler_values(T, points, N, factors, coeffs):
    return [(s, T.call("analytic.euler_s", analytic.partial_L, s, N, factors).value,
             T.call("analytic.series_s", analytic.dirichlet_sum, s, coeffs))
            for s in points]


class Workload:
    name = ""
    cli = ()       # (command, argv): README commands, summed into cli_s
    # How many times a round runs the whole CLI set.  Where the set is short
    # beside the pass, more sets per round give cli_s as many samples as the
    # process start-up noise on a shared machine needs.
    cli_sets = 1
    probes = ()    # (command, argv): must exit 2 without a traceback
    # The loop of speed.REFERENCES whose drift on a shared host follows this
    # pass's.  Timed beside slices of each pass, the integer loop cut the
    # spread of afe_value from 0.22 to 0.07 and the Fraction loop only to
    # 0.20; on gk_coefficient and region_membership it was the other way round
    # (0.15 against 0.05, from 0.20).
    reference = "integer"

    def verify(self, T):
        raise NotImplementedError

    def record(self, out):
        """Compact, comparable summary of one pass, made outside the timed region."""
        raise NotImplementedError

    def check(self, rec, cli_out) -> list:
        raise NotImplementedError


class EulerWorkload(Workload):
    """Delta to N, Satake table, sym3 factors, Euler product vs Dirichlet series.

    The seed picks t in s = 3 + it for a second evaluation point beside the
    README's s = 3.
    """

    name = "euler-100k"

    def __init__(self, seed, small=False):
        self.N = 3000 if small else 100_000
        rng = random.Random(seed)
        self.points = [3.0, complex(3.0, rng.uniform(-2.0, 2.0))]
        self.cli = [("euler", ["euler", "--coeffs", f"builtin:delta:{self.N}", "--s", "3",
                               "--X", str(self.N), "--format", "csv"])]

    def verify(self, T):
        form, factors, coeffs = _delta_pipeline(T, self.N)
        return {"form": form, "values": _euler_values(T, self.points, self.N, factors, coeffs)}

    def record(self, out):
        return {**_delta_record(out["form"], self.N), "values": out["values"]}

    def check(self, rec, cli_out):
        N = self.N
        problems = _check_delta(rec, rec["values"], N)
        want3 = oracles.sym3_euler_product(rec["tau_p"], 3.0, N)
        return problems + oracles.check_euler_csv(cli_out["euler"], N, want3, 1e-6)


class AfeWorkload(Workload):
    """Root-number probe, its perturbed control, plain and injected pole scans,
    and the Euler product against the Dirichlet series at the afe_value points.

    The seed picks which gamma shift the control moves by +1 and t in the
    second afe_value point s = 3 + it.
    """

    name = "afe-8k"
    POINTS = (0.5 + 0.5j, 0.5 + 1j, 0.5 + 2j)
    INTERVAL = (0.55, 0.95)
    POLE = (2, 0.75)

    def __init__(self, seed, small=False):
        self.N = 4096 if small else 8192
        self.grid = 3 if small else 9
        rng = random.Random(seed)
        self.shift_index = rng.randrange(2)
        self.afe_points = [3.0, complex(3.0, rng.uniform(-2.0, 2.0))]
        self.cli = [("afe", ["afe", "--coeffs", "builtin:delta:4000", "--config", AFE_CONFIG,
                             "--format", "json"]),
                    ("scan", ["scan", "--coeffs", "builtin:delta:4000", "--config", AFE_CONFIG])]
        self.probes = [("scan", ["scan", "--coeffs", "builtin:delta:100"]),
                       ("euler", ["euler", "--coeffs", SMALL_COEFFS, "--X", "1000"])]

    @staticmethod
    def _count_evals(T, cfg, points):
        T.count("analytic.afe_evals", len(points))
        T.count("analytic.afe_terms", sum(cfg.cutoff or analytic.default_cutoff(s, cfg)
                                          for s in points))

    def verify(self, T):
        form, factors, coeffs = _delta_pipeline(T, self.N)
        cfg = T.call("ingest.parse_s", ingest.parse_afe_config, AFE_CONFIG)
        shifts = list(cfg.gamma_shifts)
        shifts[self.shift_index] += 1
        perturbed = dataclasses.replace(cfg, gamma_shifts=tuple(shifts))
        probes = []
        for c in (cfg, perturbed):
            probes.append(T.call("analytic.afe_s", analytic.epsilon_probe, self.POINTS, c, coeffs))
            self._count_evals(T, c, [p for s in self.POINTS for p in (s, 1 - s)])
        injected = T.call("analytic.coeffs_s", analytic.inject_pole_factor, coeffs, *self.POLE)
        scans = []
        for table in (coeffs, injected):
            scans.append(T.call("analytic.afe_s", analytic.pole_scan, self.INTERVAL, self.grid,
                                cfg, table))
            self._count_evals(T, cfg, scans[-1].grid)
        values = [(s, T.call("analytic.afe_s", analytic.afe_value, s, cfg, coeffs))
                  for s in self.afe_points]
        self._count_evals(T, cfg, self.afe_points)
        euler = _euler_values(T, self.afe_points, self.N, factors, coeffs)
        return {"form": form, "coeffs": coeffs, "cfg": cfg, "probes": probes, "scans": scans,
                "values": values, "euler": euler}

    def record(self, out):
        cfg = out["cfg"]
        return {"cfg": (cfg.gamma_shifts, cfg.conductor, cfg.cutoff, cfg.self_dual),
                "estimates": [list(p.estimates) for p in out["probes"]],
                "scans": [(s.grid, s.normalized, s.threshold) for s in out["scans"]],
                "values": out["values"], "euler": out["euler"],
                **_delta_record(out["form"], self.N)}

    def check(self, rec, cli_out):
        problems = _check_delta(rec, rec["euler"], self.N)
        if rec["cfg"] != (oracles.SYM3_DELTA_SHIFTS, 1, 4000, True):
            problems.append(f"parsed {AFE_CONFIG}: {rec['cfg']}")
        shipped, perturbed = rec["estimates"]
        problems += oracles.check_root_numbers("epsilon_probe", shipped)
        if len(shipped) != len(self.POINTS):
            problems.append(f"epsilon_probe used {len(shipped)} of {len(self.POINTS)} points")
        problems += oracles.check_constancy_broken("perturbed epsilon_probe", perturbed)
        (g0, n0, th0), (g1, n1, th1) = rec["scans"]
        problems += oracles.check_scan("pole_scan", g0, n0, th0)
        problems += oracles.check_scan("pole_scan injected", g1, n1, th1, pole=self.POLE[1])
        for s, v in rec["values"]:
            problems += oracles.check_afe_value(v, s, rec["tau_p"], self.N)
        problems += oracles.check_afe_json(cli_out["afe"], len(self.POINTS))
        grid = [0.55 + 0.05 * i for i in range(9)]
        return problems + oracles.check_scan_table(cli_out["scan"], grid)


SUITES = (("triple", localfactor.check_triple_identity),
          ("twist", localfactor.check_twist_identity),
          ("gj", localfactor.check_gj_identity))


def _gauss_square(p, symbols, target):
    """(g^2, g^2 == target) for g = sum_a symbols[a-1] zeta_p^a, in Cyclo arithmetic."""
    g = Cyclo.zero()
    for a, e in enumerate(symbols, start=1):
        g = g + e * Cyclo.root_of_unity(a, p)
    g2 = g * g
    return g2, g2 == target


def _ramanujan(n, target):
    """(c, c == target) for c the sum of the primitive n-th roots of unity."""
    c = Cyclo.zero()
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            c = c + Cyclo.root_of_unity(k, n)
    return c, c == target


def _read_hecke_primes(path):
    with open(path) as fh:
        lines = [ln.split() for ln in fh.read().splitlines() if ln.strip()]
    return [int(ln[0]) for ln in lines[1:]], int(lines[0][3])


class ExactWorkload(Workload):
    """Exact-mode (Cyclo) identity suites beside a float-mode suite, dihedral
    checks, and Gauss / Ramanujan sums.

    The seed draws the exact classes (root-of-unity orders, exponents, q), the
    float classes, and the split / inert Hecke data.
    """

    name = "exact-suites"
    cli_sets = 3
    ORDERS = (2, 3, 4, 5, 6, 8, 12)
    HECKE_ORDERS = (2, 3, 4, 5, 6, 7, 8, 9, 12, 16)
    HECKE_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)

    def __init__(self, seed, small=False):
        n_exact, n_float, n_hecke = (12, 60, 6) if small else (200, 1000, 50)
        rng = random.Random(seed)

        def unit(order):
            return Cyclo.root_of_unity(rng.randrange(order), order)

        def draw(bound=4.0):
            mod = math.exp(rng.uniform(-math.log(bound), math.log(bound)))
            return mod * cmath.exp(2j * math.pi * rng.random())

        self.exact_classes = []
        for _ in range(n_exact):
            n = rng.choice(self.ORDERS)
            self.exact_classes.append(SatakeClass(unit(n), unit(n), rng.choice([2, 3, 5])))
        self.float_classes = [SatakeClass(draw(), draw(), rng.choice([2, 3, 5, 7]))
                              for _ in range(n_float)]
        self.hecke = []
        for i in range(2 * n_hecke):
            n = rng.choice(self.HECKE_ORDERS)
            p = self.HECKE_PRIMES[i % len(self.HECKE_PRIMES)]
            if i < n_hecke:
                self.hecke.append(monomial.HeckeLocalData(p, monomial.SPLIT, unit(n), unit(n)))
            else:
                self.hecke.append(monomial.HeckeLocalData(p, monomial.INERT, unit(n)))
        top = 13 if small else 43
        self.gauss = [(p, [oracles.legendre(a, p) for a in range(1, p)],
                       oracles.legendre(-1, p) * p)
                      for p in oracles.primes_upto(top) if p > 2]
        self.ramanujan = [(n, oracles.mobius(n)) for n in range(1, (12 if small else 60) + 1)]
        self.pole_orders = range(2, 13)
        self.cli = [("identity", ["identity", "--suite", "all", "--samples", "100", "--seed", "7"]),
                    ("monomial-check", ["monomial-check", "--hecke", HECKE_FILE])]

    def verify(self, T):
        exact = {name: [T.call("localfactor.exact_identity_s", fn, c) for c in self.exact_classes]
                 for name, fn in SUITES}
        sym3 = [T.call("localfactor.exact_identity_s", localfactor.local_factor, RepTag.SYM3, c)
                for c in self.exact_classes]
        T.count("localfactor.exact_checks", len(SUITES) * len(self.exact_classes))
        floats = {name: [T.call("localfactor.float_identity_s", fn, c) for c in self.float_classes]
                  for name, fn in SUITES}
        T.count("localfactor.float_checks", len(SUITES) * len(self.float_classes))
        data = T.call("ingest.parse_s", ingest.parse_hecke, HECKE_FILE)
        entries = self.hecke + data.entries
        dihedral = [(T.call("monomial.check_s", monomial.check_monomial_r3, d),
                     T.call("monomial.check_s", monomial.check_monomial_r30, d)) for d in entries]
        kinds = {o: T.call("monomial.check_s", monomial.pole_criterion, o).kind
                 for o in self.pole_orders}
        T.count("monomial.checks", 2 * len(entries) + len(kinds))
        gauss = [(p, T.call("cyclo.identity_s", _gauss_square, p, sym, target))
                 for p, sym, target in self.gauss]
        raman = [(n, T.call("cyclo.identity_s", _ramanujan, n, mu)) for n, mu in self.ramanujan]
        T.count("cyclo.identities", len(gauss) + len(raman))
        return {"exact": exact, "sym3": sym3, "floats": floats, "dihedral": dihedral,
                "kinds": kinds, "gauss": gauss, "ramanujan": raman}

    def record(self, out):
        v = oracles.cyclo_value
        return {"exact": out["exact"], "floats": out["floats"], "dihedral": out["dihedral"],
                "kinds": out["kinds"],
                "sym3": [(v(c.alpha), v(c.beta), [v(x) for x in poly.coeffs])
                         for c, poly in zip(self.exact_classes, out["sym3"])],
                "gauss": [(p, v(g2), ok) for p, (g2, ok) in out["gauss"]],
                "ramanujan": [(n, v(c), ok) for n, (c, ok) in out["ramanujan"]]}

    def check(self, rec, cli_out):
        problems = []
        for name, errs in rec["exact"].items():
            problems += oracles.check_exact_zero(f"exact {name}", errs)
        for name, errs in rec["floats"].items():
            problems += oracles.check_below(f"float {name}", errs, 1e-12)
        problems += oracles.check_exact_zero("dihedral",
                                             [e for pair in rec["dihedral"] for e in pair])
        for i, (a, b, coeffs) in enumerate(rec["sym3"]):
            problems += oracles.check_sym3_poly(f"exact class {i}", a, b, coeffs)
        for p, g2, ok in rec["gauss"]:
            problems += oracles.check_gauss(p, g2, ok)
        for n, c, ok in rec["ramanujan"]:
            problems += oracles.check_ramanujan(n, c, ok)
        problems += oracles.check_pole_criterion(rec["kinds"])
        problems += oracles.check_identity_table(cli_out["identity"], 100)
        primes, chi_order = _read_hecke_primes(HECKE_FILE)
        return problems + oracles.check_monomial_table(cli_out["monomial-check"], primes, chi_order)


class RankTwoWorkload(Workload):
    """G2 root calculus, constant-term coefficient vs L-ratio, pole sets, and
    the exact rs-plane region grid for both mu cases.

    The seed draws the (mu, q, r, s) parameters, away from the pole locus,
    the rational r of the pole-set checks and the rational point the pairing
    table is read at.
    """

    name = "rank-two"
    reference = "fraction"
    cli_sets = 2
    MU_ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
    CASES = (intertwining.MU_TRIVIAL, intertwining.MU_ORDER2)

    def __init__(self, seed, small=False):
        rng = random.Random(seed)
        self.params = []
        while len(self.params) < (100 if small else 2000):
            q = rng.choice([2, 3, 5])
            r, s = rng.uniform(0.01, 0.49), rng.uniform(0.05, 3.0)
            n = rng.choice(self.MU_ORDERS)
            mu = cmath.exp(2j * math.pi * rng.randrange(n) / n)
            # Near the pole locus l_ratio loses accuracy (see CHANGES.md), so
            # parameters with a per-root denominator below 0.1 are redrawn.
            if min(map(abs, oracles.gk_denominators(mu, q, r, s))) >= 0.1:
                self.params.append(intertwining.PrincipalParams(mu, q, r, s))
        self.pole_rs = []
        for _ in range(3):
            m = rng.randrange(7, 61)
            self.pole_rs.append(Fraction(rng.randrange(1, (m + 1) // 2), m))
        self.point = (Fraction(rng.randrange(1, 100), 200), Fraction(rng.randrange(1, 300), 100))
        self.n = 20 if small else 200
        self.rs = [Fraction(i, 2 * (self.n - 1)) for i in range(self.n)]
        self.ss = [Fraction(j, self.n - 1) for j in range(self.n)]
        self.cli = [("region", ["region", "--grid", "200", "--format", "csv"]),
                    ("intertwine", ["intertwine", "--samples", "50", "--r", "1/10"])]

    def verify(self, T):
        group = T.call("g2root.s", g2root.weyl_group)
        inverted = [T.call("g2root.s", g2root.inverted_roots, w) for w in group]
        long_w = T.call("g2root.s", g2root.parabolic_weyl_element)
        long_inv = T.call("g2root.s", g2root.inverted_roots, long_w)
        table = T.call("g2root.s", g2root.pairing_table)
        at_point = {name: T.call("g2root.s", form, *self.point) for name, form in table.items()}
        T.count("g2root.ops", len(group) + len(table) + 4)
        gk = [(T.call("intertwining.gk_s", intertwining.gk_coefficient, p),
               T.call("intertwining.gk_s", intertwining.l_ratio, p)) for p in self.params]
        T.count("intertwining.gk_points", len(gk))
        poles = [(o, r, T.call("intertwining.gk_s", intertwining.gk_pole_set, o, r),
                  T.call("intertwining.gk_s", intertwining.principal_series_pole_set, o, r))
                 for o in range(1, 13) for r in self.pole_rs]
        T.count("intertwining.gk_poles", sum(len(a) for _, _, a, _ in poles))
        regions = {}
        for case in self.CASES:
            classes, forbidden = [], []
            for r in self.rs:
                for s in self.ss:
                    classes.append(T.call("intertwining.region_s",
                                          intertwining.region_membership, r, s, case))
                    forbidden.append(T.call("intertwining.region_s",
                                            intertwining.forbidden_triangle_contains, r, s))
            regions[case] = (classes, forbidden)
        T.count("intertwining.region_points", len(self.CASES) * self.n * self.n)
        return {"group": group, "inverted": inverted, "long_inv": long_inv,
                "at_point": at_point, "gk": gk, "poles": poles, "regions": regions}

    def record(self, out):
        return {"distinct": len({w.matrix for w in out["group"]}),
                "inverted_sizes": [len(x) for x in out["inverted"]],
                "long_inv": sorted(g2root.ROOT_NAMES[b] for b in out["long_inv"]),
                "at_point": out["at_point"], "gk": out["gk"], "poles": out["poles"],
                "regions": out["regions"]}

    def check(self, rec, cli_out):
        problems = oracles.check_weyl(rec["distinct"], rec["inverted_sizes"])
        if rec["long_inv"] != ["beta2", "beta3", "beta4", "beta5", "beta6"]:
            problems.append(f"parabolic element inverts {rec['long_inv']}")
        problems += oracles.check_pairings(rec["at_point"], self.point)
        problems += oracles.check_gk([(p.mu, p.q, p.r, p.s) for p in self.params], rec["gk"])
        problems += oracles.check_pole_sets(rec["poles"])
        for case, (classes, forbidden) in rec["regions"].items():
            problems += oracles.check_region(f"region {case}", self.n, case, classes, forbidden)
        problems += oracles.check_region_csv(cli_out["region"], 200)
        return problems + oracles.check_intertwine_table(cli_out["intertwine"], 50, Fraction(1, 10))


WORKLOADS = {w.name: w for w in (EulerWorkload, AfeWorkload, ExactWorkload, RankTwoWorkload)}
# The workloads BENCHMARK.json names.  euler-100k runs only by hand: its
# q-expansion squares integers of about a megabyte, whose speed on a shared
# host drifts in ways the reference loop of speed.py does not follow, so its
# times spread past any usable bound (README, "Steadiness").
MEASURED = ("afe-8k", "exact-suites", "rank-two")
