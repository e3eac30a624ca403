"""Independent checks of symcube's outputs.

Nothing here imports symcube.  Each check recomputes what the output must be
from the mathematics, with its own integer arithmetic, numpy or mpmath, and
compares.  Every function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

# Gamma_C shifts of sym^3 of a weight-k level-1 form: (k-1)/2 and 3(k-1)/2.
DELTA_WEIGHT = 12
SYM3_DELTA_SHIFTS = ((DELTA_WEIGHT - 1) / 2, 3 * (DELTA_WEIGHT - 1) / 2)
# Hodge types (33,0) and (22,11) give i^34 * i^12 = -1.
SYM3_DELTA_ROOT_NUMBER = (1j) ** 34 * (1j) ** 12


def _first(problems, limit=5):
    return problems[:limit] + ([f"... {len(problems) - limit} more"]
                               if len(problems) > limit else [])


def primes_upto(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if sieve[i]]


def mobius(n: int) -> int:
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def cyclo_value(x) -> complex:
    """Numeric value of an exact Cyclo, read from its {exponent: coeff} terms."""
    if not hasattr(x, "terms"):
        return complex(x)
    return sum((float(c) * cmath.exp(2j * math.pi * float(e))
                for e, c in x.terms.items()), 0j)


def close(name, got, want, rel) -> list:
    err = abs(complex(got) - complex(want))
    if not err <= rel * max(abs(complex(want)), 1e-300):
        return [f"{name}: got {got}, want {want} (relative error {err / abs(want):.3e} > {rel})"]
    return []


# --- euler-100k -------------------------------------------------------------

def check_tau_mod_691(residues) -> list:
    """tau(n) = sigma_11(n) mod 691 for n = 1..N; residues[n-1] = tau(n) mod 691."""
    N = len(residues)
    d = np.arange(N + 1, dtype=np.int64) % 691
    pw = np.ones(N + 1, dtype=np.int64)
    for _ in range(11):
        pw = pw * d % 691
    sigma = np.zeros(N + 1, dtype=np.int64)
    for k in range(1, N + 1):
        sigma[k::k] += pw[k]
    bad = np.nonzero((np.asarray(residues, dtype=np.int64) - sigma[1:]) % 691)[0]
    return _first([f"tau({n + 1}) != sigma_11({n + 1}) mod 691" for n in bad.tolist()])


def check_tau_primes(tau_p: dict, tau_p2: dict, N: int) -> list:
    """tau at every prime p <= N: Hecke relation at p^2 and the Deligne bound."""
    problems = []
    if sorted(tau_p) != primes_upto(N):
        problems.append(f"tau(p) missing for some primes p <= {N}")
    for p, t in tau_p.items():
        if t * t > 4 * p ** 11:
            problems.append(f"|tau({p})| = {abs(t)} exceeds 2 p^(11/2)")
        if p * p <= N and tau_p2.get(p) != t * t - p ** 11:
            problems.append(f"tau({p}^2) != tau({p})^2 - {p}^11")
    if sorted(tau_p2) != [p for p in primes_upto(math.isqrt(N))]:
        problems.append("tau(p^2) missing for some p with p^2 <= N")
    return _first(problems)


def sym3_euler_product(tau_p: dict, s: complex, X: int) -> complex:
    """prod_{p <= X} 1/P_p(p^-s) for sym^3 of the weight-12 form, from tau(p).

    With t = tau(p) p^(-11/2) and alpha*beta = 1 the eigenvalues are
    alpha^3, alpha, beta, beta^3, so P(T) = (1 - (t^3 - 3t) T + T^2)(1 - t T + T^2).
    """
    ps = np.array([p for p in sorted(tau_p) if p <= X], dtype=np.float64)
    t = np.array([tau_p[int(p)] for p in ps], dtype=np.float64) / ps ** 5.5
    T = ps ** (-complex(s))
    P = (1 - (t ** 3 - 3 * t) * T + T * T) * (1 - t * T + T * T)
    return complex(np.exp(-np.sum(np.log(P))))


def check_euler_csv(text: str, N: int, want: complex, rel: float) -> list:
    """`euler --format csv`: doubling checkpoints ending at N, final value = want."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["checkpoint", "X", "Re", "Im"]:
        return ["euler csv: bad header"]
    body = rows[1:]
    xs = [int(r[1]) for r in body]
    marks = [2 ** k for k in range(1, N.bit_length()) if 2 ** k < N]
    problems = []
    if xs[:-1] != marks or xs[-1] != N:
        problems.append(f"euler csv: checkpoints {xs[:3]}...{xs[-2:]} do not double up to {N}")
    final = complex(float(body[-1][2]), float(body[-1][3]))
    return problems + close("euler csv final value", final, want, rel)


# --- afe-8k -----------------------------------------------------------------

def gamma_factor(s: complex, shifts=SYM3_DELTA_SHIFTS) -> complex:
    """prod_j Gamma_C(s + k_j), Gamma_C(w) = 2 (2 pi)^-w Gamma(w), by mpmath."""
    import mpmath
    out = mpmath.mpc(1)
    for k in shifts:
        w = mpmath.mpc(complex(s)) + k
        out *= 2 * (2 * mpmath.pi) ** (-w) * mpmath.gamma(w)
    return complex(out)


def check_root_numbers(name, estimates, tol=1e-3) -> list:
    want = SYM3_DELTA_ROOT_NUMBER
    if not estimates:
        return [f"{name}: no root-number estimates"]
    return [f"{name}: estimate {e} is not within {tol} of {want.real:+.0f}"
            for e in estimates if abs(complex(e) - want) > tol]


def check_constancy_broken(name, estimates, min_dev=0.1) -> list:
    dev = max((abs(complex(a) - complex(b)) for a in estimates for b in estimates), default=0.0)
    if dev <= min_dev:
        return [f"{name}: estimates stay constant (spread {dev:.3e} <= {min_dev})"]
    return []


def check_scan(name, grid, normalized, threshold, pole=None) -> list:
    """No point over the threshold, or, with a pole, the grid point nearest it over."""
    flagged = [g for g, v in zip(grid, normalized) if v > threshold]
    if pole is None:
        return [f"{name}: points {flagged} over threshold {threshold}"] if flagged else []
    nearest = min(grid, key=lambda g: abs(g - pole))
    if nearest not in flagged:
        return [f"{name}: injected pole at {pole} not flagged"]
    return []


def check_afe_value(value, s, tau_p: dict, X: int, rel=1e-9) -> list:
    want = gamma_factor(s) * sym3_euler_product(tau_p, s, X)
    return close(f"afe_value({s})", value, want, rel)


def check_afe_json(text: str, n_points: int) -> list:
    obj = json.loads(text)
    est = [complex(a, b) for a, b in obj["estimates"]]
    problems = check_root_numbers("afe cli", est)
    if len(est) != n_points:
        problems.append(f"afe cli: {len(est)} estimates, want {n_points}")
    if obj["verdict"] != "pass":
        problems.append(f"afe cli: verdict {obj['verdict']}")
    return problems


def check_scan_table(text: str, grid, threshold=3.0) -> list:
    lines = text.splitlines()
    rows = [ln.split() for ln in lines[1:-1]]
    got_grid = [float(r[0]) for r in rows]
    problems = []
    if len(got_grid) != len(grid) or any(abs(a - b) > 1e-6 for a, b in zip(got_grid, grid)):
        problems.append(f"scan cli: grid {got_grid} != {grid}")
    problems += check_scan("scan cli", got_grid, [float(r[2]) for r in rows], threshold)
    if lines[-1].split()[:2] != ["verdict", "consistent-with-holomorphy"]:
        problems.append(f"scan cli: last line {lines[-1]!r}")
    return problems


# --- exact-suites -----------------------------------------------------------

def check_exact_zero(name, errors) -> list:
    return _first([f"{name}[{i}]: exact error {e!r} is not 0.0"
                   for i, e in enumerate(errors) if not (type(e) is float and e == 0.0)])


def check_below(name, errors, tol) -> list:
    return _first([f"{name}[{i}]: error {e!r} not below {tol}"
                   for i, e in enumerate(errors) if not e < tol])


def check_sym3_poly(name, alpha: complex, beta: complex, coeffs, tol=1e-9) -> list:
    """prod (1 - e T) over {a^3, a^2 b, a b^2, b^3}, via numpy's np.poly."""
    a, b = alpha, beta
    want = np.poly([a ** 3, a * a * b, a * b * b, b ** 3])
    got = np.asarray(coeffs, dtype=np.complex128)
    if got.shape != want.shape or np.max(np.abs(got - want)) > tol:
        return [f"{name}: sym3 coefficients {got} != {want}"]
    return []


def check_gauss(p: int, g2: complex, verdict) -> list:
    """Gauss sum g = sum_a (a/p) zeta_p^a has g^2 = (-1/p) p."""
    problems = close(f"gauss sum squared p={p}", g2, legendre(-1, p) * p, 1e-9)
    if verdict is not True:
        problems.append(f"gauss p={p}: exact comparison returned {verdict!r}")
    return problems


def check_ramanujan(n: int, value: complex, verdict) -> list:
    """Sum of the primitive n-th roots of unity is mu(n)."""
    problems = []
    if abs(value - mobius(n)) > 1e-9:
        problems.append(f"ramanujan n={n}: value {value} != mu(n) = {mobius(n)}")
    if verdict is not True:
        problems.append(f"ramanujan n={n}: exact comparison returned {verdict!r}")
    return problems


def check_pole_criterion(kinds: dict) -> list:
    """Dihedral sym^3 has poles exactly when chi^3 = 1, i.e. order 3."""
    return [f"pole criterion at order {o}: {k}" for o, k in kinds.items()
            if (k == "has-pole-at-0-and-1") != (o == 3)]


def check_identity_table(text: str, samples: int, tol=1e-12) -> list:
    rows = [ln.split() for ln in text.splitlines()[1:]]
    problems = []
    if [r[0] for r in rows] != ["triple", "twist", "gj"]:
        problems.append(f"identity cli: suites {[r[0] for r in rows]}")
    for r in rows:
        if int(r[1]) != samples or not float(r[2]) < tol or r[3] != "pass":
            problems.append(f"identity cli: row {r}")
    return problems


def check_monomial_table(text: str, primes, chi_order: int) -> list:
    rows = [ln.split() for ln in text.splitlines()[1:]]
    problems = []
    entries = [r for r in rows if r[0] != "chi-order"]
    if [int(r[0]) for r in entries] != list(primes):
        problems.append("monomial cli: primes differ from the input file")
    for r in entries:
        if float(r[2]) != 0.0 or float(r[3]) != 0.0 or r[4] != "pass":
            problems.append(f"monomial cli: row {r}")
    verdict = {int(r[1]): r[2] for r in rows if r[0] == "chi-order"}
    problems += check_pole_criterion(verdict)
    if list(verdict) != [chi_order]:
        problems.append(f"monomial cli: chi-order row {verdict}")
    return problems


# --- rank-two ---------------------------------------------------------------

# coroot pairings <lambda, beta^vee> = r_coeff * r + s_coeff * s
G2_PAIRINGS = {"beta1": (2, 0), "beta2": (3, 1), "beta3": (1, 1),
               "beta4": (0, 2), "beta5": (-1, 1), "beta6": (-3, 1)}


def check_pairings(values: dict, point) -> list:
    """values[name] = pairing form evaluated at the rational point (r, s)."""
    r, s = point
    want = {k: a * r + b * s for k, (a, b) in G2_PAIRINGS.items()}
    return [f"pairing {k} at {point}: {values.get(k)} != {v}"
            for k, v in want.items() if values.get(k) != v]


def check_weyl(n_distinct: int, inverted_sizes) -> list:
    """G2's Weyl group: 12 elements, lengths 0,1,1,2,2,...,6 (dihedral of order 12)."""
    problems = []
    if n_distinct != 12:
        problems.append(f"weyl group has {n_distinct} distinct elements")
    if sorted(inverted_sizes) != [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]:
        problems.append(f"inverted-root set sizes {sorted(inverted_sizes)}")
    return problems


# the five roots inverted by the parabolic element and the beta6-coordinate
# c6 of their coroots, so that chi_b = mu^c6
GK_COROOT_C6 = {"beta2": 1, "beta3": 1, "beta4": 2, "beta5": 1, "beta6": 1}


def gk_denominators(mu, q, r, s) -> list:
    """1 - mu^c6 q^(-t) for each inverted root, t its pairing at (r, s)."""
    out = []
    for name, c6 in GK_COROOT_C6.items():
        a, b = G2_PAIRINGS[name]
        out.append(1 - complex(mu) ** c6 * q ** (-(a * r + b * s)))
    return out


def gk_reference(mu, q, r, s) -> complex:
    """prod_b (1 - chi_b q^(-t_b - 1)) / (1 - chi_b q^(-t_b)) in 40-digit mpmath."""
    import mpmath
    with mpmath.workdps(40):
        mu, q = mpmath.mpc(complex(mu)), mpmath.mpf(q)
        out = mpmath.mpc(1)
        for name, c6 in GK_COROOT_C6.items():
            a, b = G2_PAIRINGS[name]
            t = a * mpmath.mpf(r) + b * mpmath.mpf(s)
            chi = mu ** c6
            out *= (1 - chi * q ** (-t - 1)) / (1 - chi * q ** (-t))
        return complex(out)


def check_gk(params, pairs, rel=1e-10) -> list:
    """gk_coefficient against l_ratio and against the mpmath product, to rel."""
    problems = []
    for i, ((mu, q, r, s), (g, l)) in enumerate(zip(params, pairs)):
        ref = gk_reference(mu, q, r, s)
        for name, got, want in (("l_ratio", g, l), ("mpmath", g, ref)):
            if not abs(got - want) <= rel * max(abs(want), 1e-30):
                problems.append(f"gk[{i}] = {got} vs {name} {want}")
    return _first(problems)


def expected_pole_set(order: int, r: Fraction) -> set:
    if order == 1:
        return {Fraction(0), r, -r, 3 * r, -3 * r}
    if order == 2:
        return {Fraction(0)}
    return set()


def check_pole_sets(results) -> list:
    """results: (order, r, gk_pole_set, principal_series_pole_set) tuples."""
    return [f"pole set order {o} r={r}: {a} / {b}" for o, r, a, b in results
            if not (a == b == expected_pole_set(o, r))]


F = Fraction
UPPER_TRIANGLE = ((F(1, 6), F(1, 2)), (F(1, 4), F(3, 4)), (F(0), F(1)))
LOWER_TRIANGLE = ((F(0), F(1, 2)), (F(1, 6), F(1, 2)), (F(0), F(0)))
FORBIDDEN_TRIANGLE = ((F(0), F(1)), (F(1, 6), F(1, 2)), (F(0), F(1, 2)))


def lattice_classes(n: int, mu_case: str):
    """Classes and forbidden flags of r = i/(2(n-1)), s = j/(n-1), row-major in i.

    Orientation tests against each triangle's edges, in integers scaled by a
    common denominator of the lattice and the vertices.
    """
    D = 12 * 2 * (n - 1)
    i, j = np.meshgrid(np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64), indexing="ij")
    R, S = (i * (D // (2 * (n - 1)))).ravel(), (j * (D // (n - 1))).ravel()

    def sides(tri):
        (ax, ay), (bx, by), (cx, cy) = [(int(x * D), int(y * D)) for x, y in tri]
        orient = np.sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        return [orient * ((qx - px) * (S - py) - (qy - py) * (R - px))
                for (px, py), (qx, qy) in (((ax, ay), (bx, by)), ((bx, by), (cx, cy)),
                                           ((cx, cy), (ax, ay)))]

    def inside(tri):
        a, b, c = sides(tri)
        return (a > 0) & (b > 0) & (c > 0), (a >= 0) & (b >= 0) & (c >= 0)

    up_in, up_cl = inside(UPPER_TRIANGLE)
    lo_in, lo_cl = inside(LOWER_TRIANGLE)
    forb, _ = inside(FORBIDDEN_TRIANGLE)
    if mu_case == "trivial":
        cls = np.where(up_in, "upper-triangle", np.where(lo_in, "lower-triangle", np.where(
            up_cl | lo_cl, "boundary", "outside")))
    else:
        cls = np.where(lo_in, "lower-triangle", np.where(lo_cl, "boundary", "outside"))
    return cls.tolist(), forb.tolist()


def check_region(name, n, mu_case, classes, forbidden) -> list:
    want_cls, want_forb = lattice_classes(n, mu_case)
    problems = [f"{name}: point {k} class {a} != {b}"
                for k, (a, b) in enumerate(zip(classes, want_cls)) if a != b]
    problems += [f"{name}: point {k} forbidden {a} != {b}"
                 for k, (a, b) in enumerate(zip(forbidden, want_forb)) if bool(a) != b]
    problems += [f"{name}: UPPER point {k} lies in the forbidden triangle"
                 for k, (c, f) in enumerate(zip(classes, forbidden)) if c == "upper-triangle" and f]
    if len(classes) != n * n or len(forbidden) != n * n:
        problems.append(f"{name}: {len(classes)} points, want {n * n}")
    return _first(problems)


def check_region_csv(text: str, n: int) -> list:
    """`region --grid n --format csv`: every lattice row plus the upper vertices."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["r", "s", "class", "forbidden"]:
        return ["region csv: bad header"]
    body = rows[1:]
    if len(body) != n * n + 3:
        return [f"region csv: {len(body)} rows, want {n * n + 3}"]
    rs = [str(Fraction(i, 2 * (n - 1))) for i in range(n)]
    ss = [str(Fraction(j, n - 1)) for j in range(n)]
    want_cls, want_forb = lattice_classes(n, "trivial")
    want = [[rs[k // n], ss[k % n], c, str(int(f))]
            for k, (c, f) in enumerate(zip(want_cls, want_forb))]
    want += [[str(x), str(y), "boundary", "0"] for x, y in UPPER_TRIANGLE]
    problems = [f"region csv row {k + 2}: {a} != {b}" for k, (a, b) in enumerate(zip(body, want))
                if a != b]
    problems += [f"region csv row {k + 2}: UPPER point in the forbidden triangle"
                 for k, row in enumerate(body) if row[2] == "upper-triangle" and row[3] == "1"]
    return _first(problems)


def check_intertwine_table(text: str, samples: int, r: Fraction, tol=1e-10) -> list:
    rows = [ln.split() for ln in text.splitlines()[1:]]
    got = {row[0]: row for row in rows}
    problems = []
    gk = got.get("gk-vs-lratio")
    if not gk or int(gk[1]) != samples or not float(gk[2]) < tol or gk[3] != "pass":
        problems.append(f"intertwine cli: gk row {gk}")
    for order in (1, 2, 5):
        row = got.get(f"pole-set-order-{order}")
        if not row:
            problems.append(f"intertwine cli: no pole-set row for order {order}")
            continue
        body = row[2].strip("{}")
        poles = {Fraction(x) for x in body.split(",")} if body else set()
        if Fraction(row[1]) != r or poles != expected_pole_set(order, r) or row[3] != "pass":
            problems.append(f"intertwine cli: row {row}")
    return problems
