"""Batch command-line front end.

Every verification surface is a subcommand producing a report on stdout.
Exit codes: 0 success / verification passed, 1 a verification failed (some
check exceeded its tolerance), 2 usage or input-format errors.  Output is
deterministic for fixed flags and --seed; --format json|csv gives
machine-readable bytes.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import localfactor
from .localfactor import RepTag

# Beyond what building the parser needs, each command imports the modules it
# runs when it runs, so that a process loads only those.
if TYPE_CHECKING:
    from .ingest import ParsedForm

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _arg_type(convert, what: str, ok=lambda value: True):
    """An argparse type: convert(text), refused unless it converts and ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


def _int_at_least(low: int):
    return _arg_type(int, f"an integer >= {low}", lambda value: value >= low)


def _p_sigma(text: str) -> tuple:
    p, sigma0 = text.split(",")
    return int(p), float(sigma0)


_parse_fraction = _arg_type(Fraction, "a rational number")
_positive_int = _int_at_least(1)
_finite_float = _arg_type(float, "a finite number", math.isfinite)
_positive_float = _arg_type(float, "a finite number > 0",
                            lambda value: math.isfinite(value) and value > 0)
_finite_complex = _arg_type(lambda text: complex(text.replace(" ", "")),
                            "a finite complex number", cmath.isfinite)
_pole_spec = _arg_type(_p_sigma, "p,sigma0 with an integer p >= 2 and a finite sigma0",
                       lambda spec: spec[0] >= 2 and math.isfinite(spec[1]))


def _iroot(n: int, k: int) -> int:
    """The integer part of the k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _prime_power(text: str) -> int:
    """An argparse type for prime powers p^k, k >= 1, with p below MR_BOUND
    and p^k at most the largest float (gk_coefficient computes with complex(q))."""
    q = _int_at_least(2)(text)
    if q > sys.float_info.max:
        raise argparse.ArgumentTypeError(
            f"must be a prime power at most the largest float, "
            f"{sys.float_info.max:.6g}, got {text!r}")
    # with k the largest exponent such that q = m^k, m is no perfect power,
    # so q is a prime power exactly when m is prime
    for k in range(q.bit_length() - 1, 0, -1):
        m = _iroot(q, k)
        if m ** k == q:
            break
    if m >= localfactor.MR_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be a prime power p^k with p below {localfactor.MR_BOUND}, got {text!r}")
    if not localfactor.is_prime(m):
        raise argparse.ArgumentTypeError(f"must be a prime power, got {text!r}")
    return q


def _complex_list(text: str) -> list:
    """An argparse type for comma-separated finite complex numbers."""
    return [_finite_complex(t) for t in text.split(",")]


def _emit_table(header, rows) -> None:
    widths = [len(h) for h in header]
    srows = [[str(c) for c in row] for row in rows]
    for row in srows:
        widths = [max(w, len(c)) for w, c in zip(widths, row)]
    fmt = "  ".join("{:<%d}" % w for w in widths)
    print(fmt.format(*header))
    for row in srows:
        print(fmt.format(*row))


def _emit(fmt, header, rows, json_obj=None):
    """The one output path: rows as a table or csv; json_obj, else the rows, as json."""
    if fmt == "json":
        import json  # json and csv load only in the commands that write them

        obj = json_obj if json_obj is not None else [dict(zip(header, row)) for row in rows]
        sys.stdout.write(json.dumps(obj, sort_keys=True, default=str) + "\n")
    elif fmt == "csv":
        import csv

        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    else:
        _emit_table(header, rows)


def _emit_checks(fmt, header, rows) -> int:
    """_emit the rows of a check command: EXIT_FAIL exactly when a row's last cell is FAIL."""
    _emit(fmt, header, rows)
    return EXIT_FAIL if any(row[-1] == "FAIL" for row in rows) else EXIT_OK


def _worst(errs) -> float:
    """The largest error, a NaN ranking worst; 0.0 for none."""
    return max(errs, key=lambda e: (e != e, e), default=0.0)


def _load_form(source: str) -> ParsedForm:
    """A path, or builtin:delta[:N] (N >= 1, default 1000) for the shipped sample."""
    from . import ingest

    if source.startswith("builtin:"):
        match = re.fullmatch(r"builtin:delta(?::([0-9]+))?", source)
        n = int(match.group(1) or 1000) if match else 0
        if n < 1:
            raise ValueError(f"--coeffs {source!r}: expected builtin:delta or "
                             f"builtin:delta:N with N >= 1")
        return ingest.delta_form(n)
    return ingest.parse_form(source)


# --- subcommands -----------------------------------------------------------

def cmd_roots(args) -> int:
    from . import g2root

    what = args.what
    if what == "pairing":
        r, s = args.r, args.s
        rows = [[name, str(form), str(form(r, s)) if r is not None and s is not None else ""]
                for name, form in g2root.pairing_table().items()]
        _emit(args.format, ["root", "pairing", "value"], rows)
        return EXIT_OK
    if what == "gram":
        roots = g2root.POSITIVE_ROOTS
        names = sorted(roots)
        rows = [[a] + [str(g2root.gram(roots[a], roots[b])) for b in names]
                for a in names]
        _emit(args.format, ["root"] + names, rows)
        return EXIT_OK
    if what == "coroots":
        rows = [[name, *g2root.coroot_decomposition(beta)]
                for name, beta in g2root.POSITIVE_ROOTS.items()]
        _emit(args.format, ["root", "c1", "c6"], rows)
        return EXIT_OK

    def inverted(w):  # weyl, the last of the parser's choices
        return "{" + ",".join(sorted(g2root.ROOT_NAMES[b] for b in g2root.inverted_roots(w))) + "}"
    rows = [["*".join(w.word) or "1", len(w.word), inverted(w)] for w in g2root.weyl_group()]
    rho_p = g2root.rho_parabolic()
    rows.append(["rho_P", "", f"({rho_p.a3})*beta3 + ({rho_p.a4})*beta4"])
    long_w = g2root.parabolic_weyl_element()
    rows.append(["parabolic element", len(long_w.word), inverted(long_w)])
    _emit(args.format, ["element", "length", "inverted/table"], rows)
    return EXIT_OK


def cmd_region(args) -> int:
    from . import intertwining

    n = args.grid
    step = max(n - 1, 1)  # a one-point grid is the origin
    r_strs = [str(Fraction(i, 2 * step)) for i in range(n)]
    s_strs = [str(Fraction(j, step)) for j in range(n)]
    labels = ((r, s) for r in r_strs for s in s_strs)
    grid = intertwining.region_grid(n, args.mu_case)
    vertices = [[str(vr), str(vs), intertwining.region_membership(vr, vs, args.mu_case), 0]
                for vr, vs in intertwining.UPPER_VERTICES]
    if args.format == "csv":
        # csv.writer's bytes: no cell needs quoting, as labels are str(Fraction)
        # of rationals >= 0 and classes are intertwining's constants
        tails = {key: f",{key[0]},{int(key[1])}\n" for key in set(grid)}
        sys.stdout.write("".join(["r,s,class,forbidden\n",
                                  *[f"{r},{s}{tails[key]}" for (r, s), key in zip(labels, grid)],
                                  *[f"{vr},{vs},{cls},0\n" for vr, vs, cls, _ in vertices]]))
        return EXIT_OK
    rows = [[r, s, cls, int(forbidden)] for (r, s), (cls, forbidden) in zip(labels, grid)]
    _emit(args.format, ["r", "s", "class", "forbidden"], rows + vertices)
    return EXIT_OK


def cmd_satake(args) -> int:
    from . import ingest
    from .satake import is_tempered

    form = _load_form(args.coeffs)
    table = ingest.satake_table(form)
    rows = []
    for p in sorted(table)[: args.limit]:
        c = table[p]
        rows.append([p, f"{c.alpha:.12g}", f"{c.beta:.12g}",
                     int(is_tempered(c, args.tol))])
    _emit(args.format, ["p", "alpha", "beta", "tempered"], rows)
    return EXIT_OK


def cmd_lfactor(args) -> int:
    from . import ingest

    form = _load_form(args.coeffs)
    table = ingest.satake_table(form)
    if args.p not in table:
        raise ValueError(f"no Satake class at p={args.p} (ramified or out of range)")
    tag = RepTag(args.tag)
    coeffs = localfactor.local_factor(tag, table[args.p]).to_complex().coeffs
    rows = [[k, f"{c.real:.15g}", f"{c.imag:.15g}"] for k, c in enumerate(coeffs)]
    _emit(args.format, ["power", "re", "im"], rows,
          json_obj={"p": args.p, "tag": args.tag,
                    "coeffs": [[c.real, c.imag] for c in coeffs]})
    return EXIT_OK


_SUITES = {"triple": localfactor.check_triple_identity,
           "twist": localfactor.check_twist_identity,
           "gj": localfactor.check_gj_identity}


# The largest --bound whose draws keep every factor finite.  A draw's moduli
# lie in [1/B, B] for B = max(bound, 1/bound), so the triple factor's
# eigenvalues are at most B^3 in modulus and its coefficients at most
# C(8, k) B^(3k), the largest the top one, B^24 (B >= 2), which also bounds
# every partial sum and each product part.  A coefficient difference has
# parts up to 2 B^24 and modulus up to 2 sqrt(2) B^24, so B^24 <= max/4 keeps
# them all finite: B <= 6.59e12.  Every other factor's coefficients stay near
# B^18 or below, and no divisor falls below B^-3 in modulus, far from underflow.
_MAX_BOUND = (sys.float_info.max / 4) ** (1 / 24)


def cmd_identity(args) -> int:
    from .satake import SatakeClass

    if max(args.bound, 1 / args.bound) > _MAX_BOUND:
        raise ValueError(f"--bound must lie in [1/{_MAX_BOUND:.6g}, {_MAX_BOUND:.6g}], "
                         f"past which the triple factor leaves the float range, "
                         f"got {args.bound!r}")
    chosen = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    log_bound = math.log(args.bound)

    def draw():
        mod = math.exp(rng.uniform(-log_bound, log_bound))
        return mod * cmath.exp(2j * math.pi * rng.random())
    classes = [SatakeClass(draw(), draw(), rng.choice([2, 3, 5, 7]))
               for _ in range(args.samples)]
    rows = []
    for name in chosen:
        worst = _worst([_SUITES[name](c) for c in classes])
        rows.append([name, args.samples, f"{worst:.3e}", "pass" if worst < args.tol else "FAIL"])
    return _emit_checks(args.format, ["suite", "samples", "max_error", "status"], rows)


def cmd_monomial_check(args) -> int:
    from . import ingest, monomial

    data = ingest.parse_hecke(args.hecke)
    rows = []
    for entry in data.entries:
        e3 = monomial.check_monomial_r3(entry)
        e30 = monomial.check_monomial_r30(entry)
        rows.append([entry.p, entry.splitting, f"{e3:.3e}", f"{e30:.3e}",
                     "pass" if e3 < args.tol and e30 < args.tol else "FAIL"])
    if data.chi_order is not None and data.chi_order > 1:
        verdict = monomial.pole_criterion(data.chi_order)
        rows.append(["chi-order", data.chi_order, verdict.kind, "", ""])
    return _emit_checks(args.format, ["p", "splitting", "r3_error", "r30_error", "status"], rows)


# the flags of the samples checks, with their defaults; None marks one not given
_SAMPLES_FLAGS = {"samples": 50, "r": Fraction(1, 10), "seed": 7, "tol": 1e-10}


def cmd_intertwine(args) -> int:
    from . import intertwining

    given = {name: getattr(args, name) for name in _SAMPLES_FLAGS
             if getattr(args, name) is not None}
    if args.q is not None and not args.grid:
        raise ValueError("--q sets the q of the --grid rows; the samples draw q from {2, 3, 5}")
    if args.grid and given:
        raise ValueError("the --grid rows read only --q and --format, not "
                         + ", ".join(f"--{name}" for name in given))
    if args.grid:
        n, q, rows = args.grid, args.q or 2, []
        for i in range(1, n):
            for j in range(1, n):
                r, s = 0.5 * i / n, 3.0 * j / n
                try:
                    val = intertwining.gk_coefficient(intertwining.PrincipalParams(1.0, q, r, s))
                    rows.append([f"{r:.6f}", f"{s:.6f}", f"{val.real:.12g}", f"{val.imag:.12g}"])
                except intertwining.IntertwiningPole as exc:
                    rows.append([f"{r:.6f}", f"{s:.6f}", "pole", exc.root_name])
        _emit(args.format, ["r", "s", "re", "im"], rows)
        return EXIT_OK
    samples, pole_r, seed, tol = {**_SAMPLES_FLAGS, **given}.values()
    rng = random.Random(seed)
    errs = []
    for _ in range(samples):
        q = rng.choice([2, 3, 5])
        r = rng.uniform(0.01, 0.49)
        s = rng.uniform(0.05, 3.0)
        k, order = rng.randrange(0, 12), 12
        mu = cmath.exp(2j * math.pi * k / order)
        p = intertwining.PrincipalParams(mu, q, r, s)
        try:
            g = intertwining.gk_coefficient(p)
            l = intertwining.l_ratio(p)
        except intertwining.IntertwiningPole:
            continue
        errs.append(abs(g - l) / max(abs(l), 1e-30))
    worst = _worst(errs)
    rows = [["gk-vs-lratio", samples, f"{worst:.3e}", "pass" if worst < tol else "FAIL"]]
    for order in (1, 2, 5):
        want = intertwining.principal_series_pole_set(order, pole_r)
        got = intertwining.gk_pole_set(order, pole_r)
        rows.append([f"pole-set-order-{order}", str(pole_r),
                     "{" + ",".join(sorted(map(str, got))) + "}",
                     "pass" if want == got else "FAIL"])
    return _emit_checks(args.format, ["check", "param", "result", "status"], rows)


def cmd_euler(args) -> int:
    from . import analytic, ingest

    form = _load_form(args.coeffs)
    factors = ingest.sym3_factors(form, args.X)
    trace = analytic.partial_L(args.s, args.X, factors)
    rows = [[i, x, f"{v.real:.15g}", f"{v.imag:.15g}"]
            for i, (x, v) in enumerate(trace.checkpoints)]
    _emit(args.format, ["checkpoint", "X", "Re", "Im"], rows,
          json_obj={"s": str(args.s), "value": [trace.value.real, trace.value.imag],
                    "outside_convergence": trace.outside_convergence,
                    "checkpoints": [[x, v.real, v.imag] for x, v in trace.checkpoints]})
    if trace.outside_convergence:
        print("warning: Re(s) <= 1, outside the absolute-convergence contract",
              file=sys.stderr)
    return EXIT_OK


def _sym3_table(args, rows):
    """The --config (else the shipped sym3 one) and the sym3 coefficient table
    of --coeffs, rows(cfg, form) long."""
    from . import analytic, ingest

    form = _load_form(args.coeffs)
    cfg = ingest.parse_afe_config(args.config) if args.config else analytic.delta_sym3_config()
    n = rows(cfg, form)
    return cfg, analytic.dirichlet_coeffs(ingest.sym3_factors(form, n), n)


def cmd_afe(args) -> int:
    from . import analytic

    points = args.points or [0.5 + 0.5j, 0.5 + 1j, 0.5 + 2j]
    # no longer than --coeffs: a probe that needs more rows is CutoffTooSmall
    cfg, coeffs = _sym3_table(
        args, lambda cfg, form: min(analytic.probe_rows(points, cfg), form.n_max))
    report = analytic.epsilon_probe(points, cfg, coeffs)
    obj = {
        "points": [str(p) for p in report.points],
        "estimates": [[e.real, e.imag] for e in report.estimates],
        "max_pairwise_deviation": report.max_pairwise_deviation,
        "modulus_deviation": report.modulus_deviation,
        "skipped": [str(p) for p in report.skipped],
        "verdict": "pass" if (report.max_pairwise_deviation < args.tol
                              and report.modulus_deviation < args.tol) else "FAIL",
    }
    rows = [[str(p), f"{e.real:.10g}", f"{e.imag:.10g}", f"{abs(e):.10f}"]
            for p, e in zip(report.points, report.estimates)]
    rows.append(["pairwise-dev", f"{report.max_pairwise_deviation:.3e}", "", ""])
    rows.append(["modulus-dev", f"{report.modulus_deviation:.3e}", "", ""])
    _emit(args.format, ["point", "eps_re", "eps_im", "|eps|"], rows, json_obj=obj)
    return EXIT_OK if obj["verdict"] == "pass" else EXIT_FAIL


def cmd_scan(args) -> int:
    from . import analytic

    cfg, coeffs = _sym3_table(args, lambda cfg, form: analytic.afe_rows([args.a, args.b], cfg))
    if args.inject_pole:
        coeffs = analytic.inject_pole_factor(coeffs, *args.inject_pole)
    report = analytic.pole_scan((args.a, args.b), args.grid, cfg, coeffs,
                                threshold=args.threshold)
    obj = {
        "grid": report.grid,
        "normalized": report.normalized,
        "max_normalized": report.max_normalized,
        "threshold": report.threshold,
        "verdict": report.verdict,
        "flagged_points": report.flagged_points,
    }
    rows = [[f"{sg:.6f}", f"{v.real:.6e}", f"{nv:.6f}"]
            for sg, v, nv in zip(report.grid, report.values, report.normalized)]
    rows.append(["verdict", report.verdict, f"max={report.max_normalized:.3f}"])
    _emit(args.format, ["sigma", "Lambda_re", "normalized"], rows, json_obj=obj)
    return EXIT_OK if report.verdict == analytic.VERDICT_CONSISTENT else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="symcube",
        description="Cross-checks for symmetric-cube / adjoint-cube local "
                    "factors and the rank-two intertwining calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tol=None, seed=False):
        """--format everywhere; --tol and --seed only where a command reads them."""
        p.add_argument("--format", choices=["table", "json", "csv"], default="table")
        if tol is not None:
            p.add_argument("--tol", type=_positive_float, default=tol)
        if seed:
            p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("roots", help="pairing table, gram matrix, weyl data")
    p.add_argument("what", choices=["pairing", "gram", "coroots", "weyl"])
    p.add_argument("--r", type=_parse_fraction, help="rational value of r, e.g. 1/10")
    p.add_argument("--s", type=_parse_fraction, help="rational value of s, e.g. 2/3")
    common(p)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("region", help="rs-plane classification grid (CSV-friendly)")
    p.add_argument("--grid", type=_positive_int, default=100)
    p.add_argument("--mu-case", dest="mu_case", choices=["trivial", "order2"],
                   default="trivial")
    common(p)
    p.set_defaults(fn=cmd_region)

    p = sub.add_parser("satake", help="Satake classes from a coefficient file")
    p.add_argument("--coeffs", required=True,
                   help="path or builtin:delta[:N]")
    p.add_argument("--limit", type=_positive_int, default=25)
    common(p, tol=1e-8)
    p.set_defaults(fn=cmd_satake)

    p = sub.add_parser("lfactor", help="one local factor as a polynomial")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tag", default="sym3", choices=[t.value for t in RepTag])
    common(p)
    p.set_defaults(fn=cmd_lfactor)

    p = sub.add_parser("identity", help="seeded random factorization-identity suites")
    p.add_argument("--suite", choices=["all", *_SUITES], default="all")
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--bound", type=_positive_float, default=4.0)
    common(p, tol=1e-12, seed=True)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("monomial-check", help="dihedral factorizations from Hecke data")
    p.add_argument("--hecke", required=True)
    common(p, tol=1e-12)
    p.set_defaults(fn=cmd_monomial_check)

    p = sub.add_parser("intertwine", help="constant-term coefficient checks / grid")
    p.add_argument("--q", type=_prime_power,
                   help="prime power q of the --grid rows, at most the largest float "
                        "(default 2)")
    p.add_argument("--samples", type=_positive_int, help="(default 50)")
    p.add_argument("--r", type=_parse_fraction, help="rational r for pole-set checks "
                                                     "(default 1/10)")
    p.add_argument("--grid", type=_arg_type(int, "0 (off) or an integer >= 2",
                                            lambda value: value == 0 or value >= 2),
                   default=0, help="emit an (r,s) CSV grid of the coefficient instead")
    common(p, tol=1e-10, seed=True)
    # a samples flag given with --grid is refused, so none has a parser default
    p.set_defaults(fn=cmd_intertwine, **dict.fromkeys(_SAMPLES_FLAGS))

    p = sub.add_parser("euler", help="partial Euler product with doubling trace")
    p.add_argument("--coeffs", required=True, help="path or builtin:delta[:N]")
    p.add_argument("--s", type=_finite_complex, default=complex(3))
    p.add_argument("--X", type=_int_at_least(2), default=10000)
    common(p)
    p.set_defaults(fn=cmd_euler)

    p = sub.add_parser("afe", help="root-number probe for the completed function")
    p.add_argument("--coeffs", required=True, help="path or builtin:delta[:N]")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--points", type=_complex_list, help="comma-separated complex points")
    common(p, tol=1e-3)
    p.set_defaults(fn=cmd_afe)

    p = sub.add_parser("scan", help="boundedness scan on a real interval")
    p.add_argument("--coeffs", required=True, help="path or builtin:delta[:N]")
    p.add_argument("--config")
    p.add_argument("--a", type=_finite_float, default=0.55)
    p.add_argument("--b", type=_finite_float, default=0.95)
    p.add_argument("--grid", type=_positive_int, default=9)
    p.add_argument("--threshold", type=_finite_float, default=3.0)
    p.add_argument("--inject-pole", dest="inject_pole", type=_pole_spec,
                   help="p,sigma0 : multiply in an Euler factor with a pole")
    common(p)
    p.set_defaults(fn=cmd_scan)
    return ap


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # On a 2-core host numpy's OpenBLAS otherwise starts a second thread,
        # and the small zgemm calls of analytic._kernel_sums then took
        # 0.096-0.147 s in 3 of 4 cold afe/scan runs, against 0.008-0.014 s
        # on one thread.  A caller that already holds numpy keeps its setting.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, localfactor.LocalPoleError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
