import argparse
import cmath
import csv
import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcube import intertwining
from symcube.cli import _prime_power, main
from symcube.ingest import delta_form, satake_table
from symcube.intertwining import (UPPER_VERTICES, forbidden_triangle_contains,
                                  region_membership)
from symcube.localfactor import RepTag, eigenvalues, local_factor, rankin_selberg
from symcube.satake import SatakeClass, twist


REPO = Path(__file__).resolve().parents[1]


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_cold(argv):
    """The CLI in a fresh interpreter, run from the repository root; a run
    that hangs fails its test after two minutes."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "symcube.cli", *argv], cwd=REPO,
                          env=env, capture_output=True, timeout=120)


def test_roots_pairing_exact_row():
    code, out = run_cli(["roots", "pairing", "--r", "1/10", "--s", "2/3"])
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("beta6"))
    assert "s - 3r" in line and "11/30" in line


def test_roots_weyl():
    code, out = run_cli(["roots", "weyl"])
    assert code == 0
    assert out.count("\n") >= 13
    assert "beta2,beta3,beta4,beta5,beta6" in out


# sha256 of `roots <what> --format <format>` stdout (pairing with --r 1/10
# --s 2/3), recorded while weights had their own (beta3, beta4) vector class
ROOTS_SHA256 = {
    ("pairing", "table"): "2422d731a8e993a684f51f2ac8f80be146473f29aac91b804eeea7d3c47b5a9a",
    ("pairing", "csv"): "1027ab119878462d61c1a9f704dedfa6d9c9686debe4cacc5c01be46161633e6",
    ("pairing", "json"): "c9721aa754f16a4a51a8ca588b4bfc78f0dee4bd1850095990a212eb50193eec",
    ("gram", "table"): "7003baf5894fd393e533b07afe26f09472aac3f6b852d441d294e28c69c9f088",
    ("gram", "csv"): "2af1d835648058cf2216b9506ef2eab64aabc5464a03ab3d44c9d08bd450bd15",
    ("gram", "json"): "c2e785e0c25bb43acd7ef07ae5307e73d50fe4862b0655459ce3f8bf47a5f260",
    ("coroots", "table"): "4f80f9364652aacd5ff9661ccae7c38542bb7a24588bd2edb47b5afbaa83bbde",
    ("coroots", "csv"): "f59e424fde2038f0215253f3c03951abdbda376d7625b2551f83ba15f462ee48",
    ("coroots", "json"): "876e234382d8fb4968928e0df28af127589b72e9c5eff9f9c874e1f3f0b282a1",
    ("weyl", "table"): "2f8906f2ba9b621f0fcc638800d9c37aebcd773248bf1082b750478aa6639c14",
    ("weyl", "csv"): "9ee21fde3deab770a5c3efb8e5a8913d4104db6bf6e3e02e3b39a7e76809c00e",
    ("weyl", "json"): "422d3b0775a5007bd5085619817dd3d6ab78c44adaaa3ab098919d405be7b18d",
}


@pytest.mark.parametrize("what, fmt", sorted(ROOTS_SHA256))
def test_roots_bytes_are_pinned(what, fmt):
    point = ["--r", "1/10", "--s", "2/3"] if what == "pairing" else []
    code, out = run_cli(["roots", what, *point, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ROOTS_SHA256[what, fmt]


# sha256 of `monomial-check --hecke data/hecke_q_sqrt_minus23.txt --format
# <format>` stdout, recorded while sym^3 was expanded from its explicit 4x4
# matrix over the 24 permutations
MONOMIAL_SHA256 = {
    "table": "4738bba0222d450885e8bac6d28ce204c37002bac6db94131db89381d4b89bc3",
    "csv": "6fa8348cae84b6bef327b2d322d7afa4b61c2cbb06145c83ca7f5f3d06466610",
    "json": "3842a3291798fcea3680f5b7b603547c1e132028d94a341be80c14379ed3f96a",
}


@pytest.mark.parametrize("fmt", sorted(MONOMIAL_SHA256))
def test_monomial_check_bytes_are_pinned(fmt):
    code, out = run_cli(["monomial-check", "--hecke", "data/hecke_q_sqrt_minus23.txt",
                         "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == MONOMIAL_SHA256[fmt]


# sha256 of `lfactor --coeffs builtin:delta:200 --p <p> --tag <tag> --format
# json` stdout, recorded while each linear factor of a local factor was
# multiplied into a new coefficient list
LFACTOR_SHA256 = {
    (7, "adjoint-cube"): "96c95af2d68c3ec35495334c9fa49c06b1b32fae993b8eb8c7b0f06371bd2e73",
    (7, "gj-adjoint"): "1c68aa3e456da4d63e6e7a19f033735abbbdb40e7b02d0adbf761dc9b09b3af6",
    (7, "standard"): "316b87c1b6a462e62a170d0a435eed6a27b755518772609c2f7f42ffeb355e79",
    (7, "sym2"): "b6150f28466fdece1f9941ed7a255326a5b35e98bb01ef07f95fb71f09c62c55",
    (7, "sym3"): "d7b8d6878a2eae7191ac8f37607fb99e09bea4024b743d7bbc200596284f67f8",
    (7, "triple"): "3bf8690562e163bba452cf003d27eb40fa6eef5d429d1d13d27eb87aab01112d",
    (7, "wedge2"): "8572561970fa554e87a60611e93a0c0bae79a8feb7f8f4866d097f253ae8275d",
    (97, "adjoint-cube"): "3bb8069c159de60cecd545428d1d8d6c29276fc0b93f9206475f50335c45956a",
    (97, "gj-adjoint"): "b2320e443cf6b34ff20ef1493dc88fc90f88e9b0702fb5ece6bc5e3b6f7df571",
    (97, "standard"): "1e85b54230ae3a2f2ba5d7cc507f3637c570075d34d626e9b73fc8bc323650ec",
    (97, "sym2"): "df6e8f2ee7b2b2d72ce58bbddc792dbb91956a42dd016854d883b9a07dbe8f0b",
    (97, "sym3"): "1d11958935e4a5d7615a3a01e5a69ee5c8c042806ef95231009fc419cde43b52",
    (97, "triple"): "654dd2052d1404afc7f2bac6f39a83b4d1541a71542a7976eb69e7b56198f139",
    (97, "wedge2"): "969e77810b49cc80c8fcfa9e4b58d739c49c7dc8688b18c5c088f3d603233bfd",
}


@pytest.mark.parametrize("p, tag", sorted(LFACTOR_SHA256))
def test_lfactor_json_bytes_are_pinned(p, tag):
    code, out = run_cli(["lfactor", "--coeffs", "builtin:delta:200", "--p", str(p),
                         "--tag", tag, "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LFACTOR_SHA256[p, tag]


def test_identity_exit_codes():
    code, out = run_cli(["identity", "--suite", "all", "--samples", "30",
                         "--seed", "7"])
    assert code == 0
    assert out.count("pass") == 3
    code, _ = run_cli(["identity", "--samples", "10", "--tol", "1e-30"])
    assert code == 1


@pytest.mark.parametrize("bad", [None, math.nan, 1.0])
def test_identity_exits_1_exactly_when_a_printed_row_fails(monkeypatch, bad):
    from symcube import cli
    if bad is not None:
        monkeypatch.setitem(cli._SUITES, "twist", lambda c: bad)
    code, out = run_cli(["identity", "--samples", "5", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[0] for row in rows] == ["triple", "twist", "gj"]
    assert [row[-1] for row in rows] == ["pass", "pass" if bad is None else "FAIL", "pass"]
    assert code == (0 if bad is None else 1)


@pytest.mark.parametrize("bad", [None, math.nan, 1.0])
@pytest.mark.parametrize("check", ["check_monomial_r3", "check_monomial_r30"])
def test_monomial_check_exits_1_exactly_when_a_printed_row_fails(monkeypatch, check, bad):
    from symcube import monomial
    real = getattr(monomial, check)
    if bad is not None:
        monkeypatch.setattr(monomial, check, lambda e: bad if e.p == 13 else real(e))
    code, out = run_cli(["monomial-check", "--hecke", "data/hecke_q_sqrt_minus23.txt",
                         "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [row[-1] for row in rows[:-1]] == [
        "FAIL" if bad is not None and row[0] == "13" else "pass" for row in rows[:-1]]
    assert rows[-1] == ["chi-order", "3", "has-pole-at-0-and-1", "", ""]
    assert code == (0 if bad is None else 1)


def test_suite_choices_are_all_and_the_suites_table():
    from symcube.cli import _SUITES, build_parser
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["identity"]._actions if a.dest == "suite")
    assert suite.choices == ["all", *_SUITES]
    assert list(_SUITES) == ["triple", "twist", "gj"]


def test_identity_deterministic_bytes():
    _, out1 = run_cli(["identity", "--samples", "25", "--seed", "3",
                       "--format", "json"])
    _, out2 = run_cli(["identity", "--samples", "25", "--seed", "3",
                       "--format", "json"])
    assert out1 == out2
    _, out3 = run_cli(["identity", "--samples", "25", "--seed", "4",
                       "--format", "json"])
    assert out1 != out3


# sha256 of the README's `identity --suite all --samples 100 --seed 7 --format
# <format>` stdout, recorded before ReciprocalPoly.max_coeff_diff lost its
# padded copies and max() calls
IDENTITY_SHA256 = {
    "table": "7a20c29dd97e8ed7f65139a2579ac10bc9884dd9f3d2b454e572ca499fc2882e",
    "csv": "9083042745a41181fc8b01bb707af8fc7abd4a278846bbce598913f188dbda04",
    "json": "d7fe6660b518c7eb01e9cdd6dd0ec5e4888ea27ba065d0a9d9b266d5edaa4fa3",
}


@pytest.mark.parametrize("fmt", sorted(IDENTITY_SHA256))
def test_identity_readme_bytes_are_pinned(fmt):
    code, out = run_cli(["identity", "--suite", "all", "--samples", "100", "--seed", "7",
                         "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITY_SHA256[fmt]


def test_region_csv_vertices():
    code, out = run_cli(["region", "--grid", "13", "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "r,s,class,forbidden"
    tail = "\n".join(rows[-3:])
    assert "1/6,1/2,boundary" in tail
    assert "1/4,3/4,boundary" in tail
    assert "0,1,boundary" in tail


@pytest.mark.parametrize("n", [1, 2, 13])
@pytest.mark.parametrize("mu_case", ["trivial", "order2"])
def test_region_csv_rows_match_the_library(n, mu_case):
    code, out = run_cli(["region", "--grid", str(n), "--mu-case", mu_case,
                         "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    step = max(n - 1, 1)
    want = []
    for i in range(n):
        for j in range(n):
            r, s = Fraction(i, 2 * step), Fraction(j, step)
            want.append([str(r), str(s), region_membership(r, s, mu_case),
                         str(int(forbidden_triangle_contains(r, s)))])
    want += [[str(r), str(s), region_membership(r, s, mu_case), "0"]
             for r, s in UPPER_VERTICES]
    assert rows[0] == ["r", "s", "class", "forbidden"]
    assert rows[1:] == want


# sha256 of `region --grid 200 --mu-case <case> --format csv` stdout as the
# per-point Fraction classifier printed it, before the grid was classified
# in integers by `region_grid`
REGION_200_CSV_SHA256 = {
    "trivial": "7119fea2f277e7f96e6084aad0f4852129b70c8757852dabc9d61303ad5121f8",
    "order2": "e4d5ea737e0fe1d9ca719b00e7de76cd9aec1a6443a0f8542cedf82db0c0b46d",
}


@pytest.mark.parametrize("mu_case", sorted(REGION_200_CSV_SHA256))
def test_region_grid_200_csv_bytes_are_pinned(mu_case):
    code, out = run_cli(["region", "--grid", "200", "--mu-case", mu_case,
                         "--format", "csv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REGION_200_CSV_SHA256[mu_case]


# sha256 of `region --grid 50 --mu-case <case> --format <fmt>` stdout as the
# command printed every format through one row list, before csv was written
# as joined lines
REGION_50_SHA256 = {
    ("trivial", "table"): "f8dfe08cd052c495c10afb5796985c6829529579e6a7994399bbd08c37a3db41",
    ("trivial", "json"): "48dde3d51e8dffad551d1a037d1eec450b3b17b2cbb1a7f6f81e086513012304",
    ("order2", "table"): "0a4697d226db2af29f2616a870c3d09a7276daafc0fcb4396dd5d1d1b4c59eee",
    ("order2", "json"): "17963e215c585623b6d619bac9e9bba062af64a7fd9617a196c11972d17dc49b",
}


@pytest.mark.parametrize("mu_case, fmt", sorted(REGION_50_SHA256))
def test_region_grid_50_table_and_json_bytes_are_pinned(mu_case, fmt):
    code, out = run_cli(["region", "--grid", "50", "--mu-case", mu_case, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REGION_50_SHA256[mu_case, fmt]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 40), st.sampled_from(["trivial", "order2"]))
def test_region_csv_bytes_equal_csv_writer_rows(n, mu_case):
    step = max(n - 1, 1)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["r", "s", "class", "forbidden"])
    for i in range(n):
        for j in range(n):
            r, s = Fraction(i, 2 * step), Fraction(j, step)
            w.writerow([r, s, region_membership(r, s, mu_case),
                        int(forbidden_triangle_contains(r, s))])
    w.writerows([r, s, region_membership(r, s, mu_case), 0] for r, s in UPPER_VERTICES)
    code, out = run_cli(["region", "--grid", str(n), "--mu-case", mu_case, "--format", "csv"])
    assert code == 0
    assert out == buf.getvalue()


@pytest.mark.parametrize("argv", [
    ["region", "--grid", "0"], ["region", "--grid", "-3"],
    # refused before the table is built
    ["scan", "--coeffs", "builtin:delta:4000", "--grid", "0"],
    ["scan", "--coeffs", "builtin:delta:4000", "--grid", "-3"],
], ids=["0", "-3", "scan-0", "scan--3"])
def test_region_nonpositive_grid_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage:") and "Traceback" not in err_text


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["identity", "--nonsense"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [["region", "--seed", "3"],
                                  ["scan", "--coeffs", "builtin:delta:100", "--tol", "1e-3"]])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage:") and "Traceback" not in err_text
    assert len([l for l in err_text.splitlines() if l.startswith("usage:")]) == 1


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_missing_file_is_usage_error():
    code, _ = run_cli(["satake", "--coeffs", "/nonexistent/path.txt"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    # a directory where a file is expected (IsADirectoryError, an OSError)
    ["monomial-check", "--hecke", "data"],
    ["afe", "--coeffs", "builtin:delta:100", "--config", "data"],
    ["satake", "--coeffs", "data"],
    # a zero denominator or a non-number where a rational is expected
    ["roots", "pairing", "--r", "1/0", "--s", "1"],
    ["roots", "pairing", "--r", "1/10", "--s", "two"],
    ["intertwine", "--r", "1/0"],
    # counts out of range
    ["satake", "--coeffs", "builtin:delta:100", "--limit", "-5"],
    ["identity", "--samples", "-2"],
    ["intertwine", "--samples", "-1"],
    ["intertwine", "--grid", "-3"],
    ["intertwine", "--q", "1"],
    ["intertwine", "--grid", "12", "--q", "6"],
    ["intertwine", "--q", "3"],
    # q = 9999999967 * 9999999943, and q at the bound of the primality test
    ["intertwine", "--grid", "2", "--q", "99999999100000001881"],
    ["intertwine", "--grid", "2", "--q", "3317044064679887385961981"],
    ["euler", "--coeffs", "builtin:delta:100", "--X", "0"],
    ["euler", "--coeffs", "builtin:delta:100", "--X", "-5"],
    # an injected factor needs an integer p >= 2 and finite powers of p^sigma0
    *(["scan", "--coeffs", "builtin:delta:4000", f"--inject-pole={spec}"]
      for spec in ("1,0.75", "0,0.75", "-2,0.75", "2", "2,x", "2,nan", "2,1000")),
    # float flags are finite; a bound and a tolerance are also > 0
    ["scan", "--coeffs", "builtin:delta:4000", "--a", "nan"],
    ["scan", "--coeffs", "builtin:delta:4000", "--b", "inf"],
    ["scan", "--coeffs", "builtin:delta:4000", "--threshold", "nan"],
    ["scan", "--coeffs", "builtin:delta:4000", "--threshold", "-inf"],
    # above the supported Re(s) <= 12, and a point that is its own reflection
    ["scan", "--coeffs", "builtin:delta:4000", "--a", "1e300", "--b", "2e300", "--grid", "2"],
    ["scan", "--coeffs", "builtin:delta:4000", "--a", "100", "--b", "100", "--grid", "1"],
    ["afe", "--coeffs", "builtin:delta:4000", "--points", "0.5"],
    # one point on the critical line, which no gamma configuration can fail:
    # with reciprocal scales the solved eps is a quotient of conjugates there
    ["afe", "--coeffs", "builtin:delta:4000", "--points", "0.5+1j"],
    ["afe", "--coeffs", "builtin:delta:4000", "--points", "0.5+1j,0.5+1j"],
    ["euler", "--coeffs", "builtin:delta:200", "--X", "100", "--s", "nan"],
    ["euler", "--coeffs", "builtin:delta:200", "--X", "100", "--s", "inf"],
    ["euler", "--coeffs", "builtin:delta:200", "--X", "100", "--s", "1+nanj"],
    ["afe", "--coeffs", "builtin:delta:100", "--points", "nan+1j"],
    ["afe", "--coeffs", "builtin:delta:100", "--points", "0.5+1j,inf"],
    ["afe", "--coeffs", "builtin:delta:100", "--tol", "-1"],
    ["identity", "--bound", "nan"],
    ["identity", "--bound", "-1"],
    ["identity", "--bound", "0"],
    ["identity", "--tol", "0"],
    ["identity", "--tol", "nan"],
    ["satake", "--coeffs", "builtin:delta:100", "--tol", "inf"],
    ["monomial-check", "--hecke", "data/hecke_q_sqrt_minus23.txt", "--tol", "-1e-12"],
    ["intertwine", "--tol", "nan"],
], ids=lambda argv: " ".join(argv))
def test_bad_input_is_one_line_usage_error(argv):
    out = run_cold(argv)
    err = out.stderr.decode()
    assert out.returncode == 2 and out.stdout == b"" and "Traceback" not in err
    # argparse prints its usage block first; the message itself is one line
    message = [line for line in err.splitlines() if not line.startswith(("usage:", " "))]
    assert len(message) == 1, err


# one bad value for each argparse type, and argparse's last stderr line
_FLAG_MESSAGES = {
    "roots pairing --r 1/0":
        "symcube roots: error: argument --r: must be a rational number, got '1/0'",
    "satake --coeffs builtin:delta:100 --limit -5":
        "symcube satake: error: argument --limit: must be an integer >= 1, got '-5'",
    "intertwine --grid -3":
        "symcube intertwine: error: argument --grid: must be 0 (off) or an integer >= 2, "
        "got '-3'",
    # r = i/(2n) for 1 <= i < n leaves no row at n = 1
    "intertwine --grid 1":
        "symcube intertwine: error: argument --grid: must be 0 (off) or an integer >= 2, "
        "got '1'",
    "euler --coeffs builtin:delta:100 --X 0":
        "symcube euler: error: argument --X: must be an integer >= 2, got '0'",
    "scan --coeffs builtin:delta:100 --a nan":
        "symcube scan: error: argument --a: must be a finite number, got 'nan'",
    "identity --bound 0":
        "symcube identity: error: argument --bound: must be a finite number > 0, got '0'",
    "euler --coeffs builtin:delta:100 --s 1+nanj":
        "symcube euler: error: argument --s: must be a finite complex number, got '1+nanj'",
    "afe --coeffs builtin:delta:100 --points 0.5+1j,inf":
        "symcube afe: error: argument --points: must be a finite complex number, got 'inf'",
    "scan --coeffs builtin:delta:100 --inject-pole=2,0.75,1":
        "symcube scan: error: argument --inject-pole: must be p,sigma0 with an integer "
        "p >= 2 and a finite sigma0, got '2,0.75,1'",
    "intertwine --grid 12 --q 6":
        "symcube intertwine: error: argument --q: must be a prime power, got '6'",
    "intertwine --grid 2 --q 3317044064679887385961981":
        "symcube intertwine: error: argument --q: must be a prime power p^k with p below "
        "3317044064679887385961981, got '3317044064679887385961981'",
    f"intertwine --grid 3 --q {2 ** 2000}":
        "symcube intertwine: error: argument --q: must be a prime power at most the "
        f"largest float, 1.79769e+308, got '{2 ** 2000}'",
}


@pytest.mark.parametrize("command", list(_FLAG_MESSAGES), ids=lambda c: c[:80])
def test_bad_flag_value_messages_are_pinned(command, capsys):
    with pytest.raises(SystemExit) as err:
        main(command.split())
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == _FLAG_MESSAGES[command]


@pytest.mark.parametrize("coeffs", ["builtin:deltafoo", "builtin:delta:10:20",
                                    "builtin:delta:0", "builtin:delta:", "builtin:delta:-5",
                                    "builtin:delta:1e3", "builtin:eta"])
def test_builtin_coeffs_outside_the_grammar_are_usage_errors(coeffs, capsys):
    code, out = run_cli(["satake", "--coeffs", coeffs])
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "builtin:delta or builtin:delta:N with N >= 1" in err


def test_bare_builtin_delta_has_1000_terms():
    assert run_cli(["lfactor", "--coeffs", "builtin:delta", "--p", "997"])[0] == 0
    assert run_cli(["lfactor", "--coeffs", "builtin:delta", "--p", "1009"])[0] == 2


def test_local_pole_is_usage_error(capsys):
    # at s = 3i arg(alpha_2) / log 2 the sym3 factor 1 - alpha_2^3 2^{-s} vanishes
    alpha = satake_table(delta_form(100))[2].alpha
    s = 3j * cmath.phase(alpha) / math.log(2)
    code, _ = run_cli(["euler", "--coeffs", "builtin:delta:100", "--X", "50",
                       "--s", str(s)])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: local factor at p=2")


def test_bad_form_file_is_usage_error(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("weight 12 level 1 character trivial\n1 1\n4 7\n6 8\n")
    code, _ = run_cli(["monomial-check", "--hecke", str(p)])
    assert code == 2


def test_satake_table_output(tmp_path):
    p = tmp_path / "delta.txt"
    p.write_text("weight 12 level 1 character trivial\n" + "".join(
        f"{n} {a}\n" for n, a in sorted(delta_form(100).coefficients.items())))
    code, out = run_cli(["satake", "--coeffs", str(p), "--limit", "5"])
    assert code == 0
    assert "tempered" in out.splitlines()[0]
    assert all("1" in line.split()[-1] for line in out.splitlines()[1:])


def test_lfactor_json():
    code, out = run_cli(["lfactor", "--coeffs", "builtin:delta:50", "--p", "2",
                         "--tag", "sym3", "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["p"] == 2
    assert len(obj["coeffs"]) == 5


def test_monomial_check_pass(tmp_path):
    p = tmp_path / "hecke.txt"
    p.write_text("field-disc -23 chi-order 3\n"
                 "2 split 1/3 2/3\n"
                 "11 inert 1/3\n"
                 "13 split 2/3 1/3\n")
    code, out = run_cli(["monomial-check", "--hecke", str(p)])
    assert code == 0
    assert "has-pole-at-0-and-1" in out


def test_intertwine_checks():
    code, out = run_cli(["intertwine", "--samples", "25", "--seed", "11"])
    assert code == 0
    assert "gk-vs-lratio" in out and "FAIL" not in out


@pytest.mark.parametrize("seed", [13, 20])
def test_intertwine_draws_near_the_pole_locus_pass(seed):
    # these seeds draw points close to s = r or s = 3r with mu = 1, where an
    # L-ratio built from expanded polynomials was off by about 1e-10
    code, out = run_cli(["intertwine", "--samples", "2000", "--seed", str(seed)])
    assert code == 0
    assert "FAIL" not in out


def test_intertwine_fails_on_a_nan_disagreement(monkeypatch):
    calls = []
    real = intertwining.gk_coefficient

    def third_is_nan(p):
        calls.append(p)
        return complex("nan") if len(calls) == 3 else real(p)

    monkeypatch.setattr(intertwining, "gk_coefficient", third_is_nan)
    code, out = run_cli(["intertwine", "--samples", "10"])
    assert code == 1
    row = [line.split() for line in out.splitlines() if line.startswith("gk-vs-lratio")]
    assert row == [["gk-vs-lratio", "10", "nan", "FAIL"]]


# sha256 of stdout, recorded while each check command kept a failure flag
# beside the statuses it printed and cli built the sym3 factor map itself
COMMAND_SHA256 = {
    "intertwine --samples 50 --r 1/10 --format table":
        "dca581e5bed0218a9070159fb13ced45766aeefd515cdca6e72c0cd3e5f47a30",
    "intertwine --samples 50 --r 1/10 --format json":
        "ffabca1f0e79f4eda6a296ed7e2e0ce32cc2c00d5cdadf841aa0047286d614c8",
    "intertwine --samples 50 --r 1/10 --format csv":
        "cccba777acbb83d57d2f81842c255069ee58b7b65a63fbae90b344ff3c686147",
    "intertwine --grid 6 --q 4 --format csv":
        "68d9f4c5f95f258663bad31837d14a99430cd60f76f5f03f4d9a7ce150330387",
    "satake --coeffs builtin:delta:200 --format table":
        "d5746175e7115a8672386f28737f91b74537c4c256d07d38d5bd974c582a9739",
    "satake --coeffs builtin:delta:200 --format json":
        "c07d12cc25881da9c3c961c6e7965277ffbb746e5905250f40b222de24845d5d",
    "satake --coeffs builtin:delta:200 --format csv":
        "454c5298fc6063e902eb0101047b1439bc35ea13b5aa133f7b26c6de7d6f0b2b",
    "euler --coeffs builtin:delta:200 --X 100 --format table":
        "d0150c89b15fb186da9c9ad42eaba007cd63fcb7db331e20cf3c7a7aa652619b",
    "euler --coeffs builtin:delta:200 --X 100 --format json":
        "f173377f474dc44294f20f5e621d0ebb06f0040dad8333caf6a62ff352d3c0d2",
    "euler --coeffs builtin:delta:200 --X 100 --format csv":
        "967cc550632d7d1b535a9f38b3778bc865f31d66913ab2d2ffed9743cd7cd918",
}


@pytest.mark.parametrize("command", sorted(COMMAND_SHA256))
def test_command_bytes_are_pinned(command):
    code, out = run_cli(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == COMMAND_SHA256[command]


def test_intertwine_grid_csv():
    code, out = run_cli(["intertwine", "--grid", "6", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "r,s,re,im"
    assert len(out.splitlines()) == 26


def test_intertwine_grid_q_takes_prime_powers():
    default = run_cli(["intertwine", "--grid", "6"])
    assert run_cli(["intertwine", "--grid", "6", "--q", "2"]) == default
    for q in ("4", "9", "7"):
        code, out = run_cli(["intertwine", "--grid", "6", "--q", q])
        assert code == 0 and out != default[1] and len(out.splitlines()) == 26


def test_intertwine_q_is_decided_without_trial_division():
    # 10^18 + 3 is prime; trial division to its square root would take 10^9 steps
    start = time.perf_counter()
    out = run_cold(["intertwine", "--grid", "2", "--q", "1000000000000000003"])
    # cold start and import included; the trial division took minutes
    assert time.perf_counter() - start < 10.0
    assert out.returncode == 0 and out.stdout.decode().splitlines()[1].split()[:2] == [
        "0.250000", "1.500000"]
    # the largest prime the test decides, 2^81 (k = bit_length - 1), and powers
    # at and past the test's bound whose roots are exact only in integers
    for q in ("4", "1024", "3486784401", str(1000003 ** 3), str(2 ** 81),
              "3317044064679887385961813", str(2 ** 82), str(2 ** 90), str(3 ** 60),
              str(3317044064679887385961813 ** 2)):
        assert _prime_power(q) == int(q)
    # 318665857834031151167461 is a strong pseudoprime to the bases 2..37;
    # 6^50 is a perfect power of a composite; the last two have roots the
    # test cannot decide
    for q in ("6", "36", "1000000016000000063", str(2 ** 80 * 3),
              "318665857834031151167461", str(6 ** 50), "3317044064679887385961981",
              str(3317044064679887385961981 ** 2)):
        with pytest.raises(argparse.ArgumentTypeError):
            _prime_power(q)


def test_euler_csv_trace():
    code, out = run_cli(["euler", "--coeffs", "builtin:delta:500", "--s", "3",
                         "--X", "500", "--format", "csv"])
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "checkpoint,X,Re,Im"
    assert rows[-1].split(",")[1] == "500"


def test_euler_warns_on_stderr_at_re_s_up_to_1(capsys):
    code, out = run_cli(["euler", "--coeffs", "builtin:delta:200", "--s", "0.9",
                         "--X", "200", "--format", "csv"])
    assert code == 0 and out.startswith("checkpoint,X,Re,Im\n") and "warning" not in out
    assert capsys.readouterr().err == (
        "warning: Re(s) <= 1, outside the absolute-convergence contract\n")


def test_readme_tour_runs(capsys):
    """Every `symcube` line of the README's CLI quick tour, in process and
    with its `> file` redirection dropped, ends with its documented code:
    0, and 1 for the scan with an injected pole."""
    text = (REPO / "README.md").read_text()
    block = text.split("## CLI quick tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    tour = [shlex.split(line.split(" > ", 1)[0])[1:]
            for line in block.splitlines() if line.startswith("symcube ")]
    assert len(tour) == 9
    for argv in tour:
        code, _ = run_cli(argv)
        assert code == (1 if "--inject-pole" in argv else 0), argv
        assert "Traceback" not in capsys.readouterr().err, argv


def _level_2_copy(tmp_path):
    # the shipped level-1 file relabelled level 2: p = 2 becomes ramified
    text = (REPO / "data" / "delta_coeffs_small.txt").read_text()
    assert text.startswith("weight 12 level 1 ")
    path = tmp_path / "level2.txt"
    path.write_text(text.replace("level 1", "level 2", 1))
    return path


def test_euler_leaves_out_primes_dividing_the_level(tmp_path):
    from symcube.analytic import partial_L
    from symcube.ingest import parse_form
    from symcube.localfactor import RepTag, ReciprocalPoly, local_factor
    path = _level_2_copy(tmp_path)
    out = run_cold(["euler", "--coeffs", str(path), "--X", "50", "--format", "json"])
    assert out.returncode == 0, out.stderr
    factors = {p: local_factor(RepTag.SYM3, c)
               for p, c in satake_table(parse_form(str(path))).items() if p <= 50}
    factors[2] = ReciprocalPoly([1])
    want = partial_L(3, 50, factors).value
    assert json.loads(out.stdout)["value"] == [want.real, want.imag]


@pytest.mark.parametrize("command", [["satake"], ["lfactor", "--p", "2"],
                                     ["euler", "--X", "3"]])
@pytest.mark.parametrize("weight, terms, prime", [(120, 1000, 397), (2000, 100, 2)])
def test_a_weight_beyond_the_float_range_is_an_input_error(tmp_path, command, weight,
                                                           terms, prime):
    # a_n = 1 is multiplicative; p^(k-1) overflows a float first at `prime`
    path = tmp_path / "heavy.txt"
    path.write_text(f"weight {weight} level 1 character trivial\n"
                    + "".join(f"{n} 1\n" for n in range(1, terms + 1)))
    out = run_cold([command[0], "--coeffs", str(path), *command[1:]])
    assert (out.returncode, out.stdout, out.stderr.decode()) == (
        2, b"", f"input error: weight {weight}: {prime}^{weight - 1} is beyond the "
                "float range\n")


def test_sym3_table_of_a_level_2_form_vanishes_at_powers_of_2(tmp_path):
    from symcube.analytic import dirichlet_coeffs
    from symcube.cli import _sym3_table
    from symcube.ingest import parse_form, sym3_factors
    from symcube.localfactor import ReciprocalPoly
    path, config = _level_2_copy(tmp_path), tmp_path / "sym3.cfg"
    config.write_text("gamma_shifts = 5.5, 16.5\ncutoff = 100\n")
    cfg, coeffs = _sym3_table(argparse.Namespace(coeffs=str(path), config=str(config)), [0.5])
    assert cfg.cutoff == 100
    factors = sym3_factors(parse_form(str(path)), 100)
    assert factors[2] == ReciprocalPoly([1])
    want = dirichlet_coeffs(factors, 100)
    assert np.array_equal(coeffs.values, want.values)
    assert not coeffs.values[[2, 4, 8, 16, 32, 64]].any()
    assert coeffs.values[3] != 0


def test_scan_json_and_injected_pole():
    code, out = run_cli(["scan", "--coeffs", "builtin:delta:4000",
                         "--a", "0.6", "--b", "0.9", "--grid", "4",
                         "--format", "json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "consistent-with-holomorphy"
    code, out = run_cli(["scan", "--coeffs", "builtin:delta:4000",
                         "--a", "0.6", "--b", "0.9", "--grid", "4",
                         "--inject-pole", "2,0.75", "--format", "json"])
    assert code == 1
    assert json.loads(out)["verdict"] == "growth-flagged"


AFE_ARGS = ["--coeffs", "builtin:delta:4000", "--config", "data/delta_sym3_afe.cfg"]


def test_scan_readme_command_bytes_are_pinned():
    # stdout recorded before the smoothing kernel was factorized; its six
    # printed digits must not see the rounding-level change of the values
    out = run_cold(["scan", *AFE_ARGS])
    assert out.returncode == 0
    assert out.stdout == (REPO / "tests" / "data" / "scan_delta_sym3_afe.txt").read_bytes()


def test_afe_json_root_numbers():
    # the estimates are printed in full precision, so only their accuracy
    # is pinned: the solved eps is -1 to 1e-11 (measured: 2.7e-13)
    out = run_cold(["afe", *AFE_ARGS, "--format", "json"])
    assert out.returncode == 0
    obj = json.loads(out.stdout)
    assert sorted(obj) == ["estimates", "max_pairwise_deviation", "modulus_deviation",
                           "points", "skipped", "verdict"]
    assert obj["verdict"] == "pass"
    assert obj["points"] == ["(0.5+0.5j)", "(0.5+1j)", "(0.5+2j)"]
    assert obj["skipped"] == []
    for re, im in obj["estimates"]:
        assert abs(re + 1) < 1e-11
        assert abs(im) < 1e-11
    assert obj["modulus_deviation"] < 1e-11


def test_afe_point_past_the_supported_height_is_usage_error():
    out = run_cold(["afe", *AFE_ARGS, "--points", "0.5+7j"])
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr == b"input error: Im(s) = 7.0 outside the supported |Im(s)| <= 6\n"


def test_scan_interval_whose_length_overflows_is_usage_error():
    # b - a = inf once put nan and inf on the grid and reported Re(s) = inf
    out = run_cold(["scan", "--coeffs", "builtin:delta:4000", "--a=-1.7e308", "--b", "1.7e308"])
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr == b"input error: the interval [-1.7e+308, 1.7e+308] has no finite length\n"


def test_exact_commands_do_not_load_numpy():
    """Only euler, afe and scan compute with numpy; a fresh interpreter that
    imports symcube and runs every other command in-process never loads it."""
    commands = [
        ["roots", "weyl"],
        ["region", "--grid", "20"],
        ["identity", "--samples", "10"],
        ["monomial-check", "--hecke", "data/hecke_q_sqrt_minus23.txt"],
        ["intertwine", "--samples", "10"],
        ["intertwine", "--grid", "2", "--q", "1000000000000000003"],
        ["satake", "--coeffs", "builtin:delta:200"],
        ["lfactor", "--coeffs", "builtin:delta:200", "--p", "7"],
    ]
    code = ("import contextlib, io, sys, symcube\n"
            "from symcube.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def _fresh_python(code):
    """`python -c code` in a fresh interpreter that imports symcube from src/."""
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert out.returncode == 0, out.stderr
    return out


_BASE = {"cli", "localfactor", "satake"}
_RANK_TWO = _BASE | {"g2root", "intertwining"}
_FORM = _BASE | {"ingest"}
_COMMAND_MODULES = [
    (["identity", "--samples", "10"], _BASE),
    (["roots", "weyl"], _BASE | {"g2root"}),
    (["region", "--grid", "20"], _RANK_TWO),
    (["intertwine", "--samples", "10"], _RANK_TWO),
    (["monomial-check", "--hecke", "data/hecke_q_sqrt_minus23.txt"],
     _FORM | {"monomial", "cyclo"}),
    (["satake", "--coeffs", "builtin:delta:200"], _FORM),
    (["lfactor", "--coeffs", "builtin:delta:200", "--p", "7"], _FORM),
    (["euler", "--coeffs", "builtin:delta:200", "--X", "100"], _FORM | {"analytic"}),
    (["afe", "--coeffs", "builtin:delta:4000", "--config", "data/delta_sym3_afe.cfg"],
     _FORM | {"analytic"}),
    (["scan", "--coeffs", "builtin:delta:4000", "--grid", "3"], _FORM | {"analytic"}),
]


@pytest.mark.parametrize("argv, loaded", _COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in _COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, loaded):
    """A fresh interpreter that runs one command in-process holds exactly
    these symcube submodules afterwards."""
    code = ("import contextlib, io, sys\n"
            "from symcube.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('symcube.'))))\n")
    out = _fresh_python(code)
    assert out.stdout.split() == sorted(f"symcube.{m}" for m in loaded)


# the numpy-free commands, then some in the format they write with json or csv
# (region's csv grid is joined lines, with no csv module)
_STDLIB_RUNS = [(argv, set()) for argv, loaded in _COMMAND_MODULES if "analytic" not in loaded] + [
    (["identity", "--samples", "10", "--format", "json"], {"json"}),
    (["roots", "pairing", "--format", "csv"], {"csv"}),
    (["region", "--grid", "20", "--format", "csv"], set()),
    (["satake", "--coeffs", "builtin:delta:200", "--format", "csv"], {"csv"}),
]


@pytest.mark.parametrize("argv, written", _STDLIB_RUNS,
                         ids=[" ".join(argv[::len(argv) - 1]) for argv, _ in _STDLIB_RUNS])
def test_numpy_free_commands_load_no_dataclasses_and_only_the_format_they_write(argv,
                                                                                 written):
    """dataclasses (with inspect, ast, dis and tokenize) costs a cold command
    about 6.5 ms and json plus csv about 2 ms; none of them is needed to run."""
    code = ("import contextlib, io, sys\n"
            "from symcube.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(*(m for m in ('dataclasses', 'inspect', 'json', 'csv') if m in sys.modules))\n")
    assert set(_fresh_python(code).stdout.split()) == written


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_a_numpy_command_runs_blas_on_one_thread():
    code = ("import contextlib, io\n"
            "from symcube.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['scan', '--coeffs', 'builtin:delta:4000', '--grid', '3']) == 0\n"
            "print(next(l for l in open('/proc/self/status') if l.startswith('Threads:')))\n")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True,
                         text=True, env=dict(env, PYTHONPATH=str(REPO / "src")))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["Threads:", "1"]


def test_import_symcube_loads_no_submodule():
    code = ("import sys, symcube\n"
            "print(sorted(m for m in sys.modules if m.startswith(('symcube.', 'numpy'))),"
            " 'fractions' in sys.modules)\n")
    assert _fresh_python(code).stdout == "[] False\n"


_CONFIG = "gamma_shifts = 5.5, 16.5\ncutoff = 4000\n"
# each bad config row: (id, file text, the error's text after "config")
_BAD_CONFIGS = [
    ("no-equals", "nothing here\n", " line 1: expected key = value, got 'nothing here\\n'"),
    ("no-gamma-shifts", "conductor = 1\n", ": gamma_shifts must be set"),
    ("bad-shift", "gamma_shifts = 5.5, x\n", " line 1: bad gamma_shifts value '5.5, x'"),
    ("bad-conductor", _CONFIG + "conductor = one\n", " line 3: bad conductor value 'one'"),
    ("degree", _CONFIG + "degree = 6\n",
     ": degree = 6 disagrees with 2 gamma shifts (degree 4)"),
    ("self-dual", _CONFIG + "self_dual = maybe\n", " line 3: bad self_dual value 'maybe'"),
    ("unknown-key", _CONFIG + "x-scale = 32\n", " line 3: unknown key 'x-scale'; the keys "
     "are gamma_shifts, degree, conductor, cutoff, x_scale, self_dual"),
    ("x-scale-negative", _CONFIG + "x_scale = -3\n",
     ": x_scale must be a finite number > 0, got -3.0"),
    ("x-scale-inf", _CONFIG + "x_scale = inf\n", ": x_scale must be a finite number > 0, got inf"),
    ("x-scale-zero", _CONFIG + "x_scale = 0\n", ": x_scale must be a finite number > 0, got 0.0"),
    ("nan-shift", "gamma_shifts = nan, 16.5\ncutoff = 4000\n",
     ": gamma_shifts must be nonempty and finite, got (nan, 16.5)"),
    ("conductor-zero", _CONFIG + "conductor = 0\n", ": conductor must be >= 1, got 0"),
    ("cutoff-negative", "gamma_shifts = 5.5, 16.5\ncutoff = -5\n",
     ": cutoff must be >= 0, got -5"),
    ("repeated-key", _CONFIG + "gamma_shifts = 6.5, 16.5\n",
     " line 3: repeated key 'gamma_shifts'; first set at line 1"),
]
# each bad Hecke entry: (id, the line, the error's text after its line number);
# p = 1 is refused before the primality test, which does not end on it
_BAD_HECKE_LINES = [
    ("p-4", "4 split 1/3 2/3", "p must be a prime below 3.317e+24, got 4"),
    ("p-negative", "-7 inert 0/1", "p must be a prime below 3.317e+24, got -7"),
    ("p-0", "0 inert 1/3", "p must be a prime below 3.317e+24, got 0"),
    ("p-1", "1 inert 1/3", "p must be a prime below 3.317e+24, got 1"),
    ("lone-split-value", "7 split 1/3", "split entry at p=7 needs two character values"),
    ("inert-pair", "7 inert 1/3 2/3", "inert entry at p=7 takes one character value"),
    ("five-tokens", "7 split 1/3 2/3 1/3",
     "expected 'p split v v' or 'p inert v', got '7 split 1/3 2/3 1/3'"),
]
# per file flag: the parser, and the command that reads the file
_READERS = {"--coeffs": ("parse_form", ["satake"]),
            "--hecke": ("parse_hecke", ["monomial-check"]),
            "--config": ("parse_afe_config", ["scan", "--coeffs", "builtin:delta:4000"])}


@pytest.mark.parametrize("error, flag, text, err", [
    ("FormParseError", "--coeffs", "weight 12 level 1 character trivial\n1 1\n2 x\n",
     "input error: line 3: bad number in '2 x'\n"),
    ("MultiplicativityError", "--coeffs",
     "weight 12 level 1 character trivial\n1 1\n2 1\n3 1\n6 5\n",
     "input error: multiplicativity fails at coprime pair (2, 3): a(6) != a(2)*a(3)\n"),
    ("HeckeParseError", "--hecke", "field-disc -23 chi-order 3\n2 split 1/0 2/3\n",
     "input error: line 2: bad root-of-unity shorthand '1/0'\n"),
    ("HeckeParseError", "--hecke", "field-disc -23 chi-order x\n2 split 1/3 2/3\n",
     "input error: line 1: chi-order must be an integer >= 1 or unknown, got 'x'\n"),
    ("FormParseError", "--coeffs", "weight 12 level 1 character trivial\n1 1\n2 1.e400\n",
     "input error: line 3: non-finite coefficient in '2 1.e400'\n"),
    ("HeckeParseError", "--hecke", "field-disc -23 chi-order 3\n2 split 1/5 4/5\n5 inert 1/7\n",
     "input error: line 2: value at p=2 is not an order-3 root of unity (chi-order 3)\n"),
    ("HeckeParseError", "--hecke", "field-disc -23 chi-order 3\n5 split 1/3 2/3\n23 inert 1/3\n",
     "input error: line 2: p=5 is inert in Q(sqrt(-23)), where (-23/5) = -1; "
     "the entry says split\n"),
    ("HeckeParseError", "--hecke", "field-disc -23 chi-order 3\n2 split 1/3 2/3\n23 inert 1/3\n",
     "input error: line 3: p=23 ramifies in Q(sqrt(-23)), where (-23/23) = 0; "
     "the entry says inert\n"),
    ("HeckeParseError", "--hecke", "field-disc -23 chi-order unknown\n2 split 0,0 1,0\n",
     "input error: line 2: character values must be nonzero\n"),
    *(("HeckeParseError", "--hecke", f"field-disc -23 chi-order unknown\n5 inert 1/2\n{line}\n",
       f"input error: line 3: {err}\n") for _, line, err in _BAD_HECKE_LINES),
    ("FormParseError", "--coeffs", "weight 12 level 0 character trivial\n1 1\n",
     "input error: line 1: weight and level must be >= 1, got weight 12 level 0\n"),
    ("FormParseError", "--coeffs", "weight -2 level 11 character trivial\n1 1\n",
     "input error: line 1: weight and level must be >= 1, got weight -2 level 11\n"),
    *(("ConfigParseError", "--config", text, f"input error: config{err}\n")
      for _, text, err in _BAD_CONFIGS),
], ids=["FormParseError", "MultiplicativityError", "HeckeParseError",
        "HeckeParseError-chi-order", "FormParseError-non-finite",
        "HeckeParseError-chi-order-values", "HeckeParseError-inert-as-split",
        "HeckeParseError-ramified-as-inert", "HeckeParseError-zero-value",
        *(f"HeckeParseError-{name}" for name, _, _ in _BAD_HECKE_LINES),
        "FormParseError-level-0", "FormParseError-negative-weight",
        *(f"ConfigParseError-{name}" for name, _, _ in _BAD_CONFIGS)])
def test_parse_errors_are_symcube_input_errors(tmp_path, error, flag, text, err):
    """Each fault is a SymcubeInputError of its parser, and the command that
    reads the file exits 2 on it with that one stderr line."""
    import symcube
    from symcube import ingest
    path = tmp_path / "input.txt"
    path.write_text(text)
    parse, command = _READERS[flag]
    with pytest.raises(symcube.SymcubeInputError) as exc:
        getattr(ingest, parse)(str(path))
    assert type(exc.value) is getattr(ingest, error)
    assert isinstance(exc.value, ValueError)
    out = run_cold([*command, flag, str(path)])
    assert (out.returncode, out.stdout, out.stderr.decode()) == (2, b"", err)


# configs past the float range: the kernel weights overflow to NaN sums (scan,
# a set cutoff), or the analytic conductor of the default cutoff overflows (afe)
_OUT_OF_RANGE_CONFIGS = [
    ("scan-shift-300", ["scan", "--coeffs", "builtin:delta:4000"],
     "gamma_shifts = 300, 16.5\ncutoff = 4000\n",
     "input error: the smoothed sum at s = (0.55+0j) is not finite: the gamma shifts "
     "or the conductor are past the float range\n"),
    ("scan-conductor-1e250", ["scan", "--coeffs", "builtin:delta:4000"],
     f"gamma_shifts = 5.5, 16.5\nconductor = {10 ** 250}\ncutoff = 4000\n",
     "input error: the smoothed sum at s = (0.55+0j) is not finite: the gamma shifts "
     "or the conductor are past the float range\n"),
    ("afe-conductor-1e400", ["afe", "--coeffs", "builtin:delta:400"],
     f"gamma_shifts = 5.5, 16.5\nconductor = {10 ** 400}\ncutoff = 0\n",
     "input error: the analytic conductor at s = (0.5+0.5j) is past the float range\n"),
    ("afe-shift-1e200", ["afe", "--coeffs", "builtin:delta:400"],
     "gamma_shifts = 1e200, 16.5\ncutoff = 0\n",
     "input error: the analytic conductor at s = (0.5+0.5j) is past the float range\n"),
]


@pytest.mark.parametrize("command, text, err", [c[1:] for c in _OUT_OF_RANGE_CONFIGS],
                         ids=[c[0] for c in _OUT_OF_RANGE_CONFIGS])
def test_configs_past_the_float_range_are_input_errors(tmp_path, command, text, err):
    """No verdict on a NaN and no traceback: exit 2 with one stderr line."""
    path = tmp_path / "config.txt"
    path.write_text(text)
    out = run_cold([*command, "--config", str(path)])
    assert (out.returncode, out.stdout, out.stderr.decode()) == (2, b"", err)


_HUGE_A2 = f"weight 12 level 1 character trivial\n1 1\n2 {10 ** 400}\n"
_FLOAT_A2 = "weight 12 level 1 character trivial\n1 1\n2 1.5e300\n3 252\n"
_PAST_A2 = "input error: a_2 is beyond the float range\n"
_NOT_FINITE_A2 = "input error: a_2 is too large: its Satake parameters leave the float range\n"
_OFF_CIRCLE = "input error: line 2: value at p=13 is not on the unit circle (chi-order unknown)\n"
# (id, argv, the flag that reads the file and its text, or None, the one stderr line)
_OUT_OF_RANGE_INPUTS = [
    ("euler-s-minus-400", ["euler", "--coeffs", "builtin:delta:50", "--X", "10", "--s=-400"],
     None, "input error: p^(-s) or its local factor at p = 2, s = (-400+0j) is beyond the "
           "float range\n"),
    ("euler-s-minus-100", ["euler", "--coeffs", "builtin:delta:50", "--X", "30", "--s=-100"],
     None, "input error: p^(-s) or its local factor at p = 7, s = (-100+0j) is beyond the "
           "float range\n"),
    ("satake-a2-401-digits", ["satake"], ("--coeffs", _HUGE_A2), _PAST_A2),
    ("lfactor-a2-401-digits", ["lfactor", "--p", "2"], ("--coeffs", _HUGE_A2), _PAST_A2),
    ("euler-a2-401-digits", ["euler", "--X", "2"], ("--coeffs", _HUGE_A2), _PAST_A2),
    ("satake-a2-1.5e300", ["satake"], ("--coeffs", _FLOAT_A2), _NOT_FINITE_A2),
    ("euler-a2-1.5e300", ["euler", "--X", "3"], ("--coeffs", _FLOAT_A2), _NOT_FINITE_A2),
    *((f"monomial-check-unknown-{v}", ["monomial-check"],
       ("--hecke", f"field-disc -23 chi-order unknown\n13 split {v},0 {v},0\n"), _OFF_CIRCLE)
      for v in ("1e300", "1e100", "nan")),
    ("monomial-check-order-3-1e300", ["monomial-check"],
     ("--hecke", "field-disc -23 chi-order 3\n13 split 1e300,0 1,0\n"),
     "input error: line 2: value at p=13 is not an order-3 root of unity (chi-order 3)\n"),
]


@pytest.mark.parametrize("command, file, err", [c[1:] for c in _OUT_OF_RANGE_INPUTS],
                         ids=[c[0] for c in _OUT_OF_RANGE_INPUTS])
def test_inputs_past_the_float_range_are_input_errors(tmp_path, command, file, err):
    """A value past the float range gives no NaN verdict and no traceback:
    exit 2 with one stderr line."""
    if file:
        path = tmp_path / "input.txt"
        path.write_text(file[1])
        command = [*command, file[0], str(path)]
    out = run_cold(command)
    assert (out.returncode, out.stdout, out.stderr.decode()) == (2, b"", err)


def test_euler_at_a_negative_s_inside_the_float_range_still_prints_its_product():
    code, out = run_cli(["euler", "--coeffs", "builtin:delta:50", "--X", "10", "--s=-30"])
    assert code == 0 and "nan" not in out and "inf" not in out
    assert out.splitlines()[-1].split()[:2] == ["2", "10"]


# --- afe and scan on any finite flags, from a cold and a refilled cache ------

# any finite float, and one where the commands compute something
_ANY_FLOAT = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(-2.0, 13.0))
_ANY_POINT = st.builds(complex, _ANY_FLOAT, st.one_of(_ANY_FLOAT, st.just(0.0)))


def _complex_flag(z: complex) -> str:
    return f"{z.real!r}{z.imag:+}j"


_AFE_ARGV = st.builds(
    lambda points, fmt: ["afe", "--coeffs", "builtin:delta:4000", f"--format={fmt}",
                         *([f"--points={','.join(map(_complex_flag, points))}"]
                           if points else [])],
    st.lists(_ANY_POINT, max_size=4), st.sampled_from(["table", "json", "csv"]))
_SCAN_ARGV = st.builds(
    lambda a, b, grid, threshold, pole, fmt: [
        "scan", "--coeffs", "builtin:delta:4000", f"--a={a!r}", f"--b={b!r}",
        f"--grid={grid}", f"--threshold={threshold!r}", f"--format={fmt}",
        *([f"--inject-pole={pole[0]},{pole[1]!r}"] if pole else [])],
    _ANY_FLOAT, _ANY_FLOAT, st.integers(1, 20), _ANY_FLOAT,
    st.none() | st.tuples(st.integers(2, 50), _ANY_FLOAT),
    st.sampled_from(["table", "json", "csv"]))


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:     # argparse refusing a flag
            code = exc.code
    return code, out.getvalue()


@settings(max_examples=50, deadline=None)
@given(st.one_of(_AFE_ARGV, _SCAN_ARGV))
def test_afe_and_scan_exit_0_1_or_2_alike_from_a_cold_and_a_refilled_cache(argv):
    from symcube import analytic
    analytic._afe_block.cache_clear()
    cold = _run_in_process(argv)
    assert cold[0] in (0, 1, 2)
    # leave other blocks in the cache: those of a 5000-row table
    table = analytic.CoefficientTable(np.zeros(5001, dtype=np.complex128))
    table.values[1] = 1
    analytic.afe_values([3.0], analytic.delta_sym3_config(cutoff=5000), table)
    assert _run_in_process(argv) == cold


# --- identity --bound and intertwine --r over their whole ranges -------------

def _identity_draws(bound, samples, seed):
    """The classes `identity --bound --samples --seed` draws, in its order."""
    rng = random.Random(seed)
    log_bound = math.log(bound)

    def draw():
        mod = math.exp(rng.uniform(-log_bound, log_bound))
        return mod * cmath.exp(2j * math.pi * rng.random())
    return [SatakeClass(draw(), draw(), rng.choice([2, 3, 5, 7])) for _ in range(samples)]


def _has_finite_factors(c):
    """Every factor the suites expand at c has finite coefficients: each of
    c's own, the gj Rankin-Selberg product, and the standard and adjoint-cube
    factors of its central twist."""
    tw = twist(c, c.central_character())
    factors = [*(local_factor(tag, c) for tag in RepTag),
               rankin_selberg(c, eigenvalues(RepTag.GJ_ADJOINT, c)),
               local_factor(RepTag.STANDARD, tw), local_factor(RepTag.ADJOINT_CUBE, tw)]
    return all(cmath.isfinite(complex(x)) for f in factors for x in f.coeffs)


_BOUND = st.one_of(st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True),
                   st.floats(1e-14, 1e14))
_WIDE_FRACTION = st.one_of(
    st.fractions(0, Fraction(1, 2)),
    st.builds(Fraction, st.integers(-(10 ** 450), 10 ** 450), st.integers(1, 10 ** 450)))


@settings(max_examples=150, deadline=None)
@given(bound=_BOUND, samples=st.integers(1, 20), seed=st.integers(-10 ** 6, 10 ** 6),
       suite=st.sampled_from(["all", "triple", "twist", "gj"]))
# the triple factor's top coefficient is inf at 4 of the 5 classes: this read pass
@example(bound=1e150, samples=5, seed=1, suite="all")
# a parameter of the central twist underflows to 0: ZeroDivisionError, also
# below 1, where the draws are those of 1/bound
@example(bound=1e300, samples=5, seed=1, suite="all")
@example(bound=1e-300, samples=5, seed=1, suite="twist")
def test_identity_exits_0_only_where_every_drawn_factor_is_finite(bound, samples, seed, suite):
    code, _ = _run_in_process(["identity", f"--bound={bound!r}", f"--samples={samples}",
                               f"--seed={seed}", f"--suite={suite}"])
    assert code in (0, 1, 2)
    if code == 0:
        assert all(map(_has_finite_factors, _identity_draws(bound, samples, seed)))


@settings(max_examples=100, deadline=None)
@given(r=_WIDE_FRACTION, samples=st.integers(1, 20), seed=st.integers(-10 ** 6, 10 ** 6))
@example(r=Fraction(10 ** 400), samples=1, seed=7)   # OverflowError from float(r)
@example(r=Fraction(-1, 10 ** 400), samples=1, seed=7)  # float(r) is -0.0: exit 0
def test_intertwine_exits_0_1_or_2_over_wide_rationals(r, samples, seed):
    code, _ = _run_in_process(["intertwine", f"--r={r}", f"--samples={samples}",
                               f"--seed={seed}"])
    assert code in (0, 1, 2)
    assert (code == 2) == (not 0 <= r < Fraction(1, 2))


# --- header weights and levels, and --q, over wide integers -----------------

_DELTA_BODY = (REPO / "data" / "delta_coeffs_small.txt").read_text().split("\n", 1)[1]
_HEADER_INT = st.one_of(st.sampled_from([0, 1, 12]), st.integers(-3000, 3000))
_FILE_COMMAND = st.one_of(st.just(["satake"]),
                          st.builds(lambda p, tag: ["lfactor", "--p", str(p), "--tag", tag],
                                    st.sampled_from([2, 3, 97]),
                                    st.sampled_from(["sym3", "adjoint-cube"])))
_PRIME_POWER = st.builds(pow, st.sampled_from([2, 3, 5, 7, 101, 1000003]),
                         st.integers(1, 3000)).filter(lambda q: q <= 2 ** 3000)
_COMPOSITE = st.builds(lambda a, b: a * b, st.integers(2, 2 ** 1500), st.integers(2, 2 ** 1500))


@settings(max_examples=100, deadline=None)
@given(weight=_HEADER_INT, level=_HEADER_INT, command=_FILE_COMMAND,
       q=st.one_of(_PRIME_POWER, _COMPOSITE), grid=st.integers(1, 12))
@example(weight=12, level=1, command=["satake"], q=2 ** 1023, grid=12)
@example(weight=12, level=1, command=["satake"], q=3 ** 600, grid=12)
def test_wide_header_integers_and_q_exit_0_1_or_2_alike(tmp_path_factory, weight, level,
                                                        command, q, grid):
    """euler, afe and scan are left out: a file that lacks a prime they need
    still ends in MissingPrimeError."""
    path = tmp_path_factory.mktemp("header") / "form.txt"
    path.write_text(f"weight {weight} level {level} character trivial\n{_DELTA_BODY}")
    for argv in ([command[0], "--coeffs", str(path), *command[1:]],
                 ["intertwine", "--grid", str(grid), "--q", str(q)]):
        first = _run_in_process(argv)
        assert first[0] in (0, 1, 2)
        assert _run_in_process(argv) == first
