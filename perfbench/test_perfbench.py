"""Tests of the benchmark itself: small runs of every workload pass, every
oracle rejects a corrupted output, and the benchmark refuses to run without
the symcube sources."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (HERE, os.path.join(ROOT, "src")) if p not in sys.path]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import (MEASURED, WORKLOADS, AfeWorkload, EulerWorkload,  # noqa: E402
                       ExactWorkload, RankTwoWorkload)

from symcube import analytic, cli  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SYMCUBE_THREADS", raising=False)


def _cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_passes_and_counts_only_the_probes(name):
    workload = WORKLOADS[name](seed=3, small=True)
    T = tracing.Tracer()
    log = io.StringIO()
    res = run.run(workload, T, 0, run.cli_env(), log=log)
    assert res["correct"], log.getvalue()
    assert res["failed"] == len(workload.probes)
    assert res["attempted"] == T.ops > res["failed"]
    metrics = run.metrics_traced(res, T, workload.cli_sets)
    assert list(metrics) == run.PER_LAYER
    for cmd, _ in workload.cli if name in MEASURED else ():
        assert metrics[f"cli.{cmd}_s"]["value"] > 0


def test_untraced_pass_makes_the_same_calls_as_traced():
    workload = RankTwoWorkload(seed=5, small=True)
    plain, traced = tracing.NullTracer(), tracing.Tracer()
    workload.verify(plain)
    workload.verify(traced)
    assert plain.ops == traced.ops == len(traced)
    _, counts = traced.medians()
    assert counts["intertwining.region_points"] == 2 * workload.n ** 2


def test_clock_scales_by_the_reference_runs_near_the_work(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW_S", 1.0)
    clock = speed.Clock()
    n = speed.NOMINAL_S
    clock.points = [(0.0, 1, 2 * n), (3.0, 2, 4 * n), (4.5, 1, 4 * n), (100.0, 1, 50 * n)]
    # work from t = 1 to t = 4 s, 3 s of it outside calibration points; the point
    # at t = 100 is outside the window, so one loop takes 10/4 of nominal
    assert clock.scaled((10.0, 1.0), (13.0, 4.0)) == pytest.approx((3.0, 3.0 * 4 / 10))


def test_untraced_pass_cuts_calibration_points(monkeypatch):
    monkeypatch.setattr(speed, "SLICE_S", 0.0)
    clock = speed.Clock()
    start = clock.lap()
    T = tracing.NullTracer(clock)
    EulerWorkload(seed=1, small=True).verify(T)
    raw, scaled = clock.scaled(start, clock.lap())
    assert len(clock.points) == T.ops + 3   # the first run, two laps, one per call
    assert raw > 0.0 and scaled > 0.0


def test_self_time_subtracts_children():
    T = tracing.Tracer()
    spans = [(-1, "verify", 0.0, 10.0), (0, "a_s", 1.0, 4.0), (0, "a_s", 5.0, 6.0),
             (2, "b_s", 5.2, 5.7)]
    for parent, layer, t0, t1 in spans:
        for col, v in zip(T.COLUMNS, (parent, 1, T.layers.setdefault(layer, len(T.layers)),
                                      0, int(t0 * 1e9), int(t1 * 1e9))):
            T.cols[col].append(v)
    times = T.layer_self_times()[1]
    assert times["verify"] == pytest.approx(6.0)
    assert times["a_s"] == pytest.approx(3.5)
    assert times["b_s"] == pytest.approx(0.5)


def test_same_seed_same_inputs():
    a, b, c = (RankTwoWorkload(seed=s, small=True) for s in (9, 9, 10))
    assert a.params == b.params and a.pole_rs == b.pole_rs
    assert a.params != c.params


# --- each oracle rejects a corrupted output ---------------------------------

def test_euler_oracles_reject_tau_off_by_one():
    w = EulerWorkload(seed=1, small=True)
    rec = w.record(w.verify(tracing.NullTracer()))
    csv_text = _cli_stdout(w.cli[0][1])
    assert w.check(rec, {"euler": csv_text}) == []
    assert oracles.check_tau_mod_691([r + (n == 6) for n, r in enumerate(rec["residues"])])
    bad = {**rec["tau_p"], 7: rec["tau_p"][7] + 1}
    assert oracles.check_tau_primes(bad, rec["tau_p2"], w.N)
    s, euler, series = rec["values"][0]
    assert oracles.close("L", euler, oracles.sym3_euler_product(bad, s, w.N), 1e-9)
    assert oracles.check_tau_primes({**rec["tau_p"], 2: 10 ** 6}, rec["tau_p2"], w.N)
    lines = csv_text.splitlines()
    last = lines[-1].split(",")
    last[2] = repr(float(last[2]) * (1 + 1e-5))
    assert w.check(rec, {"euler": "\n".join(lines[:-1] + [",".join(last)])})


def test_afe_oracles_reject_shift_off_by_one_and_missed_poles():
    w = AfeWorkload(seed=1, small=True)
    out = w.verify(tracing.NullTracer())
    rec = w.record(out)
    shipped, perturbed = rec["estimates"]
    assert oracles.check_root_numbers("ok", shipped) == []
    assert oracles.check_constancy_broken("ok", perturbed) == []
    bad_cfg = dataclasses.replace(out["cfg"], gamma_shifts=(5.5, 17.5))
    wrong = analytic.epsilon_probe(w.POINTS, bad_cfg, out["coeffs"]).estimates
    assert oracles.check_root_numbers("shift off by one", wrong)
    assert oracles.check_constancy_broken("shipped", shipped)
    (g0, n0, th), (g1, n1, _) = rec["scans"]
    assert oracles.check_scan("plain", g0, n0, th, pole=0.75)
    assert oracles.check_scan("injected", g1, n1, th)
    s, v = rec["values"][1]
    assert oracles.check_afe_value(v, s, rec["tau_p"], w.N) == []
    assert oracles.check_afe_value(v * (1 + 1e-8), s, rec["tau_p"], w.N)
    obj = {"estimates": [[-1.0, 0.0]] * 2 + [[-0.99, 0.0]], "verdict": "pass"}
    assert oracles.check_afe_json(json.dumps(obj), 3)


def test_exact_oracles_reject_inexact_or_wrong_values():
    w = ExactWorkload(seed=1, small=True)
    rec = w.record(w.verify(tracing.NullTracer()))
    assert oracles.check_exact_zero("x", rec["exact"]["triple"]) == []
    assert oracles.check_exact_zero("x", rec["exact"]["triple"][:-1] + [1e-17])
    assert oracles.check_exact_zero("x", [0])
    a, b, coeffs = rec["sym3"][0]
    assert oracles.check_sym3_poly("ok", a, b, coeffs) == []
    assert oracles.check_sym3_poly("corrupt", a, b, coeffs[:-1] + [coeffs[-1] + 1])
    p, g2, ok = rec["gauss"][0]
    assert oracles.check_gauss(p, g2, ok) == []
    assert oracles.check_gauss(p, -g2, ok)
    assert oracles.check_gauss(p, g2, False)
    n, c, ok = rec["ramanujan"][5]
    assert oracles.check_ramanujan(n, c, ok) == []
    assert oracles.check_ramanujan(n, c + 1, ok)
    assert oracles.check_pole_criterion({3: "entire"})
    table = _cli_stdout(["identity", "--suite", "all", "--samples", "20", "--seed", "7"])
    assert oracles.check_identity_table(table, 20) == []
    assert oracles.check_identity_table(table.replace("pass", "FAIL", 1), 20)
    mono = _cli_stdout(["monomial-check", "--hecke", "data/hecke_q_sqrt_minus23.txt"])
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 29, 31, 41, 59]
    assert oracles.check_monomial_table(mono, primes, 3) == []
    assert oracles.check_monomial_table(mono.replace("has-pole-at-0-and-1", "entire"), primes, 3)


def test_rank_two_oracles_reject_a_flipped_class():
    w = RankTwoWorkload(seed=1, small=True)
    rec = w.record(w.verify(tracing.NullTracer()))
    text = _cli_stdout(["region", "--grid", "20", "--format", "csv"])
    assert oracles.check_region_csv(text, 20) == []
    flipped = text.replace("lower-triangle", "outside", 1)
    assert oracles.check_region_csv(flipped, 20)
    classes, forbidden = rec["regions"]["trivial"]
    k = classes.index("upper-triangle")
    assert oracles.check_region("g", w.n, "trivial", classes, forbidden) == []
    assert oracles.check_region("g", w.n, "trivial", classes[:k] + ["outside"] + classes[k + 1:],
                                forbidden)
    assert oracles.check_region("g", w.n, "trivial", classes,
                                forbidden[:k] + [True] + forbidden[k + 1:])
    g, l = rec["gk"][0]
    p = w.params[0]
    assert oracles.check_gk([(p.mu, p.q, p.r, p.s)], [(g, l)]) == []
    assert oracles.check_gk([(p.mu, p.q, p.r, p.s)], [(g * (1 + 1e-8), l * (1 + 1e-8))])
    o, r, a, b = rec["poles"][0]
    assert oracles.check_pole_sets([(o, r, a - {0}, b)])
    assert oracles.check_weyl(11, rec["inverted_sizes"])
    assert oracles.check_pairings(dict(rec["at_point"], beta6=rec["at_point"]["beta6"] + 1),
                                  w.point)
    table = _cli_stdout(["intertwine", "--samples", "10", "--r", "1/10"])
    assert oracles.check_intertwine_table(table, 10, oracles.Fraction(1, 10)) == []
    assert oracles.check_intertwine_table(table.replace("{0}", "{}"), 10, oracles.Fraction(1, 10))


# --- the benchmark's contract -----------------------------------------------

def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(MEASURED)
    assert set(MEASURED) <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rank-two",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
