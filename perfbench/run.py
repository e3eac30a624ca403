"""Benchmark of symcube's four verification surfaces.

    python3 perfbench/run.py --workload afe-8k --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload until --seconds have passed.  A round is
one in-process verification pass through the public API, then the
workload's README CLI commands, each as a cold ``python -m symcube.cli``
process (the whole set ``cli_sets`` times), then its exit-code probes.
After the last round the oracles check the first round's outputs, and the
last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
verify_s and cli_s are scaled to a nominal machine speed by a reference loop
timed between pieces of work (speed.py); the raw wall times go to stderr.
The per-layer times are raw span times.  The run and its CLI children
stay on one CPU (pin_to_one_cpu).  A traced run
also writes every span to perfbench/results/trace-<workload>.npz, replacing
the workload's previous trace.  No threads are used and
SYMCUBE_THREADS is removed from every environment.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
CLI_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "verify_s": "s", "cli_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = [
    "ingest.qexp_s", "ingest.qexp_terms", "ingest.parse_s",
    "satake.table_s", "satake.classes",
    "localfactor.sym3_s", "localfactor.factors",
    "localfactor.float_identity_s", "localfactor.float_checks",
    "localfactor.exact_identity_s", "localfactor.exact_checks",
    "cyclo.identity_s", "cyclo.identities",
    "monomial.check_s", "monomial.checks",
    "g2root.s", "g2root.ops",
    "intertwining.gk_s", "intertwining.gk_points", "intertwining.gk_poles",
    "intertwining.region_s", "intertwining.region_points",
    "analytic.coeffs_s", "analytic.euler_s", "analytic.series_s",
    "analytic.afe_s", "analytic.afe_evals", "analytic.afe_terms",
    "cli.afe_s", "cli.scan_s", "cli.identity_s",
    "cli.monomial-check_s", "cli.region_s", "cli.intertwine_s",
    "trace.verify_s", "trace.glue_s", "trace.spans",
]


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") or metric.endswith(".s") else "count"


def cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SYMCUBE_THREADS"}
    inherited = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join([SRC] + inherited)
    return env


def run_cli(argv, env):
    """One cold `python -m symcube.cli` process: (exit code, stdout, stderr, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "symcube.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def pin_to_one_cpu():
    """Keep this process and every CLI child it starts on one CPU.

    The host's CPUs drift in speed separately, so a calibration point tells
    the speed of a CLI child only if both ran on the same CPU.  Best effort:
    where affinity cannot be set, the run goes on unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def measure_setup(env):
    """Wall times of SETUP_REPEATS fresh interpreters running `import symcube`.

    One unmeasured import first writes the bytecode caches, which users pay
    once, not on every call.  These times are not scaled: start-up is mostly
    file reads, page faults and unmarshalling, which the reference loop of
    speed.py does not follow.
    """
    cmd = [sys.executable, "-c", "import symcube"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=60)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def run_round(workload, T, env, log, clock):
    """One round: (verify marks, record, CLI stdout, [CLI set marks], failed, consistent)."""
    with T.span("round"):
        start = clock.lap()
        with T.span("verify"):
            out = workload.verify(T)
        verify = (start, clock.lap())
        rec = workload.record(out)
        del out
        stdout, sets, failed, consistent = {}, [], 0, True
        for _ in range(workload.cli_sets):
            start = clock.lap()
            for name, argv in workload.cli:
                rc, so, se, _ = T.call(f"cli.{name}_s", run_cli, argv, env)
                end = clock.lap()
                if rc != 0:
                    failed += 1
                    print(f"cli {name} exited {rc}: {se.strip()[-300:]}", file=log)
                if stdout.setdefault(name, so) != so:
                    print(f"cli {name} printed different bytes for the same flags", file=log)
                    consistent = False
            sets.append((start, end))
        for name, argv in workload.probes:
            rc, so, se, dt = T.call(f"probe.{name}", run_cli, argv, env)
            if rc != 2 or "Traceback" in se:
                failed += 1
    return verify, rec, stdout, sets, failed, consistent


def run(workload, T, seconds, env, log=sys.stderr, clock=None):
    """Whole rounds until `seconds` have passed; returns the run's result dict.

    `clock` (a speed.Clock; a new one if None) cuts calibration points around
    every verification pass and CLI command, and inside a pass wherever `T`
    lets it.  "verify" and "cli" hold (raw, scaled) seconds of each pass and
    each CLI set.
    """
    clock = clock if clock is not None else speed.Clock(workload.reference)
    verify, cli_sets, first = [], [], None
    failed, correct = 0, True
    t_start = time.perf_counter()
    while True:
        T.round += 1
        try:
            verify_s, rec, stdout, sets, n_failed, consistent = run_round(workload, T, env, log,
                                                                          clock)
        except Exception:
            traceback.print_exc(file=log)
            failed, correct = failed + 1, False
            break
        verify.append(verify_s)
        cli_sets += sets
        failed += n_failed
        correct = correct and consistent
        if first is None:
            # later rounds run beside the kept record, so their peak depends
            # on how many rounds fit; the first round's peak does not
            rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            first = (rec, stdout)
        elif (rec, stdout) != first:
            print("outputs differ between rounds of the same inputs", file=log)
            correct = False
        if time.perf_counter() - t_start >= seconds:
            break
    if first is None:
        raise RuntimeError(f"no round of {workload.name} completed")
    try:
        problems = workload.check(*first)
    except Exception as exc:  # an output the oracles cannot even parse
        traceback.print_exc(file=log)
        problems = [f"oracle could not read the outputs: {exc!r}"]
    for p in problems:
        print(f"oracle: {p}", file=log)
    return {"correct": correct and not problems, "attempted": T.ops, "failed": failed,
            "verify": [clock.scaled(*m) for m in verify],
            "cli": [clock.scaled(*m) for m in cli_sets], "rss_mib": rss_kib / 1024.0}


def metrics_untraced(res, setup_s):
    """End-to-end metrics; verify_s and cli_s are scaled times (see speed.py)."""
    values = {"setup_s": setup_s, "verify_s": statistics.median(s for _, s in res["verify"]),
              "cli_s": statistics.median(s for _, s in res["cli"]),
              "peak_rss_mib": res["rss_mib"]}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def metrics_traced(res, T, cli_sets):
    times, counts = T.medians()
    values = {m: 0.0 if unit_of(m) == "s" else 0 for m in PER_LAYER}
    values.update({k: v / cli_sets if k.startswith("cli.") else v
                   for k, v in times.items() if k in values})
    values.update({k: v for k, v in counts.items() if k in values})
    values["trace.verify_s"] = statistics.median(r for r, _ in res["verify"])
    values["trace.glue_s"] = times.get("verify", 0.0)
    values["trace.spans"] = statistics.median(T.spans_per_round().values())
    return {k: {"value": values[k], "unit": unit_of(k)} for k in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "symcube", "__init__.py")):
        print(f"symcube sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SYMCUBE_THREADS", None)
    import symcube
    if not os.path.abspath(symcube.__file__).startswith(SRC + os.sep):
        print(f"symcube imported from {symcube.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    pin_to_one_cpu()
    env = cli_env()
    workload = WORKLOADS[args.workload](args.seed)
    setup = None if args.trace else measure_setup(env)
    clock = speed.Clock(workload.reference)
    T = tracing.Tracer() if args.trace else tracing.NullTracer(clock)
    res = run(workload, T, args.seconds, env, clock=clock)
    if args.trace:
        metrics = metrics_traced(res, T, workload.cli_sets)
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(RESULTS, f"trace-{args.workload}.npz")
        T.write(path, workload=args.workload, seed=args.seed)
        print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    else:
        metrics = metrics_untraced(res, statistics.median(setup))
        print("setup_s " + " ".join(f"{x:.4f}" for x in setup), file=sys.stderr)
    for key in ("verify", "cli"):
        print(f"{key}_s raw/scaled " + " ".join(f"{r:.4f}/{s:.4f}" for r, s in res[key]),
              file=sys.stderr)
    refs = [s / n for _, n, s in clock.points]
    print(f"reference loop: median {statistics.median(refs):.5f} s over {len(refs)} points "
          f"(nominal {speed.NOMINAL_S} s)", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
