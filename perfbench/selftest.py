#!/usr/bin/env python3
"""Self-test of the benchmark, at the short simulated window (~30 s).

Run from the root of a ccsim checkout:

    python3 perfbench/selftest.py

It checks that
  * on every workload, every end-to-end and per-layer metric of
    BENCHMARK.json prints with its unit, and the traced repetitions' digests
    equal the untraced ones;
  * a deliberately altered expected digest is reported as a failure;
  * a repetition that trips the watchdog counts its points as failed and
    the run still reports the other repetitions;
  * the build guard refuses unoptimised, audit and sanitizer builds.
Exits 0 when every check passes.
"""

import contextlib
import importlib.util
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WATCHDOG_EVENTS = 1000  # far below the events of any workload's point

_spec = importlib.util.spec_from_file_location("perfbench_run",
                                               BENCH / "run.py")
runner = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runner)

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError):
        return None


def run(*args):
    """Runs the benchmark command as the benchmark harness would."""
    p = subprocess.run([sys.executable, str(BENCH / "run.py"), "--window",
                        "short", "--seconds", "1", *args],
                       capture_output=True, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, last_json(lines)


def run_main(*args):
    """Runs run.main() in this process, so a test can patch the module."""
    out = io.StringIO()
    argv = sys.argv
    sys.argv = ["run.py", "--window", "short", "--seconds", "1", *args]
    try:
        with contextlib.redirect_stdout(out):
            code = runner.main()
    finally:
        sys.argv = argv
    return code, last_json(out.getvalue().strip().splitlines())


def metric_names(kind):
    return {m["name"] for m in runner.BENCHMARK[kind]}


def check_workload(workload, trace):
    kind = "per_layer" if trace else "end_to_end"
    code, lines, result = run("--workload", workload, "--trace", str(trace))
    label = f"{workload} --trace {trace}"
    if result is None:
        check(False, f"{label}: prints a result line")
        return
    check(code == 0 and result["correct"] and result["failed"] == 0,
          f"{label}: correct, no failed point (traced digests = untraced)")
    metrics = result["metrics"]
    check(set(metrics) == metric_names(kind), f"{label}: every {kind} metric")
    check(all(m["unit"] == runner.METRICS[n]["unit"]
              for n, m in metrics.items()), f"{label}: units as listed")
    printed = {line.split()[1]: line.split()[3]
               for line in lines if line.startswith("metric ")}
    units = {n: runner.METRICS[n]["unit"]
             for n in metric_names(kind) | metric_names("end_to_end")}
    units["failed_frac"] = "fraction"
    check(all(printed.get(n) == u for n, u in units.items()),
          f"{label}: every metric printed with its unit")


def check_altered_digest():
    expected = json.loads(runner.EXPECTED_FILE.read_text())
    points = expected["short"]["exp1_2pl_t0"]
    name = sorted(points)[0]
    points[name] = format(int(points[name], 16) ^ 1, "016x")
    path = runner.OUT / "selftest" / "altered_digests.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(expected))
    real = runner.EXPECTED_FILE
    runner.EXPECTED_FILE = path
    try:
        _, result = run_main("--workload", "exp1_2pl_t0",
                             "--seed", str(expected["seed"]))
    finally:
        runner.EXPECTED_FILE = real
    check(result is not None and not result["correct"]
          and result["failed"] == result["attempted"] > 0,
          "altered expected digest: every point reported failed")


def check_watchdog():
    # The first call is the canary; the second, the first measured
    # repetition, gets a watchdog limit it must trip.
    real = runner.run_rep
    calls = []

    def tripping_run_rep(workload, seed, window, trace, watchdog=0):
        calls.append(trace)
        if len(calls) == 2:
            watchdog = WATCHDOG_EVENTS
        return real(workload, seed, window, trace, watchdog)

    runner.run_rep = tripping_run_rep
    try:
        code, result = run_main("--workload", "exp1_2pl_t0", "--seed", "3")
    finally:
        runner.run_rep = real
    check(result is not None and code == 0 and not result["correct"]
          and result["failed"] == 1 and result["attempted"] > 2
          and set(result["metrics"]) == metric_names("end_to_end"),
          "watchdog trip: one failed point, the run goes on and reports")


def check_build_guard():
    fit = {"optimized": True, "audit": False, "sanitizer": ""}
    check(runner.build_problems(fit) == [], "build guard accepts Release")
    for bad in ({"optimized": False}, {"audit": True},
                {"sanitizer": "address"}):
        check(len(runner.build_problems({**fit, **bad})) == 1,
              f"build guard refuses {bad}")


def main():
    check_build_guard()
    for workload in runner.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    try:
        check_altered_digest()
        check_watchdog()
    finally:
        shutil.rmtree(runner.SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
