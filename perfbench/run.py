#!/usr/bin/env python3
"""Benchmark of the ccsim simulator: host time to simulate fixed workloads.

Run from the root of a ccsim source checkout:

    python3 perfbench/run.py --workload exp1_2pl_t0 --seed 42 --seconds 25 --trace 0

Steps:
  1. build perfbench/ccbench and libccsim (Release) into .bench_build/cmake;
  2. refuse a build without optimisation, with CCSIM_AUDIT or a sanitizer;
  3. run the workload once at the default seed and short window, and check
     its digests against perfbench/expected_digests.json (the canary);
  4. run repetitions of the workload, each a fresh ccbench process followed
     by one pass of the ccref host-speed reference, until --seconds have
     passed; check every point's digest (against the recorded ones at the
     default seed, against the first repetition otherwise);
  5. print one line per metric, then, last, one JSON object with the keys
     correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of untraced repetitions. --trace 1
alternates untraced and traced repetitions, reports the per-layer metrics
and writes the spans to .bench_build/traces/. Attempted and failed count
simulation points; a point fails on a digest mismatch, a crash, a watchdog
trip or a timeout. Workload and metric names, units and directions come from
BENCHMARK.json; spec.json adds what each workload runs and each metric means.

After a change that is meant to alter the simulated output, refresh the
expected digests with --record.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
BINARY = BUILD / "ccbench"
REFERENCE = BUILD / "ccref"
SPEC = json.loads((BENCH / "spec.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m for kind in ("end_to_end", "per_layer")
           for m in BENCHMARK[kind]}
EXPECTED_FILE = BENCH / "expected_digests.json"
SCRATCH = OUT / "scratch" / str(os.getpid())  # ccbench's result caches

REP_TIMEOUT_S = 60      # one repetition; a hung simulation fails its points
RUN_LIMIT_S = 140       # no repetition starts after this, so a run ends < 180 s
# End-to-end times are in reference seconds: host seconds scaled by
# REFERENCE_NOMINAL_S / (ccref's time around the repetition). ccref takes
# about this long on the 4-vCPU 2.1 GHz Xeon the benchmark was defined on.
REFERENCE_NOMINAL_S = 0.1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


# --- build -----------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no ccsim sources in {ROOT / 'src'}; run from a ccsim checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ccbench",
                  "ccref", "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            log((p.stdout + p.stderr)[-4000:])
            die("build failed: " + " ".join(cmd))
    p = subprocess.run([str(BINARY), "--build-info"], capture_output=True,
                       text=True, env=child_env())
    if p.returncode != 0:
        die("ccbench --build-info failed")
    return json.loads(p.stdout)


def build_problems(info):
    """Reasons to refuse numbers from this build (empty when it is fit)."""
    problems = []
    if not info.get("optimized"):
        problems.append("built without optimisation")
    if info.get("audit"):
        problems.append("built with CCSIM_AUDIT=1")
    if info.get("sanitizer"):
        problems.append(f"built with sanitizer '{info['sanitizer']}'")
    return problems


def host_fingerprint(info):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "compiler": info.get("compiler"),
            "build_type": info.get("build_type"),
            "commit": commit(), "src_sha256": source_digest()}


def commit():
    """The checkout's git commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()[:12]
        return head[:12]
    except OSError:
        return "none"


def source_digest():
    """Identifies the library sources when the checkout has no .git."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:12]


# --- repetitions -----------------------------------------------------------

def child_env():
    # CCSIM_* variables change run windows, cache paths and allocation.
    return {k: v for k, v in os.environ.items() if not k.startswith("CCSIM_")}


def run_rep(workload, seed, window, trace, watchdog=0):
    """Runs one repetition; returns (result, None) or (None, reason)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--window", window, "--trace", str(int(trace)),
           "--scratch", str(SCRATCH)]
    if watchdog:
        cmd += ["--watchdog-events", str(watchdog)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=REP_TIMEOUT_S, env=child_env())
    except subprocess.TimeoutExpired:
        return None, f"timed out after {REP_TIMEOUT_S} s"
    if p.returncode != 0:
        last = (p.stderr.strip().splitlines() or [""])[-1]
        return None, f"exit code {p.returncode}: {last}"
    try:
        return json.loads(p.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "no result line"


class Ledger:
    """Counts points attempted and failed, and checks their digests."""

    def __init__(self, names):
        self.names = names
        self.attempted = 0
        self.failed = 0

    def check(self, rep, reference, label):
        """Counts one repetition's points; True when every one passed."""
        self.attempted += len(self.names)
        if rep is None:
            self.failed += len(self.names)
            return False
        got = {p["name"]: p["digest"] for p in rep["points"]}
        bad = {n for n in self.names if n not in got}
        # The warm (cached) and sampled copies of a point must agree with it.
        for key in ("warm_points", "sampled_points"):
            for p in rep.get(key, []):
                if got.get(p["name"]) != p["digest"]:
                    bad.add(p["name"])
        if reference is not None:
            bad |= {n for n in self.names if reference.get(n) != got.get(n)}
        for n in sorted(bad):
            log(f"perfbench: {label}: point {n} digest {got.get(n)} "
                f"!= expected {None if reference is None else reference.get(n)}")
        self.failed += len(bad)
        return not bad


def digests(rep):
    return {p["name"]: p["digest"] for p in rep["points"]}


def run_reference():
    """Host seconds of one ccref kernel pass."""
    p = subprocess.run([str(REFERENCE)], capture_output=True, text=True,
                       timeout=REP_TIMEOUT_S)
    if p.returncode != 0:
        die(f"ccref failed with exit code {p.returncode}")
    return float(p.stdout.split()[0])


def measure(args, ledger, reference):
    """Repetitions until --seconds pass; returns (untraced, traced) lists.

    ccref runs between repetitions; each kept repetition records the mean
    of the kernel times before and after it as ref_s."""
    untraced, traced = [], []
    start = time.monotonic()
    k = 0
    ref_before = run_reference()
    while True:
        for trace in ((False, True) if args.trace else (False,)):
            t0 = time.monotonic()
            rep, err = run_rep(args.workload, args.seed, args.window, trace)
            last = time.monotonic() - t0
            ref_after = run_reference()
            if err:
                log(f"perfbench: repetition {k} (trace {int(trace)}): {err}")
            ok = ledger.check(rep, reference, f"repetition {k}")
            if ok:
                if reference is None:
                    reference = digests(rep)
                rep["ref_s"] = (ref_before + ref_after) / 2
                (traced if trace else untraced).append(rep)
            ref_before = ref_after
        k += 1
        elapsed = time.monotonic() - start
        if elapsed >= args.seconds or elapsed + 2 * last > RUN_LIMIT_S:
            return untraced, traced


# --- metrics -----------------------------------------------------------------

def scale(rep):
    """Converts the repetition's host seconds to reference seconds."""
    return REFERENCE_NOMINAL_S / rep["ref_s"]


def end_to_end(reps):
    return {
        "wall_s": median([r["wall_s"] * scale(r) for r in reps]),
        "sim_commits_per_host_s": median(
            [r["commits"] / (r["run_s"] * scale(r)) for r in reps]),
        "setup_s": median([x * scale(r) for r in reps
                           for x in r["setup_probes_s"]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
    }


def experiments_layer(rep):
    runner = rep["runner"]
    walls = [p["wall_seconds"] for p in rep["points"]]
    return {
        "experiments.makespan_s": runner["makespan_s"],
        "experiments.point_wall_sum_s": sum(walls),
        "experiments.point_wall_max_s": max(walls),
        "experiments.parallel_efficiency":
            sum(walls) / (runner["makespan_s"] * runner["workers"]),
        "experiments.simulations_run": runner["simulations_run"],
    }


def per_layer(traced, untraced):
    rows = [{**r["layers"], **experiments_layer(r)} for r in traced]
    out = {name: median([row[name] for row in rows]) for name in rows[0]}
    out["trace.overhead_frac"] = (
        median([r["wall_s"] * scale(r) for r in traced]) /
        median([r["wall_s"] * scale(r) for r in untraced]) - 1.0)
    return out


def bases(m, reps, traced):
    """The base of every ratio metric of `m`, as printed next to it."""
    r = reps[0]
    ref = (f"x {REFERENCE_NOMINAL_S} s / median ccref "
           f"{median([x['ref_s'] for x in reps]):.4f} s")
    b = {"wall_s": f"median host {median([x['wall_s'] for x in reps]):.4f} s "
                   f"{ref}",
         "sim_commits_per_host_s":
         f"{r['commits']} commits / median Run() "
         f"{median([x['run_s'] for x in reps]):.4f} host s {ref}",
         "setup_s": "median host "
                    f"{median([y for x in reps for y in x['setup_probes_s']]):.6f}"
                    f" s {ref}"}
    if traced:
        t = traced[0]["bases"]
        b.update({
            "engine.host_ns_per_event":
                f"{m['engine.run_s']:.4f} s / {m['sim.events']:.0f} events",
            "engine.host_s_per_sim_s.warmup":
                f"{t['warmup_host_s']:.4f} host s / {t['warmup_sim_s']:.2f} sim s",
            "engine.host_s_per_sim_s.measure":
                f"{t['measure_host_s']:.4f} host s / {t['measure_sim_s']:.2f} sim s",
            "net.messages_per_commit":
                f"measured-window messages / {m['txn.commits']:.0f} commits",
            "txn.useful_ratio":
                f"{m['txn.commits']:.0f} commits / "
                f"{m['txn.commits'] + m['txn.aborts']:.0f} attempts",
            "experiments.parallel_efficiency":
                f"{m['experiments.point_wall_sum_s']:.4f} s / "
                f"({m['experiments.makespan_s']:.4f} s x "
                f"{traced[0]['runner']['workers']} workers)",
            "trace.overhead_frac":
                f"untraced wall_s {median([x['wall_s'] for x in reps]):.4f} s",
        })
        for name in ("sim.calendar_depth_mean", "sim.suspended_mean",
                     "resource.msg_queue_mean", "resource.disk_queue_mean",
                     "cc.locked_pages_mean", "cc.lock_waiters_mean",
                     "txn.live_mean"):
            b[name] = f"{t['samples']:.0f} samples"
        for name in ("resource.host_cpu_util", "resource.disk_util"):
            b[name] = f"busy / measured sim s, mean of {t['points']:.0f} points"
    return b


def print_metrics(metrics, base, count):
    for name, value in metrics.items():
        m = METRICS[name]
        line = (f"metric {name:34s} {value:.6g} {m['unit']} "
                f"({m['better']} is better; median of {count})")
        if name in base:
            line += f" [base: {base[name]}]"
        print(line)


def write_spans(args, traced):
    """Writes the traced repetitions' spans; prints self time per span name."""
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for i, rep in enumerate(traced):
            for s in rep["spans"]:
                f.write(json.dumps({"rep": i, **s}) + "\n")
    spans = traced[0]["spans"]
    total, child = {}, {}
    for s in spans:
        d = s["end_s"] - s["start_s"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        if s["parent"] != "":
            parent = spans[s["parent"]]["name"]
            child[parent] = child.get(parent, 0.0) + d
    for name, t in total.items():
        print(f"span {name:36s} total {t:.6f} s self {t - child.get(name, 0.0):.6f} s")
    print(f"spans written to {path.relative_to(ROOT)}")


# --- main ----------------------------------------------------------------------

def record():
    """Rewrites expected_digests.json from the default seed."""
    seed = SPEC["default_seed"]
    out = {"seed": seed, "full": {}, "short": {}}
    for window in ("full", "short"):
        for w in WORKLOADS:
            plain, err = run_rep(w, seed, window, False)
            sampled, err2 = run_rep(w, seed, window, True)
            if err or err2:
                die(f"record {w}/{window}: {err or err2}")
            ledger = Ledger(sorted(digests(plain)))
            if not (ledger.check(plain, None, "record") and
                    ledger.check(sampled, digests(plain), "record traced")):
                die(f"record {w}/{window}: traced and untraced digests differ")
            out[window][w] = digests(plain)
    EXPECTED_FILE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_FILE.relative_to(ROOT)}")


def result_line(correct, ledger, metrics):
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=SPEC["default_seed"])
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--window", choices=("full", "short"), default="full",
                    help="simulated window of each point (short: self-test)")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the expected digests and exit")
    args = ap.parse_args()

    info = build()
    if args.record:
        record()
        return 0
    if not args.workload:
        die("--workload is required")

    expected = json.loads(EXPECTED_FILE.read_text())
    names = sorted(expected["short"][args.workload])
    ledger = Ledger(names)
    print("host " + json.dumps(host_fingerprint(info), sort_keys=True))
    w = SPEC["workloads"][args.workload]
    print(f"workload {args.workload}: {w['points']}; {SPEC['shape']}; "
          f"{w['workers']} worker(s); seed {args.seed} "
          f"(default {SPEC['default_seed']})")

    problems = build_problems(info)
    if problems:
        log("perfbench: refusing to report numbers: " + "; ".join(problems))
        ledger.check(None, None, "build")
        result_line(False, ledger, {})
        return 1

    canary, err = run_rep(args.workload, expected["seed"], "short", False)
    if err:
        log(f"perfbench: canary: {err}")
    ledger.check(canary, expected["short"][args.workload], "canary")

    reference = None
    if args.seed == expected["seed"]:
        reference = expected[args.window][args.workload]
    untraced, traced = measure(args, ledger, reference)

    for rep in (untraced or traced)[:1]:
        for name, digest in sorted(digests(rep).items()):
            print(f"digest {args.workload} {name} seed={args.seed} "
                  f"window={args.window} {digest}")
    print(f"metric {'failed_frac':34s} {ledger.failed / ledger.attempted:.6g} "
          f"fraction (lower is better) [base: {ledger.failed} failed of "
          f"{ledger.attempted} points attempted, canary included]")

    if not untraced or (args.trace and not traced):
        log("perfbench: no repetition passed")
        result_line(False, ledger, {})
        return 0
    e2e = end_to_end(untraced)
    metrics = e2e
    if args.trace:
        metrics = per_layer(traced, untraced)
        print_metrics(e2e, bases(e2e, untraced, []), len(untraced))
        print_metrics(metrics, bases(metrics, untraced, traced), len(traced))
        write_spans(args, traced)
    else:
        print_metrics(e2e, bases(e2e, untraced, []), len(untraced))

    result_line(ledger.failed == 0,
                ledger,
                {name: {"value": value, "unit": METRICS[name]["unit"]}
                 for name, value in metrics.items()})
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
