"""ccsim-analyze: cross-file semantic static analysis for the simulator.

Usage:
    python3 tools/ccsim_analyze                    # analyze the tree
    python3 tools/ccsim_analyze --self-test        # run the fixture suite
    python3 tools/ccsim_analyze --emit-stream-map  # refresh EXPERIMENTS.md

Exit status 0 = clean, 1 = findings (or self-test failure), 2 = usage/setup
error. Findings print one per line as `path:line: [rule] message`.

Rule passes (each documented in its module):
    fingerprint         rules_fingerprint  config fields vs Fingerprint()
    coro-*              rules_coro         calendar-closure captures, raw
                                           resume, unsanctioned awaitables
    rng-stream          rules_rng          stream ids from the registry
    determinism-taint   rules_taint        unordered iteration into
                                           order-sensitive sinks
    hot-path-alloc      rules_alloc        heap allocation inside annotated
                                           kernel hot paths
    stream-map-doc      streammap          generated doc table freshness

Suppression, most-preferred first:
  1. fix the finding;
  2. a reasoned inline waiver (`// ccsim-analyze: <tag>(<reason>)`);
  3. a `rule<TAB-or-space>path` line in tools/ccsim_analyze_baseline.txt —
     for adopting a new rule over legacy findings wholesale, not for new
     code. Unused baseline lines are themselves reported (stale-baseline)
     so the file ratchets toward empty.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rules_alloc
import rules_coro
import rules_fingerprint
import rules_rng
import rules_taint
import streammap
from cppmodel import Finding, SourceFile, collect_files


def default_root() -> str:
    # tools/ccsim_analyze/__main__.py -> repo root is two dirs up.
    return os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))


def analyze(root: str) -> list[Finding]:
    src = os.path.join(root, "src")
    paths = collect_files([src])
    files = [SourceFile(p, root) for p in paths]

    findings: list[Finding] = []
    findings += rules_fingerprint.run(
        os.path.join(src, "ccsim", "config"), root)
    findings += rules_coro.run(files)
    findings += rules_rng.run(
        files, os.path.join(src, "ccsim", "sim", "stream_ids.h"), root)
    findings += rules_taint.run(files, root)
    findings += rules_alloc.run(files, root)
    findings += streammap.run(
        os.path.join(src, "ccsim", "sim", "stream_ids.h"),
        os.path.join(root, "EXPERIMENTS.md"), root)
    return findings


def load_baseline(path: str) -> list[tuple[str, str]]:
    if not os.path.isfile(path):
        return []
    out: list[tuple[str, str]] = []
    with open(path, "r", encoding="utf-8") as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 1)
            if len(parts) == 2:
                out.append((parts[0], parts[1].strip()))
    return out


def apply_baseline(findings: list[Finding],
                   baseline: list[tuple[str, str]]) -> list[Finding]:
    used = [False] * len(baseline)
    kept: list[Finding] = []
    for f in findings:
        suppressed = False
        for i, (rule, path) in enumerate(baseline):
            if f.rule == rule and f.path == path:
                used[i] = True
                suppressed = True
        if not suppressed:
            kept.append(f)
    for i, (rule, path) in enumerate(baseline):
        if not used[i]:
            kept.append(Finding(
                "tools/ccsim_analyze_baseline.txt", 0, "stale-baseline",
                f"baseline entry `{rule} {path}` suppresses nothing; "
                "delete it (the ratchet only tightens)"))
    return kept


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="ccsim_analyze",
        description="cross-file semantic static analysis for ccsim")
    ap.add_argument("--root", default=default_root(),
                    help="repository root (default: inferred)")
    ap.add_argument("--baseline", default=None,
                    help="baseline file (default: "
                         "<root>/tools/ccsim_analyze_baseline.txt)")
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore the baseline file")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rule passes over the checked-in fixtures")
    ap.add_argument("--emit-stream-map", action="store_true",
                    help="regenerate the RNG stream-map table in "
                         "EXPERIMENTS.md from stream_ids.h")
    args = ap.parse_args(argv)

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"ccsim_analyze: no src/ under {root}", file=sys.stderr)
        return 2

    if args.self_test:
        import selftest
        return selftest.run(root)

    if args.emit_stream_map:
        changed = streammap.emit(
            os.path.join(root, "src", "ccsim", "sim", "stream_ids.h"),
            os.path.join(root, "EXPERIMENTS.md"))
        print("stream map: " + ("updated" if changed else "already current"))
        return 0

    findings = analyze(root)
    if not args.no_baseline:
        baseline_path = args.baseline or os.path.join(
            root, "tools", "ccsim_analyze_baseline.txt")
        findings = apply_baseline(findings, load_baseline(baseline_path))

    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(f.format())
    if findings:
        print(f"\nccsim_analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ccsim_analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
