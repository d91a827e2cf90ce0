"""ccsim-analyze: the simulator's static analysis, token and semantic rules.

Usage:
    python3 tools/ccsim_analyze                    # analyze the tree
    python3 tools/ccsim_analyze --self-test        # run the fixture suite
    python3 tools/ccsim_analyze --emit-stream-map  # refresh EXPERIMENTS.md

Exit status 0 = clean, 1 = findings (or self-test failure), 2 = usage
error. Findings print one per line as `path:line: [rule] message`, relative
to the repository root, which is found from this file's location.

Rule passes (each documented in its module):
    wall-clock, random,  rules_tokens     banned constructs and header
    header-guard,                         hygiene (src/, tests/, bench/,
    include-hygiene,                      examples/; bare-assert, no-abort
    bare-assert, no-abort                 and the <random> ban in src/ only)
    unordered-iter       rules_unordered  every loop over a hash container
                                          (same four trees)
    coro-*               rules_coro       calendar-closure captures, raw
                                          resume, unsanctioned awaitables
    rng-stream           rules_rng        stream ids from the registry
    hot-path-alloc       rules_alloc      heap allocation inside annotated
                                          kernel hot paths
    stream-map-doc       streammap        generated doc table freshness

Fix a finding, or waive it with a reasoned inline annotation
`// ccsim-analyze: <tag>(<reason>)` on the flagged line or one of the two
lines above it; the token and unordered-iter rules take `<rule>-ok` as the
tag. An empty reason does not waive and is itself a finding.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rules_alloc
import rules_coro
import rules_rng
import rules_tokens
import rules_unordered
import streammap
from cppmodel import Finding, SourceFile, collect_files

# tools/ccsim_analyze/__main__.py -> repo root is two dirs up.
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

# Trees the token and unordered-iter rules cover; the semantic passes read
# src/ only.
TOKEN_TREES = ("src", "tests", "bench", "examples")


def analyze(root: str) -> list[Finding]:
    src = os.path.join(root, "src")
    files = [SourceFile(p, root)
             for p in collect_files([os.path.join(root, d)
                                     for d in TOKEN_TREES])]
    src_files = [sf for sf in files if sf.rel.startswith("src/")]

    findings: list[Finding] = []
    findings += rules_tokens.run(files)
    findings += rules_unordered.run(files, root)
    findings += rules_coro.run(src_files)
    findings += rules_rng.run(
        src_files, os.path.join(src, "ccsim", "sim", "stream_ids.h"), root)
    findings += rules_alloc.run(src_files, root)
    findings += streammap.run(
        os.path.join(src, "ccsim", "sim", "stream_ids.h"),
        os.path.join(root, "EXPERIMENTS.md"), root)
    return findings


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="ccsim_analyze",
        description="token and semantic static analysis for ccsim")
    ap.add_argument("--self-test", action="store_true",
                    help="run the rule passes over the checked-in fixtures")
    ap.add_argument("--emit-stream-map", action="store_true",
                    help="regenerate the RNG stream-map table in "
                         "EXPERIMENTS.md from stream_ids.h")
    args = ap.parse_args(argv)

    if args.self_test:
        import selftest
        return selftest.run(ROOT)

    if args.emit_stream_map:
        changed = streammap.emit(
            os.path.join(ROOT, "src", "ccsim", "sim", "stream_ids.h"),
            os.path.join(ROOT, "EXPERIMENTS.md"))
        print("stream map: " + ("updated" if changed else "already current"))
        return 0

    findings = analyze(ROOT)
    for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(f.format())
    if findings:
        print(f"\nccsim_analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ccsim_analyze: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
