"""Fixture suite for the ccsim_analyze rule passes.

Every rule runs against a violating fixture (must produce exactly the
expected rule histogram) and a clean fixture (must produce none): the
fixtures are the executable specification of each rule, and a rule change
that silently stops firing fails here before it ships a blind spot to CI.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import Counter

import rules_alloc
import rules_coro
import rules_rng
import rules_tokens
import rules_unordered
import streammap
from cppmodel import Finding, SourceFile


def _histogram(findings: list[Finding]) -> Counter:
    return Counter(f.rule for f in findings)


class _Suite:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checks = 0

    def expect(self, name: str, findings: list[Finding],
               expected: dict[str, int]) -> None:
        self.checks += 1
        got = _histogram(findings)
        if got != Counter(expected):
            detail = "\n".join("    " + f.format() for f in findings)
            self.failures.append(
                f"{name}: expected {dict(expected)}, got {dict(got)}\n"
                f"{detail if detail else '    (no findings)'}")

    def expect_true(self, name: str, cond: bool, detail: str = "") -> None:
        self.checks += 1
        if not cond:
            self.failures.append(f"{name}: {detail or 'assertion failed'}")


def run(root: str) -> int:
    lint_fx = os.path.join(root, "tools", "lint_fixtures")
    fx = os.path.join(lint_fx, "analyze")
    s = _Suite()

    # --- token and unordered-iter rules -----------------------------------
    def tokens(path: str, rel_root: str = root) -> list[Finding]:
        sf = SourceFile(path, rel_root)
        return rules_tokens.run([sf]) + rules_unordered.run([sf], rel_root)

    s.expect("tokens/violations",
             tokens(os.path.join(lint_fx, "violations.cc")),
             {"wall-clock": 3, "random": 2, "unordered-iter": 2,
              "include-hygiene": 2, "empty-annotation": 1})
    s.expect("tokens/clean", tokens(os.path.join(lint_fx, "clean.cc")), {})
    s.expect("tokens/bad-guard", tokens(os.path.join(lint_fx, "bad_guard.h")),
             {"header-guard": 1})
    # bare-assert, no-abort and the <random> ban apply in src/ only: the
    # fixtures under lint_fixtures/src/ are read relative to lint_fixtures/,
    # so they appear to live in src/. One more line in each carries a waiver.
    bad_assert = os.path.join(lint_fx, "src", "ccsim", "sim", "bad_assert.cc")
    s.expect("tokens/src-assert-abort", tokens(bad_assert, lint_fx),
             {"bare-assert": 1, "no-abort": 2})
    bad_random = os.path.join(lint_fx, "src", "ccsim", "sim", "bad_random.cc")
    s.expect("tokens/src-random", tokens(bad_random, lint_fx), {"random": 7})
    s.expect("tokens/random-outside-src", tokens(bad_random), {})
    # Multi-line header, member chain, begin() loop and a sink-free body.
    s.expect("unordered/shapes",
             tokens(os.path.join(fx, "unordered_shapes.cc")),
             {"unordered-iter": 4})
    s.expect("unordered/sinks",
             tokens(os.path.join(fx, "unordered_sinks.cc")),
             {"unordered-iter": 4})

    # --- coroutine lifetimes ----------------------------------------------
    s.expect("coro/bad",
             rules_coro.run([SourceFile(os.path.join(fx, "coro_bad.cc"),
                                        root)]),
             {"coro-ref-capture": 1, "coro-this-capture": 1,
              "coro-raw-resume": 1, "coro-unregistered-await": 2})
    s.expect("coro/clean",
             rules_coro.run([SourceFile(os.path.join(fx, "coro_clean.cc"),
                                        root)]), {})

    # --- rng streams ------------------------------------------------------
    rng_registry = os.path.join(fx, "rng", "stream_ids.h")
    s.expect("rng/bad",
             rules_rng.run([SourceFile(os.path.join(fx, "rng", "bad.cc"),
                                       root)], rng_registry, root),
             {"rng-stream": 3})
    s.expect("rng/clean",
             rules_rng.run([SourceFile(os.path.join(fx, "rng", "clean.cc"),
                                       root)], rng_registry, root), {})
    s.expect("rng/missing-registry",
             rules_rng.run([], os.path.join(fx, "rng", "no_such.h"), root),
             {"rng-stream": 1})

    # --- hot-path allocation ----------------------------------------------
    s.expect("alloc/bad",
             rules_alloc.run([SourceFile(os.path.join(fx, "alloc_bad.cc"),
                                         root)], root),
             {"hot-path-alloc": 5, "empty-annotation": 1})
    s.expect("alloc/clean",
             rules_alloc.run([SourceFile(os.path.join(fx, "alloc_clean.cc"),
                                         root)], root), {})
    # The network send/batch-flush shape: a batch allocated per send vs the
    # free-list recycling the real network.cc uses.
    s.expect("alloc/net-bad",
             rules_alloc.run([SourceFile(os.path.join(fx, "alloc_net_bad.cc"),
                                         root)], root),
             {"hot-path-alloc": 4, "empty-annotation": 1})
    s.expect("alloc/net-clean",
             rules_alloc.run([SourceFile(os.path.join(fx,
                                                      "alloc_net_clean.cc"),
                                         root)], root), {})

    # --- stream-map doc ---------------------------------------------------
    map_registry = os.path.join(fx, "streammap", "stream_ids.h")
    s.expect("streammap/stale",
             streammap.run(map_registry,
                           os.path.join(fx, "streammap", "doc_stale.md"),
                           root),
             {"stream-map-doc": 1})
    s.expect("streammap/missing-markers",
             streammap.run(map_registry,
                           os.path.join(fx, "streammap",
                                        "doc_missing_markers.md"), root),
             {"stream-map-doc": 1})
    # emit() must converge: regenerating the stale doc makes it clean and a
    # second emit is a no-op; text outside the markers survives.
    tmpdir = tempfile.mkdtemp(prefix="ccsim_analyze_selftest_")
    try:
        doc = os.path.join(tmpdir, "doc.md")
        shutil.copyfile(os.path.join(fx, "streammap", "doc_stale.md"), doc)
        s.expect_true("streammap/emit-changes",
                      streammap.emit(map_registry, doc),
                      "first emit reported no change")
        s.expect("streammap/emitted-clean",
                 streammap.run(map_registry, doc, root), {})
        s.expect_true("streammap/emit-idempotent",
                      not streammap.emit(map_registry, doc),
                      "second emit still reported changes")
        with open(doc, "r", encoding="utf-8") as f:
            text = f.read()
        s.expect_true("streammap/preserves-surroundings",
                      "Text after the block survives regeneration." in text
                      and text.startswith("# Fixture document"),
                      "content outside the markers was clobbered")
        s.expect_true("streammap/two-line-doc-joined",
                      "other things, continued on a second line." in text,
                      "multi-line /// doc was not joined into one cell")
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    if s.failures:
        print(f"ccsim_analyze self-test: "
              f"{len(s.failures)}/{s.checks} checks FAILED\n")
        for f in s.failures:
            print("  FAIL " + f)
        return 1
    print(f"ccsim_analyze self-test: all {s.checks} checks passed")
    return 0
