"""Token rules: banned constructs and header hygiene, one line at a time.

The simulator's methodology (common random numbers, bit-reproducible runs)
rests on invariants a generic linter cannot know about:

  wall-clock       Wall-clock time sources (std::chrono::system_clock,
                   time(), gettimeofday, clock_gettime, localtime, gmtime)
                   are banned: simulated time comes from the Calendar, and
                   wall time may only be read through steady_clock (allowed)
                   for wall_seconds accounting.
  random           rand()/srand() and std::random_device are banned: all
                   randomness flows through sim::RandomStream, seeded from
                   the run's master seed. In src/, <random> itself is banned
                   too (#include <random>, std::mt19937*, std::seed_seq,
                   std::generate_canonical and every std::*_distribution):
                   the standard leaves distribution algorithms to the
                   library, so RandomStream computes its engine and variates
                   itself. Outside src/ (tests/ uses it as a reference)
                   <random> is allowed.
  header-guard     Headers use #ifndef/#define guards named after the path:
                   src/ccsim/cc/bto.h -> CCSIM_CC_BTO_H_ (a leading src/ is
                   dropped; tests/ and bench/ keep their directory name, and
                   every guard carries the CCSIM_ prefix).
  include-hygiene  Project headers are included as "ccsim/..." (quotes, full
                   path from the source root): no "../" relative includes,
                   no <ccsim/...>, and standard headers (the extensionless
                   ones) in angle brackets.
  bare-assert      In src/, invariants use CCSIM_CHECK / CCSIM_DCHECK from
                   ccsim/sim/check.h, never bare assert() (which vanishes
                   under NDEBUG and aborts without a simulator-level
                   message). static_assert and gtest ASSERT_* are fine.
  no-abort         In src/, direct process termination (abort(), exit(),
                   _exit(), quick_exit(), std:: variants) is banned: fatal
                   paths go through CCSIM_CHECK so the failure prints the
                   simulation clock, event context and diagnostic dump. The
                   one sanctioned call site is ccsim/sim/check.h.

Waive one line with `// ccsim-analyze: <rule>-ok(<reason>)` on it or one of
the two lines above it.
"""

from __future__ import annotations

import os
import re

from cppmodel import Finding, SourceFile, add_finding

WALL_CLOCK_RE = re.compile(
    r"(?<![\w])system_clock\b"
    r"|(?<![\w])gettimeofday\s*\("
    r"|(?<![\w])clock_gettime\s*\("
    r"|(?<![\w])time\s*\(\s*(?:NULL|nullptr|0|&|\))"
    r"|(?<![\w])localtime(?:_r)?\s*\("
    r"|(?<![\w])gmtime(?:_r)?\s*\(")

RANDOM_RE = re.compile(r"(?<![\w])s?rand\s*\(|(?<![\w])random_device\b")

# <random> in src/: seeding and distributions differ between standard
# libraries, so simulated output would too.
STD_RANDOM_RE = re.compile(
    r"^\s*#\s*include\s*<random>"
    r"|(?<![\w])std\s*::\s*(?:mt19937\w*|seed_seq|generate_canonical"
    r"|\w+_distribution)\b")

BARE_ASSERT_RE = re.compile(r"(?<![\w])assert\s*\(")

NO_ABORT_RE = re.compile(
    r"(?<![\w])(?:std\s*::\s*)?(?:abort|exit|_exit|quick_exit)\s*\(")

# (rule, pattern, src/ only, message), checked on every stripped code line.
LINE_BANS = (
    ("wall-clock", WALL_CLOCK_RE, False,
     "wall-clock time source; simulated time comes from the Calendar "
     "(steady_clock is allowed for wall accounting)"),
    ("random", RANDOM_RE, False,
     "uncontrolled randomness; use sim::RandomStream seeded from the "
     "master seed"),
    ("random", STD_RANDOM_RE, True,
     "<random> in src/; its seeding and distributions are library-specific, "
     "so draw through sim::RandomStream"),
    ("bare-assert", BARE_ASSERT_RE, True,
     "bare assert(); use CCSIM_CHECK / CCSIM_DCHECK from ccsim/sim/check.h"),
    ("no-abort", NO_ABORT_RE, True,
     "direct process termination; fatal paths go through CCSIM_CHECK "
     "(ccsim/sim/check.h) so the failure carries simulation context and "
     "the diagnostic dump"),
)

IFNDEF_RE = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]')


def expected_guard(rel: str) -> str:
    stem = re.sub(r"\.(h|hpp)$", "", rel.removeprefix("src/"))
    guard = re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"
    return guard if guard.startswith("CCSIM_") else "CCSIM_" + guard


def _check_guard(sf: SourceFile, add) -> None:
    guard = expected_guard(sf.rel)
    first = next(((i, line) for i, line in enumerate(sf.code, start=1)
                  if line.strip()), None)
    m = IFNDEF_RE.match(first[1]) if first else None
    if not m:
        add(1, "header-guard",
            f"missing include guard (expected #ifndef {guard})")
    elif m.group(1) != guard:
        add(first[0], "header-guard",
            f"include guard {m.group(1)} should be {guard}")
    elif not any(re.match(r"^\s*#\s*define\s+" + re.escape(guard) + r"\b", c)
                 for c in sf.code):
        add(first[0], "header-guard",
            f"#ifndef {guard} without matching #define")


def _check_include(target: str, bracket: str, line: int, add) -> None:
    if "\\" in target or target.startswith("/"):
        add(line, "include-hygiene", f'malformed include path "{target}"')
    if ".." in target.split("/"):
        add(line, "include-hygiene",
            f'relative include "{target}"; include as "ccsim/..." from the '
            "source root")
    if bracket == "<" and target.startswith("ccsim/"):
        add(line, "include-hygiene",
            f"project header <{target}> must use quotes")
    if bracket == '"' and not os.path.splitext(target)[1]:
        add(line, "include-hygiene",
            f'standard header "{target}" must use angle brackets')


def _check_file(sf: SourceFile, findings: list[Finding]) -> None:
    def add(line: int, rule: str, message: str) -> None:
        add_finding(findings, sf, line, rule, rule + "-ok", message)

    in_src = sf.rel.startswith("src/")
    for i, line in enumerate(sf.code, start=1):
        for rule, pattern, src_only, message in LINE_BANS:
            if (in_src or not src_only) and pattern.search(line):
                add(i, rule, message)
    if sf.rel.endswith((".h", ".hpp")):
        _check_guard(sf, add)
    for i, raw in enumerate(sf.raw, start=1):
        m = INCLUDE_RE.match(raw)
        if m:
            _check_include(m.group(2), m.group(1), i, add)


def run(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        _check_file(sf, findings)
    return findings
