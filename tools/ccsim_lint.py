#!/usr/bin/env python3
"""ccsim_lint: repo-specific determinism and hygiene linter for ccsim.

The simulator's methodology (common random numbers, bit-reproducible runs)
depends on invariants a generic linter cannot know about. This pass
mechanically enforces them over C++ sources:

  wall-clock       Wall-clock time sources (std::chrono::system_clock,
                   time(), gettimeofday, clock_gettime, localtime, gmtime)
                   are banned: simulated time comes from the Calendar, and
                   wall time may only be read through steady_clock (allowed)
                   for wall_seconds accounting.
  random           rand()/srand() and std::random_device are banned: all
                   randomness must flow through sim::RandomStream, seeded
                   from the run's master seed. In src/, <random> itself is
                   banned too (#include <random>, std::mt19937*,
                   std::seed_seq, std::generate_canonical and every
                   std::*_distribution): the standard leaves distribution
                   algorithms to the library, so RandomStream computes its
                   engine and variates itself. tests/ may use <random> as a
                   reference.
  unordered-iter   Iterating a std::unordered_{map,set,multimap,multiset}
                   (range-for or explicit .begin()/.end() loops) is flagged:
                   hash iteration order is unspecified and changes across
                   stdlib versions, which silently changes event ordering
                   and deadlock-victim choice. Sites that are provably
                   order-independent carry an audit annotation:
                       // ccsim-lint: unordered-iter-ok(<reason>)
                   on the loop line or one of the two lines above it.
  header-guard     Headers use #ifndef/#define guards named after the path:
                   src/ccsim/cc/bto.h -> CCSIM_CC_BTO_H_ (leading src/ is
                   dropped; tests/ and bench/ keep their directory name).
  include-hygiene  Project headers are included as "ccsim/..." (quotes, full
                   path from the source root); no "../" relative includes;
                   no <ccsim/...> angle-bracket includes of project headers.
  bare-assert      In src/, invariants use CCSIM_CHECK / CCSIM_DCHECK from
                   ccsim/sim/check.h, never bare assert() (which vanishes
                   under NDEBUG and aborts without a simulator-level
                   message). static_assert and gtest ASSERT_* are fine.
  no-abort         In src/, direct process termination (abort(), exit(),
                   _exit(), quick_exit(), std:: variants) is banned: fatal
                   paths go through CCSIM_CHECK so the failure prints the
                   simulation clock, event context, and diagnostic dump.
                   The one sanctioned call site is ccsim/sim/check.h.

Any rule can be waived for one line with
    // ccsim-lint: <rule>-ok(<reason>)
with a non-empty reason; the annotation marks a human determinism audit.

Usage:
    ccsim_lint.py DIR_OR_FILE...      lint the given trees (exit 1 on findings)
    ccsim_lint.py --self-test         run the linter against its fixtures
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

ANNOTATION_RE = re.compile(r"ccsim-lint:\s*([a-z-]+)-ok\(([^)]*)\)")

WALL_CLOCK_RE = re.compile(
    r"(?<![\w])system_clock\b"
    r"|(?<![\w])gettimeofday\s*\("
    r"|(?<![\w])clock_gettime\s*\("
    r"|(?<![\w])time\s*\(\s*(?:NULL|nullptr|0|&|\))"
    r"|(?<![\w])localtime(?:_r)?\s*\("
    r"|(?<![\w])gmtime(?:_r)?\s*\("
)

RANDOM_RE = re.compile(
    r"(?<![\w])s?rand\s*\("
    r"|(?<![\w])random_device\b"
)

# <random> in src/: seeding and distributions differ between standard
# libraries, so simulated output would too.
STD_RANDOM_RE = re.compile(
    r"^\s*#\s*include\s*<random>"
    r"|(?<![\w])std\s*::\s*(?:mt19937\w*|seed_seq|generate_canonical"
    r"|\w+_distribution)\b"
)

BARE_ASSERT_RE = re.compile(r"(?<![\w])assert\s*\(")

NO_ABORT_RE = re.compile(
    r"(?<![\w])(?:std\s*::\s*)?(?:abort|exit|_exit|quick_exit)\s*\(")

# std::unordered_* plus the in-tree FlatHashMap (common/flat_hash.h), whose
# ForEach visits entries in hash-table order — the same determinism hazard.
UNORDERED_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<"
    r"|(?:common\s*::\s*)?FlatHashMap\s*<")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*([<"])([^>"]+)[>"]')


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Returns per-line code with comments and string/char literals blanked.

    Keeps line lengths irrelevant; only token presence matters. Handles //
    and /* */ comments and simple escapes within literals. Raw strings are
    treated like plain strings (good enough for this codebase).
    """
    out = []
    in_block = False
    for line in lines:
        code = []
        i = 0
        n = len(line)
        while i < n:
            c = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if c == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if c == "/" and nxt == "/":
                break  # rest of line is a comment
            if c == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if c in ('"', "'"):
                quote = c
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                code.append(quote + quote)  # keep a token boundary
                continue
            code.append(c)
            i += 1
        out.append("".join(code))
    return out


def annotated_rules(raw_lines: list[str], lineno: int) -> dict[str, str]:
    """Annotations that apply to 1-based line `lineno` (same line or the two
    lines above). Returns {rule: reason}."""
    found: dict[str, str] = {}
    for ln in (lineno, lineno - 1, lineno - 2):
        if 1 <= ln <= len(raw_lines):
            for m in ANNOTATION_RE.finditer(raw_lines[ln - 1]):
                found.setdefault(m.group(1), m.group(2).strip())
    return found


def waived(findings: list[Finding], raw_lines: list[str], finding: Finding) -> bool:
    """True when an annotation waives `finding`. An annotation with an empty
    reason does NOT waive (the reason documents the determinism audit); it
    gets an extra empty-annotation finding instead."""
    ann = annotated_rules(raw_lines, finding.line)
    if finding.rule not in ann:
        return False
    if not ann[finding.rule]:
        findings.append(
            Finding(finding.path, finding.line, "empty-annotation",
                    f"annotation {finding.rule}-ok() needs a reason"))
        return False
    return True


def find_unordered_names(code_lines: list[str]) -> set[str]:
    """Names of variables/members declared with an unordered container type.

    Heuristic: after `unordered_xxx<...>` (balanced angle brackets), an
    identifier followed by ; = { ( , marks a declaration. Type aliases and
    nested uses are conservatively included.
    """
    text = "\n".join(code_lines)
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(text):
        i = m.end()  # just past '<'
        depth = 1
        n = len(text)
        while i < n and depth > 0:
            if text[i] == "<":
                depth += 1
            elif text[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue
        rest = text[i:i + 160]
        dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", rest)
        if dm:
            names.add(dm.group(1))
    return names


def expected_guard(path: str, root: str) -> str:
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    if rel.startswith("src/"):
        rel = rel[len("src/"):]
    stem = re.sub(r"\.(h|hpp)$", "", rel)
    guard = re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_H_"
    # Repo convention: every guard carries the project prefix, including
    # headers outside src/ (tests/test_util.h -> CCSIM_TESTS_TEST_UTIL_H_).
    if not guard.startswith("CCSIM_"):
        guard = "CCSIM_" + guard
    return guard


# C and C++ standard headers that must be included with angle brackets.
STD_HEADERS = {
    "algorithm", "array", "atomic", "bit", "bitset", "cassert", "cctype",
    "cerrno", "cfloat", "charconv", "chrono", "cinttypes", "climits",
    "cmath", "compare", "complex", "concepts", "condition_variable",
    "coroutine", "csetjmp", "csignal", "cstdarg", "cstddef", "cstdint",
    "cstdio", "cstdlib", "cstring", "ctime", "cwchar", "deque", "exception",
    "execution", "filesystem", "format", "forward_list", "fstream",
    "functional", "future", "initializer_list", "iomanip", "ios", "iosfwd",
    "iostream", "istream", "iterator", "latch", "limits", "list", "locale",
    "map", "memory", "memory_resource", "mutex", "new", "numbers", "numeric",
    "optional", "ostream", "queue", "random", "ranges", "ratio", "regex",
    "scoped_allocator", "semaphore", "set", "shared_mutex", "source_location",
    "span", "sstream", "stack", "stdexcept", "stop_token", "streambuf",
    "string", "string_view", "syncstream", "system_error", "thread", "tuple",
    "type_traits", "typeindex", "typeinfo", "unordered_map", "unordered_set",
    "utility", "valarray", "variant", "vector", "version",
}


def lint_file(path: str, root: str) -> list[Finding]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            raw = f.read().splitlines()
    except OSError as e:
        return [Finding(path, 0, "io", str(e))]

    code = strip_comments_and_strings(raw)
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    in_src = rel.startswith("src/")
    findings: list[Finding] = []

    def add(line: int, rule: str, message: str) -> None:
        f = Finding(rel, line, rule, message)
        if not waived(findings, raw, f):
            findings.append(f)

    # --- line-based bans -------------------------------------------------
    for i, cline in enumerate(code, start=1):
        if WALL_CLOCK_RE.search(cline):
            add(i, "wall-clock",
                "wall-clock time source; simulated time comes from the "
                "Calendar (steady_clock is allowed for wall accounting)")
        if RANDOM_RE.search(cline):
            add(i, "random",
                "uncontrolled randomness; use sim::RandomStream seeded from "
                "the master seed")
        if in_src and STD_RANDOM_RE.search(cline):
            add(i, "random",
                "<random> in src/; its seeding and distributions are "
                "library-specific, so draw through sim::RandomStream")
        if in_src and BARE_ASSERT_RE.search(cline):
            add(i, "bare-assert",
                "bare assert(); use CCSIM_CHECK / CCSIM_DCHECK from "
                "ccsim/sim/check.h")
        if in_src and NO_ABORT_RE.search(cline):
            add(i, "no-abort",
                "direct process termination; fatal paths go through "
                "CCSIM_CHECK (ccsim/sim/check.h) so the failure carries "
                "simulation context and the diagnostic dump")

    # --- unordered container iteration ----------------------------------
    # Members are typically *declared* in the header and *iterated* in the
    # sibling .cc, so collect unordered names from companion files too
    # (foo.cc <-> foo.h/foo.hpp).
    names = find_unordered_names(code)
    stem = re.sub(r"\.(h|hpp|cc|cpp|cxx)$", "", path)
    for ext in CXX_EXTENSIONS:
        companion = stem + ext
        if companion == path or not os.path.isfile(companion):
            continue
        try:
            with open(companion, "r", encoding="utf-8",
                      errors="replace") as f:
                names |= find_unordered_names(
                    strip_comments_and_strings(f.read().splitlines()))
        except OSError:
            pass
    if names:
        alt = "|".join(re.escape(n) for n in sorted(names))
        range_for = re.compile(
            r"for\s*\(.*:\s*\*?\s*(?:\w+(?:\.|->))?(" + alt + r")\s*\)")
        begin_loop = re.compile(
            r"for\s*\(.*(" + alt + r")\s*\.\s*(?:begin|cbegin)\s*\(")
        foreach_call = re.compile(
            r"\b(" + alt + r")\s*\.\s*ForEach(?:Mutable)?\s*\(")
        for i, cline in enumerate(code, start=1):
            m = (range_for.search(cline) or begin_loop.search(cline)
                 or foreach_call.search(cline))
            if not m:
                # Range-for whose range expression spans to the next line(s)
                # is rare in this codebase; single-line match is enough.
                continue
            add(i, "unordered-iter",
                f"iteration over unordered container '{m.group(1)}' has "
                "unspecified order; iterate a sorted copy, use an ordered "
                "container, or annotate "
                "// ccsim-lint: unordered-iter-ok(<reason>) after a "
                "determinism audit")

    # --- header guards ---------------------------------------------------
    if path.endswith((".h", ".hpp")):
        guard = expected_guard(path, root)
        ifndef_re = re.compile(r"^\s*#\s*ifndef\s+(\w+)")
        first_directive = None
        for i, cline in enumerate(code, start=1):
            if not cline.strip():
                continue
            m = ifndef_re.match(cline)
            first_directive = (i, m.group(1) if m else None)
            break
        if first_directive is None or first_directive[1] is None:
            add(1, "header-guard",
                f"missing include guard (expected #ifndef {guard})")
        else:
            i, got = first_directive
            if got != guard:
                add(i, "header-guard",
                    f"include guard {got} should be {guard}")
            else:
                define_ok = any(
                    re.match(r"^\s*#\s*define\s+" + re.escape(guard) + r"\b",
                             c) for c in code)
                if not define_ok:
                    add(i, "header-guard",
                        f"#ifndef {guard} without matching #define")

    # --- include hygiene -------------------------------------------------
    for i, rline in enumerate(raw, start=1):
        m = INCLUDE_RE.match(rline)
        if not m:
            continue
        bracket, target = m.group(1), m.group(2)
        if "\\" in target or target.startswith("/"):
            add(i, "include-hygiene",
                f'malformed include path "{target}"')
        if ".." in target.split("/"):
            add(i, "include-hygiene",
                f'relative include "{target}"; include as "ccsim/..." from '
                "the source root")
        if bracket == "<" and target.startswith("ccsim/"):
            add(i, "include-hygiene",
                f'project header <{target}> must use quotes')
        if bracket == '"' and (target in STD_HEADERS or
                               target.endswith((".h", ".hpp")) and
                               target.split("/")[0] in ("sys", "bits")):
            if target in STD_HEADERS:
                add(i, "include-hygiene",
                    f'standard header "{target}" must use angle brackets')

    return findings


def collect_files(targets: list[str]) -> list[str]:
    files: list[str] = []
    for t in targets:
        if os.path.isfile(t):
            files.append(t)
            continue
        if not os.path.isdir(t):
            # A typo'd path must not lint an empty set and report "clean".
            sys.stderr.write(f"ccsim_lint: no such file or directory: {t}\n")
            sys.exit(2)
        for dirpath, dirnames, filenames in os.walk(t):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in ("build", ".git", "lint_fixtures"))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return files


def run_lint(targets: list[str], root: str) -> list[Finding]:
    findings: list[Finding] = []
    for path in collect_files(targets):
        findings.extend(lint_file(path, root))
    return findings


# --------------------------------------------------------------------------
# Self-test against the fixtures in tools/lint_fixtures/.

def self_test() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    fixtures = os.path.join(here, "lint_fixtures")
    root = os.path.dirname(here)  # repo root, so fixture paths read nicely

    bad = os.path.join(fixtures, "violations.cc")
    bad_header = os.path.join(fixtures, "bad_guard.h")
    clean = os.path.join(fixtures, "clean.cc")

    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    # The fixture is outside src/, so bare-assert does not fire in it (that
    # rule is covered separately below with a faked src/ root).
    bad_findings = run_lint([bad], root)
    got_rules = sorted(f.rule for f in bad_findings)
    expected_rules = sorted([
        "wall-clock", "wall-clock", "wall-clock",
        "random", "random",
        "unordered-iter", "unordered-iter",
        "include-hygiene", "include-hygiene",
        "empty-annotation",
    ])
    expect(got_rules == expected_rules,
           f"violations.cc: expected {expected_rules}, got {got_rules}:\n  "
           + "\n  ".join(f.format() for f in bad_findings))

    header_findings = run_lint([bad_header], root)
    expect(any(f.rule == "header-guard" for f in header_findings),
           "bad_guard.h: expected a header-guard finding, got "
           + str([f.format() for f in header_findings]))

    clean_findings = run_lint([clean], root)
    expect(clean_findings == [],
           "clean.cc: expected no findings, got:\n  "
           + "\n  ".join(f.format() for f in clean_findings))

    # A src/-scoped file with a bare assert or a direct abort()/exit() must
    # fire bare-assert / no-abort: lint the fixture under a faked root so it
    # appears to live in src/. Exactly one bare-assert, two no-abort (the
    # third termination call carries a no-abort-ok waiver).
    src_fixture = os.path.join(fixtures, "src", "ccsim", "sim",
                               "bad_assert.cc")
    assert_findings = run_lint([src_fixture], fixtures)
    src_rules = sorted(f.rule for f in assert_findings)
    expect(src_rules == ["bare-assert", "no-abort", "no-abort"],
           "bad_assert.cc: expected [bare-assert, no-abort x2], got "
           + str([f.format() for f in assert_findings]))

    # <random> is banned in src/ only: the same fixture under a faked src/
    # root fires once per banned line (one more line carries a random-ok
    # waiver), and under the real root, where it is outside src/ as tests/
    # is, it is clean.
    random_fixture = os.path.join(fixtures, "src", "ccsim", "sim",
                                  "bad_random.cc")
    random_findings = run_lint([random_fixture], fixtures)
    expect([f.rule for f in random_findings] == ["random"] * 7,
           "bad_random.cc: expected 7 random findings, got "
           + str([f.format() for f in random_findings]))
    outside_findings = run_lint([random_fixture], root)
    expect(outside_findings == [],
           "bad_random.cc outside src/: expected no findings, got "
           + str([f.format() for f in outside_findings]))

    if failures:
        print("ccsim_lint self-test FAILED:")
        for f in failures:
            print("  -", f)
        return 1
    print("ccsim_lint self-test passed.")
    return 0


def main(argv: list[str]) -> int:
    args = argv[1:]
    if not args:
        print(__doc__)
        return 2
    if args == ["--self-test"]:
        return self_test()
    if any(a.startswith("-") for a in args):
        print(f"unknown option in {args}", file=sys.stderr)
        return 2

    # Repo root = parent of this script's directory; findings print relative
    # to it.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = run_lint(args, root)
    if findings:
        for f in findings:
            print(f.format())
        print(f"ccsim_lint: {len(findings)} finding(s).")
        return 1
    print("ccsim_lint: clean.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
