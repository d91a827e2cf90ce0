"""Lightweight C++ source model shared by the ccsim_analyze rule passes.

This is deliberately not a real C++ frontend. The rule passes need three
things a frontend would give us and a token scanner can approximate well
enough for this codebase's style (clang-format'd, no macros that generate
declarations, one class per header):

  * comment/string-stripped text with a position -> line mapping,
  * balanced-delimiter extents (call argument lists, brace bodies),
  * waiver annotations (`// ccsim-analyze: <tag>(<reason>)`).

Where the approximation is wrong it is wrong toward *more* findings, and a
finding can always be waived with a reasoned annotation; silent false
negatives are the failure mode we spend effort avoiding.
"""

from __future__ import annotations

import bisect
import os
import re
from dataclasses import dataclass

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Waiver annotation: `ccsim-analyze: <tag>(<reason>)`. The reason is
# mandatory (an empty one yields an `empty-annotation` finding); it is the
# audit trail for why the flagged construct is safe.
ANNOTATION_RE = re.compile(r"ccsim-analyze:\s*([a-z-]+)\(([^)]*)\)")


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Per-line code with comments and string/char literals blanked.

    Handles // and /* */ comments and simple escapes within literals. Raw
    strings are treated like plain strings (good enough for this codebase).
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


class SourceFile:
    """One parsed source file: raw lines, stripped code, and position maps."""

    def __init__(self, path: str, root: str):
        self.path = path
        self.rel = os.path.relpath(path, root).replace(os.sep, "/")
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.raw = f.read().splitlines()
        self.code = strip_comments_and_strings(self.raw)
        self.text = "\n".join(self.code)
        # Offset of the start of each line within `text`, for line_of().
        self._starts = [0]
        for line in self.code[:-1] if self.code else []:
            self._starts.append(self._starts[-1] + len(line) + 1)

    def line_of(self, idx: int) -> int:
        """1-based line number of character offset `idx` in self.text."""
        return bisect.bisect_right(self._starts, idx)

    def annotations(self, lineno: int) -> dict[str, str]:
        """ccsim-analyze annotations applying to 1-based `lineno` (the same
        line or the two lines above it). Returns {tag: reason}."""
        found: dict[str, str] = {}
        for ln in (lineno, lineno - 1, lineno - 2):
            if 1 <= ln <= len(self.raw):
                for m in ANNOTATION_RE.finditer(self.raw[ln - 1]):
                    found.setdefault(m.group(1), m.group(2).strip())
        return found


@dataclass
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def add_finding(findings: list[Finding], sf: SourceFile, line: int, rule: str,
                waiver_tag: str | None, message: str) -> None:
    """Appends a finding unless a reasoned waiver annotation covers it.

    A waiver with an empty reason does not waive; it produces an extra
    `empty-annotation` finding (the reason documents the human audit)."""
    if waiver_tag is not None:
        ann = sf.annotations(line)
        if waiver_tag in ann:
            if ann[waiver_tag]:
                return
            findings.append(Finding(
                sf.rel, line, "empty-annotation",
                f"annotation {waiver_tag}() needs a reason"))
    findings.append(Finding(sf.rel, line, rule, message))


_DELIM_CLOSE = {"(": ")", "[": "]", "{": "}"}


def match_delim(text: str, open_idx: int) -> int:
    """Index of the delimiter closing text[open_idx], or -1 if unbalanced.

    text must be comment/string-stripped. Angle brackets are not tracked
    (they are ambiguous with comparisons); parens/brackets/braces nest."""
    open_c = text[open_idx]
    close_c = _DELIM_CLOSE[open_c]
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == open_c:
            depth += 1
        elif c == close_c:
            depth -= 1
            if depth == 0:
                return i
    return -1


def split_args(text: str) -> list[str]:
    """Splits an argument-list body on top-level commas (parens, brackets,
    braces and single-level template angles respected)."""
    args: list[str] = []
    depth = 0
    angle = 0
    cur: list[str] = []
    for c in text:
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "<":
            angle += 1
        elif c == ">":
            angle = max(0, angle - 1)
        if c == "," and depth == 0 and angle == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur and "".join(cur).strip():
        args.append("".join(cur))
    return args


# --------------------------------------------------------------------------
# Container/variable discovery (unordered-iter and hot-path-alloc passes).


def declared_names(sf: SourceFile, decl_re: re.Pattern, root: str) -> set[str]:
    """Names declared with a container type in `sf` or its companion files.

    `decl_re` matches a type up to and including its template's '<'. After
    the balanced template arguments, an identifier followed by ; = { ( , )
    marks a declarator. Members are usually declared in the header and used
    in the sibling .cc, hence the companions. Type aliases and nested uses
    are conservatively included."""
    names: set[str] = set()
    texts = [sf.text] + [SourceFile(p, root).text
                         for p in companion_paths(sf.path)]
    for text in texts:
        for m in decl_re.finditer(text):
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
            dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]",
                          text[i:i + 160])
            if dm:
                names.add(dm.group(1))
    return names


def companion_paths(path: str) -> list[str]:
    """Sibling files sharing the stem (foo.cc <-> foo.h), for member types
    declared in the header and used in the implementation file."""
    stem = re.sub(r"\.(h|hpp|cc|cpp|cxx)$", "", path)
    out = []
    for ext in CXX_EXTENSIONS:
        p = stem + ext
        if p != path and os.path.isfile(p):
            out.append(p)
    return out


def collect_files(dirs: list[str]) -> list[str]:
    """Every C++ source under `dirs`, in a stable (sorted) order."""
    files: list[str] = []
    for d in dirs:
        for dirpath, dirnames, filenames in os.walk(d):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))
    return files
