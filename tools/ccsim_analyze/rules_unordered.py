"""unordered-iter pass: every loop over a hash container is a finding.

`std::unordered_{map,set,multimap,multiset}` iteration order is unspecified
and changes across standard-library versions; the in-tree FlatHashMap
(common/flat_hash.h) has no iterators, and its ForEach visits slots in
hash-table order. Either order leaks into the simulation the moment a loop
schedules an event, picks a victim, records a statistic, or collects values
that are used later without a sort. A token scanner cannot tell those loops
from harmless ones, so the rule is strict (DESIGN.md decision 10: when a
heuristic cannot tell, it flags): every loop over a container declared with
one of these types, in the file or its companion header, is a finding.

Recognized shapes, matched on comment-stripped text so a header may span
lines:

  * range-for whose range is the container, directly or through a member
    chain or a dereference (`: table_`, `: *locks`, `: h->inner.table_`);
  * iterator loops whose header calls `begin()`/`cbegin()` on it;
  * `ForEach` calls on it (the callback is the loop body).

Fix by iterating an ordered container, or after a determinism audit waive
the loop with

    // ccsim-analyze: unordered-iter-ok(<why the order is unobservable>)

on the loop line or one of the two lines above it (a commutative fold, keys
collected and sorted before use, a pass/fail check, ...).
"""

from __future__ import annotations

import re

from cppmodel import (Finding, SourceFile, add_finding, declared_names,
                      match_delim)

UNORDERED_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<"
    r"|(?:common\s*::\s*)?FlatHashMap\s*<")

FOR_RE = re.compile(r"\bfor\s*\(")


def _check_file(sf: SourceFile, root: str, findings: list[Finding]) -> None:
    names = declared_names(sf, UNORDERED_DECL_RE, root)
    if not names:
        return
    alt = "|".join(re.escape(n) for n in sorted(names))
    range_re = re.compile(
        rf":\s*[&*]?\s*(?:[A-Za-z_]\w*\s*(?:\.|->)\s*)*({alt})$")
    begin_re = re.compile(rf"\b({alt})\s*(?:\.|->)\s*c?begin\s*\(")
    foreach_re = re.compile(rf"\b({alt})\s*\.\s*ForEach\s*\(")

    sites: list[tuple[int, str]] = []  # (offset, container name)
    for m in FOR_RE.finditer(sf.text):
        close = match_delim(sf.text, m.end() - 1)
        if close < 0:
            continue
        header = sf.text[m.end():close].strip()
        hit = range_re.search(header) or begin_re.search(header)
        if hit:
            sites.append((m.start(), hit.group(1)))
    sites += [(m.start(), m.group(1)) for m in foreach_re.finditer(sf.text)]

    for offset, name in sites:
        add_finding(
            findings, sf, sf.line_of(offset), "unordered-iter",
            "unordered-iter-ok",
            f"iteration over unordered container '{name}' has unspecified "
            "order; iterate an ordered container, or after a determinism "
            "audit waive with ccsim-analyze: unordered-iter-ok(reason)")


def run(files: list[SourceFile], root: str) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        _check_file(sf, root, findings)
    return findings
