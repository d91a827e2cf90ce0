"""hot-path-alloc pass: heap allocation inside annotated kernel hot paths.

The megascale memory work (DESIGN decision #12) moved the simulator's
per-event costs off the general-purpose heap: coroutine frames and
transaction state come from per-simulation arenas, the lock table and
waits-for graph use flat open-addressing storage with inline small-vectors.
What keeps them off the heap is a *convention*, and conventions rot — one
innocent `std::map` in a grant loop reintroduces the per-lock node churn
the whole refactor removed, and nothing fails: the simulation is still
correct, just slowly and noisily fragmenting.

This pass turns the convention into a checked contract. A function whose
definition is annotated

    // ccsim-analyze: hot-path(<why this is per-event work>)

declares itself per-event kernel work, and within its body the pass flags
the allocation sinks:

  * `new` expressions (including `operator new` calls),
  * `make_unique` / `make_shared` / `allocate_shared`,
  * inserts into *node-based* standard containers declared in this file or
    its header companion (`std::map/set/list/...` — every insert is a heap
    node), via `.insert/.emplace/...` or `operator[]`.

`std::vector` growth and the in-tree SmallVec/FlatHashMap are deliberately
not sinks: amortized doubling on flat storage is the pattern the hot paths
are supposed to use.

An allocation a hot path genuinely needs (a one-time lazily built structure,
an unavoidable shared_ptr hand-off) is waived in place with

    // ccsim-analyze: alloc-ok(<reason>)

and the reason is the audit trail.
"""

from __future__ import annotations

import re

from cppmodel import (Finding, SourceFile, add_finding, declared_names,
                      match_delim)

HOT_PATH_RE = re.compile(r"ccsim-analyze:\s*hot-path\(([^)]*)\)")

# Node-based standard containers: one heap node per element, every insert
# allocates.
NODE_CONTAINER_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?"
    r"(?:multi)?(?:map|set)\s*<"
    r"|(?:std\s*::\s*)?(?:forward_)?list\s*<"
    r"|(?:std\s*::\s*)?unordered_(?:multi)?(?:map|set)\s*<")

# Direct allocation sinks, name-independent.
DIRECT_SINKS = (
    (re.compile(r"\bnew\b"),
     "`new` allocates from the general-purpose heap"),
    (re.compile(r"\b(?:make_unique|make_shared|allocate_shared)\s*<"),
     "smart-pointer factory allocates from the general-purpose heap"),
)


def _hot_path_bodies(sf: SourceFile) -> list[tuple[int, int, int]]:
    """(annotation_line, body_start_idx, body_end_idx) for each function
    definition annotated hot-path. The body is the first brace block opening
    after the annotation line (the function's, given one definition per
    annotation — the codebase is clang-format'd, no brace-less functions)."""
    out: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(sf.raw, start=1):
        if not HOT_PATH_RE.search(raw):
            continue
        # Offset of the start of the line *after* the annotation.
        start = sum(len(line) + 1 for line in sf.code[:lineno])
        brace = sf.text.find("{", start)
        if brace < 0:
            continue
        close = match_delim(sf.text, brace)
        if close < 0:
            continue
        out.append((lineno, brace + 1, close))
    return out


def _check_file(sf: SourceFile, root: str, findings: list[Finding]) -> None:
    bodies = _hot_path_bodies(sf)
    if not bodies:
        return
    names = declared_names(sf, NODE_CONTAINER_DECL_RE, root)

    sinks = list(DIRECT_SINKS)
    if names:
        alt = "|".join(re.escape(n) for n in sorted(names))
        sinks.append((
            re.compile(rf"\b(?:{alt})\s*(?:\.|->)\s*"
                       rf"(?:insert|emplace\w*|try_emplace|push_back|"
                       rf"push_front|operator\s*\[\s*\])\s*\("),
            "insert into a node-based container allocates one heap node "
            "per element"))
        sinks.append((
            re.compile(rf"\b(?:{alt})\s*\["),
            "operator[] on a node-based container allocates on miss"))

    for ann_line, body_start, body_end in bodies:
        body = sf.text[body_start:body_end]
        for sink_re, why in sinks:
            for sm in sink_re.finditer(body):
                line = sf.line_of(body_start + sm.start())
                add_finding(
                    findings, sf, line, "hot-path-alloc", "alloc-ok",
                    f"allocation in a kernel hot path (annotated at line "
                    f"{ann_line}): {why}. Use the simulation arena, flat "
                    "storage (SmallVec/FlatHashMap), or waive with "
                    "ccsim-analyze: alloc-ok(reason) saying why this "
                    "allocation is off the per-event path")


def run(files: list[SourceFile], root: str) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        _check_file(sf, root, findings)
    return findings
