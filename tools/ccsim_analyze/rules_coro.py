"""coroutine-lifetime pass: closures, awaits, and resumptions.

The simulator's processes are C++20 coroutines whose frames can outlive any
lexical scope (they are destroyed at teardown by the suspended-process
registry, DESIGN decision #6) and whose wakeups are calendar events that fire
long after the scheduling statement returned. PR 1 chased a frame leak and
PR 4 a double-finalize through exactly the holes this pass now guards:

  coro-ref-capture    A closure handed to the calendar (At/After/Schedule*)
                      that captures by reference outlives the enclosing
                      scope by construction; when the event fires, the
                      reference dangles. Capture by value, or waive after a
                      lifetime audit.
  coro-this-capture   A `this` captured into a calendar closure is a
                      use-after-free if the object dies before the event
                      fires or is cancelled. Most service objects in this
                      codebase do outlive the calendar (the System owns both
                      and tears the calendar down first) — each such site
                      carries a waiver recording that audit.
  coro-raw-resume     Calling .resume()/.destroy() on a coroutine handle
                      outside the simulation executive bypasses the
                      suspended-process registry and the calendar's event
                      ordering: the registry now tracks a frame that already
                      ran (teardown double-destroys it), and the resumed
                      code runs inside the resumer's stack frame instead of
                      as its own event. Only Simulation::ResumeSuspended /
                      DestroySuspendedProcesses may do this.
  coro-unregistered-await
                      `co_await` on anything other than the sanctioned
                      awaitables (Simulation::Delay, sim::Await over a
                      Completion, and the CPU and disk jobs returned by
                      Cpu::Execute/ExecuteSeconds, Disk::Access and
                      ResourceManager::DiskAccess)
                      suspends a frame the registry never learns about: it
                      leaks at teardown, and member access after resumption
                      races object destruction. New awaitable types must
                      register via NoteSuspended (the jobs do, through
                      sim::WaitSlot) and then be added to the sanctioned
                      list here. The check is by call name, so it sees only
                      jobs awaited where they are made.

All four waive with `// ccsim-analyze: coro-ok(<reason>)` on the flagged
line or the two lines above. The executive itself (src/ccsim/sim/) is the
sanctioned implementation and is skipped.
"""

from __future__ import annotations

import re

from cppmodel import (Finding, SourceFile, add_finding, match_delim,
                      split_args)

SKIP_REL_PREFIXES = ("src/ccsim/sim/",)

SCHED_CALL_RE = re.compile(r"\b(?:At|After|Schedule|ScheduleResume)\s*\(")
RAW_RESUME_RE = re.compile(r"(?:\.|->)\s*(resume|destroy)\s*\(\s*\)")
CO_AWAIT_RE = re.compile(r"\bco_await\b")
SANCTIONED_AWAIT_RE = re.compile(
    r"\b(?:Await|Delay|Execute|ExecuteSeconds|Access|DiskAccess)"
    r"\s*\(")


def _lambdas_in_call(text: str, open_idx: int, close_idx: int):
    """(capture_list_body, bracket_idx) for each lambda that appears as a
    direct argument of the call spanning text[open_idx..close_idx]."""
    out = []
    i = open_idx + 1
    while i < close_idx:
        c = text[i]
        if c == "[":
            # A lambda-introducer only where an expression may start: right
            # after '(' or ',' (subscripts follow an identifier/paren).
            j = i - 1
            while j > open_idx and text[j].isspace():
                j -= 1
            if text[j] in "(,":
                close = match_delim(text, i)
                if close < 0 or close > close_idx:
                    return out
                out.append((text[i + 1:close], i))
                i = close + 1
                continue
        if c in "({":
            # Skip nested calls/braces wholesale; we only want lambdas that
            # are themselves arguments of *this* call.
            close = match_delim(text, i)
            if close < 0 or close > close_idx:
                return out
            # ... but do descend into a lambda body's nested schedule calls?
            # No: those are found by the outer finditer anyway.
            i = close + 1
            continue
        i += 1
    return out


def _check_file(sf: SourceFile, findings: list[Finding]) -> None:
    text = sf.text

    # --- closures scheduled on the calendar ------------------------------
    for m in SCHED_CALL_RE.finditer(text):
        open_idx = text.find("(", m.start())
        close_idx = match_delim(text, open_idx)
        if close_idx < 0:
            continue
        for captures, bracket_idx in _lambdas_in_call(text, open_idx,
                                                      close_idx):
            line = sf.line_of(bracket_idx)
            for cap in split_args(captures):
                cap = cap.strip()
                if not cap:
                    continue
                if cap == "&" or (cap.startswith("&") and cap != "&&"):
                    name = cap if cap == "&" else cap.split("=")[0].strip()
                    add_finding(
                        findings, sf, line, "coro-ref-capture", "coro-ok",
                        f"closure scheduled on the calendar captures "
                        f"'{name}' by reference; the event fires after the "
                        "enclosing scope is gone. Capture by value or waive "
                        "with ccsim-analyze: coro-ok(reason) after a "
                        "lifetime audit")
                elif cap == "this":
                    add_finding(
                        findings, sf, line, "coro-this-capture", "coro-ok",
                        "closure scheduled on the calendar captures `this`; "
                        "if the object can die before the event fires (or "
                        "the event is not cancelled in the destructor) this "
                        "is a use-after-free. Waive with ccsim-analyze: "
                        "coro-ok(reason) recording why the object outlives "
                        "the calendar")

    # --- raw resume/destroy ----------------------------------------------
    for m in RAW_RESUME_RE.finditer(text):
        add_finding(
            findings, sf, sf.line_of(m.start()), "coro-raw-resume", "coro-ok",
            f"direct coroutine_handle::{m.group(1)}() outside the simulation "
            "executive bypasses the suspended-process registry and event "
            "ordering; route wakeups through Simulation::ResumeLater and "
            "teardown through the registry")

    # --- unsanctioned awaitables -----------------------------------------
    for m in CO_AWAIT_RE.finditer(text):
        semi = text.find(";", m.end())
        expr = text[m.end():semi if semi >= 0 else m.end() + 300]
        if SANCTIONED_AWAIT_RE.search(expr):
            continue
        add_finding(
            findings, sf, sf.line_of(m.start()), "coro-unregistered-await",
            "coro-ok",
            "co_await on an awaitable outside the sanctioned set "
            "(Simulation::Delay, sim::Await, CPU and disk jobs): the "
            "suspended frame is "
            "invisible to the suspended-process registry, so it leaks at "
            "teardown and member access after resumption can touch a "
            "destroyed object. Register the awaitable via NoteSuspended "
            "and add it to the sanctioned list, or waive with "
            "ccsim-analyze: coro-ok(reason)")


def run(files: list[SourceFile],
        skip_prefixes: tuple[str, ...] = SKIP_REL_PREFIXES) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if any(sf.rel.startswith(p) for p in skip_prefixes):
            continue
        _check_file(sf, findings)
    return findings
