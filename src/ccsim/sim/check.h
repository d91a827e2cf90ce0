#ifndef CCSIM_SIM_CHECK_H_
#define CCSIM_SIM_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace ccsim::sim::internal {

/// Diagnostic-dump hook: when a Simulation is running it installs itself
/// here (thread-local; the parallel experiment runner executes independent
/// simulations on multiple threads), so that a fatal check failure prints
/// the simulation clock, the event being dispatched, and any registered
/// dump sections before the process dies. The hook must not throw and must
/// tolerate being re-entered (a check failing inside the dump itself).
struct CheckDumpHook {
  void (*fn)(void* arg) = nullptr;
  void* arg = nullptr;
};
inline thread_local CheckDumpHook g_check_dump;
inline thread_local bool g_check_dump_active = false;

[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "ccsim check failed: %s at %s:%d%s%s\n", expr, file,
               line, msg[0] ? ": " : "", msg);
  if (g_check_dump.fn != nullptr && !g_check_dump_active) {
    g_check_dump_active = true;
    g_check_dump.fn(g_check_dump.arg);
  }
  std::abort();  // ccsim-analyze: no-abort-ok(the one sanctioned fatal exit)
}

}  // namespace ccsim::sim::internal

/// Invariant check for simulation-internal consistency. Violations indicate a
/// bug in the simulator (never a property of the modeled system), so the
/// process aborts with a source location.
#define CCSIM_CHECK(cond)                                                 \
  do {                                                                    \
    if (!(cond))                                                          \
      ::ccsim::sim::internal::CheckFailed(#cond, __FILE__, __LINE__, ""); \
  } while (0)

#define CCSIM_CHECK_MSG(cond, msg)                                         \
  do {                                                                     \
    if (!(cond))                                                           \
      ::ccsim::sim::internal::CheckFailed(#cond, __FILE__, __LINE__, msg); \
  } while (0)

/// Audit-only invariant check: compiled to the same abort-with-location as
/// CCSIM_CHECK in CCSIM_AUDIT builds (-DCCSIM_AUDIT=ON), and to nothing in
/// normal builds. Use for sweeps that are too expensive for the hot path
/// (calendar heap ordering, lock-table queue consistency, waits-for-graph
/// integrity, 2PC phase legality).
#ifdef CCSIM_AUDIT
#define CCSIM_DCHECK(cond) CCSIM_CHECK(cond)
#define CCSIM_DCHECK_MSG(cond, msg) CCSIM_CHECK_MSG(cond, msg)
#else
// The condition is referenced in an unevaluated context so that variables
// used only by audit checks do not trigger -Wunused warnings in normal
// builds; it is never executed.
#define CCSIM_DCHECK(cond)            \
  do {                                \
    (void)sizeof((cond) ? 1 : 0);     \
  } while (0)
#define CCSIM_DCHECK_MSG(cond, msg)   \
  do {                                \
    (void)sizeof((cond) ? 1 : 0);     \
    (void)sizeof(msg);                \
  } while (0)
#endif

namespace ccsim::sim {

/// True in CCSIM_AUDIT builds; lets call sites skip the *computation* of an
/// expensive invariant sweep, not just the check.
#ifdef CCSIM_AUDIT
inline constexpr bool kAuditEnabled = true;
#else
inline constexpr bool kAuditEnabled = false;
#endif

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_CHECK_H_
