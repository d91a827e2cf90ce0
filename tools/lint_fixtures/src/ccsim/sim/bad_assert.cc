// Fixture: bare assert() and direct process termination inside src/ must
// trigger bare-assert / no-abort (simulator invariants go through
// CCSIM_CHECK / CCSIM_DCHECK, which fail with simulation context). Never
// compiled.

#include <cassert>
#include <cstdlib>

void BadAssert(int x) {
  assert(x > 0);  // bare-assert
  static_assert(sizeof(int) >= 4);  // fine
}

void BadTermination(int x) {
  if (x < 0) std::abort();  // no-abort
  if (x == 0) exit(1);      // no-abort
  // ccsim-analyze: no-abort-ok(fixture exercises the waiver path)
  if (x > 100) quick_exit(2);  // waived
  BadAssert(x);  // a call named like a checker is fine: AbortCohort etc.
}
