// Seeded-violation fixture for ccsim_analyze --self-test. Never compiled.
// Expected findings: 3x wall-clock, 2x random, 2x unordered-iter,
// 2x include-hygiene, 1x empty-annotation.

#include <ctime>
#include <unordered_map>
#include <unordered_set>
#include "vector"          // include-hygiene: std header in quotes
#include "../sim/check.h"  // include-hygiene: relative include

void Violations() {
  std::time_t now = time(nullptr);       // wall-clock
  (void)now;
  auto tp = std::chrono::system_clock::now();  // wall-clock
  (void)tp;
  struct timeval tv;
  gettimeofday(&tv, nullptr);            // wall-clock

  int r = rand();                        // random
  (void)r;
  std::random_device rd;                 // random

  std::unordered_map<int, int> counts;
  std::unordered_set<int> seen;
  for (const auto& [k, v] : counts) {    // unordered-iter (no annotation)
    (void)k;
    (void)v;
  }
  // ccsim-analyze: unordered-iter-ok()
  for (int x : seen) {                   // empty-annotation (reason missing)
    (void)x;
  }
}

void NotViolations() {
  // Mentions of rand() or system_clock in comments are fine.
  const char* s = "time(nullptr) in a string is fine";
  (void)s;
  std::unordered_map<int, int> audited;
  // ccsim-analyze: unordered-iter-ok(summing is commutative)
  for (const auto& [k, v] : audited) {   // waived by the line above
    (void)k;
    (void)v;
  }
}
