// Clean fixture for ccsim_analyze --self-test: none of the token or
// unordered-iter rules fire here. Never compiled.

#include <chrono>
#include <map>
#include <unordered_map>
#include <vector>

void Clean() {
  // steady_clock is the allowed wall-time source (wall_seconds accounting).
  auto t0 = std::chrono::steady_clock::now();
  (void)t0;

  std::map<int, int> ordered;
  for (const auto& [k, v] : ordered) {  // ordered container: fine
    (void)k;
    (void)v;
  }

  std::unordered_map<int, int> lookup;
  auto it = lookup.find(3);  // point lookups on unordered containers: fine
  (void)it;

  std::unordered_map<int, int> sums;
  // ccsim-analyze: unordered-iter-ok(commutative sum; order cannot matter)
  for (const auto& [k, v] : sums) {
    (void)k;
    (void)v;
  }
}
