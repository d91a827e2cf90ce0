// ccref: times a fixed reference kernel and prints its host seconds.
//
// The hosts this benchmark runs on change speed by up to about 40% over
// minutes: neighbours share their cores, caches and memory bandwidth.
// perfbench/run.py runs this program between repetitions and scales each
// repetition's host times by the kernel's nominal time over its measured
// time, which cancels most of that drift. The kernel mixes the kinds of work
// a discrete-event simulator does (a binary-heap calendar, a hash map whose
// nodes come and go, dependent loads over a 2 MB table, floating-point
// arithmetic). It is built from this file alone, so no change to libccsim
// can change its speed.

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t Next(std::uint64_t& s) {  // xorshift64
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

double Arithmetic() {
  double x = 1.0;
  for (int i = 0; i < 5'000'000; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

std::uint64_t Chase(const std::vector<std::uint32_t>& next) {
  std::uint32_t p = 0;
  for (int i = 0; i < 500'000; ++i) p = next[p];
  return p;
}

double Calendar() {
  std::priority_queue<std::pair<double, std::uint32_t>> q;
  std::uint64_t s = 1;
  for (std::uint32_t i = 0; i < 20'000; ++i) q.push({static_cast<double>(i), i});
  for (int i = 0; i < 250'000; ++i) {
    auto top = q.top();
    q.pop();
    q.push({top.first - static_cast<double>(Next(s) % 1000), top.second});
  }
  return q.top().first;
}

std::uint64_t HashChurn() {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  std::uint64_t s = 7, acc = 0;
  for (std::uint64_t i = 0; i < 600'000; ++i) {
    const std::uint64_t r = Next(s);
    if (r & 1) {
      m[r % 100'000] += i;
    } else {
      acc += m.erase(r % 100'000);
    }
  }
  return acc + m.size();
}

/// A random single cycle through 2 MB of 32-bit indices.
std::vector<std::uint32_t> ChaseTable() {
  const std::uint32_t n = 1u << 19;
  std::vector<std::uint32_t> perm(n), next(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  std::uint64_t s = 88172645463325252ull;
  for (std::uint32_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[Next(s) % (i + 1)]);
  }
  for (std::uint32_t i = 0; i < n; ++i) next[perm[i]] = perm[(i + 1) % n];
  return next;
}

/// One pass of the kernel; returns a checksum that depends on every part.
double Kernel(const std::vector<std::uint32_t>& table) {
  return Arithmetic() + static_cast<double>(Chase(table)) + Calendar() +
         static_cast<double>(HashChurn());
}

}  // namespace

int main() {
  // Freed heap memory stays mapped, so the timed pass takes no page faults.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const std::vector<std::uint32_t> table = ChaseTable();
  const double warm = Kernel(table);
  const Clock::time_point start = Clock::now();
  const double sum = Kernel(table);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  // Printing the checksums keeps the compiler from dropping the kernel.
  std::printf("%.9f %.6g\n", seconds, warm + sum);
  return 0;
}
