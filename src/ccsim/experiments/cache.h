#ifndef CCSIM_EXPERIMENTS_CACHE_H_
#define CCSIM_EXPERIMENTS_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>

#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"

namespace ccsim::experiments {

/// Simulation-point result cache shared by the figure benchmarks.
///
/// Several figures are different views of the same sweeps (Figs 2-7 all come
/// from the machine-size experiment), so each simulation point is stored
/// under a key derived from the *full* configuration fingerprint; any figure
/// binary that needs the point first looks here. One small text file per
/// point, in the directory named by $CCSIM_CACHE_DIR (default:
/// ./ccsim_bench_cache). Delete the directory to force recomputation.
///
/// Safe for concurrent use from multiple threads and multiple processes:
/// Store writes through a unique per-writer temp file and publishes with an
/// atomic rename, and GetOrRun single-flights concurrent requests for the
/// same fingerprint within a process (one simulation, everyone gets its
/// result). Across processes the worst case is duplicate work, never a
/// corrupt entry: simulations are deterministic, so concurrent publishers
/// of one key write identical bytes.
class ResultCache {
 public:
  /// Entry files are named v<kFormatVersion>_<fingerprint>.result. Bump it
  /// whenever CCSIM_RUN_RESULT_FIELDS (engine/run.h) changes, so entries of
  /// the old format are never served (EXPERIMENTS.md, "Changing RunResult").
  static constexpr int kFormatVersion = 9;

  /// Uses $CCSIM_CACHE_DIR or the default directory. Creates it on demand.
  ResultCache();
  explicit ResultCache(std::string directory);

  std::optional<engine::RunResult> Load(
      const config::SystemConfig& config) const;

  /// Atomically publishes `result` under the config's fingerprint. Returns
  /// false when the entry could not be published (I/O error); the caller can
  /// fall back to Load in case a concurrent writer won the race.
  bool Store(const config::SystemConfig& config,
             const engine::RunResult& result) const;

  /// Loads the cached result or runs the simulation and caches it.
  /// Concurrent calls for the same configuration run one simulation; the
  /// other callers block until it is published and then load it.
  engine::RunResult GetOrRun(const config::SystemConfig& config) const;

  const std::string& directory() const { return dir_; }

  /// Number of simulations this cache object actually executed (cache
  /// misses that ran). Exposed so tests can assert single-flight behavior.
  std::uint64_t simulations_run() const {
    return simulations_run_.load(std::memory_order_relaxed);
  }

 private:
  std::string PathFor(const config::SystemConfig& config) const;
  std::string dir_;

  // Single-flight state: fingerprints currently being simulated by some
  // thread of this process. Guarded by mu_; cv_ signals completion.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::unordered_set<std::uint64_t> inflight_;
  mutable std::atomic<std::uint64_t> simulations_run_{0};
};

/// Serialization used by the cache (exposed for tests): one `name value` line
/// per CCSIM_RUN_RESULT_FIELDS entry, in list order, doubles at 17 significant
/// digits, then a `field_count N` trailer. ParseResult rejects a file whose
/// trailer is missing or does not match the number of lines read, or that
/// lacks any listed field, so a truncated file is a miss instead of a
/// silently-defaulted result. Integer counters round-trip exactly over the
/// full uint64 range.
std::string SerializeResult(const engine::RunResult& r);
std::optional<engine::RunResult> ParseResult(const std::string& text);

}  // namespace ccsim::experiments

#endif  // CCSIM_EXPERIMENTS_CACHE_H_
