#include "ccsim/experiments/cache.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <variant>

#include "ccsim/sim/check.h"

namespace ccsim::experiments {

namespace {
constexpr char kDefaultDir[] = "ccsim_bench_cache";

// The member's type picks the overload. Integer counters are written and
// parsed as integers: routing them through double would silently corrupt
// values above 2^53.
void WriteValue(std::ostream& out, double v) { out << v; }
void WriteValue(std::ostream& out, std::uint64_t v) { out << v; }
void WriteValue(std::ostream& out, bool v) { out << (v ? 1 : 0); }

bool ParseValue(const std::string& token, double* out) {
  if (token.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseValue(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token[0] == '-' || token[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseValue(const std::string& token, bool* out) {
  std::uint64_t v = 0;
  if (!ParseValue(token, &v)) return false;
  *out = v != 0;
  return true;
}

// One serialized field of RunResult. The table is generated from
// CCSIM_RUN_RESULT_FIELDS, so each key is its member's name, serialization
// and parsing walk the same list, and the trailer's count is derived.
struct Field {
  const char* key;
  std::variant<double engine::RunResult::*, std::uint64_t engine::RunResult::*,
               bool engine::RunResult::*>
      member;
};

#define CCSIM_CACHE_FIELD(type, name, init) \
  Field{#name, &engine::RunResult::name},
constexpr Field kFields[] = {CCSIM_RUN_RESULT_FIELDS(CCSIM_CACHE_FIELD)};
#undef CCSIM_CACHE_FIELD
constexpr std::size_t kNumFields = std::size(kFields);

// A structured binding must name every non-static data member, so a member
// added to RunResult outside CCSIM_RUN_RESULT_FIELDS fails to compile here,
// whatever its type and whether or not it fits into padding.
#define CCSIM_CACHE_FIELD_NAME(type, name, init) name,
[[maybe_unused]] void RunResultDeclaresOnlyListedFields(engine::RunResult& r) {
  [[maybe_unused]] auto& [CCSIM_RUN_RESULT_FIELDS(CCSIM_CACHE_FIELD_NAME)
                              audit_note] = r;
}
#undef CCSIM_CACHE_FIELD_NAME

}  // namespace

ResultCache::ResultCache() {
  const char* env = std::getenv("CCSIM_CACHE_DIR");
  dir_ = env != nullptr && env[0] != '\0' ? env : kDefaultDir;
}

ResultCache::ResultCache(std::string directory) : dir_(std::move(directory)) {}

std::string ResultCache::PathFor(const config::SystemConfig& config) const {
  char name[64];
  std::snprintf(name, sizeof(name), "v%d_%016" PRIx64 ".result",
                kFormatVersion, config.Fingerprint());
  return dir_ + "/" + name;
}

std::string SerializeResult(const engine::RunResult& r) {
  std::ostringstream out;
  out.precision(17);
  for (const Field& f : kFields) {
    out << f.key << ' ';
    std::visit([&](auto m) { WriteValue(out, r.*m); }, f.member);
    out << '\n';
  }
  out << "field_count " << kNumFields << '\n';
  return out.str();
}

std::optional<engine::RunResult> ParseResult(const std::string& text) {
  engine::RunResult r;
  std::istringstream in(text);
  std::string key;
  std::string token;
  std::uint64_t fields = 0;
  std::array<bool, kNumFields> seen{};
  while (in >> key) {
    if (!(in >> token)) return std::nullopt;  // key without a value
    if (key == "field_count") {
      // The trailer is written last; anything after it, a count mismatch,
      // or missing known fields marks a truncated or corrupt file.
      std::uint64_t expected = 0;
      if (!ParseValue(token, &expected)) return std::nullopt;
      if (expected != fields) return std::nullopt;
      if (in >> key) return std::nullopt;
      if (std::find(seen.begin(), seen.end(), false) != seen.end()) {
        return std::nullopt;
      }
      return r;
    }
    ++fields;
    bool known = false;
    for (std::size_t i = 0; i < kNumFields; ++i) {
      if (key != kFields[i].key) continue;
      known = true;
      auto parse = [&](auto m) { return ParseValue(token, &(r.*m)); };
      if (!std::visit(parse, kFields[i].member)) return std::nullopt;
      seen[i] = true;
      break;
    }
    if (!known) {
      // Unknown key: tolerated for forward compatibility (a newer writer's
      // extra fields still count toward its field_count trailer).
      double ignored = 0;
      std::uint64_t ignored_u = 0;
      if (!ParseValue(token, &ignored) && !ParseValue(token, &ignored_u))
        return std::nullopt;
    }
  }
  return std::nullopt;  // no trailer: truncated file
}

std::optional<engine::RunResult> ResultCache::Load(
    const config::SystemConfig& config) const {
  const std::string path = PathFor(config);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto result = ParseResult(buffer.str());
  if (!result) {
    // The entry exists but does not parse (truncated write, disk hiccup,
    // manual editing). Quarantine it under a distinct suffix so the slot
    // frees up for a clean re-run while the bytes stay available for
    // inspection, and say so once instead of silently re-simulating forever.
    std::error_code ec;
    std::filesystem::rename(path, path + ".quarantined", ec);
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "ccsim: corrupt cache entry quarantined: %s -> "
                   "%s.quarantined (rename %s)\n",
                   path.c_str(), path.c_str(),
                   ec ? ec.message().c_str() : "ok");
    }
  }
  return result;
}

bool ResultCache::Store(const config::SystemConfig& config,
                        const engine::RunResult& result) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string path = PathFor(config);
  // Unique per-writer temp name: concurrent writers (worker threads, or
  // whole processes sharing the cache directory) must never interleave
  // output into one temp file. pid disambiguates processes, the sequence
  // number disambiguates threads within one.
  static std::atomic<std::uint64_t> temp_seq{0};
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(
                    temp_seq.fetch_add(1, std::memory_order_relaxed)));
  const std::string tmp = path + suffix;
  {
    std::ofstream out(tmp);
    if (!out) return false;
    out << SerializeResult(result);
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    // Publishing failed; don't leave the temp file behind. The caller falls
    // back to Load in case a concurrent writer published meanwhile.
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    return false;
  }
  return true;
}

engine::RunResult ResultCache::GetOrRun(
    const config::SystemConfig& config) const {
  const std::uint64_t key = config.Fingerprint();
  for (;;) {
    if (auto cached = Load(config)) return *cached;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (inflight_.count(key) > 0) {
        // Another thread is simulating this point: wait for it to publish,
        // then loop back and load its result instead of duplicating work.
        cv_.wait(lock, [&] { return inflight_.count(key) == 0; });
        continue;
      }
      inflight_.insert(key);
    }
    simulations_run_.fetch_add(1, std::memory_order_relaxed);
    engine::RunResult result = engine::RunSimulation(config);
    const bool stored = Store(config, result);
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
    }
    cv_.notify_all();
    if (!stored) {
      // Prefer the published entry when one exists so every caller of this
      // key observes one canonical result.
      if (auto other = Load(config)) return *other;
    }
    return result;
  }
}

}  // namespace ccsim::experiments
