// ccbench: runs one repetition of a benchmark workload and prints it as one
// JSON line on stdout. perfbench/run.py builds this program, runs it once
// per repetition in a fresh process, checks the digests and reduces the
// repetitions to the metrics listed in BENCHMARK.json.
//
//   ccbench --workload NAME --seed N [--window full|short] [--trace 0|1]
//           [--watchdog-events K] [--scratch DIR]
//   ccbench --build-info
//
// The points of a workload run back-to-back in this process (a closed loop
// of one client). Only calls into libccsim's public entry points are timed:
// the config builders and Validate, the engine::System constructor,
// System::Run, experiments::ParallelRunner::Run and the
// experiments::ResultCache constructor.
//
// With --trace 1 the repetition also records spans around those calls and
// schedules a sampler event of its own (Simulation::At) that reads public
// gauges; the per-layer numbers come from there. The sampler's events are
// subtracted from RunResult::events, so a traced point has the same digest
// as an untraced one.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ccsim/cc/two_phase_locking.h"
#include "ccsim/config/params.h"
#include "ccsim/engine/run.h"
#include "ccsim/engine/system.h"
#include "ccsim/experiments/cache.h"
#include "ccsim/experiments/experiments.h"
#include "ccsim/experiments/runner.h"

namespace {

using ccsim::config::CcAlgorithm;
using ccsim::config::SystemConfig;
using ccsim::engine::RunResult;
using ccsim::engine::System;
using Clock = std::chrono::steady_clock;
namespace ex = ccsim::experiments;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- JSON output --------------------------------------------------------

class Json {
 public:
  Json& Open(char bracket) {
    Sep();
    out_ += bracket;
    first_ = true;
    return *this;
  }
  Json& Close(char bracket) {
    out_ += bracket;
    first_ = false;
    return *this;
  }
  Json& Key(std::string_view key) {
    Sep();
    Str(key);
    out_ += ':';
    first_ = true;
    return *this;
  }
  Json& Value(double v) {
    Sep();
    char buf[32];
    if (v != v || v - v != 0.0) {  // NaN or infinity
      out_ += "null";
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& Value(std::uint64_t v) {
    Sep();
    out_ += std::to_string(v);
    return *this;
  }
  Json& Value(bool v) {
    Sep();
    out_ += v ? "true" : "false";
    return *this;
  }
  Json& Value(std::string_view v) {
    Sep();
    Str(v);
    return *this;
  }
  Json& Value(const char* v) { return Value(std::string_view(v)); }
  template <typename T>
  Json& Field(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }
  const std::string& str() const { return out_; }

 private:
  void Sep() {
    if (!first_) out_ += ',';
    first_ = false;
  }
  void Str(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
};

// --- Build fingerprint --------------------------------------------------

#ifndef CCBENCH_BUILD_TYPE
#define CCBENCH_BUILD_TYPE ""
#endif
#ifndef CCBENCH_SANITIZE
#define CCBENCH_SANITIZE ""
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CCBENCH_HAS_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CCBENCH_HAS_SANITIZER 1
#endif

void PrintBuildInfo() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef CCSIM_AUDIT
  const bool audit = true;
#else
  const bool audit = false;
#endif
#ifdef CCBENCH_HAS_SANITIZER
  const std::string sanitizer =
      CCBENCH_SANITIZE[0] != '\0' ? CCBENCH_SANITIZE : "detected";
#else
  const std::string sanitizer = CCBENCH_SANITIZE;
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  Json j;
  j.Open('{')
      .Field("build_type", CCBENCH_BUILD_TYPE)
      .Field("optimized", optimized)
      .Field("ndebug", ndebug)
      .Field("audit", audit)
      .Field("sanitizer", sanitizer)
#ifdef __VERSION__
      .Field("compiler", __VERSION__)
#else
      .Field("compiler", "unknown")
#endif
      .Close('}');
  std::printf("%s\n", j.str().c_str());
}

// --- Digest -------------------------------------------------------------

// Every RunResult field except wall_seconds, in declaration order.
#define CCBENCH_RESULT_FIELDS(X)                                              \
  X(throughput) X(mean_response_time) X(rt_ci_half_width)                     \
  X(max_response_time) X(rt_p50) X(rt_p90) X(rt_p99) X(rt_p999)              \
  X(mean_queue_time) X(mean_exec_time) X(mean_commit_wait_time)               \
  X(mean_restart_wasted_time) X(mean_active_txns) X(commits) X(aborts)        \
  X(abort_ratio) X(aborts_local_deadlock) X(aborts_global_deadlock)           \
  X(aborts_wound) X(aborts_timestamp) X(aborts_certification) X(aborts_die)   \
  X(aborts_timeout) X(host_cpu_util) X(proc_cpu_util) X(disk_util)            \
  X(mean_blocking_time) X(blocked_waits) X(messages_per_commit)               \
  X(availability) X(goodput) X(node_crashes) X(messages_dropped)              \
  X(messages_lost) X(aborts_node_crash) X(aborts_comm_timeout)                \
  X(forced_terminations) X(txns_offered) X(txns_admitted) X(txns_shed)        \
  X(txns_deadline_missed) X(txns_retry_exhausted) X(goodput_deadline)         \
  X(admission_queue_mean) X(admission_queue_max) X(net_batches_sent)          \
  X(net_msgs_batched) X(net_local_fast_deliveries) X(net_rdma_ops)            \
  X(net_bytes_sent) X(net_link_wait_sec_mean) X(transactions_submitted)       \
  X(live_at_end) X(events) X(sim_seconds) X(audited) X(serializable)

// A field added to RunResult but not to the list above would drop out of the
// digest, so a change to it would pass as correct. The listed fields, plus
// wall_seconds and audit_note, must fill RunResult up to its tail padding.
#define CCBENCH_FIELD_SIZE(f) +sizeof(RunResult::f)
constexpr std::size_t kDigestedBytes =
    0 CCBENCH_RESULT_FIELDS(CCBENCH_FIELD_SIZE) +
    sizeof(RunResult::wall_seconds) + sizeof(RunResult::audit_note);
#undef CCBENCH_FIELD_SIZE
static_assert(sizeof(RunResult) - kDigestedBytes < alignof(RunResult),
              "RunResult has a field that CCBENCH_RESULT_FIELDS lacks");

class Fnv1a {
 public:
  void Add(std::string_view s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  void Field(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", name, v);
    Add(buf);
  }
  void Field(const char* name, std::uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%" PRIu64 "\n", name, v);
    Add(buf);
  }
  void Field(const char* name, bool v) { Field(name, std::uint64_t{v}); }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string Digest(const RunResult& r) {
  Fnv1a h;
#define CCBENCH_HASH_FIELD(f) h.Field(#f, r.f);
  CCBENCH_RESULT_FIELDS(CCBENCH_HASH_FIELD)
#undef CCBENCH_HASH_FIELD
  h.Add(r.audit_note);
  return h.Hex();
}

// --- Workloads ----------------------------------------------------------

struct Window {
  double warmup_sec;
  double measure_sec;
};

struct PointSpec {
  std::string name;
  std::function<SystemConfig()> build;  // one of the experiments builders
};

struct WorkloadSpec {
  std::string name;
  Window full;
  Window shortw;
  bool via_runner = false;  // ParallelRunner sweep instead of direct runs
  std::vector<PointSpec> points;
};

constexpr int kRunnerWorkers = 2;

// Set-up rounds per repetition (config build + Validate + System
// constructor for every point); their median is the setup_s metric.
constexpr int kSetupProbes = 5;

std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> w;
  w.push_back({"exp1_2pl_t0", {50, 250}, {10, 30}, false,
               {{"2PL/t0", [] {
                  return ex::Exp1Config(8, CcAlgorithm::kTwoPhaseLocking, 0);
                }}}});
  w.push_back({"msg_heavy", {60, 300}, {5, 20}, false,
               {{"2PL/plain", [] {
                  return ex::MessageHeavyConfig(
                      CcAlgorithm::kTwoPhaseLocking, false);
                }}}});
  WorkloadSpec sweep{"exp1_sweep", {30, 120}, {5, 15}, true, {}};
  for (CcAlgorithm alg :
       {CcAlgorithm::kNoDc, CcAlgorithm::kWoundWait,
        CcAlgorithm::kBasicTimestamp, CcAlgorithm::kOptimistic}) {
    for (double think : {0.0, 8.0}) {
      char name[32];
      std::snprintf(name, sizeof name, "%s/t%g",
                    ccsim::config::ToString(alg), think);
      sweep.points.push_back(
          {name, [alg, think] { return ex::Exp1Config(8, alg, think); }});
    }
  }
  w.push_back(std::move(sweep));
  w.push_back({"megascale_256", {10, 30}, {2, 5}, false,
               {{"2PL/t8", [] {
                  return ex::MegascaleConfig(
                      256, CcAlgorithm::kTwoPhaseLocking, 8);
                }}}});
  return w;
}

// --- Spans --------------------------------------------------------------

// Spans are kept in memory and printed with the repetition's result; they
// cost two clock reads each whether or not they are kept.
struct Span {
  int point = 0;   // all spans of one simulation point share this id
  int id = 0;
  int parent = -1;
  std::string name;
  double start_s = 0.0;  // since the tracer was created
  double end_s = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  Clock::time_point origin() const { return origin_; }
  int Add(Span s) {
    if (!on_) return -1;
    s.id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  Span& at(int id) { return spans_[static_cast<std::size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times one call into the library; records it as a span when tracing.
class Timed {
 public:
  Timed(Tracer& tracer, int point, int parent, const char* name)
      : tracer_(tracer), start_(Clock::now()) {
    id_ = tracer_.Add({point, 0, parent, name,
                       Seconds(tracer_.origin(), start_), 0.0});
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  int id() const { return id_; }

  /// Ends the span; returns its duration in seconds.
  double Stop() {
    Clock::time_point end = Clock::now();
    if (id_ >= 0) tracer_.at(id_).end_s = Seconds(tracer_.origin(), end);
    return Seconds(start_, end);
  }

 private:
  Tracer& tracer_;
  Clock::time_point start_;
  int id_ = -1;
};

// --- Sampler ------------------------------------------------------------

// Off every model time grid: the 1 s deadlock-detection interval, the
// warmup/measure boundaries and the workload's fixed delays are all round
// numbers, and 987654321 shares no factor with 10^9, so no sample time
// coincides with a model event time.
constexpr double kSampleInterval = 0.987654321;

struct Gauges {
  std::uint64_t samples = 0;
  double pending_sum = 0, suspended_sum = 0, live_sum = 0;
  double locked_pages_sum = 0, lock_waiters_sum = 0;
  double msg_queue_sum = 0, disk_queue_sum = 0;
  double arena_reserved_max = 0;
  // Host stamps bracketing warmup and measurement, from the samples.
  double warm_host = 0, warm_sim = 0;     // span of samples before warmup end
  double measure_host = 0, measure_sim = 0;  // span of samples after it
};

class Sampler {
 public:
  Sampler(System& system, double warmup_end)
      : system_(system), warmup_end_(warmup_end) {
    for (int n = 1; n < system_.num_nodes(); ++n) {
      if (auto* m = dynamic_cast<const ccsim::cc::TwoPhaseLockingManager*>(
              system_.cc_at(n))) {
        lock_managers_.push_back(m);
      }
    }
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Arm() { Schedule(); }
  std::uint64_t fired() const { return fired_; }
  const Gauges& gauges() const { return g_; }

 private:
  void Schedule() {
    system_.sim().At(static_cast<double>(fired_ + 1) * kSampleInterval,
                     [this] { Sample(); });
  }

  void Sample() {
    ++fired_;
    Clock::time_point host = Clock::now();
    double now = system_.sim().Now();
    ccsim::sim::Simulation& sim = system_.sim();
    g_.samples++;
    g_.pending_sum += static_cast<double>(sim.pending_events());
    g_.suspended_sum += static_cast<double>(sim.suspended_processes());
    g_.live_sum +=
        static_cast<double>(system_.coordinator().live_transactions());
    g_.arena_reserved_max =
        std::max(g_.arena_reserved_max,
                 static_cast<double>(sim.arena()->bytes_reserved()));
    for (int n = 0; n < system_.num_nodes(); ++n) {
      auto& res = system_.resources(n);
      g_.msg_queue_sum += static_cast<double>(res.cpu().messages_queued());
      for (int d = 0; d < res.num_disks(); ++d) {
        g_.disk_queue_sum += static_cast<double>(res.disk(d).queue_length());
      }
    }
    for (const auto* m : lock_managers_) {
      g_.locked_pages_sum +=
          static_cast<double>(m->lock_table().num_locked_pages());
      g_.lock_waiters_sum +=
          static_cast<double>(m->lock_table().num_waiting_requests());
    }
    if (fired_ == 1) {
      first_host_ = last_warm_host_ = host;
      first_sim_ = last_warm_sim_ = now;
    }
    if (now < warmup_end_) {
      g_.warm_host = Seconds(first_host_, host);
      g_.warm_sim = now - first_sim_;
      last_warm_host_ = host;
      last_warm_sim_ = now;
    } else {
      g_.measure_host = Seconds(last_warm_host_, host);
      g_.measure_sim = now - last_warm_sim_;
    }
    Schedule();
  }

  System& system_;
  double warmup_end_;
  std::vector<const ccsim::cc::TwoPhaseLockingManager*> lock_managers_;
  std::uint64_t fired_ = 0;
  Gauges g_;
  Clock::time_point first_host_{}, last_warm_host_{};
  double first_sim_ = 0, last_warm_sim_ = 0;
};

// --- One repetition -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  bool short_window = false;
  bool trace = false;
  std::uint64_t watchdog_events = 0;
  std::string scratch = ".";
};

struct PointResult {
  std::string name;
  RunResult r;
  double run_s = 0.0;    // inside System::Run (direct runs)
  double build_s = 0.0;  // System constructor (direct runs)
  Clock::time_point ctor_start{}, run_end{};
  std::uint64_t pages = 0;
  // End-of-run counts read from public accessors (traced direct runs).
  std::uint64_t cpu_jobs = 0, disk_accesses = 0, messages = 0;
  std::uint64_t snoop_rounds = 0, arena_allocs = 0;
  Gauges g;
};

SystemConfig MakeConfig(const PointSpec& p, const WorkloadSpec& w,
                        const Options& o) {
  SystemConfig cfg = p.build();
  const Window& win = o.short_window ? w.shortw : w.full;
  cfg.run.warmup_sec = win.warmup_sec;
  cfg.run.measure_sec = win.measure_sec;
  cfg.run.seed = o.seed;
  cfg.run.watchdog_max_events = o.watchdog_events;
  return cfg;
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "ccbench: %s\n", what.c_str());
  std::exit(2);
}

/// Builds and validates one point's config, timing both calls.
SystemConfig BuildConfig(const PointSpec& p, const WorkloadSpec& w,
                         const Options& o, Tracer& tracer, int point,
                         int parent) {
  Timed t_cfg(tracer, point, parent, "config.build");
  SystemConfig cfg = MakeConfig(p, w, o);
  t_cfg.Stop();
  Timed t_val(tracer, point, parent, "config.Validate");
  std::string err = cfg.Validate();
  t_val.Stop();
  if (!err.empty()) Die(p.name + ": invalid config: " + err);
  return cfg;
}

/// Builds, validates, constructs and runs one point directly.
PointResult RunDirect(const PointSpec& p, const WorkloadSpec& w,
                      const Options& o, Tracer& tracer, int point,
                      bool sample) {
  PointResult out;
  out.name = p.name;
  Timed whole(tracer, point, -1, "point");
  SystemConfig cfg = BuildConfig(p, w, o, tracer, point, whole.id());

  out.ctor_start = Clock::now();
  Timed t_ctor(tracer, point, whole.id(), "engine.System");
  auto system = std::make_unique<System>(cfg);
  out.build_s = t_ctor.Stop();
  out.pages = static_cast<std::uint64_t>(cfg.database.total_pages());

  std::unique_ptr<Sampler> sampler;
  if (sample) {
    sampler = std::make_unique<Sampler>(*system, cfg.run.warmup_sec);
    sampler->Arm();
  }
  Timed t_run(tracer, point, whole.id(), "engine.System.Run");
  out.r = system->Run();
  out.run_s = t_run.Stop();
  out.run_end = Clock::now();

  if (sampler) {
    out.r.events -= sampler->fired();
    out.g = sampler->gauges();
  }
  for (int n = 0; n < system->num_nodes(); ++n) {
    auto& res = system->resources(n);
    out.cpu_jobs += res.cpu().jobs_completed();
    for (int d = 0; d < res.num_disks(); ++d) {
      out.disk_accesses += res.disk(d).accesses_completed();
    }
  }
  out.messages = system->network().messages_sent();
  out.snoop_rounds =
      system->snoop() != nullptr ? system->snoop()->detection_rounds() : 0;
  out.arena_allocs = system->sim().arena()->total_allocations();
  whole.Stop();
  return out;
}

void PrintPoints(Json& j, std::string_view key,
                 const std::vector<PointResult>& points) {
  j.Key(key).Open('[');
  for (const PointResult& p : points) {
    j.Open('{')
        .Field("name", p.name)
        .Field("digest", Digest(p.r))
        .Field("wall_seconds", p.r.wall_seconds)
        .Close('}');
  }
  j.Close(']');
}

/// Per-layer numbers of a traced repetition, named as in BENCHMARK.json.
void PrintLayers(Json& j, const std::vector<PointResult>& direct) {
  double run_s = 0, build_s = 0, pages = 0, events = 0;
  double warm_host = 0, warm_sim = 0, measure_host = 0, measure_sim = 0;
  double samples = 0, pending = 0, suspended = 0, live = 0, locked = 0;
  double waiters = 0, msg_q = 0, disk_q = 0, arena_mb = 0, allocs = 0;
  double cpu_jobs = 0, disk_accesses = 0, messages = 0, snoop = 0;
  double host_util = 0, disk_util = 0, mpl = 0, msg_weighted = 0;
  double commits = 0, aborts = 0, blocked = 0, deadlock = 0, cert = 0;
  double ts = 0, wounds = 0;
  for (const PointResult& p : direct) {
    const RunResult& r = p.r;
    run_s += p.run_s;
    build_s += p.build_s;
    pages += static_cast<double>(p.pages);
    events += static_cast<double>(r.events);
    warm_host += p.g.warm_host;
    warm_sim += p.g.warm_sim;
    measure_host += p.g.measure_host;
    measure_sim += p.g.measure_sim;
    samples += static_cast<double>(p.g.samples);
    pending += p.g.pending_sum;
    suspended += p.g.suspended_sum;
    live += p.g.live_sum;
    locked += p.g.locked_pages_sum;
    waiters += p.g.lock_waiters_sum;
    msg_q += p.g.msg_queue_sum;
    disk_q += p.g.disk_queue_sum;
    arena_mb = std::max(arena_mb, p.g.arena_reserved_max / (1024.0 * 1024.0));
    allocs += static_cast<double>(p.arena_allocs);
    cpu_jobs += static_cast<double>(p.cpu_jobs);
    disk_accesses += static_cast<double>(p.disk_accesses);
    messages += static_cast<double>(p.messages);
    snoop += static_cast<double>(p.snoop_rounds);
    host_util += r.host_cpu_util;
    disk_util += r.disk_util;
    mpl += r.mean_active_txns;
    msg_weighted += r.messages_per_commit * static_cast<double>(r.commits);
    commits += static_cast<double>(r.commits);
    aborts += static_cast<double>(r.aborts);
    blocked += static_cast<double>(r.blocked_waits);
    deadlock +=
        static_cast<double>(r.aborts_local_deadlock + r.aborts_global_deadlock);
    cert += static_cast<double>(r.aborts_certification);
    ts += static_cast<double>(r.aborts_timestamp);
    wounds += static_cast<double>(r.aborts_wound);
  }
  const double n = static_cast<double>(direct.size());
  auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  j.Key("layers").Open('{')
      .Field("engine.run_s", run_s)
      .Field("engine.host_ns_per_event", per(run_s * 1e9, events))
      .Field("engine.build_s", build_s)
      .Field("db.pages", pages)
      .Field("engine.host_s_per_sim_s.warmup", per(warm_host, warm_sim))
      .Field("engine.host_s_per_sim_s.measure", per(measure_host, measure_sim))
      .Field("sim.events", events)
      .Field("sim.calendar_depth_mean", per(pending, samples))
      .Field("sim.arena_reserved_mb", arena_mb)
      .Field("sim.arena_allocs", allocs)
      .Field("sim.suspended_mean", per(suspended, samples))
      .Field("resource.cpu_jobs", cpu_jobs)
      .Field("resource.msg_queue_mean", per(msg_q, samples))
      .Field("resource.host_cpu_util", per(host_util, n))
      .Field("resource.disk_accesses", disk_accesses)
      .Field("resource.disk_queue_mean", per(disk_q, samples))
      .Field("resource.disk_util", per(disk_util, n))
      .Field("net.messages", messages)
      .Field("net.messages_per_commit", per(msg_weighted, commits))
      .Field("cc.locked_pages_mean", per(locked, samples))
      .Field("cc.lock_waiters_mean", per(waiters, samples))
      .Field("cc.blocked_waits", blocked)
      .Field("cc.snoop_rounds", snoop)
      .Field("cc.deadlock_aborts", deadlock)
      .Field("cc.cert_failures", cert)
      .Field("cc.ts_rejections", ts)
      .Field("cc.wounds", wounds)
      .Field("txn.commits", commits)
      .Field("txn.aborts", aborts)
      .Field("txn.useful_ratio", per(commits, commits + aborts))
      .Field("txn.live_mean", per(live, samples))
      .Field("workload.mpl_mean", per(mpl, n))
      .Close('}');
  j.Key("bases").Open('{')
      .Field("points", n)
      .Field("samples", samples)
      .Field("warmup_host_s", warm_host)
      .Field("warmup_sim_s", warm_sim)
      .Field("measure_host_s", measure_host)
      .Field("measure_sim_s", measure_sim)
      .Close('}');
}

void PrintSpans(Json& j, const Tracer& tracer) {
  j.Key("spans").Open('[');
  for (const Span& s : tracer.spans()) {
    j.Open('{')
        .Field("point", static_cast<std::uint64_t>(s.point))
        .Field("id", static_cast<std::uint64_t>(s.id))
        .Key("parent");
    if (s.parent < 0) {
      j.Value("");
    } else {
      j.Value(static_cast<std::uint64_t>(s.parent));
    }
    j.Field("name", s.name)
        .Field("start_s", s.start_s)
        .Field("end_s", s.end_s)
        .Close('}');
  }
  j.Close(']');
}

/// One set-up round: every point's config built, validated and its System
/// constructed (destruction is not timed). Returns the summed seconds.
double SetupRound(const WorkloadSpec& w, const Options& o) {
  Tracer off(false);
  double total = 0.0;
  for (const PointSpec& p : w.points) {
    Clock::time_point start = Clock::now();
    SystemConfig cfg = BuildConfig(p, w, o, off, 0, -1);
    auto system = std::make_unique<System>(cfg);
    total += Seconds(start, Clock::now());
  }
  return total;
}

/// Peak resident set of this process image in MB: VmHWM, which restarts at
/// exec. (ru_maxrss keeps the high-water mark of the forking parent.)
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(f);
  return kib / 1024.0;
}

int RunRepetition(const Options& o) {
  std::vector<WorkloadSpec> all = Workloads();
  auto it = std::find_if(all.begin(), all.end(),
                         [&](const WorkloadSpec& w) {
                           return w.name == o.workload;
                         });
  if (it == all.end()) Die("unknown workload '" + o.workload + "'");
  const WorkloadSpec& w = *it;
  Tracer tracer(o.trace);

  Json j;
  j.Open('{')
      .Field("workload", w.name)
      .Field("seed", o.seed)
      .Field("window", o.short_window ? "short" : "full")
      .Field("trace", o.trace);

  double wall_s = 0.0, run_s = 0.0;
  std::uint64_t commits = 0;
  std::vector<PointResult> direct;
  if (!w.via_runner) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      direct.push_back(RunDirect(w.points[i], w, o, tracer,
                                 static_cast<int>(i), o.trace));
      run_s += direct.back().run_s;
      commits += direct.back().r.commits;
    }
    wall_s = Seconds(direct.front().ctor_start, direct.back().run_end);
    PrintPoints(j, "points", direct);
    j.Key("runner").Open('{')
        .Field("workers", std::uint64_t{1})
        .Field("makespan_s", wall_s)
        .Field("simulations_run", static_cast<std::uint64_t>(direct.size()))
        .Close('}');
  } else {
    // The sweep: configs built and validated here, simulated through the
    // ParallelRunner into a fresh, empty ResultCache, then served warm.
    const int root = static_cast<int>(w.points.size());  // sweep-level id
    Timed sweep(tracer, root, -1, "sweep");
    std::vector<SystemConfig> configs;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      configs.push_back(BuildConfig(w.points[i], w, o, tracer,
                                    static_cast<int>(i), sweep.id()));
    }
    std::filesystem::path dir =
        std::filesystem::path(o.scratch) / "result_cache";
    std::filesystem::remove_all(dir);  // left over if a repetition crashed
    Timed t_cache(tracer, root, sweep.id(), "experiments.ResultCache");
    ex::ResultCache cache(dir.string());
    t_cache.Stop();
    ex::ParallelRunner runner(cache, {kRunnerWorkers, /*verbose=*/false});

    Timed t_cold(tracer, root, sweep.id(), "experiments.ParallelRunner.Run");
    std::vector<RunResult> cold = runner.Run(configs);
    wall_s = t_cold.Stop();
    Timed t_warm(tracer, root, sweep.id(),
                 "experiments.ParallelRunner.Run.warm");
    std::vector<RunResult> warm = runner.Run(configs);
    double warm_s = t_warm.Stop();
    sweep.Stop();
    std::filesystem::remove_all(dir);

    run_s = wall_s;
    std::vector<PointResult> cold_points, warm_points;
    for (std::size_t i = 0; i < cold.size(); ++i) {
      cold_points.emplace_back().name = w.points[i].name;
      cold_points.back().r = cold[i];
      warm_points.emplace_back().name = w.points[i].name;
      warm_points.back().r = warm[i];
      commits += cold[i].commits;
    }
    PrintPoints(j, "points", cold_points);
    PrintPoints(j, "warm_points", warm_points);
    j.Key("runner").Open('{')
        .Field("workers", static_cast<std::uint64_t>(kRunnerWorkers))
        .Field("makespan_s", wall_s)
        .Field("warm_s", warm_s)
        .Field("simulations_run", cache.simulations_run())
        .Close('}');

    if (o.trace) {
      // The runner's workers own their Systems, so the gauges come from a
      // second, sampled pass over the same points run directly.
      for (std::size_t i = 0; i < w.points.size(); ++i) {
        direct.push_back(RunDirect(w.points[i], w, o, tracer,
                                   static_cast<int>(i), true));
      }
      PrintPoints(j, "sampled_points", direct);
    }
  }
  // Read before the set-up rounds, whose allocations are not the workload's.
  const double peak_rss_mb = PeakRssMb();
  j.Key("setup_probes_s").Open('[');
  for (int k = 0; k < kSetupProbes; ++k) j.Value(SetupRound(w, o));
  j.Close(']');
  j.Field("wall_s", wall_s)
      .Field("run_s", run_s)
      .Field("commits", commits);
  if (o.trace) {
    PrintLayers(j, direct);
    PrintSpans(j, tracer);
  }
  j.Field("peak_rss_mb", peak_rss_mb).Close('}');
  std::printf("%s\n", j.str().c_str());
  return 0;
}

std::uint64_t ParseU64(const char* flag, const char* v) {
  char* end = nullptr;
  unsigned long long x = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0') Die(std::string("bad value for ") + flag);
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string_view a = argv[i];
    if (a == "--build-info") {
      PrintBuildInfo();
      return 0;
    }
    if (i + 1 >= argc) Die("missing value for " + std::string(a));
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = ParseU64("--seed", v);
    } else if (a == "--window") {
      if (std::strcmp(v, "short") != 0 && std::strcmp(v, "full") != 0) {
        Die("--window must be short or full");
      }
      o.short_window = std::strcmp(v, "short") == 0;
    } else if (a == "--trace") {
      o.trace = ParseU64("--trace", v) != 0;
    } else if (a == "--watchdog-events") {
      o.watchdog_events = ParseU64("--watchdog-events", v);
    } else if (a == "--scratch") {
      o.scratch = v;
    } else {
      Die("unknown flag " + std::string(a));
    }
  }
  if (o.workload.empty()) Die("--workload is required");
  return RunRepetition(o);
}
