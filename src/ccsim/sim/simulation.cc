#include "ccsim/sim/simulation.h"

#include <cinttypes>

#include "ccsim/sim/check.h"

namespace ccsim::sim {

namespace {

// Installs `sim`'s diagnostic dump as the thread's check-failure hook for
// the duration of an event loop, restoring whatever was there before (loops
// can nest: an event handler may run a sub-simulation in tests).
class ScopedDumpHook {
 public:
  explicit ScopedDumpHook(Simulation* sim) : prev_(internal::g_check_dump) {
    internal::g_check_dump = {&Trampoline, sim};
  }
  ~ScopedDumpHook() { internal::g_check_dump = prev_; }
  ScopedDumpHook(const ScopedDumpHook&) = delete;
  ScopedDumpHook& operator=(const ScopedDumpHook&) = delete;

 private:
  static void Trampoline(void* arg) {
    static_cast<Simulation*>(arg)->DumpDiagnostics(stderr);
  }
  internal::CheckDumpHook prev_;
};

}  // namespace

void Simulation::BeginEvent(const Calendar::Fired& fired) {
  in_event_ = true;
  current_event_time_ = fired.time;
  current_event_is_resume_ = (fired.kind == EventKind::kResume);
  if constexpr (kAuditEnabled) {
    if (fired_ring_.size() < kFiredRingSize) fired_ring_.resize(kFiredRingSize);
    fired_ring_[events_fired_ % kFiredRingSize] =
        FiredRecord{events_fired_, fired.time, current_event_is_resume_};
  }
  if (watchdog_.max_events != 0 && events_fired_ > watchdog_.max_events) {
    WatchdogFail("max-events limit exceeded");
  }
  if (watchdog_.max_stall > 0.0 &&
      now_ - last_progress_ > watchdog_.max_stall) {
    if (idle_probe_ && idle_probe_()) {
      // Legitimately idle (no in-flight work to be stuck on): a quiet
      // open-system source can leave arbitrarily long gaps between
      // commits. Restart the stall clock instead of failing.
      last_progress_ = now_;
    } else {
      WatchdogFail(
          "no progress within the stall limit (wedged or livelocked)");
    }
  }
}

void Simulation::WatchdogFail(const char* what) {
  std::fprintf(stderr, "ccsim watchdog: %s\n", what);
  // Route through the sanctioned fatal path; the active dump hook (installed
  // by the running event loop) prints DumpDiagnostics before the abort.
  internal::CheckFailed("watchdog", __FILE__, __LINE__, what);
}

void Simulation::DumpDiagnostics(std::FILE* out) const {
  std::fprintf(out, "--- ccsim simulation diagnostic dump ---\n");
  std::fprintf(out, "sim clock: %.9f s\n", now_);
  std::fprintf(out, "events fired: %" PRIu64 "\n", events_fired_);
  std::fprintf(out,
               "pending events: %zu (next at %.9f s; same-time lane: %zu)\n",
               calendar_.size(), calendar_.NextTime(), calendar_.lane_size());
  std::fprintf(out, "suspended processes: %zu (registry slab: %zu cells)\n",
               suspended_.size(), suspended_.capacity());
  std::fprintf(out, "last progress (commit) at: %.9f s%s\n", last_progress_,
               watchdog_.max_stall > 0.0 ? "" : " (stall watchdog off)");
  if (in_event_) {
    std::fprintf(out, "current event: t=%.9f s kind=%s\n", current_event_time_,
                 current_event_is_resume_ ? "resume" : "handler");
  } else {
    std::fprintf(out, "current event: none (outside dispatch)\n");
  }
  if constexpr (kAuditEnabled) {
    std::fprintf(out, "last fired events (audit ring, oldest first):\n");
    if (!fired_ring_.empty()) {
      for (std::size_t i = 0; i < kFiredRingSize; ++i) {
        // Records live at slot (seq % size) with 1-based seq; the slot after
        // the newest record is the oldest, so walk forward from there.
        const FiredRecord& r =
            fired_ring_[(events_fired_ + 1 + i) % kFiredRingSize];
        if (r.seq == 0) continue;  // never-written slot
        std::fprintf(out, "  #%" PRIu64 " t=%.9f s %s\n", r.seq, r.time,
                     r.is_resume ? "resume" : "handler");
      }
    }
  } else {
    std::fprintf(out, "last fired events: unavailable (build with "
                      "-DCCSIM_AUDIT=ON for the event ring buffer)\n");
  }
  for (const DumpSection& s : dump_sections_) {
    std::fprintf(out, "[%s]\n", s.label.c_str());
    s.fn(out);
  }
  std::fprintf(out, "--- end of dump ---\n");
}

void Simulation::Loop(SimTime end) {
  // A loop run from one of its own events would pop into the record whose
  // handler is running.
  CCSIM_CHECK_MSG(!in_event_, "event loop re-entered from one of its events");
  stop_requested_ = false;
  ScopedDumpHook dump_hook(this);
  while (!stop_requested_ && calendar_.NextTime() <= end &&
         calendar_.Pop(&fired_)) {
    CCSIM_CHECK(fired_.time >= now_);
    now_ = fired_.time;
    ++events_fired_;
    BeginEvent(fired_);
    Dispatch(fired_);
    in_event_ = false;
  }
}

void Simulation::Run() { Loop(kNever); }

void Simulation::RunUntil(SimTime end) {
  CCSIM_CHECK_MSG(end >= now_, "RunUntil target in the past");
  Loop(end);
  if (now_ < end) now_ = end;
}

}  // namespace ccsim::sim
