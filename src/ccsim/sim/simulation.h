#ifndef CCSIM_SIM_SIMULATION_H_
#define CCSIM_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ccsim/sim/arena.h"
#include "ccsim/sim/calendar.h"
#include "ccsim/sim/check.h"
#include "ccsim/sim/event_fn.h"
#include "ccsim/sim/process.h"
#include "ccsim/sim/time.h"

namespace ccsim::sim {

/// The suspended-process registry: a slab of coroutine handles indexed by a
/// token. Insert hands out the token of the cell it filled, and the token
/// travels with the wakeup, so the wakeup's Erase is one indexed store: no
/// hashing, no probing. Freed cells are reused last-in first-out. The slab
/// and its free list grow to the high-water mark of concurrently suspended
/// processes and are then allocation-free.
class SuspendedSet {
 public:
  using Token = std::uint32_t;

  Token Insert(std::coroutine_handle<> h) {
    CCSIM_CHECK_MSG(h != nullptr, "suspended a null coroutine");
    if (free_.empty()) {
      cells_.push_back(h);
      return static_cast<Token>(cells_.size() - 1);
    }
    Token t = free_.back();
    free_.pop_back();
    cells_[t] = h;
    return t;
  }

  /// Releases `t`, which must be the live token of `h`: a stale token or a
  /// handle registered under another token is a fatal error.
  void Erase(Token t, std::coroutine_handle<> h) {
    CCSIM_CHECK_MSG(t < cells_.size() && cells_[t] == h && h != nullptr,
                    "resumed a process not registered under its token");
    cells_[t] = nullptr;
    free_.push_back(t);
  }

  std::size_t size() const { return cells_.size() - free_.size(); }

  /// Cells ever allocated (high-water mark of concurrently suspended
  /// processes).
  std::size_t capacity() const { return cells_.size(); }

  /// Moves every handle out (teardown), in token order, and empties the
  /// registry.
  std::vector<std::coroutine_handle<>> TakeAll() {
    std::vector<std::coroutine_handle<>> out;
    out.reserve(size());
    for (std::coroutine_handle<> h : cells_) {
      if (h != nullptr) out.push_back(h);
    }
    cells_.clear();
    free_.clear();
    return out;
  }

 private:
  std::vector<std::coroutine_handle<>> cells_;  // null = free
  std::vector<Token> free_;                     // LIFO free list
};

/// The simulation executive: owns the clock and the event calendar and runs
/// the event loop. Single-threaded and deterministic.
///
/// Process wakeups (Delay, ResumeLater, and through them every Completion
/// and every CPU and disk job) are scheduled as bare coroutine handles plus
/// registry tokens in the calendar — no closure is allocated anywhere on the
/// wakeup path, and a wakeup at the current time takes the calendar's
/// same-time lane.
class Simulation {
 public:
  using EventId = Calendar::EventId;
  using SuspendToken = SuspendedSet::Token;
  static constexpr EventId kInvalidEventId = Calendar::kInvalidEventId;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  // Destruction order: suspended frames are destroyed first (their locals
  // may hold arena-backed TxnPtrs/Completions), then members in reverse
  // declaration order — the calendar (whose pending closures can hold
  // arena-backed state too) before the arena, which is declared first so it
  // dies last.
  ~Simulation() { DestroySuspendedProcesses(); }

  /// Current simulated time in seconds.
  SimTime Now() const { return now_; }

  /// The per-simulation allocation arena: coroutine frames, Completion
  /// control blocks, and Transaction state live here (see arena.h).
  /// Everything allocated from it must be released before this Simulation
  /// is destroyed; the facilities' member order guarantees that.
  Arena* arena() { return &arena_; }

  /// Schedules `handler` (a callable, or an EventFn moved in) at absolute
  /// simulated time `time`. The calendar constructs the callable in its
  /// slot, and the pop moves it once more, into the record it runs from.
  /// Scheduling into the past (time < Now()) is a fatal error, as is a NaN
  /// time.
  template <typename F>
  EventId At(SimTime time, F&& handler) {
    CCSIM_CHECK_MSG(time >= now_, "event scheduled in the past");
    return calendar_.Schedule(time, std::forward<F>(handler));
  }

  /// Schedules `handler` after a relative delay `dt` (>= 0; negative or NaN
  /// delays are a fatal error).
  template <typename F>
  EventId After(SimTime dt, F&& handler) {
    CCSIM_CHECK_MSG(dt >= 0.0, "After with negative or NaN delay");
    return At(now_ + dt, std::forward<F>(handler));
  }

  /// Cancels a pending event; returns true if it had not yet fired.
  bool Cancel(EventId id) { return calendar_.Cancel(id); }

  /// Runs until the calendar is empty or Stop() is called.
  void Run();

  /// Runs all events with time <= `end`; leaves the clock at `end` (or at the
  /// last event time if the calendar empties first and that is later).
  void RunUntil(SimTime end);

  /// Requests the event loop to stop after the currently firing event.
  void Stop() { stop_requested_ = true; }

  /// Total number of events fired so far (a cheap progress/perf metric).
  std::uint64_t events_fired() const { return events_fired_; }

  /// Number of live pending events.
  std::size_t pending_events() const { return calendar_.size(); }

  // --- Watchdog + diagnostics ------------------------------------------
  //
  // A wedged protocol (a 2PC participant waiting forever for a reply that
  // was dropped) or a livelocked one (transactions aborting and restarting
  // without any commit) used to manifest as an infinite event loop with zero
  // diagnostics. The watchdog bounds a run by total fired events and by
  // virtual time since the last domain progress notification; tripping
  // either limit is a fatal error that prints DumpDiagnostics() first.
  // While Run()/RunUntil() execute, the same dump is attached to every
  // CCSIM_CHECK failure on this thread (via the check.h dump hook).

  struct WatchdogLimits {
    std::uint64_t max_events = 0;  // 0 = unlimited
    SimTime max_stall = 0.0;       // 0 = no stall limit
  };

  /// Arms (or, with default limits, disarms) the watchdog and resets the
  /// stall clock to Now().
  void ConfigureWatchdog(WatchdogLimits limits) {
    watchdog_ = limits;
    last_progress_ = now_;
  }

  /// Domain progress notification (the engine calls this on every commit);
  /// resets the watchdog's stall clock.
  void NoteProgress() { last_progress_ = now_; }

  /// Registers a probe consulted when the stall limit would trip: if it
  /// returns true the system is legitimately idle (e.g. an open-system
  /// source at a low arrival rate with no transaction in flight) and the
  /// stall clock is reset instead of failing the run. A wedged run — stuck
  /// *with* live work — still trips. Null (the default) disables the probe.
  void SetIdleProbe(std::function<bool()> probe) {
    idle_probe_ = std::move(probe);
  }

  /// Registers a labelled section appended to DumpDiagnostics() output
  /// (the engine registers per-stream RNG positions, node states, ...).
  /// Sections must not call back into the simulation.
  void AddDumpSection(std::string label, std::function<void(std::FILE*)> fn) {
    dump_sections_.push_back({std::move(label), std::move(fn)});
  }

  /// Prints the diagnostic dump: sim clock, event counts, pending-event
  /// summary, the event being dispatched, the last-fired ring buffer
  /// (CCSIM_AUDIT builds only), and every registered section.
  void DumpDiagnostics(std::FILE* out) const;

  // --- Coroutine support -----------------------------------------------

  /// Awaitable that suspends the calling process for `dt` simulated seconds.
  /// A zero delay still goes through the calendar (yielding to other events
  /// already scheduled at the current time).
  class DelayAwaitable {
   public:
    DelayAwaitable(Simulation* sim, SimTime dt) : sim_(sim), dt_(dt) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      SuspendToken token = sim_->NoteSuspended(h);
      sim_->ScheduleResume(sim_->now_ + dt_, h, token);
    }
    void await_resume() const noexcept {}

   private:
    Simulation* sim_;
    SimTime dt_;
  };

  /// `co_await sim.Delay(t)` inside a Process.
  DelayAwaitable Delay(SimTime dt) {
    CCSIM_CHECK_MSG(dt >= 0.0, "Delay with negative or NaN duration");
    return DelayAwaitable(this, dt);
  }

  /// Resumes a suspended coroutine through the calendar at the current time.
  /// This is the only sanctioned way for facilities to wake a process. The
  /// handle must already be in the suspended-process registry under `token`
  /// (WaitSlot::Park and DelayAwaitable both register before scheduling).
  void ResumeLater(std::coroutine_handle<> h, SuspendToken token) {
    ScheduleResume(now_, h, token);
  }

  // --- Suspended-process registry --------------------------------------
  //
  // Every suspension (Delay, or a WaitSlot park: a Completion wait or a CPU
  // or disk job) records its handle here and
  // removes it when the process actually resumes. Whatever is still in the
  // registry when the Simulation is torn down is a process frame no facility
  // will ever resume again; the Simulation destroys those frames so a run
  // that ends mid-flight (RunUntil) leaks nothing.

  /// Records a coroutine as suspended, pending a calendar resume. The
  /// returned token must accompany the wakeup.
  SuspendToken NoteSuspended(std::coroutine_handle<> h) {
    return suspended_.Insert(h);
  }

  /// Resumes a registered coroutine (drops it from the registry first).
  /// Fatal unless `token` is the live registration of `h`.
  void ResumeSuspended(std::coroutine_handle<> h, SuspendToken token) {
    suspended_.Erase(token, h);
    h.resume();
  }

  /// Destroys every still-suspended process frame. Idempotent; called from
  /// the destructor. Frame locals must not call back into simulation
  /// facilities from their destructors (they are plain data in this
  /// codebase).
  void DestroySuspendedProcesses() {
    for (auto h : suspended_.TakeAll()) h.destroy();
  }

  /// Number of process frames currently suspended (tests/audits).
  std::size_t suspended_processes() const { return suspended_.size(); }

 private:
  /// Schedules a registered coroutine wakeup at absolute time `time`.
  void ScheduleResume(SimTime time, std::coroutine_handle<> h,
                      SuspendToken token) {
    CCSIM_CHECK_MSG(time >= now_, "wakeup scheduled in the past");
    calendar_.ScheduleResume(time, h, token);
  }

  /// The event loop of Run and RunUntil: fires events with time <= `end`
  /// until the calendar empties or Stop() is called.
  void Loop(SimTime end);

  /// Fires one popped event: either invoke its handler (then destroy it, so
  /// its captures go now) or resume its coroutine.
  void Dispatch(Calendar::Fired& fired) {
    if (fired.kind == EventKind::kResume) {
      ResumeSuspended(fired.resume, fired.token);
    } else {
      fired.fn();
      fired.fn.Reset();
    }
  }

  /// Records the about-to-fire event as dump context (and in the audit ring
  /// buffer), then enforces the watchdog limits. Fatal on a tripped limit.
  void BeginEvent(const Calendar::Fired& fired);

  [[noreturn]] void WatchdogFail(const char* what);

  // First member on purpose: destroyed after every other member, because
  // the calendar's pending closures and the registry's frames free into it
  // during their own destruction.
  Arena arena_;
  Calendar calendar_;
  // The event being fired: the pop moves its handler here and the loop runs
  // it in place. A member, not a loop local, so a RunUntil per event (as in
  // a caller that steps the clock) builds no record per call.
  Calendar::Fired fired_;
  SimTime now_ = 0.0;
  bool stop_requested_ = false;
  std::uint64_t events_fired_ = 0;
  SuspendedSet suspended_;

  WatchdogLimits watchdog_;
  SimTime last_progress_ = 0.0;
  std::function<bool()> idle_probe_;
  struct DumpSection {
    std::string label;
    std::function<void(std::FILE*)> fn;
  };
  std::vector<DumpSection> dump_sections_;
  // Context of the event currently being dispatched (for dumps).
  bool in_event_ = false;
  SimTime current_event_time_ = 0.0;
  bool current_event_is_resume_ = false;
  // Ring buffer of recently fired events; populated in CCSIM_AUDIT builds
  // only (an extra store per event is too much for the measured hot path).
  struct FiredRecord {
    std::uint64_t seq = 0;
    SimTime time = 0.0;
    bool is_resume = false;
  };
  static constexpr std::size_t kFiredRingSize = 32;
  std::vector<FiredRecord> fired_ring_;
};

/// The park/wake pair of every facility that suspends a process until it
/// says so (Completion, and the CPU and disk jobs of resource/). Park
/// registers the frame with the suspended-process registry and keeps its
/// token; Wake hands frame and token to the calendar's same-time lane. A
/// slot holds at most one parked frame.
class WaitSlot {
 public:
  bool parked() const { return handle_ != nullptr; }

  void Park(Simulation* sim, std::coroutine_handle<> h) {
    handle_ = h;
    token_ = sim->NoteSuspended(h);
  }

  /// Empties the slot, then schedules the parked frame's resume. Nothing
  /// touches the slot afterwards, so it may live in the frame it wakes.
  void Wake(Simulation* sim) {
    std::coroutine_handle<> h = handle_;
    handle_ = nullptr;
    sim->ResumeLater(h, token_);
  }

 private:
  std::coroutine_handle<> handle_ = nullptr;
  Simulation::SuspendToken token_ = 0;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_SIMULATION_H_
