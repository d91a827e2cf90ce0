#ifndef CCSIM_SIM_COMPLETION_H_
#define CCSIM_SIM_COMPLETION_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "ccsim/sim/check.h"
#include "ccsim/sim/simulation.h"

namespace ccsim::sim {

/// Unit result for completions that carry no value.
struct Unit {};

/// A single-producer, single-consumer rendezvous that carries a value from
/// one process to another: a CC manager's AccessOutcome, a 2PC Vote, a
/// transaction's end, an admission slot, a Latch. (CPU and disk work needs
/// no rendezvous: its job record lives in the awaiting frame, see
/// resource/cpu.h.)
///
/// Usage: the facility creates a `std::shared_ptr<Completion<T>>`, hands it to
/// the requesting process (which `co_await Await(c)`s it) and keeps its own
/// reference; later it calls `Complete(value)`, which resumes the waiter via
/// the calendar at the current simulated time. `Complete` before the await is
/// fine: the awaiting process then does not suspend at all.
template <typename T>
class Completion {
 public:
  explicit Completion(Simulation* sim) : sim_(sim) {}
  Completion(const Completion&) = delete;
  Completion& operator=(const Completion&) = delete;

  bool done() const { return value_.has_value(); }

  /// Fulfills the completion. Must be called at most once.
  void Complete(T value) {
    CCSIM_CHECK_MSG(!value_.has_value(), "Completion fulfilled twice");
    value_ = std::move(value);
    if (waiter_.parked()) waiter_.Wake(sim_);
  }

  // Internal interface used by the awaiter. Parking registers the waiter
  // with the simulation's suspended-process registry, so the frame is
  // destroyed (not leaked) if the run ends before this completion is
  // fulfilled.
  void SetWaiter(std::coroutine_handle<> h) {
    CCSIM_CHECK_MSG(!waiter_.parked(), "Completion awaited twice");
    waiter_.Park(sim_, h);
  }
  T TakeValue() {
    CCSIM_CHECK(value_.has_value());
    return *std::move(value_);
  }

 private:
  Simulation* sim_;
  std::optional<T> value_;
  WaitSlot waiter_;
};

/// Awaiter that keeps the completion alive across the suspension.
template <typename T>
class CompletionAwaiter {
 public:
  explicit CompletionAwaiter(std::shared_ptr<Completion<T>> c)
      : c_(std::move(c)) {}
  bool await_ready() const noexcept { return c_->done(); }
  void await_suspend(std::coroutine_handle<> h) { c_->SetWaiter(h); }
  T await_resume() { return c_->TakeValue(); }

 private:
  std::shared_ptr<Completion<T>> c_;
};

/// `T value = co_await Await(completion);`
template <typename T>
CompletionAwaiter<T> Await(std::shared_ptr<Completion<T>> c) {
  return CompletionAwaiter<T>(std::move(c));
}

/// Creates a fresh unfulfilled completion. The object and its shared_ptr
/// control block are co-located in the simulation's arena (one per CC
/// request, 2PC vote and transaction).
template <typename T>
std::shared_ptr<Completion<T>> MakeCompletion(Simulation* sim) {
  return std::allocate_shared<Completion<T>>(
      ArenaAllocator<Completion<T>>(sim->arena()), sim);
}

/// A countdown latch: completes (with Unit) when `count` events have been
/// counted down. A zero initial count completes immediately.
class Latch {
 public:
  Latch(Simulation* sim, int count)
      : count_(count), completion_(MakeCompletion<Unit>(sim)) {
    CCSIM_CHECK(count >= 0);
    if (count_ == 0) completion_->Complete(Unit{});
  }

  void CountDown() {
    CCSIM_CHECK_MSG(count_ > 0, "Latch counted below zero");
    if (--count_ == 0) completion_->Complete(Unit{});
  }

  int count() const { return count_; }
  std::shared_ptr<Completion<Unit>> completion() { return completion_; }

 private:
  int count_;
  std::shared_ptr<Completion<Unit>> completion_;
};

}  // namespace ccsim::sim

#endif  // CCSIM_SIM_COMPLETION_H_
