#ifndef CCSIM_RESOURCE_CPU_H_
#define CCSIM_RESOURCE_CPU_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "ccsim/resource/job_fifo.h"
#include "ccsim/sim/check.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/sim/time.h"
#include "ccsim/stats/time_weighted.h"

namespace ccsim::resource {

/// Scheduling class for CPU work, per the paper's resource manager (Sec 3.4):
/// message handling is served FIFO at higher priority; all other work shares
/// the processor (processor sharing).
enum class CpuJobClass {
  kMessage,  // FIFO, non-preemptive per job, preempts processor-sharing work
  kUser,     // processor sharing
};

class Cpu;

/// One piece of CPU work: the awaitable that Cpu::Execute returns.
/// `co_await cpu->Execute(...)` links the job into the CPU and suspends the
/// caller until the work is done. The record is the awaiter itself, so it
/// lives in the awaiting coroutine frame, which stays suspended on it until
/// its wakeup: the CPU allocates nothing per job and never touches a job
/// after waking it. A job must not move once queued; moving it before its
/// `co_await` (into a coroutine parameter, say) is fine.
class [[nodiscard]] CpuJob {
 public:
  CpuJob(const CpuJob&) = delete;
  CpuJob& operator=(const CpuJob&) = delete;
  CpuJob(CpuJob&& other) noexcept
      : cpu_(other.cpu_), seconds_(other.seconds_), cls_(other.cls_) {
    CCSIM_CHECK_MSG(!other.waiter_.parked(), "moved a queued CPU job");
  }
  CpuJob& operator=(CpuJob&&) = delete;

  bool await_ready() const noexcept { return false; }
  /// Enqueues the job; false (resume at once) for a zero demand.
  inline bool await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  friend class Cpu;
  friend class JobFifo<CpuJob>;

  CpuJob(Cpu* cpu, sim::SimTime seconds, CpuJobClass cls)
      : cpu_(cpu), seconds_(seconds), cls_(cls) {}

  Cpu* cpu_;
  sim::SimTime seconds_;
  CpuJobClass cls_;
  sim::WaitSlot waiter_;
  CpuJob* next_ = nullptr;  // message queue link
};

/// A single CPU with the paper's two-class discipline.
///
/// Implementation: classic virtual-time processor sharing. A PS job with
/// demand `d` seconds completes when the PS virtual clock has advanced by
/// `d`; the virtual clock runs at rate 1/n with n active PS jobs, and at rate
/// 0 while message-class work occupies the CPU (priority preemption of the PS
/// class as a whole).
class Cpu {
 public:
  /// `mips`: instruction rate in millions of instructions per second.
  Cpu(sim::Simulation* sim, double mips);
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// `instructions` of work in the given class; awaiting the job runs it.
  /// Zero (or negative) demand completes at once without occupying the CPU.
  CpuJob Execute(double instructions, CpuJobClass cls) {
    return CpuJob(this, sim::InstructionsToSeconds(instructions, mips_), cls);
  }

  /// Convenience: demand expressed directly in seconds.
  CpuJob ExecuteSeconds(sim::SimTime seconds, CpuJobClass cls) {
    return CpuJob(this, seconds, cls);
  }

  /// Fraction of time the CPU was busy (either class) since the last reset.
  double Utilization() const { return busy_.Mean(sim_->Now()); }
  /// Restarts utilization integration (warmup deletion).
  void ResetStats() { busy_.Reset(sim_->Now()); }

  /// Diagnostics. The message in service stays at the head of the queue and
  /// counts in messages_queued().
  std::size_t ps_jobs_active() const { return ps_jobs_.size(); }
  std::size_t messages_queued() const { return msg_queue_.size(); }
  std::uint64_t jobs_completed() const { return jobs_completed_; }

 private:
  friend class CpuJob;

  // A PS heap entry. `seq` numbers arrivals, so jobs whose virtual ends tie
  // finish in arrival order.
  struct PsEntry {
    double v_end;
    std::uint64_t seq;
    CpuJob* job;
  };
  // Comparator for std::push_heap/pop_heap: `a` ranks below `b` when it
  // finishes later, so the heap's front is the earliest (v_end, seq).
  static bool Later(const PsEntry& a, const PsEntry& b) {
    return a.v_end > b.v_end || (a.v_end == b.v_end && a.seq > b.seq);
  }

  bool Enqueue(CpuJob* job, std::coroutine_handle<> h);
  void UpdateVirtualTime();
  void UpdateBusy();
  void StartNextMessage();
  void ReschedulePsEvent();
  void OnPsEvent();
  void OnMessageDone();

  sim::Simulation* sim_;
  double mips_;

  // Message (priority, FIFO) class; the head is in service while
  // msg_in_service_.
  JobFifo<CpuJob> msg_queue_;
  bool msg_in_service_ = false;

  // Processor-sharing class: a binary min-heap on (virtual end, seq) in a
  // vector that keeps its capacity. Jobs leave only from the front.
  std::vector<PsEntry> ps_jobs_;
  std::uint64_t ps_seq_ = 0;
  double v_now_ = 0.0;
  sim::SimTime last_update_ = 0.0;
  // The one pending PS-completion event, re-armed on every quantum change
  // (arrival, message preemption, harvest). Generation-tagged ids make the
  // cancel of a just-fired event safe.
  sim::Simulation::EventId ps_event_ = sim::Simulation::kInvalidEventId;
  bool ps_event_pending_ = false;

  stats::TimeWeighted busy_;
  std::uint64_t jobs_completed_ = 0;
};

bool CpuJob::await_suspend(std::coroutine_handle<> h) {
  return cpu_->Enqueue(this, h);
}

}  // namespace ccsim::resource

#endif  // CCSIM_RESOURCE_CPU_H_
