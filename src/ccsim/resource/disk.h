#ifndef CCSIM_RESOURCE_DISK_H_
#define CCSIM_RESOURCE_DISK_H_

#include <coroutine>
#include <cstdint>
#include <functional>

#include "ccsim/resource/job_fifo.h"
#include "ccsim/sim/check.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/tally.h"
#include "ccsim/stats/time_weighted.h"

namespace ccsim::resource {

enum class DiskOp { kRead, kWrite };

class Disk;

/// One disk access: the awaitable that Disk::Access returns. Like CpuJob
/// (cpu.h), `co_await` links the record into the disk's queue and suspends
/// the caller until the transfer finishes; the record lives in the awaiting
/// frame and must not move once queued.
class [[nodiscard]] DiskJob {
 public:
  DiskJob(const DiskJob&) = delete;
  DiskJob& operator=(const DiskJob&) = delete;
  DiskJob(DiskJob&& other) noexcept : disk_(other.disk_), op_(other.op_) {
    CCSIM_CHECK_MSG(!other.waiter_.parked(), "moved a queued disk job");
  }
  DiskJob& operator=(DiskJob&&) = delete;

  bool await_ready() const noexcept { return false; }
  inline void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  friend class Disk;
  friend class JobFifo<DiskJob>;

  DiskJob(Disk* disk, DiskOp op) : disk_(disk), op_(op) {}

  Disk* disk_;
  DiskOp op_;
  sim::SimTime enqueued_at_ = 0.0;
  sim::WaitSlot waiter_;
  DiskJob* next_ = nullptr;  // queue link
};

/// A single disk with its own FIFO queue. Writes have (non-preemptive)
/// priority over reads, per Sec 3.4 of the paper: the asynchronous post-commit
/// write stream must keep up with demand. Access times are uniform over
/// [min_access_time, max_access_time].
class Disk {
 public:
  Disk(sim::Simulation* sim, sim::SimTime min_access_time,
       sim::SimTime max_access_time, sim::RandomStream rng);
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  /// An access; awaiting the job queues it and returns when the transfer
  /// finishes.
  DiskJob Access(DiskOp op) { return DiskJob(this, op); }

  double Utilization() const { return busy_metric_.Mean(sim_->Now()); }
  void ResetStats();

  /// Fault hook: called once per access at service start; the returned
  /// extra seconds extend that access's busy time (a transient disk error
  /// retried in place). Null (default) = the paper's fault-free disk.
  void SetFaultHook(std::function<double()> hook) {
    fault_extra_time_ = std::move(hook);
  }

  /// Time requests spent waiting before service (since last stats reset).
  const stats::Tally& wait_times() const { return wait_times_; }
  std::uint64_t accesses_completed() const { return accesses_completed_; }
  /// Waiting accesses plus the one in service.
  std::size_t queue_length() const {
    return read_queue_.size() + write_queue_.size() +
           (in_service_ != nullptr ? 1u : 0u);
  }

 private:
  friend class DiskJob;

  void Enqueue(DiskJob* job, std::coroutine_handle<> h);
  void StartNext();
  void OnServiceDone();

  sim::Simulation* sim_;
  sim::SimTime min_time_;
  sim::SimTime max_time_;
  sim::RandomStream rng_;
  std::function<double()> fault_extra_time_;

  JobFifo<DiskJob> read_queue_;
  JobFifo<DiskJob> write_queue_;
  DiskJob* in_service_ = nullptr;

  stats::TimeWeighted busy_metric_{0.0};
  stats::Tally wait_times_;
  std::uint64_t accesses_completed_ = 0;
};

void DiskJob::await_suspend(std::coroutine_handle<> h) {
  disk_->Enqueue(this, h);
}

}  // namespace ccsim::resource

#endif  // CCSIM_RESOURCE_DISK_H_
