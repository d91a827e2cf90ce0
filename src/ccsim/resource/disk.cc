#include "ccsim/resource/disk.h"

#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::resource {

Disk::Disk(sim::Simulation* sim, sim::SimTime min_access_time,
           sim::SimTime max_access_time, sim::RandomStream rng)
    : sim_(sim),
      min_time_(min_access_time),
      max_time_(max_access_time),
      rng_(std::move(rng)) {
  CCSIM_CHECK(min_access_time >= 0.0);
  CCSIM_CHECK(max_access_time >= min_access_time);
}

// ccsim-analyze: hot-path(one call per disk access; the job is linked, not allocated)
void Disk::Enqueue(DiskJob* job, std::coroutine_handle<> h) {
  job->waiter_.Park(sim_, h);
  job->enqueued_at_ = sim_->Now();
  if (job->op_ == DiskOp::kWrite) {
    write_queue_.PushBack(job);
  } else {
    read_queue_.PushBack(job);
  }
  if (in_service_ == nullptr) StartNext();
}

// ccsim-analyze: hot-path(one call per disk access and per idle transition)
void Disk::StartNext() {
  CCSIM_CHECK(in_service_ == nullptr);
  JobFifo<DiskJob>* q =
      !write_queue_.empty() ? &write_queue_
                            : (!read_queue_.empty() ? &read_queue_ : nullptr);
  if (q == nullptr) {
    busy_metric_.Set(sim_->Now(), 0.0);
    return;
  }
  in_service_ = q->PopFront();
  busy_metric_.Set(sim_->Now(), 1.0);
  wait_times_.Record(sim_->Now() - in_service_->enqueued_at_);
  sim::SimTime service = rng_.Uniform(min_time_, max_time_);
  if (fault_extra_time_) service += fault_extra_time_();
  // ccsim-analyze: coro-ok(Disk is owned by its Node which System keeps alive past the calendar teardown)
  sim_->After(service, [this] { OnServiceDone(); });
}

// ccsim-analyze: hot-path(one call per disk access)
void Disk::OnServiceDone() {
  DiskJob* job = in_service_;
  in_service_ = nullptr;
  ++accesses_completed_;
  job->waiter_.Wake(sim_);
  StartNext();
}

void Disk::ResetStats() {
  busy_metric_.Reset(sim_->Now());
  wait_times_.Reset();
  accesses_completed_ = 0;
}

}  // namespace ccsim::resource
