#include "ccsim/resource/cpu.h"

#include <algorithm>

#include "ccsim/sim/check.h"

namespace ccsim::resource {

namespace {
// Relative slack when harvesting PS completions, to absorb floating-point
// drift in the virtual clock.
constexpr double kVirtualEps = 1e-9;
}  // namespace

Cpu::Cpu(sim::Simulation* sim, double mips) : sim_(sim), mips_(mips) {
  CCSIM_CHECK(mips > 0.0);
}

// ccsim-analyze: hot-path(one call per CPU job: every page step and message hop; the job is linked, not allocated)
bool Cpu::Enqueue(CpuJob* job, std::coroutine_handle<> h) {
  if (job->seconds_ <= 0.0) {
    ++jobs_completed_;
    return false;
  }
  job->waiter_.Park(sim_, h);
  UpdateVirtualTime();
  if (job->cls_ == CpuJobClass::kMessage) {
    msg_queue_.PushBack(job);
    if (!msg_in_service_) StartNextMessage();
    // Message service preempts PS work: the PS completion event (if any) is
    // now stale and must be pushed out.
    ReschedulePsEvent();
  } else {
    ps_jobs_.push_back(PsEntry{v_now_ + job->seconds_, ps_seq_++, job});
    std::push_heap(ps_jobs_.begin(), ps_jobs_.end(), Later);
    ReschedulePsEvent();
  }
  UpdateBusy();
  return true;
}

void Cpu::UpdateVirtualTime() {
  sim::SimTime now = sim_->Now();
  CCSIM_CHECK(now >= last_update_);
  if (!msg_in_service_ && !ps_jobs_.empty()) {
    v_now_ += (now - last_update_) / static_cast<double>(ps_jobs_.size());
  }
  last_update_ = now;
}

void Cpu::UpdateBusy() {
  bool busy = msg_in_service_ || !ps_jobs_.empty();
  busy_.Set(sim_->Now(), busy ? 1.0 : 0.0);
}

void Cpu::StartNextMessage() {
  CCSIM_CHECK(!msg_in_service_ && !msg_queue_.empty());
  msg_in_service_ = true;
  sim::SimTime duration = msg_queue_.front()->seconds_;
  // ccsim-analyze: coro-ok(Cpu is owned by its Node which System keeps alive past the calendar teardown)
  sim_->After(duration, [this] { OnMessageDone(); });
}

// ccsim-analyze: hot-path(one call per message-class CPU job)
void Cpu::OnMessageDone() {
  UpdateVirtualTime();
  CCSIM_CHECK(msg_in_service_ && !msg_queue_.empty());
  CpuJob* job = msg_queue_.PopFront();
  msg_in_service_ = false;
  ++jobs_completed_;
  job->waiter_.Wake(sim_);
  if (!msg_queue_.empty()) {
    StartNextMessage();
  } else {
    // PS work resumes; schedule its next completion.
    ReschedulePsEvent();
  }
  UpdateBusy();
}

void Cpu::ReschedulePsEvent() {
  if (ps_event_pending_) {
    sim_->Cancel(ps_event_);
    ps_event_pending_ = false;
  }
  if (msg_in_service_ || !msg_queue_.empty() || ps_jobs_.empty()) return;
  double v_min = ps_jobs_.front().v_end;
  double dv = v_min - v_now_;
  if (dv < 0.0) dv = 0.0;
  sim::SimTime dt = dv * static_cast<double>(ps_jobs_.size());
  // ccsim-analyze: coro-ok(Cpu outlives the calendar; the PS event is additionally cancelled on reschedule)
  ps_event_ = sim_->After(dt, [this] { OnPsEvent(); });
  ps_event_pending_ = true;
}

// ccsim-analyze: hot-path(one call per PS harvest; every user-class CPU job leaves through it)
void Cpu::OnPsEvent() {
  ps_event_pending_ = false;
  UpdateVirtualTime();
  CCSIM_CHECK(!ps_jobs_.empty());
  // Snap the virtual clock onto the earliest completion to absorb drift, then
  // harvest every job whose virtual end has been reached, in (v_end, seq)
  // order.
  double v_min = ps_jobs_.front().v_end;
  if (v_now_ < v_min) v_now_ = v_min;
  double cutoff = v_now_ * (1.0 + kVirtualEps) + kVirtualEps;
  while (!ps_jobs_.empty() && ps_jobs_.front().v_end <= cutoff) {
    std::pop_heap(ps_jobs_.begin(), ps_jobs_.end(), Later);
    CpuJob* job = ps_jobs_.back().job;
    ps_jobs_.pop_back();
    ++jobs_completed_;
    job->waiter_.Wake(sim_);
  }
  ReschedulePsEvent();
  UpdateBusy();
}

}  // namespace ccsim::resource
