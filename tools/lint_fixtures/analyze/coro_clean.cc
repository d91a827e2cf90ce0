// Fixture: coroutine-lifetime pass, clean side. Expected: no findings.
// One audited this-capture waiver, one value capture, sanctioned awaits:
// Delay, Await, and the CPU and disk jobs (registered through WaitSlot).
#include "sim.h"

void Node::Arm() {
  // ccsim-analyze: coro-ok(System owns both this node and the calendar and tears the calendar down first)
  sim_->After(1.0, [this] { Tick(); });
  sim_->After(2.0, [id = id_, s = sim_] { s->Touch(id); });
}

Process Node::Run() {
  co_await sim_->Delay(1.0);
  co_await sim::Await(done_);
  co_await cpu_->Execute(1000.0, CpuJobClass::kUser);
  co_await cpu_->ExecuteSeconds(0.5, CpuJobClass::kMessage);
  co_await disk_->Access(DiskOp::kRead);
  co_await resources_->DiskAccess(DiskOp::kWrite);
}
