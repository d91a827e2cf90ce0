// Fixture: coroutine-lifetime pass, violating side.
// Expected: coro-ref-capture, coro-this-capture, coro-raw-resume (one
// each), coro-unregistered-await (two: a custom awaitable, and a call whose
// name only ends like a job factory's).
#include "sim.h"

void Node::Arm() {
  int local = 0;
  sim_->After(1.0, [&local] { local++; });
  sim_->After(2.0, [this] { Tick(); });
  handle_.resume();
}

Process Node::Run() {
  co_await custom_awaitable_;
  co_await cpu_->PreExecute(1000.0, CpuJobClass::kUser);
}
