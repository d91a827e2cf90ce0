#include "ccsim/engine/system.h"

#include <chrono>
#include <utility>

#include "ccsim/cc/cc_factory.h"
#include "ccsim/cc/two_phase_locking.h"
#include "ccsim/db/placement.h"
#include "ccsim/sim/check.h"
#include "ccsim/sim/stream_ids.h"

namespace ccsim::engine {

using sim::stream_ids::kNodeVariateStreamBase;

namespace {

// Runs before any member is built from the config, so an invalid one fails
// with Validate()'s message rather than a later component's check.
const config::SystemConfig& Validated(const config::SystemConfig& config) {
  std::string error = config.Validate();
  CCSIM_CHECK_MSG(error.empty(), error.c_str());
  return config;
}

}  // namespace

System::System(const config::SystemConfig& config)
    : config_(Validated(config)),
      catalog_(config.database,
               db::ComputePlacement(config.database,
                                    config.machine.num_proc_nodes,
                                    config.placement.degree)),
      rt_batches_(config.run.rt_batch_size),
      // Log-bucketed over [2^-20 s, 2^13 s) ~ [0.95 us, 8192 s): covers
      // every response time a valid configuration can produce at <= ~1.6%
      // relative quantile error throughout (DESIGN.md decision #11).
      rt_histogram_(-20, 13) {
  int total_nodes = config_.machine.num_proc_nodes + 1;
  nodes_.reserve(static_cast<std::size_t>(total_nodes));
  std::vector<resource::Cpu*> cpus;
  for (NodeId id = 0; id < total_nodes; ++id) {
    nodes_.push_back(MakeNode(&sim_, config_, id));
    nodes_.back().cc = cc::CreateCcManager(config_.algorithm, this, id);
    cpus.push_back(&nodes_.back().resources->cpu());
    node_rngs_.push_back(std::make_unique<sim::RandomStream>(
        config_.run.seed,
        kNodeVariateStreamBase + static_cast<std::uint64_t>(id)));
  }
  network_ = std::make_unique<net::Network>(
      &sim_, std::move(cpus), config_.costs.inst_per_msg, config_.net);

  if (config_.workload.fake_restarts) {
    restart_rng_ = std::make_unique<sim::RandomStream>(
        config_.run.seed, sim::stream_ids::kFakeRestartStream);
  }

  cohort_service_ = std::make_unique<txn::CohortService>(this);
  coordinator_ =
      std::make_unique<txn::CoordinatorService>(this, cohort_service_.get());

  // The source hands transactions to the coordinator. The open system
  // (overload extension) only changes that hand-off: the source becomes one
  // Poisson arrival process, optionally behind the admission controller.
  workload::Source::SubmitFn submit = [this](workload::TransactionSpec spec) {
    return coordinator_->Submit(std::move(spec));
  };
  if (config_.overload.open_system()) {
    submit = [this](workload::TransactionSpec spec) {
      // An arrival into an *empty* system restarts the stall clock: the
      // preceding idle gap was the arrival process's silence, not a lack
      // of progress. A wedged system is never empty, so stuck runs still
      // accumulate stall time arrival after arrival.
      if (coordinator_->live_transactions() == 0) sim_.NoteProgress();
      return coordinator_->Submit(std::move(spec));
    };
    if (config_.overload.max_in_flight > 0) {
      admission_ = std::make_unique<workload::AdmissionController>(
          &sim_, &config_.overload, std::move(submit));
      submit = [this](workload::TransactionSpec spec) {
        return admission_->Offer(std::move(spec));
      };
    }
    // A quiet arrival process leaves long legitimately idle gaps between
    // events; teach the stall watchdog to recognize idleness (nothing live,
    // nothing queued) so low-rate runs are not misdiagnosed as wedged.
    sim_.SetIdleProbe([this] {
      return coordinator_->live_transactions() == 0 &&
             (!admission_ || admission_->queue_depth() == 0);
    });
  }
  source_ = std::make_unique<workload::Source>(
      &sim_, &config_, &catalog_, std::move(submit), admission_.get());

  if (config_.faults.any()) {
    // The fault layer exists only when some rate is nonzero; otherwise no
    // injector, no network policy, no timers - the event stream (and thus
    // every determinism digest) is identical to the failure-free machine.
    fault_injector_ = std::make_unique<fault::FaultInjector>(this);
    net::Network::FaultPolicy policy;
    if (config_.faults.msg_drop_prob > 0.0) {
      policy.should_drop = [this](NodeId from, NodeId to, net::MsgTag tag) {
        return fault_injector_->ShouldDropMessage(from, to, tag);
      };
      policy.max_retries = config_.faults.max_msg_retries;
      policy.retry_backoff_sec = config_.faults.retry_backoff_sec;
    }
    if (config_.faults.node_mttf_sec > 0.0) {
      policy.node_up = [this](NodeId id) { return NodeUp(id); };
    }
    network_->SetFaultPolicy(std::move(policy));
    if (config_.faults.disk_error_prob > 0.0) {
      for (NodeId id = 1; id <= config_.machine.num_proc_nodes; ++id) {
        resources(id).SetDiskFaultHook(
            [this] { return fault_injector_->DiskErrorDelay(); });
      }
    }
  }

  // Diagnostic dump sections for the watchdog / CCSIM_CHECK failure path.
  sim_.AddDumpSection("engine", [this](std::FILE* out) {
    std::fprintf(out, "algorithm=%s live_txns=%zu commits=%llu aborts=%llu\n",
                 config::ToString(config_.algorithm),
                 coordinator_->live_transactions(),
                 static_cast<unsigned long long>(coordinator_->commits()),
                 static_cast<unsigned long long>(coordinator_->aborts()));
    for (const Node& node : nodes_) {
      if (!node.is_host && !node.up) {
        std::fprintf(out, "node %d: DOWN\n", node.id);
      }
    }
    if (admission_) {
      std::fprintf(out,
                   "admission: in_flight=%d queue=%d offered=%llu shed=%llu\n",
                   admission_->in_flight(), admission_->queue_depth(),
                   static_cast<unsigned long long>(admission_->offered()),
                   static_cast<unsigned long long>(admission_->shed()));
    }
  });
  sim_.AddDumpSection("rng-streams", [this](std::FILE* out) {
    for (std::size_t i = 0; i < node_rngs_.size(); ++i) {
      std::fprintf(out, "node-variates %zu: draws=%llu\n", i,
                   static_cast<unsigned long long>(node_rngs_[i]->draws()));
    }
    if (restart_rng_) {
      std::fprintf(out, "fake-restart: draws=%llu\n",
                   static_cast<unsigned long long>(restart_rng_->draws()));
    }
    if (fault_injector_) fault_injector_->DumpState(out);
  });

  if (config_.algorithm == config::CcAlgorithm::kTwoPhaseLocking ||
      config_.algorithm == config::CcAlgorithm::kTwoPhaseLockingDeferred) {
    std::vector<cc::TwoPhaseLockingManager*> managers;
    for (NodeId id = 1; id < total_nodes; ++id) {
      managers.push_back(
          static_cast<cc::TwoPhaseLockingManager*>(cc_at(id)));
    }
    snoop_ = std::make_unique<cc::Snoop>(this, network_.get(),
                                         std::move(managers),
                                         config_.costs.deadlock_interval_sec);
  }
}

double System::RestartDelay() const {
  return rt_alltime_.count() > 0 ? rt_alltime_.mean()
                                 : config_.run.initial_rt_estimate_sec;
}

void System::RecordCommit(txn::Transaction& t) {
  sim_.NoteProgress();  // feeds the watchdog's stall clock
  double rt = sim_.Now() - t.origin_time();
  rt_alltime_.Record(rt);
  rt_measured_.Record(rt);
  rt_batches_.Record(rt);
  rt_histogram_.Record(rt);
  // Phase decomposition of the same response time (see RunResult): the
  // stamps are read at transitions that happen anyway, so this adds no
  // events and cannot shift the schedule.
  phase_restart_wasted_.Record(t.attempt_start_time() - t.origin_time());
  phase_queue_.Record(t.exec_start_time - t.attempt_start_time());
  phase_exec_.Record(t.prepare_start_time - t.exec_start_time);
  phase_commit_wait_.Record(sim_.Now() - t.prepare_start_time);
  if (config_.overload.txn_deadline_sec > 0.0 &&
      rt <= config_.overload.txn_deadline_sec) {
    ++commits_in_deadline_measured_;
  }
  if (config_.run.enable_audit) {
    commit_log_.push_back(CommittedTxn{t.id(), sim_.Now(), t.audit});
  }
}

workload::TransactionSpec System::RegenerateSpec(
    const workload::TransactionSpec& old_spec) {
  return source_->generator().Generate(old_spec.terminal, *restart_rng_);
}

void System::RequestAbort(const txn::TxnPtr& txn, int attempt,
                          NodeId from_node, txn::AbortReason reason) {
  network_->Send(from_node, kHostNode, net::MsgTag::kAbortRequest,
                 [this, txn, attempt, reason] {
                   coordinator_->OnAbortRequest(txn, attempt, reason);
                 });
}

void System::AuditRead(txn::Transaction& t, const PageRef& page) {
  if (!config_.run.enable_audit) return;
  auto it = shadow_.find(page.Key());
  std::uint64_t version = it != shadow_.end() ? it->second.version : 0;
  t.audit.push_back(txn::AuditRecord{page, version, false, true});
}

void System::AuditInstallWrite(txn::Transaction& t, const PageRef& page) {
  if (!config_.run.enable_audit) return;
  ShadowEntry& entry = shadow_[page.Key()];
  ++entry.version;
  entry.writer = t.id();
  t.audit.push_back(txn::AuditRecord{page, entry.version, true, true});
}

void System::AuditSkippedWrite(txn::Transaction& t, const PageRef& page) {
  if (!config_.run.enable_audit) return;
  t.audit.push_back(txn::AuditRecord{page, 0, true, false});
}

void System::Start() {
  CCSIM_CHECK_MSG(!started_, "System started twice");
  started_ = true;
  source_->Start();
  if (snoop_) snoop_->Start();
  if (fault_injector_) fault_injector_->Start();
}

void System::CrashNode(NodeId id) {
  Node& node = nodes_[static_cast<std::size_t>(id)];
  CCSIM_CHECK_MSG(!node.is_host, "the host node cannot crash");
  if (!node.up) return;
  node.up = false;
  ++nodes_down_;
  ++node_crashes_measured_;
  up_fraction_.Set(sim_.Now(),
                   1.0 - static_cast<double>(nodes_down_) /
                             config_.machine.num_proc_nodes);
  // Drain every transaction with a cohort there: in-flight work at the node
  // is discarded, lock/queue state released, victims abort (or complete via
  // presumed acks past the commit point) and restart later. The node's
  // resource queues are intentionally left alone: whatever was in service
  // finishes charging time, modeling work the crash wasted (decision #9).
  coordinator_->OnNodeCrash(id);
}

void System::RecoverNode(NodeId id) {
  Node& node = nodes_[static_cast<std::size_t>(id)];
  if (node.up) return;
  node.up = true;
  --nodes_down_;
  up_fraction_.Set(sim_.Now(),
                   1.0 - static_cast<double>(nodes_down_) /
                             config_.machine.num_proc_nodes);
  // The node comes back with no residual transaction state; restarting
  // transactions simply find it reachable again.
}

void System::ResetStatsAtWarmup() {
  rt_measured_.Reset();
  rt_batches_.Reset();
  rt_histogram_.Reset();
  phase_queue_.Reset();
  phase_exec_.Reset();
  phase_commit_wait_.Reset();
  phase_restart_wasted_.Reset();
  source_->ResetStats(sim_.Now());
  if (admission_) admission_->ResetStats(sim_.Now());
  commits_at_reset_ = coordinator_->commits();
  commits_in_deadline_measured_ = 0;
  abandoned_deadline_at_reset_ = coordinator_->abandoned_deadline();
  abandoned_retry_at_reset_ = coordinator_->abandoned_retry_exhausted();
  aborts_at_reset_ = coordinator_->aborts();
  aborts_by_reason_at_reset_ = coordinator_->aborts_by_reason();
  messages_at_reset_ = network_->messages_sent();
  node_crashes_measured_ = 0;
  dropped_at_reset_ = network_->messages_dropped();
  lost_at_reset_ = network_->messages_lost();
  net_batches_at_reset_ = network_->batches_sent();
  net_batched_at_reset_ = network_->messages_batched();
  net_local_fast_at_reset_ = network_->local_fast_deliveries();
  net_rdma_at_reset_ = network_->rdma_ops();
  net_bytes_at_reset_ = network_->bytes_sent();
  net_link_wait_at_reset_ = network_->link_wait_sec_sum();
  net_link_msgs_at_reset_ = network_->link_transmissions();
  forced_at_reset_ = coordinator_->forced_terminations();
  up_fraction_.Reset(sim_.Now());
  for (auto& node : nodes_) {
    node.resources->ResetStats();
    node.cc->ResetStats();
  }
}

RunResult System::ExtractResult(double measured_seconds, double wall_seconds) {
  RunResult r;
  const std::uint64_t commits = coordinator_->commits() - commits_at_reset_;
  using AR = txn::AbortReason;
  auto aborts_of = [this](AR reason) {
    auto i = static_cast<std::size_t>(reason);
    return coordinator_->aborts_by_reason()[i] - aborts_by_reason_at_reset_[i];
  };
  r.commits = commits;
  r.aborts = coordinator_->aborts() - aborts_at_reset_;
  r.throughput = measured_seconds > 0
                     ? static_cast<double>(commits) / measured_seconds
                     : 0.0;
  r.mean_response_time = rt_measured_.mean();
  r.max_response_time = rt_measured_.max();
  r.rt_ci_half_width = rt_batches_.half_width_95();
  r.rt_p50 = rt_histogram_.Quantile(0.50);
  r.rt_p90 = rt_histogram_.Quantile(0.90);
  r.rt_p99 = rt_histogram_.Quantile(0.99);
  r.rt_p999 = rt_histogram_.Quantile(0.999);
  r.mean_queue_time = phase_queue_.mean();
  r.mean_exec_time = phase_exec_.mean();
  r.mean_commit_wait_time = phase_commit_wait_.mean();
  r.mean_restart_wasted_time = phase_restart_wasted_.mean();
  r.mean_active_txns = source_->mean_active_txns(sim_.Now());
  r.abort_ratio = commits > 0 ? static_cast<double>(r.aborts) /
                                    static_cast<double>(commits)
                              : 0.0;
  r.aborts_local_deadlock = aborts_of(AR::kLocalDeadlock);
  r.aborts_global_deadlock = aborts_of(AR::kGlobalDeadlock);
  r.aborts_wound = aborts_of(AR::kWound);
  r.aborts_timestamp = aborts_of(AR::kTimestampOrder);
  r.aborts_certification = aborts_of(AR::kCertification);
  r.aborts_die = aborts_of(AR::kDie);
  r.aborts_timeout = aborts_of(AR::kTimeout);
  r.host_cpu_util = nodes_[0].resources->cpu().Utilization();
  double cpu_sum = 0.0, disk_sum = 0.0;
  int proc_nodes = config_.machine.num_proc_nodes;
  for (NodeId id = 1; id <= proc_nodes; ++id) {
    cpu_sum += resources(id).cpu().Utilization();
    disk_sum += resources(id).MeanDiskUtilization();
  }
  r.proc_cpu_util = cpu_sum / proc_nodes;
  r.disk_util = disk_sum / proc_nodes;

  double block_sum = 0.0;
  std::uint64_t block_count = 0;
  for (NodeId id = 1; id <= proc_nodes; ++id) {
    const stats::Tally* waits = cc_at(id)->blocking_times();
    if (waits != nullptr) {
      block_sum += waits->sum();
      block_count += waits->count();
    }
  }
  r.blocked_waits = block_count;
  r.mean_blocking_time =
      block_count > 0 ? block_sum / static_cast<double>(block_count) : 0.0;
  r.messages_per_commit =
      commits > 0
          ? static_cast<double>(network_->messages_sent() - messages_at_reset_) /
                static_cast<double>(commits)
          : 0.0;
  r.availability = up_fraction_.Mean(sim_.Now());
  r.goodput = r.availability > 0.0 ? r.throughput / r.availability : 0.0;
  r.node_crashes = node_crashes_measured_;
  r.messages_dropped = network_->messages_dropped() - dropped_at_reset_;
  r.messages_lost = network_->messages_lost() - lost_at_reset_;
  r.aborts_node_crash = aborts_of(AR::kNodeCrash);
  r.aborts_comm_timeout = aborts_of(AR::kCommTimeout);
  r.forced_terminations = coordinator_->forced_terminations() - forced_at_reset_;
  r.transactions_submitted = source_->transactions_submitted();

  // Overload metrics. Without OverloadParams these reduce to the documented
  // trivial values (offered == admitted == submitted, goodput_deadline ==
  // throughput, everything else 0).
  r.txns_offered =
      admission_ ? admission_->offered() : r.transactions_submitted;
  r.txns_admitted =
      admission_ ? admission_->admitted() : r.transactions_submitted;
  r.txns_shed = admission_ ? admission_->shed() : 0;
  std::uint64_t abandoned_deadline =
      coordinator_->abandoned_deadline() - abandoned_deadline_at_reset_;
  r.txns_retry_exhausted =
      coordinator_->abandoned_retry_exhausted() - abandoned_retry_at_reset_;
  if (config_.overload.txn_deadline_sec > 0.0) {
    r.txns_deadline_missed =
        abandoned_deadline + (commits - commits_in_deadline_measured_);
    r.goodput_deadline =
        measured_seconds > 0
            ? static_cast<double>(commits_in_deadline_measured_) /
                  measured_seconds
            : 0.0;
  } else {
    r.txns_deadline_missed = 0;
    r.goodput_deadline = r.throughput;
  }
  if (admission_) {
    r.admission_queue_mean = admission_->mean_queue_depth(sim_.Now());
    r.admission_queue_max = admission_->queue_depth_max();
  }
  // Network-model metrics. Under the default NetParams (kSwitch, no
  // batching) every one of these is zero.
  r.net_batches_sent = network_->batches_sent() - net_batches_at_reset_;
  r.net_msgs_batched = network_->messages_batched() - net_batched_at_reset_;
  r.net_local_fast_deliveries =
      network_->local_fast_deliveries() - net_local_fast_at_reset_;
  r.net_rdma_ops = network_->rdma_ops() - net_rdma_at_reset_;
  r.net_bytes_sent = network_->bytes_sent() - net_bytes_at_reset_;
  std::uint64_t link_msgs =
      network_->link_transmissions() - net_link_msgs_at_reset_;
  r.net_link_wait_sec_mean =
      link_msgs > 0
          ? (network_->link_wait_sec_sum() - net_link_wait_at_reset_) /
                static_cast<double>(link_msgs)
          : 0.0;
  r.live_at_end = coordinator_->live_transactions();
  r.events = sim_.events_fired();
  r.sim_seconds = sim_.Now();
  r.wall_seconds = wall_seconds;

  if (config_.run.enable_audit &&
      config_.algorithm != config::CcAlgorithm::kNoDc) {
    r.audited = true;
    auto audit = CheckSerializability(commit_log_);
    r.serializable = audit.serializable;
    r.audit_note = audit.Describe();
  }
  return r;
}

RunResult System::Run() {
  auto wall_start = std::chrono::steady_clock::now();
  if (!started_) Start();
  double warmup = config_.run.warmup_sec;
  double measure = config_.run.measure_sec;
  if (warmup > 0) {
    // ccsim-analyze: coro-ok(sim_ is a member of this System; the event cannot fire after System is gone)
    sim_.At(warmup, [this] { ResetStatsAtWarmup(); });
  }
  sim_.ConfigureWatchdog(
      {config_.run.watchdog_max_events, config_.run.watchdog_stall_sec});
  sim_.RunUntil(warmup + measure);
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return ExtractResult(measure, wall_seconds);
}

RunResult RunSimulation(const config::SystemConfig& config) {
  System system(config);
  return system.Run();
}

}  // namespace ccsim::engine
