#ifndef CCSIM_ENGINE_RUN_H_
#define CCSIM_ENGINE_RUN_H_

#include <cstdint>
#include <string>

#include "ccsim/config/params.h"

namespace ccsim::engine {

// RunResult's cached fields, X(type, name, default), in cache-file order.
// This list is their only declaration: RunResult expands it into its data
// members, and the result cache (experiments/cache.cc) into its codec, which
// writes one `name value` line per entry in this order and fails to compile
// if RunResult declares a member outside the list (other than audit_note).
// Types are double, std::uint64_t or bool. Any change here changes the cache
// format; the procedure is in EXPERIMENTS.md ("Changing RunResult").
//
// The four phase means partition the response time exactly:
//   restart-wasted : origin to the start of the finally-successful attempt
//                    (all failed attempts + restart delays; 0 for
//                    first-attempt commits)
//   queue          : host startup queue + startup CPU of that attempt
//   exec           : cohorts executing (reads, writes, CC waits)
//   commit-wait    : the 2PC prepare/commit rounds
// so mean_queue_time + mean_exec_time + mean_commit_wait_time +
// mean_restart_wasted_time == mean_response_time (up to FP rounding).
#define CCSIM_RUN_RESULT_FIELDS(X)                                            \
  /* Primary metrics. */                                                      \
  X(double, throughput, 0.0)          /* committed transactions per second */ \
  X(double, mean_response_time, 0.0)  /* origin to successful completion */   \
  X(double, rt_ci_half_width, 0.0)    /* 95% batch-means CI half width */     \
  X(double, max_response_time, 0.0)                                           \
  /* Response-time percentiles: log-bucketed histogram estimates, <= ~1.6%    \
     relative error. */                                                       \
  X(double, rt_p50, 0.0)                                                      \
  X(double, rt_p90, 0.0)                                                      \
  X(double, rt_p99, 0.0)                                                      \
  /* Auxiliary metrics. */                                                    \
  X(std::uint64_t, commits, 0)                                                \
  X(std::uint64_t, aborts, 0)  /* aborted attempts */                         \
  X(double, abort_ratio, 0.0)  /* aborts per commit (Sec 4.1) */              \
  /* Abort breakdown by cause (same window as aborts). */                     \
  X(std::uint64_t, aborts_local_deadlock, 0)                                  \
  X(std::uint64_t, aborts_global_deadlock, 0)                                 \
  X(std::uint64_t, aborts_wound, 0)                                           \
  X(std::uint64_t, aborts_timestamp, 0)                                       \
  X(std::uint64_t, aborts_certification, 0)                                   \
  X(std::uint64_t, aborts_die, 0)      /* wait-die */                         \
  X(std::uint64_t, aborts_timeout, 0)  /* timeout-based blocking */           \
  X(double, host_cpu_util, 0.0)                                               \
  X(double, proc_cpu_util, 0.0)       /* mean over processing nodes */        \
  X(double, disk_util, 0.0)           /* mean over processing-node disks */   \
  X(double, mean_blocking_time, 0.0)  /* lock/queue waits (2PL, WW, BTO) */   \
  X(std::uint64_t, blocked_waits, 0)                                          \
  X(double, messages_per_commit, 0.0)                                         \
  /* Run accounting. */                                                       \
  X(std::uint64_t, transactions_submitted, 0)                                 \
  X(std::uint64_t, live_at_end, 0)                                            \
  X(std::uint64_t, events, 0)                                                 \
  X(double, sim_seconds, 0.0)                                                 \
  X(double, wall_seconds, 0.0)                                                \
  /* Audit verdict (only when RunParams::enable_audit). */                    \
  X(bool, audited, false)                                                     \
  X(bool, serializable, true)                                                 \
  /* Fault metrics (all trivial when FaultParams are zero: availability 1,    \
     goodput == throughput, counters 0). */                                   \
  X(double, availability, 1.0)  /* time-weighted fraction of nodes up */      \
  X(double, goodput, 0.0)       /* commits per second of node-up capacity */  \
  X(std::uint64_t, node_crashes, 0)                                           \
  X(std::uint64_t, messages_dropped, 0)  /* transmissions lost, pre-retry */  \
  X(std::uint64_t, messages_lost, 0)     /* gave up after retries/crash */    \
  X(std::uint64_t, aborts_node_crash, 0)                                      \
  X(std::uint64_t, aborts_comm_timeout, 0)                                    \
  X(std::uint64_t, forced_terminations, 0) /* 2PC gave up on a decision */    \
  /* Tail latency and the per-phase decomposition (mean seconds per           \
     committed transaction; see above). */                                    \
  X(double, rt_p999, 0.0)                                                     \
  X(double, mean_queue_time, 0.0)                                             \
  X(double, mean_exec_time, 0.0)                                              \
  X(double, mean_commit_wait_time, 0.0)                                       \
  X(double, mean_restart_wasted_time, 0.0)                                    \
  /* Measured multiprogramming level: time-weighted mean number of terminals  \
     with a transaction in the system (vs the configured NumTerminals). */    \
  X(double, mean_active_txns, 0.0)                                            \
  /* Overload metrics (all trivial without OverloadParams: offered ==         \
     admitted == transactions_submitted, shed and abandon counters 0,         \
     goodput_deadline == throughput, queue stats 0). offered, admitted and    \
     shed count the whole run; the rest count the measurement window. */      \
  X(std::uint64_t, txns_offered, 0)                                           \
  X(std::uint64_t, txns_admitted, 0)                                          \
  X(std::uint64_t, txns_shed, 0)                                              \
  /* Abandoned past their deadline plus commits that landed after it. */      \
  X(std::uint64_t, txns_deadline_missed, 0)                                   \
  /* Abandoned after spending OverloadParams::max_restarts. */                \
  X(std::uint64_t, txns_retry_exhausted, 0)                                   \
  /* Commits that met their deadline per measured second. */                  \
  X(double, goodput_deadline, 0.0)                                            \
  X(double, admission_queue_mean, 0.0)  /* time-weighted mean depth */        \
  X(std::uint64_t, admission_queue_max, 0)                                    \
  /* Network-model metrics (all zero without NetParams: the default kSwitch   \
     model sends no batches, takes no fast-path deliveries, posts no RDMA     \
     ops, and counts no wire bytes or link waits). */                         \
  X(std::uint64_t, net_batches_sent, 0)  /* wire messages carrying a batch */ \
  X(std::uint64_t, net_msgs_batched, 0)  /* piggybacked rider messages */     \
  /* Local hand-offs delivered synchronously, bypassing the calendar. */      \
  X(std::uint64_t, net_local_fast_deliveries, 0)                              \
  X(std::uint64_t, net_rdma_ops, 0)       /* one-sided ops on the wire */     \
  X(double, net_bytes_sent, 0.0)          /* wire bytes (kBandwidth/kRdma) */ \
  X(double, net_link_wait_sec_mean, 0.0)  /* mean link-queue wait */

/// Steady-state metrics of one simulation run, gathered over the measurement
/// window (after warmup deletion). The paper's four main metrics (Sec 4.1)
/// are response time, throughput, and the speedups derived from them by the
/// experiment harness; the auxiliary metrics (utilizations, abort ratio,
/// blocking time) are here too.
struct RunResult {
#define CCSIM_RUN_RESULT_MEMBER(type, name, init) type name = init;
  CCSIM_RUN_RESULT_FIELDS(CCSIM_RUN_RESULT_MEMBER)
#undef CCSIM_RUN_RESULT_MEMBER

  // Free-form audit diagnostic. Not cached: the cache keeps the verdict
  // (audited, serializable).
  std::string audit_note;
};

/// Validates `config`, builds a System, runs warmup + measurement, and
/// extracts the metrics. Aborts the process on an invalid configuration
/// (use SystemConfig::Validate() first for recoverable handling).
RunResult RunSimulation(const config::SystemConfig& config);

}  // namespace ccsim::engine

#endif  // CCSIM_ENGINE_RUN_H_
