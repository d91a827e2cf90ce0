#include "ccsim/config/params.h"

#include <cmath>
#include <cstring>

#include "ccsim/sim/stream_ids.h"

namespace ccsim::config {

namespace {

// FNV-1a over a byte-serialized view of the config. Doubles are hashed via
// their bit patterns; this is a cache key, not a cryptographic digest.
class Hasher {
 public:
  void Mix(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    MixBits(bits);
  }
  void Mix(std::uint64_t v) { MixBits(v); }
  void Mix(int v) { MixBits(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void Mix(bool v) { MixBits(v ? 1 : 0); }
  std::uint64_t digest() const { return h_; }

 private:
  void MixBits(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Tags mixed ahead of knobs that are mixed only when set: their names, as
// ASCII.
constexpr std::uint64_t kFakeRestartsTag = 0x66616b655f727374ULL;  // fake_rst
constexpr std::uint64_t kRtBatchSizeTag = 0x72745f6261746368ULL;   // rt_batch
constexpr std::uint64_t kEnableAuditTag = 0x61756469745f6f6eULL;   // audit_on

}  // namespace

std::string SystemConfig::Validate() const {
  if (machine.num_proc_nodes < 1) return "num_proc_nodes must be >= 1";
  if (machine.host_mips <= 0 || machine.node_mips <= 0)
    return "CPU rates must be positive";
  if (machine.disks_per_node < 1) return "disks_per_node must be >= 1";
  if (static_cast<std::uint64_t>(machine.disks_per_node) >=
      sim::stream_ids::kNodeResourceStreamStride)
    return "disks_per_node exceeds a node's RNG stream band";
  if (machine.min_disk_ms < 0 || machine.max_disk_ms < machine.min_disk_ms)
    return "disk time range invalid";
  if (database.num_relations < 1 || database.partitions_per_relation < 1)
    return "database shape invalid";
  if (database.pages_per_file < 1) return "pages_per_file must be >= 1";
  if (placement.degree < 1) return "placement degree must be >= 1";
  if (placement.degree > machine.num_proc_nodes)
    return "placement degree exceeds number of processing nodes";
  if (database.partitions_per_relation % placement.degree != 0)
    return "placement degree must divide partitions_per_relation";
  if (machine.num_proc_nodes % placement.degree != 0)
    return "placement degree must divide num_proc_nodes";
  if (workload.num_terminals < 1) return "num_terminals must be >= 1";
  if (workload.think_time_sec < 0) return "think_time_sec must be >= 0";
  if (workload.classes.empty()) return "at least one transaction class";
  double frac = 0.0;
  for (const auto& c : workload.classes) {
    if (c.fraction < 0) return "class fraction must be >= 0";
    frac += c.fraction;
    if (c.pages_per_partition_avg <= 0) return "pages_per_partition_avg must be > 0";
    if (c.write_prob < 0 || c.write_prob > 1) return "write_prob out of range";
    if (c.inst_per_page < 0) return "inst_per_page must be >= 0";
    int lo = static_cast<int>(c.pages_per_partition_avg / 2.0);
    if (lo < 1) return "pages_per_partition_avg too small (min count < 1)";
    // The largest possible per-partition count must fit in the file.
    int hi = (c.spread == PageCountSpread::kSymmetric)
                 ? static_cast<int>(3.0 * c.pages_per_partition_avg / 2.0)
                 : static_cast<int>(2.0 * c.pages_per_partition_avg);
    if (hi > database.pages_per_file)
      return "pages_per_partition max exceeds pages_per_file";
  }
  if (std::abs(frac - 1.0) > 1e-9) return "class fractions must sum to 1";
  if (workload.classes[0].relation_choice == RelationChoice::kByTerminalGroup &&
      workload.num_terminals % database.num_relations != 0)
    return "num_terminals must be a multiple of num_relations for "
           "terminal-group relation choice";
  if (costs.inst_per_update < 0 || costs.inst_per_startup < 0 ||
      costs.inst_per_msg < 0 || costs.inst_per_cc_req < 0)
    return "cost instruction counts must be >= 0";
  if (costs.deadlock_interval_sec <= 0)
    return "deadlock_interval_sec must be > 0";
  if (locking.timeout_sec <= 0) return "locking timeout_sec must be > 0";
  if (faults.node_mttf_sec < 0) return "node_mttf_sec must be >= 0";
  if (faults.node_mttf_sec > 0 && faults.node_mttr_sec <= 0)
    return "node_mttr_sec must be > 0 when node_mttf_sec > 0";
  if (faults.msg_drop_prob < 0 || faults.msg_drop_prob >= 1)
    return "msg_drop_prob out of range [0, 1)";
  if (faults.disk_error_prob < 0 || faults.disk_error_prob >= 1)
    return "disk_error_prob out of range [0, 1)";
  if (faults.disk_error_prob > 0 && faults.disk_error_delay_ms <= 0)
    return "disk_error_delay_ms must be > 0 when disk_error_prob > 0";
  if (faults.msg_timeout_sec < 0) return "msg_timeout_sec must be >= 0";
  if (faults.max_msg_retries < 0) return "max_msg_retries must be >= 0";
  if (faults.max_msg_retries > 0 && faults.retry_backoff_sec <= 0)
    return "retry_backoff_sec must be > 0 when max_msg_retries > 0";
  if (faults.max_decision_resends < 0)
    return "max_decision_resends must be >= 0";
  if (faults.msg_drop_prob > 0 && faults.msg_timeout_sec == 0 &&
      faults.node_mttf_sec == 0)
    // Without node crashes the only way a dropped 2PC reply resolves is a
    // protocol timeout; forbid the combination that can only wedge. (Tests
    // that *want* a wedge inject drops via a test hook, not msg_drop_prob.)
    return "msg_drop_prob > 0 requires msg_timeout_sec > 0";
  if (overload.arrival_rate_per_sec < 0)
    return "arrival_rate_per_sec must be >= 0";
  if (overload.max_in_flight < 0) return "max_in_flight must be >= 0";
  if (overload.admission_queue_cap < 0)
    return "admission_queue_cap must be >= 0";
  if (overload.max_in_flight > 0 && !overload.open_system())
    // Admission control throttles the arrival stream; the closed terminal
    // loop is self-throttling (a terminal submits only after its previous
    // transaction finished), so the combination is meaningless.
    return "max_in_flight requires an open system (arrival_rate_per_sec > 0)";
  if (overload.admission_queue_cap > 0 && overload.max_in_flight == 0)
    return "admission_queue_cap requires max_in_flight > 0";
  if (overload.txn_deadline_sec < 0) return "txn_deadline_sec must be >= 0";
  if (overload.restart_backoff_base_sec < 0)
    return "restart_backoff_base_sec must be >= 0";
  if (overload.restart_backoff_base_sec > 0 &&
      overload.restart_backoff_cap_sec < overload.restart_backoff_base_sec)
    return "restart_backoff_cap_sec must be >= restart_backoff_base_sec";
  if (net.link_mbytes_per_sec <= 0)
    return "link_mbytes_per_sec must be > 0";
  if (net.wire_latency_sec < 0) return "wire_latency_sec must be >= 0";
  if (net.msg_bytes <= 0) return "msg_bytes must be > 0";
  if (net.bytes_per_item < 0) return "bytes_per_item must be >= 0";
  if (net.rdma_op_latency_sec < 0)
    return "rdma_op_latency_sec must be >= 0";
  if (run.warmup_sec < 0 || run.measure_sec <= 0) return "run window invalid";
  if (run.rt_batch_size < 1) return "rt_batch_size must be >= 1";
  if (run.watchdog_stall_sec < 0) return "watchdog_stall_sec must be >= 0";
  return "";
}

std::uint64_t SystemConfig::Fingerprint() const {
  // Every config struct is unpacked by one structured binding that names
  // all of its fields, so a field added to any of them (or a member added to
  // SystemConfig) fails to compile here until it is mixed below or left out
  // with a stated reason. The mix order and its conditions are frozen: the
  // committed result cache is keyed by them.
  const auto& [machine, database, placement, workload, costs, locking, faults,
               overload, net, run, algorithm] = *this;
  const auto& [num_proc_nodes, host_mips, node_mips, disks_per_node,
               min_disk_ms, max_disk_ms] = machine;
  const auto& [num_relations, partitions_per_relation, pages_per_file] =
      database;
  const auto& [degree] = placement;
  const auto& [num_terminals, think_time_sec, classes, fake_restarts] =
      workload;
  const auto& [inst_per_update, inst_per_startup, inst_per_msg,
               inst_per_cc_req, deadlock_interval_sec] = costs;
  const auto& [queue_jump, timeout_sec] = locking;
  const auto& [node_mttf_sec, node_mttr_sec, msg_drop_prob, disk_error_prob,
               disk_error_delay_ms, msg_timeout_sec, max_msg_retries,
               retry_backoff_sec, max_decision_resends] = faults;
  const auto& [arrival_rate_per_sec, max_in_flight, admission_queue_cap,
               admission_policy, txn_deadline_sec, restart_backoff_base_sec,
               restart_backoff_cap_sec, max_restarts] = overload;
  const auto& [model, link_mbytes_per_sec, wire_latency_sec, msg_bytes,
               bytes_per_item, rdma_op_latency_sec, batching] = net;
  // The watchdog limits stay out: they are diagnostic kill switches, and a
  // tripped watchdog aborts the process instead of returning a result, so
  // they can never change a cached metric.
  const auto& [warmup_sec, measure_sec, seed, initial_rt_estimate_sec,
               enable_audit, rt_batch_size, watchdog_max_events,
               watchdog_stall_sec] = run;

  Hasher h;
  h.Mix(num_proc_nodes);
  h.Mix(host_mips);
  h.Mix(node_mips);
  h.Mix(disks_per_node);
  h.Mix(min_disk_ms);
  h.Mix(max_disk_ms);
  h.Mix(num_relations);
  h.Mix(partitions_per_relation);
  h.Mix(pages_per_file);
  h.Mix(degree);
  h.Mix(num_terminals);
  h.Mix(think_time_sec);
  // Later-added optional knobs are mixed only when they deviate from their
  // defaults, so fingerprints of existing configurations stay stable across
  // releases (the bench result cache keys on them). Each of the three below
  // goes in behind a tag of its own, so that equal values of two of them
  // (say, fake restarts on and the audit on) do not hash alike.
  if (fake_restarts) {
    h.Mix(kFakeRestartsTag);
    h.Mix(fake_restarts);
  }
  if (algorithm == CcAlgorithm::kTwoPhaseLockingTimeout) h.Mix(timeout_sec);
  // rt_batch_size changes rt_ci_half_width, so it must key the cache too.
  if (rt_batch_size != RunParams{}.rt_batch_size) {
    h.Mix(kRtBatchSizeTag);
    h.Mix(rt_batch_size);
  }
  // enable_audit never perturbs the event stream, but it changes what the
  // result *reports* (audited/serializable), so an audit run must not be
  // served a cached non-audit result or vice versa. Mixed only when set:
  // every committed cache entry was produced with the audit off and keeps
  // its fingerprint.
  if (enable_audit) {
    h.Mix(kEnableAuditTag);
    h.Mix(enable_audit);
  }
  // Fault injection: mixed only when active, so every fault-free config
  // keeps its pre-fault fingerprint (and cached result).
  if (faults.any()) {
    h.Mix(node_mttf_sec);
    h.Mix(node_mttr_sec);
    h.Mix(msg_drop_prob);
    h.Mix(disk_error_prob);
    h.Mix(disk_error_delay_ms);
    h.Mix(msg_timeout_sec);
    h.Mix(max_msg_retries);
    h.Mix(retry_backoff_sec);
    h.Mix(max_decision_resends);
  }
  // Open-system overload extension: mixed only when active, so every
  // closed-system config keeps its pre-overload fingerprint (and cached
  // result). The whole block is keyed because any active knob changes the
  // event stream or what the result reports.
  if (overload.any()) {
    h.Mix(arrival_rate_per_sec);
    h.Mix(max_in_flight);
    h.Mix(admission_queue_cap);
    h.Mix(static_cast<int>(admission_policy));
    h.Mix(txn_deadline_sec);
    h.Mix(restart_backoff_base_sec);
    h.Mix(restart_backoff_cap_sec);
    h.Mix(max_restarts);
  }
  // Network model extension: mixed only when active, so every switch-model
  // config keeps its pre-netmodel fingerprint (and cached result). Inside
  // the block every shape knob is keyed: model and batching change the
  // event stream, and the wire-shape knobs change delivery timing or the
  // byte counters under the active models.
  if (net.any()) {
    h.Mix(static_cast<int>(model));
    h.Mix(link_mbytes_per_sec);
    h.Mix(wire_latency_sec);
    h.Mix(msg_bytes);
    h.Mix(bytes_per_item);
    h.Mix(rdma_op_latency_sec);
    h.Mix(batching);
  }
  h.Mix(static_cast<int>(classes.size()));
  for (const auto& c : classes) {
    const auto& [fraction, exec_pattern, relation_choice,
                 pages_per_partition_avg, write_prob, inst_per_page, spread] =
        c;
    h.Mix(fraction);
    h.Mix(static_cast<int>(exec_pattern));
    h.Mix(static_cast<int>(relation_choice));
    h.Mix(pages_per_partition_avg);
    h.Mix(write_prob);
    h.Mix(inst_per_page);
    h.Mix(static_cast<int>(spread));
  }
  h.Mix(inst_per_update);
  h.Mix(inst_per_startup);
  h.Mix(inst_per_msg);
  h.Mix(inst_per_cc_req);
  h.Mix(deadlock_interval_sec);
  h.Mix(queue_jump);
  h.Mix(warmup_sec);
  h.Mix(measure_sec);
  h.Mix(seed);
  h.Mix(initial_rt_estimate_sec);
  h.Mix(static_cast<int>(algorithm));
  return h.digest();
}

SystemConfig PaperBaseConfig() {
  SystemConfig cfg;  // defaults in the struct definitions are Table 4 values
  return cfg;
}

const char* ToString(CcAlgorithm a) {
  switch (a) {
    case CcAlgorithm::kNoDc: return "NO_DC";
    case CcAlgorithm::kTwoPhaseLocking: return "2PL";
    case CcAlgorithm::kWoundWait: return "WW";
    case CcAlgorithm::kBasicTimestamp: return "BTO";
    case CcAlgorithm::kOptimistic: return "OPT";
    case CcAlgorithm::kTwoPhaseLockingDeferred: return "2PL-DW";
    case CcAlgorithm::kWaitDie: return "WD";
    case CcAlgorithm::kTwoPhaseLockingTimeout: return "2PL-TO";
  }
  return "?";
}

const char* ToString(ExecPattern p) {
  switch (p) {
    case ExecPattern::kSequential: return "sequential";
    case ExecPattern::kParallel: return "parallel";
  }
  return "?";
}

const char* ToString(NetModel m) {
  switch (m) {
    case NetModel::kSwitch: return "switch";
    case NetModel::kBandwidth: return "bandwidth";
    case NetModel::kRdma: return "rdma";
  }
  return "?";
}

}  // namespace ccsim::config
