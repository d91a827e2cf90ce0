#ifndef CCSIM_CONFIG_PARAMS_H_
#define CCSIM_CONFIG_PARAMS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ccsim::config {

/// The concurrency control algorithms studied in the paper (Sec 2), plus the
/// NO_DC ideal ("2PL with an infinitely large database": every request is
/// granted, nothing ever aborts).
enum class CcAlgorithm {
  kNoDc,
  kTwoPhaseLocking,   // 2PL  [Gray79] + rotating "Snoop" global detection
  kWoundWait,         // WW   [Rose78]
  kBasicTimestamp,    // BTO  [Bern80]
  kOptimistic,        // OPT  [Sinh85], distributed certification
  /// Extension (not in the paper's figure set): 2PL with deferred write
  /// locks, after the remark in the paper's conclusions [Care89] - write
  /// accesses take shared locks during execution and upgrade to exclusive
  /// in the first phase of the commit protocol, shortening exclusive hold
  /// times at the cost of certification-like late aborts (via deadlocks).
  kTwoPhaseLockingDeferred,
  /// Extension: wait-die locking, the sibling scheme of wound-wait in
  /// [Rose78] - a requester that would wait for an *older* transaction
  /// aborts itself instead ("dies"); older requesters wait. No deadlocks,
  /// cheap self-aborts at request time.
  kWaitDie,
  /// Extension: 2PL with timeout-based deadlock handling (footnote 2 /
  /// [Jenq89]): no detection at all; a request that waits longer than
  /// LockingParams::timeout_sec aborts its transaction.
  kTwoPhaseLockingTimeout,
};

/// Cohort execution pattern of a transaction class (Sec 3.3).
enum class ExecPattern {
  kSequential,  // cohorts one after another (remote-procedure-call style)
  kParallel,    // cohorts started together (database machine style)
};

/// How the per-partition page count is spread around its mean. Section 3.2 of
/// the paper says "between half and twice the average" while footnote 12 says
/// 4..12 pages for an average of 8 (and derives the observed 64/12 = 5.33
/// speedup limit); the footnote reading is the default.
enum class PageCountSpread {
  kSymmetric,    // uniform integer in [avg/2, 3*avg/2]  (footnote 12)
  kHalfToTwice,  // uniform integer in [avg/2, 2*avg]    (Sec 3.2 text)
};

/// How a transaction picks the relation it accesses.
enum class RelationChoice {
  kByTerminalGroup,  // terminals divided into groups of equal size, group g
                     // always accesses relation g (the paper's workload)
  kUniform,          // uniformly random relation per transaction
};

/// Machine configuration (Tables 1 and 3).
struct MachineParams {
  int num_proc_nodes = 8;    // NumProcNodes (1 host node is implicit)
  double host_mips = 10.0;   // CPURate of the host node
  double node_mips = 1.0;    // CPURate of each processing node
  int disks_per_node = 2;    // NumDisks per processing node
  double min_disk_ms = 10.0;  // MinDiskTime
  double max_disk_ms = 30.0;  // MaxDiskTime
};

/// Database shape (Table 1). Placement is configured separately.
struct DatabaseParams {
  int num_relations = 8;
  int partitions_per_relation = 8;  // files per relation
  int pages_per_file = 300;         // FileSize (300 small / 1200 large)

  int num_files() const { return num_relations * partitions_per_relation; }
  std::int64_t total_pages() const {
    return static_cast<std::int64_t>(num_files()) * pages_per_file;
  }
};

/// Degree of horizontal partitioning (declustering): each relation's
/// partitions are spread over `degree` processing nodes, offset by relation
/// index so load stays balanced (Secs 4.2-4.4). `degree` must divide
/// `partitions_per_relation` and `num_proc_nodes`.
struct PlacementParams {
  int degree = 8;
};

/// One transaction class (Table 2 per-class parameters).
struct TransactionClassParams {
  double fraction = 1.0;  // ClassFrac: fraction of terminals in this class
  ExecPattern exec_pattern = ExecPattern::kParallel;
  RelationChoice relation_choice = RelationChoice::kByTerminalGroup;
  double pages_per_partition_avg = 8.0;  // NumPages per accessed file
  double write_prob = 0.25;              // WriteProb per accessed page
  double inst_per_page = 8000.0;         // InstPerPage (mean, exponential)
  PageCountSpread spread = PageCountSpread::kSymmetric;
};

/// Workload shape of the host node (Table 2).
struct WorkloadParams {
  int num_terminals = 128;       // NumTerminals
  double think_time_sec = 8.0;   // ThinkTime (mean, exponential)
  std::vector<TransactionClassParams> classes = {TransactionClassParams{}};
  /// Restart semantics. false (default): a restarted transaction re-runs
  /// with the same access set (it is the same transaction). true: "fake
  /// restarts" in the sense of [Agra87a] - the restart draws a fresh access
  /// set from the same class and relation, decorrelating repeated conflicts
  /// between the same transaction pairs.
  bool fake_restarts = false;
};

/// Options of the lock-based managers (2PL, WW). `queue_jump` selects the
/// lock queue policy: false = strict FIFO (a request never overtakes an
/// occupied queue; no writer starvation); true = requests compatible with
/// the current holders are granted immediately (fewer waits and deadlocks,
/// readers can starve writers). The paper does not pin this detail; strict
/// FIFO is the default.
struct LockingParams {
  bool queue_jump = false;
  /// Wait timeout for CcAlgorithm::kTwoPhaseLockingTimeout. [Jenq89] (and
  /// the paper's footnote 2) found this a critical, sensitive parameter;
  /// bench/ablation_lock_timeout sweeps it.
  double timeout_sec = 1.0;
};

/// CPU overhead parameters (Tables 3 and the CC manager parameter).
struct CostParams {
  double inst_per_update = 2000.0;   // InstPerUpdate: initiate one disk write
  double inst_per_startup = 2000.0;  // InstPerStartup: start a process
  double inst_per_msg = 1000.0;      // InstPerMsg: send or receive a message
  double inst_per_cc_req = 0.0;      // InstPerCCReq: one CC request
  double deadlock_interval_sec = 1.0;  // DetectionInterval (2PL Snoop)
};

/// Deterministic fault injection (extension; the paper's model of Sec 3 is
/// failure-free). All rates default to zero, which reproduces the paper's
/// machine exactly: with every rate at zero no fault process is spawned, no
/// timeout is armed, and no extra RNG stream is consumed, so metric digests
/// are byte-identical to the failure-free model. Faults are driven by
/// dedicated named RNG streams (DESIGN.md decision #9), so the same seed and
/// the same FaultParams replay the same crash/drop/error schedule.
///
/// The host node (node 0) never fails: it stands in for the paper's
/// centralized transaction manager, whose durability is out of scope here.
struct FaultParams {
  /// Mean time to failure of each processing node (exponential). 0 = nodes
  /// never crash.
  double node_mttf_sec = 0.0;
  /// Mean time to repair a crashed node (exponential; used when mttf > 0).
  double node_mttr_sec = 10.0;
  /// Probability that a remote message transmission is lost (per attempt,
  /// including retransmissions). 0 = reliable network.
  double msg_drop_prob = 0.0;
  /// Probability that a disk access suffers a transient error and is
  /// retried in place, occupying the disk for an extra delay.
  double disk_error_prob = 0.0;
  /// Extra disk busy time per transient error.
  double disk_error_delay_ms = 50.0;

  // --- protocol hardening knobs (armed only when any() is true) ----------
  /// Coordinator/cohort 2PC reply timeout: how long a waiting party lets a
  /// phase sit without progress before it presumes abort (or, past the
  /// commit point, resends the decision). 0 disables protocol timeouts
  /// (useful for constructing deliberately wedged runs in tests).
  double msg_timeout_sec = 30.0;
  /// Network-level retransmissions per message before it is lost for good.
  int max_msg_retries = 3;
  /// First retransmission backoff; doubles per retry.
  double retry_backoff_sec = 0.05;
  /// Coordinator resends of a COMMIT/ABORT decision (each after another
  /// msg_timeout_sec) before it force-terminates the protocol: missing
  /// acknowledgements are presumed (the cohort re-converges on recovery).
  int max_decision_resends = 2;

  /// True when any fault rate is nonzero, i.e. the fault machinery (the
  /// injector process, protocol timeouts, retransmission) is active.
  bool any() const {
    return node_mttf_sec > 0.0 || msg_drop_prob > 0.0 || disk_error_prob > 0.0;
  }
};

/// What the admission controller does with an arrival that finds the system
/// at its multiprogramming cap and the admission queue full.
enum class AdmissionPolicy {
  kBlock,       // backpressure: the arrival process pauses until space frees
  kShedNewest,  // drop the arriving transaction (tail drop)
  kShedOldest,  // drop the queue head to make room for the arrival
};

/// Open-system overload extension (ROADMAP item 2; the paper's model of
/// Sec 3 is a closed terminal loop that can never be overloaded). All knobs
/// default to "off", which reproduces the paper's machine exactly: with
/// `any()` false no arrival process, admission controller, deadline, or
/// backoff logic is instantiated and no extra RNG stream is consumed, so metric
/// digests and cache fingerprints are byte-identical to the closed model.
struct OverloadParams {
  /// Poisson arrival rate lambda (transactions/sec) of the open system.
  /// > 0 switches workload::Source from its closed terminal loop to one
  /// Poisson arrival process; think_time_sec is then unused (num_terminals
  /// still shapes the access generator's terminal->class/relation mapping).
  double arrival_rate_per_sec = 0.0;
  /// Multiprogramming cap: admitted-but-unfinished transactions the
  /// admission controller lets into the engine. 0 = no admission control.
  int max_in_flight = 0;
  /// Capacity of the bounded admission queue in front of the engine (used
  /// only when max_in_flight > 0). 0 = no queue: an arrival that cannot be
  /// admitted immediately is handled per admission_policy.
  int admission_queue_cap = 0;
  /// Policy when an arrival finds max_in_flight reached and the queue full.
  AdmissionPolicy admission_policy = AdmissionPolicy::kBlock;
  /// Per-transaction deadline, measured from its arrival (origin) time. A
  /// transaction whose deadline has passed is abandoned at its next restart
  /// point instead of retrying forever; commits later than the deadline
  /// still commit but do not count toward goodput. 0 = no deadline.
  double txn_deadline_sec = 0.0;
  /// Capped exponential backoff between restart attempts: attempt k waits
  /// min(restart_backoff_cap_sec, base * 2^(k-1)). 0 = the paper's adaptive
  /// restart delay (running mean response time) is used instead.
  double restart_backoff_base_sec = 0.0;
  /// Upper bound of the exponential backoff (used when base > 0).
  double restart_backoff_cap_sec = 10.0;
  /// Restart budget: how many times a transaction may be restarted before
  /// it is abandoned and counted as retry-exhausted. < 0 = unlimited.
  int max_restarts = -1;

  /// True when the workload is an open system (Poisson arrivals).
  bool open_system() const { return arrival_rate_per_sec > 0.0; }

  /// True when any overload knob deviates from its "off" default, i.e. the
  /// open source / admission / deadline / backoff machinery is active.
  bool any() const {
    return arrival_rate_per_sec > 0.0 || max_in_flight > 0 ||
           txn_deadline_sec > 0.0 || restart_backoff_base_sec > 0.0 ||
           max_restarts >= 0;
  }
};

/// Which cost model the network manager applies to remote messages.
enum class NetModel {
  /// The paper's model (Sec 3.5): a switch with negligible wire time.
  /// InstPerMsg of message-class CPU at the sender, then at the receiver.
  kSwitch,
  /// Finite link bandwidth: after the sender's CPU charge the message
  /// serializes onto the directed (from, to) link at link_mbytes_per_sec
  /// (FIFO per link - a message queues behind earlier ones still on the
  /// wire), then crosses in wire_latency_sec, then charges the receiver.
  kBandwidth,
  /// One-sided RDMA-style ops (read/CAS): the sender posts the op
  /// (InstPerMsg of CPU), it completes after rdma_op_latency_sec, and the
  /// delivery closure runs at the target *without charging the target's
  /// CPU at all* - the NIC bypasses the remote processor.
  kRdma,
};

/// Network cost model extension (ROADMAP item 4; the paper's network of
/// Sec 3.5 is a zero-wire-time switch). Everything defaults to "off", which
/// reproduces the paper's machine exactly: with `any()` false the delivery
/// path, the event stream, and the cache fingerprint are byte-identical to
/// the switch-only simulator, and none of the shape knobs below are even
/// read. The shape knobs are therefore mixed into Fingerprint() only inside
/// the `any()` block.
struct NetParams {
  NetModel model = NetModel::kSwitch;
  /// kBandwidth: capacity of each directed node-to-node link, in MB/s.
  /// The default is a 10 Mbit/s Ethernet of the paper's era.
  double link_mbytes_per_sec = 1.25;
  /// kBandwidth: fixed propagation latency added after serialization.
  double wire_latency_sec = 50e-6;
  /// Wire size of a control message (header plus fixed fields); every
  /// message carries at least this much. Drives kBandwidth serialization
  /// time and the byte counters of both non-switch models.
  double msg_bytes = 256.0;
  /// Extra wire bytes per payload item a message carries (page-access
  /// entries in a LOAD_COHORT, waits-for edges in a SNOOP_REPLY).
  double bytes_per_item = 32.0;
  /// kRdma: latency from op post to remote completion (NIC-to-NIC).
  double rdma_op_latency_sec = 5e-6;
  /// Delivery fast path (any model): local (from == to) hand-offs run
  /// synchronously instead of through the calendar, and remote messages to
  /// one destination that are co-timed with an in-flight message from the
  /// same sender coalesce into a single batch event (piggybacked lock
  /// grants and 2PC votes): one sender CPU charge, one wire crossing, one
  /// receiver charge for the whole batch. Off by default because batching
  /// changes message timing (and hence metrics) even under kSwitch.
  bool batching = false;

  /// True when any knob deviates from its "off" default, i.e. the network
  /// layer behaves differently from the paper's switch.
  bool any() const { return model != NetModel::kSwitch || batching; }
};

/// Run control: warmup deletion and measurement window.
struct RunParams {
  double warmup_sec = 300.0;
  double measure_sec = 1500.0;
  std::uint64_t seed = 42;
  /// Restart delay prior used before the first commit has been observed
  /// (after that, the running mean response time is used, as in the paper).
  double initial_rt_estimate_sec = 1.0;
  /// Record read/write sets and run the serializability audit (testing).
  bool enable_audit = false;
  /// Batch size for response-time batch-means confidence intervals.
  std::uint64_t rt_batch_size = 200;
  /// Watchdog: fail the run (with a diagnostic dump) after this many fired
  /// events. 0 = unlimited. Diagnostic-only: not part of Fingerprint().
  std::uint64_t watchdog_max_events = 0;
  /// Watchdog: fail the run if this much virtual time passes without any
  /// transaction committing (a wedged or livelocked protocol). 0 = off.
  /// Diagnostic-only: not part of Fingerprint().
  double watchdog_stall_sec = 0.0;
};

/// Complete configuration of one simulation run.
///
/// Every config struct gets its own structured binding in Fingerprint(),
/// which names all of its fields. A new member here, or a new field in a
/// struct that already has a binding, fails to compile until Fingerprint()
/// mixes it or says why not; a new struct type needs a binding added by hand.
struct SystemConfig {
  MachineParams machine;
  DatabaseParams database;
  PlacementParams placement;
  WorkloadParams workload;
  CostParams costs;
  LockingParams locking;
  FaultParams faults;
  OverloadParams overload;
  NetParams net;
  RunParams run;
  CcAlgorithm algorithm = CcAlgorithm::kTwoPhaseLocking;

  /// Returns an empty string if the configuration is consistent, else a
  /// human-readable description of the first problem found.
  std::string Validate() const;

  /// Stable content hash (used as the bench result-cache key).
  std::uint64_t Fingerprint() const;
};

/// The paper's Table 4 settings: 8 relations x 8 partitions, 128 terminals,
/// 8 pages/partition, write prob 1/4, 8K instructions/page, 10 MIPS host,
/// 1 MIPS nodes, 2 disks/node at 10-30 ms, 2K/2K/1K/0 cost instructions,
/// 1 s detection interval.
SystemConfig PaperBaseConfig();

const char* ToString(CcAlgorithm a);
const char* ToString(ExecPattern p);
const char* ToString(NetModel m);

/// All five algorithms in the paper's presentation order.
inline constexpr CcAlgorithm kAllAlgorithms[] = {
    CcAlgorithm::kTwoPhaseLocking, CcAlgorithm::kBasicTimestamp,
    CcAlgorithm::kWoundWait, CcAlgorithm::kOptimistic, CcAlgorithm::kNoDc};

}  // namespace ccsim::config

#endif  // CCSIM_CONFIG_PARAMS_H_
