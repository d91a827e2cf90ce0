#ifndef CCSIM_SIM_STREAM_IDS_H_
#define CCSIM_SIM_STREAM_IDS_H_

#include <cstdint>

namespace ccsim::sim::stream_ids {

/// Central registry of RandomStream id assignments.
///
/// Every RandomStream in the model is constructed as (master_seed,
/// stream_id); SplitMix64 decorrelates the pair into an engine seed
/// (random.cc). Two components that accidentally share a stream id draw
/// *identical* variate sequences - a correlation bug that no test notices
/// until a sweep produces subtly wrong curves - and an id that silently
/// changes breaks bit-reproducibility of every cached result keyed on the
/// old schedule. So ids are assigned here, once, in non-overlapping bands,
/// and nowhere else: `ccsim_analyze` (rng-stream pass) rejects RandomStream
/// constructions in src/ whose stream-id argument does not reference a
/// constant from this registry.
///
/// The values are frozen: they are part of the reproducibility contract
/// (determinism goldens, the committed bench result cache). Add new bands
/// above the existing ones; never renumber.
///
/// The generated stream-map table in EXPERIMENTS.md is derived from this
/// file by `tools/ccsim_analyze --emit-stream-map`; the contiguous doc
/// comment directly above each constant is its table entry.

/// Fake-restart respecification draws: System::restart_rng_ redraws a
/// restarted transaction's access set when WorkloadParams::fake_restarts.
inline constexpr std::uint64_t kFakeRestartStream = 777;

/// Per-node resource band: node n owns ids [base + n*stride, base +
/// (n+1)*stride). Within a node's band, id 0 is the disk-pick stream and
/// ids 1..NumDisks are the per-disk access-time streams (ResourceManager).
inline constexpr std::uint64_t kNodeResourceStreamBase = 1000;

/// Width of one node's resource band: at most 63 disks per node (Validate
/// enforces it). The bands also bound the machine size, unenforced: from 63
/// processing nodes up (62 with 32 or more disks), the last bands reach
/// kNodeVariateStreamBase and share ids with other nodes' variate streams;
/// with faults on, bands reach kFaultCrashStreamBase from 125 nodes up.
inline constexpr std::uint64_t kNodeResourceStreamStride = 64;

/// Per-node model variates (instruction-count draws), one stream per node:
/// base + node id (System::node_rngs_).
inline constexpr std::uint64_t kNodeVariateStreamBase = 5000;

/// Fault injection: per-delivery message-drop decisions (FaultInjector).
inline constexpr std::uint64_t kFaultDropStream = 8900;

/// Fault injection: transient disk-error decisions (FaultInjector).
inline constexpr std::uint64_t kFaultDiskStream = 8901;

/// Fault injection: per-node crash/recovery schedules, one stream per
/// processing node: base + node id (FaultInjector; node 0 never fails).
inline constexpr std::uint64_t kFaultCrashStreamBase = 9000;

/// Terminal band: one stream per terminal, base + terminal index, driving
/// think times and access-set generation (workload::Source, closed model).
inline constexpr std::uint64_t kTerminalStreamBase = 100000;

/// Open-system arrival process: Poisson inter-arrival draws
/// (workload::Source, open model).
inline constexpr std::uint64_t kOpenArrivalStream = 200000;

/// Open-system access-set generation: one aggregated stream shared by all
/// arrivals (workload::Source, open model), replacing the per-terminal
/// streams of the closed model.
inline constexpr std::uint64_t kOpenSpecStream = 200001;

}  // namespace ccsim::sim::stream_ids

#endif  // CCSIM_SIM_STREAM_IDS_H_
