#ifndef CCSIM_RESOURCE_RESOURCE_MANAGER_H_
#define CCSIM_RESOURCE_RESOURCE_MANAGER_H_

#include <memory>
#include <vector>

#include "ccsim/resource/cpu.h"
#include "ccsim/resource/disk.h"
#include "ccsim/sim/random.h"
#include "ccsim/sim/simulation.h"

namespace ccsim::resource {

/// The per-node resource manager of Sec 3.4: one CPU and `num_disks` disks.
/// Files at a node are assumed evenly spread over its disks, so each access
/// picks a disk uniformly at random.
class ResourceManager {
 public:
  ResourceManager(sim::Simulation* sim, double mips, int num_disks,
                  sim::SimTime min_disk_time, sim::SimTime max_disk_time,
                  std::uint64_t master_seed, std::uint64_t node_stream_base);
  ResourceManager(const ResourceManager&) = delete;
  ResourceManager& operator=(const ResourceManager&) = delete;

  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }

  int num_disks() const { return static_cast<int>(disks_.size()); }
  Disk& disk(int i) { return *disks_[static_cast<std::size_t>(i)]; }

  /// An access on a uniformly chosen disk (drawn now, queued when awaited).
  DiskJob DiskAccess(DiskOp op);

  /// Mean utilization across this node's disks.
  double MeanDiskUtilization() const;

  /// Installs a shared transient-error hook on every disk of this node
  /// (see Disk::SetFaultHook).
  void SetDiskFaultHook(std::function<double()> hook) {
    for (auto& d : disks_) d->SetFaultHook(hook);
  }

  void ResetStats();

 private:
  sim::Simulation* sim_;
  Cpu cpu_;
  std::vector<std::unique_ptr<Disk>> disks_;
  sim::RandomStream disk_pick_;
};

}  // namespace ccsim::resource

#endif  // CCSIM_RESOURCE_RESOURCE_MANAGER_H_
