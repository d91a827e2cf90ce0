#include "ccsim/resource/resource_manager.h"

#include "ccsim/sim/check.h"

namespace ccsim::resource {

ResourceManager::ResourceManager(sim::Simulation* sim, double mips,
                                 int num_disks, sim::SimTime min_disk_time,
                                 sim::SimTime max_disk_time,
                                 std::uint64_t master_seed,
                                 std::uint64_t node_stream_base)
    : sim_(sim),
      cpu_(sim, mips),
      disk_pick_(master_seed, node_stream_base) {
  CCSIM_CHECK(num_disks >= 0);
  disks_.reserve(static_cast<std::size_t>(num_disks));
  for (int i = 0; i < num_disks; ++i) {
    disks_.push_back(std::make_unique<Disk>(
        sim, min_disk_time, max_disk_time,
        sim::RandomStream(master_seed,
                          node_stream_base + 1 + static_cast<std::uint64_t>(i))));
  }
}

DiskJob ResourceManager::DiskAccess(DiskOp op) {
  CCSIM_CHECK_MSG(!disks_.empty(), "disk access on a node with no disks");
  auto idx = static_cast<std::size_t>(
      disk_pick_.UniformInt(0, static_cast<std::int64_t>(disks_.size()) - 1));
  return disks_[idx]->Access(op);
}

double ResourceManager::MeanDiskUtilization() const {
  if (disks_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& d : disks_) sum += d->Utilization();
  return sum / static_cast<double>(disks_.size());
}

void ResourceManager::ResetStats() {
  cpu_.ResetStats();
  for (auto& d : disks_) d->ResetStats();
}

}  // namespace ccsim::resource
