#include "ccsim/workload/access_generator.h"

#include <algorithm>

#include "ccsim/common/small_vec.h"
#include "ccsim/sim/check.h"

namespace ccsim::workload {

AccessGenerator::AccessGenerator(const config::WorkloadParams* workload,
                                 const db::Catalog* catalog)
    : workload_(workload), catalog_(catalog) {}

int AccessGenerator::ClassOfTerminal(int terminal) const {
  CCSIM_CHECK(terminal >= 0 && terminal < workload_->num_terminals);
  // Classes occupy contiguous blocks of terminals proportional to ClassFrac.
  double cumulative = 0.0;
  double position = (terminal + 0.5) / workload_->num_terminals;
  for (std::size_t i = 0; i < workload_->classes.size(); ++i) {
    cumulative += workload_->classes[i].fraction;
    if (position < cumulative) return static_cast<int>(i);
  }
  return static_cast<int>(workload_->classes.size()) - 1;
}

int AccessGenerator::GroupRelationOfTerminal(int terminal) const {
  // Terminals are divided into equal groups, one per relation (Sec 4.1:
  // "128 terminals ... divided into groups of 16, with terminals in each
  // group generating transactions that access a common relation").
  int group_size = workload_->num_terminals / catalog_->num_relations();
  CCSIM_CHECK(group_size >= 1);
  return std::min(terminal / group_size, catalog_->num_relations() - 1);
}

int AccessGenerator::DrawPageCount(const config::TransactionClassParams& cls,
                                   sim::RandomStream& rng) const {
  auto avg = cls.pages_per_partition_avg;
  std::int64_t lo = static_cast<std::int64_t>(avg / 2.0);
  std::int64_t hi = cls.spread == config::PageCountSpread::kSymmetric
                        ? static_cast<std::int64_t>(3.0 * avg / 2.0)
                        : static_cast<std::int64_t>(2.0 * avg);
  return static_cast<int>(rng.UniformInt(lo, hi));
}

TransactionSpec AccessGenerator::Generate(int terminal,
                                          sim::RandomStream& rng) const {
  TransactionSpec spec;
  spec.terminal = terminal;
  spec.class_index = ClassOfTerminal(terminal);
  const auto& cls = workload_->classes[static_cast<std::size_t>(spec.class_index)];
  spec.exec_pattern = cls.exec_pattern;

  if (cls.relation_choice == config::RelationChoice::kByTerminalGroup) {
    spec.relation = GroupRelationOfTerminal(terminal);
  } else {
    spec.relation = static_cast<int>(
        rng.UniformInt(0, catalog_->num_relations() - 1));
  }

  // One cohort per node holding a partition of the relation, in node order;
  // within a cohort, partitions in partition order, pages in sampled order.
  // The catalog's precomputed per-node file lists visit the exact (node,
  // file) sequence the per-call filtering used to, so the RNG draw order -
  // and with it every determinism golden - is unchanged.
  const std::vector<NodeId>& nodes = catalog_->NodesOfRelation(spec.relation);
  spec.cohorts.reserve(nodes.size());
  for (std::size_t node_index = 0; node_index < nodes.size(); ++node_index) {
    CohortSpec cohort;
    cohort.node = nodes[node_index];
    for (FileId f :
         catalog_->FilesOfRelationAt(spec.relation, node_index)) {
      int count = DrawPageCount(cls, rng);
      cohort.accesses.reserve(cohort.accesses.size() +
                              static_cast<std::size_t>(count));
      // Distinct pages via rejection; counts are small relative to file size
      // (validated in SystemConfig::Validate), so a linear membership scan
      // over an inline vector beats a heap-allocated hash set. Accept and
      // reject the same draws the set did.
      common::SmallVec<int, 16> chosen;
      while (static_cast<int>(chosen.size()) < count) {
        int page = static_cast<int>(
            rng.UniformInt(0, catalog_->pages_per_file() - 1));
        if (std::find(chosen.begin(), chosen.end(), page) != chosen.end()) {
          continue;
        }
        chosen.push_back(page);
        PageAccess access;
        access.page = PageRef{f, page};
        access.is_write = rng.Bernoulli(cls.write_prob);
        cohort.accesses.push_back(access);
      }
    }
    CCSIM_CHECK_MSG(!cohort.accesses.empty(),
                    "cohort generated with no accesses");
    spec.cohorts.push_back(std::move(cohort));
  }
  CCSIM_CHECK(!spec.cohorts.empty());
  return spec;
}

}  // namespace ccsim::workload
