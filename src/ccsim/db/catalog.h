#ifndef CCSIM_DB_CATALOG_H_
#define CCSIM_DB_CATALOG_H_

#include <vector>

#include "ccsim/common/types.h"
#include "ccsim/config/params.h"

namespace ccsim::db {

/// The database catalog: the set of files (relation partitions), their sizes
/// in pages, and the FileLocations mapping of files to processing nodes
/// (Table 1). Immutable once built.
///
/// Per-relation layouts (files, nodes, files-per-node) are precomputed at
/// construction and returned by reference: the access generator walks them
/// once per transaction, and recomputing them allocated O(degree^2) vectors
/// per generated transaction (a measurable slice of the megascale memory
/// churn, DESIGN.md decision #12).
class Catalog {
 public:
  Catalog(const config::DatabaseParams& db, std::vector<NodeId> file_to_node);

  int num_relations() const { return db_.num_relations; }
  int partitions_per_relation() const { return db_.partitions_per_relation; }
  int num_files() const { return db_.num_files(); }
  int pages_per_file() const { return db_.pages_per_file; }

  NodeId NodeOfFile(FileId f) const;
  NodeId NodeOfPage(const PageRef& p) const { return NodeOfFile(p.file); }

  int RelationOfFile(FileId f) const;
  FileId FileOf(int relation, int partition) const;

  /// All files of a relation, in partition order.
  const std::vector<FileId>& FilesOfRelation(int r) const;

  /// Distinct nodes holding relation `r`'s partitions, ascending.
  const std::vector<NodeId>& NodesOfRelation(int r) const;

  /// Files of relation `r` placed at NodesOfRelation(r)[node_index], in
  /// partition order.
  const std::vector<FileId>& FilesOfRelationAt(int r,
                                               std::size_t node_index) const;

 private:
  struct RelationLayout {
    std::vector<FileId> files;  // partition order
    std::vector<NodeId> nodes;  // distinct, ascending
    // files_by_node[i]: files at nodes[i], partition order.
    std::vector<std::vector<FileId>> files_by_node;
  };

  const RelationLayout& LayoutOf(int r) const;

  config::DatabaseParams db_;
  std::vector<NodeId> file_to_node_;
  std::vector<RelationLayout> layouts_;  // index = relation
};

}  // namespace ccsim::db

#endif  // CCSIM_DB_CATALOG_H_
