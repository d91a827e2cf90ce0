#ifndef CCSIM_CC_WAITS_FOR_GRAPH_H_
#define CCSIM_CC_WAITS_FOR_GRAPH_H_

#include <cstddef>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/common/flat_hash.h"
#include "ccsim/common/small_vec.h"
#include "ccsim/common/types.h"

namespace ccsim::cc {

/// A transaction as the cycle search sees it: its id and its initial
/// startup timestamp, the key of the victim rule.
struct WaitNode {
  TxnId id = 0;
  Timestamp ts{};
};

/// Victim rule of Sec 2.2: the member of `cycle` with the most recent
/// initial startup time (the earliest such member in cycle order on a tie).
TxnId YoungestMember(const std::vector<WaitNode>& cycle);

/// Depth-first search for a waits-for cycle reachable from one transaction.
/// Out-edges come from a callback, so the same search runs over a built
/// WaitsForGraph and over a live LockTable (which builds no graph and
/// expands only the transactions the search reaches). The stack, visited
/// set and edge buffer are members reused across searches: once they have
/// grown to the high-water mark a search allocates nothing.
class CycleSearch {
 public:
  /// Searches from `start`. `expand(id, out)` appends the transactions `id`
  /// waits for to `out` (a std::vector<WaitNode>&), in the order the search
  /// must try them. Returns the members of the first cycle found - the path
  /// suffix from the transaction a back-edge re-entered - or an empty list.
  /// The list is reused by the next search.
  // ccsim-analyze: hot-path(once per blocked request)
  template <typename Expand>
  const std::vector<WaitNode>& Find(const WaitNode& start, Expand&& expand) {
    stack_.clear();
    edges_.clear();
    cycle_.clear();
    state_.Clear();
    Push(start, expand);
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      if (top.next == top.end) {
        *state_.Find(top.txn.id) = kDone;
        edges_.resize(top.begin);
        stack_.pop_back();
        continue;
      }
      WaitNode next = edges_[top.next++];
      const signed char* seen = state_.Find(next.id);
      if (seen == nullptr) {
        Push(next, expand);
      } else if (*seen == kOnPath) {
        std::size_t from = stack_.size();
        while (stack_[from - 1].txn.id != next.id) --from;
        for (std::size_t i = from - 1; i < stack_.size(); ++i) {
          cycle_.push_back(stack_[i].txn);
        }
        break;
      }
    }
    return cycle_;
  }

 private:
  static constexpr signed char kOnPath = 1;
  static constexpr signed char kDone = 2;

  /// One transaction on the current path: its out-edges are
  /// edges_[begin, end), and `next` is the first one not yet tried.
  struct Frame {
    WaitNode txn;
    std::size_t begin;
    std::size_t next;
    std::size_t end;
  };

  template <typename Expand>
  void Push(const WaitNode& txn, Expand& expand) {
    state_[txn.id] = kOnPath;
    std::size_t begin = edges_.size();
    expand(txn.id, edges_);
    stack_.push_back(Frame{txn, begin, begin, edges_.size()});
  }

  std::vector<Frame> stack_;
  /// Out-edges of every transaction on the path, stacked like the frames.
  std::vector<WaitNode> edges_;
  common::FlatHashMap<TxnId, signed char> state_;  // absent = not reached
  std::vector<WaitNode> cycle_;
};

/// A transaction-level waits-for graph built from WaitEdge lists (the union
/// of all nodes' for the Snoop's global detection; local detection searches
/// the lock table directly, see LockTable::FindCycleFrom). Victim selection
/// follows Sec 2.2: abort the transaction with the most recent initial
/// startup time among those in the cycle.
class WaitsForGraph {
 public:
  WaitsForGraph() = default;

  void AddEdges(const std::vector<WaitEdge>& edges);
  void AddEdge(const WaitEdge& edge);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const;

  /// Finds a cycle reachable from `start`, if any, and returns its members
  /// (empty if none).
  std::vector<TxnId> FindCycleFrom(TxnId start) const;

  /// Global detection: repeatedly finds a cycle anywhere in the graph,
  /// selects the youngest member as victim, removes it, and continues until
  /// the graph is acyclic. Returns the victims in detection order.
  std::vector<TxnId> ResolveAllDeadlocks();

  /// Youngest (most recent initial startup) member of `cycle`.
  TxnId YoungestOf(const std::vector<TxnId>& cycle) const;

 private:
  // One graph node; out-edges keep insertion order (it decides DFS order).
  // A graph is built afresh per detection round, so node storage is a flat
  // sorted vector with inline out-edge lists: building and dropping one
  // allocates almost nothing, where the former std::map burned one heap
  // node per transaction per round (DESIGN.md decision #12). The vector is
  // kept sorted by TxnId, so ResolveAllDeadlocks() scans nodes in TxnId
  // order - the cycle found first, and with it the deadlock victim, is
  // identical across runs and stdlib versions, exactly as with the ordered
  // map it replaces.
  struct Node {
    TxnId id;
    Timestamp ts;
    common::SmallVec<TxnId, 4> out;
  };

  /// Index of `id` in nodes_, or nodes_.size() if absent.
  std::size_t FindIndex(TxnId id) const;
  /// Index of `id`, inserting a fresh node (sorted position) if absent.
  std::size_t EnsureNode(TxnId id, Timestamp ts);
  /// The search's view of `id`: CHECK-fails if it has no node.
  WaitNode NodeOf(TxnId id) const;
  /// The members of the first cycle reachable from `start`, with their
  /// timestamps.
  const std::vector<WaitNode>& SearchFrom(TxnId start) const;

  void RemoveNode(TxnId id);

  /// Audit-mode consistency sweep: nodes are sorted by TxnId, every edge
  /// target has a node, and no node waits for itself. No-op unless built
  /// with CCSIM_AUDIT.
  void AuditInvariants() const;

  std::vector<Node> nodes_;  // sorted by id
  mutable CycleSearch search_;  // scratch only; holds no graph state
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_WAITS_FOR_GRAPH_H_
