#include "ccsim/cc/waits_for_graph.h"

#include <algorithm>
#include <utility>

#include "ccsim/sim/check.h"

namespace ccsim::cc {

std::size_t WaitsForGraph::FindIndex(TxnId id) const {
  auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), id,
      [](const Node& n, TxnId target) { return n.id < target; });
  if (it == nodes_.end() || it->id != id) return nodes_.size();
  return static_cast<std::size_t>(it - nodes_.begin());
}

std::size_t WaitsForGraph::EnsureNode(TxnId id, Timestamp ts) {
  auto it = std::lower_bound(
      nodes_.begin(), nodes_.end(), id,
      [](const Node& n, TxnId target) { return n.id < target; });
  if (it == nodes_.end() || it->id != id) {
    // Keep the first timestamp seen for each transaction (they should all
    // agree; edges from different nodes carry the same initial_ts).
    it = nodes_.insert(it, Node{id, ts, {}});
  }
  return static_cast<std::size_t>(it - nodes_.begin());
}

void WaitsForGraph::AddEdge(const WaitEdge& edge) {
  if (edge.waiter == edge.holder) return;  // self-waits are impossible; guard
  EnsureNode(edge.holder, edge.holder_ts);
  // Re-find after the holder insert: it may have shifted the waiter's slot.
  std::size_t w = EnsureNode(edge.waiter, edge.waiter_ts);
  nodes_[w].out.push_back(edge.holder);
}

void WaitsForGraph::AddEdges(const std::vector<WaitEdge>& edges) {
  for (const auto& e : edges) AddEdge(e);
}

std::size_t WaitsForGraph::num_edges() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) n += node.out.size();
  return n;
}

WaitNode WaitsForGraph::NodeOf(TxnId id) const {
  std::size_t idx = FindIndex(id);
  CCSIM_CHECK(idx < nodes_.size());  // AddEdge creates both endpoints
  return WaitNode{id, nodes_[idx].ts};
}

const std::vector<WaitNode>& WaitsForGraph::SearchFrom(TxnId start) const {
  return search_.Find(NodeOf(start),
                      [this](TxnId id, std::vector<WaitNode>& out) {
                        for (TxnId next : nodes_[FindIndex(id)].out) {
                          out.push_back(NodeOf(next));
                        }
                      });
}

std::vector<TxnId> WaitsForGraph::FindCycleFrom(TxnId start) const {
  if (FindIndex(start) == nodes_.size()) return {};
  std::vector<TxnId> ids;
  for (const WaitNode& member : SearchFrom(start)) ids.push_back(member.id);
  return ids;
}

TxnId YoungestMember(const std::vector<WaitNode>& cycle) {
  CCSIM_CHECK(!cycle.empty());
  WaitNode youngest = cycle.front();
  for (const WaitNode& member : cycle) {
    // Larger timestamp = more recent startup = younger.
    if (youngest.ts < member.ts) youngest = member;
  }
  return youngest.id;
}

TxnId WaitsForGraph::YoungestOf(const std::vector<TxnId>& cycle) const {
  std::vector<WaitNode> members;
  for (TxnId id : cycle) members.push_back(NodeOf(id));
  return YoungestMember(members);
}

void WaitsForGraph::RemoveNode(TxnId id) {
  std::size_t idx = FindIndex(id);
  if (idx < nodes_.size()) {
    nodes_.erase(nodes_.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  for (Node& node : nodes_) {
    for (std::size_t i = 0; i < node.out.size();) {
      if (node.out[i] == id) {
        node.out.erase(i);
      } else {
        ++i;
      }
    }
  }
}

std::vector<TxnId> WaitsForGraph::ResolveAllDeadlocks() {
  AuditInvariants();
  std::vector<TxnId> victims;
  // Search from each node in TxnId order; after every victim, start over.
  for (std::size_t i = 0; i < nodes_.size();) {
    const auto& cycle = SearchFrom(nodes_[i].id);
    if (cycle.empty()) {
      ++i;
      continue;
    }
    TxnId victim = YoungestMember(cycle);
    victims.push_back(victim);
    RemoveNode(victim);
    i = 0;
  }
  return victims;
}

void WaitsForGraph::AuditInvariants() const {
  if (!sim::kAuditEnabled) return;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    CCSIM_DCHECK_MSG(i == 0 || nodes_[i - 1].id < node.id,
                     "graph nodes not sorted by TxnId");
    for (TxnId out : node.out) {
      CCSIM_DCHECK_MSG(out != node.id, "self-wait edge in waits-for graph");
      CCSIM_DCHECK_MSG(FindIndex(out) < nodes_.size(),
                       "edge target missing from adjacency");
    }
  }
}

}  // namespace ccsim::cc
