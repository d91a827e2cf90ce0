// Fixture: unordered-iter pass, four loop shapes over one unordered member.
// Expected: unordered-iter x4, one per loop below. The first two reach a
// sink (an event schedule, a victim choice); the last two do not, so only a
// rule that flags every loop catches all four.
#include <unordered_map>

struct Inner {
  std::unordered_map<int, Txn*> table_;
};

struct Holder {
  Inner inner;
};

void Shapes(Holder* h, Inner& in) {
  // Range-for whose header spans two lines.
  for (const auto& [id, txn] :
       in.table_) {
    calendar_.After(1.0, MakeEvent(txn));
  }
  // Range over a two-level member chain.
  for (const auto& [id, txn] : h->inner.table_) {
    if (txn->blocked) AbortTransaction(txn);
  }
  // Iterator loop.
  for (auto it = in.table_.begin(); it != in.table_.end(); ++it) {
    ids_.push_back(it->first);
  }
  // Sink-free range-for: collects values for later use.
  for (const auto& [id, txn] : in.table_) {
    ids_.push_back(id);
  }
}
