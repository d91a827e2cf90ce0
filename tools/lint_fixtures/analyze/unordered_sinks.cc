// Fixture: unordered-iter pass, loops whose bodies reach order-sensitive
// sinks (event scheduling, victim selection, stats) and a sink inside a
// FlatHashMap::ForEach callback. Expected: unordered-iter x4.
#include <unordered_map>

#include "ccsim/common/flat_hash.h"

void System::Flush() {
  std::unordered_map<int, Txn*> table;
  for (auto& [id, txn] : table) {
    calendar_.After(1.0, MakeEvent(txn));
  }
  for (auto& [id, txn] : table) {
    if (txn->blocked) AbortTransaction(txn);
  }
  for (auto& [id, txn] : table) {
    stats_.Record(id);
  }
  common::FlatHashMap<std::uint64_t, Txn*> flat;
  flat.ForEach([&](std::uint64_t id, Txn* txn) {
    calendar_.After(1.0, MakeEvent(txn));
  });
}
