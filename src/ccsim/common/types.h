#ifndef CCSIM_COMMON_TYPES_H_
#define CCSIM_COMMON_TYPES_H_

#include <cstdint>
#include <functional>

namespace ccsim {

/// Node identifier. Node 0 is the host node (where terminals attach and
/// coordinators run); nodes 1..NumProcNodes are processing nodes (where data
/// lives and cohorts run).
using NodeId = int;
inline constexpr NodeId kHostNode = 0;

/// Transaction identifier; unique across the whole run (never reused, also
/// not across restarts of the same logical transaction -- restart attempts
/// share the TxnId but carry a distinct attempt number).
using TxnId = std::uint64_t;

/// File identifier: one file per relation partition.
using FileId = int;

/// A page of a file: the unit of data access, locking, and timestamping.
struct PageRef {
  FileId file = 0;
  int page = 0;

  friend bool operator==(const PageRef&, const PageRef&) = default;

  /// Dense 64-bit key for hash maps.
  std::uint64_t Key() const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(file))
            << 32) |
           static_cast<std::uint32_t>(page);
  }
  /// The page a Key() names.
  static PageRef FromKey(std::uint64_t key) {
    return PageRef{static_cast<FileId>(key >> 32),
                   static_cast<int>(key & 0xffffffffu)};
  }
};

struct PageRefHash {
  std::size_t operator()(const PageRef& p) const {
    return std::hash<std::uint64_t>{}(p.Key());
  }
};

/// A logical timestamp: (wall-clock simulated time, transaction id) ordered
/// lexicographically, so ties at identical simulated times are broken
/// deterministically and every transaction's timestamp is globally unique.
struct Timestamp {
  double time = 0.0;
  TxnId id = 0;

  friend bool operator==(const Timestamp&, const Timestamp&) = default;
  friend bool operator<(const Timestamp& a, const Timestamp& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  }
  friend bool operator<=(const Timestamp& a, const Timestamp& b) {
    return a < b || a == b;
  }
  friend bool operator>(const Timestamp& a, const Timestamp& b) {
    return b < a;
  }
  friend bool operator>=(const Timestamp& a, const Timestamp& b) {
    return b <= a;
  }
};

/// The timestamp every data item starts with ("written by the initial load").
inline constexpr Timestamp kTimestampZero{-1.0, 0};

/// Kind of data access a cohort requests.
enum class AccessMode { kRead, kWrite };

}  // namespace ccsim

#endif  // CCSIM_COMMON_TYPES_H_
