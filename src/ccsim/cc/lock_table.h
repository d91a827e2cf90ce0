#ifndef CCSIM_CC_LOCK_TABLE_H_
#define CCSIM_CC_LOCK_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ccsim/cc/cc_manager.h"
#include "ccsim/cc/waits_for_graph.h"
#include "ccsim/common/flat_hash.h"
#include "ccsim/common/small_vec.h"
#include "ccsim/common/types.h"
#include "ccsim/sim/completion.h"
#include "ccsim/sim/simulation.h"
#include "ccsim/stats/tally.h"
#include "ccsim/txn/transaction.h"
#include "ccsim/workload/spec.h"

namespace ccsim::cc {

/// Lock modes: read locks can be shared, write locks cannot (Sec 2.2).
enum class LockMode { kShared, kExclusive };

/// Returns true when a lock held in `held` is compatible with a request for
/// `requested`.
constexpr bool Compatible(LockMode held, LockMode requested) {
  return held == LockMode::kShared && requested == LockMode::kShared;
}

/// Page-level lock table: the mechanism shared by 2PL and WW. Pure
/// mechanism - conflict *policy* (wait quietly, detect deadlocks, or wound)
/// lives in the owning CC manager, which inspects the conflicting
/// transactions returned by Request().
///
/// Queue discipline: FIFO, except that upgrade requests (shared -> exclusive
/// by a current holder) wait at the front, ahead of ordinary waiters.
/// A request never jumps an occupied queue even if it is compatible with the
/// current holders (prevents writer starvation).
///
/// Storage is sparse and flat (DESIGN.md decision #12): entries live in an
/// open-addressing table keyed by page id, 32 bytes a slot. An entry with
/// one holder and nobody waiting - almost every locked page - keeps that
/// holder inline; a second holder or a first waiter moves the entry's
/// holders and wait queue into one heap block, which goes again once the
/// page is back to one holder and no waiter. Holders and waiters are
/// TxnIds; the one handle per transaction lives in the table's registry,
/// where blockers, waits-for edges and the deadlock search look up handles
/// and initial timestamps. Holders are kept sorted by TxnId so every
/// holder iteration (blockers, waits-for edges, grant checks) sees the
/// exact order the old std::map gave: deadlock victim choice, and hence
/// the determinism goldens, are byte-identical.
///
/// Waits-for information is read straight off the queues (DESIGN.md
/// decision #15): the keys of entries with waiters are kept in a sorted
/// index, so the Snoop's export and the local deadlock search walk only
/// those, and local detection searches from the blocked transaction
/// without building a graph.
class LockTable {
 public:
  explicit LockTable(sim::Simulation* sim) : sim_(sim) {}
  LockTable(const LockTable&) = delete;
  LockTable& operator=(const LockTable&) = delete;

  /// Invoked at the exact moment a previously blocked request is granted
  /// (immediate grants are visible to the caller via RequestResult). Used by
  /// the owning manager for read-version auditing.
  using GrantCallback =
      std::function<void(const txn::TxnPtr&, const PageRef&, LockMode)>;
  void set_on_delayed_grant(GrantCallback cb) {
    on_delayed_grant_ = std::move(cb);
  }

  /// Queue policy. When false (default, the classic Gray-style manager a la
  /// [Gray79]), a new request never jumps an occupied queue even if it is
  /// compatible with the current holders - writers cannot starve, but
  /// readers arriving behind a queued writer wait and add waits-for edges.
  /// When true, a request compatible with every current holder is granted
  /// immediately regardless of queued waiters.
  void set_allow_queue_jump(bool allow) { allow_queue_jump_ = allow; }
  bool allow_queue_jump() const { return allow_queue_jump_; }

  struct RequestResult {
    std::shared_ptr<sim::Completion<AccessOutcome>> completion;
    bool granted_immediately = false;
    /// When queued: the transactions this request now waits for (incompatible
    /// holders plus incompatible requests queued ahead). Each entry carries
    /// the initial timestamp needed by wound/victim policies.
    std::vector<txn::TxnPtr> blockers;
  };

  /// Requests `mode` on `page` for `txn`, registering `txn` if it is not
  /// yet. Re-requesting a held mode (or a weaker one) grants immediately;
  /// holding kShared and requesting kExclusive queues an upgrade.
  RequestResult Request(const txn::TxnPtr& txn, const PageRef& page,
                        LockMode mode);

  /// Registers `txn` before its first request, so FindTxn resolves it from
  /// then on (the managers register a cohort when it begins).
  void Register(const txn::TxnPtr& txn) {
    registry_.TryEmplace(txn->id(), txn);
  }

  /// The handle of a registered transaction, or nullptr. A transaction is
  /// registered from its first Request (or Register) to its ReleaseAll.
  txn::TxnPtr FindTxn(TxnId id) const {
    const txn::TxnPtr* handle = registry_.Find(id);
    return handle != nullptr ? *handle : nullptr;
  }

  /// Releases everything `txn` holds or waits for on this table and
  /// unregisters it. `accesses` are its cohort's page accesses: a cohort
  /// locks only those pages, so they cover every lock it holds or waits
  /// for here. The pages are visited in ascending key order; those `txn`
  /// neither holds nor waits on (never reached before an abort) are
  /// skipped. Pending requests complete with kAborted if `abort_waiters`
  /// is true (abort path; commit never leaves pending requests). Wakes
  /// newly grantable waiters.
  void ReleaseAll(TxnId txn, std::span<const workload::PageAccess> accesses,
                  bool abort_waiters);

  /// Cancels one waiting request of `txn` on `page`, completing it with
  /// kAborted and waking newly grantable waiters. Held locks are untouched.
  /// Returns false if no such waiting request exists (e.g. it was granted
  /// in the meantime). Used by wait-die (the requester "dies") and by
  /// timeout-based blocking.
  bool CancelRequest(TxnId txn, const PageRef& page);

  /// Txn-level waits-for edges over the current queues: page keys
  /// ascending; per key, each waiter in queue order; per waiter, the
  /// incompatible holders (TxnId ascending), then the conflicting requests
  /// queued ahead of it. This order decides which cycle a WaitsForGraph
  /// built from the edges finds first.
  std::vector<WaitEdge> WaitsForEdges() const;

  /// Local deadlock detection (Sec 2.2): the members of the first waits-for
  /// cycle reachable from `txn`, or an empty list. Returns exactly what
  /// WaitsForGraph::FindCycleFrom(txn.id()) returns over a graph built from
  /// WaitsForEdges(), but reads each reached transaction's out-edges off
  /// the queues, in that same order, and builds no graph. The list is
  /// scratch reused by the next call.
  const std::vector<WaitNode>& FindCycleFrom(const txn::Transaction& txn);

  /// True if `txn` has a request queued on this table (a pending lock or
  /// upgrade).
  bool IsWaiting(TxnId txn) const;
  bool HoldsLock(TxnId txn, const PageRef& page) const;
  std::size_t num_locked_pages() const { return entries_.size(); }
  std::size_t num_waiting_requests() const { return waiting_count_; }

  /// Time blocked requests waited before being granted.
  const stats::Tally& wait_times() const { return wait_times_; }
  void ResetStats() { wait_times_.Reset(); }

  /// Audit-mode consistency sweep over every entry: holders are sorted and
  /// mutually compatible, no transaction is both granted and waiting on one
  /// page (except a queued upgrade), upgrades form a prefix of the queue, no
  /// transaction is queued twice, waiting_count_ matches the queues, every
  /// holder and waiter is registered, entries use their heap block only
  /// while they need it, and queued_keys_ lists exactly the entries that
  /// have waiters. No-op unless built with CCSIM_AUDIT.
  void AuditInvariants() const;

 private:
  struct Holder {
    TxnId id;
    LockMode mode;
  };
  struct Waiter {
    TxnId id;
    LockMode mode;
    bool is_upgrade;
    std::shared_ptr<sim::Completion<AccessOutcome>> completion;
    sim::SimTime since;
  };
  using WaitQueue = common::SmallVec<Waiter, 2>;
  /// The heap part of a shared or contended entry.
  struct Crowd {
    /// Sorted by TxnId ascending; at most one holder when exclusive.
    common::SmallVec<Holder, 2> holders;
    /// FIFO, upgrades form a prefix.
    WaitQueue queue;
  };
  /// Sized for the dominant population: tens of thousands of pages are
  /// locked at once in a megascale run, almost all with a single holder and
  /// nobody waiting (measured ~25k locked vs ~150 waiting at 256 nodes).
  /// Table capacity is high-water, so slot size is the multiplier on the
  /// whole footprint: the sole holder sits inline, everything else behind
  /// one pointer that is null in the common case.
  struct Entry {
    /// The only holder, while `crowd` is null.
    Holder solo;
    /// Every holder and the wait queue, while the page has two or more
    /// holders or any waiter (or mid-release, none of either).
    std::unique_ptr<Crowd> crowd;
  };

  static std::span<Holder> Holders(Entry& entry) {
    if (!entry.crowd) return {&entry.solo, 1};
    return {entry.crowd->holders.begin(), entry.crowd->holders.size()};
  }
  static std::span<const Holder> Holders(const Entry& entry) {
    return Holders(const_cast<Entry&>(entry));
  }
  static std::size_t QueueSize(const Entry& entry) {
    return entry.crowd ? entry.crowd->queue.size() : 0;
  }

  /// Calls fn(blocker id) for every transaction that a request by `txn` for
  /// `mode`, queued behind the first `ahead` waiters of `entry`, waits for:
  /// the incompatible holders (self excluded, TxnId ascending), then the
  /// conflicting requests queued ahead (queue order).
  template <typename Fn>
  static void ForEachBlocker(const Entry& entry, TxnId txn, LockMode mode,
                             bool is_upgrade, std::size_t ahead, Fn&& fn);
  /// Appends the transactions `txn` waits for, in WaitsForEdges() order:
  /// the keys it waits on ascending, and per key its blockers.
  void AppendWaitsFor(TxnId txn, std::vector<WaitNode>& out);
  /// The registered handle of a holder or waiter.
  const txn::TxnPtr& Handle(TxnId id) const;
  /// The search's view of a holder or waiter.
  WaitNode NodeOf(TxnId id) const { return {id, Handle(id)->initial_ts()}; }

  /// Holder slot for `txn`, or nullptr.
  static Holder* FindHolder(Entry& entry, TxnId txn);
  static const Holder* FindHolder(const Entry& entry, TxnId txn);
  /// Inserts keeping holders sorted by TxnId; the entry's sole holder moves
  /// into a new crowd first.
  static void InsertHolder(Entry& entry, TxnId txn, LockMode mode);
  /// Moves the sole holder into a new crowd, if the entry has none yet.
  static Crowd& EnsureCrowd(Entry& entry);
  /// Inserts a waiter at `pos` of `key`'s queue, indexing the key in
  /// queued_keys_ when it is the first.
  void PushWaiter(std::uint64_t key, Crowd& crowd, std::size_t pos,
                  Waiter waiter);
  /// Removes and returns waiter `pos` of `key`'s queue, dropping the key
  /// from queued_keys_ when it was the last.
  Waiter PopWaiter(std::uint64_t key, Crowd& crowd, std::size_t pos);

  bool CanGrant(const Entry& entry, TxnId txn, LockMode mode) const;
  /// Grants what `key`'s queue now allows, then returns the entry to its
  /// resting shape: erased when nobody holds or waits, back to an inline
  /// holder when one holder and no waiter are left.
  void PumpQueue(std::uint64_t key);

  sim::Simulation* sim_;
  GrantCallback on_delayed_grant_;
  bool allow_queue_jump_ = false;
  common::FlatHashMap<std::uint64_t, Entry> entries_;
  static_assert(decltype(entries_)::slot_bytes() <= 32,
                "a lock-table slot is 32 bytes: key, inline holder, pointer");
  // The handle of every transaction that holds, waits or has registered.
  common::FlatHashMap<TxnId, txn::TxnPtr> registry_;
  // Keys of the entries that have waiters, ascending.
  std::vector<std::uint64_t> queued_keys_;
  stats::Tally wait_times_;
  std::size_t waiting_count_ = 0;
  // Deadlock-search scratch, reused across FindCycleFrom calls.
  CycleSearch search_;
  // ReleaseAll's sorted keys, reused across calls.
  std::vector<std::uint64_t> key_scratch_;
};

}  // namespace ccsim::cc

#endif  // CCSIM_CC_LOCK_TABLE_H_
