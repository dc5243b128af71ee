//===- sync/LockSet.h - Per-transaction lock bookkeeping --------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Transactions acquire physical locks during a growing phase and release
/// them during a shrinking phase (two-phase locking, paper §4.2). LockSet
/// tracks the locks one transaction holds: it deduplicates repeated
/// acquisitions of the same physical lock (many logical locks map onto one
/// physical lock under coarse placements), enforces the global lock order
/// of §5.1 in debug builds, and releases everything in reverse order.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_SYNC_LOCKSET_H
#define CRS_SYNC_LOCKSET_H

#include "rel/Tuple.h"
#include "sync/PhysicalLock.h"

#include <memory>
#include <vector>

namespace crs {

/// The global total order on physical locks (paper §5.1): first a
/// topological index of the decomposition node the lock is attached to,
/// then the node instance's key tuple lexicographically, then the stripe
/// number within the instance.
struct LockOrderKey {
  uint32_t NodeTopoIndex = 0;
  Tuple InstanceKey;
  uint32_t Stripe = 0;

  int compare(const LockOrderKey &Other) const {
    if (NodeTopoIndex != Other.NodeTopoIndex)
      return NodeTopoIndex < Other.NodeTopoIndex ? -1 : 1;
    if (int C = InstanceKey.compare(Other.InstanceKey))
      return C;
    if (Stripe != Other.Stripe)
      return Stripe < Other.Stripe ? -1 : 1;
    return 0;
  }
  bool operator<(const LockOrderKey &Other) const {
    return compare(Other) < 0;
  }
};

/// Result of an acquisition attempt.
enum class AcquireResult : uint8_t {
  Ok,        ///< lock held (newly acquired or already held)
  WouldBlock ///< try-acquisition failed; caller must restart the txn
};

/// Result of a transaction-scope acquisition (acquireTxn).
enum class TxnAcquire : uint8_t {
  Ok,         ///< lock held (newly acquired or already held sufficiently)
  WouldBlock, ///< out-of-order try failed; restart the op (wait-die)
  Upgrade,    ///< held shared, exclusive wanted: not upgradable — abort
};

/// The set of physical locks one transaction currently holds.
/// Not thread-safe: one LockSet per in-flight transaction.
class LockSet {
public:
  LockSet() = default;
  ~LockSet();
  LockSet(const LockSet &) = delete;
  LockSet &operator=(const LockSet &) = delete;

  /// Blocking acquisition in global-order position \p Key. If the lock is
  /// already held in a mode at least as strong, this is a no-op. Asserts
  /// (debug) that \p Key does not precede the strongest key held so far —
  /// the planner must emit locks in order.
  void acquire(PhysicalLock &Lock, const LockOrderKey &Key, LockMode Mode);

  /// Non-blocking acquisition for out-of-order speculative locks (§4.5).
  /// On WouldBlock the caller must releaseAll() and restart; this is what
  /// keeps speculative placements deadlock-free.
  AcquireResult tryAcquire(PhysicalLock &Lock, const LockOrderKey &Key,
                           LockMode Mode);

  /// Transaction-scope acquisition: across chained operations the set's
  /// MaxKey reflects the *whole scope*, so a later op's locks may fall
  /// below it. In-order requests block (when \p MayBlock), unless a
  /// stamped scope that already holds locks would queue behind an older
  /// holder: that reports WouldBlock (wait-die: the younger dies, never
  /// waits). Out-of-order requests go through the try path, and a
  /// failure surfaces as WouldBlock for the caller's bounded wait-die
  /// abort path — no acquisition ever blocks out of order, so the
  /// waits-for graph of blocking edges stays acyclic across transaction
  /// scopes. A request
  /// to escalate a held shared lock reports Upgrade (a shared_mutex
  /// cannot upgrade atomically; the transaction layer avoids this by
  /// locking reads exclusively, and treats Upgrade as an abort).
  TxnAcquire acquireTxn(PhysicalLock &Lock, const LockOrderKey &Key,
                        LockMode Mode, bool MayBlock);

  /// A rollback point for partial release: everything acquired after
  /// mark() can be released with releaseToMark() — the retry path of a
  /// transactional operation, which must shed the failed attempt's
  /// locks while retaining the scope's earlier acquisitions.
  struct Mark {
    size_t HeldCount = 0;
    bool HasMaxKey = false;
    LockOrderKey MaxKey;
  };
  Mark mark() const { return {Held.size(), HasMaxKey, MaxKey}; }

  /// Releases (in reverse order) every lock acquired since \p M and
  /// restores the order high-water mark. The caller keeps the locked
  /// instances alive until this returns (as for releaseAll), and must
  /// not have released anything since taking the mark.
  void releaseToMark(const Mark &M);

  /// True if this transaction already holds \p Lock (in any mode).
  bool holds(const PhysicalLock &Lock) const;

  /// True if this transaction holds \p Lock in a mode at least \p Mode.
  bool holdsAtLeast(const PhysicalLock &Lock, LockMode Mode) const;

  /// Releases every held lock in reverse acquisition order (the
  /// shrinking phase) and clears the set. Lock-owner lifetime is the
  /// caller's duty: POSIX forbids destroying a lock while an unlock of
  /// it is in flight, so whoever owns the locked instances must keep
  /// them alive until this returns (the executor's ExecContext pool
  /// pins them until its post-release reset()).
  void releaseAll();

  size_t heldCount() const { return Held.size(); }

  /// Number of times this set hit WouldBlock (restart pressure metric).
  uint64_t restarts() const { return Restarts; }
  void noteRestart() { ++Restarts; }

  /// True if acquiring a lock at \p Key would respect the global order
  /// given what this transaction already holds. Speculative acquisitions
  /// (§4.5) use this to choose between blocking and try-lock paths.
  bool inOrder(const LockOrderKey &Key) const {
    return !HasMaxKey || !(Key < MaxKey);
  }

  /// \name Wait-die birth stamps (txn/Transaction.h)
  /// A transaction scope sets its birth stamp for the scope's lifetime;
  /// while it is non-zero, every exclusive acquisition publishes it to
  /// the lock's owner table (PhysicalLock::setOwnerStamp) and every
  /// release retracts it, so a contender that loses a try can tell how
  /// old the holder is. Bare operations (stamp 0) never touch the owner
  /// tables — the single extra branch per acquisition is their whole
  /// cost.
  /// @{
  void setBirthStamp(uint64_t S) { BirthStamp = S; }
  uint64_t birthStamp() const { return BirthStamp; }
  /// The owner stamp of the lock behind the most recent WouldBlock,
  /// consumed (reset to 0) by the read — each failed try reports at
  /// most once, so a stale stamp can never kill a later, unrelated
  /// retry. \p Lock (optional) receives that lock, or null; the caller
  /// must keep its owner alive before dereferencing it.
  uint64_t takeLastConflictStamp(const PhysicalLock **Lock = nullptr) {
    uint64_t S = LastConflict;
    if (Lock)
      *Lock = S ? LastConflictLock : nullptr;
    LastConflict = 0;
    LastConflictLock = nullptr;
    return S;
  }
  /// @}

  /// Places this set's acquisitions in the process-global domain order
  /// the per-thread LockOrderValidator checks (debug builds): tier 0
  /// for primary-representation operations with the shard index as
  /// ordinal, tier 1 for mirror/backfill executions on a migration's
  /// target representation — every thread orders source (tier 0) locks
  /// before target (tier 1) locks, and shards in index order.
  void setOrderDomain(uint32_t Tier, uint32_t Ordinal) {
    DomainTier = Tier;
    DomainOrdinal = Ordinal;
  }
  uint64_t orderDomain() const {
    return (static_cast<uint64_t>(DomainTier) << 32) | DomainOrdinal;
  }

private:
  struct Entry {
    PhysicalLock *Lock;
    LockMode Mode;
  };
  std::vector<Entry> Held;
  uint64_t Restarts = 0;
  uint64_t BirthStamp = 0;    ///< this scope's wait-die age (0: bare op)
  uint64_t LastConflict = 0;  ///< holder stamp behind the last WouldBlock
  const PhysicalLock *LastConflictLock = nullptr; ///< ...and its lock
  bool HasMaxKey = false;
  LockOrderKey MaxKey;
  uint32_t DomainTier = 0;
  uint32_t DomainOrdinal = 0;

  Entry *findEntry(const PhysicalLock &Lock);
  const Entry *findEntry(const PhysicalLock &Lock) const;
};

} // namespace crs

#endif // CRS_SYNC_LOCKSET_H
