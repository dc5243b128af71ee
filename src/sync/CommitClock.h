//===- sync/CommitClock.h - Process-global commit/birth clocks --*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two process-global monotone clocks the transaction and durability
/// layers share:
///
///  * the **commit clock** — stamped under a scope's retained locks (or
///    a bare mutation's operation locks), so conflicting mutations
///    receive sequence numbers consistent with their serialization
///    order. The stress oracle replays committed scopes in this order,
///    the WAL (src/wal) logs mutations under it, and crash recovery
///    replays records sorted by it. Hoisted out of txn/Transaction.cpp
///    so bare prepared-op mutations can stamp the same clock their
///    transactional siblings use — one total commit order for the whole
///    relation fleet, whichever path wrote.
///
///  * the **birth clock** — stamps a transaction scope once, at the
///    *logical* transaction's first attempt, and keeps that stamp across
///    runTransaction retries. Wait-die compares birth stamps: an older
///    scope outranks every younger one on any contended key
///    (sync/LockSet.h carries the stamp to the lock owner tables).
///
/// Both are padded to a cache line of their own: every commit on every
/// thread RMWs the commit clock, and as bare globals the two would
/// otherwise share a line with neighboring globals (false sharing on
/// the hottest words in the transaction layer).
///
/// **MVCC registries.** Snapshot reads (txn/MvccStore.h) add two slot
/// registries alongside the commit clock:
///
///  * the **in-flight commit registry** — a committer stamps its
///    sequence through beginCommit() and holds the slot until every
///    version it installs is in the store (endCommit). A snapshot
///    acquired meanwhile (stableSnapshotSeq) sits strictly *below*
///    every in-flight sequence, so no reader can ever adopt a snapshot
///    that would see half of a multi-key (or multi-shard) commit.
///  * the **active snapshot registry** — every open snapshot publishes
///    its sequence; snapshotWatermark() is the floor below which no
///    live (or future) snapshot can look, the bound MVCC reclamation
///    prunes against. Slots publish a conservative pin (the clock) in
///    the same seq_cst step that claims them, then settle to the final
///    snapshot, so a concurrent watermark read can never overshoot a
///    snapshot being acquired.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_SYNC_COMMITCLOCK_H
#define CRS_SYNC_COMMITCLOCK_H

#include <cstdint>

namespace crs {

/// The highest commit sequence handed out so far (0 before the first
/// commit). Read under an operation-gate barrier this is a checkpoint
/// watermark: every mutation that stamped before the barrier is ≤ this,
/// every mutation after it is > this (src/wal/Checkpoint.h).
uint64_t commitClockNow();

/// The next transaction birth stamp (strictly positive, strictly
/// monotone; a distinct clock so hot commit traffic never delays scope
/// opens). 0 is reserved as "unstamped" throughout the lock layer.
uint64_t nextTxnBirthStamp();

/// \name In-flight commit registry (MVCC)
/// @{

/// A stamped commit held open until its versions are installed.
struct CommitTicket {
  uint64_t Seq = 0;  ///< the commit sequence
  unsigned Slot = 0; ///< registry slot held until endCommit
};

/// Stamps the next commit sequence *and* registers it as in-flight, as
/// one protocol: the slot publishes a conservative lower bound (clock
/// before the stamp, seq_cst) before the stamp itself, so a concurrent
/// stableSnapshotSeq() either sees the registration or draws a clock
/// value below the new sequence — there is no window in which the
/// sequence is visible through the clock but absent from the registry.
/// Call under every lock the commit holds; call endCommit() after the
/// last version install, before or after the locks release (the locks
/// do not protect the registry).
CommitTicket beginCommit();

/// Deregisters \p T: every version of the commit is in the store, so
/// snapshots at or above T.Seq are safe to hand out.
void endCommit(const CommitTicket &T);

/// The highest sequence a fresh snapshot may safely read: min over the
/// in-flight registry of (seq − 1), or the commit clock when nothing is
/// in flight. Monotone with respect to its own past results.
uint64_t stableSnapshotSeq();

/// @}

/// \name Active snapshot registry (MVCC reclamation watermark)
/// @{

/// Acquires a registry slot and a stable snapshot sequence, returned in
/// \p Snap. The slot pins the reclamation watermark at or below Snap
/// until releaseSnapshotSlot().
unsigned acquireSnapshotSlot(uint64_t &Snap);

/// Releases a slot from acquireSnapshotSlot; the watermark may then
/// advance past its snapshot.
void releaseSnapshotSlot(unsigned Slot);

/// The reclamation floor: min(stableSnapshotSeq(), every active
/// snapshot). A version whose End sequence is ≤ this is invisible to
/// every live and future snapshot and may be retired
/// (txn/MvccStore.h::prune).
uint64_t snapshotWatermark();

/// Active snapshot slots (tests).
unsigned activeSnapshots();

/// @}

} // namespace crs

#endif // CRS_SYNC_COMMITCLOCK_H
