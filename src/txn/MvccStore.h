//===- txn/MvccStore.h - Per-tuple version chains for MVCC ------*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MVCC substrate behind snapshot reads (txn/Transaction.h): one
/// logical version store per relation, holding a chain of committed
/// versions per *tuple identity* — the valuation of the relation's
/// minimal key columns. Identity-keyed (rather than anchored on the
/// decomposition's node instances) because decompositions are
/// transient: migrateTo() swaps the whole instance tree under traffic,
/// while versions must survive exactly as long as some snapshot can
/// see them. Every synthesized representation of a relation therefore
/// shares this one store, and a snapshot taken before a migration
/// reads identically after the swap (see docs/PAPER_MAP.md for how
/// this relates to the paper's decomposition instances).
///
/// **Visibility.** Versions are stamped with commit sequences from the
/// commit clock: a version is visible at snapshot S iff
///
///   Begin ≤ S  ∧  (End = 0 ∨ End > S)
///
/// Writers install at *commit*, under every 2PL lock the scope still
/// holds, between beginCommit() and endCommit() (sync/CommitClock.h) —
/// so uncommitted writes are never in the store, aborts have nothing
/// to revoke, and the in-flight registry keeps every fresh snapshot
/// below a commit whose installs are mid-flight. Within one commit a
/// key sees at most one effective mutation of each kind in order, so
/// version ranges of one chain never overlap and at most one version
/// per chain is visible at any snapshot.
///
/// **Readers** walk bucket → chain → version lists entirely lock-free
/// under an EpochDomain guard (the caller pins the guard; asserted in
/// debug). Writers publish with release stores under short stripe
/// mutexes, unlink dead versions by swinging predecessor pointers, and
/// retire unlinked nodes through EpochDomain::global() — the RCU
/// discipline of sync/Epoch.h. A reader may harmlessly see a stale
/// End of 0 for a version being terminated: the terminating commit's
/// sequence is above every extant snapshot (in-flight registry), so
/// the visibility verdict is unchanged.
///
/// **Growth.** The primary table and every secondary directory are
/// hash tables that double with their contents (Xu's two-link scheme
/// for RCU-protected resizable tables; cf. Triplett, McKenney &
/// Walpole, USENIX ATC 2011). Writers lock one of a fixed set of
/// stripes (stripe = hash mod the stripe count, bucket = hash mod the
/// bucket count, both powers of two, so a stripe always owns the same
/// residue class of buckets). The bucket-head array is published
/// through an atomic pointer; every list node carries two links, and
/// each table generation threads its lists through one of them
/// (alternating). A grow holds every stripe, threads the *other* link
/// of each node into a fresh, twice-as-large array, publishes it, and
/// retires the old array through the epoch domain — readers still on
/// the old array keep walking their link undisturbed, so no node is
/// ever relinked under a lock-free reader. That link is rewritten only
/// by the grow after next, which therefore waits (skips) until the
/// previous array has been reclaimed, i.e. until every such reader has
/// left. A grow is triggered by the walk length a writer observes
/// under its stripe (MaxWalk) and capped by the live version count, so
/// there is no sizing knob and no shared counter on the write path.
///
/// **Reclamation** is bounded by the minimum active snapshot: prune()
/// unlinks every version with 0 < End ≤ watermark (invisible to every
/// live and future snapshot — sync/CommitClock.h::snapshotWatermark),
/// and whole chains once empty. Commits prune the chains they touch as
/// they install (amortized); prune() is the explicit vacuum for tests
/// and idle housekeeping.
///
/// **Secondary chain directories.** A query that binds only a proper
/// subset of the identity columns (a successor query binding `src` on
/// a `(src, dst)`-keyed graph) cannot use the primary hash directory.
/// For each such column set the relation serves (surfaced from the
/// plan cache's compiled query signatures, or lazily on the first
/// falling-back read), the store keeps a secondary directory: a hash
/// table from the projected sub-key to the chains extending it. Only
/// identity columns participate — a chain's key never changes, so a
/// link is installed once when the chain is created and removed once
/// when the chain empties, both under the chain's primary stripe mutex
/// (then the directory's own stripe); readers walk directory buckets
/// lock-free under the same epoch guard. Links of one sub-key stay
/// contiguous in their bucket, so a reader stops at the end of its
/// group and the grow trigger counts foreign groups, not a sub-key's
/// own fan-out. A new directory is published to the registry first and
/// then backfilled from the live chains stripe by stripe; readers
/// ignore it until the backfill completes (Ready), while installers
/// observe it through the stripe-mutex ordering, so no chain created
/// during the backfill is missed and duplicates are impossible (links
/// dedup under the directory stripe mutex). Directories survive
/// migrateTo untouched — the store is decomposition-independent by
/// design — but are *not* immortal: when a query signature leaves the
/// plan cache (adaptPlans recompiles against a changed workload and the
/// signature is not re-requested), retireStaleDirectories() unpublishes
/// the unused directory from the registry and hands it to the epoch
/// domain, whose deleter frees the directory and its links after the
/// grace period. Every walk of the directory registry therefore pins an
/// epoch guard — including the installers' walks under bucket mutexes —
/// so a straggler that loaded the registry just before an unpublish
/// holds off reclamation, and a link it adds to a retiring directory is
/// simply freed by the deleter.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_TXN_MVCCSTORE_H
#define CRS_TXN_MVCCSTORE_H

#include "obs/EventRing.h"
#include "rel/RelationSpec.h"
#include "rel/Tuple.h"
#include "support/FunctionRef.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace crs {

/// Per-call observability for one snapshotQuery: which access path
/// served it and how much of the store it touched. Filled into a
/// caller-owned struct (no shared counters on the read path); the
/// txn_mvcc_test access-path assertions are built on ChainsVisited
/// staying O(matching chains) for directory-served reads as the rest
/// of the store grows.
struct SnapshotQueryStats {
  uint32_t ChainsVisited = 0; ///< chains whose version list was walked
  uint32_t LinksScanned = 0;  ///< bucket/directory list nodes traversed
  bool DirectoryServed = false; ///< a secondary directory served the read
  bool FullScan = false;        ///< fell back to the whole-store scan
};

/// The per-relation MVCC version store. Thread-safe per the file
/// comment: lock-free epoch-guarded readers, stripe-locked writers.
class MvccStore {
public:
  /// Builds the store for \p Spec: tuple identity is the spec's first
  /// minimal key (every column when the spec has no proper key — each
  /// tuple is then its own identity and updates-in-place do not
  /// exist). The tables start small and grow with the contents.
  explicit MvccStore(const RelationSpec &Spec);
  ~MvccStore();
  MvccStore(const MvccStore &) = delete;
  MvccStore &operator=(const MvccStore &) = delete;

  /// The identity columns (the spec's first minimal key).
  ColumnSet keyColumns() const { return KeyCols; }

  /// \name Commit-side installs
  /// Call with the committing scope's locks still held and a
  /// CommitTicket open (sequence \p Seq): the locks serialize rival
  /// writers per key, the ticket keeps fresh snapshots below Seq until
  /// endCommit. Both prune the touched chain against the current
  /// watermark while they hold its bucket (amortized reclamation).
  /// @{

  /// Installs a committed insert: a new version of π_key(Full)'s chain
  /// with Begin = Seq. \p Full must bind every column.
  void installInsert(const Tuple &Full, uint64_t Seq);

  /// Installs a committed remove: stamps End = Seq on the live version
  /// of π_key(Full)'s chain (no-op if the chain has no live version —
  /// tolerated for idempotent replay paths).
  void installRemove(const Tuple &Full, uint64_t Seq);

  /// @}

  /// Snapshot query: visits the full tuple of every version visible at
  /// snapshot \p Snap that extends \p S (the paper's query r s C read
  /// set, unprojected). Point-looks-up one chain when dom(S) covers the
  /// identity columns; otherwise routes through the best matching
  /// secondary directory (most bound identity columns), falling back
  /// to the whole-store scan only when no ready directory applies.
  /// \p SkipKey (optional) suppresses chains by identity — the
  /// own-writes overlay hook: a transaction passes its write set so
  /// its own undo log can supersede the committed chain. \p Stats
  /// (optional) reports the access path taken. Returns the number
  /// visited. Caller must hold an EpochDomain guard on the global
  /// domain (asserted in debug); acquires no lock.
  uint32_t snapshotQuery(const Tuple &S, uint64_t Snap,
                         function_ref<void(const Tuple &)> Visit,
                         function_ref<bool(const Tuple &)> SkipKey = nullptr,
                         SnapshotQueryStats *Stats = nullptr) const;

  /// Ensures a secondary directory over \p QueryCols ∩ keyColumns()
  /// exists and is (being) backfilled. No-op when the intersection is
  /// empty (nothing to index) or covers the whole identity (the
  /// primary directory already serves it). Returns true if a directory
  /// over that column set exists on return (possibly still
  /// backfilling; readers use it once ready). Thread-safe; callable
  /// concurrently with installs, reads, and pruning. Creation +
  /// backfill lock bucket mutexes, so prefer calling it outside an
  /// epoch guard to keep reclamation prompt.
  bool ensureDirectory(ColumnSet QueryCols);

  /// Number of secondary directories currently registered (tests).
  size_t directoryCount() const;

  /// Retires every *ready* directory whose column set \p StillServed
  /// rejects: unpublishes it from the registry (new installers and
  /// readers no longer see it) and hands it — links included — to the
  /// epoch domain, which frees it after the grace period. Directories
  /// still backfilling are skipped (the backfiller holds a raw pointer;
  /// they are fresh by definition and a candidate next time). Called by
  /// ConcurrentRelation::adaptPlans with the set of query signatures
  /// that survived the replan. Returns directories retired. Thread-safe
  /// against installs, reads, pruning, and ensureDirectory.
  size_t retireStaleDirectories(function_ref<bool(ColumnSet)> StillServed);

  /// Cumulative directories retired (observability:
  /// relation.mvcc.directories_retired).
  uint64_t directoriesRetired() const {
    return DirsRetired.load(std::memory_order_relaxed);
  }

  /// Points directory lifecycle events (DirectoryBackfill /
  /// DirectoryRetire) at \p Ring (the registry's Relation-domain ring);
  /// null detaches. Attach/detach on a quiet store, like attachWal.
  void attachTrace(obs::TraceRing *Ring) {
    Trace.store(Ring, std::memory_order_release);
  }

  /// Explicit vacuum: unlinks and retires every version invisible at
  /// \p Watermark (0 < End ≤ Watermark) and every emptied chain.
  /// Returns versions retired. Safe under concurrent readers and
  /// writers.
  size_t prune(uint64_t Watermark);

  /// \name Metrics (tests, reclamation-boundedness assertions)
  /// @{
  uint64_t installed() const {
    return Installed.load(std::memory_order_relaxed);
  }
  uint64_t retired() const { return Retired.load(std::memory_order_relaxed); }
  /// Versions currently linked (installed − retired).
  uint64_t liveVersions() const { return installed() - retired(); }
  /// Longest chain list hanging off one primary bucket right now — the
  /// hash-quality metric the stress lane bounds (growth must keep the
  /// lists short however many chains the store holds). Pins its own
  /// epoch guard; lock-free.
  size_t maxBucketChainLength() const;
  /// Current primary bucket count (lock-free, racy under grows).
  size_t bucketCount() const;
  /// Table doublings so far, primary and secondary directories alike.
  uint64_t grows() const { return Grows.load(std::memory_order_relaxed); }
  /// installRemove calls that found no live version to end. Tolerated
  /// for idempotent replay (recovery), but outside recovery the
  /// commit protocol makes them impossible — the snapshot stress
  /// oracle asserts this stays zero.
  uint64_t removeNoops() const {
    return RemoveNoops.load(std::memory_order_relaxed);
  }
  /// @}

private:
  struct Version;
  struct Chain;
  struct DirLink;
  struct Directory;
  template <typename NodeT> class Index;
  /// A writer's handle on one primary bucket (see MvccStore.cpp).
  struct Slot;

  /// Locates \p Key's chain (call with the key's primary stripe held);
  /// fills \p S with its bucket and walk length. Null when absent.
  Chain *findChainLocked(const Tuple &Key, uint64_t Hash, Slot &S) const;
  /// Finds or links \p Key's chain; call with its stripe held. A newly
  /// created chain is linked into every registered directory; sets
  /// \p DirWantsGrow when one of those links walked too far.
  Chain *findOrCreateChain(const Tuple &Key, uint64_t Hash, Slot &S,
                           bool &DirWantsGrow);
  /// Unlinks dead versions of \p C below \p Watermark and, when the
  /// chain empties, the chain itself (plus its directory links); call
  /// with the chain's stripe held.
  size_t pruneChainLocked(const Slot &S, Chain *C, uint64_t Watermark);
  /// Links \p C into \p D (dedup under the directory stripe mutex);
  /// call with \p C's primary stripe held. Returns true when the walk
  /// says \p D should grow.
  bool linkChainToDir(Directory &D, Chain *C);
  /// The ready directory with the most columns ⊆ \p QueryDom, or null.
  Directory *directoryFor(ColumnSet QueryDom) const;
  /// Grow entry points; call with no stripe held.
  void growPrimary(size_t SeenBuckets);
  void growDirectory(Directory &D);
  /// Grows every registered directory a long walk flagged.
  void growDirectories();
  /// A table never outgrows the live version count.
  size_t growCap() const { return static_cast<size_t>(liveVersions()); }

  ColumnSet KeyCols;
  ColumnSet AllCols;
  std::unique_ptr<Index<Chain>> Primary;
  std::atomic<uint64_t> Grows{0};
  std::atomic<uint64_t> Installed{0};
  std::atomic<uint64_t> Retired{0};
  std::atomic<uint64_t> RemoveNoops{0};
  std::atomic<uint64_t> DirsRetired{0};
  /// Optional event sink (see attachTrace). Loaded relaxed on the cold
  /// paths that emit; null means no tracing.
  std::atomic<obs::TraceRing *> Trace{nullptr};
  /// Secondary directory registry: a lock-free list (directories push
  /// at head under DirsM; readers/installers load acquire *inside an
  /// epoch guard*). Shrinks only via retireStaleDirectories, which
  /// unlinks under DirsM and epoch-retires — see the file comment.
  std::atomic<Directory *> Dirs{nullptr};
  std::mutex DirsM; ///< serializes directory creation/retire
};

} // namespace crs

#endif // CRS_TXN_MVCCSTORE_H
