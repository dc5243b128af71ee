//===- runtime/ConcurrentRelation.h - The public relation API --*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesized concurrent relation — the library's primary public
/// type. Construct one from a relational specification, an adequate
/// decomposition, and a well-formed lock placement; the relation then
/// offers the paper's atomic operations (§2):
///
///   insert r s t — insert s ∪ t unless a tuple matching s exists
///                  (generalized put-if-absent; returns whether it won);
///   remove r s   — remove the tuple matching key s;
///   query r s C  — project columns C of all tuples extending s.
///
/// Every operation is compiled (lazily, per operation signature) into a
/// plan tailored to the decomposition and placement, executed under
/// two-phase locking in the global lock order: operations are
/// linearizable and deadlock-free by construction (§4.2, §5.1).
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_CONCURRENTRELATION_H
#define CRS_RUNTIME_CONCURRENTRELATION_H

#include "obs/Metrics.h"
#include "plan/Planner.h"
#include "runtime/Interpreter.h"
#include "runtime/Migration.h"
#include "runtime/PlanCache.h"
#include "runtime/Statistics.h"
#include "support/FunctionRef.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace crs {

class PreparedQuery;
class PreparedInsert;
class PreparedRemove;
class Transaction;
class ShardedTransaction;
class WriteAheadLog;
class MvccStore;
namespace detail {
class PreparedOpImpl;

/// One relation's published wiring into an obs::MetricsRegistry:
/// the registry, the relation's base label set, and cached ring
/// pointers for the hot event emitters. Created by attachMetrics,
/// published through an atomic pointer, unpublished + epoch-retired by
/// detachMetrics — readers on the operation paths load it once per
/// operation (one acquire load is the whole cost when detached).
struct RelationObs {
  obs::MetricsRegistry *Reg = nullptr;
  std::string Name;        ///< the `relation` label value
  obs::MetricLabels Labels; ///< base labels ({relation=Name} + extras)
  obs::TraceRing *RelationRing = nullptr;
  obs::TraceRing *TxnRing = nullptr;
  obs::TraceRing *WalRing = nullptr;
  obs::TraceRing *MigrationRing = nullptr;
  std::vector<obs::MetricsRegistry::CallbackId> Callbacks;
};
} // namespace detail

/// Bundles a specification, decomposition, and placement with shared
/// ownership so representations can be built, named, and passed around
/// (the autotuner enumerates hundreds of these).
struct RepresentationConfig {
  std::shared_ptr<const RelationSpec> Spec;
  std::shared_ptr<const Decomposition> Decomp;
  std::shared_ptr<const LockPlacement> Placement;
  std::string Name;
};

/// A concurrent relation with a synthesized representation.
class ConcurrentRelation {
public:
  /// Builds a relation over \p Config. Asserts (debug) that the
  /// decomposition is adequate and the placement well-formed and
  /// container-safe; use the validate() entry points to check
  /// programmatically first.
  explicit ConcurrentRelation(RepresentationConfig Config,
                              CostParams CP = {});

  ConcurrentRelation(const ConcurrentRelation &) = delete;
  ConcurrentRelation &operator=(const ConcurrentRelation &) = delete;
  ~ConcurrentRelation(); // out of line: owns the (private) migration state

  /// insert r s t (§2): atomically, if no tuple matches \p S, inserts
  /// S ∪ T and returns true; otherwise returns false. dom(S) and dom(T)
  /// must be disjoint and jointly cover every column.
  bool insert(const Tuple &S, const Tuple &T);

  /// remove r s (§2): atomically removes tuples extending \p S; returns
  /// the number removed. As in the paper's implementation, \p S must be
  /// a key for the relation.
  unsigned remove(const Tuple &S);

  /// query r s C (§2): atomically returns π_C of all tuples extending
  /// \p S (deduplicated).
  std::vector<Tuple> query(const Tuple &S, ColumnSet C) const;

  /// \name Prepared operations (runtime/PreparedOp.h)
  /// The compile-once contract of the paper — operations are compiled
  /// per (op, dom(s), C) signature — hoisted into the API: a prepared
  /// handle resolves its plan once, binds arguments positionally into a
  /// flat per-thread slot frame (no Tuple construction, no interning,
  /// no signature hash per call), and transparently rebinds itself when
  /// adaptPlans() retires its plan. Handles are cheap to copy, shared
  /// across threads, and must not outlive the relation.
  /// @{
  PreparedQuery prepareQuery(ColumnSet DomS, ColumnSet C) const;
  PreparedInsert prepareInsert(ColumnSet DomS);
  PreparedRemove prepareRemove(ColumnSet DomS);
  /// @}

  /// The recompilation epoch: bumped once per adaptPlans() (and per
  /// migration flip), immediately *before* the plan cache is cleared.
  /// Both the bump and this load are seq_cst: together with the epoch
  /// guard held around every plan dereference, a reader whose epoch
  /// check passes inside its guard can never be holding a plan whose
  /// snapshot could reclaim during that guard (see the grace-period
  /// argument in docs/ARCHITECTURE.md).
  uint64_t planEpoch() const {
    return PlanEpoch.load(std::memory_order_seq_cst);
  }

  /// Number of tuples currently in the relation.
  size_t size() const { return Count.load(std::memory_order_relaxed); }

  const RepresentationConfig &config() const { return Config; }
  /// The relation's specification. Stable for the relation's lifetime:
  /// spec() always returns the object the relation was constructed
  /// with, across any number of migrations (migration requires
  /// specification *equality*, so the target's equal-but-distinct spec
  /// object is never surfaced here) — references clients take before a
  /// migration stay valid after it.
  const RelationSpec &spec() const { return *StableSpec; }

  /// The compiled plan text for a query signature (paper §5.2 style).
  std::string explainQuery(ColumnSet DomS, ColumnSet C) const;
  /// The compiled remove plan (locate + write epilogue) for dom(s) = \p
  /// DomS.
  std::string explainRemove(ColumnSet DomS) const;
  /// The compiled insert plan (resolve/lock schedule + put-if-absent
  /// guard + write phase) for dom(s) = \p DomS.
  std::string explainInsert(ColumnSet DomS) const;
  /// The transactional pair for a mutation signature: the forward plan
  /// (insert or remove, per \p Op) and the inverse plan a transaction's
  /// undo log replays on abort, as one annotated transcript
  /// (crs::explainTxn in the plan printer).
  std::string explainTxn(PlanOp Op, ColumnSet DomS) const;

  /// Total speculative / out-of-order transaction restarts so far.
  uint64_t restarts() const { return Restarts.load(std::memory_order_relaxed); }

  /// Plan-cache compilation count (hot-path health: a warmed relation
  /// stops missing entirely). Prepared handles share this cache: a
  /// handle executes with no cache lookup at all while its plan is
  /// current, and a recompile after adaptPlans() counts as a miss
  /// exactly once per signature — the first rebinder compiles, every
  /// other thread and handle on the same signature rebinds onto that
  /// publication as a hit.
  uint64_t planCacheMisses() const { return Plans.misses(); }

  /// Exact plan-cache hit count (striped counter inside the cache — a
  /// per-stripe private line, so counting hits costs no contended
  /// write). hits() / (hits() + misses()) is the exact hit rate; the
  /// old derive-it-from-op-counts estimate is obsolete.
  uint64_t planCacheHits() const { return Plans.hits(); }

  /// Quiescent whole-structure check (tests): every root-to-leaf path
  /// yields the same tuple set, FDs hold, instance keys are consistent.
  /// Must not race with mutations.
  ValidationResult verifyConsistency() const;

  /// Quiescent statistics snapshot: per-edge container occupancy and
  /// per-node lock traffic. Must not race with mutations.
  RelationStatistics collectStatistics() const;

  /// Statistics-driven replanning: recompiles future plans against the
  /// measured per-edge fanouts (the profiling-driven planning of the
  /// DRS line of work). Existing cached plans are discarded. Quiescent
  /// only: concurrent operations may still use the old plans safely,
  /// but the measurement itself must not race with mutations. May be
  /// called during a migration's dual-write phase from a
  /// MigrationObserver callback (migrating thread, representation
  /// stable) — the recompiled mutation plans keep their MirrorWrite
  /// epilogues — but the quiescence requirement still stands there:
  /// the statistics walk must not race with concurrent mutators.
  /// Must not otherwise race with migrateTo().
  void adaptPlans();

  /// \name Live representation migration (runtime/Migration.h)
  /// @{

  /// Hot-swaps the relation onto \p Target under traffic: installs the
  /// target as a shadow, enters a bounded dual-write phase (mutation
  /// plans gain a MirrorWrite epilogue, visible in explain), backfills
  /// the shadow from a snapshot of the source, then retires the source
  /// behind a drain barrier and bumps the plan epoch so every prepared
  /// handle rebinds onto plans for the new decomposition. Blocking:
  /// runs the whole migration on the calling thread (readers and
  /// writers keep flowing throughout; the only stalls are the two
  /// barrier drains). Illegal targets — empty config, different
  /// specification, inadequate decomposition, ill-formed or
  /// container-unsafe placement — are rejected up front with the
  /// relation untouched. Concurrent calls serialize. If an observer
  /// callback or a backfill allocation throws, the exception
  /// propagates and the relation rolls back to serving the source
  /// representation alone (phase Idle, shadow retired, epoch bumped);
  /// no committed operation is lost.
  MigrationResult migrateTo(RepresentationConfig Target,
                            MigrationObserver *Obs = nullptr);

  /// Idle, or DualWrite while a migration is between its two flips.
  MigrationPhase migrationPhase() const {
    return Phase.load(std::memory_order_acquire);
  }

  /// Live statistics snapshot: briefly closes the operation gate (a
  /// stall bounded by the in-flight operations' drain — the same "one
  /// epoch" pause as a migration flip), collects, and reopens. Unlike
  /// collectStatistics(), safe under traffic. Must not be called from
  /// inside an operation (e.g. a forEach visitor).
  RelationStatistics sampleStatistics() const;

  /// Cumulative per-kind operation counts (striped relaxed counters;
  /// the online tuner diffs successive readings for the live mix).
  OperationCounts operationCounts() const {
    return {NumQueries.load(), NumInserts.load(), NumRemoves.load()};
  }

  /// The operation signatures currently compiled in the plan cache —
  /// the shapes a candidate representation must serve well.
  std::vector<PlanCache::Signature> compiledSignatures() const {
    return Plans.signatures();
  }

  /// @}

  /// \name The epoch-protected read fast path
  /// Epoch-eligible query plans (Plan::EpochEligible: read-only, every
  /// traversed container concurrency-safe) execute under an epoch
  /// guard (sync/Epoch.h) with *zero* physical-lock acquisitions and
  /// without touching the operation gate — a pure read on warm traffic
  /// writes no shared cache line at all. The price is the consistency
  /// class: a fast query is weakly consistent, like iterating a
  /// ConcurrentHashMap — every tuple present for the whole query is
  /// observed, concurrent inserts/removes may or may not be. The
  /// locked path retains per-operation atomicity; disable fast reads
  /// to force every query onto it.
  /// @{

  /// Enables/disables the fast path (on by default; benchmarks toggle
  /// it to compare against the locked path). Takes effect on
  /// subsequent queries; in-flight fast queries complete as started.
  void setFastReads(bool Enabled) {
    FastReads.store(Enabled, std::memory_order_seq_cst);
  }
  bool fastReadsEnabled() const {
    return FastReads.load(std::memory_order_seq_cst);
  }

  /// @}

  /// All tuples, via a serializable full scan (test/debug convenience).
  std::vector<Tuple> scanAll() const;

  /// \name Durability (src/wal)
  /// @{

  /// Attaches a write-ahead log: every subsequent committed mutation —
  /// bare or transactional — appends a `(commitSeq, shard, mutations)`
  /// record to \p Log's partition \p Partition *before* releasing its
  /// locks, labeled as shard \p Shard. The log must outlive the
  /// attachment; attach before traffic (the hook is racy only against
  /// in-flight mutations that resolved their plans pre-attach, so an
  /// attach under load may miss a commit — recovery tests attach on a
  /// quiet relation). Detach before destroying the log.
  void attachWal(WriteAheadLog &Log, uint32_t Partition = 0,
                 uint32_t Shard = 0);
  void detachWal() { Wal.store(nullptr, std::memory_order_release); }
  WriteAheadLog *walLog() const {
    return Wal.load(std::memory_order_acquire);
  }
  /// The WAL partition this relation appends to (set at attachWal; 0
  /// otherwise). Checkpointing uses it to drop the partition's log
  /// segments below the new watermark.
  uint32_t walPartition() const { return WalPartition; }

  /// A checkpoint-consistent snapshot: closes the operation gate
  /// (draining every in-flight operation — WAL appends happen inside
  /// the gate, so the drained state is exactly the committed prefix),
  /// reads the commit clock as \p Watermark, and walks the quiescent
  /// structure. Every mutation this relation logged before the call has
  /// commitSeq ≤ Watermark and is reflected in the returned tuples;
  /// every mutation after it has commitSeq > Watermark (wal/Checkpoint.h
  /// replays exactly the records above the watermark on recovery).
  /// Must not be called from inside an operation.
  std::vector<Tuple> checkpointSnapshot(uint64_t &Watermark) const;

  /// @}

  /// \name Observability (src/obs)
  /// @{

  /// Registers this relation with \p Reg under the label
  /// `relation=Name` (plus \p Extra — ShardedRelation adds shard=i):
  /// callbacks for every counter and gauge the relation already keeps
  /// (op counts, size, restarts, plan-cache hits/misses, plan epoch,
  /// MVCC version-store counters, per-cause transaction aborts), plus
  /// the event-ring wiring for migration, checkpoint, transaction, and
  /// version-store events, plus sampled prepared-op latency histograms
  /// keyed per signature. Same contract as attachWal: attach before
  /// traffic, detach (or destroy the relation) before destroying the
  /// registry. The hot-path cost while attached is one acquire load
  /// per operation plus a sampled clock read (MetricsRegistry's
  /// latency sample period); while detached, the single null-check
  /// load is the entire cost.
  void attachMetrics(obs::MetricsRegistry &Reg, std::string Name,
                     obs::MetricLabels Extra = {});
  /// Unregisters the callbacks and unpublishes the wiring. The state
  /// itself is epoch-retired, since concurrent operations may have
  /// loaded the pointer — but like detachWal, detach on a quiet
  /// relation: an in-flight sampled op may still touch the registry an
  /// instant after detach returns.
  void detachMetrics();
  /// The published wiring (null when detached). Internal: the
  /// checkpoint writer and the online tuner use it to reach the rings
  /// and the registry; treat as read-only.
  const detail::RelationObs *observability() const {
    return Obs.load(std::memory_order_acquire);
  }

  /// @}

  /// The relation's MVCC version store (txn/MvccStore.h): committed
  /// per-tuple version chains that transaction scopes read at a
  /// snapshot with zero locks. Identity-keyed, so it survives
  /// migrations unchanged — a scope's snapshot reads the same versions
  /// before and after a migrateTo() swap. Every committed mutation —
  /// bare or transactional — installs here under its 2PL locks inside
  /// a beginCommit()/endCommit() window.
  MvccStore &mvccStore() { return *Mvcc; }
  const MvccStore &mvccStore() const { return *Mvcc; }

  /// Debug lock-order validation: places this relation's acquisitions
  /// in the cross-set domain order (sync/LockOrderValidator.h). The
  /// default ordinal 0 suits a standalone relation; ShardedRelation
  /// numbers its shards so cross-shard transaction scopes are checked
  /// against the shard-index acquisition discipline.
  void setLockDomainOrdinal(uint32_t Ordinal) { LockDomain = Ordinal; }
  uint32_t lockDomainOrdinal() const { return LockDomain; }

private:
  friend class detail::PreparedOpImpl;
  friend class Transaction;
  friend class ShardedTransaction;

  RepresentationConfig Config;
  /// The construction-time spec object, pinned for the relation's
  /// lifetime so spec() references survive migrations (the decomp in
  /// Config references *its own* equal spec, owned by Config.Spec).
  std::shared_ptr<const RelationSpec> StableSpec;
  CostParams BaseCostParams;
  /// Every operation holds the gate from before plan resolution until
  /// after execution; migration flips and sampleStatistics() close it
  /// briefly (see runtime/Migration.h).
  mutable OpGate Gate;
  /// Guards Planner against the adaptPlans swap. Taken only on the cold
  /// compile path and by adaptPlans itself — never on a warm lookup —
  /// and always *inside* a PlanCache shard mutex (adaptPlans releases
  /// it before clearing the cache, so the order never inverts).
  mutable std::mutex PlannerMutex;
  QueryPlanner Planner;
  PlanExecutor Executor;
  NodeInstPtr Root;
  std::atomic<size_t> Count{0};
  mutable std::atomic<uint64_t> Restarts{0};
  /// Cross-set lock-order domain ordinal (debug validator; see
  /// setLockDomainOrdinal).
  uint32_t LockDomain = 0;
  /// Bumped (seq_cst) by adaptPlans() and the migration flips *before*
  /// clearing the cache: the epoch domain's reclamation contract needs
  /// the bump seq_cst-ordered before the snapshot retire, so a reader
  /// whose in-guard epoch check passes can never dereference a
  /// reclaimable plan (see planEpoch()). A racing rebinder can in
  /// principle observe the new epoch and re-resolve an old plan still
  /// published for one instant — benign for adaptPlans (old plans stay
  /// semantically valid, only the cost model moved), and impossible for
  /// migration flips (they run behind the drain barrier).
  std::atomic<uint64_t> PlanEpoch{0};

  /// The epoch-protected read fast path's state. FastRoot mirrors
  /// Root.get() as a plain atomic so lock-free readers can load it
  /// without racing the retirement flip's Root reassignment; FastReads
  /// gates the path — the retirement flip clears it (seq_cst), then
  /// waits out the epoch (synchronize) on top of the gate drain, so no
  /// fast reader is still traversing the old tree when it swaps.
  mutable std::atomic<NodeInstance *> FastRoot{nullptr};
  std::atomic<bool> FastReads{true};

  /// Per-kind operation counters, striped per thread (Statistics.h):
  /// bumped on the shared execution paths — a single shared counter
  /// line would bounce between every operating core, which the
  /// wait-free read path exists to avoid. Backfill's internal
  /// executions are not counted.
  mutable StripedCounter NumQueries;
  StripedCounter NumInserts;
  StripedCounter NumRemoves;

  /// Migration state (runtime/Migration.cpp). ActiveMirror is the sink
  /// mutation executions install into their context: non-null exactly
  /// while the dual-write phase is active. LiveMigration owns it
  /// (concretely a detail::MirrorRep, held through the virtual-dtor
  /// base so the header stays independent of the implementation).
  /// Retired migrations and superseded configurations go to the epoch
  /// domain — retired plan-cache snapshots hold raw pointers into
  /// their decompositions and placements, so both reclaim after a
  /// grace period instead of accumulating for the relation's lifetime
  /// (the pre-epoch design kept them forever).
  std::atomic<MigrationPhase> Phase{MigrationPhase::Idle};
  std::atomic<MirrorSink *> ActiveMirror{nullptr};
  std::unique_ptr<MirrorSink> LiveMigration;
  std::mutex MigrationM; ///< serializes migrateTo calls

  /// Attached write-ahead log (null when durability is off — the single
  /// load on the mutation path is the whole cost of the feature when
  /// detached). WalPartition/WalShard are set at attach time, before
  /// traffic, and read only when Wal is non-null.
  std::atomic<WriteAheadLog *> Wal{nullptr};
  uint32_t WalPartition = 0;
  uint32_t WalShard = 0;

  /// The MVCC version store (see mvccStore()). unique_ptr so the
  /// header stays independent of txn/; constructed with the relation,
  /// never replaced (migrations swap the decomposition, not the store).
  std::unique_ptr<MvccStore> Mvcc;

  // Plans are compiled on first use per (op, dom(s), C) signature;
  // lookups are wait-free (sharded immutable-snapshot cache).
  mutable PlanCache Plans;

  /// Observability wiring (see attachMetrics). Null when detached;
  /// operations load it once (acquire) and skip all recording on null.
  std::atomic<detail::RelationObs *> Obs{nullptr};
  /// Per-cause transaction abort counters, indexed by TxnAbortCause
  /// (txn/Transaction.h — Transaction.cpp static_asserts the arity).
  /// Striped: wait-die kills under contention would otherwise bounce
  /// one shared line between every aborting core.
  static constexpr unsigned NumAbortCauses = 6;
  mutable StripedCounter AbortCounts[NumAbortCauses];

  const Plan *queryPlanFor(ColumnSet DomS, ColumnSet C) const;
  const Plan *removePlanFor(ColumnSet DomS) const;
  const Plan *insertPlanFor(ColumnSet DomS) const;
  /// Transaction-support plans (src/txn): the exclusive-mode read plan
  /// per (dom(s), C) signature, and the two inverse plans (one each per
  /// relation — both key on the full tuple) a transaction's undo log
  /// replays on abort. Cached like every other signature.
  const Plan *queryForUpdatePlanFor(ColumnSet DomS, ColumnSet C) const;
  const Plan *undoInsertPlan() const;
  const Plan *undoRemovePlan() const;
  /// Signature-keyed dispatch over the three compile paths (prepared
  /// handles rebinding after adaptPlans()).
  const Plan *resolvePlan(PlanOp Op, ColumnSet DomS, ColumnSet C) const;

  /// The shared execution paths: both the legacy Tuple-based methods
  /// and the prepared handles funnel into these (the legacy API is a
  /// thin wrapper that still builds tuples and hashes a signature; the
  /// prepared path arrives here with a pre-resolved plan and the
  /// thread's rebound input scratch).
  ///
  /// runQueryPlan executes \p P with input \p Input, releases the locks
  /// (shrinking phase), then streams every matching state's full tuple
  /// — domain ⊇ dom(s) ∪ C, *not* projected, possibly with duplicate
  /// projections — to \p Visit before recycling the context. Returns
  /// the number of states visited. The visitor must not execute
  /// relation operations on the same thread (asserted in debug).
  uint32_t runQueryPlan(const Plan &P, const Tuple &Input,
                        function_ref<void(const Tuple &)> Visit) const;
  bool runInsertPlan(const Plan &P, const Tuple &Full);
  unsigned runRemovePlan(const Plan &P, const Tuple &S);

  /// The wait-free read fast path. tryFastQuery enters an epoch guard,
  /// checks the fast-reads flag, resolves the plan via \p Resolve
  /// (inside the guard — plan snapshots reclaim on quiescence), and —
  /// when the plan is epoch-eligible — executes it lock-free via
  /// runFastQueryPlan, returning true. Returns false (no execution,
  /// nothing counted) when the flag is down or the plan needs locks;
  /// the caller then runs the locked path, gate first, *outside* any
  /// guard held here — a reader pinning an epoch while blocked on a
  /// closed gate would deadlock the retirement flip's synchronize.
  bool tryFastQuery(function_ref<const Plan *()> Resolve,
                    const Tuple &Input,
                    function_ref<void(const Tuple &)> Visit,
                    uint32_t *Matches) const;
  uint32_t runFastQueryPlan(const Plan &P, const Tuple &Input,
                            function_ref<void(const Tuple &)> Visit) const;
};

} // namespace crs

#endif // CRS_RUNTIME_CONCURRENTRELATION_H
