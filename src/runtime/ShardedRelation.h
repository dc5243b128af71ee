//===- runtime/ShardedRelation.h - Hash-partitioned relations ---*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Horizontal sharding: one relation hash-partitioned across N inner
/// ConcurrentRelation shards by a routing column set (plan/Routing.h).
/// The paper synthesizes one concurrent representation per relation;
/// however well that representation is decomposed and locked, its
/// hottest instances eventually bound throughput. Partitioning is the
/// classic next move (cf. perfbook's partitioning/per-CPU chapters):
/// every shard keeps its *own* synthesized representation — its own
/// decomposition instance tree, lock placement, plan cache, statistics,
/// operation gate — so shards never share a mutable cache line, and
/// each can be migrated or tuned independently.
///
/// The operation contract:
///
///  * **Single-shard operations** (the common case): any operation
///    whose bound columns cover the routing set routes to exactly one
///    shard, paying one routing hash on top of the inner prepared-op
///    fast path. Inserts always qualify (they bind every column), but
///    their dom(s) must *contain* the routing set — the put-if-absent
///    check is shard-local, so tuples agreeing on s must be co-located
///    (asserted at prepare/execute time). The same locality limit means
///    a functional dependency whose left side misses the routing set
///    (an alternate key on a multi-key spec) is NOT enforced across
///    shards — the standard partitioned-uniqueness trade; keep such
///    inserts serialized by the caller, and note verifyConsistency's
///    merged check reports cross-shard violations.
///  * **Fan-out operations**: an under-bound query (or a remove by a
///    key that misses routing columns) executes on every shard; query
///    results stream through the same forEach surface, shard by shard,
///    with no global materialization. Each per-shard execution is
///    individually atomic, but a fan-out is not one transaction: it
///    observes the shards at successive instants — exactly as
///    linearizable per-key operations compose anywhere else.
///  * **Batches**: sharded handles produce routed BoundOps, so
///    executeBatch's existing same-handle grouping turns a batch
///    crossing shards into per-shard groups automatically.
///  * **Per-shard migration**: migrateTo walks the shards one at a
///    time, so each dual-write/backfill only ever stalls 1/N of the
///    keyspace; shard-local migrateTo/adaptPlans bump only that
///    shard's plan epoch, and sharded prepared handles revalidate
///    per shard — handles on untouched shards never rebind.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_RUNTIME_SHARDEDRELATION_H
#define CRS_RUNTIME_SHARDEDRELATION_H

#include "plan/Routing.h"
#include "runtime/ConcurrentRelation.h"
#include "runtime/PreparedOp.h"

#include <memory>
#include <vector>

namespace crs {

class ShardedRelation;
class ShardedQuery;
class ShardedInsert;
class ShardedRemove;
class ShardedTransaction;

namespace detail {

/// The shared state behind one sharded prepared handle: an inner
/// PreparedOpImpl per shard (same signature, so identical bind-slot
/// layouts) plus the routing layout extracted from that layout once.
/// Shard 0's impl doubles as the *staging* frame: bind() writes the
/// calling thread's values there, and execution reads the bound frame
/// back and hands it to the routed shard's impl as an explicit
/// argument array — one frame write per bind, one hash per execution,
/// and the inner epoch check (two atomic loads against the owning
/// shard) delegates per shard.
class ShardedOpImpl {
public:
  ShardedOpImpl(const ShardedRelation &R, PlanOp Op, ColumnSet DomS,
                ColumnSet Out, bool Mut);

  unsigned numSlots() const { return Staging->numSlots(); }
  ColumnId slotColumn(unsigned Slot) const {
    return Staging->slotColumn(Slot);
  }
  /// Whether bound operations of this signature route to one shard.
  bool singleShard() const { return Route.Covered; }

  void bind(unsigned Slot, Value V) const { Staging->bind(Slot, V); }

  /// The shard the calling thread's bound frame routes to (requires
  /// singleShard()).
  unsigned routedShard() const;
  /// The shard an explicit argument array routes to.
  unsigned shardOfArgs(const Value *Args) const;

  uint32_t runQuery(function_ref<void(const Tuple &)> Visit) const;
  bool runInsert() const;
  unsigned runRemove() const;

  const PreparedOpImpl &shardImpl(unsigned Shard) const {
    return *PerShard[Shard];
  }
  const ShardedRelation &relation() const { return *Rel; }
  ColumnSet outputColumns() const { return Staging->outputColumns(); }

private:
  friend class crs::ShardedQuery;
  friend class crs::ShardedInsert;
  friend class crs::ShardedRemove;

  const ShardedRelation *Rel;
  std::vector<std::shared_ptr<PreparedOpImpl>> PerShard;
  PreparedOpImpl *Staging; ///< PerShard[0]: owns the per-thread frame
  RoutingLayout Route;
};

} // namespace detail

/// A concurrent relation hash-partitioned across N independent
/// ConcurrentRelation shards. All shards are built from (and, after a
/// full migrateTo, return to) one RepresentationConfig; shard-local
/// migration can make them diverge deliberately. The public surface
/// mirrors ConcurrentRelation where the semantics carry over;
/// aggregate views (size, statistics, counters) sum the shards.
class ShardedRelation {
public:
  /// Builds \p NumShards shards over \p Config, partitioned by
  /// \p Routing. An empty routing set asks the planner to choose
  /// (chooseRoutingColumns over the spec's minimal keys). The routing
  /// set must be nonempty after resolution and covered by dom(s) of
  /// every insert issued against the relation.
  explicit ShardedRelation(RepresentationConfig Config, unsigned NumShards,
                           ColumnSet Routing = ColumnSet::empty(),
                           CostParams CP = {});

  ShardedRelation(const ShardedRelation &) = delete;
  ShardedRelation &operator=(const ShardedRelation &) = delete;

  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  ColumnSet routingColumns() const { return Routing; }

  ConcurrentRelation &shard(unsigned I) { return *Shards[I]; }
  const ConcurrentRelation &shard(unsigned I) const { return *Shards[I]; }

  /// The shard tuples matching \p S live on; requires dom(s) to cover
  /// the routing columns (asserted).
  unsigned shardOf(const Tuple &S) const {
    return static_cast<unsigned>(routingHash(S, Routing) % Shards.size());
  }

  /// insert r s t (§2), routed by the routing columns of s. dom(s) must
  /// cover the routing set: the put-if-absent check is shard-local, so
  /// tuples agreeing on s must land on the same shard (asserted).
  bool insert(const Tuple &S, const Tuple &T);

  /// remove r s (§2): routed when dom(s) covers the routing columns,
  /// otherwise executed on every shard (the tuple lives on exactly one;
  /// returns the total removed).
  unsigned remove(const Tuple &S);

  /// query r s C (§2): routed when dom(s) covers the routing columns;
  /// otherwise fans out and merges (π_C results deduplicated globally,
  /// like the single-relation query).
  std::vector<Tuple> query(const Tuple &S, ColumnSet C) const;

  /// \name Prepared operations against the sharded surface
  /// Same contract as ConcurrentRelation's handles (per-thread sticky
  /// binds, epoch-checked plans, streaming visitors); routing is
  /// resolved per execution from the bound frame. Handles must not
  /// outlive the relation.
  /// @{
  ShardedQuery prepareQuery(ColumnSet DomS, ColumnSet C) const;
  ShardedInsert prepareInsert(ColumnSet DomS);
  ShardedRemove prepareRemove(ColumnSet DomS);
  /// @}

  /// Tuples across all shards.
  size_t size() const;

  const RepresentationConfig &config() const { return Shards[0]->config(); }
  const RelationSpec &spec() const { return Shards[0]->spec(); }

  /// Aggregate executor health (sums over shards).
  uint64_t restarts() const;
  uint64_t planCacheMisses() const;
  uint64_t planCacheHits() const;
  OperationCounts operationCounts() const;

  /// Attaches every shard to \p Reg under the relation name \p Name
  /// with a per-shard `shard=i` label, so the registry's tree reads
  /// relation{relation="...",shard="0"}... per shard and aggregation
  /// happens at query time. Same quiescence contract as the per-shard
  /// ConcurrentRelation::attachMetrics.
  void attachMetrics(obs::MetricsRegistry &Reg, const std::string &Name);
  void detachMetrics() {
    for (auto &S : Shards)
      S->detachMetrics();
  }

  /// Live statistics aggregated across shards. Each shard quiesces
  /// through its own gate in turn, so the view is per-shard atomic but
  /// not one global snapshot — the right trade for monitoring: a
  /// global barrier would stall the whole keyspace at once.
  RelationStatistics sampleStatistics() const;

  /// Union of the shards' compiled signatures (deduplicated — shards
  /// serve the same operation shapes).
  std::vector<PlanCache::Signature> compiledSignatures() const;

  /// Migrates every shard to \p Target, one shard at a time: at any
  /// instant at most 1/N of the keyspace is paying dual-write and
  /// barrier costs, and the other shards serve undisturbed. Counters
  /// aggregate across shards. An illegal target is rejected by shard
  /// 0's up-front validation with every shard untouched; later shards
  /// cannot fail validation differently (same target, same spec). A
  /// throwing observer propagates, leaving earlier shards migrated —
  /// re-invoke to converge, as with any partially applied rollout.
  MigrationResult migrateTo(RepresentationConfig Target,
                            MigrationObserver *Obs = nullptr);

  /// Migrates one shard only (the rollout / canary primitive). Only
  /// that shard's epoch bumps; handles touching other shards never
  /// rebind.
  MigrationResult migrateShard(unsigned I, RepresentationConfig Target,
                               MigrationObserver *Obs = nullptr);

  /// Statistics-driven replanning, shard by shard (quiescent only, as
  /// for the single relation).
  void adaptPlans();

  /// Quiescent whole-structure check: every shard's representation
  /// verifies, and every tuple lives on the shard its routing key
  /// hashes to.
  ValidationResult verifyConsistency() const;

  /// All tuples across all shards (serializable per shard, not across
  /// shards), sorted.
  std::vector<Tuple> scanAll() const;

  /// Attaches \p Log to every shard: shard i logs to partition i,
  /// labeled shard i (the log must have at least numShards()
  /// partitions — asserted). Per-partition recovery then rebuilds each
  /// shard independently (wal/Checkpoint.h). Same lifetime/quiescence
  /// contract as ConcurrentRelation::attachWal.
  void attachWal(WriteAheadLog &Log);
  void detachWal() {
    for (auto &S : Shards)
      S->detachWal();
  }

private:
  friend class detail::ShardedOpImpl;

  ColumnSet Routing;
  std::vector<std::unique_ptr<ConcurrentRelation>> Shards;
};

/// A prepared `query r s C` against a sharded relation. Routed when the
/// signature covers the routing columns; otherwise every execution fans
/// out across shards, streaming each shard's states through the same
/// visitor (per-shard atomic, merged in shard order).
class ShardedQuery {
public:
  ShardedQuery() = default;

  unsigned numSlots() const { return Impl->numSlots(); }
  ColumnId slotColumn(unsigned Slot) const { return Impl->slotColumn(Slot); }
  /// False when executions fan out across every shard.
  bool singleShard() const { return Impl->singleShard(); }

  const ShardedQuery &bind(unsigned Slot, Value V) const {
    Impl->bind(Slot, V);
    return *this;
  }

  /// Streaming execution (ConcurrentRelation::forEach semantics: full
  /// state tuples, duplicates not collapsed). Returns states visited
  /// across all executed shards.
  uint32_t forEach(function_ref<void(const Tuple &)> Visit) const {
    return Impl->runQuery(Visit);
  }

  /// The number of matching states across the executed shards.
  uint64_t count() const {
    return Impl->runQuery([](const Tuple &) {});
  }

  /// Materializing execution: π_C of the matches, deduplicated across
  /// shards.
  std::vector<Tuple> execute() const;

  /// A routed batch operation (executeBatch groups it with its shard's
  /// other ops). Requires singleShard(): a fan-out query cannot be one
  /// batch op. The visitor (if any) must outlive the batch execution.
  BoundOp boundOp(std::initializer_list<Value> Args,
                  function_ref<void(const Tuple &)> Visit = nullptr) const;

private:
  friend class ShardedRelation;
  friend class ShardedTransaction;
  explicit ShardedQuery(std::shared_ptr<detail::ShardedOpImpl> I)
      : Impl(std::move(I)) {}
  std::shared_ptr<detail::ShardedOpImpl> Impl;
};

/// A prepared `insert r s t` against a sharded relation. Always routed
/// (inserts bind every column); the prepared dom(s) must cover the
/// routing columns so the shard-local put-if-absent is sound.
class ShardedInsert {
public:
  ShardedInsert() = default;

  unsigned numSlots() const { return Impl->numSlots(); }
  ColumnId slotColumn(unsigned Slot) const { return Impl->slotColumn(Slot); }

  const ShardedInsert &bind(unsigned Slot, Value V) const {
    Impl->bind(Slot, V);
    return *this;
  }

  bool execute() const { return Impl->runInsert(); }

  /// A routed batch operation for executeBatch.
  BoundOp boundOp(std::initializer_list<Value> Args) const;

private:
  friend class ShardedRelation;
  friend class ShardedTransaction;
  explicit ShardedInsert(std::shared_ptr<detail::ShardedOpImpl> I)
      : Impl(std::move(I)) {}
  std::shared_ptr<detail::ShardedOpImpl> Impl;
};

/// A prepared `remove r s` against a sharded relation. Routed when
/// dom(s) covers the routing columns; otherwise each execution runs on
/// every shard and sums (the tuple lives on exactly one).
class ShardedRemove {
public:
  ShardedRemove() = default;

  unsigned numSlots() const { return Impl->numSlots(); }
  ColumnId slotColumn(unsigned Slot) const { return Impl->slotColumn(Slot); }
  bool singleShard() const { return Impl->singleShard(); }

  const ShardedRemove &bind(unsigned Slot, Value V) const {
    Impl->bind(Slot, V);
    return *this;
  }

  unsigned execute() const { return Impl->runRemove(); }

  /// A routed batch operation for executeBatch. Requires singleShard().
  BoundOp boundOp(std::initializer_list<Value> Args) const;

private:
  friend class ShardedRelation;
  friend class ShardedTransaction;
  explicit ShardedRemove(std::shared_ptr<detail::ShardedOpImpl> I)
      : Impl(std::move(I)) {}
  std::shared_ptr<detail::ShardedOpImpl> Impl;
};

} // namespace crs

#endif // CRS_RUNTIME_SHARDEDRELATION_H
