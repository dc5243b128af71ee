//===- tests/sharded_relation_test.cpp - Horizontal sharding -----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// runtime/ShardedRelation.h: hash-partitioning one relation across N
/// independently synthesized ConcurrentRelation shards. Covers routing
/// choice and placement invariants, single-shard vs fan-out execution,
/// fan-out by an alternate key (routing fallback on a two-key spec),
/// prepared-handle lifetime across shard-local migrateTo/adaptPlans
/// (per-shard epoch delegation, exact per-shard miss accounting),
/// batches spanning shards, fan-out queries streaming during a
/// concurrent shard migration, the shard-at-a-time full rollout (plus
/// the OnlineTuner overload driving it), and a multi-thread mixed
/// workload with mid-run per-shard migration verified against the
/// replayed-log oracle (tests/StressHarness.h).
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "autotune/OnlineTuner.h"
#include "decomp/Shapes.h"
#include "lockplace/PlacementSchemes.h"
#include "runtime/ShardedRelation.h"
#include "workload/GraphWorkload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

using namespace crs;

namespace {

Tuple key(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple weight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

RepresentationConfig stickCoarse() {
  return makeGraphRepresentation({GraphShape::Stick,
                                  PlacementSchemeKind::Coarse, 1,
                                  ContainerKind::HashMap,
                                  ContainerKind::TreeMap});
}

RepresentationConfig splitStriped(uint32_t Stripes = 64) {
  return makeGraphRepresentation({GraphShape::Split,
                                  PlacementSchemeKind::Striped, Stripes,
                                  ContainerKind::ConcurrentHashMap,
                                  ContainerKind::TreeMap});
}

/// A src value routed to shard \p Shard (probing the routing hash).
int64_t srcOnShard(const ShardedRelation &R, unsigned Shard,
                   int64_t From = 0) {
  const RelationSpec &Spec = R.spec();
  for (int64_t S = From; S < From + 4096; ++S)
    if (R.shardOf(Tuple::of({{Spec.col("src"), Value::ofInt(S)}})) == Shard)
      return S;
  ADD_FAILURE() << "no src routed to shard " << Shard << " in 4096 probes";
  return From;
}

TEST(ShardedRelation, RoutingChoiceAndBasicOps) {
  ShardedRelation R(stickCoarse(), 4);
  const RelationSpec &Spec = R.spec();
  // The graph spec's one minimal key is {src, dst}; with no anticipated
  // signatures the planner picks the smallest, lowest subset: {src}.
  EXPECT_EQ(R.routingColumns(), Spec.cols({"src"}));
  EXPECT_EQ(R.numShards(), 4u);

  for (int64_t I = 0; I < 200; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I % 20, I), weight(Spec, I * 7)));
  EXPECT_FALSE(R.insert(key(Spec, 0, 0), weight(Spec, 999))); // duplicate s
  EXPECT_EQ(R.size(), 200u);
  size_t PerShard = 0;
  unsigned NonEmpty = 0;
  for (unsigned I = 0; I < 4; ++I) {
    PerShard += R.shard(I).size();
    NonEmpty += R.shard(I).size() > 0;
  }
  EXPECT_EQ(PerShard, 200u); // shards partition, never duplicate
  EXPECT_GE(NonEmpty, 2u);   // 20 srcs spread over 4 hash buckets

  // Routed query: src covers the routing column.
  std::vector<Tuple> Succ = R.query(
      Tuple::of({{Spec.col("src"), Value::ofInt(3)}}),
      Spec.cols({"dst", "weight"}));
  EXPECT_EQ(Succ.size(), 10u); // dsts 3, 23, ..., 183
  // Fan-out query: dst misses the routing column.
  std::vector<Tuple> Pred = R.query(
      Tuple::of({{Spec.col("dst"), Value::ofInt(7)}}),
      Spec.cols({"src", "weight"}));
  ASSERT_EQ(Pred.size(), 1u);
  EXPECT_EQ(Pred[0].get(Spec.col("weight")).asInt(), 49);

  EXPECT_EQ(R.remove(key(Spec, 7, 7)), 1u);
  EXPECT_EQ(R.remove(key(Spec, 7, 7)), 0u);
  EXPECT_EQ(R.size(), 199u);
  EXPECT_EQ(R.scanAll().size(), 199u);

  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

TEST(ShardedRelation, SingleShardOpsTouchExactlyOneShard) {
  ShardedRelation R(stickCoarse(), 4);
  const RelationSpec &Spec = R.spec();
  ShardedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  ShardedQuery Pred =
      R.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));
  EXPECT_EQ(Ins.numSlots(), 3u);
  EXPECT_TRUE(Succ.singleShard());
  EXPECT_FALSE(Pred.singleShard());

  auto CountsOf = [&](unsigned I) { return R.shard(I).operationCounts(); };
  auto TotalOf = [&] {
    uint64_t T = 0;
    for (unsigned I = 0; I < 4; ++I)
      T += CountsOf(I).total();
    return T;
  };

  uint64_t T0 = TotalOf();
  ASSERT_TRUE(Ins.bind(0, Value::ofInt(5))
                  .bind(1, Value::ofInt(6))
                  .bind(2, Value::ofInt(60))
                  .execute());
  EXPECT_EQ(TotalOf(), T0 + 1); // one hash, one shard, one operation

  T0 = TotalOf();
  EXPECT_EQ(Succ.bind(0, Value::ofInt(5)).count(), 1u);
  EXPECT_EQ(TotalOf(), T0 + 1);

  // The fan-out executes one query per shard.
  T0 = TotalOf();
  EXPECT_EQ(Pred.bind(0, Value::ofInt(6)).count(), 1u);
  EXPECT_EQ(TotalOf(), T0 + 4);
}

/// A two-key spec ({a, b}, a → b, b → a) decomposed split-style, so the
/// routing fallback (keys share no column: route by the first minimal
/// key) and fan-out removes by the alternate key are exercised.
TEST(ShardedRelation, AlternateKeyOpsFanOut) {
  auto Spec = std::make_shared<RelationSpec>(
      RelationSpec({"a", "b"}, {{{"a"}, {"b"}}, {{"b"}, {"a"}}}));
  ColumnSet A = Spec->cols({"a"}), B = Spec->cols({"b"});
  Decomposition D(*Spec);
  NodeId Rho = D.addNode("rho", ColumnSet::empty(), Spec->allColumns());
  NodeId Ua = D.addNode("ua", A, B);
  NodeId La = D.addNode("la", Spec->allColumns(), ColumnSet::empty());
  NodeId Vb = D.addNode("vb", B, A);
  NodeId Lb = D.addNode("lb", Spec->allColumns(), ColumnSet::empty());
  D.addEdge(Rho, Ua, A, ContainerKind::ConcurrentHashMap);
  D.addEdge(Ua, La, B, ContainerKind::SingletonCell);
  D.addEdge(Rho, Vb, B, ContainerKind::ConcurrentHashMap);
  D.addEdge(Vb, Lb, A, ContainerKind::SingletonCell);
  auto Decomp = std::make_shared<Decomposition>(std::move(D));
  ASSERT_TRUE(Decomp->validate().ok()) << Decomp->validate().str();
  auto Placement = std::make_shared<LockPlacement>(
      makeStripedPlacement(*Decomp, 16));
  ShardedRelation R({Spec, Decomp, Placement, "twokey"}, 3);
  // {a} and {b} are both minimal keys with empty intersection: the
  // fallback routes by the first whole key.
  EXPECT_EQ(R.routingColumns().size(), 1u);

  for (int64_t I = 0; I < 50; ++I)
    ASSERT_TRUE(R.insert(Tuple::of({{Spec->col("a"), Value::ofInt(I)}}),
                         Tuple::of({{Spec->col("b"), Value::ofInt(1000 + I)}})));
  EXPECT_EQ(R.size(), 50u);

  // Remove by the alternate key {b}: a key for the relation, but it
  // misses the routing column — the remove fans out and still removes
  // exactly the one tuple.
  ShardedRemove RemB = R.prepareRemove(B);
  EXPECT_FALSE(RemB.singleShard());
  EXPECT_EQ(RemB.bind(0, Value::ofInt(1007)).execute(), 1u);
  EXPECT_EQ(RemB.bind(0, Value::ofInt(1007)).execute(), 0u);
  EXPECT_EQ(R.size(), 49u);
  EXPECT_EQ(R.remove(Tuple::of({{Spec->col("b"), Value::ofInt(1013)}})), 1u);

  // Fan-out query by {b} finds the tuple wherever it lives.
  std::vector<Tuple> ByB =
      R.query(Tuple::of({{Spec->col("b"), Value::ofInt(1020)}}), A);
  ASSERT_EQ(ByB.size(), 1u);
  EXPECT_EQ(ByB[0].get(Spec->col("a")).asInt(), 20);
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();

  // The partitioned-uniqueness gap, made visible: the alternate key
  // {b} is not globally unique — two tuples agreeing only on b can
  // land on different shards, where neither shard's put-if-absent sees
  // the other. The merged FD check must flag the corruption, and the
  // fan-out remove takes out every cross-shard duplicate.
  int64_t A0 = -1, A1 = -1;
  for (int64_t V = 100; A1 < 0; ++V) {
    unsigned Shard =
        R.shardOf(Tuple::of({{Spec->col("a"), Value::ofInt(V)}}));
    if (A0 < 0 && Shard == 0)
      A0 = V;
    else if (A0 >= 0 && Shard != 0)
      A1 = V;
  }
  ASSERT_TRUE(R.insert(Tuple::of({{Spec->col("a"), Value::ofInt(A0)}}),
                       Tuple::of({{Spec->col("b"), Value::ofInt(5000)}})));
  ASSERT_TRUE(R.insert(Tuple::of({{Spec->col("a"), Value::ofInt(A1)}}),
                       Tuple::of({{Spec->col("b"), Value::ofInt(5000)}})));
  ValidationResult Corrupt = R.verifyConsistency();
  EXPECT_FALSE(Corrupt.ok()) << "cross-shard b-duplicate went undetected";
  EXPECT_NE(Corrupt.str().find("cross-shard"), std::string::npos)
      << Corrupt.str();
  EXPECT_EQ(R.remove(Tuple::of({{Spec->col("b"), Value::ofInt(5000)}})), 2u);
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();
}

TEST(ShardedRelation, PreparedHandlesSurviveShardLocalMigration) {
  ShardedRelation R(stickCoarse(), 2);
  const RelationSpec &Spec = R.spec();
  ShardedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Rem = R.prepareRemove(Spec.cols({"src", "dst"}));
  ShardedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  auto InsertEdge = [&](int64_t S, int64_t D, int64_t W) {
    return Ins.bind(0, Value::ofInt(S))
        .bind(1, Value::ofInt(D))
        .bind(2, Value::ofInt(W))
        .execute();
  };
  int64_t S0 = srcOnShard(R, 0), S1 = srcOnShard(R, 1);
  for (int64_t I = 0; I < 30; ++I) {
    ASSERT_TRUE(InsertEdge(S0, I, I));
    ASSERT_TRUE(InsertEdge(S1, I, I * 2));
  }

  // Shard-local migration: only shard 0's epoch moves (two flips); the
  // sharded handles keep serving both shards and shard 1 never rebinds.
  uint64_t E0 = R.shard(0).planEpoch(), E1 = R.shard(1).planEpoch();
  MigrationResult Res = R.migrateShard(0, splitStriped());
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(R.shard(0).planEpoch(), E0 + 2);
  EXPECT_EQ(R.shard(1).planEpoch(), E1);
  EXPECT_EQ(R.shard(0).config().Name, splitStriped().Name);
  EXPECT_EQ(R.shard(1).config().Name, stickCoarse().Name);

  // The handles transparently rebind against the migrated shard and
  // stay bound on the untouched one.
  EXPECT_EQ(Succ.bind(0, Value::ofInt(S0)).count(), 30u);
  EXPECT_EQ(Succ.bind(0, Value::ofInt(S1)).count(), 30u);
  EXPECT_TRUE(InsertEdge(S0, 100, 1));
  EXPECT_TRUE(InsertEdge(S1, 100, 1));
  EXPECT_EQ(
      Rem.bind(0, Value::ofInt(S0)).bind(1, Value::ofInt(100)).execute(), 1u);
  EXPECT_EQ(
      Rem.bind(0, Value::ofInt(S1)).bind(1, Value::ofInt(100)).execute(), 1u);
  EXPECT_EQ(R.size(), 60u);
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();
}

TEST(ShardedRelation, AdaptPlansOnOneShardMissesOnlyThere) {
  ShardedRelation R(stickCoarse(), 2);
  const RelationSpec &Spec = R.spec();
  ShardedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Rem = R.prepareRemove(Spec.cols({"src", "dst"}));
  ShardedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  int64_t S0 = srcOnShard(R, 0), S1 = srcOnShard(R, 1);
  auto RunAll = [&](int64_t S) {
    ASSERT_TRUE(Ins.bind(0, Value::ofInt(S))
                    .bind(1, Value::ofInt(999))
                    .bind(2, Value::ofInt(1))
                    .execute());
    EXPECT_GE(Succ.bind(0, Value::ofInt(S)).count(), 1u);
    EXPECT_EQ(
        Rem.bind(0, Value::ofInt(S)).bind(1, Value::ofInt(999)).execute(), 1u);
  };
  // Warm all three signatures on both shards.
  RunAll(S0);
  RunAll(S1);
  uint64_t M0 = R.shard(0).planCacheMisses();
  uint64_t M1 = R.shard(1).planCacheMisses();

  // Replan one shard: its epoch bump retires its plans alone.
  R.shard(0).adaptPlans();

  // Exactly one recompile per signature on the replanned shard — no
  // matter how often the handles execute — and zero anywhere else.
  for (int Round = 0; Round < 3; ++Round) {
    RunAll(S0);
    RunAll(S1);
  }
  EXPECT_EQ(R.shard(0).planCacheMisses(), M0 + 3);
  EXPECT_EQ(R.shard(1).planCacheMisses(), M1);
}

TEST(ShardedRelation, BatchesSpanningShardsGroupPerShard) {
  ShardedRelation R(stickCoarse(), 4);
  const RelationSpec &Spec = R.spec();
  ShardedInsert Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Rem = R.prepareRemove(Spec.cols({"src", "dst"}));
  ShardedQuery Succ =
      R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));

  // One batch of inserts crossing every shard (srcs 0..15 over 4 hash
  // buckets), with one deliberate duplicate: same handle keeps original
  // relative order under the grouping, so the duplicate must lose.
  std::vector<BoundOp> Batch;
  for (int64_t S = 0; S < 16; ++S)
    Batch.push_back(Ins.boundOp(
        {Value::ofInt(S), Value::ofInt(S + 100), Value::ofInt(S * 3)}));
  Batch.push_back(Ins.boundOp(
      {Value::ofInt(0), Value::ofInt(100), Value::ofInt(777)}));
  executeBatch(Batch);
  for (size_t I = 0; I < 16; ++I)
    EXPECT_EQ(Batch[I].result(), 1) << "insert " << I << " should have won";
  EXPECT_EQ(Batch[16].result(), 0) << "duplicate insert should have lost";
  EXPECT_EQ(R.size(), 16u);

  // A mixed batch: streaming queries and removes interleaved across
  // shards; results land by original position.
  int64_t WeightSum = 0;
  auto SumWeights = [&](const Tuple &T) {
    WeightSum += T.get(Spec.col("weight")).asInt();
  };
  std::vector<BoundOp> Mixed;
  for (int64_t S = 0; S < 16; S += 2)
    Mixed.push_back(Succ.boundOp({Value::ofInt(S)}, SumWeights));
  for (int64_t S = 1; S < 16; S += 2)
    Mixed.push_back(
        Rem.boundOp({Value::ofInt(S), Value::ofInt(S + 100)}));
  executeBatch(Mixed);
  for (size_t I = 0; I < 8; ++I)
    EXPECT_EQ(Mixed[I].result(), 1) << "query " << I << " states";
  for (size_t I = 8; I < 16; ++I)
    EXPECT_EQ(Mixed[I].result(), 1) << "remove " << I;
  EXPECT_EQ(WeightSum, 3 * (0 + 2 + 4 + 6 + 8 + 10 + 12 + 14));
  EXPECT_EQ(R.size(), 8u);
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();
}

TEST(ShardedRelation, FanOutQueriesDuringShardMigrationLoseNothing) {
  ShardedRelation R(stickCoarse(), 2);
  const RelationSpec &Spec = R.spec();
  // Stable edges the fan-out must always see exactly once: (s, 777)
  // for s in [0, 32), never mutated below.
  constexpr int64_t StableSrcs = 32, StableDst = 777;
  for (int64_t S = 0; S < StableSrcs; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, StableDst), weight(Spec, S * 7 + 1)));

  ShardedQuery Pred =
      R.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));
  ASSERT_FALSE(Pred.singleShard());

  // Churn on disjoint keys (srcs ≥ 1000, dsts ≠ 777) from one writer
  // thread while another migrates the shards one at a time, twice.
  std::atomic<bool> Done{false}, Querying{false};
  std::thread Churn([&] {
    Xoshiro256 Rng(42);
    while (!Done.load(std::memory_order_acquire)) {
      int64_t S = 1000 + static_cast<int64_t>(Rng.nextBounded(32));
      int64_t D = static_cast<int64_t>(Rng.nextBounded(500));
      if (Rng.nextBounded(2))
        R.insert(key(Spec, S, D), weight(Spec, 5));
      else
        R.remove(key(Spec, S, D));
    }
  });
  std::thread Migrator([&] {
    // Migrate only once the query loop runs: started first, the four
    // migrations could all finish before the loop's first round.
    while (!Querying.load(std::memory_order_acquire))
      std::this_thread::yield();
    for (const RepresentationConfig &Target :
         {splitStriped(), stickCoarse()})
      for (unsigned Shard = 0; Shard < 2; ++Shard) {
        MigrationResult Res = R.migrateShard(Shard, Target);
        EXPECT_TRUE(Res.Ok) << Res.Error;
      }
    Done.store(true, std::memory_order_release);
  });

  // Under-bound queries streaming through the migrations: every merge
  // must contain each stable edge exactly once with its exact weight —
  // a lost tuple (missed by backfill), a duplicate (mirrored twice),
  // or a torn weight would all surface here.
  uint64_t Rounds = 0;
  Querying.store(true, std::memory_order_release);
  while (!Done.load(std::memory_order_acquire)) {
    std::set<int64_t> Seen;
    uint32_t States = 0;
    Pred.bind(0, Value::ofInt(StableDst));
    Pred.forEach([&](const Tuple &T) {
      ++States;
      int64_t S = T.get(Spec.col("src")).asInt();
      EXPECT_TRUE(Seen.insert(S).second)
          << "duplicate stable edge (" << S << ", 777) in a fan-out merge";
      EXPECT_EQ(T.get(Spec.col("weight")).asInt(), S * 7 + 1);
    });
    EXPECT_EQ(States, StableSrcs) << "fan-out merge lost stable edges";
    EXPECT_EQ(Seen.size(), static_cast<size_t>(StableSrcs));
    ++Rounds;
  }
  Migrator.join();
  Churn.join();
  EXPECT_GT(Rounds, 0u);
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();
}

TEST(ShardedRelation, FullMigrateToRollsEveryShard) {
  ShardedRelation R(stickCoarse(), 3);
  const RelationSpec &Spec = R.spec();
  for (int64_t I = 0; I < 90; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I % 30, I), weight(Spec, I)));
  std::vector<Tuple> Before = R.scanAll();

  // Illegal targets reject up front with every shard untouched.
  MigrationResult Bad = R.migrateTo(RepresentationConfig{});
  EXPECT_FALSE(Bad.Ok);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(R.shard(I).config().Name, stickCoarse().Name);

  MigrationResult Res = R.migrateTo(splitStriped());
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Backfilled, 90u); // aggregated across the three shards
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(R.shard(I).config().Name, splitStriped().Name);
  EXPECT_EQ(R.scanAll(), Before);
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();

  // Re-issuing the rollout is free: shards already serving the target
  // are skipped, not re-migrated through another dual-write/backfill.
  uint64_t Epoch0 = R.shard(0).planEpoch();
  MigrationResult Again = R.migrateTo(splitStriped());
  ASSERT_TRUE(Again.Ok) << Again.Error;
  EXPECT_EQ(Again.Backfilled, 0u);
  EXPECT_EQ(R.shard(0).planEpoch(), Epoch0); // untouched, handles stay bound
}

TEST(ShardedRelation, OnlineTunerMigratesShardAtATime) {
  ShardedRelation R(stickCoarse(), 2);
  const RelationSpec &Spec = R.spec();
  for (int64_t I = 0; I < 60; ++I)
    ASSERT_TRUE(R.insert(key(Spec, I % 6, I), weight(Spec, I * 2)));
  R.query(Tuple::of({{Spec.col("src"), Value::ofInt(2)}}),
          Spec.cols({"dst", "weight"}));
  std::vector<Tuple> Before = R.scanAll();

  GraphVariant Target{GraphShape::Split, PlacementSchemeKind::Striped, 64,
                      ContainerKind::ConcurrentHashMap,
                      ContainerKind::TreeMap};
  // Canary shard 0 onto the winner first: the tuner's already-serving
  // test must look at the whole fleet, not shard 0's config, or the
  // canary would stall the rollout of the remaining shards forever.
  ASSERT_TRUE(R.migrateShard(0, makeGraphRepresentation(Target)).Ok);
  OnlineTunerConfig Cfg;
  Cfg.Candidates = {Target};
  Cfg.Threads = 4;
  // A permissive policy exercises the streak and trigger
  // deterministically (as in the single-relation tuner test).
  Cfg.HysteresisRatio = 0.0;
  Cfg.ConfirmTicks = 2;
  OnlineTuner Tuner(R, Cfg);

  TuneTick T1 = Tuner.tick();
  EXPECT_TRUE(T1.Scored);
  EXPECT_FALSE(T1.Migrated);
  // The fleet's cost is the shard-weighted mean over its serving
  // configs: the half-rolled fleet's cost mixes the incumbent's with
  // the winner's. Were it scored on the canary shard alone (the old
  // bug), CurrentCost would equal BestCost identically and no
  // hysteresis ratio > 1 could ever pass.
  EXPECT_NE(T1.CurrentCost, T1.BestCost);
  TuneTick T2 = Tuner.tick();
  ASSERT_TRUE(T2.Migrated) << T2.Migration.Error;
  // The trigger rolled the winner across the whole fleet.
  for (unsigned I = 0; I < 2; ++I)
    EXPECT_EQ(R.shard(I).config().Name, T2.BestName);
  EXPECT_EQ(R.scanAll(), Before);
  EXPECT_TRUE(R.verifyConsistency().ok());
}

TEST(ShardedRelation, StressMixedWorkloadWithPerShardMigrationOracle) {
  ShardedRelation R(stickCoarse(), 4);
  const RelationSpec &Spec = R.spec();
  ShardedGraphTarget Target(R);

  // Four threads of the contended mixed workload; mid-run, the whole
  // fleet migrates shard-at-a-time under traffic, with a live
  // statistics sample between shards (tests/StressHarness.h — the seed
  // prints on failure and CRS_STRESS_SEED reruns it).
  stress::StressOptions Opts;
  Opts.Seed = 20260728;
  stress::StressReport Rep =
      stress::runStressWithOracle(Target, Opts, [&] {
        for (unsigned Shard = 0; Shard < R.numShards(); ++Shard) {
          MigrationResult Res = R.migrateShard(Shard, splitStriped());
          ASSERT_TRUE(Res.Ok) << Res.Error;
          EXPECT_GT(R.sampleStatistics().NodeInstances, 0u);
        }
      });

  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " outcome mismatches, first: " << Rep.Errors[0]
      << "; " << Rep.hint();
  EXPECT_EQ(R.size(), Rep.Expected.size()) << Rep.hint();
  std::vector<std::string> Diffs =
      stress::diffFinalState(R.scanAll(), Spec, Rep.Expected);
  EXPECT_TRUE(Diffs.empty()) << Diffs.size() << " diffs, first: " << Diffs[0]
                             << "; " << Rep.hint();
  for (unsigned I = 0; I < R.numShards(); ++I)
    EXPECT_EQ(R.shard(I).config().Name, splitStriped().Name);
  EXPECT_TRUE(R.verifyConsistency().ok()) << R.verifyConsistency().str();
}

} // namespace
