//===- tests/txn_mvcc_test.cpp - MVCC snapshot-read battery ------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// The snapshot-isolation battery for transactional reads (src/txn +
/// src/txn/MvccStore): the classic anomalies one by one — non-repeatable
/// read, read skew across shards in one scope, lost update (permitted
/// under plain query(), prevented by queryForUpdate()), and phantom
/// behavior (stable within a snapshot, visible to for-update reads) —
/// then the secondary chain directories that give non-key snapshot
/// reads an access path (directory-served visit counts, read skew and
/// phantom stability through a directory, survival across migrateTo) —
/// plus the mechanical guarantees underneath: read-only scopes acquire
/// zero physical locks (sampled lock counters), never die and never
/// retry, commit with sequence 0 (no clock movement), and version
/// reclamation is bounded by the minimum active snapshot. Ends with the
/// fig5 txn-panel regression (reader scopes track bare prepared reads)
/// and the snapshot-consistency stress oracle, which the nightly
/// TSan/ASan stress lane runs at elevated iteration counts.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "autotune/Autotuner.h"
#include "sync/CommitClock.h"
#include "txn/MvccStore.h"
#include "txn/Transaction.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CRS_MVCC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CRS_MVCC_SANITIZED 1
#endif
#endif

using namespace crs;

namespace {

Tuple key(const RelationSpec &Spec, int64_t S, int64_t D) {
  return Tuple::of({{Spec.col("src"), Value::ofInt(S)},
                    {Spec.col("dst"), Value::ofInt(D)}});
}

Tuple weight(const RelationSpec &Spec, int64_t W) {
  return Tuple::of({{Spec.col("weight"), Value::ofInt(W)}});
}

RepresentationConfig splitStriped(uint32_t Stripes = 64) {
  return makeGraphRepresentation({GraphShape::Split,
                                  PlacementSchemeKind::Striped, Stripes,
                                  ContainerKind::ConcurrentHashMap,
                                  ContainerKind::TreeMap});
}

struct Handles {
  PreparedQuery Succ;
  PreparedQuery Exact;
  PreparedInsert Ins;
  PreparedRemove Rem;
  explicit Handles(ConcurrentRelation &R) {
    const RelationSpec &Spec = R.spec();
    Succ = R.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
    Exact = R.prepareQuery(Spec.cols({"src", "dst"}), Spec.cols({"weight"}));
    Ins = R.prepareInsert(Spec.cols({"src", "dst"}));
    Rem = R.prepareRemove(Spec.cols({"src", "dst"}));
  }
};

/// Commits remove(S,D) + insert(S,D,W) as one scope — the "update" all
/// the anomaly tests race against.
void commitRewrite(ConcurrentRelation &R, Handles &H, int64_t S, int64_t D,
                   int64_t W) {
  ASSERT_TRUE(runTransaction(R, [&](Transaction &T) {
    if (!T.remove(H.Rem, {Value::ofInt(S), Value::ofInt(D)}))
      return true;
    if (!T.insert(H.Ins,
                  {Value::ofInt(S), Value::ofInt(D), Value::ofInt(W)}))
      return true;
    return true;
  }));
}

/// The weight a read-only scope sees at (S,D), or -1 if absent.
int64_t readWeight(Transaction &T, Handles &H, const RelationSpec &Spec,
                   int64_t S, int64_t D) {
  int64_t W = -1;
  EXPECT_TRUE(T.query(H.Exact, {Value::ofInt(S), Value::ofInt(D)},
                      [&](const Tuple &Tp) {
                        W = Tp.get(Spec.col("weight")).asInt();
                      }));
  return W;
}

uint64_t totalAcquisitions(const RelationStatistics &Stats) {
  uint64_t N = 0;
  for (const NodeLockTraffic &T : Stats.Nodes)
    N += T.Acquisitions;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Anomaly battery
//===----------------------------------------------------------------------===//

TEST(Mvcc, NonRepeatableReadPrevented) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 2), weight(Spec, 10)));

  Transaction T(R);
  EXPECT_GT(T.snapshotSeq(), 0u);
  EXPECT_EQ(readWeight(T, H, Spec, 1, 2), 10);

  // A rival commits an update between the two reads.
  std::thread Writer([&] { commitRewrite(R, H, 1, 2, 99); });
  Writer.join();
  EXPECT_EQ(R.query(key(Spec, 1, 2), Spec.cols({"weight"})).size(), 1u);

  // The re-read repeats exactly: same snapshot, same value.
  EXPECT_EQ(readWeight(T, H, Spec, 1, 2), 10);
  EXPECT_TRUE(T.commit());
  // Read-only commits stamp no sequence and move no clock.
  EXPECT_EQ(T.commitSeq(), 0u);

  // A scope opened after the rival's commit sees the new version.
  Transaction T2(R);
  EXPECT_EQ(readWeight(T2, H, Spec, 1, 2), 99);
  EXPECT_TRUE(T2.commit());
}

TEST(Mvcc, ReadSkewPreventedAcrossShards) {
  ShardedRelation SR(splitStriped(), 2);
  const RelationSpec &Spec = SR.spec();
  constexpr int64_t NumAccounts = 8, Initial = 100;
  for (int64_t A = 0; A < NumAccounts; ++A)
    SR.insert(key(Spec, A, 0), weight(Spec, Initial));
  ShardedQuery Balance =
      SR.prepareQuery(Spec.cols({"src", "dst"}), Spec.cols({"weight"}));
  ShardedInsert Put = SR.prepareInsert(Spec.cols({"src", "dst"}));
  ShardedRemove Drop = SR.prepareRemove(Spec.cols({"src", "dst"}));
  ColumnId WeightCol = Spec.col("weight");

  // The reader opens first and reads account 0 at its snapshot.
  ShardedTransaction Reader(SR);
  int64_t Bal0 = -1;
  ASSERT_TRUE(Reader.query(Balance, {Value::ofInt(0), Value::ofInt(0)},
                           [&](const Tuple &T) {
                             Bal0 = T.get(WeightCol).asInt();
                           }));
  EXPECT_EQ(Bal0, Initial);

  // A rival transfers 0 → 5 (accounts hash to different shards often;
  // either way the transfer is one atomic cross-account commit).
  std::thread Writer([&] {
    EXPECT_TRUE(runTransaction(SR, [&](ShardedTransaction &T) {
      int64_t A = -1, B = -1;
      if (!T.queryForUpdate(Balance, {Value::ofInt(0), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              A = Tp.get(WeightCol).asInt();
                            }) ||
          !T.queryForUpdate(Balance, {Value::ofInt(5), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              B = Tp.get(WeightCol).asInt();
                            }))
        return true;
      if (!T.remove(Drop, {Value::ofInt(0), Value::ofInt(0)}) ||
          !T.insert(Put, {Value::ofInt(0), Value::ofInt(0),
                          Value::ofInt(A - 40)}) ||
          !T.remove(Drop, {Value::ofInt(5), Value::ofInt(0)}) ||
          !T.insert(Put, {Value::ofInt(5), Value::ofInt(0),
                          Value::ofInt(B + 40)}))
        return true;
      return true;
    }));
  });
  Writer.join();

  // Read skew would show the old 0 with the new 5 (sum 240). The
  // snapshot shows the pre-transfer 5 instead: the reader's whole sum
  // is conserved even though the reads straddle shards and the commit.
  int64_t Sum = 0;
  for (int64_t A = 0; A < NumAccounts; ++A)
    ASSERT_TRUE(Reader.query(Balance, {Value::ofInt(A), Value::ofInt(0)},
                             [&](const Tuple &T) {
                               Sum += T.get(WeightCol).asInt();
                             }));
  EXPECT_EQ(Sum, NumAccounts * Initial);
  EXPECT_TRUE(Reader.commit());
  EXPECT_EQ(Reader.commitSeq(), 0u);

  // A fresh scope sees the transferred state, still conserved.
  ShardedTransaction After(SR);
  int64_t NewSum = 0, New0 = -1;
  for (int64_t A = 0; A < NumAccounts; ++A)
    ASSERT_TRUE(After.query(Balance, {Value::ofInt(A), Value::ofInt(0)},
                            [&](const Tuple &T) {
                              int64_t W = T.get(WeightCol).asInt();
                              NewSum += W;
                              if (A == 0)
                                New0 = W;
                            }));
  EXPECT_EQ(NewSum, NumAccounts * Initial);
  EXPECT_EQ(New0, Initial - 40);
  EXPECT_TRUE(After.commit());
}

TEST(Mvcc, ShardedSnapshotReadAttributesAccessPathPerShard) {
  // The sharded scope's query() walks each touched shard's version
  // store independently, so its access-path report is per shard: one
  // (shard, stats) entry per store the read actually visited.
  constexpr unsigned NumShards = 3;
  constexpr int64_t NumSrcs = 30;
  ShardedRelation SR(splitStriped(), NumShards);
  const RelationSpec &Spec = SR.spec();
  for (int64_t S = 0; S < NumSrcs; ++S)
    for (int64_t D = 0; D < 2; ++D)
      ASSERT_TRUE(SR.insert(key(Spec, S, D), weight(Spec, S)));
  ShardedQuery Succ =
      SR.prepareQuery(Spec.cols({"src"}), Spec.cols({"dst", "weight"}));
  ShardedQuery Pred =
      SR.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));

  // A routed read (dom covers the routing key) touches exactly one
  // shard and reports exactly one entry — the routed shard's.
  {
    ShardedTransaction T(SR);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(Succ, {Value::ofInt(7)}, nullptr, &N));
    EXPECT_EQ(N, 2u);
    const auto &Stats = T.lastSnapshotReadStats();
    ASSERT_EQ(Stats.size(), 1u);
    EXPECT_EQ(Stats[0].first, SR.shardOf(key(Spec, 7, 0)));
    ASSERT_TRUE(T.commit());
  }

  // A fan-out read reports every shard, ascending; the first non-key
  // read pays each shard's documented full scan (leaving a {dst}
  // directory behind per shard)...
  {
    ShardedTransaction T(SR);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(Pred, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, static_cast<uint32_t>(NumSrcs));
    const auto &Stats = T.lastSnapshotReadStats();
    ASSERT_EQ(Stats.size(), NumShards);
    for (unsigned I = 0; I < NumShards; ++I) {
      EXPECT_EQ(Stats[I].first, I); // ascending shard order
      EXPECT_TRUE(Stats[I].second.FullScan) << "shard " << I;
      EXPECT_FALSE(Stats[I].second.DirectoryServed) << "shard " << I;
    }
    ASSERT_TRUE(T.commit());
  }

  // ...and from then on every shard serves through its own directory,
  // each visiting only its matching chains: the per-shard chain counts
  // sum to the match count, attributing the work shard by shard.
  {
    ShardedTransaction T(SR);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(Pred, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, static_cast<uint32_t>(NumSrcs));
    const auto &Stats = T.lastSnapshotReadStats();
    ASSERT_EQ(Stats.size(), NumShards);
    uint32_t Chains = 0;
    for (unsigned I = 0; I < NumShards; ++I) {
      EXPECT_TRUE(Stats[I].second.DirectoryServed) << "shard " << I;
      EXPECT_FALSE(Stats[I].second.FullScan) << "shard " << I;
      Chains += Stats[I].second.ChainsVisited;
    }
    EXPECT_EQ(Chains, static_cast<uint32_t>(NumSrcs));
    // The report is per query: a subsequent routed read replaces the
    // fan-out's three entries with the one shard it touched.
    ASSERT_TRUE(T.query(Succ, {Value::ofInt(3)}, nullptr, &N));
    EXPECT_EQ(T.lastSnapshotReadStats().size(), 1u);
    ASSERT_TRUE(T.commit());
  }
}

TEST(Mvcc, LostUpdatePermittedByQueryPreventedByQueryForUpdate) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 1), weight(Spec, 10)));

  // Plain query() reads the snapshot without locking the row, so an
  // increment built on it can overwrite a rival's committed increment:
  // the classic lost update, permitted by snapshot isolation. The
  // interleaving is forced deterministically — the rival runs to
  // completion between this scope's read and its write-back.
  {
    Transaction T(R);
    int64_t V = readWeight(T, H, Spec, 1, 1);
    EXPECT_EQ(V, 10);
    std::thread Rival([&] { commitRewrite(R, H, 1, 1, 10 + 1); });
    Rival.join();
    ASSERT_TRUE(T.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)}));
    ASSERT_TRUE(T.insert(H.Ins, {Value::ofInt(1), Value::ofInt(1),
                                 Value::ofInt(V + 1)}));
    ASSERT_TRUE(T.commit());
  }
  {
    Transaction Check(R);
    // Both scopes incremented, but one increment is lost: 11, not 12.
    EXPECT_EQ(readWeight(Check, H, Spec, 1, 1), 11);
    EXPECT_TRUE(Check.commit());
  }

  // queryForUpdate() takes the exclusive lock at read time, so the
  // same shape serializes: the rival's read-modify-write blocks (or
  // dies and retries) until this scope commits — no update is lost.
  ASSERT_TRUE(R.remove(key(Spec, 1, 1)));
  ASSERT_TRUE(R.insert(key(Spec, 1, 1), weight(Spec, 10)));
  {
    Transaction T(R);
    int64_t V = -1;
    ASSERT_TRUE(T.queryForUpdate(H.Exact,
                                 {Value::ofInt(1), Value::ofInt(1)},
                                 [&](const Tuple &Tp) {
                                   V = Tp.get(Spec.col("weight")).asInt();
                                 }));
    EXPECT_EQ(V, 10);
    // The rival starts now but cannot pass its own queryForUpdate until
    // this scope's locks release at commit.
    std::thread Rival([&] {
      EXPECT_TRUE(runTransaction(R, [&](Transaction &T2) {
        int64_t W = -1;
        if (!T2.queryForUpdate(H.Exact, {Value::ofInt(1), Value::ofInt(1)},
                               [&](const Tuple &Tp) {
                                 W = Tp.get(Spec.col("weight")).asInt();
                               }))
          return true; // died: retried with aged patience
        if (!T2.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)}))
          return true;
        if (!T2.insert(H.Ins, {Value::ofInt(1), Value::ofInt(1),
                               Value::ofInt(W + 1)}))
          return true;
        return true;
      }));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(T.remove(H.Rem, {Value::ofInt(1), Value::ofInt(1)}));
    ASSERT_TRUE(T.insert(H.Ins, {Value::ofInt(1), Value::ofInt(1),
                                 Value::ofInt(V + 1)}));
    ASSERT_TRUE(T.commit());
    Rival.join();
  }
  {
    Transaction Check(R);
    // Both increments survive: 12.
    EXPECT_EQ(readWeight(Check, H, Spec, 1, 1), 12);
    EXPECT_TRUE(Check.commit());
  }
}

TEST(Mvcc, PhantomsStableInSnapshotVisibleForUpdate) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t D = 0; D < 3; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 5, D), weight(Spec, D)));

  Transaction T(R);
  uint32_t N1 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(5)}, nullptr, &N1));
  EXPECT_EQ(N1, 3u);

  // A rival inserts a new row matching the predicate src=5.
  std::thread Writer([&] {
    EXPECT_TRUE(runTransaction(R, [&](Transaction &W) {
      W.insert(H.Ins, {Value::ofInt(5), Value::ofInt(99),
                       Value::ofInt(999)});
      return true;
    }));
  });
  Writer.join();

  // Within the snapshot the predicate is stable: the phantom does not
  // appear, however often the query repeats.
  uint32_t N2 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(5)}, nullptr, &N2));
  EXPECT_EQ(N2, 3u);

  // queryForUpdate reads the *current* committed state under locks, and
  // there is no predicate locking: the phantom IS visible to it, inside
  // the very same scope. Serializability for predicate-dependent
  // read-modify-write therefore requires for-update reads of every row
  // the decision depends on — the documented phantom contract
  // (src/txn/Transaction.h).
  uint32_t N3 = 0;
  ASSERT_TRUE(T.queryForUpdate(H.Succ, {Value::ofInt(5)}, nullptr, &N3));
  EXPECT_EQ(N3, 4u);
  EXPECT_TRUE(T.commit());
}

//===----------------------------------------------------------------------===//
// Access paths: secondary chain directories
//===----------------------------------------------------------------------===//

TEST(Mvcc, DirectoryServedReadVisitsOnlyMatchingChains) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  constexpr int64_t Fanout = 4;
  for (int64_t D = 0; D < Fanout; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 1, D), weight(Spec, D)));
  for (int64_t S = 2; S < 502; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 0), weight(Spec, S)));

  // First successor read may pay the documented full scan once; it
  // leaves the {src} directory behind (lazy creation on fallback miss).
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(1)}));
    ASSERT_TRUE(Warm.commit());
  }

  // From now on the read is directory-served and visits exactly the
  // chains whose sub-key matches — the O(store) scan is gone. This is
  // the issue's acceptance assertion, on counters, not wall clocks.
  {
    Transaction T(R);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, 4u);
    const SnapshotQueryStats &St = T.lastSnapshotReadStats();
    EXPECT_TRUE(St.DirectoryServed);
    EXPECT_FALSE(St.FullScan);
    EXPECT_EQ(St.ChainsVisited, 4u);
    ASSERT_TRUE(T.commit());
  }

  // Growing the store by another 500 unrelated chains must not change
  // what the directory-served read visits.
  for (int64_t S = 1000; S < 1500; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 0), weight(Spec, S)));
  {
    Transaction T(R);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(1)}, nullptr, &N));
    EXPECT_EQ(N, 4u);
    const SnapshotQueryStats &St = T.lastSnapshotReadStats();
    EXPECT_TRUE(St.DirectoryServed);
    EXPECT_EQ(St.ChainsVisited, 4u);
    ASSERT_TRUE(T.commit());
  }

  // Control: a point read routes through the primary directory, and a
  // read binding no key column at all still full-scans (documented).
  {
    Transaction T(R);
    ASSERT_TRUE(T.query(H.Exact, {Value::ofInt(1), Value::ofInt(0)}));
    EXPECT_FALSE(T.lastSnapshotReadStats().DirectoryServed);
    EXPECT_FALSE(T.lastSnapshotReadStats().FullScan);
    ASSERT_TRUE(T.commit());
  }
}

TEST(Mvcc, NonKeyReadSkewPreventedThroughDirectory) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  constexpr int64_t NumAccounts = 8, Initial = 100;
  for (int64_t A = 0; A < NumAccounts; ++A)
    ASSERT_TRUE(R.insert(key(Spec, A, 0), weight(Spec, Initial)));
  PreparedQuery ByDst =
      R.prepareQuery(Spec.cols({"dst"}), Spec.cols({"src", "weight"}));
  ColumnId WeightCol = Spec.col("weight");

  auto sumAll = [&](Transaction &T, int64_t &Rows) {
    int64_t Sum = 0;
    Rows = 0;
    EXPECT_TRUE(T.query(ByDst, {Value::ofInt(0)}, [&](const Tuple &Tp) {
      Sum += Tp.get(WeightCol).asInt();
      ++Rows;
    }));
    return Sum;
  };

  { // leave the {dst} directory warm
    Transaction Warm(R);
    int64_t Rows = 0;
    EXPECT_EQ(sumAll(Warm, Rows), NumAccounts * Initial);
    ASSERT_TRUE(Warm.commit());
  }

  Transaction Reader(R);
  int64_t Rows1 = 0;
  EXPECT_EQ(sumAll(Reader, Rows1), NumAccounts * Initial);
  EXPECT_EQ(Rows1, NumAccounts);
  EXPECT_TRUE(Reader.lastSnapshotReadStats().DirectoryServed);

  // A rival moves 40 from account 2 to account 6, one atomic commit.
  std::thread Writer([&] {
    EXPECT_TRUE(runTransaction(R, [&](Transaction &T) {
      int64_t A = -1, B = -1;
      if (!T.queryForUpdate(H.Exact, {Value::ofInt(2), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              A = Tp.get(WeightCol).asInt();
                            }) ||
          !T.queryForUpdate(H.Exact, {Value::ofInt(6), Value::ofInt(0)},
                            [&](const Tuple &Tp) {
                              B = Tp.get(WeightCol).asInt();
                            }))
        return true;
      if (!T.remove(H.Rem, {Value::ofInt(2), Value::ofInt(0)}) ||
          !T.insert(H.Ins, {Value::ofInt(2), Value::ofInt(0),
                            Value::ofInt(A - 40)}) ||
          !T.remove(H.Rem, {Value::ofInt(6), Value::ofInt(0)}) ||
          !T.insert(H.Ins, {Value::ofInt(6), Value::ofInt(0),
                            Value::ofInt(B + 40)}))
        return true;
      return true;
    }));
  });
  Writer.join();

  // The open snapshot re-sums through the directory: conserved, and no
  // torn transfer (a debit without its credit) can ever show.
  int64_t Rows2 = 0;
  EXPECT_EQ(sumAll(Reader, Rows2), NumAccounts * Initial);
  EXPECT_EQ(Rows2, NumAccounts);
  EXPECT_TRUE(Reader.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(Reader.commit());

  // A fresh snapshot sees the transferred state, still conserved.
  Transaction After(R);
  int64_t Rows3 = 0;
  EXPECT_EQ(sumAll(After, Rows3), NumAccounts * Initial);
  EXPECT_EQ(Rows3, NumAccounts);
  EXPECT_TRUE(After.commit());
}

TEST(Mvcc, PhantomStableThroughDirectoryUnderMidSnapshotInsert) {
  // A rival's insert creates a brand-new chain and links it into the
  // {src} directory while this snapshot is open: the directory walk
  // sees the link immediately, but version visibility still hides the
  // row — predicate stability is a property of the snapshot, not of
  // directory membership.
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t D = 0; D < 3; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 7, D), weight(Spec, D)));
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(7)}));
    ASSERT_TRUE(Warm.commit());
  }

  Transaction T(R);
  uint32_t N1 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(7)}, nullptr, &N1));
  EXPECT_EQ(N1, 3u);
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);

  std::thread Rival([&] {
    EXPECT_TRUE(runTransaction(R, [&](Transaction &W) {
      W.insert(H.Ins, {Value::ofInt(7), Value::ofInt(55),
                       Value::ofInt(555)});
      return true;
    }));
  });
  Rival.join();

  uint32_t N2 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(7)}, nullptr, &N2));
  EXPECT_EQ(N2, 3u); // the phantom chain is linked but not visible
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T.commit());

  Transaction T2(R);
  uint32_t N3 = 0;
  ASSERT_TRUE(T2.query(H.Succ, {Value::ofInt(7)}, nullptr, &N3));
  EXPECT_EQ(N3, 4u); // a later snapshot reads it through the same link
  EXPECT_TRUE(T2.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T2.commit());
}

/// The weights a read-only scope sees for successors of \p S, by dst,
/// through the directory-served path.
std::map<int64_t, int64_t> readSuccessors(Transaction &T, Handles &H,
                                          const RelationSpec &Spec,
                                          int64_t S) {
  std::map<int64_t, int64_t> Out;
  EXPECT_TRUE(T.query(H.Succ, {Value::ofInt(S)}, [&](const Tuple &Tp) {
    EXPECT_TRUE(Out.emplace(Tp.get(Spec.col("dst")).asInt(),
                            Tp.get(Spec.col("weight")).asInt())
                    .second)
        << "successor of " << S << " visited twice";
  }));
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);
  return Out;
}

TEST(Mvcc, SnapshotReadsStraddleTableGrows) {
  // The primary table and the {src} directory double many times while
  // a snapshot stays open and while concurrent readers walk them. Old
  // and new snapshots, point reads and directory-served reads alike,
  // must return exactly their visible set across every grow.
  ConcurrentRelation R(splitStriped());
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  constexpr int64_t Old = 64, Fresh = 3000, Base = 1000;
  for (int64_t S = 0; S < Old; ++S)
    for (int64_t D = 0; D < 4; ++D)
      ASSERT_TRUE(R.insert(key(Spec, S, D), weight(Spec, S * 10 + D)));
  {
    Transaction Warm(R); // leaves the {src} directory behind
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(0)}));
    ASSERT_TRUE(Warm.commit());
  }
  MvccStore &Store = R.mvccStore();
  ASSERT_GE(Store.directoryCount(), 1u);
  uint64_t Grows0 = Store.grows();
  size_t Buckets0 = Store.bucketCount();

  Transaction Before(R);
  std::atomic<bool> Stop{false};
  std::atomic<int> Errors{0};
  std::thread Reader([&] {
    Xoshiro256 Rng(5);
    while (!Stop.load(std::memory_order_acquire)) {
      // Old keys (dst 2, 3) are never touched: always visible. A fresh
      // src commits its two successors in one scope: none or both.
      Transaction T(R);
      int64_t S = int64_t(Rng.nextBounded(Old));
      std::map<int64_t, int64_t> Succ = readSuccessors(T, H, Spec, S);
      Errors += Succ.count(2) != 1 || Succ.count(3) != 1;
      Errors += readWeight(T, H, Spec, S, 3) != S * 10 + 3;
      int64_t F = Base + int64_t(Rng.nextBounded(Fresh));
      size_t N = readSuccessors(T, H, Spec, F).size();
      Errors += N != 0 && N != 2;
      ASSERT_TRUE(T.commit());
    }
  });
  // Writes run on their own thread: this one holds the Before scope.
  std::thread Writer([&] {
    for (int64_t S = 0; S < Old; ++S) {
      commitRewrite(R, H, S, 0, -S);
      ASSERT_TRUE(runTransaction(R, [&](Transaction &T) {
        return T.remove(H.Rem, {Value::ofInt(S), Value::ofInt(1)}) || true;
      }));
    }
    for (int64_t F = Base; F < Base + Fresh; ++F)
      ASSERT_TRUE(runTransaction(R, [&](Transaction &T) {
        for (int64_t D = 0; D < 2; ++D)
          if (!T.insert(H.Ins, {Value::ofInt(F), Value::ofInt(D),
                                Value::ofInt(F + D)}))
            return true;
        return true;
      }));
  });
  Writer.join();
  Stop.store(true, std::memory_order_release);
  Reader.join();
  EXPECT_EQ(Errors.load(), 0);
  EXPECT_GT(Store.bucketCount(), Buckets0) << "primary table never grew";
  EXPECT_GE(Store.grows(), Grows0 + 2) << "directory never grew";
  EXPECT_LE(Store.maxBucketChainLength(), 8u);

  // The snapshot opened before every grow still reads its own world.
  for (int64_t S = 0; S < Old; ++S) {
    std::map<int64_t, int64_t> Want;
    for (int64_t D = 0; D < 4; ++D) {
      Want[D] = S * 10 + D;
      EXPECT_EQ(readWeight(Before, H, Spec, S, D), S * 10 + D);
    }
    EXPECT_EQ(readSuccessors(Before, H, Spec, S), Want);
  }
  for (int64_t F = Base; F < Base + Fresh; F += 97)
    EXPECT_TRUE(readSuccessors(Before, H, Spec, F).empty());
  ASSERT_TRUE(Before.commit());

  // A fresh snapshot reads the new world, through the grown tables.
  Transaction After(R);
  for (int64_t S = 0; S < Old; ++S) {
    std::map<int64_t, int64_t> Want{{0, -S}, {2, S * 10 + 2}, {3, S * 10 + 3}};
    EXPECT_EQ(readSuccessors(After, H, Spec, S), Want);
    EXPECT_EQ(readWeight(After, H, Spec, S, 1), -1);
  }
  for (int64_t F = Base; F < Base + Fresh; ++F) {
    std::map<int64_t, int64_t> Want{{0, F}, {1, F + 1}};
    ASSERT_EQ(readSuccessors(After, H, Spec, F), Want) << "src " << F;
    ASSERT_EQ(readWeight(After, H, Spec, F, 1), F + 1);
  }
  ASSERT_TRUE(After.commit());
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

TEST(Mvcc, DirectoryServesAcrossMigrateTo) {
  // migrateTo swaps the compiled representation underneath the
  // relation; the version store (and its directories) is orthogonal to
  // the representation and must keep serving the open snapshot
  // unperturbed, mid-scope.
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t D = 0; D < 5; ++D)
    ASSERT_TRUE(R.insert(key(Spec, 3, D), weight(Spec, 10 * D)));
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(3)}));
    ASSERT_TRUE(Warm.commit());
  }

  Transaction T(R);
  uint32_t N1 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(3)}, nullptr, &N1));
  EXPECT_EQ(N1, 5u);
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);

  ASSERT_TRUE(R.migrateTo(splitStriped(8)).Ok);

  uint32_t N2 = 0;
  ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(3)}, nullptr, &N2));
  EXPECT_EQ(N2, 5u);
  EXPECT_TRUE(T.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T.commit());

  // And the directory keeps serving new snapshots after the swap.
  Transaction T2(R);
  uint32_t N3 = 0;
  ASSERT_TRUE(T2.query(H.Succ, {Value::ofInt(3)}, nullptr, &N3));
  EXPECT_EQ(N3, 5u);
  EXPECT_TRUE(T2.lastSnapshotReadStats().DirectoryServed);
  EXPECT_TRUE(T2.commit());
}

//===----------------------------------------------------------------------===//
// Mechanics: locks, aborts, reclamation
//===----------------------------------------------------------------------===//

TEST(Mvcc, SnapshotReadsAcquireZeroLocks) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t S = 0; S < 8; ++S)
    for (int64_t D = 0; D < 4; ++D)
      ASSERT_TRUE(R.insert(key(Spec, S, D), weight(Spec, S + D)));

  // Warm the plan cache, then sample the lock counters and run a pile
  // of read-only scopes: the acquisition total must not move at all —
  // snapshot reads take no placement or tuple locks (the tentpole's
  // zero-lock guarantee, asserted rather than assumed). The counters
  // sample shared acquisitions 1-in-64 and count exclusive ones
  // exactly, so any lock on this path has ample chance to show.
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Succ, {Value::ofInt(0)}));
    ASSERT_TRUE(Warm.commit());
  }
  uint64_t Before = totalAcquisitions(R.sampleStatistics());
  for (int Round = 0; Round < 200; ++Round) {
    Transaction T(R);
    uint32_t N = 0;
    ASSERT_TRUE(T.query(H.Succ, {Value::ofInt(Round % 8)}, nullptr, &N));
    EXPECT_EQ(N, 4u);
    ASSERT_TRUE(
        T.query(H.Exact, {Value::ofInt(Round % 8), Value::ofInt(0)}));
    ASSERT_TRUE(T.commit());
    EXPECT_EQ(T.restarts(), 0u);
  }
  uint64_t After = totalAcquisitions(R.sampleStatistics());
  EXPECT_EQ(After - Before, 0u);

  // Control: the same query for-update moves the exclusive counters —
  // the zero above is a property of the snapshot path, not dead
  // instrumentation.
  {
    Transaction T(R);
    ASSERT_TRUE(T.queryForUpdate(H.Succ, {Value::ofInt(0)}));
    ASSERT_TRUE(T.commit());
  }
  uint64_t Control = totalAcquisitions(R.sampleStatistics());
  EXPECT_GT(Control - After, 0u);
}

TEST(Mvcc, ReclamationBoundedByActiveSnapshot) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  ASSERT_TRUE(R.insert(key(Spec, 1, 1), weight(Spec, 0)));
  MvccStore &Store = R.mvccStore();
  EXPECT_EQ(Store.liveVersions(), 1u);

  // Pin a snapshot, then bury the key under K committed rewrites: every
  // superseded version outlives its replacement because the pinned
  // snapshot's watermark floors reclamation — the chain grows.
  constexpr uint64_t K = 16;
  {
    Transaction Pin(R);
    EXPECT_EQ(readWeight(Pin, H, Spec, 1, 1), 0);
    EXPECT_GE(activeSnapshots(), 1u);
    std::thread Writer([&] {
      for (uint64_t I = 1; I <= K; ++I)
        commitRewrite(R, H, 1, 1, static_cast<int64_t>(I));
    });
    Writer.join();
    EXPECT_GE(Store.liveVersions(), K);
    // The pinned snapshot still reads its original version under the
    // pile — that is what the retained versions are *for*.
    EXPECT_EQ(readWeight(Pin, H, Spec, 1, 1), 0);
    EXPECT_TRUE(Pin.commit());
  }

  // Snapshot released: the next install on the chain prunes everything
  // below the advanced watermark. Reclamation is bounded, not leaked.
  commitRewrite(R, H, 1, 1, 777);
  EXPECT_LE(Store.liveVersions(), 3u);
  EXPECT_GE(Store.retired(), K);
}

TEST(Mvcc, ReadOnlyScopesNeverAbortUnderWrites) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t S = 0; S < 8; ++S)
    ASSERT_TRUE(R.insert(key(Spec, S, 0), weight(Spec, S)));

  // N reader threads, one writer hammering every key: wait-die never
  // touches a read-only scope (it holds nothing a writer could want),
  // so the abort and restart counters stay at exact zero.
  constexpr unsigned Readers = 3, ScopesPerReader = 200;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> ReaderAborts{0}, ReaderRestarts{0};
  std::thread Writer([&] {
    int64_t W = 1000;
    while (!Stop.load(std::memory_order_acquire))
      for (int64_t S = 0; S < 8; ++S)
        commitRewrite(R, H, S, 0, ++W);
  });
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Readers; ++T)
    Pool.emplace_back([&] {
      for (unsigned I = 0; I < ScopesPerReader; ++I) {
        Transaction Txn(R);
        bool Ok = true;
        for (int64_t S = 0; S < 8 && Ok; ++S)
          Ok = Txn.query(H.Succ, {Value::ofInt(S)});
        if (!Ok || !Txn.commit())
          ReaderAborts.fetch_add(1, std::memory_order_relaxed);
        ReaderRestarts.fetch_add(Txn.restarts(),
                                 std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  Stop.store(true, std::memory_order_release);
  Writer.join();
  EXPECT_EQ(ReaderAborts.load(), 0u);
  EXPECT_EQ(ReaderRestarts.load(), 0u);
}

//===----------------------------------------------------------------------===//
// Fig5 txn-panel regression: readers track bare prepared reads
//===----------------------------------------------------------------------===//

TEST(Mvcc, ReadOnlyScopeThroughputTracksPreparedReads) {
  RepresentationConfig C = splitStriped();
  ConcurrentRelation R(C);
  const RelationSpec &Spec = R.spec();
  Handles H(R);
  for (int64_t S = 0; S < 64; ++S)
    for (int64_t D = 0; D < 4; ++D)
      ASSERT_TRUE(R.insert(key(Spec, S, D), weight(Spec, S + D)));

  const uint64_t Ops = stress::envU64("CRS_MVCC_BENCH_OPS", 8000);
  // Acceptance ratio in percent: snapshot point reads inside a scope
  // versus the same bare prepared point reads — like-for-like, both are
  // hash lookups (chain bucket vs compiled index). Release asks for 60%
  // (the fig5 panel budget, with slack for the scope overhead amortized
  // over 8 reads and the version-visibility check per hit); Debug and
  // sanitizer builds measure instrumentation more than the path, so the
  // bar drops to smoke-test levels. CRS_MVCC_READ_RATIO_PCT overrides
  // for bench experiments. Non-key snapshot reads (e.g. bind only src)
  // route through the version store's chain directories — O(matching
  // chains), asserted on visit counters by
  // Mvcc.DirectoryServedReadVisitsOnlyMatchingChains and charted by the
  // fig5 txn_nonkey panel — so only the point-read ratio is pinned
  // here.
#if defined(NDEBUG) && !defined(CRS_MVCC_SANITIZED)
  const uint64_t DefaultPct = 60;
#else
  const uint64_t DefaultPct = 20;
#endif
  const uint64_t Pct = stress::envU64("CRS_MVCC_READ_RATIO_PCT", DefaultPct);

  // Warm both paths (plan compiles out of the timed region).
  H.Exact.bind(0, Value::ofInt(0));
  H.Exact.bind(1, Value::ofInt(0));
  H.Exact.count();
  {
    Transaction Warm(R);
    ASSERT_TRUE(Warm.query(H.Exact, {Value::ofInt(0), Value::ofInt(0)}));
    ASSERT_TRUE(Warm.commit());
  }

  // Both loops visit the same (src, dst) sequence; every probe hits.
  using Clock = std::chrono::steady_clock;
  auto B0 = Clock::now();
  uint64_t BareRows = 0;
  for (uint64_t I = 0; I < Ops; ++I) {
    H.Exact.bind(0, Value::ofInt(static_cast<int64_t>(I % 64)));
    H.Exact.bind(1, Value::ofInt(static_cast<int64_t>(I % 4)));
    BareRows += H.Exact.count();
  }
  auto B1 = Clock::now();

  auto T0 = Clock::now();
  uint64_t TxnRows = 0;
  for (uint64_t I = 0; I < Ops; I += 8) {
    Transaction T(R);
    for (uint64_t J = I; J < I + 8 && J < Ops; ++J) {
      uint32_t N = 0;
      ASSERT_TRUE(T.query(H.Exact,
                          {Value::ofInt(static_cast<int64_t>(J % 64)),
                           Value::ofInt(static_cast<int64_t>(J % 4))},
                          nullptr, &N));
      TxnRows += N;
    }
    ASSERT_TRUE(T.commit());
  }
  auto T1 = Clock::now();
  ASSERT_EQ(TxnRows, BareRows);
  ASSERT_EQ(BareRows, Ops); // every probe is a hit

  double BareSec = std::chrono::duration<double>(B1 - B0).count();
  double TxnSec = std::chrono::duration<double>(T1 - T0).count();
  double BareOps = static_cast<double>(Ops) / BareSec;
  double TxnOps = static_cast<double>(Ops) / TxnSec;
  EXPECT_GE(TxnOps * 100.0, BareOps * static_cast<double>(Pct))
      << "snapshot point reads " << TxnOps << " ops/s vs bare prepared "
      << BareOps << " ops/s (need " << Pct
      << "%; override with CRS_MVCC_READ_RATIO_PCT)";
}

//===----------------------------------------------------------------------===//
// Snapshot-consistency stress oracle (nightly lane scales this up)
//===----------------------------------------------------------------------===//

TEST(MvccStress, SnapshotSumConservationUnderTransfers) {
  // No sizing hint exists: the version store grows on its own, and
  // under stress its bucket chain lists must stay near-singleton.
  ConcurrentRelation R(splitStriped());
  stress::SnapshotStressOptions Opts;
  stress::SnapshotStressReport Rep = stress::runSnapshotStressWithOracle(
      R, Opts);
  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " violations; first: " << Rep.Errors.front()
      << "; " << Rep.hint();
  EXPECT_GT(Rep.Checks, 0u);
  EXPECT_GE(Rep.Transfers, Opts.Transfers);
  // installRemove's idempotent-replay tolerance must never fire outside
  // recovery, and the chain lists must stay short (64 accounts in a
  // self-sizing primary table): both counters, not vibes.
  EXPECT_EQ(Rep.RemoveNoops, 0u);
  EXPECT_LE(Rep.MaxBucketChainLen, 4u);
  ValidationResult V = R.verifyConsistency();
  EXPECT_TRUE(V.ok()) << V.str();
}

TEST(MvccStress, SnapshotSumConservationAcrossShards) {
  ShardedRelation SR(splitStriped(), 3);
  stress::SnapshotStressOptions Opts;
  Opts.Transfers = 1200;
  stress::SnapshotStressReport Rep = stress::runSnapshotStressWithOracle(
      SR, Opts);
  EXPECT_TRUE(Rep.Errors.empty())
      << Rep.Errors.size() << " violations; first: " << Rep.Errors.front()
      << "; " << Rep.hint();
  EXPECT_GT(Rep.Checks, 0u);
  EXPECT_EQ(Rep.RemoveNoops, 0u);
  EXPECT_LE(Rep.MaxBucketChainLen, 8u);
}
