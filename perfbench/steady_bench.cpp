//===- perfbench/steady_bench.cpp - Steady-state graph benchmark ----------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repository's benchmark program (perfbench/run.py builds and runs
/// it; perfbench/README.md describes the workloads and metrics). Every
/// workload drives the Figure-5 Split 4 graph relation from a pre-filled
/// equilibrium with closed-loop client threads, then checks the result
/// with quiescent oracles. An untraced run prints the end-to-end metrics;
/// a traced run (--trace 1) alternates untraced, traced and
/// metrics-attached slices of its window and prints the per-layer
/// metrics: spans the benchmark records around its own calls into each
/// module, plus before/after deltas of counters the modules expose.
///
/// The last line of standard output is one JSON object with every
/// metric (value, unit, sample count, whether it applies) and every
/// check; run.py turns it into the benchmark's result line.
///
//===----------------------------------------------------------------------===//

#include "autotune/Autotuner.h"
#include "baseline/HandcodedGraph.h"
#include "obs/Metrics.h"
#include "runtime/ConcurrentRelation.h"
#include "runtime/PreparedOp.h"
#include "support/Compiler.h"
#include "support/Rng.h"
#include "sync/CommitClock.h"
#include "sync/Epoch.h"
#include "txn/Transaction.h"
#include "wal/Checkpoint.h"
#include "wal/Follower.h"
#include "wal/Wal.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace crs;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class ClientPath { Legacy, Prepared, Txn };

struct Workload {
  const char *Name;
  ClientPath Path;
  /// Percentages: successors, predecessors, inserts, removes.
  unsigned Mix[4];
  unsigned Clients;
  /// Library threads running beside the clients (WAL flusher, follower
  /// applier); clients + these stay within the machine's 4 cores.
  unsigned Background;
  int64_t N;
  int64_t Band;
  /// Full-size set-up repetitions; setup_s is their median.
  unsigned Setups;
  /// Warm-up calls per client (transactions on txn-replicated): fixed
  /// work, so setup_s measures the system rather than a timer.
  uint64_t WarmCalls;
  /// Windows per untraced run, each on its own set-up (the last ones):
  /// end-to-end metrics are medians over them, so one set-up's luck (a
  /// stall, a slow memory layout) does not decide a run. Two on
  /// write-large, whose version store keeps growing during a window (see
  /// Tombstones), so each window starts again from the equilibrium.
  unsigned Windows;
  /// Pre-fill leaves a tombstone chain for every absent key (see
  /// buildSystem). Off on write-large, where one such set-up takes 40 s
  /// (2k chains per version-store bucket): its store grows from 262k
  /// toward 524k chains during the window instead.
  bool Tombstones;
  const char *PathText;
};

// The tiny sizes (--scale tiny) only serve the benchmark's self-test.
constexpr Workload Workloads[] = {
    {"read-small", ClientPath::Legacy, {45, 45, 9, 1}, 4, 0, 512, 8, 5, 100000,
     5, true,
     "legacy ConcurrentRelation::query/insert/remove with Tuple arguments"},
    {"write-large", ClientPath::Prepared, {0, 0, 50, 50}, 4, 0, 32768, 16, 2,
     5000, 2, false,
     "prepared PreparedInsert/PreparedRemove bind + execute"},
    {"txn-replicated", ClientPath::Txn, {70, 0, 20, 10}, 2, 2, 4096, 16, 3,
     2000, 3, true,
     "8-op Transaction scopes on prepared handles, WAL (Batched) + live "
     "follower"},
};
constexpr int64_t TinyN[] = {64, 256, 128};

constexpr unsigned TxnOps = 8;
constexpr unsigned MaxTxnAttempts = 1000;
constexpr int64_t WeightRange = 1 << 20;
constexpr unsigned NumAbortCauses = 6;
const char *const AbortCauseNames[NumAbortCauses] = {
    "none", "conflict", "upgrade", "epoch_change", "gate_busy", "user"};

/// Equilibrium share of present keys: with inserts and removes drawing
/// keys uniformly, each key is present with probability ins/(ins+rem).
double presentShare(const Workload &W) {
  return double(W.Mix[2]) / double(W.Mix[2] + W.Mix[3]);
}

struct Options {
  const Workload *W = nullptr;
  unsigned WorkloadIdx = 0;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Tiny = false;
  double SteadyBound = 0.15;
  std::string Scratch = ".";
  int64_t N = 0;
  unsigned Setups = 1;
  uint64_t WarmCalls = 0;
  double ReplaySeconds = 1.0;
};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Progress on stderr, so a slow phase shows where the time went.
void progress(const char *What, double Seconds) {
  std::fprintf(stderr, "[steady_bench] %s %.3f s\n", What, Seconds);
}

/// Cumulative (stolen, total) CPU ticks of the machine: the share a
/// hypervisor gave to other guests shows why a window ran slow.
std::pair<uint64_t, uint64_t> cpuTicks() {
  std::ifstream F("/proc/stat");
  std::string Cpu;
  uint64_t V = 0, Steal = 0, Total = 0;
  F >> Cpu;
  for (int I = 0; I < 8 && F >> V; ++I) {
    Total += V;
    if (I == 7)
      Steal = V;
  }
  return {Steal, Total};
}

uint64_t rssBytes() {
  std::ifstream F("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  F >> Size >> Resident;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Linear-interpolated quantile \p Q of \p V (reorders V). 0 when empty.
double quantile(std::vector<uint32_t> &V, double Q) {
  if (V.empty())
    return 0;
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  std::nth_element(V.begin(), V.begin() + Lo, V.end());
  double A = V[Lo];
  if (Lo + 1 >= V.size())
    return A;
  double B = *std::min_element(V.begin() + Lo + 1, V.end());
  return A + (B - A) * (Pos - double(Lo));
}

std::vector<uint32_t> merged(const std::vector<std::vector<uint32_t>> &Parts) {
  std::vector<uint32_t> Out;
  for (const auto &P : Parts)
    Out.insert(Out.end(), P.begin(), P.end());
  return Out;
}

uint32_t clampNs(uint64_t D) {
  return D > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(D);
}

uint64_t streamSeed(uint64_t Seed, unsigned Workload, unsigned Phase,
                    uint64_t Lane) {
  SplitMix64 SM(Seed * 0x9E3779B97F4A7C15ULL ^ (uint64_t(Workload) << 56) ^
                (uint64_t(Phase) << 48) ^ Lane);
  return SM.next();
}

/// Seed phases: every generated input derives from (--seed, workload,
/// phase, lane), so one seed always yields the same operations.
enum Phase : unsigned { PhPrefill = 1, PhWarm = 2, PhWindow = 3 };

//===----------------------------------------------------------------------===//
// Operation streams: the band key generator
//===----------------------------------------------------------------------===//

enum class OpKind : uint8_t { Succ, Pred, Insert, Remove };

struct Op {
  OpKind Kind;
  int64_t Src, Dst, Weight;
};

/// src uniform over N nodes, dst = (src + k) mod N with k uniform in
/// [0, band): in- and out-degree both stay near p·band.
class OpStream {
public:
  OpStream(const Workload &W, int64_t N, uint64_t Seed)
      : W(&W), N(N), Rng(Seed) {}
  Op next() {
    unsigned R = static_cast<unsigned>(Rng.nextBounded(100));
    OpKind K = R < W->Mix[0]                          ? OpKind::Succ
               : R < W->Mix[0] + W->Mix[1]            ? OpKind::Pred
               : R < W->Mix[0] + W->Mix[1] + W->Mix[2] ? OpKind::Insert
                                                       : OpKind::Remove;
    int64_t Src = static_cast<int64_t>(Rng.nextBounded(N));
    int64_t Dst = (Src + static_cast<int64_t>(
                             Rng.nextBounded(static_cast<uint64_t>(W->Band)))) %
                  N;
    return {K, Src, Dst, static_cast<int64_t>(Rng.nextBounded(WeightRange))};
  }

private:
  const Workload *W;
  int64_t N;
  Xoshiro256 Rng;
};

/// The equilibrium pre-fill: key (src, src+k) is present independently
/// with probability p — the stationary state of the mix's inserts and
/// removes. Calls \p Visit(src, dst, weight, present) for every key of
/// src in [Lo, Hi).
template <typename VisitFn>
void prefillRange(const Options &O, int64_t Lo, int64_t Hi, VisitFn &&Visit) {
  double P = presentShare(*O.W);
  for (int64_t S = Lo; S < Hi; ++S) {
    Xoshiro256 Rng(streamSeed(O.Seed, O.WorkloadIdx, PhPrefill,
                              static_cast<uint64_t>(S)));
    for (int64_t K = 0; K < O.W->Band; ++K) {
      double Coin = Rng.nextDouble();
      int64_t Weight = static_cast<int64_t>(Rng.nextBounded(WeightRange));
      Visit(S, (S + K) % O.N, Weight, Coin < P);
    }
  }
}

/// Runs \p Body(Thread) on \p Threads threads and joins them.
template <typename Fn> void onThreads(unsigned Threads, Fn &&Body) {
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&Body, T] { Body(T); });
  for (std::thread &T : Ts)
    T.join();
}

//===----------------------------------------------------------------------===//
// Spans (traced slices only)
//===----------------------------------------------------------------------===//

enum SpanName : uint8_t {
  SpOp,
  SpTupleBuild,
  SpBind,
  SpExecQuery,
  SpExecInsert,
  SpExecRemove,
  SpTxn,
  SpTxnAttempt,
  SpTxnBegin,
  SpTxnRead,
  SpTxnWrite,
  SpTxnCommit,
  NumSpanNames
};
const char *const SpanNames[NumSpanNames] = {
    "op",          "tuple_build", "bind",      "execute_query",
    "execute_insert", "execute_remove", "txn",  "txn_attempt",
    "txn_begin",   "txn_read",    "txn_write", "txn_commit"};

struct SpanRecord {
  uint64_t Start, End;
  uint64_t Id, Parent; ///< Parent 0: a root (one client op or transaction)
  uint8_t Name;
};

/// One client thread's span recorder: an open-span stack that charges
/// each closed span's duration to its parent, so self time (duration
/// minus the time children cover) is known when the parent closes.
/// Durations and self times are kept per name for the whole traced
/// window; the first KeepSpans raw spans are kept for the span file.
class Tracer {
public:
  static constexpr size_t KeepSpans = 20000;

  explicit Tracer(unsigned Thread) : NextId((uint64_t(Thread) + 1) << 40) {}

  void open(SpanName N, uint64_t T) {
    uint64_t Parent = Depth ? Stack[Depth - 1].Id : 0;
    Stack[Depth++] = {NextId++, Parent, T, 0, N};
  }
  void close(uint64_t T) {
    Open O = Stack[--Depth];
    uint64_t D = T - O.Start;
    if (Depth)
      Stack[Depth - 1].ChildNs += D;
    Dur[O.Name].push_back(clampNs(D));
    SelfNs[O.Name] += D - O.ChildNs;
    if (Kept.size() < KeepSpans)
      Kept.push_back({O.Start, T, O.Id, O.Parent, O.Name});
  }
  /// A leaf span whose endpoints the caller already read.
  void leaf(SpanName N, uint64_t Start, uint64_t End) {
    open(N, Start);
    close(End);
  }

  std::vector<uint32_t> Dur[NumSpanNames];
  uint64_t SelfNs[NumSpanNames] = {};
  std::vector<SpanRecord> Kept;

private:
  struct Open {
    uint64_t Id, Parent, Start, ChildNs;
    SpanName Name;
  };
  Open Stack[8];
  unsigned Depth = 0;
  uint64_t NextId;
};

//===----------------------------------------------------------------------===//
// The relation under test and its clients
//===----------------------------------------------------------------------===//

RepresentationConfig split4() {
  for (auto &[Name, Config] : figure5Representations())
    if (Name == "Split 4")
      return Config;
  std::fprintf(stderr, "no Split 4 representation\n");
  std::exit(2);
}

template <typename Handle> unsigned slotOf(const Handle &H, ColumnId C) {
  for (unsigned I = 0; I < H.numSlots(); ++I)
    if (H.slotColumn(I) == C)
      return I;
  std::fprintf(stderr, "column not in bind layout\n");
  std::exit(2);
}

/// The Split 4 relation with the prepared handles every path uses.
struct Graph {
  explicit Graph(RepresentationConfig Config)
      : Rel(std::make_unique<ConcurrentRelation>(std::move(Config))) {
    const RelationSpec &Spec = Rel->spec();
    Src = Spec.col("src");
    Dst = Spec.col("dst");
    Weight = Spec.col("weight");
    SuccOut = ColumnSet::of(Dst) | ColumnSet::of(Weight);
    PredOut = ColumnSet::of(Src) | ColumnSet::of(Weight);
    ColumnSet Key = ColumnSet::of(Src) | ColumnSet::of(Dst);
    Succ = Rel->prepareQuery(ColumnSet::of(Src), SuccOut);
    Ins = Rel->prepareInsert(Key);
    Rem = Rel->prepareRemove(Key);
    SuccSlot = slotOf(Succ, Src);
    InsSlot = {slotOf(Ins, Src), slotOf(Ins, Dst), slotOf(Ins, Weight)};
    RemSlot = {slotOf(Rem, Src), slotOf(Rem, Dst)};
  }

  std::array<Value, 3> insertArgs(int64_t S, int64_t D, int64_t W) const {
    std::array<Value, 3> A;
    A[InsSlot[0]] = Value::ofInt(S);
    A[InsSlot[1]] = Value::ofInt(D);
    A[InsSlot[2]] = Value::ofInt(W);
    return A;
  }
  std::array<Value, 2> removeArgs(int64_t S, int64_t D) const {
    std::array<Value, 2> A;
    A[RemSlot[0]] = Value::ofInt(S);
    A[RemSlot[1]] = Value::ofInt(D);
    return A;
  }

  std::unique_ptr<ConcurrentRelation> Rel;
  ColumnId Src, Dst, Weight;
  ColumnSet SuccOut, PredOut;
  PreparedQuery Succ;
  PreparedInsert Ins;
  PreparedRemove Rem;
  unsigned SuccSlot;
  std::array<unsigned, 3> InsSlot;
  std::array<unsigned, 2> RemSlot;
};

/// Per-op outcome oracle for reads: every row must lie in the queried
/// node's band (dst - src mod N < band).
bool inBand(int64_t From, int64_t To, int64_t N, int64_t Band) {
  return ((To - From) % N + N) % N < Band;
}

/// Resolution of the per-window completion timeline (thirds, medians).
constexpr unsigned NumTicks = 30;

enum Mode : int { ModeUntraced = 0, ModeTraced = 1, ModeObs = 2, NumModes };
const char *const ModeNames[NumModes] = {"untraced", "traced", "obs-attached"};

/// Window control: clients park whenever Pause is up, so the coordinator
/// can switch modes (and attach or detach metrics) on a quiet relation.
struct Control {
  std::atomic<bool> Stop{false};
  std::atomic<bool> Pause{true};
  std::atomic<unsigned> Parked{0};
  std::atomic<int> CurMode{ModeUntraced};
  uint64_t StartNs = 0;
  uint64_t TickNs = 1; ///< window / NumTicks
};

using TickSamples = std::array<std::vector<uint32_t>, NumTicks>;

struct ClientStats {
  explicit ClientStats(unsigned Thread) : Trace(Thread) {}

  uint64_t Ops = 0, Reads = 0, Writes = 0, Failed = 0;
  uint64_t InsWon = 0, Removed = 0, Rows = 0;
  uint64_t Tick[NumTicks] = {}; ///< ops completed per 1/NumTicks of window
  uint64_t ModeOps[NumModes] = {};
  /// Latencies (ns) by the sub-window the call completed in.
  TickSamples ReadLat, WriteLat, OpLat;
  // Transactions.
  uint64_t Txns = 0, Attempts = 0, Aborts = 0, GaveUp = 0, LockTries = 0;
  uint64_t AbortCause[NumAbortCauses] = {};
  uint64_t MaxSeq = 0, UserBytes = 0;
  uint64_t SnapReads = 0, ChainsVisited = 0, DirServed = 0, FullScans = 0;
  std::vector<uint32_t> LagNs;
  std::deque<std::pair<uint64_t, uint64_t>> Unapplied; ///< (seq, commit ns)
  Tracer Trace; ///< spans of traced slices
};

/// Everything a client needs besides its stats.
struct Target {
  Graph *G;
  FollowerRelation *Follower = nullptr; // txn-replicated only
};

void park(Control &C) {
  C.Parked.fetch_add(1, std::memory_order_acq_rel);
  while (C.Pause.load(std::memory_order_acquire))
    std::this_thread::yield();
  C.Parked.fetch_sub(1, std::memory_order_acq_rel);
}

unsigned tickOf(const Control &C, uint64_t End) {
  uint64_t Tick = (End - C.StartNs) / C.TickNs;
  return Tick >= NumTicks ? NumTicks - 1 : unsigned(Tick);
}

void recordDone(Control &C, ClientStats &St, int M, uint64_t End,
                uint64_t Ops) {
  St.Ops += Ops;
  St.ModeOps[M] += Ops;
  St.Tick[tickOf(C, End)] += Ops;
}

/// One bare operation (read-small's legacy path, write-large's prepared
/// path), timed and — in a traced slice — spanned.
void bareOp(const Options &O, Target &T, const Op &X, bool Traced,
            ClientStats &St, Control &C, int M) {
  Graph &G = *T.G;
  ConcurrentRelation &R = *G.Rel;
  Tracer &Tr = St.Trace;
  bool IsRead = X.Kind == OpKind::Succ || X.Kind == OpKind::Pred;
  // Clock reads inside the op serve only its child spans.
  auto SpanNow = [Traced] { return Traced ? nowNs() : 0; };
  uint64_t T0 = nowNs();
  if (Traced)
    Tr.open(SpOp, T0);
  if (O.W->Path == ClientPath::Legacy) {
    Tuple S, V;
    if (X.Kind == OpKind::Succ)
      S = Tuple::of({{G.Src, Value::ofInt(X.Src)}});
    else if (X.Kind == OpKind::Pred)
      S = Tuple::of({{G.Dst, Value::ofInt(X.Dst)}});
    else
      S = Tuple::of(
          {{G.Src, Value::ofInt(X.Src)}, {G.Dst, Value::ofInt(X.Dst)}});
    if (X.Kind == OpKind::Insert)
      V = Tuple::of({{G.Weight, Value::ofInt(X.Weight)}});
    uint64_t B = SpanNow();
    if (Traced)
      Tr.leaf(SpTupleBuild, T0, B);
    switch (X.Kind) {
    case OpKind::Succ:
    case OpKind::Pred: {
      bool Succ = X.Kind == OpKind::Succ;
      std::vector<Tuple> Rows = R.query(S, Succ ? G.SuccOut : G.PredOut);
      if (Traced)
        Tr.leaf(SpExecQuery, B, nowNs());
      St.Rows += Rows.size();
      bool Ok = true;
      for (const Tuple &Row : Rows)
        Ok &= Succ ? inBand(X.Src, Row.get(G.Dst).asInt(), O.N, O.W->Band)
                   : inBand(Row.get(G.Src).asInt(), X.Dst, O.N, O.W->Band);
      St.Failed += !Ok;
      break;
    }
    case OpKind::Insert: {
      bool Won = R.insert(S, V);
      if (Traced)
        Tr.leaf(SpExecInsert, B, nowNs());
      St.InsWon += Won;
      break;
    }
    case OpKind::Remove: {
      unsigned N = R.remove(S);
      if (Traced)
        Tr.leaf(SpExecRemove, B, nowNs());
      St.Removed += N;
      St.Failed += N > 1;
      break;
    }
    }
  } else {
    if (X.Kind == OpKind::Insert) {
      G.Ins.bind(G.InsSlot[0], Value::ofInt(X.Src))
          .bind(G.InsSlot[1], Value::ofInt(X.Dst))
          .bind(G.InsSlot[2], Value::ofInt(X.Weight));
      uint64_t B = SpanNow();
      bool Won = G.Ins.execute();
      if (Traced) {
        Tr.leaf(SpBind, T0, B);
        Tr.leaf(SpExecInsert, B, nowNs());
      }
      St.InsWon += Won;
    } else {
      G.Rem.bind(G.RemSlot[0], Value::ofInt(X.Src))
          .bind(G.RemSlot[1], Value::ofInt(X.Dst));
      uint64_t B = SpanNow();
      unsigned N = G.Rem.execute();
      if (Traced) {
        Tr.leaf(SpBind, T0, B);
        Tr.leaf(SpExecRemove, B, nowNs());
      }
      St.Removed += N;
      St.Failed += N > 1;
    }
  }
  uint64_t T1 = nowNs();
  if (Traced)
    Tr.close(T1);
  uint32_t Lat = clampNs(T1 - T0);
  unsigned Tk = tickOf(C, T1);
  (IsRead ? St.ReadLat : St.WriteLat)[Tk].push_back(Lat);
  St.OpLat[Tk].push_back(Lat);
  ++(IsRead ? St.Reads : St.Writes);
  recordDone(C, St, M, T1, 1);
}

/// One logical 8-op transaction, retried like runTransaction (patience
/// = attempt, birth stamp carried) but unrolled so each step is timed.
void txnOp(const Options &O, Target &T, OpStream &Stream, bool Traced,
           ClientStats &St, Control &C, int M) {
  Graph &G = *T.G;
  Tracer &Tr = St.Trace;
  // Follower lag: this client's commits the replica has now applied.
  uint64_t Applied = T.Follower->appliedSeq();
  uint64_t Now = nowNs();
  while (!St.Unapplied.empty() && St.Unapplied.front().first <= Applied) {
    St.LagNs.push_back(clampNs(Now - St.Unapplied.front().second));
    St.Unapplied.pop_front();
  }

  Op Ops[TxnOps];
  for (Op &X : Ops)
    X = Stream.next();
  uint64_t T0 = nowNs();
  if (Traced)
    Tr.open(SpTxn, T0);
  uint64_t Birth = 0;
  bool Committed = false;
  ++St.Txns;
  for (unsigned Attempt = 0; Attempt < MaxTxnAttempts && !Committed;
       ++Attempt) {
    ++St.Attempts;
    uint64_t A0 = nowNs();
    if (Traced)
      Tr.open(SpTxnAttempt, A0);
    Transaction Txn(*G.Rel, Attempt, Birth);
    uint64_t A1 = nowNs();
    if (Traced)
      Tr.leaf(SpTxnBegin, A0, A1);
    Birth = Txn.birthStamp();
    uint64_t Won = 0, Removed = 0, Rows = 0, Failed = 0, Bytes = 0;
    uint64_t Chains = 0, Dir = 0, Full = 0, Reads = 0;
    bool Alive = true;
    for (const Op &X : Ops) {
      uint64_t S0 = nowNs();
      if (X.Kind == OpKind::Succ) {
        uint32_t Matches = 0;
        bool RowsOk = true;
        Alive = Txn.query(
            G.Succ, {Value::ofInt(X.Src)},
            [&](const Tuple &Row) {
              RowsOk &= Row.get(G.Src).asInt() == X.Src &&
                        inBand(X.Src, Row.get(G.Dst).asInt(), O.N, O.W->Band);
            },
            &Matches);
        uint64_t S1 = nowNs();
        if (Traced)
          Tr.leaf(SpTxnRead, S0, S1);
        St.ReadLat[tickOf(C, S1)].push_back(clampNs(S1 - S0));
        const SnapshotQueryStats &QS = Txn.lastSnapshotReadStats();
        Chains += QS.ChainsVisited;
        Dir += QS.DirectoryServed;
        Full += QS.FullScan;
        ++Reads;
        Rows += Matches;
        Failed += !RowsOk;
      } else if (X.Kind == OpKind::Insert) {
        std::array<Value, 3> A = G.insertArgs(X.Src, X.Dst, X.Weight);
        bool W = false;
        Alive = Txn.insert(G.Ins, {A[0], A[1], A[2]}, &W);
        uint64_t S1 = nowNs();
        if (Traced)
          Tr.leaf(SpTxnWrite, S0, S1);
        St.WriteLat[tickOf(C, S1)].push_back(clampNs(S1 - S0));
        Won += W;
        Bytes += W ? 3 * sizeof(int64_t) : 0;
      } else {
        std::array<Value, 2> A = G.removeArgs(X.Src, X.Dst);
        unsigned N = 0;
        Alive = Txn.remove(G.Rem, {A[0], A[1]}, &N);
        uint64_t S1 = nowNs();
        if (Traced)
          Tr.leaf(SpTxnWrite, S0, S1);
        St.WriteLat[tickOf(C, S1)].push_back(clampNs(S1 - S0));
        Removed += N;
        Failed += N > 1;
        Bytes += N * 3 * sizeof(int64_t);
      }
      if (!Alive)
        break;
    }
    if (Alive) {
      uint64_t C0 = nowNs();
      Committed = Txn.commit();
      if (Traced)
        Tr.leaf(SpTxnCommit, C0, nowNs());
    }
    St.LockTries += Txn.restarts();
    if (Traced)
      Tr.close(nowNs());
    if (Committed) {
      St.InsWon += Won;
      St.Removed += Removed;
      St.Rows += Rows;
      St.Failed += Failed;
      St.UserBytes += Bytes;
      St.SnapReads += Reads;
      St.ChainsVisited += Chains;
      St.DirServed += Dir;
      St.FullScans += Full;
      for (const Op &X : Ops)
        ++(X.Kind == OpKind::Succ ? St.Reads : St.Writes);
      if (Txn.commitSeq()) {
        St.MaxSeq = std::max(St.MaxSeq, Txn.commitSeq());
        St.Unapplied.emplace_back(Txn.commitSeq(), nowNs());
      }
    } else {
      ++St.Aborts;
      ++St.AbortCause[static_cast<unsigned>(Txn.abortCause())];
      for (unsigned Y = 0; Y <= Attempt && Y < 64; ++Y)
        std::this_thread::yield();
    }
  }
  uint64_t T1 = nowNs();
  if (Traced)
    Tr.close(T1);
  St.OpLat[tickOf(C, T1)].push_back(clampNs(T1 - T0));
  if (Committed) {
    recordDone(C, St, M, T1, TxnOps);
  } else {
    ++St.GaveUp;
    St.Failed += TxnOps;
  }
}

/// A closed-loop client: issues its next operation only when the
/// previous one returned, until the coordinator stops it.
void clientLoop(const Options &O, Target &T, unsigned Thread, Control &C,
                ClientStats &St) {
  OpStream Stream(*O.W, O.N,
                  streamSeed(O.Seed, O.WorkloadIdx, PhWindow, Thread));
  for (;;) {
    if (C.Pause.load(std::memory_order_relaxed))
      park(C);
    if (C.Stop.load(std::memory_order_relaxed))
      return;
    int M = C.CurMode.load(std::memory_order_relaxed);
    if (O.W->Path == ClientPath::Txn)
      txnOp(O, T, Stream, M == ModeTraced, St, C, M);
    else
      bareOp(O, T, Stream.next(), M == ModeTraced, St, C, M);
  }
}

/// Time each mode was live, from release to the last client parking.
struct WindowTimes {
  double ModeSeconds[NumModes] = {};
  double Total = 0;
};

/// Runs the clients through \p Slices (mode, seconds) in order. Clients
/// start parked, so release is simultaneous; \p OnSwitch runs between
/// slices on a quiet relation (metrics attach/detach).
WindowTimes runWindow(const Options &O, Target &T,
                      const std::vector<std::pair<int, double>> &Slices,
                      std::vector<std::unique_ptr<ClientStats>> &Stats,
                      const std::function<void(int)> &OnSwitch) {
  unsigned Clients = O.W->Clients;
  Control C;
  double Planned = 0;
  for (auto &S : Slices)
    Planned += S.second;
  Stats.clear();
  for (unsigned I = 0; I < Clients; ++I)
    Stats.push_back(std::make_unique<ClientStats>(I));
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < Clients; ++I)
    Ts.emplace_back([&, I] { clientLoop(O, T, I, C, *Stats[I]); });
  auto waitParked = [&] {
    while (C.Parked.load(std::memory_order_acquire) != Clients)
      std::this_thread::yield();
  };
  WindowTimes WT;
  waitParked();
  C.StartNs = nowNs();
  C.TickNs = std::max<uint64_t>(1, uint64_t(Planned * 1e9 / NumTicks));
  for (auto &[M, Secs] : Slices) {
    OnSwitch(M);
    C.CurMode.store(M, std::memory_order_relaxed);
    uint64_t Begin = nowNs();
    C.Pause.store(false, std::memory_order_release);
    while (C.Parked.load(std::memory_order_acquire) != 0)
      std::this_thread::yield();
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            Begin + static_cast<uint64_t>(Secs * 1e9))));
    C.Pause.store(true, std::memory_order_release);
    waitParked();
    double D = double(nowNs() - Begin) / 1e9;
    WT.ModeSeconds[M] += D;
    WT.Total += D;
  }
  OnSwitch(-1);
  C.Stop.store(true, std::memory_order_relaxed);
  C.Pause.store(false, std::memory_order_release);
  for (std::thread &Th : Ts)
    Th.join();
  return WT;
}

//===----------------------------------------------------------------------===//
// Set-up: relation (+ WAL + follower), equilibrium pre-fill, warm-up
//===----------------------------------------------------------------------===//

/// One built instance of the workload's system under test.
struct System {
  // Declaration order is teardown order reversed: the follower stops
  // before the log it reads from, the relation detaches before both.
  std::string WalDir;
  std::unique_ptr<CommitChannel> Channel;
  std::unique_ptr<WriteAheadLog> Log;
  std::unique_ptr<Graph> G;
  std::unique_ptr<FollowerRelation> Follower;
  uint64_t Prefilled = 0;
  uint64_t WarmWon = 0, WarmRemoved = 0, WarmMaxSeq = 0;

  ~System() {
    if (Follower)
      Follower->stop();
    if (G && Log)
      G->Rel->detachWal();
    Follower.reset();
    G.reset();
    Log.reset();
    if (!WalDir.empty())
      std::filesystem::remove_all(WalDir);
  }
};

/// Waits until the follower has applied what the primary logged. The
/// target is the largest commitSeq the clients observed — never the
/// process commit clock, which the replica's own applies keep raising.
/// Records stamped below the target may still trail it in the stream;
/// they were published before their committer returned, so once the
/// applier has consumed every published item (or, after a healed gap,
/// has gone quiet) the replica holds them all.
bool catchUp(const System &Sys, uint64_t Target, double TimeoutS) {
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(TimeoutS * 1e9);
  const FollowerRelation &F = *Sys.Follower;
  while (F.appliedSeq() < Target) {
    if (nowNs() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  uint64_t Last = F.appliedRecords(), QuietSince = nowNs();
  for (;;) {
    uint64_t Applied = F.appliedRecords();
    if (F.gapsHealed() == 0 && Applied >= Sys.Channel->published())
      return true;
    if (Applied != Last) {
      Last = Applied;
      QuietSince = nowNs();
    } else if (F.gapsHealed() > 0 && nowNs() - QuietSince > 50'000'000) {
      return true;
    }
    if (nowNs() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

std::unique_ptr<System> buildSystem(const Options &O, unsigned Index) {
  auto Sys = std::make_unique<System>();
  Sys->G = std::make_unique<Graph>(split4());
  Graph &G = *Sys->G;
  if (O.W->Path == ClientPath::Txn) {
    Sys->WalDir = O.Scratch + "/wal-" + std::to_string(getpid()) + "-" +
                  std::to_string(Index);
    std::filesystem::remove_all(Sys->WalDir);
    WriteAheadLog::Options WO;
    WO.Dir = Sys->WalDir;
    WO.Fsync = FsyncMode::Batched;
    std::string Err;
    Sys->Log = WriteAheadLog::open(WO, &Err);
    if (!Sys->Log) {
      std::fprintf(stderr, "wal open failed: %s\n", Err.c_str());
      std::exit(2);
    }
    Sys->Channel = std::make_unique<CommitChannel>(size_t(1) << 16);
    Sys->Log->attachChannel(Sys->Channel.get());
    G.Rel->attachWal(*Sys->Log);
    ConcurrentRelation *Primary = G.Rel.get();
    Sys->Follower = std::make_unique<FollowerRelation>(
        split4(), *Sys->Channel, [Primary] { return Primary->scanAll(); });
  }

  // Pre-fill to equilibrium on the client threads (beside the library's
  // own WAL flusher and follower applier, which are already running).
  // With Tombstones every key is inserted and the absent share removed
  // again: a key the mix has touched keeps a version chain (a tombstone
  // once removed), so this is the version store's equilibrium too —
  // inserting only the present keys leaves the store to grow by half
  // during the window, and txn-replicated's reads slowed by a quarter.
  std::atomic<int64_t> Net{0};
  unsigned Threads = O.W->Clients;
  onThreads(Threads, [&](unsigned T) {
    int64_t Lo = O.N * T / Threads, Hi = O.N * (T + 1) / Threads;
    int64_t Mine = 0;
    std::vector<std::pair<int64_t, int64_t>> Absent;
    prefillRange(O, Lo, Hi, [&](int64_t S, int64_t D, int64_t W, bool In) {
      if (!In && !O.W->Tombstones)
        return;
      G.Ins.bind(G.InsSlot[0], Value::ofInt(S))
          .bind(G.InsSlot[1], Value::ofInt(D))
          .bind(G.InsSlot[2], Value::ofInt(W));
      Mine += G.Ins.execute();
      if (!In)
        Absent.emplace_back(S, D);
    });
    for (auto [S, D] : Absent) {
      G.Rem.bind(G.RemSlot[0], Value::ofInt(S))
          .bind(G.RemSlot[1], Value::ofInt(D));
      Mine -= G.Rem.execute();
    }
    Net += Mine;
  });
  Sys->Prefilled = static_cast<uint64_t>(Net.load());

  // Warm-up: the workload's own mix on its own path, from a seed stream
  // distinct from the window's, so every signature is compiled, every
  // per-thread frame exists, and lazy first-use costs are paid here.
  Target T{&G, Sys->Follower.get()};
  Control C;
  C.Pause.store(false);
  C.StartNs = nowNs();
  C.TickNs = UINT64_MAX;
  std::vector<std::unique_ptr<ClientStats>> Stats;
  for (unsigned I = 0; I < O.W->Clients; ++I)
    Stats.push_back(std::make_unique<ClientStats>(I));
  onThreads(O.W->Clients, [&](unsigned I) {
    OpStream Stream(*O.W, O.N, streamSeed(O.Seed, O.WorkloadIdx, PhWarm, I));
    for (uint64_t K = 0; K < O.WarmCalls; ++K)
      if (O.W->Path == ClientPath::Txn)
        txnOp(O, T, Stream, false, *Stats[I], C, ModeUntraced);
      else
        bareOp(O, T, Stream.next(), false, *Stats[I], C, ModeUntraced);
  });
  for (auto &S : Stats) {
    Sys->WarmWon += S->InsWon;
    Sys->WarmRemoved += S->Removed;
    Sys->WarmMaxSeq = std::max(Sys->WarmMaxSeq, S->MaxSeq);
  }
  if (Sys->Follower && !catchUp(*Sys, Sys->WarmMaxSeq, 60)) {
    std::fprintf(stderr, "follower did not catch up during set-up\n");
    std::exit(2);
  }
  return Sys;
}

//===----------------------------------------------------------------------===//
// Oracles
//===----------------------------------------------------------------------===//

struct Check {
  std::string Name;
  bool Ok;
  std::string Detail;
};

/// verifyConsistency() compares every pair of tuples for the functional
/// dependency, so it is quadratic in the relation's size: it runs only
/// up to this many live tuples (read-small), checkPaths everywhere.
constexpr size_t VerifyConsistencyMaxTuples = 8192;

Check checkConsistency(const ConcurrentRelation &R) {
  ValidationResult V = R.verifyConsistency();
  return {"consistency", V.ok(), V.ok() ? "verifyConsistency ok" : V.str()};
}

/// The first query of a shape backfills a version-store directory in
/// time quadratic in the chain count (60 s at 262k chains), so above this
/// many live tuples checkPaths reads the first access path only.
constexpr size_t PathQueriesMaxTuples = 65536;

/// A quiescent relation's tuples. checkpointSnapshot() walks the first
/// access path directly (0.6 s at 262k tuples); scanAll() runs the
/// whole-relation query plan, which takes 34 s there.
std::vector<Tuple> contents(const ConcurrentRelation &R) {
  uint64_t Watermark = 0;
  return R.checkpointSnapshot(Watermark);
}

/// The represented relation read through both of Split 4's access
/// paths — successors of every src (the u side) and predecessors of
/// every dst (the v side) — must agree tuple for tuple, hold the
/// src,dst -> weight dependency, and have size() tuples: the properties
/// verifyConsistency() checks, in O(n log n) through public queries.
/// Above PathQueriesMaxTuples only the first path is read.
Check checkPaths(const Graph &G, int64_t N) {
  using Edge = std::array<int64_t, 3>;
  std::vector<Edge> BySrc, ByDst;
  bool BothPaths = G.Rel->size() <= PathQueriesMaxTuples;
  if (BothPaths) {
    for (int64_t V = 0; V < N; ++V) {
      for (const Tuple &T : G.Rel->query(
               Tuple::of({{G.Src, Value::ofInt(V)}}), G.SuccOut))
        BySrc.push_back({V, T.get(G.Dst).asInt(), T.get(G.Weight).asInt()});
      for (const Tuple &T : G.Rel->query(
               Tuple::of({{G.Dst, Value::ofInt(V)}}), G.PredOut))
        ByDst.push_back({T.get(G.Src).asInt(), V, T.get(G.Weight).asInt()});
    }
  } else {
    for (const Tuple &T : contents(*G.Rel))
      BySrc.push_back({T.get(G.Src).asInt(), T.get(G.Dst).asInt(),
                       T.get(G.Weight).asInt()});
  }
  std::sort(BySrc.begin(), BySrc.end());
  std::sort(ByDst.begin(), ByDst.end());
  size_t KeyDups = 0;
  for (size_t I = 1; I < BySrc.size(); ++I)
    KeyDups += BySrc[I][0] == BySrc[I - 1][0] && BySrc[I][1] == BySrc[I - 1][1];
  bool Ok = (!BothPaths || BySrc == ByDst) && KeyDups == 0 &&
            BySrc.size() == G.Rel->size();
  return {"access_paths", Ok,
          std::to_string(BySrc.size()) + " by src, " +
              (BothPaths ? std::to_string(ByDst.size()) : "not read") +
              " by dst, " +
              std::to_string(KeyDups) + " duplicate keys, size() " +
              std::to_string(G.Rel->size())};
}

/// size() must equal the pre-fill plus the clients' won inserts minus
/// the tuples they removed.
Check checkCount(uint64_t Size, uint64_t Prefilled, uint64_t Won,
                 uint64_t Removed) {
  int64_t Expected = int64_t(Prefilled) + int64_t(Won) - int64_t(Removed);
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "size %llu, expected %lld = prefill %llu + won %llu - "
                "removed %llu",
                (unsigned long long)Size, (long long)Expected,
                (unsigned long long)Prefilled, (unsigned long long)Won,
                (unsigned long long)Removed);
  return {"size", int64_t(Size) == Expected, Buf};
}

/// Tuple-for-tuple equality of two relation scans.
Check checkSameTuples(const char *Name, std::vector<Tuple> Primary,
                      std::vector<Tuple> Other) {
  std::sort(Primary.begin(), Primary.end(), TupleLess());
  std::sort(Other.begin(), Other.end(), TupleLess());
  bool Ok = Primary == Other;
  std::string Detail = std::to_string(Other.size()) + " tuples vs primary " +
                       std::to_string(Primary.size());
  if (!Ok) {
    std::vector<Tuple> Extra, Missing;
    std::set_difference(Other.begin(), Other.end(), Primary.begin(),
                        Primary.end(), std::back_inserter(Extra), TupleLess());
    std::set_difference(Primary.begin(), Primary.end(), Other.begin(),
                        Other.end(), std::back_inserter(Missing), TupleLess());
    Detail += ": " + std::to_string(Extra.size()) + " extra, " +
              std::to_string(Missing.size()) + " missing";
  }
  return {Name, Ok, Detail};
}

/// Recovers a fresh relation from the WAL directory and compares it
/// with \p Primary.
Check checkRecovery(const std::string &Dir, std::vector<Tuple> Primary,
                    const std::function<void(std::vector<Tuple> &)> &Tamper =
                        nullptr) {
  ConcurrentRelation Recovered(split4());
  RecoveryResult RR = recoverRelation(Recovered, Dir);
  if (!RR.Ok)
    return {"wal_recovery", false, "recoverRelation failed: " + RR.Error};
  std::vector<Tuple> Got = contents(Recovered);
  if (Tamper)
    Tamper(Got);
  Check C = checkSameTuples("wal_recovery", std::move(Primary), std::move(Got));
  C.Detail += ", " + std::to_string(RR.RecordsReplayed) + " records replayed";
  return C;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value = 0;
  uint64_t Samples = 0;
  bool Applies = true;
};

struct Report {
  std::vector<Metric> EndToEnd, Layer;
  std::vector<Check> Checks;
  uint64_t Attempted = 0, Failed = 0;

  void e2e(std::string N, std::string U, double V, uint64_t S, bool A = true) {
    EndToEnd.push_back({std::move(N), std::move(U), A ? V : 0, S, A});
  }
  void layer(std::string N, std::string U, double V, uint64_t S,
             bool A = true) {
    Layer.push_back({std::move(N), std::move(U), A ? V : 0, S, A});
  }
  bool correct() const {
    bool Ok = Failed == 0;
    for (const Check &C : Checks)
      Ok &= C.Ok;
    return Ok;
  }
};

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

void latencyPair(Report &R, bool E2E, const std::string &Base,
                 const std::string &P50, const std::string &P99,
                 std::vector<uint32_t> V, double Scale, const char *Unit) {
  uint64_t N = V.size();
  double A = quantile(V, 0.5) / Scale, B = quantile(V, 0.99) / Scale;
  auto Add = E2E ? &Report::e2e : &Report::layer;
  (R.*Add)(Base + P50, Unit, A, N, N > 0);
  (R.*Add)(Base + P99, Unit, B, N, N > 0);
}

/// A sub-window needs this many samples for its own p99 (ten beyond).
constexpr size_t MinTickSamples = 1000;

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// <Kind>_p50_us and <Kind>_p99_us of the untraced window: each is the
/// median over the sub-windows of that sub-window's quantile, so a
/// transient stall moves them no more than it moves throughput_ops_s.
/// Falls back to whole-window quantiles when too few sub-windows hold
/// MinTickSamples samples (short or tiny runs).
void windowLatencies(Report &R, const std::string &Kind,
                     const std::vector<const TickSamples *> &Parts) {
  std::vector<double> P50, P99;
  std::vector<uint32_t> All;
  for (unsigned T = 0; T < NumTicks; ++T) {
    std::vector<uint32_t> V;
    for (const TickSamples *P : Parts)
      V.insert(V.end(), (*P)[T].begin(), (*P)[T].end());
    All.insert(All.end(), V.begin(), V.end());
    if (V.size() >= MinTickSamples) {
      P50.push_back(quantile(V, 0.5));
      P99.push_back(quantile(V, 0.99));
    }
  }
  uint64_t N = All.size();
  bool PerTick = P50.size() > NumTicks / 2;
  double A = PerTick ? median(P50) : quantile(All, 0.5);
  double B = PerTick ? median(P99) : quantile(All, 0.99);
  R.e2e(Kind + "_p50_us", "us", A / 1e3, N, N > 0);
  R.e2e(Kind + "_p99_us", "us", B / 1e3, N, N > 0);
}

void printMetric(const Metric &M) {
  if (M.Applies)
    std::printf("  %-36s %16.6g %-6s samples %llu\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), (unsigned long long)M.Samples);
  else
    std::printf("  %-36s %16s %-6s (not driven by this workload)\n",
                M.Name.c_str(), "absent", M.Unit.c_str());
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

void printJson(const Options &O, const Report &R) {
  auto Metrics = [](const std::vector<Metric> &Ms) {
    std::string S = "{";
    for (size_t I = 0; I < Ms.size(); ++I) {
      char Buf[512];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\", "
                    "\"samples\": %llu, \"applies\": %s}",
                    I ? ", " : "", Ms[I].Name.c_str(), Ms[I].Value,
                    Ms[I].Unit.c_str(), (unsigned long long)Ms[I].Samples,
                    Ms[I].Applies ? "true" : "false");
      S += Buf;
    }
    return S + "}";
  };
  std::string Checks = "{";
  for (size_t I = 0; I < R.Checks.size(); ++I)
    Checks += (I ? ", \"" : "\"") + R.Checks[I].Name + "\": {\"ok\": " +
              (R.Checks[I].Ok ? "true" : "false") + ", \"detail\": \"" +
              jsonEscape(R.Checks[I].Detail) + "\"}";
  Checks += "}";
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"checks\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
              O.W->Name, (unsigned long long)O.Seed, O.Trace ? 1 : 0,
              R.correct() ? "true" : "false",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed,
              Checks.c_str(), Metrics(R.EndToEnd).c_str(),
              Metrics(R.Layer).c_str());
}

//===----------------------------------------------------------------------===//
// Counter snapshots around the window
//===----------------------------------------------------------------------===//

struct Counters {
  uint64_t PlanHits = 0, PlanMisses = 0, Restarts = 0;
  uint64_t LockAcq = 0, LockCont = 0;
  uint64_t Clock = 0, Reclaimed = 0, Installed = 0;
  uint64_t WalRecords = 0, WalBytes = 0, WalRounds = 0;
  uint64_t FollowerApplied = 0, FollowerGaps = 0;
  RelationStatistics Stats; ///< empty unless taken
};

/// collectStatistics() finds shared node instances by a linear search
/// over the ones already visited, so it is quadratic in the instance
/// count (~5 s at 44k tuples, hours at 262k): the traced run calls it
/// only up to this many live tuples, and reports the lock and fanout
/// metrics absent above it.
constexpr size_t CollectStatisticsMaxTuples = 65536;

/// Quiescent only (collectStatistics must not race with mutations).
Counters snapshot(const System &Sys, bool WithStats) {
  const ConcurrentRelation &R = *Sys.G->Rel;
  Counters C;
  C.PlanHits = R.planCacheHits();
  C.PlanMisses = R.planCacheMisses();
  C.Restarts = R.restarts();
  if (WithStats) {
    C.Stats = R.collectStatistics();
    for (const NodeLockTraffic &N : C.Stats.Nodes) {
      C.LockAcq += N.Acquisitions;
      C.LockCont += N.Contentions;
    }
  }
  C.Clock = commitClockNow();
  C.Reclaimed = EpochDomain::global().reclaimed();
  C.Installed = R.mvccStore().installed();
  if (Sys.Log) {
    C.WalRecords = Sys.Log->recordsAppended();
    C.WalBytes = Sys.Log->bytesAppended();
    C.WalRounds = Sys.Log->syncRounds();
    C.FollowerApplied = Sys.Follower->appliedRecords();
    C.FollowerGaps = Sys.Follower->gapsHealed();
  }
  return C;
}

/// Average fanout of the decomposition edge keyed by \p Cols out of the
/// node keyed by \p From (Split 4: u -dst-> w and v -src-> y).
double edgeFanout(const ConcurrentRelation &R, const RelationStatistics &RS,
                  ColumnSet From, ColumnSet Cols, uint64_t &Containers) {
  const Decomposition &D = *R.config().Decomp;
  auto Same = [](ColumnSet A, ColumnSet B) {
    return A.containsAll(B) && B.containsAll(A);
  };
  for (const Decomposition::Edge &E : D.edges())
    if (Same(D.node(E.Src).KeyCols, From) && Same(E.Cols, Cols) &&
        E.Id < RS.Edges.size()) {
      Containers = RS.Edges[E.Id].Containers;
      return RS.Edges[E.Id].averageFanout();
    }
  Containers = 0;
  return 0;
}

//===----------------------------------------------------------------------===//
// The handcoded reference (traced run)
//===----------------------------------------------------------------------===//

/// Replays the window's generated operation streams (same seeds) against
/// HandcodedGraph, pre-filled identically, with the same client count.
/// Returns ops/s and the ops completed.
double handcodedReplay(const Options &O, uint64_t &OpsOut) {
  HandcodedGraph HG;
  prefillRange(O, 0, O.N, [&](int64_t S, int64_t D, int64_t W, bool In) {
    if (In)
      HG.insertEdge(S, D, W);
  });
  std::atomic<bool> Go{false}, Stop{false};
  std::atomic<uint64_t> Ops{0};
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I < O.W->Clients; ++I)
    Ts.emplace_back([&, I] {
      OpStream Stream(*O.W, O.N,
                      streamSeed(O.Seed, O.WorkloadIdx, PhWindow, I));
      uint64_t Mine = 0;
      int64_t Sink = 0;
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      while (!Stop.load(std::memory_order_relaxed)) {
        Op X = Stream.next();
        switch (X.Kind) {
        case OpKind::Succ:
          Sink += HG.successors(X.Src).size();
          break;
        case OpKind::Pred:
          Sink += HG.predecessors(X.Dst).size();
          break;
        case OpKind::Insert:
          Sink += HG.insertEdge(X.Src, X.Dst, X.Weight);
          break;
        case OpKind::Remove:
          Sink += HG.removeEdge(X.Src, X.Dst);
          break;
        }
        ++Mine;
      }
      doNotOptimize(Sink);
      Ops += Mine;
    });
  uint64_t Begin = nowNs();
  Go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(uint64_t(O.ReplaySeconds * 1e9)));
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Ts)
    T.join();
  double Secs = double(nowNs() - Begin) / 1e9;
  OpsOut = Ops.load();
  return double(OpsOut) / Secs;
}

//===----------------------------------------------------------------------===//
// One run
//===----------------------------------------------------------------------===//

/// One measured window on one built system: its checks, its end-to-end
/// metrics (all but setup_s and rss_bytes_per_tuple) and, traced, its
/// per-layer metrics (all but the handcoded reference).
Report measureWindow(const Options &O, System &Sys, double Seconds) {
  const Workload &W = *O.W;
  bool IsTxn = W.Path == ClientPath::Txn;
  Graph &G = *Sys.G;
  ConcurrentRelation &R = *G.Rel;
  std::vector<std::pair<int, double>> Slices;
  if (O.Trace) {
    // Untraced, traced and metrics-attached slices interleave, so drift
    // over the window falls on every mode alike.
    for (unsigned Round = 0; Round < 3; ++Round)
      for (int M = 0; M < NumModes; ++M)
        Slices.push_back({M, Seconds / 9});
  } else {
    Slices.push_back({ModeUntraced, Seconds});
  }
  obs::MetricsRegistry Registry;
  bool Attached = false;
  auto OnSwitch = [&](int M) {
    bool Want = M == ModeObs;
    if (Want && !Attached)
      R.attachMetrics(Registry, "graph");
    else if (!Want && Attached)
      R.detachMetrics();
    Attached = Want;
  };
  bool WithStats = O.Trace && R.size() <= CollectStatisticsMaxTuples;
  Counters Before = snapshot(Sys, WithStats);
  Target T{&G, Sys.Follower.get()};
  std::vector<std::unique_ptr<ClientStats>> Stats;
  auto [Steal0, Cpu0] = cpuTicks();
  WindowTimes WT = runWindow(O, T, Slices, Stats, OnSwitch);
  auto [Steal1, Cpu1] = cpuTicks();
  uint64_t WindowEnd = nowNs();
  progress("window", WT.Total);

  ClientStats Sum(0);
  std::vector<const TickSamples *> ReadL, WriteL, OpL;
  std::vector<std::vector<uint32_t>> LagL;
  std::vector<std::vector<uint32_t>> SpanDur[NumSpanNames];
  for (auto &S : Stats) {
    Sum.Ops += S->Ops;
    Sum.Reads += S->Reads;
    Sum.Writes += S->Writes;
    Sum.Failed += S->Failed;
    Sum.InsWon += S->InsWon;
    Sum.Removed += S->Removed;
    Sum.Rows += S->Rows;
    for (unsigned I = 0; I < NumTicks; ++I)
      Sum.Tick[I] += S->Tick[I];
    for (int M = 0; M < NumModes; ++M)
      Sum.ModeOps[M] += S->ModeOps[M];
    Sum.Txns += S->Txns;
    Sum.Attempts += S->Attempts;
    Sum.Aborts += S->Aborts;
    Sum.GaveUp += S->GaveUp;
    Sum.LockTries += S->LockTries;
    for (unsigned C = 0; C < NumAbortCauses; ++C)
      Sum.AbortCause[C] += S->AbortCause[C];
    Sum.MaxSeq = std::max(Sum.MaxSeq, S->MaxSeq);
    Sum.UserBytes += S->UserBytes;
    Sum.SnapReads += S->SnapReads;
    Sum.ChainsVisited += S->ChainsVisited;
    Sum.DirServed += S->DirServed;
    Sum.FullScans += S->FullScans;
    ReadL.push_back(&S->ReadLat);
    WriteL.push_back(&S->WriteLat);
    OpL.push_back(&S->OpLat);
    LagL.push_back(std::move(S->LagNs));
    for (int N = 0; N < NumSpanNames; ++N) {
      SpanDur[N].push_back(std::move(S->Trace.Dur[N]));
      Sum.Trace.SelfNs[N] += S->Trace.SelfNs[N];
    }
  }

  // ---- quiescent oracles ---------------------------------------------
  Report Rep;
  double CatchupMs = 0;
  if (IsTxn) {
    uint64_t Target = std::max(Sum.MaxSeq, Sys.WarmMaxSeq);
    bool Caught = catchUp(Sys, Target, 60);
    CatchupMs = double(nowNs() - WindowEnd) / 1e6;
    progress("follower catch-up", CatchupMs / 1e3);
    if (!Caught)
      Rep.Checks.push_back({"follower_catchup", false,
                            "follower never reached commitSeq " +
                                std::to_string(Target)});
  }
  Counters After = snapshot(Sys, WithStats);
  if (R.size() <= VerifyConsistencyMaxTuples)
    Rep.Checks.push_back(checkConsistency(R));
  Rep.Checks.push_back(checkPaths(G, O.N));
  Rep.Checks.push_back(checkCount(R.size(), Sys.Prefilled,
                                  Sys.WarmWon + Sum.InsWon,
                                  Sys.WarmRemoved + Sum.Removed));
  if (IsTxn) {
    std::vector<Tuple> Primary = contents(R);
    Sys.Follower->stop();
    Rep.Checks.push_back(checkSameTuples(
        "follower_equal", Primary, contents(Sys.Follower->relation())));
    R.detachWal();
    Sys.Log->flush();
    Sys.Log.reset();
    progress("follower compared", double(nowNs() - WindowEnd) / 1e9);
    Rep.Checks.push_back(checkRecovery(Sys.WalDir, Primary));
  }
  progress("checks", double(nowNs() - WindowEnd) / 1e9);
  Rep.Attempted = Sum.Ops + Sum.GaveUp * TxnOps;
  Rep.Failed = Sum.Failed;

  // ---- end-to-end metrics ----------------------------------------------
  double UntracedSecs = WT.ModeSeconds[ModeUntraced];
  double Throughput = ratio(double(Sum.ModeOps[ModeUntraced]), UntracedSecs);
  // The untraced window's throughput is the median of its NumTicks
  // sub-window rates: a rare whole-relation stall (txn-replicated's
  // follower gap heal) would otherwise decide the figure by where it
  // fell. The mean and the share of stalled ticks are printed beside it.
  double TickSecs = Seconds / NumTicks;
  std::vector<double> TickRates;
  for (unsigned I = 0; I < NumTicks; ++I)
    TickRates.push_back(double(Sum.Tick[I]) / TickSecs);
  double TickMedian = median(TickRates);
  unsigned Stalled = 0;
  for (double Rate : TickRates)
    Stalled += Rate < TickMedian / 2;
  Rep.e2e("throughput_ops_s", "ops/s", O.Trace ? Throughput : TickMedian,
          Sum.ModeOps[ModeUntraced]);
  windowLatencies(Rep, "op", OpL);
  windowLatencies(Rep, "read", ReadL);
  windowLatencies(Rep, "write", WriteL);
  windowLatencies(Rep, "txn", IsTxn ? OpL : std::vector<const TickSamples *>());
  Rep.e2e("failed_ops_frac", "ratio",
          ratio(double(Rep.Failed), double(Rep.Attempted)), Rep.Attempted);
  uint64_t Thirds[3] = {};
  for (unsigned I = 0; I < NumTicks; ++I)
    Thirds[I * 3 / NumTicks] += Sum.Tick[I];
  double ThirdSecs = Seconds / 3;
  double First = Thirds[0] / ThirdSecs, Last = Thirds[2] / ThirdSecs;
  std::fprintf(stderr, "[steady_bench] ops per 1/%u of the window:", NumTicks);
  for (unsigned I = 0; I < NumTicks; ++I)
    std::fprintf(stderr, " %llu", (unsigned long long)Sum.Tick[I]);
  std::fprintf(stderr, "\n");
  bool Steady = true;
  if (!O.Trace) {
    Rep.e2e("throughput_mean_ops_s", "ops/s", Throughput, Sum.Ops);
    Rep.e2e("stalled_tick_frac", "ratio", double(Stalled) / NumTicks,
            NumTicks);
    Rep.e2e("host_steal_frac", "ratio",
            ratio(double(Steal1 - Steal0), double(Cpu1 - Cpu0)), Cpu1 - Cpu0);
    Rep.e2e("throughput_first_third_ops_s", "ops/s", First, Thirds[0]);
    Rep.e2e("throughput_last_third_ops_s", "ops/s", Last, Thirds[2]);
    Steady = std::fabs(First - Last) <= O.SteadyBound * std::max(First, Last);
    std::printf("window of %.3f s, steady-state guard: first third %.0f "
                "ops/s, last third %.0f ops/s -> %s (bound %.0f%%)\n",
                WT.Total, First, Last, Steady ? "steady" : "UNSTEADY",
                O.SteadyBound * 100);
  }

  // ---- per-layer metrics (traced run) -----------------------------------
  if (O.Trace) {
    uint64_t Ops = Sum.Ops, Muts = Sum.Writes;
    auto Dur = [&](SpanName N) { return merged(SpanDur[N]); };
    auto Count = [&](SpanName N) {
      uint64_t C = 0;
      for (auto &V : SpanDur[N])
        C += V.size();
      return C;
    };
    {
      std::vector<uint32_t> V = Dur(SpTupleBuild);
      uint64_t N = V.size();
      double Mean = 0;
      for (uint32_t X : V)
        Mean += X;
      Rep.layer("rel.tuple_build_ns", "ns", ratio(Mean, double(N)), N, N > 0);
    }
    std::vector<uint32_t> ExecQ = Dur(SpExecQuery);
    latencyPair(Rep, false, "runtime.execute_us.query.", "p50", "p99",
                ExecQ, 1e3, "us");
    latencyPair(Rep, false, "runtime.execute_us.insert.", "p50", "p99",
                Dur(SpExecInsert), 1e3, "us");
    latencyPair(Rep, false, "runtime.execute_us.remove.", "p50", "p99",
                Dur(SpExecRemove), 1e3, "us");
    {
      std::vector<uint32_t> V = Dur(SpBind);
      uint64_t N = V.size();
      Rep.layer("runtime.bind_ns", "ns", quantile(V, 0.5), N, N > 0);
    }
    double Lookups = double(After.PlanHits - Before.PlanHits) +
                     double(After.PlanMisses - Before.PlanMisses);
    Rep.layer("runtime.plan_lookups_per_op", "count", ratio(Lookups, Ops),
              Ops, !IsTxn);
    Rep.layer("runtime.plan_cache_hit_ratio", "ratio",
              ratio(double(After.PlanHits - Before.PlanHits), Lookups),
              uint64_t(Lookups), Lookups > 0);
    Rep.layer("runtime.restarts_per_op", "count",
              ratio(double(After.Restarts - Before.Restarts), Ops), Ops);
    Rep.layer("runtime.rows_per_read", "count",
              ratio(double(Sum.Rows), double(Sum.Reads)), Sum.Reads,
              Sum.Reads > 0);
    double Acq = double(After.LockAcq - Before.LockAcq);
    Rep.layer("sync.lock_acquisitions_per_op", "count", ratio(Acq, Ops), Ops,
              WithStats);
    Rep.layer("sync.lock_contention_ratio", "ratio",
              ratio(double(After.LockCont - Before.LockCont), Acq),
              uint64_t(Acq), WithStats && Acq > 0);
    Rep.layer("sync.commit_stamps_per_op", "count",
              ratio(double(After.Clock - Before.Clock), Ops), Ops);
    Rep.layer("sync.epoch_reclaimed_per_s", "1/s",
              ratio(double(After.Reclaimed - Before.Reclaimed), WT.Total),
              After.Reclaimed - Before.Reclaimed);
    uint64_t SuccC = 0, PredC = 0;
    double SuccF = edgeFanout(R, After.Stats, ColumnSet::of(G.Src),
                              ColumnSet::of(G.Dst), SuccC);
    double PredF = edgeFanout(R, After.Stats, ColumnSet::of(G.Dst),
                              ColumnSet::of(G.Src), PredC);
    Rep.layer("containers.fanout_succ", "count", SuccF, SuccC, WithStats);
    Rep.layer("containers.fanout_pred", "count", PredF, PredC, WithStats);
    Rep.layer("mvcc.versions_installed_per_op", "count",
              ratio(double(After.Installed - Before.Installed), Muts), Muts,
              Muts > 0);
    Rep.layer("mvcc.max_bucket_chain", "count",
              double(R.mvccStore().maxBucketChainLength()), 1);
    Rep.layer("mvcc.chains_visited_per_read", "count",
              ratio(double(Sum.ChainsVisited), double(Sum.SnapReads)),
              Sum.SnapReads, IsTxn);
    Rep.layer("mvcc.directory_served_ratio", "ratio",
              ratio(double(Sum.DirServed), double(Sum.SnapReads)),
              Sum.SnapReads, IsTxn);
    Rep.layer("mvcc.full_scans", "count", double(Sum.FullScans), Sum.SnapReads,
              IsTxn);
    latencyPair(Rep, false, "txn.begin_us.", "p50", "p99", Dur(SpTxnBegin),
                1e3, "us");
    latencyPair(Rep, false, "txn.read_us.", "p50", "p99", Dur(SpTxnRead), 1e3,
                "us");
    latencyPair(Rep, false, "txn.write_us.", "p50", "p99", Dur(SpTxnWrite),
                1e3, "us");
    latencyPair(Rep, false, "txn.commit_us.", "p50", "p99", Dur(SpTxnCommit),
                1e3, "us");
    Rep.layer("txn.abort_ratio", "ratio",
              ratio(double(Sum.Aborts), double(Sum.Attempts)), Sum.Attempts,
              IsTxn);
    for (unsigned C = 1; C < NumAbortCauses; ++C)
      Rep.layer(std::string("txn.aborts.") + AbortCauseNames[C], "count",
                double(Sum.AbortCause[C]), Sum.Attempts, IsTxn);
    Rep.layer("txn.failed_lock_tries_per_txn", "count",
              ratio(double(Sum.LockTries), double(Sum.Txns)), Sum.Txns, IsTxn);
    double Rounds = double(After.WalRounds - Before.WalRounds);
    double Records = double(After.WalRecords - Before.WalRecords);
    Rep.layer("wal.records_per_flush", "count", ratio(Records, Rounds),
              uint64_t(Rounds), IsTxn);
    Rep.layer("wal.bytes_per_user_byte", "ratio",
              ratio(double(After.WalBytes - Before.WalBytes),
                    double(Sum.UserBytes)),
              Sum.UserBytes, IsTxn);
    Rep.layer("follower.apply_records_per_s", "1/s",
              ratio(double(After.FollowerApplied - Before.FollowerApplied),
                    WT.Total),
              After.FollowerApplied - Before.FollowerApplied, IsTxn);
    latencyPair(Rep, false, "follower.lag_ms.", "p50", "p99", merged(LagL),
                1e6, "ms");
    Rep.layer("follower.gaps_healed", "count",
              double(After.FollowerGaps - Before.FollowerGaps), 1, IsTxn);
    Rep.layer("follower.catchup_ms", "ms", CatchupMs, 1, IsTxn);

    double Traced = ratio(double(Sum.ModeOps[ModeTraced]),
                          WT.ModeSeconds[ModeTraced]);
    double WithObs =
        ratio(double(Sum.ModeOps[ModeObs]), WT.ModeSeconds[ModeObs]);
    Rep.layer("obs.trace_overhead_frac", "ratio",
              Throughput > 0 ? 1 - Traced / Throughput : 0,
              Sum.ModeOps[ModeTraced]);
    Rep.layer("obs.attach_overhead_frac", "ratio",
              Throughput > 0 ? 1 - WithObs / Throughput : 0,
              Sum.ModeOps[ModeObs]);
    for (int N = 0; N < NumSpanNames; ++N) {
      uint64_t C = Count(SpanName(N));
      Rep.layer(std::string("span.") + SpanNames[N] + ".self_ns", "ns",
                ratio(double(Sum.Trace.SelfNs[N]), double(C)), C, C > 0);
    }

    // Spans of the traced slices, written out once the window is over.
    std::string SpanPath = O.Scratch + "/spans-" + W.Name + "-" +
                           std::to_string(O.Seed) + ".csv";
    if (FILE *F = std::fopen(SpanPath.c_str(), "w")) {
      std::fprintf(F, "id,parent,name,start_ns,end_ns\n");
      for (auto &S : Stats)
        for (const SpanRecord &Sp : S->Trace.Kept)
          std::fprintf(F, "%llu,%llu,%s,%llu,%llu\n",
                       (unsigned long long)Sp.Id,
                       (unsigned long long)Sp.Parent, SpanNames[Sp.Name],
                       (unsigned long long)Sp.Start,
                       (unsigned long long)Sp.End);
      std::fclose(F);
      std::printf("spans written to %s\n", SpanPath.c_str());
    }
  }
  if (O.Trace) {
    std::printf("traced window slices:");
    for (int M = 0; M < NumModes; ++M)
      std::printf(" %s %.2f s", ModeNames[M], WT.ModeSeconds[M]);
    std::printf("\n");
  }
  return Rep;
}

int runBenchmark(const Options &O) {
  const Workload &W = *O.W;
  std::printf("workload %s  seed %llu  seconds %g  trace %d%s\n", W.Name,
              (unsigned long long)O.Seed, O.Seconds, O.Trace ? 1 : 0,
              O.Tiny ? "  (tiny self-test scale)" : "");
  std::printf("  client path: %s\n  mix %u-%u-%u-%u  clients %u (+%u "
              "library threads)  N %lld  band %lld  equilibrium %.0f edges\n",
              W.PathText, W.Mix[0], W.Mix[1], W.Mix[2], W.Mix[3], W.Clients,
              W.Background, (long long)O.N, (long long)W.Band,
              presentShare(W) * double(O.N * W.Band));
  std::fflush(stdout);

  // ---- set-ups; the last Windows of them are measured and checked ------
  unsigned Windows = O.Trace ? 1 : std::min(W.Windows, O.Setups);
  std::vector<double> SetupS;
  std::vector<Report> Reports;
  uint64_t RssGrowth = 0, LiveAtStart = 0;
  for (unsigned I = 0; I < O.Setups; ++I) {
    uint64_t Rss0 = rssBytes();
    uint64_t T0 = nowNs();
    std::unique_ptr<System> Sys = buildSystem(O, I);
    SetupS.push_back(double(nowNs() - T0) / 1e9);
    progress("set-up", SetupS.back());
    if (I == 0) {
      RssGrowth = rssBytes() - std::min(Rss0, rssBytes());
      LiveAtStart = Sys->G->Rel->size();
    }
    if (I + Windows >= O.Setups)
      Reports.push_back(measureWindow(O, *Sys, O.Seconds / Windows));
    T0 = nowNs();
    Sys.reset();
    progress("teardown", double(nowNs() - T0) / 1e9);
  }

  // ---- combine: each end-to-end metric is the median over the windows --
  Report Rep;
  for (size_t I = 0; I < Reports.size(); ++I) {
    const Report &R = Reports[I];
    for (const Check &C : R.Checks)
      Rep.Checks.push_back(
          {Windows > 1 ? "w" + std::to_string(I + 1) + "." + C.Name : C.Name,
           C.Ok, C.Detail});
    Rep.Attempted += R.Attempted;
    Rep.Failed += R.Failed;
  }
  for (size_t K = 0; K < Reports[0].EndToEnd.size(); ++K) {
    Metric M = Reports[0].EndToEnd[K];
    std::vector<double> Values;
    M.Samples = 0;
    for (const Report &R : Reports) {
      M.Samples += R.EndToEnd[K].Samples;
      if (R.EndToEnd[K].Applies)
        Values.push_back(R.EndToEnd[K].Value);
    }
    M.Applies = !Values.empty();
    M.Value = M.Applies ? median(Values) : 0;
    Rep.EndToEnd.push_back(M);
  }
  Rep.Layer = Reports.back().Layer;
  std::sort(SetupS.begin(), SetupS.end());
  Rep.e2e("setup_s", "s", SetupS[SetupS.size() / 2], SetupS.size());
  Rep.e2e("rss_bytes_per_tuple", "B",
          ratio(double(RssGrowth), double(LiveAtStart)), LiveAtStart);
  if (O.Trace) {
    // The replay's base is the untraced slices' throughput (the first
    // end-to-end metric of a traced window).
    double Throughput = Rep.EndToEnd[0].Value;
    uint64_t ReplayOps = 0;
    double Hand = handcodedReplay(O, ReplayOps);
    Rep.layer("baseline.handcoded_ops_s", "ops/s", Hand, ReplayOps);
    Rep.layer("runtime.overhead_vs_handcoded", "ratio",
              ratio(Hand, Throughput), ReplayOps, Throughput > 0);
  }

  // ---- report ------------------------------------------------------------
  if (O.Trace)
    std::printf("end-to-end (untraced slices of the traced window):\n");
  else
    std::printf("end-to-end (median over %u windows of %g s):\n", Windows,
                O.Seconds / Windows);
  for (const Metric &M : Rep.EndToEnd)
    printMetric(M);
  if (O.Trace) {
    std::printf("per-layer (traced window):\n");
    for (const Metric &M : Rep.Layer)
      printMetric(M);
  }
  std::printf("checks:\n");
  for (const Check &C : Rep.Checks)
    std::printf("  %-18s %s  %s\n", C.Name.c_str(), C.Ok ? "ok  " : "FAIL",
                C.Detail.c_str());
  std::printf("  %-18s %s  %llu of %llu ops failed\n", "per_op",
              Rep.Failed ? "FAIL" : "ok  ", (unsigned long long)Rep.Failed,
              (unsigned long long)Rep.Attempted);
  printJson(O, Rep);
  return Rep.correct() ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Oracle self-test: each oracle accepts the truth and rejects a lie
//===----------------------------------------------------------------------===//

int oracleSelfTest(const std::string &Scratch) {
  unsigned Bad = 0;
  auto Expect = [&](const char *What, bool Want, const Check &C) {
    bool Good = C.Ok == Want;
    Bad += !Good;
    std::printf("  %-44s %s (%s: %s)\n", What, Good ? "ok" : "WRONG",
                C.Ok ? "accepted" : "rejected", C.Detail.c_str());
  };
  std::printf("oracle self-test\n");

  std::string Dir = Scratch + "/oracle-selftest-" + std::to_string(getpid());
  std::filesystem::remove_all(Dir);
  WriteAheadLog::Options WO;
  WO.Dir = Dir;
  WO.Fsync = FsyncMode::Batched;
  std::unique_ptr<WriteAheadLog> Log = WriteAheadLog::open(WO);
  if (!Log) {
    std::printf("  cannot open a WAL under %s\n", Dir.c_str());
    return 1;
  }
  CommitChannel Channel;
  Log->attachChannel(&Channel);
  Graph G(split4());
  G.Rel->attachWal(*Log);
  ConcurrentRelation *Primary = G.Rel.get();
  FollowerRelation F(split4(), Channel, [Primary] { return Primary->scanAll(); });
  uint64_t Won = 0, Removed = 0;
  for (int64_t S = 0; S < 32; ++S)
    for (int64_t K = 0; K < 4; ++K) {
      std::array<Value, 3> A = G.insertArgs(S, (S + K) % 32, S * 10 + K);
      bool W = false;
      if (runTransaction(*G.Rel, [&](Transaction &Txn) {
            return Txn.insert(G.Ins, {A[0], A[1], A[2]}, &W);
          }))
        Won += W;
    }
  for (int64_t S = 0; S < 32; S += 3) {
    G.Rem.bind(G.RemSlot[0], Value::ofInt(S))
        .bind(G.RemSlot[1], Value::ofInt(S));
    Removed += G.Rem.execute();
  }
  // Bare removes stamp no client-visible seq; the last transaction's
  // is below them, so wait for the stream to drain instead.
  uint64_t Deadline = nowNs() + 10'000'000'000ull;
  while (F.appliedRecords() < Channel.published() && nowNs() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  F.stop();

  Expect("consistency: healthy relation", true, checkConsistency(*G.Rel));
  Expect("size: true counts", true,
         checkCount(G.Rel->size(), 0, Won, Removed));
  Expect("size: one miscounted insert", false,
         checkCount(G.Rel->size(), 0, Won + 1, Removed));
  Expect("size: one uncounted remove", false,
         checkCount(G.Rel->size(), 0, Won, Removed - 1));
  std::vector<Tuple> State = contents(*G.Rel);
  std::vector<Tuple> Replica = contents(F.relation());
  Expect("follower: equal scans", true,
         checkSameTuples("follower_equal", State, Replica));
  std::vector<Tuple> Extra = Replica;
  Extra.push_back(Tuple::of({{G.Src, Value::ofInt(999)},
                             {G.Dst, Value::ofInt(999)},
                             {G.Weight, Value::ofInt(1)}}));
  Expect("follower: one extra tuple in its scan", false,
         checkSameTuples("follower_equal", State, Extra));
  std::vector<Tuple> Missing(Replica.begin() + 1, Replica.end());
  Expect("follower: one tuple missing from its scan", false,
         checkSameTuples("follower_equal", State, Missing));
  G.Rel->detachWal();
  Log->flush();
  Log.reset();
  Expect("recovery: WAL replay", true, checkRecovery(Dir, State));
  Expect("recovery: a replayed tuple altered", false,
         checkRecovery(Dir, State, [&](std::vector<Tuple> &Got) {
           Got.back() = Tuple::of({{G.Src, Value::ofInt(31)},
                                   {G.Dst, Value::ofInt(31)},
                                   {G.Weight, Value::ofInt(-1)}});
         }));
  Check InBand{"per_op_row", inBand(5, 7, 32, 4), "dst 7 from src 5"};
  Expect("per-op read: row inside the band", true, InBand);
  Check OutBand{"per_op_row", inBand(5, 12, 32, 4), "dst 12 from src 5"};
  Expect("per-op read: row outside the band", false, OutBand);
  std::filesystem::remove_all(Dir);
  std::printf("oracle self-test %s\n", Bad ? "FAILED" : "passed");
  return Bad ? 1 : 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: steady_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale tiny] [--scratch DIR] "
               "[--steady-bound F]\n"
               "       steady_bench --oracle-selftest [--scratch DIR]\n");
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool OracleTest = false;
  std::string Name;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage();
      return Argv[++I];
    };
    if (A == "--workload")
      Name = Next();
    else if (A == "--seed")
      O.Seed = std::stoull(Next());
    else if (A == "--seconds")
      O.Seconds = std::stod(Next());
    else if (A == "--trace")
      O.Trace = Next() == "1";
    else if (A == "--scale")
      O.Tiny = Next() == "tiny";
    else if (A == "--scratch")
      O.Scratch = Next();
    else if (A == "--steady-bound")
      O.SteadyBound = std::stod(Next());
    else if (A == "--oracle-selftest")
      OracleTest = true;
    else
      usage();
  }
  if (OracleTest)
    return oracleSelfTest(O.Scratch);
  for (unsigned I = 0; I < std::size(Workloads); ++I)
    if (Name == Workloads[I].Name) {
      O.W = &Workloads[I];
      O.WorkloadIdx = I;
    }
  if (!O.W || !(O.Seconds > 0))
    usage();
  O.N = O.Tiny ? TinyN[O.WorkloadIdx] : O.W->N;
  O.Setups = O.Tiny ? 1 : O.W->Setups;
  O.WarmCalls = O.Tiny ? O.W->WarmCalls / 20 : O.W->WarmCalls;
  O.ReplaySeconds = O.Tiny ? 0.1 : 1.0;
  return runBenchmark(O);
}
