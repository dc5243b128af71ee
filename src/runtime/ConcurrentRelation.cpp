//===- runtime/ConcurrentRelation.cpp - The public relation API ---------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// Operation protocols (see docs/ARCHITECTURE.md, "The life of an
/// operation" and "Concurrency invariants, in one place", for the full
/// argument):
///
/// * query: compiled by the query planner (§5); executed with shared
///   locks; speculative statements may request a transaction restart.
///
/// * remove: one plan — the locate traversal walking every edge under
///   exclusive locks (§5.2) followed by EraseEdge statements removing
///   the matched tuple's entries bottom-up with cascading husk
///   (empty-instance) cleanup, and the count adjustment.
///
/// * insert: one plan — a topological Probe/Lock schedule resolving
///   existing instances with the full tuple and acquiring every needed
///   stripe exclusively in global lock order (including the §4.5
///   present-target duty of speculative edges), the s-driven
///   put-if-absent membership check behind a Restrict/GuardAbsent pair
///   (§2), and a CreateNode/InsertEdge write phase unifying shared
///   nodes.
///
/// All three execute through the same PlanExecutor on planner-emitted,
/// validity-checked IR, using a reusable per-thread ExecContext; plans
/// come from a sharded wait-free-read cache. The legacy Tuple-based
/// methods and the prepared handles (runtime/PreparedOp.h) are both
/// thin wrappers over the shared run*Plan paths below — the prepared
/// path just arrives with its plan pre-resolved and its input rebound
/// in the thread's scratch tuple.
///
//===----------------------------------------------------------------------===//

#include "runtime/ConcurrentRelation.h"

#include "support/Compiler.h"
#include "sync/CommitClock.h"
#include "txn/MvccStore.h"
#include "wal/Wal.h"

#include <algorithm>
#include <functional>
#include <thread>
#include <unordered_set>

using namespace crs;

ConcurrentRelation::ConcurrentRelation(RepresentationConfig Cfg,
                                       CostParams CP)
    : Config(std::move(Cfg)), StableSpec(Config.Spec), BaseCostParams(CP),
      Planner(*Config.Decomp, *Config.Placement, CP),
      Executor(*Config.Decomp, *Config.Placement) {
  [[maybe_unused]] ValidationResult DecompOk = Config.Decomp->validate();
  assert(DecompOk.ok() && "decomposition must be adequate");
  [[maybe_unused]] ValidationResult PlaceOk = Config.Placement->validate();
  assert(PlaceOk.ok() && "lock placement must be well-formed");
  [[maybe_unused]] ValidationResult SafeOk =
      Config.Placement->validateContainerSafety();
  assert(SafeOk.ok() && "container choices must match the placement");

  const Decomposition &D = *Config.Decomp;
  Root = NodeInstance::create(D, D.root(), Tuple(),
                              Config.Placement->nodeStripes(D.root()));
  FastRoot.store(Root.get(), std::memory_order_seq_cst);
  Mvcc = std::make_unique<MvccStore>(spec());
}

// Per-operation lock/frame lifetime is ExecContext::OpScope
// (runtime/Interpreter.h), shared with the migration engine's mirror
// and backfill executions.
using OpScope = ExecContext::OpScope;

// Compile lambdas stamp the plan with the recompilation epoch observed
// under PlannerMutex: adaptPlans() swaps the planner while holding the
// same mutex and bumps the epoch only afterwards, so a plan stamped
// with the new epoch was necessarily produced by the new planner.
const Plan *ConcurrentRelation::queryPlanFor(ColumnSet DomS,
                                             ColumnSet C) const {
  return Plans.getOrCompile(PlanOp::Query, DomS.bits(), C.bits(), [&] {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    Plan P = Planner.planQuery(DomS, C);
    P.Epoch = PlanEpoch.load(std::memory_order_relaxed);
    // A compiled query signature is the declaration that the relation
    // serves this access path: give the version store the same one, so
    // snapshot reads binding DomS walk a secondary chain directory
    // instead of the whole store. Cold path — once per signature.
    Mvcc->ensureDirectory(DomS);
    return P;
  });
}

const Plan *ConcurrentRelation::removePlanFor(ColumnSet DomS) const {
  return Plans.getOrCompile(PlanOp::Remove, DomS.bits(), 0, [&] {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    Plan P = Planner.planRemove(DomS);
    P.Epoch = PlanEpoch.load(std::memory_order_relaxed);
    return P;
  });
}

const Plan *ConcurrentRelation::insertPlanFor(ColumnSet DomS) const {
  return Plans.getOrCompile(PlanOp::Insert, DomS.bits(), 0, [&] {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    Plan P = Planner.planInsert(DomS);
    P.Epoch = PlanEpoch.load(std::memory_order_relaxed);
    return P;
  });
}

const Plan *ConcurrentRelation::queryForUpdatePlanFor(ColumnSet DomS,
                                                      ColumnSet C) const {
  return Plans.getOrCompile(PlanOp::QueryForUpdate, DomS.bits(), C.bits(),
                            [&] {
                              std::lock_guard<std::mutex> Guard(PlannerMutex);
                              Plan P = Planner.planQueryForUpdate(DomS, C);
                              P.Epoch =
                                  PlanEpoch.load(std::memory_order_relaxed);
                              // Same signature surfacing as queryPlanFor:
                              // a for-update read shape is a shape
                              // snapshot reads will serve too.
                              Mvcc->ensureDirectory(DomS);
                              return P;
                            });
}

const Plan *ConcurrentRelation::undoInsertPlan() const {
  ColumnSet All = spec().allColumns();
  return Plans.getOrCompile(PlanOp::UndoInsert, All.bits(), 0, [&] {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    Plan P = Planner.planUndoInsert();
    P.Epoch = PlanEpoch.load(std::memory_order_relaxed);
    return P;
  });
}

const Plan *ConcurrentRelation::undoRemovePlan() const {
  ColumnSet All = spec().allColumns();
  return Plans.getOrCompile(PlanOp::UndoRemove, All.bits(), 0, [&] {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    Plan P = Planner.planUndoRemove();
    P.Epoch = PlanEpoch.load(std::memory_order_relaxed);
    return P;
  });
}

const Plan *ConcurrentRelation::resolvePlan(PlanOp Op, ColumnSet DomS,
                                            ColumnSet C) const {
  switch (Op) {
  case PlanOp::Query:
    return queryPlanFor(DomS, C);
  case PlanOp::Insert:
    return insertPlanFor(DomS);
  case PlanOp::Remove:
    return removePlanFor(DomS);
  case PlanOp::QueryForUpdate:
    return queryForUpdatePlanFor(DomS, C);
  case PlanOp::UndoInsert:
    return undoInsertPlan();
  case PlanOp::UndoRemove:
    return undoRemovePlan();
  case PlanOp::RemoveLocate:
    break;
  }
  assert(false && "unpreparable operation");
  return nullptr;
}

// Explain paths hold an epoch guard across resolve + render: plan
// snapshots reclaim on quiescence, so any dereference of a cached plan
// must pin the epoch (the same rule as the execution paths).
std::string ConcurrentRelation::explainQuery(ColumnSet DomS,
                                             ColumnSet C) const {
  EpochDomain::Guard EG;
  return queryPlanFor(DomS, C)->str();
}

std::string ConcurrentRelation::explainRemove(ColumnSet DomS) const {
  EpochDomain::Guard EG;
  return removePlanFor(DomS)->str();
}

std::string ConcurrentRelation::explainInsert(ColumnSet DomS) const {
  EpochDomain::Guard EG;
  return insertPlanFor(DomS)->str();
}

std::string ConcurrentRelation::explainTxn(PlanOp Op, ColumnSet DomS) const {
  assert((Op == PlanOp::Insert || Op == PlanOp::Remove) &&
         "explainTxn takes a mutation kind");
  EpochDomain::Guard EG;
  const Plan *Forward =
      Op == PlanOp::Insert ? insertPlanFor(DomS) : removePlanFor(DomS);
  const Plan *Inverse =
      Op == PlanOp::Insert ? undoInsertPlan() : undoRemovePlan();
  return crs::explainTxn(*Forward, *Inverse);
}

uint32_t
ConcurrentRelation::runQueryPlan(const Plan &P, const Tuple &Input,
                                 function_ref<void(const Tuple &)> Visit) const {
  assert(EpochDomain::global().inGuard() &&
         "plan execution requires an epoch guard (snapshots reclaim)");
  NumQueries.inc();
  ExecContext &Ctx = ExecContext::current();
  Ctx.Locks.setOrderDomain(0, LockDomain);
  for (unsigned Attempt = 0;; ++Attempt) {
    OpScope Scope(Ctx);
    if (Executor.run(P, Input, Root, Ctx) == ExecStatus::Ok) {
      // Shrinking phase: release while the context still pins the read
      // instances, then stream the result states — the tuples are arena
      // copies, so visiting after the unlock keeps hold times short and
      // lets callers aggregate without a result vector.
      Ctx.Locks.releaseAll();
      uint32_t N = Ctx.numStates(P.ResultVar);
      for (uint32_t I = 0; I < N; ++I)
        Visit(Ctx.stateTuple(P.ResultVar, I));
      return N; // Scope recycles the frames
    }
    // Speculation failed (wrong guess or out-of-order conflict): release
    // everything (OpScope) and retry; yield under pressure.
    Scope.finish();
    Restarts.fetch_add(1, std::memory_order_relaxed);
    if (Attempt >= 16)
      std::this_thread::yield();
  }
}

unsigned ConcurrentRelation::runRemovePlan(const Plan &P, const Tuple &S) {
  assert(EpochDomain::global().inGuard() &&
         "plan execution requires an epoch guard (snapshots reclaim)");
  NumRemoves.inc();
  ExecContext &Ctx = ExecContext::current();
  Ctx.Locks.setOrderDomain(0, LockDomain);
  Ctx.Count = &Count;
  // Dual-write: plans compiled during a migration carry a MirrorWrite
  // epilogue that replays the committed mutation into this sink.
  Ctx.Mirror = ActiveMirror.load(std::memory_order_acquire);
  OpScope Scope(Ctx);
  [[maybe_unused]] ExecStatus St = Executor.run(P, S, Root, Ctx);
  assert(St == ExecStatus::Ok && "mutation plans never speculate");
  uint32_t Matched = Ctx.numStates(P.ResultVar);
  assert(Matched <= 1 && "key-matched remove found multiple tuples");
  // Commit stamping before any lock is released: the scope still holds
  // every lock the plan took, so the MVCC version install and the WAL
  // partition's append order both follow the serialization order
  // (wal/Wal.h ordering contract). The beginCommit/endCommit window
  // keeps concurrent snapshot acquisition below this sequence until
  // the version is in the store. Transactional executions never reach
  // this path — they run the executor directly and commit per scope.
  if (Matched) {
    Tuple Full =
        Ctx.stateTuple(P.ResultVar, 0).project(spec().allColumns());
    CommitTicket T = beginCommit();
    Mvcc->installRemove(Full, T.Seq);
    if (WriteAheadLog *W = Wal.load(std::memory_order_acquire))
      W->logCommit(WalPartition, T.Seq, WalShard, WalOp::Remove, Full);
    endCommit(T);
  }
  // Shrinking phase (OpScope): release while the context still pins the
  // unlinked instances — their physical locks must outlive the unlock.
  return Matched;
}

bool ConcurrentRelation::runInsertPlan(const Plan &P, const Tuple &Full) {
  assert(EpochDomain::global().inGuard() &&
         "plan execution requires an epoch guard (snapshots reclaim)");
  NumInserts.inc();
  ExecContext &Ctx = ExecContext::current();
  Ctx.Locks.setOrderDomain(0, LockDomain);
  Ctx.Count = &Count;
  Ctx.Mirror = ActiveMirror.load(std::memory_order_acquire);
  OpScope Scope(Ctx);
  ExecStatus St = Executor.run(P, Full, Root, Ctx);
  // Insert plans never speculate (the §4.5 writer protocol takes
  // blocking, in-order locks), so like remove there is no retry loop.
  assert(St != ExecStatus::Restart && "mutation plans never speculate");
  // Commit stamping under the plan's locks (see runRemovePlan); only a
  // winning put-if-absent mutated anything worth a version or record.
  if (St == ExecStatus::Ok) {
    CommitTicket T = beginCommit();
    Mvcc->installInsert(Full, T.Seq);
    if (WriteAheadLog *W = Wal.load(std::memory_order_acquire))
      W->logCommit(WalPartition, T.Seq, WalShard, WalOp::Insert, Full);
    endCommit(T);
  }
  return St == ExecStatus::Ok; // Found: a tuple matching s exists
}

bool ConcurrentRelation::tryFastQuery(
    function_ref<const Plan *()> Resolve, const Tuple &Input,
    function_ref<void(const Tuple &)> Visit, uint32_t *Matches) const {
  EpochDomain::Guard EG;
  // Flag check *inside* the guard: the retirement flip clears the flag
  // (seq_cst) and then synchronizes the epoch, so either this load sees
  // the clear (fall back to the locked path) or the flip's synchronize
  // waits for this guard to exit before touching the representation.
  if (!FastReads.load(std::memory_order_seq_cst))
    return false;
  const Plan *P = Resolve();
  if (!P->EpochEligible)
    return false;
  uint32_t N = runFastQueryPlan(*P, Input, Visit);
  if (Matches)
    *Matches = N;
  return true;
}

uint32_t ConcurrentRelation::runFastQueryPlan(
    const Plan &P, const Tuple &Input,
    function_ref<void(const Tuple &)> Visit) const {
  assert(P.EpochEligible && !P.ForMutation &&
         "the fast path requires an epoch-eligible query plan");
  assert(EpochDomain::global().inGuard() &&
         "the fast path runs entirely inside an epoch guard");
  NumQueries.inc();
  ExecContext &Ctx = ExecContext::current();
  OpScope Scope(Ctx);
  Ctx.LockFree = true;
  // Non-owning alias of the published root: a refcount bump on the
  // root's control block would be one shared RMW per query, the very
  // line this path removes. The epoch guard keeps the whole tree alive
  // — the retirement flip synchronizes before dropping it. Interior
  // instances are still pinned by owning copies the container lookups
  // hand out, so a concurrently removed instance outlives its visit.
  NodeInstPtr RootAlias(std::shared_ptr<NodeInstance>(),
                        FastRoot.load(std::memory_order_seq_cst));
  [[maybe_unused]] ExecStatus St =
      Executor.run(P, Input, std::move(RootAlias), Ctx);
  assert(St == ExecStatus::Ok && "lock-free query plans cannot restart");
  uint32_t N = Ctx.numStates(P.ResultVar);
  for (uint32_t I = 0; I < N; ++I)
    Visit(Ctx.stateTuple(P.ResultVar, I));
  return N; // Scope recycles the frames
}

// The locked operations hold the gate from before plan resolution
// until after execution: a migration flip that closes the gate is
// therefore atomic with respect to entire operations — none can
// resolve a plan under one representation regime and execute it under
// the next (runtime/Migration.h). The epoch guard nests *inside* the
// gate (never the reverse): blocking on a closed gate while pinning an
// epoch would deadlock the flip's synchronize.
std::vector<Tuple> ConcurrentRelation::query(const Tuple &S,
                                             ColumnSet C) const {
  std::vector<Tuple> Out;
  auto Push = [&](const Tuple &T) { Out.push_back(T.project(C)); };
  if (!tryFastQuery([&] { return queryPlanFor(S.domain(), C); }, S, Push,
                    nullptr)) {
    OpGate::Scope G(Gate);
    EpochDomain::Guard EG;
    runQueryPlan(*queryPlanFor(S.domain(), C), S, Push);
  }
  std::sort(Out.begin(), Out.end(), TupleLess());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}

unsigned ConcurrentRelation::remove(const Tuple &S) {
  OpGate::Scope G(Gate);
  EpochDomain::Guard EG;
  // Asserted inside the gate: spec() reads Config, which a migration's
  // retirement flip reassigns behind the gate barrier — an out-of-gate
  // read would race the flip (caught by TSan under legacy-op traffic).
  assert(spec().isKey(S.domain()) &&
         "remove requires s to be a key (paper §2)");
  return runRemovePlan(*removePlanFor(S.domain()), S);
}

bool ConcurrentRelation::insert(const Tuple &S, const Tuple &T) {
  assert(!S.domain().intersects(T.domain()) &&
         "insert requires disjoint s and t domains (paper §2)");
  Tuple Full = S.unionWith(T);
  OpGate::Scope G(Gate);
  EpochDomain::Guard EG;
  // Inside the gate for the same reason as remove's key assert.
  assert(Full.domain() == spec().allColumns() &&
         "inserted tuple must value every column");
  return runInsertPlan(*insertPlanFor(S.domain()), Full);
}

/// One quiescent traversal step (consistency checking): extends each
/// walk state across edge \p E by lookup (key bound) or scan, joining
/// against bound columns.
namespace {
struct WalkState {
  Tuple T;
  std::vector<NodeInstPtr> Bound;
};
} // namespace

static void stepStates(const Decomposition &D, EdgeId E,
                       std::vector<WalkState> &States) {
  const auto &Edge = D.edge(E);
  std::vector<WalkState> Out;
  for (WalkState &State : States) {
    const NodeInstPtr &Inst = State.Bound[Edge.Src];
    if (!Inst)
      continue;
    const AnyContainer &Container = Inst->containerFor(E);
    if (State.T.domain().containsAll(Edge.Cols)) {
      NodeInstPtr Found;
      if (!Container.lookup(State.T.project(Edge.Cols), Found))
        continue;
      WalkState NewState = std::move(State);
      NewState.Bound[Edge.Dst] = std::move(Found);
      Out.push_back(std::move(NewState));
    } else {
      Container.scan([&](const Tuple &Key, const NodeInstPtr &Val) {
        Tuple Joined;
        if (!State.T.tryJoin(Key, Joined))
          return true;
        WalkState NewState;
        NewState.T = std::move(Joined);
        NewState.Bound = State.Bound;
        NewState.Bound[Edge.Dst] = Val;
        Out.push_back(std::move(NewState));
        return true;
      });
    }
  }
  States = std::move(Out);
}

std::vector<Tuple> ConcurrentRelation::scanAll() const {
  return query(Tuple(), spec().allColumns());
}

void ConcurrentRelation::attachWal(WriteAheadLog &Log, uint32_t Partition,
                                   uint32_t Shard) {
  assert(Partition < Log.partitions() && "partition out of range");
  WalPartition = Partition;
  WalShard = Shard;
  // Store last: the mutation paths load Wal with acquire and read the
  // partition/shard fields only behind a non-null result.
  Wal.store(&Log, std::memory_order_release);
}

void ConcurrentRelation::attachMetrics(obs::MetricsRegistry &Reg,
                                       std::string Name,
                                       obs::MetricLabels Extra) {
  detachMetrics(); // re-attach replaces the previous wiring
  auto *OS = new detail::RelationObs;
  OS->Reg = &Reg;
  OS->Name = std::move(Name);
  OS->Labels.emplace_back("relation", OS->Name);
  for (auto &L : Extra)
    OS->Labels.push_back(std::move(L));
  OS->RelationRing = &Reg.ring(obs::EventDomain::Relation);
  OS->TxnRing = &Reg.ring(obs::EventDomain::Txn);
  OS->WalRing = &Reg.ring(obs::EventDomain::Wal);
  OS->MigrationRing = &Reg.ring(obs::EventDomain::Migration);

  // Everything below is a callback over a counter the relation already
  // keeps — attaching adds no new hot-path write anywhere; the registry
  // reads these at snapshot time only. The callbacks capture `this` and
  // are removed in detachMetrics()/the destructor, so they never
  // outlive the relation.
  using CK = obs::MetricsRegistry::CallbackKind;
  const obs::MetricLabels &L = OS->Labels;
  auto Add = [&](const char *N, CK Kind, std::function<uint64_t()> Fn) {
    OS->Callbacks.push_back(Reg.addCallback(N, L, Kind, std::move(Fn)));
  };
  Add("relation.queries", CK::Counter, [this] { return NumQueries.load(); });
  Add("relation.inserts", CK::Counter, [this] { return NumInserts.load(); });
  Add("relation.removes", CK::Counter, [this] { return NumRemoves.load(); });
  Add("relation.restarts", CK::Counter,
      [this] { return Restarts.load(std::memory_order_relaxed); });
  Add("relation.size", CK::Gauge, [this] { return uint64_t(size()); });
  Add("relation.plan_epoch", CK::Gauge, [this] { return planEpoch(); });
  Add("relation.plan_cache.hits", CK::Counter,
      [this] { return Plans.hits(); });
  Add("relation.plan_cache.misses", CK::Counter,
      [this] { return Plans.misses(); });
  Add("relation.mvcc.versions_installed", CK::Counter,
      [this] { return Mvcc->installed(); });
  Add("relation.mvcc.versions_retired", CK::Counter,
      [this] { return Mvcc->retired(); });
  Add("relation.mvcc.remove_noops", CK::Counter,
      [this] { return Mvcc->removeNoops(); });
  Add("relation.mvcc.live_versions", CK::Gauge,
      [this] { return Mvcc->liveVersions(); });
  Add("relation.mvcc.directories", CK::Gauge,
      [this] { return uint64_t(Mvcc->directoryCount()); });
  Add("relation.mvcc.directories_retired", CK::Counter,
      [this] { return Mvcc->directoriesRetired(); });
  static const char *CauseNames[NumAbortCauses] = {
      "none", "conflict", "upgrade", "epoch_change", "gate_busy", "user"};
  for (unsigned C = 1; C < NumAbortCauses; ++C) { // cause 0 = None: no abort
    obs::MetricLabels CL = L;
    CL.emplace_back("cause", CauseNames[C]);
    OS->Callbacks.push_back(
        Reg.addCallback("txn.aborts", CL, CK::Counter,
                        [this, C] { return AbortCounts[C].load(); }));
  }

  Mvcc->attachTrace(OS->RelationRing);
  Obs.store(OS, std::memory_order_seq_cst);
}

void ConcurrentRelation::detachMetrics() {
  detail::RelationObs *OS = Obs.exchange(nullptr, std::memory_order_seq_cst);
  if (!OS)
    return;
  Mvcc->attachTrace(nullptr);
  OS->Reg->removeCallbacks(OS->Callbacks);
  // Operations load Obs without a lock; an in-flight op may still hold
  // the pointer, so the state reclaims after the grace period (the
  // attach-on-a-quiet-relation contract makes this belt-and-braces).
  EpochDomain::global().retireObject(OS);
}

std::vector<Tuple>
ConcurrentRelation::checkpointSnapshot(uint64_t &Watermark) const {
  // The barrier closes the gate and drains every in-flight operation.
  // Mutations append their WAL record while inside the gate (the hooks
  // above run under the op scope, which holds the gate throughout), so
  // once the drain completes, everything this relation will ever log
  // with commitSeq ≤ the clock reading below is already both applied to
  // the structure and appended to the log; everything after the barrier
  // stamps a higher sequence. That makes the walk + watermark pair a
  // consistent cut of the commit order.
  OpGate::Barrier B(Gate);
  Watermark = commitClockNow();

  // Quiescent first-path walk — scanAll() would re-enter the gate the
  // barrier just closed. Any single root-to-leaf path yields the full
  // represented relation (adequacy; verifyConsistency checks they all
  // agree), so follow first out-edges only.
  const Decomposition &D = *Config.Decomp;
  std::vector<WalkState> States;
  WalkState Init;
  Init.Bound.resize(D.numNodes());
  Init.Bound[D.root()] = Root;
  States.push_back(std::move(Init));
  for (NodeId N = D.root(); !D.node(N).OutEdges.empty();) {
    EdgeId E = D.node(N).OutEdges.front();
    stepStates(D, E, States);
    N = D.edge(E).Dst;
  }
  std::vector<Tuple> Out;
  Out.reserve(States.size());
  for (const WalkState &St : States)
    Out.push_back(St.T.project(spec().allColumns()));
  return Out;
}

/// Visits every live node instance exactly once (quiescent walk).
static void forEachInstance(
    const Decomposition &D, const NodeInstPtr &Root,
    const std::function<void(NodeId, const NodeInstance &)> &Visit) {
  std::unordered_set<const NodeInstance *> Seen;
  std::function<void(NodeId, const NodeInstPtr &)> Walk =
      [&](NodeId N, const NodeInstPtr &Inst) {
        if (!Seen.insert(Inst.get()).second)
          return; // shared instance, reached before along another path
        Visit(N, *Inst);
        for (EdgeId E : D.node(N).OutEdges)
          Inst->containerFor(E).scan(
              [&](const Tuple &, const NodeInstPtr &Child) {
                Walk(D.edge(E).Dst, Child);
                return true;
              });
      };
  Walk(D.root(), Root);
}

RelationStatistics ConcurrentRelation::collectStatistics() const {
  const Decomposition &D = *Config.Decomp;
  RelationStatistics Stats;
  Stats.Edges.resize(D.numEdges());
  Stats.Nodes.resize(D.numNodes());
  forEachInstance(D, Root, [&](NodeId N, const NodeInstance &Inst) {
    ++Stats.NodeInstances;
    NodeLockTraffic &Traffic = Stats.Nodes[N];
    ++Traffic.Instances;
    for (uint32_t I = 0; I < Inst.NumStripes; ++I) {
      Traffic.Acquisitions += Inst.Stripes[I].acquisitions();
      Traffic.Contentions += Inst.Stripes[I].contentions();
    }
    for (EdgeId E : D.node(N).OutEdges) {
      EdgeOccupancy &Occ = Stats.Edges[E];
      ++Occ.Containers;
      Occ.Entries += Inst.containerFor(E).size();
    }
  });
  return Stats;
}

void ConcurrentRelation::adaptPlans() {
  // The measurement itself is quiescent-only (header contract), but
  // concurrent operations may keep using old plans safely: the swap is
  // serialized against cold compiles by PlannerMutex (released before
  // clear(), which takes the shard mutexes — no order inversion), and
  // PlanCache::clear() retires snapshots instead of freeing them, so
  // in-flight wait-free lookups never touch freed memory. A compile
  // that raced ahead with the old planner either publishes before the
  // clear (wiped with the rest) or runs after the swap (new planner).
  RelationStatistics Stats = collectStatistics();
  {
    std::lock_guard<std::mutex> Guard(PlannerMutex);
    QueryPlanner Replanned(*Config.Decomp, *Config.Placement,
                           Stats.toCostParams(BaseCostParams));
    // Replanning during a migration's dual-write phase must keep the
    // mutation plans mirroring, or committed writes would stop
    // reaching the shadow representation.
    Replanned.setEmitMirrorWrites(Planner.emitMirrorWrites());
    Planner = std::move(Replanned);
  }
  // Bump *before* clear — the order matters for the wait-free readers.
  // A prepared handle's fast path re-validates its cached plan pointer
  // by loading PlanEpoch (seq_cst) inside its epoch guard. The clear
  // retires the snapshot that owns the plan, and with enough epoch
  // advances from unrelated retire traffic that snapshot could become
  // freeable *during* the reader's guard (only retirees stamped before
  // the guard's epoch are held back). Bumping first closes the hole:
  // if the snapshot was freeable during a guard, its retire — and
  // therefore this preceding bump — is before the guard's entry in the
  // seq_cst order, so the reader's epoch check must observe the bump
  // and rebind instead of touching the plan. The benign flip side: a
  // racing rebinder may re-bind a not-yet-cleared plan at the new
  // epoch; old plans remain semantically valid here (only the cost
  // model changed), so it merely keeps an old shape one cycle longer.
  // The first rebinder per signature compiles (one counted miss);
  // everyone else rebinds onto that publication wait-free.
  // The signatures compiled at this instant are the access paths still
  // in live use (captured before the clear wipes them) — they decide
  // which MVCC chain directories survive below.
  std::vector<PlanCache::Signature> Sigs = Plans.signatures();
  PlanEpoch.fetch_add(1, std::memory_order_seq_cst);
  Plans.clear();

  // Retire secondary chain directories whose read signature left the
  // cache: a directory serves snapshot reads binding dom(s) ∩ key, so
  // the keep set is exactly the key projections of the surviving
  // query/for-update shapes. A directory retired too eagerly (its
  // signature went cold but comes back) is re-created and backfilled by
  // the next compile's ensureDirectory — a cold-path cost, never a
  // correctness issue. The retire itself is epoch-safe against
  // concurrent snapshot readers (MvccStore::retireStaleDirectories).
  std::vector<ColumnSet> Keep;
  const ColumnSet KeyCols = Mvcc->keyColumns();
  for (const PlanCache::Signature &S : Sigs)
    if (S.Op == PlanOp::Query || S.Op == PlanOp::QueryForUpdate)
      Keep.push_back(ColumnSet::fromBits(S.Dom) & KeyCols);
  Mvcc->retireStaleDirectories([&](ColumnSet Cols) {
    for (ColumnSet K : Keep)
      if (K == Cols)
        return true;
    return false;
  });
}

ValidationResult ConcurrentRelation::verifyConsistency() const {
  ValidationResult R;
  const Decomposition &D = *Config.Decomp;

  // Enumerate all root-to-leaf edge paths.
  std::vector<std::vector<EdgeId>> Paths;
  std::vector<EdgeId> Current;
  std::function<void(NodeId)> Walk = [&](NodeId N) {
    if (D.node(N).OutEdges.empty()) {
      Paths.push_back(Current);
      return;
    }
    for (EdgeId E : D.node(N).OutEdges) {
      Current.push_back(E);
      Walk(D.edge(E).Dst);
      Current.pop_back();
    }
  };
  Walk(D.root());

  // Collect the tuple set along each path (unlocked: quiescence is the
  // caller's obligation).
  std::vector<std::vector<Tuple>> PathTuples;
  for (const auto &Path : Paths) {
    std::vector<WalkState> States;
    WalkState Init;
    Init.Bound.resize(D.numNodes());
    Init.Bound[D.root()] = Root;
    States.push_back(std::move(Init));
    for (EdgeId E : Path)
      stepStates(D, E, States);
    std::vector<Tuple> Tuples;
    for (const WalkState &St : States)
      Tuples.push_back(St.T);
    std::sort(Tuples.begin(), Tuples.end(), TupleLess());
    PathTuples.push_back(std::move(Tuples));
  }

  for (size_t I = 1; I < PathTuples.size(); ++I)
    if (PathTuples[I] != PathTuples[0])
      R.Errors.push_back("path " + std::to_string(I) +
                         " disagrees with path 0 on the represented relation");

  if (!PathTuples.empty() && PathTuples[0].size() != size())
    R.Errors.push_back("tuple count " + std::to_string(PathTuples[0].size()) +
                       " disagrees with size() " + std::to_string(size()));

  // Functional dependencies must hold over the represented relation:
  // sorted by (LHS, RHS) projection, a violation shows as two adjacent
  // entries that agree on the LHS but not on the RHS.
  if (!PathTuples.empty()) {
    const auto &Tuples = PathTuples[0];
    for (const auto &Fd : spec().fds()) {
      std::vector<std::pair<Tuple, Tuple>> Proj;
      Proj.reserve(Tuples.size());
      for (const Tuple &T : Tuples)
        Proj.emplace_back(T.project(Fd.Lhs), T.project(Fd.Rhs));
      std::sort(Proj.begin(), Proj.end(), [](const auto &A, const auto &B) {
        int C = A.first.compare(B.first);
        return C < 0 || (C == 0 && A.second.compare(B.second) < 0);
      });
      for (size_t I = 1; I < Proj.size(); ++I)
        if (Proj[I].first == Proj[I - 1].first &&
            Proj[I].second != Proj[I - 1].second)
          R.Errors.push_back("functional dependency violated");
    }
  }
  return R;
}
