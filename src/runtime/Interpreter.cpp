//===- runtime/Interpreter.cpp - Query plan execution -------------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

#include "support/Compiler.h"

#include <algorithm>

using namespace crs;

//===----------------------------------------------------------------------===//
// ExecContext
//===----------------------------------------------------------------------===//

ExecContext &ExecContext::current() {
  static thread_local ExecContext Ctx;
  return Ctx;
}

ExecContext &ExecContext::mirrorCtx() {
  static thread_local ExecContext Ctx;
  return Ctx;
}

void ExecContext::reset() {
  assert(Locks.heldCount() == 0 && "reset with locks still held");
  // Rewind, don't clear: the Tuple slot objects stay constructed, so
  // their entry vectors keep their capacity for the next operation.
  NumStates = 0;
  Bind.clear();
  Pool.clear();
  Vars.clear();
}

NodeInstPtr ExecContext::pooledOwnerOf(const PhysicalLock &Lock) const {
  for (const NodeInstPtr &P : Pool)
    if (&Lock >= P->Stripes.get() && &Lock < P->Stripes.get() + P->NumStripes)
      return P;
  return nullptr;
}

void ExecContext::begin(uint32_t NumNodes, PlanVar NumVars,
                        const Tuple &Input, NodeInstPtr Root,
                        NodeId RootNode) {
  if (Txn) {
    // Transaction scope: locks are retained to commit and the pool must
    // keep every instance they live on pinned, so only the state arena
    // and the variable table rewind between the scope's plans.
    NumStates = 0;
    Vars.clear();
  } else {
    reset();
  }
  Stride = NumNodes;
  Vars.assign(NumVars, {});
  uint32_t RootIdx = intern(std::move(Root));
  uint32_t S0 = allocState();
  Tuples[S0] = Input; // copy-assign into the recycled slot
  Bind.assign(Stride, NoBinding);
  Bind[RootNode] = RootIdx;
  Vars[0] = {0, 1};
}

uint32_t ExecContext::allocState() {
  if (NumStates == Tuples.size())
    Tuples.emplace_back();
  Bind.resize(size_t(NumStates + 1) * Stride);
  return NumStates++;
}

uint32_t ExecContext::pushStateCopy(uint32_t Src) {
  uint32_t NS = allocState();
  Tuples[NS] = Tuples[Src];
  std::copy_n(Bind.data() + size_t(Src) * Stride, Stride,
              Bind.data() + size_t(NS) * Stride);
  return NS;
}

uint32_t ExecContext::pushStateJoinOf(const Tuple &A, const Tuple &B,
                                      uint32_t Src) {
  // The operands must not live in the arena: allocState may reallocate
  // it (callers keep stable copies of in-arena tuples they join on).
  assert((Tuples.empty() || (&A < Tuples.data() ||
                             &A >= Tuples.data() + Tuples.size())) &&
         (Tuples.empty() || (&B < Tuples.data() ||
                             &B >= Tuples.data() + Tuples.size())) &&
         "joining against an arena tuple that allocState may move");
  uint32_t NS = allocState();
  Tuples[NS].assignUnion(A, B);
  std::copy_n(Bind.data() + size_t(Src) * Stride, Stride,
              Bind.data() + size_t(NS) * Stride);
  return NS;
}

uint32_t ExecContext::pushStateProjOf(uint32_t Src, ColumnSet C) {
  uint32_t NS = allocState();
  Tuples[NS].assignProject(Tuples[Src], C);
  std::fill_n(Bind.data() + size_t(NS) * Stride, Stride, NoBinding);
  return NS;
}

//===----------------------------------------------------------------------===//
// PlanExecutor
//===----------------------------------------------------------------------===//

PlanExecutor::PlanExecutor(const Decomposition &D, const LockPlacement &P)
    : Decomp(&D), Placement(&P), TopoIdx(D.topologicalIndex()) {}

LockOrderKey PlanExecutor::orderKey(NodeId Node, const NodeInstance &Inst,
                                    uint32_t Stripe) const {
  return {TopoIdx[Node], Inst.Key, Stripe};
}

/// Stripe index selected by hashing \p Cols of \p T over \p Count stripes.
static uint32_t stripeIndex(const Tuple &T, ColumnSet Cols, uint32_t Count) {
  if (Count <= 1)
    return 0;
  return static_cast<uint32_t>(T.project(Cols).hash() % Count);
}

/// One lock acquisition, transaction-aware. Outside a transaction:
/// blocking when \p SpecSite is false (plan statements arrive in the
/// global order), the §4.5 in-order/try split when true. Inside a
/// transaction scope the set's MaxKey spans every chained op, so any
/// site may legitimately fall out of order: LockSet::acquireTxn blocks
/// only in order (and only when the scope's ForceTry discipline
/// permits), tries otherwise, and a failed try or an upgrade request
/// surfaces as Restart for the transaction layer's bounded wait-die
/// path.
static ExecStatus acquireStmt(ExecContext &Ctx, PhysicalLock &Lock,
                              const LockOrderKey &Key, LockMode Mode,
                              bool SpecSite) {
  if (Ctx.Txn) {
    switch (Ctx.Locks.acquireTxn(Lock, Key, Mode, !Ctx.Txn->ForceTry)) {
    case TxnAcquire::Ok:
      return ExecStatus::Ok;
    case TxnAcquire::Upgrade:
      Ctx.Txn->SawUpgrade = true;
      return ExecStatus::Restart;
    case TxnAcquire::WouldBlock:
      return ExecStatus::Restart;
    }
  }
  if (!SpecSite || Ctx.Locks.inOrder(Key)) {
    Ctx.Locks.acquire(Lock, Key, Mode);
    return ExecStatus::Ok;
  }
  return Ctx.Locks.tryAcquire(Lock, Key, Mode) == AcquireResult::Ok
             ? ExecStatus::Ok
             : ExecStatus::Restart;
}

ExecStatus PlanExecutor::execLock(const PlanStmt &St, ExecContext &Ctx) const {
  // Wait-free read path: an epoch-eligible query plan runs under an
  // epoch guard instead of locks — every container on its path is
  // concurrency-safe, so lock statements are skipped wholesale.
  if (Ctx.LockFree)
    return ExecStatus::Ok;
  struct Req {
    LockOrderKey Key;
    PhysicalLock *Lock;
  };
  std::vector<Req> Reqs;
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t Idx = Ctx.bindIdx(S, St.Node);
    if (Idx == ExecContext::NoBinding)
      continue;
    NodeInstance &Inst = *Ctx.Pool[Idx];
    for (const StripeSel &Sel : St.Sels) {
      switch (Sel.M) {
      case StripeSel::Mode::All:
        for (uint32_t K = 0; K < Inst.NumStripes; ++K)
          Reqs.push_back({orderKey(St.Node, Inst, K), &Inst.Stripes[K]});
        break;
      case StripeSel::Mode::ByCols: {
        assert(Ctx.Tuples[S].domain().containsAll(Sel.Cols) &&
               "stripe selector columns unbound at lock time");
        uint32_t K = stripeIndex(Ctx.Tuples[S], Sel.Cols, Inst.NumStripes);
        Reqs.push_back({orderKey(St.Node, Inst, K), &Inst.Stripes[K]});
        break;
      }
      case StripeSel::Mode::First:
        Reqs.push_back({orderKey(St.Node, Inst, 0), &Inst.Stripes[0]});
        break;
      }
    }
  }
  // The lock operator sorts node instances into lock order before
  // acquiring; the planner's §5.2 static analysis elides the sort when
  // the states provably arrive pre-sorted (e.g. from a TreeMap scan).
  auto InOrder = [](const Req &A, const Req &B) { return A.Key < B.Key; };
  if (St.SortElided) {
    assert(std::is_sorted(Reqs.begin(), Reqs.end(), InOrder) &&
           "sort-elision analysis accepted unsorted lock input");
  } else {
    std::sort(Reqs.begin(), Reqs.end(), InOrder);
  }
  for (const Req &Q : Reqs)
    if (acquireStmt(Ctx, *Q.Lock, Q.Key, St.Mode, /*SpecSite=*/false) !=
        ExecStatus::Ok)
      return ExecStatus::Restart;
  return ExecStatus::Ok;
}

void PlanExecutor::execLookup(const PlanStmt &St, ExecContext &Ctx) const {
  const auto &E = Decomp->edge(St.Edge);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  uint32_t OutFirst = Ctx.numAllStates();
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t SrcIdx = Ctx.bindIdx(S, E.Src);
    if (SrcIdx == ExecContext::NoBinding)
      continue;
    Tuple Key = Ctx.Tuples[S].project(E.Cols);
    NodeInstPtr Found;
    if (!Ctx.Pool[SrcIdx]->containerFor(St.Edge).lookup(Key, Found))
      continue;
    uint32_t DstIdx = Ctx.bindIdx(S, E.Dst);
    if (DstIdx != ExecContext::NoBinding) {
      // Shared node reached along a second path (diamond): instances
      // must agree or the heap is not a well-formed decomposition
      // instance.
      assert(Ctx.Pool[DstIdx].get() == Found.get() &&
             "inconsistent shared-node binding");
      if (Ctx.Pool[DstIdx].get() != Found.get())
        continue;
    }
    uint32_t NS = Ctx.pushStateCopy(S);
    Ctx.setBind(NS, E.Dst, Ctx.intern(std::move(Found)));
  }
  Ctx.Vars[St.OutVar] = {OutFirst, Ctx.numAllStates() - OutFirst};
}

void PlanExecutor::execScan(const PlanStmt &St, ExecContext &Ctx) const {
  const auto &E = Decomp->edge(St.Edge);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  uint32_t OutFirst = Ctx.numAllStates();
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t SrcIdx = Ctx.bindIdx(S, E.Src);
    if (SrcIdx == ExecContext::NoBinding)
      continue;
    // The arenas may reallocate as the scan appends states: keep stable
    // copies of what the visitor reads (the instance itself is heap
    // storage, so its container reference stays valid).
    Tuple InT = Ctx.Tuples[S];
    uint32_t DstIdx = Ctx.bindIdx(S, E.Dst);
    NodeInstPtr SrcInst = Ctx.Pool[SrcIdx];
    SrcInst->containerFor(St.Edge).scan(
        [&](const Tuple &Key, const NodeInstPtr &Val) {
          if (!InT.matches(Key))
            return true; // filtered out by already-bound columns
          if (DstIdx != ExecContext::NoBinding &&
              Ctx.Pool[DstIdx].get() != Val.get())
            return true;
          uint32_t NS = Ctx.pushStateJoinOf(InT, Key, S);
          Ctx.setBind(NS, E.Dst, Ctx.intern(Val));
          return true;
        });
  }
  Ctx.Vars[St.OutVar] = {OutFirst, Ctx.numAllStates() - OutFirst};
}

ExecStatus PlanExecutor::execSpecLookup(const PlanStmt &St,
                                        ExecContext &Ctx) const {
  // Wait-free read path: with no lock taken there is nothing to verify
  // the guess against — the unlocked lookup *is* the read (speculative
  // placements already require linearizable lookups, §4.5), so the
  // statement degrades to a plain Lookup and can never Restart.
  if (Ctx.LockFree) {
    execLookup(St, Ctx);
    return ExecStatus::Ok;
  }
  const auto &E = Decomp->edge(St.Edge);
  const EdgePlacement &EP = Placement->edgePlacement(St.Edge);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  uint32_t OutFirst = Ctx.numAllStates();
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t SrcIdx = Ctx.bindIdx(S, E.Src);
    if (SrcIdx == ExecContext::NoBinding)
      continue;
    Tuple Key = Ctx.Tuples[S].project(E.Cols);
    const AnyContainer &Container = Ctx.Pool[SrcIdx]->containerFor(St.Edge);

    // Guess via an unlocked read (safe: speculative placements require a
    // concurrency-safe container with linearizable lookups, §4.5), lock
    // the guessed location, then verify under the lock.
    NodeInstPtr Guess;
    bool Present = Container.lookup(Key, Guess);
    if (Present) {
      // Pool the guess *before* locking it: the pool must keep the
      // instance (and its physical lock) alive through releaseAll even
      // when the verify fails and the transaction restarts.
      uint32_t GuessIdx = Ctx.intern(Guess);
      LockOrderKey OKey = orderKey(E.Dst, *Guess, 0);
      if (acquireStmt(Ctx, Guess->Stripes[0], OKey, St.Mode,
                      /*SpecSite=*/true) != ExecStatus::Ok)
        return ExecStatus::Restart;
      NodeInstPtr Recheck;
      if (!Container.lookup(Key, Recheck) || Recheck.get() != Guess.get())
        return ExecStatus::Restart; // wrong guess: release all and retry
      uint32_t NS = Ctx.pushStateCopy(S);
      Ctx.setBind(NS, E.Dst, GuessIdx);
      continue;
    }

    // Absent: the logical lock lives at the (dominating) absent-case
    // host, striped by the edge's stripe columns.
    uint32_t HostIdx = Ctx.bindIdx(S, EP.Host);
    assert(HostIdx != ExecContext::NoBinding &&
           "speculative absent-case host instance unbound");
    NodeInstance &Host = *Ctx.Pool[HostIdx];
    uint32_t Stripe = stripeIndex(Ctx.Tuples[S], EP.StripeCols,
                                  Host.NumStripes);
    LockOrderKey OKey = orderKey(EP.Host, Host, Stripe);
    if (acquireStmt(Ctx, Host.Stripes[Stripe], OKey, St.Mode,
                    /*SpecSite=*/true) != ExecStatus::Ok)
      return ExecStatus::Restart;
    NodeInstPtr Recheck;
    if (Container.lookup(Key, Recheck))
      return ExecStatus::Restart; // appeared while guessing
    // Verified absent under the absence lock: the state dies (no tuple),
    // and the held lock protects this negative observation (2PL).
  }
  Ctx.Vars[St.OutVar] = {OutFirst, Ctx.numAllStates() - OutFirst};
  return ExecStatus::Ok;
}

ExecStatus PlanExecutor::execSpecScan(const PlanStmt &St,
                                      ExecContext &Ctx) const {
  // Wait-free read path: no target locks to take, so the entry
  // collect-sort-lock protocol degrades to a plain concurrent Scan
  // (weakly consistent, like ConcurrentHashMap iteration).
  if (Ctx.LockFree) {
    execScan(St, Ctx);
    return ExecStatus::Ok;
  }
  const auto &E = Decomp->edge(St.Edge);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  uint32_t OutFirst = Ctx.numAllStates();
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t SrcIdx = Ctx.bindIdx(S, E.Src);
    if (SrcIdx == ExecContext::NoBinding)
      continue;
    // The all-stripes host lock held by the preceding Lock statement
    // excludes every writer of this edge, so entries are pinned; collect
    // them, then lock targets in sorted (global) order.
    struct Entry {
      Tuple Key;
      NodeInstPtr Val;
    };
    std::vector<Entry> Entries;
    Ctx.Pool[SrcIdx]->containerFor(St.Edge).scan(
        [&](const Tuple &Key, const NodeInstPtr &Val) {
          Entries.push_back({Key, Val});
          return true;
        });
    std::sort(Entries.begin(), Entries.end(),
              [](const Entry &A, const Entry &B) {
                return A.Key.compare(B.Key) < 0;
              });
    Tuple InT = Ctx.Tuples[S];
    for (Entry &En : Entries) {
      if (!InT.matches(En.Key))
        continue;
      // Pool before locking, like SpecLookup: the instance (and its
      // physical lock) must survive a transactional Restart's partial
      // release.
      uint32_t ValIdx = Ctx.intern(En.Val);
      if (acquireStmt(Ctx, En.Val->Stripes[0], orderKey(E.Dst, *En.Val, 0),
                      St.Mode, /*SpecSite=*/false) != ExecStatus::Ok)
        return ExecStatus::Restart;
      uint32_t NS = Ctx.pushStateJoinOf(InT, En.Key, S);
      Ctx.setBind(NS, E.Dst, ValIdx);
    }
  }
  Ctx.Vars[St.OutVar] = {OutFirst, Ctx.numAllStates() - OutFirst};
  return ExecStatus::Ok;
}

void PlanExecutor::execProbe(const PlanStmt &St, ExecContext &Ctx) const {
  const auto &E = Decomp->edge(St.Edge);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  uint32_t OutFirst = Ctx.numAllStates();
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    // Total: every state passes through, bound or not.
    uint32_t NS = Ctx.pushStateCopy(S);
    uint32_t SrcIdx = Ctx.bindIdx(NS, E.Src);
    if (SrcIdx == ExecContext::NoBinding)
      continue; // absent subtree: created later
    Tuple Key = Ctx.Tuples[NS].project(E.Cols);
    NodeInstPtr Found;
    if (!Ctx.Pool[SrcIdx]->containerFor(St.Edge).lookup(Key, Found))
      continue;
    [[maybe_unused]] uint32_t DstIdx = Ctx.bindIdx(NS, E.Dst);
    assert((DstIdx == ExecContext::NoBinding ||
            Ctx.Pool[DstIdx].get() == Found.get()) &&
           "inconsistent shared-node resolution");
    Ctx.setBind(NS, E.Dst, Ctx.intern(std::move(Found)));
  }
  Ctx.Vars[St.OutVar] = {OutFirst, Ctx.numAllStates() - OutFirst};
}

void PlanExecutor::execRestrict(const PlanStmt &St, ExecContext &Ctx) const {
  NodeId Root = Decomp->root();
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  uint32_t OutFirst = Ctx.numAllStates();
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t RootIdx = Ctx.bindIdx(S, Root);
    uint32_t NS = Ctx.pushStateProjOf(S, St.Cols);
    Ctx.setBind(NS, Root, RootIdx);
  }
  Ctx.Vars[St.OutVar] = {OutFirst, Ctx.numAllStates() - OutFirst};
}

void PlanExecutor::execCreateNode(const PlanStmt &St, ExecContext &Ctx) const {
  const auto &Node = Decomp->node(St.Node);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  uint32_t OutFirst = Ctx.numAllStates();
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t NS = Ctx.pushStateCopy(R.First + I);
    if (Ctx.bindIdx(NS, St.Node) != ExecContext::NoBinding)
      continue; // resolved in the locate phase
    NodeInstPtr Inst =
        NodeInstance::create(*Decomp, St.Node,
                             Ctx.Tuples[NS].project(Node.KeyCols),
                             Placement->nodeStripes(St.Node));
    // A fresh instance reached through a speculative edge must be locked
    // before any entry is published, or a guessing reader could observe
    // the uncommitted insert (§4.5 writer protocol). The instance is not
    // yet reachable, so the acquisition cannot block — take it through
    // the try path, which is exempt from the global-order discipline.
    for (EdgeId E : Node.InEdges)
      if (Placement->edgePlacement(E).Speculative) {
        [[maybe_unused]] AcquireResult A = Ctx.Locks.tryAcquire(
            Inst->Stripes[0], orderKey(St.Node, *Inst, 0),
            LockMode::Exclusive);
        assert(A == AcquireResult::Ok &&
               "lock on an unpublished instance cannot be contended");
      }
    Ctx.setBind(NS, St.Node, Ctx.intern(std::move(Inst)));
  }
  Ctx.Vars[St.OutVar] = {OutFirst, Ctx.numAllStates() - OutFirst};
}

void PlanExecutor::execInsertEdge(const PlanStmt &St, ExecContext &Ctx) const {
  const auto &E = Decomp->edge(St.Edge);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t SrcIdx = Ctx.bindIdx(S, E.Src);
    uint32_t DstIdx = Ctx.bindIdx(S, E.Dst);
    assert(SrcIdx != ExecContext::NoBinding &&
           DstIdx != ExecContext::NoBinding &&
           "insert-entry with unbound endpoints");
    if (SrcIdx == ExecContext::NoBinding || DstIdx == ExecContext::NoBinding)
      continue;
    Ctx.Pool[SrcIdx]->containerFor(St.Edge).insertOrAssign(
        Ctx.Tuples[S].project(E.Cols), Ctx.Pool[DstIdx]);
  }
}

void PlanExecutor::execEraseEdge(const PlanStmt &St, ExecContext &Ctx) const {
  const auto &E = Decomp->edge(St.Edge);
  ExecContext::VarRange R = Ctx.Vars[St.InVar];
  for (uint32_t I = 0; I < R.Count; ++I) {
    uint32_t S = R.First + I;
    uint32_t DstIdx = Ctx.bindIdx(S, E.Dst);
    if (DstIdx == ExecContext::NoBinding)
      continue;
    // Husk gate: a shared instance keeps its incoming entries until its
    // own containers have emptied out (deeper erase statements ran
    // first — reverse topological statement order).
    if (St.OnlyIfHusk && !Ctx.Pool[DstIdx]->allOutEmpty())
      continue;
    uint32_t SrcIdx = Ctx.bindIdx(S, E.Src);
    assert(SrcIdx != ExecContext::NoBinding &&
           "parent of a bound instance must be bound");
    if (SrcIdx == ExecContext::NoBinding)
      continue;
    Ctx.Pool[SrcIdx]->containerFor(St.Edge).erase(
        Ctx.Tuples[S].project(E.Cols));
  }
}

ExecStatus PlanExecutor::run(const Plan &Plan, const Tuple &Input,
                             NodeInstPtr Root, ExecContext &Ctx) const {
  Ctx.begin(Decomp->numNodes(), Plan.NumVars, Input, std::move(Root),
            Decomp->root());

  for (const PlanStmt &St : Plan.Stmts) {
    switch (St.K) {
    case PlanStmt::Kind::Lock:
      if (execLock(St, Ctx) != ExecStatus::Ok)
        return ExecStatus::Restart;
      break;
    case PlanStmt::Kind::Unlock:
      // Strict two-phase execution: everything is released by the caller
      // after the operation's writes and result extraction.
      break;
    case PlanStmt::Kind::Lookup:
      execLookup(St, Ctx);
      break;
    case PlanStmt::Kind::Scan:
      execScan(St, Ctx);
      break;
    case PlanStmt::Kind::SpecLookup:
      if (execSpecLookup(St, Ctx) != ExecStatus::Ok)
        return ExecStatus::Restart;
      break;
    case PlanStmt::Kind::SpecScan:
      if (execSpecScan(St, Ctx) != ExecStatus::Ok)
        return ExecStatus::Restart;
      break;
    case PlanStmt::Kind::Probe:
      execProbe(St, Ctx);
      break;
    case PlanStmt::Kind::Restrict:
      execRestrict(St, Ctx);
      break;
    case PlanStmt::Kind::GuardAbsent:
      if (Ctx.numStates(St.InVar) != 0)
        return ExecStatus::Found; // a tuple matching s exists (§2)
      break;
    case PlanStmt::Kind::CreateNode:
      execCreateNode(St, Ctx);
      break;
    case PlanStmt::Kind::InsertEdge:
      execInsertEdge(St, Ctx);
      break;
    case PlanStmt::Kind::EraseEdge:
      execEraseEdge(St, Ctx);
      break;
    case PlanStmt::Kind::UpdateCount: {
      uint32_t N = Ctx.numStates(St.InVar);
      if (Ctx.Count && N != 0) {
        if (St.Delta >= 0)
          Ctx.Count->fetch_add(size_t(St.Delta) * N,
                               std::memory_order_relaxed);
        else
          Ctx.Count->fetch_sub(size_t(-St.Delta) * N,
                               std::memory_order_relaxed);
      }
      break;
    }
    case PlanStmt::Kind::MirrorWrite:
      // Dual-write epilogue: replay the committed mutation on the
      // shadow representation (runtime/Migration.h) while this plan's
      // exclusive locks are still held. State 0 of variable 0 is the
      // operation's input tuple (s ∪ t for insert, s for remove);
      // InVar gates the replay on the mutation having matched. Inside a
      // transaction scope the replay is *buffered*: the scope is one
      // gated operation, so its mirrors flush at commit (locks still
      // held) and an abort discards them with the rest of the scope.
      if (Ctx.Mirror && Ctx.numStates(St.InVar) != 0) {
        if (Ctx.Txn)
          Ctx.Txn->MirrorBuf.push_back(
              {Plan.Op, Plan.DomS, Ctx.stateTuple(0, 0)});
        else
          Ctx.Mirror->mirror(Plan.Op, Plan.DomS, Ctx.stateTuple(0, 0));
      }
      break;
    }
  }
  return ExecStatus::Ok;
}
