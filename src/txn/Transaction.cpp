//===- txn/Transaction.cpp - Serializable multi-operation scopes -------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "txn/Transaction.h"

#include "support/Compiler.h"
#include "sync/CommitClock.h"
#include "sync/Epoch.h"
#include "txn/MvccStore.h"
#include "wal/Wal.h"

#include <algorithm>
#include <array>
#include <mutex>

using namespace crs;
using detail::PreparedOpImpl;
using detail::ShardedOpImpl;

namespace {

// The commit clock lives in sync/CommitClock.h now: the bare-mutation
// paths (runtime/ConcurrentRelation.cpp) stamp the same clock, so the
// WAL sees one total commit order whichever path wrote.

/// One scope open per thread (nested independent scopes would deadlock
/// on their own locks); a ShardedTransaction counts as one, its inner
/// per-shard scopes as zero.
thread_local unsigned OpenScopesOnThread = 0;

/// Warm contexts of exited threads. Workers in this codebase are often
/// short-lived (shard fan-out, stress drivers, request-per-thread
/// embeddings); without a hand-off every worker generation would pay
/// cold arenas for its first transaction. A thread's pool donates its
/// contexts here at thread exit, and a fresh thread's pool adopts one
/// before constructing from scratch. Adopted contexts drop their sticky
/// prepared-op argument frames: bindings are a per-thread contract, and
/// a handle must never observe another thread's bindings through a
/// recycled context.
struct CtxRecycleList {
  std::mutex M;
  std::vector<std::unique_ptr<ExecContext>> Free;
};
CtxRecycleList &ctxRecycleList() {
  // Leaked deliberately: thread_local pool destructors of late-exiting
  // threads may run after function-local statics would have been
  // destroyed, and the list must outlive every donor.
  static CtxRecycleList *L = new CtxRecycleList;
  return *L;
}

/// Transaction execution contexts are pooled per thread: a scope's
/// context must be distinct from the thread's operation context (a
/// visitor may observe both regimes) and live for the whole scope, but
/// constructing one per scope would pay cold arenas and allocations on
/// every transaction — the pool keeps them warm, like the per-thread
/// contexts of ordinary operations. Scopes belong to their opening
/// thread (contract), so acquire/release need no synchronization; only
/// the thread-exit donation touches the shared recycle list.
struct TxnCtxPool {
  std::vector<std::unique_ptr<ExecContext>> Storage;
  std::vector<ExecContext *> Free;
  ExecContext *acquire() {
    if (!Free.empty()) {
      ExecContext *C = Free.back();
      Free.pop_back();
      return C;
    }
    // Adopt a context donated by an exited thread before building a
    // cold one: its arenas already carry capacity.
    {
      CtxRecycleList &L = ctxRecycleList();
      std::lock_guard<std::mutex> G(L.M);
      if (!L.Free.empty()) {
        Storage.push_back(std::move(L.Free.back()));
        L.Free.pop_back();
        return Storage.back().get();
      }
    }
    Storage.push_back(std::make_unique<ExecContext>());
    return Storage.back().get();
  }
  void release(ExecContext *C) { Free.push_back(C); }
  ~TxnCtxPool() {
    // Thread exit. Every context is idle here: scopes are stack-bound
    // to their opening thread, so none can outlive its thread_locals.
    if (Storage.empty())
      return;
    CtxRecycleList &L = ctxRecycleList();
    std::lock_guard<std::mutex> G(L.M);
    for (std::unique_ptr<ExecContext> &C : Storage) {
      C->purgeFrames();
      L.Free.push_back(std::move(C));
    }
  }
};
TxnCtxPool &txnCtxPool() {
  static thread_local TxnCtxPool Pool;
  return Pool;
}

/// Failed out-of-order tries an op survives before the scope dies.
/// Grows with patience (the retry attempt number) — the aging half of
/// bounded wait-die.
unsigned tryBudget(unsigned Patience) {
  unsigned Shift = std::min(Patience, 6u);
  return 96u << Shift;
}

} // namespace

//===----------------------------------------------------------------------===//
// Transaction
//===----------------------------------------------------------------------===//

Transaction::Transaction(ConcurrentRelation &R, unsigned Patience,
                         uint64_t Birth)
    : Transaction(R, Opts{Patience, Birth, /*Snap=*/0, /*Nested=*/false,
                          /*BoundedGate=*/false, /*ForceTry=*/false}) {}

Transaction::Transaction(ConcurrentRelation &R, const Opts &O)
    : Rel(&R), TryBudget(tryBudget(O.Patience)),
      WantBoundedGate(O.BoundedGate), Nested(O.Nested) {
  // Stamp (or adopt) the wait-die age before any lock can be taken;
  // LockSet carries it to every exclusive owner table.
  BirthStamp = O.Birth ? O.Birth : nextTxnBirthStamp();
  if (!Nested) {
    assert(OpenScopesOnThread == 0 &&
           "one transaction scope open per thread (nested scopes would "
           "deadlock on their own locks)");
    ++OpenScopesOnThread;
  }
  // Snapshot at begin: every query() in the scope reads this one
  // commit-clock prefix. A nested per-shard scope adopts the sharded
  // scope's snapshot (which owns the registry slot pinning the
  // reclamation watermark); a standalone scope owns its own. The gate
  // is NOT taken here — ensureGate() enters it at the first
  // lock-taking operation, so a read-only scope never touches it (and
  // a migration flip never waits on one).
  if (O.Snap) {
    Snap = O.Snap;
  } else {
    SnapSlot = acquireSnapshotSlot(Snap);
    OwnsSnapSlot = true;
  }
  Frame.ForceTry = O.ForceTry;
  Ctx = txnCtxPool().acquire();
  Ctx->Txn = &Frame;
  Ctx->Locks.setOrderDomain(0, Rel->lockDomainOrdinal());
  Ctx->Locks.setBirthStamp(BirthStamp);
}

bool Transaction::ensureGate() {
  if (GateHeld)
    return true;
  assert(St == TxnState::Open);
  // Lazy gate entry: only lock-taking operations pin the relation's
  // operation gate (from here to scope finish), keeping migration
  // flips atomic with respect to writing transactions. A mid-scope
  // shard join must not block indefinitely on a flip in progress while
  // the scope holds other shards' gates and locks — it waits boundedly
  // and the scope dies instead.
  if (WantBoundedGate) {
    if (!Rel->Gate.tryEnter(/*YieldBudget=*/4096)) {
      abortWith(TxnAbortCause::GateBusy);
      return false;
    }
  } else {
    Rel->Gate.enter();
  }
  GateHeld = true;
  StartEpoch = Rel->planEpoch();
  return true;
}

Transaction::~Transaction() {
  if (St == TxnState::Open)
    abortWith(TxnAbortCause::User);
}

bool Transaction::execOp(const PreparedOpImpl &Impl, const Value *Args,
                         size_t NumArgs, function_ref<void(const Tuple &)> Visit,
                         int64_t &Result) {
  if (St != TxnState::Open)
    return false;
  assert(&Impl.relation() == Rel &&
         "prepared handle belongs to a different relation than the scope");
  PlanOp Kind = Impl.planOp();

  // Lock-taking ops pin the gate (lazily, here) before any plan or
  // epoch state is touched; a blocking gate wait must not happen under
  // an epoch guard (the flip's synchronize would deadlock).
  if (!ensureGate())
    return false;

  // The guard spans plan resolution through the last dereference in
  // the retry loop (plan snapshots reclaim through the epoch domain).
  // Per-call, not scope-lifetime: the scope's locks outlive it, but
  // plans are only touched inside this call — and a scope-long guard
  // would pin the epoch across arbitrary user code between ops. The
  // guard nests inside the gate just ensured.
  EpochDomain::Guard EG;

  // Plan resolution. Mutations ride the handle's epoch-validated
  // binding (one cached pointer load when warm); transactional reads
  // resolve the exclusive-mode QueryForUpdate plan for the handle's
  // signature from the same wait-free cache.
  const Plan *P = nullptr;
  switch (Kind) {
  case PlanOp::Query:
    P = Impl.resolveForUpdate();
    break;
  case PlanOp::Insert:
  case PlanOp::Remove:
    P = Impl.resolve();
    break;
  default:
    assert(false && "not a transactional operation kind");
    return false;
  }

  // Epoch discipline: a scope never mixes plan regimes. adaptPlans()
  // bumping the epoch mid-scope aborts it; the client retries against
  // the new plans (prepared handles rebind on their next use).
  if (Rel->planEpoch() != StartEpoch) {
    abortWith(TxnAbortCause::EpochChange);
    return false;
  }

  assert(NumArgs == Impl.numSlots() &&
         "transactional op must bind every slot positionally");
  std::array<ColumnId, BoundOp::MaxSlots> Cols;
  for (unsigned I = 0; I < NumArgs; ++I)
    Cols[I] = Impl.slotColumn(I);
  Tuple &Input = Ctx->inputScratch();
  Input.rebind(Cols.data(), Args, NumArgs);

  switch (Kind) {
  case PlanOp::Query:
    Rel->NumQueries.inc();
    break;
  case PlanOp::Insert:
    Rel->NumInserts.inc();
    break;
  default:
    Rel->NumRemoves.inc();
    break;
  }
  Ctx->Count = &Rel->Count;
  Ctx->Mirror = Rel->ActiveMirror.load(std::memory_order_acquire);

  // Bounded wait-die retry loop: a Restart here is a failed try on an
  // out-of-order lock (transactional plans never speculate — reads use
  // the writer protocol on speculative edges). The failed attempt's
  // locks, pool pins, and buffered mirrors are shed; everything the
  // scope held before the op is retained.
  LockSet::Mark LockMark = Ctx->Locks.mark();
  size_t PoolMark = Ctx->poolMark();
  size_t MirrorMark = Frame.MirrorBuf.size();
  unsigned Budget = TryBudget;
  // Retries against a *younger* holder don't burn Budget (an older
  // scope waits, it doesn't die — the classic rule), but stay bounded
  // by this cap so a stuck young holder can't pin a senior forever.
  unsigned SeniorityWaits = TryBudget * 8;
  for (;;) {
    ExecStatus S = Rel->Executor.run(*P, Input, Rel->Root, *Ctx);
    if (S != ExecStatus::Restart) {
      ++Ops;
      switch (Kind) {
      case PlanOp::Query: {
        uint32_t N = Ctx->numStates(P->ResultVar);
        if (Visit)
          for (uint32_t I = 0; I < N; ++I)
            Visit(Ctx->stateTuple(P->ResultVar, I));
        Result = N;
        break;
      }
      case PlanOp::Insert:
        // Found: a tuple matching s exists — nothing written, nothing
        // to undo, but the locks that observed it are retained (the
        // negative outcome is part of the serializable read set).
        if (S == ExecStatus::Ok)
          Undo.push_back({/*WasInsert=*/true, Input});
        Result = S == ExecStatus::Ok ? 1 : 0;
        break;
      default: {
        uint32_t N = Ctx->numStates(P->ResultVar);
        assert(N <= 1 && "key-matched remove found multiple tuples");
        if (N != 0)
          Undo.push_back(
              {/*WasInsert=*/false, Ctx->stateTuple(P->ResultVar, 0)});
        Result = N;
        break;
      }
      }
      return true;
    }
    Ctx->Locks.releaseToMark(LockMark);
    const PhysicalLock *Contended = nullptr;
    uint64_t Holder = Ctx->Locks.takeLastConflictStamp(&Contended);
    bool Senior = Holder != 0 && Holder < BirthStamp;
    // A scope killed by a senior holder waits for it below; pin the
    // contended lock's instance before the pool lets go of it.
    NodeInstPtr ContendedOwner =
        Senior && !Nested ? Ctx->pooledOwnerOf(*Contended) : nullptr;
    Ctx->rollbackPool(PoolMark);
    Frame.MirrorBuf.resize(MirrorMark);
    ++Restarts;
    Rel->Restarts.fetch_add(1, std::memory_order_relaxed);
    if (Frame.SawUpgrade) {
      abortWith(TxnAbortCause::Upgrade);
      return false;
    }
    // Classic wait-die on birth stamps when the contended key's owner
    // table identifies the holder: an older holder kills this (younger)
    // scope immediately — it would die anyway after Budget futile tries,
    // and the fast death is what lets it retry with kept seniority; a
    // younger holder lets this scope keep retrying for free. A zero
    // stamp (bare operation, or the holder released between the failed
    // try and the read) falls back to the bounded budget.
    if (Senior) {
      abortWith(TxnAbortCause::Conflict); // younger dies (wait-die)
      // ...and, holding nothing now, waits (boundedly) for the senior
      // to let go before the caller retries. Restarting at once would
      // re-take its in-order locks by blocking acquire and beat the
      // senior's try-and-yield to them every time: the senior never
      // finishes, so this scope dies again on the next attempt. Nested
      // scopes skip it: their sharded parent still holds other shards.
      if (ContendedOwner)
        for (unsigned I = 0;
             I < SeniorityWaits && Contended->ownerStamp() == Holder; ++I)
          std::this_thread::yield();
      return false;
    }
    if (Holder != 0 && Holder > BirthStamp) {
      if (SeniorityWaits-- == 0) {
        abortWith(TxnAbortCause::Conflict);
        return false;
      }
    } else if (Budget-- == 0) {
      abortWith(TxnAbortCause::Conflict); // die (bounded wait-die)
      return false;
    }
    std::this_thread::yield();
  }
}

uint32_t
Transaction::snapshotReadOver(const ConcurrentRelation &R,
                              const std::vector<UndoRecord> &Undo,
                              const Tuple &Input, uint64_t Snap,
                              function_ref<void(const Tuple &)> Visit,
                              SnapshotQueryStats *Stats) {
  // R is const (reads don't mutate the relation), but the version
  // store's directory registry may grow below: the unique_ptr is
  // const, its pointee is not.
  MvccStore &Store = *R.Mvcc;
  // Own-writes overlay: the scope reads its own uncommitted effects
  // over the committed chains. Replay the undo log per key — the last
  // record decides the key's current state (insert: present with that
  // tuple; remove: absent) — then suppress those keys in the store
  // visit and append the surviving inserts. Scopes are small; linear
  // key matching beats a map here.
  ColumnSet KeyCols = Store.keyColumns();
  std::vector<std::pair<Tuple, const Tuple *>> Mine;
  for (const UndoRecord &U : Undo) {
    Tuple K = U.Full.project(KeyCols);
    const Tuple *Cur = U.WasInsert ? &U.Full : nullptr;
    auto It = std::find_if(Mine.begin(), Mine.end(),
                           [&](const auto &P) { return P.first == K; });
    if (It == Mine.end())
      Mine.push_back({std::move(K), Cur});
    else
      It->second = Cur;
  }
  auto SkipMine = [&](const Tuple &Key) {
    return std::find_if(Mine.begin(), Mine.end(), [&](const auto &P) {
             return P.first == Key;
           }) != Mine.end();
  };
  function_ref<bool(const Tuple &)> Skip;
  if (!Mine.empty())
    Skip = SkipMine;
  SnapshotQueryStats Path;
  uint32_t N;
  {
    // The guard covers the lock-free chain walk (versions reclaim
    // through the epoch domain). No gate, no physical lock, no plan.
    EpochDomain::Guard EG;
    N = Store.snapshotQuery(Input, Snap, Visit, Skip, &Path);
    for (const auto &P : Mine) {
      if (!P.second || !P.second->extends(Input))
        continue;
      ++N;
      if (Visit)
        Visit(*P.second);
    }
  }
  // A fallback scan is the signal that this query shape has no access
  // path yet: request one now (outside the guard — backfill takes
  // bucket mutexes and should not pin reclamation), so the next read
  // binding these columns walks only its matching chains. Eagerly
  // compiled signatures (ConcurrentRelation's plan cache) normally get
  // here first; this lazy path catches ad-hoc shapes and directories
  // stranded by late prepares.
  if (Path.FullScan)
    Store.ensureDirectory(Input.domain());
  if (Stats)
    *Stats = Path;
  return N;
}

bool Transaction::query(const PreparedQuery &Q,
                        std::initializer_list<Value> Args,
                        function_ref<void(const Tuple &)> Visit,
                        uint32_t *Matches) {
  if (St != TxnState::Open)
    return false;
  const PreparedOpImpl &Impl = *Q.Impl;
  assert(&Impl.relation() == Rel &&
         "prepared handle belongs to a different relation than the scope");
  assert(Args.size() == Impl.numSlots() &&
         "transactional op must bind every slot positionally");
  std::array<ColumnId, BoundOp::MaxSlots> Cols;
  for (unsigned I = 0; I < Args.size(); ++I)
    Cols[I] = Impl.slotColumn(I);
  Tuple &Input = Ctx->inputScratch();
  Input.rebind(Cols.data(), Args.begin(), Args.size());
  Rel->NumQueries.inc();
  ++Ops;
  uint32_t N = snapshotReadOver(*Rel, Undo, Input, Snap, Visit,
                                &LastReadStats);
  if (Matches)
    *Matches = N;
  return true;
}

bool Transaction::queryForUpdate(const PreparedQuery &Q,
                                 std::initializer_list<Value> Args,
                                 function_ref<void(const Tuple &)> Visit,
                                 uint32_t *Matches) {
  int64_t R = 0;
  if (!execOp(*Q.Impl, Args.begin(), Args.size(), Visit, R))
    return false;
  if (Matches)
    *Matches = static_cast<uint32_t>(R);
  return true;
}

bool Transaction::insert(const PreparedInsert &I,
                         std::initializer_list<Value> Args, bool *Won) {
  int64_t R = 0;
  if (!execOp(*I.Impl, Args.begin(), Args.size(), nullptr, R))
    return false;
  if (Won)
    *Won = R != 0;
  return true;
}

bool Transaction::remove(const PreparedRemove &Rm,
                         std::initializer_list<Value> Args,
                         unsigned *Removed) {
  int64_t R = 0;
  if (!execOp(*Rm.Impl, Args.begin(), Args.size(), nullptr, R))
    return false;
  if (Removed)
    *Removed = static_cast<unsigned>(R);
  return true;
}

bool Transaction::commit() {
  if (St != TxnState::Open)
    return false;
  if (Undo.empty()) {
    // Read-only (or effect-free): nothing to install, log, or stamp —
    // the commit clock never moves and no registry slot is touched, so
    // a read-heavy workload commits scopes without one shared RMW.
    commitWithSeq(0);
    return true;
  }
  // Stamp through the in-flight registry: concurrent snapshot
  // acquisition stays below this sequence until every version the
  // scope installs is in the store.
  CommitTicket T = beginCommit();
  commitWithSeq(T.Seq);
  endCommit(T);
  return true;
}

void Transaction::commitWithSeq(uint64_t S) {
  assert(St == TxnState::Open && "committing a finished scope");
  Seq = S;
  // Flush buffered dual-write mirrors with every lock still held: the
  // shadow sees the scope's mutations only once the scope is past the
  // point of abort, and before any key it wrote becomes reachable by
  // others. The sink is the one the ops buffered under — the scope held
  // the gate throughout, and flips close it.
  if (!Frame.MirrorBuf.empty()) {
    MirrorSink *M = Rel->ActiveMirror.load(std::memory_order_acquire);
    assert(M && "buffered mirrors but the dual-write phase ended mid-scope");
    if (M)
      for (const ExecContext::TxnFrame::BufferedMirror &E : Frame.MirrorBuf)
        M->mirror(E.Op, E.DomS, E.Input);
    Frame.MirrorBuf.clear();
  }
  // Commit effects, still under every retained lock. First the MVCC
  // version installs (oldest-first — within-commit order matters for a
  // key touched twice): rival writers on any touched key are still
  // excluded by 2PL, and the caller's beginCommit window keeps fresh
  // snapshots below S until every install — on every shard of a
  // sharded scope — has landed. Then the redo record (the WAL ordering
  // contract): the undo log *is* the redo record read forward — the
  // streaming logCommit overload encodes each entry's full tuple with
  // the operation kind un-flipped, straight from the log, projection
  // applied during encoding (ROADMAP 2c: no per-commit WalMutation
  // vector). Read-only scopes install and append nothing.
  if (!Undo.empty()) {
    assert(S != 0 && "mutating scope must commit through a ticket");
    for (const UndoRecord &U : Undo) {
      if (U.WasInsert)
        Rel->Mvcc->installInsert(U.Full, S);
      else
        Rel->Mvcc->installRemove(U.Full, S);
    }
    if (WriteAheadLog *W = Rel->Wal.load(std::memory_order_acquire))
      W->logCommit(Rel->WalPartition, Seq, Rel->WalShard, Undo.size(),
                   Rel->spec().allColumns(),
                   [&](size_t I, const Tuple *&Full) {
                     Full = &Undo[I].Full;
                     return Undo[I].WasInsert ? WalOp::Insert
                                              : WalOp::Remove;
                   });
  }
  Undo.clear();
  releaseScope();
  St = TxnState::Committed;
}

void Transaction::abort() {
  if (St == TxnState::Open)
    abortWith(TxnAbortCause::User);
}

void Transaction::abortWith(TxnAbortCause C) {
  assert(St == TxnState::Open && "aborting a finished scope");
  static_assert(unsigned(TxnAbortCause::User) + 1 ==
                    ConcurrentRelation::NumAbortCauses,
                "relation per-cause abort counters must cover the enum");
  rollbackUndo();
  releaseScope();
  St = TxnState::Aborted;
  Cause = C;
  // Per-cause striped counter (always on — an abort is never hot
  // enough to sample) plus a trace event when a registry is attached.
  Rel->AbortCounts[unsigned(C)].inc();
  if (const detail::RelationObs *OS = Rel->observability())
    OS->TxnRing->emit(obs::EventKind::TxnAbort, uint64_t(C), BirthStamp,
                      Ops);
}

void Transaction::rollbackUndo() {
  // Aborts discard buffered mirrors (the shadow never saw them) and
  // replay inverse plans newest-first on the retained-lock context.
  // Inverse executions must not re-buffer or re-mirror anything.
  Ctx->Mirror = nullptr;
  Frame.MirrorBuf.clear();
  Frame.SawUpgrade = false;
  // Undo plans resolve from the same epoch-reclaimed cache as forward
  // plans; the guard covers their resolution and replay.
  EpochDomain::Guard EG;
  for (auto It = Undo.rbegin(); It != Undo.rend(); ++It) {
    const Plan *P =
        It->WasInsert ? Rel->undoInsertPlan() : Rel->undoRemovePlan();
    for (;;) {
      LockSet::Mark LockMark = Ctx->Locks.mark();
      size_t PoolMark = Ctx->poolMark();
      ExecStatus S = Rel->Executor.run(*P, It->Full, Rel->Root, *Ctx);
      if (S != ExecStatus::Restart) {
        // The inverse of an insert must find the inserted tuple (its
        // locks never left this scope); the inverse of a remove may see
        // Found only in the idempotent already-present sense.
        assert(!Frame.SawUpgrade &&
               "undo required a lock upgrade (scope locks are exclusive)");
        assert((!It->WasInsert || Ctx->numStates(P->ResultVar) == 1) &&
               "undo-insert failed to locate the tuple it must remove");
        break;
      }
      // A failed try against a speculative reader's transient lock, or
      // against an older scope's lock (wait-die, LockSet::acquireTxn):
      // shed the attempt and go again — readers holding such locks
      // never block on anything this scope holds except in order, and
      // an older scope's wait on it is bounded, so this loop terminates
      // (see the deadlock argument in the header).
      Ctx->Locks.releaseToMark(LockMark);
      Ctx->rollbackPool(PoolMark);
      std::this_thread::yield();
    }
  }
  Undo.clear();
}

void Transaction::releaseScope() {
  Ctx->Txn = nullptr;
  Ctx->Mirror = nullptr;
  Ctx->Count = nullptr;
  // Shrinking phase: unlock everything (releaseAll clears this scope's
  // exclusive owner stamps before each unlock), then drop the pool pins
  // (the instances must outlive their unlocks), then the gate. The
  // pooled context must not leak this scope's age to its next tenant.
  Ctx->Locks.releaseAll();
  Ctx->Locks.setBirthStamp(0);
  Ctx->reset();
  if (GateHeld) {
    Rel->Gate.exit();
    GateHeld = false;
  }
  if (OwnsSnapSlot) {
    releaseSnapshotSlot(SnapSlot);
    OwnsSnapSlot = false;
  }
  txnCtxPool().release(Ctx);
  Ctx = nullptr;
  // The thread's open-scope slot frees when the scope *finishes* (an
  // aborted scope object may outlive its successor's lifetime).
  if (!Nested) {
    assert(OpenScopesOnThread == 1);
    --OpenScopesOnThread;
  }
}

//===----------------------------------------------------------------------===//
// ShardedTransaction
//===----------------------------------------------------------------------===//

ShardedTransaction::ShardedTransaction(ShardedRelation &R, unsigned Patience,
                                       uint64_t Birth)
    : Rel(&R), Subs(R.numShards()),
      BirthStamp(Birth ? Birth : nextTxnBirthStamp()), Patience(Patience) {
  assert(OpenScopesOnThread == 0 &&
         "one transaction scope open per thread (nested scopes would "
         "deadlock on their own locks)");
  ++OpenScopesOnThread;
  // One snapshot for the whole scope, on every shard: the sharded
  // scope owns the registry slot, subs adopt the sequence.
  SnapSlot = acquireSnapshotSlot(Snap);
}

ShardedTransaction::~ShardedTransaction() {
  if (St == TxnState::Open)
    dieWith(TxnAbortCause::User);
}

unsigned ShardedTransaction::shardsTouched() const {
  unsigned N = 0;
  for (const auto &S : Subs)
    if (S)
      ++N;
  return N;
}

Transaction *ShardedTransaction::subFor(unsigned Shard) {
  assert(Shard < Subs.size());
  if (Subs[Shard]) {
    // The order discipline is dynamic: once a higher shard has been
    // joined, acquisitions on lower shards may no longer block.
    Subs[Shard]->Frame.ForceTry = static_cast<int>(Shard) < MaxShard;
    return Subs[Shard].get();
  }
  Transaction::Opts O;
  O.Patience = Patience;
  O.Birth = BirthStamp; // the whole sharded scope ages as one
  O.Snap = Snap;        // one snapshot across every shard
  O.Nested = true;
  // Joining the first shard may wait like any operation; joining a
  // further shard happens while holding gates and locks, so the gate
  // wait is bounded, and joining *below* the highest shard held also
  // forces every acquisition onto the try path (shard-major order).
  O.BoundedGate = MaxShard >= 0;
  O.ForceTry = static_cast<int>(Shard) < MaxShard;
  Subs[Shard].reset(new Transaction(Rel->shard(Shard), O));
  if (Subs[Shard]->state() != TxnState::Open) {
    TxnAbortCause C = Subs[Shard]->abortCause();
    Subs[Shard].reset();
    dieWith(C);
    return nullptr;
  }
  MaxShard = std::max(MaxShard, static_cast<int>(Shard));
  return Subs[Shard].get();
}

void ShardedTransaction::dieWith(TxnAbortCause C) {
  assert(St == TxnState::Open);
  // Roll the touched shards back highest-first (reverse join order).
  for (auto It = Subs.rbegin(); It != Subs.rend(); ++It)
    if (*It && (*It)->state() == TxnState::Open)
      (*It)->abortWith(C);
  releaseSnapshotSlot(SnapSlot);
  St = TxnState::Aborted;
  Cause = C;
  --OpenScopesOnThread;
}

bool ShardedTransaction::runOps(const ShardedOpImpl &SI, const Value *Args,
                                size_t NumArgs,
                                function_ref<void(const Tuple &)> Visit,
                                int64_t &Total) {
  if (St != TxnState::Open)
    return false;
  assert(NumArgs == SI.numSlots() &&
         "transactional op must bind every slot positionally");
  auto RunShard = [&](unsigned Shard) {
    Transaction *T = subFor(Shard);
    if (!T)
      return false;
    int64_t R = 0;
    if (!T->execOp(SI.shardImpl(Shard), Args, NumArgs, Visit, R)) {
      dieWith(T->abortCause());
      return false;
    }
    Total += R;
    return true;
  };
  if (SI.singleShard())
    return RunShard(SI.shardOfArgs(Args));
  // Fan-out joins the shards in ascending index order — exactly the
  // blocking-safe join order, so an under-bound transactional op needs
  // no special casing.
  for (unsigned Shard = 0; Shard < Subs.size(); ++Shard)
    if (!RunShard(Shard))
      return false;
  return true;
}

bool ShardedTransaction::query(const ShardedQuery &Q,
                               std::initializer_list<Value> Args,
                               function_ref<void(const Tuple &)> Visit,
                               uint32_t *Matches) {
  if (St != TxnState::Open)
    return false;
  const ShardedOpImpl &SI = *Q.Impl;
  assert(Args.size() == SI.numSlots() &&
         "transactional op must bind every slot positionally");
  // Snapshot read: walk the touched shards' version stores directly at
  // the scope's one snapshot — no per-shard scope is opened, no gate
  // and no lock is taken, and shards this scope never wrote are not
  // joined (a read fans out without growing MaxShard or the lock
  // footprint). Shards the scope *did* write overlay their sub's undo
  // log, so the scope reads its own effects.
  static const std::vector<Transaction::UndoRecord> NoWrites;
  uint32_t Total = 0;
  LastReadStats.clear();
  auto ReadShard = [&](unsigned Shard) {
    ConcurrentRelation &R = Rel->shard(Shard);
    const PreparedOpImpl &Impl = SI.shardImpl(Shard);
    std::array<ColumnId, BoundOp::MaxSlots> Cols;
    for (unsigned I = 0; I < Args.size(); ++I)
      Cols[I] = Impl.slotColumn(I);
    Tuple Input;
    Input.rebind(Cols.data(), Args.begin(), Args.size());
    R.NumQueries.inc();
    const std::vector<Transaction::UndoRecord> &Writes =
        Subs[Shard] ? Subs[Shard]->Undo : NoWrites;
    SnapshotQueryStats Stats;
    Total += Transaction::snapshotReadOver(R, Writes, Input, Snap, Visit,
                                           &Stats);
    LastReadStats.emplace_back(Shard, Stats);
  };
  if (SI.singleShard())
    ReadShard(SI.shardOfArgs(Args.begin()));
  else
    for (unsigned Shard = 0; Shard < Subs.size(); ++Shard)
      ReadShard(Shard);
  if (Matches)
    *Matches = Total;
  return true;
}

bool ShardedTransaction::queryForUpdate(const ShardedQuery &Q,
                                        std::initializer_list<Value> Args,
                                        function_ref<void(const Tuple &)> Visit,
                                        uint32_t *Matches) {
  int64_t Total = 0;
  if (!runOps(*Q.Impl, Args.begin(), Args.size(), Visit, Total))
    return false;
  if (Matches)
    *Matches = static_cast<uint32_t>(Total);
  return true;
}

bool ShardedTransaction::insert(const ShardedInsert &I,
                                std::initializer_list<Value> Args,
                                bool *Won) {
  int64_t Total = 0; // inserts are always routed (dom(s) covers routing)
  if (!runOps(*I.Impl, Args.begin(), Args.size(), nullptr, Total))
    return false;
  if (Won)
    *Won = Total != 0;
  return true;
}

bool ShardedTransaction::remove(const ShardedRemove &Rm,
                                std::initializer_list<Value> Args,
                                unsigned *Removed) {
  int64_t Total = 0;
  if (!runOps(*Rm.Impl, Args.begin(), Args.size(), nullptr, Total))
    return false;
  if (Removed)
    *Removed = static_cast<unsigned>(Total);
  return true;
}

bool ShardedTransaction::commit() {
  if (St != TxnState::Open)
    return false;
  // One commit sequence for the whole scope, stamped before any shard
  // releases a lock: conflicting scopes (which, by 2PL, overlapped on
  // some still-held key) order their stamps with their serialization.
  // The whole multi-shard install runs inside one in-flight ticket
  // window, so a snapshot opened mid-commit pins a sequence below Seq
  // and sees either all shards' versions or none of them.
  bool Mutated = false;
  for (auto &S : Subs)
    if (S && S->state() == TxnState::Open && S->undoDepth() != 0)
      Mutated = true;
  if (Mutated) {
    CommitTicket T = beginCommit();
    Seq = T.Seq;
    for (auto &S : Subs)
      if (S && S->state() == TxnState::Open)
        S->commitWithSeq(Seq);
    endCommit(T);
  } else {
    Seq = 0;
    for (auto &S : Subs)
      if (S && S->state() == TxnState::Open)
        S->commitWithSeq(0);
  }
  releaseSnapshotSlot(SnapSlot);
  St = TxnState::Committed;
  --OpenScopesOnThread;
  return true;
}

void ShardedTransaction::abort() {
  if (St == TxnState::Open)
    dieWith(TxnAbortCause::User);
}
