//===- txn/MvccStore.cpp - Per-tuple version chains for MVCC -----------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "txn/MvccStore.h"

#include "sync/CommitClock.h"
#include "sync/Epoch.h"

#include <cassert>

using namespace crs;

namespace {
/// Starting bucket counts: small, since every table grows on demand.
constexpr size_t PrimaryInitialBuckets = 256;
constexpr size_t DirInitialBuckets = 64;
/// A writer whose locked walk passes this many foreign entries (chains
/// in the primary table, sub-key groups in a directory) asks for a
/// doubling.
constexpr unsigned MaxWalk = 4;
} // namespace

/// One committed version: immutable but for the End stamp. Newest
/// first on its chain; Next is written only under the stripe mutex,
/// read lock-free under the epoch guard.
struct MvccStore::Version {
  Tuple Full;
  uint64_t Begin;
  std::atomic<uint64_t> End{0};
  std::atomic<Version *> Next{nullptr};
};

/// One tuple identity's chain. Head is the newest version; the chain
/// node itself lives on its bucket's list (through Next[parity of the
/// current table], see Index) and reclaims (epoch-deferred) once every
/// version is gone.
struct MvccStore::Chain {
  Tuple Key;
  std::atomic<Version *> Head{nullptr};
  std::atomic<Chain *> Next[2]{};
};

/// One secondary-directory entry: a chain reachable by its projected
/// sub-key. Lives on a directory bucket list, next to the other links
/// of its sub-key; written under the directory stripe mutex, read
/// lock-free under the epoch guard, retired with its chain.
struct MvccStore::DirLink {
  Tuple SubKey; ///< π_dir-cols(chain key)
  Chain *C = nullptr;
  std::atomic<DirLink *> Next[2]{};
};

/// A growable, lock-striped hash table of intrusive two-link nodes —
/// the shape shared by the primary chain table and every directory
/// (file comment, "Growth"). Writers lock stripe(hash) and mutate the
/// current table's lists through Next[Parity]; readers load table()
/// inside an epoch guard and walk lock-free.
template <typename NodeT> class MvccStore::Index {
public:
  static constexpr size_t NumStripes = 64;

  struct Table {
    size_t Mask;
    unsigned Parity; ///< which of a node's two links this table uses
    std::unique_ptr<std::atomic<NodeT *>[]> Heads;
    /// Shared with the Index, counts retired-but-unfreed tables; the
    /// epoch deleter decrements it (it may outlive the store).
    std::shared_ptr<std::atomic<unsigned>> Unreclaimed;

    Table(size_t Buckets, unsigned P)
        : Mask(Buckets - 1), Parity(P),
          Heads(new std::atomic<NodeT *>[Buckets]()) {}
    size_t buckets() const { return Mask + 1; }
    std::atomic<NodeT *> &head(uint64_t Hash) const {
      return Heads[Hash & Mask];
    }
  };

  explicit Index(size_t Buckets) : Cur(new Table(Buckets, 0)) {}
  ~Index() { delete Cur.load(std::memory_order_relaxed); }

  std::mutex &stripe(uint64_t Hash) {
    return Stripes[Hash & (NumStripes - 1)].M;
  }
  std::mutex &stripeAt(size_t I) { return Stripes[I].M; }
  /// The current table: stable while any stripe is held; readers must
  /// be inside an epoch guard.
  Table *table() const { return Cur.load(std::memory_order_acquire); }

  /// Doubles the table, relinking every node with \p Relink(Node, New)
  /// through New.Parity. Skipped when another grow got there first
  /// (the table no longer has \p SeenBuckets buckets), at \p Cap, or
  /// while the table before the current one awaits reclamation (its
  /// readers may still walk the link this grow would rewrite). Takes
  /// every stripe in index order. Returns true if the table grew.
  template <typename RelinkFn>
  bool grow(size_t SeenBuckets, size_t Cap, RelinkFn Relink) {
    for (Stripe &S : Stripes)
      S.M.lock();
    Table *Old = Cur.load(std::memory_order_relaxed);
    bool Grew = Old->buckets() == SeenBuckets && SeenBuckets < Cap &&
                previousReclaimed();
    if (Grew) {
      Table *New = new Table(2 * SeenBuckets, Old->Parity ^ 1);
      for (size_t B = 0; B < SeenBuckets; ++B)
        for (NodeT *N = Old->Heads[B].load(std::memory_order_relaxed); N;
             N = N->Next[Old->Parity].load(std::memory_order_relaxed))
          Relink(N, *New);
      // Publish, then retire (seq_cst, per the epoch contract).
      Cur.store(New, std::memory_order_seq_cst);
      Old->Unreclaimed = Unreclaimed;
      Unreclaimed->fetch_add(1, std::memory_order_relaxed);
      EpochDomain::global().retire(Old, [](void *P) {
        auto *T = static_cast<Table *>(P);
        T->Unreclaimed->fetch_sub(1, std::memory_order_release);
        delete T;
      });
    }
    for (size_t I = NumStripes; I-- > 0;)
      Stripes[I].M.unlock();
    return Grew;
  }

private:
  bool previousReclaimed() {
    if (Unreclaimed->load(std::memory_order_acquire) == 0)
      return true;
    EpochDomain::global().tryAdvance();
    return Unreclaimed->load(std::memory_order_acquire) == 0;
  }

  struct alignas(64) Stripe {
    std::mutex M;
  };
  Stripe Stripes[NumStripes];
  std::atomic<Table *> Cur;
  std::shared_ptr<std::atomic<unsigned>> Unreclaimed =
      std::make_shared<std::atomic<unsigned>>(0);
};

/// One secondary directory: sub-key → chains, over a proper nonempty
/// subset of the identity columns. Registered on a grow-only list.
struct MvccStore::Directory {
  ColumnSet Cols;
  Index<DirLink> Links{DirInitialBuckets};
  /// Readers route through the directory only once the backfill has
  /// walked every primary stripe (before that, a lookup could miss
  /// pre-existing chains). Installs/unlinks honor it immediately.
  std::atomic<bool> Ready{false};
  /// Bucket count a too-long link walk saw (0: no grow wanted).
  std::atomic<size_t> GrowFrom{0};
  std::atomic<Directory *> Next{nullptr};
};

struct MvccStore::Slot {
  Index<Chain>::Table *T = nullptr;
  std::atomic<Chain *> *Head = nullptr;
  unsigned Walk = 0; ///< chains passed before the match (or all)
};

namespace {
/// Links \p L into directory table \p T next to the links sharing its
/// sub-key (after \p GroupFirst, the group's first link, when there is
/// one; else at the bucket head), keeping every group contiguous.
template <typename TableT, typename LinkT>
void linkGrouped(TableT &T, uint64_t Hash, LinkT *L, LinkT *GroupFirst) {
  unsigned P = T.Parity;
  std::atomic<LinkT *> &Prev = GroupFirst ? GroupFirst->Next[P] : T.head(Hash);
  L->Next[P].store(Prev.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  Prev.store(L, std::memory_order_release);
}

template <typename DirT> void freeDirectory(DirT *D) {
  auto *T = D->Links.table();
  for (size_t B = 0; B < T->buckets(); ++B) {
    auto *L = T->Heads[B].load(std::memory_order_relaxed);
    while (L) {
      auto *LN = L->Next[T->Parity].load(std::memory_order_relaxed);
      delete L;
      L = LN;
    }
  }
  delete D;
}
} // namespace

MvccStore::MvccStore(const RelationSpec &Spec)
    : Primary(std::make_unique<Index<Chain>>(PrimaryInitialBuckets)) {
  AllCols = Spec.allColumns();
  std::vector<ColumnSet> Keys = Spec.minimalKeys();
  KeyCols = Keys.empty() ? AllCols : Keys.front();
}

MvccStore::~MvccStore() {
  // The relation is dying: no reader can hold a guard over our nodes
  // legitimately (stores must outlive every scope that reads them —
  // same contract as the relation itself). Free directly; tables
  // retired by earlier grows free themselves through the epoch domain.
  Index<Chain>::Table *T = Primary->table();
  for (size_t B = 0; B < T->buckets(); ++B) {
    Chain *C = T->Heads[B].load(std::memory_order_relaxed);
    while (C) {
      Version *V = C->Head.load(std::memory_order_relaxed);
      while (V) {
        Version *VN = V->Next.load(std::memory_order_relaxed);
        delete V;
        V = VN;
      }
      Chain *CN = C->Next[T->Parity].load(std::memory_order_relaxed);
      delete C;
      C = CN;
    }
  }
  Directory *D = Dirs.load(std::memory_order_relaxed);
  while (D) {
    Directory *DN = D->Next.load(std::memory_order_relaxed);
    freeDirectory(D);
    D = DN;
  }
}

MvccStore::Chain *MvccStore::findChainLocked(const Tuple &Key, uint64_t Hash,
                                             Slot &S) const {
  S.T = Primary->table();
  S.Head = &S.T->head(Hash);
  S.Walk = 0;
  unsigned P = S.T->Parity;
  for (Chain *C = S.Head->load(std::memory_order_relaxed); C;
       C = C->Next[P].load(std::memory_order_relaxed), ++S.Walk)
    if (C->Key == Key)
      return C;
  return nullptr;
}

MvccStore::Chain *MvccStore::findOrCreateChain(const Tuple &Key,
                                               uint64_t Hash, Slot &S,
                                               bool &DirWantsGrow) {
  if (Chain *C = findChainLocked(Key, Hash, S))
    return C;
  Chain *C = new Chain;
  C->Key = Key;
  // Push at head: concurrent lock-free scans that started earlier miss
  // it, which is benign — a new chain only ever receives versions whose
  // Begin is above every extant snapshot (in-flight commit registry).
  unsigned P = S.T->Parity;
  C->Next[P].store(S.Head->load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  S.Head->store(C, std::memory_order_release);
  // Link the new chain into every secondary directory. Reading the
  // registry while the stripe is held is what makes ensureDirectory's
  // publish-then-backfill safe: if the backfill already walked this
  // stripe, its lock/unlock ordered the registry publish before this
  // load (so we see the directory and link here); if it has not yet,
  // it will find this chain during its walk. Either way the chain
  // lands in the directory exactly once (linkChainToDir dedups). The
  // guard spans the walk *and* the link insertions: a directory being
  // retired concurrently stays allocated until we exit, and any link we
  // add to it is freed by its epoch deleter.
  EpochDomain::Guard EG;
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire))
    DirWantsGrow |= linkChainToDir(*D, C);
  return C;
}

bool MvccStore::linkChainToDir(Directory &D, Chain *C) {
  Tuple Sub = C->Key.project(D.Cols);
  uint64_t Hash = Sub.hash();
  std::lock_guard<std::mutex> G(D.Links.stripe(Hash));
  Index<DirLink>::Table &T = *D.Links.table();
  unsigned P = T.Parity;
  // Find the sub-key's group (dedup within it: an install may race the
  // backfill) and count the foreign groups walked past on the way.
  DirLink *First = nullptr;
  const DirLink *Prev = nullptr;
  unsigned Foreign = 0;
  for (DirLink *L = T.head(Hash).load(std::memory_order_relaxed); L;
       Prev = L, L = L->Next[P].load(std::memory_order_relaxed)) {
    if (L->SubKey == Sub) {
      if (L->C == C)
        return false; // already linked (install raced the backfill)
      First = First ? First : L;
    } else if (First) {
      break; // past the group: links of one sub-key are contiguous
    } else if (!Prev || !(Prev->SubKey == L->SubKey)) {
      ++Foreign;
    }
  }
  DirLink *L = new DirLink;
  L->SubKey = std::move(Sub);
  L->C = C;
  linkGrouped(T, Hash, L, First);
  if (Foreign < MaxWalk)
    return false;
  D.GrowFrom.store(T.buckets(), std::memory_order_relaxed);
  return true;
}

void MvccStore::growPrimary(size_t SeenBuckets) {
  bool Grew = Primary->grow(
      SeenBuckets, growCap(), [](Chain *C, Index<Chain>::Table &New) {
        std::atomic<Chain *> &Head = New.head(C->Key.hash());
        C->Next[New.Parity].store(Head.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
        Head.store(C, std::memory_order_relaxed);
      });
  if (Grew)
    Grows.fetch_add(1, std::memory_order_relaxed);
}

void MvccStore::growDirectory(Directory &D) {
  size_t Seen = D.GrowFrom.load(std::memory_order_relaxed);
  if (Seen == 0 || D.GrowFrom.exchange(0, std::memory_order_relaxed) == 0)
    return;
  // Old lists hold each group contiguously, so a link whose sub-key
  // matches the previously relinked one goes right after it.
  DirLink *Last = nullptr;
  uint64_t LastHash = 0;
  bool Grew = D.Links.grow(
      Seen, growCap(), [&](DirLink *L, Index<DirLink>::Table &New) {
        if (Last && Last->SubKey == L->SubKey) {
          linkGrouped(New, LastHash, L, Last);
        } else {
          LastHash = L->SubKey.hash();
          DirLink *First = nullptr;
          for (DirLink *E = New.head(LastHash).load(std::memory_order_relaxed);
               E && !First; E = E->Next[New.Parity].load(std::memory_order_relaxed))
            if (E->SubKey == L->SubKey)
              First = E;
          linkGrouped(New, LastHash, L, First);
        }
        Last = L;
      });
  if (Grew)
    Grows.fetch_add(1, std::memory_order_relaxed);
}

void MvccStore::growDirectories() {
  // Guarded registry walk: a directory retired concurrently stays
  // allocated until we exit (its deleter frees the grown table).
  EpochDomain::Guard EG;
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire))
    growDirectory(*D);
}

void MvccStore::installInsert(const Tuple &Full, uint64_t Seq) {
  assert(Seq != 0);
  Tuple Key = Full.project(KeyCols);
  uint64_t Hash = Key.hash();
  size_t GrowFrom = 0;
  bool DirWantsGrow = false;
  {
    std::lock_guard<std::mutex> G(Primary->stripe(Hash));
    Slot S;
    Chain *C = findOrCreateChain(Key, Hash, S, DirWantsGrow);
    assert([&] {
      Version *H = C->Head.load(std::memory_order_relaxed);
      return !H || H->End.load(std::memory_order_relaxed) != 0;
    }() && "installing over a live version (put-if-absent should have lost)");
    Version *V = new Version;
    V->Full = Full.project(AllCols);
    V->Begin = Seq;
    V->Next.store(C->Head.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    C->Head.store(V, std::memory_order_release);
    Installed.fetch_add(1, std::memory_order_relaxed);
    Retired.fetch_add(pruneChainLocked(S, C, snapshotWatermark()),
                      std::memory_order_relaxed);
    if (S.Walk >= MaxWalk)
      GrowFrom = S.T->buckets();
  }
  if (GrowFrom)
    growPrimary(GrowFrom);
  if (DirWantsGrow)
    growDirectories();
}

void MvccStore::installRemove(const Tuple &Full, uint64_t Seq) {
  assert(Seq != 0);
  Tuple Key = Full.project(KeyCols);
  uint64_t Hash = Key.hash();
  size_t GrowFrom = 0;
  {
    std::lock_guard<std::mutex> G(Primary->stripe(Hash));
    Slot S;
    Chain *C = findChainLocked(Key, Hash, S);
    if (S.Walk >= MaxWalk)
      GrowFrom = S.T->buckets();
    Version *H = C ? C->Head.load(std::memory_order_relaxed) : nullptr;
    if (!H || H->End.load(std::memory_order_relaxed) != 0) {
      // Idempotent-replay tolerance (see header). Counted: outside
      // recovery the commit protocol (2PL + put-if-absent) makes a
      // remove of an absent or already-ended version impossible, so
      // the stress oracle asserts removeNoops() stays zero.
      RemoveNoops.fetch_add(1, std::memory_order_relaxed);
    } else {
      H->End.store(Seq, std::memory_order_release);
      Retired.fetch_add(pruneChainLocked(S, C, snapshotWatermark()),
                        std::memory_order_relaxed);
    }
  }
  if (GrowFrom)
    growPrimary(GrowFrom);
}

MvccStore::Directory *MvccStore::directoryFor(ColumnSet QueryDom) const {
  Directory *Best = nullptr;
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire)) {
    if (!QueryDom.containsAll(D->Cols) ||
        !D->Ready.load(std::memory_order_acquire))
      continue;
    if (!Best || D->Cols.size() > Best->Cols.size())
      Best = D; // most bound identity columns = fewest chains per key
  }
  return Best;
}

uint32_t
MvccStore::snapshotQuery(const Tuple &S, uint64_t Snap,
                         function_ref<void(const Tuple &)> Visit,
                         function_ref<bool(const Tuple &)> SkipKey,
                         SnapshotQueryStats *Stats) const {
  assert(EpochDomain::global().inGuard() &&
         "snapshot reads walk epoch-reclaimed chains; pin a guard first");
  uint32_t N = 0;
  SnapshotQueryStats Local;
  auto VisitChain = [&](const Chain *C) {
    ++Local.ChainsVisited;
    if (SkipKey && SkipKey(C->Key))
      return;
    for (Version *V = C->Head.load(std::memory_order_acquire); V;
         V = V->Next.load(std::memory_order_acquire)) {
      if (V->Begin > Snap)
        continue; // newer than the snapshot; an older version may show
      uint64_t End = V->End.load(std::memory_order_acquire);
      if (End == 0 || End > Snap) {
        if (V->Full.extends(S)) {
          ++N;
          if (Visit)
            Visit(V->Full);
        }
      }
      // Versions below this one began (and ended) earlier still: once
      // one version with Begin ≤ Snap has been judged, older ones are
      // all terminated at or before its Begin — invisible.
      return;
    }
  };
  if (S.domain().containsAll(KeyCols)) {
    // Point read: the primary table resolves the one chain. Whichever
    // table generation we load, its lists hold every chain that can
    // carry a version visible at Snap (file comment, "Growth").
    Tuple Key = S.project(KeyCols);
    const Index<Chain>::Table &T = *Primary->table();
    for (Chain *C = T.head(Key.hash()).load(std::memory_order_acquire); C;
         C = C->Next[T.Parity].load(std::memory_order_acquire)) {
      ++Local.LinksScanned;
      if (C->Key == Key) {
        VisitChain(C);
        break;
      }
    }
  } else if (const Directory *D = directoryFor(S.domain())) {
    // Directory-served: only the chains extending the projected
    // sub-key, O(matching chains) + the foreign groups walked past.
    Local.DirectoryServed = true;
    Tuple Sub = S.project(D->Cols);
    const Index<DirLink>::Table &T = *D->Links.table();
    bool InGroup = false;
    for (DirLink *L = T.head(Sub.hash()).load(std::memory_order_acquire); L;
         L = L->Next[T.Parity].load(std::memory_order_acquire)) {
      ++Local.LinksScanned;
      if (L->SubKey == Sub) {
        InGroup = true;
        VisitChain(L->C);
      } else if (InGroup) {
        break; // the sub-key's links are contiguous
      }
    }
  } else {
    // No access path: the documented whole-store fallback. Callers
    // (Transaction::query) use the FullScan report to request a
    // directory for next time.
    Local.FullScan = true;
    const Index<Chain>::Table &T = *Primary->table();
    for (size_t B = 0; B < T.buckets(); ++B)
      for (Chain *C = T.Heads[B].load(std::memory_order_acquire); C;
           C = C->Next[T.Parity].load(std::memory_order_acquire)) {
        ++Local.LinksScanned;
        VisitChain(C);
      }
  }
  if (Stats)
    *Stats = Local;
  return N;
}

bool MvccStore::ensureDirectory(ColumnSet QueryCols) {
  ColumnSet Cols = QueryCols & KeyCols;
  if (Cols.size() == 0 || Cols == KeyCols)
    return false; // nothing to index / the primary directory serves it
  {
    // Optimistic pre-scan, guarded: a concurrent retire may be freeing
    // entries of this list after the grace period.
    EpochDomain::Guard EG;
    for (Directory *D = Dirs.load(std::memory_order_acquire); D;
         D = D->Next.load(std::memory_order_acquire))
      if (D->Cols == Cols)
        return true;
  }
  Directory *D;
  {
    std::lock_guard<std::mutex> G(DirsM);
    for (Directory *E = Dirs.load(std::memory_order_relaxed); E;
         E = E->Next.load(std::memory_order_relaxed))
      if (E->Cols == Cols)
        return true; // creation raced; the winner backfills
    D = new Directory;
    D->Cols = Cols;
    // Publish before backfilling: installers read the registry under
    // their primary stripe mutex, so every chain created after the
    // backfill passes its stripe is self-linked (see findOrCreateChain).
    D->Next.store(Dirs.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    Dirs.store(D, std::memory_order_release);
  }
  // Stripe by stripe: a stripe owns the same residue class of buckets
  // in every table generation, so each chain is met exactly once even
  // if the primary grows between stripes. The directory grows between
  // stripes as its walks ask (not Ready, so it cannot be retired).
  uint64_t Linked = 0;
  for (size_t I = 0; I < Index<Chain>::NumStripes; ++I) {
    bool WantsGrow = false;
    {
      std::lock_guard<std::mutex> G(Primary->stripeAt(I));
      const Index<Chain>::Table &T = *Primary->table();
      for (size_t B = I; B < T.buckets(); B += Index<Chain>::NumStripes)
        for (Chain *C = T.Heads[B].load(std::memory_order_relaxed); C;
             C = C->Next[T.Parity].load(std::memory_order_relaxed)) {
          WantsGrow |= linkChainToDir(*D, C);
          ++Linked;
        }
    }
    if (WantsGrow)
      growDirectory(*D);
  }
  size_t Buckets;
  {
    EpochDomain::Guard EG; // a racing grow may retire the table
    Buckets = D->Links.table()->buckets();
  }
  D->Ready.store(true, std::memory_order_release);
  if (obs::TraceRing *R = Trace.load(std::memory_order_acquire))
    R->emit(obs::EventKind::DirectoryBackfill, Cols.bits(), Buckets, Linked);
  return true;
}

size_t MvccStore::directoryCount() const {
  EpochDomain::Guard EG;
  size_t N = 0;
  for (Directory *D = Dirs.load(std::memory_order_acquire); D;
       D = D->Next.load(std::memory_order_acquire))
    ++N;
  return N;
}

size_t
MvccStore::retireStaleDirectories(function_ref<bool(ColumnSet)> StillServed) {
  EpochDomain &ED = EpochDomain::global();
  size_t N = 0;
  std::lock_guard<std::mutex> G(DirsM);
  // Predecessor-pointer removal under DirsM (the only writer of the
  // registry list, so Next pointers of survivors are stable here).
  std::atomic<Directory *> *Link = &Dirs;
  Directory *D = Link->load(std::memory_order_relaxed);
  while (D) {
    Directory *Next = D->Next.load(std::memory_order_relaxed);
    if (!D->Ready.load(std::memory_order_acquire) || StillServed(D->Cols)) {
      Link = &D->Next;
      D = Next;
      continue;
    }
    // Unpublish (seq_cst, per the epoch contract), then retire with a
    // deleter that frees the links too: an installer whose guarded
    // registry walk began before this store may still add a link to the
    // retiring directory, and that link dies with the directory.
    Link->store(Next, std::memory_order_seq_cst);
    if (obs::TraceRing *R = Trace.load(std::memory_order_acquire)) {
      // Counted under every directory stripe: links still move.
      uint64_t Links = 0;
      for (size_t I = 0; I < Index<DirLink>::NumStripes; ++I) {
        std::lock_guard<std::mutex> SG(D->Links.stripeAt(I));
        const Index<DirLink>::Table &T = *D->Links.table();
        for (size_t B = I; B < T.buckets(); B += Index<DirLink>::NumStripes)
          for (DirLink *L = T.Heads[B].load(std::memory_order_relaxed); L;
               L = L->Next[T.Parity].load(std::memory_order_relaxed))
            ++Links;
      }
      R->emit(obs::EventKind::DirectoryRetire, D->Cols.bits(), Links);
    }
    ED.retire(D, [](void *P) { freeDirectory(static_cast<Directory *>(P)); });
    DirsRetired.fetch_add(1, std::memory_order_relaxed);
    ++N;
    D = Next;
  }
  return N;
}

size_t MvccStore::maxBucketChainLength() const {
  EpochDomain::Guard G;
  const Index<Chain>::Table &T = *Primary->table();
  size_t Max = 0;
  for (size_t B = 0; B < T.buckets(); ++B) {
    size_t Len = 0;
    for (Chain *C = T.Heads[B].load(std::memory_order_acquire); C;
         C = C->Next[T.Parity].load(std::memory_order_acquire))
      ++Len;
    Max = Len > Max ? Len : Max;
  }
  return Max;
}

size_t MvccStore::bucketCount() const {
  EpochDomain::Guard G;
  return Primary->table()->buckets();
}

size_t MvccStore::pruneChainLocked(const Slot &S, Chain *C,
                                   uint64_t Watermark) {
  EpochDomain &D = EpochDomain::global();
  size_t Freed = 0;
  // Unlink every version with 0 < End ≤ Watermark. Predecessor-pointer
  // surgery under the stripe mutex; readers mid-walk keep following the
  // unlinked node's intact Next until their guard exits (RCU removal).
  std::atomic<Version *> *Link = &C->Head;
  Version *V = Link->load(std::memory_order_relaxed);
  while (V) {
    uint64_t End = V->End.load(std::memory_order_relaxed);
    Version *Next = V->Next.load(std::memory_order_relaxed);
    if (End != 0 && End <= Watermark) {
      Link->store(Next, std::memory_order_release);
      D.retireObject(V);
      ++Freed;
    } else {
      Link = &V->Next;
    }
    V = Next;
  }
  if (!C->Head.load(std::memory_order_relaxed)) {
    // Chain emptied: unlink it from the bucket too.
    unsigned P = S.T->Parity;
    std::atomic<Chain *> *CLink = S.Head;
    for (Chain *Cur = CLink->load(std::memory_order_relaxed); Cur;
         Cur = CLink->load(std::memory_order_relaxed)) {
      if (Cur == C) {
        CLink->store(C->Next[P].load(std::memory_order_relaxed),
                     std::memory_order_release);
        // Drop the chain's directory links first. Reading the registry
        // here (still under the stripe) observes every directory any
        // earlier linker under this mutex saw — read-read coherence
        // through the mutex ordering — so no stale link can outlive
        // the chain. Guarded: a directory retired concurrently must
        // stay allocated across this walk (its deleter then frees any
        // link we leave).
        EpochDomain::Guard EG;
        for (Directory *Dir = Dirs.load(std::memory_order_acquire); Dir;
             Dir = Dir->Next.load(std::memory_order_acquire)) {
          uint64_t Hash = C->Key.project(Dir->Cols).hash();
          std::lock_guard<std::mutex> DG(Dir->Links.stripe(Hash));
          Index<DirLink>::Table &T = *Dir->Links.table();
          std::atomic<DirLink *> *LLink = &T.head(Hash);
          for (DirLink *L = LLink->load(std::memory_order_relaxed); L;
               L = LLink->load(std::memory_order_relaxed)) {
            if (L->C == C) {
              LLink->store(L->Next[T.Parity].load(std::memory_order_relaxed),
                           std::memory_order_release);
              D.retireObject(L);
              break;
            }
            LLink = &L->Next[T.Parity];
          }
        }
        D.retireObject(C);
        break;
      }
      CLink = &Cur->Next[P];
    }
  }
  return Freed;
}

size_t MvccStore::prune(uint64_t Watermark) {
  size_t Freed = 0;
  std::vector<Chain *> Chains;
  for (size_t I = 0; I < Index<Chain>::NumStripes; ++I) {
    std::lock_guard<std::mutex> G(Primary->stripeAt(I));
    Slot S;
    S.T = Primary->table();
    for (size_t B = I; B < S.T->buckets(); B += Index<Chain>::NumStripes) {
      S.Head = &S.T->Heads[B];
      // Snapshot the chain list first: pruneChainLocked may unlink the
      // chain under our feet.
      Chains.clear();
      for (Chain *C = S.Head->load(std::memory_order_relaxed); C;
           C = C->Next[S.T->Parity].load(std::memory_order_relaxed))
        Chains.push_back(C);
      for (Chain *C : Chains)
        Freed += pruneChainLocked(S, C, Watermark);
    }
  }
  Retired.fetch_add(Freed, std::memory_order_relaxed);
  EpochDomain::global().tryAdvance();
  return Freed;
}
