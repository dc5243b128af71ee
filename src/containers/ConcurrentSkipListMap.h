//===- containers/ConcurrentSkipListMap.h - Lazy skip list -----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch concurrent ordered map — the analogue of
/// java.util.concurrent.ConcurrentSkipListMap in the Figure 1 taxonomy.
/// The algorithm is the lazy lock-based skip list of Herlihy, Lev,
/// Luchangco and Shavit, "A provably correct scalable concurrent skip
/// list" (OPODIS 2006) — reference [14] of the paper, the same algorithm
/// family the paper's benchmark methodology comes from:
///
///  * nodes carry a per-node lock, a `Marked` flag (logical deletion),
///    and a `FullyLinked` flag (insertion visibility);
///  * traversals run without locks; inserts lock the predecessors at
///    every level and validate; removes mark the victim first (the
///    linearization point), then unlink;
///  * lookups and writes are linearizable; iteration over level 0 is
///    safe but weakly consistent, in sorted key order.
///
/// Memory reclamation: the JVM original relies on garbage collection.
/// Here, unlinked nodes are *retired* to a deferred free list and
/// reclaimed when the map is destroyed, so racing traversals never touch
/// freed memory (documented substitution in docs/ARCHITECTURE.md,
/// "Containers"). Retired nodes drop their values immediately (under
/// the node lock), so held resources are released promptly.
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_CONCURRENTSKIPLISTMAP_H
#define CRS_CONTAINERS_CONCURRENTSKIPLISTMAP_H

#include "support/Compiler.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

namespace crs {

/// Lazy lock-based concurrent skip list map.
template <typename K, typename V, typename LessFn>
class ConcurrentSkipListMap {
  static constexpr int MaxLevel = 16; // levels 0..MaxLevel

  struct Node {
    K Key;
    V Val;
    std::mutex Lock;
    std::atomic<bool> Marked{false};
    std::atomic<bool> FullyLinked{false};
    int TopLevel;
    std::atomic<Node *> Nexts[MaxLevel + 1];

    Node(const K &Key, V Val, int TopLevel)
        : Key(Key), Val(std::move(Val)), TopLevel(TopLevel) {
      for (auto &N : Nexts)
        N.store(nullptr, std::memory_order_relaxed);
    }
    // Sentinel constructor (head/tail carry no key/value).
    explicit Node(int TopLevel) : Key(), Val(), TopLevel(TopLevel) {
      for (auto &N : Nexts)
        N.store(nullptr, std::memory_order_relaxed);
    }
  };

  Node *Head; // -inf sentinel
  Node *Tail; // +inf sentinel
  std::atomic<size_t> NumEntries{0};
  LessFn Less;

  // Deferred reclamation of unlinked nodes (no GC in C++).
  std::mutex RetiredLock;
  std::vector<Node *> Retired;

  bool nodeLess(const Node *N, const K &Key) const {
    if (N == Head)
      return true;
    if (N == Tail)
      return false;
    return Less(N->Key, Key);
  }

  bool keyEquals(const Node *N, const K &Key) const {
    if (N == Head || N == Tail)
      return false;
    return !Less(N->Key, Key) && !Less(Key, N->Key);
  }

  /// Finds predecessors and successors of \p Key at every level. Returns
  /// the highest level at which a node with the key was found, or -1.
  int findNode(const K &Key, Node **Preds, Node **Succs) const {
    int Found = -1;
    Node *Pred = Head;
    for (int Level = MaxLevel; Level >= 0; --Level) {
      Node *Curr = Pred->Nexts[Level].load(std::memory_order_acquire);
      while (nodeLess(Curr, Key) && Curr != Tail) {
        Pred = Curr;
        Curr = Pred->Nexts[Level].load(std::memory_order_acquire);
      }
      if (Found == -1 && keyEquals(Curr, Key))
        Found = Level;
      Preds[Level] = Pred;
      Succs[Level] = Curr;
    }
    return Found;
  }

  static int randomLevel() {
    // Thread-local xorshift; geometric distribution with p = 1/2.
    thread_local uint64_t State = 0x9e3779b97f4a7c15ULL ^
                                  reinterpret_cast<uintptr_t>(&State);
    State ^= State << 13;
    State ^= State >> 7;
    State ^= State << 17;
    int Level = __builtin_ctzll(State | (1ULL << MaxLevel));
    return Level > MaxLevel ? MaxLevel : Level;
  }

  void retire(Node *N) {
    std::lock_guard<std::mutex> Guard(RetiredLock);
    Retired.push_back(N);
  }

public:
  ConcurrentSkipListMap() {
    Head = new Node(MaxLevel);
    Tail = new Node(MaxLevel);
    for (int L = 0; L <= MaxLevel; ++L)
      Head->Nexts[L].store(Tail, std::memory_order_relaxed);
    Head->FullyLinked.store(true, std::memory_order_relaxed);
    Tail->FullyLinked.store(true, std::memory_order_relaxed);
  }

  ~ConcurrentSkipListMap() {
    Node *N = Head;
    while (N) {
      Node *Next = N->Nexts[0].load(std::memory_order_relaxed);
      delete N;
      N = Next;
    }
    for (Node *R : Retired)
      delete R;
  }

  ConcurrentSkipListMap(const ConcurrentSkipListMap &) = delete;
  ConcurrentSkipListMap &operator=(const ConcurrentSkipListMap &) = delete;

  /// Linearizable lookup.
  bool lookup(const K &Key, V &Out) const {
    Node *Preds[MaxLevel + 1];
    Node *Succs[MaxLevel + 1];
    int Found = findNode(Key, Preds, Succs);
    if (Found == -1)
      return false;
    Node *N = Succs[Found];
    if (!N->FullyLinked.load(std::memory_order_acquire))
      return false;
    // Read the value under the node lock so a concurrent value update or
    // removal cannot tear the read; Marked is rechecked under the lock.
    std::lock_guard<std::mutex> Guard(N->Lock);
    if (N->Marked.load(std::memory_order_relaxed))
      return false;
    Out = N->Val;
    return true;
  }

  bool contains(const K &Key) const {
    V Ignored;
    return lookup(Key, Ignored);
  }

  /// Linearizable insert-or-replace; returns true if newly inserted.
  bool insertOrAssign(const K &Key, V Val) {
    int TopLevel = randomLevel();
    Node *Preds[MaxLevel + 1];
    Node *Succs[MaxLevel + 1];
    while (true) {
      int Found = findNode(Key, Preds, Succs);
      if (Found != -1) {
        Node *Existing = Succs[Found];
        if (!Existing->Marked.load(std::memory_order_acquire)) {
          // Wait for a concurrent inserter to finish linking.
          while (!Existing->FullyLinked.load(std::memory_order_acquire)) {
          }
          std::lock_guard<std::mutex> Guard(Existing->Lock);
          if (Existing->Marked.load(std::memory_order_relaxed))
            continue; // removed under us; retry as a fresh insert
          Existing->Val = std::move(Val);
          return false;
        }
        continue; // marked node still linked: retry
      }

      // Lock all predecessors bottom-up (deduplicated) and validate.
      Node *LastLocked = nullptr;
      bool Valid = true;
      int HighestLocked = -1;
      for (int L = 0; Valid && L <= TopLevel; ++L) {
        Node *Pred = Preds[L];
        if (Pred != LastLocked) {
          Pred->Lock.lock();
          LastLocked = Pred;
          HighestLocked = L;
        }
        Valid = !Pred->Marked.load(std::memory_order_relaxed) &&
                !Succs[L]->Marked.load(std::memory_order_relaxed) &&
                Pred->Nexts[L].load(std::memory_order_relaxed) == Succs[L];
      }
      if (!Valid) {
        Node *Prev = nullptr;
        for (int L = 0; L <= HighestLocked; ++L)
          if (Preds[L] != Prev) {
            Preds[L]->Lock.unlock();
            Prev = Preds[L];
          }
        continue;
      }

      Node *NewNode = new Node(Key, std::move(Val), TopLevel);
      for (int L = 0; L <= TopLevel; ++L)
        NewNode->Nexts[L].store(Succs[L], std::memory_order_relaxed);
      for (int L = 0; L <= TopLevel; ++L)
        Preds[L]->Nexts[L].store(NewNode, std::memory_order_release);
      NewNode->FullyLinked.store(true, std::memory_order_release);
      NumEntries.fetch_add(1, std::memory_order_relaxed);

      Node *Prev = nullptr;
      for (int L = 0; L <= HighestLocked; ++L)
        if (Preds[L] != Prev) {
          Preds[L]->Lock.unlock();
          Prev = Preds[L];
        }
      return true;
    }
  }

  /// Linearizable removal; returns true if the key was present.
  bool erase(const K &Key) {
    Node *Victim = nullptr;
    bool IsMarked = false;
    int TopLevel = -1;
    Node *Preds[MaxLevel + 1];
    Node *Succs[MaxLevel + 1];
    while (true) {
      int Found = findNode(Key, Preds, Succs);
      if (!IsMarked) {
        if (Found == -1)
          return false;
        Victim = Succs[Found];
        if (!Victim->FullyLinked.load(std::memory_order_acquire) ||
            Victim->TopLevel != Found ||
            Victim->Marked.load(std::memory_order_acquire))
          return false;
        TopLevel = Victim->TopLevel;
        Victim->Lock.lock();
        if (Victim->Marked.load(std::memory_order_relaxed)) {
          Victim->Lock.unlock();
          return false;
        }
        Victim->Marked.store(true, std::memory_order_release);
        Victim->Val = V(); // release held resources promptly
        IsMarked = true;
      }

      Node *LastLocked = nullptr;
      bool Valid = true;
      int HighestLocked = -1;
      for (int L = 0; Valid && L <= TopLevel; ++L) {
        Node *Pred = Preds[L];
        if (Pred != LastLocked) {
          Pred->Lock.lock();
          LastLocked = Pred;
          HighestLocked = L;
        }
        Valid = !Pred->Marked.load(std::memory_order_relaxed) &&
                Pred->Nexts[L].load(std::memory_order_relaxed) == Victim;
      }
      if (!Valid) {
        Node *Prev = nullptr;
        for (int L = 0; L <= HighestLocked; ++L)
          if (Preds[L] != Prev) {
            Preds[L]->Lock.unlock();
            Prev = Preds[L];
          }
        continue;
      }

      for (int L = TopLevel; L >= 0; --L)
        Preds[L]->Nexts[L].store(
            Victim->Nexts[L].load(std::memory_order_relaxed),
            std::memory_order_release);
      NumEntries.fetch_sub(1, std::memory_order_relaxed);
      Victim->Lock.unlock();

      Node *Prev = nullptr;
      for (int L = 0; L <= HighestLocked; ++L)
        if (Preds[L] != Prev) {
          Preds[L]->Lock.unlock();
          Prev = Preds[L];
        }
      const_cast<ConcurrentSkipListMap *>(this)->retire(Victim);
      return true;
    }
  }

  /// Weakly consistent sorted scan over level 0: safe in parallel with
  /// writes; entries inserted or removed during the scan may or may not
  /// be observed. Visits in ascending key order.
  template <typename Fn> void scan(Fn Visit) const {
    Node *N = Head->Nexts[0].load(std::memory_order_acquire);
    while (N != Tail) {
      Node *Next = N->Nexts[0].load(std::memory_order_acquire);
      if (N->FullyLinked.load(std::memory_order_acquire) &&
          !N->Marked.load(std::memory_order_acquire)) {
        Node *Mutable = const_cast<Node *>(N);
        std::unique_lock<std::mutex> Guard(Mutable->Lock);
        if (!N->Marked.load(std::memory_order_relaxed)) {
          const K &Key = N->Key;
          const V &Val = N->Val;
          if (!Visit(Key, Val))
            return;
        }
      }
      N = Next;
    }
  }

  size_t size() const { return NumEntries.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }
};

} // namespace crs

#endif // CRS_CONTAINERS_CONCURRENTSKIPLISTMAP_H
