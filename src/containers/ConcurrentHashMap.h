//===- containers/ConcurrentHashMap.h - Concurrent hash map ----*- C++ -*-===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch lock-striped concurrent hash map — the analogue of
/// java.util.concurrent.ConcurrentHashMap in the Figure 1 taxonomy:
/// lookups and writes are individually linearizable with no external
/// synchronization (an operation's linearization point is inside the
/// critical section of the one reader-writer stripe its key hashes
/// to); iteration is safe but only *weakly consistent* — it walks the
/// stripes one at a time, so it may miss updates in stripes it has
/// already passed.
///
/// The table grows with its contents, JDK-7 style: a fixed array of
/// NumStripes padded locks (stripe = hash & (NumStripes − 1)) guards a
/// separate, power-of-two array of bucket heads (bucket = hash & mask).
/// A grow takes every stripe in index order, rehashes into twice the
/// buckets, and swaps the array; since both counts are powers of two
/// and the bucket count never drops below the stripe count, bucket ≡
/// stripe (mod NumStripes) survives every doubling. So one stripe's
/// lock covers exactly the buckets congruent to it in *every* table
/// generation: point operations keep their single-stripe linearization
/// point, and a scan that visits stripe by stripe sees each entry
/// present throughout the scan exactly once, grows notwithstanding.
/// See docs/ARCHITECTURE.md, "Containers".
///
//===----------------------------------------------------------------------===//

#ifndef CRS_CONTAINERS_CONCURRENTHASHMAP_H
#define CRS_CONTAINERS_CONCURRENTHASHMAP_H

#include "support/Compiler.h"

#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

namespace crs {

/// Lock-striped, growable concurrent hash map. All operations are safe
/// to call from any number of threads concurrently.
template <typename K, typename V, typename HashFn> class ConcurrentHashMap {
  struct Node {
    K Key;
    V Val;
    Node *Next;
  };

  /// One lock stripe plus the entry count of the buckets it guards.
  /// Count is written only under the exclusive stripe lock (a plain
  /// store, no shared read-modify-write); size() sums it lock-free.
  struct alignas(64) Stripe {
    mutable std::shared_mutex Mutex;
    std::atomic<size_t> Count{0};
  };

  static constexpr size_t NumStripes = 16;
  /// Average entries per bucket that triggers a doubling.
  static constexpr size_t MaxLoad = 2;

  Stripe Stripes[NumStripes];
  /// Bucket heads and mask: read under any one stripe lock, replaced
  /// only under all of them (grow), so plain fields suffice.
  std::unique_ptr<Node *[]> Buckets;
  size_t Mask;
  HashFn Hasher;

  Stripe &stripeFor(uint64_t H) const {
    return const_cast<Stripe &>(Stripes[H & (NumStripes - 1)]);
  }

  /// Links a fresh node under the held exclusive lock of \p S and
  /// reports whether the stripe's share of the table is now over the
  /// load factor (the caller grows after unlocking).
  bool linkLocked(Stripe &S, uint64_t H, const K &Key, V Val) {
    Node *&Head = Buckets[H & Mask];
    Head = new Node{Key, std::move(Val), Head};
    size_t N = S.Count.load(std::memory_order_relaxed) + 1;
    S.Count.store(N, std::memory_order_relaxed);
    return N > MaxLoad * ((Mask + 1) / NumStripes);
  }

  /// Inserts \p Key if absent (then maybe grows); an existing entry
  /// takes \p Val only when \p Assign. Returns true if inserted.
  bool insert(const K &Key, V Val, bool Assign) {
    uint64_t H = Hasher(Key);
    Stripe &S = stripeFor(H);
    size_t Seen;
    {
      std::unique_lock<std::shared_mutex> Guard(S.Mutex);
      for (Node *N = Buckets[H & Mask]; N; N = N->Next)
        if (N->Key == Key) {
          if (Assign)
            N->Val = std::move(Val);
          return false;
        }
      Seen = Mask + 1;
      if (!linkLocked(S, H, Key, std::move(Val)))
        return true;
    }
    grow(Seen);
    return true;
  }

  /// Doubles the table unless another thread already grew it past
  /// \p SeenBuckets. Takes every stripe in index order (the only
  /// multi-stripe acquisition, so it cannot deadlock); call with no
  /// stripe held.
  void grow(size_t SeenBuckets) {
    for (Stripe &S : Stripes)
      S.Mutex.lock();
    if (Mask + 1 == SeenBuckets) {
      size_t NewMask = 2 * SeenBuckets - 1;
      std::unique_ptr<Node *[]> Fresh(new Node *[NewMask + 1]());
      for (size_t B = 0; B < SeenBuckets; ++B)
        for (Node *N = Buckets[B]; N;) {
          Node *Next = N->Next;
          Node *&Head = Fresh[Hasher(N->Key) & NewMask];
          N->Next = Head;
          Head = N;
          N = Next;
        }
      Buckets = std::move(Fresh);
      Mask = NewMask;
    }
    for (size_t I = NumStripes; I-- > 0;)
      Stripes[I].Mutex.unlock();
  }

public:
  /// \p InitialBuckets (a power of two) is only the starting size; the
  /// table doubles whenever a stripe's buckets average more than
  /// MaxLoad entries. Clamped up to the stripe count.
  explicit ConcurrentHashMap(size_t InitialBuckets = NumStripes)
      : Mask((InitialBuckets < NumStripes ? NumStripes : InitialBuckets) -
             1) {
    assert((InitialBuckets & (InitialBuckets - 1)) == 0 &&
           "bucket count must be a power of two");
    Buckets.reset(new Node *[Mask + 1]());
  }

  ~ConcurrentHashMap() { clear(); }

  ConcurrentHashMap(const ConcurrentHashMap &) = delete;
  ConcurrentHashMap &operator=(const ConcurrentHashMap &) = delete;

  /// Linearizable lookup: returns true and sets \p Out if present.
  bool lookup(const K &Key, V &Out) const {
    uint64_t H = Hasher(Key);
    Stripe &S = stripeFor(H);
    std::shared_lock<std::shared_mutex> Guard(S.Mutex);
    for (Node *N = Buckets[H & Mask]; N; N = N->Next)
      if (N->Key == Key) {
        Out = N->Val;
        return true;
      }
    return false;
  }

  bool contains(const K &Key) const {
    V Ignored;
    return lookup(Key, Ignored);
  }

  /// Linearizable insert-or-replace; returns true if newly inserted.
  bool insertOrAssign(const K &Key, V Val) {
    return insert(Key, std::move(Val), /*Assign=*/true);
  }

  /// Linearizable conditional insert (put-if-absent): inserts only if the
  /// key is absent; returns true on insert.
  bool insertIfAbsent(const K &Key, V Val) {
    return insert(Key, std::move(Val), /*Assign=*/false);
  }

  /// Linearizable removal; returns true if the key was present.
  bool erase(const K &Key) {
    uint64_t H = Hasher(Key);
    Stripe &S = stripeFor(H);
    std::unique_lock<std::shared_mutex> Guard(S.Mutex);
    Node **Link = &Buckets[H & Mask];
    while (*Link) {
      if ((*Link)->Key == Key) {
        Node *Dead = *Link;
        *Link = Dead->Next;
        delete Dead;
        S.Count.store(S.Count.load(std::memory_order_relaxed) - 1,
                      std::memory_order_relaxed);
        return true;
      }
      Link = &(*Link)->Next;
    }
    return false;
  }

  /// Weakly consistent scan: safe in parallel with writes and grows.
  /// Every entry present for the whole scan is visited exactly once;
  /// entries inserted or removed during the scan may or may not be
  /// observed. The visitor must not call back into this map (a stripe
  /// lock is held).
  template <typename Fn> void scan(Fn Visit) const {
    for (size_t I = 0; I < NumStripes; ++I) {
      std::shared_lock<std::shared_mutex> Guard(Stripes[I].Mutex);
      for (size_t B = I; B <= Mask; B += NumStripes)
        for (Node *N = Buckets[B]; N; N = N->Next)
          if (!Visit(static_cast<const K &>(N->Key),
                     static_cast<const V &>(N->Val)))
            return;
    }
  }

  size_t size() const {
    size_t N = 0;
    for (const Stripe &S : Stripes)
      N += S.Count.load(std::memory_order_relaxed);
    return N;
  }
  bool empty() const {
    for (const Stripe &S : Stripes)
      if (S.Count.load(std::memory_order_relaxed) != 0)
        return false;
    return true;
  }

  /// Current bucket count (tests; racy under concurrent grows).
  size_t bucketCount() const {
    std::shared_lock<std::shared_mutex> Guard(Stripes[0].Mutex);
    return Mask + 1;
  }

  /// Not thread-safe (destruction-time helper).
  void clear() {
    for (size_t B = 0; B <= Mask; ++B) {
      Node *N = Buckets[B];
      while (N) {
        Node *Next = N->Next;
        delete N;
        N = Next;
      }
      Buckets[B] = nullptr;
    }
    for (Stripe &S : Stripes)
      S.Count.store(0, std::memory_order_relaxed);
  }
};

} // namespace crs

#endif // CRS_CONTAINERS_CONCURRENTHASHMAP_H
