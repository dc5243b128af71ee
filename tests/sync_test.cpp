//===- tests/sync_test.cpp - Synchronization substrate tests ------------------===//
//
// Part of the CRS project: a reproduction of "Concurrent Data Representation
// Synthesis" (Hawkins et al., PLDI 2012). MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "sync/LockSet.h"
#include "sync/PhysicalLock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace crs;

namespace {

// ----------------------------------------------------------- PhysicalLock

TEST(PhysicalLock, SharedHoldersCoexist) {
  PhysicalLock L;
  L.lock(LockMode::Shared);
  EXPECT_TRUE(L.tryLock(LockMode::Shared));
  EXPECT_FALSE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Shared);
  L.unlock(LockMode::Shared);
  EXPECT_TRUE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

TEST(PhysicalLock, ExclusiveExcludesAll) {
  PhysicalLock L;
  L.lock(LockMode::Exclusive);
  EXPECT_FALSE(L.tryLock(LockMode::Shared));
  EXPECT_FALSE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

TEST(PhysicalLock, ContentionCounters) {
  PhysicalLock L;
  EXPECT_EQ(L.acquisitions(), 0u);
  L.lock(LockMode::Exclusive);
  std::atomic<bool> Blocked{false};
  std::thread T([&] {
    Blocked.store(true, std::memory_order_release);
    L.lock(LockMode::Shared); // must block until main unlocks
    L.unlock(LockMode::Shared);
  });
  while (!Blocked.load(std::memory_order_acquire))
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  L.unlock(LockMode::Exclusive);
  T.join();
  // Exclusive acquisitions are exact; the single shared acquisition is
  // below the sampling period and credits nothing (class contract).
  EXPECT_EQ(L.acquisitions(), 1u);
  EXPECT_GE(L.contentions(), 1u);
}

TEST(PhysicalLock, SharedAcquisitionsAreSampled) {
  // A full period's worth of shared acquisitions on one thread credits
  // the lock at least one batch; the estimate never exceeds the truth
  // by more than a period per thread (here: one thread, so never).
  PhysicalLock L;
  constexpr uint64_t N = 4 * PhysicalLock::SharedSamplePeriod;
  for (uint64_t I = 0; I < N; ++I) {
    L.lock(LockMode::Shared);
    L.unlock(LockMode::Shared);
  }
  // The thread's sampling tick is process-global across locks, so the
  // phase is unknown — but N ticks land at least N/period − 1 credits.
  EXPECT_GE(L.acquisitions(), N - PhysicalLock::SharedSamplePeriod);
  EXPECT_LE(L.acquisitions(), N + PhysicalLock::SharedSamplePeriod);
  EXPECT_EQ(L.contentions(), 0u);
}

// ---------------------------------------------------------------- LockSet

LockOrderKey key(uint32_t Topo, int64_t K, uint32_t Stripe) {
  return {Topo, Tuple::of({{0, Value::ofInt(K)}}), Stripe};
}

TEST(LockOrderKey, TotalOrder) {
  EXPECT_LT(key(0, 5, 3), key(1, 0, 0)); // node order first
  EXPECT_LT(key(1, 4, 9), key(1, 5, 0)); // then instance key
  EXPECT_LT(key(1, 5, 0), key(1, 5, 1)); // then stripe
  EXPECT_EQ(key(2, 7, 1).compare(key(2, 7, 1)), 0);
}

TEST(LockSet, DeduplicatesRepeatedAcquisition) {
  PhysicalLock L;
  LockSet S;
  S.acquire(L, key(0, 0, 0), LockMode::Exclusive);
  // Many logical locks can map to one physical lock under a coarse
  // placement; re-acquisition is a no-op.
  S.acquire(L, key(1, 0, 0), LockMode::Exclusive);
  EXPECT_EQ(S.heldCount(), 1u);
  EXPECT_TRUE(S.holds(L));
  EXPECT_EQ(L.acquisitions(), 1u);
  S.releaseAll();
  EXPECT_FALSE(S.holds(L));
  EXPECT_TRUE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

TEST(LockSet, HoldsAtLeastModes) {
  PhysicalLock A, B;
  LockSet S;
  S.acquire(A, key(0, 0, 0), LockMode::Shared);
  S.acquire(B, key(0, 1, 0), LockMode::Exclusive);
  EXPECT_TRUE(S.holdsAtLeast(A, LockMode::Shared));
  EXPECT_FALSE(S.holdsAtLeast(A, LockMode::Exclusive));
  EXPECT_TRUE(S.holdsAtLeast(B, LockMode::Shared));
  EXPECT_TRUE(S.holdsAtLeast(B, LockMode::Exclusive));
}

TEST(LockSet, TryAcquireWouldBlock) {
  PhysicalLock L;
  L.lock(LockMode::Exclusive); // someone else holds it
  LockSet S;
  EXPECT_EQ(S.tryAcquire(L, key(0, 0, 0), LockMode::Shared),
            AcquireResult::WouldBlock);
  EXPECT_EQ(S.heldCount(), 0u);
  L.unlock(LockMode::Exclusive);
  EXPECT_EQ(S.tryAcquire(L, key(0, 0, 0), LockMode::Shared),
            AcquireResult::Ok);
  S.releaseAll();
}

TEST(LockSet, InOrderTracking) {
  PhysicalLock A, B;
  LockSet S;
  EXPECT_TRUE(S.inOrder(key(0, 0, 0)));
  S.acquire(A, key(2, 0, 0), LockMode::Shared);
  EXPECT_FALSE(S.inOrder(key(1, 0, 0)));
  EXPECT_TRUE(S.inOrder(key(2, 0, 1)));
  // Out-of-order acquisitions must go through tryAcquire.
  EXPECT_EQ(S.tryAcquire(B, key(1, 0, 0), LockMode::Shared),
            AcquireResult::Ok);
  S.releaseAll();
  EXPECT_TRUE(S.inOrder(key(0, 0, 0))); // reset with the set
}

TEST(LockSet, ReleaseAllOnDestruction) {
  PhysicalLock L;
  {
    LockSet S;
    S.acquire(L, key(0, 0, 0), LockMode::Exclusive);
  }
  EXPECT_TRUE(L.tryLock(LockMode::Exclusive));
  L.unlock(LockMode::Exclusive);
}

} // namespace
