//===- tests/lowfat_test.cpp - Low-fat allocator unit tests ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowfat/GlobalPool.h"
#include "lowfat/LowFatHeap.h"
#include "lowfat/SizeClass.h"
#include "lowfat/StackPool.h"
#include "resilience/Fault.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::lowfat;
using resilience::FaultPoint;

namespace {

/// How often \p Point has fired: zero unless a fault schedule is armed
/// (EFFSAN_FAULTS). An armed refill failure or quarantine overrun
/// changes which block an allocation returns, so the tests that pin
/// that policy read the count around the operation and assert the
/// induced behaviour when the point fired.
uint64_t fired(FaultPoint Point) {
  return resilience::FaultRegistry::instance().fires(Point);
}

} // namespace

//===----------------------------------------------------------------------===//
// Size classes
//===----------------------------------------------------------------------===//

TEST(SizeClassTest, TableIsAscendingAndBounded) {
  EXPECT_EQ(SizeClasses.front().Size, MinClassSize);
  EXPECT_EQ(SizeClasses.back().Size, MaxClassSize);
  for (unsigned I = 1; I < NumSizeClasses; ++I) {
    EXPECT_LT(SizeClasses[I - 1].Size, SizeClasses[I].Size)
        << "class " << I;
  }
}

TEST(SizeClassTest, PowersOfTwoAndMidpoints) {
  EXPECT_EQ(classSize(0), 32u);
  EXPECT_EQ(classSize(1), 48u);
  EXPECT_EQ(classSize(2), 64u);
  EXPECT_EQ(classSize(3), 96u);
  EXPECT_EQ(classSize(4), 128u);
}

TEST(SizeClassTest, SizeToClassReturnsSmallestFit) {
  for (size_t Bytes : {1u, 31u, 32u}) {
    EXPECT_EQ(sizeToClass(Bytes), 0u) << Bytes;
  }
  EXPECT_EQ(sizeToClass(33), 1u);
  EXPECT_EQ(sizeToClass(48), 1u);
  EXPECT_EQ(sizeToClass(49), 2u);
  EXPECT_EQ(sizeToClass(64), 2u);
  EXPECT_EQ(sizeToClass(65), 3u);
  EXPECT_EQ(sizeToClass(MaxClassSize), NumSizeClasses - 1);
}

TEST(SizeClassTest, SizeToClassIsExhaustivelyConsistent) {
  std::mt19937_64 Rng(42);
  for (int I = 0; I < 20000; ++I) {
    size_t Bytes = Rng() % MaxClassSize + 1;
    unsigned C = sizeToClass(Bytes);
    EXPECT_GE(classSize(C), Bytes);
    if (C > 0) {
      EXPECT_LT(classSize(C - 1), Bytes);
    }
  }
}

TEST(SizeClassTest, InternalFragmentationBounded) {
  // The 1.5x midpoint scheme wastes at most 50% (size 2^k+1 maps to
  // 1.5*2^k, i.e. < 1.5x the request).
  std::mt19937_64 Rng(7);
  for (int I = 0; I < 10000; ++I) {
    size_t Bytes = Rng() % MaxClassSize + 1;
    if (Bytes < MinClassSize)
      continue;
    EXPECT_LE(classSize(sizeToClass(Bytes)), Bytes + Bytes / 2)
        << "request " << Bytes;
  }
}

TEST(SizeClassTest, ClassModuloMatchesDivision) {
  std::mt19937_64 Rng(123);
  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    for (int I = 0; I < 200; ++I) {
      uint64_t Offset = Rng() % (1ull << 38);
      EXPECT_EQ(classModulo(C, Offset), Offset % classSize(C))
          << "class " << C << " offset " << Offset;
    }
  }
}

//===----------------------------------------------------------------------===//
// LowFatHeap
//===----------------------------------------------------------------------===//

namespace {

class LowFatHeapTest : public ::testing::Test {
protected:
  LowFatHeap Heap;
};

} // namespace

TEST_F(LowFatHeapTest, AllocateGivesLowFatPointer) {
  void *P = Heap.allocate(100);
  ASSERT_NE(P, nullptr);
  EXPECT_TRUE(Heap.isLowFat(P));
  EXPECT_EQ(Heap.allocationBase(P), P);
  EXPECT_GE(Heap.allocationSize(P), 100u);
  Heap.deallocate(P);
}

TEST_F(LowFatHeapTest, InteriorPointersResolveToBase) {
  char *P = static_cast<char *>(Heap.allocate(100));
  size_t Size = Heap.allocationSize(P);
  for (size_t Off : {size_t(1), size_t(50), size_t(99), Size - 1}) {
    EXPECT_TRUE(Heap.isLowFat(P + Off)) << Off;
    EXPECT_EQ(Heap.allocationBase(P + Off), P) << Off;
    EXPECT_EQ(Heap.allocationSize(P + Off), Size) << Off;
  }
  Heap.deallocate(P);
}

TEST_F(LowFatHeapTest, LegacyPointersReportWide) {
  int Local = 0;
  EXPECT_FALSE(Heap.isLowFat(&Local));
  EXPECT_EQ(Heap.allocationSize(&Local), SIZE_MAX);
  EXPECT_EQ(Heap.allocationBase(&Local), nullptr);
  EXPECT_FALSE(Heap.isLowFat(nullptr));
}

TEST_F(LowFatHeapTest, OversizedRequestsFallBackToLegacy) {
  void *P = Heap.allocate(MaxClassSize + 1);
  ASSERT_NE(P, nullptr);
  EXPECT_FALSE(Heap.isLowFat(P));
  EXPECT_EQ(Heap.stats().NumLegacyAllocs, 1u);
  std::memset(P, 0xab, MaxClassSize + 1); // Must be usable.
  Heap.deallocate(P);
  EXPECT_EQ(Heap.stats().NumFrees, 1u);
}

TEST_F(LowFatHeapTest, DistinctAllocationsDoNotOverlap) {
  std::vector<char *> Ptrs;
  for (int I = 0; I < 64; ++I)
    Ptrs.push_back(static_cast<char *>(Heap.allocate(48)));
  std::sort(Ptrs.begin(), Ptrs.end());
  for (size_t I = 1; I < Ptrs.size(); ++I)
    EXPECT_GE(Ptrs[I] - Ptrs[I - 1], 48) << I;
  for (char *P : Ptrs)
    Heap.deallocate(P);
}

TEST_F(LowFatHeapTest, FreePreservesFirstSixteenBytes) {
  // The META header (16 bytes) must survive free until reallocation
  // (Section 5 of the paper).
  char *P = static_cast<char *>(Heap.allocate(64));
  std::memset(P, 0x5a, 64);
  Heap.deallocate(P);
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(static_cast<unsigned char>(P[I]), 0x5a) << "byte " << I;
}

TEST_F(LowFatHeapTest, FreeListReusesBlocks) {
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  void *Q = Heap.allocate(64);
  EXPECT_EQ(P, Q) << "LIFO free list should reuse the freed block";
  Heap.deallocate(Q);
}

TEST_F(LowFatHeapTest, QuarantineDelaysReuse) {
  LowFatHeap QHeap(HeapOptions{1ull << 29, /*QuarantineBytes=*/1 << 20});
  void *P = QHeap.allocate(64);
  QHeap.deallocate(P);
  void *Q = QHeap.allocate(64);
  EXPECT_NE(P, Q) << "quarantined block must not be reused immediately";
  EXPECT_GT(QHeap.stats().QuarantinedBytes, 0u);
}

TEST_F(LowFatHeapTest, QuarantineEvictsWhenOverBudget) {
  LowFatHeap QHeap(HeapOptions{1ull << 29, /*QuarantineBytes=*/256});
  std::vector<void *> Ptrs;
  for (int I = 0; I < 16; ++I)
    Ptrs.push_back(QHeap.allocate(64));
  for (void *P : Ptrs)
    QHeap.deallocate(P);
  EXPECT_LE(QHeap.stats().QuarantinedBytes, 256u + 96u);
}

TEST_F(LowFatHeapTest, StatsTrackPeaks) {
  HeapStats Before = Heap.stats();
  void *A = Heap.allocate(1000);
  void *B = Heap.allocate(2000);
  HeapStats During = Heap.stats();
  EXPECT_GT(During.BlockBytesInUse, Before.BlockBytesInUse);
  Heap.deallocate(A);
  Heap.deallocate(B);
  HeapStats After = Heap.stats();
  EXPECT_EQ(After.BlockBytesInUse, Before.BlockBytesInUse);
  EXPECT_GE(After.PeakBlockBytesInUse, During.BlockBytesInUse);
  EXPECT_EQ(After.NumAllocs, Before.NumAllocs + 2);
  EXPECT_EQ(After.NumFrees, Before.NumFrees + 2);
}

TEST_F(LowFatHeapTest, PointerBeyondBumpIsLegacy) {
  char *P = static_cast<char *>(Heap.allocate(64));
  size_t Class = Heap.allocationSize(P);
  // One-past-the-end of the newest block was never allocated.
  EXPECT_FALSE(Heap.isLowFat(P + Class));
  Heap.deallocate(P);
}

namespace {

/// Property sweep: for many sizes, allocation/base/size invariants hold.
class LowFatHeapPropertyTest : public ::testing::TestWithParam<size_t> {
protected:
  static LowFatHeap &heap() {
    static LowFatHeap Heap;
    return Heap;
  }
};

} // namespace

TEST_P(LowFatHeapPropertyTest, BaseAndSizeInvariants) {
  size_t Request = GetParam();
  char *P = static_cast<char *>(heap().allocate(Request));
  ASSERT_NE(P, nullptr);
  ASSERT_TRUE(heap().isLowFat(P));
  size_t Size = heap().allocationSize(P);
  EXPECT_GE(Size, Request);
  EXPECT_EQ(heap().allocationBase(P), P);
  // Interior pointers throughout the block resolve to the same base.
  for (size_t Off = 1; Off < Request; Off = Off * 2 + 1) {
    EXPECT_EQ(heap().allocationBase(P + Off), P) << Off;
    EXPECT_EQ(heap().allocationSize(P + Off), Size) << Off;
  }
  std::memset(P, 0xcd, Request); // The block must be writable.
  heap().deallocate(P);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LowFatHeapPropertyTest,
                         ::testing::Values(1, 16, 31, 32, 33, 48, 63, 64,
                                           100, 256, 1000, 4096, 10000,
                                           1 << 16, (1 << 16) + 1, 1 << 20,
                                           (3 << 19), 1 << 24));

TEST(LowFatHeapThreadTest, ConcurrentAllocFree) {
  LowFatHeap Heap;
  constexpr int NumThreads = 4;
  constexpr int Iterations = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&Heap, T] {
      std::mt19937 Rng(T);
      std::vector<void *> Live;
      for (int I = 0; I < Iterations; ++I) {
        size_t Size = Rng() % 500 + 1;
        void *P = Heap.allocate(Size);
        ASSERT_TRUE(Heap.isLowFat(P));
        ASSERT_EQ(Heap.allocationBase(P), P);
        Live.push_back(P);
        if (Live.size() > 16) {
          Heap.deallocate(Live.front());
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        Heap.deallocate(P);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Heap.stats().NumAllocs, Heap.stats().NumFrees);
}

//===----------------------------------------------------------------------===//
// Sharded heaps (HeapOptions::NumShards > 1)
//===----------------------------------------------------------------------===//

TEST(ShardedLowFatHeapTest, ShardSlicesAreClassAlignedEverywhere) {
  // For every size class: blocks allocated by different shards must
  // all sit at class-size multiples from the region base, so the
  // base(p)/size(p) arithmetic is shard-blind.
  HeapOptions Options;
  Options.NumShards = 4;
  LowFatHeap Heap(Options);
  ASSERT_EQ(Heap.numShards(), 4u);

  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    size_t Request = classSize(C);
    if (Request > Heap.regionSize())
      break;
    for (unsigned S = 0; S < 4; ++S) {
      char *P = static_cast<char *>(Heap.allocateOnShard(Request, S));
      if (!Heap.isLowFat(P))
        continue; // Class too large for a 4-way split: legacy is fine.
      EXPECT_EQ(Heap.allocationSize(P), Request) << "class " << C;
      EXPECT_EQ(Heap.allocationBase(P), P) << "class " << C;
      EXPECT_EQ(Heap.shardOf(P), S) << "class " << C;
      EXPECT_EQ(Heap.allocationBase(P + Request / 2), P)
          << "interior pointer, class " << C;
      Heap.deallocate(P);
    }
  }
}

TEST(ShardedLowFatHeapTest, CrossShardFreeReturnsToOwningShard) {
  HeapOptions Options;
  Options.NumShards = 2;
  LowFatHeap Heap(Options);
  void *P = Heap.allocateOnShard(64, 1);
  EXPECT_EQ(Heap.shardOf(P), 1u);
  // Freed from "shard 0's thread" (deallocate is shard-blind)...
  Heap.deallocate(P);
  // ...the block must come back to shard 1, not shard 0.
  void *Q0 = Heap.allocateOnShard(64, 0);
  EXPECT_NE(Q0, P) << "shard 0 must not receive shard 1's free block";
  uint64_t RefillFails = fired(FaultPoint::HeapMagazineRefill);
  void *Q1 = Heap.allocateOnShard(64, 1);
  if (fired(FaultPoint::HeapMagazineRefill) == RefillFails)
    EXPECT_EQ(Q1, P) << "shard 1's LIFO free list reuses its own block";
  else
    EXPECT_NE(Q1, P) << "an induced refill failure serves the bump pointer";
  Heap.deallocate(Q0);
  Heap.deallocate(Q1);
}

TEST(ShardedLowFatHeapTest, ConcurrentShardsWithQuarantine) {
  // The concurrent-use contract: per-shard alloc/free under a live
  // quarantine, with cross-shard base/size queries racing against
  // sibling allocation. No block may ever be handed out twice while
  // live, and freed blocks must respect the quarantine delay.
  constexpr unsigned Threads = 4;
  constexpr int Iterations = 2000;
  HeapOptions Options;
  Options.NumShards = Threads;
  Options.QuarantineBytes = 1 << 15;
  LowFatHeap Heap(Options);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&Heap, T] {
      std::mt19937 Rng(T);
      std::vector<void *> Live;
      void *LastFreed = nullptr;
      for (int I = 0; I < Iterations; ++I) {
        size_t Size = Rng() % 500 + 1;
        void *P = Heap.allocateOnShard(Size, T);
        ASSERT_TRUE(Heap.isLowFat(P));
        ASSERT_EQ(Heap.allocationBase(P), P);
        ASSERT_EQ(Heap.shardOf(P), T);
        ASSERT_NE(P, LastFreed)
            << "quarantine must delay immediate reuse";
        Live.push_back(P);
        if (Live.size() > 16) {
          LastFreed = Live.front();
          Heap.deallocate(LastFreed);
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        Heap.deallocate(P);
    });
  }
  for (std::thread &T : Workers)
    T.join();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, Stats.NumFrees);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(ShardedLowFatHeapTest, ResetShardDropsQuarantineAndFreeLists) {
  HeapOptions Options;
  Options.NumShards = 2;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);

  void *A = Heap.allocateOnShard(64, 0);
  void *B = Heap.allocateOnShard(64, 1);
  Heap.deallocate(A); // Parked in shard 0's quarantine.
  ASSERT_GT(Heap.shardStats(0).QuarantinedBytes, 0u);

  Heap.resetShard(0);
  HeapStats S0 = Heap.shardStats(0);
  EXPECT_EQ(S0.QuarantinedBytes, 0u);
  EXPECT_EQ(S0.NumAllocs, 0u);
  EXPECT_EQ(S0.BlockBytesInUse, 0u);
  // Shard 1 untouched; shard 0 serves from the start of its slice.
  EXPECT_TRUE(Heap.isLowFat(B));
  void *A2 = Heap.allocateOnShard(64, 0);
  EXPECT_EQ(A2, A);
  Heap.deallocate(A2);
  Heap.deallocate(B);
}

TEST(ShardedLowFatHeapTest, SingleShardKeepsClassicBehaviour) {
  // NumShards = 1 (the default) must be indistinguishable from the
  // pre-sharding allocator: one slice spanning the region.
  LowFatHeap Heap;
  EXPECT_EQ(Heap.numShards(), 1u);
  void *P = Heap.allocate(100);
  EXPECT_EQ(Heap.shardOf(P), 0u);
  Heap.deallocate(P);
}

//===----------------------------------------------------------------------===//
// The lock-free fast path: magazines, batched quarantine, stealing
//===----------------------------------------------------------------------===//

TEST(MagazineTest, SteadyStateChurnHitsTheMagazine) {
  LowFatHeap Heap; // MagazineSize defaults to 16.
  ASSERT_GT(Heap.magazineSize(), 0u);
  // Warm-up alloc/free pair seeds the magazine; every later alloc of
  // the class must be a magazine hit.
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  for (int I = 0; I < 100; ++I) {
    void *Q = Heap.allocate(64);
    EXPECT_EQ(Q, P) << "LIFO magazine must replay the cached block";
    Heap.deallocate(Q);
  }
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.MagazineHits, 100u);
  EXPECT_EQ(Stats.NumAllocs, 101u);
  EXPECT_EQ(Stats.NumFrees, 101u);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(MagazineTest, DisabledMagazinesStillReuseLockFree) {
  HeapOptions Options;
  Options.MagazineSize = 0;
  LowFatHeap Heap(Options);
  EXPECT_EQ(Heap.magazineSize(), 0u);
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  void *Q = Heap.allocate(64);
  EXPECT_EQ(Q, P) << "Treiber free list reuses the freed block";
  Heap.deallocate(Q);
  EXPECT_EQ(Heap.stats().MagazineHits, 0u);
}

TEST(MagazineTest, OverflowFlushesHalfToTheSharedList) {
  HeapOptions Options;
  Options.MagazineSize = 8;
  LowFatHeap Heap(Options);
  // Free more blocks than one magazine holds: the overflow must land
  // on the shared free list (visible to other threads), not grow the
  // TLS cache without bound.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 32; ++I)
    Ptrs.push_back(Heap.allocate(64));
  for (void *P : Ptrs)
    Heap.deallocate(P);
  // Another thread (fresh TLS) must be able to reuse flushed blocks.
  std::thread Other([&Heap] {
    uint64_t RefillFails = fired(FaultPoint::HeapMagazineRefill);
    uint64_t Refills = Heap.stats().MagazineRefills;
    void *P = Heap.allocate(64);
    EXPECT_TRUE(Heap.isLowFat(P));
    if (fired(FaultPoint::HeapMagazineRefill) == RefillFails)
      EXPECT_GE(Heap.stats().MagazineRefills, 1u)
          << "the fresh thread must refill from the flushed overflow";
    else
      EXPECT_EQ(Heap.stats().MagazineRefills, Refills)
          << "an induced refill failure refills nothing";
    Heap.deallocate(P);
  });
  Other.join();
  EXPECT_EQ(Heap.stats().BlockBytesInUse, 0u);
}

TEST(MagazineTest, FlushThreadCachePublishesCachedBlocks) {
  LowFatHeap Heap;
  void *P = Heap.allocate(64);
  Heap.deallocate(P); // Parked in this thread's magazine.
  Heap.flushThreadCache();
  // After the flush the block sits on the shared free list, so a
  // magazine-REFILL (not a hit) serves it back.
  uint64_t HitsBefore = Heap.stats().MagazineHits;
  uint64_t RefillsBefore = Heap.stats().MagazineRefills;
  uint64_t RefillFails = fired(FaultPoint::HeapMagazineRefill);
  void *Q = Heap.allocate(64);
  EXPECT_EQ(Heap.stats().MagazineHits, HitsBefore);
  if (fired(FaultPoint::HeapMagazineRefill) == RefillFails) {
    EXPECT_EQ(Q, P);
    EXPECT_GE(Heap.stats().MagazineRefills, 1u);
  } else {
    // The induced refill failure leaves P on the shared list and
    // serves Q from the bump pointer.
    EXPECT_NE(Q, P);
    EXPECT_EQ(Heap.stats().MagazineRefills, RefillsBefore);
  }
  Heap.deallocate(Q);
}

TEST(MagazineTest, ResetShardDiscardsStaleThreadMagazines) {
  // The stale-TLS regression: a worker's magazine holds freed blocks
  // of a shard; resetShard() recycles the shard and a new tenant is
  // handed the same addresses. The worker's next allocation must NOT
  // replay a cached (now foreign) block.
  LowFatHeap Heap;
  void *A = nullptr, *B = nullptr;
  std::atomic<int> Phase{0};

  std::thread Worker([&] {
    A = Heap.allocate(64);
    B = Heap.allocate(64);
    Heap.deallocate(B); // B parks in the worker's magazine.
    Phase.store(1, std::memory_order_release);
    while (Phase.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
    // The shard was reset and the new tenant owns A's and B's
    // addresses. A stale magazine would hand back B == C2.
    void *D = Heap.allocate(64);
    EXPECT_TRUE(Heap.isLowFat(D));
    EXPECT_NE(D, A) << "stale magazine block replayed after reset";
    EXPECT_NE(D, B) << "stale magazine block replayed after reset";
  });

  while (Phase.load(std::memory_order_acquire) != 1)
    std::this_thread::yield();
  Heap.resetShard(0);
  // New tenant: the recycled slice serves A's and B's addresses again.
  void *C1 = Heap.allocate(64);
  void *C2 = Heap.allocate(64);
  EXPECT_EQ(C1, A);
  EXPECT_EQ(C2, B);
  Phase.store(2, std::memory_order_release);
  Worker.join();
}

TEST(MagazineTest, ThreadExitFlushesMagazinesBackToTheHeap) {
  LowFatHeap Heap;
  void *P = nullptr;
  std::thread Worker([&] {
    P = Heap.allocate(64);
    Heap.deallocate(P); // Parks in the worker's magazine...
  });
  Worker.join(); // ...and must flush back at thread exit.
  uint64_t RefillFails = fired(FaultPoint::HeapMagazineRefill);
  void *Q = Heap.allocate(64);
  if (fired(FaultPoint::HeapMagazineRefill) == RefillFails)
    EXPECT_EQ(Q, P) << "the dead thread's cached block must be reusable";
  else
    EXPECT_NE(Q, P) << "an induced refill failure serves the bump pointer";
  Heap.deallocate(Q);
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, 2u);
  EXPECT_EQ(Stats.NumFrees, 2u);
}

TEST(MagazineTest, ConcurrentHitTalliesAreExact) {
  // Hit/refill telemetry is tallied per thread and published with
  // fetch_add (batched, with the remainder flushed through ThreadCache
  // retirement), so the totals are *exact* under concurrent mutators —
  // the old racy load+store on the shared counter lost updates under
  // exactly this workload. Each thread's first allocation comes from
  // the bump pointer (or a refill of a finished sibling's flushed
  // blocks); every one of the remaining Iters-1 is a magazine hit.
  LowFatHeap Heap;
  ASSERT_GT(Heap.magazineSize(), 0u);
  constexpr unsigned NumThreads = 8;
  constexpr unsigned Iters = 4096;
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&] {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire)) {
      }
      for (unsigned I = 0; I < Iters; ++I) {
        void *P = Heap.allocate(64);
        Heap.deallocate(P);
      }
      Heap.flushThreadCache();
    });
  }
  while (Ready.load() != NumThreads) {
  }
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.MagazineHits, uint64_t(NumThreads) * (Iters - 1));
  EXPECT_LE(Stats.MagazineRefills, uint64_t(NumThreads));
  EXPECT_EQ(Stats.NumAllocs, uint64_t(NumThreads) * Iters);
  EXPECT_EQ(Stats.NumFrees, uint64_t(NumThreads) * Iters);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(BatchedQuarantineTest, DelayPreservedWithinAndAcrossBatches) {
  HeapOptions Options;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);
  // Free a full batch (16) plus change: no freed block may come back
  // while the budget holds, whether it sits in the thread batch or in
  // the shard FIFO. An induced overrun at a batch flush evicts every
  // block freed so far, so only later frees stay protected.
  std::vector<void *> Freed;
  size_t Protected = 0; // Freed[Protected..] are still quarantined.
  auto Free = [&](void *P) {
    uint64_t Overruns = fired(FaultPoint::HeapQuarantineOverrun);
    Heap.deallocate(P);
    Freed.push_back(P);
    if (fired(FaultPoint::HeapQuarantineOverrun) != Overruns)
      Protected = Freed.size();
  };
  for (int I = 0; I < 20; ++I) {
    Free(Heap.allocate(64));
    void *Q = Heap.allocate(64);
    for (size_t F = Protected; F < Freed.size(); ++F)
      EXPECT_NE(Q, Freed[F]) << "quarantined block reused (iteration " << I
                             << ")";
    Free(Q);
  }
  EXPECT_GT(Heap.stats().QuarantinedBytes, 0u);
}

TEST(BatchedQuarantineTest, AccountingVisibleBeforeTheBatchFlushes) {
  HeapOptions Options;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);
  void *P = Heap.allocate(64);
  Heap.deallocate(P);
  // One free < batch size: the block is still in the TLS batch, but
  // the byte accounting must already see it.
  EXPECT_EQ(Heap.stats().QuarantinedBytes, 64u);
  uint64_t Overruns = fired(FaultPoint::HeapQuarantineOverrun);
  Heap.flushThreadCache();
  // An induced overrun at the flush evicts the block.
  EXPECT_EQ(Heap.stats().QuarantinedBytes,
            fired(FaultPoint::HeapQuarantineOverrun) == Overruns ? 64u : 0u);
}

TEST(BatchedQuarantineTest, ResetShardDropsPendingBatchEntries) {
  HeapOptions Options;
  Options.NumShards = 2;
  Options.QuarantineBytes = 1 << 20;
  LowFatHeap Heap(Options);
  void *P = Heap.allocateOnShard(64, 0);
  Heap.deallocate(P); // Parked in this thread's pending batch.
  ASSERT_GT(Heap.shardStats(0).QuarantinedBytes, 0u);
  Heap.resetShard(0);
  EXPECT_EQ(Heap.shardStats(0).QuarantinedBytes, 0u);
  // Flushing the stale batch must neither corrupt the recycled shard
  // nor resurrect the accounting.
  Heap.flushThreadCache();
  EXPECT_EQ(Heap.shardStats(0).QuarantinedBytes, 0u);
  void *Q = Heap.allocateOnShard(64, 0);
  EXPECT_EQ(Q, P) << "recycled slice serves from its start";
  Heap.deallocate(Q);
}

namespace {

/// A heap whose 1 MiB-class slices hold exactly 4 blocks per shard
/// (64 MiB regions / 16 shards), so slice exhaustion is cheap to
/// reach.
HeapOptions tinySliceOptions(bool Stealing) {
  HeapOptions Options;
  Options.RegionSize = 1ull << 26;
  Options.NumShards = 16;
  Options.EnableWorkStealing = Stealing;
  return Options;
}

} // namespace

TEST(WorkStealingTest, ExhaustedSliceRefillsFromSiblings) {
  LowFatHeap Heap(tinySliceOptions(true));
  constexpr size_t BlockSize = 1u << 20;
  std::vector<char *> Blocks;
  for (int I = 0; I < 12; ++I) {
    auto *P = static_cast<char *>(Heap.allocateOnShard(BlockSize, 0));
    ASSERT_TRUE(Heap.isLowFat(P)) << "block " << I << " went legacy";
    Blocks.push_back(P);
  }
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.Steals, 8u) << "blocks 5..12 must be stolen";
  EXPECT_EQ(Stats.ExhaustFallbacks, 0u);
  EXPECT_EQ(Stats.NumLegacyAllocs, 0u);

  // Differential base/size sweep: bump-served (shard 0) and stolen
  // (sibling-slice) blocks must be bit-identical under the metadata
  // arithmetic — same class size, exact base at every interior
  // offset, and the owning shard derived purely from the address.
  for (char *P : Blocks) {
    EXPECT_EQ(Heap.allocationSize(P), BlockSize);
    EXPECT_EQ(Heap.allocationBase(P), P);
    for (size_t Off : {size_t(1), BlockSize / 2, BlockSize - 1}) {
      EXPECT_EQ(Heap.allocationBase(P + Off), P) << Off;
      EXPECT_EQ(Heap.allocationSize(P + Off), BlockSize) << Off;
    }
  }
  // The first four live in shard 0's slice; the rest were stolen from
  // the next sibling slices in steal order.
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Heap.shardOf(Blocks[I]), 0u) << I;
  for (int I = 4; I < 12; ++I)
    EXPECT_NE(Heap.shardOf(Blocks[I]), 0u) << I;

  // A freed stolen block returns to its OWNING (victim) shard: the
  // victim can reuse it, and per-shard alloc/free stats balance.
  unsigned Victim = Heap.shardOf(Blocks[4]);
  Heap.deallocate(Blocks[4]);
  uint64_t RefillFails = fired(FaultPoint::HeapMagazineRefill);
  void *Reused = Heap.allocateOnShard(BlockSize, Victim);
  if (fired(FaultPoint::HeapMagazineRefill) == RefillFails)
    EXPECT_EQ(Reused, Blocks[4]);
  else // An induced refill failure leaves the block on the free list.
    EXPECT_NE(Reused, Blocks[4]);
  Heap.deallocate(Reused);
  for (int I = 0; I < 12; ++I)
    if (I != 4)
      Heap.deallocate(Blocks[I]);
  Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, Stats.NumFrees);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

TEST(WorkStealingTest, DisabledStealingFallsBackToLegacy) {
  LowFatHeap Heap(tinySliceOptions(false));
  constexpr size_t BlockSize = 1u << 20;
  std::vector<void *> Blocks;
  for (int I = 0; I < 6; ++I)
    Blocks.push_back(Heap.allocateOnShard(BlockSize, 0));
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.Steals, 0u);
  EXPECT_EQ(Stats.ExhaustFallbacks, 2u);
  EXPECT_EQ(Stats.NumLegacyAllocs, 2u);
  for (void *P : Blocks)
    Heap.deallocate(P);
}

TEST(LockFreeHammerTest, SharedShardChurnWithStealingAndQuarantine) {
  // The TSan hammer for the whole lock-free surface at once: four
  // threads churn ONE shard (maximal contention on its Treiber lists
  // and bump pointers) with magazines, batched quarantine and stealing
  // all enabled, while cross-thread frees bounce blocks between
  // magazines and the shared lists.
  constexpr unsigned Threads = 4;
  constexpr int Iterations = 2000;
  HeapOptions Options;
  Options.QuarantineBytes = 1 << 14;
  Options.MagazineSize = 8;
  Options.EnableWorkStealing = true;
  Options.NumShards = 2;
  LowFatHeap Heap(Options);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&Heap, T] {
      std::mt19937 Rng(T);
      std::vector<void *> Live;
      for (int I = 0; I < Iterations; ++I) {
        size_t Size = Rng() % 500 + 1;
        void *P = Heap.allocateOnShard(Size, 0); // Everyone on shard 0.
        ASSERT_TRUE(Heap.isLowFat(P));
        ASSERT_EQ(Heap.allocationBase(P), P);
        static_cast<char *>(P)[0] = static_cast<char>(T);
        Live.push_back(P);
        if (Live.size() > 16) {
          Heap.deallocate(Live.front());
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        Heap.deallocate(P);
      Heap.flushThreadCache();
    });
  }
  for (std::thread &T : Workers)
    T.join();
  HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, Stats.NumFrees);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u);
}

//===----------------------------------------------------------------------===//
// StackPool and GlobalPool
//===----------------------------------------------------------------------===//

TEST(StackPoolTest, LifoFrames) {
  LowFatHeap Heap;
  StackPool Stack(Heap);
  size_t Outer = Stack.mark();
  void *A = Stack.allocate(64);
  {
    StackPool::Frame Frame(Stack);
    void *B = Stack.allocate(128);
    EXPECT_TRUE(Heap.isLowFat(B));
    EXPECT_EQ(Stack.liveObjects(), 2u);
  }
  EXPECT_EQ(Stack.liveObjects(), 1u) << "frame exit frees its objects";
  EXPECT_EQ(Heap.allocationBase(A), A) << "outer object still live";
  Stack.release(Outer);
  EXPECT_EQ(Stack.liveObjects(), 0u);
}

TEST(StackPoolTest, BlocksSinceMark) {
  LowFatHeap Heap;
  StackPool Stack(Heap);
  size_t Mark = Stack.mark();
  void *A = Stack.allocate(32);
  void *B = Stack.allocate(32);
  auto Blocks = Stack.blocksSince(Mark);
  ASSERT_EQ(Blocks.size(), 2u);
  EXPECT_EQ(Blocks[0].Ptr, A);
  EXPECT_EQ(Blocks[1].Ptr, B);
  Stack.release(Mark);
}

TEST(StackPoolTest, OutOfOrderFrameDestruction) {
  // Regression: Frame used to release by mark, so destroying an OUTER
  // frame while an INNER frame still had live allocations freed the
  // inner frame's blocks out from under it. Frames release by frame
  // identity now — each destroys exactly its own allocations, in any
  // destruction order.
  LowFatHeap Heap;
  StackPool Stack(Heap);
  auto Outer = std::make_unique<StackPool::Frame>(Stack);
  void *A = Stack.allocate(64);
  auto Inner = std::make_unique<StackPool::Frame>(Stack);
  void *B = Stack.allocate(128);
  ASSERT_NE(A, B);
  EXPECT_EQ(Stack.liveObjects(), 2u);

  Outer.reset(); // Out of order: the outer frame dies first.
  ASSERT_EQ(Stack.liveObjects(), 1u)
      << "inner frame's allocation must survive the outer frame";
  EXPECT_EQ(Stack.blocksSince(0)[0].Ptr, B);
  static_cast<char *>(B)[0] = 42; // Still live and writable.

  Inner.reset();
  EXPECT_EQ(Stack.liveObjects(), 0u);
}

TEST(StackPoolTest, EscapingSlotsQuarantineBeforeReuse) {
  // Escaping (address-taken) slots are retired through a FIFO
  // quarantine instead of being freed at frame pop, so a dangling
  // frame pointer keeps addressing a block whose META the runtime
  // rebound — the stack use-after-return detection window.
  LowFatHeap Heap;
  StackPool::Options Opts;
  Opts.QuarantineBytes = 1 << 12;
  StackPool Stack(Heap, 0, Opts);
  // An outer "main" frame keeps the program alive: the quarantine only
  // holds blocks while some frame remains (it drains once the pool
  // empties — no frame left for a pointer to dangle out of).
  Stack.allocate(16, /*Retire=*/false);
  size_t Mark = Stack.mark();
  void *Escapes = Stack.allocate(64, /*Retire=*/true);
  void *Plain = Stack.allocate(64, /*Retire=*/false);
  Stack.release(Mark);
  EXPECT_EQ(Stack.liveObjects(), 1u);
  EXPECT_EQ(Stack.quarantinedBlocks(), 1u)
      << "only the escaping slot is quarantined";
  EXPECT_GT(Stack.quarantinedBytes(), 0u);
  // The quarantined block still answers base(p)/size(p) queries.
  EXPECT_EQ(Heap.allocationBase(Escapes), Escapes);
  (void)Plain;

  // Overflowing the byte budget evicts oldest-first back to the heap.
  for (int I = 0; I < 256; ++I) {
    size_t M = Stack.mark();
    Stack.allocate(64, /*Retire=*/true);
    Stack.release(M);
  }
  EXPECT_LE(Stack.quarantinedBytes(), Opts.QuarantineBytes);
  EXPECT_GE(Stack.retiredBlocks(), 257u);

  // Popping the outermost frame ends the detection window: everything
  // returns to the heap and the pool is empty.
  Stack.release(0);
  EXPECT_EQ(Stack.liveObjects(), 0u);
  EXPECT_EQ(Stack.quarantinedBlocks(), 0u);
  EXPECT_EQ(Stack.quarantinedBytes(), 0u);
}

TEST(GlobalPoolTest, RegistersAndLooksUp) {
  LowFatHeap Heap;
  GlobalPool Globals(Heap);
  void *G = Globals.allocate(256, "my_global");
  EXPECT_TRUE(Heap.isLowFat(G));
  EXPECT_EQ(Globals.lookup("my_global"), G);
  EXPECT_EQ(Globals.lookup("missing"), nullptr);
  EXPECT_EQ(Globals.size(), 1u);
}
