//===- tests/concurrent_test.cpp - Concurrent runtime tests ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers the src/concurrent/ subsystem: the lock-free MPSC ErrorRing
/// (ordering, wraparound, overflow accounting, concurrent producers),
/// the ShardedHeap (disjoint per-shard sub-arenas with globally valid
/// base/size arithmetic), and the SessionPool (thread-affine checkout,
/// shard isolation, merged counters, cross-shard dedup through the
/// central drain, per-shard reset) plus the harness's multi-threaded
/// mode. Also exercised under -fsanitize=thread by the CI TSan job.
///
//===----------------------------------------------------------------------===//

#include "concurrent/ErrorRing.h"
#include "concurrent/SessionPool.h"
#include "concurrent/ShardedHeap.h"
#include "resilience/Fault.h"
#include "workloads/Harness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::concurrent;

namespace {

SessionOptions quietOptions(CheckPolicy Policy = CheckPolicy::Full) {
  SessionOptions Options;
  Options.Policy = Policy;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

PoolOptions quietPool(unsigned Shards,
                      CheckPolicy Policy = CheckPolicy::Full) {
  PoolOptions Options;
  Options.Shards = Shards;
  Options.Policy = Policy;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

//===----------------------------------------------------------------------===//
// ErrorRing
//===----------------------------------------------------------------------===//

ErrorInfo boundsEvent(int64_t Offset) {
  ErrorInfo Info;
  Info.Kind = ErrorKind::BoundsError;
  Info.Offset = Offset;
  return Info;
}

TEST(ErrorRingTest, FifoOrderAndWraparound) {
  ErrorRing Ring(4); // Power of two; forces several laps below.
  EXPECT_EQ(Ring.capacity(), 4u);

  ErrorInfo Out;
  EXPECT_FALSE(Ring.tryPop(Out)) << "empty ring pops nothing";

  for (int Lap = 0; Lap < 5; ++Lap) {
    for (int I = 0; I < 3; ++I)
      ASSERT_TRUE(Ring.tryPush(boundsEvent(Lap * 10 + I)));
    for (int I = 0; I < 3; ++I) {
      ASSERT_TRUE(Ring.tryPop(Out));
      EXPECT_EQ(Out.Offset, Lap * 10 + I);
    }
  }
  EXPECT_EQ(Ring.overflows(), 0u);
}

TEST(ErrorRingTest, FullRingCountsOverflows) {
  ErrorRing Ring(2);
  EXPECT_TRUE(Ring.tryPush(boundsEvent(0)));
  EXPECT_TRUE(Ring.tryPush(boundsEvent(1)));
  EXPECT_FALSE(Ring.tryPush(boundsEvent(2)));
  EXPECT_FALSE(Ring.tryPush(boundsEvent(3)));
  EXPECT_EQ(Ring.overflows(), 2u);

  ErrorInfo Out;
  ASSERT_TRUE(Ring.tryPop(Out));
  EXPECT_EQ(Out.Offset, 0);
  EXPECT_TRUE(Ring.tryPush(boundsEvent(4))) << "slot freed by pop";
}

TEST(ErrorRingTest, CapacityRoundsUpToPowerOfTwo) {
  ErrorRing Ring(5);
  EXPECT_EQ(Ring.capacity(), 8u);
  ErrorRing Tiny(0);
  EXPECT_EQ(Tiny.capacity(), 2u);
}

TEST(ErrorRingTest, ConcurrentProducersLoseNothing) {
  constexpr unsigned Producers = 4;
  constexpr unsigned PerProducer = 5000;
  ErrorRing Ring(256);

  std::vector<ErrorInfo> Drained;
  Drained.reserve(Producers * PerProducer);
  std::atomic<unsigned> LiveProducers{Producers};

  std::thread Consumer([&] {
    ErrorInfo Out;
    for (;;) {
      // Read quiescence *before* the failed pop: if the ring is empty
      // after all producers were already done, nothing can arrive.
      bool Quiescent =
          LiveProducers.load(std::memory_order_acquire) == 0;
      if (Ring.tryPop(Out)) {
        Drained.push_back(Out);
        continue;
      }
      if (Quiescent)
        break;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> Threads;
  for (unsigned P = 0; P < Producers; ++P) {
    Threads.emplace_back([&, P] {
      for (unsigned I = 0; I < PerProducer; ++I) {
        // Spin until accepted: producers outpace the consumer at
        // times, and this test wants exact accounting.
        while (!Ring.tryPush(boundsEvent(
            static_cast<int64_t>(P) * PerProducer + I)))
          std::this_thread::yield();
      }
      LiveProducers.fetch_sub(1, std::memory_order_release);
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Consumer.join();

  ASSERT_EQ(Drained.size(), size_t(Producers) * PerProducer);
  // Every event arrives exactly once, and each producer's events stay
  // in program order.
  std::vector<int64_t> PerProducerNext(Producers, 0);
  std::set<int64_t> Seen;
  for (const ErrorInfo &Info : Drained) {
    ASSERT_TRUE(Seen.insert(Info.Offset).second) << "duplicate event";
    auto P = static_cast<unsigned>(Info.Offset / PerProducer);
    int64_t Index = Info.Offset % PerProducer;
    EXPECT_EQ(Index, PerProducerNext[P]) << "producer order broken";
    PerProducerNext[P] = Index + 1;
  }
}

//===----------------------------------------------------------------------===//
// ShardedHeap
//===----------------------------------------------------------------------===//

TEST(ShardedHeapTest, ShardsAllocateFromDisjointSubArenas) {
  ShardedHeap Heap(4);
  ASSERT_EQ(Heap.numShards(), 4u);

  for (unsigned S = 0; S < 4; ++S) {
    HeapShard Shard = Heap.shard(S);
    void *P = Shard.allocate(100);
    ASSERT_TRUE(Heap.heap().isLowFat(P));
    EXPECT_EQ(Heap.heap().shardOf(P), S)
        << "block must land in the allocating shard's sub-arena";
    Shard.deallocate(P);
  }
}

TEST(ShardedHeapTest, BaseAndSizeAreGlobalAcrossShards) {
  ShardedHeap Heap(4);
  // Allocate on shard 2, query through shard 0's view: the low-fat
  // arithmetic is address-based and shard-blind.
  char *P = static_cast<char *>(Heap.shard(2).allocate(100));
  HeapShard Other = Heap.shard(0);
  size_t Size = Other.size(P);
  EXPECT_GE(Size, 100u);
  EXPECT_EQ(Other.base(P), P);
  for (size_t Off : {size_t(1), size_t(50), size_t(99), Size - 1}) {
    EXPECT_EQ(Other.base(P + Off), P) << Off;
    EXPECT_EQ(Other.size(P + Off), Size) << Off;
  }
  Other.deallocate(P); // Cross-shard free is legal.
  EXPECT_EQ(Heap.stats().NumFrees, 1u);
}

TEST(ShardedHeapTest, ShardZeroResolvesRequestedCount) {
  EXPECT_GE(ShardedHeap::resolveShardCount(0), 1u);
  EXPECT_EQ(ShardedHeap::resolveShardCount(3), 3u);
  EXPECT_EQ(ShardedHeap::resolveShardCount(1 << 20),
            lowfat::MaxHeapShards);
}

TEST(ShardedHeapTest, ConcurrentShardsNeverShareABlock) {
  // The satellite requirement: multi-thread alloc/free with quarantine
  // enabled; no block may be handed to two threads at once, and
  // base/size arithmetic must hold for pointers allocated on other
  // shards.
  constexpr unsigned Threads = 4;
  constexpr unsigned Iterations = 3000;
  lowfat::HeapOptions Base;
  Base.QuarantineBytes = 1 << 16; // Delay reuse on every shard.
  ShardedHeap Heap(Threads, Base);

  // Every pointer ever handed out, per thread. Threads never free, so
  // all blocks stay live and any overlap is a double hand-out.
  std::vector<std::vector<char *>> Handed(Threads);
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      HeapShard Shard = Heap.shard(T);
      Handed[T].reserve(Iterations);
      for (unsigned I = 0; I < Iterations; ++I) {
        size_t Size = 1 + (I * 37 + T * 101) % 300;
        auto *P = static_cast<char *>(Shard.allocate(Size));
        // The block is writable and class-sized.
        P[0] = static_cast<char>(T);
        ASSERT_GE(Shard.size(P), Size);
        ASSERT_EQ(Shard.base(P), P);
        Handed[T].push_back(P);
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();

  // Global uniqueness across all threads.
  std::vector<char *> All;
  for (auto &V : Handed)
    All.insert(All.end(), V.begin(), V.end());
  std::sort(All.begin(), All.end());
  EXPECT_EQ(std::adjacent_find(All.begin(), All.end()), All.end())
      << "a block was handed to two threads";

  // Cross-shard arithmetic: thread 0's view resolves every other
  // thread's pointers.
  HeapShard View = Heap.shard(0);
  for (unsigned T = 0; T < Threads; ++T) {
    for (char *P : Handed[T]) {
      EXPECT_EQ(View.base(P + 1), P);
      EXPECT_EQ(Heap.heap().shardOf(P), T);
    }
  }
  for (char *P : All)
    View.deallocate(P);
}

TEST(ShardedHeapTest, ConcurrentAllocFreeWithQuarantine) {
  constexpr unsigned Threads = 4;
  constexpr unsigned Iterations = 2000;
  lowfat::HeapOptions Base;
  Base.QuarantineBytes = 1 << 14;
  ShardedHeap Heap(Threads, Base);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T) {
    Workers.emplace_back([&, T] {
      HeapShard Shard = Heap.shard(T);
      std::vector<void *> Live;
      for (unsigned I = 0; I < Iterations; ++I) {
        void *P = Shard.allocate(1 + (I * 13) % 500);
        ASSERT_EQ(Shard.base(P), P);
        Live.push_back(P);
        if (Live.size() > 16) {
          Shard.deallocate(Live.front());
          Live.erase(Live.begin());
        }
      }
      for (void *P : Live)
        Shard.deallocate(P);
    });
  }
  for (std::thread &W : Workers)
    W.join();
  lowfat::HeapStats Stats = Heap.stats();
  EXPECT_EQ(Stats.NumAllocs, Stats.NumFrees);
  EXPECT_EQ(Stats.BlockBytesInUse, 0u) << "everything was freed";
  // Each shard parks at most its quarantine budget (plus one block of
  // slack while evicting).
  EXPECT_LE(Stats.QuarantinedBytes,
            uint64_t(Threads) * ((1 << 14) + 1024));
  // An armed quarantine overrun (EFFSAN_FAULTS) evicts a shard's whole
  // quarantine at a flush, so every shard may end empty; unarmed, the
  // budget holds and something stays parked.
  if (resilience::FaultRegistry::instance().fires(
          resilience::FaultPoint::HeapQuarantineOverrun) == 0)
    EXPECT_GT(Stats.QuarantinedBytes, 0u)
        << "the quarantine must actually delay reuse";
}

TEST(ShardedHeapTest, ResetShardLeavesSiblingsIntact) {
  ShardedHeap Heap(2);
  char *A = static_cast<char *>(Heap.shard(0).allocate(64));
  char *B = static_cast<char *>(Heap.shard(1).allocate(64));
  B[0] = 42;

  Heap.resetShard(0);
  EXPECT_FALSE(Heap.heap().isLowFat(A))
      << "reset shard's pointers degrade to legacy";
  ASSERT_TRUE(Heap.heap().isLowFat(B));
  EXPECT_EQ(Heap.shard(1).base(B), B);
  EXPECT_EQ(B[0], 42) << "sibling shard's memory untouched";

  // The shard's sub-arena is recycled from the start.
  void *A2 = Heap.shard(0).allocate(64);
  EXPECT_EQ(A2, static_cast<void *>(A)) << "bump pointer rewound";
  Heap.shard(0).deallocate(A2);
  Heap.shard(1).deallocate(B);
}

//===----------------------------------------------------------------------===//
// SessionPool
//===----------------------------------------------------------------------===//

struct Victim {
  int Data[4];
};

} // namespace

EFFECTIVE_REFLECT(Victim, Data);

namespace {

/// One type error + Events bounds events against the shard session.
void misbehave(Sanitizer &S, unsigned Events) {
  TypeContext &Ctx = S.types();
  void *P = S.malloc(sizeof(Victim), TypeOf<Victim>::get(Ctx));
  S.typeCheck(P, Ctx.getDouble()); // Type confusion.
  Bounds B = S.boundsGet(P);
  auto *Raw = static_cast<char *>(P);
  for (unsigned I = 0; I < Events; ++I)
    S.boundsCheck(Raw + sizeof(Victim) + 4, 4, B); // Same bucket.
  S.free(P);
}

TEST(SessionPoolTest, ShardsAreIsolatedAndCountersMerge) {
  SessionPool Pool(quietPool(3));
  ASSERT_EQ(Pool.numShards(), 3u);

  // Distinct per-shard work; counters must not bleed.
  std::thread T0([&] { misbehave(Pool.shard(0), 1); });
  std::thread T1([&] { misbehave(Pool.shard(1), 2); });
  T0.join();
  T1.join();

  EXPECT_EQ(Pool.shard(0).counters().snapshot().TypeChecks, 1u);
  EXPECT_EQ(Pool.shard(1).counters().snapshot().TypeChecks, 1u);
  EXPECT_EQ(Pool.shard(2).counters().snapshot().TypeChecks, 0u);

  CheckCounters::Snapshot Merged = Pool.counters();
  EXPECT_EQ(Merged.TypeChecks, 2u);
  EXPECT_EQ(Merged.BoundsGets, 2u);
  EXPECT_EQ(Merged.BoundsChecks, 3u);
}

TEST(SessionPoolTest, CentralDrainDedupsAcrossShards) {
  SessionPool Pool(quietPool(4));
  // Every shard trips the same two logical issues (same types, same
  // offsets). The pool-level story matches the paper's: one bucket per
  // distinct issue, all events counted.
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < 4; ++T)
    Workers.emplace_back([&, T] { misbehave(Pool.shard(T), 1); });
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(Pool.issuesFound(), 2u)
      << "same issue from four shards buckets once";
  EXPECT_EQ(Pool.reporter().numEvents(), 8u) << "all events counted";
  // Shard reporters never bucket anything themselves.
  EXPECT_EQ(Pool.shard(0).reporter().numIssues(), 0u);
}

TEST(SessionPoolTest, RingOverflowFallsBackWithoutLosingEvents) {
  PoolOptions Options = quietPool(2);
  Options.ErrorRingCapacity = 4; // Tiny: force overflow.
  SessionPool Pool(Options);

  constexpr unsigned Events = 500;
  std::thread A([&] { misbehave(Pool.shard(0), Events); });
  std::thread B([&] { misbehave(Pool.shard(1), Events); });
  A.join();
  B.join();
  Pool.drain();

  // 2 shards x (1 type_check + 1 bounds error x Events).
  EXPECT_EQ(Pool.reporter().numEvents(), 2u * (Events + 1));
  EXPECT_GT(Pool.ringOverflows(), 0u) << "the tiny ring must overflow";
}

TEST(SessionPoolTest, CheckoutIsThreadAffine) {
  SessionPool Pool(quietPool(2));

  // Fresh threads (fresh thread-local affinity) land round-robin and
  // stick to their shard on every re-checkout.
  unsigned A = ~0u, B = ~0u;
  std::thread T1([&] {
    A = Pool.checkoutIndex();
    for (int I = 0; I < 10; ++I)
      EXPECT_EQ(Pool.checkoutIndex(), A) << "sticky per thread";
    EXPECT_EQ(&Pool.checkout(), &Pool.shard(A));
  });
  T1.join();
  std::thread T2([&] { B = Pool.checkoutIndex(); });
  T2.join();
  EXPECT_LT(A, 2u);
  EXPECT_LT(B, 2u);
  EXPECT_NE(A, B)
      << "second thread lands on the other shard (round-robin)";
}

TEST(SessionPoolTest, CrossShardPointersCheckCorrectly) {
  SessionPool Pool(quietPool(2));
  TypeContext &Ctx = Pool.types();
  const TypeInfo *IntTy = Ctx.getInt();

  // Shard 0 allocates; shard 1 checks the pointer: one shared arena,
  // so base/size/META resolution works from any shard's session.
  auto *P = static_cast<int *>(
      Pool.shard(0).malloc(10 * sizeof(int), IntTy));
  Bounds B = Pool.shard(1).typeCheck(P, IntTy);
  EXPECT_EQ(B, Bounds::forObject(P, 10 * sizeof(int)));
  EXPECT_EQ(Pool.shard(1).dynamicTypeOf(P), IntTy);

  // And shard 1 catches an overflow on shard 0's object.
  Pool.shard(1).boundsCheck(P + 10, sizeof(int), B);
  EXPECT_EQ(Pool.issuesFound(), 1u);
  Pool.shard(1).free(P); // Cross-shard free.
}

TEST(SessionPoolTest, CrossShardReallocKeepsOwningShardAffinity) {
  SessionPool Pool(quietPool(2));
  TypeContext &Ctx = Pool.types();
  const TypeInfo *IntTy = Ctx.getInt();
  lowfat::LowFatHeap &Heap = Pool.heap().heap();

  // Shard 0 allocates; shard 1's session grows the block. The fresh
  // block must be carved from shard 0's slice (the owner), not shard
  // 1's — otherwise the object migrates into the calling tenant's
  // footprint and a later resetShard(0) would miss it (or resetShard(1)
  // would free it from under shard 0's tenant).
  auto *P = static_cast<int *>(Pool.shard(0).malloc(8 * sizeof(int), IntTy));
  ASSERT_TRUE(Heap.isLowFat(P));
  ASSERT_EQ(Heap.shardOf(P), 0u);
  for (int I = 0; I != 8; ++I)
    P[I] = I;

  auto *Grown = static_cast<int *>(
      Pool.shard(1).realloc(P, 64 * sizeof(int), IntTy));
  ASSERT_TRUE(Heap.isLowFat(Grown));
  EXPECT_EQ(Heap.shardOf(Grown), 0u) << "realloc migrated the block off "
                                        "its owning shard";
  for (int I = 0; I != 8; ++I)
    EXPECT_EQ(Grown[I], I);
  EXPECT_EQ(Pool.shard(1).dynamicTypeOf(Grown), IntTy);

  // Shrinking through yet another cross-shard call stays put too.
  auto *Shrunk = static_cast<int *>(
      Pool.shard(1).realloc(Grown, 2 * sizeof(int), IntTy));
  ASSERT_TRUE(Heap.isLowFat(Shrunk));
  EXPECT_EQ(Heap.shardOf(Shrunk), 0u);
  EXPECT_EQ(Shrunk[1], 1);
  Pool.shard(0).free(Shrunk);
  EXPECT_EQ(Pool.issuesFound(), 0u);
}

TEST(SessionPoolTest, ResetShardRecyclesArenaAndCounters) {
  SessionPool Pool(quietPool(2));
  TypeContext &Ctx = Pool.types();
  const TypeInfo *IntTy = Ctx.getInt();

  // Tenant 1 on shard 0; a long-lived object on shard 1.
  auto *Survivor = static_cast<int *>(
      Pool.shard(1).malloc(4 * sizeof(int), IntTy));
  Survivor[0] = 7;
  void *First = Pool.shard(0).malloc(64, IntTy);
  misbehave(Pool.shard(0), 3);
  EXPECT_GT(Pool.shard(0).counters().snapshot().BoundsChecks, 0u);

  Pool.resetShard(0);

  // Fresh tenant: zeroed counters, recycled sub-arena (the very first
  // address is served again), sibling shard untouched.
  CheckCounters::Snapshot Snap = Pool.shard(0).counters().snapshot();
  EXPECT_EQ(Snap.TypeChecks + Snap.BoundsChecks + Snap.BoundsGets, 0u);
  void *Fresh = Pool.shard(0).malloc(64, IntTy);
  EXPECT_EQ(Fresh, First) << "arena slice rewound for reuse";
  EXPECT_EQ(Survivor[0], 7);
  EXPECT_EQ(Pool.shard(1).dynamicTypeOf(Survivor), IntTy);
  Pool.shard(0).free(Fresh);
  Pool.shard(1).free(Survivor);
}

TEST(SessionPoolTest, SiteAttributionSurvivesTheErrorRingDrain) {
  // Every shard errs at a *registered* site from its own thread; the
  // events cross the lock-free ring as plain values and the central
  // drainer must still render the source-located report — the SiteInfo
  // pointers target the pool-wide registry, not any shard state.
  SessionPool Pool(quietPool(4));
  TypeContext &Ctx = Pool.types();
  const TypeInfo *IntTy = Ctx.getInt();

  SiteTable Table;
  Table.File = "mt.c";
  Table.Entries.push_back({CheckSiteKind::BoundsCheck, SourceLoc{7, 3},
                           "worker", nullptr});
  // Registration through one shard session lands in the pool-wide
  // registry (RuntimeOptions::SharedSites).
  SiteId Base = Pool.shard(0).registerSiteTable(Table);
  ASSERT_NE(Base, NoSite);
  EXPECT_EQ(Pool.siteTables().numTables(), 1u);

  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < 4; ++T) {
    Workers.emplace_back([&, T] {
      Sanitizer &S = Pool.shard(T);
      auto *P = static_cast<int *>(S.malloc(8 * sizeof(int), IntTy));
      Bounds B = S.typeCheck(P, IntTy);
      S.boundsCheck(P + 8, sizeof(int), B, Base); // Overflow at site 0.
      S.free(P);
    });
  }
  for (std::thread &W : Workers)
    W.join();

  Pool.drain();
  // Four shards, one site, one offense: one pool-wide issue, four
  // events, attributed to the registered location.
  EXPECT_EQ(Pool.reporter().numIssues(), 1u);
  EXPECT_EQ(Pool.reporter().numEventsAtSite(Base), 4u);
  EXPECT_TRUE(Pool.reporter().hasIssueMatching("mt.c:7:3"));
  EXPECT_TRUE(Pool.reporter().hasIssueMatching("in worker"));
  // The rendered message is the attributed form — no raw pointer.
  for (const ErrorBucket &B : Pool.reporter().buckets())
    EXPECT_EQ(B.Message.find("pointer 0x"), std::string::npos)
        << B.Message;
}

//===----------------------------------------------------------------------===//
// Site-indexed type-check inline caches under concurrency (PR 3)
//===----------------------------------------------------------------------===//

TEST(SiteCacheConcurrencyTest, SharedSessionSeqlockIsRaceFreeAndCorrect) {
  // The worst case for the seqlock: several threads hammer ONE session
  // at ONE site slot with two alternating resolutions, so concurrent
  // fills and probes constantly interleave. Every returned bounds
  // value must be one of the two correct results (a torn read must be
  // impossible); TSan (the CI job runs this file) verifies the
  // synchronization discipline itself.
  Sanitizer S(quietOptions());
  TypeContext &Ctx = S.types();
  RecordType *Rec = RecordBuilder(Ctx, TypeKind::Struct, "pair")
                        .addField("a", Ctx.getArray(Ctx.getInt(), 4))
                        .addField("b", Ctx.getDouble())
                        .finish();
  char *P = static_cast<char *>(S.malloc(Rec->size(), Rec));
  Runtime &RT = S.runtime();

  const Bounds IntRef = RT.typeCheckUncached(P, Ctx.getInt());
  const Bounds DblRef = RT.typeCheckUncached(P + 16, Ctx.getDouble());
  const SiteId Site = 5;

  std::atomic<bool> Wrong{false};
  std::vector<std::thread> Threads;
  for (int W = 0; W < 4; ++W) {
    Threads.emplace_back([&] {
      for (int I = 0; I < 4000; ++I) {
        Bounds BI = RT.typeCheck(P, Ctx.getInt(), Site);
        Bounds BD = RT.typeCheck(P + 16, Ctx.getDouble(), Site);
        if (BI != IntRef || BD != DblRef)
          Wrong.store(true, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_FALSE(Wrong.load()) << "a probe returned torn/stale bounds";
  EXPECT_EQ(S.reporter().numIssues(), 0u);
  S.free(P);
}

TEST(SiteCacheConcurrencyTest, PoolShardCachesAreIndependent) {
  SessionPool Pool(quietPool(2));
  const TypeInfo *IntTy = Pool.types().getInt();

  // Warm shard 0's cache; shard 1 must stay cold.
  auto *P = static_cast<int *>(Pool.shard(0).malloc(64, IntTy));
  for (int I = 0; I < 5; ++I)
    Pool.shard(0).typeCheck(P, IntTy);
  auto C0 = Pool.shard(0).counters().snapshot();
  auto C1 = Pool.shard(1).counters().snapshot();
  EXPECT_EQ(C0.TypeCheckCacheMisses, 1u);
  EXPECT_EQ(C0.TypeCheckCacheHits, 4u);
  EXPECT_EQ(C1.TypeCheckCacheHits + C1.TypeCheckCacheMisses, 0u);

  // Merged counters fold the hit/miss columns like every other field.
  CheckCounters::Snapshot Merged = Pool.counters();
  EXPECT_EQ(Merged.TypeCheckCacheHits, 4u);
  EXPECT_EQ(Merged.TypeCheckCacheMisses, 1u);

  // resetShard drops the shard's cache with the rest of its state: the
  // recycled address must re-fill, not replay.
  Pool.resetShard(0);
  auto *Q = static_cast<int *>(Pool.shard(0).malloc(64, IntTy));
  ASSERT_EQ(static_cast<void *>(Q), static_cast<void *>(P));
  Pool.shard(0).typeCheck(Q, IntTy);
  auto After = Pool.shard(0).counters().snapshot();
  EXPECT_EQ(After.TypeCheckCacheHits, 0u);
  EXPECT_EQ(After.TypeCheckCacheMisses, 1u);
  Pool.shard(0).free(Q);
}

TEST(SiteCacheConcurrencyTest, PoolOptionSizesAndDisablesShardCaches) {
  PoolOptions Options = quietPool(2);
  Options.SiteCacheEntries = 0; // Disabled on every shard.
  SessionPool Pool(Options);
  const TypeInfo *IntTy = Pool.types().getInt();
  auto *P = static_cast<int *>(Pool.shard(0).malloc(64, IntTy));
  for (int I = 0; I < 3; ++I)
    Pool.shard(0).typeCheck(P, IntTy);
  auto C = Pool.shard(0).counters().snapshot();
  EXPECT_EQ(C.TypeCheckCacheHits, 0u);
  EXPECT_EQ(C.TypeCheckCacheMisses, 3u);
  Pool.shard(0).free(P);
}

TEST(SessionPoolTest, PolicyAppliesToEveryShard) {
  SessionPool Pool(quietPool(2, CheckPolicy::BoundsOnly));
  TypeContext &Ctx = Pool.types();
  auto *P = static_cast<int *>(
      Pool.shard(0).malloc(4 * sizeof(int), Ctx.getInt()));
  // BoundsOnly: typeCheck degrades to bounds_get — no type error even
  // for a confused type.
  Pool.shard(0).typeCheck(P, Ctx.getDouble());
  EXPECT_EQ(Pool.issuesFound(), 0u);
  EXPECT_EQ(Pool.counters().BoundsGets, 1u);
  EXPECT_EQ(Pool.counters().TypeChecks, 0u);
  Pool.shard(0).free(P);
}

//===----------------------------------------------------------------------===//
// Read-mostly site registry: lock-free resolve under registration
//===----------------------------------------------------------------------===//

TEST(SiteRegistrySnapshotTest, ResolveRacesRegistrationSafely) {
  // The error-storm scenario the snapshot design exists for: worker
  // threads resolve sites continuously (the error slow path) while
  // another thread keeps registering new module tables. Every resolve
  // must return either null (id not yet published) or a permanently
  // valid SiteInfo — and previously returned pointers must stay
  // readable forever (snapshots retire, never free). TSan (the CI job
  // runs this file) checks the synchronization discipline itself.
  SiteTableRegistry Registry;
  constexpr unsigned Tables = 64;
  constexpr unsigned SitesPerTable = 8;

  std::atomic<bool> Stop{false};
  std::atomic<SiteId> Published{0};
  std::vector<std::thread> Readers;
  for (int W = 0; W < 3; ++W) {
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire)) {
        SiteId Max = Published.load(std::memory_order_acquire);
        for (SiteId S = 0; S < Max + 4; ++S) {
          const SiteInfo *Info = Registry.resolve(S);
          if (S < Max) {
            ASSERT_NE(Info, nullptr) << "published site vanished";
            ASSERT_EQ(Info->Site, S);
            ASSERT_EQ(Info->Line, S % SitesPerTable + 1);
          }
          if (Info) {
            // The strings must be dereferenceable no matter how many
            // snapshots have been superseded since.
            ASSERT_NE(Info->File[0], '\0');
          }
        }
      }
    });
  }

  for (unsigned T = 0; T < Tables; ++T) {
    SiteTable Table;
    Table.File = "storm.c";
    for (unsigned I = 0; I < SitesPerTable; ++I)
      Table.Entries.push_back(
          {CheckSiteKind::BoundsCheck, SourceLoc{I + 1, 1}, "f",
           nullptr});
    SiteId Base = Registry.registerTable(Table, /*Key=*/T + 1);
    ASSERT_EQ(Base, T * SitesPerTable);
    Published.store(Base + SitesPerTable, std::memory_order_release);
  }
  Stop.store(true, std::memory_order_release);
  for (std::thread &R : Readers)
    R.join();
  EXPECT_EQ(Registry.numTables(), Tables);
  EXPECT_EQ(Registry.numSites(), uint64_t(Tables) * SitesPerTable);
}

//===----------------------------------------------------------------------===//
// Pool wiring of the allocator fast-path knobs (ABI 1.4 options)
//===----------------------------------------------------------------------===//

TEST(SessionPoolTest, HeapOptionsWireMagazinesAndStealingThrough) {
  PoolOptions Options = quietPool(2);
  Options.Heap.MagazineSize = 8;
  Options.Heap.EnableWorkStealing = true;
  SessionPool Pool(Options);
  EXPECT_EQ(Pool.heap().heap().magazineSize(), 8u);
  EXPECT_TRUE(Pool.heap().heap().workStealingEnabled());

  // Churn through a shard session: the steady state must be served by
  // the magazines (hits visible in the shard's heap stats).
  const TypeInfo *IntTy = Pool.types().getInt();
  for (int I = 0; I < 50; ++I) {
    void *P = Pool.shard(0).malloc(64, IntTy);
    Pool.shard(0).free(P);
  }
  lowfat::HeapStats Stats = Pool.heap().shardStats(0);
  EXPECT_GT(Stats.MagazineHits, 40u);
  EXPECT_EQ(Stats.ExhaustFallbacks, 0u);
}

TEST(SessionPoolTest, ResetShardReclaimsWorkerMagazines) {
  // The pool-level stale-TLS regression: a worker thread's magazine
  // caches blocks of its shard; the supervisor recycles the shard for
  // a new tenant; the worker's next allocation must not replay a
  // stale block that now belongs to the tenant.
  PoolOptions Options = quietPool(2);
  Options.Heap.MagazineSize = 8;
  SessionPool Pool(Options);
  const TypeInfo *IntTy = Pool.types().getInt();

  void *A = nullptr, *B = nullptr;
  std::atomic<int> Phase{0};
  std::thread Worker([&] {
    Sanitizer &S = Pool.shard(0);
    A = S.malloc(64, IntTy);
    B = S.malloc(64, IntTy);
    S.free(B); // Parks in the worker's magazine.
    Phase.store(1, std::memory_order_release);
    while (Phase.load(std::memory_order_acquire) != 2)
      std::this_thread::yield();
    void *D = S.malloc(64, IntTy);
    EXPECT_NE(D, A) << "stale magazine block aliased the new tenant";
    EXPECT_NE(D, B) << "stale magazine block aliased the new tenant";
  });
  while (Phase.load(std::memory_order_acquire) != 1)
    std::this_thread::yield();

  Pool.resetShard(0);
  void *C1 = Pool.shard(0).malloc(64, IntTy);
  void *C2 = Pool.shard(0).malloc(64, IntTy);
  EXPECT_EQ(C1, A) << "recycled slice serves from its start";
  EXPECT_EQ(C2, B);
  Phase.store(2, std::memory_order_release);
  Worker.join();
}

//===----------------------------------------------------------------------===//
// Multi-threaded harness mode
//===----------------------------------------------------------------------===//

const workloads::Workload &findWorkload(const char *Name) {
  for (const workloads::Workload &W : workloads::specWorkloads())
    if (std::string_view(W.Info.Name) == Name)
      return W;
  ADD_FAILURE() << "workload not found: " << Name;
  return workloads::specWorkloads().front();
}

TEST(HarnessMTTest, FanOutMatchesSingleThreadedRun) {
  const workloads::Workload &W = findWorkload("mcf"); // Clean kernel.
  workloads::RunStats Single =
      workloads::runWorkload(W, workloads::PolicyKind::Full, 2);
  workloads::RunStats MT =
      workloads::runWorkloadMT(W, workloads::PolicyKind::Full, 2, 3);

  EXPECT_EQ(MT.Checksum, Single.Checksum)
      << "every shard must reproduce the deterministic kernel result";
  // Merged counters are exactly N single runs.
  EXPECT_EQ(MT.Checks.TypeChecks, 3 * Single.Checks.TypeChecks);
  EXPECT_EQ(MT.Checks.BoundsChecks, 3 * Single.Checks.BoundsChecks);
  EXPECT_EQ(MT.Issues, Single.Issues);
}

TEST(HarnessMTTest, SeededIssuesDedupAcrossShards) {
  // A workload with seeded bugs: every shard finds the same issues;
  // the pool's central reporter buckets them once, like one process
  // would (Figure 7 semantics).
  const workloads::Workload &W = findWorkload("perlbench");
  ASSERT_GT(W.Info.SeededIssues, 0u);
  workloads::RunStats Single =
      workloads::runWorkload(W, workloads::PolicyKind::Full, 1);
  workloads::RunStats MT =
      workloads::runWorkloadMT(W, workloads::PolicyKind::Full, 1, 2);
  EXPECT_EQ(MT.Issues, Single.Issues);
  EXPECT_EQ(MT.Checksum, Single.Checksum);
  EXPECT_GE(MT.ErrorEvents, 2 * Single.ErrorEvents)
      << "events accumulate across shards even though issues dedup";
}

} // namespace
