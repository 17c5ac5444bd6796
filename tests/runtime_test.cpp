//===- tests/runtime_test.cpp - Runtime (type_check et al.) tests ---------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers Figure 6 (type_malloc / type_check), Example 5, the FREE type
/// (use-after-free / double-free / reuse-after-free semantics), legacy
/// pointers, coercions, bucketing and the counting/logging modes.
///
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "core/Layout.h"

#include <gtest/gtest.h>

#include <barrier>
#include <cstring>
#include <thread>
#include <vector>

using namespace effective;

namespace {

class RuntimeTest : public ::testing::Test {
protected:
  RuntimeTest() : RT(Ctx, quietOptions()) {
    // The paper's Example 2 types with its padding-free layout.
    S = Ctx.createRecord(TypeKind::Struct, "S");
    T = Ctx.createRecord(TypeKind::Struct, "T");
    FieldInfo SFields[] = {
        {"a", Ctx.getArray(Ctx.getInt(), 3), 0, false},
        {"s", Ctx.getPointer(Ctx.getChar()), 12, false},
    };
    Ctx.defineRecord(S, SFields, 20, 4);
    FieldInfo TFields[] = {
        {"f", Ctx.getFloat(), 0, false},
        {"t", S, 4, false},
    };
    Ctx.defineRecord(T, TFields, 24, 4);
  }

  static RuntimeOptions quietOptions() {
    RuntimeOptions Options;
    Options.Reporter.Mode = ReportMode::Count;
    return Options;
  }

  TypeContext Ctx;
  Runtime RT;
  RecordType *S = nullptr;
  RecordType *T = nullptr;
};

} // namespace

//===----------------------------------------------------------------------===//
// Typed allocation
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, AllocateBindsTypeAndSize) {
  void *P = RT.allocate(100 * sizeof(int), Ctx.getInt());
  const MetaHeader *Meta = RT.metaOf(P);
  ASSERT_NE(Meta, nullptr);
  EXPECT_EQ(Meta->Type, Ctx.getInt());
  EXPECT_EQ(Meta->Size, 100 * sizeof(int));
  EXPECT_EQ(RT.dynamicTypeOf(P), Ctx.getInt());
  Bounds B = RT.allocationBounds(P);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi - B.Lo, 100 * sizeof(int));
  RT.deallocate(P);
}

TEST_F(RuntimeTest, MetaIsInvisibleToTheObject) {
  // Writing the full object must not corrupt the META header.
  char *P = static_cast<char *>(RT.allocate(64, Ctx.getChar()));
  std::memset(P, 0xff, 64);
  EXPECT_EQ(RT.dynamicTypeOf(P), Ctx.getChar());
  EXPECT_EQ(RT.metaOf(P)->Size, 64u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CallocZeroes) {
  int *P = static_cast<int *>(RT.allocateZeroed(16, sizeof(int),
                                                Ctx.getInt()));
  for (int I = 0; I < 16; ++I)
    EXPECT_EQ(P[I], 0) << I;
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ReallocCopiesAndRebinds) {
  int *P = static_cast<int *>(RT.allocate(4 * sizeof(int), Ctx.getInt()));
  for (int I = 0; I < 4; ++I)
    P[I] = I + 1;
  auto *Q = static_cast<int *>(
      RT.reallocate(P, 100 * sizeof(int), Ctx.getInt()));
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Q[I], I + 1) << I;
  EXPECT_EQ(RT.metaOf(Q)->Size, 100 * sizeof(int));
  // The old block is now FREE.
  EXPECT_TRUE(RT.dynamicTypeOf(P)->isFree());
  RT.deallocate(Q);
}

//===----------------------------------------------------------------------===//
// type_check: Example 5 and friends
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, Example5InteriorPointerCheck) {
  // Let p point to an object of type T; q = p + 12.
  char *P = static_cast<char *>(RT.allocate(24, T));
  char *Q = P + 12;
  // type_check(q, int[]) matches <int[3], 8>: bounds p+4 .. p+16.
  Bounds B = RT.typeCheck(Q, Ctx.getInt());
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P) + 4);
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 16);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // type_check(q, double[]) fails: no matching sub-object.
  Bounds W = RT.typeCheck(Q, Ctx.getDouble());
  EXPECT_TRUE(W.isWide());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CheckAtBaseReturnsAllocationBounds) {
  char *P = static_cast<char *>(RT.allocate(10 * 24, T)); // T[10]
  Bounds B = RT.typeCheck(P, T);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 10 * 24);
  // Element 7 also matches with full array bounds (T[] is incomplete).
  Bounds B7 = RT.typeCheck(P + 7 * 24, T);
  EXPECT_EQ(B7, B);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, SubObjectBoundsStopOverflow) {
  // The introduction's account example: an overflow of number[8] into
  // balance must be stopped by the narrowed bounds.
  RecordType *Account = RecordBuilder(Ctx, TypeKind::Struct, "account")
                            .addField("number", Ctx.getArray(Ctx.getInt(), 8))
                            .addField("balance", Ctx.getFloat())
                            .finish();
  char *P = static_cast<char *>(RT.allocate(Account->size(), Account));
  Bounds B = RT.typeCheck(P, Ctx.getInt()); // int* into number[8].
  EXPECT_EQ(B.Hi - B.Lo, 8 * sizeof(int))
      << "bounds must cover number[8] only, not balance";
  EXPECT_TRUE(B.contains(P + 7 * sizeof(int), sizeof(int)));
  EXPECT_FALSE(B.contains(P + 8 * sizeof(int), sizeof(int)))
      << "number[8] aliases balance and must be out of bounds";
  RT.boundsCheck(P + 8 * sizeof(int), sizeof(int), B);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, OneElementAllocationEndPointer) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  // One-past-the-end pointer may be formed and checked, but any access
  // through it must fail the bounds check.
  Bounds B = RT.typeCheck(P + 24, T);
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "one-past-the-end is not an error by itself";
  EXPECT_FALSE(B.contains(P + 24, 1));
  RT.deallocate(P);
}

TEST_F(RuntimeTest, PointerOutsideAllocationReports) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  // Far out-of-bounds input pointer (still within the low-fat region of
  // another block would be different; here beyond the alloc size but
  // within the block's size class).
  RT.typeCheck(P + 30, Ctx.getInt());
  EXPECT_GE(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, LegacyPointersGetWideBounds) {
  int Local[4] = {0, 1, 2, 3};
  Bounds B = RT.typeCheck(&Local[0], Ctx.getFloat());
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "legacy pointers are never type errors";
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.LegacyTypeChecks, 1u);
  EXPECT_EQ(C.TypeChecks, 1u);
}

TEST_F(RuntimeTest, UntypedAllocationGetsWideBounds) {
  void *P = RT.allocate(64, nullptr);
  Bounds B = RT.typeCheck(P, Ctx.getInt());
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

//===----------------------------------------------------------------------===//
// Coercions
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, CharCastResetsBoundsToAllocation) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  Bounds B = RT.typeCheck(P + 4, Ctx.getChar());
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 24);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CharBufferCoercesToAnyType) {
  // An allocation first used as char[] may later be read as any type
  // (the paper's second hash table lookup).
  char *P = static_cast<char *>(RT.allocate(64, Ctx.getChar()));
  Bounds B = RT.typeCheck(P + 8, Ctx.getInt());
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 64);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, VoidPointerCoercions) {
  RecordType *Holder = RecordBuilder(Ctx, TypeKind::Struct, "holder")
                           .addField("vp", Ctx.getPointer(Ctx.getVoid()))
                           .addField("x", Ctx.getLong())
                           .addField("ip", Ctx.getPointer(Ctx.getInt()))
                           .finish();
  char *P = static_cast<char *>(RT.allocate(Holder->size(), Holder));
  // A static (int*) matches the void* member at offset 0...
  RT.typeCheck(P + 0, Ctx.getPointer(Ctx.getInt()));
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // ...and a static (void*) matches the int* member at offset 16.
  RT.typeCheck(P + 16, Ctx.getPointer(Ctx.getVoid()));
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // But (float*) against the (int*) member is a type error (perlbench's
  // T* vs T** class of bugs must stay detectable; offset 16 is not
  // adjacent to any void* member, so no coercion applies).
  RT.typeCheck(P + 16, Ctx.getPointer(Ctx.getFloat()));
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  RT.deallocate(P);
}

//===----------------------------------------------------------------------===//
// FREE type: use-after-free, double free, reuse-after-free
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, UseAfterFreeDetected) {
  int *P = static_cast<int *>(RT.allocate(sizeof(int), Ctx.getInt()));
  RT.deallocate(P);
  EXPECT_TRUE(RT.dynamicTypeOf(P)->isFree());
  Bounds B = RT.typeCheck(P, Ctx.getInt());
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u);
}

TEST_F(RuntimeTest, DoubleFreeDetected) {
  int *P = static_cast<int *>(RT.allocate(sizeof(int), Ctx.getInt()));
  RT.deallocate(P);
  RT.deallocate(P);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::DoubleFree), 1u);
}

TEST_F(RuntimeTest, ReuseAfterFreeDifferentTypeDetected) {
  // Free an int block, reallocate (LIFO gives the same block) as float;
  // the dangling int* check now sees dynamic type float -> type error.
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  RT.deallocate(P);
  void *Q = RT.allocate(40, Ctx.getFloat());
  ASSERT_EQ(static_cast<void *>(P), Q) << "test requires block reuse";
  RT.typeCheck(P, Ctx.getInt());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u)
      << "reuse-after-free with a different type is a type error";
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, ReuseAfterFreeSameTypeIsMissed) {
  // The paper's documented partial coverage: same-type reuse passes.
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  RT.deallocate(P);
  void *Q = RT.allocate(40, Ctx.getInt());
  ASSERT_EQ(static_cast<void *>(P), Q);
  RT.typeCheck(P, Ctx.getInt());
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "same-type reuse-after-free is (by design) not detected";
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, ReallocOfFreedObjectReports) {
  int *P = static_cast<int *>(RT.allocate(sizeof(int), Ctx.getInt()));
  RT.deallocate(P);
  void *Q = RT.reallocate(P, 64, Ctx.getInt());
  EXPECT_NE(Q, nullptr);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u);
  RT.deallocate(Q);
}

//===----------------------------------------------------------------------===//
// Typed stack and globals
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, StackObjectsAreTyped) {
  size_t Mark = RT.stackMark();
  void *P = RT.stackAllocate(24, T);
  EXPECT_EQ(RT.dynamicTypeOf(P), T);
  Bounds B = RT.typeCheck(P, T);
  EXPECT_EQ(B.Hi - B.Lo, 24u);
  RT.stackRelease(Mark);
  // The dangling stack pointer is now STACK-FREE, and the temporal
  // error classifies as a stack use-after-return, not a heap UAF.
  RT.typeCheck(P, T);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::StackUseAfterReturn), 1u);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 0u);
}

TEST_F(RuntimeTest, GlobalObjectsAreTypedAndZeroed) {
  auto *G = static_cast<int *>(
      RT.globalAllocate(8 * sizeof(int), Ctx.getInt(), "counters"));
  EXPECT_EQ(RT.dynamicTypeOf(G), Ctx.getInt());
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(G[I], 0) << I;
  Bounds B = RT.typeCheck(G + 5, Ctx.getInt());
  EXPECT_TRUE(B.contains(G + 5, sizeof(int)));
}

//===----------------------------------------------------------------------===//
// bounds_check / bounds_narrow / bounds_get
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, BoundsCheckCountsAndReports) {
  int *P = static_cast<int *>(RT.allocate(4 * sizeof(int), Ctx.getInt()));
  Bounds B = RT.typeCheck(P, Ctx.getInt());
  RT.boundsCheck(P + 3, sizeof(int), B); // OK.
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.boundsCheck(P + 4, sizeof(int), B); // Overflow.
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.BoundsChecks, 2u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, BoundsNarrowIsIntersection) {
  int *P = static_cast<int *>(RT.allocate(24, T));
  Bounds B = RT.allocationBounds(P);
  Bounds N = RT.boundsNarrow(B, reinterpret_cast<char *>(P) + 4, 12);
  EXPECT_EQ(N.Lo, reinterpret_cast<uintptr_t>(P) + 4);
  EXPECT_EQ(N.Hi, reinterpret_cast<uintptr_t>(P) + 16);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.BoundsNarrows, 1u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, BoundsGetSkipsTypeCheck) {
  // bounds_get must succeed even with a mismatched static type
  // (EffectiveSan-bounds protects object bounds only).
  char *P = static_cast<char *>(RT.allocate(24, T));
  Bounds B = RT.boundsGet(P + 4);
  EXPECT_EQ(B.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(B.Hi, reinterpret_cast<uintptr_t>(P) + 24);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.BoundsGets, 1u);
  EXPECT_EQ(C.TypeChecks, 0u);
  RT.deallocate(P);
}

//===----------------------------------------------------------------------===//
// Reporting modes and bucketing
//===----------------------------------------------------------------------===//

TEST_F(RuntimeTest, ErrorsAreBucketedByTypeAndOffset) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  for (int I = 0; I < 100; ++I)
    RT.typeCheck(P + 12, Ctx.getDouble()); // Same issue repeatedly.
  EXPECT_EQ(RT.reporter().numIssues(), 1u) << "one bucket";
  EXPECT_EQ(RT.reporter().numEvents(), 100u) << "many events";
  RT.typeCheck(P + 4, Ctx.getDouble()); // Different offset, new bucket.
  EXPECT_EQ(RT.reporter().numIssues(), 2u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, LoggingModeWritesMessages) {
  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  RuntimeOptions Options;
  Options.Reporter.Mode = ReportMode::Log;
  Options.Reporter.Stream = Tmp;
  Runtime LogRT(Ctx, Options);
  char *P = static_cast<char *>(LogRT.allocate(24, T));
  LogRT.typeCheck(P + 12, Ctx.getDouble());
  LogRT.deallocate(P);
  std::fflush(Tmp);
  std::rewind(Tmp);
  char Buffer[512] = {};
  ASSERT_NE(std::fgets(Buffer, sizeof(Buffer), Tmp), nullptr);
  EXPECT_NE(std::string(Buffer).find("TYPE ERROR"), std::string::npos);
  EXPECT_NE(std::string(Buffer).find("double"), std::string::npos);
  EXPECT_NE(std::string(Buffer).find("struct T"), std::string::npos);
  std::fclose(Tmp);
}

//===----------------------------------------------------------------------===//
// Site-indexed type-check inline cache (PR 3)
//===----------------------------------------------------------------------===//

namespace {

/// Plain-value cache statistics for assertions.
struct CacheStats {
  uint64_t Hits;
  uint64_t Misses;
};

CacheStats cacheStats(Runtime &RT) {
  auto C = RT.counters().snapshot();
  return CacheStats{C.TypeCheckCacheHits, C.TypeCheckCacheMisses};
}

} // namespace

TEST_F(RuntimeTest, CacheHitIsBitIdenticalToSlowAndUncachedPaths) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  char *Q = P + 12; // Example 5's interior pointer.
  const SiteId Site = 7;

  Bounds Reference = RT.typeCheckUncached(Q, Ctx.getInt());
  Bounds Miss = RT.typeCheck(Q, Ctx.getInt(), Site); // Fills the cache.
  Bounds Hit = RT.typeCheck(Q, Ctx.getInt(), Site);  // Replays it.
  EXPECT_EQ(Miss, Reference);
  EXPECT_EQ(Hit, Reference);

  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u) << "first sited check must fill";
  EXPECT_EQ(S.Hits, 1u) << "second sited check must hit";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, CacheHitAtDifferentOffsetSameNormalization) {
  // T[10]: element bases at K = 2*24 .. 9*24 all normalize to offset 0
  // (element 1's base is the special sizeof(T) domain position, so it
  // gets its own resolution), and one cache entry serves them all.
  char *P = static_cast<char *>(RT.allocate(10 * 24, T));
  const SiteId Site = 9;
  Bounds First = RT.typeCheck(P, T, Site); // K=0: the filling miss.
  for (int I = 2; I < 10; ++I) {
    Bounds B = RT.typeCheck(P + I * 24, T, Site);
    EXPECT_EQ(B, First) << "element " << I;
  }
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 8u);
  // Element 1 (K = sizeof(T), the table's "element 1 base" position)
  // resolves to the same full-array bounds through the slow path.
  EXPECT_EQ(RT.typeCheck(P + 24, T, Site), First);
  EXPECT_EQ(cacheStats(RT).Misses, 2u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, FreeInvalidatesCacheEntries) {
  // The temporal-safety regression: a hot cache entry must never mask
  // a use-after-free. free() rebinds the META type to FREE, which can
  // never equal a cached allocation type, so the revalidating fast
  // path falls through and the slow path reports.
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  const SiteId Site = 11;
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.typeCheck(P, Ctx.getInt(), Site);
  ASSERT_EQ(cacheStats(RT).Hits, 1u) << "entry must be hot before free";

  RT.deallocate(P);
  Bounds B = RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_TRUE(B.isWide());
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u)
      << "cached entry masked the use-after-free";
  EXPECT_EQ(cacheStats(RT).Hits, 1u)
      << "the post-free check must not hit the cache";
}

TEST_F(RuntimeTest, ReuseAfterFreeThroughHotCacheEntry) {
  // Same-address reuse with a *different* type through a hot entry:
  // the fresh META type mismatches the cached key, so the slow path
  // runs and reports the type error (same coverage as the uncached
  // ReuseAfterFreeDifferentTypeDetected).
  int *P = static_cast<int *>(RT.allocate(40, Ctx.getInt()));
  const SiteId Site = 13;
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.deallocate(P);
  void *Q = RT.allocate(40, Ctx.getFloat());
  ASSERT_EQ(static_cast<void *>(P), Q) << "test requires block reuse";
  RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, ReallocatedBlockRevalidatesSizeOnHit) {
  // Same type, same address, different size: the key matches (that's a
  // hit), and the bounds must come from the *fresh* META size — the
  // hit path clamps to the live allocation, never a remembered one.
  // 40 and 44 byte requests share the 64-byte size class, so the LIFO
  // free list hands the same block back with a different META size.
  int *P = static_cast<int *>(RT.allocate(10 * sizeof(int), Ctx.getInt()));
  const SiteId Site = 17;
  Bounds Small = RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_EQ(Small.Hi - Small.Lo, 10 * sizeof(int));
  RT.deallocate(P);
  void *Q = RT.allocate(11 * sizeof(int), Ctx.getInt());
  ASSERT_EQ(static_cast<void *>(P), Q) << "test requires block reuse";
  Bounds Big = RT.typeCheck(Q, Ctx.getInt(), Site);
  EXPECT_EQ(Big.Hi - Big.Lo, 11 * sizeof(int))
      << "hit must rebuild bounds from the live META header";
  EXPECT_EQ(Big, RT.typeCheckUncached(Q, Ctx.getInt()));
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, DifferentialCoercionsCachedVsUncached) {
  // The three layout-coercion fallbacks must behave identically cached
  // and uncached: (T*) <-> (void*) member coercion, the (char[])
  // second lookup, and one-past-the-end entries.
  RecordType *Holder = RecordBuilder(Ctx, TypeKind::Struct, "holder2")
                           .addField("vp", Ctx.getPointer(Ctx.getVoid()))
                           .addField("x", Ctx.getLong())
                           .addField("ip", Ctx.getPointer(Ctx.getInt()))
                           .finish();
  char *H = static_cast<char *>(RT.allocate(Holder->size(), Holder));
  char *C64 = static_cast<char *>(RT.allocate(64, Ctx.getChar()));
  char *TP = static_cast<char *>(RT.allocate(24, T));

  struct Probe {
    const char *Name;
    const void *Ptr;
    const TypeInfo *Static;
  } Probes[] = {
      // (int*) static matches the (void*) member at offset 0.
      {"int* vs void* member", H, Ctx.getPointer(Ctx.getInt())},
      // (void*) static matches the (int*) member at offset 16.
      {"void* vs int* member", H + 16, Ctx.getPointer(Ctx.getVoid())},
      // char[] allocation probed as int[]: the second (char) lookup.
      {"char[] second lookup", C64 + 8, Ctx.getInt()},
      // One-past-the-end of a single-element allocation.
      {"one past the end", TP + 24, T},
  };

  SiteId Site = 100;
  for (const Probe &Pr : Probes) {
    Bounds Reference = RT.typeCheckUncached(Pr.Ptr, Pr.Static);
    CacheStats Before = cacheStats(RT);
    Bounds Miss = RT.typeCheck(Pr.Ptr, Pr.Static, Site);
    Bounds Hit = RT.typeCheck(Pr.Ptr, Pr.Static, Site);
    CacheStats After = cacheStats(RT);
    EXPECT_EQ(Miss, Reference) << Pr.Name;
    EXPECT_EQ(Hit, Reference) << Pr.Name;
    EXPECT_EQ(After.Misses, Before.Misses + 1) << Pr.Name;
    EXPECT_EQ(After.Hits, Before.Hits + 1)
        << Pr.Name << ": coercion results must be cacheable";
    ++Site;
  }
  EXPECT_EQ(RT.reporter().numIssues(), 0u);

  RT.deallocate(H);
  RT.deallocate(C64);
  RT.deallocate(TP);
}

TEST_F(RuntimeTest, CharCoercionCachesAcrossOffsets) {
  // A (char*) check resolves to the allocation bounds regardless of
  // offset, so its cache entry matches at ANY in-bounds offset.
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 23;
  Bounds A = RT.typeCheck(P + 4, Ctx.getChar(), Site);
  Bounds B = RT.typeCheck(P + 17, Ctx.getChar(), Site);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.Lo, reinterpret_cast<uintptr_t>(P));
  EXPECT_EQ(A.Hi, reinterpret_cast<uintptr_t>(P) + 24);
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 1u) << "char coercion entries are offset-independent";
  RT.deallocate(P);
}

TEST_F(RuntimeTest, TypeErrorsAreNeverCached) {
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 29;
  for (int I = 0; I < 3; ++I) {
    Bounds B = RT.typeCheck(P + 12, Ctx.getDouble(), Site);
    EXPECT_TRUE(B.isWide());
  }
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Hits, 0u) << "error results must not be replayed";
  EXPECT_EQ(S.Misses, 3u);
  EXPECT_EQ(RT.reporter().numEvents(), 3u)
      << "every erring check must keep reporting";
  RT.deallocate(P);
}

TEST(SiteCacheVictimTest, PrefersOldestFillNotHighestVersion) {
  // The squatter regression: version counts fills *per entry*, not
  // recency. A way churned hot in the past (high version) but filled
  // long ago must be the victim against a way filled just now —
  // otherwise a stale colliding site pins its slot forever and the
  // set degrades to direct-mapped.
  SiteCache Cache(16);
  SiteCacheEntry *Set = Cache.setFor(0);
  Set[0].Version.store(40, std::memory_order_relaxed); // Old churner.
  Set[0].FillTick.store(nextSiteFillTick(), std::memory_order_relaxed);
  Set[1].Version.store(2, std::memory_order_relaxed); // Fresh fill.
  Set[1].FillTick.store(nextSiteFillTick(), std::memory_order_relaxed);
  EXPECT_EQ(&SiteCache::victimIn(Set), &Set[0])
      << "the older fill must age out regardless of its version";
  // Empty ways always win over recency.
  Set[1].Version.store(0, std::memory_order_relaxed);
  EXPECT_EQ(&SiteCache::victimIn(Set), &Set[1]);
}

TEST_F(RuntimeTest, PolymorphicSiteKeepsTwoResolutionsResident) {
  // The 2-way associativity win: two resolutions alternating through
  // ONE site coexist in the site's set — after the two filling misses
  // every probe is a hit (the direct-mapped cache ping-ponged here at
  // ~3.5x the hit cost).
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 31;
  Bounds IntRef = RT.typeCheckUncached(P + 12, Ctx.getInt());
  Bounds SRef = RT.typeCheckUncached(P + 4, S);
  for (int I = 0; I < 4; ++I) {
    EXPECT_EQ(RT.typeCheck(P + 12, Ctx.getInt(), Site), IntRef);
    EXPECT_EQ(RT.typeCheck(P + 4, S, Site), SRef);
  }
  CacheStats Stats = cacheStats(RT);
  EXPECT_EQ(Stats.Misses, 2u) << "one filling miss per resolution";
  EXPECT_EQ(Stats.Hits, 6u) << "both resolutions stay resident";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, SiteCollisionBeyondAssociativityEvictsButStaysCorrect) {
  // THREE incompatible resolutions fighting over one 2-way set:
  // every probe evicts the oldest way and misses, but the returned
  // bounds are never wrong.
  char *P = static_cast<char *>(RT.allocate(24, T));
  const SiteId Site = 31;
  Bounds IntRef = RT.typeCheckUncached(P + 12, Ctx.getInt());
  Bounds SRef = RT.typeCheckUncached(P + 4, S);
  Bounds FloatRef = RT.typeCheckUncached(P, Ctx.getFloat());
  for (int I = 0; I < 4; ++I) {
    EXPECT_EQ(RT.typeCheck(P + 12, Ctx.getInt(), Site), IntRef);
    EXPECT_EQ(RT.typeCheck(P + 4, S, Site), SRef);
    EXPECT_EQ(RT.typeCheck(P, Ctx.getFloat(), Site), FloatRef);
  }
  EXPECT_EQ(cacheStats(RT).Hits, 0u)
      << "oldest-fill eviction ping-pongs on a 3-way conflict";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ResetClearsSiteCache) {
  void *P = RT.allocate(40, Ctx.getInt());
  const SiteId Site = 37;
  RT.typeCheck(P, Ctx.getInt(), Site);
  RT.typeCheck(P, Ctx.getInt(), Site);
  EXPECT_EQ(cacheStats(RT).Hits, 1u);

  RT.reset(); // Invalidates every pointer AND the cache.

  void *Q = RT.allocate(40, Ctx.getInt());
  RT.typeCheck(Q, Ctx.getInt(), Site);
  CacheStats After = cacheStats(RT);
  EXPECT_EQ(After.Hits, 0u) << "reset must drop cached resolutions";
  EXPECT_EQ(After.Misses, 1u);
  RT.deallocate(Q);
}

TEST_F(RuntimeTest, DisabledCacheTakesSlowPathEverywhere) {
  RuntimeOptions Options = quietOptions();
  Options.SiteCacheEntries = 0;
  Runtime Uncached(Ctx, Options);
  char *P = static_cast<char *>(Uncached.allocate(24, T));
  Bounds Ref = Uncached.typeCheckUncached(P + 12, Ctx.getInt());
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(Uncached.typeCheck(P + 12, Ctx.getInt(), 41), Ref);
  auto C = Uncached.counters().snapshot();
  EXPECT_EQ(C.TypeCheckCacheHits, 0u);
  EXPECT_EQ(C.TypeCheckCacheMisses, 3u);
  Uncached.deallocate(P);
}

TEST_F(RuntimeTest, PseudoSiteOverloadCachesByStaticType) {
  // The 2-argument overload (CheckedPtr / session APIs) derives its
  // site from the static type; repeated checks of one type must hit.
  char *P = static_cast<char *>(RT.allocate(100 * sizeof(int),
                                            Ctx.getInt()));
  RT.typeCheck(P + 40, Ctx.getInt());
  RT.typeCheck(P + 40, Ctx.getInt());
  RT.typeCheck(P + 80, Ctx.getInt()); // Same normalized offset (0).
  CacheStats S = cacheStats(RT);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Hits, 2u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ConcurrentChecksAreSafe) {
  char *P = static_cast<char *>(RT.allocate(100 * 24, T));
  std::vector<std::thread> Threads;
  for (int W = 0; W < 4; ++W) {
    Threads.emplace_back([&] {
      for (int I = 0; I < 5000; ++I) {
        Bounds B = RT.typeCheck(P + (I % 100) * 24, T);
        RT.boundsCheck(P + (I % 100) * 24, 4, B);
      }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  EXPECT_EQ(RT.counters().snapshot().TypeChecks, 4u * 5000u);
  RT.deallocate(P);
}

//===----------------------------------------------------------------------===//
// Exact per-thread check counters

TEST_F(RuntimeTest, ExitedThreadsCountsStayInTheTotal) {
  // Waves of short-lived threads: each wave's threads exit (returning
  // their counter slots) before the next wave claims slots again, so
  // the totals show that an exited thread's counts survive and a
  // slot's next owner adds to them.
  char *P = static_cast<char *>(RT.allocate(100 * 24, T));
  constexpr unsigned Waves = 8, PerWave = 4, Checks = 1000;
  for (unsigned W = 1; W <= Waves; ++W) {
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < PerWave; ++I)
      Threads.emplace_back([&] {
        for (unsigned J = 0; J < Checks; ++J) {
          Bounds B = RT.typeCheck(P + (J % 100) * 24, T);
          RT.boundsCheck(P + (J % 100) * 24, 4, B);
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    auto C = RT.counters().snapshot();
    EXPECT_EQ(C.TypeChecks, W * PerWave * Checks) << "after wave " << W;
    EXPECT_EQ(C.BoundsChecks, W * PerWave * Checks) << "after wave " << W;
    EXPECT_EQ(C.TypeCheckCacheHits + C.TypeCheckCacheMisses, C.TypeChecks);
  }
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ReusedSlotAddsToItsCell) {
  // A thread's slot returns to the free list when it exits and the
  // most recently freed slot is handed out first: the next thread
  // lands on the same cell and keeps adding to the exited thread's
  // counts.
  char *P = static_cast<char *>(RT.allocate(24, T));
  auto CheckN = [&](unsigned N, unsigned &Slot) {
    std::thread([&, N] {
      Slot = claimCounterSlot();
      for (unsigned I = 0; I < N; ++I)
        RT.typeCheck(P, T);
    }).join();
  };
  unsigned First = OverflowSlot, Second = OverflowSlot;
  CheckN(100, First);
  CheckN(50, Second);
  ASSERT_NE(First, OverflowSlot);
  EXPECT_EQ(Second, First);
  EXPECT_EQ(CheckCounters::snapshotOf(RT.counters().cellAt(First)).TypeChecks,
            150u);
  EXPECT_EQ(RT.counters().snapshot().TypeChecks, 150u);
  RT.deallocate(P);
}

TEST_F(RuntimeTest, ThreadsBeyondTheSlotsCountExactlyInTheOverflowCell) {
  // More live threads than counter slots: the threads that find every
  // slot taken share the overflow cell, whose fetch_add keeps the
  // total exact.
  char *P = static_cast<char *>(RT.allocate(100 * 24, T));
  constexpr unsigned Threads = NumCounterSlots + 8, Checks = 2000;
  std::barrier AllClaimed(Threads);
  std::vector<unsigned> Slots(Threads, 0);
  std::vector<std::thread> Pool;
  for (unsigned W = 0; W < Threads; ++W)
    Pool.emplace_back([&, W] {
      Slots[W] = claimCounterSlot();
      AllClaimed.arrive_and_wait(); // Every thread holds its slot.
      for (unsigned I = 0; I < Checks; ++I) {
        Bounds B = RT.typeCheck(P + (I % 100) * 24, T);
        RT.boundsCheck(P + (I % 100) * 24, 4, B);
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  unsigned Overflowed = 0;
  for (unsigned S : Slots)
    Overflowed += S == OverflowSlot;
  EXPECT_GE(Overflowed, Threads - NumCounterSlots);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, uint64_t(Threads) * Checks);
  EXPECT_EQ(C.BoundsChecks, uint64_t(Threads) * Checks);
  EXPECT_GE(CheckCounters::snapshotOf(
                RT.counters().cellAt(OverflowSlot)).TypeChecks,
            uint64_t(Threads - NumCounterSlots) * Checks);
  RT.deallocate(P);
}
