//===- core/Runtime.h - The EffectiveSan runtime system ---------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic type check runtime of Section 5: typed allocation
/// (type_malloc / type_free, Figure 6 lines 1-7), the type_check
/// function (Figure 6 lines 9-24), bounds_get (the EffectiveSan-bounds
/// variant), and the inline bounds_check / bounds_narrow operations of
/// the Figure 3 instrumentation schema.
///
/// Paper-name mapping:
///   type_malloc    -> Runtime::allocate
///   type_free      -> Runtime::deallocate
///   type_check     -> Runtime::typeCheck
///   bounds_get     -> Runtime::boundsGet
///   bounds_check   -> Runtime::boundsCheck
///   bounds_narrow  -> Runtime::boundsNarrow
///
/// A C-style facade with the paper's names is provided by
/// core/Effective.h.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_RUNTIME_H
#define EFFECTIVE_CORE_RUNTIME_H

#include "core/Bounds.h"
#include "core/CheckCounters.h"
#include "core/ErrorReporter.h"
#include "core/Layout.h"
#include "core/Meta.h"
#include "core/SiteCache.h"
#include "core/SiteTable.h"
#include "core/TypeContext.h"
#include "lowfat/GlobalPool.h"
#include "lowfat/LowFatHeap.h"
#include "lowfat/StackPool.h"
#include "obs/SiteProfiler.h"
#include "obs/Trace.h"
#include "support/Compiler.h"

#include <atomic>
#include <memory>

namespace effective {

/// Construction options for a Runtime.
struct RuntimeOptions {
  ReporterOptions Reporter;
  lowfat::HeapOptions Heap;
  /// Entries in the site-indexed type-check inline cache (rounded up to
  /// a power of two; 0 disables the fast path entirely — every check
  /// takes the slow meta + layout-probe path).
  size_t SiteCacheEntries = 1024;
  /// When non-null, the runtime resolves error sites against this
  /// externally owned registry instead of a private one — how
  /// concurrent::SessionPool gives all shards one pool-wide site
  /// space, so the central drainer attributes any shard's errors. The
  /// registry must outlive the runtime.
  SiteTableRegistry *SharedSites = nullptr;
  /// Byte budget of each thread's stack use-after-return quarantine:
  /// escaping (address-taken) stack slots are held back from reuse up
  /// to this many bytes per pool, so dangling frame pointers keep
  /// faulting on their STACK-FREE META. 0 disables the reuse delay.
  size_t StackQuarantineBytes = 64 * 1024;
};

/// Typed stack/global object counters (the ABI's effsan_object_stats
/// surface): exact counts, aggregated across every thread's stack pool
/// by a relaxed fetch_add at the Runtime entry points (these are not on
/// the check path).
struct ObjectCounters {
  /// Typed stack slots ever allocated (stackAllocate calls).
  std::atomic<uint64_t> StackAllocs{0};
  /// Frames released (stackRelease calls).
  std::atomic<uint64_t> StackFrames{0};
  /// Escaping slots retired through a use-after-return quarantine.
  std::atomic<uint64_t> StackRetired{0};

  static void bump(std::atomic<uint64_t> &C) {
    C.fetch_add(1, std::memory_order_relaxed);
  }

  void reset() {
    StackAllocs.store(0, std::memory_order_relaxed);
    StackFrames.store(0, std::memory_order_relaxed);
    StackRetired.store(0, std::memory_order_relaxed);
  }
};

/// One EffectiveSan runtime instance: a low-fat heap plus type meta data
/// handling. Thread-safe (checks are pure reads of immutable meta data;
/// allocation and reporting are internally locked). Tests and benchmark
/// harnesses create private instances; Runtime::global() serves the
/// default process-wide instance.
class Runtime {
public:
  explicit Runtime(TypeContext &Ctx,
                   const RuntimeOptions &Options = RuntimeOptions());

  /// A runtime over shard \p Shard of an externally owned (shared,
  /// usually sharded) low-fat heap — the per-worker building block of
  /// concurrent::SessionPool. All allocations (heap, stack, globals)
  /// come from that shard's sub-arenas, while base(p)/size(p) remain
  /// valid for pointers allocated by sibling shards of the same heap.
  /// Options.Heap is ignored; the heap must outlive the runtime.
  Runtime(TypeContext &Ctx, lowfat::LowFatHeap &SharedHeap, unsigned Shard,
          const RuntimeOptions &Options = RuntimeOptions());

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  TypeContext &typeContext() { return Ctx; }
  lowfat::LowFatHeap &heap() { return Heap; }
  /// The heap shard this runtime allocates from (0 for private heaps).
  unsigned heapShard() const { return Shard; }
  ErrorReporter &reporter() { return Reporter; }
  CheckCounters &counters() { return Counters; }
  ObjectCounters &objectCounters() { return ObjCounters; }
  const ObjectCounters &objectCounters() const { return ObjCounters; }
  /// The global-object registration pool (module loaders and the ABI's
  /// effsan_globals_register; reflection for tests).
  lowfat::GlobalPool &globals() { return Globals; }
  const lowfat::GlobalPool &globals() const { return Globals; }

  /// \name Typed allocation (Figure 6 lines 1-7).
  /// @{

  /// type_malloc: allocates \p Size bytes bound to dynamic type \p Type
  /// (null = untyped, checked with wide bounds). The dynamic type of the
  /// object is the complete Type[Size / sizeof(Type)].
  void *allocate(size_t Size, const TypeInfo *Type);

  /// type_calloc: zero-initialized array allocation.
  void *allocateZeroed(size_t Count, size_t Size, const TypeInfo *Type);

  /// type_realloc: grows/shrinks preserving contents and rebinding the
  /// dynamic type. When \p Ptr lives on a sibling shard of a shared
  /// heap (a cross-shard realloc through a pooled session), the fresh
  /// block is carved from the *owning* shard's slice, not this
  /// runtime's — shard affinity of a block survives realloc, so a
  /// tenant's footprint stays accountable to its own shard and a later
  /// resetShard() of this runtime cannot pull the rug from under a
  /// sibling's object.
  void *reallocate(void *Ptr, size_t NewSize, const TypeInfo *Type);

  /// type_free: rebinds the object to the FREE type and returns the
  /// block to the allocator; detects double free.
  void deallocate(void *Ptr);
  /// @}

  /// \name Typed stack and global allocation.
  /// Stand-ins for the instrumented low-fat stack/global allocators
  /// ([7,8]); see lowfat/StackPool.h for the simulation notes.
  /// @{

  /// Allocates one typed stack slot with a full META header.
  /// \p Escapes marks an address-taken/escaping slot (instrumentation's
  /// escape analysis): its release is delayed through the thread's
  /// use-after-return quarantine so dangling pointers into the popped
  /// frame fault as stack use-after-return.
  void *stackAllocate(size_t Size, const TypeInfo *Type,
                      bool Escapes = false);
  size_t stackMark();
  /// Rebinds all stack objects allocated after \p Mark to the
  /// STACK-FREE type and retires them (function epilogue): escaping
  /// slots park in the quarantine, the rest free immediately.
  void stackRelease(size_t Mark);
  void *globalAllocate(size_t Size, const TypeInfo *Type,
                       std::string_view Name);
  /// @}

  /// \name Dynamic checks.
  /// @{

  /// The paper's type_check (Figure 6 lines 9-24): verifies that \p Ptr
  /// addresses a (sub-)object of incomplete static type \p StaticType[]
  /// and returns that sub-object's bounds (narrowed to the allocation).
  /// On mismatch an error is reported and wide bounds are returned.
  ///
  /// \p Site is the check's call-site identity (a dense per-module id
  /// from the instrumentation pass, or siteForType() for API callers):
  /// the fast path probes the session's inline cache at that slot and,
  /// when the (allocation type, static type, normalized offset) key
  /// matches, rebuilds the bounds from the cached layout resolution
  /// without touching the layout hash table. Misses fall into the
  /// EFFSAN_NOINLINE slow path, which performs the full Figure 6 probe
  /// and refills the cache. Results are bit-identical either way.
  ///
  /// Every check entry point has an overload taking \p Cell, a counter
  /// cell of this runtime that the calling thread owns (an OwnedCell
  /// over counters()), for callers that check in a loop; the overloads
  /// without it look the thread's cell up per call.
  EFFSAN_ALWAYS_INLINE Bounds typeCheck(const void *Ptr,
                                        const TypeInfo *StaticType,
                                        SiteId Site, CheckCell &Cell) {
    // The thread's own pre-increment count doubles as the latency
    // sampler's decimator: with metrics armed, every 1024th check of
    // each thread diverts through the timed (noinline) wrapper that
    // feeds the latency histograms. The decimator tests BEFORE the
    // flag — the mask test is on a value already in a register and is
    // false 1023 times in 1024 whether or not metrics are armed, so
    // arming changes the executed instruction stream only on the
    // sampled checks (the flag load moves off the common path
    // entirely). With observability compiled out the whole test folds
    // to nothing.
    uint64_t NChecks = Cell.bump(Cell.TypeChecks);
    if (EFFSAN_UNLIKELY((NChecks & obs::CheckSampleMask) == 0 &&
                        obs::metricsActive()))
      return typeCheckTimed(Ptr, StaticType, Site, Cell);
    return typeCheckBody(Ptr, StaticType, Site, Cell);
  }

  EFFSAN_ALWAYS_INLINE Bounds typeCheck(const void *Ptr,
                                        const TypeInfo *StaticType,
                                        SiteId Site) {
    return Counters.count([=, this](CheckCell &Cell) {
      return typeCheck(Ptr, StaticType, Site, Cell);
    });
  }

  /// typeCheck minus the TypeChecks bump and the sampling decimator:
  /// the inline-cache probe and the slow-path dispatch. Private in
  /// spirit; public so the timed wrapper's definition stays out of
  /// line without friend gymnastics.
  EFFSAN_ALWAYS_INLINE Bounds typeCheckBody(const void *Ptr,
                                            const TypeInfo *StaticType,
                                            SiteId Site, CheckCell &Cell) {
    void *Base = Heap.allocationBase(Ptr);
    if (EFFSAN_UNLIKELY(!Base)) {
      Cell.bump(Cell.LegacyTypeChecks);
      return Bounds::wide();
    }
    const auto *Meta = static_cast<const MetaHeader *>(Base);
    const TypeInfo *Alloc = Meta->Type;
    if (EFFSAN_LIKELY(Cache.enabled())) {
      // 2-way set-associative probe: a polymorphic site (two types or
      // two offset resolutions through one check) keeps both
      // resolutions resident; the second way costs one extra key
      // compare only when the first rejects.
      SiteCacheEntry *Set = Cache.setFor(Site);
      for (unsigned W = 0; W < SiteCache::Ways; ++W) {
        SiteCacheEntry &E = Set[W];
        uint32_t V1 = E.Version.load(std::memory_order_acquire);
        // All key/payload loads are acquire so the final version
        // re-load below cannot be reordered above any of them
        // (fence-free seqlock reader).
        if (EFFSAN_LIKELY(
                !(V1 & 1) &&
                E.AllocType.load(std::memory_order_acquire) == Alloc &&
                E.StaticType.load(std::memory_order_acquire) ==
                    StaticType &&
                Alloc != nullptr)) {
          uintptr_t ObjBase = reinterpret_cast<uintptr_t>(Meta + 1);
          uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
          uint64_t AllocSize = Meta->Size;
          if (EFFSAN_LIKELY(P >= ObjBase && P - ObjBase <= AllocSize)) {
            // Fence-free seqlock read: the payload loads are acquire,
            // so the trailing version re-load cannot be hoisted above
            // them (and GCC's TSan, which rejects
            // atomic_thread_fence, stays happy). Acquire loads cost
            // nothing on x86/ARM64 loads.
            uint64_t NK = E.NormOffset.load(std::memory_order_acquire);
            uint64_t SzT = E.SizeofT.load(std::memory_order_acquire);
            uint64_t Fam = E.FamSize.load(std::memory_order_acquire);
            int64_t RelLo = E.RelLo.load(std::memory_order_acquire);
            int64_t RelHi = E.RelHi.load(std::memory_order_acquire);
            if (EFFSAN_LIKELY(
                    E.Version.load(std::memory_order_relaxed) == V1 &&
                    (NK == AnyNormOffset ||
                     LayoutTable::normalizeOffsetRaw(P - ObjBase,
                                                     AllocSize, SzT,
                                                     Fam) == NK))) {
              // The thread's own hit count doubles as the profiler's
              // decimator (see ProfileSampleMask). The mask tests
              // before the flag for the same reason as the latency
              // sampler above: 15 hits in 16 skip both the flag load
              // and the profiler whether or not profiling is armed.
              uint64_t NHits = Cell.bump(Cell.TypeCheckCacheHits);
              if (EFFSAN_UNLIKELY(
                      (NHits & obs::ProfileSampleMask) == 0 &&
                      obs::profileActive()))
                Prof.noteHit(Site);
              Bounds AllocBounds{ObjBase, ObjBase + AllocSize};
              return relativeBoundsToAbsolute(RelLo, RelHi, P,
                                              AllocBounds);
            }
          }
        }
      }
    }
    return typeCheckSlow(Ptr, StaticType, Site, Meta, Cell);
  }

  /// type_check without an explicit site: probes the inline cache at
  /// the static type's pseudo-site. This is the path CheckedPtr and the
  /// session/C APIs take.
  Bounds typeCheck(const void *Ptr, const TypeInfo *StaticType) {
    return typeCheck(Ptr, StaticType, siteForType(StaticType));
  }

  /// The reference implementation: the full meta + layout-probe walk,
  /// never reading or filling the inline cache. Used by the
  /// differential tests and the cached-vs-uncached micro benchmark;
  /// counters advance as for a normal check minus the hit/miss pair.
  Bounds typeCheckUncached(const void *Ptr, const TypeInfo *StaticType);

  /// The EffectiveSan-bounds variant's bounds_get: returns the
  /// allocation bounds without verifying the type (Section 6.2).
  /// \p Site attributes any use-after-free it detects (the
  /// instrumentation-assigned id for interpreted checks, NoSite for
  /// unsited API paths).
  Bounds boundsGet(const void *Ptr, SiteId Site, CheckCell &Cell);
  Bounds boundsGet(const void *Ptr, SiteId Site = NoSite) {
    return Counters.count([=, this](CheckCell &Cell) {
      return boundsGet(Ptr, Site, Cell);
    });
  }

  /// The paper's bounds_check (Figure 3 rule (g)): verifies the \p Size
  /// byte access at \p Ptr lies within \p B; reports otherwise. \p Site
  /// is the check's identity — it rides the register-passed arguments
  /// for free and is only touched on the failing (noinline) path, so
  /// attribution costs the hot path nothing.
  EFFSAN_ALWAYS_INLINE void boundsCheck(const void *Ptr, size_t Size,
                                        Bounds B, SiteId Site,
                                        CheckCell &Cell) {
    Cell.bump(Cell.BoundsChecks);
    if (EFFSAN_UNLIKELY(!B.contains(Ptr, Size)))
      boundsCheckFail(Ptr, Size, B, Site);
  }
  EFFSAN_ALWAYS_INLINE void boundsCheck(const void *Ptr, size_t Size,
                                        Bounds B, SiteId Site = NoSite) {
    Counters.count([=, this](CheckCell &Cell) {
      boundsCheck(Ptr, Size, B, Site, Cell);
    });
  }

  /// The failing half of boundsCheck: reports the access. Public for
  /// CheckedPtr, which counts and tests inline.
  EFFSAN_NOINLINE void boundsCheckFail(const void *Ptr, size_t Size,
                                       Bounds B, SiteId Site);

  /// The paper's bounds_narrow (Figure 3 rule (e)): narrows \p B to the
  /// field at [\p Field, \p Field + \p Size).
  EFFSAN_ALWAYS_INLINE Bounds boundsNarrow(Bounds B, const void *Field,
                                           size_t Size, CheckCell &Cell) {
    Cell.bump(Cell.BoundsNarrows);
    return B.intersect(Bounds::forObject(Field, Size));
  }
  EFFSAN_ALWAYS_INLINE Bounds boundsNarrow(Bounds B, const void *Field,
                                           size_t Size) {
    return Counters.count([=, this](CheckCell &Cell) {
      return boundsNarrow(B, Field, Size, Cell);
    });
  }
  /// @}

  /// \name Meta data introspection.
  /// @{

  /// The META header of the allocation containing \p Ptr; null for
  /// legacy pointers.
  const MetaHeader *metaOf(const void *Ptr) const;

  /// The dynamic (allocation) type of \p Ptr's object; null if unknown.
  const TypeInfo *dynamicTypeOf(const void *Ptr) const;

  /// The allocation bounds of \p Ptr's object; wide for legacy.
  Bounds allocationBounds(const void *Ptr) const;
  /// @}

  /// Recycles the runtime for a fresh tenant: rewinds its heap shard
  /// (for a private heap, the whole arena), clears counters, reported
  /// issues and the global registry. Every pointer the runtime ever
  /// served becomes invalid and its addresses will be reused.
  ///
  /// \pre No live pointers are dereferenced afterwards, no stack frames
  /// (stackMark/stackRelease) are outstanding on any thread, and nothing
  /// uses the runtime concurrently. Legacy (oversized) blocks are not
  /// recycled.
  void reset();

  /// The process-wide runtime over TypeContext::global().
  static Runtime &global();

  /// The session's type-check inline cache (tests and statistics).
  SiteCache &siteCache() { return Cache; }

  /// The session's hot check-site profiler (counts only while
  /// obs::ProfileFlag is set; see obs/SiteProfiler.h).
  obs::SiteProfiler &profiler() { return Prof; }
  const obs::SiteProfiler &profiler() const { return Prof; }

  /// The registry error sites are attributed against (private by
  /// default, pool-shared when RuntimeOptions::SharedSites was set).
  /// Module loaders register their SiteTable here and rebase the
  /// instruction sites by the returned base id.
  SiteTableRegistry &siteTables() { return Sites; }

private:
  /// The Figure 6 slow path: full layout probe (with the coercion
  /// fallbacks), error reporting, and cache refill. \p Meta is the
  /// non-null META header typeCheck already resolved.
  EFFSAN_NOINLINE Bounds typeCheckSlow(const void *Ptr,
                                       const TypeInfo *StaticType,
                                       SiteId Site, const MetaHeader *Meta,
                                       CheckCell &Cell);
  /// The latency sampler's landing pad: runs typeCheckBody under an
  /// obs::now() timer and observes the fast- or slow-path histogram
  /// (classified by whether the check left the inline-cache fast
  /// path). Noinline so the sampling machinery never bloats the
  /// inlined check.
  EFFSAN_NOINLINE Bounds typeCheckTimed(const void *Ptr,
                                        const TypeInfo *StaticType,
                                        SiteId Site, CheckCell &Cell);
  /// Shared core of typeCheckSlow/typeCheckUncached; publishes the
  /// successful layout resolution into \p Fill's cache set (when
  /// non-null, the first way of the site's set); attributes any error
  /// it reports to \p Site.
  Bounds typeCheckImpl(const void *Ptr, const TypeInfo *StaticType,
                       const MetaHeader *Meta, SiteCacheEntry *Fill,
                       SiteId Site);
  lowfat::StackPool &stackPool();

  /// allocate() targeting an explicit heap shard (realloc's owning-
  /// shard affinity; everything else allocates on this runtime's own
  /// Shard).
  void *allocateOn(unsigned HeapShard, size_t Size, const TypeInfo *Type);

  TypeContext &Ctx;
  /// Null when the runtime borrows a shared heap (the shard ctor).
  std::unique_ptr<lowfat::LowFatHeap> OwnedHeap;
  lowfat::LowFatHeap &Heap;
  unsigned Shard;
  /// Process-unique instance stamp. The per-thread stack pools are
  /// cached by Runtime address; the stamp detects a new runtime reusing
  /// a dead one's address so no thread ever resurrects a stale pool
  /// (whose heap reference would dangle).
  uint64_t Epoch;
  lowfat::GlobalPool Globals;
  ErrorReporter Reporter;
  CheckCounters Counters;
  ObjectCounters ObjCounters;
  /// Per-thread stack pools are created with this quarantine budget.
  size_t StackQuarantineBytes;
  /// Cached (void *) type for the pointer-coercion fallback probe.
  const TypeInfo *VoidPtrType;
  /// The site-indexed type-check inline cache (see core/SiteCache.h).
  SiteCache Cache;
  /// Hot check-site hit/miss counters (observability layer; zero-size
  /// and never touched when EFFSAN_OBS_OFF).
  obs::SiteProfiler Prof;
  /// Site attribution: private registry unless the options injected a
  /// shared (pool-wide) one. Survives reset() — attribution metadata
  /// is immutable and names no heap addresses.
  std::unique_ptr<SiteTableRegistry> OwnedSites; ///< Null when shared.
  SiteTableRegistry &Sites;
};

} // namespace effective

#endif // EFFECTIVE_CORE_RUNTIME_H
