//===- core/Runtime.cpp - The EffectiveSan runtime system -----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "core/Layout.h"
#include "obs/Metrics.h"
#include "resilience/Fault.h"

#include <cassert>
#include <cstring>
#include <map>
#include <memory>

using namespace effective;

/// Monotone stamp distinguishing runtime instances that reuse an
/// address (see Runtime::Epoch).
static uint64_t nextRuntimeEpoch() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Runtime::Runtime(TypeContext &Ctx, const RuntimeOptions &Options)
    : Ctx(Ctx),
      OwnedHeap(std::make_unique<lowfat::LowFatHeap>(Options.Heap)),
      Heap(*OwnedHeap), Shard(0), Epoch(nextRuntimeEpoch()),
      Globals(Heap, Shard), Reporter(Options.Reporter),
      StackQuarantineBytes(Options.StackQuarantineBytes),
      VoidPtrType(Ctx.getPointer(Ctx.getVoid())),
      Cache(Options.SiteCacheEntries),
      OwnedSites(Options.SharedSites
                     ? nullptr
                     : std::make_unique<SiteTableRegistry>()),
      Sites(Options.SharedSites ? *Options.SharedSites : *OwnedSites) {}

Runtime::Runtime(TypeContext &Ctx, lowfat::LowFatHeap &SharedHeap,
                 unsigned Shard, const RuntimeOptions &Options)
    : Ctx(Ctx), Heap(SharedHeap), Shard(Shard),
      Epoch(nextRuntimeEpoch()), Globals(Heap, Shard),
      Reporter(Options.Reporter),
      StackQuarantineBytes(Options.StackQuarantineBytes),
      VoidPtrType(Ctx.getPointer(Ctx.getVoid())),
      Cache(Options.SiteCacheEntries),
      OwnedSites(Options.SharedSites
                     ? nullptr
                     : std::make_unique<SiteTableRegistry>()),
      Sites(Options.SharedSites ? *Options.SharedSites : *OwnedSites) {
  assert(Shard < Heap.numShards() && "shard index out of range");
}

Runtime &Runtime::global() {
  static Runtime RT(TypeContext::global());
  return RT;
}

//===----------------------------------------------------------------------===//
// Typed allocation (Figure 6 lines 1-7)
//===----------------------------------------------------------------------===//

void *Runtime::allocate(size_t Size, const TypeInfo *Type) {
  return allocateOn(Shard, Size, Type);
}

void *Runtime::allocateOn(unsigned HeapShard, size_t Size,
                          const TypeInfo *Type) {
  void *Block =
      EFFSAN_FAULT(HeapExhausted)
          ? nullptr
          : Heap.allocateOnShard(Size + sizeof(MetaHeader), HeapShard);
  if (EFFSAN_UNLIKELY(!Block)) {
    // Exhaustion (real OOM or an induced fault) degrades to a
    // diagnosable null: one resource-exhausted report per requested
    // type, and the caller receives the same null a failed malloc
    // hands a C program — never UB, never an abort of our own.
    Reporter.report(ErrorInfo{ErrorKind::ResourceExhausted, Type, nullptr,
                              0, nullptr,
                              "allocation failed: heap resources exhausted"});
    return nullptr;
  }
  if (EFFSAN_UNLIKELY(!Heap.isLowFat(Block))) {
    // Oversized request: the block is a legacy pointer; base(p) cannot
    // reach a META header, so the object is simply untyped (checked
    // with wide bounds), matching the paper's legacy-pointer story.
    return Block;
  }
  auto *Meta = static_cast<MetaHeader *>(Block);
  Meta->Type = Type;
  Meta->Size = Size;
  return Meta + 1;
}

void *Runtime::allocateZeroed(size_t Count, size_t Size,
                              const TypeInfo *Type) {
  size_t Total = Count * Size;
  assert((Size == 0 || Total / Size == Count) && "calloc overflow");
  void *Ptr = allocate(Total, Type);
  if (EFFSAN_UNLIKELY(!Ptr))
    return nullptr;
  std::memset(Ptr, 0, Total);
  return Ptr;
}

void *Runtime::reallocate(void *Ptr, size_t NewSize, const TypeInfo *Type) {
  if (!Ptr)
    return allocate(NewSize, Type);
  // Keep the block on the shard that owns it: a cross-shard realloc
  // (shard A's session resizing a block carved from shard B's slice)
  // must not migrate the object into A's slice.
  unsigned Owner = Heap.isLowFat(Ptr) ? Heap.shardOf(Ptr) : Shard;
  size_t OldSize = 0;
  if (const MetaHeader *Meta = metaOf(Ptr)) {
    if (Meta->Type && Meta->Type->isFree()) {
      Reporter.report(ErrorInfo{ErrorKind::UseAfterFree, nullptr,
                                Ctx.getFree(), 0, Ptr,
                                "realloc of freed object"});
      return allocateOn(Owner, NewSize, Type);
    }
    OldSize = Meta->Size;
  }
  void *Fresh = allocateOn(Owner, NewSize, Type);
  if (EFFSAN_UNLIKELY(!Fresh))
    return nullptr; // C realloc contract: the old block stays live.
  if (OldSize != 0)
    std::memcpy(Fresh, Ptr, OldSize < NewSize ? OldSize : NewSize);
  deallocate(Ptr);
  return Fresh;
}

void Runtime::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  void *Base = Heap.allocationBase(Ptr);
  if (!Base) {
    // Legacy pointer: pass through to the underlying allocator.
    Heap.deallocate(Ptr);
    return;
  }
  auto *Meta = static_cast<MetaHeader *>(Base);
  if (Meta->Type && Meta->Type->isFree()) {
    Reporter.report(ErrorInfo{ErrorKind::DoubleFree, nullptr, Ctx.getFree(),
                              0, Ptr, "double free"});
    return;
  }
  assert(Ptr == Meta + 1 && "free of an interior pointer");
  // Rebind to the FREE type (Section 3); the allocator preserves the
  // header until the block is reallocated.
  Meta->Type = Ctx.getFree();
  Heap.deallocate(Base);
}

//===----------------------------------------------------------------------===//
// Typed stack and globals
//===----------------------------------------------------------------------===//

lowfat::StackPool &Runtime::stackPool() {
  // One pool per (thread, runtime); pools die with the thread. The
  // epoch stamp guards against a new runtime constructed at a dead
  // runtime's address inheriting the dead one's pool, whose heap
  // reference dangles.
  struct Slot {
    uint64_t Epoch = 0;
    std::unique_ptr<lowfat::StackPool> Pool;
  };
  thread_local std::map<Runtime *, Slot> Pools;
  Slot &S = Pools[this];
  if (!S.Pool || S.Epoch != Epoch) {
    if (S.Pool)
      S.Pool->abandonAll(); // Its blocks died with the old heap.
    lowfat::StackPool::Options PoolOpts;
    PoolOpts.QuarantineBytes = StackQuarantineBytes;
    S.Pool = std::make_unique<lowfat::StackPool>(Heap, Shard, PoolOpts);
    S.Epoch = Epoch;
  }
  return *S.Pool;
}

void Runtime::reset() {
  // Rewind the shard's sub-arenas first; the registries that pointed
  // into them are then cleared without touching the recycled memory.
  Heap.resetShard(Shard);
  Globals.reset();
  Counters.reset();
  ObjCounters.reset();
  Reporter.clear();
  // Every cached layout resolution named recycled addresses' META
  // state; drop them all rather than trusting revalidation across a
  // wholesale arena rewind.
  Cache.clear();
  // New epoch: every thread's cached stack pool for this runtime is
  // abandoned on next use instead of replaying pointers into the
  // recycled arena.
  Epoch = nextRuntimeEpoch();
  // Hot-site counts name the previous tenant's sites; start fresh.
  Prof.reset();
}

void *Runtime::stackAllocate(size_t Size, const TypeInfo *Type,
                             bool Escapes) {
  void *Block = stackPool().allocate(Size + sizeof(MetaHeader), Escapes);
  if (EFFSAN_UNLIKELY(!Block)) {
    Reporter.report(ErrorInfo{ErrorKind::ResourceExhausted, Type, nullptr,
                              0, nullptr,
                              "stack slot allocation failed: heap "
                              "resources exhausted"});
    return nullptr;
  }
  ObjectCounters::bump(ObjCounters.StackAllocs);
  if (EFFSAN_UNLIKELY(!Heap.isLowFat(Block)))
    return Block;
  auto *Meta = static_cast<MetaHeader *>(Block);
  Meta->Type = Type;
  Meta->Size = Size;
  return Meta + 1;
}

size_t Runtime::stackMark() { return stackPool().mark(); }

void Runtime::stackRelease(size_t Mark) {
  lowfat::StackPool &Pool = stackPool();
  // Rebind BEFORE retirement: quarantined (escaping) blocks keep their
  // addresses out of circulation with a STACK-FREE META in place, so a
  // dangling pointer into the popped frame faults as a stack
  // use-after-return for as long as the quarantine delays reuse.
  for (const lowfat::StackPool::Record &R : Pool.blocksSince(Mark)) {
    if (R.Retire)
      ObjectCounters::bump(ObjCounters.StackRetired);
    if (!Heap.isLowFat(R.Ptr))
      continue;
    auto *Meta = static_cast<MetaHeader *>(R.Ptr);
    Meta->Type = Ctx.getStackFree();
  }
  Pool.release(Mark);
  ObjectCounters::bump(ObjCounters.StackFrames);
}

void *Runtime::globalAllocate(size_t Size, const TypeInfo *Type,
                              std::string_view Name) {
  void *Block = Globals.allocate(Size + sizeof(MetaHeader), Name);
  if (EFFSAN_UNLIKELY(!Block)) {
    Reporter.report(ErrorInfo{ErrorKind::ResourceExhausted, Type, nullptr,
                              0, nullptr,
                              "global allocation failed: heap resources "
                              "exhausted"});
    return nullptr;
  }
  if (EFFSAN_UNLIKELY(!Heap.isLowFat(Block)))
    return Block;
  auto *Meta = static_cast<MetaHeader *>(Block);
  Meta->Type = Type;
  Meta->Size = Size;
  std::memset(Meta + 1, 0, Size); // Globals are zero-initialized.
  return Meta + 1;
}

//===----------------------------------------------------------------------===//
// Dynamic checks (Figure 6 lines 9-24)
//===----------------------------------------------------------------------===//

const MetaHeader *Runtime::metaOf(const void *Ptr) const {
  void *Base = Heap.allocationBase(Ptr);
  return static_cast<const MetaHeader *>(Base);
}

const TypeInfo *Runtime::dynamicTypeOf(const void *Ptr) const {
  const MetaHeader *Meta = metaOf(Ptr);
  return Meta ? Meta->Type : nullptr;
}

Bounds Runtime::allocationBounds(const void *Ptr) const {
  const MetaHeader *Meta = metaOf(Ptr);
  if (!Meta)
    return Bounds::wide();
  return Bounds::forObject(Meta + 1, Meta->Size);
}

/// Publishes a layout resolution into \p E under its seqlock. A racing
/// filler simply loses (the entry is monomorphic; whoever wins is as
/// good as whoever loses), and a racing reader observes the odd version
/// or the re-check mismatch and takes the slow path.
///
/// The payload stores are release to pair with the reader's acquire
/// loads: a reader that observes any new payload value then observes
/// the odd/advanced version on its trailing re-read and rejects — on
/// weakly-ordered targets too, where relaxed payload stores could
/// otherwise become visible while the version still reads even.
static void fillSiteEntry(SiteCacheEntry &E, const TypeInfo *Alloc,
                          const TypeInfo *StaticType, uint64_t NormOffset,
                          int64_t RelLo, int64_t RelHi, uint64_t SizeofT,
                          uint64_t FamSize) {
  uint32_t V = E.Version.load(std::memory_order_relaxed);
  if (V & 1)
    return; // Another filler is mid-write.
  if (!E.Version.compare_exchange_strong(V, V + 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed))
    return;
  E.AllocType.store(Alloc, std::memory_order_release);
  E.StaticType.store(StaticType, std::memory_order_release);
  E.NormOffset.store(NormOffset, std::memory_order_release);
  E.RelLo.store(RelLo, std::memory_order_release);
  E.RelHi.store(RelHi, std::memory_order_release);
  E.SizeofT.store(SizeofT, std::memory_order_release);
  E.FamSize.store(FamSize, std::memory_order_release);
  E.FillTick.store(nextSiteFillTick(), std::memory_order_relaxed);
  E.Version.store(V + 2, std::memory_order_release);
}

/// Publishes a resolution into \p Set's fill victim: an empty way if
/// one exists, else the way with the oldest fill-tick stamp — so a
/// 2-type polymorphic site keeps both resolutions resident instead of
/// ping-ponging one slot, and a way left stale by a colliding site
/// ages out instead of squatting.
static void fillSiteSet(SiteCacheEntry *Set, const TypeInfo *Alloc,
                        const TypeInfo *StaticType, uint64_t NormOffset,
                        int64_t RelLo, int64_t RelHi, uint64_t SizeofT,
                        uint64_t FamSize) {
  fillSiteEntry(SiteCache::victimIn(Set), Alloc, StaticType, NormOffset,
                RelLo, RelHi, SizeofT, FamSize);
}

Bounds Runtime::typeCheckImpl(const void *Ptr, const TypeInfo *StaticType,
                              const MetaHeader *Meta, SiteCacheEntry *Fill,
                              SiteId Site) {
  assert(StaticType && "type check against null static type");
  const TypeInfo *Alloc = Meta->Type;
  if (EFFSAN_UNLIKELY(!Alloc))
    return Bounds::wide(); // Untyped low-fat block.

  uintptr_t ObjBase = reinterpret_cast<uintptr_t>(Meta + 1);
  uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
  Bounds AllocBounds{ObjBase, ObjBase + Meta->Size};

  // Deallocated memory: every access is a use-after-free (rule (h)).
  // Never cached — the FREE type also never equals a cached allocation
  // type, which is what makes free an implicit cache invalidation.
  // The STACK-FREE flavor classifies as a stack use-after-return: the
  // object died with its frame, not with a free() call.
  if (EFFSAN_UNLIKELY(Alloc->isFree())) {
    bool Stack = Alloc->isStackFree();
    Reporter.report(ErrorInfo{Stack ? ErrorKind::StackUseAfterReturn
                                    : ErrorKind::UseAfterFree,
                              StaticType, Alloc,
                              static_cast<int64_t>(P - ObjBase), Ptr,
                              Stack ? "use of stack object after frame return"
                                    : "use of freed object",
                              Site, Sites.resolve(Site)});
    return Bounds::wide();
  }

  // Step 2 (line 16): sub-object offset.
  if (EFFSAN_UNLIKELY(P < ObjBase || P > AllocBounds.Hi)) {
    Reporter.report(ErrorInfo{ErrorKind::BoundsError, StaticType, Alloc,
                              static_cast<int64_t>(P) -
                                  static_cast<int64_t>(ObjBase),
                              Ptr, "input pointer outside allocation",
                              Site, Sites.resolve(Site)});
    return Bounds::wide();
  }
  uint64_t K = P - ObjBase;

  // char/void coercion: casting to (char *)/(void *) resets the bounds
  // to the containing allocation (Section 6.1 discussion). The result
  // is offset-independent, so it caches under AnyNormOffset.
  if (StaticType->isCharLike() || StaticType->isVoid()) {
    if (Fill)
      fillSiteSet(Fill, Alloc, StaticType, AnyNormOffset, RelNegInf,
                    RelPosInf, 0, 0);
    return AllocBounds;
  }

  // Step 3 (lines 17-21): layout hash table probe.
  const LayoutTable &Table = Alloc->layout();
  uint64_t NK = Table.normalizeOffset(K, Meta->Size);
  const LayoutEntry *E = Table.lookup(StaticType, NK);
  if (!E && StaticType->isPointer()) {
    // (T*) <-> (void*) coercions: a static (void*) matches any pointer
    // member (AnyPointer index); any static pointer matches a (void*)
    // member.
    const auto *PT = cast<PointerType>(StaticType);
    const TypeInfo *Fallback =
        PT->pointee()->isVoid() ? Ctx.getAnyPointer() : VoidPtrType;
    E = Table.lookup(Fallback, NK);
  }
  if (!E) {
    // The paper's second lookup: coercion from (char[]) to (S[]).
    E = Table.lookup(Ctx.getChar(), NK);
  }
  if (E) {
    // Cache whichever probe succeeded — the entry's relative bounds are
    // the resolution itself, so a hit replays exactly this result.
    if (Fill)
      fillSiteSet(Fill, Alloc, StaticType, NK, E->RelLo, E->RelHi,
                    Table.sizeofT(), Table.famSize());
    return relativeBoundsToAbsolute(E->RelLo, E->RelHi, P, AllocBounds);
  }

  // Line 22: no match — type error; wide bounds afterwards (line 23).
  // Errors are never cached so every erring check keeps reporting
  // (bucketing/dedup happen in the reporter, not here).
  Reporter.report(ErrorInfo{ErrorKind::TypeError, StaticType, Alloc,
                            static_cast<int64_t>(K), Ptr, nullptr, Site,
                            Sites.resolve(Site)});
  return Bounds::wide();
}

Bounds Runtime::typeCheckSlow(const void *Ptr, const TypeInfo *StaticType,
                              SiteId Site, const MetaHeader *Meta,
                              CheckCell &Cell) {
  Cell.bump(Cell.TypeCheckCacheMisses);
  if (EFFSAN_UNLIKELY(obs::profileActive()))
    Prof.noteMiss(Site);
  EFFSAN_OBS_EVENT(CheckSlowPath, Shard, Site);
  SiteCacheEntry *Fill =
      Cache.enabled() ? Cache.setFor(Site) : nullptr;
  return typeCheckImpl(Ptr, StaticType, Meta, Fill, Site);
}

Bounds Runtime::typeCheckTimed(const void *Ptr, const TypeInfo *StaticType,
                               SiteId Site, CheckCell &Cell) {
  // Classify the sampled check by whether it stayed on the inline-cache
  // hit path: any miss or legacy resolution bumps one of these two
  // counters of the calling thread's own cell, which no other thread
  // writes.
  uint64_t SlowBefore =
      Cell.TypeCheckCacheMisses.load(std::memory_order_relaxed) +
      Cell.LegacyTypeChecks.load(std::memory_order_relaxed);
  uint64_t Start = obs::now();
  Bounds B = typeCheckBody(Ptr, StaticType, Site, Cell);
  uint64_t Ticks = obs::now() - Start;
  uint64_t SlowAfter =
      Cell.TypeCheckCacheMisses.load(std::memory_order_relaxed) +
      Cell.LegacyTypeChecks.load(std::memory_order_relaxed);
  if (SlowAfter != SlowBefore)
    obs::checkSlowLatency().observe(Ticks);
  else
    obs::checkFastLatency().observe(Ticks);
  return B;
}

Bounds Runtime::typeCheckUncached(const void *Ptr,
                                  const TypeInfo *StaticType) {
  return Counters.count([=, this](CheckCell &Cell) {
    Cell.bump(Cell.TypeChecks);
    void *Base = Heap.allocationBase(Ptr);
    if (!Base) {
      Cell.bump(Cell.LegacyTypeChecks);
      return Bounds::wide();
    }
    return typeCheckImpl(Ptr, StaticType,
                         static_cast<const MetaHeader *>(Base),
                         /*Fill=*/nullptr, siteForType(StaticType));
  });
}

Bounds Runtime::boundsGet(const void *Ptr, SiteId Site, CheckCell &Cell) {
  Cell.bump(Cell.BoundsGets);
  const MetaHeader *Meta = metaOf(Ptr);
  if (!Meta || !Meta->Type)
    return Bounds::wide();
  if (EFFSAN_UNLIKELY(Meta->Type->isFree())) {
    bool Stack = Meta->Type->isStackFree();
    Reporter.report(ErrorInfo{Stack ? ErrorKind::StackUseAfterReturn
                                    : ErrorKind::UseAfterFree,
                              nullptr, Meta->Type, 0, Ptr,
                              Stack ? "use of stack object after frame return"
                                    : "use of freed object",
                              Site, Sites.resolve(Site)});
    return Bounds::wide();
  }
  return Bounds::forObject(Meta + 1, Meta->Size);
}

void Runtime::boundsCheckFail(const void *Ptr, size_t Size, Bounds B,
                              SiteId Site) {
  // Attribute the failure to the object the *bounds* came from, not to
  // whatever allocation the stray pointer happens to land in: B.Lo is
  // inside (a sub-object of) the checked object, so its META names the
  // object the pointer was derived from. Probing the out-of-bounds
  // pointer instead would read a neighboring block's (or a recycled
  // arena's stale) header — a nondeterministic misattribution. Wide
  // bounds carry no originating object; only then probe the pointer.
  const MetaHeader *Meta =
      B.isWide() ? metaOf(Ptr)
                 : metaOf(reinterpret_cast<const void *>(B.Lo));
  const TypeInfo *Alloc = Meta ? Meta->Type : nullptr;
  int64_t Offset = 0;
  if (Meta)
    Offset = static_cast<int64_t>(reinterpret_cast<uintptr_t>(Ptr)) -
             static_cast<int64_t>(reinterpret_cast<uintptr_t>(Meta + 1));
  const SiteInfo *Where = Sites.resolve(Site);
  if (Alloc && Alloc->isFree()) {
    bool Stack = Alloc->isStackFree();
    Reporter.report(ErrorInfo{Stack ? ErrorKind::StackUseAfterReturn
                                    : ErrorKind::UseAfterFree,
                              nullptr, Alloc, Offset, Ptr,
                              Stack ? "access to stack object after frame return"
                                    : "access to freed object",
                              Site, Where});
    return;
  }
  Reporter.report(ErrorInfo{ErrorKind::BoundsError, nullptr, Alloc, Offset,
                            Ptr, "out-of-bounds access", Site, Where});
}
