//===- lowfat/LowFatHeap.cpp - Low-fat pointer heap allocator -------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lowfat/LowFatHeap.h"

#include "obs/Trace.h"
#include "resilience/Fault.h"
#include "support/Compiler.h"

#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <sys/mman.h>

using namespace effective;
using namespace effective::lowfat;

/// Intrusive free-list link. Placed 16 bytes into the block so that the
/// freed object's META header survives until reallocation (Section 5:
/// "the low-fat allocator has also been modified to ensure that the meta
/// data will be preserved until the memory is reallocated").
struct LowFatHeap::FreeNode {
  FreeNode *Next;
};

/// Byte offset of the intrusive link inside a free block.
static constexpr size_t FreeLinkOffset = 16;

/// Frees batched per thread before one locked quarantine-FIFO flush.
static constexpr size_t QuarantineFlushCount = 16;

static_assert(MinClassSize >= FreeLinkOffset + sizeof(void *),
              "smallest class must fit META header plus free-list link");

/// Magazine hits accumulated in a plain thread-local tally before one
/// fetch_add publishes them to the shard's shared counter. The hot
/// path stays free of lock-prefixed RMWs (one `inc` on a TLS field),
/// yet no update is ever lost: the remainder is published whenever the
/// cache retires, rebinds or flushes, so totals are exact after a
/// flush. The service layer's LoadGovernor steers policy off these
/// counters, which is why statistical drift is no longer acceptable.
static constexpr uint64_t TallyPublishThreshold = 64;

//===----------------------------------------------------------------------===//
// Thread caches: per-thread magazines + quarantine batches
//===----------------------------------------------------------------------===//

namespace {

/// Process-wide registry of live heaps (address -> stamp). Arbitrates
/// between dying threads (whose caches flush back to the heap) and
/// dying heaps (whose caches must be abandoned): a cache only touches
/// its heap while holding the lock that the heap's destructor also
/// takes to unregister. Leaked on purpose so thread-exit destructors
/// that run after static destruction still find live objects.
std::mutex &heapRegistryLock() {
  static std::mutex *M = new std::mutex;
  return *M;
}

std::unordered_map<const void *, uint64_t> &liveHeapRegistry() {
  static auto *Map = new std::unordered_map<const void *, uint64_t>;
  return *Map;
}

uint64_t nextHeapStamp() {
  static std::atomic<uint64_t> Counter{0};
  return Counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// One-entry hot cache of the most recent (heap -> thread cache)
/// lookup, so the common case (a thread working against one heap) pays
/// a pointer compare instead of a list walk.
thread_local const void *HotHeap = nullptr;
thread_local uint64_t HotStamp = 0;
thread_local void *HotTC = nullptr;

} // namespace

/// The per-(thread, heap) cache: one magazine per size class (bound to
/// one shard at a time), a spare chain of refill overflow, and the
/// batched quarantine buffer. Destroyed at thread exit, which flushes
/// everything back to the heap if it is still alive.
struct LowFatHeap::ThreadCache {
  LowFatHeap *Heap;
  uint64_t HeapStamp;
  unsigned MagSize;
  /// The shard the magazines hold blocks of (~0u = unbound).
  unsigned BoundShard = ~0u;
  /// The bound shard's epoch as of binding; a mismatch with the live
  /// epoch means resetShard() recycled the arena slice and every cached
  /// block must be discarded, never replayed.
  uint64_t ShardEpoch = 0;
  /// Exact magazine hit/refill tallies for the bound shard, published
  /// in batches of TallyPublishThreshold (and in full at retirement)
  /// via publishTallies(). Dropped, like the cached blocks, when the
  /// bound shard's epoch went stale — the events belonged to the
  /// pre-reset tenant.
  uint64_t HitTally = 0;
  uint64_t RefillTally = 0;
  /// Blocks per class currently in the magazine arrays.
  uint16_t Counts[NumSizeClasses] = {};
  /// Refill overflow: the rest of a popped free list, consumed by later
  /// refills without touching shared state. Owned by BoundShard.
  FreeNode *Spare[NumSizeClasses] = {};
  /// Magazine storage: NumSizeClasses x MagSize slots (null when
  /// magazines are disabled — the cache then only batches quarantine).
  std::unique_ptr<void *[]> Slots;

  struct PendingFree {
    void *Ptr;
    unsigned Class;
    unsigned Shard;
    uint64_t Epoch; ///< Shard epoch at free time (staleness filter).
  };
  std::vector<PendingFree> Pending;
  size_t PendingBytes = 0;

  /// Set under the registry lock when the cache was already flushed or
  /// its heap died; the destructor then must not touch the heap (and
  /// must not re-take the registry lock it may be held under).
  bool Retired = false;

  explicit ThreadCache(LowFatHeap &H)
      : Heap(&H), HeapStamp(H.Stamp), MagSize(H.MagSize) {
    if (MagSize)
      Slots = std::make_unique<void *[]>(
          static_cast<size_t>(NumSizeClasses) * MagSize);
    Pending.reserve(QuarantineFlushCount);
  }

  ~ThreadCache() {
    if (Retired)
      return;
    std::lock_guard<std::mutex> Guard(heapRegistryLock());
    auto &Live = liveHeapRegistry();
    auto It = Live.find(Heap);
    if (It != Live.end() && It->second == HeapStamp)
      Heap->flushCache(*this);
  }

  ThreadCache(const ThreadCache &) = delete;
  ThreadCache &operator=(const ThreadCache &) = delete;

  void **slots(unsigned ClassIndex) {
    return Slots.get() + static_cast<size_t>(ClassIndex) * MagSize;
  }
};

LowFatHeap::ThreadCache *LowFatHeap::threadCache() {
  if (EFFSAN_LIKELY(HotHeap == this && HotStamp == Stamp))
    return static_cast<ThreadCache *>(HotTC);
  return threadCacheSlow();
}

LowFatHeap::ThreadCache *LowFatHeap::threadCacheSlow() {
  // All of this thread's caches, across heaps. Function-local so the
  // vector (and each cache's flushing destructor) runs at thread exit.
  thread_local std::vector<std::unique_ptr<ThreadCache>> Caches;

  ThreadCache *Found = nullptr;
  {
    // Prune caches of dead heaps while we are here (bounds the list by
    // the heaps the thread still uses). Retire under the registry lock
    // so a pruned cache's destructor skips the flush AND the lock.
    std::lock_guard<std::mutex> Guard(heapRegistryLock());
    auto &Live = liveHeapRegistry();
    std::erase_if(Caches, [&](std::unique_ptr<ThreadCache> &C) {
      auto It = Live.find(C->Heap);
      if (It != Live.end() && It->second == C->HeapStamp)
        return false;
      C->Retired = true; // Heap is gone; abandon the cached blocks.
      return true;
    });
  }
  for (auto &C : Caches)
    if (C->Heap == this && C->HeapStamp == Stamp)
      Found = C.get();
  if (!Found) {
    Caches.push_back(std::make_unique<ThreadCache>(*this));
    Found = Caches.back().get();
  }
  HotHeap = this;
  HotStamp = Stamp;
  HotTC = Found;
  return Found;
}

//===----------------------------------------------------------------------===//
// Construction / destruction
//===----------------------------------------------------------------------===//

LowFatHeap::LowFatHeap(const HeapOptions &Options) {
  assert(std::has_single_bit(Options.RegionSize) &&
         "region size must be a power of two");
  QuarantineLimit = Options.QuarantineBytes;
  Shards = Options.NumShards < 1 ? 1 : Options.NumShards;
  if (Shards > MaxHeapShards)
    Shards = MaxHeapShards;
  MagSize = Options.MagazineSize > MaxMagazineSize ? MaxMagazineSize
                                                   : Options.MagazineSize;
  WorkStealing = Options.EnableWorkStealing;
  Stamp = nextHeapStamp();

  // Reserve the arena; retry with smaller regions if the reservation is
  // refused. MAP_NORESERVE keeps untouched pages free of charge. With
  // more than one shard the region is capped at 2^31 bytes so the
  // shard-of-address division is an exact single high multiply.
  uint64_t TryRegion = Options.RegionSize;
  if (Shards > 1 && TryRegion > (1ull << 31))
    TryRegion = 1ull << 31;
  void *Arena = MAP_FAILED;
  while (TryRegion >= (1ull << 26)) {
    ArenaBytes = TryRegion * NumSizeClasses;
    Arena = ::mmap(nullptr, ArenaBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (Arena != MAP_FAILED)
      break;
    TryRegion >>= 1;
  }
  if (Arena == MAP_FAILED) {
    std::fprintf(stderr,
                 "FATAL: low-fat heap: cannot reserve arena (%zu bytes)\n",
                 ArenaBytes);
    std::abort();
  }
  RegionSize = TryRegion;
  RegionShift = static_cast<unsigned>(std::countr_zero(RegionSize));
  ArenaBase = reinterpret_cast<uintptr_t>(Arena);
  ArenaEnd = ArenaBase + ArenaBytes;

  Subs = std::make_unique<SubRegion[]>(
      static_cast<size_t>(NumSizeClasses) * Shards);
  Counters = std::make_unique<ShardCounters[]>(Shards);
  Quarantines = std::make_unique<ShardQuarantine[]>(Shards);
  ShardEpochs = std::make_unique<std::atomic<uint64_t>[]>(Shards);
  for (unsigned S = 0; S < Shards; ++S)
    ShardEpochs[S].store(1, std::memory_order_relaxed);

  for (unsigned I = 0; I < NumSizeClasses; ++I) {
    Region &R = Regions[I];
    R.Begin = ArenaBase + static_cast<uintptr_t>(I) * RegionSize;
    // Each shard's slice is the largest class-size multiple that fits;
    // slices are contiguous from the region base, so every block in any
    // slice sits at a class-aligned offset and base(p) stays a single
    // modulo over the whole region.
    R.SubCapacity = RegionSize / Shards / classSize(I) * classSize(I);
    R.UsableEnd = R.Begin + R.SubCapacity * Shards;
    R.SubMagic = R.SubCapacity ? UINT64_MAX / R.SubCapacity + 1 : 0;
    for (unsigned S = 0; S < Shards; ++S) {
      SubRegion &Sub = subRegion(I, S);
      Sub.Begin = R.Begin + static_cast<uintptr_t>(S) * R.SubCapacity;
      Sub.End = Sub.Begin + R.SubCapacity;
      Sub.Bump.store(Sub.Begin, std::memory_order_relaxed);
    }
  }

  std::lock_guard<std::mutex> Guard(heapRegistryLock());
  liveHeapRegistry().emplace(this, Stamp);
}

LowFatHeap::~LowFatHeap() {
  {
    // After this no thread-exit flush will touch the heap (flushes run
    // under the same lock and re-check liveness).
    std::lock_guard<std::mutex> Guard(heapRegistryLock());
    liveHeapRegistry().erase(this);
  }
  ::munmap(reinterpret_cast<void *>(ArenaBase), ArenaBytes);
  for (auto &Entry : LegacyAllocs)
    std::free(Entry.first);
}

LowFatHeap &LowFatHeap::global() {
  static LowFatHeap Heap;
  return Heap;
}

//===----------------------------------------------------------------------===//
// Statistics plumbing
//===----------------------------------------------------------------------===//

void LowFatHeap::noteAlloc(unsigned Shard, size_t Block, bool Legacy) {
  ShardCounters &C = Counters[Shard];
  uint64_t Now = C.BlockBytesInUse.fetch_add(Block,
                                             std::memory_order_relaxed) +
                 Block;
  C.NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (Legacy)
    C.NumLegacyAllocs.fetch_add(1, std::memory_order_relaxed);
  // Statistical peak tracking (exact single-threaded): a CAS loop here
  // would put a second contended RMW on every allocation.
  if (Now > C.PeakBlockBytesInUse.load(std::memory_order_relaxed))
    C.PeakBlockBytesInUse.store(Now, std::memory_order_relaxed);
}

void LowFatHeap::noteFree(unsigned Shard, size_t Block) {
  ShardCounters &C = Counters[Shard];
  // Saturating subtraction: resetShard() zeroes the counters while
  // legacy blocks attributed to the shard may still be live, so a
  // later legacy free must clamp at zero rather than wrap (and then
  // poison the peak tracking forever).
  uint64_t Cur = C.BlockBytesInUse.load(std::memory_order_relaxed);
  while (!C.BlockBytesInUse.compare_exchange_weak(
      Cur, Cur >= Block ? Cur - Block : 0, std::memory_order_relaxed)) {
  }
  C.NumFrees.fetch_add(1, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Lock-free sub-arena primitives
//===----------------------------------------------------------------------===//

void *LowFatHeap::bumpAlloc(SubRegion &Sub, uint64_t Block) {
  uintptr_t Cur = Sub.Bump.load(std::memory_order_relaxed);
  while (Cur + Block <= Sub.End) {
    // Release pairs with isLowFat()'s acquire: Bump never overshoots
    // End, so a reader can never see a beyond-slice bump value.
    if (Sub.Bump.compare_exchange_weak(Cur, Cur + Block,
                                       std::memory_order_release,
                                       std::memory_order_relaxed))
      return reinterpret_cast<void *>(Cur);
  }
  return nullptr;
}

void LowFatHeap::pushFreeChain(SubRegion &Sub, FreeNode *First,
                               FreeNode *Last) {
  FreeNode *Head = Sub.FreeList.load(std::memory_order_relaxed);
  do {
    Last->Next = Head;
    // Release publishes the chain's links (and the freeing thread's
    // writes into the blocks) to the consumer's acquire exchange. The
    // compare is on the head pointer only and the chain is exclusively
    // ours, so a concurrent pop-all/push cannot corrupt anything
    // (no-ABA: nobody pops single nodes).
  } while (!Sub.FreeList.compare_exchange_weak(Head, First,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
}

void LowFatHeap::pushFreeBlock(SubRegion &Sub, void *Ptr) {
  auto *Node = reinterpret_cast<FreeNode *>(static_cast<char *>(Ptr) +
                                            FreeLinkOffset);
  pushFreeChain(Sub, Node, Node);
}

//===----------------------------------------------------------------------===//
// Magazine management
//===----------------------------------------------------------------------===//

/// Refills the magazine for \p ClassIndex from the thread's spare chain
/// or, when that is dry, by taking the bound sub-arena's entire free
/// list in one exchange (ABA-free pop-all). Returns true when at least
/// one block landed in the magazine.
bool LowFatHeap::refillMagazine(ThreadCache &TC, unsigned ClassIndex,
                                unsigned Shard) {
  if (EFFSAN_FAULT(HeapMagazineRefill))
    return false; // Induced refill failure: fall through to bump/exhaust.
  FreeNode *&Spare = TC.Spare[ClassIndex];
  if (!Spare) {
    Spare = subRegion(ClassIndex, Shard)
                .FreeList.exchange(nullptr, std::memory_order_acquire);
    if (!Spare)
      return false;
  }
  void **Slots = TC.slots(ClassIndex);
  uint16_t &N = TC.Counts[ClassIndex];
  uint16_t Before = N;
  while (N < MagSize && Spare) {
    Slots[N++] = reinterpret_cast<char *>(Spare) - FreeLinkOffset;
    Spare = Spare->Next;
  }
  ++TC.RefillTally;
  EFFSAN_OBS_EVENT(MagazineRefill, Shard, N - Before);
  return true;
}

/// Returns the older half of a full magazine to the bound sub-arena's
/// free list in a single chain push, keeping the newer half for reuse
/// hysteresis.
void LowFatHeap::flushMagazineHalf(ThreadCache &TC, unsigned ClassIndex) {
  void **Slots = TC.slots(ClassIndex);
  unsigned N = TC.Counts[ClassIndex];
  unsigned Flush = N - N / 2;
  assert(Flush > 0 && TC.BoundShard != ~0u);
  FreeNode *First = nullptr, *Prev = nullptr;
  for (unsigned I = 0; I < Flush; ++I) {
    auto *Node = reinterpret_cast<FreeNode *>(
        static_cast<char *>(Slots[I]) + FreeLinkOffset);
    if (Prev)
      Prev->Next = Node;
    else
      First = Node;
    Prev = Node;
  }
  pushFreeChain(subRegion(ClassIndex, TC.BoundShard), First, Prev);
  std::memmove(Slots, Slots + Flush, (N - Flush) * sizeof(void *));
  TC.Counts[ClassIndex] = static_cast<uint16_t>(N - Flush);
  EFFSAN_OBS_EVENT(MagazineFlush, TC.BoundShard, Flush);
}

/// Pushes every magazine block and spare chain back to the bound
/// shard's free lists. \pre the bound shard's epoch is still current.
void LowFatHeap::flushMagazines(ThreadCache &TC) {
  for (unsigned C = 0; C < NumSizeClasses; ++C) {
    if (TC.Counts[C] > 0) {
      unsigned N = TC.Counts[C];
      void **Slots = TC.slots(C);
      FreeNode *First = nullptr, *Prev = nullptr;
      for (unsigned I = 0; I < N; ++I) {
        auto *Node = reinterpret_cast<FreeNode *>(
            static_cast<char *>(Slots[I]) + FreeLinkOffset);
        if (Prev)
          Prev->Next = Node;
        else
          First = Node;
        Prev = Node;
      }
      pushFreeChain(subRegion(C, TC.BoundShard), First, Prev);
      TC.Counts[C] = 0;
    }
    if (TC.Spare[C]) {
      FreeNode *Tail = TC.Spare[C];
      while (Tail->Next)
        Tail = Tail->Next;
      pushFreeChain(subRegion(C, TC.BoundShard), TC.Spare[C], Tail);
      TC.Spare[C] = nullptr;
    }
  }
}

/// Retires the cache's magazines: flush back to the bound shard if its
/// epoch is still current, drop otherwise. The epoch re-check and the
/// flush happen under the shard's quarantine lock, which resetShard()
/// also holds while recycling — so a thread that stopped using a shard
/// long ago (rebind to another shard, thread exit) can never interleave
/// its lazy flush with a reset and repopulate the recycled free lists
/// with pre-reset blocks. Active-use paths stay lock-free; this lock
/// sits only on rebind/exit.
void LowFatHeap::retireMagazines(ThreadCache &TC) {
  if (TC.BoundShard == ~0u)
    return;
  ShardQuarantine &Q = Quarantines[TC.BoundShard];
  std::lock_guard<std::mutex> Guard(Q.Lock);
  if (TC.ShardEpoch ==
      ShardEpochs[TC.BoundShard].load(std::memory_order_relaxed)) {
    publishTallies(TC);
    flushMagazines(TC);
  } else {
    // Stale: the shard was reset; the addresses belong to a new
    // tenant now (or will). Forget them — and the tallies with them:
    // the hits happened on the pre-reset tenant's watch, and the new
    // tenant's counters started from zero.
    std::memset(TC.Counts, 0, sizeof(TC.Counts));
    std::memset(TC.Spare, 0, sizeof(TC.Spare));
    TC.HitTally = 0;
    TC.RefillTally = 0;
  }
}

void LowFatHeap::publishTallies(ThreadCache &TC) {
  if (TC.HitTally) {
    Counters[TC.BoundShard].MagazineHits.fetch_add(
        TC.HitTally, std::memory_order_relaxed);
    TC.HitTally = 0;
  }
  if (TC.RefillTally) {
    Counters[TC.BoundShard].MagazineRefills.fetch_add(
        TC.RefillTally, std::memory_order_relaxed);
    TC.RefillTally = 0;
  }
}

/// Rebinds the cache to \p Shard after retiring the old shard's blocks.
void LowFatHeap::rebindCache(ThreadCache &TC, unsigned Shard) {
  retireMagazines(TC);
  TC.BoundShard = Shard;
  TC.ShardEpoch = ShardEpochs[Shard].load(std::memory_order_relaxed);
}

void LowFatHeap::flushCache(ThreadCache &TC) {
  retireMagazines(TC);
  if (!TC.Pending.empty())
    flushPendingQuarantine(TC);
}

void LowFatHeap::flushThreadCache() { flushCache(*threadCache()); }

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

void *LowFatHeap::allocateOnShard(size_t Size, unsigned Shard) {
  assert(Shard < Shards && "shard index out of range");
  if (Size == 0)
    Size = 1;
  if (Size > MaxClassSize || Size > RegionSize)
    return allocateLegacy(Size, Shard); // Oversized, not exhausted.

  unsigned ClassIndex = sizeToClass(Size);
  uint64_t Block = classSize(ClassIndex);

  if (EFFSAN_LIKELY(MagSize != 0)) {
    ThreadCache *TC = threadCache();
    if (EFFSAN_UNLIKELY(
            TC->BoundShard != Shard ||
            TC->ShardEpoch !=
                ShardEpochs[Shard].load(std::memory_order_relaxed)))
      rebindCache(*TC, Shard);
    uint16_t &N = TC->Counts[ClassIndex];
    if (EFFSAN_LIKELY(N > 0)) {
      // The steady state: a TLS array pop. No lock, no RMW atomic —
      // the hit lands in a thread-local tally, published in batches.
      void *Result = TC->slots(ClassIndex)[--N];
      if (EFFSAN_UNLIKELY(++TC->HitTally >= TallyPublishThreshold))
        publishTallies(*TC);
      noteAlloc(Shard, Block, /*Legacy=*/false);
      return Result;
    }
    if (refillMagazine(*TC, ClassIndex, Shard)) {
      void *Result = TC->slots(ClassIndex)[--TC->Counts[ClassIndex]];
      noteAlloc(Shard, Block, /*Legacy=*/false);
      return Result;
    }
  } else {
    // Magazines disabled: serve straight off the Treiber list. Pop-all
    // then push the remainder back — the stack stays ABA-free because
    // no path ever pops a single node it does not own.
    SubRegion &Sub = subRegion(ClassIndex, Shard);
    FreeNode *All = Sub.FreeList.exchange(nullptr,
                                          std::memory_order_acquire);
    if (All) {
      if (FreeNode *Rest = All->Next) {
        FreeNode *Tail = Rest;
        while (Tail->Next)
          Tail = Tail->Next;
        pushFreeChain(Sub, Rest, Tail);
      }
      noteAlloc(Shard, Block, /*Legacy=*/false);
      return reinterpret_cast<char *>(All) - FreeLinkOffset;
    }
  }

  // An induced slice exhaustion skips the bump allocator and takes the
  // same steal-then-legacy fallback a genuinely dry slice takes.
  if (EFFSAN_LIKELY(!EFFSAN_FAULT(HeapSliceExhausted)))
    if (void *Result = bumpAlloc(subRegion(ClassIndex, Shard), Block)) {
      noteAlloc(Shard, Block, /*Legacy=*/false);
      return Result;
    }
  return allocateExhausted(Size, ClassIndex, Shard);
}

void *LowFatHeap::allocateExhausted(size_t Size, unsigned ClassIndex,
                                    unsigned Shard) {
  uint64_t Block = classSize(ClassIndex);
  if (WorkStealing && Shards > 1) {
    // Refill from a sibling's slice of the same class region. The
    // stolen block lives in the sibling's slice, so base(p)/size(p)
    // stay the same global arithmetic and a later free returns it to
    // the sibling (shardOf is address-derived). Stats attribute the
    // block to its owning (victim) shard for alloc/free symmetry; the
    // steal itself is counted against the requesting shard.
    //
    // Each victim is probed under its quarantine lock — the lock
    // resetShard holds while recycling — so a steal can never
    // interleave with a concurrent reset of the victim (per-shard
    // reset while sibling shards keep allocating is the pool's normal
    // tenant-recycling pattern): the steal completes entirely before
    // the recycle (the block is then a "borrowed block" under the
    // documented contract extension) or entirely after (it serves
    // from the victim's fresh slice like any post-reset allocation).
    // Steals are the rare dry-slice path, so the lock costs the fast
    // path nothing.
    for (unsigned I = 1; I < Shards; ++I) {
      unsigned Victim = (Shard + I) % Shards;
      SubRegion &Sub = subRegion(ClassIndex, Victim);
      std::lock_guard<std::mutex> Guard(Quarantines[Victim].Lock);
      FreeNode *All = Sub.FreeList.exchange(nullptr,
                                            std::memory_order_acquire);
      if (All) {
        if (FreeNode *Rest = All->Next) {
          FreeNode *Tail = Rest;
          while (Tail->Next)
            Tail = Tail->Next;
          pushFreeChain(Sub, Rest, Tail);
        }
        Counters[Shard].Steals.fetch_add(1, std::memory_order_relaxed);
        noteAlloc(Victim, Block, /*Legacy=*/false);
        EFFSAN_OBS_EVENT(Steal, Shard, Victim);
        return reinterpret_cast<char *>(All) - FreeLinkOffset;
      }
      if (void *Result = bumpAlloc(Sub, Block)) {
        Counters[Shard].Steals.fetch_add(1, std::memory_order_relaxed);
        noteAlloc(Victim, Block, /*Legacy=*/false);
        EFFSAN_OBS_EVENT(Steal, Shard, Victim);
        return Result;
      }
    }
  }
  Counters[Shard].ExhaustFallbacks.fetch_add(1, std::memory_order_relaxed);
  return allocateLegacy(Size, Shard);
}

void *LowFatHeap::allocateLegacy(size_t Size, unsigned Shard) {
  // Real OOM degrades gracefully: the null propagates up to the typed
  // allocation layer, which turns it into a diagnosable
  // resource-exhausted report instead of aborting the host process.
  void *Ptr = std::malloc(Size);
  if (EFFSAN_UNLIKELY(!Ptr))
    return nullptr;
  {
    std::lock_guard<std::mutex> Guard(LegacyLock);
    LegacyAllocs.emplace(Ptr, std::make_pair(Size, Shard));
  }
  noteAlloc(Shard, Size, /*Legacy=*/true);
  return Ptr;
}

bool LowFatHeap::deallocateLegacy(void *Ptr) {
  size_t Size;
  unsigned Shard;
  {
    std::lock_guard<std::mutex> Guard(LegacyLock);
    auto It = LegacyAllocs.find(Ptr);
    if (It == LegacyAllocs.end())
      return false;
    Size = It->second.first;
    Shard = It->second.second;
    LegacyAllocs.erase(It);
  }
  std::free(Ptr);
  noteFree(Shard, Size);
  return true;
}

//===----------------------------------------------------------------------===//
// Deallocation and quarantine
//===----------------------------------------------------------------------===//

void LowFatHeap::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  if (!isLowFat(Ptr)) {
    bool Known = deallocateLegacy(Ptr);
    assert(Known && "deallocate of pointer not owned by this heap");
    (void)Known;
    return;
  }
  assert(Ptr == allocationBase(Ptr) &&
         "deallocate of an interior pointer");
  unsigned ClassIndex = allocationClass(Ptr);
  unsigned Shard = shardOf(Ptr);
  uint64_t Block = classSize(ClassIndex);
  noteFree(Shard, Block);

  if (EFFSAN_UNLIKELY(QuarantineLimit != 0)) {
    quarantineBlock(Ptr, ClassIndex, Shard);
    return;
  }

  if (EFFSAN_LIKELY(MagSize != 0)) {
    ThreadCache *TC = threadCache();
    if (EFFSAN_LIKELY(
            TC->BoundShard == Shard &&
            TC->ShardEpoch ==
                ShardEpochs[Shard].load(std::memory_order_relaxed))) {
      // The steady state: a TLS array push (the block's memory is not
      // even touched, so the META header trivially survives).
      if (EFFSAN_UNLIKELY(TC->Counts[ClassIndex] == MagSize))
        flushMagazineHalf(*TC, ClassIndex);
      TC->slots(ClassIndex)[TC->Counts[ClassIndex]++] = Ptr;
      return;
    }
    // Cross-shard (or unbound) free: hand the block straight back to
    // its owning shard's lock-free list.
  }
  pushFreeBlock(subRegion(ClassIndex, Shard), Ptr);
}

void LowFatHeap::quarantineBlock(void *Ptr, unsigned ClassIndex,
                                 unsigned Shard) {
  uint64_t Block = classSize(ClassIndex);
  // Bytes are accounted when the block *enters* quarantine (even while
  // it is still in the thread-local batch), so stats and the eviction
  // budget see every parked block immediately.
  Counters[Shard].QuarantinedBytes.fetch_add(Block,
                                             std::memory_order_relaxed);
  ThreadCache *TC = threadCache();
  TC->Pending.push_back(
      {Ptr, ClassIndex, Shard,
       ShardEpochs[Shard].load(std::memory_order_relaxed)});
  TC->PendingBytes += Block;
  // Flush once per batch — one locked FIFO operation per
  // QuarantineFlushCount frees — or earlier when the batch alone
  // approaches the budget (so tiny budgets still evict promptly).
  if (TC->Pending.size() >= QuarantineFlushCount ||
      TC->PendingBytes * 2 >= QuarantineLimit)
    flushPendingQuarantine(*TC);
}

void LowFatHeap::flushPendingQuarantine(ThreadCache &TC) {
  auto &Pending = TC.Pending;
  if (!Pending.empty())
    EFFSAN_OBS_EVENT(QuarantineFlush, Pending.front().Shard, Pending.size());
  // An induced budget overrun evicts every parked block — the same FIFO
  // path a genuine breach takes, just down to an empty quarantine. The
  // use-after-free reuse delay shrinks; correctness is untouched.
  uint64_t Limit =
      EFFSAN_FAULT(HeapQuarantineOverrun) ? 0 : QuarantineLimit;
  size_t I = 0;
  while (I < Pending.size()) {
    unsigned Shard = Pending[I].Shard;
    ShardQuarantine &Q = Quarantines[Shard];
    std::atomic<uint64_t> &QBytes = Counters[Shard].QuarantinedBytes;
    std::lock_guard<std::mutex> Guard(Q.Lock);
    for (; I < Pending.size() && Pending[I].Shard == Shard; ++I) {
      if (Pending[I].Epoch !=
          ShardEpochs[Shard].load(std::memory_order_relaxed))
        continue; // resetShard() recycled it; the byte accounting was
                  // zeroed with the shard, so just forget the block.
      Q.Blocks.emplace_back(Pending[I].Ptr, Pending[I].Class);
    }
    // FIFO eviction down to the budget: oldest blocks return to the
    // lock-free free lists (all parked blocks belong to this shard).
    while (QBytes.load(std::memory_order_relaxed) > Limit &&
           !Q.Blocks.empty()) {
      auto [Oldest, OldClass] = Q.Blocks.front();
      Q.Blocks.pop_front();
      QBytes.fetch_sub(classSize(OldClass), std::memory_order_relaxed);
      pushFreeBlock(subRegion(OldClass, Shard), Oldest);
    }
  }
  Pending.clear();
  TC.PendingBytes = 0;
}

//===----------------------------------------------------------------------===//
// Metadata queries (unchanged arithmetic — the whole point)
//===----------------------------------------------------------------------===//

size_t LowFatHeap::allocationSize(const void *Ptr) const {
  uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
  if (!isLowFat(Ptr))
    return SIZE_MAX;
  return classSize(regionIndexFor(P));
}

unsigned LowFatHeap::allocationClass(const void *Ptr) const {
  assert(isLowFat(Ptr) && "allocationClass on legacy pointer");
  return regionIndexFor(reinterpret_cast<uintptr_t>(Ptr));
}

unsigned LowFatHeap::shardOf(const void *Ptr) const {
  assert(isLowFat(Ptr) && "shardOf on legacy pointer");
  uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
  const Region &R = Regions[regionIndexFor(P)];
  return subIndexFor(R, P - R.Begin);
}

//===----------------------------------------------------------------------===//
// Shard recycling and statistics
//===----------------------------------------------------------------------===//

void LowFatHeap::resetShard(unsigned Shard) {
  assert(Shard < Shards && "shard index out of range");
  {
    // The quarantine lock serializes the recycle against lazy magazine
    // retirements (rebind-away / thread exit — see retireMagazines):
    // either a retirement flushes first and its blocks are cleared
    // here with the rest of the shard, or it runs after and observes
    // the advanced epoch and drops its blocks. Threads *actively*
    // allocating/freeing on the shard are excluded by this function's
    // precondition, as before.
    ShardQuarantine &Q = Quarantines[Shard];
    std::lock_guard<std::mutex> Guard(Q.Lock);
    // Advance the magazine epoch: any thread cache bound to this shard
    // (including the caller's) discards its blocks on next use instead
    // of replaying addresses into the recycled slice, and stale
    // quarantine batch entries are filtered at flush time.
    ShardEpochs[Shard].fetch_add(1, std::memory_order_release);
    // Drop the shard's quarantine; its entries point into the
    // sub-arenas that are about to be rewound.
    Q.Blocks.clear();
    for (unsigned I = 0; I < NumSizeClasses; ++I) {
      SubRegion &Sub = subRegion(I, Shard);
      Sub.FreeList.store(nullptr, std::memory_order_relaxed);
      Sub.Bump.store(Sub.Begin, std::memory_order_release);
    }
  }
  ShardCounters &C = Counters[Shard];
  C.BlockBytesInUse.store(0, std::memory_order_relaxed);
  C.PeakBlockBytesInUse.store(0, std::memory_order_relaxed);
  C.NumAllocs.store(0, std::memory_order_relaxed);
  C.NumFrees.store(0, std::memory_order_relaxed);
  C.NumLegacyAllocs.store(0, std::memory_order_relaxed);
  C.QuarantinedBytes.store(0, std::memory_order_relaxed);
  C.MagazineHits.store(0, std::memory_order_relaxed);
  C.MagazineRefills.store(0, std::memory_order_relaxed);
  C.Steals.store(0, std::memory_order_relaxed);
  C.ExhaustFallbacks.store(0, std::memory_order_relaxed);
  EFFSAN_OBS_EVENT(ShardRecycle,
                   Shard, ShardEpochs[Shard].load(std::memory_order_relaxed));
}

HeapStats LowFatHeap::shardStats(unsigned Shard) const {
  assert(Shard < Shards && "shard index out of range");
  // Fold the *calling thread's* in-flight tally batch into the shared
  // counters first, so same-thread reads stay exact without a
  // flushThreadCache() round trip (other threads' in-flight batches
  // appear once they publish or flush). Publishing mutates only
  // thread-local tally state and lock-free atomics, so the method
  // stays logically const.
  if (HotHeap == this && HotStamp == Stamp) {
    auto *TC = static_cast<ThreadCache *>(HotTC);
    if (TC && TC->BoundShard == Shard &&
        TC->ShardEpoch ==
            ShardEpochs[Shard].load(std::memory_order_relaxed))
      const_cast<LowFatHeap *>(this)->publishTallies(*TC);
  }
  const ShardCounters &C = Counters[Shard];
  HeapStats S;
  S.BlockBytesInUse = C.BlockBytesInUse.load(std::memory_order_relaxed);
  S.PeakBlockBytesInUse =
      C.PeakBlockBytesInUse.load(std::memory_order_relaxed);
  S.NumAllocs = C.NumAllocs.load(std::memory_order_relaxed);
  S.NumFrees = C.NumFrees.load(std::memory_order_relaxed);
  S.NumLegacyAllocs = C.NumLegacyAllocs.load(std::memory_order_relaxed);
  S.QuarantinedBytes = C.QuarantinedBytes.load(std::memory_order_relaxed);
  S.MagazineHits = C.MagazineHits.load(std::memory_order_relaxed);
  S.MagazineRefills = C.MagazineRefills.load(std::memory_order_relaxed);
  S.Steals = C.Steals.load(std::memory_order_relaxed);
  S.ExhaustFallbacks =
      C.ExhaustFallbacks.load(std::memory_order_relaxed);
  return S;
}

HeapStats LowFatHeap::stats() const {
  HeapStats Sum;
  for (unsigned S = 0; S < Shards; ++S) {
    HeapStats Part = shardStats(S);
    Sum.BlockBytesInUse += Part.BlockBytesInUse;
    Sum.PeakBlockBytesInUse += Part.PeakBlockBytesInUse;
    Sum.NumAllocs += Part.NumAllocs;
    Sum.NumFrees += Part.NumFrees;
    Sum.NumLegacyAllocs += Part.NumLegacyAllocs;
    Sum.QuarantinedBytes += Part.QuarantinedBytes;
    Sum.MagazineHits += Part.MagazineHits;
    Sum.MagazineRefills += Part.MagazineRefills;
    Sum.Steals += Part.Steals;
    Sum.ExhaustFallbacks += Part.ExhaustFallbacks;
  }
  return Sum;
}

uint64_t LowFatHeap::classCarvedBytes(unsigned ClassIndex) const {
  assert(ClassIndex < NumSizeClasses && "class index out of range");
  uint64_t Total = 0;
  for (unsigned S = 0; S < Shards; ++S) {
    const SubRegion &Sub = subRegion(ClassIndex, S);
    Total += Sub.Bump.load(std::memory_order_relaxed) - Sub.Begin;
  }
  return Total;
}

void LowFatHeap::resetPeaks() {
  for (unsigned S = 0; S < Shards; ++S) {
    ShardCounters &C = Counters[S];
    C.PeakBlockBytesInUse.store(
        C.BlockBytesInUse.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }
}
