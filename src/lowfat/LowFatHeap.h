//===- lowfat/LowFatHeap.h - Low-fat pointer heap allocator -----*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A user-space reimplementation of the low-fat pointer heap allocator
/// (Duck & Yap, "Heap Bounds Protection with Low Fat Pointers", CC 2016):
/// one large virtual-memory arena is reserved up front and subdivided into
/// one region per size class. An allocation of class C is placed at a
/// multiple of classSize(C) bytes from the base of region C, so that for
/// any interior pointer p:
///
///   size(p) = classSize((p - ArenaBase) / RegionSize)          -- O(1)
///   base(p) = p - ((p - regionBase) mod classSize)             -- O(1)
///
/// Pointers outside the arena are "legacy" pointers: size(p) = SIZE_MAX
/// and base(p) = nullptr, exactly the compatibility contract of Section 5
/// of the EffectiveSan paper. Requests larger than the largest class fall
/// back to the system allocator and therefore yield legacy pointers.
///
/// The allocator guarantees that the first 16 bytes of a freed block (the
/// object META header, Section 5) are preserved until the block is
/// reallocated: intrusive free-list links are stored at byte offset 16.
/// An optional FIFO quarantine delays reuse of freed blocks, the same
/// mitigation AddressSanitizer employs (discussed in Section 2.1).
///
/// Sharding (HeapOptions::NumShards > 1): each size-class region is
/// carved into NumShards contiguous sub-arenas, each with its own bump
/// pointer and free list, so that concurrent worker threads bound to
/// distinct shards never contend on allocation. Because every shard's
/// slice starts at a multiple of the class size from the region base, the
/// size(p)/base(p) arithmetic above is unchanged and remains valid for
/// pointers allocated on *any* shard — a shard is a placement policy,
/// not a separate address space. Cross-shard frees are allowed (the block
/// returns to its owning shard's free list). All metadata queries stay
/// lock-free.
///
/// Allocation fast path (this layer's whole point — the paper keeps
/// type_malloc cheap because base/size are pure arithmetic, so the
/// allocator itself must not give the cycles back):
///
///   * Per-thread size-class *magazines*: a small TLS cache of blocks
///     per class (tcmalloc-style). The steady-state alloc/free pair is a
///     TLS array pop/push — no locks, no compare-and-swap.
///   * Magazines refill in batches from the owning sub-arena's *Treiber
///     free list* (multi-producer push via CAS; consumers take the whole
///     list with one exchange, which also makes the stack ABA-free) and
///     flush back half a magazine in one chain push when they overflow.
///   * Never-allocated memory comes from an atomic *bump pointer*
///     (CAS loop) — one atomic op per fresh block, no lock.
///   * Frees under an active quarantine park in a per-thread buffer and
///     flush to the shard's FIFO in one locked operation per batch,
///     preserving the reuse-delay guarantee and byte accounting.
///   * When a shard's slice of a class region is exhausted and
///     HeapOptions::EnableWorkStealing is set, the shard refills from a
///     sibling shard's slice (free list, then bump space) instead of
///     falling back to the (locked, legacy-pointer) system allocator.
///     Stolen blocks keep the class-alignment invariant — they live in
///     the sibling's slice, so base(p)/size(p) remain the same global
///     O(1) arithmetic and frees return them to the sibling.
///
/// The only mutexes left are the per-shard quarantine FIFO (taken once
/// per flushed batch) and the legacy-allocation table (oversized
/// requests only).
///
/// TLS reclamation: magazines are epoch-guarded. resetShard() advances
/// the shard's epoch; any thread's cached blocks for that shard are
/// discarded (not replayed) on its next use, so a recycled arena can
/// never serve a stale magazine block. Thread exit flushes caches back
/// to the owning heap if — and only if — the heap is still alive (a
/// process-wide registry arbitrates, so heaps and threads may die in
/// any order).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_LOWFAT_LOWFATHEAP_H
#define EFFECTIVE_LOWFAT_LOWFATHEAP_H

#include "lowfat/SizeClass.h"
#include "support/Compiler.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace effective {
namespace lowfat {

/// Construction-time options for a LowFatHeap.
struct HeapOptions {
  /// Bytes of virtual address space reserved per size-class region.
  /// Must be a power of two. With NumShards > 1, at most 2^31 so the
  /// shard-of-address division stays a single high multiply.
  uint64_t RegionSize = 1ull << 29;

  /// Maximum bytes of freed blocks held in quarantine before reuse;
  /// 0 disables the quarantine. With sharding the budget applies to
  /// each shard's private quarantine.
  size_t QuarantineBytes = 0;

  /// Number of per-shard sub-arenas each size-class region is carved
  /// into (clamped to [1, MaxHeapShards]). 1 = the classic single-arena
  /// heap.
  unsigned NumShards = 1;

  /// Blocks cached per (thread, size class) in the TLS magazine
  /// (clamped to [0, MaxMagazineSize]); 0 disables magazines — every
  /// alloc/free goes straight to the lock-free sub-arena structures.
  unsigned MagazineSize = 16;

  /// Refill from sibling shards' slices when this shard's slice of a
  /// class region runs dry, instead of falling back to the system
  /// allocator. Off by default: stealing trades the legacy fallback
  /// for weaker shard isolation — resetShard()'s "no live pointers"
  /// contract then extends to blocks sibling shards borrowed from the
  /// reset shard's slice.
  bool EnableWorkStealing = false;
};

/// Hard cap on NumShards (keeps the per-(class, shard) state bounded).
inline constexpr unsigned MaxHeapShards = 256;

/// Hard cap on MagazineSize (bounds per-thread cache memory; a bogus
/// huge ABI value must degrade, not allocate gigabytes of TLS).
inline constexpr unsigned MaxMagazineSize = 512;

/// Point-in-time allocator statistics. The heap tracks block (size-class
/// rounded) bytes — the real memory footprint; requested-byte accounting
/// lives in the typed runtime, which knows each object's META header.
/// For sharded heaps stats() sums over the shards; PeakBlockBytesInUse
/// is the sum of per-shard peaks (an upper bound on the true combined
/// peak, exact for a single shard).
struct HeapStats {
  /// Block bytes currently live.
  uint64_t BlockBytesInUse = 0;
  /// High-water mark of BlockBytesInUse.
  uint64_t PeakBlockBytesInUse = 0;
  uint64_t NumAllocs = 0;
  uint64_t NumFrees = 0;
  /// Allocations that fell back to the system allocator.
  uint64_t NumLegacyAllocs = 0;
  /// Bytes currently parked in the quarantine (including per-thread
  /// batches not yet flushed to the shard FIFO).
  uint64_t QuarantinedBytes = 0;
  /// Allocations served by a non-empty TLS magazine (the no-atomics
  /// steady state). Hits and refills are tallied per thread and
  /// published to the shared counters in batches (and in full whenever
  /// a cache retires, rebinds or is flushed), so the totals are exact
  /// after flushThreadCache()/thread exit; between publishes a reader
  /// may lag by at most one in-flight batch per thread.
  uint64_t MagazineHits = 0;
  /// Magazine refills from the owning sub-arena (each moves up to
  /// MagazineSize blocks with O(1) atomic operations).
  uint64_t MagazineRefills = 0;
  /// Blocks served from a sibling shard's slice after this shard's
  /// slice ran dry (EnableWorkStealing), attributed to the requesting
  /// shard.
  uint64_t Steals = 0;
  /// Legacy (system-allocator) fallbacks taken because a slice was
  /// exhausted and stealing was off or found nothing — the subset of
  /// NumLegacyAllocs that is not simply an oversized request.
  uint64_t ExhaustFallbacks = 0;
};

/// The low-fat heap. Thread-safe: alloc/free run lock-free over
/// per-(size class, shard) sub-arenas fronted by per-thread magazines,
/// and the size/base queries are lock-free reads.
class LowFatHeap {
public:
  explicit LowFatHeap(const HeapOptions &Options = HeapOptions());
  ~LowFatHeap();

  LowFatHeap(const LowFatHeap &) = delete;
  LowFatHeap &operator=(const LowFatHeap &) = delete;

  /// Allocates \p Size bytes from shard 0. The result is a low-fat
  /// pointer unless \p Size exceeds the largest size class, in which
  /// case it is a legacy pointer.
  void *allocate(size_t Size) { return allocateOnShard(Size, 0); }

  /// Allocates \p Size bytes from shard \p Shard's sub-arenas. Falls
  /// back to a sibling shard's slice (work stealing, when enabled) and
  /// then the system allocator (legacy pointer) when the request is
  /// oversized or the slices are exhausted. Returns null only when the
  /// system allocator itself is out of memory — callers in the typed
  /// layer turn that into a resource-exhausted report, never UB.
  void *allocateOnShard(size_t Size, unsigned Shard);

  /// Frees a pointer previously returned by allocate()/allocateOnShard()
  /// — from any thread and any shard; the block returns to the calling
  /// thread's magazine (same-shard frees), the owning shard's free list,
  /// or the quarantine. Interior pointers are rejected by assertion. The
  /// first 16 bytes of the block remain intact until the block is handed
  /// out again.
  void deallocate(void *Ptr);

  /// Returns true if \p Ptr points into the low-fat arena (including
  /// one-past-the-end of an allocated block). Inline, like base(p), so
  /// the type check's cache hit makes no call.
  bool isLowFat(const void *Ptr) const {
    uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
    if (P < ArenaBase || P >= ArenaEnd)
      return false;
    unsigned ClassIndex = regionIndexFor(P);
    const Region &R = Regions[ClassIndex];
    return handedOut(P, ClassIndex, R, P - R.Begin);
  }

  /// True if \p Ptr lies anywhere inside the reserved arena. The whole
  /// arena is demand-paged read/write, so accesses inside it are
  /// host-safe even when they are program errors — which is what lets
  /// the interpreter keep executing after logging an error, as the
  /// paper's logging mode does.
  bool isInArena(const void *Ptr) const {
    uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
    return P >= ArenaBase && P < ArenaEnd;
  }

  /// The paper's size(p): the allocation (size-class) size for low-fat
  /// pointers, SIZE_MAX for legacy pointers.
  size_t allocationSize(const void *Ptr) const;

  /// The paper's base(p): the start of the allocated block for low-fat
  /// pointers, nullptr for legacy pointers.
  void *allocationBase(const void *Ptr) const {
    uintptr_t P = reinterpret_cast<uintptr_t>(Ptr);
    if (P < ArenaBase || P >= ArenaEnd)
      return nullptr;
    unsigned ClassIndex = regionIndexFor(P);
    const Region &R = Regions[ClassIndex];
    uint64_t Offset = P - R.Begin;
    // A pointer one-past-the-end of block N computes as the base of
    // block N+1; that is the correct allocation for derived-pointer
    // checks only if N+1 was allocated, which handedOut() establishes.
    // (Shard slices are class-aligned, so N+1 is in the same slice as N
    // whenever it was handed out.)
    uint64_t Base = Offset - classModulo(ClassIndex, Offset);
    if (!handedOut(P, ClassIndex, R, Offset))
      return nullptr;
    return reinterpret_cast<void *>(R.Begin + Base);
  }

  /// Size class index for a low-fat pointer. \pre isLowFat(Ptr).
  unsigned allocationClass(const void *Ptr) const;

  /// The shard whose sub-arena contains a low-fat pointer — pure
  /// address arithmetic, like base(p). \pre isLowFat(Ptr).
  unsigned shardOf(const void *Ptr) const;

  /// Number of per-shard sub-arenas.
  unsigned numShards() const { return Shards; }

  /// Recycles one shard's sub-arenas: drops its free lists and
  /// quarantine, rewinds its bump pointers, zeroes its statistics and
  /// advances the shard's magazine epoch so every thread's cached
  /// blocks for the shard are discarded instead of replayed. Every
  /// low-fat pointer ever served by the shard becomes invalid (legacy)
  /// and its addresses will be handed out again.
  ///
  /// \pre No live pointers from this shard are dereferenced afterwards
  /// and no thread is concurrently allocating on or freeing to it. With
  /// work stealing enabled the contract covers blocks sibling shards
  /// borrowed from this shard's slice, too. Legacy (oversized) blocks
  /// are not recycled.
  void resetShard(unsigned Shard);

  /// Snapshot of the statistics (summed over shards).
  HeapStats stats() const;

  /// Snapshot of one shard's statistics.
  HeapStats shardStats(unsigned Shard) const;

  /// Bytes carved from one size class's region across all shards
  /// (bump-pointer high-water marks; freed blocks stay carved until
  /// their shard is recycled). Feeds the per-class heap-occupancy
  /// gauges of the observability layer.
  uint64_t classCarvedBytes(unsigned ClassIndex) const;

  /// Resets the peak counters to the current values (used between
  /// benchmark phases).
  void resetPeaks();

  /// Flushes the calling thread's magazine and quarantine batches for
  /// this heap back to the shared structures (bench/test hook: makes
  /// TLS-cached state visible to stats() and to other threads without
  /// ending the thread).
  void flushThreadCache();

  /// The region size this heap actually reserved (options may be reduced
  /// if the initial reservation fails).
  uint64_t regionSize() const { return RegionSize; }

  /// The magazine size this heap resolved to (0 = disabled).
  unsigned magazineSize() const { return MagSize; }

  /// Whether slice exhaustion steals from sibling shards.
  bool workStealingEnabled() const { return WorkStealing; }

  /// The process-wide heap used by the EffectiveSan runtime.
  static LowFatHeap &global();

private:
  struct FreeNode;
  struct ThreadCache;
  friend struct ThreadCache;

  /// Per-(size class, shard) sub-arena state. Lock-free: the free list
  /// is a Treiber stack (push = CAS; consumers exchange the whole list,
  /// so no pop ever dereferences a node it does not own — ABA-free),
  /// the bump pointer a CAS loop.
  struct SubRegion {
    /// Next never-allocated address (absolute). Atomic so isLowFat() can
    /// read it without synchronization; never exceeds End.
    std::atomic<uintptr_t> Bump{0};
    std::atomic<FreeNode *> FreeList{nullptr};
    uintptr_t Begin = 0;
    uintptr_t End = 0;
  };

  /// Per-size-class region geometry (immutable after construction).
  struct Region {
    uintptr_t Begin = 0;
    /// Bytes of each shard's slice — a multiple of the class size so
    /// every slice starts on a class-aligned boundary (0 when the class
    /// is too large to split across the shards; such classes serve only
    /// legacy fallbacks).
    uint64_t SubCapacity = 0;
    /// End of the last shard's slice (Begin + SubCapacity * NumShards).
    uintptr_t UsableEnd = 0;
    /// Lemire magic for dividing an in-region offset by SubCapacity
    /// (exact because both fit in 32 bits); unused when Shards == 1.
    uint64_t SubMagic = 0;
  };

  /// Per-shard statistics, cache-line separated; all relaxed atomics.
  struct alignas(64) ShardCounters {
    std::atomic<uint64_t> BlockBytesInUse{0};
    std::atomic<uint64_t> PeakBlockBytesInUse{0};
    std::atomic<uint64_t> NumAllocs{0};
    std::atomic<uint64_t> NumFrees{0};
    std::atomic<uint64_t> NumLegacyAllocs{0};
    std::atomic<uint64_t> QuarantinedBytes{0};
    std::atomic<uint64_t> MagazineHits{0};
    std::atomic<uint64_t> MagazineRefills{0};
    std::atomic<uint64_t> Steals{0};
    std::atomic<uint64_t> ExhaustFallbacks{0};
  };

  /// Per-shard FIFO quarantine of (block, class) pairs. The lock is
  /// taken once per flushed *batch* of frees, not per free.
  struct ShardQuarantine {
    std::mutex Lock;
    std::deque<std::pair<void *, unsigned>> Blocks;
  };

  void *allocateLegacy(size_t Size, unsigned Shard);
  bool deallocateLegacy(void *Ptr);
  void noteAlloc(unsigned Shard, size_t Block, bool Legacy);
  void noteFree(unsigned Shard, size_t Block);

  /// Bump-allocates one block of class \p ClassIndex from \p Sub, or
  /// null when the slice is exhausted.
  void *bumpAlloc(SubRegion &Sub, uint64_t Block);

  /// Pushes the chain [First, Last] onto \p Sub's free list (one CAS).
  static void pushFreeChain(SubRegion &Sub, FreeNode *First,
                            FreeNode *Last);
  /// Pushes one freed block (its FreeNode written here).
  static void pushFreeBlock(SubRegion &Sub, void *Ptr);

  /// The slice-exhausted slow path: work stealing, then legacy.
  void *allocateExhausted(size_t Size, unsigned ClassIndex,
                          unsigned Shard);

  /// Refills one magazine from the spare chain / the sub-arena free
  /// list; true when at least one block landed.
  bool refillMagazine(ThreadCache &TC, unsigned ClassIndex,
                      unsigned Shard);
  /// Returns the older half of a full magazine to the bound sub-arena
  /// in one chain push.
  void flushMagazineHalf(ThreadCache &TC, unsigned ClassIndex);
  /// Pushes every magazine block and spare chain back to the bound
  /// shard (\pre its epoch is current and the shard's quarantine lock
  /// is held or the caller is actively using the shard).
  void flushMagazines(ThreadCache &TC);
  /// Flush-or-drop the bound shard's cached blocks under the shard's
  /// quarantine lock (serialized against resetShard).
  void retireMagazines(ThreadCache &TC);
  /// Publishes the cache's magazine hit/refill tallies to the bound
  /// shard's shared counters with one fetch_add each (exact telemetry:
  /// no update is ever lost, unlike a racy load+store on the shared
  /// counter).
  void publishTallies(ThreadCache &TC);
  /// Rebinds the cache to a new shard after retiring the old one's
  /// blocks.
  void rebindCache(ThreadCache &TC, unsigned Shard);

  /// The calling thread's cache for this heap (created on first use;
  /// null only when magazines are disabled and no quarantine batching
  /// is needed).
  ThreadCache *threadCache();
  ThreadCache *threadCacheSlow();

  /// Appends a freed block to the thread's quarantine batch, flushing
  /// the batch (one locked operation) when it is due.
  void quarantineBlock(void *Ptr, unsigned ClassIndex, unsigned Shard);
  /// Flushes a thread cache's pending quarantine batch into the shard
  /// FIFOs and evicts over-budget blocks to the free lists.
  void flushPendingQuarantine(ThreadCache &TC);
  /// Flushes every magazine and the quarantine batch of \p TC.
  void flushCache(ThreadCache &TC);

  /// The rest of isLowFat() for in-arena \p P at offset \p Off of its
  /// class region \p R. Only the already-allocated prefix of a shard's
  /// slice contains objects; a pointer at or beyond the slice's bump
  /// pointer was never handed out and is treated as legacy (a hardening
  /// refinement over the original allocator, which cannot make this
  /// distinction). This also means a one-past-the-end pointer of a
  /// shard's newest block degrades gracefully to legacy (wide bounds)
  /// rather than resolving to an unallocated block. The acquire load
  /// pairs with bumpAlloc()'s release and resetShard()'s rewind.
  bool handedOut(uintptr_t P, unsigned ClassIndex, const Region &R,
                 uint64_t Off) const {
    if (EFFSAN_UNLIKELY(P >= R.UsableEnd))
      return false; // Region tail no slice covers (or unserviceable class).
    const SubRegion &Sub = subRegion(ClassIndex, subIndexFor(R, Off));
    return P < Sub.Bump.load(std::memory_order_acquire);
  }

  unsigned regionIndexFor(uintptr_t P) const {
    return static_cast<unsigned>((P - ArenaBase) >> RegionShift);
  }

  /// The shard whose slice of \p R contains in-region offset \p Off.
  unsigned subIndexFor(const Region &R, uint64_t Off) const {
    if (Shards == 1)
      return 0;
    return static_cast<unsigned>(
        (static_cast<__uint128_t>(Off) * R.SubMagic) >> 64);
  }

  SubRegion &subRegion(unsigned ClassIndex, unsigned Shard) {
    return Subs[ClassIndex * Shards + Shard];
  }
  const SubRegion &subRegion(unsigned ClassIndex, unsigned Shard) const {
    return Subs[ClassIndex * Shards + Shard];
  }

  uint64_t RegionSize = 0;
  unsigned RegionShift = 0;
  unsigned Shards = 1;
  unsigned MagSize = 0;
  bool WorkStealing = false;
  /// Process-unique instance stamp: thread caches are keyed by heap
  /// address, and the stamp stops a new heap constructed at a dead
  /// heap's address from inheriting its caches.
  uint64_t Stamp = 0;
  uintptr_t ArenaBase = 0;
  uintptr_t ArenaEnd = 0;
  size_t ArenaBytes = 0;
  Region Regions[NumSizeClasses];
  /// Flat [class][shard] sub-arena table.
  std::unique_ptr<SubRegion[]> Subs;
  std::unique_ptr<ShardCounters[]> Counters;
  /// Per-shard magazine epochs, advanced by resetShard() so stale TLS
  /// caches are discarded rather than replayed.
  std::unique_ptr<std::atomic<uint64_t>[]> ShardEpochs;

  size_t QuarantineLimit = 0;
  std::unique_ptr<ShardQuarantine[]> Quarantines;

  mutable std::mutex LegacyLock;
  /// Legacy block -> (size, allocating shard).
  std::unordered_map<void *, std::pair<size_t, unsigned>> LegacyAllocs;
};

} // namespace lowfat
} // namespace effective

#endif // EFFECTIVE_LOWFAT_LOWFATHEAP_H
