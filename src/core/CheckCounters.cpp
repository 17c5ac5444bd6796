//===- core/CheckCounters.cpp - Exact per-thread check counters -----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CheckCounters.h"

#include <mutex>
#include <vector>

using namespace effective;

namespace {

/// The process-wide slot allocator. Leaked, so threads that exit during
/// static destruction can still return their slots.
struct SlotRegistry {
  std::mutex Lock;
  /// Freed slots, reused last-in first-out.
  std::vector<unsigned> Free;
  /// Slots below this have been handed out at least once; the cells
  /// above it are still zero in every Runtime, so snapshot() and
  /// reset() skip them.
  std::atomic<unsigned> HighWater{0};
};

SlotRegistry &registry() {
  static SlotRegistry *R = new SlotRegistry;
  return *R;
}

/// Returns the thread's slot to the free list when the thread exits.
/// Constructed by the claim, so it is destroyed after every
/// thread_local whose construction claimed or followed the claim.
struct SlotOwner {
  unsigned Slot;
  ~SlotOwner() {
    threadCounterSlot() = OverflowSlot;
    SlotRegistry &R = registry();
    std::lock_guard<std::mutex> Guard(R.Lock);
    R.Free.push_back(Slot);
  }
};

unsigned slotsInUse() {
  return registry().HighWater.load(std::memory_order_acquire);
}

} // namespace

unsigned effective::claimCounterSlot() {
  thread_local bool Tried = false;
  unsigned &Slot = threadCounterSlot();
  if (Tried)
    return Slot;
  Tried = true;
  SlotRegistry &R = registry();
  {
    std::lock_guard<std::mutex> Guard(R.Lock);
    unsigned Next = R.HighWater.load(std::memory_order_relaxed);
    if (!R.Free.empty()) {
      Slot = R.Free.back();
      R.Free.pop_back();
    } else if (Next < NumCounterSlots) {
      Slot = Next;
      R.HighWater.store(Next + 1, std::memory_order_release);
    } else {
      return Slot; // Every slot is live: stay on the overflow cell.
    }
  }
  thread_local SlotOwner Owner{Slot};
  return Slot;
}

CheckCounters::Snapshot CheckCounters::snapshotOf(const CheckCell &C) {
  return Snapshot{C.TypeChecks.load(std::memory_order_relaxed),
                  C.LegacyTypeChecks.load(std::memory_order_relaxed),
                  C.BoundsChecks.load(std::memory_order_relaxed),
                  C.BoundsNarrows.load(std::memory_order_relaxed),
                  C.BoundsGets.load(std::memory_order_relaxed),
                  C.TypeCheckCacheHits.load(std::memory_order_relaxed),
                  C.TypeCheckCacheMisses.load(std::memory_order_relaxed)};
}

CheckCounters::Snapshot CheckCounters::snapshot() const {
  settlePendingChecks();
  Snapshot Sum = snapshotOf(Cells[OverflowSlot]);
  for (unsigned I = 0, E = slotsInUse(); I < E; ++I)
    Sum += snapshotOf(Cells[I]);
  return Sum;
}

/// Stores \p S into the fields of \p C.
static void storeSnapshot(CheckCell &C, const CheckCounters::Snapshot &S) {
  C.TypeChecks.store(S.TypeChecks, std::memory_order_relaxed);
  C.LegacyTypeChecks.store(S.LegacyTypeChecks, std::memory_order_relaxed);
  C.BoundsChecks.store(S.BoundsChecks, std::memory_order_relaxed);
  C.BoundsNarrows.store(S.BoundsNarrows, std::memory_order_relaxed);
  C.BoundsGets.store(S.BoundsGets, std::memory_order_relaxed);
  C.TypeCheckCacheHits.store(S.TypeCheckCacheHits, std::memory_order_relaxed);
  C.TypeCheckCacheMisses.store(S.TypeCheckCacheMisses,
                               std::memory_order_relaxed);
}

void CheckCounters::reset() {
  settlePendingChecks();
  storeSnapshot(Cells[OverflowSlot], Snapshot());
  for (unsigned I = 0, E = slotsInUse(); I < E; ++I)
    storeSnapshot(Cells[I], Snapshot());
}

void CheckCounters::addToOverflow(const CheckCell &Scratch,
                                  const Snapshot &Seed) {
  Snapshot Now = snapshotOf(Scratch);
  CheckCell &O = Cells[OverflowSlot];
  auto Add = [](std::atomic<uint64_t> &C, uint64_t After, uint64_t Before) {
    if (After != Before)
      C.fetch_add(After - Before, std::memory_order_relaxed);
  };
  Add(O.TypeChecks, Now.TypeChecks, Seed.TypeChecks);
  Add(O.LegacyTypeChecks, Now.LegacyTypeChecks, Seed.LegacyTypeChecks);
  Add(O.BoundsChecks, Now.BoundsChecks, Seed.BoundsChecks);
  Add(O.BoundsNarrows, Now.BoundsNarrows, Seed.BoundsNarrows);
  Add(O.BoundsGets, Now.BoundsGets, Seed.BoundsGets);
  Add(O.TypeCheckCacheHits, Now.TypeCheckCacheHits, Seed.TypeCheckCacheHits);
  Add(O.TypeCheckCacheMisses, Now.TypeCheckCacheMisses,
      Seed.TypeCheckCacheMisses);
}

OwnedCell::OwnedCell(CheckCounters &Counters) : Counters(Counters) {
  unsigned Slot = claimCounterSlot();
  if (Slot < NumCounterSlots) {
    Cell = &Counters.Cells[Slot];
    return;
  }
  Seed = CheckCounters::snapshotOf(Counters.Cells[OverflowSlot]);
  storeSnapshot(Scratch, Seed);
  Cell = &Scratch;
}
