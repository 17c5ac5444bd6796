//===- core/CheckCounters.h - Exact per-thread check counters ---*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic check counters (the paper's Figure 7 "#Type" and
/// "#Bounds" columns, plus the Section 6.1 legacy-pointer ratio). The
/// service's MaxChecks quota and the ABI's counter calls read them too,
/// so they are exact under any number of checking threads — without a
/// lock-prefixed RMW on the check path.
///
/// Each Runtime holds one cache-line CheckCell per counter slot. A
/// thread takes a process-wide slot index on its first claim (a
/// mutex-guarded free list) and returns it when it exits. In every
/// Runtime, the cell at that index has that thread as its only writer,
/// so a relaxed load + store bump loses nothing. A thread's counts
/// stay in its cell after it exits; the next owner of the slot (the
/// most recently freed slot is handed out first) keeps adding to them.
///
/// A thread that holds no slot — more than NumCounterSlots threads are
/// live — counts into a private scratch cell (OwnedCell) whose counts
/// are added to the runtime's shared overflow cell with fetch_add, so
/// it is exact too. snapshot() sums the cells.
///
/// Finding the cell is one thread-local load and a compare. Code that
/// checks in a loop finds it once — RuntimeScope for CheckedPtr, the
/// interpreters once per run — and passes it to the check entry
/// points.
///
/// CheckedPtr's bounds checks (the hottest check by far) do not touch
/// a cell at all: each adds one to the thread's PendingBoundsChecks
/// word, and settlePendingChecks() later adds the word to the cell of
/// the runtime the checks were made against. A thread settles when a
/// RuntimeScope begins or ends, when it calls snapshot() or reset()
/// itself, when it changes the default runtime, and when it exits. The
/// exit settle is registered by the thread's first scope, first event
/// that gets bounds from a runtime (an input or cast event,
/// allocateChecked) or first failed bounds check; a thread that only dereferences pointers made on
/// other threads, with no scope, should call settlePendingChecks()
/// before it exits.
///
/// When counts are visible, then:
///   * A snapshot taken by a thread includes all of its own checks.
///   * Other threads' type checks, narrows, bounds_gets and per-call
///     bounds checks (Runtime::boundsCheck, the interpreters, the VM,
///     the C ABI) are included once those threads are synchronized
///     with the caller: joined, or past a barrier.
///   * Another thread's CheckedPtr bounds checks are included once that
///     thread has settled them and is synchronized with the caller:
///     its scope has ended, it has read or reset counters, or it has
///     been joined. A barrier alone is not enough. A slotless thread's
///     scratch cell (OwnedCell) has the same contract.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_CHECKCOUNTERS_H
#define EFFECTIVE_CORE_CHECKCOUNTERS_H

#include "support/Compiler.h"

#include <atomic>
#include <cstdint>

namespace effective {

/// Per-thread counter slots in every Runtime.
inline constexpr unsigned NumCounterSlots = 64;
/// The slot index of the shared overflow cell; also the slot of a
/// thread that holds none.
inline constexpr unsigned OverflowSlot = NumCounterSlots;

/// The calling thread's counter slot: OverflowSlot until the thread
/// claims one (and again once it has returned it at exit).
inline unsigned &threadCounterSlot() {
  thread_local unsigned Slot = OverflowSlot;
  return Slot;
}

/// The calling thread's CheckedPtr bounds checks not yet added to a
/// cell. A plain word that only its thread touches, so a check counts
/// with one add to a thread-local address: no binding load, no cell
/// and no atomic.
inline constinit thread_local uint64_t PendingBoundsChecks = 0;

namespace detail {
/// Adds PendingBoundsChecks to its cell and zeroes it (core/Runtime.cpp,
/// which knows the thread's runtime binding).
void settlePendingChecksSlow();
} // namespace detail

/// Adds the calling thread's pending CheckedPtr bounds checks to the
/// runtime they were made against — the bound scope's cell, else the
/// fallback runtime (core/CheckedPtr.h) — and zeroes the word.
inline void settlePendingChecks() {
  if (PendingBoundsChecks != 0)
    detail::settlePendingChecksSlow();
}

/// Claims a counter slot for the calling thread if it never tried
/// before, and returns its slot (OverflowSlot when all are taken). The
/// slot returns to the free list when the thread exits.
unsigned claimCounterSlot();

/// One thread's counts in one Runtime. Only its owner writes it.
struct alignas(64) CheckCell {
  std::atomic<uint64_t> TypeChecks{0};
  std::atomic<uint64_t> LegacyTypeChecks{0};
  std::atomic<uint64_t> BoundsChecks{0};
  std::atomic<uint64_t> BoundsNarrows{0};
  std::atomic<uint64_t> BoundsGets{0};
  /// type_checks resolved by the site-indexed inline cache (fast path)
  /// vs. the slow path (which includes checks on untyped/freed blocks
  /// and type errors — anything past the META fetch that missed the
  /// cache). Legacy (non-low-fat) checks hit neither bucket, so
  /// Hits + Misses + LegacyTypeChecks == TypeChecks.
  std::atomic<uint64_t> TypeCheckCacheHits{0};
  std::atomic<uint64_t> TypeCheckCacheMisses{0};

  /// Counts one event into \p C (a field of this cell) and returns the
  /// count before it, which doubles as the samplers' decimator. The
  /// caller owns the cell, so a relaxed load + store is exact and costs
  /// no lock-prefixed op.
  static EFFSAN_ALWAYS_INLINE uint64_t bump(std::atomic<uint64_t> &C) {
    uint64_t N = C.load(std::memory_order_relaxed);
    C.store(N + 1, std::memory_order_relaxed);
    return N;
  }
};

/// The counters of one Runtime: a cell per slot plus the overflow cell.
class CheckCounters {
public:
  CheckCounters() = default;
  CheckCounters(const CheckCounters &) = delete;
  CheckCounters &operator=(const CheckCounters &) = delete;

  /// Plain-value snapshot.
  struct Snapshot {
    uint64_t TypeChecks = 0;
    uint64_t LegacyTypeChecks = 0;
    uint64_t BoundsChecks = 0;
    uint64_t BoundsNarrows = 0;
    uint64_t BoundsGets = 0;
    uint64_t TypeCheckCacheHits = 0;
    uint64_t TypeCheckCacheMisses = 0;

    /// Field-wise accumulation — how the session pool and the
    /// multi-threaded harness merge per-shard counters.
    Snapshot &operator+=(const Snapshot &O) {
      TypeChecks += O.TypeChecks;
      LegacyTypeChecks += O.LegacyTypeChecks;
      BoundsChecks += O.BoundsChecks;
      BoundsNarrows += O.BoundsNarrows;
      BoundsGets += O.BoundsGets;
      TypeCheckCacheHits += O.TypeCheckCacheHits;
      TypeCheckCacheMisses += O.TypeCheckCacheMisses;
      return *this;
    }

    friend Snapshot operator+(Snapshot A, const Snapshot &B) {
      A += B;
      return A;
    }
  };

  /// The calling thread's cell, or null when it holds no slot.
  EFFSAN_ALWAYS_INLINE CheckCell *ownCell() {
    unsigned Slot = threadCounterSlot();
    return Slot < NumCounterSlots ? &Cells[Slot] : nullptr;
  }

  /// Runs \p Check(CheckCell &) on the calling thread's cell; a thread
  /// without a slot takes the out-of-line path, which claims one or
  /// counts through the overflow cell. How a per-call check entry point
  /// counts. \p Check should capture by value, so no argument of the
  /// check has to live in memory on the fast path.
  template <typename Fn>
  EFFSAN_ALWAYS_INLINE decltype(auto) count(Fn Check) {
    if (CheckCell *Cell = ownCell(); EFFSAN_LIKELY(Cell != nullptr))
      return Check(*Cell);
    return countUnowned(Check);
  }

  /// The cell of slot \p Slot (OverflowSlot: the shared cell).
  const CheckCell &cellAt(unsigned Slot) const { return Cells[Slot]; }

  /// The sum over every cell, after settling the calling thread's
  /// pending bounds checks. What it includes of other threads' counts
  /// is in the file comment.
  Snapshot snapshot() const;
  static Snapshot snapshotOf(const CheckCell &C);

  /// Settles the calling thread's pending bounds checks, then zeroes
  /// every cell. Same precondition as Runtime::reset: nothing checks
  /// through this runtime concurrently, and no other thread holds
  /// unsettled checks against it.
  void reset();

private:
  friend class OwnedCell;

  template <typename Fn>
  EFFSAN_NOINLINE decltype(auto) countUnowned(Fn Check);

  /// Adds what \p Scratch counted since \p Seed to the overflow cell.
  void addToOverflow(const CheckCell &Scratch, const Snapshot &Seed);

  CheckCell Cells[NumCounterSlots + 1];
};

/// A cell that the calling thread owns for this object's lifetime: its
/// slot's cell (claiming the slot first), or — when every slot is
/// taken — a private scratch cell whose counts are added to the
/// overflow cell when this object dies. What a scope or an interpreter
/// run counts into. The scratch cell starts from the overflow cell's
/// counts, so the samplers' decimators keep their rate. A reset() of
/// the runtime while a scratch cell is live does not clear what it
/// counted before the reset.
class OwnedCell {
public:
  explicit OwnedCell(CheckCounters &Counters);
  ~OwnedCell() {
    if (Cell == &Scratch)
      Counters.addToOverflow(Scratch, Seed);
  }
  OwnedCell(const OwnedCell &) = delete;
  OwnedCell &operator=(const OwnedCell &) = delete;

  CheckCell &operator*() const { return *Cell; }

private:
  CheckCounters &Counters;
  CheckCell *Cell;
  CheckCell Scratch;
  CheckCounters::Snapshot Seed;
};

template <typename Fn>
EFFSAN_NOINLINE decltype(auto) CheckCounters::countUnowned(Fn Check) {
  OwnedCell Cell(*this);
  return Check(*Cell);
}

} // namespace effective

#endif // EFFECTIVE_CORE_CHECKCOUNTERS_H
