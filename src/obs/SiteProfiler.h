//===- obs/SiteProfiler.h - Hot check-site profiling ------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-session hot check-site counters: a direct-mapped, CAS-claimed
/// slot table mapping SiteId -> {hits, misses}, bumped from the
/// type-check paths when ProfileFlag is set, queried as a sorted
/// top-N "flamegraph of checks" with error-event counts joined from
/// the session's ErrorReporter and file:line:col resolved through the
/// SiteTable at query time.
///
/// The hot-path bump is a relaxed non-RMW load+store on a slot that
/// every thread shares: unlike the exact per-thread check counters
/// (core/CheckCounters.h), per-site counts tolerate rare lost
/// increments in exchange for no lock-prefixed ops on the check path.
/// Slot claims use one CAS the first time a site is seen; a claimed
/// slot never changes owner until reset(). Collisions on the direct map
/// are counted, not chained — profiling is a sampler, not an audit.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_OBS_SITEPROFILER_H
#define EFFECTIVE_OBS_SITEPROFILER_H

#include "obs/Trace.h"
#include "support/Compiler.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace effective {
namespace obs {

/// One profiled site, as returned by topSites().
struct SiteProfile {
  uint32_t Site = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

class SiteProfiler {
public:
  static constexpr size_t DefaultSlots = 1024;

  explicit SiteProfiler(size_t Slots = DefaultSlots) {
    if (!compiledIn())
      return; // Zero slots: note*() bail on the empty table.
    size_t P = 64;
    while (P < Slots)
      P <<= 1;
    NumSlots = P;
    Table.reset(new Slot[P]);
  }

  EFFSAN_ALWAYS_INLINE void noteHit(uint32_t Site) { note(Site, true); }
  EFFSAN_ALWAYS_INLINE void noteMiss(uint32_t Site) { note(Site, false); }

  /// Sites that hashed onto an already-claimed slot (uncounted work).
  uint64_t conflicts() const {
    return Conflicts.load(std::memory_order_relaxed);
  }

  /// The top \p N sites by hits+misses, descending.
  std::vector<SiteProfile> topSites(size_t N) const;

  /// Every claimed slot, unordered — the raw material for cross-table
  /// merges (concurrent::SessionPool sums its shards' tables with
  /// this before ranking once pool-wide).
  std::vector<SiteProfile> collect() const;

  void reset();

private:
  struct Slot {
    /// Site+1 once claimed (0 = empty); CAS-claimed, then stable.
    std::atomic<uint32_t> Key{0};
    std::atomic<uint64_t> Hits{0};
    std::atomic<uint64_t> Misses{0};
  };

  EFFSAN_ALWAYS_INLINE void note(uint32_t Site, bool Hit) {
    if (EFFSAN_UNLIKELY(!NumSlots))
      return;
    Slot &S = Table[(Site * 0x9e3779b9u) & (NumSlots - 1)];
    if (EFFSAN_UNLIKELY(S.Key.load(std::memory_order_relaxed) != Site + 1))
      return noteCold(S, Site, Hit);
    std::atomic<uint64_t> &C = Hit ? S.Hits : S.Misses;
    C.store(C.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }

  /// First sighting of a site (claim its slot) or a direct-map
  /// collision (count and drop).
  EFFSAN_NOINLINE void noteCold(Slot &S, uint32_t Site, bool Hit);

  std::unique_ptr<Slot[]> Table;
  size_t NumSlots = 0;
  std::atomic<uint64_t> Conflicts{0};
};

} // namespace obs
} // namespace effective

#endif // EFFECTIVE_OBS_SITEPROFILER_H
