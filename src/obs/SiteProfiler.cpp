//===- obs/SiteProfiler.cpp - Hot check-site profiling --------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/SiteProfiler.h"

#include <algorithm>

namespace effective {
namespace obs {

void SiteProfiler::noteCold(Slot &S, uint32_t Site, bool Hit) {
  uint32_t Expected = 0;
  if (!S.Key.compare_exchange_strong(Expected, Site + 1,
                                     std::memory_order_relaxed)) {
    if (Expected != Site + 1) {
      // Another site owns this slot for the session: a direct-map
      // collision. Count it so conflicts() flags undercounted tables.
      Conflicts.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // A racing claim of the SAME site won; fall through and count.
  }
  std::atomic<uint64_t> &C = Hit ? S.Hits : S.Misses;
  C.store(C.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

SiteProfiler::Slot *SiteProfiler::allocateTable() {
  Slot *Fresh = new Slot[NumSlots];
  Slot *Expected = nullptr;
  if (Table.compare_exchange_strong(Expected, Fresh,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire))
    return Fresh;
  delete[] Fresh;
  return Expected;
}

std::vector<SiteProfile> SiteProfiler::collect() const {
  std::vector<SiteProfile> All;
  const Slot *T = Table.load(std::memory_order_acquire);
  if (!T)
    return All;
  for (size_t I = 0; I < NumSlots; ++I) {
    const Slot &S = T[I];
    uint32_t Key = S.Key.load(std::memory_order_relaxed);
    if (!Key)
      continue;
    SiteProfile P;
    P.Site = Key - 1;
    P.Hits = S.Hits.load(std::memory_order_relaxed);
    P.Misses = S.Misses.load(std::memory_order_relaxed);
    All.push_back(P);
  }
  return All;
}

std::vector<SiteProfile> SiteProfiler::topSites(size_t N) const {
  std::vector<SiteProfile> All = collect();
  std::sort(All.begin(), All.end(),
            [](const SiteProfile &A, const SiteProfile &B) {
              return A.Hits + A.Misses > B.Hits + B.Misses;
            });
  if (All.size() > N)
    All.resize(N);
  return All;
}

void SiteProfiler::reset() {
  Slot *T = Table.load(std::memory_order_acquire);
  for (size_t I = 0; T && I < NumSlots; ++I) {
    Slot &S = T[I];
    S.Key.store(0, std::memory_order_relaxed);
    S.Hits.store(0, std::memory_order_relaxed);
    S.Misses.store(0, std::memory_order_relaxed);
  }
  Conflicts.store(0, std::memory_order_relaxed);
}

} // namespace obs
} // namespace effective
