//===- service/ServiceCounters.h - The service counter table ---*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every series the Supervisor publishes, written down once: stats(),
/// activitySignature(), snapshotJson()'s service block, the metrics
/// registry and effsan_service_get_stats are loops over
/// ServiceCounters::Rows. Adding a service counter takes a ServiceStats
/// member, its row among the leading ServiceStats rows, and, for C
/// callers, the matching uint64_t field before `health` in
/// effsan_service_stats.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SERVICE_SERVICECOUNTERS_H
#define EFFECTIVE_SERVICE_SERVICECOUNTERS_H

#include "core/CheckCounters.h"
#include "lowfat/LowFatHeap.h"
#include "service/Supervisor.h"

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace effective {
namespace service {

/// What a refresh reads besides ServiceStats and the pool snapshots.
struct ServiceGauges {
  uint64_t Health = 0;           ///< ServiceHealth as 0/1/2.
  uint64_t RingOccupancyPct = 0; ///< Error-ring occupancy in percent.
};

/// One published series. It reads exactly one member: of ServiceStats
/// (a service counter, which stats() fills through Read), of the
/// pool-wide check counters or heap stats, or of ServiceGauges.
struct StatRow {
  using Reader = uint64_t (*)(Supervisor &, const TenantRegistry::Totals &);

  uint64_t ServiceStats::*Stat = nullptr;
  const char *Json = nullptr; ///< snapshotJson key.
  bool Activity = false;      ///< Feeds activitySignature().
  Reader Read = nullptr;
  const char *Name; ///< Prometheus family.
  const char *Help;
  bool Gauge = false; ///< Else a counter.
  uint64_t CheckCounters::Snapshot::*Check = nullptr;
  uint64_t lowfat::HeapStats::*HeapStat = nullptr;
  uint64_t ServiceGauges::*Live = nullptr;
  const char *Labels = "";
};

/// The table. A struct only so that Supervisor can befriend it: the
/// readers reach the drainer-owned counters.
struct ServiceCounters {
  static const StatRow Rows[];
  static const size_t NumRows;
  /// The ServiceStats rows lead the table, one per uint64_t member.
  static const size_t NumStats;

private:
  using Totals = TenantRegistry::Totals;
  using Snap = CheckCounters::Snapshot;
  using HeapStats = lowfat::HeapStats;
  static constexpr bool Signal = true;    ///< Feeds activitySignature().
  static constexpr bool SelfOnly = false; ///< Moves even when idle.
  static constexpr const char *ChecksTotal = "effsan_checks_total";
  static constexpr const char *ChecksHelp = "Dynamic checks executed";

  static uint64_t own(const std::atomic<uint64_t> &Counter) {
    return Counter.load(std::memory_order_relaxed);
  }
};

inline constexpr StatRow ServiceCounters::Rows[] = {
    {&ServiceStats::TenantsOpen, "tenants_open", Signal,
     [](Supervisor &S, const Totals &) -> uint64_t {
       return S.Tenants.occupied();
     },
     "effsan_service_tenants_open", "Occupied tenant slots", /*Gauge=*/true},
    {&ServiceStats::TenantsOpenedTotal, "tenants_opened_total", Signal,
     [](Supervisor &, const Totals &T) { return T.Opened; },
     "effsan_service_tenants_opened_total", "Tenant slots ever opened"},
    {&ServiceStats::TenantsEvicted, "tenants_evicted", Signal,
     [](Supervisor &, const Totals &T) { return T.Evicted; },
     "effsan_service_tenants_evicted_total",
     "Tenant evictions, including explicit closes"},
    {&ServiceStats::TenantsClosed, "tenants_closed", Signal,
     [](Supervisor &, const Totals &T) { return T.Closed; },
     "effsan_service_tenants_closed_total", "Tenant slots fully recycled"},
    {&ServiceStats::LeasesGranted, "leases_granted", Signal,
     [](Supervisor &, const Totals &T) { return T.LeasesGranted; },
     "effsan_service_leases_granted_total", "Shard leases granted"},
    {&ServiceStats::LeasesRefused, "leases_refused", Signal,
     [](Supervisor &, const Totals &T) { return T.LeasesRefused; },
     "effsan_service_leases_refused_total",
     "Shard leases refused at the quota gate"},
    {&ServiceStats::DrainTicks, "drain_ticks", SelfOnly,
     [](Supervisor &S, const Totals &) { return own(S.DrainTicks); },
     "effsan_service_drain_ticks_total", "Drain-loop ticks completed"},
    {&ServiceStats::DrainedEvents, "drained_events", Signal,
     [](Supervisor &S, const Totals &) { return own(S.DrainedEvents); },
     "effsan_service_drained_events_total",
     "Error events drained from the pool ring"},
    {&ServiceStats::RingOverflows, "ring_overflows", Signal,
     [](Supervisor &S, const Totals &) { return S.Pool.ringOverflows(); },
     "effsan_service_ring_overflows_total",
     "Error-ring pushes refused because the ring was full"},
    {&ServiceStats::PolicyDegrades, "policy_degrades", Signal,
     [](Supervisor &S, const Totals &) { return own(S.PolicyDegrades); },
     "effsan_service_policy_degrades_total", "Governor degrade steps"},
    {&ServiceStats::PolicyRestores, "policy_restores", Signal,
     [](Supervisor &S, const Totals &) { return own(S.PolicyRestores); },
     "effsan_service_policy_restores_total", "Governor restore steps"},
    {&ServiceStats::IssuesFound, "issues_found", Signal,
     [](Supervisor &S, const Totals &) {
       return S.Pool.reporter().numIssues();
     },
     "effsan_service_issues_found_total",
     "Distinct issues in the central reporter"},
    {&ServiceStats::SnapshotsEmitted, "snapshots_emitted", SelfOnly,
     [](Supervisor &S, const Totals &) { return own(S.SnapshotsEmitted); },
     "effsan_service_snapshots_emitted_total", "Snapshot hook invocations"},
    {&ServiceStats::SnapshotsSkipped, "snapshots_skipped", SelfOnly,
     [](Supervisor &S, const Totals &) { return own(S.SnapshotsSkipped); },
     "effsan_service_snapshots_skipped_total",
     "Snapshot cadences skipped by the dirty flag"},
    {&ServiceStats::RingFallbacks, "ring_fallbacks", Signal,
     [](Supervisor &S, const Totals &) { return S.Pool.ringFallbacks(); },
     "effsan_service_ring_fallbacks_total",
     "Overflowed error events delivered via the locked fallback"},
    {&ServiceStats::RingDrops, "ring_drops", Signal,
     [](Supervisor &S, const Totals &) { return S.Pool.ringDrops(); },
     "effsan_service_ring_drops_total",
     "Overflowed error events dropped (opt-in accounted loss)"},
    {&ServiceStats::DrainRestarts, "drain_restarts", Signal,
     [](Supervisor &S, const Totals &) { return own(S.DrainRestarts); },
     "effsan_service_drain_restarts_total",
     "Dead drain threads restarted by the watchdog"},
    {&ServiceStats::WatchdogChecks, "watchdog_checks", SelfOnly,
     [](Supervisor &S, const Totals &) { return own(S.WatchdogChecks); },
     "effsan_service_watchdog_checks_total",
     "Watchdog liveness checks performed"},
    {.Name = "effsan_service_health",
     .Help = "Service health state (0 healthy, 1 degraded, 2 critical)",
     .Gauge = true, .Live = &ServiceGauges::Health},
    {.Name = "effsan_service_ring_occupancy_percent",
     .Help = "Error-ring occupancy at the last tick start (percent)",
     .Gauge = true, .Live = &ServiceGauges::RingOccupancyPct},
    {.Name = ChecksTotal, .Help = ChecksHelp,
     .Check = &Snap::TypeChecks, .Labels = "kind=\"type\""},
    {.Name = ChecksTotal, .Help = ChecksHelp,
     .Check = &Snap::BoundsChecks, .Labels = "kind=\"bounds\""},
    {.Name = ChecksTotal, .Help = ChecksHelp,
     .Check = &Snap::BoundsNarrows, .Labels = "kind=\"bounds_narrow\""},
    {.Name = ChecksTotal, .Help = ChecksHelp,
     .Check = &Snap::BoundsGets, .Labels = "kind=\"bounds_get\""},
    {.Name = ChecksTotal, .Help = ChecksHelp,
     .Check = &Snap::LegacyTypeChecks, .Labels = "kind=\"legacy_type\""},
    {.Name = "effsan_check_cache_hits_total",
     .Help = "Type-check inline-cache hits",
     .Check = &Snap::TypeCheckCacheHits},
    {.Name = "effsan_check_cache_misses_total",
     .Help = "Type-check inline-cache misses",
     .Check = &Snap::TypeCheckCacheMisses},
    {.Name = "effsan_heap_allocs_total", .Help = "Heap allocations",
     .HeapStat = &HeapStats::NumAllocs},
    {.Name = "effsan_heap_frees_total", .Help = "Heap frees",
     .HeapStat = &HeapStats::NumFrees},
    {.Name = "effsan_heap_magazine_hits_total",
     .Help = "Allocations served from a TLS magazine",
     .HeapStat = &HeapStats::MagazineHits},
    {.Name = "effsan_heap_magazine_refills_total",
     .Help = "TLS magazine refills", .HeapStat = &HeapStats::MagazineRefills},
    {.Name = "effsan_heap_steals_total", .Help = "Cross-shard refill steals",
     .HeapStat = &HeapStats::Steals},
    {.Name = "effsan_heap_block_bytes_in_use",
     .Help = "Live block bytes across shards", .Gauge = true,
     .HeapStat = &HeapStats::BlockBytesInUse},
    {.Name = "effsan_heap_quarantined_bytes",
     .Help = "Bytes parked in free quarantine", .Gauge = true,
     .HeapStat = &HeapStats::QuarantinedBytes},
};

inline constexpr size_t ServiceCounters::NumRows = std::size(Rows);

inline constexpr size_t ServiceCounters::NumStats = [] {
  size_t N = 0;
  while (N < NumRows && Rows[N].Stat)
    ++N;
  return N;
}();
static_assert(sizeof(ServiceStats) ==
                  (ServiceCounters::NumStats + 1) * sizeof(uint64_t),
              "one row per ServiceStats counter");

} // namespace service
} // namespace effective

#endif // EFFECTIVE_SERVICE_SERVICECOUNTERS_H
