//===- service/Supervisor.cpp - Multi-tenant sanitizer supervisor ---------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Supervisor.h"

#include "lowfat/LowFatHeap.h"
#include "lowfat/SizeClass.h"
#include "obs/Trace.h"
#include "resilience/Fault.h"

#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

using namespace effective;
using namespace effective::service;

//===----------------------------------------------------------------------===//
// Construction / shutdown
//===----------------------------------------------------------------------===//

static concurrent::PoolOptions poolOptions(const ServiceOptions &Options) {
  concurrent::PoolOptions P;
  P.Shards = Options.Shards;
  P.Policy = Options.Policy;
  P.Reporter = Options.Reporter;
  P.Heap = Options.Heap;
  P.ErrorRingCapacity = Options.ErrorRingCapacity;
  P.SiteCacheEntries = Options.SiteCacheEntries;
  P.RingRetryAttempts = Options.RingRetryAttempts;
  P.DropOnRingFull = Options.DropOnRingFull;
  return P;
}

const char *effective::service::healthName(ServiceHealth H) {
  switch (H) {
  case ServiceHealth::Healthy:
    return "healthy";
  case ServiceHealth::Degraded:
    return "degraded";
  case ServiceHealth::Critical:
    return "critical";
  }
  return "?";
}

Supervisor::Supervisor(const ServiceOptions &Options)
    : Pool(poolOptions(Options)), NumShards(Pool.numShards()),
      BasePolicy(Options.Policy), Tenants(NumShards),
      Governor(Options.Governor, NumShards, Options.Policy),
      GovernorEnabled(Options.EnableGovernor),
      AbortAfter(Options.AbortAfter), AbortHandler(Options.AbortHandler),
      AbortUserData(Options.AbortUserData),
      SnapshotHook(Options.SnapshotHook),
      SnapshotUserData(Options.SnapshotUserData),
      SnapshotEveryTicks(Options.SnapshotEveryTicks),
      LastCheckSum(NumShards, 0), LastAllocCount(NumShards, 0),
      IntervalMicros(Options.DrainIntervalMicros
                         ? Options.DrainIntervalMicros
                         : 2000) {
  initMetrics();
  WatchdogEnabled = Options.EnableWatchdog;
  WatchdogMicros = Options.WatchdogIntervalMicros
                       ? Options.WatchdogIntervalMicros
                       : 4 * IntervalMicros;
  MaxDrainRestarts = Options.MaxDrainRestarts;
  // The liveness flag is raised *before* the thread exists so the
  // watchdog's first check cannot mistake a slow thread start for a
  // death; the drain thread only ever lowers it, on exit.
  DrainerAlive.store(true, std::memory_order_release);
  Drainer = std::thread([this] { drainLoop(); });
  if (WatchdogEnabled)
    Watchdog = std::thread([this] { watchdogLoop(); });
}

Supervisor::~Supervisor() {
  // The watchdog goes first: once it is joined, nothing can respawn
  // the drain thread behind the shutdown below.
  {
    std::lock_guard<std::mutex> Guard(WatchdogLock);
    WatchdogStop = true;
  }
  WatchdogCV.notify_all();
  if (Watchdog.joinable())
    Watchdog.join();
  {
    std::lock_guard<std::mutex> Guard(TickLock);
    Stop = true;
  }
  TickCV.notify_all();
  TickDoneCV.notify_all();
  if (Drainer.joinable())
    Drainer.join();
  // Final drain: events pushed after the loop's last tick still get
  // tenant attribution and central reporting before the pool (which
  // would drain them unattributed) tears down.
  drainAttributed();
}

//===----------------------------------------------------------------------===//
// The drain loop
//===----------------------------------------------------------------------===//

void Supervisor::drainLoop() {
  std::unique_lock<std::mutex> L(TickLock);
  while (!Stop) {
    if (!Poke)
      TickCV.wait_for(L, std::chrono::microseconds(IntervalMicros),
                      [this] { return Stop || Poke; });
    if (Stop)
      break;
    // An induced stall kills this thread exactly as a crashed drainer
    // would — mid-loop, tick not run, Poke left pending — so recovery
    // is entirely the watchdog's problem, as in production.
    if (EFFSAN_FAULT(DrainStall))
      break;
    Poke = false;
    InTick = true;
    L.unlock();
    uint64_t Events = runTick();
    L.lock();
    InTick = false;
    LastTickEvents = Events;
    ++CompletedTicks;
    Heartbeat.fetch_add(1, std::memory_order_relaxed);
    TickDoneCV.notify_all();
  }
  L.unlock();
  DrainerAlive.store(false, std::memory_order_release);
}

void Supervisor::watchdogLoop() {
  std::unique_lock<std::mutex> L(WatchdogLock);
  while (!WatchdogStop) {
    WatchdogCV.wait_for(L, std::chrono::microseconds(WatchdogMicros),
                        [this] { return WatchdogStop; });
    if (WatchdogStop)
      break;
    L.unlock();
    WatchdogChecks.fetch_add(1, std::memory_order_relaxed);
    if (!DrainerAlive.load(std::memory_order_acquire)) {
      restartDrainer();
    } else {
      // Wedged detection: alive but stuck inside one tick across
      // several consecutive checks. Restarting here would put a second
      // consumer on the single-consumer ring, so a wedge only degrades
      // health — and clears itself the moment the tick completes.
      uint64_t Beat = Heartbeat.load(std::memory_order_relaxed);
      bool StuckInTick;
      {
        std::lock_guard<std::mutex> Guard(TickLock);
        StuckInTick = InTick;
      }
      if (StuckInTick && Beat == LastSeenBeat) {
        if (++WedgedStreak >= 3)
          DrainWedged.store(true, std::memory_order_relaxed);
      } else {
        WedgedStreak = 0;
        DrainWedged.store(false, std::memory_order_relaxed);
      }
      LastSeenBeat = Beat;
    }
    L.lock();
  }
}

void Supervisor::restartDrainer() {
  std::lock_guard<std::mutex> Guard(RestartLock);
  if (DrainerAlive.load(std::memory_order_acquire))
    return; // A concurrent restart already brought the drainer back.
  if (Drainer.joinable())
    Drainer.join();
  if (DrainRestarts.load(std::memory_order_relaxed) >= MaxDrainRestarts) {
    // Budget exhausted: latch Critical and escalate once through the
    // snapshot hook — the out-of-band channel the embedder already
    // wired. The drain thread is provably dead (joined above), so the
    // hook cannot race a drain-tick invocation of itself.
    CriticalLatch.store(true, std::memory_order_relaxed);
    if (!EscalationFired) {
      EscalationFired = true;
      void (*Hook)(const char *, void *) = nullptr;
      void *HookData = nullptr;
      {
        std::lock_guard<std::mutex> HookGuard(HookLock);
        Hook = SnapshotHook;
        HookData = SnapshotUserData;
      }
      if (Hook) {
        std::string Json = snapshotJson();
        Hook(Json.c_str(), HookData);
      }
    }
    return;
  }
  DrainRestarts.fetch_add(1, std::memory_order_relaxed);
  DrainerAlive.store(true, std::memory_order_release);
  Drainer = std::thread([this] { drainLoop(); });
}

uint64_t Supervisor::drainAttributed() {
  concurrent::ErrorRing &Ring = Pool.ring();
  lowfat::LowFatHeap &Heap = Pool.heap().heap();
  ErrorInfo Info;
  uint64_t Events = 0;
  while (Ring.tryPop(Info)) {
    ++Events;
    // Attribute by the erring pointer's arena slice: shardOf() is pure
    // address arithmetic and the tenant <-> shard binding is 1:1.
    // Legacy (non-low-fat) pointers are pool-wide events — reported,
    // not billed.
    if (Info.Pointer && Heap.isLowFat(Info.Pointer))
      Tenants.noteErrorEvent(Heap.shardOf(Info.Pointer));
    Pool.reporter().report(Info);
  }
  DrainedEvents.fetch_add(Events, std::memory_order_relaxed);
  return Events;
}

uint64_t Supervisor::runTick() {
  concurrent::ErrorRing &Ring = Pool.ring();
  uint64_t TickStart = obs::now();

  // Ring occupancy is sampled *before* the drain: it reflects the
  // pressure the mutators built up over the interval, not the empty
  // ring the drain leaves behind.
  double Occupancy = static_cast<double>(Ring.size()) /
                     static_cast<double>(Ring.capacity());

  uint64_t Events = drainAttributed();
  DrainTicks.fetch_add(1, std::memory_order_relaxed);

  // The drain thread doubles as the tracing layer's collector: moving
  // the per-thread rings' contents into the tracer's buffer every tick
  // keeps long traced runs from overflowing the fixed-size rings.
  if (obs::traceActive())
    obs::Tracer::instance().collect();

  // Pool-wide abort threshold, fired from the drainer (a shard's own
  // reporter only ever sees that shard's events, so only this thread
  // can enforce a pool budget).
  if (AbortAfter && !AbortFired.load(std::memory_order_relaxed) &&
      DrainedEvents.load(std::memory_order_relaxed) >= AbortAfter) {
    AbortFired.store(true, std::memory_order_relaxed);
    uint64_t Total = DrainedEvents.load(std::memory_order_relaxed);
    if (AbortHandler) {
      AbortHandler(Total, AbortUserData);
    } else {
      std::fprintf(stderr,
                   "EffectiveSan service: pool-wide abort threshold "
                   "reached (%" PRIu64 " error events >= %" PRIu64
                   ")\n",
                   Total, AbortAfter);
      std::abort();
    }
  }

  // Complete pending evictions: once a tenant's last lease returned,
  // recycle its shard (drain again first so nothing queued from the
  // dying tenant is attributed to its successor), restore the base
  // policy, and free the slot for the next tenant.
  std::vector<unsigned> Due = Tenants.shardsAwaitingReset();
  if (!Due.empty()) {
    Events += drainAttributed();
    for (unsigned Shard : Due) {
      Pool.shard(Shard).reset();
      EFFSAN_OBS_EVENT(SessionReset, Shard, Shard);
      Pool.shard(Shard).setPolicy(BasePolicy);
      Governor.resetShard(Shard);
      LastCheckSum[Shard] = 0;
      LastAllocCount[Shard] = 0;
      Tenants.finishReset(Shard);
    }
  }

  // Governor pass: per-shard pressure deltas since the previous tick.
  // An induced misfire skips the whole pass for one tick: policies and
  // baselines simply stand a tick longer and the deltas accumulate —
  // exactly what a lost governor timer would produce, and exactly as
  // recoverable.
  bool GovernorMisfired = EFFSAN_FAULT(GovernorMisfire);
  for (unsigned Shard = 0; !GovernorMisfired && Shard < NumShards;
       ++Shard) {
    uint64_t Checks = checkSumOf(Shard);
    uint64_t Allocs = Pool.heap().shardStats(Shard).NumAllocs;
    ShardSample Sample;
    Sample.Checks = Checks > LastCheckSum[Shard]
                        ? Checks - LastCheckSum[Shard]
                        : 0;
    Sample.Allocs = Allocs > LastAllocCount[Shard]
                        ? Allocs - LastAllocCount[Shard]
                        : 0;
    Sample.RingOccupancy = Occupancy;
    LastCheckSum[Shard] = Checks;
    LastAllocCount[Shard] = Allocs;
    // Only occupied shards are steered: an empty slot keeps the base
    // policy so its next tenant starts undegraded.
    if (!GovernorEnabled || Tenants.tenantOf(Shard) == NoTenant)
      continue;
    LoadGovernor::Decision D = Governor.observe(Shard, Sample);
    if (D.Degraded || D.Restored) {
      Pool.shard(Shard).setPolicy(Governor.policyOf(Shard));
      if (D.Degraded)
        PolicyDegrades.fetch_add(1, std::memory_order_relaxed);
      else
        PolicyRestores.fetch_add(1, std::memory_order_relaxed);
      EFFSAN_OBS_EVENT(GovernorStep, Shard, D.Level);
    }
  }

  // Periodic JSON snapshot.
  void (*Hook)(const char *, void *) = nullptr;
  void *HookData = nullptr;
  unsigned Every = 0;
  {
    std::lock_guard<std::mutex> Guard(HookLock);
    Hook = SnapshotHook;
    HookData = SnapshotUserData;
    Every = SnapshotEveryTicks;
  }
  // Short-circuit on a null hook (or a zero cadence): rendering a
  // document nobody receives would charge every drain tick for
  // nothing. The guard predates the dirty flag; keep both.
  if (Hook && Every) {
    if (++TicksSinceSnapshot >= Every) {
      TicksSinceSnapshot = 0;
      // Dirty flag: when nothing externally observable moved since the
      // last emission, skip the render and the hook. High every_ticks
      // rates over an idle service then cost one signature hash per
      // cadence instead of a full JSON render.
      uint64_t Sig = activitySignature();
      if (HaveSnapshotSignature && Sig == LastSnapshotSignature) {
        SnapshotsSkipped.fetch_add(1, std::memory_order_relaxed);
      } else if (EFFSAN_FAULT(SnapshotHook)) {
        // An induced delivery failure behaves like a hook that threw:
        // nothing is delivered and the dirty flag is left unset, so the
        // next cadence retries instead of silently treating the changed
        // snapshot as already published.
        HaveSnapshotSignature = false;
      } else {
        LastSnapshotSignature = Sig;
        HaveSnapshotSignature = true;
        std::string Json = snapshotJson();
        Hook(Json.c_str(), HookData);
        SnapshotsEmitted.fetch_add(1, std::memory_order_relaxed);
        EFFSAN_OBS_EVENT(SnapshotEmit, ::effective::obs::NoShard,
                         Json.size());
      }
    }
  }

  // Refresh the metrics mirror and close out the tick's duration
  // sample. Everything here is set/observe on preregistered metrics —
  // no allocation on the steady-state path.
  if (obs::metricsActive()) {
    ServiceStats S = stats();
    updateMetrics(S, Occupancy);
    Metrics.RingOccupancyPctHist->observe(
        static_cast<uint64_t>(Occupancy * 100.0));
    Metrics.DrainTickTicks->observe(obs::now() - TickStart);
  }
  EFFSAN_OBS_SPAN(DrainTick, ::effective::obs::NoShard, Events, TickStart);

  return Events;
}

uint64_t Supervisor::tick() {
  std::unique_lock<std::mutex> L(TickLock);
  if (Stop)
    return 0;
  // A tick in flight may have missed this caller's writes; require one
  // more full tick in that case.
  uint64_t Target = CompletedTicks + (InTick ? 2 : 1);
  Poke = true;
  TickCV.notify_one();
  TickDoneCV.wait(L, [&] { return Stop || CompletedTicks >= Target; });
  return LastTickEvents;
}

void Supervisor::poke() {
  {
    std::lock_guard<std::mutex> Guard(TickLock);
    Poke = true;
  }
  TickCV.notify_one();
}

void Supervisor::setDrainInterval(uint64_t Micros) {
  {
    std::lock_guard<std::mutex> Guard(TickLock);
    IntervalMicros = Micros ? Micros : 2000;
  }
  // Re-arm the wait with the new period.
  TickCV.notify_one();
}

uint64_t Supervisor::drainInterval() {
  std::lock_guard<std::mutex> Guard(TickLock);
  return IntervalMicros;
}

//===----------------------------------------------------------------------===//
// Tenants and leases
//===----------------------------------------------------------------------===//

uint64_t Supervisor::checkSumOf(unsigned Shard) {
  CheckCounters::Snapshot S = Pool.shard(Shard).counters().snapshot();
  return S.TypeChecks + S.BoundsChecks + S.BoundsGets + S.BoundsNarrows;
}

TenantId Supervisor::openTenant(std::string_view Name,
                                const TenantQuota &Quota) {
  TenantId Id = Tenants.open(std::string(Name), Quota);
  if (Id == NoTenant)
    return NoTenant;
  // The check budget starts counting now: zero it against whatever the
  // claimed shard's counters already read.
  unsigned Shard = static_cast<unsigned>(Id & 0xffffffffu);
  Tenants.setCheckBaseline(Id, checkSumOf(Shard));
  return Id;
}

bool Supervisor::closeTenant(TenantId Id) {
  if (!Tenants.evict(Id, EvictReason::Explicit))
    return false;
  // Synchronous when possible: the forced tick performs the shard
  // reset immediately unless leases are still outstanding (then the
  // drain loop completes it once the last one returns).
  tick();
  return true;
}

Supervisor::Lease Supervisor::lease(TenantId Id) {
  unsigned Shard = static_cast<unsigned>(Id & 0xffffffffu);
  if (Id == NoTenant || Shard >= NumShards)
    return Lease();
  // The leasing thread checks through the session next: give it a
  // counter cell of its own before the first check.
  claimCounterSlot();
  // Budget inputs are sampled outside the registry lock; the registry
  // does the gating atomically against its own state.
  uint64_t LiveBytes = Pool.heap().shardStats(Shard).BlockBytesInUse;
  uint64_t Checks = checkSumOf(Shard);
  unsigned ShardOut = 0;
  if (Tenants.checkout(Id, LiveBytes, Checks, ShardOut))
    return Lease(*this, Id, Pool.shard(ShardOut));
  // A refused lease may just have evicted the tenant; kick the drainer
  // so the shard reset does not wait for the next periodic tick.
  poke();
  return Lease();
}

Supervisor::Lease Supervisor::lease(TenantId Id,
                                    uint64_t &RetryAfterMicros) {
  RetryAfterMicros = 0;
  Lease L = lease(Id);
  if (L)
    return L;
  // Retrying is only worth suggesting while the handle still names the
  // occupied slot: an eviction's shard reset completes within about one
  // drain tick, and a quota refusal clears if the operator raises the
  // budget. A stale handle never becomes valid again — hint 0.
  unsigned Shard = static_cast<unsigned>(Id & 0xffffffffu);
  if (Id != NoTenant && Shard < NumShards &&
      Tenants.tenantOf(Shard) == Id)
    RetryAfterMicros = drainInterval();
  return L;
}

void Supervisor::releaseLease(TenantId Id) { Tenants.release(Id); }

bool Supervisor::setQuota(TenantId Id, const TenantQuota &Quota) {
  return Tenants.setQuota(Id, Quota);
}

bool Supervisor::getQuota(TenantId Id, TenantQuota &Out) const {
  return Tenants.getQuota(Id, Out);
}

bool Supervisor::tenantSnapshot(TenantId Id, TenantSnapshot &Out) {
  unsigned Shard = static_cast<unsigned>(Id & 0xffffffffu);
  if (Id == NoTenant || Shard >= NumShards)
    return false;
  uint64_t LiveBytes = Pool.heap().shardStats(Shard).BlockBytesInUse;
  uint64_t Checks = checkSumOf(Shard);
  return Tenants.snapshot(Id, LiveBytes, Checks, Out);
}

CheckPolicy Supervisor::tenantPolicy(TenantId Id) {
  unsigned Shard = static_cast<unsigned>(Id & 0xffffffffu);
  if (Id == NoTenant || Shard >= NumShards ||
      Tenants.tenantOf(Shard) != Id)
    return CheckPolicy::Off;
  return Pool.shard(Shard).policy();
}

void Supervisor::setSnapshotHook(void (*Hook)(const char *, void *),
                                 void *UserData, unsigned EveryTicks) {
  std::lock_guard<std::mutex> Guard(HookLock);
  SnapshotHook = Hook;
  SnapshotUserData = UserData;
  SnapshotEveryTicks = EveryTicks;
}

//===----------------------------------------------------------------------===//
// Telemetry
//===----------------------------------------------------------------------===//

ServiceStats Supervisor::stats() {
  TenantRegistry::Totals T = Tenants.totals();
  ServiceStats S;
  S.TenantsOpen = Tenants.occupied();
  S.TenantsOpenedTotal = T.Opened;
  S.TenantsEvicted = T.Evicted;
  S.TenantsClosed = T.Closed;
  S.LeasesGranted = T.LeasesGranted;
  S.LeasesRefused = T.LeasesRefused;
  S.DrainTicks = DrainTicks.load(std::memory_order_relaxed);
  S.DrainedEvents = DrainedEvents.load(std::memory_order_relaxed);
  S.RingOverflows = Pool.ringOverflows();
  S.PolicyDegrades = PolicyDegrades.load(std::memory_order_relaxed);
  S.PolicyRestores = PolicyRestores.load(std::memory_order_relaxed);
  S.IssuesFound = Pool.reporter().numIssues();
  S.SnapshotsEmitted = SnapshotsEmitted.load(std::memory_order_relaxed);
  S.SnapshotsSkipped = SnapshotsSkipped.load(std::memory_order_relaxed);
  S.RingFallbacks = Pool.ringFallbacks();
  S.RingDrops = Pool.ringDrops();
  S.DrainRestarts = DrainRestarts.load(std::memory_order_relaxed);
  S.WatchdogChecks = WatchdogChecks.load(std::memory_order_relaxed);
  S.Health = health();
  return S;
}

ServiceHealth Supervisor::health() {
  if (CriticalLatch.load(std::memory_order_relaxed) ||
      AbortFired.load(std::memory_order_relaxed))
    return ServiceHealth::Critical;
  if (DrainRestarts.load(std::memory_order_relaxed) > 0 ||
      DrainWedged.load(std::memory_order_relaxed) ||
      Pool.ringDrops() > 0)
    return ServiceHealth::Degraded;
  // Occupied shards steered below the base policy mean the governor is
  // actively shedding checks: degraded coverage, not a failure.
  for (unsigned Shard = 0; Shard < NumShards; ++Shard)
    if (Tenants.tenantOf(Shard) != NoTenant &&
        Pool.shard(Shard).policy() != BasePolicy)
      return ServiceHealth::Degraded;
  return ServiceHealth::Healthy;
}

uint64_t Supervisor::activitySignature() {
  auto Mix = [](uint64_t H, uint64_t V) {
    return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
  };
  ServiceStats S = stats();
  uint64_t H = 0xcbf29ce484222325ull;
  H = Mix(H, S.TenantsOpen);
  H = Mix(H, S.TenantsOpenedTotal);
  H = Mix(H, S.TenantsEvicted);
  H = Mix(H, S.TenantsClosed);
  H = Mix(H, S.LeasesGranted);
  H = Mix(H, S.LeasesRefused);
  H = Mix(H, S.DrainedEvents);
  H = Mix(H, S.RingOverflows);
  H = Mix(H, S.PolicyDegrades);
  H = Mix(H, S.PolicyRestores);
  H = Mix(H, S.IssuesFound);
  H = Mix(H, S.RingFallbacks);
  H = Mix(H, S.RingDrops);
  H = Mix(H, S.DrainRestarts);
  for (unsigned Shard = 0; Shard < NumShards; ++Shard)
    H = Mix(H, checkSumOf(Shard));
  lowfat::HeapStats HS = Pool.heap().stats();
  H = Mix(H, HS.NumAllocs);
  H = Mix(H, HS.NumFrees);
  H = Mix(H, HS.BlockBytesInUse);
  return H;
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

void Supervisor::initMetrics() {
  Metrics.TenantsOpenedTotal = &Registry.counter(
      "effsan_service_tenants_opened_total", "Tenant slots ever opened");
  Metrics.TenantsEvictedTotal = &Registry.counter(
      "effsan_service_tenants_evicted_total",
      "Tenant evictions, including explicit closes");
  Metrics.TenantsClosedTotal = &Registry.counter(
      "effsan_service_tenants_closed_total", "Tenant slots fully recycled");
  Metrics.LeasesGrantedTotal = &Registry.counter(
      "effsan_service_leases_granted_total", "Shard leases granted");
  Metrics.LeasesRefusedTotal = &Registry.counter(
      "effsan_service_leases_refused_total",
      "Shard leases refused at the quota gate");
  Metrics.DrainTicksTotal = &Registry.counter(
      "effsan_service_drain_ticks_total", "Drain-loop ticks completed");
  Metrics.DrainedEventsTotal = &Registry.counter(
      "effsan_service_drained_events_total",
      "Error events drained from the pool ring");
  Metrics.RingOverflowsTotal = &Registry.counter(
      "effsan_service_ring_overflows_total",
      "Error-ring pushes refused because the ring was full");
  Metrics.PolicyDegradesTotal = &Registry.counter(
      "effsan_service_policy_degrades_total", "Governor degrade steps");
  Metrics.PolicyRestoresTotal = &Registry.counter(
      "effsan_service_policy_restores_total", "Governor restore steps");
  Metrics.IssuesFoundTotal = &Registry.counter(
      "effsan_service_issues_found_total",
      "Distinct issues in the central reporter");
  Metrics.SnapshotsEmittedTotal = &Registry.counter(
      "effsan_service_snapshots_emitted_total", "Snapshot hook invocations");
  Metrics.SnapshotsSkippedTotal = &Registry.counter(
      "effsan_service_snapshots_skipped_total",
      "Snapshot cadences skipped by the dirty flag");
  Metrics.RingFallbacksTotal = &Registry.counter(
      "effsan_service_ring_fallbacks_total",
      "Overflowed error events delivered via the locked fallback");
  Metrics.RingDropsTotal = &Registry.counter(
      "effsan_service_ring_drops_total",
      "Overflowed error events dropped (opt-in accounted loss)");
  Metrics.DrainRestartsTotal = &Registry.counter(
      "effsan_service_drain_restarts_total",
      "Dead drain threads restarted by the watchdog");
  Metrics.WatchdogChecksTotal = &Registry.counter(
      "effsan_service_watchdog_checks_total",
      "Watchdog liveness checks performed");
  Metrics.TypeChecksTotal = &Registry.counter(
      "effsan_checks_total", "Dynamic checks executed", "kind=\"type\"");
  Metrics.BoundsChecksTotal = &Registry.counter(
      "effsan_checks_total", "Dynamic checks executed", "kind=\"bounds\"");
  Metrics.BoundsNarrowsTotal =
      &Registry.counter("effsan_checks_total", "Dynamic checks executed",
                        "kind=\"bounds_narrow\"");
  Metrics.BoundsGetsTotal = &Registry.counter(
      "effsan_checks_total", "Dynamic checks executed", "kind=\"bounds_get\"");
  Metrics.LegacyTypeChecksTotal =
      &Registry.counter("effsan_checks_total", "Dynamic checks executed",
                        "kind=\"legacy_type\"");
  Metrics.CacheHitsTotal = &Registry.counter(
      "effsan_check_cache_hits_total", "Type-check inline-cache hits");
  Metrics.CacheMissesTotal = &Registry.counter(
      "effsan_check_cache_misses_total", "Type-check inline-cache misses");
  Metrics.HeapAllocsTotal =
      &Registry.counter("effsan_heap_allocs_total", "Heap allocations");
  Metrics.HeapFreesTotal =
      &Registry.counter("effsan_heap_frees_total", "Heap frees");
  Metrics.MagazineHitsTotal = &Registry.counter(
      "effsan_heap_magazine_hits_total", "Allocations served from a TLS "
                                         "magazine");
  Metrics.MagazineRefillsTotal = &Registry.counter(
      "effsan_heap_magazine_refills_total", "TLS magazine refills");
  Metrics.StealsTotal = &Registry.counter("effsan_heap_steals_total",
                                          "Cross-shard refill steals");
  Metrics.TenantsOpen =
      &Registry.gauge("effsan_service_tenants_open", "Occupied tenant slots");
  Metrics.HealthState = &Registry.gauge(
      "effsan_service_health",
      "Service health state (0 healthy, 1 degraded, 2 critical)");
  Metrics.RingOccupancyPct = &Registry.gauge(
      "effsan_service_ring_occupancy_percent",
      "Error-ring occupancy at the last tick start (percent)");
  Metrics.BlockBytesInUse = &Registry.gauge(
      "effsan_heap_block_bytes_in_use", "Live block bytes across shards");
  Metrics.QuarantinedBytes = &Registry.gauge(
      "effsan_heap_quarantined_bytes", "Bytes parked in free quarantine");
  Metrics.DrainTickTicks = &Registry.histogram(
      "effsan_service_drain_tick_duration_ticks",
      "Drain tick wall duration (TSC ticks)");
  Metrics.RingOccupancyPctHist = &Registry.histogram(
      "effsan_service_ring_occupancy_pct",
      "Error-ring occupancy sampled at tick start (percent)");
  Metrics.ClassCarved.assign(lowfat::NumSizeClasses, nullptr);
}

void Supervisor::updateMetrics(const ServiceStats &S, double RingOccupancy) {
  Metrics.TenantsOpenedTotal->set(S.TenantsOpenedTotal);
  Metrics.TenantsEvictedTotal->set(S.TenantsEvicted);
  Metrics.TenantsClosedTotal->set(S.TenantsClosed);
  Metrics.LeasesGrantedTotal->set(S.LeasesGranted);
  Metrics.LeasesRefusedTotal->set(S.LeasesRefused);
  Metrics.DrainTicksTotal->set(S.DrainTicks);
  Metrics.DrainedEventsTotal->set(S.DrainedEvents);
  Metrics.RingOverflowsTotal->set(S.RingOverflows);
  Metrics.PolicyDegradesTotal->set(S.PolicyDegrades);
  Metrics.PolicyRestoresTotal->set(S.PolicyRestores);
  Metrics.IssuesFoundTotal->set(S.IssuesFound);
  Metrics.SnapshotsEmittedTotal->set(S.SnapshotsEmitted);
  Metrics.SnapshotsSkippedTotal->set(S.SnapshotsSkipped);
  Metrics.RingFallbacksTotal->set(S.RingFallbacks);
  Metrics.RingDropsTotal->set(S.RingDrops);
  Metrics.DrainRestartsTotal->set(S.DrainRestarts);
  Metrics.WatchdogChecksTotal->set(S.WatchdogChecks);
  Metrics.TenantsOpen->set(static_cast<int64_t>(S.TenantsOpen));
  Metrics.HealthState->set(static_cast<int64_t>(S.Health));
  Metrics.RingOccupancyPct->set(
      static_cast<int64_t>(RingOccupancy * 100.0));

  CheckCounters::Snapshot C = Pool.counters();
  Metrics.TypeChecksTotal->set(C.TypeChecks);
  Metrics.LegacyTypeChecksTotal->set(C.LegacyTypeChecks);
  Metrics.BoundsChecksTotal->set(C.BoundsChecks);
  Metrics.BoundsNarrowsTotal->set(C.BoundsNarrows);
  Metrics.BoundsGetsTotal->set(C.BoundsGets);
  Metrics.CacheHitsTotal->set(C.TypeCheckCacheHits);
  Metrics.CacheMissesTotal->set(C.TypeCheckCacheMisses);

  lowfat::LowFatHeap &Heap = Pool.heap().heap();
  lowfat::HeapStats HS = Heap.stats();
  Metrics.HeapAllocsTotal->set(HS.NumAllocs);
  Metrics.HeapFreesTotal->set(HS.NumFrees);
  Metrics.MagazineHitsTotal->set(HS.MagazineHits);
  Metrics.MagazineRefillsTotal->set(HS.MagazineRefills);
  Metrics.StealsTotal->set(HS.Steals);
  Metrics.BlockBytesInUse->set(static_cast<int64_t>(HS.BlockBytesInUse));
  Metrics.QuarantinedBytes->set(static_cast<int64_t>(HS.QuarantinedBytes));

  // Per-class occupancy: gauges materialize the first time a class
  // sees traffic, so an idle service renders no empty class series.
  for (unsigned I = 0; I < lowfat::NumSizeClasses; ++I) {
    uint64_t Carved = Heap.classCarvedBytes(I);
    if (!Carved && !Metrics.ClassCarved[I])
      continue;
    if (!Metrics.ClassCarved[I]) {
      char Label[48];
      std::snprintf(Label, sizeof(Label), "class=\"%u\"", I);
      Metrics.ClassCarved[I] = &Registry.gauge(
          "effsan_heap_class_carved_bytes",
          "Bytes carved from the class region (bump high-water)", Label);
    }
    Metrics.ClassCarved[I]->set(static_cast<int64_t>(Carved));
  }
}

std::string Supervisor::metricsText() {
  concurrent::ErrorRing &Ring = Pool.ring();
  double Occupancy = static_cast<double>(Ring.size()) /
                     static_cast<double>(Ring.capacity());
  updateMetrics(stats(), Occupancy);
  std::string Out;
  Registry.render(Out);
  obs::MetricsRegistry::global().render(Out);
  return Out;
}

static const char *policyName(CheckPolicy P) {
  switch (P) {
  case CheckPolicy::Full:
    return "full";
  case CheckPolicy::BoundsOnly:
    return "bounds";
  case CheckPolicy::TypeOnly:
    return "type";
  case CheckPolicy::CountOnly:
    return "count";
  case CheckPolicy::Off:
    return "off";
  }
  return "?";
}

static const char *statusName(TenantStatus S) {
  switch (S) {
  case TenantStatus::Closed:
    return "closed";
  case TenantStatus::Open:
    return "open";
  case TenantStatus::Evicted:
    return "evicted";
  }
  return "?";
}

static const char *reasonName(EvictReason R) {
  switch (R) {
  case EvictReason::None:
    return "none";
  case EvictReason::AllocBytes:
    return "alloc_bytes";
  case EvictReason::ErrorEvents:
    return "error_events";
  case EvictReason::Checks:
    return "checks";
  case EvictReason::Explicit:
    return "explicit";
  }
  return "?";
}

static void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

static void appendField(std::string &Out, const char *Key, uint64_t V,
                        bool Comma = true) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s\"%s\":%" PRIu64, Comma ? "," : "",
                Key, V);
  Out += Buf;
}

std::string Supervisor::snapshotJson() {
  ServiceStats S = stats();
  std::string Out;
  Out.reserve(1024);
  Out += "{\"service\":{";
  {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "\"shards\":%u", NumShards);
    Out += Buf;
  }
  Out += ",\"policy\":\"";
  Out += policyName(BasePolicy);
  Out += '"';
  appendField(Out, "drain_interval_usec", drainInterval());
  appendField(Out, "tenants_open", S.TenantsOpen);
  appendField(Out, "tenants_opened_total", S.TenantsOpenedTotal);
  appendField(Out, "tenants_evicted", S.TenantsEvicted);
  appendField(Out, "tenants_closed", S.TenantsClosed);
  appendField(Out, "leases_granted", S.LeasesGranted);
  appendField(Out, "leases_refused", S.LeasesRefused);
  appendField(Out, "drain_ticks", S.DrainTicks);
  appendField(Out, "drained_events", S.DrainedEvents);
  appendField(Out, "ring_overflows", S.RingOverflows);
  appendField(Out, "policy_degrades", S.PolicyDegrades);
  appendField(Out, "policy_restores", S.PolicyRestores);
  appendField(Out, "issues_found", S.IssuesFound);
  appendField(Out, "snapshots_emitted", S.SnapshotsEmitted);
  appendField(Out, "snapshots_skipped", S.SnapshotsSkipped);
  appendField(Out, "ring_fallbacks", S.RingFallbacks);
  appendField(Out, "ring_drops", S.RingDrops);
  appendField(Out, "drain_restarts", S.DrainRestarts);
  appendField(Out, "watchdog_checks", S.WatchdogChecks);
  Out += ",\"health\":\"";
  Out += healthName(S.Health);
  Out += '"';
  Out += "},\"tenants\":[";
  bool First = true;
  for (TenantId Id : Tenants.occupiedTenants()) {
    TenantSnapshot Snap;
    if (!tenantSnapshot(Id, Snap))
      continue;
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":";
    appendJsonString(Out, Snap.Name);
    appendField(Out, "shard", Snap.Shard);
    Out += ",\"status\":\"";
    Out += statusName(Snap.Status);
    Out += "\",\"policy\":\"";
    Out += policyName(Pool.shard(Snap.Shard).policy());
    Out += "\",\"evict_reason\":\"";
    Out += reasonName(Snap.Reason);
    Out += '"';
    appendField(Out, "checks", Snap.Checks);
    appendField(Out, "alloc_bytes", Snap.AllocBytes);
    appendField(Out, "error_events", Snap.ErrorEvents);
    appendField(Out, "leases_granted", Snap.LeasesGranted);
    appendField(Out, "leases_refused", Snap.LeasesRefused);
    appendField(Out, "leases_outstanding", Snap.LeasesOutstanding);
    Out += '}';
  }
  Out += "]}";
  return Out;
}
