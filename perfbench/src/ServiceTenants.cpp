//===- perfbench/src/ServiceTenants.cpp - The service-tenants workload ----===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A closed loop of client threads (half the hardware threads, at
/// least one), each owning one tenant of a service::Supervisor that has
/// one spare shard. The governor is off, so a request does the same
/// work every time: lease, 4-15 typed allocations of seeded sizes, a
/// typeCheck and boundsChecks on each, frees, a planted use-after-free
/// check in about 1 of 64 Full requests, release. Every few thousand
/// requests a tenant is closed and reopened, staggered across threads,
/// so shards recycle.
///
/// Requests run in phases of a fixed count per thread, all threads in
/// the same phase, one phase per session policy: Off (None), Type,
/// Bounds and Full, in an order the seed permutes per cycle. Every
/// phase takes the same lease, allocator and release path, so the
/// overhead ratios isolate what the checks cost. Writes (allocation,
/// frees, error events into the ErrorRing) run beside reads (checks)
/// across threads, through the service, concurrent and lowfat magazine
/// layers; counts stay exact because each shard has a single mutator
/// thread.
///
/// Correctness: every request reads back what it wrote, and before each
/// tenant closes, its drained error events must equal the errors it
/// planted.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "service/Supervisor.h"

#include <algorithm>
#include <barrier>
#include <cstdlib>
#include <malloc.h>
#include <string>
#include <thread>

using namespace effective;
using namespace effective::service;
using namespace perfbench;

namespace {

/// Requests each thread runs per phase.
constexpr unsigned PhaseRequests = 2048;
/// Requests between a tenant's open and its close.
constexpr unsigned RecycleEvery = 4096;
constexpr unsigned MaxAllocs = 15;

constexpr CheckPolicy Policies[NumVariants] = {
    CheckPolicy::Off, CheckPolicy::TypeOnly, CheckPolicy::BoundsOnly,
    CheckPolicy::Full};

/// One request's inputs, drawn from (seed, thread, index) alone.
struct Request {
  struct Alloc {
    bool IsDouble;
    unsigned Count; ///< Elements, at least 4.
    uint8_t Vals[4];
  };
  unsigned N;
  Alloc A[MaxAllocs];
  bool Plant;
  uint64_t Expected; ///< Sum of every value the request writes.
};

Request makeRequest(uint64_t Seed, unsigned Thread, uint64_t Index) {
  Rng Rand(Seed * 0x9e3779b97f4a7c15ull ^ (uint64_t(Thread) << 48) ^ Index);
  Request Q;
  Q.N = unsigned(Rand.range(4, MaxAllocs));
  Q.Expected = 0;
  for (unsigned J = 0; J < Q.N; ++J) {
    uint64_t Bits = Rand.next();
    Request::Alloc &A = Q.A[J];
    A.IsDouble = Bits & 1;
    A.Count = 4 + unsigned((Bits >> 1) % 61);
    for (unsigned K = 0; K < 4; ++K) {
      A.Vals[K] = uint8_t(Bits >> (16 + 8 * K));
      Q.Expected += A.Vals[K];
    }
  }
  Q.Plant = Rand.next() % 64 == 0;
  return Q;
}

/// The four written indices of an allocation: distinct when Count >= 4.
unsigned slot(const Request::Alloc &A, unsigned K) { return K * A.Count / 4; }

size_t bytesOf(const Request::Alloc &A) {
  return A.Count * (A.IsDouble ? sizeof(double) : sizeof(int));
}

constexpr size_t MaxBytes = 64 * sizeof(double);

/// malloc's usable size for every allocation size a request can ask
/// for: what the request's allocations would hold without the
/// sanitizer (the mem_full_x baseline).
std::vector<size_t> nativeSizes() {
  std::vector<size_t> Sizes(MaxBytes + 1, 0);
  for (size_t Bytes = 1; Bytes <= MaxBytes; ++Bytes) {
    void *P = std::malloc(Bytes);
    Sizes[Bytes] = malloc_usable_size(P);
    std::free(P);
  }
  return Sizes;
}

/// Writes the request's values and reads them back; returns the sum.
uint64_t writeAndSum(const Request &Q, void *const *Ptrs) {
  for (unsigned J = 0; J < Q.N; ++J)
    for (unsigned K = 0; K < 4; ++K) {
      unsigned I = slot(Q.A[J], K);
      if (Q.A[J].IsDouble)
        static_cast<double *>(Ptrs[J])[I] = Q.A[J].Vals[K];
      else
        static_cast<int *>(Ptrs[J])[I] = Q.A[J].Vals[K];
    }
  uint64_t Sum = 0;
  for (unsigned J = 0; J < Q.N; ++J)
    for (unsigned K = 0; K < 4; ++K) {
      unsigned I = slot(Q.A[J], K);
      Sum += Q.A[J].IsDouble
                 ? uint64_t(static_cast<double *>(Ptrs[J])[I])
                 : uint64_t(static_cast<int *>(Ptrs[J])[I]);
    }
  return Sum;
}

/// What the phases share. The barrier's completion step is the only
/// writer of the phase fields; it runs while every client waits.
struct Shared {
  Supervisor *Sup;
  const TypeInfo *IntTy, *DoubleTy;
  std::vector<size_t> NativeSizes;
  uint64_t Seed;
  unsigned Variant = VNone;
  bool Traced = false;
  bool Stop = false;
};

struct Client {
  unsigned Index = 0;
  TenantId Tenant = NoTenant;
  uint64_t Next = 0;
  uint64_t SinceOpen = 0, PlantedSinceOpen = 0;
  /// Latencies in us of the current phase's requests.
  std::vector<float> PhaseUs;
  uint64_t Attempted = 0, Failed = 0, Planted = 0;
  /// Full-phase calls into the session API.
  uint64_t TypeChecks = 0, BoundsChecks = 0, Allocs = 0;
  /// Allocator counters of each closed tenant's shard.
  uint64_t HeapAllocs = 0, MagazineHits = 0, Steals = 0,
           ExhaustFallbacks = 0;
  /// Heap bytes a Full request holds at its peak: low-fat blocks, and
  /// what malloc would hold for the same sizes.
  double BlockBytes = 0, NativeBytes = 0;
  uint64_t FullRequests = 0;

  void fail(const char *What) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED: service-tenants: client %u: %s\n",
                 Index, What);
  }
};

void openTenant(Shared &S, Client &C) {
  Span Timed("service.open");
  std::string Name = "client-" + std::to_string(C.Index);
  // With one spare shard an open finds a free slot unless a close is
  // still being recycled by the drain thread.
  while ((C.Tenant = S.Sup->openTenant(Name)) == NoTenant)
    std::this_thread::yield();
  C.SinceOpen = 0;
  C.PlantedSinceOpen = 0;
}

/// Drains, checks the tenant's attributed events against what it
/// planted, and closes it.
void closeTenant(Shared &S, Client &C) {
  {
    Span Timed("service.tick");
    S.Sup->tick();
  }
  TenantSnapshot Snap;
  ++C.Attempted;
  if (!S.Sup->tenantSnapshot(C.Tenant, Snap))
    C.fail("stale tenant handle");
  else if (Snap.ErrorEvents != C.PlantedSinceOpen)
    C.fail("drained error events differ from planted errors");
  // The shard's allocator counters restart when the shard recycles:
  // collect them first (this thread's magazine tallies flushed, so the
  // counts are exact for the shard's single mutator).
  lowfat::LowFatHeap &Heap = S.Sup->pool().heap().heap();
  Heap.flushThreadCache();
  lowfat::HeapStats Shard = Heap.shardStats(Snap.Shard);
  C.HeapAllocs += Shard.NumAllocs;
  C.MagazineHits += Shard.MagazineHits;
  C.Steals += Shard.Steals;
  C.ExhaustFallbacks += Shard.ExhaustFallbacks;
  Span Timed("service.close");
  S.Sup->closeTenant(C.Tenant);
}

void serviceRequest(Shared &S, const Request &Q, unsigned V, Client &C,
                    uint64_t Id) {
  if (C.SinceOpen >= RecycleEvery) {
    closeTenant(S, C);
    openTenant(S, C);
  }
  void *Ptrs[MaxAllocs];
  const TypeInfo *Types[MaxAllocs];
  int64_t Start = nowNs();
  Supervisor::Lease L;
  {
    Span Timed("service.lease", Id);
    L = S.Sup->lease(C.Tenant);
  }
  ++C.Attempted;
  if (!L) {
    C.fail("lease refused");
    return;
  }
  Sanitizer &Session = L.session();
  if (Session.policy() != Policies[V])
    Session.setPolicy(Policies[V]);
  {
    Span Timed("api.alloc", Id);
    for (unsigned J = 0; J < Q.N; ++J) {
      Types[J] = Q.A[J].IsDouble ? S.DoubleTy : S.IntTy;
      Ptrs[J] = Session.malloc(bytesOf(Q.A[J]), Types[J]);
    }
  }
  uint64_t Sum;
  {
    Span Timed("api.check", Id);
    for (unsigned J = 0; J < Q.N; ++J) {
      Bounds B = Session.typeCheck(Ptrs[J], Types[J]);
      size_t Elem = Q.A[J].IsDouble ? sizeof(double) : sizeof(int);
      for (unsigned K = 0; K < 4; ++K)
        Session.boundsCheck(static_cast<char *>(Ptrs[J]) +
                                slot(Q.A[J], K) * Elem,
                            Elem, B);
    }
    Sum = writeAndSum(Q, Ptrs);
  }
  if (V == VFull) {
    for (unsigned J = 0; J < Q.N; ++J) {
      C.BlockBytes += double(Session.runtime().heap().allocationSize(Ptrs[J]));
      C.NativeBytes += double(S.NativeSizes[bytesOf(Q.A[J])]);
    }
    ++C.FullRequests;
  }
  {
    Span Timed("api.free", Id);
    for (unsigned J = 0; J < Q.N; ++J)
      Session.free(Ptrs[J]);
  }
  if (Q.Plant && V == VFull) {
    // The planted use-after-free: one error event into the ring.
    Span Timed("api.check", Id);
    Session.typeCheck(Ptrs[0], Types[0]);
    ++C.PlantedSinceOpen;
    ++C.Planted;
  }
  {
    Span Timed("service.release", Id);
    L.reset();
  }
  C.PhaseUs.push_back(float(nowNs() - Start) / 1e3f);
  ++C.SinceOpen;
  if (V == VFull) {
    C.TypeChecks += Q.N;
    C.BoundsChecks += 4 * Q.N;
    C.Allocs += Q.N;
  }
  if (Sum != Q.Expected)
    C.fail("request read back a wrong sum");
}

/// Reports the mean duration of the spans named \p Span, in us.
void spanLayer(Result &R, const char *Metric, const char *Span) {
  Tracer::Summary S = Tracer::instance().find(Span);
  R.layer(Metric, S.Count ? S.TotalNs / double(S.Count) / 1e3 : 0, "us",
          S.Count);
}

ServiceOptions serviceOptions(unsigned Clients) {
  ServiceOptions Options;
  Options.Shards = Clients + 1; // One spare, so a recycling close never
                                // starves an open.
  Options.Policy = CheckPolicy::Full;
  Options.Reporter.Mode = ReportMode::Count;
  Options.EnableGovernor = false;
  return Options;
}

} // namespace

void perfbench::runServiceTenants(const Options &O, Result &R) {
  unsigned Clients = std::max(1u, std::thread::hardware_concurrency() / 2);
  Rng Rand(O.Seed);

  // Set-up: Supervisor start and every tenant open.
  struct Service {
    std::unique_ptr<Supervisor> Sup;
    std::vector<TenantId> Tenants;
  };
  auto startService = [Clients] {
    Service Started{std::make_unique<Supervisor>(serviceOptions(Clients)),
                    {}};
    for (unsigned T = 0; T < Clients; ++T)
      Started.Tenants.push_back(
          Started.Sup->openTenant("client-" + std::to_string(T)));
    return Started;
  };
  SetupSampler Setup(startService);
  Service Kept = Setup.first();
  std::unique_ptr<Supervisor> &Sup = Kept.Sup;
  std::vector<Client> Cs(Clients);
  Shared S;
  S.Seed = O.Seed;
  S.Sup = Sup.get();
  for (unsigned T = 0; T < Clients; ++T) {
    Cs[T].Index = T;
    Cs[T].Tenant = Kept.Tenants[T];
  }
  S.IntTy = Sup->pool().types().getInt();
  S.DoubleTy = Sup->pool().types().getDouble();
  S.NativeSizes = nativeSizes();
  // Staggered recycling: client T closes its first tenant after
  // RecycleEvery * (Clients - T) / Clients requests.
  for (Client &C : Cs)
    C.SinceOpen = uint64_t(RecycleEvery) * C.Index / Clients;

  // Phase schedule: a warm-up cycle, then cycles until the budget is
  // spent, each a seeded permutation of the four variants; with --trace
  // 1, odd cycles are traced.
  std::array<unsigned, NumVariants> Cycle = {VNone, VType, VBounds, VFull};
  unsigned PhaseInCycle = 0, Cycles = 0;
  bool WarmUp = true;
  int64_t Deadline = 0, PhaseStart = 0;
  // Requests per second of each Full phase's wall time, all clients.
  std::vector<double> FullRates[2];
  uint64_t FullRequests[2] = {0, 0};
  auto shuffle = [&] {
    for (size_t I = NumVariants; I > 1; --I)
      std::swap(Cycle[I - 1], Cycle[Rand.next() % I]);
  };
  shuffle();
  S.Variant = Cycle[0];
  // Per phase, the median (ms) and 99th percentile (us) of every
  // client's request latencies. The four phases of a cycle run back to
  // back, so index i of each variant's medians pairs up for the
  // overhead ratios.
  VariantTimes PhaseMedians[2], PhaseP99s[2];
  auto nextPhase = [&]() noexcept {
    int64_t Now = nowNs();
    std::vector<double> Phase;
    for (Client &C : Cs) {
      Phase.insert(Phase.end(), C.PhaseUs.begin(), C.PhaseUs.end());
      C.PhaseUs.clear();
    }
    PhaseMedians[S.Traced][S.Variant].push_back(median(Phase) / 1e3);
    PhaseP99s[S.Traced][S.Variant].push_back(quantile(Phase, 0.99));
    if (!WarmUp && S.Variant == VFull) {
      FullRates[S.Traced].push_back(double(PhaseRequests) * Clients /
                                    (double(Now - PhaseStart) / 1e9));
      FullRequests[S.Traced] += uint64_t(PhaseRequests) * Clients;
    }
    if (++PhaseInCycle == NumVariants) {
      PhaseInCycle = 0;
      if (WarmUp) {
        WarmUp = false;
        for (VariantTimes *T : {&PhaseMedians[0], &PhaseP99s[0]})
          for (auto &V : *T)
            V.clear();
        Deadline = nowNs() + int64_t(O.Seconds * 1e9);
        Setup.start(O.Seconds);
      } else {
        ++Cycles;
        S.Stop = Cycles >= 2 && nowNs() >= Deadline;
        Setup.between();
      }
      shuffle();
    }
    S.Variant = Cycle[PhaseInCycle];
    S.Traced = O.Trace && !WarmUp && (Cycles & 1);
    Tracer::instance().enable(S.Traced);
    PhaseStart = nowNs();
  };
  std::barrier Sync(ptrdiff_t(Clients), nextPhase);

  std::vector<std::thread> Threads;
  for (Client &C : Cs)
    Threads.emplace_back([&S, &C, &Sync] {
      while (!S.Stop) {
        unsigned V = S.Variant;
        for (unsigned I = 0; I < PhaseRequests; ++I) {
          uint64_t Id = C.Next++;
          serviceRequest(S, makeRequest(S.Seed, C.Index, Id), V, C, Id);
        }
        Sync.arrive_and_wait();
      }
      closeTenant(S, C);
    });
  for (std::thread &T : Threads)
    T.join();
  Tracer::instance().enable(false);
  Setup.finish();

  ServiceStats Stats = Sup->stats();
  uint64_t Planted = 0;
  for (Client &C : Cs) {
    R.Attempted += C.Attempted;
    R.Failed += C.Failed;
    Planted += C.Planted;
  }
  ++R.Attempted;
  if (Stats.DrainedEvents != Planted || Stats.RingDrops != 0)
    R.fail("service-tenants: %llu events drained (%llu dropped), %llu "
           "planted",
           static_cast<unsigned long long>(Stats.DrainedEvents),
           static_cast<unsigned long long>(Stats.RingDrops),
           static_cast<unsigned long long>(Planted));

  auto endToEnd = [&](bool Traced) {
    double Block = 0, Native = 0;
    uint64_t FullN = 0;
    for (const Client &C : Cs) {
      Block += C.BlockBytes;
      Native += C.NativeBytes;
      FullN += C.FullRequests;
    }
    FullStats Full;
    Full.RunMs = median(PhaseMedians[Traced][VFull]);
    Full.P99Us = median(PhaseP99s[Traced][VFull]);
    Full.Units = FullRequests[Traced];
    Full.ReqPerS = median(FullRates[Traced]);
    return variantMetrics(
        {PhaseMedians[Traced]}, Full, Setup.medianS(), Setup.samples(),
        Block / Native, FullN, Setup.RssMb);
  };
  std::vector<Metric> Untraced = endToEnd(false);
  R.EndToEnd = Untraced;
  std::printf("\n%u clients, %u shards, %u requests per phase per client; "
              "%llu planted errors, %llu drained, %llu tenants recycled\n",
              Clients, Sup->numShards(), PhaseRequests,
              static_cast<unsigned long long>(Planted),
              static_cast<unsigned long long>(Stats.DrainedEvents),
              static_cast<unsigned long long>(Stats.TenantsClosed));
  if (!O.Trace)
    return;

  printTraceOverhead(Untraced, endToEnd(true));
  uint64_t TypeChecks = 0, BoundsChecks = 0, Allocs = 0;
  lowfat::HeapStats Heap;
  for (const Client &C : Cs) {
    TypeChecks += C.TypeChecks;
    BoundsChecks += C.BoundsChecks;
    Allocs += C.Allocs;
    Heap.NumAllocs += C.HeapAllocs;
    Heap.MagazineHits += C.MagazineHits;
    Heap.Steals += C.Steals;
    Heap.ExhaustFallbacks += C.ExhaustFallbacks;
  }
  spanLayer(R, "service.lease_us", "service.lease");
  spanLayer(R, "service.release_us", "service.release");
  spanLayer(R, "service.open_us", "service.open");
  spanLayer(R, "service.close_us", "service.close");
  spanLayer(R, "api.alloc_us", "api.alloc");
  spanLayer(R, "api.check_us", "api.check");
  spanLayer(R, "api.free_us", "api.free");
  R.layer("service.leases_refused", double(Stats.LeasesRefused), "count", 1);
  R.layer("concurrent.ring_overflows", double(Stats.RingOverflows), "count",
          1);
  R.layer("concurrent.ring_fallbacks", double(Stats.RingFallbacks), "count",
          1);
  R.layer("service.drain_ticks", double(Stats.DrainTicks), "count", 1);
  R.layer("service.drained_events", double(Stats.DrainedEvents), "count", 1);
  R.layer("service.tenants_recycled", double(Stats.TenantsClosed), "count",
          1);
  R.layer("lowfat.magazine_hit_ratio",
          Heap.NumAllocs ? double(Heap.MagazineHits) / double(Heap.NumAllocs)
                         : 0,
          "fraction", 1);
  R.layer("lowfat.steals", double(Heap.Steals), "count", 1);
  R.layer("lowfat.exhaust_fallbacks", double(Heap.ExhaustFallbacks), "count",
          1);
  R.layer("lowfat.allocs", double(Allocs), "count", 1);
  R.layer("core.type_checks", double(TypeChecks), "count", 1);
  R.layer("core.bounds_checks", double(BoundsChecks), "count", 1);
}
