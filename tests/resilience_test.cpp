//===- tests/resilience_test.cpp - Fault injection and self-healing -------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Covers the src/resilience/ layer and the degradation machinery it
/// exercises: the deterministic FaultRegistry (count / probability /
/// every triggers, seeded replay, the EFFSAN_FAULTS spec grammar), the
/// full fault-point catalogue (every registered point fired at least
/// once and observed through its documented degradation path),
/// graceful allocation exhaustion through both execution engines, the
/// ErrorRing retry/fallback/drop backpressure policy, the Supervisor's
/// self-healing watchdog (deterministic restart of a killed drain
/// thread, restart-budget escalation to Critical), the ServiceHealth
/// state machine, lease backoff hints, and the effsan_fault_* /
/// effsan_service_health C ABI (since 1.9). The arm/disarm storm at
/// the end runs under -fsanitize=thread in the CI TSan job.
///
/// Every test arms its own schedule (arm() resets all points), so the
/// suite also passes under a CI fault-matrix EFFSAN_FAULTS schedule.
///
//===----------------------------------------------------------------------===//

#include "resilience/Fault.h"

#include "api/Sanitizer.h"
#include "api/effsan.h"
#include "concurrent/SessionPool.h"
#include "service/Supervisor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::service;
using resilience::FaultConfig;
using resilience::FaultMode;
using resilience::FaultPoint;
using resilience::FaultRegistry;
using resilience::NumFaultPointValues;

namespace {

FaultRegistry &Faults() { return FaultRegistry::instance(); }

/// Disarms the registry when a test scope ends, so a test's schedule
/// can never leak into the rest of the binary.
struct FaultScope {
  FaultScope() = default;
  ~FaultScope() { Faults().disarm(); }
};

SessionOptions quietSession(CheckPolicy Policy = CheckPolicy::Full) {
  SessionOptions Options;
  Options.Policy = Policy;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

concurrent::PoolOptions quietPool(unsigned Shards) {
  concurrent::PoolOptions Options;
  Options.Shards = Shards;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

ServiceOptions quietService(unsigned Shards) {
  ServiceOptions Options;
  Options.Shards = Shards;
  Options.Reporter.Mode = ReportMode::Count;
  Options.DrainIntervalMicros = 60'000'000; // Forced ticks only.
  return Options;
}

/// One out-of-bounds access: pushes exactly one error event.
void oneBoundsError(Sanitizer &S) {
  TypeContext &Ctx = S.types();
  auto *P = static_cast<int *>(S.malloc(16 * sizeof(int), Ctx.getInt()));
  ASSERT_NE(P, nullptr);
  Bounds B = S.boundsGet(P);
  S.boundsCheck(P + 16, sizeof(int), B);
  S.free(P);
}

/// Spins until \p Done returns true or ~5 s pass.
template <typename Pred> bool waitFor(Pred Done) {
  for (int I = 0; I < 5000; ++I) {
    if (Done())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Done();
}

//===----------------------------------------------------------------------===//
// FaultRegistry: trigger modes and deterministic replay
//===----------------------------------------------------------------------===//

TEST(FaultRegistryTest, CountModeFiresExactWindow) {
  FaultScope Scope;
  Faults().arm(7);
  FaultConfig C;
  C.Mode = FaultMode::Count;
  C.Arg = 2;
  C.After = 3;
  Faults().configure(FaultPoint::HeapMagazineRefill, C);

  // Evaluations [3, 5) fire; everything else passes.
  std::vector<bool> Fired;
  for (int I = 0; I < 10; ++I)
    Fired.push_back(Faults().shouldFire(FaultPoint::HeapMagazineRefill));
  std::vector<bool> Expected = {false, false, false, true, true,
                                false, false, false, false, false};
  EXPECT_EQ(Fired, Expected);
  EXPECT_EQ(Faults().evaluations(FaultPoint::HeapMagazineRefill), 10u);
  EXPECT_EQ(Faults().fires(FaultPoint::HeapMagazineRefill), 2u);
  EXPECT_EQ(Faults().totalFires(), 2u);
}

TEST(FaultRegistryTest, EveryModeHonoursThePeriod) {
  FaultScope Scope;
  Faults().arm(7);
  FaultConfig C;
  C.Mode = FaultMode::Every;
  C.Arg = 3;
  Faults().configure(FaultPoint::RingFull, C);
  unsigned Fires = 0;
  for (int I = 0; I < 9; ++I)
    Fires += Faults().shouldFire(FaultPoint::RingFull) ? 1 : 0;
  EXPECT_EQ(Fires, 3u) << "every:3 fires once per three evaluations";
}

TEST(FaultRegistryTest, ProbabilityReplaysExactlyFromSeed) {
  FaultScope Scope;
  FaultConfig C;
  C.Mode = FaultMode::Probability;
  C.Arg = 16;

  auto Drive = [&](uint64_t Seed) {
    Faults().arm(Seed);
    Faults().configure(FaultPoint::HeapExhausted, C);
    std::vector<bool> Seq;
    for (int I = 0; I < 1000; ++I)
      Seq.push_back(Faults().shouldFire(FaultPoint::HeapExhausted));
    return Seq;
  };

  std::vector<bool> A = Drive(42);
  std::vector<bool> B = Drive(42);
  EXPECT_EQ(A, B) << "same seed, same config: identical firing sequence";
  EXPECT_GT(Faults().fires(FaultPoint::HeapExhausted), 0u)
      << "1000 draws at 1-in-16 fire with overwhelming probability";

  std::vector<bool> Other = Drive(43);
  EXPECT_NE(A, Other) << "a different seed draws a different stream";
}

TEST(FaultRegistryTest, ArmResetsCountersAndConfiguration) {
  FaultScope Scope;
  Faults().arm(5);
  FaultConfig C;
  C.Mode = FaultMode::Every;
  C.Arg = 1;
  Faults().configure(FaultPoint::SiteRegister, C);
  EXPECT_TRUE(Faults().shouldFire(FaultPoint::SiteRegister));
  EXPECT_EQ(Faults().fires(FaultPoint::SiteRegister), 1u);

  Faults().arm(6);
  EXPECT_EQ(Faults().seed(), 6u);
  EXPECT_EQ(Faults().evaluations(FaultPoint::SiteRegister), 0u);
  EXPECT_EQ(Faults().fires(FaultPoint::SiteRegister), 0u);
  EXPECT_FALSE(Faults().shouldFire(FaultPoint::SiteRegister))
      << "arm() clears every point back to Off";
}

TEST(FaultRegistryTest, PointNamesRoundTrip) {
  const char *Expected[NumFaultPointValues] = {
      "heap_exhausted",          "heap_slice_exhausted",
      "heap_magazine_refill",    "heap_quarantine_overrun",
      "ring_full",               "site_register",
      "drain_stall",             "snapshot_hook",
      "governor_misfire",
  };
  for (unsigned I = 0; I < NumFaultPointValues; ++I) {
    auto Point = static_cast<FaultPoint>(I);
    EXPECT_STREQ(FaultRegistry::pointName(Point), Expected[I]);
    EXPECT_EQ(FaultRegistry::pointFromName(Expected[I]), Point);
  }
  EXPECT_EQ(FaultRegistry::pointFromName("no_such_point"),
            FaultPoint::NumFaultPoints);
  EXPECT_EQ(FaultRegistry::pointFromName(nullptr),
            FaultPoint::NumFaultPoints);
  EXPECT_STREQ(FaultRegistry::pointName(FaultPoint::NumFaultPoints),
               "unknown");
}

TEST(FaultRegistryTest, SpecGrammarConfiguresAndArms) {
  FaultScope Scope;
  ASSERT_TRUE(Faults().configureFromSpec(
      "seed=99;heap_exhausted=count:2@3;ring_full=every:2;"
      "drain_stall=off"));
  EXPECT_EQ(Faults().seed(), 99u);

  // count:2@3 — evaluations [3, 5) fire.
  std::vector<bool> Fired;
  for (int I = 0; I < 6; ++I)
    Fired.push_back(Faults().shouldFire(FaultPoint::HeapExhausted));
  std::vector<bool> Expected = {false, false, false, true, true, false};
  EXPECT_EQ(Fired, Expected);

  // every:2 — the second and fourth evaluations fire.
  EXPECT_FALSE(Faults().shouldFire(FaultPoint::RingFull));
  EXPECT_TRUE(Faults().shouldFire(FaultPoint::RingFull));
  EXPECT_FALSE(Faults().shouldFire(FaultPoint::RingFull));
  EXPECT_TRUE(Faults().shouldFire(FaultPoint::RingFull));

  EXPECT_FALSE(Faults().shouldFire(FaultPoint::DrainStall));
}

TEST(FaultRegistryTest, MalformedSpecsAreRejected) {
  FaultScope Scope;
  Faults().disarm();
  EXPECT_FALSE(Faults().configureFromSpec("no_such_point=count:1"));
  EXPECT_FALSE(Faults().configureFromSpec("heap_exhausted=wat:3"));
  EXPECT_FALSE(Faults().configureFromSpec("heap_exhausted"));
  EXPECT_FALSE(Faults().configureFromSpec(nullptr));
  EXPECT_FALSE(Faults().armed()) << "a bad spec never arms injection";
}

TEST(FaultMacroTest, DisarmedPointNeverFires) {
  FaultScope Scope;
  Faults().arm(1);
  FaultConfig C;
  C.Mode = FaultMode::Every;
  C.Arg = 1;
  Faults().configure(FaultPoint::HeapExhausted, C);
  Faults().disarm();
  // The macro gates on the armed flag before ever reaching the
  // registry, whatever the point's configuration says.
  for (int I = 0; I < 4; ++I)
    EXPECT_FALSE(EFFSAN_FAULT(HeapExhausted));
}

//===----------------------------------------------------------------------===//
// The fault-point catalogue: every point fires and degrades gracefully
//===----------------------------------------------------------------------===//

TEST(FaultCatalogueTest, EveryPointFiresThroughItsLayer) {
  FaultScope Scope;
  bool Fired[NumFaultPointValues] = {};
  auto Record = [&](FaultPoint P) {
    Fired[static_cast<unsigned>(P)] = Faults().fires(P) > 0;
  };

  // heap_exhausted: guest allocation returns a diagnosable null.
  {
    Sanitizer S(quietSession());
    ASSERT_TRUE(Faults().configureFromSpec("seed=1;heap_exhausted=every:1"));
    EXPECT_EQ(S.malloc(64, S.types().getInt()), nullptr);
    EXPECT_GE(S.reporter().numIssues(ErrorKind::ResourceExhausted), 1u);
    Record(FaultPoint::HeapExhausted);
  }

  // heap_magazine_refill: the TLS magazine refill fails and allocation
  // falls through to the bump allocator — still succeeds.
  {
    Sanitizer S(quietSession());
    ASSERT_TRUE(
        Faults().configureFromSpec("seed=2;heap_magazine_refill=every:1"));
    void *P = S.malloc(64, S.types().getInt());
    EXPECT_NE(P, nullptr);
    S.free(P);
    Record(FaultPoint::HeapMagazineRefill);
  }

  // heap_slice_exhausted: with the magazine also dry, the bump
  // allocator is skipped and the steal-then-legacy fallback serves.
  {
    Sanitizer S(quietSession());
    ASSERT_TRUE(Faults().configureFromSpec(
        "seed=3;heap_magazine_refill=every:1;heap_slice_exhausted=every:1"));
    void *P = S.malloc(64, S.types().getInt());
    EXPECT_NE(P, nullptr) << "exhaust path degrades to a legacy block";
    S.free(P);
    Record(FaultPoint::HeapSliceExhausted);
  }

  // heap_quarantine_overrun: the next quarantine flush treats the
  // budget as overrun and evicts every parked block. The point lives
  // on the flush path, so the session needs quarantine enabled.
  {
    SessionOptions Options = quietSession();
    Options.Heap.QuarantineBytes = 1 << 16;
    Sanitizer S(Options);
    ASSERT_TRUE(Faults().configureFromSpec(
        "seed=4;heap_quarantine_overrun=every:1"));
    for (int I = 0; I < 64; ++I) {
      void *P = S.malloc(64, S.types().getInt());
      ASSERT_NE(P, nullptr);
      S.free(P);
    }
    Record(FaultPoint::HeapQuarantineOverrun);
  }

  // ring_full: every push sees a full ring; after the retry budget the
  // event takes the locked fallback — delivered, never lost.
  {
    concurrent::SessionPool Pool(quietPool(1));
    ASSERT_TRUE(Faults().configureFromSpec("seed=5;ring_full=every:1"));
    for (int I = 0; I < 5; ++I)
      oneBoundsError(Pool.shard(0));
    EXPECT_EQ(Pool.ringFallbacks(), 5u);
    EXPECT_EQ(Pool.reporter().numEvents(), 5u) << "no event loss";
    Record(FaultPoint::RingFull);
  }

  // site_register: registration refused; checks still run, they just
  // lose source attribution.
  {
    Sanitizer S(quietSession());
    ASSERT_TRUE(Faults().configureFromSpec("seed=6;site_register=every:1"));
    SiteTable Table;
    Table.File = "res.c";
    Table.Entries.push_back(
        {CheckSiteKind::BoundsCheck, SourceLoc{1, 1}, "f", nullptr});
    EXPECT_EQ(S.registerSiteTable(Table), NoSite);
    Record(FaultPoint::SiteRegister);
  }

  // drain_stall: the drain thread dies mid-loop; the watchdog restarts
  // it and the forced tick still completes.
  {
    ServiceOptions Options = quietService(1);
    Options.WatchdogIntervalMicros = 1000;
    Supervisor Sup(Options);
    ASSERT_TRUE(Faults().configureFromSpec("seed=7;drain_stall=count:1"));
    Sup.tick();
    EXPECT_GE(Sup.stats().DrainRestarts, 1u);
    Record(FaultPoint::DrainStall);
  }

  // snapshot_hook + governor_misfire: induced delivery failure delays
  // the snapshot one cadence; an induced misfire skips one governor
  // pass. Neither breaks the tick.
  {
    static std::atomic<unsigned> HookFired{0};
    HookFired = 0;
    ServiceOptions Options = quietService(1);
    Options.SnapshotHook = [](const char *, void *) { ++HookFired; };
    Options.SnapshotEveryTicks = 1;
    Supervisor Sup(Options);
    TenantId T = Sup.openTenant("t");
    ASSERT_NE(T, NoTenant);
    ASSERT_TRUE(Faults().configureFromSpec(
        "seed=8;snapshot_hook=count:1;governor_misfire=count:1"));
    Sup.tick(); // Snapshot delivery fails; governor pass skipped.
    EXPECT_EQ(HookFired.load(), 0u);
    Sup.tick(); // The next cadence retries and delivers.
    EXPECT_GE(HookFired.load(), 1u);
    Record(FaultPoint::SnapshotHook);
    Record(FaultPoint::GovernorMisfire);
  }

  for (unsigned I = 0; I < NumFaultPointValues; ++I)
    EXPECT_TRUE(Fired[I]) << "fault point never fired: "
                          << FaultRegistry::pointName(
                                 static_cast<FaultPoint>(I));
}

//===----------------------------------------------------------------------===//
// Graceful allocation exhaustion through both engines
//===----------------------------------------------------------------------===//

/// Collects effsan_run_minic output chunks into a std::string.
void collectOutput(const char *Data, size_t Len, void *UserData) {
  static_cast<std::string *>(UserData)->append(Data, Len);
}

TEST(GracefulAllocTest, NullCheckedSweepIsDeterministicOnBothEngines) {
  FaultScope Scope;
  // A SPEC-style mix that checks every malloc for null: under a 1-in-N
  // allocation-failure fault the run must complete cleanly, count its
  // failures, and replay identically on both engines from one seed.
  constexpr const char *Source = R"(
int main() {
  int nulls = 0;
  int sum = 0;
  int i;
  for (i = 0; i < 40; i = i + 1) {
    int *p = (int *)malloc(8 * sizeof(int));
    if (p == 0) {
      nulls = nulls + 1;
    } else {
      p[0] = i;
      p[7] = i * 2;
      sum = sum + p[0] + p[7];
      free(p);
    }
  }
  print_int(nulls);
  print_int(sum);
  return nulls;
}
)";
  const uint32_t Engines[2] = {EFFSAN_ENGINE_BYTECODE, EFFSAN_ENGINE_TREE};
  effsan_run_result Results[2];
  std::string Outputs[2];
  uint64_t Fires[2];

  for (int E = 0; E < 2; ++E) {
    // Re-arming the identical spec resets counters and PRNG streams:
    // both engines replay the same firing sequence.
    ASSERT_TRUE(
        Faults().configureFromSpec("seed=4242;heap_exhausted=prob:6"));
    effsan_options Options;
    effsan_options_init(&Options);
    Options.log_errors = 0;
    Options.engine = Engines[E];
    effsan_session *S = effsan_session_create(&Options);
    ASSERT_NE(S, nullptr);

    effsan_run_options Run;
    effsan_run_options_init(&Run);
    Run.output = collectOutput;
    Run.output_user_data = &Outputs[E];
    std::memset(&Results[E], 0, sizeof(Results[E]));
    Results[E].struct_size = sizeof(Results[E]);
    ASSERT_NE(effsan_run_minic(S, Source, &Run, &Results[E]), 0)
        << Results[E].fault;
    EXPECT_NE(Results[E].ok, 0u)
        << "null-checked program completes cleanly: " << Results[E].fault;
    Fires[E] = Faults().fires(FaultPoint::HeapExhausted);
    effsan_session_destroy(S);
  }

  EXPECT_GT(Fires[0], 0u) << "40 draws at 1-in-6 fire with certainty-ish";
  EXPECT_EQ(Fires[0], Fires[1]) << "same seed, same firing count";
  EXPECT_EQ(Outputs[0], Outputs[1]) << "bit-identical degraded runs";
  EXPECT_EQ(Results[0].exit_code, Results[1].exit_code);
  EXPECT_GE(Results[0].issues_reported, 1u)
      << "each induced failure is a diagnosable resource-exhausted report";
}

TEST(GracefulAllocTest, UncheckedNullDereferenceFaultsCleanly) {
  FaultScope Scope;
  // The anti-test: a program that does NOT check malloc. The induced
  // null must surface as a clean engine fault (a "null store"), never
  // a crash or silent corruption — on both engines.
  constexpr const char *Source = R"(
int main() {
  int *p = (int *)malloc(4 * sizeof(int));
  p[0] = 1;
  return p[0];
}
)";
  const uint32_t Engines[2] = {EFFSAN_ENGINE_BYTECODE, EFFSAN_ENGINE_TREE};
  for (uint32_t Engine : Engines) {
    ASSERT_TRUE(
        Faults().configureFromSpec("seed=9;heap_exhausted=count:1"));
    effsan_options Options;
    effsan_options_init(&Options);
    Options.log_errors = 0;
    Options.engine = Engine;
    effsan_session *S = effsan_session_create(&Options);
    ASSERT_NE(S, nullptr);
    effsan_run_result R;
    std::memset(&R, 0, sizeof(R));
    R.struct_size = sizeof(R);
    ASSERT_NE(effsan_run_minic(S, Source, nullptr, &R), 0);
    EXPECT_EQ(R.ok, 0u);
    EXPECT_NE(std::string(R.fault).find("null"), std::string::npos)
        << R.fault;
    effsan_session_destroy(S);
  }
}

//===----------------------------------------------------------------------===//
// ErrorRing backpressure: retry, locked fallback, accounted drop
//===----------------------------------------------------------------------===//

TEST(RingBackpressureTest, FallbackDeliversEveryEventWhenRingStaysFull) {
  FaultScope Scope;
  concurrent::SessionPool Pool(quietPool(1));
  ASSERT_TRUE(Faults().configureFromSpec("seed=21;ring_full=every:1"));

  for (int I = 0; I < 4; ++I)
    oneBoundsError(Pool.shard(0));
  // Initial push + 3 retries per event, all induced-full.
  EXPECT_EQ(Pool.ringOverflows(), 16u);
  EXPECT_EQ(Pool.ringFallbacks(), 4u);
  EXPECT_EQ(Pool.ringDrops(), 0u);
  EXPECT_EQ(Pool.reporter().numEvents(), 4u)
      << "every event reached the central reporter through the fallback";

  // Disarmed, the ring path serves again.
  Faults().disarm();
  oneBoundsError(Pool.shard(0));
  EXPECT_EQ(Pool.ringFallbacks(), 4u);
  Pool.drain();
  EXPECT_EQ(Pool.reporter().numEvents(), 5u);
}

TEST(RingBackpressureTest, OptInDropIsBoundedAndAccounted) {
  // No faults needed: a capacity-2 ring with zero retries and the
  // drop-on-full policy drops exactly the overflow, visibly.
  concurrent::PoolOptions Options = quietPool(1);
  Options.ErrorRingCapacity = 2;
  Options.RingRetryAttempts = 0;
  Options.DropOnRingFull = true;
  concurrent::SessionPool Pool(Options);

  for (int I = 0; I < 5; ++I)
    oneBoundsError(Pool.shard(0));
  EXPECT_EQ(Pool.ringDrops(), 3u) << "two queued, three accounted drops";
  EXPECT_EQ(Pool.ringFallbacks(), 0u);
  Pool.drain();
  EXPECT_EQ(Pool.reporter().numEvents(), 2u);
}

//===----------------------------------------------------------------------===//
// Self-healing supervisor: watchdog restart and escalation
//===----------------------------------------------------------------------===//

TEST(WatchdogTest, RestartsKilledDrainerWithoutLosingEvents) {
  FaultScope Scope;
  ServiceOptions Options = quietService(1);
  Options.WatchdogIntervalMicros = 1000;
  Options.MaxDrainRestarts = 3;
  Supervisor Sup(Options);
  EXPECT_EQ(Sup.health(), ServiceHealth::Healthy);

  TenantId T = Sup.openTenant("t");
  ASSERT_NE(T, NoTenant);
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    oneBoundsError(L.session());
  }

  // Kill the drainer on its next wake, then force a tick: the poke
  // wakes the doomed thread, the watchdog notices the death via the
  // liveness stamp and respawns, and the restarted drainer completes
  // the still-pending tick — the barrier below is the proof.
  ASSERT_TRUE(Faults().configureFromSpec("seed=31;drain_stall=count:1"));
  Sup.tick();

  ServiceStats S = Sup.stats();
  EXPECT_EQ(S.DrainRestarts, 1u);
  EXPECT_GE(S.WatchdogChecks, 1u);
  EXPECT_EQ(S.DrainedEvents, 1u) << "the queued event survived the crash";
  EXPECT_EQ(S.Health, ServiceHealth::Degraded)
      << "a restarted drainer degrades health";
  EXPECT_GE(Sup.reporter().numIssues(), 1u);

  // The healed drainer keeps ticking deterministically.
  Faults().disarm();
  {
    Supervisor::Lease L = Sup.lease(T);
    ASSERT_TRUE(static_cast<bool>(L));
    oneBoundsError(L.session());
  }
  EXPECT_EQ(Sup.tick(), 1u);
  EXPECT_EQ(Sup.stats().DrainedEvents, 2u);
}

TEST(WatchdogTest, RestartBudgetExhaustionLatchesCriticalAndEscalates) {
  FaultScope Scope;
  static std::atomic<unsigned> Escalations{0};
  Escalations = 0;

  ServiceOptions Options = quietService(1);
  Options.DrainIntervalMicros = 500; // Self-waking: dies on its own.
  Options.WatchdogIntervalMicros = 1000;
  Options.MaxDrainRestarts = 0; // Budget exhausted on the first death.
  Options.SnapshotHook = [](const char *Json, void *) {
    if (std::strstr(Json, "\"health\":\"critical\""))
      ++Escalations;
  };
  Options.SnapshotEveryTicks = 1'000'000; // Cadence never fires it.
  Supervisor Sup(Options);

  ASSERT_TRUE(Faults().configureFromSpec("seed=32;drain_stall=count:1"));
  EXPECT_TRUE(waitFor([&] {
    return Sup.stats().Health == ServiceHealth::Critical;
  })) << "budget-exhausted restart latches Critical";
  EXPECT_TRUE(waitFor([&] { return Escalations.load() >= 1; }))
      << "escalation snapshot reaches the hook";
  Faults().disarm();

  // The latch holds and the escalation fires exactly once.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Sup.health(), ServiceHealth::Critical);
  EXPECT_EQ(Escalations.load(), 1u);
  EXPECT_EQ(Sup.stats().DrainRestarts, 0u);
}

//===----------------------------------------------------------------------===//
// Lease backoff hints
//===----------------------------------------------------------------------===//

TEST(LeaseHintTest, RefusalCarriesTheDrainIntervalAsBackoff) {
  Supervisor Sup(quietService(1));
  TenantQuota Quota;
  Quota.MaxAllocBytes = 4096;
  TenantId T = Sup.openTenant("greedy", Quota);
  ASSERT_NE(T, NoTenant);

  uint64_t Hint = 77; // Poisoned: a granted lease must clear it.
  Supervisor::Lease Held = Sup.lease(T, Hint);
  ASSERT_TRUE(static_cast<bool>(Held));
  EXPECT_EQ(Hint, 0u);
  TypeContext &Ctx = Held->types();
  void *P = Held->malloc(8192, Ctx.getChar());
  ASSERT_NE(P, nullptr);

  Supervisor::Lease Refused = Sup.lease(T, Hint);
  EXPECT_FALSE(static_cast<bool>(Refused));
  EXPECT_EQ(Hint, 60'000'000u)
      << "quota refusal suggests waiting one drain interval";

  // Unknown handles carry no hint: the caller should give up, not wait.
  uint64_t Stale = 77;
  Supervisor::Lease None = Sup.lease(NoTenant, Stale);
  EXPECT_FALSE(static_cast<bool>(None));
  EXPECT_EQ(Stale, 0u);

  Held->free(P);
}

//===----------------------------------------------------------------------===//
// Telemetry: snapshot JSON carries the resilience counters
//===----------------------------------------------------------------------===//

TEST(SnapshotTest, JsonCarriesHealthAndResilienceCounters) {
  Supervisor Sup(quietService(1));
  std::string Json = Sup.snapshotJson();
  EXPECT_NE(Json.find("\"health\":\"healthy\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"ring_fallbacks\":"), std::string::npos);
  EXPECT_NE(Json.find("\"ring_drops\":"), std::string::npos);
  EXPECT_NE(Json.find("\"drain_restarts\":"), std::string::npos);
  EXPECT_NE(Json.find("\"watchdog_checks\":"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The effsan_fault_* / effsan_service_health C ABI (since 1.9)
//===----------------------------------------------------------------------===//

TEST(ResilienceAbiTest, FaultControlsRoundTrip) {
  FaultScope Scope;
  EXPECT_EQ(effsan_fault_compiled_in(), 1);
  ASSERT_EQ(effsan_fault_num_points(), NumFaultPointValues);
  EXPECT_STREQ(effsan_fault_point_name(0), "heap_exhausted");
  EXPECT_STREQ(effsan_fault_point_name(NumFaultPointValues - 1),
               "governor_misfire");
  EXPECT_EQ(effsan_fault_point_name(NumFaultPointValues), nullptr);
  EXPECT_EQ(effsan_fault_evaluations(NumFaultPointValues), 0u);
  EXPECT_EQ(effsan_fault_fires(NumFaultPointValues), 0u);

  effsan_fault_arm(77);
  EXPECT_EQ(effsan_fault_seed(), 77u);
  EXPECT_NE(effsan_fault_armed(), 0);
  effsan_fault_disarm();
  EXPECT_EQ(effsan_fault_armed(), 0);

  EXPECT_NE(effsan_fault_configure(
                "seed=42;heap_exhausted=prob:64;ring_full=count:3@100"),
            0);
  EXPECT_EQ(effsan_fault_seed(), 42u);
  EXPECT_EQ(effsan_fault_configure("bogus=every:1"), 0);
  EXPECT_EQ(effsan_fault_configure(nullptr), 0);
}

TEST(ResilienceAbiTest, ResourceExhaustionSurfacesThroughTheAbi) {
  FaultScope Scope;
  effsan_options Options;
  effsan_options_init(&Options);
  Options.log_errors = 0;
  effsan_session *S = effsan_session_create(&Options);
  ASSERT_NE(S, nullptr);

  static std::atomic<uint32_t> LastKind{~0u};
  LastKind = ~0u;
  effsan_set_error_callback(
      S,
      [](const effsan_error *E, void *) { LastKind = E->kind; }, nullptr);

  ASSERT_NE(effsan_fault_configure("seed=51;heap_exhausted=every:1"), 0);
  effsan_type IntTy = effsan_type_primitive(S, EFFSAN_PRIM_INT);
  EXPECT_EQ(effsan_malloc(S, 64, IntTy), nullptr);
  EXPECT_EQ(LastKind.load(), (uint32_t)EFFSAN_ERROR_RESOURCE_EXHAUSTED);
  EXPECT_GE(effsan_fault_fires(0), 1u);
  EXPECT_GE(effsan_fault_evaluations(0), 1u);

  effsan_fault_disarm();
  void *P = effsan_malloc(S, 64, IntTy);
  EXPECT_NE(P, nullptr);
  effsan_free(S, P);
  effsan_session_destroy(S);
}

TEST(ResilienceAbiTest, ServiceHealthCheckoutHintAndStatsTail) {
  effsan_service_options Opts;
  effsan_service_options_init(&Opts);
  EXPECT_EQ(Opts.ring_retry_attempts, 0u) << "zeroed 1.9 tail = defaults";
  EXPECT_EQ(Opts.disable_watchdog, 0);
  Opts.shards = 1;
  Opts.log_errors = 0;
  Opts.drain_interval_usec = 60'000'000;
  effsan_service *Svc = effsan_service_create(&Opts);
  ASSERT_NE(Svc, nullptr);

  EXPECT_EQ(effsan_service_health(Svc), (uint32_t)EFFSAN_HEALTH_HEALTHY);

  effsan_tenant_quota Quota;
  effsan_tenant_quota_init(&Quota);
  Quota.max_alloc_bytes = 4096;
  effsan_tenant T = effsan_service_tenant_open(Svc, "greedy", &Quota);
  ASSERT_NE(T, EFFSAN_NO_TENANT);

  uint64_t RetryAfter = 77;
  effsan_session *S = effsan_service_checkout_hint(Svc, T, &RetryAfter);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(RetryAfter, 0u);
  effsan_type CharTy = effsan_type_primitive(S, EFFSAN_PRIM_CHAR);
  void *P = effsan_malloc(S, 8192, CharTy);
  ASSERT_NE(P, nullptr);

  EXPECT_EQ(effsan_service_checkout_hint(Svc, T, &RetryAfter), nullptr);
  EXPECT_EQ(RetryAfter, 60'000'000u)
      << "the refusal tells the caller how long to back off";

  // The 1.9 stats tail: present for full-size callers, untouched for
  // callers built against the 1.8 prefix.
  effsan_service_stats SS;
  std::memset(&SS, 0xAB, sizeof(SS));
  SS.struct_size = sizeof(SS);
  effsan_service_get_stats(Svc, &SS);
  EXPECT_EQ(SS.ring_fallbacks, 0u);
  EXPECT_EQ(SS.ring_drops, 0u);
  EXPECT_EQ(SS.drain_restarts, 0u);
  EXPECT_EQ(SS.health, (uint32_t)EFFSAN_HEALTH_HEALTHY);

  constexpr size_t Prefix = offsetof(effsan_service_stats, ring_fallbacks);
  alignas(effsan_service_stats) unsigned char Buf[sizeof(
      effsan_service_stats)];
  std::memset(Buf, 0xCD, sizeof(Buf));
  auto *Short = reinterpret_cast<effsan_service_stats *>(Buf);
  Short->struct_size = Prefix;
  effsan_service_get_stats(Svc, Short);
  EXPECT_EQ(Short->checkouts_refused, 1u);
  for (size_t I = Prefix; I < sizeof(Buf); ++I)
    ASSERT_EQ(Buf[I], 0xCD) << "byte past the 1.8 prefix at " << I;

  effsan_free(S, P);
  effsan_service_release(Svc, T);
  effsan_service_destroy(Svc);
}

//===----------------------------------------------------------------------===//
// Arm/disarm storm (the CI TSan job's resilience target)
//===----------------------------------------------------------------------===//

TEST(ResilienceStormTest, ArmDisarmRacesFourWorkerThreads) {
  FaultScope Scope;
  concurrent::SessionPool Pool(quietPool(4));

  constexpr int Threads = 4;
  constexpr int Iters = 800;
  std::vector<std::thread> Workers;
  for (int W = 0; W < Threads; ++W) {
    Workers.emplace_back([&, W] {
      Sanitizer &S = Pool.shard(W);
      TypeContext &Ctx = S.types();
      for (int I = 0; I < Iters; ++I) {
        // Faults may null any malloc mid-flight; the worker is the
        // well-behaved caller that checks.
        auto *P =
            static_cast<int *>(S.malloc(16 * sizeof(int), Ctx.getInt()));
        if (!P)
          continue;
        Bounds B = S.boundsGet(P);
        S.boundsCheck(P + (I % 16), sizeof(int), B);
        if (I % 128 == 0)
          S.boundsCheck(P + 16, sizeof(int), B); // One error event.
        S.free(P);
      }
    });
  }

  // The main thread storms the registry: re-seeding, reconfiguring and
  // disarming against live evaluations from every layer.
  for (int I = 0; I < 200; ++I) {
    std::string Spec = "seed=" + std::to_string(I) +
                       ";heap_exhausted=prob:64;heap_magazine_refill=prob:8;"
                       "ring_full=prob:8;heap_quarantine_overrun=every:3";
    ASSERT_TRUE(Faults().configureFromSpec(Spec.c_str()));
    if (I % 3 == 0)
      Faults().disarm();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  Faults().disarm();
  for (std::thread &W : Workers)
    W.join();

  // Conservation: everything that was not an accounted drop reached
  // the central reporter (ring or fallback); drops stayed zero because
  // the policy defaults to no-loss.
  Pool.drain();
  EXPECT_EQ(Pool.ringDrops(), 0u);
  EXPECT_GE(Pool.reporter().numEvents(), uint64_t(Threads) * (Iters / 128));
}

} // namespace
