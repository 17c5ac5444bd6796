//===- tests/perf_gates_test.cpp - Timing gates ---------------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The repository's four timing gates:
///
///  * armed observability (trace + metrics + profile) costs <= 3% on
///    the check-bound SPEC mix, and the armed passes record trace
///    events (docs/OBSERVABILITY.md#overhead);
///  * disarmed fault points cost <= 1% on the same mix, measured
///    against the registry armed with every point Off
///    (docs/RESILIENCE.md#overhead);
///  * the bytecode VM runs the MiniC SPEC mix at least 2x as fast as
///    the tree-walker (docs/BYTECODE.md);
///  * a CountOnly-degraded tenant sustains at least 1.5x the overload
///    check throughput of a Full one (docs/SERVICE.md).
///
/// Each gate is the median of 101 paired ratios: the two configurations
/// run back to back, so slow drift (frequency scaling, noisy
/// neighbours) cancels inside a pair; they take turns running first, so
/// neither profits from the other's warm-up; and outlier pairs drop out
/// of the median.
///
/// Timing means nothing under sanitizers or next to other tests, so
/// this binary is built in every configuration but is not registered
/// with ctest. Run it alone on a Release build:
///
///   cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release
///         -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG"
///   cmake --build build-rel --target perf_gates_test
///   ./build-rel/perf_gates_test
///
//===----------------------------------------------------------------------===//

#include "bytecode/VM.h"
#include "core/Effective.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"
#include "obs/Trace.h"
#include "resilience/Fault.h"
#include "service/Supervisor.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

using namespace effective;
using namespace effective::service;

namespace {

template <typename Fn> double secondsOf(Fn &&F) {
  auto Start = std::chrono::steady_clock::now();
  F();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// The median over 101 pairs of Variant() / Base(), where each call
/// returns the seconds it measured.
template <typename BaseFn, typename VariantFn>
double pairedMedian(BaseFn &&Base, VariantFn &&Variant) {
  std::vector<double> Ratios(101);
  for (size_t I = 0; I < Ratios.size(); ++I) {
    if (I % 2 == 0) {
      double B = Base();
      Ratios[I] = Variant() / B;
    } else {
      double V = Variant();
      Ratios[I] = V / Base();
    }
  }
  auto Mid = Ratios.begin() + Ratios.size() / 2;
  std::nth_element(Ratios.begin(), Mid, Ratios.end());
  return *Mid;
}

SessionOptions countingOptions() {
  SessionOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  return Options;
}

/// All SPEC stand-in kernels under the Full policy on one session:
/// the check-bound mix the obs and fault gates time.
class SpecMix {
public:
  SpecMix() : Session(TypeContext::global(), countingOptions()),
              Scope(Session) {}

  /// Seconds for one round of the mix at scale 1.
  double seconds() {
    return secondsOf([&] {
      for (const workloads::Workload &W : workloads::specWorkloads())
        W.RunFull(Session.runtime(), /*Scale=*/1);
    });
  }

private:
  Sanitizer Session;
  SanitizerScope Scope;
};

} // namespace

TEST(PerfGates, ArmedObservabilityCostsAtMostThreePercent) {
  auto Arm = [] {
    obs::Tracer::instance().start();
    obs::setFlags(obs::TraceFlag | obs::MetricsFlag | obs::ProfileFlag);
  };
  auto Disarm = [] {
    obs::Tracer::instance().stop();
    obs::setFlags(0);
  };
  SpecMix Mix;
  // Warm both configurations once: layout tables, site caches and the
  // profiler and histogram allocations settle before timing starts.
  Mix.seconds();
  Arm();
  Mix.seconds();
  Disarm();

  double Ratio = pairedMedian([&] { return Mix.seconds(); },
                              [&] {
                                Arm();
                                double On = Mix.seconds();
                                Disarm();
                                return On;
                              });
  obs::Tracer::instance().collect();
  uint64_t Events = obs::Tracer::instance().collectedSize();
  std::printf("obs armed overhead: %.2f%% (%llu events collected)\n",
              (Ratio - 1) * 100, static_cast<unsigned long long>(Events));
  EXPECT_GT(Events, 0u) << "the armed passes recorded no trace events";
  EXPECT_LE(Ratio, 1.03);
}

TEST(PerfGates, DisarmedFaultPointsCostAtMostOnePercent) {
  resilience::FaultRegistry &Faults = resilience::FaultRegistry::instance();
  SpecMix Mix;
  // Armed with every point Off: each point reads its mode and counts
  // the evaluation but never fires, an upper bound on the disarmed
  // one-load cost.
  auto Armed = [&] {
    Faults.arm(/*Seed=*/1234);
    double On = Mix.seconds();
    uint64_t Evaluations = 0;
    for (unsigned P = 0; P < resilience::NumFaultPointValues; ++P)
      Evaluations +=
          Faults.evaluations(static_cast<resilience::FaultPoint>(P));
    Faults.disarm();
    EXPECT_GT(Evaluations, 0u) << "the armed pass evaluated no fault point";
    return On;
  };
  Faults.disarm();
  Mix.seconds(); // Warm both configurations once.
  Armed();

  double Ratio = pairedMedian([&] { return Mix.seconds(); }, Armed);
  std::printf("disarmed fault-point overhead: %.2f%%\n", (Ratio - 1) * 100);
  EXPECT_LE(Ratio, 1.01);
}

namespace {

/// The MiniC SPEC mix: check-dense kernels (matmul bounds checks, list
/// traversal input type checks, struct-churn casts). Both engines run
/// the same check sequence (bytecode_test enforces it), so their ratio
/// isolates dispatch and frame overhead.
constexpr const char *MiniCSpecMix = R"(
struct cell { long weight; struct cell *next; };

long matmul(long *a, long *b, long *c, int n) {
  int i; int j; int k;
  for (i = 0; i < n; i = i + 1) {
    for (j = 0; j < n; j = j + 1) {
      long acc = 0;
      for (k = 0; k < n; k = k + 1)
        acc = acc + a[i * n + k] * b[k * n + j];
      c[i * n + j] = acc;
    }
  }
  return c[(n - 1) * n + (n - 1)];
}

long traverse(struct cell *head) {
  long acc = 0;
  while (head != NULL) {
    acc = acc + head->weight;
    head = head->next;
  }
  return acc;
}

int main() {
  int n = 16;
  long *a = (long *)malloc(n * n * sizeof(long));
  long *b = (long *)malloc(n * n * sizeof(long));
  long *c = (long *)malloc(n * n * sizeof(long));
  int i;
  for (i = 0; i < n * n; i = i + 1) {
    a[i] = i % 7;
    b[i] = i % 5;
  }
  long m = matmul(a, b, c, n);

  struct cell *head = NULL;
  for (i = 0; i < 64; i = i + 1) {
    struct cell *fresh = (struct cell *)malloc(sizeof(struct cell));
    fresh->weight = i;
    fresh->next = head;
    head = fresh;
  }
  long t = 0;
  for (i = 0; i < 50; i = i + 1)
    t = t + traverse(head);
  while (head != NULL) {
    struct cell *next = head->next;
    free(head);
    head = next;
  }
  free(a); free(b); free(c);
  return (int)((m + t) % 97);
}
)";

} // namespace

TEST(PerfGates, BytecodeVmRunsTheMiniCSpecMixTwiceAsFast) {
  Sanitizer Session(countingOptions());
  DiagnosticEngine Diags;
  instrument::CompileResult Compiled = instrument::compileMiniC(
      MiniCSpecMix, Session.types(), Diags, instrument::InstrumentOptions());
  ASSERT_TRUE(Compiled.M && Compiled.BC);

  constexpr int Runs = 10;
  auto Time = [](auto &&RunOnce) {
    // An untimed warm-up first: the two dispatch loops compete for the
    // branch-target buffer, and a cold loop would be charged for the
    // other engine's predictor pollution rather than its own cost.
    EXPECT_TRUE(RunOnce().Ok);
    return secondsOf([&] {
      for (int I = 0; I < Runs; ++I)
        RunOnce();
    });
  };
  auto Tree = [&] { return interp::run(*Compiled.M, Session); };
  auto Bytecode = [&] { return bytecode::run(*Compiled.BC, Session); };
  ASSERT_EQ(Tree().ExitCode, Bytecode().ExitCode);

  double Speedup = pairedMedian([&] { return Time(Bytecode); },
                                [&] { return Time(Tree); });
  std::printf("bytecode VM speedup over the tree-walker: %.2fx\n", Speedup);
  EXPECT_GE(Speedup, 2.0);
}

namespace {

ServiceOptions overloadService(bool Governor) {
  ServiceOptions Options;
  Options.Shards = 1;
  Options.Reporter.Mode = ReportMode::Count;
  Options.DrainIntervalMicros = 60'000'000; // Ticks only when forced.
  Options.EnableGovernor = Governor;
  return Options;
}

/// The check-heavy overload mix: 1 type_check + 8 bounds_checks per
/// iteration, with the working block recycled through typed
/// malloc/free every 64 iterations. Allocation is amortized on purpose:
/// degradation sheds check work, not allocator work.
uint64_t overloadWork(Sanitizer &S, unsigned Iters) {
  const TypeInfo *IntTy = S.types().getInt();
  uint64_t Sink = 0;
  auto *P = static_cast<int *>(S.malloc(16 * sizeof(int), IntTy));
  for (unsigned I = 0; I < Iters; ++I) {
    if ((I & 63) == 63) {
      S.free(P);
      P = static_cast<int *>(S.malloc(16 * sizeof(int), IntTy));
    }
    Bounds B = S.typeCheck(P, IntTy);
    for (unsigned K = 0; K < 8; ++K)
      S.boundsCheck(P + K, sizeof(int), B);
    P[0] = static_cast<int>(I);
    Sink += static_cast<unsigned>(P[0]);
  }
  S.free(P);
  return Sink;
}

} // namespace

TEST(PerfGates, DegradedTenantSustainsOneAndAHalfTimesFullThroughput) {
  Supervisor FullSup(overloadService(/*Governor=*/false));
  Supervisor ShedSup(overloadService(/*Governor=*/true));
  TenantId FullTenant = FullSup.openTenant("full");
  TenantId ShedTenant = ShedSup.openTenant("shed");
  Supervisor::Lease Full = FullSup.lease(FullTenant);
  Supervisor::Lease Shed = ShedSup.lease(ShedTenant);
  ASSERT_TRUE(Full && Shed);

  // Trip the governor as a sustained overload would: each round burns
  // more checks than the default per-tick budget, and the ticks are
  // forced so the ladder walks Full -> BoundsOnly -> CountOnly
  // deterministically.
  for (int Round = 0; Round < 8 && ShedSup.tenantPolicy(ShedTenant) !=
                                       CheckPolicy::CountOnly;
       ++Round) {
    overloadWork(Shed.session(), 250'000);
    ShedSup.tick();
  }
  ASSERT_EQ(ShedSup.tenantPolicy(ShedTenant), CheckPolicy::CountOnly);
  EXPECT_EQ(FullSup.tenantPolicy(FullTenant), CheckPolicy::Full);

  constexpr unsigned Iters = 60'000;
  uint64_t Sink = 0;
  auto Time = [&](Supervisor::Lease &L) {
    return secondsOf([&] { Sink += overloadWork(L.session(), Iters); });
  };
  double Speedup =
      pairedMedian([&] { return Time(Shed); }, [&] { return Time(Full); });
  EXPECT_NE(Sink, uint64_t(-1)); // Keeps the sink alive.
  std::printf("CountOnly vs Full overload throughput: %.2fx\n", Speedup);
  EXPECT_GE(Speedup, 1.5);
}
