//===- perfbench/src/SpecNative.cpp - The spec-native workload ------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's Figures 7-9 on the 19 SPEC2006 stand-in kernels, with
/// the instrumentation compiled in through CheckedPtr. Each round runs
/// every kernel under None, Type, Bounds and Full in an order the seed
/// permutes, on one warm session per variant. Almost all instrumented
/// work lands in the core checks and the lowfat allocator; minic,
/// instrument, bytecode, concurrent and service are bypassed.
///
/// The traced run alternates untraced and traced rounds (spans around
/// each kernel run), reads exact counts from the Full session's
/// counters and heap stats, and times each primitive in a calibration
/// loop on the same session, so the Full - None time can be attributed
/// to core and lowfat as count x unit cost.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "workloads/Harness.h"

#include <algorithm>
#include <array>
#include <memory>

using namespace effective;
using namespace effective::workloads;
using namespace perfbench;

namespace {

/// The fixed per-kernel scale: the scale at which the kernel's None
/// variant takes about 8 ms (median of 5 runs on a warm None session,
/// Release build, 4-core x86-64 container; see perfbench/README.md).
/// Fixed rather than calibrated per run, so every run of a commit does
/// the same work.
struct KernelScale {
  const char *Name;
  unsigned Scale;
};
constexpr KernelScale Scales[] = {
    {"perlbench", 35}, {"bzip2", 26},    {"gcc", 204},     {"mcf", 132},
    {"gobmk", 173},    {"hmmer", 44},    {"sjeng", 2452},  {"libquantum", 19},
    {"h264ref", 33},   {"omnetpp", 3},   {"astar", 3},     {"xalancbmk", 214},
    {"milc", 110},     {"namd", 41},     {"dealII", 20},   {"soplex", 601},
    {"povray", 79},    {"lbm", 13},
};

/// Kernels left out of the workload, with the reason. Each is printed
/// on every run so the gap stays visible.
struct Exclusion {
  const char *Name;
  const char *Reason;
};
constexpr Exclusion Excluded[] = {
    {"sphinx3",
     "its checksum depends on uninitialized memory (the Viterbi trellis "
     "row read at frame 0 is never written), so it differs between "
     "variants and between fresh and warm sessions at every scale above "
     "1; add it back once the kernel initializes both trellis rows"},
};

constexpr PolicyKind Variants[NumVariants] = {
    PolicyKind::None, PolicyKind::Type, PolicyKind::Bounds, PolicyKind::Full};
constexpr const char *SpanNames[NumVariants] = {"kernel.none", "kernel.type",
                                                "kernel.bounds",
                                                "kernel.full"};
using Entry = uint64_t (*)(Runtime &, unsigned);

Entry entryOf(const Workload &W, unsigned V) {
  switch (V) {
  case VNone:
    return W.RunNone;
  case VType:
    return W.RunType;
  case VBounds:
    return W.RunBounds;
  default:
    return W.RunFull;
  }
}

using Sessions = std::array<std::unique_ptr<Sanitizer>, NumVariants>;

Sessions makeSessions() {
  Sessions S;
  for (unsigned V = 0; V < NumVariants; ++V) {
    SessionOptions Options;
    Options.Policy = checkPolicyFor(Variants[V]);
    Options.Reporter.Mode = ReportMode::Count;
    // Types are shared through the global context, as in the harness:
    // interned once, like the paper's weak-symbol meta data.
    S[V] = std::make_unique<Sanitizer>(TypeContext::global(), Options);
  }
  return S;
}

/// Everything measured for one kernel.
struct Kernel {
  const Workload *W = nullptr;
  unsigned Scale = 0;
  uint64_t Checksum = 0;
  /// Run times per variant, untraced and traced rounds apart.
  VariantTimes Ms[2];
  /// Counter and heap deltas of the kernel's last run per variant
  /// (the kernels are deterministic, so every run's deltas are equal).
  std::array<CheckCounters::Snapshot, NumVariants> Checks{};
  std::array<uint64_t, NumVariants> Allocs{};
  uint64_t MagazineHits = 0;
  /// Fresh-session peaks (Figure 9).
  uint64_t PeakNone = 0, PeakFull = 0;
};

CheckCounters::Snapshot minus(const CheckCounters::Snapshot &A,
                              const CheckCounters::Snapshot &B) {
  CheckCounters::Snapshot D;
  D.TypeChecks = A.TypeChecks - B.TypeChecks;
  D.LegacyTypeChecks = A.LegacyTypeChecks - B.LegacyTypeChecks;
  D.BoundsChecks = A.BoundsChecks - B.BoundsChecks;
  D.BoundsNarrows = A.BoundsNarrows - B.BoundsNarrows;
  D.BoundsGets = A.BoundsGets - B.BoundsGets;
  D.TypeCheckCacheHits = A.TypeCheckCacheHits - B.TypeCheckCacheHits;
  D.TypeCheckCacheMisses = A.TypeCheckCacheMisses - B.TypeCheckCacheMisses;
  return D;
}

/// Runs kernel \p K under variant \p V on its warm session and checks
/// the checksum against the first run's.
void runKernel(Kernel &K, unsigned V, Sessions &S, bool Traced,
               Result &R) {
  Sanitizer &Session = *S[V];
  SanitizerScope Scope(Session);
  Runtime &RT = Session.runtime();
  CheckCounters::Snapshot Before = RT.counters().snapshot();
  lowfat::HeapStats HeapBefore = RT.heap().stats();

  int64_t Start = nowNs();
  uint64_t Sum;
  {
    Span Timed(SpanNames[V]);
    Sum = entryOf(*K.W, V)(RT, K.Scale);
  }
  double Ms = double(nowNs() - Start) / 1e6;

  // Publishes this thread's magazine tallies so the deltas are exact;
  // every run, traced or not, starts with the magazines flushed.
  RT.heap().flushThreadCache();
  lowfat::HeapStats HeapAfter = RT.heap().stats();
  K.Checks[V] = minus(RT.counters().snapshot(), Before);
  K.Allocs[V] = HeapAfter.NumAllocs - HeapBefore.NumAllocs;
  if (V == VFull)
    K.MagazineHits = HeapAfter.MagazineHits - HeapBefore.MagazineHits;
  K.Ms[Traced][V].push_back(Ms);
  ++R.Attempted;
  if (Sum != K.Checksum)
    R.fail("spec-native: %s under %s: checksum %llu, expected %llu",
           K.W->Info.Name, policyKindName(Variants[V]),
           static_cast<unsigned long long>(Sum),
           static_cast<unsigned long long>(K.Checksum));
}

/// One round: every kernel under every variant, the kernel order and
/// each kernel's variant order drawn from \p Rand.
void runRound(std::vector<Kernel> &Kernels, Sessions &S, Rng &Rand,
              bool Traced, Result &R) {
  std::vector<unsigned> Order(Kernels.size());
  for (unsigned I = 0; I < Order.size(); ++I)
    Order[I] = I;
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rand.next() % I]);
  for (unsigned KI : Order) {
    std::array<unsigned, NumVariants> VOrder = {VNone, VType, VBounds, VFull};
    for (size_t I = NumVariants; I > 1; --I)
      std::swap(VOrder[I - 1], VOrder[Rand.next() % I]);
    for (unsigned V : VOrder)
      runKernel(Kernels[KI], V, S, Traced, R);
  }
}

/// The end-to-end metrics over the untraced (or traced) rounds.
template <typename Sampler>
std::vector<Metric> endToEnd(const std::vector<Kernel> &Kernels,
                             bool Traced, const Sampler &Setup) {
  std::vector<VariantTimes> Items;
  std::vector<double> Mem;
  for (const Kernel &K : Kernels) {
    Items.push_back(K.Ms[Traced]);
    Mem.push_back(double(K.PeakFull) / double(K.PeakNone));
  }
  return variantMetrics(Items, fullStats(Items), Setup.medianS(),
                        Setup.samples(), geomean(Mem), Mem.size(),
                        Setup.RssMb);
}

/// Median ns per call of \p Op over 5 batches of \p N calls.
template <typename Fn> double nsPerCall(unsigned N, Fn Op) {
  std::vector<double> Batches;
  for (int B = 0; B < 5; ++B) {
    int64_t Start = nowNs();
    for (unsigned I = 0; I < N; ++I)
      Op(I);
    Batches.push_back(double(nowNs() - Start) / N);
  }
  return median(Batches);
}

struct UnitCosts {
  double HitNs, MissNs, GetNs, CheckNs, AllocFreeNs;
};

/// Times each public Runtime primitive on objects of the Full session.
UnitCosts calibrate(Sanitizer &Session) {
  Span Timed("calibrate.units");
  Runtime &RT = Session.runtime();
  const TypeInfo *IntTy = RT.typeContext().getInt();
  constexpr unsigned N = 1u << 20;
  auto *P = static_cast<int *>(RT.allocate(64 * sizeof(int), IntTy));
  SiteId Site = siteForType(IntTy);
  uintptr_t Sink = 0;
  UnitCosts C;
  C.HitNs = nsPerCall(N, [&](unsigned I) {
    Sink += RT.typeCheck(P + (I & 63), IntTy, Site).Lo;
  });
  // The slow path's cost: the full meta + layout probe the inline
  // cache exists to skip.
  C.MissNs = nsPerCall(N / 8, [&](unsigned I) {
    Sink += RT.typeCheckUncached(P + (I & 63), IntTy).Lo;
  });
  C.GetNs = nsPerCall(N, [&](unsigned I) {
    Sink += RT.boundsGet(P + (I & 63)).Hi;
  });
  Bounds B = RT.typeCheck(P, IntTy, Site);
  C.CheckNs = nsPerCall(N, [&](unsigned I) {
    RT.boundsCheck(P + (I & 63), sizeof(int), B);
    Sink += I;
  });
  C.AllocFreeNs = nsPerCall(N / 4, [&](unsigned I) {
    void *Q = RT.allocate(16 + 16 * (I & 15), IntTy);
    Sink += reinterpret_cast<uintptr_t>(Q) & 1;
    RT.deallocate(Q);
  });
  RT.deallocate(P);
  if (Sink == 1)
    std::printf(" ");
  return C;
}

} // namespace

void perfbench::runSpecNative(const Options &O, Result &R) {
  Rng Rand(O.Seed);
  std::vector<Kernel> Kernels;
  for (const Workload &W : specWorkloads()) {
    const Exclusion *X =
        std::find_if(std::begin(Excluded), std::end(Excluded),
                     [&](const Exclusion &E) {
                       return std::string(E.Name) == W.Info.Name;
                     });
    if (X != std::end(Excluded)) {
      std::printf("spec-native: %s excluded: %s\n", X->Name, X->Reason);
      continue;
    }
    const KernelScale *KS =
        std::find_if(std::begin(Scales), std::end(Scales),
                     [&](const KernelScale &S) {
                       return std::string(S.Name) == W.Info.Name;
                     });
    if (KS == std::end(Scales)) {
      R.fail("spec-native: kernel %s has no scale", W.Info.Name);
      continue;
    }
    Kernel K;
    K.W = &W;
    K.Scale = KS->Scale;
    Kernels.push_back(std::move(K));
  }

  // Set-up: the four sessions.
  SetupSampler Setup(makeSessions);
  Sessions S = Setup.first();

  // Warm-up round: interns every kernel's types, warms each session's
  // heap and inline cache, and fixes the reference checksum (None).
  for (Kernel &K : Kernels) {
    SanitizerScope Scope(*S[VNone]);
    K.Checksum = K.W->RunNone(S[VNone]->runtime(), K.Scale);
  }
  Result WarmUp;
  runRound(Kernels, S, Rand, false, WarmUp);
  R.Attempted += WarmUp.Attempted;
  R.Failed += WarmUp.Failed;
  for (Kernel &K : Kernels)
    for (auto &Samples : K.Ms)
      for (auto &V : Samples)
        V.clear();

  // Timed rounds until the budget is spent (at least two per kind).
  Tracer::instance().enable(false);
  int64_t Deadline = nowNs() + int64_t(O.Seconds * 1e9);
  Setup.start(O.Seconds);
  unsigned Rounds = 0;
  while (Rounds < 2 || nowNs() < Deadline) {
    bool Traced = O.Trace && (Rounds & 1);
    Tracer::instance().enable(Traced);
    {
      Span Round("kernel.round", Rounds);
      runRound(Kernels, S, Rand, Traced, R);
    }
    Tracer::instance().enable(false);
    Setup.between();
    ++Rounds;
  }

  Setup.finish();

  // Figure 7 and 9 from fresh sessions, untimed: issues found under
  // Full, peak heap under Full and None.
  for (Kernel &K : Kernels) {
    RunStats NoneStats = runWorkload(*K.W, PolicyKind::None, K.Scale);
    RunStats FullStats = runWorkload(*K.W, PolicyKind::Full, K.Scale);
    K.PeakNone = NoneStats.PeakHeapBytes;
    K.PeakFull = FullStats.PeakHeapBytes;
    R.Attempted += 2;
    if (NoneStats.Checksum != K.Checksum || FullStats.Checksum != K.Checksum)
      R.fail("spec-native: %s: fresh-session checksum differs",
             K.W->Info.Name);
    if (FullStats.Issues != K.W->Info.SeededIssues)
      R.fail("spec-native: %s: Full found %llu issues, seeded %u",
             K.W->Info.Name, static_cast<unsigned long long>(FullStats.Issues),
             K.W->Info.SeededIssues);
  }

  std::vector<Metric> Untraced = endToEnd(Kernels, false, Setup);
  R.EndToEnd = Untraced;

  // Per-kernel rows beside the geomeans.
  std::printf("\n%-11s %6s %8s %8s %8s %8s %7s %7s %7s %6s\n", "kernel",
              "scale", "none_ms", "type_ms", "bnds_ms", "full_ms", "ov.type",
              "ov.bnds", "ov.full", "mem.x");
  for (const Kernel &K : Kernels) {
    const VariantTimes &T = K.Ms[0];
    std::printf("%-11s %6u %8.3f %8.3f %8.3f %8.3f %6.2fx %6.2fx %6.2fx "
                "%5.2fx\n",
                K.W->Info.Name, K.Scale, median(T[VNone]), median(T[VType]),
                median(T[VBounds]), median(T[VFull]),
                pairedRatio(T[VType], T[VNone]),
                pairedRatio(T[VBounds], T[VNone]),
                pairedRatio(T[VFull], T[VNone]),
                double(K.PeakFull) / double(K.PeakNone));
  }
  // Untraced[1..4]: overhead_type_x, _bounds_x, _full_x, mem_full_x.
  std::printf("%-11s %6s %8s %8s %8s %8s %6.2fx %6.2fx %6.2fx %5.2fx  "
              "(geomean; paper +49%% / +115%% / +288%%)\n",
              "geomean", "", "", "", "", "", Untraced[1].Value,
              Untraced[2].Value, Untraced[3].Value, Untraced[4].Value);

  if (!O.Trace)
    return;
  std::vector<Metric> Traced = endToEnd(Kernels, true, Setup);
  printTraceOverhead(Untraced, Traced);

  UnitCosts C = calibrate(*S[VFull]);
  std::printf("\nunit costs (calibration loop on the Full session)\n"
              "  type_check hit %.2f ns, miss %.2f ns, bounds_get %.2f ns, "
              "bounds_check %.2f ns, alloc+free %.2f ns\n",
              C.HitNs, C.MissNs, C.GetNs, C.CheckNs, C.AllocFreeNs);

  // Count x unit cost per kernel (Full run), against measured Full-None.
  std::printf("\n%-11s %12s %12s %12s %10s %9s %9s %9s %8s\n", "kernel",
              "type_checks", "bnds_checks", "narrows", "allocs", "core_ms",
              "lowfat_ms", "full-none", "resid");
  CheckCounters::Snapshot FullTotal, BoundsTotal;
  uint64_t AllocTotal = 0, MagHits = 0;
  double CoreS = 0, LowfatS = 0, ExtraS = 0;
  for (const Kernel &K : Kernels) {
    const CheckCounters::Snapshot &F = K.Checks[VFull];
    double Core = (double(F.TypeCheckCacheHits) * C.HitNs +
                   double(F.TypeCheckCacheMisses) * C.MissNs +
                   double(F.BoundsChecks + F.BoundsNarrows) * C.CheckNs) /
                  1e9;
    double Lowfat = double(K.Allocs[VFull]) * C.AllocFreeNs / 1e9;
    double Extra = (median(K.Ms[0][VFull]) - median(K.Ms[0][VNone])) / 1e3;
    std::printf("%-11s %12llu %12llu %12llu %10llu %9.3f %9.3f %9.3f %7.0f%%\n",
                K.W->Info.Name, static_cast<unsigned long long>(F.TypeChecks),
                static_cast<unsigned long long>(F.BoundsChecks),
                static_cast<unsigned long long>(F.BoundsNarrows),
                static_cast<unsigned long long>(K.Allocs[VFull]), Core * 1e3,
                Lowfat * 1e3, Extra * 1e3,
                Extra > 0 ? (1 - (Core + Lowfat) / Extra) * 100 : 0.0);
    FullTotal += F;
    BoundsTotal += K.Checks[VBounds];
    AllocTotal += K.Allocs[VFull];
    MagHits += K.MagazineHits;
    CoreS += Core;
    LowfatS += Lowfat;
    ExtraS += Extra;
  }

  uint64_t PeakBytes = 0;
  for (const Kernel &K : Kernels)
    PeakBytes += K.PeakFull;
  uint64_t N = Kernels.size();
  uint64_t Lookups =
      FullTotal.TypeCheckCacheHits + FullTotal.TypeCheckCacheMisses;
  R.layer("core.type_checks", double(FullTotal.TypeChecks), "count", N);
  R.layer("core.type_check_hit_ratio",
          Lookups ? double(FullTotal.TypeCheckCacheHits) / double(Lookups) : 0,
          "fraction", N);
  R.layer("core.type_check_hit_ns", C.HitNs, "ns", 5);
  R.layer("core.type_check_miss_ns", C.MissNs, "ns", 5);
  R.layer("core.bounds_gets", double(BoundsTotal.BoundsGets), "count", N);
  R.layer("core.bounds_checks", double(FullTotal.BoundsChecks), "count", N);
  R.layer("core.bounds_narrows", double(FullTotal.BoundsNarrows), "count", N);
  R.layer("core.bounds_get_ns", C.GetNs, "ns", 5);
  R.layer("core.bounds_check_ns", C.CheckNs, "ns", 5);
  R.layer("lowfat.allocs", double(AllocTotal), "count", N);
  R.layer("lowfat.alloc_free_ns", C.AllocFreeNs, "ns", 5);
  R.layer("lowfat.magazine_hit_ratio",
          AllocTotal ? double(MagHits) / double(AllocTotal) : 0, "fraction",
          N);
  R.layer("lowfat.peak_block_bytes", double(PeakBytes), "bytes", N);
  R.layer("core.attrib_s", CoreS, "s", N);
  R.layer("lowfat.attrib_s", LowfatS, "s", N);
  R.layer("residual_frac", ExtraS > 0 ? 1 - (CoreS + LowfatS) / ExtraS : 0,
          "fraction", N);
}
