//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Usage:
///   perfbench --workload spec-native|minic-vm|service-tenants
///             --seed N --seconds S --trace 0|1 [--trace-file PATH]
///
/// Runs one workload, checks its outputs, prints human-readable tables
/// and, as the last line of stdout, one JSON object with the keys
/// correct, attempted, failed and metrics: the end-to-end metrics with
/// --trace 0, the per-layer metrics with --trace 1. The traced run also
/// writes its spans as Chrome trace-event JSON to --trace-file. Exits 1
/// when any output was wrong, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "obs/Trace.h"
#include "resilience/Fault.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// Every per-layer metric of BENCHMARK.json, in its order. A traced run
/// reports all of them; a layer the workload never calls reads 0.
struct LayerMetric {
  const char *Name;
  const char *Unit;
};
constexpr LayerMetric LayerMetrics[] = {
    {"core.type_checks", "count"},
    {"core.type_check_hit_ratio", "fraction"},
    {"core.type_check_hit_ns", "ns"},
    {"core.type_check_miss_ns", "ns"},
    {"core.bounds_gets", "count"},
    {"core.bounds_checks", "count"},
    {"core.bounds_narrows", "count"},
    {"core.bounds_get_ns", "ns"},
    {"core.bounds_check_ns", "ns"},
    {"lowfat.allocs", "count"},
    {"lowfat.alloc_free_ns", "ns"},
    {"lowfat.magazine_hit_ratio", "fraction"},
    {"lowfat.peak_block_bytes", "bytes"},
    {"core.attrib_s", "s"},
    {"lowfat.attrib_s", "s"},
    {"residual_frac", "fraction"},
    {"minic.parse_ms", "ms"},
    {"minic.sema_ms", "ms"},
    {"instrument.lower_ms", "ms"},
    {"instrument.pass_ms", "ms"},
    {"ir.verify_ms", "ms"},
    {"bytecode.compile_ms", "ms"},
    {"instrument.static_checks", "count"},
    {"instrument.elided_checks", "count"},
    {"core.exec_checks", "count"},
    {"bytecode.insts", "count"},
    {"bytecode.steps", "count"},
    {"bytecode.ns_per_step", "ns"},
    {"service.lease_us", "us"},
    {"service.release_us", "us"},
    {"service.open_us", "us"},
    {"service.close_us", "us"},
    {"api.alloc_us", "us"},
    {"api.check_us", "us"},
    {"api.free_us", "us"},
    {"service.leases_refused", "count"},
    {"concurrent.ring_overflows", "count"},
    {"concurrent.ring_fallbacks", "count"},
    {"service.drain_ticks", "count"},
    {"service.drained_events", "count"},
    {"service.tenants_recycled", "count"},
    {"lowfat.steals", "count"},
    {"lowfat.exhaust_fallbacks", "count"},
    {"bench.run_ms", "ms"},
    {"bench.req_per_s", "1/s"},
    {"bench.p99_us", "us"},
};

/// The end-to-end metrics of BENCHMARK.json. The workloads also measure
/// run_ms, req_per_s and p99_us: absolute times, which on a shared host
/// drift with its load by more than any bound could allow. They are
/// printed on every run and reported, ungated, as bench.* per-layer
/// metrics by the traced run.
constexpr const char *GatedMetrics[] = {
    "setup_s",    "overhead_type_x", "overhead_bounds_x", "overhead_full_x",
    "mem_full_x", "rss_mb"};

bool gated(const Metric &M) {
  return std::any_of(std::begin(GatedMetrics), std::end(GatedMetrics),
                     [&](const char *Name) { return M.Name == Name; });
}

/// The workload's per-layer metrics in LayerMetrics order, with 0 for
/// the layers it bypasses. A metric missing from the list is a defect
/// of the benchmark and fails the run.
std::vector<Metric> allLayers(Result &R) {
  std::vector<Metric> Out;
  for (const LayerMetric &L : LayerMetrics) {
    Metric M{L.Name, 0, L.Unit, 0};
    for (const Metric &Got : R.PerLayer)
      if (Got.Name == L.Name)
        M = Got;
    if (M.Unit != L.Unit)
      R.fail("per-layer metric %s reported in %s, expected %s", L.Name,
             M.Unit.c_str(), L.Unit);
    Out.push_back(M);
  }
  for (const Metric &Got : R.PerLayer)
    if (std::none_of(std::begin(LayerMetrics), std::end(LayerMetrics),
                     [&](const LayerMetric &L) { return Got.Name == L.Name; }))
      R.fail("per-layer metric %s is not in BENCHMARK.json", Got.Name.c_str());
  return Out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload spec-native|minic-vm|"
               "service-tenants --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string TraceFile;
  for (int I = 1; I + 1 < argc; I += 2) {
    std::string Flag = argv[I];
    const char *Value = argv[I + 1];
    if (Flag == "--workload")
      O.Workload = Value;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      O.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--trace-file")
      TraceFile = Value;
    else
      return usage();
  }
  if (argc % 2 == 0 || !(O.Seconds > 0) || O.Seconds > 120)
    return usage();

  void (*Run)(const Options &, Result &) = nullptr;
  if (O.Workload == "spec-native")
    Run = runSpecNative;
  else if (O.Workload == "minic-vm")
    Run = runMinicVm;
  else if (O.Workload == "service-tenants")
    Run = runServiceTenants;
  else
    return usage();

  // Every run measures the libraries as shipped: observability and
  // fault points disarmed (an EFFSAN_FAULTS environment would arm the
  // latter before main).
  effective::obs::setFlags(0);
  effective::resilience::FaultRegistry::instance().disarm();

  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
              O.Seconds, O.Trace ? 1 : 0);
  Result R;
  Run(O, R);

  if (O.Trace) {
    Tracer::instance().printLayerSelfTimes();
    if (!TraceFile.empty()) {
      if (Tracer::instance().writeChromeJson(TraceFile))
        std::printf("\nspans written to %s\n", TraceFile.c_str());
      else
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     TraceFile.c_str());
    }
  }
  std::vector<Metric> Gated, Timing;
  for (const Metric &M : R.EndToEnd)
    (gated(M) ? Gated : Timing).push_back(M);
  printMetrics("absolute times (reported, not gated)", Timing);
  if (O.Trace)
    for (const Metric &M : Timing)
      R.layer("bench." + M.Name, M.Value, M.Unit, M.Samples);
  std::vector<Metric> Reported = O.Trace ? allLayers(R) : Gated;
  printMetrics(O.Trace ? "per-layer metrics" : "end-to-end metrics",
               Reported);
  std::printf("  %-32s %16.6g  %-9s %10llu\n", "fail_ratio",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0,
              "fraction", static_cast<unsigned long long>(R.Attempted));
  if (R.Attempted == 0)
    R.fail("no operation was attempted");
  std::printf("%s\n", resultJson(R, Reported).c_str());
  std::fflush(stdout);
  return R.Failed ? 1 : 0;
}
