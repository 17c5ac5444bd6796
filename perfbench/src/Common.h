//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the benchmark shares: the command-line
/// options, a seeded PRNG, order statistics, the result (metrics plus
/// attempted/failed counts) and its JSON rendering, the span recorder
/// behind the traced run, and peak-RSS sampling.
///
/// Spans are recorded by the benchmark around its own calls into each
/// layer's public functions; nothing inside the libraries is traced.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

/// splitmix64: the only source of workload inputs, seeded from --seed.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) {
    return Lo + next() % (Hi - Lo + 1);
  }

private:
  uint64_t State;
};

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Quantile by linear interpolation between order statistics (the
/// "inclusive" method); \p Q in [0, 1]. 0 for an empty sample.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}
double geomean(const std::vector<double> &Values);

/// A resident-set field of /proc/self/status ("VmHWM", the peak, or
/// "VmRSS", the current size) for this process, in MiB.
double rssMb(const char *Field);

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  /// Samples behind the value (printed beside it, not in the JSON).
  uint64_t Samples;
};

/// What one benchmark run reports.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;

  void layer(std::string Name, double Value, std::string Unit,
             uint64_t Samples) {
    PerLayer.push_back({std::move(Name), Value, std::move(Unit), Samples});
  }
  /// Counts one failed operation and says why on stderr.
  void fail(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// How many set-ups setup_s is the median of.
constexpr unsigned SetupRuns = 101;

/// The clock behind setup_s and the reading behind rss_mb. The workload
/// times its real set-up with first(). In the second half of its timed
/// rounds, each round boundary calls between(): the first such call
/// reads rss_mb, then throwaway copies of the set-up are timed, spread
/// evenly over the remaining time, so setup_s (their median) sees the
/// machine states the timed work sees. rss_mb is read before any copy
/// exists, so their pages stay out of the peak. finish() tops the count
/// up to SetupRuns when the rounds end early.
template <typename Fn> class SetupSampler {
public:
  explicit SetupSampler(Fn Setup) : Setup(std::move(Setup)) {}

  auto first() { return timed(); }
  /// The timed rounds run from now for \p Seconds.
  void start(double Seconds) {
    Mid = nowNs() + int64_t(Seconds * 0.5e9);
    End = nowNs() + int64_t(Seconds * 1e9);
  }
  void between() {
    int64_t Now = nowNs();
    if (Now < Mid)
      return;
    if (RssMb == 0)
      RssMb = rssMb("VmHWM");
    double Done = std::min(1.0, double(Now - Mid) / double(End - Mid));
    while (Seconds.size() < 1 + unsigned((SetupRuns - 1) * Done))
      timed();
  }
  void finish() {
    if (RssMb == 0)
      RssMb = rssMb("VmHWM");
    while (Seconds.size() < SetupRuns)
      timed();
  }

  double medianS() const { return median(Seconds); }
  uint64_t samples() const { return Seconds.size(); }
  double RssMb = 0;

private:
  auto timed() {
    int64_t Start = nowNs();
    auto Out = Setup();
    Seconds.push_back(double(nowNs() - Start) / 1e9);
    return Out;
  }

  Fn Setup;
  std::vector<double> Seconds;
  int64_t Mid = 0, End = 0;
};

/// The four build variants every workload runs, in this order: None
/// (uninstrumented), Type, Bounds and Full (Figure 8).
constexpr unsigned NumVariants = 4;
enum Variant : unsigned { VNone, VType, VBounds, VFull };

/// Unit-of-work times in ms of one item (a kernel, a program, the
/// request) under each variant.
using VariantTimes = std::array<std::vector<double>, NumVariants>;

/// The median over i of \p V[i] / \p None[i]: the overhead of one item
/// from times measured side by side (index i of both in the same round).
double pairedRatio(const std::vector<double> &V,
                   const std::vector<double> &None);

/// The Full variant's unit-of-work times, summarized.
struct FullStats {
  double RunMs = 0;   ///< Typical unit time.
  double P99Us = 0;   ///< Tail unit time.
  double ReqPerS = 0; ///< Units completed per second.
  uint64_t Units = 0;
};

/// For workloads of several items run once per round: the geomeans
/// over items of each item's median and 99th-percentile Full time, and
/// the median over rounds of the round's Full units per second of Full
/// time.
FullStats fullStats(const std::vector<VariantTimes> &Items);

/// The end-to-end metrics, named as in BENCHMARK.json. overhead_<v>_x
/// is the geomean over items of the median paired ratio v / None, where
/// \p Paired holds each item's times so that index i of every variant
/// was measured side by side (the same round): pairing cancels the
/// machine's speed drifting between rounds.
std::vector<Metric> variantMetrics(const std::vector<VariantTimes> &Paired,
                                   const FullStats &Full, double SetupS,
                                   uint64_t SetupSamples, double MemFullX,
                                   uint64_t MemSamples, double RssMb);

/// Prints a titled metric table (name, value, unit, samples) to stdout.
void printMetrics(const char *Title, const std::vector<Metric> &Metrics);

/// Prints, for each end-to-end metric, the untraced and traced values
/// and their difference: the cost of the benchmark's own spans.
void printTraceOverhead(const std::vector<Metric> &Untraced,
                        const std::vector<Metric> &Traced);

/// Renders the output's last line: correct/attempted/failed plus
/// \p Metrics as {"name": {"value": v, "unit": u}}.
std::string resultJson(const Result &R, const std::vector<Metric> &Metrics);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Disabled, begin()/end() cost one branch.
/// Each thread appends to its own buffer; the parent of a span is the
/// innermost span open on the same thread, and spans of one request
/// share its request id.
class Tracer {
public:
  static Tracer &instance();

  /// Toggled only while no workload thread is inside a span.
  void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Opens a span named \p Name (a "layer.call" literal) under request
  /// \p Request.
  void begin(const char *Name, uint64_t Request = 0) {
    if (enabled())
      beginSlow(Name, Request);
  }
  void end() {
    if (enabled())
      endSlow();
  }

  struct Summary {
    const char *Name = nullptr;
    uint64_t Count = 0;
    double TotalNs = 0;
    double SelfNs = 0;
  };
  /// Per span name, summed over threads: count, total and self time
  /// (duration minus the part its child spans cover), first-seen order.
  std::vector<Summary> summarize() const;
  /// The summary of spans named \p Name (zero counts when none).
  Summary find(const char *Name) const;
  /// Writes the stored spans as Chrome trace-event JSON ("X" events).
  /// Every span is summarized, but each thread stores only its first
  /// MaxStoredSpans, which bounds the file and the memory.
  bool writeChromeJson(const std::string &Path) const;
  /// Prints each layer's (span-name prefix) self time.
  void printLayerSelfTimes() const;

  static constexpr size_t MaxStoredSpans = 100000;

private:
  struct Stored {
    const char *Name;
    uint64_t Request;
    uint32_t Parent; ///< Index + 1 of the parent in Spans; 0 = none.
    int64_t StartNs;
    int64_t EndNs;
  };
  struct Open {
    const char *Name;
    uint64_t Request;
    int64_t StartNs;
    int64_t ChildNs;
    uint32_t StoredIndex; ///< Index + 1 in Spans; 0 = not stored.
  };
  struct Buffer {
    uint32_t Tid = 0;
    std::vector<Stored> Spans;
    std::vector<Open> Stack;
    std::vector<Summary> Stats;
  };
  Buffer &local();
  void beginSlow(const char *Name, uint64_t Request);
  void endSlow();

  std::atomic<bool> Enabled{false};
  mutable std::mutex Lock; ///< Guards Buffers (not their contents).
  std::vector<std::unique_ptr<Buffer>> Buffers;
};

/// RAII span around one call into a layer.
class Span {
public:
  explicit Span(const char *Name, uint64_t Request = 0) {
    Tracer::instance().begin(Name, Request);
  }
  ~Span() { Tracer::instance().end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
};

/// The workloads; each fills \p R and returns normally (failures are
/// counted in R, never thrown).
void runSpecNative(const Options &O, Result &R);
void runMinicVm(const Options &O, Result &R);
void runServiceTenants(const Options &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
