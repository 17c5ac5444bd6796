//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

using namespace perfbench;

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * double(Values.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - double(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / double(Values.size()));
}

double perfbench::rssMb(const char *Field) {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(Status, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::strtod(Line.c_str() + Len + 1, nullptr) / 1024.0;
  return 0;
}

void Result::fail(const char *Fmt, ...) {
  ++Failed;
  std::va_list Args;
  va_start(Args, Fmt);
  std::fprintf(stderr, "perfbench: FAILED: ");
  std::vfprintf(stderr, Fmt, Args);
  std::fprintf(stderr, "\n");
  va_end(Args);
}

double perfbench::pairedRatio(const std::vector<double> &V,
                              const std::vector<double> &None) {
  std::vector<double> Ratios;
  for (size_t I = 0; I < V.size() && I < None.size(); ++I)
    Ratios.push_back(V[I] / None[I]);
  return median(std::move(Ratios));
}

FullStats perfbench::fullStats(const std::vector<VariantTimes> &Items) {
  std::vector<double> Medians, P99s, RoundMs;
  FullStats F;
  for (const VariantTimes &T : Items) {
    Medians.push_back(median(T[VFull]));
    P99s.push_back(quantile(T[VFull], 0.99) * 1e3);
    RoundMs.resize(std::max(RoundMs.size(), T[VFull].size()), 0);
    for (size_t R = 0; R < T[VFull].size(); ++R)
      RoundMs[R] += T[VFull][R];
    F.Units += T[VFull].size();
  }
  F.RunMs = geomean(Medians);
  F.P99Us = geomean(P99s);
  std::vector<double> PerRound;
  for (double Ms : RoundMs)
    PerRound.push_back(double(Items.size()) / (Ms / 1e3));
  F.ReqPerS = median(std::move(PerRound));
  return F;
}

std::vector<Metric>
perfbench::variantMetrics(const std::vector<VariantTimes> &Paired,
                          const FullStats &Full, double SetupS,
                          uint64_t SetupSamples, double MemFullX,
                          uint64_t MemSamples, double RssMb) {
  std::vector<double> Ov[NumVariants];
  uint64_t Pairs = 0;
  for (const VariantTimes &T : Paired) {
    for (unsigned V = VType; V <= VFull; ++V)
      Ov[V].push_back(pairedRatio(T[V], T[VNone]));
    Pairs += T[VNone].size();
  }
  return {
      {"setup_s", SetupS, "s", SetupSamples},
      {"overhead_type_x", geomean(Ov[VType]), "x", Pairs},
      {"overhead_bounds_x", geomean(Ov[VBounds]), "x", Pairs},
      {"overhead_full_x", geomean(Ov[VFull]), "x", Pairs},
      {"mem_full_x", MemFullX, "x", MemSamples},
      {"run_ms", Full.RunMs, "ms", Full.Units},
      {"req_per_s", Full.ReqPerS, "1/s", Full.Units},
      {"p99_us", Full.P99Us, "us", Full.Units},
      {"rss_mb", RssMb, "MiB", 1},
  };
}

void perfbench::printMetrics(const char *Title,
                             const std::vector<Metric> &Metrics) {
  std::printf("\n%s\n", Title);
  std::printf("  %-32s %16s  %-9s %10s\n", "metric", "value", "unit",
              "samples");
  for (const Metric &M : Metrics)
    std::printf("  %-32s %16.6g  %-9s %10llu\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), static_cast<unsigned long long>(M.Samples));
}

void perfbench::printTraceOverhead(const std::vector<Metric> &Untraced,
                                   const std::vector<Metric> &Traced) {
  std::printf("\ntracing overhead (same workload, spans off vs on)\n");
  std::printf("  %-20s %14s %14s %9s\n", "metric", "untraced", "traced",
              "diff");
  for (const Metric &U : Untraced) {
    for (const Metric &T : Traced) {
      if (T.Name != U.Name)
        continue;
      double Diff = U.Value != 0 ? (T.Value - U.Value) / U.Value : 0;
      std::printf("  %-20s %14.6g %14.6g %+8.1f%%\n", U.Name.c_str(),
                  U.Value, T.Value, Diff * 100);
    }
  }
}

std::string perfbench::resultJson(const Result &R,
                                  const std::vector<Metric> &Metrics) {
  std::ostringstream Out;
  Out.precision(17);
  Out << "{\"correct\": " << (R.Failed == 0 ? "true" : "false")
      << ", \"attempted\": " << R.Attempted << ", \"failed\": " << R.Failed
      << ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    // JSON has no NaN or infinity; a metric that could not be measured
    // reads as 0, which the run's consumers treat as a defect.
    double V = std::isfinite(M.Value) ? M.Value : 0;
    Out << (I ? ", " : "") << "\"" << M.Name << "\": {\"value\": " << V
        << ", \"unit\": \"" << M.Unit << "\"}";
  }
  Out << "}}";
  return Out.str();
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

Tracer::Buffer &Tracer::local() {
  thread_local Buffer *Mine = nullptr;
  if (!Mine) {
    std::lock_guard<std::mutex> Guard(Lock);
    Buffers.push_back(std::make_unique<Buffer>());
    Mine = Buffers.back().get();
    Mine->Tid = static_cast<uint32_t>(Buffers.size());
    Mine->Spans.reserve(MaxStoredSpans);
  }
  return *Mine;
}

void Tracer::beginSlow(const char *Name, uint64_t Request) {
  Buffer &B = local();
  uint32_t Stored = 0;
  if (B.Spans.size() < MaxStoredSpans) {
    uint32_t Parent = B.Stack.empty() ? 0 : B.Stack.back().StoredIndex;
    B.Spans.push_back({Name, Request, Parent, 0, 0});
    Stored = static_cast<uint32_t>(B.Spans.size());
  }
  B.Stack.push_back({Name, Request, nowNs(), 0, Stored});
}

void Tracer::endSlow() {
  int64_t End = nowNs();
  Buffer &B = local();
  if (B.Stack.empty())
    return;
  Open O = B.Stack.back();
  B.Stack.pop_back();
  int64_t Duration = End - O.StartNs;
  if (!B.Stack.empty())
    B.Stack.back().ChildNs += Duration;
  if (O.StoredIndex) {
    Stored &S = B.Spans[O.StoredIndex - 1];
    S.StartNs = O.StartNs;
    S.EndNs = End;
  }
  auto It = std::find_if(B.Stats.begin(), B.Stats.end(),
                         [&](const Summary &S) { return S.Name == O.Name; });
  if (It == B.Stats.end()) {
    B.Stats.push_back({O.Name, 0, 0, 0});
    It = B.Stats.end() - 1;
  }
  ++It->Count;
  It->TotalNs += double(Duration);
  It->SelfNs += double(Duration - O.ChildNs);
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::vector<Summary> Out;
  std::lock_guard<std::mutex> Guard(Lock);
  for (const auto &B : Buffers) {
    for (const Summary &S : B->Stats) {
      auto It = std::find_if(Out.begin(), Out.end(), [&](const Summary &O) {
        return std::strcmp(O.Name, S.Name) == 0;
      });
      if (It == Out.end()) {
        Out.push_back(S);
        continue;
      }
      It->Count += S.Count;
      It->TotalNs += S.TotalNs;
      It->SelfNs += S.SelfNs;
    }
  }
  return Out;
}

Tracer::Summary Tracer::find(const char *Name) const {
  for (const Summary &S : summarize())
    if (std::strcmp(S.Name, Name) == 0)
      return S;
  return Summary{Name, 0, 0, 0};
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  bool First = true;
  std::lock_guard<std::mutex> Guard(Lock);
  int64_t Origin = INT64_MAX;
  for (const auto &B : Buffers)
    for (const Stored &S : B->Spans)
      if (S.EndNs)
        Origin = std::min(Origin, S.StartNs);
  for (const auto &B : Buffers) {
    for (size_t I = 0; I < B->Spans.size(); ++I) {
      const Stored &S = B->Spans[I];
      if (!S.EndNs)
        continue;
      const char *Dot = std::strchr(S.Name, '.');
      int CatLen = Dot ? int(Dot - S.Name) : int(std::strlen(S.Name));
      std::fprintf(F,
                   "%s\n{\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                   "\"args\": {\"id\": %zu, \"parent\": %u, \"request\": "
                   "%llu}}",
                   First ? "" : ",", S.Name, CatLen, S.Name,
                   double(S.StartNs - Origin) / 1e3,
                   double(S.EndNs - S.StartNs) / 1e3, B->Tid, I + 1, S.Parent,
                   static_cast<unsigned long long>(S.Request));
      First = false;
    }
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

void Tracer::printLayerSelfTimes() const {
  std::map<std::string, double> Layers;
  std::vector<Summary> All = summarize();
  std::printf("\nspans (benchmark-side, around each call into a layer)\n");
  std::printf("  %-26s %12s %14s %14s\n", "span", "count", "mean_ns",
              "self_ms");
  for (const Summary &S : All) {
    std::printf("  %-26s %12llu %14.1f %14.3f\n", S.Name,
                static_cast<unsigned long long>(S.Count),
                S.Count ? S.TotalNs / double(S.Count) : 0, S.SelfNs / 1e6);
    const char *Dot = std::strchr(S.Name, '.');
    std::string Layer = Dot ? std::string(S.Name, Dot) : std::string(S.Name);
    Layers[Layer] += S.SelfNs;
  }
  std::printf("\nself time per layer\n");
  for (const auto &[Layer, SelfNs] : Layers)
    std::printf("  %-26s %14.3f ms\n", Layer.c_str(), SelfNs / 1e6);
}
