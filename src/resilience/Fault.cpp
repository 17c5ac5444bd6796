//===- resilience/Fault.cpp - Deterministic fault injection ---------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "resilience/Fault.h"

#include "obs/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace effective;
using namespace effective::resilience;

std::atomic<uint32_t> resilience::detail::FaultsArmed{0};

namespace {

/// splitmix64: turns (seed, point index) into a well-mixed nonzero
/// xorshift starting state, so per-point streams are independent.
uint64_t mixSeed(uint64_t Seed, unsigned Index) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  Z ^= Z >> 31;
  return Z ? Z : 0x2545f4914f6cdd1dull;
}

const char *const PointNames[NumFaultPointValues] = {
    "heap_exhausted",        "heap_slice_exhausted", "heap_magazine_refill",
    "heap_quarantine_overrun", "ring_full",          "site_register",
    "drain_stall",           "snapshot_hook",        "governor_misfire",
};

} // namespace

FaultRegistry &FaultRegistry::instance() {
  // Leaky singleton: fault points live in layers (allocator TLS
  // destructors included) that may evaluate during process teardown.
  static FaultRegistry *R = new FaultRegistry();
  return *R;
}

void FaultRegistry::arm(uint64_t NewSeed) {
  Seed.store(NewSeed, std::memory_order_relaxed);
  for (unsigned I = 0; I < NumFaultPointValues; ++I) {
    PointState &S = Points[I];
    S.Mode.store(static_cast<uint8_t>(FaultMode::Off),
                 std::memory_order_relaxed);
    S.Arg.store(0, std::memory_order_relaxed);
    S.After.store(0, std::memory_order_relaxed);
    S.Evaluations.store(0, std::memory_order_relaxed);
    S.Fires.store(0, std::memory_order_relaxed);
    S.Rng.store(mixSeed(NewSeed, I), std::memory_order_relaxed);
  }
  detail::FaultsArmed.store(1, std::memory_order_relaxed);
}

void FaultRegistry::disarm() {
  detail::FaultsArmed.store(0, std::memory_order_relaxed);
}

bool FaultRegistry::armed() const {
  return detail::FaultsArmed.load(std::memory_order_relaxed) != 0;
}

void FaultRegistry::configure(FaultPoint Point, const FaultConfig &Config) {
  if (Point >= FaultPoint::NumFaultPoints)
    return;
  PointState &S = Points[static_cast<unsigned>(Point)];
  // Params first, mode last: an evaluation racing this configure sees
  // either the old mode or the new mode with its new params.
  S.Arg.store(Config.Arg, std::memory_order_relaxed);
  S.After.store(Config.After, std::memory_order_relaxed);
  S.Mode.store(static_cast<uint8_t>(Config.Mode), std::memory_order_release);
}

bool FaultRegistry::shouldFire(FaultPoint Point) {
  if (Point >= FaultPoint::NumFaultPoints)
    return false;
  PointState &S = Points[static_cast<unsigned>(Point)];
  auto Mode = static_cast<FaultMode>(S.Mode.load(std::memory_order_acquire));
  // Count the evaluation whether or not the point is configured: the
  // counters double as coverage telemetry for the fault-matrix job.
  uint64_t N = S.Evaluations.fetch_add(1, std::memory_order_relaxed);
  if (Mode == FaultMode::Off)
    return false;
  uint64_t Arg = S.Arg.load(std::memory_order_relaxed);
  if (Arg == 0)
    return false;
  bool Fire = false;
  switch (Mode) {
  case FaultMode::Off:
    break;
  case FaultMode::Count: {
    uint64_t After = S.After.load(std::memory_order_relaxed);
    Fire = N >= After && N - After < Arg;
    break;
  }
  case FaultMode::Probability: {
    // Racy load/compute/store: two threads may reuse one draw, which
    // keeps the stream data-race-free and deterministic when (as in
    // every replay harness) a single thread drives the point.
    uint64_t X = S.Rng.load(std::memory_order_relaxed);
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    S.Rng.store(X, std::memory_order_relaxed);
    Fire = X % Arg == 0;
    break;
  }
  case FaultMode::Every:
    Fire = (N + 1) % Arg == 0;
    break;
  }
  if (Fire) {
    S.Fires.fetch_add(1, std::memory_order_relaxed);
    EFFSAN_OBS_EVENT(FaultInjected, obs::NoShard,
                     static_cast<unsigned>(Point));
  }
  return Fire;
}

uint64_t FaultRegistry::evaluations(FaultPoint Point) const {
  if (Point >= FaultPoint::NumFaultPoints)
    return 0;
  return Points[static_cast<unsigned>(Point)].Evaluations.load(
      std::memory_order_relaxed);
}

uint64_t FaultRegistry::fires(FaultPoint Point) const {
  if (Point >= FaultPoint::NumFaultPoints)
    return 0;
  return Points[static_cast<unsigned>(Point)].Fires.load(
      std::memory_order_relaxed);
}

uint64_t FaultRegistry::totalFires() const {
  uint64_t Total = 0;
  for (unsigned I = 0; I < NumFaultPointValues; ++I)
    Total += Points[I].Fires.load(std::memory_order_relaxed);
  return Total;
}

const char *FaultRegistry::pointName(FaultPoint Point) {
  if (Point >= FaultPoint::NumFaultPoints)
    return "unknown";
  return PointNames[static_cast<unsigned>(Point)];
}

FaultPoint FaultRegistry::pointFromName(const char *Name) {
  if (Name)
    for (unsigned I = 0; I < NumFaultPointValues; ++I)
      if (std::strcmp(Name, PointNames[I]) == 0)
        return static_cast<FaultPoint>(I);
  return FaultPoint::NumFaultPoints;
}

bool FaultRegistry::configureFromSpec(const char *Spec) {
  if (!Spec)
    return false;
  // First pass: find the seed (arming resets everything, so it must
  // happen before any point entry is applied).
  uint64_t SpecSeed = 1;
  struct Entry {
    FaultPoint Point;
    FaultConfig Config;
  };
  std::vector<Entry> Entries;

  const char *P = Spec;
  while (*P) {
    const char *End = std::strchr(P, ';');
    std::string Item(P, End ? static_cast<size_t>(End - P) : std::strlen(P));
    P = End ? End + 1 : P + Item.size();
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos)
      return false;
    std::string Key = Item.substr(0, Eq);
    std::string Val = Item.substr(Eq + 1);
    if (Key == "seed") {
      SpecSeed = std::strtoull(Val.c_str(), nullptr, 0);
      continue;
    }
    FaultPoint Point = pointFromName(Key.c_str());
    if (Point == FaultPoint::NumFaultPoints)
      return false;
    FaultConfig Config;
    if (Val == "off") {
      Config.Mode = FaultMode::Off;
    } else if (Val.rfind("count:", 0) == 0) {
      Config.Mode = FaultMode::Count;
      std::string Args = Val.substr(6);
      size_t At = Args.find('@');
      Config.Arg = std::strtoull(Args.c_str(), nullptr, 0);
      if (At != std::string::npos)
        Config.After = std::strtoull(Args.c_str() + At + 1, nullptr, 0);
    } else if (Val.rfind("prob:", 0) == 0) {
      Config.Mode = FaultMode::Probability;
      Config.Arg = std::strtoull(Val.c_str() + 5, nullptr, 0);
    } else if (Val.rfind("every:", 0) == 0) {
      Config.Mode = FaultMode::Every;
      Config.Arg = std::strtoull(Val.c_str() + 6, nullptr, 0);
    } else {
      return false;
    }
    Entries.push_back({Point, Config});
  }

  arm(SpecSeed);
  for (const Entry &E : Entries)
    configure(E.Point, E.Config);
  return true;
}

namespace {

/// Arms the registry from `EFFSAN_FAULTS` before main() so every
/// existing binary — the whole ctest suite included — runs under the
/// environment's fault schedule without code changes. A malformed spec
/// is reported once and injection stays disarmed (fail safe, never
/// fail silent).
struct EnvArm {
  EnvArm() {
    const char *Spec = std::getenv("EFFSAN_FAULTS");
    if (!Spec || !*Spec)
      return;
    if (!FaultRegistry::instance().configureFromSpec(Spec))
      std::fprintf(stderr,
                   "effsan: ignoring malformed EFFSAN_FAULTS spec: %s\n",
                   Spec);
  }
};
EnvArm ArmFromEnv;

} // namespace
