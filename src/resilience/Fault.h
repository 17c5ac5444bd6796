//===- resilience/Fault.h - Deterministic fault injection -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection half of the resilience layer: named fault points
/// compiled into the hot layers (allocator, error ring, site registry,
/// drain loop) behind the same one-relaxed-load pattern as the
/// observability flags, each triggerable by count, probability, or
/// schedule from a seeded PRNG — so an induced failure replays exactly
/// from its seed.
///
/// Hot-path contract, in priority order:
///
///  1. A disarmed fault point costs one relaxed atomic load and a
///     predicted-untaken branch — no call, no TLS, no fence.
///  2. Armed evaluation is wait-free: per-point relaxed counters and a
///     racy-by-design xorshift stream (exact replay is guaranteed for
///     single-threaded drives; concurrent drives stay data-race-free
///     and statistically faithful).
///
/// The registry is a leaky process-wide singleton (fault points live in
/// layers with no session context). `EFFSAN_FAULTS` in the environment
/// configures and arms it before main() — the hook the CI fault-matrix
/// job uses to run the whole test suite under a fixed-seed schedule;
/// see docs/RESILIENCE.md for the spec grammar and replay workflow.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_RESILIENCE_FAULT_H
#define EFFECTIVE_RESILIENCE_FAULT_H

#include "support/Compiler.h"

#include <atomic>
#include <cstdint>

namespace effective {
namespace resilience {

/// Every fault point compiled into the runtime. Values are dense array
/// indices; the catalogue (layer, induced failure, degradation path)
/// lives in docs/RESILIENCE.md.
enum class FaultPoint : unsigned {
  HeapExhausted,        ///< core: typed heap allocation returns null.
  HeapSliceExhausted,   ///< alloc: shard slice dry; exhaust-fallback path.
  HeapMagazineRefill,   ///< alloc: TLS magazine refill fails.
  HeapQuarantineOverrun,///< alloc: quarantine budget treated as overrun.
  RingFull,             ///< concurrent: ErrorRing push sees a full ring.
  SiteRegister,         ///< core: site-table registration refused (NoSite).
  DrainStall,           ///< service: drain thread dies mid-loop.
  SnapshotHook,         ///< service: snapshot hook delivery fails.
  GovernorMisfire,      ///< service: governor pass skipped this tick.
  NumFaultPoints,
};

inline constexpr unsigned NumFaultPointValues =
    static_cast<unsigned>(FaultPoint::NumFaultPoints);

/// How a configured point decides to fire.
enum class FaultMode : uint8_t {
  Off,         ///< Never fires.
  Count,       ///< Fires evaluations [After, After + Arg).
  Probability, ///< Fires 1-in-Arg per evaluation (seeded xorshift).
  Every,       ///< Fires every Arg-th evaluation.
};

/// One point's trigger configuration.
struct FaultConfig {
  FaultMode Mode = FaultMode::Off;
  /// Count: number of firing evaluations. Probability: the 1-in-N
  /// denominator. Every: the period. 0 disables in every mode.
  uint64_t Arg = 0;
  /// Count mode only: evaluations to let pass before the firing window.
  uint64_t After = 0;
};

namespace detail {
extern std::atomic<uint32_t> FaultsArmed;
} // namespace detail

/// The one relaxed load every disarmed fault point costs.
EFFSAN_ALWAYS_INLINE bool faultsArmed() {
  return detail::FaultsArmed.load(std::memory_order_relaxed) != 0;
}

/// Process-wide fault-point registry: per-point trigger configuration,
/// evaluation/fire counters, and the seeded PRNG streams. All state is
/// atomic — configuring, arming and disarming are safe against
/// concurrent evaluations from any number of threads.
class FaultRegistry {
public:
  static FaultRegistry &instance();

  /// Arms injection under \p Seed: clears every point to Off, resets
  /// all counters, and reseeds the per-point PRNG streams — the same
  /// seed plus the same configuration replays the same firing
  /// sequence. Points must be configure()d after arming.
  void arm(uint64_t Seed);

  /// Disarms injection (fault points return to the one-load cost).
  /// Configuration and counters stay readable for post-mortems.
  void disarm();

  bool armed() const;
  uint64_t seed() const { return Seed.load(std::memory_order_relaxed); }

  /// Installs \p Config on \p Point (effective immediately).
  void configure(FaultPoint Point, const FaultConfig &Config);

  /// Parses and applies a schedule spec: semicolon-separated entries,
  /// each `seed=N` or `<point>=<mode>` with mode one of
  /// `off | count:N | count:N@S | prob:N | every:N`. Arms the registry
  /// under the spec's seed (default 1) before applying the entries.
  /// Returns false (registry left disarmed) on any malformed entry or
  /// unknown point name. This is the `EFFSAN_FAULTS` grammar.
  bool configureFromSpec(const char *Spec);

  /// The armed-path decision: counts the evaluation and reports whether
  /// the point fires now. Reached only through EFFSAN_FAULT (which
  /// gates on faultsArmed() first).
  bool shouldFire(FaultPoint Point);

  /// Lifetime counters since the last arm().
  uint64_t evaluations(FaultPoint Point) const;
  uint64_t fires(FaultPoint Point) const;
  /// Total fires across all points since the last arm().
  uint64_t totalFires() const;

  /// Stable lower_snake name for specs, logs and the ABI catalogue.
  static const char *pointName(FaultPoint Point);
  /// Inverse of pointName; NumFaultPoints for an unknown name.
  static FaultPoint pointFromName(const char *Name);

private:
  FaultRegistry() = default;

  struct PointState {
    std::atomic<uint8_t> Mode{0};
    std::atomic<uint64_t> Arg{0};
    std::atomic<uint64_t> After{0};
    std::atomic<uint64_t> Evaluations{0};
    std::atomic<uint64_t> Fires{0};
    /// xorshift64 stream; racy updates under concurrency by design.
    std::atomic<uint64_t> Rng{1};
  };

  PointState Points[NumFaultPointValues];
  std::atomic<uint64_t> Seed{0};
};

} // namespace resilience
} // namespace effective

//===----------------------------------------------------------------------===//
// Fault-point macro
//===----------------------------------------------------------------------===//

/// Evaluates to true when the named fault point fires. Costs one
/// relaxed load + predicted-untaken branch while disarmed.
///
///   if (EFFSAN_FAULT(HeapMagazineRefill))
///     return false; // induced refill failure
#define EFFSAN_FAULT(POINT)                                                    \
  (EFFSAN_UNLIKELY(::effective::resilience::faultsArmed()) &&                  \
   ::effective::resilience::FaultRegistry::instance().shouldFire(              \
       ::effective::resilience::FaultPoint::POINT))

#endif // EFFECTIVE_RESILIENCE_FAULT_H
