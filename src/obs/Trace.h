//===- obs/Trace.h - Lock-free per-thread event tracing ---------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the observability layer: typed events recorded
/// into per-thread lock-free SPSC rings, drained by a single collector
/// (the service drain thread, or the exporter itself), and rendered as
/// Chrome trace-event JSON that loads directly in chrome://tracing or
/// Perfetto.
///
/// Design constraints, in priority order:
///
///  1. A disabled tracer costs one relaxed atomic load and a predicted
///     branch on every instrumented path — no TLS lookup, no call.
///  2. An enabled writer NEVER blocks: a full ring counts a drop and
///     returns. Writers are wait-free (one relaxed load + two stores).
///  3. `EFFSAN_OBS_OFF` compiles every instrumentation site out
///     entirely (the flag accessors become constant-false inlines, so
///     `EFFSAN_OBS_EVENT` is dead code the optimizer deletes).
///
/// Timestamps are raw TSC ticks (`rdtsc` on x86; a steady_clock
/// nanosecond counter elsewhere). Each Tracer records a two-point
/// (tsc, wall) calibration at construction and computes the
/// microseconds-per-tick ratio lazily at export time, so the hot path
/// never multiplies.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_OBS_TRACE_H
#define EFFECTIVE_OBS_TRACE_H

#include "support/Compiler.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace effective {
namespace obs {

//===----------------------------------------------------------------------===//
// Global enable flags
//===----------------------------------------------------------------------===//

/// Which observability facilities are live. Checked (one relaxed load)
/// on every instrumented hot path; set through \c setFlags.
enum ObsFlags : uint32_t {
  TraceFlag = 1u << 0,   ///< Record events into per-thread trace rings.
  MetricsFlag = 1u << 1, ///< Sample check latencies into histograms.
  ProfileFlag = 1u << 2, ///< Count per-site hits/misses in SiteProfiler.
};

/// Every how many type checks of each thread the latency sampler diverts
/// one check through the timed wrapper (power of two minus one; see
/// Runtime::typeCheck). The timed path costs two rdtscs plus the
/// histogram bumps (~100 cycles) against a ~10-cycle average check, so
/// 1-in-1024 keeps the amortized cost well under 1% while still
/// filling the latency histograms in milliseconds of traffic (a
/// check-bound workload samples hundreds of thousands of checks per
/// second).
inline constexpr uint64_t CheckSampleMask = 1023;

/// Every how many inline-cache hits of each thread the site profiler
/// records one (misses are recorded unconditionally — the slow path
/// dwarfs the bump). Sampling keeps the profiler's table walk off the
/// dominant fast path; hot-site RANKING is unaffected (hits scale
/// uniformly), and a site's true hit count is approximately Hits * 16.
inline constexpr uint64_t ProfileSampleMask = 15;

#ifndef EFFSAN_OBS_OFF

namespace detail {
extern std::atomic<uint32_t> GlobalFlags;
} // namespace detail

/// True when observability support is compiled into this build.
constexpr bool compiledIn() { return true; }

EFFSAN_ALWAYS_INLINE uint32_t flags() {
  return detail::GlobalFlags.load(std::memory_order_relaxed);
}
EFFSAN_ALWAYS_INLINE bool traceActive() { return flags() & TraceFlag; }
EFFSAN_ALWAYS_INLINE bool metricsActive() { return flags() & MetricsFlag; }
EFFSAN_ALWAYS_INLINE bool profileActive() { return flags() & ProfileFlag; }

/// Replace the global flag word; returns the flags now in effect.
uint32_t setFlags(uint32_t Flags);

#else // EFFSAN_OBS_OFF

constexpr bool compiledIn() { return false; }
constexpr uint32_t flags() { return 0; }
constexpr bool traceActive() { return false; }
constexpr bool metricsActive() { return false; }
constexpr bool profileActive() { return false; }
inline uint32_t setFlags(uint32_t) { return 0; }

#endif // EFFSAN_OBS_OFF

//===----------------------------------------------------------------------===//
// Clock
//===----------------------------------------------------------------------===//

/// Raw timestamp in TSC ticks (nanoseconds on non-x86). Monotonic
/// enough for tracing; calibrated to wall microseconds at export time.
EFFSAN_ALWAYS_INLINE uint64_t now() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

//===----------------------------------------------------------------------===//
// Events
//===----------------------------------------------------------------------===//

/// Every event kind the runtime can record. One ring slot each; the
/// catalogue (meaning of Arg, layer, duration vs instant) lives in
/// docs/OBSERVABILITY.md.
enum class EventKind : uint16_t {
  CheckSlowPath,   ///< check: type-check inline-cache miss. Arg = SiteId.
  MagazineRefill,  ///< alloc: TLS magazine refilled. Arg = blocks taken.
  MagazineFlush,   ///< alloc: TLS magazine overflow flush. Arg = blocks.
  QuarantineFlush, ///< alloc: pending-quarantine batch flushed. Arg = batch.
  Steal,           ///< alloc: refill stolen from a sibling. Arg = victim.
  ShardRecycle,    ///< alloc: shard sub-arenas rewound. Arg = new epoch.
  SessionReset,    ///< concurrent: pool shard session reset. Arg = shard.
  RingOverflow,    ///< concurrent: ErrorRing push dropped. Arg = capacity.
  DrainTick,       ///< service: one drain-loop tick. Arg = events drained.
  GovernorStep,    ///< service: policy degrade/restore. Arg = new level.
  SnapshotEmit,    ///< service: snapshot hook fired. Arg = bytes rendered.
  FaultInjected,   ///< resilience: a fault point fired. Arg = point index.
  NumEventKinds,
};

/// Stable lower_snake name for JSON output.
const char *eventKindName(EventKind Kind);

/// Which layer the event belongs to ("check", "alloc", "concurrent",
/// "service") — becomes the Chrome trace "cat" field.
const char *eventKindCategory(EventKind Kind);

/// Shard value for events with no owning shard.
inline constexpr uint16_t NoShard = 0xffff;

/// One ring slot. 24 bytes; Tsc is the event END for duration events
/// (start = Tsc - DurTsc), the instant otherwise (DurTsc == 0).
struct TraceEvent {
  uint64_t Tsc = 0;
  uint64_t Arg = 0;
  uint32_t DurTsc = 0;
  uint16_t Kind = 0;
  uint16_t Shard = NoShard;
};

//===----------------------------------------------------------------------===//
// TraceRing — one writer thread, one collector
//===----------------------------------------------------------------------===//

/// Fixed-capacity SPSC ring. The owning thread pushes; the single
/// collector (serialized by Tracer::CollectLock) pops. A full ring
/// drops the event and counts it — the writer never waits.
class TraceRing {
public:
  explicit TraceRing(size_t Capacity, uint64_t Tid)
      : Cap(roundPow2(Capacity)), Mask(Cap - 1), Tid(Tid),
        Slots(new TraceEvent[Cap]) {}

  TraceRing(const TraceRing &) = delete;
  TraceRing &operator=(const TraceRing &) = delete;

  /// Writer side. Wait-free; returns false (and counts) when full.
  bool tryPush(const TraceEvent &E) {
    size_t H = Head.load(std::memory_order_relaxed);
    size_t T = Tail.load(std::memory_order_acquire);
    if (EFFSAN_UNLIKELY(H - T >= Cap)) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Slots[H & Mask] = E;
    Head.store(H + 1, std::memory_order_release);
    return true;
  }

  /// Collector side. Pops one event; false when empty.
  bool tryPop(TraceEvent &Out) {
    size_t T = Tail.load(std::memory_order_relaxed);
    size_t H = Head.load(std::memory_order_acquire);
    if (T == H)
      return false;
    Out = Slots[T & Mask];
    Tail.store(T + 1, std::memory_order_release);
    return true;
  }

  size_t capacity() const { return Cap; }
  uint64_t tid() const { return Tid; }
  uint64_t dropped() const { return Dropped.load(std::memory_order_relaxed); }
  void clearDropped() { Dropped.store(0, std::memory_order_relaxed); }

  /// Set by the TLS holder's destructor; the collector frees the ring
  /// once it has been drained after retirement.
  void retire() { Retired.store(true, std::memory_order_release); }
  bool retired() const { return Retired.load(std::memory_order_acquire); }

  size_t size() const {
    size_t H = Head.load(std::memory_order_acquire);
    size_t T = Tail.load(std::memory_order_acquire);
    return H - T;
  }

private:
  static size_t roundPow2(size_t N) {
    size_t P = 16;
    while (P < N)
      P <<= 1;
    return P;
  }

  const size_t Cap;
  const size_t Mask;
  const uint64_t Tid;
  std::unique_ptr<TraceEvent[]> Slots;
  alignas(64) std::atomic<size_t> Head{0}; ///< Writer-owned.
  alignas(64) std::atomic<size_t> Tail{0}; ///< Collector-owned.
  std::atomic<uint64_t> Dropped{0};
  std::atomic<bool> Retired{false};
};

//===----------------------------------------------------------------------===//
// Tracer — process-wide registry + collector + exporter
//===----------------------------------------------------------------------===//

/// A collected event plus the recording thread, buffered between
/// collection (drain-thread cadence) and export (end of session).
struct CollectedEvent {
  TraceEvent Event;
  uint64_t Tid = 0;
};

/// Streaming sink for rendered JSON (the C ABI export callback).
using WriteFn = void (*)(const char *Data, size_t Len, void *UserData);

/// Process-wide tracer: owns every thread's ring, collects them into
/// one buffer, and renders Chrome trace-event JSON. A leaky singleton —
/// instrumented TLS destructors may run at any point during process
/// teardown, so the registry must outlive every thread.
class Tracer {
public:
  static Tracer &instance();

  /// Arm tracing: drop any stale buffered events, reset drop counters,
  /// size new rings at \p RingCapacity slots, and set TraceFlag.
  /// Returns false when observability is compiled out.
  bool start(size_t RingCapacity = DefaultRingCapacity);

  /// Disarm tracing (clears TraceFlag). Buffered + in-ring events stay
  /// available for export.
  void stop();

  /// Record one event into the calling thread's ring. Callers gate on
  /// traceActive() first (the EFFSAN_OBS_EVENT macro does).
  void record(EventKind Kind, uint16_t Shard, uint64_t Arg,
              uint32_t DurTsc = 0);

  /// Drain every thread ring into the internal buffer. Called
  /// periodically by the supervisor drain thread so long runs do not
  /// overflow the rings; export calls it implicitly.
  void collect();

  /// Render everything collected so far (collecting first) as Chrome
  /// trace-event JSON through \p Write. Returns the number of events
  /// exported.
  uint64_t exportChromeJson(WriteFn Write, void *UserData);

  /// Convenience overload appending to a string.
  uint64_t exportChromeJson(std::string &Out);

  /// Events dropped because a ring was full, plus events discarded
  /// because the collected buffer hit its cap.
  uint64_t dropped() const;

  /// Events currently buffered (post-collect; for tests).
  size_t collectedSize();

  static constexpr size_t DefaultRingCapacity = 1u << 14;

  /// Cap on the buffered collection: beyond this, collect() discards
  /// (counted in dropped()) rather than growing without bound.
  static constexpr size_t MaxCollected = 1u << 20;

private:
  Tracer();

  TraceRing *ringForThisThread();
  void collectLocked();

  /// (tsc, wall-microseconds) pair taken at construction; a second pair
  /// at export time yields the ticks-to-microseconds ratio.
  uint64_t BaseTsc;
  double BaseWallMicros;
  double microsPerTick();

  mutable std::mutex RegLock; ///< Guards Rings (registration + iteration).
  std::vector<std::unique_ptr<TraceRing>> Rings;
  size_t RingCap = DefaultRingCapacity;
  std::atomic<uint64_t> RingEpoch{0}; ///< Bumped by start(); TLS re-registers.

  std::mutex CollectLock; ///< Serializes collectors (SPSC reader side).
  std::vector<CollectedEvent> Collected;
  std::atomic<uint64_t> CollectDropped{0};
  std::atomic<uint64_t> RetiredDropped{0}; ///< Drops from freed rings.
};

} // namespace obs
} // namespace effective

//===----------------------------------------------------------------------===//
// Instrumentation macro
//===----------------------------------------------------------------------===//

/// Record an instant event when tracing is armed. Costs one relaxed
/// load + predicted-untaken branch when idle; compiles out entirely
/// under EFFSAN_OBS_OFF (traceActive() is constant false).
#define EFFSAN_OBS_EVENT(KIND, SHARD, ARG)                                     \
  do {                                                                         \
    if (EFFSAN_UNLIKELY(::effective::obs::traceActive()))                      \
      ::effective::obs::Tracer::instance().record(                             \
          ::effective::obs::EventKind::KIND, static_cast<uint16_t>(SHARD),     \
          static_cast<uint64_t>(ARG));                                         \
  } while (0)

/// Record a duration event (start timestamp taken by the caller with
/// obs::now()) when tracing is armed.
#define EFFSAN_OBS_SPAN(KIND, SHARD, ARG, START_TSC)                           \
  do {                                                                         \
    if (EFFSAN_UNLIKELY(::effective::obs::traceActive()))                      \
      ::effective::obs::Tracer::instance().record(                             \
          ::effective::obs::EventKind::KIND, static_cast<uint16_t>(SHARD),     \
          static_cast<uint64_t>(ARG),                                          \
          static_cast<uint32_t>(::effective::obs::now() - (START_TSC)));       \
  } while (0)

#endif // EFFECTIVE_OBS_TRACE_H
