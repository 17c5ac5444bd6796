//===- obs/Trace.cpp - Lock-free per-thread event tracing -----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/Trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace effective {
namespace obs {

namespace detail {
std::atomic<uint32_t> GlobalFlags{0};
} // namespace detail

uint32_t setFlags(uint32_t Flags) {
  uint32_t Masked = Flags & (TraceFlag | MetricsFlag | ProfileFlag);
  detail::GlobalFlags.store(Masked, std::memory_order_relaxed);
  return Masked;
}

const char *eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::CheckSlowPath:
    return "check_slow_path";
  case EventKind::MagazineRefill:
    return "magazine_refill";
  case EventKind::MagazineFlush:
    return "magazine_flush";
  case EventKind::QuarantineFlush:
    return "quarantine_flush";
  case EventKind::Steal:
    return "steal";
  case EventKind::ShardRecycle:
    return "shard_recycle";
  case EventKind::SessionReset:
    return "session_reset";
  case EventKind::RingOverflow:
    return "ring_overflow";
  case EventKind::DrainTick:
    return "drain_tick";
  case EventKind::GovernorStep:
    return "governor_step";
  case EventKind::SnapshotEmit:
    return "snapshot_emit";
  case EventKind::FaultInjected:
    return "fault_injected";
  case EventKind::NumEventKinds:
    break;
  }
  return "unknown";
}

const char *eventKindCategory(EventKind Kind) {
  switch (Kind) {
  case EventKind::CheckSlowPath:
    return "check";
  case EventKind::MagazineRefill:
  case EventKind::MagazineFlush:
  case EventKind::QuarantineFlush:
  case EventKind::Steal:
  case EventKind::ShardRecycle:
    return "alloc";
  case EventKind::SessionReset:
  case EventKind::RingOverflow:
    return "concurrent";
  case EventKind::DrainTick:
  case EventKind::GovernorStep:
  case EventKind::SnapshotEmit:
    return "service";
  case EventKind::FaultInjected:
    return "resilience";
  case EventKind::NumEventKinds:
    break;
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer &Tracer::instance() {
  // Leaky singleton: instrumented code (allocator TLS destructors,
  // static-storage sessions) may record during process teardown, so
  // the registry must never be destroyed.
  static Tracer *T = new Tracer;
  return *T;
}

static double wallMicrosNow() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : BaseTsc(now()), BaseWallMicros(wallMicrosNow()) {}

double Tracer::microsPerTick() {
  uint64_t Tsc = now();
  double Wall = wallMicrosNow();
  if (Tsc <= BaseTsc)
    return 1e-3; // Degenerate clock; pretend 1 GHz.
  return (Wall - BaseWallMicros) / double(Tsc - BaseTsc);
}

namespace {

/// TLS handle onto this thread's ring. Re-registers after every
/// Tracer::start() (epoch bump) so ring capacity changes take effect
/// and stale pre-start events cannot leak into a new session; retires
/// the ring on thread exit so the collector can free it once drained.
struct RingHolder {
  TraceRing *Ring = nullptr;
  uint64_t Epoch = ~uint64_t(0);

  ~RingHolder() {
    if (Ring)
      Ring->retire();
  }
};

thread_local RingHolder TlsRing;

static std::atomic<uint64_t> NextTid{1};

uint64_t thisTid() {
  static thread_local uint64_t Tid =
      NextTid.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

} // namespace

TraceRing *Tracer::ringForThisThread() {
  uint64_t Epoch = RingEpoch.load(std::memory_order_acquire);
  RingHolder &H = TlsRing;
  if (EFFSAN_LIKELY(H.Ring && H.Epoch == Epoch))
    return H.Ring;
  if (H.Ring)
    H.Ring->retire(); // Stale epoch: hand the old ring to the collector.
  auto Ring = std::make_unique<TraceRing>(RingCap, thisTid());
  TraceRing *Raw = Ring.get();
  {
    std::lock_guard<std::mutex> G(RegLock);
    Rings.push_back(std::move(Ring));
  }
  H.Ring = Raw;
  H.Epoch = Epoch;
  return Raw;
}

void Tracer::record(EventKind Kind, uint16_t Shard, uint64_t Arg,
                    uint32_t DurTsc) {
  TraceEvent E;
  E.Tsc = now();
  E.Arg = Arg;
  E.DurTsc = DurTsc;
  E.Kind = static_cast<uint16_t>(Kind);
  E.Shard = Shard;
  ringForThisThread()->tryPush(E);
}

bool Tracer::start(size_t RingCapacity) {
  std::lock_guard<std::mutex> CG(CollectLock);
  {
    std::lock_guard<std::mutex> RG(RegLock);
    // Everything recorded before this start() belongs to a previous
    // session: discard in-ring events and drop counts, and free
    // retired rings outright.
    for (auto It = Rings.begin(); It != Rings.end();) {
      if ((*It)->retired()) {
        It = Rings.erase(It);
        continue;
      }
      TraceEvent Scratch;
      while ((*It)->tryPop(Scratch))
        ;
      (*It)->clearDropped();
      ++It;
    }
    if (RingCapacity)
      RingCap = RingCapacity;
    // New epoch: live threads re-register on their next record(), so
    // the capacity change applies and their old rings retire.
    RingEpoch.fetch_add(1, std::memory_order_release);
  }
  Collected.clear();
  CollectDropped.store(0, std::memory_order_relaxed);
  RetiredDropped.store(0, std::memory_order_relaxed);
  detail::GlobalFlags.fetch_or(TraceFlag, std::memory_order_relaxed);
  return true;
}

void Tracer::stop() {
  detail::GlobalFlags.fetch_and(~uint32_t(TraceFlag),
                                std::memory_order_relaxed);
}

void Tracer::collectLocked() {
  std::lock_guard<std::mutex> G(RegLock);
  for (auto It = Rings.begin(); It != Rings.end();) {
    TraceRing &Ring = **It;
    TraceEvent E;
    while (Ring.tryPop(E)) {
      if (Collected.size() >= MaxCollected) {
        CollectDropped.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      Collected.push_back(CollectedEvent{E, Ring.tid()});
    }
    if (Ring.retired()) {
      // Drained after retirement: preserve its drop count, free it.
      RetiredDropped.fetch_add(Ring.dropped(), std::memory_order_relaxed);
      It = Rings.erase(It);
      continue;
    }
    ++It;
  }
}

void Tracer::collect() {
  std::lock_guard<std::mutex> G(CollectLock);
  collectLocked();
}

uint64_t Tracer::dropped() const {
  uint64_t Total = RetiredDropped.load(std::memory_order_relaxed) +
                   CollectDropped.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> G(RegLock);
  for (const auto &Ring : Rings)
    Total += Ring->dropped();
  return Total;
}

size_t Tracer::collectedSize() {
  std::lock_guard<std::mutex> G(CollectLock);
  return Collected.size();
}

namespace {

void flushChunk(std::string &Buf, WriteFn Write, void *UserData,
                size_t Threshold) {
  if (Buf.size() < Threshold)
    return;
  Write(Buf.data(), Buf.size(), UserData);
  Buf.clear();
}

} // namespace

uint64_t Tracer::exportChromeJson(WriteFn Write, void *UserData) {
  std::lock_guard<std::mutex> G(CollectLock);
  collectLocked();

  std::stable_sort(Collected.begin(), Collected.end(),
                   [](const CollectedEvent &A, const CollectedEvent &B) {
                     uint64_t SA = A.Event.Tsc - A.Event.DurTsc;
                     uint64_t SB = B.Event.Tsc - B.Event.DurTsc;
                     return SA < SB;
                   });

  double Mpt = microsPerTick();
  std::string Buf;
  Buf.reserve(1 << 16);
  Buf += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Line[512];
  uint64_t Count = 0;
  for (const CollectedEvent &C : Collected) {
    const TraceEvent &E = C.Event;
    auto Kind = static_cast<EventKind>(E.Kind);
    uint64_t StartTsc = E.Tsc - E.DurTsc;
    double Ts =
        StartTsc >= BaseTsc ? double(StartTsc - BaseTsc) * Mpt : 0.0;
    int N;
    if (E.DurTsc) {
      N = std::snprintf(
          Line, sizeof(Line),
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu64
          ",\"args\":{\"arg\":%" PRIu64 ",\"shard\":%d}}",
          Count ? "," : "", eventKindName(Kind), eventKindCategory(Kind), Ts,
          double(E.DurTsc) * Mpt, C.Tid, E.Arg,
          E.Shard == NoShard ? -1 : int(E.Shard));
    } else {
      N = std::snprintf(
          Line, sizeof(Line),
          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
          "\"ts\":%.3f,\"pid\":1,\"tid\":%" PRIu64
          ",\"args\":{\"arg\":%" PRIu64 ",\"shard\":%d}}",
          Count ? "," : "", eventKindName(Kind), eventKindCategory(Kind), Ts,
          C.Tid, E.Arg, E.Shard == NoShard ? -1 : int(E.Shard));
    }
    if (N > 0)
      Buf.append(Line, static_cast<size_t>(N));
    ++Count;
    flushChunk(Buf, Write, UserData, 1 << 15);
  }
  Buf += "]}";
  Write(Buf.data(), Buf.size(), UserData);
  return Count;
}

uint64_t Tracer::exportChromeJson(std::string &Out) {
  return exportChromeJson(
      [](const char *Data, size_t Len, void *UD) {
        static_cast<std::string *>(UD)->append(Data, Len);
      },
      &Out);
}

} // namespace obs
} // namespace effective
