//===- api/effsan_internal.h - C ABI handle internals -----------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared internals of the effsan C ABI implementation: the session
/// handle layout and the enum translation helpers, used by both the
/// session entry points (api/effsan.cpp) and the pool entry points
/// (concurrent/effsan_pool.cpp). Not installed; not part of the ABI.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_API_EFFSAN_INTERNAL_H
#define EFFECTIVE_API_EFFSAN_INTERNAL_H

#include "api/Sanitizer.h"
#include "api/effsan.h"

#include <cstring>
#include <memory>

/// The opaque session handle: a Sanitizer (owned, or a view of a pool
/// shard) plus the installed C callbacks (the C++ reporter callback
/// trampolines through them; v1 and v2 sinks are independent and may
/// both be installed).
struct effsan_session {
  std::unique_ptr<effective::Sanitizer> Owned; ///< Null for pool shards.
  effective::Sanitizer *S;
  /// Execution engine for effsan_run_minic (an effsan_engine value;
  /// fixed at creation — session options, or pool options for shards).
  uint32_t Engine = EFFSAN_ENGINE_BYTECODE;
  effsan_error_callback Callback = nullptr;
  void *CallbackUserData = nullptr;
  effsan_error_callback_v2 CallbackV2 = nullptr;
  void *CallbackV2UserData = nullptr;

  explicit effsan_session(const effective::SessionOptions &Options,
                          uint32_t Engine = EFFSAN_ENGINE_BYTECODE)
      : Owned(std::make_unique<effective::Sanitizer>(Options)),
        S(Owned.get()), Engine(Engine) {}

  explicit effsan_session(effective::Sanitizer &Shard,
                          uint32_t Engine = EFFSAN_ENGINE_BYTECODE)
      : S(&Shard), Engine(Engine) {}
};

namespace effective {
namespace effsan_detail {

inline CheckPolicy policyFromValue(uint32_t Value) {
  switch (Value) {
  case EFFSAN_POLICY_BOUNDS_ONLY:
    return CheckPolicy::BoundsOnly;
  case EFFSAN_POLICY_TYPE_ONLY:
    return CheckPolicy::TypeOnly;
  case EFFSAN_POLICY_COUNT_ONLY:
    return CheckPolicy::CountOnly;
  case EFFSAN_POLICY_OFF:
    return CheckPolicy::Off;
  case EFFSAN_POLICY_FULL:
  default:
    return CheckPolicy::Full;
  }
}

inline uint32_t policyValue(CheckPolicy Policy) {
  switch (Policy) {
  case CheckPolicy::Full:
    return EFFSAN_POLICY_FULL;
  case CheckPolicy::BoundsOnly:
    return EFFSAN_POLICY_BOUNDS_ONLY;
  case CheckPolicy::TypeOnly:
    return EFFSAN_POLICY_TYPE_ONLY;
  case CheckPolicy::CountOnly:
    return EFFSAN_POLICY_COUNT_ONLY;
  case CheckPolicy::Off:
    return EFFSAN_POLICY_OFF;
  }
  return EFFSAN_POLICY_FULL;
}

inline uint32_t errorKindValue(ErrorKind Kind) {
  switch (Kind) {
  case ErrorKind::TypeError:
    return EFFSAN_ERROR_TYPE;
  case ErrorKind::BoundsError:
    return EFFSAN_ERROR_BOUNDS;
  case ErrorKind::UseAfterFree:
    return EFFSAN_ERROR_USE_AFTER_FREE;
  case ErrorKind::DoubleFree:
    return EFFSAN_ERROR_DOUBLE_FREE;
  case ErrorKind::StackUseAfterReturn:
    return EFFSAN_ERROR_STACK_USE_AFTER_RETURN;
  case ErrorKind::ResourceExhausted:
    return EFFSAN_ERROR_RESOURCE_EXHAUSTED;
  }
  return EFFSAN_ERROR_TYPE;
}

inline uint32_t checkKindValue(CheckSiteKind Kind) {
  switch (Kind) {
  case CheckSiteKind::TypeCheck:
    return EFFSAN_CHECK_TYPE;
  case CheckSiteKind::BoundsGet:
    return EFFSAN_CHECK_BOUNDS_GET;
  case CheckSiteKind::BoundsCheck:
    return EFFSAN_CHECK_BOUNDS;
  case CheckSiteKind::BoundsNarrow:
    return EFFSAN_CHECK_BOUNDS_NARROW;
  }
  return EFFSAN_CHECK_TYPE;
}

inline CheckSiteKind checkKindFromValue(uint32_t Value) {
  switch (Value) {
  case EFFSAN_CHECK_BOUNDS_GET:
    return CheckSiteKind::BoundsGet;
  case EFFSAN_CHECK_BOUNDS:
    return CheckSiteKind::BoundsCheck;
  case EFFSAN_CHECK_BOUNDS_NARROW:
    return CheckSiteKind::BoundsNarrow;
  case EFFSAN_CHECK_TYPE:
  default:
    return CheckSiteKind::TypeCheck;
  }
}

/// Fills the ABI's v2 error struct from a reporter event (shared by
/// the session and pool trampolines).
inline void fillErrorV2(const ErrorInfo &Info, const char *Message,
                        effsan_error_v2 &Out) {
  Out.kind = errorKindValue(Info.Kind);
  Out.pointer = Info.Pointer;
  Out.offset = Info.Offset;
  // Rendered reports are never empty; an empty message means the
  // defer_error_rendering option elided it (since 1.4) — pass NULL.
  Out.message = (Message && Message[0]) ? Message : nullptr;
  Out.site = EFFSAN_NO_SITE;
  Out.file = nullptr;
  Out.line = 0;
  Out.column = 0;
  Out.function = nullptr;
  Out.check_kind = EFFSAN_CHECK_TYPE;
  Out.static_type =
      reinterpret_cast<effsan_type>(Info.StaticType);
  Out.alloc_type = reinterpret_cast<effsan_type>(Info.AllocType);
  if (const SiteInfo *W = Info.Where) {
    Out.site = W->Site;
    Out.file = W->File;
    Out.line = W->Line;
    Out.column = W->Column;
    Out.function = W->Function[0] != '\0' ? W->Function : nullptr;
    Out.check_kind = checkKindValue(W->Kind);
  }
}

/// The growable-struct contract of every caller-sized ABI struct
/// (effsan_heap_stats and its kin): writes exactly the prefix of
/// \p Full the caller declared in Out->struct_size, leaving that
/// struct_size as declared. A caller built against a future, larger
/// struct gets the tail this library predates zeroed, so unknown
/// fields read as 0, never as stack garbage. A null \p Out, or one
/// too short to hold struct_size, is left alone.
template <typename T> void copyToCaller(const T &Full, T *Out) {
  if (!Out || Out->struct_size < sizeof(uint32_t))
    return;
  uint32_t Declared = Out->struct_size;
  size_t N = Declared;
  if (N > sizeof(T)) {
    std::memset(reinterpret_cast<char *>(Out) + sizeof(T), 0, N - sizeof(T));
    N = sizeof(T);
  }
  std::memcpy(Out, &Full, N);
  Out->struct_size = Declared;
}

/// The same contract for a struct the caller passes in: overlays the
/// prefix the caller declared onto \p Defaults (all of it when
/// struct_size is 0 or larger than this library's struct). A null \p In
/// leaves \p Defaults as they are.
template <typename T> void readFromCaller(const T *In, T &Defaults) {
  if (!In)
    return;
  size_t N = In->struct_size;
  if (N == 0 || N > sizeof(T))
    N = sizeof(T);
  std::memcpy(&Defaults, In, N);
}

/// Fills the caller-sized heap-stats struct from a lowfat::HeapStats
/// snapshot.
inline void fillHeapStats(const lowfat::HeapStats &In,
                          effsan_heap_stats *Out) {
  effsan_heap_stats Full;
  std::memset(&Full, 0, sizeof(Full));
  Full.block_bytes_in_use = In.BlockBytesInUse;
  Full.peak_block_bytes_in_use = In.PeakBlockBytesInUse;
  Full.num_allocs = In.NumAllocs;
  Full.num_frees = In.NumFrees;
  Full.num_legacy_allocs = In.NumLegacyAllocs;
  Full.quarantined_bytes = In.QuarantinedBytes;
  Full.magazine_hits = In.MagazineHits;
  Full.magazine_refills = In.MagazineRefills;
  Full.steals = In.Steals;
  Full.exhaust_fallbacks = In.ExhaustFallbacks;
  copyToCaller(Full, Out);
}

/// Fills the caller-sized stack/global object-stats struct from the
/// runtime's counters.
inline void fillObjectStats(Runtime &RT, effsan_object_stats *Out) {
  effsan_object_stats Full;
  std::memset(&Full, 0, sizeof(Full));
  const ObjectCounters &C = RT.objectCounters();
  Full.stack_allocs = C.StackAllocs.load(std::memory_order_relaxed);
  Full.stack_frames = C.StackFrames.load(std::memory_order_relaxed);
  Full.stack_retired = C.StackRetired.load(std::memory_order_relaxed);
  // The pool's byte tally counts whole blocks; the ABI stat is payload
  // bytes, so strip the per-global META header the runtime prepends.
  size_t NumGlobals = RT.globals().size();
  Full.global_objects = NumGlobals;
  Full.global_bytes =
      RT.globals().totalBytes() - NumGlobals * sizeof(MetaHeader);
  copyToCaller(Full, Out);
}

} // namespace effsan_detail
} // namespace effective

#endif // EFFECTIVE_API_EFFSAN_INTERNAL_H
