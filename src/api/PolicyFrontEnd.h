//===- api/PolicyFrontEnd.h - Per-policy check front ends -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What each CheckPolicy does to a check, defined once: FrontEnd<P>,
/// one straight-line inline instantiation of each check entry point
/// per policy. The session API (Sanitizer's per-call checks, the C ABI,
/// service leases) calls it through the session's CheckDispatch table,
/// one indirect call per check, so setPolicy can swap the table under
/// concurrent checks. An engine run (exec::CheckFront) reads the policy
/// once, when it starts, and calls FrontEnd<P> inline through a switch
/// on that run-constant value (withFrontEnd), a branch that predicts
/// perfectly. The semantics per policy (see api/CheckPolicy.h):
///
///   Full       — the paper's type_check / bounds_check / bounds_narrow;
///   BoundsOnly — typeCheck degrades to bounds_get, narrowing is a
///                no-op (allocation bounds only);
///   TypeOnly   — type checks run, bounds operations are no-ops;
///   CountOnly  — counters advance, nothing is probed or reported;
///   Off        — nothing happens at all.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_API_POLICYFRONTEND_H
#define EFFECTIVE_API_POLICYFRONTEND_H

#include "api/CheckPolicy.h"
#include "core/Runtime.h"

namespace effective {

/// The runtime a check runs against, and a counter cell of it that the
/// calling thread owns. Passed by value: it travels in two registers.
struct CheckTarget {
  Runtime &RT;
  CheckCell &Cell;
};

/// Policy \p P's check entry points. `if constexpr` compiles each down
/// to exactly the arm that policy selects; no branch on the policy
/// remains inside a check.
template <CheckPolicy P> struct FrontEnd {
  static EFFSAN_ALWAYS_INLINE Bounds typeCheck(CheckTarget To,
                                               const void *Ptr,
                                               const TypeInfo *StaticType,
                                               SiteId Site) {
    if constexpr (P == CheckPolicy::Full || P == CheckPolicy::TypeOnly) {
      return To.RT.typeCheck(Ptr, StaticType, Site, To.Cell);
    } else if constexpr (P == CheckPolicy::BoundsOnly) {
      // Section 6.2: the -bounds variant replaces type_check by
      // bounds_get.
      return To.RT.boundsGet(Ptr, Site, To.Cell);
    } else if constexpr (P == CheckPolicy::CountOnly) {
      CheckCell::bump(To.Cell.TypeChecks);
      return Bounds::wide();
    } else {
      return Bounds::wide();
    }
  }

  static EFFSAN_ALWAYS_INLINE Bounds boundsGet(CheckTarget To,
                                               const void *Ptr, SiteId Site) {
    if constexpr (P == CheckPolicy::Full || P == CheckPolicy::BoundsOnly) {
      return To.RT.boundsGet(Ptr, Site, To.Cell);
    } else if constexpr (P == CheckPolicy::CountOnly) {
      CheckCell::bump(To.Cell.BoundsGets);
      return Bounds::wide();
    } else {
      return Bounds::wide();
    }
  }

  static EFFSAN_ALWAYS_INLINE void boundsCheck(CheckTarget To,
                                               const void *Ptr, size_t Size,
                                               Bounds B, SiteId Site) {
    if constexpr (P == CheckPolicy::Full || P == CheckPolicy::BoundsOnly) {
      To.RT.boundsCheck(Ptr, Size, B, Site, To.Cell);
    } else if constexpr (P == CheckPolicy::CountOnly) {
      CheckCell::bump(To.Cell.BoundsChecks);
    }
  }

  static EFFSAN_ALWAYS_INLINE Bounds boundsNarrow(CheckTarget To,
                                                  Bounds B, const void *Field,
                                                  size_t Size) {
    if constexpr (P == CheckPolicy::Full) {
      return To.RT.boundsNarrow(B, Field, Size, To.Cell);
    } else if constexpr (P == CheckPolicy::CountOnly) {
      CheckCell::bump(To.Cell.BoundsNarrows);
      return B;
    } else {
      // BoundsOnly "protects object bounds only": rule-(e) narrowing
      // disabled; TypeOnly/Off are no-ops.
      return B;
    }
  }
};

/// Calls \p F with the FrontEnd of \p Policy: the one switch from a
/// run-time policy value to its compile-time front end.
template <typename Fn>
EFFSAN_ALWAYS_INLINE decltype(auto) withFrontEnd(CheckPolicy Policy, Fn &&F) {
  switch (Policy) {
  case CheckPolicy::Full:
    return F(FrontEnd<CheckPolicy::Full>());
  case CheckPolicy::BoundsOnly:
    return F(FrontEnd<CheckPolicy::BoundsOnly>());
  case CheckPolicy::TypeOnly:
    return F(FrontEnd<CheckPolicy::TypeOnly>());
  case CheckPolicy::CountOnly:
    return F(FrontEnd<CheckPolicy::CountOnly>());
  case CheckPolicy::Off:
    break;
  }
  return F(FrontEnd<CheckPolicy::Off>());
}

/// One policy's check entry points as function pointers. All functions
/// are stateless — the session passes its target explicitly — so the
/// five tables are immutable process-wide constants.
struct CheckDispatch {
  Bounds (*TypeCheck)(CheckTarget To, const void *Ptr,
                      const TypeInfo *StaticType, SiteId Site);
  Bounds (*BoundsGet)(CheckTarget To, const void *Ptr, SiteId Site);
  void (*BoundsCheck)(CheckTarget To, const void *Ptr, size_t Size,
                      Bounds B, SiteId Site);
  Bounds (*BoundsNarrow)(CheckTarget To, Bounds B, const void *Field,
                         size_t Size);
};

/// The dispatch table for \p Policy (a reference into an immutable
/// static array; valid forever).
const CheckDispatch &checkDispatchFor(CheckPolicy Policy);

} // namespace effective

#endif // EFFECTIVE_API_POLICYFRONTEND_H
