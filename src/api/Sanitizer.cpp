//===- api/Sanitizer.cpp - Instance-scoped sanitizer sessions -------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Sanitizer.h"

using namespace effective;

//===----------------------------------------------------------------------===//
// The policy-specialized check front end
//===----------------------------------------------------------------------===//

namespace {

/// One straight-line instantiation of each check entry point per
/// policy. `if constexpr` compiles each function down to exactly the
/// arm the old per-check switch would have selected — no runtime
/// branching on the policy remains anywhere in a check.
template <CheckPolicy P> struct FrontEnd {
  static Bounds typeCheck(const CheckTarget &To, const void *Ptr,
                          const TypeInfo *StaticType, SiteId Site) {
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

  static Bounds boundsGet(const CheckTarget &To, const void *Ptr,
                          SiteId Site) {
    if constexpr (P == CheckPolicy::Full || P == CheckPolicy::BoundsOnly) {
      return To.RT.boundsGet(Ptr, Site, To.Cell);
    } else if constexpr (P == CheckPolicy::CountOnly) {
      CheckCell::bump(To.Cell.BoundsGets);
      return Bounds::wide();
    } else {
      return Bounds::wide();
    }
  }

  static void boundsCheck(const CheckTarget &To, const void *Ptr,
                          size_t Size, Bounds B, SiteId Site) {
    if constexpr (P == CheckPolicy::Full || P == CheckPolicy::BoundsOnly) {
      To.RT.boundsCheck(Ptr, Size, B, Site, To.Cell);
    } else if constexpr (P == CheckPolicy::CountOnly) {
      CheckCell::bump(To.Cell.BoundsChecks);
    }
  }

  static Bounds boundsNarrow(const CheckTarget &To, Bounds B,
                             const void *Field, size_t Size) {
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

template <CheckPolicy P> constexpr CheckDispatch dispatchOf() {
  return CheckDispatch{&FrontEnd<P>::typeCheck, &FrontEnd<P>::boundsGet,
                       &FrontEnd<P>::boundsCheck,
                       &FrontEnd<P>::boundsNarrow};
}

constexpr CheckDispatch DispatchTables[] = {
    dispatchOf<CheckPolicy::Full>(),      // CheckPolicy::Full == 0
    dispatchOf<CheckPolicy::BoundsOnly>(),
    dispatchOf<CheckPolicy::TypeOnly>(),
    dispatchOf<CheckPolicy::CountOnly>(),
    dispatchOf<CheckPolicy::Off>(),
};

} // namespace

const CheckDispatch &effective::checkDispatchFor(CheckPolicy Policy) {
  return DispatchTables[static_cast<size_t>(Policy)];
}

//===----------------------------------------------------------------------===//
// Session construction
//===----------------------------------------------------------------------===//

static RuntimeOptions runtimeOptions(const SessionOptions &Options) {
  RuntimeOptions RTOpts;
  RTOpts.Reporter = Options.Reporter;
  RTOpts.Heap = Options.Heap;
  RTOpts.SiteCacheEntries = Options.SiteCacheEntries;
  return RTOpts;
}

Sanitizer::Sanitizer(const SessionOptions &Options)
    : OwnedTypes(std::make_unique<TypeContext>()), Types(OwnedTypes.get()),
      OwnedRT(std::make_unique<Runtime>(*Types, runtimeOptions(Options))),
      RT(OwnedRT.get()), Policy(Options.Policy),
      Dispatch(&checkDispatchFor(Options.Policy)) {}

Sanitizer::Sanitizer(TypeContext &SharedTypes, const SessionOptions &Options)
    : Types(&SharedTypes),
      OwnedRT(std::make_unique<Runtime>(SharedTypes,
                                        runtimeOptions(Options))),
      RT(OwnedRT.get()), Policy(Options.Policy),
      Dispatch(&checkDispatchFor(Options.Policy)) {}

Sanitizer::Sanitizer(Runtime &Existing, CheckPolicy Policy)
    : Types(&Existing.typeContext()), RT(&Existing), Policy(Policy),
      Dispatch(&checkDispatchFor(Policy)) {}

Sanitizer::~Sanitizer() = default;

Sanitizer &Sanitizer::defaultSession() {
  static Sanitizer Session(Runtime::global(), CheckPolicy::Full);
  return Session;
}

//===----------------------------------------------------------------------===//
// Typed allocation
//===----------------------------------------------------------------------===//

void *Sanitizer::malloc(size_t Size, const TypeInfo *Type) {
  return RT->allocate(Size, Type);
}

void *Sanitizer::calloc(size_t Count, size_t Size, const TypeInfo *Type) {
  return RT->allocateZeroed(Count, Size, Type);
}

void *Sanitizer::realloc(void *Ptr, size_t NewSize, const TypeInfo *Type) {
  return RT->reallocate(Ptr, NewSize, Type);
}

void Sanitizer::free(void *Ptr) { RT->deallocate(Ptr); }

void Sanitizer::setErrorCallback(ErrorCallback Callback, void *UserData) {
  RT->reporter().setCallback(Callback, UserData);
}

void Sanitizer::reset() { RT->reset(); }
