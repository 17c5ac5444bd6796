//===- api/Sanitizer.cpp - Instance-scoped sanitizer sessions -------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Sanitizer.h"

using namespace effective;

//===----------------------------------------------------------------------===//
// The per-policy dispatch tables (FrontEnd<P>: api/PolicyFrontEnd.h)
//===----------------------------------------------------------------------===//

namespace {

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
