//===- baselines/EffectiveModels.cpp - EffectiveSan variant models --------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// SanitizerModel adapters over the real EffectiveSan runtime: the full
/// tool, the -bounds and -type reduced variants (Section 6.2), and the
/// uninstrumented baseline. The access adapter replays the Figure 3
/// schema: type_check at the pointer's derivation point, bounds_narrow
/// on field provenance, bounds_check at the access.
///
//===----------------------------------------------------------------------===//

#include "baselines/ModelFactories.h"

#include "api/CheckPolicy.h"
#include "core/Runtime.h"
#include "support/Compiler.h"

#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

using namespace effective;
using namespace effective::baselines;

namespace {

/// The uninstrumented baseline: plain allocation, no checks ever.
class NoneModel final : public SanitizerModel {
public:
  const char *name() const override { return "Uninstrumented"; }

  ~NoneModel() override {
    for (void *P : Owned)
      std::free(P);
  }

  Allocation allocate(size_t Size, const TypeInfo *Type) override {
    void *P = std::malloc(Size);
    Owned.insert(P);
    return Allocation{P, 0};
  }

  void deallocate(void *Ptr) override {} // Keep memory valid for probes.
  void access(const AccessInfo &Info) override {}
  void cast(const CastInfo &Info) override {}

private:
  std::unordered_set<void *> Owned;
};

/// One EffectiveSan variant: the session CheckPolicy (Full, BoundsOnly
/// or TypeOnly) decides which parts of the Figure 3 schema it keeps.
class EffectiveSanModel final : public SanitizerModel {
public:
  EffectiveSanModel(const char *Name, CheckPolicy Policy, TypeContext &Ctx)
      : Name(Name), Policy(Policy), RT(Ctx, countingOptions()) {}

  const char *name() const override { return Name; }

  Allocation allocate(size_t Size, const TypeInfo *Type) override {
    void *P = RT.allocate(Size, Type);
    return Allocation{P, ++NextToken};
  }

  void deallocate(void *Ptr) override {
    uint64_t Before = RT.reporter().numEvents();
    RT.deallocate(Ptr);
    noteEvents(Before);
  }

  void access(const AccessInfo &Info) override {
    if (Policy == CheckPolicy::TypeOnly)
      return; // EffectiveSan-type instruments casts only.
    uint64_t Before = RT.reporter().numEvents();
    // Rules (a)-(d): the input pointer (the sub-object base for
    // field-derived pointers, else the allocation pointer) is checked
    // and yields bounds...
    const void *Input =
        Info.SubObjectPtr ? Info.SubObjectPtr : Info.AllocPtr;
    Bounds B = Policy == CheckPolicy::Full
                   ? RT.typeCheck(Input, Info.StaticType)
                   : RT.boundsGet(Input);
    // ...rule (e): field selection narrows (EffectiveSan-bounds keeps
    // allocation bounds)...
    if (Info.SubObjectPtr && Policy == CheckPolicy::Full)
      B = RT.boundsNarrow(B, Info.SubObjectPtr, Info.SubObjectSize);
    // ...rule (g): the (derived) access is bounds checked.
    RT.boundsCheck(Info.Ptr, Info.Size, B);
    noteEvents(Before);
  }

  void cast(const CastInfo &Info) override {
    if (Policy == CheckPolicy::BoundsOnly)
      return; // Casts carry no extra check without type comparison.
    uint64_t Before = RT.reporter().numEvents();
    RT.typeCheck(Info.Ptr, Info.ToType); // Rule (d).
    noteEvents(Before);
  }

  // The real typed low-fat stack/global paths (not the heap mapping
  // the base class defaults to). Scenario stack objects are escaping
  // by construction — their addresses outlive the frame — so the
  // escape flag is set and retirement goes through the
  // use-after-return quarantine.
  Allocation stackAllocate(size_t Size, const TypeInfo *Type) override {
    size_t Mark = RT.stackMark();
    void *P = RT.stackAllocate(Size, Type, /*Escapes=*/true);
    StackMarks[P] = Mark;
    return Allocation{P, ++NextToken};
  }

  void stackRetire(void *Ptr) override {
    auto It = StackMarks.find(Ptr);
    if (It == StackMarks.end())
      return;
    uint64_t Before = RT.reporter().numEvents();
    RT.stackRelease(It->second); // Rebinds the META to STACK-FREE.
    StackMarks.erase(It);
    noteEvents(Before);
  }

  Allocation globalRegister(size_t Size, const TypeInfo *Type,
                            const char *Name) override {
    void *P = RT.globalAllocate(Size, Type,
                                Name ? std::string_view(Name)
                                     : std::string_view());
    return Allocation{P, ++NextToken};
  }

private:
  static RuntimeOptions countingOptions() {
    RuntimeOptions Options;
    Options.Reporter.Mode = ReportMode::Count;
    return Options;
  }

  void noteEvents(uint64_t Before) {
    uint64_t After = RT.reporter().numEvents();
    for (uint64_t I = Before; I < After; ++I)
      flagError();
  }

  const char *Name;
  CheckPolicy Policy;
  Runtime RT;
  uint64_t NextToken = 0;
  std::unordered_map<void *, size_t> StackMarks;
};

} // namespace

std::unique_ptr<SanitizerModel>
effective::baselines::createEffectiveModel(ModelKind Kind,
                                           TypeContext &Ctx) {
  switch (Kind) {
  case ModelKind::None:
    return std::make_unique<NoneModel>();
  case ModelKind::EffectiveSan:
    return std::make_unique<EffectiveSanModel>("EffectiveSan",
                                               CheckPolicy::Full, Ctx);
  case ModelKind::EffectiveSanBounds:
    return std::make_unique<EffectiveSanModel>("EffectiveSan-bounds",
                                               CheckPolicy::BoundsOnly, Ctx);
  case ModelKind::EffectiveSanType:
    return std::make_unique<EffectiveSanModel>("EffectiveSan-type",
                                               CheckPolicy::TypeOnly, Ctx);
  default:
    EFFSAN_UNREACHABLE("not an EffectiveSan model kind");
  }
}

//===----------------------------------------------------------------------===//
// Public factory
//===----------------------------------------------------------------------===//

const char *effective::baselines::modelKindName(ModelKind Kind) {
  switch (Kind) {
  case ModelKind::None:
    return "Uninstrumented";
  case ModelKind::AddressSanitizer:
    return "AddressSanitizer";
  case ModelKind::LowFat:
    return "LowFat";
  case ModelKind::BaggyBounds:
    return "BaggyBounds";
  case ModelKind::IntelMpx:
    return "Intel MPX";
  case ModelKind::SoftBound:
    return "SoftBound";
  case ModelKind::Cets:
    return "CETS";
  case ModelKind::SoftBoundCets:
    return "SoftBound+CETS";
  case ModelKind::CaVer:
    return "CaVer";
  case ModelKind::TypeSan:
    return "TypeSan";
  case ModelKind::HexType:
    return "HexType";
  case ModelKind::UBSan:
    return "UBSan";
  case ModelKind::Libcrunch:
    return "libcrunch";
  case ModelKind::EffectiveSan:
    return "EffectiveSan";
  case ModelKind::EffectiveSanBounds:
    return "EffectiveSan-bounds";
  case ModelKind::EffectiveSanType:
    return "EffectiveSan-type";
  }
  return "unknown";
}

std::unique_ptr<SanitizerModel>
effective::baselines::createModel(ModelKind Kind, TypeContext &Ctx) {
  switch (Kind) {
  case ModelKind::AddressSanitizer:
  case ModelKind::LowFat:
  case ModelKind::BaggyBounds:
  case ModelKind::IntelMpx:
  case ModelKind::SoftBound:
    return createSpatialModel(Kind, Ctx);
  case ModelKind::Cets:
  case ModelKind::SoftBoundCets:
    return createTemporalModel(Kind, Ctx);
  case ModelKind::CaVer:
  case ModelKind::TypeSan:
  case ModelKind::HexType:
  case ModelKind::UBSan:
  case ModelKind::Libcrunch:
    return createTypeCastModel(Kind, Ctx);
  case ModelKind::None:
  case ModelKind::EffectiveSan:
  case ModelKind::EffectiveSanBounds:
  case ModelKind::EffectiveSanType:
    return createEffectiveModel(Kind, Ctx);
  }
  EFFSAN_UNREACHABLE("unknown model kind");
}
