//===- tests/baselines_test.cpp - Figure 1 capability matrix tests --------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Asserts the Figure 1 capability matrix cell by cell: each sanitizer
/// model must detect exactly the error classes (with the caveats) the
/// paper attributes to it, and no model may flag the bug-free control
/// scenarios.
///
//===----------------------------------------------------------------------===//

#include "baselines/ErrorSuite.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace effective;
using namespace effective::baselines;

namespace {

/// Runs the suite for one model and indexes outcomes by scenario id.
std::map<std::string, bool> outcomesFor(ModelKind Kind) {
  std::vector<ScenarioOutcome> Details;
  evaluateModel(Kind, &Details);
  std::map<std::string, bool> ById;
  for (const ScenarioOutcome &O : Details)
    ById[O.S->Id] = O.Detected;
  return ById;
}

class MatrixTest : public ::testing::TestWithParam<ModelKind> {};

} // namespace

//===----------------------------------------------------------------------===//
// Suite-wide invariants
//===----------------------------------------------------------------------===//

TEST_P(MatrixTest, NoFalsePositivesOnControls) {
  MatrixRow Row = evaluateModel(GetParam());
  EXPECT_EQ(Row.ControlFalsePositives, 0u)
      << modelKindName(GetParam()) << " flagged a bug-free control";
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, MatrixTest, ::testing::ValuesIn(AllModelKinds),
    [](const ::testing::TestParamInfo<ModelKind> &Info) {
      std::string Name = modelKindName(Info.param);
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(MatrixSuite, ScenarioClassesAreBalanced) {
  unsigned Types = 0, Bounds = 0, Temporal = 0, Control = 0;
  for (const Scenario &S : errorSuite()) {
    switch (S.Class) {
    case ErrorClass::Types:
      ++Types;
      break;
    case ErrorClass::Bounds:
      ++Bounds;
      break;
    case ErrorClass::Temporal:
      ++Temporal;
      break;
    case ErrorClass::Control:
      ++Control;
      break;
    }
  }
  EXPECT_GE(Types, 4u);
  EXPECT_GE(Bounds, 4u);
  EXPECT_GE(Temporal, 4u);
  EXPECT_GE(Control, 2u);
}

//===----------------------------------------------------------------------===//
// Figure 1 rows
//===----------------------------------------------------------------------===//

TEST(Figure1, UninstrumentedDetectsNothing) {
  MatrixRow Row = evaluateModel(ModelKind::None);
  EXPECT_EQ(Row.typesCapability(), Capability::None);
  EXPECT_EQ(Row.boundsCapability(), Capability::None);
  EXPECT_EQ(Row.temporalCapability(), Capability::None);
}

TEST(Figure1, EffectiveSanRow) {
  // EffectiveSan: Types Yes, Bounds Yes, UAF Partial (reuse-after-free
  // detected only for different types — caveat (section sign)).
  MatrixRow Row = evaluateModel(ModelKind::EffectiveSan);
  EXPECT_EQ(Row.typesCapability(), Capability::Full);
  EXPECT_EQ(Row.boundsCapability(), Capability::Full);
  EXPECT_EQ(Row.temporalCapability(), Capability::Partial);

  auto O = outcomesFor(ModelKind::EffectiveSan);
  EXPECT_TRUE(O["bad-downcast"]);
  EXPECT_TRUE(O["implicit-cast-confusion"])
      << "pointer-use checking catches casts no other tool sees";
  EXPECT_TRUE(O["subobject-overflow"]);
  EXPECT_TRUE(O["use-after-free"]);
  EXPECT_TRUE(O["reuse-after-free-diff-type"]);
  EXPECT_FALSE(O["reuse-after-free-same-type"])
      << "the paper's documented partial coverage";
  EXPECT_TRUE(O["double-free"]);

  // Typed stack and global objects: both columns read Yes, and the
  // four scenarios behind them are in the suite.
  EXPECT_EQ(Row.stackCapability(), Capability::Full);
  EXPECT_EQ(Row.globalCapability(), Capability::Full);
  for (const char *Id : {"stack-use-after-return", "stack-oob",
                         "global-oob", "global-type-confusion"}) {
    ASSERT_EQ(O.count(Id), 1u) << "missing scenario " << Id;
    EXPECT_TRUE(O[Id]) << Id;
  }
}

TEST(Figure1, TypeConfusionToolsRow) {
  // CaVer/TypeSan/UBSan/HexType: Types Partial (explicit C++ casts
  // only), Bounds and UAF none.
  for (ModelKind Kind : {ModelKind::CaVer, ModelKind::TypeSan,
                         ModelKind::UBSan, ModelKind::HexType}) {
    MatrixRow Row = evaluateModel(Kind);
    EXPECT_EQ(Row.typesCapability(), Capability::Partial)
        << modelKindName(Kind);
    EXPECT_EQ(Row.boundsCapability(), Capability::None)
        << modelKindName(Kind);
    EXPECT_EQ(Row.temporalCapability(), Capability::None)
        << modelKindName(Kind);

    auto O = outcomesFor(Kind);
    EXPECT_TRUE(O["bad-downcast"]) << modelKindName(Kind);
    EXPECT_FALSE(O["implicit-cast-confusion"])
        << modelKindName(Kind) << ": implicit casts are invisible";
  }
}

TEST(Figure1, LibcrunchRow) {
  // libcrunch: explicit C casts of any type, but nothing implicit.
  MatrixRow Row = evaluateModel(ModelKind::Libcrunch);
  EXPECT_EQ(Row.typesCapability(), Capability::Partial);
  auto O = outcomesFor(ModelKind::Libcrunch);
  EXPECT_TRUE(O["c-cast-confusion"]);
  EXPECT_TRUE(O["container-cast"]);
  EXPECT_TRUE(O["prefix-struct-confusion"]);
  EXPECT_FALSE(O["implicit-cast-confusion"]);
  EXPECT_EQ(Row.boundsCapability(), Capability::None);
  EXPECT_EQ(Row.temporalCapability(), Capability::None);
}

TEST(Figure1, AddressSanitizerRow) {
  // ASan: Bounds Partial (adjacent overflows only, via redzones),
  // UAF Partial (not reuse-after-free).
  MatrixRow Row = evaluateModel(ModelKind::AddressSanitizer);
  EXPECT_EQ(Row.typesCapability(), Capability::None);
  EXPECT_EQ(Row.boundsCapability(), Capability::Partial);
  EXPECT_EQ(Row.temporalCapability(), Capability::Partial);

  auto O = outcomesFor(ModelKind::AddressSanitizer);
  EXPECT_TRUE(O["object-overflow"]);
  EXPECT_FALSE(O["skip-redzone-overflow"])
      << "accesses that skip the redzone are missed";
  EXPECT_FALSE(O["subobject-overflow"]);
  EXPECT_TRUE(O["use-after-free"]);
  EXPECT_FALSE(O["reuse-after-free-diff-type"])
      << "reuse-after-free is missed once the block is reallocated";
  EXPECT_TRUE(O["double-free"]);
}

TEST(Figure1, AllocationBoundsToolsRow) {
  // LowFat / BaggyBounds: allocation bounds only (Partial-dagger).
  auto LF = outcomesFor(ModelKind::LowFat);
  EXPECT_TRUE(LF["object-overflow"]);
  EXPECT_TRUE(LF["skip-redzone-overflow"]);
  EXPECT_FALSE(LF["subobject-overflow"]);
  EXPECT_FALSE(LF["use-after-free"]);

  auto BB = outcomesFor(ModelKind::BaggyBounds);
  EXPECT_FALSE(BB["object-overflow"])
      << "baggy power-of-two padding hides the 384-byte overflow";
  EXPECT_TRUE(BB["object-overflow-pow2"]);
  EXPECT_TRUE(BB["skip-redzone-overflow"]);
  EXPECT_FALSE(BB["subobject-overflow"]);

  EXPECT_EQ(evaluateModel(ModelKind::LowFat).typesCapability(),
            Capability::None);
  EXPECT_EQ(evaluateModel(ModelKind::LowFat).temporalCapability(),
            Capability::None);
}

TEST(Figure1, NarrowingBoundsToolsRow) {
  // MPX / SoftBound: full bounds (including sub-object via narrowing),
  // no types, no temporal.
  for (ModelKind Kind : {ModelKind::IntelMpx, ModelKind::SoftBound}) {
    MatrixRow Row = evaluateModel(Kind);
    EXPECT_EQ(Row.boundsCapability(), Capability::Full)
        << modelKindName(Kind);
    EXPECT_EQ(Row.typesCapability(), Capability::None)
        << modelKindName(Kind);
    EXPECT_EQ(Row.temporalCapability(), Capability::None)
        << modelKindName(Kind);
    auto O = outcomesFor(Kind);
    EXPECT_TRUE(O["subobject-overflow"]) << modelKindName(Kind);
  }
}

TEST(Figure1, CetsRow) {
  // CETS: UAF Yes (all temporal scenarios), nothing else.
  MatrixRow Row = evaluateModel(ModelKind::Cets);
  EXPECT_EQ(Row.temporalCapability(), Capability::Full);
  EXPECT_EQ(Row.typesCapability(), Capability::None);
  EXPECT_EQ(Row.boundsCapability(), Capability::None);
  auto O = outcomesFor(ModelKind::Cets);
  EXPECT_TRUE(O["reuse-after-free-same-type"])
      << "identifier-based checking survives reallocation";
}

TEST(Figure1, SoftBoundCetsRow) {
  MatrixRow Row = evaluateModel(ModelKind::SoftBoundCets);
  EXPECT_EQ(Row.boundsCapability(), Capability::Full);
  EXPECT_EQ(Row.temporalCapability(), Capability::Full);
  EXPECT_EQ(Row.typesCapability(), Capability::None);
}

TEST(Figure1, EffectiveSanVariantsRows) {
  // EffectiveSan-type: casts only (like the type-confusion tools but
  // covering all C/C++ types).
  auto TypeO = outcomesFor(ModelKind::EffectiveSanType);
  EXPECT_TRUE(TypeO["bad-downcast"]);
  EXPECT_TRUE(TypeO["c-cast-confusion"]);
  EXPECT_FALSE(TypeO["implicit-cast-confusion"])
      << "the -type variant drops pointer-use instrumentation";
  EXPECT_FALSE(TypeO["object-overflow"]);

  // EffectiveSan-bounds: allocation bounds + temporal via FREE, no
  // types and no sub-object narrowing.
  MatrixRow BoundsRow = evaluateModel(ModelKind::EffectiveSanBounds);
  EXPECT_EQ(BoundsRow.typesCapability(), Capability::None);
  EXPECT_EQ(BoundsRow.boundsCapability(), Capability::Partial);
  auto BoundsO = outcomesFor(ModelKind::EffectiveSanBounds);
  EXPECT_TRUE(BoundsO["object-overflow"]);
  EXPECT_FALSE(BoundsO["subobject-overflow"])
      << "the -bounds variant checks allocation bounds only";
  EXPECT_TRUE(BoundsO["use-after-free"]);
  EXPECT_FALSE(BoundsO["bad-downcast"]);
}

TEST(Figure1, EffectiveSanIsTheOnlyFullTypesRow) {
  // The headline claim: only EffectiveSan covers every Types scenario.
  for (ModelKind Kind : AllModelKinds) {
    MatrixRow Row = evaluateModel(Kind);
    if (Kind == ModelKind::EffectiveSan) {
      EXPECT_EQ(Row.typesCapability(), Capability::Full);
      continue;
    }
    EXPECT_NE(Row.typesCapability(), Capability::Full)
        << modelKindName(Kind);
  }
}
