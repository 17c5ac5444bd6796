//===- tests/workloads_test.cpp - Workload integration tests --------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Integration tests over the Figure 7-10 workloads: every kernel must
/// produce the same checksum under all four instrumentation policies
/// (same work), full instrumentation must find exactly the seeded
/// issues (and only in the benchmarks the paper lists), and check
/// counters must behave (type checks only under type-checking
/// policies, etc.).
///
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include <gtest/gtest.h>

using namespace effective;
using namespace effective::workloads;

namespace {

class SpecWorkloadTest : public ::testing::TestWithParam<size_t> {
protected:
  const Workload &workload() const {
    return specWorkloads()[GetParam()];
  }
};

std::string specName(const ::testing::TestParamInfo<size_t> &Info) {
  return specWorkloads()[Info.param].Info.Name;
}

} // namespace

TEST_P(SpecWorkloadTest, ChecksumIdenticalAcrossPolicies) {
  const Workload &W = workload();
  RunStats None = runWorkload(W, PolicyKind::None, 1);
  RunStats Type = runWorkload(W, PolicyKind::Type, 1);
  RunStats Bounds = runWorkload(W, PolicyKind::Bounds, 1);
  RunStats Full = runWorkload(W, PolicyKind::Full, 1);
  EXPECT_EQ(None.Checksum, Full.Checksum) << W.Info.Name;
  EXPECT_EQ(Type.Checksum, Full.Checksum) << W.Info.Name;
  EXPECT_EQ(Bounds.Checksum, Full.Checksum) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, FullInstrumentationFindsSeededIssues) {
  const Workload &W = workload();
  RunStats Full = runWorkload(W, PolicyKind::Full, 1);
  EXPECT_EQ(Full.Issues, W.Info.SeededIssues) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, UninstrumentedRunsNoChecks) {
  const Workload &W = workload();
  RunStats None = runWorkload(W, PolicyKind::None, 1);
  EXPECT_EQ(None.Checks.TypeChecks, 0u) << W.Info.Name;
  EXPECT_EQ(None.Checks.BoundsChecks, 0u) << W.Info.Name;
  EXPECT_EQ(None.Issues, 0u) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, FullInstrumentationChecksEverything) {
  const Workload &W = workload();
  RunStats Full = runWorkload(W, PolicyKind::Full, 1);
  EXPECT_GT(Full.Checks.TypeChecks, 0u) << W.Info.Name;
  EXPECT_GT(Full.Checks.BoundsChecks, 0u) << W.Info.Name;
}

TEST_P(SpecWorkloadTest, VariantsScaleDownChecking) {
  const Workload &W = workload();
  RunStats Full = runWorkload(W, PolicyKind::Full, 1);
  RunStats Type = runWorkload(W, PolicyKind::Type, 1);
  RunStats Bounds = runWorkload(W, PolicyKind::Bounds, 1);
  // The -type variant performs no bounds checking at all.
  EXPECT_EQ(Type.Checks.BoundsChecks, 0u) << W.Info.Name;
  // The -bounds variant never compares types.
  EXPECT_EQ(Bounds.Checks.TypeChecks, 0u) << W.Info.Name;
  EXPECT_GT(Bounds.Checks.BoundsGets, 0u) << W.Info.Name;
  // Full does at least as many type checks as the casts-only variant.
  EXPECT_GE(Full.Checks.TypeChecks, Type.Checks.TypeChecks)
      << W.Info.Name;
}

TEST_P(SpecWorkloadTest, IssuesAreDeterministic) {
  const Workload &W = workload();
  RunStats A = runWorkload(W, PolicyKind::Full, 1);
  RunStats B = runWorkload(W, PolicyKind::Full, 1);
  EXPECT_EQ(A.Issues, B.Issues) << W.Info.Name;
  EXPECT_EQ(A.Checksum, B.Checksum) << W.Info.Name;
  EXPECT_EQ(A.Checks.TypeChecks, B.Checks.TypeChecks) << W.Info.Name;
}

INSTANTIATE_TEST_SUITE_P(AllSpec, SpecWorkloadTest,
                         ::testing::Range<size_t>(0,
                                                  specWorkloads().size()),
                         specName);

//===----------------------------------------------------------------------===//
// sphinx3: the checksum reads no uninitialized memory
//===----------------------------------------------------------------------===//

namespace {

const Workload &workloadNamed(std::string_view Name) {
  for (const Workload &W : specWorkloads())
    if (Name == W.Info.Name)
      return W;
  ADD_FAILURE() << "no workload " << Name;
  return specWorkloads().front();
}

/// The checksum of a second run on one session, whose heap hands the
/// second run blocks the first one wrote.
uint64_t warmChecksum(const Workload &W, PolicyKind Kind, unsigned Scale) {
  SessionOptions Options;
  Options.Policy = checkPolicyFor(Kind);
  Options.Reporter.Mode = ReportMode::Count;
  Sanitizer Session(TypeContext::global(), Options);
  SanitizerScope Scope(Session);
  auto Run = Kind == PolicyKind::None ? W.RunNone : W.RunFull;
  Run(Session.runtime(), Scale);
  return Run(Session.runtime(), Scale);
}

} // namespace

TEST(Sphinx3Test, OneChecksumFreshAndWarmUnderNoneAndFull) {
  const Workload &W = workloadNamed("sphinx3");
  constexpr unsigned Scale = 4;
  uint64_t Expected = runWorkload(W, PolicyKind::Full, Scale).Checksum;
  EXPECT_EQ(runWorkload(W, PolicyKind::None, Scale).Checksum, Expected);
  EXPECT_EQ(warmChecksum(W, PolicyKind::Full, Scale), Expected);
  EXPECT_EQ(warmChecksum(W, PolicyKind::None, Scale), Expected);
}

//===----------------------------------------------------------------------===//
// Figure 7 aggregate shape
//===----------------------------------------------------------------------===//

TEST(Figure7Shape, CleanBenchmarksMatchPaper) {
  // The paper reports zero issues for mcf, gobmk, hmmer, sjeng,
  // libquantum, omnetpp and astar.
  for (const Workload &W : specWorkloads()) {
    std::string_view Name = W.Info.Name;
    bool PaperClean = Name == "mcf" || Name == "gobmk" ||
                      Name == "hmmer" || Name == "sjeng" ||
                      Name == "libquantum" || Name == "omnetpp" ||
                      Name == "astar";
    EXPECT_EQ(W.Info.SeededIssues == 0, PaperClean) << Name;
  }
}

TEST(Figure7Shape, BoundsChecksOutnumberTypeChecks) {
  // Paper totals: 2193.0 billion type vs 8836.3 billion bounds checks
  // (~4x). Our kernels must reproduce the direction of this ratio.
  uint64_t Type = 0, Bounds = 0;
  for (const Workload &W : specWorkloads()) {
    RunStats Full = runWorkload(W, PolicyKind::Full, 1);
    Type += Full.Checks.TypeChecks;
    Bounds += Full.Checks.BoundsChecks;
  }
  EXPECT_GT(Bounds, Type);
}

TEST(Figure7Shape, LegacyChecksAreRare) {
  // Paper: only ~1.1% of type checks were on legacy pointers.
  uint64_t Type = 0, Legacy = 0;
  for (const Workload &W : specWorkloads()) {
    RunStats Full = runWorkload(W, PolicyKind::Full, 1);
    Type += Full.Checks.TypeChecks;
    Legacy += Full.Checks.LegacyTypeChecks;
  }
  ASSERT_GT(Type, 0u);
  EXPECT_LT(static_cast<double>(Legacy) / Type, 0.05);
}

TEST(Figure7Shape, SpecMixTypeChecksHitTheSiteCache) {
  // Every kernel under Full on one fresh session: at least 90% of the
  // type checks resolve on the site cache's fast path, so site
  // resolution and attributed reporting stay off the hot path.
  SessionOptions Options;
  Options.Reporter.Mode = ReportMode::Count;
  Sanitizer Session(TypeContext::global(), Options);
  SanitizerScope Scope(Session);
  for (const Workload &W : specWorkloads())
    W.RunFull(Session.runtime(), /*Scale=*/1);
  auto C = Session.runtime().counters().snapshot();
  uint64_t Resolved = C.TypeCheckCacheHits + C.TypeCheckCacheMisses;
  ASSERT_GT(Resolved, 0u);
  EXPECT_GE(100.0 * static_cast<double>(C.TypeCheckCacheHits) /
                static_cast<double>(Resolved),
            90.0)
      << C.TypeCheckCacheHits << " hits, " << C.TypeCheckCacheMisses
      << " misses";
}

//===----------------------------------------------------------------------===//
// Figure 9 shape
//===----------------------------------------------------------------------===//

TEST(Figure9Shape, MemoryOverheadIsModest) {
  uint64_t None = 0, Full = 0;
  for (const Workload &W : specWorkloads()) {
    None += runWorkload(W, PolicyKind::None, 1).PeakHeapBytes;
    Full += runWorkload(W, PolicyKind::Full, 1).PeakHeapBytes;
  }
  ASSERT_GT(None, 0u);
  double Overhead = static_cast<double>(Full) / None;
  EXPECT_GT(Overhead, 1.0) << "metadata must cost something";
  EXPECT_LT(Overhead, 1.8) << "paper reports ~12%, far below shadow-"
                              "memory tools (~237%)";
}

//===----------------------------------------------------------------------===//
// Browser workloads (Figure 10)
//===----------------------------------------------------------------------===//

namespace {

class BrowserWorkloadTest : public ::testing::TestWithParam<size_t> {};

std::string browserName(const ::testing::TestParamInfo<size_t> &Info) {
  std::string Name = browserWorkloads()[Info.param].Info.Name;
  for (char &C : Name)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return Name;
}

} // namespace

TEST_P(BrowserWorkloadTest, ChecksumIdenticalAcrossPolicies) {
  const Workload &W = browserWorkloads()[GetParam()];
  RunStats None = runWorkload(W, PolicyKind::None, 1);
  RunStats Full = runWorkload(W, PolicyKind::Full, 1);
  EXPECT_EQ(None.Checksum, Full.Checksum) << W.Info.Name;
  EXPECT_EQ(Full.Issues, W.Info.SeededIssues) << W.Info.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBrowser, BrowserWorkloadTest,
    ::testing::Range<size_t>(0, browserWorkloads().size()), browserName);
