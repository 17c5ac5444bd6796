//===- tests/checkedptr_test.cpp - Figure 3 schema library tests ----------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Exercises CheckedPtr as the Figure 3 instrumentation schema: the
/// paper's Figure 4 length/sum functions, the account sub-object
/// overflow, cast checking, and the per-policy check counts.
///
//===----------------------------------------------------------------------===//

#include "core/CheckedPtr.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace effective;

namespace cp_test {

struct Account {
  int Number[8];
  float Balance;
};

struct Node {
  int Value;
  Node *Next;
};

struct Base {
  int X;
  float Y;
};

struct Derived {
  int X;
  float Y;
  char Z;
};

} // namespace cp_test

EFFECTIVE_REFLECT(cp_test::Account, Number, Balance);
EFFECTIVE_REFLECT(cp_test::Node, Value, Next);
EFFECTIVE_REFLECT(cp_test::Base, X, Y);
EFFECTIVE_REFLECT(cp_test::Derived, X, Y, Z);

namespace {

class CheckedPtrTest : public ::testing::Test {
protected:
  CheckedPtrTest() : RT(Ctx, quietOptions()), Scope(RT) {}

  static RuntimeOptions quietOptions() {
    RuntimeOptions Options;
    Options.Reporter.Mode = ReportMode::Count;
    return Options;
  }

  TypeContext Ctx;
  Runtime RT;
  RuntimeScope Scope;
};

/// The paper's Figure 4 sum() under a policy: one type check on entry,
/// one bounds check per element access.
template <typename Policy>
int checkedSum(CheckedPtr<int, Policy> A, int Len) {
  int Sum = 0;
  for (int I = 0; I < Len; ++I) {
    CheckedPtr<int, Policy> Tmp = A + I; // rule (f)
    Sum += *Tmp;                         // rule (g)
  }
  return Sum;
}

/// The paper's Figure 4 length() under a policy: a type check per node.
template <typename Policy>
int checkedLength(CheckedPtr<cp_test::Node, Policy> Xs) {
  int Len = 0;
  while (Xs.raw() != nullptr) {
    ++Len;
    auto Tmp = Xs.template field(&cp_test::Node::Next); // rule (e)
    Xs = CheckedPtr<cp_test::Node, Policy>::input(*Tmp); // rules (c)+(a)
  }
  return Len;
}

} // namespace

TEST_F(CheckedPtrTest, Figure4SumCheckCounts) {
  auto A = allocateChecked<int, FullPolicy>(RT, 100);
  for (int I = 0; I < 100; ++I)
    A[I] = I;
  RT.counters().reset();
  auto P = CheckedPtr<int, FullPolicy>::input(A.raw());
  int Sum = checkedSum(P, 100);
  EXPECT_EQ(Sum, 99 * 100 / 2);
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 1u) << "sum needs exactly one type check";
  EXPECT_EQ(C.BoundsChecks, 100u) << "one bounds check per element";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, Figure4LengthCheckCounts) {
  // Build a 10-node list.
  std::vector<CheckedPtr<cp_test::Node, FullPolicy>> Nodes;
  for (int I = 0; I < 10; ++I)
    Nodes.push_back(allocateChecked<cp_test::Node, FullPolicy>(RT));
  for (int I = 0; I < 10; ++I) {
    Nodes[I]->Value = I;
    Nodes[I]->Next = I + 1 < 10 ? Nodes[I + 1].raw() : nullptr;
  }
  RT.counters().reset();
  auto Head = CheckedPtr<cp_test::Node, FullPolicy>::input(Nodes[0].raw());
  EXPECT_EQ(checkedLength(Head), 10);
  auto C = RT.counters().snapshot();
  // Input check for the head plus one per loaded next pointer; the null
  // tail pointer is not checked.
  EXPECT_EQ(C.TypeChecks, 1u + 9u)
      << "length is O(N) type checks, one per node";
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  for (auto &N : Nodes)
    deallocateChecked(RT, N);
}

TEST_F(CheckedPtrTest, AccountSubObjectOverflowCaught) {
  auto Acc = allocateChecked<cp_test::Account, FullPolicy>(RT);
  auto Number = Acc.field(&cp_test::Account::Number);
  // In-bounds writes succeed...
  for (int I = 0; I < 8; ++I)
    Number[I] = I;
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  // ...and the classic overflow into balance is caught.
  Number[8] = 42;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, Acc);
}

TEST_F(CheckedPtrTest, CastConfusionCaught) {
  auto Acc = allocateChecked<cp_test::Account, FullPolicy>(RT);
  // (float *)acc: account begins with int[8]; float does not match.
  auto F = CheckedPtr<float, FullPolicy>::fromCast(Acc);
  (void)F;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  deallocateChecked(RT, Acc);
}

TEST_F(CheckedPtrTest, PrefixStructConfusionCaught) {
  // perlbench/povray-style struct-prefix "inheritance": Base and
  // Derived share a prefix but are distinct types ([16] 6.2.7).
  auto B = allocateChecked<cp_test::Base, FullPolicy>(RT);
  auto D = CheckedPtr<cp_test::Derived, FullPolicy>::fromCast(B);
  (void)D;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  deallocateChecked(RT, B);
}

TEST_F(CheckedPtrTest, UseAfterFreeThroughCheckedPtr) {
  auto P = allocateChecked<int, FullPolicy>(RT, 4);
  deallocateChecked(RT, P);
  auto Q = CheckedPtr<int, FullPolicy>::input(P.raw());
  (void)Q;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::UseAfterFree), 1u);
}

TEST_F(CheckedPtrTest, EscapeChecksBounds) {
  auto A = allocateChecked<int, FullPolicy>(RT, 4);
  auto P = A + 2;
  EXPECT_EQ(P.escape(), A.raw() + 2);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  auto Bad = A + 100;
  Bad.escape();
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, BoundsPolicySkipsTypeChecks) {
  auto A = allocateChecked<cp_test::Account, BoundsPolicy>(RT);
  auto P = CheckedPtr<float, BoundsPolicy>::fromCast(A);
  *P = 1.0f; // Access within the allocation: no error.
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 0u);
  EXPECT_EQ(C.BoundsGets, 1u);
  EXPECT_EQ(RT.reporter().numIssues(), 0u)
      << "bounds-only cannot see type confusion";
  // But an object-bounds overflow is still caught.
  auto End = P + sizeof(cp_test::Account) / sizeof(float);
  *End = 2.0f;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, TypePolicyChecksCastsOnly) {
  auto A = allocateChecked<cp_test::Account, TypePolicy>(RT);
  RT.counters().reset();
  // Inputs are not checked under EffectiveSan-type...
  auto In = CheckedPtr<cp_test::Account, TypePolicy>::input(A.raw());
  EXPECT_EQ(RT.counters().snapshot().TypeChecks, 0u);
  // ...but casts are.
  auto F = CheckedPtr<float, TypePolicy>::fromCast(In);
  (void)F;
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 1u);
  EXPECT_EQ(C.BoundsChecks, 0u);
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::TypeError), 1u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, NonePolicyDoesNothing) {
  auto A = allocateChecked<int, NonePolicy>(RT, 8);
  RT.counters().reset();
  auto P = CheckedPtr<int, NonePolicy>::input(A.raw());
  int Sum = checkedSum(P, 8);
  (void)Sum;
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, 0u);
  EXPECT_EQ(C.BoundsChecks, 0u);
  EXPECT_EQ(C.BoundsNarrows, 0u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, FieldNarrowingChainsThroughStructs) {
  auto N = allocateChecked<cp_test::Node, FullPolicy>(RT);
  N->Value = 7;
  N->Next = nullptr;
  auto V = N.field(&cp_test::Node::Value);
  EXPECT_EQ(*V, 7);
  // The narrowed bounds cover only Value.
  EXPECT_EQ(V.bounds().Hi - V.bounds().Lo, sizeof(int));
  // Overflowing from Value into Next is caught.
  *(V + 1) = 1;
  EXPECT_EQ(RT.reporter().numIssues(ErrorKind::BoundsError), 1u);
  deallocateChecked(RT, N);
}

TEST_F(CheckedPtrTest, ScopedThreadsCountExactly) {
  // Each thread binds the runtime with its own RuntimeScope, which
  // finds the thread's counter cell once; the Figure 4 check counts
  // then add up exactly across threads.
  auto A = allocateChecked<int, FullPolicy>(RT, 100);
  for (int I = 0; I < 100; ++I)
    A[I] = I;
  RT.counters().reset();
  constexpr int Workers = 4, Rounds = 500;
  std::vector<std::thread> Threads;
  for (int W = 0; W < Workers; ++W)
    Threads.emplace_back([&] {
      RuntimeScope Bind(RT);
      for (int R = 0; R < Rounds; ++R)
        EXPECT_EQ(checkedSum(CheckedPtr<int, FullPolicy>::input(A.raw()), 100),
                  99 * 100 / 2);
    });
  for (std::thread &T : Threads)
    T.join();
  auto C = RT.counters().snapshot();
  EXPECT_EQ(C.TypeChecks, uint64_t(Workers) * Rounds);
  EXPECT_EQ(C.BoundsChecks, uint64_t(Workers) * Rounds * 100);
  EXPECT_EQ(RT.reporter().numIssues(), 0u);
  deallocateChecked(RT, A);
}

TEST_F(CheckedPtrTest, RuntimeScopeBindsCurrentRuntime) {
  EXPECT_EQ(&currentRuntime(), &RT);
  {
    Runtime Other(Ctx, quietOptions());
    RuntimeScope Inner(Other);
    EXPECT_EQ(&currentRuntime(), &Other);
  }
  EXPECT_EQ(&currentRuntime(), &RT);
}
