//===- tests/bytecode_test.cpp - Tree-walker vs bytecode differential -----===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The bytecode engine's correctness contract: for every program the
/// tree-walking interpreter can run, the VM produces the same result,
/// the same output, the same executed-check counters and the same
/// error-report stream. The corpus below mirrors every runnable program
/// in interp_test.cpp and minic_test.cpp, swept under all four
/// instrumentation variants and with superinstruction fusion both on
/// and off. Steps is deliberately *not* compared: a fused
/// superinstruction executes as one bytecode step.
///
/// The engine x policy matrix holds both engines to the same behaviour
/// under every session CheckPolicy, and pins what each policy means;
/// the policy contract pins that a run reads its session's policy once,
/// when it starts.
///
/// Also here: the disassembler round trip (parse(disassemble(P))
/// reproduces every instruction field-for-field) and a fusion
/// smoke-test pinning that hot check+access pairs actually fuse.
///
//===----------------------------------------------------------------------===//

#include "api/Sanitizer.h"
#include "bytecode/Compiler.h"
#include "bytecode/Disasm.h"
#include "bytecode/VM.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace effective;
using namespace effective::instrument;

namespace {

//===----------------------------------------------------------------------===//
// Corpus: every runnable program from interp_test.cpp + minic_test.cpp
//===----------------------------------------------------------------------===//

struct CorpusProgram {
  const char *Name;
  const char *Source;
};

const CorpusProgram Corpus[] = {
    // --- interp_test.cpp: clean execution ---
    {"Arithmetic",
     "int main() { return (3 + 4) * 5 - 100 / 4 + (27 % 4); }"},
    {"FibonacciRecursion", R"(
int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
int main() { return fib(15); }
)"},
    {"PrintBuiltins", R"(
int main() {
  print_int(42);
  print_float(2.5);
  print_str("hello world");
  return 0;
}
)"},
    {"LinkedListLength", R"(
struct node { int value; struct node *next; };
struct node *push(struct node *head, int v) {
  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->value = v;
  n->next = head;
  return n;
}
int length(struct node *xs) {
  int len = 0;
  while (xs != NULL) {
    len = len + 1;
    xs = xs->next;
  }
  return len;
}
int main() {
  struct node *head = NULL;
  int i;
  for (i = 0; i < 10; i = i + 1)
    head = push(head, i);
  int len = length(head);
  while (head != NULL) {
    struct node *next = head->next;
    free(head);
    head = next;
  }
  return len;
}
)"},
    {"SumArray", R"(
int sum(int *a, int len) {
  int s = 0;
  int i;
  for (i = 0; i < len; i = i + 1)
    s = s + a[i];
  return s;
}
int main() {
  int *a = (int *)malloc(100 * sizeof(int));
  int i;
  for (i = 0; i < 100; i = i + 1)
    a[i] = i;
  int s = sum(a, 100);
  free(a);
  return s % 251;
}
)"},
    {"GlobalsStringsStructs", R"(
struct config { int verbose; double scale; };
struct config g_config;
int g_calls = 3;
double scaled(double v) {
  g_calls = g_calls + 1;
  return v * g_config.scale;
}
int main() {
  g_config.verbose = 1;
  g_config.scale = 2.5;
  double r = scaled(4.0);
  return (int)r + g_calls;
}
)"},
    {"CleanPairs", R"(
struct pair { int a; int b; };
int main() {
  struct pair *p = (struct pair *)malloc(4 * sizeof(struct pair));
  int i;
  for (i = 0; i < 4; i = i + 1) {
    p[i].a = i;
    p[i].b = 2 * i;
  }
  int total = 0;
  for (i = 0; i < 4; i = i + 1)
    total = total + p[i].a + p[i].b;
  free(p);
  return total;
}
)"},
    // --- interp_test.cpp: type confusion ---
    {"BadCast", R"(
int main() {
  int *p = (int *)malloc(8 * sizeof(int));
  float *q = (float *)p;
  float f = *q;
  free(p);
  return (int)f;
}
)"},
    {"BadCastAndSubObjectOverflow", R"(
struct S { int x[8]; };
int main() {
  struct S *s = (struct S *)malloc(sizeof(struct S));
  double *q = (double *)s;      /* bad cast, result used below */
  double d = *q;
  s->x[9] = 1;                  /* sub-object overflow */
  free(s);
  return d != 0.0;
}
)"},
    {"UnusedBadCast", R"(
struct S { int x[8]; };
int main() {
  struct S *s = (struct S *)malloc(sizeof(struct S));
  double *q = (double *)s;      /* bad cast, result never used */
  free(s);
  return 0;
}
)"},
    {"ImplicitCastThroughMemory", R"(
struct holder { int *slot; };
int main() {
  float *f = (float *)malloc(4 * sizeof(float));
  struct holder h;
  h.slot = (int *)f;
  int *p = h.slot;
  int v = *p;
  free(f);
  return v;
}
)"},
    // --- interp_test.cpp: bounds ---
    {"ObjectBoundsOverflow", R"(
int main() {
  int *a = (int *)malloc(33 * sizeof(int));
  int i;
  int total = 0;
  for (i = 0; i <= 33; i = i + 1)   /* off-by-one */
    total = total + a[i];
  free(a);
  return total != 0;
}
)"},
    {"SubObjectOverflowWithinStruct", R"(
struct account { int number[8]; float balance; };
int main() {
  struct account *a = (struct account *)malloc(sizeof(struct account));
  a->balance = 100.0;
  a->number[8] = 7;           /* clobbers balance */
  free(a);
  return 0;
}
)"},
    {"StackArrayOverflow", R"(
int main() {
  int a[4];
  int i;
  for (i = 0; i <= 4; i = i + 1)    /* off-by-one on the stack */
    a[i] = i;
  return a[0];
}
)"},
    {"NegativeIndexUnderflow", R"(
struct vec { int header; double data[4]; };
int main() {
  struct vec *v = (struct vec *)malloc(sizeof(struct vec));
  double *d = v->data;
  double x = *(d - 1);              /* underflow into header */
  free(v);
  return x != 0.0;
}
)"},
    // --- interp_test.cpp: temporal ---
    {"UseAfterFreeAtInputEvent", R"(
struct node { int value; struct node *next; };
int readValue(struct node *n) { return n->value; }
int main() {
  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->value = 42;
  free(n);
  return readValue(n);            /* use after free */
}
)"},
    {"UseAfterFreeThroughReloadedPointer", R"(
struct node { int value; struct node *next; };
struct node *g_head;
int main() {
  g_head = (struct node *)malloc(sizeof(struct node));
  g_head->value = 7;
  free(g_head);
  struct node *n = g_head;        /* load of a dangling pointer */
  return n->value;
}
)"},
    {"DirectDerefAfterFree", R"(
struct node { int value; struct node *next; };
int main() {
  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->value = 42;
  free(n);
  int v = n->value;               /* missed: no input event since free */
  return v;
}
)"},
    {"DoubleFree", R"(
int main() {
  int *p = (int *)malloc(16 * sizeof(int));
  free(p);
  free(p);
  return 0;
}
)"},
    {"DanglingStackPointer", R"(
int *escape() {
  int local[4];
  local[0] = 9;
  int *p = local;
  return p;
}
int main() {
  int *p = escape();
  return *p;
}
)"},
    // --- interp_test.cpp: dynamic counts + faults ---
    {"VariantsScaleExecutedChecks", R"(
int main() {
  int *a = (int *)malloc(64 * sizeof(int));
  int i;
  for (i = 0; i < 64; i = i + 1)
    a[i] = i;
  int t = 0;
  for (i = 0; i < 64; i = i + 1)
    t = t + a[i];
  free(a);
  return t % 100;
}
)"},
    {"NullDereference", R"(
int main() {
  int *p = NULL;
  return *p;
}
)"},
    // --- minic_test.cpp: runnable frontend programs ---
    {"RecordTypesAndTags", R"(
struct point { double x; double y; };
union u { int i; float f; };
struct point g;
int main() { return 0; }
)"},
    {"PointerAndArrayDeclarators", R"(
int main() {
  int a[10];
  int *p;
  int **pp;
  int m[4][3];
  return 0;
}
)"},
    {"Precedence", "int main() { return 2 + 3 * 4; }"},
    {"RedeclaredTag", R"(
struct t { int code; };
int main() { struct t x; x.code = 1; return x.code; }
)"},
    {"TypesEveryExpression", R"(
int main() {
  double d = 1.5;
  int i = 2;
  double m = d * i;
  return (int)m;
}
)"},
    {"Builtins", R"(
int main() {
  print_int(1);
  print_float(1.5);
  print_str("x");
  return 0;
}
)"},
    {"MallocThroughExplicitCast", R"(
struct s { int x; };
int main() {
  struct s *p = (struct s *)malloc(sizeof(struct s));
  free(p);
  return 0;
}
)"},
    {"MallocThroughTypedInitializer", R"(
int main() {
  long *p = malloc(8 * sizeof(long));
  free(p);
  return 0;
}
)"},
    {"MallocThroughAssignment", R"(
int main() {
  double *p;
  p = malloc(4 * sizeof(double));
  free(p);
  return 0;
}
)"},
    {"MallocThroughCallArgument", R"(
int consume(int *p) { free(p); return 0; }
int main() { return consume(malloc(4 * sizeof(int))); }
)"},
    {"MallocVoidTargetStaysUntyped", R"(
int main() {
  void *p = malloc(64);
  free(p);
  return 0;
}
)"},
};

//===----------------------------------------------------------------------===//
// Differential harness
//===----------------------------------------------------------------------===//

/// Replaces hex pointer renderings ("0x1a2b...") with "<ptr>" so legacy
/// (unattributed) report lines — the only ones that embed raw addresses
/// — compare equal across runtimes with different arena placements.
/// Site-attributed reports are address-free by design.
std::string normalizePointers(std::string_view In) {
  std::string Out;
  for (size_t I = 0; I < In.size();) {
    if (I + 1 < In.size() && In[I] == '0' &&
        (In[I + 1] == 'x' || In[I + 1] == 'X')) {
      size_t J = I + 2;
      while (J < In.size() && std::isxdigit(static_cast<unsigned char>(In[J])))
        ++J;
      if (J > I + 2) {
        Out += "<ptr>";
        I = J;
        continue;
      }
    }
    Out += In[I++];
  }
  return Out;
}

/// One engine's observable behavior: the RunResult plus the full
/// error-report stream and per-kind bucket counts.
struct EngineRun {
  interp::RunResult R;
  std::vector<std::string> Msgs;
  uint64_t TypeErrors = 0;
  uint64_t BoundsErrors = 0;
  uint64_t UafErrors = 0;
  uint64_t DoubleFrees = 0;
  uint64_t StackUarErrors = 0;
};

enum class Engine { Tree, Bytecode };

/// Runs \p C on \p E against a fresh runtime, capturing every emitted
/// report in order.
EngineRun runEngine(TypeContext &Types, const CompileResult &C, Engine E,
                    const interp::RunOptions &Opts = interp::RunOptions()) {
  EngineRun Out;
  RuntimeOptions RTOpts;
  RTOpts.Reporter.Mode = ReportMode::Count;
  RTOpts.Reporter.Callback = [](const ErrorInfo &, const char *Message,
                                void *User) {
    static_cast<std::vector<std::string> *>(User)->push_back(
        normalizePointers(Message ? Message : ""));
  };
  RTOpts.Reporter.CallbackUserData = &Out.Msgs;
  Runtime RT(Types, RTOpts);

  Out.R = E == Engine::Bytecode ? bytecode::run(*C.BC, RT, Opts)
                                : interp::run(*C.M, RT, Opts);
  Out.TypeErrors = RT.reporter().numIssues(ErrorKind::TypeError);
  Out.BoundsErrors = RT.reporter().numIssues(ErrorKind::BoundsError);
  Out.UafErrors = RT.reporter().numIssues(ErrorKind::UseAfterFree);
  Out.DoubleFrees = RT.reporter().numIssues(ErrorKind::DoubleFree);
  Out.StackUarErrors =
      RT.reporter().numIssues(ErrorKind::StackUseAfterReturn);
  return Out;
}

/// Everything must match except Steps (fusion changes instruction
/// granularity, not behavior).
void expectSameBehavior(const EngineRun &T, const EngineRun &B,
                        const std::string &Label) {
  EXPECT_EQ(T.R.Ok, B.R.Ok) << Label;
  EXPECT_EQ(normalizePointers(T.R.Fault), normalizePointers(B.R.Fault))
      << Label;
  EXPECT_EQ(T.R.ExitCode, B.R.ExitCode) << Label;
  EXPECT_EQ(T.R.Output, B.R.Output) << Label;
  EXPECT_EQ(T.R.Checks.TypeChecks, B.R.Checks.TypeChecks) << Label;
  EXPECT_EQ(T.R.Checks.BoundsGets, B.R.Checks.BoundsGets) << Label;
  EXPECT_EQ(T.R.Checks.BoundsChecks, B.R.Checks.BoundsChecks) << Label;
  EXPECT_EQ(T.R.Checks.BoundsNarrows, B.R.Checks.BoundsNarrows) << Label;
  EXPECT_EQ(T.R.IssuesReported, B.R.IssuesReported) << Label;
  EXPECT_EQ(T.TypeErrors, B.TypeErrors) << Label;
  EXPECT_EQ(T.BoundsErrors, B.BoundsErrors) << Label;
  EXPECT_EQ(T.UafErrors, B.UafErrors) << Label;
  EXPECT_EQ(T.DoubleFrees, B.DoubleFrees) << Label;
  EXPECT_EQ(T.StackUarErrors, B.StackUarErrors) << Label;
  EXPECT_EQ(T.Msgs, B.Msgs) << Label;
}

constexpr Variant AllVariants[] = {Variant::None, Variant::Type,
                                   Variant::Bounds, Variant::Full};

/// Compiles \p Source under \p V and diffs the two engines; with
/// \p Fused false the bytecode is recompiled without superinstructions
/// to cover the plain handlers too.
void diffProgram(const char *Name, const char *Source, Variant V,
                 bool Fused = true) {
  std::string Label = std::string(Name) + " [" +
                      std::string(variantName(V)) +
                      (Fused ? "" : " unfused") + "]";
  TypeContext Types;
  DiagnosticEngine Diags;
  InstrumentOptions Opts;
  Opts.V = V;
  CompileResult C = compileMiniC(Source, Types, Diags, Opts);
  for (const Diagnostic &D : Diags.diagnostics())
    ADD_FAILURE() << Label << ": " << D.Loc.Line << ":" << D.Loc.Column
                  << ": " << D.Message;
  ASSERT_TRUE(C.M) << Label;
  ASSERT_TRUE(C.BC) << Label << ": pipeline produced no bytecode";

  if (!Fused) {
    std::string Error;
    bytecode::CompileOptions BcOpts;
    BcOpts.FuseChecks = false;
    C.BC = bytecode::compile(*C.M, &Error, BcOpts);
    ASSERT_TRUE(C.BC) << Label << ": " << Error;
  }

  EngineRun T = runEngine(Types, C, Engine::Tree);
  EngineRun B = runEngine(Types, C, Engine::Bytecode);
  expectSameBehavior(T, B, Label);
}

} // namespace

//===----------------------------------------------------------------------===//
// The differential sweep
//===----------------------------------------------------------------------===//

TEST(Differential, FullCorpusAllVariants) {
  for (const CorpusProgram &P : Corpus)
    for (Variant V : AllVariants)
      diffProgram(P.Name, P.Source, V);
}

TEST(Differential, FullCorpusUnfused) {
  for (const CorpusProgram &P : Corpus)
    diffProgram(P.Name, P.Source, Variant::Full, /*Fused=*/false);
}

TEST(Differential, BudgetFaultMatches) {
  TypeContext Types;
  DiagnosticEngine Diags;
  CompileResult C = compileMiniC("int main() { while (1) { } return 0; }",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.M && C.BC);
  interp::RunOptions Opts;
  Opts.MaxSteps = 10000;
  EngineRun T = runEngine(Types, C, Engine::Tree, Opts);
  EngineRun B = runEngine(Types, C, Engine::Bytecode, Opts);
  EXPECT_FALSE(T.R.Ok);
  EXPECT_FALSE(B.R.Ok);
  EXPECT_EQ(T.R.Fault, B.R.Fault); // "...budget exhausted in @main"
  EXPECT_NE(B.R.Fault.find("budget"), std::string::npos);
}

TEST(Differential, DepthFaultMatches) {
  TypeContext Types;
  DiagnosticEngine Diags;
  CompileResult C = compileMiniC("int f(int n) { return f(n + 1); }\n"
                                 "int main() { return f(0); }",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.M && C.BC);
  interp::RunOptions Opts;
  Opts.MaxCallDepth = 64;
  EngineRun T = runEngine(Types, C, Engine::Tree, Opts);
  EngineRun B = runEngine(Types, C, Engine::Bytecode, Opts);
  EXPECT_FALSE(T.R.Ok);
  EXPECT_FALSE(B.R.Ok);
  EXPECT_EQ(T.R.Fault, B.R.Fault); // "call depth limit exceeded in @f"
  EXPECT_NE(B.R.Fault.find("depth"), std::string::npos);
}

TEST(Differential, MissingEntryFaultMatches) {
  TypeContext Types;
  DiagnosticEngine Diags;
  CompileResult C = compileMiniC("int helper() { return 1; }\n"
                                 "int main() { return helper(); }",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.M && C.BC);
  EngineRun T = runEngine(Types, C, Engine::Tree);
  EngineRun B = runEngine(Types, C, Engine::Bytecode);
  expectSameBehavior(T, B, "entry=main");

  RuntimeOptions RTOpts;
  RTOpts.Reporter.Mode = ReportMode::Count;
  Runtime RT1(Types, RTOpts);
  Runtime RT2(Types, RTOpts);
  interp::RunResult TR =
      interp::run(*C.M, RT1, interp::RunOptions(), "nonexistent");
  interp::RunResult BR =
      bytecode::run(*C.BC, RT2, interp::RunOptions(), "nonexistent");
  EXPECT_FALSE(TR.Ok);
  EXPECT_FALSE(BR.Ok);
  EXPECT_EQ(TR.Fault, BR.Fault);
}

//===----------------------------------------------------------------------===//
// Engine x policy matrix
//===----------------------------------------------------------------------===//

namespace {

/// A clean program that executes every check kind: calls, casts,
/// nested struct fields (narrowing) and array indexing.
const char *const CleanChecks = R"(
struct point { int x; int y; };
struct line { struct point a; struct point b; int weight[4]; };
int span(struct line *l) { return l->b.x - l->a.x + l->b.y - l->a.y; }
int main() {
  struct line *ls = (struct line *)malloc(8 * sizeof(struct line));
  int i;
  int j;
  int total = 0;
  for (i = 0; i < 8; i = i + 1) {
    ls[i].a.x = i;
    ls[i].a.y = i * 2;
    ls[i].b.x = i * 3;
    ls[i].b.y = i * 5;
    for (j = 0; j < 4; j = j + 1)
      ls[i].weight[j] = i + j;
  }
  for (i = 0; i < 8; i = i + 1)
    total = total + span(&ls[i]) * ls[i].weight[i % 4];
  free(ls);
  return total;
}
)";

/// The benchmark corpus's defects program at fixed constants: a
/// sub-object overflow, a used bad cast, a use after free at a callee's
/// input check and a double free around a clean summing loop.
const char *const Defects = R"(
struct account { int number[8]; float balance; };
struct node { int value; struct node *next; };
int readValue(struct node *n) { return n->value; }
int main() {
  struct account *a = (struct account *)malloc(sizeof(struct account));
  int i;
  int total = 0;
  for (i = 0; i < 8; i = i + 1)
    a->number[i] = (i * 3 + 7) % 100;
  for (i = 0; i < 500; i = i + 1)
    total = (total + a->number[i % 8] * (i % 7)) % 1000003;
  a->number[8] = 7;
  int *p = (int *)malloc(4 * sizeof(int));
  p[0] = 1;
  float *q = (float *)p;
  float f = *q;
  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->value = 42;
  free(n);
  int stale = readValue(n);
  free(p);
  free(p);
  free(a);
  return total;
}
)";

constexpr CheckPolicy AllPolicies[] = {
    CheckPolicy::Full, CheckPolicy::BoundsOnly, CheckPolicy::TypeOnly,
    CheckPolicy::CountOnly, CheckPolicy::Off};

/// One engine run in a fresh session: the result, the report stream,
/// per-kind issue counts and the session's counter delta.
struct SessionRun {
  interp::RunResult R;
  std::vector<std::string> Msgs;
  CheckCounters::Snapshot Delta;
  uint64_t TypeErrors = 0;
  uint64_t BoundsErrors = 0;
  uint64_t UafErrors = 0;
  uint64_t DoubleFrees = 0;
};

interp::RunResult runOn(Engine E, const CompileResult &C, Sanitizer &S) {
  return E == Engine::Bytecode ? bytecode::run(*C.BC, S)
                               : interp::run(*C.M, S);
}

SessionRun runInSession(TypeContext &Types, const CompileResult &C, Engine E,
                        CheckPolicy Policy) {
  SessionRun Out;
  SessionOptions Opts;
  Opts.Policy = Policy;
  Opts.Reporter.Mode = ReportMode::Count;
  Opts.Reporter.Callback = [](const ErrorInfo &, const char *Message,
                              void *User) {
    static_cast<std::vector<std::string> *>(User)->push_back(
        normalizePointers(Message ? Message : ""));
  };
  Opts.Reporter.CallbackUserData = &Out.Msgs;
  Sanitizer S(Types, Opts);
  Out.R = runOn(E, C, S);
  Out.Delta = S.counters().snapshot();
  Out.TypeErrors = S.reporter().numIssues(ErrorKind::TypeError);
  Out.BoundsErrors = S.reporter().numIssues(ErrorKind::BoundsError);
  Out.UafErrors = S.reporter().numIssues(ErrorKind::UseAfterFree);
  Out.DoubleFrees = S.reporter().numIssues(ErrorKind::DoubleFree);
  return Out;
}

std::array<uint64_t, 7> countsOf(const CheckCounters::Snapshot &D) {
  return {D.TypeChecks,        D.LegacyTypeChecks,   D.BoundsChecks,
          D.BoundsNarrows,     D.BoundsGets,         D.TypeCheckCacheHits,
          D.TypeCheckCacheMisses};
}

CompileResult compileOrFail(const char *Source, TypeContext &Types,
                            Variant V) {
  DiagnosticEngine Diags;
  InstrumentOptions Opts;
  Opts.V = V;
  CompileResult C = compileMiniC(Source, Types, Diags, Opts);
  for (const Diagnostic &D : Diags.diagnostics())
    ADD_FAILURE() << D.Loc.Line << ":" << D.Loc.Column << ": " << D.Message;
  return C;
}

} // namespace

TEST(PolicyMatrix, EnginesAgreeAndEachPolicyMeansWhatItSays) {
  const std::pair<const char *, const char *> Programs[] = {
      {"clean", CleanChecks}, {"defects", Defects}};
  for (const auto &[Name, Source] : Programs) {
    for (Variant V : {Variant::Full, Variant::Bounds}) {
      TypeContext Types;
      CompileResult C = compileOrFail(Source, Types, V);
      ASSERT_TRUE(C.M && C.BC) << Name;
      for (CheckPolicy Policy : AllPolicies) {
        std::string Label = std::string(Name) + " [" +
                            std::string(variantName(V)) + ", " +
                            std::string(checkPolicyName(Policy)) + "]";
        SessionRun T = runInSession(Types, C, Engine::Tree, Policy);
        SessionRun B = runInSession(Types, C, Engine::Bytecode, Policy);

        EXPECT_TRUE(T.R.Ok) << Label << ": " << T.R.Fault;
        EXPECT_EQ(T.R.Ok, B.R.Ok) << Label;
        EXPECT_EQ(T.R.Fault, B.R.Fault) << Label;
        EXPECT_EQ(T.R.ExitCode, B.R.ExitCode) << Label;
        EXPECT_EQ(T.R.Output, B.R.Output) << Label;
        EXPECT_EQ(T.R.Checks.TypeChecks, B.R.Checks.TypeChecks) << Label;
        EXPECT_EQ(T.R.Checks.BoundsGets, B.R.Checks.BoundsGets) << Label;
        EXPECT_EQ(T.R.Checks.BoundsChecks, B.R.Checks.BoundsChecks) << Label;
        EXPECT_EQ(T.R.Checks.BoundsNarrows, B.R.Checks.BoundsNarrows)
            << Label;
        EXPECT_EQ(T.R.IssuesReported, B.R.IssuesReported) << Label;
        EXPECT_EQ(T.Msgs, B.Msgs) << Label;
        EXPECT_EQ(countsOf(T.Delta), countsOf(B.Delta)) << Label;

        const interp::ExecutedChecks &X = T.R.Checks;
        EXPECT_GT(X.TypeChecks + X.BoundsGets + X.BoundsChecks, 0u) << Label;
        switch (Policy) {
        case CheckPolicy::Off:
          EXPECT_EQ(countsOf(T.Delta), countsOf({})) << Label;
          break;
        case CheckPolicy::CountOnly:
          EXPECT_EQ(T.Delta.TypeChecks, X.TypeChecks) << Label;
          EXPECT_EQ(T.Delta.BoundsGets, X.BoundsGets) << Label;
          EXPECT_EQ(T.Delta.BoundsChecks, X.BoundsChecks) << Label;
          EXPECT_EQ(T.Delta.BoundsNarrows, X.BoundsNarrows) << Label;
          EXPECT_EQ(T.Delta.TypeCheckCacheHits + T.Delta.TypeCheckCacheMisses +
                        T.Delta.LegacyTypeChecks,
                    0u)
              << Label;
          // Checks report nothing; only free() itself still reports.
          EXPECT_EQ(T.TypeErrors + T.BoundsErrors + T.UafErrors, 0u) << Label;
          break;
        case CheckPolicy::TypeOnly:
          EXPECT_EQ(T.BoundsErrors, 0u) << Label;
          break;
        case CheckPolicy::BoundsOnly:
          EXPECT_EQ(T.TypeErrors, 0u) << Label;
          break;
        case CheckPolicy::Full:
          if (std::string_view(Name) == "clean") {
            EXPECT_EQ(T.R.IssuesReported, 0u) << Label;
          } else if (V == Variant::Full) {
            EXPECT_TRUE(T.TypeErrors == 1 && T.BoundsErrors == 1 &&
                        T.UafErrors == 1 && T.DoubleFrees == 1)
                << Label << ": " << T.TypeErrors << " type, "
                << T.BoundsErrors << " bounds, " << T.UafErrors << " uaf, "
                << T.DoubleFrees << " double-free";
          }
          break;
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Per-run policy contract
//===----------------------------------------------------------------------===//

namespace {

/// What tells the five policies apart in one run's counter delta: the
/// four check counts plus the type checks that really probed meta data
/// (Full and CountOnly count alike; only Full probes).
std::array<uint64_t, 5> signatureOf(const CheckCounters::Snapshot &D) {
  return {D.TypeChecks, D.BoundsGets, D.BoundsChecks, D.BoundsNarrows,
          D.TypeCheckCacheHits + D.TypeCheckCacheMisses +
              D.LegacyTypeChecks};
}

std::array<uint64_t, 5> runDelta(Engine E, const CompileResult &C,
                                 Sanitizer &S) {
  CheckCounters::Snapshot Before = S.counters().snapshot();
  EXPECT_TRUE(runOn(E, C, S).Ok);
  CheckCounters::Snapshot After = S.counters().snapshot();
  std::array<uint64_t, 5> A = signatureOf(After), B = signatureOf(Before);
  for (size_t I = 0; I < A.size(); ++I)
    A[I] -= B[I];
  return A;
}

/// Each policy's signature for \p C on \p E, from fresh sessions.
std::vector<std::array<uint64_t, 5>>
expectedSignatures(TypeContext &Types, const CompileResult &C, Engine E) {
  std::vector<std::array<uint64_t, 5>> Out;
  for (CheckPolicy Policy : AllPolicies)
    Out.push_back(signatureOf(runInSession(Types, C, E, Policy).Delta));
  return Out;
}

SessionOptions quietSession() {
  SessionOptions Opts;
  Opts.Reporter.Mode = ReportMode::Count;
  return Opts;
}

} // namespace

TEST(PolicyContract, SetPolicyBetweenRunsTakesEffectAtTheNextRun) {
  TypeContext Types;
  CompileResult C = compileOrFail(Defects, Types, Variant::Full);
  ASSERT_TRUE(C.M && C.BC);
  for (Engine E : {Engine::Tree, Engine::Bytecode}) {
    auto Expected = expectedSignatures(Types, C, E);
    Sanitizer S(Types, quietSession());
    for (size_t I = 0; I < std::size(AllPolicies); ++I) {
      S.setPolicy(AllPolicies[I]);
      EXPECT_EQ(runDelta(E, C, S), Expected[I])
          << checkPolicyName(AllPolicies[I]);
    }
  }
}

TEST(PolicyContract, PolicyFlipsDuringRunsGiveEachRunOnePolicy) {
  TypeContext Types;
  CompileResult C = compileOrFail(Defects, Types, Variant::Full);
  ASSERT_TRUE(C.M && C.BC);
  for (Engine E : {Engine::Tree, Engine::Bytecode}) {
    auto Expected = expectedSignatures(Types, C, E);
    Sanitizer S(Types, quietSession());
    std::atomic<bool> Stop{false};
    std::atomic<uint64_t> Cycles{0};
    std::thread Flipper([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        for (CheckPolicy Policy : AllPolicies)
          S.setPolicy(Policy);
        Cycles.fetch_add(1, std::memory_order_relaxed);
      }
    });
    // A run counts once the flipper advanced while it ran. The new
    // thread may first share a CPU with this one, so keep running until
    // enough runs overlapped a flip (or a time cap passes).
    unsigned Mixed = 0, Overlapped = 0;
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (Overlapped < 20 && std::chrono::steady_clock::now() < Deadline) {
      uint64_t CyclesBefore = Cycles.load(std::memory_order_relaxed);
      std::array<uint64_t, 5> Got = runDelta(E, C, S);
      if (Cycles.load(std::memory_order_relaxed) == CyclesBefore)
        continue;
      ++Overlapped;
      if (std::find(Expected.begin(), Expected.end(), Got) == Expected.end())
        ++Mixed;
    }
    Stop.store(true, std::memory_order_relaxed);
    Flipper.join();
    const char *Name = E == Engine::Tree ? "tree" : "bytecode";
    EXPECT_GT(Overlapped, 0u) << Name << ": no run overlapped a flip";
    EXPECT_EQ(Mixed, 0u) << Name << ": runs whose counters mix policies, of "
                         << Overlapped;
  }
}

//===----------------------------------------------------------------------===//
// Disassembler round trip
//===----------------------------------------------------------------------===//

TEST(Disasm, RoundTripReproducesEveryField) {
  TypeContext Types;
  DiagnosticEngine Diags;
  // A program exercising most opcode families: calls, floats, structs,
  // arrays, globals, strings, checks, branches.
  CompileResult C = compileMiniC(R"(
struct item { int id; double weight; };
struct item g_items[4];
double total(struct item *xs, int n) {
  double t = 0.0;
  int i;
  for (i = 0; i < n; i = i + 1)
    t = t + xs[i].weight;
  return t;
}
int main() {
  int i;
  for (i = 0; i < 4; i = i + 1) {
    g_items[i].id = i;
    g_items[i].weight = 1.5 * i;
  }
  print_str("total:");
  print_float(total(g_items, 4));
  return (int)total(g_items, 4);
}
)",
                                 Types, Diags, InstrumentOptions());
  ASSERT_TRUE(C.BC);

  std::string Text = bytecode::disassemble(*C.BC);
  std::vector<std::pair<std::string, std::vector<bytecode::Inst>>> Parsed;
  ASSERT_TRUE(bytecode::parseDisassembly(Text, Parsed));

  ASSERT_EQ(Parsed.size(), C.BC->Funcs.size());
  for (size_t F = 0; F < Parsed.size(); ++F) {
    const bytecode::BcFunction &Orig = C.BC->Funcs[F];
    EXPECT_EQ(Parsed[F].first, Orig.Name);
    ASSERT_EQ(Parsed[F].second.size(), Orig.Code.size()) << Orig.Name;
    for (size_t I = 0; I < Orig.Code.size(); ++I) {
      const bytecode::Inst &A = Orig.Code[I];
      const bytecode::Inst &B = Parsed[F].second[I];
      EXPECT_EQ(A.Op, B.Op) << Orig.Name << ":" << I;
      EXPECT_EQ(A.A, B.A) << Orig.Name << ":" << I;
      EXPECT_EQ(A.B, B.B) << Orig.Name << ":" << I;
      EXPECT_EQ(A.C, B.C) << Orig.Name << ":" << I;
      EXPECT_EQ(A.Imm, B.Imm) << Orig.Name << ":" << I;
      EXPECT_EQ(A.Aux, B.Aux) << Orig.Name << ":" << I;
      EXPECT_EQ(A.Type, B.Type) << Orig.Name << ":" << I;
    }
  }
}

TEST(Disasm, UnknownMnemonicIsRejected) {
  std::vector<std::pair<std::string, std::vector<bytecode::Inst>>> Parsed;
  EXPECT_FALSE(bytecode::parseDisassembly(
      "  0: NotAnOpcode a=0 b=0 c=0 imm=0x0 aux=0x0 ty=0x0\n", Parsed));
}

//===----------------------------------------------------------------------===//
// Fusion + dispatch sanity
//===----------------------------------------------------------------------===//

TEST(Fusion, HotCheckAccessPairsFuse) {
  TypeContext Types;
  DiagnosticEngine Diags;
  InstrumentOptions Opts;
  Opts.V = Variant::Full;
  CompileResult C = compileMiniC(R"(
int main() {
  int *a = (int *)malloc(16 * sizeof(int));
  int i;
  for (i = 0; i < 16; i = i + 1)
    a[i] = i;
  int t = 0;
  for (i = 0; i < 16; i = i + 1)
    t = t + a[i];
  free(a);
  return t;
}
)",
                                 Types, Diags, Opts);
  ASSERT_TRUE(C.BC);
  std::string Text = bytecode::disassemble(*C.BC);
  // The array loops must have produced fused check+access
  // superinstructions; which exact flavor depends on the optimizer, so
  // accept any of the catalogue.
  bool Fused = Text.find("BoundsCheckLoad") != std::string::npos ||
               Text.find("BoundsCheckStore") != std::string::npos ||
               Text.find("TypeCheckLoad") != std::string::npos ||
               Text.find("TypeCheckStore") != std::string::npos ||
               Text.find("BoundsGetCheckLoad") != std::string::npos ||
               Text.find("BoundsGetCheckStore") != std::string::npos ||
               Text.find("TypeCheckBounds") != std::string::npos ||
               Text.find("BoundsGetCheck") != std::string::npos;
  EXPECT_TRUE(Fused) << Text;

  // And fusion must never cross a branch: disassembly with fusion off
  // contains no superinstruction mnemonics at all.
  std::string Error;
  bytecode::CompileOptions BcOpts;
  BcOpts.FuseChecks = false;
  auto Plain = bytecode::compile(*C.M, &Error, BcOpts);
  ASSERT_TRUE(Plain) << Error;
  std::string PlainText = bytecode::disassemble(*Plain);
  EXPECT_EQ(PlainText.find("TypeCheckBounds"), std::string::npos);
  EXPECT_EQ(PlainText.find("CheckLoad"), std::string::npos);
  EXPECT_EQ(PlainText.find("CheckStore"), std::string::npos);
}

TEST(Dispatch, StrategyIsReported) {
  std::string_view S = bytecode::dispatchStrategy();
  EXPECT_TRUE(S == "computed-goto" || S == "switch") << S;
#if !defined(EFFSAN_BC_SWITCH_DISPATCH) && (defined(__GNUC__) || defined(__clang__))
  EXPECT_EQ(S, "computed-goto");
#endif
}
