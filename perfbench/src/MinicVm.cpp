//===- perfbench/src/MinicVm.cpp - The minic-vm workload ------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A small MiniC corpus owned by the benchmark, compiled through the
/// instrumentation pipeline under None, Type, Bounds and Full and run
/// on the bytecode VM in interleaved rounds. Most of the work is in the
/// minic, instrument and bytecode layers; checks run through the VM's
/// check superinstructions. The seed draws each program's sizes, which
/// are written into the source as literals.
///
/// Every program's exit value is checked against a C++ reference of
/// the same program, computed natively from the same sizes, and against
/// the tree-walking interpreter (run once, untimed). The defects program
/// must report exactly its planted error classes under Full.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "api/Sanitizer.h"
#include "bytecode/Compiler.h"
#include "bytecode/VM.h"
#include "instrument/CheckOptimizer.h"
#include "instrument/Lowering.h"
#include "instrument/Pipeline.h"
#include "interp/Interp.h"
#include "ir/Verifier.h"
#include "minic/Parser.h"
#include "minic/Sema.h"
#include "workloads/Support.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace effective;
using namespace perfbench;
using effective::workloads::MallocTally;

namespace {

/// One corpus program: its source and what the native C++ reference of
/// the same program computed.
struct Source {
  const char *Name;
  std::string Text;
  int64_t Expected;
  /// Peak malloc bytes (usable size) of the native reference.
  uint64_t NativePeak;
  /// The error classes planted in the program (none for clean ones).
  std::vector<ErrorKind> Planted;
};

std::string fill(std::string Text, const char *Key, uint64_t Value) {
  for (size_t At; (At = Text.find(Key)) != std::string::npos;)
    Text.replace(At, std::strlen(Key), std::to_string(Value));
  return Text;
}

void *nativeAlloc(size_t Bytes) {
  void *P = std::malloc(Bytes);
  MallocTally::noteAlloc(P);
  return P;
}

void nativeFree(void *P) {
  MallocTally::noteFree(P);
  std::free(P);
}

// Each program's sizes keep its work within a few percent across
// seeds (and its large arrays inside one low-fat size class), so the
// seed changes the inputs but not how long a run takes or how much
// memory it holds. A run takes a fraction of a millisecond: short
// enough that the runs a preemption lands in stay under 1%, out of
// the 99th percentile.

/// Array kernel: a prefix-sum sweep over an int array, R times.
Source arrayProgram(Rng &Rand) {
  uint64_t N = Rand.range(1900, 2040), R = 2, S = Rand.range(1, 999);
  std::string Text = fill(fill(fill(R"(
int main() {
  int *a = (int *)malloc(@N * sizeof(int));
  int i;
  int r;
  int total = 0;
  for (i = 0; i < @N; i = i + 1)
    a[i] = (i * 7 + @S) % 1000;
  for (r = 0; r < @R; r = r + 1) {
    for (i = 1; i < @N; i = i + 1)
      a[i] = (a[i] + a[i - 1]) % 1000;
    total = (total + a[@N - 1]) % 1000003;
  }
  free(a);
  return total;
}
)", "@N", N), "@R", R), "@S", S);
  MallocTally::reset();
  int *A = static_cast<int *>(nativeAlloc(N * sizeof(int)));
  int64_t Total = 0;
  for (uint64_t I = 0; I < N; ++I)
    A[I] = int((I * 7 + S) % 1000);
  for (uint64_t Round = 0; Round < R; ++Round) {
    for (uint64_t I = 1; I < N; ++I)
      A[I] = (A[I] + A[I - 1]) % 1000;
    Total = (Total + A[N - 1]) % 1000003;
  }
  nativeFree(A);
  return {"array", Text, Total, MallocTally::peakBytes(), {}};
}

/// Pointer chasing: a linked list built once, walked R times.
Source listProgram(Rng &Rand) {
  uint64_t N = Rand.range(500, 600), R = 2000 / N, S = Rand.range(1, 999);
  std::string Text = fill(fill(fill(R"(
struct node { int value; struct node *next; };
int main() {
  struct node *head = NULL;
  int i;
  int r;
  int total = 0;
  for (i = 0; i < @N; i = i + 1) {
    struct node *n = (struct node *)malloc(sizeof(struct node));
    n->value = (i * 13 + @S) % 97;
    n->next = head;
    head = n;
  }
  for (r = 0; r < @R; r = r + 1) {
    struct node *p = head;
    while (p != NULL) {
      total = (total + p->value * (r + 1)) % 1000003;
      p = p->next;
    }
  }
  while (head != NULL) {
    struct node *next = head->next;
    free(head);
    head = next;
  }
  return total;
}
)", "@N", N), "@R", R), "@S", S);
  struct Node {
    int Value;
    Node *Next;
  };
  MallocTally::reset();
  Node *Head = nullptr;
  for (uint64_t I = 0; I < N; ++I) {
    Node *NewNode = static_cast<Node *>(nativeAlloc(sizeof(Node)));
    NewNode->Value = int((I * 13 + S) % 97);
    NewNode->Next = Head;
    Head = NewNode;
  }
  int64_t Total = 0;
  for (uint64_t Round = 0; Round < R; ++Round)
    for (Node *P = Head; P; P = P->Next)
      Total = (Total + P->Value * int64_t(Round + 1)) % 1000003;
  while (Head) {
    Node *Next = Head->Next;
    nativeFree(Head);
    Head = Next;
  }
  return {"list", Text, Total, MallocTally::peakBytes(), {}};
}

/// Struct up-cast churn: derived objects passed as their first-member
/// base, so every call re-checks the cast.
Source upcastProgram(Rng &Rand) {
  uint64_t M = Rand.range(320, 340), R = 3, S = Rand.range(1, 999);
  std::string Text = fill(fill(fill(R"(
struct base { int kind; int weight; };
struct derived { struct base b; int extra[4]; };
int weigh(struct base *b) { return b->weight * b->kind; }
int main() {
  struct derived *d = (struct derived *)malloc(@M * sizeof(struct derived));
  int i;
  int r;
  int total = 0;
  for (i = 0; i < @M; i = i + 1) {
    d[i].b.kind = i % 5 + 1;
    d[i].b.weight = (i + @S) % 11;
    d[i].extra[i % 4] = i;
  }
  for (r = 0; r < @R; r = r + 1)
    for (i = 0; i < @M; i = i + 1) {
      struct base *b = (struct base *)&d[i];
      total = (total + weigh(b) + d[i].extra[i % 4]) % 1000003;
    }
  free(d);
  return total;
}
)", "@M", M), "@R", R), "@S", S);
  struct Base {
    int Kind, Weight;
  };
  struct Derived {
    Base B;
    int Extra[4];
  };
  MallocTally::reset();
  Derived *D = static_cast<Derived *>(nativeAlloc(M * sizeof(Derived)));
  for (uint64_t I = 0; I < M; ++I) {
    D[I].B.Kind = int(I % 5 + 1);
    D[I].B.Weight = int((I + S) % 11);
    D[I].Extra[I % 4] = int(I);
  }
  int64_t Total = 0;
  for (uint64_t Round = 0; Round < R; ++Round)
    for (uint64_t I = 0; I < M; ++I)
      Total = (Total + D[I].B.Weight * D[I].B.Kind + D[I].Extra[I % 4]) %
              1000003;
  nativeFree(D);
  return {"upcast", Text, Total, MallocTally::peakBytes(), {}};
}

/// malloc/free churn: a short int buffer and a record per iteration.
Source churnProgram(Rng &Rand) {
  uint64_t N = Rand.range(700, 800), L = 10;
  std::string Text = fill(fill(R"(
struct rec { int key; int pad[3]; };
int main() {
  int i;
  int j;
  int total = 0;
  for (i = 0; i < @N; i = i + 1) {
    int len = i % @L + 1;
    int *buf = (int *)malloc(len * sizeof(int));
    for (j = 0; j < len; j = j + 1)
      buf[j] = i + j;
    struct rec *r = (struct rec *)malloc(sizeof(struct rec));
    r->key = buf[len - 1];
    total = (total + r->key) % 1000003;
    free(r);
    free(buf);
  }
  return total;
}
)", "@N", N), "@L", L);
  MallocTally::reset();
  int64_t Total = 0;
  for (uint64_t I = 0; I < N; ++I) {
    uint64_t Len = I % L + 1;
    int *Buf = static_cast<int *>(nativeAlloc(Len * sizeof(int)));
    for (uint64_t J = 0; J < Len; ++J)
      Buf[J] = int(I + J);
    int *Rec = static_cast<int *>(nativeAlloc(4 * sizeof(int)));
    Rec[0] = Buf[Len - 1];
    Total = (Total + Rec[0]) % 1000003;
    nativeFree(Rec);
    nativeFree(Buf);
  }
  return {"churn", Text, Total, MallocTally::peakBytes(), {}};
}

/// Planted defects, one of each class, around a clean summing loop:
/// a sub-object overflow, a bad cast whose result is used, a use after
/// free at a callee's input check, and a double free. The exit value
/// depends only on the clean part.
Source defectsProgram(Rng &Rand) {
  uint64_t K = Rand.range(450, 550), S = Rand.range(1, 999);
  std::string Text = fill(fill(R"(
struct account { int number[8]; float balance; };
struct node { int value; struct node *next; };
int readValue(struct node *n) { return n->value; }
int main() {
  struct account *a = (struct account *)malloc(sizeof(struct account));
  int i;
  int total = 0;
  for (i = 0; i < 8; i = i + 1)
    a->number[i] = (i * 3 + @S) % 100;
  for (i = 0; i < @K; i = i + 1)
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
)", "@K", K), "@S", S);
  MallocTally::reset();
  int *Number = static_cast<int *>(nativeAlloc(9 * sizeof(int)));
  int64_t Total = 0;
  for (int I = 0; I < 8; ++I)
    Number[I] = int((I * 3 + S) % 100);
  for (uint64_t I = 0; I < K; ++I)
    Total = (Total + Number[I % 8] * int64_t(I % 7)) % 1000003;
  void *P = nativeAlloc(4 * sizeof(int));
  nativeFree(nativeAlloc(2 * sizeof(void *)));
  nativeFree(P);
  nativeFree(Number);
  return {"defects",
          Text,
          Total,
          MallocTally::peakBytes(),
          {ErrorKind::TypeError, ErrorKind::BoundsError,
           ErrorKind::UseAfterFree, ErrorKind::DoubleFree}};
}

constexpr CheckPolicy Policies[NumVariants] = {
    CheckPolicy::Off, CheckPolicy::TypeOnly, CheckPolicy::BoundsOnly,
    CheckPolicy::Full};
constexpr const char *RunSpans[NumVariants] = {
    "bytecode.run_none", "bytecode.run_type", "bytecode.run_bounds",
    "bytecode.run_full"};

/// One program compiled under the four variants.
struct Compiled {
  Source Src;
  std::array<instrument::CompileResult, NumVariants> Out;
  VariantTimes Ms[2]; ///< Untraced and traced rounds.
  uint64_t FullSteps = 0;
  interp::ExecutedChecks FullChecks;
  uint64_t FullPeak = 0;
};

/// The corpus and the type context its modules live in.
struct Corpus {
  std::unique_ptr<TypeContext> Types;
  std::vector<Compiled> Programs;
};

/// Compiles every program under every variant with compileMiniC.
Corpus compileCorpus(const std::vector<Source> &Sources, Result &R) {
  Corpus C;
  C.Types = std::make_unique<TypeContext>();
  for (const Source &S : Sources) {
    Compiled P;
    P.Src = S;
    for (unsigned V = 0; V < NumVariants; ++V) {
      DiagnosticEngine Diags;
      P.Out[V] = instrument::compileMiniC(
          S.Text, *C.Types, Diags,
          instrument::instrumentOptionsFor(Policies[V]), S.Name);
      if (!P.Out[V].M || !P.Out[V].BC || Diags.hasErrors()) {
        Diags.print(stderr, S.Name);
        R.fail("minic-vm: %s does not compile", S.Name);
      }
    }
    C.Programs.push_back(std::move(P));
  }
  return C;
}

uint64_t instCount(const bytecode::Program &P) {
  uint64_t N = 0;
  for (const bytecode::BcFunction &F : P.Funcs)
    N += F.Code.size();
  return N;
}

/// The pipeline of instrument/Pipeline.cpp, phase by phase under
/// spans, on one program and variant. Checks that the result matches
/// compileMiniC's (same static checks, same bytecode size).
void tracedCompile(const Source &S, unsigned V,
                   const instrument::CompileResult &Reference, Result &R) {
  TypeContext Types;
  DiagnosticEngine Diags;
  instrument::InstrumentOptions Opts =
      instrument::instrumentOptionsFor(Policies[V]);
  minic::ASTContext Ctx(Types);
  minic::TranslationUnit Unit;
  std::unique_ptr<ir::Module> M;
  instrument::InstrumentStats Stats;
  std::unique_ptr<bytecode::Program> BC;
  bool Ok;
  {
    Span Phase("minic.parse");
    minic::Parser P(S.Text, Ctx, Diags);
    Ok = P.parseUnit(Unit);
  }
  if (Ok) {
    Span Phase("minic.sema");
    minic::Sema Checker(Ctx, Diags);
    Ok = Checker.check(Unit);
  }
  if (Ok) {
    Span Phase("instrument.lower");
    M = instrument::lowerToIR(Unit, Types, Diags);
    Ok = M != nullptr;
  }
  auto verify = [&] {
    Span Phase("ir.verify");
    return ir::verifyModule(*M, Diags);
  };
  Ok = Ok && verify();
  if (Ok) {
    Span Phase("instrument.pass");
    instrument::localCSE(*M);
  }
  Ok = Ok && verify();
  if (Ok) {
    Span Phase("instrument.pass");
    Stats = instrument::instrumentModule(*M, Opts);
  }
  Ok = Ok && verify();
  if (Ok && Opts.MergeCrossBlockChecks && Opts.V != instrument::Variant::None) {
    {
      Span Phase("instrument.pass");
      instrument::MergeStats Merged = instrument::mergeCrossBlockChecks(*M);
      Stats.ElidedCrossBlock = Merged.merged();
      Stats.TypeChecks -= Merged.MergedTypeChecks;
      Stats.BoundsGets -= Merged.MergedBoundsGets;
      Stats.BoundsChecks -= Merged.MergedBoundsChecks;
    }
    Ok = verify();
  }
  if (Ok) {
    Span Phase("bytecode.compile");
    BC = bytecode::compile(*M);
  }
  ++R.Attempted;
  if (!BC || Stats.TypeChecks != Reference.Stats.TypeChecks ||
      Stats.BoundsChecks != Reference.Stats.BoundsChecks ||
      Stats.BoundsGets != Reference.Stats.BoundsGets ||
      instCount(*BC) != instCount(*Reference.BC))
    R.fail("minic-vm: %s: phase-by-phase compile differs from compileMiniC",
           S.Name);
}

using Sessions = std::array<std::unique_ptr<Sanitizer>, NumVariants>;

Sessions makeSessions(TypeContext &Types) {
  Sessions S;
  for (unsigned V = 0; V < NumVariants; ++V) {
    SessionOptions Options;
    Options.Policy = Policies[V];
    Options.Reporter.Mode = ReportMode::Count;
    S[V] = std::make_unique<Sanitizer>(Types, Options);
  }
  return S;
}

void runProgram(Compiled &P, unsigned V, Sessions &S, bool Traced,
                Result &R) {
  int64_t Start = nowNs();
  interp::RunResult Run;
  {
    Span Timed(RunSpans[V]);
    Run = bytecode::run(*P.Out[V].BC, *S[V]);
  }
  P.Ms[Traced][V].push_back(double(nowNs() - Start) / 1e6);
  if (V == VFull) {
    P.FullSteps = Run.Steps;
    P.FullChecks = Run.Checks;
  }
  ++R.Attempted;
  if (!Run.Ok || Run.ExitCode != P.Src.Expected)
    R.fail("minic-vm: %s under %s: exit %lld (%s), expected %lld",
           P.Src.Name, checkPolicyName(Policies[V]).data(),
           static_cast<long long>(Run.ExitCode), Run.Fault.c_str(),
           static_cast<long long>(P.Src.Expected));
  else if (P.Src.Planted.empty() && Run.IssuesReported)
    R.fail("minic-vm: %s under %s: clean program reported %llu issues",
           P.Src.Name, checkPolicyName(Policies[V]).data(),
           static_cast<unsigned long long>(Run.IssuesReported));
}

/// Untimed checks on fresh Full sessions: the tree-walker agrees with
/// the native value, the defects program reports exactly its planted
/// classes, and the Full run's peak heap is recorded (Figure 9).
void checkFresh(Compiled &P, TypeContext &Types, Result &R) {
  SessionOptions Options;
  Options.Policy = CheckPolicy::Full;
  Options.Reporter.Mode = ReportMode::Count;
  {
    Sanitizer Session(Types, Options);
    interp::RunResult Walk = interp::run(*P.Out[VFull].M, Session);
    ++R.Attempted;
    if (!Walk.Ok || Walk.ExitCode != P.Src.Expected)
      R.fail("minic-vm: %s: tree-walker exit %lld, expected %lld",
             P.Src.Name, static_cast<long long>(Walk.ExitCode),
             static_cast<long long>(P.Src.Expected));
  }
  Sanitizer Session(Types, Options);
  interp::RunResult Run = bytecode::run(*P.Out[VFull].BC, Session);
  P.FullPeak = Session.runtime().heap().stats().PeakBlockBytesInUse;
  ++R.Attempted;
  const ErrorKind Kinds[] = {ErrorKind::TypeError, ErrorKind::BoundsError,
                             ErrorKind::UseAfterFree, ErrorKind::DoubleFree,
                             ErrorKind::StackUseAfterReturn,
                             ErrorKind::ResourceExhausted};
  for (ErrorKind K : Kinds) {
    bool Planted = std::find(P.Src.Planted.begin(), P.Src.Planted.end(),
                             K) != P.Src.Planted.end();
    uint64_t Found = Session.reporter().numIssues(K);
    if (Found != (Planted ? 1u : 0u)) {
      R.fail("minic-vm: %s: %llu %s issues, planted %u", P.Src.Name,
             static_cast<unsigned long long>(Found), errorKindName(K),
             Planted ? 1u : 0u);
      return;
    }
  }
  if (!Run.Ok || Run.ExitCode != P.Src.Expected)
    R.fail("minic-vm: %s: fresh Full run exit %lld", P.Src.Name,
           static_cast<long long>(Run.ExitCode));
}

template <typename Sampler>
std::vector<Metric> endToEnd(const std::vector<Compiled> &Programs,
                             bool Traced, const Sampler &Setup) {
  std::vector<VariantTimes> Items;
  std::vector<double> Mem;
  for (const Compiled &P : Programs) {
    Items.push_back(P.Ms[Traced]);
    Mem.push_back(double(P.FullPeak) / double(P.Src.NativePeak));
  }
  return variantMetrics(Items, fullStats(Items), Setup.medianS(),
                        Setup.samples(), geomean(Mem), Mem.size(),
                        Setup.RssMb);
}

} // namespace

void perfbench::runMinicVm(const Options &O, Result &R) {
  Rng Rand(O.Seed);
  std::vector<Source> Sources = {arrayProgram(Rand), listProgram(Rand),
                                 upcastProgram(Rand), churnProgram(Rand),
                                 defectsProgram(Rand)};

  // Set-up: compiling the corpus under all four variants.
  SetupSampler Setup([&] { return compileCorpus(Sources, R); });
  Corpus C = Setup.first();
  Sessions S = makeSessions(*C.Types);

  // Warm-up round, then timed rounds (at least two) until the budget is
  // spent. A round runs every program under every variant, the program
  // order and each program's variant order drawn from the seed.
  auto round = [&](bool Traced) {
    std::vector<unsigned> Order(C.Programs.size());
    for (unsigned I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rand.next() % I]);
    for (unsigned PI : Order) {
      std::array<unsigned, NumVariants> VOrder = {VNone, VType, VBounds,
                                                  VFull};
      for (size_t I = NumVariants; I > 1; --I)
        std::swap(VOrder[I - 1], VOrder[Rand.next() % I]);
      for (unsigned V : VOrder)
        runProgram(C.Programs[PI], V, S, Traced, R);
    }
  };
  round(false);
  for (Compiled &P : C.Programs)
    for (VariantTimes &T : P.Ms)
      for (std::vector<double> &V : T)
        V.clear();
  int64_t Deadline = nowNs() + int64_t(O.Seconds * 1e9);
  Setup.start(O.Seconds);
  for (unsigned Rounds = 0; Rounds < 2 || nowNs() < Deadline; ++Rounds) {
    bool Traced = O.Trace && (Rounds & 1);
    Tracer::instance().enable(Traced);
    round(Traced);
    Tracer::instance().enable(false);
    Setup.between();
  }
  Setup.finish();

  for (Compiled &P : C.Programs)
    checkFresh(P, *C.Types, R);

  std::vector<Metric> Untraced = endToEnd(C.Programs, false, Setup);
  R.EndToEnd = Untraced;

  std::printf("\n%-8s %8s %8s %8s %8s %7s %7s %7s %6s %10s\n", "program",
              "none_ms", "type_ms", "bnds_ms", "full_ms", "ov.type",
              "ov.bnds", "ov.full", "mem.x", "exit");
  for (const Compiled &P : C.Programs) {
    const VariantTimes &T = P.Ms[0];
    std::printf("%-8s %8.3f %8.3f %8.3f %8.3f %6.2fx %6.2fx %6.2fx %5.2fx "
                "%10lld\n",
                P.Src.Name, median(T[VNone]), median(T[VType]),
                median(T[VBounds]), median(T[VFull]),
                pairedRatio(T[VType], T[VNone]),
                pairedRatio(T[VBounds], T[VNone]),
                pairedRatio(T[VFull], T[VNone]),
                double(P.FullPeak) / double(P.Src.NativePeak),
                static_cast<long long>(P.Src.Expected));
  }
  if (!O.Trace)
    return;

  std::vector<Metric> Traced = endToEnd(C.Programs, true, Setup);
  printTraceOverhead(Untraced, Traced);

  // The pipeline phase by phase, five times over the corpus.
  constexpr unsigned Reps = 5;
  Tracer::instance().enable(true);
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (const Compiled &P : C.Programs)
      for (unsigned V = 0; V < NumVariants; ++V)
        tracedCompile(P.Src, V, P.Out[V], R);
  Tracer::instance().enable(false);

  uint64_t Static = 0, Elided = 0, Insts = 0, Steps = 0, Exec = 0;
  double FullMs = 0;
  for (const Compiled &P : C.Programs) {
    const instrument::InstrumentStats &St = P.Out[VFull].Stats;
    Static += St.TypeChecks + St.BoundsGets + St.BoundsChecks +
              St.BoundsNarrows;
    Elided += St.ElidedNeverFail + St.ElidedSubsumed + St.ElidedCrossBlock;
    Insts += instCount(*P.Out[VFull].BC);
    Steps += P.FullSteps;
    Exec += P.FullChecks.TypeChecks + P.FullChecks.BoundsGets +
            P.FullChecks.BoundsChecks + P.FullChecks.BoundsNarrows;
    FullMs += median(P.Ms[0][VFull]);
  }
  auto perCorpusMs = [&](const char *Name) {
    return Tracer::instance().find(Name).TotalNs / 1e6 / Reps;
  };
  uint64_t N = C.Programs.size() * NumVariants;
  R.layer("minic.parse_ms", perCorpusMs("minic.parse"), "ms", N * Reps);
  R.layer("minic.sema_ms", perCorpusMs("minic.sema"), "ms", N * Reps);
  R.layer("instrument.lower_ms", perCorpusMs("instrument.lower"), "ms",
          N * Reps);
  R.layer("instrument.pass_ms", perCorpusMs("instrument.pass"), "ms",
          N * Reps);
  R.layer("ir.verify_ms", perCorpusMs("ir.verify"), "ms", N * Reps);
  R.layer("bytecode.compile_ms", perCorpusMs("bytecode.compile"), "ms",
          N * Reps);
  R.layer("instrument.static_checks", double(Static), "count",
          C.Programs.size());
  R.layer("instrument.elided_checks", double(Elided), "count",
          C.Programs.size());
  R.layer("core.exec_checks", double(Exec), "count", C.Programs.size());
  R.layer("bytecode.insts", double(Insts), "count", C.Programs.size());
  R.layer("bytecode.steps", double(Steps), "count", C.Programs.size());
  R.layer("bytecode.ns_per_step", Steps ? FullMs * 1e6 / double(Steps) : 0,
          "ns", C.Programs.size());
}
