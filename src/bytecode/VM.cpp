//===- bytecode/VM.cpp - Direct-threaded bytecode VM ----------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dispatch loop. Two strategies behind one macro pair:
///
///   * computed-goto (GCC/Clang default): every handler ends in its own
///     indirect `goto *Labels[op]`, so the branch predictor sees one
///     distinct indirect branch per opcode instead of the single
///     shared dispatch branch a `switch` loop funnels everything
///     through — the classic direct-threading win;
///   * portable `switch` loop (EFFSAN_BC_SWITCH_DISPATCH, or any
///     compiler without labels-as-values).
///
/// Frames live on flat reused stacks (registers, bounds, slot
/// pointers): a call is three resize()s that normally touch no
/// allocator, and the per-frame views are raw pointers refreshed after
/// anything that can grow the stacks. Calls recurse on the host stack,
/// which is what enforces MaxCallDepth exactly like the tree-walker.
///
/// Semantics are shared with the tree-walker through
/// interp/ExecSupport.h; the check opcodes and superinstructions call
/// the tree-walker's exec::CheckFront, bump the same ExecutedChecks
/// counters in the same order, and preserve the null-pointer
/// short-circuits — the differential tests (tests/bytecode_test.cpp)
/// hold every program to identical results, checks, faults and reports.
///
//===----------------------------------------------------------------------===//

#include "bytecode/VM.h"

#include "api/Sanitizer.h"
#include "interp/ExecSupport.h"

#include <algorithm>
#include <cstring>
#include <vector>

using namespace effective;
using namespace effective::bytecode;

#if !defined(EFFSAN_BC_SWITCH_DISPATCH) &&                                     \
    (defined(__GNUC__) || defined(__clang__))
#define EFFSAN_BC_COMPUTED_GOTO 1
#else
#define EFFSAN_BC_COMPUTED_GOTO 0
#endif

const char *bytecode::dispatchStrategy() {
#if EFFSAN_BC_COMPUTED_GOTO
  return "computed-goto";
#else
  return "switch";
#endif
}

namespace {

using exec::Value;

/// Integer canonicalization from the compile-time Norm kind; must agree
/// with exec::normalizeInt, which the compiler folded it from.
EFFSAN_ALWAYS_INLINE Value applyNorm(uint64_t Bits, Value V) {
  switch (static_cast<Norm>(Bits & 0xFF)) {
  case Norm::None:
    break;
  case Norm::Bool:
    V.U &= 1;
    break;
  case Norm::S8:
    V.I = static_cast<int8_t>(V.U);
    break;
  case Norm::U8:
    V.U = static_cast<uint8_t>(V.U);
    break;
  case Norm::S16:
    V.I = static_cast<int16_t>(V.U);
    break;
  case Norm::U16:
    V.U = static_cast<uint16_t>(V.U);
    break;
  case Norm::S32:
    V.I = static_cast<int32_t>(V.U);
    break;
  case Norm::U32:
    V.U = static_cast<uint32_t>(V.U);
    break;
  }
  return V;
}

template <typename T>
EFFSAN_ALWAYS_INLINE bool cmpApply(ir::Pred P, T A, T B) {
  switch (P) {
  case ir::Pred::Eq:
    return A == B;
  case ir::Pred::Ne:
    return A != B;
  case ir::Pred::Lt:
    return A < B;
  case ir::Pred::Le:
    return A <= B;
  case ir::Pred::Gt:
    return A > B;
  case ir::Pred::Ge:
    return A >= B;
  }
  return false;
}

class VM {
public:
  VM(const Program &Prog, Runtime &RT, const RunOptions &Opts,
     CheckPolicy Policy)
      : Prog(Prog), RT(RT), Front(RT, Policy), Opts(Opts), Guard(RT) {}

  RunResult run(std::string_view Entry) {
    RunResult R;
    uint64_t IssuesBefore = RT.reporter().numIssues();
    const ir::Module &M = *Prog.M;
    // Module load mirrors the tree-walker: register the site table,
    // then materialize globals and strings through the typed allocator.
    Front.loadSites(M);
    Image.allocate(M, RT);
    if (const BcFunction *Init = Prog.find("__global_init"))
      callFunction(*Init, ArgStack.size(), 0);
    const BcFunction *Main = Prog.find(Entry);
    if (!Main)
      fault("entry function '" + std::string(Entry) + "' not found");
    if (!Faulted) {
      Value Ret = callFunction(*Main, ArgStack.size(), 0);
      R.ExitCode = Ret.I;
    }
    R.Ok = !Faulted;
    R.Fault = std::move(FaultMsg);
    R.Output = std::move(Output);
    R.Steps = Steps;
    R.Checks = Checks;
    R.IssuesReported = RT.reporter().numIssues() - IssuesBefore;
    return R;
  }

private:
  void fault(std::string Msg) {
    if (!Faulted) {
      Faulted = true;
      FaultMsg = std::move(Msg);
    }
  }

  /// Host validation for every guest load/store. The in-arena fast
  /// path is two compares and constructs nothing; null pointers,
  /// legacy blocks and fault rendering all take the out-of-line path
  /// (HostGuard::validate repeats the arena probe there, so the
  /// messages stay byte-identical to the tree-walker's).
  EFFSAN_ALWAYS_INLINE void *validate(Value Addr, uint64_t Size,
                                      const char *What) {
    char *P = static_cast<char *>(Addr.P);
    if (EFFSAN_LIKELY(P && RT.heap().isInArena(P) &&
                      RT.heap().isInArena(P + Size)))
      return P;
    return validateCold(Addr, Size, What);
  }

  EFFSAN_NOINLINE void *validateCold(Value Addr, uint64_t Size,
                                     const char *What) {
    std::string Msg;
    void *P = Guard.validate(Addr, Size, What, Msg);
    if (!P)
      fault(std::move(Msg));
    return P;
  }

  //===--------------------------------------------------------------------===//
  // Frames and calls
  //===--------------------------------------------------------------------===//

  /// Calls \p F with \p NArgs argument values sitting at
  /// ArgStack[ArgBase..]; pops them. Frames are carved from the flat
  /// stacks and zero/wide-initialized exactly like the tree-walker's
  /// per-call vectors.
  Value callFunction(const BcFunction &F, size_t ArgBase, uint32_t NArgs) {
    Value Ret{0};
    if (Faulted) {
      ArgStack.resize(ArgBase);
      return Ret;
    }
    if (++CallDepth > Opts.MaxCallDepth) {
      --CallDepth;
      ArgStack.resize(ArgBase);
      fault("call depth limit exceeded in @" + F.Name);
      return Ret;
    }

    size_t RegBase = RegStack.size();
    size_t BndBase = BndStack.size();
    size_t SlotBase = SlotStack.size();
    RegStack.resize(RegBase + F.NumRegs, Value{0});
    BndStack.resize(BndBase + F.NumBRegs, Bounds::wide());
    uint32_t NCopy =
        std::min<uint32_t>(NArgs, static_cast<uint32_t>(F.ParamRegs.size()));
    for (uint32_t I = 0; I < NCopy; ++I)
      RegStack[RegBase + F.ParamRegs[I]] = ArgStack[ArgBase + I];
    ArgStack.resize(ArgBase);

    size_t Mark = RT.stackMark();
    for (const SlotDesc &S : F.Slots) {
      // Null on exhaustion (real OOM or an induced fault) — already
      // reported RESOURCE-EXHAUSTED; the slot stays null and accesses
      // through it fault as null derefs instead of memset crashing.
      void *P = RT.stackAllocate(S.Size, S.ElemType, S.Escapes);
      if (P)
        std::memset(P, 0, S.Size);
      SlotStack.push_back(P);
    }

    Ret = execute(F, RegBase, BndBase, SlotBase);

    RT.stackRelease(Mark);
    SlotStack.resize(SlotBase);
    RegStack.resize(RegBase);
    BndStack.resize(BndBase);
    --CallDepth;
    return Ret;
  }

  Value execute(const BcFunction &F, size_t RegBase, size_t BndBase,
                size_t SlotBase);

  const Program &Prog;
  Runtime &RT;
  exec::CheckFront Front;
  const RunOptions &Opts;

  exec::HostGuard Guard;
  exec::ModuleImage Image;

  /// Flat frame stacks, reused across the whole run; a frame is a base
  /// offset into each.
  std::vector<Value> RegStack;
  std::vector<Bounds> BndStack;
  std::vector<void *> SlotStack;
  /// Outgoing-argument staging area (caller pushes, callee pops).
  std::vector<Value> ArgStack;

  std::string Output;
  uint64_t Steps = 0;
  uint64_t CallDepth = 0;
  ExecutedChecks Checks;
  bool Faulted = false;
  std::string FaultMsg;
};

/// Faults and unwinds the dispatch loop (sticky, first message wins —
/// same as the tree-walker).
#define BC_FAULT(MsgExpr)                                                      \
  do {                                                                         \
    fault(MsgExpr);                                                            \
    BC_RET(Zero);                                                              \
  } while (0)

/// Returns \p V with the register-resident step counter flushed back to
/// the member (every exit from the dispatch loop must go through this —
/// see LSteps below).
#define BC_RET(V)                                                              \
  do {                                                                         \
    Steps = LSteps;                                                            \
    return (V);                                                                \
  } while (0)

// Cache-line aligned: the dispatch loop's speed moved by about 5% with
// its placement alone.
EFFSAN_CODE_ALIGN(64)
Value VM::execute(const BcFunction &F, size_t RegBase, size_t BndBase,
                  size_t SlotBase) {
  Value Zero{0};
  if (EFFSAN_UNLIKELY(F.Code.empty())) {
    fault("fell off the end of a block in @" + F.Name);
    return Zero;
  }
  const Inst *CodeBase = F.Code.data();
  const Inst *IP = CodeBase;
  const Inst *In = nullptr;
  Value *R = RegStack.data() + RegBase;
  Bounds *BR = BndStack.data() + BndBase;
  void **SL = SlotStack.data() + SlotBase;
  // The step counter lives in a local for the whole dispatch loop (the
  // member would cost a load+store per instruction through `this`);
  // synced with the member around calls and on every exit, so the
  // budget stays cumulative across the call tree.
  uint64_t LSteps = Steps;

#if EFFSAN_BC_COMPUTED_GOTO
  // One label per opcode, in EFFSAN_BC_OPCODE_LIST order (the enum's).
  static const void *const Labels[NumBcOps] = {
#define EFFSAN_BC_LABEL(Name) &&L_##Name,
      EFFSAN_BC_OPCODE_LIST(EFFSAN_BC_LABEL)
#undef EFFSAN_BC_LABEL
  };
#define BC_CASE(Name) L_##Name:
#define BC_NEXT()                                                              \
  do {                                                                         \
    if (EFFSAN_UNLIKELY(++LSteps > Opts.MaxSteps)) {                           \
      fault("instruction budget exhausted in @" + F.Name);                     \
      BC_RET(Zero);                                                            \
    }                                                                          \
    In = IP++;                                                                 \
    goto *Labels[static_cast<size_t>(In->Op)];                                 \
  } while (0)
  BC_NEXT();
#else
#define BC_CASE(Name) case BcOp::Name:
#define BC_NEXT() break
  for (;;) {
    if (EFFSAN_UNLIKELY(++LSteps > Opts.MaxSteps)) {
      fault("instruction budget exhausted in @" + F.Name);
      BC_RET(Zero);
    }
    In = IP++;
    switch (In->Op) {
#endif

  //===------------------------------------------------------------------===//
  // Constants and moves
  //===------------------------------------------------------------------===//

  BC_CASE(ConstInt) { R[In->A].U = In->Imm; }
  BC_NEXT();

  BC_CASE(ConstFloat) { std::memcpy(&R[In->A].F, &In->Aux, sizeof(double)); }
  BC_NEXT();

  BC_CASE(ConstNull) { R[In->A].P = nullptr; }
  BC_NEXT();

  BC_CASE(StringAddr) {
    R[In->A].P = Image.StringAddrs[In->Imm];
    if (In->B != NoR16)
      BR[In->B] = Bounds::forObject(Image.StringAddrs[In->Imm],
                                    Image.StringSizes[In->Imm]);
  }
  BC_NEXT();

  BC_CASE(GlobalAddr) {
    R[In->A].P = Image.GlobalAddrs[In->Imm];
    if (In->B != NoR16)
      BR[In->B] = Bounds::forObject(Image.GlobalAddrs[In->Imm],
                                    Image.GlobalSizes[In->Imm]);
  }
  BC_NEXT();

  BC_CASE(SlotAddr) {
    R[In->A].P = SL[In->Imm];
    if (In->B != NoR16)
      BR[In->B] = Bounds::forObject(SL[In->Imm], F.Slots[In->Imm].Size);
  }
  BC_NEXT();

  BC_CASE(Copy) { R[In->A] = R[In->B]; }
  BC_NEXT();

  BC_CASE(CopyB) {
    R[In->A] = R[In->B];
    uint32_t BS = static_cast<uint32_t>(In->Aux);
    BR[In->Aux >> 32] = BS != NoB32 ? BR[BS] : Bounds::wide();
  }
  BC_NEXT();

  //===------------------------------------------------------------------===//
  // Arithmetic, comparison, conversion
  //===------------------------------------------------------------------===//

  BC_CASE(AddI) {
    Value V;
    V.U = R[In->B].U + R[In->C].U;
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(SubI) {
    Value V;
    V.U = R[In->B].U - R[In->C].U;
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(MulI) {
    Value V;
    V.U = R[In->B].U * R[In->C].U;
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(DivI) {
    Value A = R[In->B], B = R[In->C], V;
    V.U = 0;
    if (B.U != 0) {
      if (In->Imm & ArithUnsigned)
        V.U = A.U / B.U;
      else if (A.I == INT64_MIN && B.I == -1)
        V.I = A.I;
      else
        V.I = A.I / B.I;
    }
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(RemI) {
    Value A = R[In->B], B = R[In->C], V;
    V.U = 0;
    if (B.U != 0) {
      if (In->Imm & ArithUnsigned)
        V.U = A.U % B.U;
      else if (A.I == INT64_MIN && B.I == -1)
        V.I = 0;
      else
        V.I = A.I % B.I;
    }
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(AndI) {
    Value V;
    V.U = R[In->B].U & R[In->C].U;
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(OrI) {
    Value V;
    V.U = R[In->B].U | R[In->C].U;
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(XorI) {
    Value V;
    V.U = R[In->B].U ^ R[In->C].U;
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(ShlI) {
    Value V;
    V.U = R[In->B].U << (R[In->C].U & 63);
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(ShrI) {
    Value V;
    if (In->Imm & ArithUnsigned)
      V.U = R[In->B].U >> (R[In->C].U & 63);
    else
      V.I = R[In->B].I >> (R[In->C].U & 63);
    R[In->A] = applyNorm(In->Imm, V);
  }
  BC_NEXT();

  BC_CASE(AddF) { R[In->A].F = R[In->B].F + R[In->C].F; }
  BC_NEXT();

  BC_CASE(SubF) { R[In->A].F = R[In->B].F - R[In->C].F; }
  BC_NEXT();

  BC_CASE(MulF) { R[In->A].F = R[In->B].F * R[In->C].F; }
  BC_NEXT();

  BC_CASE(DivF) {
    double D = R[In->C].F;
    R[In->A].F = D != 0 ? R[In->B].F / D : 0;
  }
  BC_NEXT();

  BC_CASE(CmpS) {
    R[In->A].I =
        cmpApply(static_cast<ir::Pred>(In->Imm), R[In->B].I, R[In->C].I) ? 1
                                                                         : 0;
  }
  BC_NEXT();

  BC_CASE(CmpU) {
    R[In->A].I =
        cmpApply(static_cast<ir::Pred>(In->Imm), R[In->B].U, R[In->C].U) ? 1
                                                                         : 0;
  }
  BC_NEXT();

  BC_CASE(CmpF) {
    R[In->A].I =
        cmpApply(static_cast<ir::Pred>(In->Imm), R[In->B].F, R[In->C].F) ? 1
                                                                         : 0;
  }
  BC_NEXT();

  BC_CASE(Convert) {
    Value V;
    if (EFFSAN_UNLIKELY(!exec::evalConvert(
            R[In->B], reinterpret_cast<const TypeInfo *>(In->Aux), In->Type,
            V)))
      BC_FAULT("convert with untyped source register");
    R[In->A] = V;
  }
  BC_NEXT();

  //===------------------------------------------------------------------===//
  // Address computation
  //===------------------------------------------------------------------===//

  BC_CASE(FieldAddr) { R[In->A].U = R[In->B].U + In->Imm; }
  BC_NEXT();

  BC_CASE(FieldAddrB) {
    R[In->A].U = R[In->B].U + In->Imm;
    uint32_t BS = static_cast<uint32_t>(In->Aux);
    BR[In->Aux >> 32] = BS != NoB32 ? BR[BS] : Bounds::wide();
  }
  BC_NEXT();

  BC_CASE(IndexAddr) {
    R[In->A].U =
        R[In->B].U +
        static_cast<uint64_t>(R[In->C].I * static_cast<int64_t>(In->Imm));
  }
  BC_NEXT();

  BC_CASE(IndexAddrB) {
    R[In->A].U =
        R[In->B].U +
        static_cast<uint64_t>(R[In->C].I * static_cast<int64_t>(In->Imm));
    uint32_t BS = static_cast<uint32_t>(In->Aux);
    BR[In->Aux >> 32] = BS != NoB32 ? BR[BS] : Bounds::wide();
  }
  BC_NEXT();

  BC_CASE(PtrDiff) {
    R[In->A].I = (R[In->B].I - R[In->C].I) / static_cast<int64_t>(In->Imm);
  }
  BC_NEXT();

  //===------------------------------------------------------------------===//
  // Memory
  //===------------------------------------------------------------------===//

  BC_CASE(Load) {
    void *HP = validate(R[In->B], In->Type->size(), "load");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::loadScalar(HP, In->Type, R[In->A])))
      BC_FAULT("load of unsupported type " + In->Type->str());
  }
  BC_NEXT();

  BC_CASE(Store) {
    void *HP = validate(R[In->A], In->Type->size(), "store");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::storeScalar(HP, In->Type, R[In->B])))
      BC_FAULT("store of unsupported type " + In->Type->str());
  }
  BC_NEXT();

  BC_CASE(Malloc) {
    uint64_t Size = R[In->B].U;
    if (EFFSAN_UNLIKELY(Size > (uint64_t(1) << 40)))
      BC_FAULT("implausible malloc size");
    // A failed allocation was reported RESOURCE-EXHAUSTED and surfaces
    // as a null result, like C malloc. Never whitelist null with the
    // guard (that would validate wild accesses at [0, Size)); null
    // gets wide bounds, as any legacy pointer.
    void *P = RT.allocate(Size, In->Type);
    if (P && !RT.heap().isLowFat(P))
      Guard.noteLegacy(P, Size);
    R[In->A].P = P;
    if (In->C != NoR16)
      BR[In->C] = P ? Bounds::forObject(P, Size) : Bounds::wide();
  }
  BC_NEXT();

  BC_CASE(Free) { RT.deallocate(R[In->A].P); }
  BC_NEXT();

  //===------------------------------------------------------------------===//
  // Calls and control flow
  //===------------------------------------------------------------------===//

  BC_CASE(Call) {
    const uint16_t *Ar = Prog.ArgPool.data() + In->Aux;
    uint32_t N = In->C;
    size_t AB = ArgStack.size();
    ArgStack.resize(AB + N);
    for (uint32_t I = 0; I < N; ++I)
      ArgStack[AB + I] = R[Ar[I]];
    Steps = LSteps;
    Value Ret = callFunction(Prog.Funcs[In->Imm], AB, N);
    LSteps = Steps;
    // The callee may have grown (reallocated) any of the flat stacks.
    R = RegStack.data() + RegBase;
    BR = BndStack.data() + BndBase;
    SL = SlotStack.data() + SlotBase;
    if (In->A != NoR16)
      R[In->A] = Ret;
    if (EFFSAN_UNLIKELY(Faulted))
      BC_RET(Zero);
  }
  BC_NEXT();

  BC_CASE(CallBuiltin) {
    const uint16_t *Ar = Prog.ArgPool.data() + In->Aux;
    switch (static_cast<ir::BuiltinId>(In->Imm)) {
    case ir::BuiltinId::PrintInt:
      exec::printInt(R[Ar[0]].I, Output);
      break;
    case ir::BuiltinId::PrintFloat:
      exec::printFloat(R[Ar[0]].F, Output);
      break;
    case ir::BuiltinId::PrintStr:
      exec::printStr(R[Ar[0]], Output,
                     [this](Value V, uint64_t Size, const char *What) {
                       return Faulted ? nullptr : validate(V, Size, What);
                     });
      break;
    }
    if (EFFSAN_UNLIKELY(Faulted))
      BC_RET(Zero);
  }
  BC_NEXT();

  BC_CASE(Ret) {
    Value V = Zero;
    if (In->A != NoR16)
      V = R[In->A];
    BC_RET(V);
  }
  BC_NEXT();

  BC_CASE(Br) { IP = CodeBase + In->Imm; }
  BC_NEXT();

  BC_CASE(CondBr) { IP = CodeBase + (R[In->A].U != 0 ? In->Imm : In->Aux); }
  BC_NEXT();

  //===------------------------------------------------------------------===//
  // Checks (unfused)
  //===------------------------------------------------------------------===//

  BC_CASE(TypeCheck) {
    ++Checks.TypeChecks;
    void *P = R[In->A].P;
    BR[In->B] = P ? Front.typeCheck(P, In->Type, static_cast<SiteId>(In->Imm))
                  : Bounds::wide();
  }
  BC_NEXT();

  BC_CASE(BoundsGet) {
    ++Checks.BoundsGets;
    void *P = R[In->A].P;
    BR[In->B] =
        P ? Front.boundsGet(P, static_cast<SiteId>(In->Imm)) : Bounds::wide();
  }
  BC_NEXT();

  BC_CASE(BoundsCheck) {
    ++Checks.BoundsChecks;
    void *P = R[In->A].P;
    if (P)
      Front.boundsCheck(P, In->Aux, BR[In->B], static_cast<SiteId>(In->Imm));
  }
  BC_NEXT();

  BC_CASE(BoundsNarrow) {
    ++Checks.BoundsNarrows;
    BR[In->B] = Front.boundsNarrow(BR[In->C], R[In->A].P, In->Imm);
  }
  BC_NEXT();

  BC_CASE(WideBounds) { BR[In->B] = Bounds::wide(); }
  BC_NEXT();

  BC_CASE(Trap) {
    if (In->Imm == TrapFloatBitwise)
      BC_FAULT("bitwise arithmetic on floating type");
    BC_FAULT("fell off the end of a block in @" + F.Name);
  }
  BC_NEXT();

  //===------------------------------------------------------------------===//
  // Check superinstructions: one dispatch for check+bounds+access. The
  // component counters, null short-circuits and runtime entry points
  // are exactly the unfused sequence's — only the dispatches between
  // them are gone.
  //===------------------------------------------------------------------===//

  BC_CASE(TypeCheckBounds) {
    ++Checks.TypeChecks;
    void *P = R[In->A].P;
    Bounds Bv = P ? Front.typeCheck(P, In->Type,
                                    static_cast<SiteId>(In->Imm & 0xFFFFFFFF))
                  : Bounds::wide();
    BR[In->B] = Bv;
    ++Checks.BoundsChecks;
    if (P)
      Front.boundsCheck(P, In->Aux, Bv, static_cast<SiteId>(In->Imm >> 32));
  }
  BC_NEXT();

  BC_CASE(TypeCheckLoad) {
    ++Checks.TypeChecks;
    void *P = R[In->A].P;
    Bounds Bv = P ? Front.typeCheck(P, In->Type,
                                    static_cast<SiteId>(In->Imm & 0xFFFFFFFF))
                  : Bounds::wide();
    BR[In->B] = Bv;
    if (In->Aux) {
      ++Checks.BoundsChecks;
      if (P)
        Front.boundsCheck(P, In->Aux, Bv, static_cast<SiteId>(In->Imm >> 32));
    }
    void *HP = validate(R[In->A], In->Type->size(), "load");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::loadScalar(HP, In->Type, R[In->C])))
      BC_FAULT("load of unsupported type " + In->Type->str());
  }
  BC_NEXT();

  BC_CASE(TypeCheckStore) {
    ++Checks.TypeChecks;
    void *P = R[In->A].P;
    Bounds Bv = P ? Front.typeCheck(P, In->Type,
                                    static_cast<SiteId>(In->Imm & 0xFFFFFFFF))
                  : Bounds::wide();
    BR[In->B] = Bv;
    if (In->Aux) {
      ++Checks.BoundsChecks;
      if (P)
        Front.boundsCheck(P, In->Aux, Bv, static_cast<SiteId>(In->Imm >> 32));
    }
    void *HP = validate(R[In->A], In->Type->size(), "store");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::storeScalar(HP, In->Type, R[In->C])))
      BC_FAULT("store of unsupported type " + In->Type->str());
  }
  BC_NEXT();

  BC_CASE(BoundsGetCheck) {
    ++Checks.BoundsGets;
    void *P = R[In->A].P;
    Bounds Bv =
        P ? Front.boundsGet(P, static_cast<SiteId>(In->Imm & 0xFFFFFFFF))
          : Bounds::wide();
    BR[In->B] = Bv;
    ++Checks.BoundsChecks;
    if (P)
      Front.boundsCheck(P, In->Aux, Bv, static_cast<SiteId>(In->Imm >> 32));
  }
  BC_NEXT();

  BC_CASE(BoundsGetCheckLoad) {
    ++Checks.BoundsGets;
    void *P = R[In->A].P;
    Bounds Bv =
        P ? Front.boundsGet(P, static_cast<SiteId>(In->Imm & 0xFFFFFFFF))
          : Bounds::wide();
    BR[In->B] = Bv;
    if (In->Aux) {
      ++Checks.BoundsChecks;
      if (P)
        Front.boundsCheck(P, In->Aux, Bv, static_cast<SiteId>(In->Imm >> 32));
    }
    void *HP = validate(R[In->A], In->Type->size(), "load");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::loadScalar(HP, In->Type, R[In->C])))
      BC_FAULT("load of unsupported type " + In->Type->str());
  }
  BC_NEXT();

  BC_CASE(BoundsGetCheckStore) {
    ++Checks.BoundsGets;
    void *P = R[In->A].P;
    Bounds Bv =
        P ? Front.boundsGet(P, static_cast<SiteId>(In->Imm & 0xFFFFFFFF))
          : Bounds::wide();
    BR[In->B] = Bv;
    if (In->Aux) {
      ++Checks.BoundsChecks;
      if (P)
        Front.boundsCheck(P, In->Aux, Bv, static_cast<SiteId>(In->Imm >> 32));
    }
    void *HP = validate(R[In->A], In->Type->size(), "store");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::storeScalar(HP, In->Type, R[In->C])))
      BC_FAULT("store of unsupported type " + In->Type->str());
  }
  BC_NEXT();

  BC_CASE(BoundsCheckLoad) {
    ++Checks.BoundsChecks;
    void *P = R[In->A].P;
    if (P)
      Front.boundsCheck(P, In->Aux, BR[In->B], static_cast<SiteId>(In->Imm));
    void *HP = validate(R[In->A], In->Type->size(), "load");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::loadScalar(HP, In->Type, R[In->C])))
      BC_FAULT("load of unsupported type " + In->Type->str());
  }
  BC_NEXT();

  BC_CASE(BoundsCheckStore) {
    ++Checks.BoundsChecks;
    void *P = R[In->A].P;
    if (P)
      Front.boundsCheck(P, In->Aux, BR[In->B], static_cast<SiteId>(In->Imm));
    void *HP = validate(R[In->A], In->Type->size(), "store");
    if (EFFSAN_UNLIKELY(!HP))
      BC_RET(Zero);
    if (EFFSAN_UNLIKELY(!exec::storeScalar(HP, In->Type, R[In->C])))
      BC_FAULT("store of unsupported type " + In->Type->str());
  }
  BC_NEXT();

#if !EFFSAN_BC_COMPUTED_GOTO
    } // switch
  }   // for
#endif
#undef BC_CASE
#undef BC_NEXT
  BC_RET(Zero); // Unreachable: every handler returns or re-dispatches.
}

#undef BC_FAULT
#undef BC_RET

} // namespace

RunResult bytecode::run(const Program &P, Runtime &RT, const RunOptions &Opts,
                        std::string_view Entry, CheckPolicy Policy) {
  VM V(P, RT, Opts, Policy);
  return V.run(Entry);
}

RunResult bytecode::run(const Program &P, Sanitizer &Session,
                        const RunOptions &Opts, std::string_view Entry) {
  return run(P, Session.runtime(), Opts, Entry, Session.policy());
}
