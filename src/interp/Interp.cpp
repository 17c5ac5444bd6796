//===- interp/Interp.cpp - IR interpreter over the runtime ----------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree-walking reference interpreter. It executes ir::Module
/// instruction objects directly — simple, slow, and the differential
/// oracle for the bytecode VM (bytecode/VM.cpp): both engines share
/// their value semantics through interp/ExecSupport.h and must produce
/// identical results, checks and error reports for every program.
///
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "api/Sanitizer.h"
#include "interp/ExecSupport.h"

#include <cstring>
#include <vector>

using namespace effective;
using namespace effective::interp;
using namespace effective::ir;

namespace {

using exec::Value;

/// The VM. Faults (wild accesses, budget exhaustion — not program
/// type/memory errors, which are reported by the runtime and execution
/// continues) set a sticky flag that unwinds the interpreter loop;
/// exceptions are not used anywhere in this project.
class Interpreter {
public:
  /// When \p Session is non-null the check opcodes dispatch through it,
  /// so the session's CheckPolicy governs what executed checks do;
  /// memory management always goes straight to \p RT (allocation is
  /// policy-independent).
  Interpreter(const Module &M, Runtime &RT, const RunOptions &Opts,
              Sanitizer *Session = nullptr)
      : M(M), RT(RT), Session(Session),
        Cell(RT.counters()), Target{RT, *Cell}, Opts(Opts), Guard(RT) {}

  RunResult run(std::string_view Entry) {
    RunResult R;
    uint64_t IssuesBefore = RT.reporter().numIssues();
    // Module load: hand the module's site table to the session, so
    // every check this run executes reports with source attribution.
    // Keyed by the module's process-unique uid — re-running the same
    // module reuses the registered range instead of burning a fresh
    // one, and a later module can never alias a destroyed one.
    if (M.numCheckSites() != 0)
      SiteBase = RT.siteTables().registerTable(M.siteTable(), M.uid());
    Image.allocate(M, RT);
    if (const Function *Init = M.findFunction("__global_init"))
      callFunction(*Init, {});
    const Function *Main = M.findFunction(Entry);
    if (!Main)
      fault("entry function '" + std::string(Entry) + "' not found");
    if (!Faulted) {
      Value Ret = callFunction(*Main, {});
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

  /// Validates a raw access through the shared host-memory safety net
  /// (see exec::HostGuard); returns null and faults otherwise.
  void *validate(Value Addr, uint64_t Size, const char *What) {
    std::string Msg;
    void *P = Guard.validate(Addr, Size, What, Msg);
    if (!P)
      fault(std::move(Msg));
    return P;
  }

  //===--------------------------------------------------------------------===//
  // Frames and calls
  //===--------------------------------------------------------------------===//

  Value callFunction(const Function &F, const std::vector<Value> &Args) {
    Value Ret{0};
    if (Faulted)
      return Ret;
    if (++CallDepth > Opts.MaxCallDepth) {
      --CallDepth;
      fault("call depth limit exceeded in @" + F.name());
      return Ret;
    }

    std::vector<Value> Regs(F.numRegs(), Value{0});
    std::vector<Bounds> BRegs(F.numBRegs(), Bounds::wide());
    for (size_t I = 0; I < Args.size() && I < F.Params.size(); ++I)
      Regs[F.Params[I].R] = Args[I];

    // Typed stack slots through the low-fat stack allocator; released
    // (rebound to FREE) on every exit path — dangling-stack uses after
    // this frame returns are caught as use-after-free.
    size_t Mark = RT.stackMark();
    std::vector<void *> Slots;
    Slots.reserve(F.Slots.size());
    for (const StackSlot &S : F.Slots) {
      // An exhausted stack pool (real OOM or an induced fault) was
      // already reported as RESOURCE-EXHAUSTED by the runtime; the
      // slot stays null and any access through it faults cleanly as a
      // null deref instead of memset scribbling through a null.
      void *P = RT.stackAllocate(S.Size, S.ElemType, S.Escapes);
      if (P)
        std::memset(P, 0, S.Size);
      Slots.push_back(P);
    }

    Ret = execute(F, Regs, BRegs, Slots);
    RT.stackRelease(Mark);
    --CallDepth;
    return Ret;
  }

  Value execute(const Function &F, std::vector<Value> &Regs,
                std::vector<Bounds> &BRegs, std::vector<void *> &Slots) {
    BlockId Cur = 0;
    size_t Idx = 0;
    Value Zero{0};
    for (;;) {
      if (Faulted)
        return Zero;
      if (Cur >= F.Blocks.size() || Idx >= F.Blocks[Cur].Instrs.size()) {
        fault("fell off the end of a block in @" + F.name());
        return Zero;
      }
      const Instr &I = F.Blocks[Cur].Instrs[Idx];
      if (++Steps > Opts.MaxSteps) {
        fault("instruction budget exhausted in @" + F.name());
        return Zero;
      }

      switch (I.Op) {
      case Opcode::ConstInt:
        Regs[I.Dst].U = I.Imm;
        Regs[I.Dst] = exec::normalizeInt(Regs[I.Dst], I.Type);
        break;
      case Opcode::ConstFloat:
        Regs[I.Dst].F = I.FImm;
        break;
      case Opcode::ConstNull:
        Regs[I.Dst].P = nullptr;
        break;
      case Opcode::StringAddr:
        Regs[I.Dst].P = Image.StringAddrs[I.Imm];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] = Bounds::forObject(Image.StringAddrs[I.Imm],
                                            Image.StringSizes[I.Imm]);
        break;
      case Opcode::GlobalAddr:
        Regs[I.Dst].P = Image.GlobalAddrs[I.Imm];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] = Bounds::forObject(Image.GlobalAddrs[I.Imm],
                                            Image.GlobalSizes[I.Imm]);
        break;
      case Opcode::SlotAddr:
        Regs[I.Dst].P = Slots[I.Imm];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              Bounds::forObject(Slots[I.Imm], F.Slots[I.Imm].Size);
        break;
      case Opcode::Copy:
        Regs[I.Dst] = Regs[I.A];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      case Opcode::Arith: {
        Value R;
        if (!exec::evalArith(I.AOp, I.Type, Regs[I.A], Regs[I.B], R))
          fault("bitwise arithmetic on floating type");
        Regs[I.Dst] = R;
        break;
      }
      case Opcode::Compare:
        Regs[I.Dst].I =
            exec::evalCompare(I.CmpPred, I.Type, Regs[I.A], Regs[I.B]) ? 1
                                                                       : 0;
        break;
      case Opcode::Convert: {
        Value R;
        if (!exec::evalConvert(Regs[I.A], F.regType(I.A), I.Type, R))
          fault("convert with untyped source register");
        Regs[I.Dst] = R;
        break;
      }
      case Opcode::PtrCast:
        Regs[I.Dst] = Regs[I.A];
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      case Opcode::FieldAddr: {
        const auto *Rec = cast<RecordType>(I.Type);
        const FieldInfo &Fi = Rec->fields()[I.Imm];
        Regs[I.Dst].U = Regs[I.A].U + Fi.Offset;
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      }
      case Opcode::IndexAddr:
        Regs[I.Dst].U =
            Regs[I.A].U +
            static_cast<uint64_t>(Regs[I.B].I *
                                  static_cast<int64_t>(I.Type->size()));
        if (I.BDst != NoBReg)
          BRegs[I.BDst] =
              I.BSrc != NoBReg ? BRegs[I.BSrc] : Bounds::wide();
        break;
      case Opcode::PtrDiff:
        Regs[I.Dst].I =
            (Regs[I.A].I - Regs[I.B].I) /
            static_cast<int64_t>(I.Type->size() ? I.Type->size() : 1);
        break;
      case Opcode::Load: {
        if (void *P = validate(Regs[I.A], I.Type->size(), "load")) {
          if (!exec::loadScalar(P, I.Type, Regs[I.Dst]))
            fault("load of unsupported type " + I.Type->str());
        }
        break;
      }
      case Opcode::Store: {
        if (void *P = validate(Regs[I.A], I.Type->size(), "store")) {
          if (!exec::storeScalar(P, I.Type, Regs[I.B]))
            fault("store of unsupported type " + I.Type->str());
        }
        break;
      }
      case Opcode::Malloc: {
        uint64_t Size = Regs[I.A].U;
        if (Size > (uint64_t(1) << 40)) {
          fault("implausible malloc size");
          break;
        }
        // A failed allocation (real OOM or an induced exhaustion
        // fault) was reported as RESOURCE-EXHAUSTED by the runtime and
        // surfaces to the program as a null result, exactly like C
        // malloc. Never whitelist null with the guard — that would
        // validate wild accesses at [0, Size) — and give it wide
        // bounds, as any legacy pointer.
        void *P = RT.allocate(Size, I.Type);
        if (P && !RT.heap().isLowFat(P))
          Guard.noteLegacy(P, Size);
        Regs[I.Dst].P = P;
        if (I.BDst != NoBReg)
          BRegs[I.BDst] = P ? Bounds::forObject(P, Size) : Bounds::wide();
        break;
      }
      case Opcode::Free:
        RT.deallocate(Regs[I.A].P);
        break;
      case Opcode::Call: {
        const Function &Callee = *M.Functions[I.Imm];
        std::vector<Value> Args;
        Args.reserve(I.Args.size());
        for (Reg R : I.Args)
          Args.push_back(Regs[R]);
        Value Ret = callFunction(Callee, Args);
        if (I.Dst != NoReg)
          Regs[I.Dst] = Ret;
        break;
      }
      case Opcode::CallBuiltin:
        execBuiltin(static_cast<BuiltinId>(I.Imm), I, Regs);
        break;
      case Opcode::Ret: {
        Value V{0};
        if (I.A != NoReg)
          V = Regs[I.A];
        return V;
      }
      case Opcode::Br:
        Cur = I.Target0;
        Idx = 0;
        continue;
      case Opcode::CondBr:
        Cur = Regs[I.A].U != 0 ? I.Target0 : I.Target1;
        Idx = 0;
        continue;
      case Opcode::TypeCheck:
        ++Checks.TypeChecks;
        BRegs[I.BDst] = Regs[I.A].P
                            ? vmTypeCheck(Regs[I.A].P, I.Type, I.Site)
                            : Bounds::wide();
        break;
      case Opcode::BoundsGet:
        ++Checks.BoundsGets;
        BRegs[I.BDst] = Regs[I.A].P
                            ? vmBoundsGet(Regs[I.A].P, I.Site)
                            : Bounds::wide();
        break;
      case Opcode::BoundsCheck:
        ++Checks.BoundsChecks;
        if (Regs[I.A].P)
          vmBoundsCheck(Regs[I.A].P, I.Imm, BRegs[I.BSrc], I.Site);
        break;
      case Opcode::BoundsNarrow:
        ++Checks.BoundsNarrows;
        BRegs[I.BDst] =
            vmBoundsNarrow(BRegs[I.BSrc], Regs[I.A].P, I.Imm);
        break;
      case Opcode::WideBounds:
        BRegs[I.BDst] = Bounds::wide();
        break;
      }
      ++Idx;
    }
  }

  void execBuiltin(BuiltinId Id, const Instr &I,
                   std::vector<Value> &Regs) {
    switch (Id) {
    case BuiltinId::PrintInt:
      exec::printInt(Regs[I.Args[0]].I, Output);
      break;
    case BuiltinId::PrintFloat:
      exec::printFloat(Regs[I.Args[0]].F, Output);
      break;
    case BuiltinId::PrintStr:
      exec::printStr(Regs[I.Args[0]], Output,
                     [this](Value V, uint64_t Size, const char *What) {
                       return Faulted ? nullptr : validate(V, Size, What);
                     });
      break;
    }
  }

  const Module &M;
  /// \name Check dispatch.
  /// Through the session when one is bound (its CheckPolicy governs
  /// the checks), straight to the runtime otherwise.
  /// @{
  /// Maps a module-local site id into the session's registered range
  /// (identity for unsited instructions and unregistered modules).
  SiteId rebase(SiteId Site) const {
    return (Site == NoSite || SiteBase == NoSite) ? Site
                                                  : SiteBase + Site;
  }

  Bounds vmTypeCheck(const void *P, const TypeInfo *Type, SiteId Site) {
    // Instrumented checks carry a dense per-module site (rebased into
    // the session's registry); hand-built IR has none and takes the
    // type-derived pseudo-site instead.
    Site = Site == NoSite ? siteForType(Type) : rebase(Site);
    return Session ? Session->typeCheck(P, Type, Site, Target)
                   : RT.typeCheck(P, Type, Site, *Cell);
  }
  Bounds vmBoundsGet(const void *P, SiteId Site) {
    Site = rebase(Site);
    return Session ? Session->boundsGet(P, Site, Target)
                   : RT.boundsGet(P, Site, *Cell);
  }
  void vmBoundsCheck(const void *P, size_t Size, Bounds B, SiteId Site) {
    Site = rebase(Site);
    if (Session)
      Session->boundsCheck(P, Size, B, Site, Target);
    else
      RT.boundsCheck(P, Size, B, Site, *Cell);
  }
  Bounds vmBoundsNarrow(Bounds B, const void *Field, size_t Size) {
    return Session ? Session->boundsNarrow(B, Field, Size, Target)
                   : RT.boundsNarrow(B, Field, Size, *Cell);
  }
  /// @}

  Runtime &RT;
  Sanitizer *Session;
  /// The running thread's counter cell, found once per run, and the
  /// session checks' target over it.
  OwnedCell Cell;
  CheckTarget Target;
  const RunOptions &Opts;
  /// Base the module's site table was rebased to at load (NoSite when
  /// the module has no sites).
  SiteId SiteBase = NoSite;

  exec::HostGuard Guard;
  exec::ModuleImage Image;

  std::string Output;
  uint64_t Steps = 0;
  uint64_t CallDepth = 0;
  ExecutedChecks Checks;
  bool Faulted = false;
  std::string FaultMsg;
};

} // namespace

RunResult interp::run(const Module &M, Runtime &RT, const RunOptions &Opts,
                      std::string_view Entry) {
  Interpreter I(M, RT, Opts);
  return I.run(Entry);
}

RunResult interp::run(const Module &M, Sanitizer &Session,
                      const RunOptions &Opts, std::string_view Entry) {
  Interpreter I(M, Session.runtime(), Opts, &Session);
  return I.run(Entry);
}
