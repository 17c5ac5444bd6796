//===- interp/ExecSupport.h - Shared execution-engine helpers ---*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The semantics both execution engines share: the tree-walking
/// reference interpreter (interp/Interp.cpp) and the direct-threaded
/// bytecode VM (bytecode/VM.cpp) must produce bit-identical results for
/// every program — same values, same faults, same fault messages — so
/// everything value-shaped lives here exactly once:
///
///   * the 64-bit Value union and integer canonicalization;
///   * scalar load/store directed by TypeInfo;
///   * arithmetic / comparison / conversion evaluation (including the
///     deliberate definedness choices: div-by-zero is 0, float-to-int
///     saturates, INT64_MIN / -1 does not trap);
///   * the check front: one run's policy-resolved checks (CheckFront);
///   * the host-memory safety net (arena membership + tracked legacy
///     blocks) that keeps a buggy *guest* program from performing a
///     wild access on the *host*;
///   * print builtins and module images (globals + string literals
///     materialized through the typed global allocator).
///
/// Everything is header-inline: the engines compile these into their
/// dispatch loops, and the bytecode superinstructions reach the same
/// fast paths the tree-walker uses with no extra call.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_INTERP_EXECSUPPORT_H
#define EFFECTIVE_INTERP_EXECSUPPORT_H

#include "api/PolicyFrontEnd.h"
#include "core/Runtime.h"
#include "ir/IR.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace effective {
namespace exec {

/// One 64-bit VM value; interpretation is directed by register types.
union Value {
  int64_t I;
  uint64_t U;
  double F;
  void *P;
};

/// Canonicalizes an integer register value to its type's width.
EFFSAN_ALWAYS_INLINE Value normalizeInt(Value V, const TypeInfo *T) {
  switch (T->kind()) {
  case TypeKind::Bool:
    V.U = V.U & 1;
    break;
  case TypeKind::Char:
  case TypeKind::SChar:
    V.I = static_cast<int8_t>(V.U);
    break;
  case TypeKind::UChar:
    V.U = static_cast<uint8_t>(V.U);
    break;
  case TypeKind::Short:
    V.I = static_cast<int16_t>(V.U);
    break;
  case TypeKind::UShort:
    V.U = static_cast<uint16_t>(V.U);
    break;
  case TypeKind::Int:
    V.I = static_cast<int32_t>(V.U);
    break;
  case TypeKind::UInt:
    V.U = static_cast<uint32_t>(V.U);
    break;
  default:
    break;
  }
  return V;
}

inline bool isUnsignedInt(const TypeInfo *T) {
  switch (T->kind()) {
  case TypeKind::Bool:
  case TypeKind::UChar:
  case TypeKind::UShort:
  case TypeKind::UInt:
  case TypeKind::ULong:
  case TypeKind::ULongLong:
    return true;
  default:
    return false;
  }
}

/// Loads a scalar of type \p T from \p P into \p Out. Returns false for
/// a type no engine can load (aggregates); the engine faults with
/// "load of unsupported type".
EFFSAN_ALWAYS_INLINE bool loadScalar(const void *P, const TypeInfo *T,
                                            Value &Out) {
  Out.U = 0;
  switch (T->kind()) {
  case TypeKind::Bool:
  case TypeKind::Char:
  case TypeKind::SChar: {
    int8_t X;
    std::memcpy(&X, P, 1);
    Out.I = X;
    return true;
  }
  case TypeKind::UChar: {
    uint8_t X;
    std::memcpy(&X, P, 1);
    Out.U = X;
    return true;
  }
  case TypeKind::Short: {
    int16_t X;
    std::memcpy(&X, P, 2);
    Out.I = X;
    return true;
  }
  case TypeKind::UShort: {
    uint16_t X;
    std::memcpy(&X, P, 2);
    Out.U = X;
    return true;
  }
  case TypeKind::Int: {
    int32_t X;
    std::memcpy(&X, P, 4);
    Out.I = X;
    return true;
  }
  case TypeKind::UInt: {
    uint32_t X;
    std::memcpy(&X, P, 4);
    Out.U = X;
    return true;
  }
  case TypeKind::Long:
  case TypeKind::LongLong:
  case TypeKind::ULong:
  case TypeKind::ULongLong:
    std::memcpy(&Out.U, P, 8);
    return true;
  case TypeKind::Float: {
    float X;
    std::memcpy(&X, P, 4);
    Out.F = X;
    return true;
  }
  case TypeKind::Double:
    std::memcpy(&Out.F, P, 8);
    return true;
  case TypeKind::Pointer:
    std::memcpy(&Out.P, P, 8);
    return true;
  default:
    return false;
  }
}

/// Stores \p V as a scalar of type \p T at \p P; false for unsupported
/// types (the engine faults with "store of unsupported type").
EFFSAN_ALWAYS_INLINE bool storeScalar(void *P, const TypeInfo *T,
                                             Value V) {
  switch (T->kind()) {
  case TypeKind::Bool:
  case TypeKind::Char:
  case TypeKind::SChar:
  case TypeKind::UChar: {
    uint8_t X = static_cast<uint8_t>(V.U);
    std::memcpy(P, &X, 1);
    return true;
  }
  case TypeKind::Short:
  case TypeKind::UShort: {
    uint16_t X = static_cast<uint16_t>(V.U);
    std::memcpy(P, &X, 2);
    return true;
  }
  case TypeKind::Int:
  case TypeKind::UInt: {
    uint32_t X = static_cast<uint32_t>(V.U);
    std::memcpy(P, &X, 4);
    return true;
  }
  case TypeKind::Long:
  case TypeKind::ULong:
  case TypeKind::LongLong:
  case TypeKind::ULongLong:
    std::memcpy(P, &V.U, 8);
    return true;
  case TypeKind::Float: {
    float X = static_cast<float>(V.F);
    std::memcpy(P, &X, 4);
    return true;
  }
  case TypeKind::Double:
    std::memcpy(P, &V.F, 8);
    return true;
  case TypeKind::Pointer:
    std::memcpy(P, &V.P, 8);
    return true;
  default:
    return false;
  }
}

/// Evaluates A <Op> B with operands/result of type \p T. Returns false
/// for bitwise arithmetic on a floating type (the engine faults).
/// Division by zero is defined as 0 so buggy programs keep running
/// (the sanitizer's domain is memory, not arithmetic), and the one
/// signed-overflow trap case (INT64_MIN / -1) is special-cased.
EFFSAN_ALWAYS_INLINE bool evalArith(ir::ArithOp Op, const TypeInfo *T,
                                           Value A, Value B, Value &R) {
  R.U = 0;
  if (T->isFloating()) {
    switch (Op) {
    case ir::ArithOp::Add:
      R.F = A.F + B.F;
      return true;
    case ir::ArithOp::Sub:
      R.F = A.F - B.F;
      return true;
    case ir::ArithOp::Mul:
      R.F = A.F * B.F;
      return true;
    case ir::ArithOp::Div:
      R.F = B.F != 0 ? A.F / B.F : 0;
      return true;
    default:
      return false;
    }
  }
  bool U = isUnsignedInt(T);
  switch (Op) {
  case ir::ArithOp::Add:
    R.U = A.U + B.U;
    break;
  case ir::ArithOp::Sub:
    R.U = A.U - B.U;
    break;
  case ir::ArithOp::Mul:
    R.U = A.U * B.U;
    break;
  case ir::ArithOp::Div:
    if (B.U == 0)
      R.U = 0;
    else if (U)
      R.U = A.U / B.U;
    else if (A.I == INT64_MIN && B.I == -1)
      R.I = A.I;
    else
      R.I = A.I / B.I;
    break;
  case ir::ArithOp::Rem:
    if (B.U == 0)
      R.U = 0;
    else if (U)
      R.U = A.U % B.U;
    else if (A.I == INT64_MIN && B.I == -1)
      R.I = 0;
    else
      R.I = A.I % B.I;
    break;
  case ir::ArithOp::And:
    R.U = A.U & B.U;
    break;
  case ir::ArithOp::Or:
    R.U = A.U | B.U;
    break;
  case ir::ArithOp::Xor:
    R.U = A.U ^ B.U;
    break;
  case ir::ArithOp::Shl:
    R.U = A.U << (B.U & 63);
    break;
  case ir::ArithOp::Shr:
    if (U)
      R.U = A.U >> (B.U & 63);
    else
      R.I = A.I >> (B.U & 63);
    break;
  }
  R = normalizeInt(R, T);
  return true;
}

/// Evaluates A <Pred> B with operands of type \p T.
EFFSAN_ALWAYS_INLINE bool evalCompare(ir::Pred Pred, const TypeInfo *T,
                                             Value A, Value B) {
  if (T->isFloating()) {
    switch (Pred) {
    case ir::Pred::Eq:
      return A.F == B.F;
    case ir::Pred::Ne:
      return A.F != B.F;
    case ir::Pred::Lt:
      return A.F < B.F;
    case ir::Pred::Le:
      return A.F <= B.F;
    case ir::Pred::Gt:
      return A.F > B.F;
    case ir::Pred::Ge:
      return A.F >= B.F;
    }
  }
  if (T->isPointer() || isUnsignedInt(T)) {
    switch (Pred) {
    case ir::Pred::Eq:
      return A.U == B.U;
    case ir::Pred::Ne:
      return A.U != B.U;
    case ir::Pred::Lt:
      return A.U < B.U;
    case ir::Pred::Le:
      return A.U <= B.U;
    case ir::Pred::Gt:
      return A.U > B.U;
    case ir::Pred::Ge:
      return A.U >= B.U;
    }
  }
  switch (Pred) {
  case ir::Pred::Eq:
    return A.I == B.I;
  case ir::Pred::Ne:
    return A.I != B.I;
  case ir::Pred::Lt:
    return A.I < B.I;
  case ir::Pred::Le:
    return A.I <= B.I;
  case ir::Pred::Gt:
    return A.I > B.I;
  case ir::Pred::Ge:
    return A.I >= B.I;
  }
  return false;
}

/// Converts \p V from \p From to \p To. Returns false when \p From is
/// null (an untyped source register — malformed IR; the engine
/// faults). Out-of-range float-to-int saturates instead of trapping so
/// both engines stay deterministic.
EFFSAN_ALWAYS_INLINE bool evalConvert(Value V, const TypeInfo *From,
                                             const TypeInfo *To, Value &R) {
  R.U = 0;
  if (!From)
    return false;
  if (To->isFloating()) {
    if (From->isFloating())
      R.F = V.F;
    else if (isUnsignedInt(From))
      R.F = static_cast<double>(V.U);
    else
      R.F = static_cast<double>(V.I);
    if (To->kind() == TypeKind::Float)
      R.F = static_cast<float>(R.F);
    return true;
  }
  if (From->isFloating()) {
    double Clamped = V.F;
    if (isUnsignedInt(To)) {
      if (!(Clamped >= 0))
        Clamped = 0;
      if (Clamped >= 1.8446744073709552e19)
        Clamped = 1.8446744073709552e19;
      R.U = static_cast<uint64_t>(Clamped);
    } else {
      if (Clamped >= 9.223372036854775e18)
        Clamped = 9.223372036854775e18;
      if (Clamped <= -9.223372036854775e18)
        Clamped = -9.223372036854775e18;
      if (Clamped != Clamped)
        Clamped = 0;
      R.I = static_cast<int64_t>(Clamped);
    }
    R = normalizeInt(R, To);
    return true;
  }
  // Integer/pointer to integer: reinterpret then normalize.
  R.U = V.U;
  R = normalizeInt(R, To);
  return true;
}

//===----------------------------------------------------------------------===//
// Check front
//===----------------------------------------------------------------------===//

/// The check opcodes' front end for one engine run: the runtime, the
/// running thread's counter cell (found once per run), the base the
/// module's site table was rebased to, and the run's CheckPolicy, read
/// once when the run starts. Each check rebases its module-local site
/// and switches on the run-constant policy into FrontEnd<P>
/// (api/PolicyFrontEnd.h) inline: a branch that predicts perfectly,
/// where the session API pays an indirect call per check. A run
/// without a session is CheckPolicy::Full.
class CheckFront {
public:
  CheckFront(Runtime &RT, CheckPolicy Policy)
      : Cell(RT.counters()), To{RT, *Cell}, Policy(Policy) {}

  /// Module load: registers \p M's site table, so every check the run
  /// executes reports with source attribution. Keyed by the module's
  /// process-unique uid: re-running the same module reuses the
  /// registered range instead of burning a fresh one, and a later
  /// module can never alias a destroyed one.
  void loadSites(const ir::Module &M) {
    if (M.numCheckSites() != 0)
      SiteBase = To.RT.siteTables().registerTable(M.siteTable(), M.uid());
  }

  EFFSAN_ALWAYS_INLINE Bounds typeCheck(const void *P, const TypeInfo *Type,
                                        SiteId Site) {
    // Instrumented checks carry a dense per-module site; hand-built IR
    // has none and takes the type-derived pseudo-site instead.
    Site = Site == NoSite ? siteForType(Type) : rebase(Site);
    return withFrontEnd(Policy, [&](auto FE) EFFSAN_LAMBDA_INLINE {
      return FE.typeCheck(To, P, Type, Site);
    });
  }
  EFFSAN_ALWAYS_INLINE Bounds boundsGet(const void *P, SiteId Site) {
    Site = rebase(Site);
    return withFrontEnd(Policy, [&](auto FE) EFFSAN_LAMBDA_INLINE {
      return FE.boundsGet(To, P, Site);
    });
  }
  EFFSAN_ALWAYS_INLINE void boundsCheck(const void *P, size_t Size, Bounds B,
                                        SiteId Site) {
    Site = rebase(Site);
    withFrontEnd(Policy, [&](auto FE) EFFSAN_LAMBDA_INLINE {
      FE.boundsCheck(To, P, Size, B, Site);
    });
  }
  EFFSAN_ALWAYS_INLINE Bounds boundsNarrow(Bounds B, const void *Field,
                                           size_t Size) {
    return withFrontEnd(Policy, [&](auto FE) EFFSAN_LAMBDA_INLINE {
      return FE.boundsNarrow(To, B, Field, Size);
    });
  }

private:
  /// Maps a module-local site id into the registered range (identity
  /// for unsited checks and unregistered modules).
  SiteId rebase(SiteId Site) const {
    return (Site == NoSite || SiteBase == NoSite) ? Site : SiteBase + Site;
  }

  OwnedCell Cell;
  CheckTarget To;
  const CheckPolicy Policy;
  SiteId SiteBase = NoSite;
};

//===----------------------------------------------------------------------===//
// Host-memory safety net
//===----------------------------------------------------------------------===//

/// Validates every raw guest access before an engine performs it on the
/// host. Accesses inside the demand-paged low-fat arena are host-safe
/// even when they are program errors (the checks have already logged
/// those); anything else must land inside a tracked legacy allocation,
/// or the engine faults with a deterministic "wild ..." message.
class HostGuard {
public:
  explicit HostGuard(Runtime &RT) : RT(RT) {}

  /// Records a non-low-fat allocation the guest may legally touch.
  void noteLegacy(void *P, uint64_t Size) {
    Blocks.push_back({reinterpret_cast<uintptr_t>(P), Size});
  }

  /// Returns the host pointer for a \p Size byte access at \p Addr, or
  /// null with the engine's fault message rendered into \p FaultMsg.
  EFFSAN_ALWAYS_INLINE void *validate(Value Addr, uint64_t Size,
                                      const char *What,
                                      std::string &FaultMsg) const {
    char *P = static_cast<char *>(Addr.P);
    if (EFFSAN_UNLIKELY(!P)) {
      FaultMsg = std::string("null ") + What;
      return nullptr;
    }
    if (EFFSAN_LIKELY(RT.heap().isInArena(P) && RT.heap().isInArena(P + Size)))
      return P;
    return validateSlow(Addr, Size, What, FaultMsg);
  }

private:
  EFFSAN_NOINLINE void *validateSlow(Value Addr, uint64_t Size,
                                     const char *What,
                                     std::string &FaultMsg) const {
    for (const auto &[Base, Len] : Blocks) {
      if (Addr.U >= Base && Addr.U + Size <= Base + Len)
        return Addr.P;
    }
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "wild %s at 0x%" PRIxPTR " (%" PRIu64 " bytes)", What,
                  Addr.U, Size);
    FaultMsg = Buf;
    return nullptr;
  }

  Runtime &RT;
  std::vector<std::pair<uintptr_t, uint64_t>> Blocks;
};

//===----------------------------------------------------------------------===//
// Module image: globals and string literals
//===----------------------------------------------------------------------===//

/// The module's statically allocated objects, materialized through the
/// typed global allocator so they carry META headers like any other
/// object.
struct ModuleImage {
  std::vector<void *> GlobalAddrs;
  std::vector<uint64_t> GlobalSizes;
  std::vector<void *> StringAddrs;
  std::vector<uint64_t> StringSizes;

  void allocate(const ir::Module &M, Runtime &RT) {
    GlobalAddrs.clear();
    GlobalSizes.clear();
    for (const ir::Global &G : M.Globals) {
      void *P = RT.globalAllocate(G.Size, G.ElemType, G.Name);
      GlobalAddrs.push_back(P);
      GlobalSizes.push_back(G.Size);
    }
    StringAddrs.clear();
    StringSizes.clear();
    for (const std::string &S : M.Strings) {
      uint64_t Size = S.size() + 1;
      // Null on exhaustion: the runtime already reported it; a program
      // touching the missing literal faults as a null access.
      void *P = RT.globalAllocate(Size, M.typeContext().getChar(), "__str");
      if (P) {
        std::memcpy(P, S.data(), S.size());
        static_cast<char *>(P)[S.size()] = '\0';
      }
      StringAddrs.push_back(P);
      StringSizes.push_back(Size);
    }
  }
};

//===----------------------------------------------------------------------===//
// Print builtins
//===----------------------------------------------------------------------===//

inline void printInt(int64_t V, std::string &Output) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%" PRId64 "\n", V);
  Output += Buf;
}

inline void printFloat(double V, std::string &Output) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%g\n", V);
  Output += Buf;
}

/// print_str: walks the guest string byte by byte, validating every
/// read, capped at 4096 characters. \p Validate is the engine's
/// validate hook — (Value, uint64_t, const char *) -> const char *,
/// null when the engine faulted (the walk stops; the engine's sticky
/// fault carries the message).
template <typename ValidateFn>
inline void printStr(Value V, std::string &Output, ValidateFn &&Validate) {
  if (!V.P) {
    Output += "(null)\n";
    return;
  }
  for (uint64_t K = 0; K < 4096; ++K) {
    const char *C = static_cast<const char *>(
        Validate(V, uint64_t(1), "print_str read"));
    if (!C || *C == '\0')
      break;
    Output += *C;
    ++V.U;
  }
  Output += '\n';
}

} // namespace exec
} // namespace effective

#endif // EFFECTIVE_INTERP_EXECSUPPORT_H
