//===- support/Compiler.h - Portable compiler annotations -------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small portable macros used throughout the project: branch-prediction
/// hints, unreachable markers, and inlining annotations. Modeled on
/// llvm/Support/Compiler.h.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_SUPPORT_COMPILER_H
#define EFFECTIVE_SUPPORT_COMPILER_H

#include <cstdio>
#include <cstdlib>

#if defined(__GNUC__) || defined(__clang__)
#define EFFSAN_LIKELY(X) __builtin_expect(!!(X), 1)
#define EFFSAN_UNLIKELY(X) __builtin_expect(!!(X), 0)
#define EFFSAN_ALWAYS_INLINE inline __attribute__((always_inline))
#define EFFSAN_NOINLINE __attribute__((noinline))
#define EFFSAN_CODE_ALIGN(N) __attribute__((aligned(N)))
#define EFFSAN_LAMBDA_INLINE __attribute__((always_inline))
#else
#define EFFSAN_LIKELY(X) (X)
#define EFFSAN_UNLIKELY(X) (X)
#define EFFSAN_ALWAYS_INLINE inline
#define EFFSAN_NOINLINE
#define EFFSAN_CODE_ALIGN(N)
#define EFFSAN_LAMBDA_INLINE
#endif

/// EFFSAN_LAMBDA_INLINE, after a lambda's parameter list, is
/// EFFSAN_ALWAYS_INLINE for its call operator.

/// EFFSAN_CODE_ALIGN(N) on a function definition starts its code on an
/// N-byte boundary, so a hot loop's speed does not depend on how much
/// code the linker happens to place before it.

namespace effective {

/// Report an internal invariant violation and abort. Used by the
/// \c EFFSAN_UNREACHABLE macro; do not call directly.
[[noreturn]] inline void reportUnreachable(const char *Msg, const char *File,
                                           unsigned Line) {
  std::fprintf(stderr, "FATAL: unreachable executed at %s:%u: %s\n", File,
               Line, Msg);
  std::abort();
}

} // namespace effective

/// Marks a point in control flow that must never be reached if program
/// invariants hold. Aborts with a diagnostic (all build modes).
#define EFFSAN_UNREACHABLE(MSG)                                                \
  ::effective::reportUnreachable(MSG, __FILE__, __LINE__)

#endif // EFFECTIVE_SUPPORT_COMPILER_H
