//===- bytecode/VM.h - Direct-threaded bytecode VM --------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a bytecode::Program: direct-threaded computed-goto dispatch
/// on GCC/Clang (a portable `switch` loop behind
/// EFFSAN_BC_SWITCH_DISPATCH), flat reused register/bounds/slot stacks,
/// and check superinstructions that reach the runtime's
/// EFFSAN_ALWAYS_INLINE fast paths in one dispatch.
///
/// The API and observable behaviour mirror interp::run exactly — same
/// RunOptions/RunResult, same ExecutedChecks, same fault messages, same
/// error-report stream — with one documented exception: RunResult.Steps
/// counts *bytecode* instructions, so it is smaller than the
/// tree-walker's count for the same program (fusion folds two or three
/// IR steps into one dispatch). The differential tests compare
/// everything but Steps.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_BYTECODE_VM_H
#define EFFECTIVE_BYTECODE_VM_H

#include "bytecode/Bytecode.h"
#include "interp/Interp.h"

namespace effective {

class Sanitizer;

namespace bytecode {

using interp::ExecutedChecks;
using interp::RunOptions;
using interp::RunResult;

/// Runs \p Entry with its check opcodes under \p Policy
/// (CheckPolicy::Full: the paper's checks).
RunResult run(const Program &P, Runtime &RT, const RunOptions &Opts = {},
              std::string_view Entry = "main",
              CheckPolicy Policy = CheckPolicy::Full);

/// Runs \p Entry against \p Session's runtime under its policy, read
/// once when the run starts (a setPolicy during the run takes effect
/// at the next run).
RunResult run(const Program &P, Sanitizer &Session,
              const RunOptions &Opts = {}, std::string_view Entry = "main");

} // namespace bytecode
} // namespace effective

#endif // EFFECTIVE_BYTECODE_VM_H
