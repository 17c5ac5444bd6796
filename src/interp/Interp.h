//===- interp/Interp.h - IR interpreter over the runtime --------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A virtual machine executing (instrumented) IR against the real
/// EffectiveSan runtime: program memory *is* low-fat memory, so
/// type_check walks real META headers and layout hash tables, stack
/// frames allocate typed slots through the low-fat stack allocator
/// (freed slots rebind to FREE, so dangling-stack uses are caught),
/// and globals live in the typed global pool.
///
/// The VM mirrors the paper's logging mode: a detected error is
/// reported through the runtime's ErrorReporter and execution
/// continues. Continuing is host-safe because every raw access is
/// confined to the demand-paged low-fat arena (or a tracked legacy
/// allocation); anything else is a VM fault, reported in RunResult.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_INTERP_INTERP_H
#define EFFECTIVE_INTERP_INTERP_H

#include "api/CheckPolicy.h"
#include "core/Runtime.h"
#include "ir/IR.h"

#include <string>

namespace effective {

class Sanitizer;

namespace interp {

/// Execution limits and switches.
struct RunOptions {
  /// Instruction budget; exceeding it is a VM fault (runaway program).
  uint64_t MaxSteps = 100'000'000;
  /// Call-depth limit (the VM recurses on the host stack).
  uint64_t MaxCallDepth = 4000;
};

/// Dynamic counts of executed check instructions (the Figure 7 columns
/// for MiniC programs; the ablation benchmark compares these across
/// optimization levels).
struct ExecutedChecks {
  uint64_t TypeChecks = 0;
  uint64_t BoundsGets = 0;
  uint64_t BoundsChecks = 0;
  uint64_t BoundsNarrows = 0;
};

/// The outcome of one program run.
struct RunResult {
  /// True when the program ran to completion (VM-level; the program may
  /// still have reported type/memory errors through the runtime).
  bool Ok = false;
  /// VM fault description when !Ok.
  std::string Fault;
  /// main's return value.
  int64_t ExitCode = 0;
  /// Everything the print_* builtins wrote.
  std::string Output;
  /// Instructions executed.
  uint64_t Steps = 0;
  ExecutedChecks Checks;
  /// Errors the runtime reported during the run (bucketed count).
  uint64_t IssuesReported = 0;
};

/// Executes \p M's entry function with its check opcodes under
/// \p Policy (CheckPolicy::Full: the paper's checks). Global objects
/// are (re)allocated per run; the module may be executed repeatedly.
RunResult run(const ir::Module &M, Runtime &RT,
              const RunOptions &Opts = RunOptions(),
              std::string_view Entry = "main",
              CheckPolicy Policy = CheckPolicy::Full);

/// Session-scoped execution: runs \p M against \p Session's runtime
/// under its policy, read once when the run starts (a setPolicy during
/// the run takes effect at the next run), so all checks, counters and
/// reports stay inside that session.
RunResult run(const ir::Module &M, Sanitizer &Session,
              const RunOptions &Opts = RunOptions(),
              std::string_view Entry = "main");

} // namespace interp
} // namespace effective

#endif // EFFECTIVE_INTERP_INTERP_H
