//===- api/Sanitizer.h - Instance-scoped sanitizer sessions -----*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instance-scoped public API of the reproduction. A Sanitizer is
/// one self-contained sanitizer *session*: it owns (or shares) a
/// TypeContext, owns a Runtime (low-fat heap, counters, reporter), and
/// carries a CheckPolicy that decides at run time what its checks do —
/// the paper's Section 6.2 variants as a constructor argument:
///
/// \code
///   Sanitizer Full;                                  // full EffectiveSan
///   SessionOptions Opts;
///   Opts.Policy = CheckPolicy::BoundsOnly;           // EffectiveSan-bounds
///   Sanitizer Bounds(Opts);
///
///   void *P = Full.malloc(sizeof(T), TypeOf<T>::get(Full.types()));
///   Bounds B = Full.typeCheck(P, IntType);
///   Full.boundsCheck(P, 4, B);
///   Full.free(P);
/// \endcode
///
/// Sessions are independent: counters, error sinks and heap statistics
/// never bleed between two sessions living in the same process, which is
/// what makes the runtime multi-tenant. The process-wide default session
/// (wrapping Runtime::global() under CheckPolicy::Full) backs the
/// paper-named facade in core/Effective.h and the stable C ABI in
/// api/effsan.h.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_API_SANITIZER_H
#define EFFECTIVE_API_SANITIZER_H

#include "api/CheckPolicy.h"
#include "api/PolicyFrontEnd.h"
#include "core/CheckedPtr.h"
#include "core/Runtime.h"

#include <atomic>
#include <memory>

namespace effective {

/// Construction options for a session.
struct SessionOptions {
  CheckPolicy Policy = CheckPolicy::Full;
  ReporterOptions Reporter;
  lowfat::HeapOptions Heap;
  /// Entries in the runtime's site-indexed type-check inline cache
  /// (power of two; 0 disables the fast path — see RuntimeOptions).
  size_t SiteCacheEntries = 1024;
};

/// One sanitizer session. Thread-safe to the same degree as Runtime
/// (checks are lock-free; allocation and reporting are internally
/// locked). Destroying a session releases its heap and meta data;
/// pointers allocated from it must not outlive it.
class Sanitizer {
public:
  /// A session with a private TypeContext.
  explicit Sanitizer(const SessionOptions &Options = SessionOptions());

  /// A session sharing \p SharedTypes (types are interned once and are
  /// immutable, so any number of sessions may share a context — the
  /// paper's weak-symbol meta data story).
  Sanitizer(TypeContext &SharedTypes,
            const SessionOptions &Options = SessionOptions());

  /// A non-owning session view over an existing runtime, applying
  /// \p Policy on top of it. This is how concurrent::SessionPool wraps
  /// its per-shard runtimes (and how the default session wraps
  /// Runtime::global()); the runtime must outlive the view.
  Sanitizer(Runtime &Existing, CheckPolicy Policy);

  ~Sanitizer();

  Sanitizer(const Sanitizer &) = delete;
  Sanitizer &operator=(const Sanitizer &) = delete;

  CheckPolicy policy() const {
    return Policy.load(std::memory_order_relaxed);
  }

  /// Swaps the session's check front end to \p NewPolicy. Safe to call
  /// while other threads are running checks: the per-policy dispatch
  /// tables are immutable statics, so a downgrade or restore is one
  /// atomic pointer store and concurrent checks land on either the old
  /// or the new table, never in between. This is the service layer's
  /// load-shedding lever (service::LoadGovernor walks sessions down
  /// Full -> BoundsOnly -> CountOnly under pressure and back up when it
  /// subsides).
  void setPolicy(CheckPolicy NewPolicy) {
    Dispatch.store(&checkDispatchFor(NewPolicy), std::memory_order_release);
    Policy.store(NewPolicy, std::memory_order_relaxed);
  }
  TypeContext &types() { return *Types; }
  Runtime &runtime() { return *RT; }
  ErrorReporter &reporter() { return RT->reporter(); }
  CheckCounters &counters() { return RT->counters(); }

  /// Sessions convert to their Runtime so runtime-parameterized code
  /// (CheckedPtr's session-aware constructor, interp::run, the workload
  /// kernels) accepts a session directly. Note the seam: code going
  /// through the Runtime — including CheckedPtr, whose instrumentation
  /// level is its compile-time Policy template — performs full runtime
  /// checks regardless of this session's CheckPolicy; the policy
  /// governs only the methods on this class (and interp::run given a
  /// session). Pair CheckedPtr's NonePolicy/BoundsPolicy/... with a
  /// matching session policy when both layers are in play.
  operator Runtime &() { return *RT; }

  /// \name Typed allocation (always real, independent of policy, so a
  /// program behaves identically under every policy).
  /// @{
  void *malloc(size_t Size, const TypeInfo *Type = nullptr);
  void *calloc(size_t Count, size_t Size, const TypeInfo *Type = nullptr);
  void *realloc(void *Ptr, size_t NewSize, const TypeInfo *Type = nullptr);
  void free(void *Ptr);
  /// @}

  /// \name Policy-dispatched checks.
  /// What each call does is decided by policy() — but instead of a
  /// per-check switch, the session resolves a per-policy CheckDispatch
  /// table once at construction (api/PolicyFrontEnd.h) and every check
  /// is one indirect call into branch-free policy-specialized code:
  ///   Full       — the paper's type_check / bounds_check / bounds_narrow;
  ///   BoundsOnly — typeCheck degrades to bounds_get, narrowing is a
  ///                no-op (allocation bounds only);
  ///   TypeOnly   — type checks run, bounds operations are no-ops;
  ///   CountOnly  — counters advance, nothing is probed or reported;
  ///   Off        — nothing happens at all.
  /// @{

  /// type_check with an explicit call-site identity (the interpreter
  /// passes the instruction's instrumentation-assigned SiteId; see
  /// Runtime::typeCheck for the inline-cache contract).
  Bounds typeCheck(const void *Ptr, const TypeInfo *StaticType,
                   SiteId Site) {
    return RT->counters().count([=, this](CheckCell &Cell) {
      return typeCheck(Ptr, StaticType, Site, {*RT, Cell});
    });
  }

  /// type_check at the static type's pseudo-site.
  Bounds typeCheck(const void *Ptr, const TypeInfo *StaticType) {
    return typeCheck(Ptr, StaticType, siteForType(StaticType));
  }

  Bounds boundsGet(const void *Ptr, SiteId Site = NoSite) {
    return RT->counters().count([=, this](CheckCell &Cell) {
      return boundsGet(Ptr, Site, {*RT, Cell});
    });
  }

  void boundsCheck(const void *Ptr, size_t Size, Bounds B,
                   SiteId Site = NoSite) {
    RT->counters().count([=, this](CheckCell &Cell) {
      boundsCheck(Ptr, Size, B, Site, {*RT, Cell});
    });
  }

  Bounds boundsNarrow(Bounds B, const void *Field, size_t Size) {
    return RT->counters().count([=, this](CheckCell &Cell) {
      return boundsNarrow(B, Field, Size, {*RT, Cell});
    });
  }

  /// The same checks against \p To: this session's runtime and a
  /// counter cell of it that the calling thread owns (an OwnedCell over
  /// counters()), held by a caller that checks in a loop — the
  /// interpreters hold one per run.
  Bounds typeCheck(const void *Ptr, const TypeInfo *StaticType, SiteId Site,
                   const CheckTarget &To) {
    return dispatch().TypeCheck(To, Ptr, StaticType, Site);
  }
  Bounds boundsGet(const void *Ptr, SiteId Site, const CheckTarget &To) {
    return dispatch().BoundsGet(To, Ptr, Site);
  }
  void boundsCheck(const void *Ptr, size_t Size, Bounds B, SiteId Site,
                   const CheckTarget &To) {
    dispatch().BoundsCheck(To, Ptr, Size, B, Site);
  }
  Bounds boundsNarrow(Bounds B, const void *Field, size_t Size,
                      const CheckTarget &To) {
    return dispatch().BoundsNarrow(To, B, Field, Size);
  }
  /// @}

  /// \name Site attribution.
  /// @{

  /// Registers a module's check-site table with the session, so error
  /// reports carry source locations (docs/REPORT_FORMAT.md). Returns
  /// the base the table's dense local ids were rebased to — callers
  /// pass `base + local id` as the Site of their checks. \p Key (when
  /// nonzero, a process-unique producer id — interp::run passes
  /// ir::Module::uid()) makes re-registration idempotent. For pooled
  /// sessions the registry is shared pool-wide, so one registration
  /// attributes every shard's errors.
  SiteId registerSiteTable(const SiteTable &Table, uint64_t Key = 0) {
    return RT->siteTables().registerTable(Table, Key);
  }

  /// The registry backing this session's error attribution.
  SiteTableRegistry &siteTables() { return RT->siteTables(); }

  /// Error events recorded at (rebased) site \p Site.
  uint64_t errorEventsAtSite(SiteId Site) const {
    return RT->reporter().numEventsAtSite(Site);
  }
  /// @}

  /// \name Introspection.
  /// @{
  const TypeInfo *dynamicTypeOf(const void *Ptr) const {
    return RT->dynamicTypeOf(Ptr);
  }
  Bounds allocationBounds(const void *Ptr) const {
    return RT->allocationBounds(Ptr);
  }
  /// Distinct issues found so far (the Figure 7 metric).
  uint64_t issuesFound() const { return RT->reporter().numIssues(); }
  /// @}

  /// Replaces the session's error sink (thin wrapper over
  /// ReporterOptions::Callback; pass null to remove). Note that pooled
  /// sessions report through their pool's central reporter; install
  /// callbacks there instead.
  void setErrorCallback(ErrorCallback Callback, void *UserData);

  /// Recycles the session between tenant requests: rewinds its arena
  /// (for pooled sessions, only its own heap shard), clears counters
  /// and reported issues. Every pointer the session ever returned is
  /// invalidated and its addresses will be served again — callers must
  /// guarantee no live pointers and no concurrent use (see
  /// Runtime::reset for the full contract).
  void reset();

  /// The process-wide default session: CheckPolicy::Full over
  /// Runtime::global() and TypeContext::global(). This is what
  /// core/Effective.h's paper-named facade routes through.
  static Sanitizer &defaultSession();

private:
  const CheckDispatch &dispatch() const {
    return *Dispatch.load(std::memory_order_acquire);
  }

  std::unique_ptr<TypeContext> OwnedTypes; ///< Null when sharing.
  TypeContext *Types;
  std::unique_ptr<Runtime> OwnedRT; ///< Null for the default session.
  Runtime *RT;
  /// Policy and its check front end, resolved at construction and
  /// swappable at run time (setPolicy). Both are atomics so the service
  /// layer's governor may downgrade a session that other threads are
  /// actively checking through.
  std::atomic<CheckPolicy> Policy;
  std::atomic<const CheckDispatch *> Dispatch;
};

/// RAII binder routing this thread's CheckedPtr instrumentation into
/// \p Session's runtime (heap, counters, reporter). As with the
/// Runtime conversion above, what gets checked is decided by
/// CheckedPtr's compile-time Policy, not the session's CheckPolicy.
class SanitizerScope {
public:
  explicit SanitizerScope(Sanitizer &Session) : Scope(Session.runtime()) {}

private:
  RuntimeScope Scope;
};

} // namespace effective

#endif // EFFECTIVE_API_SANITIZER_H
