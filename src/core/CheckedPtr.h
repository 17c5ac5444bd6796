//===- core/CheckedPtr.h - Figure 3 schema as a library ---------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic type check instrumentation schema (Figure 3) in library
/// form, used by natively-compiled workloads and examples. A
/// CheckedPtr<T, Policy> carries the BOUNDS value the compiler pass
/// would keep in a register:
///
///   * input events — construction from a raw pointer (function
///     parameter, call return, pointer loaded from memory) and casts —
///     run type_check against the static type T (rules (a)-(d));
///   * pointer arithmetic propagates bounds (rule (f));
///   * field access narrows bounds (rule (e));
///   * dereference and escape run bounds_check (rule (g)).
///
/// The Policy parameter selects the paper's evaluation variants at
/// compile time: FullPolicy (EffectiveSan), BoundsPolicy
/// (EffectiveSan-bounds), TypePolicy (EffectiveSan-type) and NonePolicy
/// (uninstrumented; compiles to bare pointer operations).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_CHECKEDPTR_H
#define EFFECTIVE_CORE_CHECKEDPTR_H

#include "core/Reflect.h"
#include "core/Runtime.h"

#include <cstddef>
#include <type_traits>

namespace effective {

/// \name Current-runtime binding.
/// CheckedPtr operations report through the thread's current runtime.
/// Resolution order: the thread-local binding (RuntimeScope /
/// SanitizerScope), then the injected process default
/// (setDefaultRuntime — how a test or embedder swaps the fallback for a
/// private instance), then Runtime::global().
///
/// Bounds checks count into the thread's PendingBoundsChecks word
/// (core/CheckCounters.h), which is settled into the current runtime
/// whenever the binding is about to change — scope begin and end,
/// setDefaultRuntime — so each check counts against the runtime it was
/// made under.
/// @{

/// The thread-local binding: the scoped runtime and the counter cell
/// the scope owns in it (both null when unbound).
struct RuntimeBinding {
  Runtime *RT = nullptr;
  CheckCell *Cell = nullptr;
};

inline RuntimeBinding &currentBinding() {
  thread_local RuntimeBinding Binding;
  return Binding;
}

/// The injected process-wide fallback (null = Runtime::global()).
inline std::atomic<Runtime *> &defaultRuntimeSlot() {
  static std::atomic<Runtime *> Slot{nullptr};
  return Slot;
}

/// Injects \p RT as the process-wide fallback runtime for threads with
/// no scope binding; pass null to restore Runtime::global(). Returns
/// the previous injection. The caller's pending bounds checks settle
/// first, so what it checked unbound counts in the old fallback. Other
/// unbound threads settle into whichever fallback is current when they
/// settle: swap the default only while they hold no checks.
inline Runtime *setDefaultRuntime(Runtime *RT) {
  settlePendingChecks();
  return defaultRuntimeSlot().exchange(RT, std::memory_order_acq_rel);
}

/// The runtime of a thread with no scope binding.
inline Runtime &fallbackRuntime() {
  if (Runtime *RT = defaultRuntimeSlot().load(std::memory_order_acquire))
    return *RT;
  return Runtime::global();
}

inline Runtime &currentRuntime() {
  if (Runtime *RT = currentBinding().RT)
    return *RT;
  return fallbackRuntime();
}

namespace detail {
/// Whether the calling thread settles its pending bounds checks when
/// it exits.
inline constinit thread_local bool SettlesAtExit = false;

/// Registers the exit settle for the calling thread (core/Runtime.cpp).
void registerSettleAtExit();

/// Makes the calling thread settle its pending bounds checks when it
/// exits: a flag test once registered, so allocation paths pay no call.
/// Every event that gets bounds from a runtime calls it (scopes,
/// unbound input and cast events, explicit-runtime events and
/// allocateChecked), and so does a failed bounds check.
inline void settleAtThreadExit() {
  if (EFFSAN_UNLIKELY(!SettlesAtExit))
    registerSettleAtExit();
}

/// The cold halves of CheckedPtr's checks, out of line so each
/// instrumented access inlines only its success path: a failed bounds
/// check, and an unbound thread's input, cast and narrow events on the
/// fallback runtime's per-call path. Bounds travel as two words so the
/// caller's loop never spills them for the cold call.
EFFSAN_NOINLINE inline Bounds
typeCheckUnbound(const void *Ptr, ReflectedType (*StaticOf)(TypeContext &)) {
  settleAtThreadExit();
  Runtime &RT = fallbackRuntime();
  ReflectedType Static = StaticOf(RT.typeContext());
  return RT.typeCheck(Ptr, Static.Type, Static.PseudoSite);
}
EFFSAN_NOINLINE inline Bounds boundsGetUnbound(const void *Ptr) {
  settleAtThreadExit();
  return fallbackRuntime().boundsGet(Ptr);
}
EFFSAN_NOINLINE inline void boundsCheckFail(const void *P, size_t Size,
                                            uintptr_t Lo, uintptr_t Hi) {
  settleAtThreadExit();
  currentRuntime().boundsCheckFail(P, Size, Bounds{Lo, Hi}, NoSite);
}
EFFSAN_NOINLINE inline Bounds boundsNarrowUnbound(Bounds B, const void *Field,
                                                  size_t Size) {
  return fallbackRuntime().boundsNarrow(B, Field, Size);
}
} // namespace detail

/// RAII binder for the current runtime. It owns a counter cell of the
/// runtime for its lifetime (claiming the thread's slot), so CheckedPtr
/// type checks, narrows and bounds_gets inside the scope count without
/// looking the cell up. The thread's pending bounds checks settle when
/// the scope begins (into the binding it replaces) and when it ends
/// (into this scope's cell), so they reach other threads' snapshots at
/// the end of the scope, not before.
class RuntimeScope {
public:
  explicit RuntimeScope(Runtime &RT)
      : Saved(currentBinding()), Cell(RT.counters()) {
    settlePendingChecks();
    detail::settleAtThreadExit();
    currentBinding() = {&RT, &*Cell};
  }
  ~RuntimeScope() {
    settlePendingChecks();
    currentBinding() = Saved;
  }

  RuntimeScope(const RuntimeScope &) = delete;
  RuntimeScope &operator=(const RuntimeScope &) = delete;

private:
  RuntimeBinding Saved;
  OwnedCell Cell;
};
/// @}

/// \name Instrumentation policies (the Figure 8 variants).
/// @{

/// Full EffectiveSan: "check everything".
struct FullPolicy {
  static constexpr bool CheckInputs = true;
  static constexpr bool CheckCasts = true;
  static constexpr bool CheckBounds = true;
  static constexpr bool StoresBounds = true;
  static constexpr bool NarrowFields = true;
  static constexpr const char *name() { return "EffectiveSan (full)"; }
};

/// EffectiveSan-bounds: object bounds only; type checks are replaced by
/// bounds_get (Section 6.2).
struct BoundsPolicy {
  static constexpr bool CheckInputs = true;
  static constexpr bool CheckCasts = false;
  static constexpr bool CheckBounds = true;
  static constexpr bool StoresBounds = true;
  /// "Protects object bounds only" (Section 6.2): no rule-(e) narrowing,
  /// making the variant comparable to LowFat/ASan-class tools.
  static constexpr bool NarrowFields = false;
  static constexpr const char *name() { return "EffectiveSan-bounds"; }
};

/// EffectiveSan-type: type checks on cast operations only (rule (d));
/// all other instrumentation removed.
struct TypePolicy {
  static constexpr bool CheckInputs = false;
  static constexpr bool CheckCasts = true;
  static constexpr bool CheckBounds = false;
  static constexpr bool StoresBounds = false;
  static constexpr bool NarrowFields = false;
  static constexpr const char *name() { return "EffectiveSan-type"; }
};

/// Uninstrumented baseline.
struct NonePolicy {
  static constexpr bool CheckInputs = false;
  static constexpr bool CheckCasts = false;
  static constexpr bool CheckBounds = false;
  static constexpr bool StoresBounds = false;
  static constexpr bool NarrowFields = false;
  static constexpr const char *name() { return "Uninstrumented"; }
};
/// @}

namespace detail {
/// Empty stand-in for Bounds under policies that do not track them.
struct NoBounds {
  static constexpr NoBounds wide() { return NoBounds(); }
};
} // namespace detail

/// A checked pointer: raw pointer plus (policy-dependent) bounds.
template <typename T, typename Policy = FullPolicy> class CheckedPtr {
  using BoundsT =
      std::conditional_t<Policy::StoresBounds, Bounds, detail::NoBounds>;

public:
  CheckedPtr() : Raw(nullptr), B(BoundsT::wide()) {}
  /*implicit*/ CheckedPtr(std::nullptr_t) : CheckedPtr() {}

  /// Session-aware construction: the input event run against an
  /// explicit runtime (a Sanitizer converts to its Runtime, so
  /// CheckedPtr<T>(Ptr, Session) binds the pointer to that session
  /// regardless of any thread-local scope).
  CheckedPtr(T *Ptr, Runtime &RT) { *this = input(Ptr, RT); }

  /// Input event (Figure 3 rules (a)-(c)) against an explicit runtime:
  /// a raw pointer entering checked code — function parameter, call
  /// return, or pointer loaded from memory. Runs type_check (full) /
  /// bounds_get (bounds-only).
  static CheckedPtr input(T *Ptr, Runtime &RT) { return inputOn(Ptr, RT); }

  /// Input event against the thread's current runtime.
  EFFSAN_ALWAYS_INLINE static CheckedPtr input(T *Ptr) {
    return inputOn(Ptr, currentBinding());
  }

  /// Cast event (Figure 3 rule (d)): (T *)q for a source pointer of a
  /// different static type. Under TypePolicy this is the only
  /// instrumented operation, matching EffectiveSan-type.
  template <typename U>
  static CheckedPtr fromCast(const CheckedPtr<U, Policy> &Src) {
    return fromCast(reinterpret_cast<T *>(Src.raw()));
  }

  /// Cast event from a raw pointer against an explicit runtime.
  static CheckedPtr fromCast(T *Ptr, Runtime &RT) { return castOn(Ptr, RT); }

  /// Cast event against the thread's current runtime.
  EFFSAN_ALWAYS_INLINE static CheckedPtr fromCast(T *Ptr) {
    return castOn(Ptr, currentBinding());
  }

  /// Wraps a pointer with explicitly known bounds (used by field
  /// narrowing and the allocator helpers).
  static CheckedPtr withBounds(T *Ptr, BoundsT Known) {
    CheckedPtr P;
    P.Raw = Ptr;
    P.B = Known;
    return P;
  }

  /// \name Dereference (rule (g): bounds_check before use).
  /// @{
  T &operator*() const {
    check(Raw, sizeof(T));
    return *Raw;
  }

  T *operator->() const {
    check(Raw, sizeof(T));
    return Raw;
  }

  T &operator[](ptrdiff_t Index) const {
    T *P = Raw + Index;
    check(P, sizeof(T));
    return *P;
  }

  /// Reads through the pointer with an explicit access size (sub-word
  /// accesses).
  T &at(ptrdiff_t Index, size_t AccessSize) const {
    T *P = Raw + Index;
    check(P, AccessSize);
    return *P;
  }
  /// @}

  /// \name Pointer arithmetic (rule (f): bounds propagate unchanged).
  /// @{
  CheckedPtr operator+(ptrdiff_t N) const {
    return withBounds(Raw + N, B);
  }
  CheckedPtr operator-(ptrdiff_t N) const {
    return withBounds(Raw - N, B);
  }
  ptrdiff_t operator-(const CheckedPtr &O) const { return Raw - O.Raw; }
  CheckedPtr &operator+=(ptrdiff_t N) {
    Raw += N;
    return *this;
  }
  CheckedPtr &operator-=(ptrdiff_t N) {
    Raw -= N;
    return *this;
  }
  CheckedPtr &operator++() {
    ++Raw;
    return *this;
  }
  CheckedPtr &operator--() {
    --Raw;
    return *this;
  }
  /// @}

  /// Field access (rule (e): bounds_narrow to the selected member).
  /// For array members the result points at the first element with the
  /// whole array as bounds.
  template <typename M, typename U = T>
    requires std::is_class_v<U>
  auto field(M U::*Member) const {
    M *F = &(Raw->*Member);
    if constexpr (std::is_array_v<M>) {
      using Elem = std::remove_extent_t<M>;
      Elem *First = &(*F)[0];
      return CheckedPtr<Elem, Policy>::withBounds(First,
                                                  narrowed(F, sizeof(M)));
    } else {
      return CheckedPtr<M, Policy>::withBounds(F, narrowed(F, sizeof(M)));
    }
  }

  /// The raw pointer without any check (pointer comparisons, frees).
  T *raw() const { return Raw; }

  /// Escape event (rule (g)): the pointer is stored to memory or passed
  /// to uninstrumented code; its value must be in bounds.
  T *escape() const {
    check(Raw, 0);
    return Raw;
  }

  /// The tracked bounds (wide when the policy does not track bounds).
  Bounds bounds() const {
    if constexpr (Policy::StoresBounds)
      return B;
    else
      return Bounds::wide();
  }

  explicit operator bool() const { return Raw != nullptr; }
  bool operator==(const CheckedPtr &O) const { return Raw == O.Raw; }
  bool operator!=(const CheckedPtr &O) const { return Raw != O.Raw; }
  bool operator==(std::nullptr_t) const { return Raw == nullptr; }

private:
  template <typename, typename> friend class CheckedPtr;

  using StaticOf = TypeOf<std::remove_cv_t<T>>;

  // The type_check and bounds_get of an input or cast event, against an
  // explicit runtime (its per-call path) or the thread's binding (the
  // scope's cell, or the out-of-line path when unbound). The static type
  // and its pseudo-site come from the context's reflection slot.
  static Bounds checkType(T *Ptr, Runtime &RT) {
    detail::settleAtThreadExit();
    ReflectedType Static = StaticOf::reflect(RT.typeContext());
    return RT.typeCheck(Ptr, Static.Type, Static.PseudoSite);
  }
  EFFSAN_ALWAYS_INLINE static Bounds checkType(T *Ptr,
                                               const RuntimeBinding &Bound) {
    if (EFFSAN_UNLIKELY(Bound.Cell == nullptr))
      return detail::typeCheckUnbound(Ptr, &StaticOf::reflect);
    ReflectedType Static = StaticOf::reflect(Bound.RT->typeContext());
    return Bound.RT->typeCheck(Ptr, Static.Type, Static.PseudoSite,
                               *Bound.Cell);
  }
  static Bounds getBounds(T *Ptr, Runtime &RT) {
    detail::settleAtThreadExit();
    return RT.boundsGet(Ptr);
  }
  EFFSAN_ALWAYS_INLINE static Bounds getBounds(T *Ptr,
                                               const RuntimeBinding &Bound) {
    if (EFFSAN_UNLIKELY(Bound.Cell == nullptr))
      return detail::boundsGetUnbound(Ptr);
    return Bound.RT->boundsGet(Ptr, NoSite, *Bound.Cell);
  }

  template <typename On>
  EFFSAN_ALWAYS_INLINE static CheckedPtr inputOn(T *Ptr, On &To) {
    CheckedPtr P;
    P.Raw = Ptr;
    if constexpr (Policy::CheckInputs && Policy::CheckCasts) {
      if (Ptr)
        P.B = checkType(Ptr, To);
    } else if constexpr (Policy::CheckInputs) {
      if (Ptr)
        P.B = getBounds(Ptr, To);
    }
    return P;
  }

  template <typename On>
  EFFSAN_ALWAYS_INLINE static CheckedPtr castOn(T *Ptr, On &To) {
    CheckedPtr P;
    P.Raw = Ptr;
    if constexpr (Policy::CheckCasts) {
      Bounds Checked = Bounds::wide();
      if (Ptr)
        Checked = checkType(Ptr, To);
      if constexpr (Policy::StoresBounds)
        P.B = Checked;
    } else if constexpr (Policy::CheckInputs) {
      if (Ptr)
        P.B = getBounds(Ptr, To);
    }
    return P;
  }

  // bounds_check, open-coded: one add to the thread's pending word
  // (settled into the current runtime's cell off this path) and the
  // compare. Bound or not, the success path touches no runtime; a
  // failure resolves the current runtime to report.
  EFFSAN_ALWAYS_INLINE void check(const void *P, size_t Size) const {
    if constexpr (Policy::CheckBounds) {
      ++PendingBoundsChecks;
      if (EFFSAN_UNLIKELY(!B.contains(P, Size)))
        detail::boundsCheckFail(P, Size, B.Lo, B.Hi);
    }
  }

  BoundsT narrowed(const void *Field, size_t Size) const {
    if constexpr (Policy::NarrowFields) {
      const RuntimeBinding &Bound = currentBinding();
      if (EFFSAN_LIKELY(Bound.Cell != nullptr))
        return Bound.RT->boundsNarrow(B, Field, Size, *Bound.Cell);
      return detail::boundsNarrowUnbound(B, Field, Size);
    } else if constexpr (Policy::StoresBounds) {
      return B; // Rule (f)-style propagation: allocation bounds only.
    } else {
      return BoundsT::wide();
    }
  }

  T *Raw;
  [[no_unique_address]] BoundsT B;
};

/// Allocates Count objects of type T from \p RT bound to the reflected
/// dynamic type (the paper's type_malloc with the inferred allocation
/// type), returning a checked pointer with the allocation bounds.
template <typename T, typename Policy>
CheckedPtr<T, Policy> allocateChecked(Runtime &RT, size_t Count = 1) {
  detail::settleAtThreadExit();
  const TypeInfo *Type =
      TypeOf<std::remove_cv_t<T>>::reflect(RT.typeContext()).Type;
  void *Mem = RT.allocate(Count * sizeof(T), Type);
  if constexpr (Policy::StoresBounds)
    return CheckedPtr<T, Policy>::withBounds(
        static_cast<T *>(Mem), Bounds::forObject(Mem, Count * sizeof(T)));
  else
    return CheckedPtr<T, Policy>::withBounds(static_cast<T *>(Mem),
                                             detail::NoBounds());
}

/// Frees a checked allocation (the paper's type_free).
template <typename T, typename Policy>
void deallocateChecked(Runtime &RT, CheckedPtr<T, Policy> Ptr) {
  RT.deallocate(Ptr.raw());
}

} // namespace effective

#endif // EFFECTIVE_CORE_CHECKEDPTR_H
