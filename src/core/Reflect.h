//===- core/Reflect.h - Native C++ type reflection --------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Maps native C++ types to interned TypeInfo. In the paper this job is
/// done by the modified clang front end, which attaches DWARF-derived
/// type annotations to the IR; for natively-compiled workloads we derive
/// the same information with template specializations plus a reflection
/// macro for record types:
///
/// \code
///   struct Account { int Number[8]; float Balance; };
///   EFFECTIVE_REFLECT(Account, Number, Balance);
///   ...
///   const TypeInfo *T = TypeOf<Account>::get(TypeContext::global());
/// \endcode
///
/// Function types map to the "generic function" type, matching the
/// paper's treatment of virtual function tables as arrays of generic
/// functions.
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_REFLECT_H
#define EFFECTIVE_CORE_REFLECT_H

#include "core/TypeContext.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace effective {

/// Primary template; specialized for every reflectable type. Using an
/// unreflected record type is a compile-time error. Every
/// specialization offers reflect(), the type with its pseudo-site (the
/// type-check hot path), and get(), the type alone.
template <typename T> struct TypeOf;

namespace detail {
/// Base of the slotted TypeOf specializations (records, pointers,
/// arrays, functions). The instantiation claims a process-wide slot id
/// on first use; reflect() is then one relaxed load of the id plus the
/// context's lock-free slot read. A miss (first use in this context)
/// takes the out-of-line Derived::resolve, which builds and publishes.
template <typename Derived> struct SlotReflected {
  EFFSAN_ALWAYS_INLINE static ReflectedType reflect(TypeContext &Ctx) {
    ReflectedType R = Ctx.reflected(Id.load(std::memory_order_relaxed));
    if (EFFSAN_LIKELY(R.Type != nullptr))
      return R;
    return resolveSlow(Ctx);
  }
  static const TypeInfo *get(TypeContext &Ctx) { return reflect(Ctx).Type; }

private:
  EFFSAN_NOINLINE static ReflectedType resolveSlow(TypeContext &Ctx) {
    return Derived::resolve(Ctx, TypeContext::claimSlotId(Id));
  }
  static inline std::atomic<uint32_t> Id{0};
};
} // namespace detail

#define EFFSAN_REFLECT_PRIMITIVE(TYPE, KIND)                                 \
  template <> struct TypeOf<TYPE> {                                          \
    static ReflectedType reflect(TypeContext &Ctx) {                         \
      return Ctx.reflectPrimitive(TypeKind::KIND);                           \
    }                                                                        \
    static const TypeInfo *get(TypeContext &Ctx) {                           \
      return reflect(Ctx).Type;                                              \
    }                                                                        \
  }

EFFSAN_REFLECT_PRIMITIVE(void, Void);
EFFSAN_REFLECT_PRIMITIVE(bool, Bool);
EFFSAN_REFLECT_PRIMITIVE(char, Char);
EFFSAN_REFLECT_PRIMITIVE(signed char, SChar);
EFFSAN_REFLECT_PRIMITIVE(unsigned char, UChar);
EFFSAN_REFLECT_PRIMITIVE(short, Short);
EFFSAN_REFLECT_PRIMITIVE(unsigned short, UShort);
EFFSAN_REFLECT_PRIMITIVE(int, Int);
EFFSAN_REFLECT_PRIMITIVE(unsigned int, UInt);
EFFSAN_REFLECT_PRIMITIVE(long, Long);
EFFSAN_REFLECT_PRIMITIVE(unsigned long, ULong);
EFFSAN_REFLECT_PRIMITIVE(long long, LongLong);
EFFSAN_REFLECT_PRIMITIVE(unsigned long long, ULongLong);
EFFSAN_REFLECT_PRIMITIVE(float, Float);
EFFSAN_REFLECT_PRIMITIVE(double, Double);
EFFSAN_REFLECT_PRIMITIVE(long double, LongDouble);

#undef EFFSAN_REFLECT_PRIMITIVE

// Qualifiers do not affect the dynamic type ([16] 6.5.0 p7).
template <typename T> struct TypeOf<const T> : TypeOf<T> {};
template <typename T> struct TypeOf<volatile T> : TypeOf<T> {};
template <typename T> struct TypeOf<const volatile T> : TypeOf<T> {};

template <typename T>
struct TypeOf<T *> : detail::SlotReflected<TypeOf<T *>> {
  static ReflectedType resolve(TypeContext &Ctx, uint32_t Id) {
    return Ctx.publishReflected(Id, Ctx.getPointer(TypeOf<T>::get(Ctx)));
  }
};

template <typename T, size_t N>
struct TypeOf<T[N]> : detail::SlotReflected<TypeOf<T[N]>> {
  static ReflectedType resolve(TypeContext &Ctx, uint32_t Id) {
    return Ctx.publishReflected(Id, Ctx.getArray(TypeOf<T>::get(Ctx), N));
  }
};

// All function types collapse to the generic function type (the paper
// treats virtual function tables as arrays of generic functions).
template <typename R, typename... A>
struct TypeOf<R(A...)> : detail::SlotReflected<TypeOf<R(A...)>> {
  static ReflectedType resolve(TypeContext &Ctx, uint32_t Id) {
    return Ctx.publishReflected(Id, Ctx.getGenericFunction());
  }
};

/// Helper used by the reflection macros to assemble and define a record.
class ReflectBuilder {
public:
  ReflectBuilder(TypeContext &Ctx, TypeKind Kind, std::string_view Tag)
      : Ctx(Ctx), Record(Ctx.createRecord(Kind, Tag)) {}

  RecordType *record() { return Record; }

  void addField(std::string_view Name, const TypeInfo *Type,
                uint64_t Offset, bool IsBase = false) {
    Fields.push_back(FieldInfo{Name, Type, Offset, IsBase});
  }

  /// Adds the hidden virtual-table pointer of a polymorphic class as a
  /// pointer-to-generic-function member at offset 0.
  void addVTablePointer() {
    addField("__vptr", Ctx.getPointer(Ctx.getGenericFunction()), 0);
  }

  const TypeInfo *finish(uint64_t Size, uint32_t Align,
                         const TypeInfo *FamElement = nullptr) {
    Ctx.defineRecord(Record, Fields, Size, Align, FamElement);
    return Record;
  }

private:
  TypeContext &Ctx;
  RecordType *Record;
  std::vector<FieldInfo> Fields;
};

namespace detail {
/// The first build of a reflected record in \p Ctx (the slow path of
/// the EFFSAN_REFLECT_BODY specializations): \p AddFields adds the
/// members to a fresh record, which is published once complete.
template <typename AddFieldsFn>
ReflectedType reflectRecord(TypeContext &Ctx, uint32_t Id, TypeKind Kind,
                            std::string_view Tag, uint64_t Size,
                            uint32_t Align, AddFieldsFn AddFields) {
  auto Guard = Ctx.reflectGuard();
  // Another thread may have finished the build while this one waited.
  if (ReflectedType Known = Ctx.reflected(Id); Known.Type)
    return Known;
  // A self-referential record reaches its own in-progress build.
  if (const TypeInfo *Self = Ctx.building(Id))
    return {Self, siteForType(Self)};
  ReflectBuilder Builder(Ctx, Kind, Tag);
  Ctx.beginBuilding(Id, Builder.record());
  AddFields(Builder);
  return Ctx.publishReflected(Id, Builder.finish(Size, Align));
}
} // namespace detail

} // namespace effective

//===----------------------------------------------------------------------===//
// Preprocessor FOR_EACH machinery (up to 24 fields).
//===----------------------------------------------------------------------===//

#define EFFSAN_PP_NARG(...)                                                  \
  EFFSAN_PP_NARG_(__VA_ARGS__, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15, 14,  \
                  13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)
#define EFFSAN_PP_NARG_(_1, _2, _3, _4, _5, _6, _7, _8, _9, _10, _11, _12,  \
                        _13, _14, _15, _16, _17, _18, _19, _20, _21, _22,   \
                        _23, _24, N, ...)                                    \
  N
#define EFFSAN_PP_CAT(A, B) EFFSAN_PP_CAT_(A, B)
#define EFFSAN_PP_CAT_(A, B) A##B

#define EFFSAN_PP_FE_1(M, T, X) M(T, X)
#define EFFSAN_PP_FE_2(M, T, X, ...) M(T, X) EFFSAN_PP_FE_1(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_3(M, T, X, ...) M(T, X) EFFSAN_PP_FE_2(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_4(M, T, X, ...) M(T, X) EFFSAN_PP_FE_3(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_5(M, T, X, ...) M(T, X) EFFSAN_PP_FE_4(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_6(M, T, X, ...) M(T, X) EFFSAN_PP_FE_5(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_7(M, T, X, ...) M(T, X) EFFSAN_PP_FE_6(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_8(M, T, X, ...) M(T, X) EFFSAN_PP_FE_7(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_9(M, T, X, ...) M(T, X) EFFSAN_PP_FE_8(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_10(M, T, X, ...) M(T, X) EFFSAN_PP_FE_9(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_11(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_10(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_12(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_11(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_13(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_12(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_14(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_13(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_15(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_14(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_16(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_15(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_17(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_16(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_18(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_17(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_19(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_18(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_20(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_19(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_21(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_20(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_22(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_21(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_23(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_22(M, T, __VA_ARGS__)
#define EFFSAN_PP_FE_24(M, T, X, ...)                                       \
  M(T, X) EFFSAN_PP_FE_23(M, T, __VA_ARGS__)

#define EFFSAN_PP_FOR_EACH(M, T, ...)                                        \
  EFFSAN_PP_CAT(EFFSAN_PP_FE_, EFFSAN_PP_NARG(__VA_ARGS__))                  \
  (M, T, __VA_ARGS__)

/// Emits one FieldInfo for a named member.
#define EFFSAN_REFLECT_FIELD(TYPE, FIELD)                                    \
  Builder.addField(#FIELD,                                                   \
                   ::effective::TypeOf<decltype(TYPE::FIELD)>::get(Ctx),     \
                   offsetof(TYPE, FIELD));

/* Concurrency: the specialization is slotted (detail::SlotReflected),
 * so after the first build in a context reflect() is a lock-free slot
 * read. The first build runs under the context's recursive reflect
 * guard (detail::reflectRecord): two threads reflecting TYPE for the
 * first time agree on ONE record (the loser finds the winner's
 * published slot on its re-check), a self-referential TYPE finds its
 * own in-progress record through TypeContext::building(), and the slot
 * is published only once the record is complete, so no thread can
 * observe a record whose fields are still being written. */
#define EFFSAN_REFLECT_BODY(TYPE, KIND, PRELUDE, ...)                        \
  template <>                                                                \
  struct effective::TypeOf<TYPE>                                             \
      : ::effective::detail::SlotReflected<::effective::TypeOf<TYPE>> {      \
    static ::effective::ReflectedType resolve(::effective::TypeContext &Ctx, \
                                              uint32_t Id) {                 \
      return ::effective::detail::reflectRecord(                             \
          Ctx, Id, KIND, #TYPE, sizeof(TYPE), alignof(TYPE),                 \
          [&](::effective::ReflectBuilder &Builder) {                        \
            PRELUDE                                                          \
            EFFSAN_PP_FOR_EACH(EFFSAN_REFLECT_FIELD, TYPE, __VA_ARGS__)      \
          });                                                                \
    }                                                                        \
  }

/// Reflects a plain struct: EFFECTIVE_REFLECT(S, f1, f2, ...). Must be
/// used at global namespace scope.
#define EFFECTIVE_REFLECT(TYPE, ...)                                         \
  EFFSAN_REFLECT_BODY(TYPE, ::effective::TypeKind::Struct, , __VA_ARGS__)

/// Reflects a union.
#define EFFECTIVE_REFLECT_UNION(TYPE, ...)                                   \
  EFFSAN_REFLECT_BODY(TYPE, ::effective::TypeKind::Union, , __VA_ARGS__)

/// Reflects a polymorphic class (hidden vtable pointer at offset 0).
#define EFFECTIVE_REFLECT_POLY(TYPE, ...)                                    \
  EFFSAN_REFLECT_BODY(TYPE, ::effective::TypeKind::Struct,                   \
                      Builder.addVTablePointer();, __VA_ARGS__)

/// Reflects a class with one (possibly polymorphic) base class; the base
/// becomes an implicit embedded member at its real offset (Section 3).
#define EFFECTIVE_REFLECT_DERIVED(TYPE, BASE, ...)                           \
  EFFSAN_REFLECT_BODY(                                                       \
      TYPE, ::effective::TypeKind::Struct,                                   \
      Builder.addField(                                                      \
          #BASE, ::effective::TypeOf<BASE>::get(Ctx),                        \
          (uint64_t)(reinterpret_cast<char *>(static_cast<BASE *>(          \
                         reinterpret_cast<TYPE *>(sizeof(TYPE)))) -          \
                     reinterpret_cast<char *>(sizeof(TYPE))),                \
          /*IsBase=*/true);,                                                 \
      __VA_ARGS__)

#endif // EFFECTIVE_CORE_REFLECT_H
