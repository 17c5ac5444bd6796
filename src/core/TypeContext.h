//===- core/TypeContext.h - Type interning context --------------*- C++ -*-===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TypeContext owns and interns all TypeInfo objects. Interning gives
/// the property the runtime relies on: pointer equality of TypeInfo is
/// dynamic type equality, the same guarantee the paper obtains by
/// emitting type meta data as weak symbols ("defined once per type").
///
/// Thread-safe: all factory methods may be called concurrently (the
/// EffectiveSan runtime reflects types from any thread).
///
//===----------------------------------------------------------------------===//

#ifndef EFFECTIVE_CORE_TYPECONTEXT_H
#define EFFECTIVE_CORE_TYPECONTEXT_H

#include "core/SiteCache.h"
#include "core/TypeInfo.h"
#include "support/Arena.h"
#include "support/Compiler.h"

#include <atomic>
#include <bit>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace effective {

/// A natively reflected static type as CheckedPtr's type check
/// consumes it: the interned type and the pseudo-site it probes the
/// session's inline cache at (always siteForType(Type)).
struct ReflectedType {
  const TypeInfo *Type;
  SiteId PseudoSite;
};

/// Factory and owner of interned TypeInfo objects.
class TypeContext {
public:
  TypeContext();
  ~TypeContext();

  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;

  /// \name Primitive types (singletons per context).
  /// @{
  const TypeInfo *getVoid() const { return Primitives[0]; }
  const TypeInfo *getBool() const { return prim(TypeKind::Bool); }
  const TypeInfo *getChar() const { return prim(TypeKind::Char); }
  const TypeInfo *getSChar() const { return prim(TypeKind::SChar); }
  const TypeInfo *getUChar() const { return prim(TypeKind::UChar); }
  const TypeInfo *getShort() const { return prim(TypeKind::Short); }
  const TypeInfo *getUShort() const { return prim(TypeKind::UShort); }
  const TypeInfo *getInt() const { return prim(TypeKind::Int); }
  const TypeInfo *getUInt() const { return prim(TypeKind::UInt); }
  const TypeInfo *getLong() const { return prim(TypeKind::Long); }
  const TypeInfo *getULong() const { return prim(TypeKind::ULong); }
  const TypeInfo *getLongLong() const { return prim(TypeKind::LongLong); }
  const TypeInfo *getULongLong() const { return prim(TypeKind::ULongLong); }
  const TypeInfo *getFloat() const { return prim(TypeKind::Float); }
  const TypeInfo *getDouble() const { return prim(TypeKind::Double); }
  const TypeInfo *getLongDouble() const {
    return prim(TypeKind::LongDouble);
  }
  /// The dynamic type of deallocated memory (Section 3).
  const TypeInfo *getFree() const { return prim(TypeKind::Free); }
  /// The dynamic type of a stack object whose frame has returned (the
  /// stack flavor of FREE; see TypeKind::StackFree).
  const TypeInfo *getStackFree() const {
    return prim(TypeKind::StackFree);
  }
  /// Internal sentinel for the (T*)/(void*) coercion; see LayoutTable.
  const TypeInfo *getAnyPointer() const {
    return prim(TypeKind::AnyPointer);
  }
  /// @}

  /// Interns T* for pointee \p Pointee.
  const PointerType *getPointer(const TypeInfo *Pointee);

  /// Interns the complete array type \p Element[\p Count].
  const ArrayType *getArray(const TypeInfo *Element, uint64_t Count);

  /// Interns a function type.
  const FunctionType *getFunction(const TypeInfo *Return,
                                  std::span<const TypeInfo *const> Params);

  /// The "generic function" type standing in for virtual-table entries.
  const FunctionType *getGenericFunction();

  /// Creates a fresh, incomplete record with tag \p Tag (may be empty).
  /// Each call creates a distinct dynamic type.
  RecordType *createRecord(TypeKind StructOrUnion, std::string_view Tag);

  /// Completes \p Record with its members and layout. \p FamElement is
  /// the element type of a trailing flexible array member, or null.
  /// Field name strings are interned; must be called exactly once.
  void defineRecord(RecordType *Record, std::span<const FieldInfo> Fields,
                    uint64_t Size, uint32_t Align,
                    const TypeInfo *FamElement = nullptr);

  /// \name Native reflection slots.
  /// Native reflection (core/Reflect.h) resolves a C++ type once per
  /// context and then reads it from a slot table, the stand-in for the
  /// paper's compile-time constant static type. Each TypeOf<T> for a
  /// record, pointer, array or function type claims a process-unique
  /// dense slot id (claimSlotId); each context keeps, per id, the
  /// interned type and its pseudo-site (siteForType), so CheckedPtr's
  /// type check neither locks nor hashes.
  ///
  /// Thread safety protocol: reflected() is lock-free. It loads the
  /// id's chunk pointer and then the slot's type, both acquire, so a
  /// non-null type comes with its pseudo-site and the chunk's zeroed
  /// construction. Every write happens under reflectGuard():
  /// publishReflected() allocates missing chunks and stores the
  /// pseudo-site before the type (release). Only complete records are
  /// published; a thread that misses blocks on the guard until the
  /// builder finishes and then finds the slot. The guard is recursive:
  /// a record whose field is itself a reflected type re-enters it, and
  /// a self-referential record finds its own in-progress record through
  /// building(). A type derived from such a record (Node * inside Node)
  /// is returned unpublished, so no other thread can reach the record
  /// before it is complete. Slots belong to the context, so a context
  /// built where a dead one stood starts with an empty table.
  ///
  /// Chunk K holds FirstChunkSlots << K slots, so the table grows
  /// without a bound or a lock on the read side, and a context that
  /// never reflects a native type allocates no chunk at all.
  /// @{

  /// One slot: the published type (null until then) and its pseudo-site.
  struct TypeSlot {
    std::atomic<const TypeInfo *> Type{nullptr};
    std::atomic<SiteId> PseudoSite{0};
  };

  static constexpr unsigned FirstChunkShift = 8;
  static constexpr uint32_t FirstChunkSlots = uint32_t(1) << FirstChunkShift;

  /// Returns the slot id stored in \p Id, claiming a fresh one from the
  /// process-wide counter when it is still 0 (ids start at 1).
  static uint32_t claimSlotId(std::atomic<uint32_t> &Id);

  /// The published type of slot \p Id and its pseudo-site; a null Type
  /// when the slot is unpublished (always so for the unclaimed id 0).
  EFFSAN_ALWAYS_INLINE ReflectedType reflected(uint32_t Id) const {
    auto [K, Index] = slotPosition(Id);
    const TypeSlot *Chunk = SlotChunks[K].load(std::memory_order_acquire);
    if (EFFSAN_UNLIKELY(!Chunk))
      return {nullptr, 0};
    const TypeSlot &S = Chunk[Index];
    const TypeInfo *Type = S.Type.load(std::memory_order_acquire);
    return {Type, S.PseudoSite.load(std::memory_order_relaxed)};
  }

  /// Publishes \p Type in slot \p Id and returns it with its
  /// pseudo-site. A record must be complete and ends its building()
  /// entry; any other type is left unpublished while a record is under
  /// construction on this thread.
  ReflectedType publishReflected(uint32_t Id, const TypeInfo *Type);

  /// The record under construction for slot \p Id, or null.
  /// \pre The caller holds reflectGuard().
  const TypeInfo *building(uint32_t Id) const;
  /// Marks \p Record as slot \p Id's record under construction until
  /// publishReflected(). \pre The caller holds reflectGuard().
  void beginBuilding(uint32_t Id, const TypeInfo *Record);

  /// Serializes reflection builds and slot writes on this context.
  std::unique_lock<std::recursive_mutex> reflectGuard() {
    return std::unique_lock<std::recursive_mutex>(ReflectBuildLock);
  }

  /// Bytes of slot chunks this context has allocated (0 until it first
  /// reflects a native type).
  size_t slotTableBytes() const;

  /// The primitive \p Kind with its pseudo-site (primitives need no
  /// slot).
  ReflectedType reflectPrimitive(TypeKind Kind) const {
    unsigned I = static_cast<unsigned>(Kind);
    return {Primitives[I], PrimitiveSites[I]};
  }
  /// @}

  /// Interns a string into the context arena.
  std::string_view internString(std::string_view S);

  /// Number of types created (for tests/statistics).
  size_t numTypes() const;

  /// The process-wide context used by the default runtime and native
  /// reflection.
  static TypeContext &global();

private:
  const TypeInfo *prim(TypeKind Kind) const {
    return Primitives[static_cast<unsigned>(Kind)];
  }

  /// The chunk holding slot \p Id and the slot's index in it.
  EFFSAN_ALWAYS_INLINE static std::pair<unsigned, uint32_t>
  slotPosition(uint32_t Id) {
    if (EFFSAN_LIKELY(Id < FirstChunkSlots))
      return {0, Id};
    uint64_t J = uint64_t(Id) + FirstChunkSlots;
    unsigned K = unsigned(std::bit_width(J)) - 1 - FirstChunkShift;
    return {K, uint32_t(J - (uint64_t(FirstChunkSlots) << K))};
  }

  static constexpr unsigned NumPrimitives =
      static_cast<unsigned>(TypeKind::AnyPointer) + 1;
  /// Enough chunks for every 32-bit slot id.
  static constexpr unsigned NumSlotChunks = 33 - FirstChunkShift;

  mutable std::mutex Lock;
  /// Serializes reflection builds and slot writes (see reflectGuard).
  std::recursive_mutex ReflectBuildLock;
  Arena A;
  const TypeInfo *Primitives[NumPrimitives] = {};
  SiteId PrimitiveSites[NumPrimitives] = {};
  std::atomic<TypeSlot *> SlotChunks[NumSlotChunks] = {};
  /// Records under construction by the guard holder (innermost last).
  std::vector<std::pair<uint32_t, const TypeInfo *>> Building;
  std::unordered_map<const TypeInfo *, const PointerType *> PointerTypes;
  std::unordered_map<uint64_t, std::vector<const ArrayType *>> ArrayTypes;
  std::unordered_map<uint64_t, std::vector<const FunctionType *>>
      FunctionTypes;
  const FunctionType *GenericFunction = nullptr;
  std::vector<TypeInfo *> AllTypes;
};

/// Helper that computes C-style record layout (offset/alignment/padding)
/// for frontends that do not know offsets a priori (MiniC). Native
/// reflection uses real offsetof() values instead.
class RecordBuilder {
public:
  /// \p Tag may be empty for anonymous records.
  RecordBuilder(TypeContext &Ctx, TypeKind StructOrUnion,
                std::string_view Tag);

  /// Appends a member; computes its offset per C layout rules (union
  /// members are all at offset zero). \p Name is copied into the
  /// context, so a temporary is fine.
  RecordBuilder &addField(std::string_view Name, const TypeInfo *Type,
                          bool IsBase = false);

  /// Appends a trailing flexible array member of element type \p Elem
  /// (represented as Elem[1], per the paper). Must be last.
  RecordBuilder &addFlexibleArray(std::string_view Name,
                                  const TypeInfo *Elem);

  /// Completes and returns the record.
  RecordType *finish();

  /// The record being built (incomplete until finish()).
  RecordType *record() const { return Record; }

private:
  TypeContext &Ctx;
  RecordType *Record;
  std::vector<FieldInfo> Fields;
  uint64_t Offset = 0;
  uint32_t MaxAlign = 1;
  const TypeInfo *FamElement = nullptr;
  bool IsUnion;
  bool Finished = false;
};

} // namespace effective

#endif // EFFECTIVE_CORE_TYPECONTEXT_H
