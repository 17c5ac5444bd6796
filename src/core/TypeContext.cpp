//===- core/TypeContext.cpp - Type interning context ----------------------===//
//
// Part of the EffectiveSan reproduction. Released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/TypeContext.h"

#include "core/Layout.h"
#include "support/Compiler.h"
#include "support/Hashing.h"

#include <cassert>

using namespace effective;

std::string_view effective::primitiveKindName(TypeKind Kind) {
  switch (Kind) {
  case TypeKind::Void:
    return "void";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::Char:
    return "char";
  case TypeKind::SChar:
    return "signed char";
  case TypeKind::UChar:
    return "unsigned char";
  case TypeKind::Short:
    return "short";
  case TypeKind::UShort:
    return "unsigned short";
  case TypeKind::Int:
    return "int";
  case TypeKind::UInt:
    return "unsigned int";
  case TypeKind::Long:
    return "long";
  case TypeKind::ULong:
    return "unsigned long";
  case TypeKind::LongLong:
    return "long long";
  case TypeKind::ULongLong:
    return "unsigned long long";
  case TypeKind::Float:
    return "float";
  case TypeKind::Double:
    return "double";
  case TypeKind::LongDouble:
    return "long double";
  case TypeKind::Free:
    return "<free>";
  case TypeKind::StackFree:
    return "<stack-free>";
  case TypeKind::AnyPointer:
    return "<any-pointer>";
  default:
    EFFSAN_UNREACHABLE("not a primitive type kind");
  }
}

const TypeInfo *ArrayType::scalarElement() const {
  const TypeInfo *T = Element;
  while (const auto *A = dyn_cast<ArrayType>(T))
    T = A->element();
  return T;
}

std::string TypeInfo::str() const {
  switch (Kind) {
  case TypeKind::Pointer:
    return cast<PointerType>(this)->pointee()->str() + " *";
  case TypeKind::Array: {
    const auto *A = cast<ArrayType>(this);
    return A->element()->str() + "[" + std::to_string(A->count()) + "]";
  }
  case TypeKind::Function: {
    const auto *F = cast<FunctionType>(this);
    if (F->isGeneric())
      return "<generic function>";
    std::string S = F->returnType()->str() + " (";
    bool First = true;
    for (const TypeInfo *P : F->params()) {
      if (!First)
        S += ", ";
      S += P->str();
      First = false;
    }
    return S + ")";
  }
  case TypeKind::Struct:
  case TypeKind::Union: {
    std::string S = Kind == TypeKind::Struct ? "struct " : "union ";
    std::string_view Tag = name();
    return S + (Tag.empty() ? std::string("<anonymous>")
                            : std::string(Tag));
  }
  default:
    return std::string(primitiveKindName(Kind));
  }
}

const LayoutTable &TypeInfo::layout() const {
  const LayoutTable *Table = Layout.load(std::memory_order_acquire);
  if (EFFSAN_LIKELY(Table))
    return *Table;
  auto *Fresh = new LayoutTable(LayoutTable::build(this));
  const LayoutTable *Expected = nullptr;
  if (!Layout.compare_exchange_strong(Expected, Fresh,
                                      std::memory_order_acq_rel)) {
    delete Fresh; // Another thread won the race.
    return *Expected;
  }
  return *Fresh;
}

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

namespace {

struct PrimitiveSpec {
  TypeKind Kind;
  uint64_t Size;
  uint32_t Align;
};

constexpr PrimitiveSpec PrimitiveSpecs[] = {
    {TypeKind::Void, 0, 1},
    {TypeKind::Bool, sizeof(bool), alignof(bool)},
    {TypeKind::Char, 1, 1},
    {TypeKind::SChar, 1, 1},
    {TypeKind::UChar, 1, 1},
    {TypeKind::Short, sizeof(short), alignof(short)},
    {TypeKind::UShort, sizeof(short), alignof(short)},
    {TypeKind::Int, sizeof(int), alignof(int)},
    {TypeKind::UInt, sizeof(int), alignof(int)},
    {TypeKind::Long, sizeof(long), alignof(long)},
    {TypeKind::ULong, sizeof(long), alignof(long)},
    {TypeKind::LongLong, sizeof(long long), alignof(long long)},
    {TypeKind::ULongLong, sizeof(long long), alignof(long long)},
    {TypeKind::Float, sizeof(float), alignof(float)},
    {TypeKind::Double, sizeof(double), alignof(double)},
    {TypeKind::LongDouble, sizeof(long double), alignof(long double)},
    // FREE has size 1 so offset normalization is trivially defined.
    {TypeKind::Free, 1, 1},
    {TypeKind::StackFree, 1, 1},
    {TypeKind::AnyPointer, sizeof(void *), alignof(void *)},
};

} // namespace

TypeContext::TypeContext() {
  for (const PrimitiveSpec &Spec : PrimitiveSpecs) {
    auto *T = new PrimitiveType(Spec.Kind, Spec.Size, Spec.Align);
    Primitives[static_cast<unsigned>(Spec.Kind)] = T;
    PrimitiveSites[static_cast<unsigned>(Spec.Kind)] = siteForType(T);
    T->Context = this;
    AllTypes.push_back(T);
  }
}

/// Deletes \p T as the subclass its kind names. TypeInfo has no vtable
/// (a vptr in every type would cost the check paths), so a delete
/// through the base pointer would be undefined.
static void destroyType(TypeInfo *T) {
  switch (T->kind()) {
  case TypeKind::Pointer:
    delete static_cast<PointerType *>(T);
    return;
  case TypeKind::Array:
    delete static_cast<ArrayType *>(T);
    return;
  case TypeKind::Function:
    delete static_cast<FunctionType *>(T);
    return;
  case TypeKind::Struct:
  case TypeKind::Union:
    delete static_cast<RecordType *>(T);
    return;
  default:
    delete static_cast<PrimitiveType *>(T);
    return;
  }
}

TypeContext::~TypeContext() {
  for (std::atomic<TypeSlot *> &Chunk : SlotChunks)
    delete[] Chunk.load(std::memory_order_relaxed);
  for (TypeInfo *T : AllTypes) {
    delete T->Layout.load(std::memory_order_relaxed);
    destroyType(T);
  }
}

TypeContext &TypeContext::global() {
  static TypeContext Ctx;
  return Ctx;
}

const PointerType *TypeContext::getPointer(const TypeInfo *Pointee) {
  assert(Pointee && "null pointee");
  std::lock_guard<std::mutex> Guard(Lock);
  auto It = PointerTypes.find(Pointee);
  if (It != PointerTypes.end())
    return It->second;
  auto *T = new PointerType(Pointee);
  PointerTypes.emplace(Pointee, T);
  T->Context = this;
  AllTypes.push_back(T);
  return T;
}

const ArrayType *TypeContext::getArray(const TypeInfo *Element,
                                       uint64_t Count) {
  assert(Element && Element->size() > 0 &&
         "array element must be a complete object type");
  std::lock_guard<std::mutex> Guard(Lock);
  uint64_t Key = hashCombine(hashPointer(Element), Count);
  for (const ArrayType *A : ArrayTypes[Key])
    if (A->element() == Element && A->count() == Count)
      return A;
  auto *T = new ArrayType(Element, Count);
  ArrayTypes[Key].push_back(T);
  T->Context = this;
  AllTypes.push_back(T);
  return T;
}

const FunctionType *
TypeContext::getFunction(const TypeInfo *Return,
                         std::span<const TypeInfo *const> Params) {
  std::lock_guard<std::mutex> Guard(Lock);
  uint64_t Key = hashPointer(Return);
  for (const TypeInfo *P : Params)
    Key = hashCombine(Key, hashPointer(P));
  for (const FunctionType *F : FunctionTypes[Key]) {
    if (F->returnType() != Return || F->isGeneric() ||
        F->params().size() != Params.size())
      continue;
    bool Same = true;
    for (size_t I = 0; I < Params.size(); ++I)
      if (F->params()[I] != Params[I])
        Same = false;
    if (Same)
      return F;
  }
  // Copy the parameter list into the arena for a stable span.
  const TypeInfo **Stable = nullptr;
  if (!Params.empty()) {
    Stable = static_cast<const TypeInfo **>(
        A.allocate(Params.size() * sizeof(TypeInfo *), alignof(TypeInfo *)));
    for (size_t I = 0; I < Params.size(); ++I)
      Stable[I] = Params[I];
  }
  auto *T = new FunctionType(
      Return, std::span<const TypeInfo *const>(Stable, Params.size()),
      /*Generic=*/false);
  FunctionTypes[Key].push_back(T);
  T->Context = this;
  AllTypes.push_back(T);
  return T;
}

const FunctionType *TypeContext::getGenericFunction() {
  std::lock_guard<std::mutex> Guard(Lock);
  if (!GenericFunction) {
    auto *T = new FunctionType(getVoid(), std::span<const TypeInfo *const>(),
                               /*Generic=*/true);
    GenericFunction = T;
    T->Context = this;
    AllTypes.push_back(T);
  }
  return GenericFunction;
}

RecordType *TypeContext::createRecord(TypeKind StructOrUnion,
                                      std::string_view Tag) {
  assert((StructOrUnion == TypeKind::Struct ||
          StructOrUnion == TypeKind::Union) &&
         "records are structs or unions");
  std::lock_guard<std::mutex> Guard(Lock);
  auto *T = new RecordType(StructOrUnion, A.internString(Tag));
  T->Context = this;
  AllTypes.push_back(T);
  return T;
}

void TypeContext::defineRecord(RecordType *Record,
                               std::span<const FieldInfo> Fields,
                               uint64_t Size, uint32_t Align,
                               const TypeInfo *FamElement) {
  assert(!Record->isComplete() && "record defined twice");
  assert(Size > 0 && "record size must be positive");
  std::lock_guard<std::mutex> Guard(Lock);
  FieldInfo *Stable = nullptr;
  if (!Fields.empty()) {
    Stable = static_cast<FieldInfo *>(
        A.allocate(Fields.size() * sizeof(FieldInfo), alignof(FieldInfo)));
    for (size_t I = 0; I < Fields.size(); ++I) {
      Stable[I] = Fields[I];
      Stable[I].Name = A.internString(Fields[I].Name);
      assert(Stable[I].Type && "field with null type");
      assert((Record->isUnion() || Stable[I].Offset + Stable[I].Type->size()
              <= Size) && "field extends past record end");
    }
  }
  Record->Fields = std::span<const FieldInfo>(Stable, Fields.size());
  Record->Size = Size;
  Record->Align = Align;
  Record->FamElement = FamElement;
  Record->Complete = true;
}

uint32_t TypeContext::claimSlotId(std::atomic<uint32_t> &Id) {
  static std::atomic<uint32_t> NextId{1};
  uint32_t Current = Id.load(std::memory_order_relaxed);
  if (Current)
    return Current;
  // A racing claimant may win; the loser's fresh id stays unused.
  uint32_t Fresh = NextId.fetch_add(1, std::memory_order_relaxed);
  if (Id.compare_exchange_strong(Current, Fresh, std::memory_order_relaxed))
    return Fresh;
  return Current;
}

ReflectedType TypeContext::publishReflected(uint32_t Id,
                                            const TypeInfo *Type) {
  assert(Id && "publishing an unclaimed slot id");
  auto Guard = reflectGuard();
  ReflectedType R{Type, siteForType(Type)};
  if (isa<RecordType>(Type)) {
    assert(cast<RecordType>(Type)->isComplete() &&
           "only complete records are published");
    assert(!Building.empty() && Building.back().first == Id &&
           "published record was not the innermost build");
    Building.pop_back();
  } else if (!Building.empty()) {
    // Possibly derived from a record this thread is still building; the
    // next use resolves it again, to the same interned type.
    return R;
  }
  auto [K, Index] = slotPosition(Id);
  TypeSlot *Chunk = SlotChunks[K].load(std::memory_order_relaxed);
  if (!Chunk) {
    Chunk = new TypeSlot[size_t(FirstChunkSlots) << K];
    SlotChunks[K].store(Chunk, std::memory_order_release);
  }
  TypeSlot &S = Chunk[Index];
  assert((!S.Type.load(std::memory_order_relaxed) ||
          S.Type.load(std::memory_order_relaxed) == Type) &&
         "slot republished with another type");
  S.PseudoSite.store(R.PseudoSite, std::memory_order_relaxed);
  S.Type.store(Type, std::memory_order_release);
  return R;
}

const TypeInfo *TypeContext::building(uint32_t Id) const {
  for (const auto &[BuildId, Record] : Building)
    if (BuildId == Id)
      return Record;
  return nullptr;
}

void TypeContext::beginBuilding(uint32_t Id, const TypeInfo *Record) {
  Building.emplace_back(Id, Record);
}

size_t TypeContext::slotTableBytes() const {
  size_t Bytes = 0;
  for (unsigned K = 0; K < NumSlotChunks; ++K)
    if (SlotChunks[K].load(std::memory_order_acquire))
      Bytes += (size_t(FirstChunkSlots) << K) * sizeof(TypeSlot);
  return Bytes;
}

std::string_view TypeContext::internString(std::string_view S) {
  std::lock_guard<std::mutex> Guard(Lock);
  return A.internString(S);
}

size_t TypeContext::numTypes() const {
  std::lock_guard<std::mutex> Guard(Lock);
  return AllTypes.size();
}

//===----------------------------------------------------------------------===//
// RecordBuilder
//===----------------------------------------------------------------------===//

static uint64_t alignTo(uint64_t Value, uint64_t Align) {
  return (Value + Align - 1) / Align * Align;
}

RecordBuilder::RecordBuilder(TypeContext &Ctx, TypeKind StructOrUnion,
                             std::string_view Tag)
    : Ctx(Ctx), Record(Ctx.createRecord(StructOrUnion, Tag)),
      IsUnion(StructOrUnion == TypeKind::Union) {}

RecordBuilder &RecordBuilder::addField(std::string_view Name,
                                       const TypeInfo *Type, bool IsBase) {
  assert(!Finished && "addField after finish");
  assert(!FamElement && "no fields may follow a flexible array member");
  assert(Type->size() > 0 && "field of incomplete type");
  FieldInfo Field;
  // Interned now: the caller's view may not outlive this call.
  Field.Name = Ctx.internString(Name);
  Field.Type = Type;
  Field.IsBase = IsBase;
  if (IsUnion) {
    Field.Offset = 0;
    if (Type->size() > Offset)
      Offset = Type->size();
  } else {
    Field.Offset = alignTo(Offset, Type->align());
    Offset = Field.Offset + Type->size();
  }
  if (Type->align() > MaxAlign)
    MaxAlign = Type->align();
  Fields.push_back(Field);
  return *this;
}

RecordBuilder &RecordBuilder::addFlexibleArray(std::string_view Name,
                                               const TypeInfo *Elem) {
  assert(!IsUnion && "flexible array member in a union");
  // Represented as Elem[1] per the paper's convention.
  addField(Name, Ctx.getArray(Elem, 1));
  FamElement = Elem;
  return *this;
}

RecordType *RecordBuilder::finish() {
  assert(!Finished && "finish called twice");
  Finished = true;
  uint64_t Size = alignTo(Offset == 0 ? 1 : Offset, MaxAlign);
  Ctx.defineRecord(Record, Fields, Size, MaxAlign, FamElement);
  return Record;
}
