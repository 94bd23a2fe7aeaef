//===- support/StringInterner.cpp - String interning table ---------------===//

#include "support/StringInterner.h"

#include <bit>
#include <cassert>
#include <cstring>
#include <functional>

using namespace sus;

size_t StringInterner::find(std::string_view Str, size_t Hash) const {
  size_t Mask = Slots.size() - 1;
  for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (!S.IdPlusOne || (S.HashBits == static_cast<uint32_t>(Hash >> 32) &&
                         Texts[S.IdPlusOne - 1] == Str))
      return I;
  }
}

void StringInterner::rehash(size_t NumSlots) {
  std::vector<Slot> Old(NumSlots);
  Old.swap(Slots);
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (!S.IdPlusOne)
      continue;
    size_t I = Hashes[S.IdPlusOne - 1] & Mask;
    while (Slots[I].IdPlusOne)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}

Symbol StringInterner::intern(std::string_view Str) {
  if (2 * (Texts.size() + 1) > Slots.size())
    rehash(Slots.empty() ? 1024 : 2 * Slots.size());
  size_t Hash = std::hash<std::string_view>()(Str);
  Slot &S = Slots[find(Str, Hash)];
  if (S.IdPlusOne)
    return Symbol(S.IdPlusOne - 1);

  assert(Texts.size() < ~0u - 1 && "interner overflow");
  char *Copy = static_cast<char *>(Chars.allocate(Str.size(), 1));
  if (!Str.empty())
    std::memcpy(Copy, Str.data(), Str.size());
  Texts.emplace_back(Copy, Str.size());
  Hashes.push_back(Hash);
  S = {static_cast<uint32_t>(Texts.size()), static_cast<uint32_t>(Hash >> 32)};
  return Symbol(S.IdPlusOne - 1);
}

void StringInterner::reserve(size_t N) {
  Texts.reserve(N);
  Hashes.reserve(N);
  if (2 * N > Slots.size())
    rehash(std::bit_ceil(2 * N));
}

std::string_view StringInterner::text(Symbol S) const {
  assert(S.isValid() && S.id() < Texts.size() && "foreign symbol");
  return Texts[S.id()];
}

Symbol StringInterner::lookup(std::string_view Str) const {
  if (Slots.empty())
    return Symbol();
  const Slot &S = Slots[find(Str, std::hash<std::string_view>()(Str))];
  return S.IdPlusOne ? Symbol(S.IdPlusOne - 1) : Symbol();
}
