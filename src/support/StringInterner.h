//===- support/StringInterner.h - String interning table --------*- C++ -*-===//
///
/// \file
/// Uniquing table mapping strings to Symbols and back. All names in a
/// verification session live in one interner so symbol equality is identity.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_STRINGINTERNER_H
#define SUS_SUPPORT_STRINGINTERNER_H

#include "support/Arena.h"
#include "support/Symbol.h"

#include <string_view>
#include <vector>

namespace sus {

/// Owns the storage for every interned string and hands out stable Symbols.
///
/// Not thread-safe; a verification session owns exactly one interner
/// (usually via hist::HistContext).
class StringInterner {
public:
  StringInterner() = default;
  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;

  /// Interns \p Str, returning the same Symbol for equal strings.
  Symbol intern(std::string_view Str);

  /// Returns the string for a symbol produced by this interner.
  std::string_view text(Symbol S) const;

  /// Returns the symbol for \p Str if already interned, else an invalid one.
  Symbol lookup(std::string_view Str) const;

  /// Number of distinct strings interned so far.
  size_t size() const { return Texts.size(); }

  /// Makes room for \p N strings in all, so interning up to that many
  /// never rehashes (a capacity hint: results do not depend on it).
  void reserve(size_t N);

private:
  /// One open-addressing slot: a symbol and the high half of its string's
  /// hash, so a probe touches the string only on a likely match.
  struct Slot {
    uint32_t IdPlusOne = 0; ///< 0 when empty.
    uint32_t HashBits = 0;
  };

  /// Index of the slot holding \p Str's symbol, or of the empty slot it
  /// goes to.
  size_t find(std::string_view Str, size_t Hash) const;
  /// Rehashes into \p NumSlots slots (a power of two).
  void rehash(size_t NumSlots);

  // Open addressing over symbol ids, so a lookup allocates nothing and a
  // new string only bumps the character arena.
  Arena Chars;                         ///< String bytes; never move.
  std::vector<std::string_view> Texts; ///< By symbol id.
  std::vector<size_t> Hashes;          ///< By symbol id.
  std::vector<Slot> Slots;             ///< Power-of-two sized.
};

} // namespace sus

#endif // SUS_SUPPORT_STRINGINTERNER_H
