//===- support/HashUtil.h - Hash combination helpers ------------*- C++ -*-===//
///
/// \file
/// Small deterministic hash-combining utilities used by hash-consing maps.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_HASHUTIL_H
#define SUS_SUPPORT_HASHUTIL_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace sus {

/// Mixes \p Value into the running hash \p Seed (boost::hash_combine-style,
/// with a 64-bit constant).
inline void hashCombine(size_t &Seed, size_t Value) {
  Seed ^= Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) + (Seed >> 2);
}

/// Hashes \p V with std::hash and mixes it into \p Seed.
template <typename T> void hashCombineValue(size_t &Seed, const T &V) {
  hashCombine(Seed, std::hash<T>()(V));
}

/// Convenience: hash a parameter pack into one value.
template <typename... Ts> size_t hashAll(const Ts &...Vs) {
  size_t Seed = 0;
  (hashCombineValue(Seed, Vs), ...);
  return Seed;
}

/// Hashes a vector of integer words: hash-consing keys, packed state sets
/// and explored configurations.
struct WordsHash {
  template <typename T>
  size_t operator()(const std::vector<T> &V) const noexcept {
    size_t Seed = V.size();
    for (const T &X : V)
      hashCombineValue(Seed, X);
    return Seed;
  }
};

} // namespace sus

#endif // SUS_SUPPORT_HASHUTIL_H
