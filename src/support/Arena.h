//===- support/Arena.h - Bump-pointer allocator -----------------*- C++ -*-===//
///
/// \file
/// A simple bump-pointer arena. AST nodes (history expressions, lambda
/// terms, BPA processes) are allocated here and live as long as their
/// owning context; they are never individually freed, which is what makes
/// hash-consed immutable nodes cheap to share.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_SUPPORT_ARENA_H
#define SUS_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace sus {

/// Bump allocator with destructor tracking.
///
/// `create<T>(...)` constructs a T inside the arena; its destructor runs
/// when the arena is destroyed. Allocation never fails short of OOM.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena() {
    // Run destructors in reverse construction order.
    for (auto It = Dtors.rbegin(); It != Dtors.rend(); ++It)
      It->Destroy(It->Object);
  }

  /// Constructs a \p T in the arena and returns a pointer owned by it.
  template <typename T, typename... Args> T *create(Args &&...As) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = new (Mem) T(std::forward<Args>(As)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Obj;
  }

  /// Raw aligned allocation inside the arena.
  void *allocate(size_t Size, size_t Align) {
    assert(Align > 0 && (Align & (Align - 1)) == 0 && "non power-of-2 align");
    uintptr_t Cur = reinterpret_cast<uintptr_t>(Ptr);
    uintptr_t Aligned = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    if (Aligned + Size > reinterpret_cast<uintptr_t>(End)) {
      grow(Size + Align);
      Cur = reinterpret_cast<uintptr_t>(Ptr);
      Aligned = (Cur + Align - 1) & ~(uintptr_t(Align) - 1);
    }
    Ptr = reinterpret_cast<char *>(Aligned + Size);
    return reinterpret_cast<void *>(Aligned);
  }

  /// Total bytes reserved by the arena so far (diagnostics/benchmarks).
  size_t bytesReserved() const { return Reserved; }

private:
  void grow(size_t AtLeast) {
    size_t SlabSize = LastSlabSize ? LastSlabSize * 2 : 4096;
    if (SlabSize < AtLeast)
      SlabSize = AtLeast;
    // Left uninitialized: every allocation is constructed before use, and
    // the slab's untouched tail then costs no page faults.
    Slabs.emplace_back(new char[SlabSize]);
    Ptr = Slabs.back().get();
    End = Ptr + SlabSize;
    LastSlabSize = SlabSize;
    Reserved += SlabSize;
  }

  struct DtorEntry {
    void *Object;
    void (*Destroy)(void *);
  };

  std::vector<std::unique_ptr<char[]>> Slabs;
  std::vector<DtorEntry> Dtors;
  char *Ptr = nullptr;
  char *End = nullptr;
  size_t LastSlabSize = 0;
  size_t Reserved = 0;
};

} // namespace sus

#endif // SUS_SUPPORT_ARENA_H
