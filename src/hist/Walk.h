//===- hist/Walk.h - The one traversal of the expression DAG ----*- C++ -*-===//
///
/// \file
/// forEachChild is the only place that lists the children of each node
/// kind. walk visits every distinct node of a hash-consed expression once,
/// pre-order, left to right, with an explicit stack; its order is the
/// first-occurrence order of a recursive descent, so collectors built on
/// it report requests, events and policies in syntactic order.
///
/// A `;`-sequence is a right spine of SeqExpr nodes as long as the source
/// chain, while ParserBase::MaxDepth bounds every other kind of nesting.
/// So a walker that cannot use walk (it rewrites, or carries context down
/// the tree) recurses into heads and bodies only and loops along the
/// spine with forEachHead, or folds it with foldSpine: its depth
/// then follows the source nesting, never the length of a chain.
///
//===----------------------------------------------------------------------===//

#ifndef SUS_HIST_WALK_H
#define SUS_HIST_WALK_H

#include "hist/Expr.h"
#include "support/Casting.h"

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace sus {
namespace hist {

/// Calls \p F on each child of \p E, in syntactic order.
template <typename Fn> void forEachChild(const Expr *E, Fn &&F) {
  switch (E->kind()) {
  case ExprKind::Empty:
  case ExprKind::Var:
  case ExprKind::Event:
  case ExprKind::CloseMark:
  case ExprKind::FrameOpen:
  case ExprKind::FrameClose:
    return;
  case ExprKind::Mu:
    F(cast<MuExpr>(E)->body());
    return;
  case ExprKind::Seq:
    F(cast<SeqExpr>(E)->head());
    F(cast<SeqExpr>(E)->tail());
    return;
  case ExprKind::ExtChoice:
  case ExprKind::IntChoice:
    for (const ChoiceBranch &B : cast<ChoiceExpr>(E)->branches())
      F(B.Body);
    return;
  case ExprKind::Request:
    F(cast<RequestExpr>(E)->body());
    return;
  case ExprKind::Framing:
    F(cast<FramingExpr>(E)->body());
    return;
  }
}

/// The nodes a walk has seen: linear probing over a power-of-two table of
/// node pointers, so most walks allocate it once.
class SeenNodes {
public:
  /// True if \p E was not seen before.
  bool insert(const Expr *E) {
    if (2 * (Count + 1) > Slots.size()) {
      std::vector<const Expr *> Old(Slots.empty() ? 32 : 2 * Slots.size());
      Old.swap(Slots);
      for (const Expr *X : Old)
        if (X)
          slot(X) = X;
    }
    const Expr *&S = slot(E);
    if (S)
      return false;
    S = E;
    ++Count;
    return true;
  }

private:
  const Expr *&slot(const Expr *E) {
    uint64_t H = reinterpret_cast<uintptr_t>(E) * 0x9e3779b97f4a7c15ULL;
    size_t Mask = Slots.size() - 1;
    for (size_t I = (H ^ (H >> 32)) & Mask;; I = (I + 1) & Mask)
      if (!Slots[I] || Slots[I] == E)
        return Slots[I];
  }

  std::vector<const Expr *> Slots;
  size_t Count = 0;
};

/// Calls \p Visit on \p Root and every distinct node below it, pre-order,
/// left to right. \p Visit takes `const Expr *` and returns whether to
/// descend into that node's children.
template <typename Fn> void walk(const Expr *Root, Fn &&Visit) {
  std::vector<const Expr *> Stack{Root};
  SeenNodes Seen;
  while (!Stack.empty()) {
    const Expr *E = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(E) || !Visit(E))
      continue;
    // Push the children reversed, so they pop in syntactic order.
    size_t First = Stack.size();
    forEachChild(E, [&](const Expr *C) { Stack.push_back(C); });
    std::reverse(Stack.begin() + First, Stack.end());
  }
}

/// Calls \p F on each node of the `;` spine of \p E, front to back, and
/// returns the first node it did not pass: the spine's last term, which
/// is not a sequence (E is H₁·…·Hₙ·K for the heads F saw and that K), or,
/// when \p F returns bool, the node on which it returned false. \p F
/// takes `const SeqExpr *`.
template <typename Fn> const Expr *forEachHead(const Expr *E, Fn &&F) {
  while (const auto *S = dyn_cast<SeqExpr>(E)) {
    if constexpr (std::is_same_v<decltype(F(S)), bool>) {
      if (!F(S))
        return S;
    } else {
      F(S);
    }
    E = S->tail();
  }
  return E;
}

/// The value of \p E under a memoized bottom-up function whose results
/// \p Memo keeps by node (a rewrite, say), computed without recursing
/// along a `;` spine. \p Compute gives the value of a node that is not a
/// sequence (recursing into its children through the caller's own entry
/// point); \p Cons(S, Head, Tail) gives the value of sequence node S from
/// those of its head and tail. The spine is walked to the first node
/// \p Memo knows or that is not a sequence, computing each head on the
/// way, front to back; the values of the suffixes are then built from the
/// back and memoized.
template <typename MemoT, typename ComputeFn, typename ConsFn>
typename MemoT::mapped_type foldSpine(const Expr *E, MemoT &Memo,
                                      ComputeFn &&Compute, ConsFn &&Cons) {
  using Value = typename MemoT::mapped_type;
  std::vector<std::pair<const SeqExpr *, Value>> Spine;
  E = forEachHead(E, [&](const SeqExpr *S) {
    if (Memo.count(S))
      return false;
    // A head is never itself a sequence: this recursion stops at once.
    Spine.emplace_back(S, foldSpine(S->head(), Memo, Compute, Cons));
    return true;
  });
  auto Known = Memo.find(E);
  Value Result = Known != Memo.end()
                     ? Known->second
                     : Memo.emplace(E, Compute(E)).first->second;
  for (auto It = Spine.rbegin(); It != Spine.rend(); ++It) {
    Result = Cons(It->first, It->second, Result);
    Memo.emplace(It->first, Result);
  }
  return Result;
}

} // namespace hist
} // namespace sus

#endif // SUS_HIST_WALK_H
